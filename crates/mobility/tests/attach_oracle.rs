//! Oracles of nearest-station attachment and the generators built on it.
//!
//! The attach kernel rules stations out with a planar proxy and runs the
//! haversine only for the few that may be nearest; the taxi generator
//! attaches each position as its walker produces it; the churn generator
//! attaches through the same kernel; the flash crowd overwrites its
//! trace's tables in place. Each must return what the code it replaced
//! returned, bit for bit. That code is kept below verbatim (`self` renamed
//! where a method became a function), and every test compares against it.

use mobility::churn::{ChurnConfig, ChurnEvent, ChurnTrace};
use mobility::geo::{GeoPoint, EARTH_RADIUS_KM};
use mobility::hostile::FlashCrowdConfig;
use mobility::rand_util::{normal, truncated_normal};
use mobility::taxi::TaxiConfig;
use mobility::{rome_metro, MobilityInput, Station, StationNetwork};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The former `GeoPoint::distance_km`.
fn distance_km(this: &GeoPoint, other: &GeoPoint) -> f64 {
    let (phi1, phi2) = (this.lat.to_radians(), other.lat.to_radians());
    let dphi = (other.lat - this.lat).to_radians();
    let dlambda = (other.lon - this.lon).to_radians();
    let a = (dphi / 2.0).sin().powi(2) + phi1.cos() * phi2.cos() * (dlambda / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
}

/// The former `StationNetwork::attach`: one haversine per station.
fn attach(net: &StationNetwork, p: &GeoPoint) -> (usize, f64) {
    assert!(!net.is_empty(), "no stations");
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, s) in net.stations().iter().enumerate() {
        let d = distance_km(&s.position, p);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    (best, best_d)
}

/// The former `MobilityInput::from_positions`, its rows transposed by
/// `MobilityInput::new`.
fn from_positions(net: &StationNetwork, positions: &[Vec<GeoPoint>]) -> MobilityInput {
    let mut attachment = Vec::with_capacity(positions.len());
    let mut access_delay = Vec::with_capacity(positions.len());
    for row in positions {
        let (a, d): (Vec<usize>, Vec<f64>) = row.iter().map(|p| attach(net, p)).unzip();
        attachment.push(a);
        access_delay.push(d);
    }
    MobilityInput::new(net.len(), attachment, access_delay)
}

/// Kilometers per degree of latitude.
const KM_PER_DEG_LAT: f64 = 111.2;

/// The former `taxi::hotspot`.
fn hotspot<R: Rng + ?Sized>(net: &StationNetwork, sd_km: f64, rng: &mut R) -> GeoPoint {
    let s = net.station(rng.gen_range(0..net.len())).position;
    let km_per_deg_lon = KM_PER_DEG_LAT * s.lat.to_radians().cos();
    GeoPoint {
        lat: s.lat + normal(rng, 0.0, sd_km) / KM_PER_DEG_LAT,
        lon: s.lon + normal(rng, 0.0, sd_km) / km_per_deg_lon,
    }
}

/// The former `taxi::generate_positions`.
fn generate_positions<R: Rng + ?Sized>(
    net: &StationNetwork,
    cfg: &TaxiConfig,
    rng: &mut R,
) -> Vec<Vec<GeoPoint>> {
    assert!(!net.is_empty(), "station network is empty");
    let mut all = Vec::with_capacity(cfg.num_users);
    for _ in 0..cfg.num_users {
        let mut pos = hotspot(net, cfg.hotspot_sd_km, rng);
        let mut dest = hotspot(net, cfg.hotspot_sd_km, rng);
        let mut speed_kmh = truncated_normal(rng, cfg.speed_kmh_mean, cfg.speed_kmh_sd, 5.0);
        let mut pause = 0usize;
        let mut row = Vec::with_capacity(cfg.num_slots);
        for _ in 0..cfg.num_slots {
            row.push(pos);
            if pause > 0 {
                pause -= 1;
                continue;
            }
            let step_km = speed_kmh * cfg.slot_seconds / 3600.0;
            let remaining = distance_km(&pos, &dest);
            if remaining <= step_km {
                // Fare completed: idle, then a new trip at a new speed.
                pos = dest;
                pause = rng.gen_range(0..=cfg.pause_slots_max);
                dest = hotspot(net, cfg.hotspot_sd_km, rng);
                speed_kmh = truncated_normal(rng, cfg.speed_kmh_mean, cfg.speed_kmh_sd, 5.0);
            } else {
                // Advance along the straight line with lateral street noise.
                let f = step_km / remaining;
                let mut next = pos.lerp(&dest, f);
                let km_per_deg_lon = KM_PER_DEG_LAT * next.lat.to_radians().cos();
                next.lat += normal(rng, 0.0, 0.03) / KM_PER_DEG_LAT;
                next.lon += normal(rng, 0.0, 0.03) / km_per_deg_lon;
                pos = next;
            }
        }
        all.push(row);
    }
    all
}

/// The former `taxi::generate`: positions first, then `from_positions`.
fn taxi_generate<R: Rng + ?Sized>(
    net: &StationNetwork,
    cfg: &TaxiConfig,
    rng: &mut R,
) -> MobilityInput {
    let positions = generate_positions(net, cfg, rng);
    from_positions(net, &positions)
}

/// The former `churn::generate`.
fn churn_generate<R: Rng + ?Sized>(
    net: &StationNetwork,
    cfg: &ChurnConfig,
    rng: &mut R,
) -> ChurnTrace {
    assert!(!net.is_empty(), "station network is empty");
    let mut next_id = 0u64;
    let mut active: Vec<u64> = Vec::with_capacity(cfg.initial_users);
    let mut slots = Vec::with_capacity(cfg.num_slots);
    // Fractional arrival budget carried across slots so non-integer rates
    // stay deterministic (no per-slot coin flip on the count).
    let mut arrival_budget = 0.0f64;
    let mut arrive = |active: &mut Vec<u64>, rng: &mut R, out: &mut Vec<ChurnEvent>| {
        let (station, delay) = attach(net, &hotspot(net, cfg.hotspot_sd_km, rng));
        let lambda = f64::from(cfg.workload.sample(rng));
        let user = next_id;
        next_id += 1;
        active.push(user);
        out.push(ChurnEvent::Arrive {
            user,
            station,
            lambda,
            delay,
        });
    };
    for t in 0..cfg.num_slots {
        let mut events = Vec::new();
        if t == 0 {
            for _ in 0..cfg.initial_users {
                arrive(&mut active, rng, &mut events);
            }
            slots.push(events);
            continue;
        }
        // Departures: scan in stable id order so the draw sequence never
        // depends on container layout.
        let mut survivors = Vec::with_capacity(active.len());
        for &user in &active {
            if rng.gen_bool(cfg.depart_prob) {
                events.push(ChurnEvent::Depart { user });
            } else {
                survivors.push(user);
            }
        }
        active = survivors;
        // Fare jumps: a parked taxi picks up a fare and reappears at a new
        // hotspot; attachment and delay both change.
        for &user in &active {
            if rng.gen_bool(cfg.move_prob) {
                let (station, delay) = attach(net, &hotspot(net, cfg.hotspot_sd_km, rng));
                events.push(ChurnEvent::Move {
                    user,
                    station,
                    delay,
                });
            }
        }
        // Arrivals.
        arrival_budget += cfg.arrival_rate;
        while arrival_budget >= 1.0 {
            arrival_budget -= 1.0;
            arrive(&mut active, rng, &mut events);
        }
        slots.push(events);
    }
    ChurnTrace {
        num_clouds: net.len(),
        slots,
    }
}

/// The former `FlashCrowdConfig::attraction_prob`.
fn attraction_prob(cfg: &FlashCrowdConfig) -> f64 {
    if cfg.attraction.is_finite() {
        cfg.attraction.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// The former `hostile::flash_crowd`.
fn flash_crowd<R: Rng + ?Sized>(
    net: &StationNetwork,
    base: &MobilityInput,
    cfg: &FlashCrowdConfig,
    rng: &mut R,
) -> MobilityInput {
    assert!(!net.is_empty(), "station network is empty");
    let station = cfg.station.min(net.len() - 1);
    let prob = attraction_prob(cfg);
    let end = cfg.start.saturating_add(cfg.duration);
    let num_users = base.num_users();
    let num_slots = base.num_slots();
    let mut attachment = Vec::with_capacity(num_users);
    let mut access_delay = Vec::with_capacity(num_users);
    for j in 0..num_users {
        let mut row = Vec::with_capacity(num_slots);
        let mut delays = Vec::with_capacity(num_slots);
        for t in 0..num_slots {
            let in_window = t >= cfg.start && t < end;
            if in_window && prob > 0.0 && rng.gen_bool(prob) {
                row.push(station);
            } else {
                row.push(base.attached(j, t));
            }
            delays.push(base.delay(j, t));
        }
        attachment.push(row);
        access_delay.push(delays);
    }
    MobilityInput::new(base.num_clouds(), attachment, access_delay)
}

/// `got` and `want` are equal, every delay bit for bit.
fn assert_same_input(got: &MobilityInput, want: &MobilityInput, what: &str) {
    assert!(got == want, "{what}: the inputs differ");
    for t in 0..want.num_slots() {
        let bits = |m: &MobilityInput| {
            m.delays_at(t)
                .iter()
                .map(|d| d.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(got), bits(want), "{what}: slot {t} delay bits");
    }
}

/// Every event's delay, bit for bit.
fn delay_bits(trace: &ChurnTrace) -> Vec<u64> {
    let delay = |ev: &ChurnEvent| match *ev {
        ChurnEvent::Arrive { delay, .. } | ChurnEvent::Move { delay, .. } => Some(delay.to_bits()),
        ChurnEvent::Depart { .. } => None,
    };
    trace.slots.iter().flatten().filter_map(delay).collect()
}

/// Both generators leave their RNGs at the same point of the stream.
fn assert_same_stream(got: &mut StdRng, want: &mut StdRng, what: &str) {
    assert_eq!(got.next_u64(), want.next_u64(), "{what}: RNG stream");
}

/// The kernel and the former loop attach `p` to the same station at the
/// same distance bits.
fn assert_attaches_like_the_loop(net: &StationNetwork, p: GeoPoint) {
    let (got, got_d) = net.attach(&p);
    let (want, want_d) = attach(net, &p);
    assert_eq!(
        (got, got_d.to_bits()),
        (want, want_d.to_bits()),
        "{p:?}: {got_d} against {want_d}"
    );
}

/// A network of the given positions, without metro edges.
fn network(points: &[(f64, f64)]) -> StationNetwork {
    let stations = points
        .iter()
        .enumerate()
        .map(|(i, &(lat, lon))| Station {
            name: format!("s{i}"),
            position: GeoPoint::new(lat, lon),
        })
        .collect();
    StationNetwork::new(stations, &[])
}

#[test]
fn stations_midpoints_and_their_neighbours_attach_like_the_loop() {
    let net = rome_metro();
    let stations: Vec<GeoPoint> = net.stations().iter().map(|s| s.position).collect();
    for a in &stations {
        for b in &stations {
            let mid = a.lerp(b, 0.5);
            for p in [*a, mid] {
                assert_attaches_like_the_loop(&net, p);
                // A few ulps off, each way and each coordinate.
                let mut q = p;
                for _ in 0..4 {
                    q.lat = q.lat.next_up();
                    assert_attaches_like_the_loop(&net, q);
                    q.lon = q.lon.next_down();
                    assert_attaches_like_the_loop(&net, q);
                }
            }
        }
    }
}

#[test]
fn non_finite_and_far_positions_attach_like_the_loop() {
    let net = rome_metro();
    let odd = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        41.9,
        12.5,
        95.0,
        -181.0,
    ];
    for &lat in &odd {
        for &lon in &odd {
            assert_attaches_like_the_loop(&net, GeoPoint::new(lat, lon));
        }
    }
}

#[test]
fn odd_networks_attach_like_the_loop() {
    // Duplicated stations, a pole, latitudes beyond ±90° (a negative
    // cos φ), the antimeridian, and tiny coordinates near (0, 0).
    let nets = [
        network(&[(41.9, 12.5), (41.9, 12.5), (41.91, 12.5)]),
        network(&[(89.995, 0.0), (89.995, 120.0), (89.99, -60.0)]),
        network(&[(90.2, 12.5), (89.8, 12.5), (90.0, 12.6)]),
        network(&[(0.1, 179.999), (0.1, -179.999)]),
        network(&[(0.0, 0.0), (1e-300, 0.0), (0.0, 5e-324), (-1e-310, 1e-310)]),
    ];
    let mut rng = StdRng::seed_from_u64(5);
    for net in &nets {
        for s in net.stations() {
            let p = s.position;
            assert_attaches_like_the_loop(net, p);
            for scale in [1e-300, 1e-12, 1e-6, 1e-3, 0.3, 2.0] {
                let q = GeoPoint::new(
                    p.lat + scale * rng.gen_range(-1.0..1.0),
                    p.lon + scale * rng.gen_range(-1.0..1.0),
                );
                assert_attaches_like_the_loop(net, q);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn kernel_is_the_loop_near_rome(lat in 41.80f64..42.00, lon in 12.38f64..12.58) {
        let net = rome_metro();
        let p = GeoPoint::new(lat, lon);
        let (got, got_d) = net.attach(&p);
        let (want, want_d) = attach(&net, &p);
        prop_assert_eq!((got, got_d.to_bits()), (want, want_d.to_bits()));
    }

    #[test]
    fn kernel_is_the_loop_within_three_degrees(lat in 38.9f64..44.9, lon in 9.5f64..15.5) {
        // Most of these lie beyond the proxy's 0.01-rad half-angle bound
        // (about 1.15° from a station) and take the full loop.
        let net = rome_metro();
        let p = GeoPoint::new(lat, lon);
        let (got, got_d) = net.attach(&p);
        let (want, want_d) = attach(&net, &p);
        prop_assert_eq!((got, got_d.to_bits()), (want, want_d.to_bits()));
    }

    #[test]
    fn kernel_is_the_loop_anywhere(lat in -90.0f64..90.0, lon in -180.0f64..180.0) {
        let net = rome_metro();
        let p = GeoPoint::new(lat, lon);
        let (got, got_d) = net.attach(&p);
        let (want, want_d) = attach(&net, &p);
        prop_assert_eq!((got, got_d.to_bits()), (want, want_d.to_bits()));
    }

    #[test]
    fn kernel_is_the_loop_on_random_networks(
        seed in 0u64..u64::MAX,
        lat0 in -89.0f64..89.0,
        lon0 in -179.0f64..179.0,
        size in 1usize..20,
        spread in 1e-6f64..0.05,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<(f64, f64)> = (0..size)
            .map(|_| {
                (
                    lat0 + spread * rng.gen_range(-1.0..1.0),
                    lon0 + spread * rng.gen_range(-1.0..1.0),
                )
            })
            .collect();
        let net = network(&points);
        for _ in 0..32 {
            let p = GeoPoint::new(
                lat0 + 2.0 * spread * rng.gen_range(-1.0..1.0),
                lon0 + 2.0 * spread * rng.gen_range(-1.0..1.0),
            );
            let (got, got_d) = net.attach(&p);
            let (want, want_d) = attach(&net, &p);
            prop_assert_eq!((got, got_d.to_bits()), (want, want_d.to_bits()));
        }
    }
}

#[test]
fn taxi_generate_is_the_former_generator() {
    let net = rome_metro();
    let configs = [
        TaxiConfig::default(),
        TaxiConfig {
            num_users: 300,
            num_slots: 40,
            pause_slots_max: 0,
            hotspot_sd_km: 1.5,
            ..TaxiConfig::default()
        },
        TaxiConfig {
            num_users: 7,
            num_slots: 1,
            ..TaxiConfig::default()
        },
        TaxiConfig {
            num_users: 0,
            ..TaxiConfig::default()
        },
    ];
    for (k, cfg) in configs.iter().enumerate() {
        for seed in 1..=4 {
            let what = format!("config {k}, seed {seed}");
            let (mut got_rng, mut want_rng) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let got = mobility::taxi::generate(&net, cfg, &mut got_rng);
            let want = taxi_generate(&net, cfg, &mut want_rng);
            assert_same_input(&got, &want, &what);
            assert_same_stream(&mut got_rng, &mut want_rng, &what);
            // The public positions are the former positions too.
            let mut rng = StdRng::seed_from_u64(seed);
            let rows = mobility::taxi::generate_positions(&net, cfg, &mut rng);
            let want_rows = generate_positions(&net, cfg, &mut StdRng::seed_from_u64(seed));
            assert_eq!(rows, want_rows, "{what}: positions");
            assert_same_input(&MobilityInput::from_positions(&net, &rows), &want, &what);
        }
    }
}

#[test]
fn flash_crowd_workload_is_the_former_one() {
    // The benchmark's flash-crowd shape: 10,000 taxis over 12 slots, then
    // a crowd pulling 80% of them to station 0 over slots 8–11, on one RNG.
    let net = rome_metro();
    let cfg = TaxiConfig {
        num_users: 10_000,
        num_slots: 12,
        ..TaxiConfig::default()
    };
    let crowd = FlashCrowdConfig {
        station: 0,
        start: 8,
        duration: 4,
        attraction: 0.8,
    };
    for seed in [1, 2] {
        let what = format!("seed {seed}");
        let mut got_rng = StdRng::seed_from_u64(seed);
        let got = mobility::taxi::generate(&net, &cfg, &mut got_rng);
        let got = mobility::hostile::flash_crowd(&net, &got, &crowd, &mut got_rng);
        let mut want_rng = StdRng::seed_from_u64(seed);
        let want = taxi_generate(&net, &cfg, &mut want_rng);
        let want = flash_crowd(&net, &want, &crowd, &mut want_rng);
        assert_same_input(&got, &want, &what);
        assert_same_stream(&mut got_rng, &mut want_rng, &what);
    }
}

#[test]
fn flash_crowd_is_the_former_reshaping() {
    let net = rome_metro();
    let base = mobility::random_walk::generate(&net, 50, 20, &mut StdRng::seed_from_u64(3));
    let taxi = taxi_generate(
        &net,
        &TaxiConfig {
            num_users: 40,
            num_slots: 10,
            ..TaxiConfig::default()
        },
        &mut StdRng::seed_from_u64(4),
    );
    let windows = [
        (0, 20),
        (5, 8),
        (15, 100),
        (19, 1),
        (20, 5),
        (usize::MAX, 3),
        (3, 0),
    ];
    let attractions = [0.0, 0.3, 0.5, 1.0, 2.0, -1.0, f64::NAN, f64::INFINITY];
    for base in [&base, &taxi] {
        for &(start, duration) in &windows {
            for &attraction in &attractions {
                for station in [0, 6, 99] {
                    let cfg = FlashCrowdConfig {
                        station,
                        start,
                        duration,
                        attraction,
                    };
                    let what = format!("{cfg:?}");
                    let (mut got_rng, mut want_rng) =
                        (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
                    let got = mobility::hostile::flash_crowd(&net, base, &cfg, &mut got_rng);
                    let want = flash_crowd(&net, base, &cfg, &mut want_rng);
                    assert_same_input(&got, &want, &what);
                    assert_same_stream(&mut got_rng, &mut want_rng, &what);
                }
            }
        }
    }
}

#[test]
fn churn_generate_is_the_former_generator() {
    let net = rome_metro();
    // The streaming benchmark's mix: 0.5% churn per slot, split evenly
    // between departures, moves and arrivals.
    let per_kind = 0.005 / 3.0;
    let stream = |users: usize, slots: usize| ChurnConfig {
        initial_users: users,
        num_slots: slots,
        arrival_rate: per_kind * users as f64,
        depart_prob: per_kind,
        move_prob: per_kind,
        ..ChurnConfig::default()
    };
    let busy = ChurnConfig {
        initial_users: 200,
        num_slots: 60,
        arrival_rate: 3.7,
        depart_prob: 0.05,
        move_prob: 0.2,
        hotspot_sd_km: 2.0,
        ..ChurnConfig::default()
    };
    let cases = [
        (ChurnConfig::default(), 1..=4),
        (busy, 1..=4),
        (stream(20_000, 30), 1..=2),
    ];
    for (k, (cfg, seeds)) in cases.into_iter().enumerate() {
        for seed in seeds {
            let what = format!("case {k}, seed {seed}");
            let (mut got_rng, mut want_rng) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let got = mobility::churn::generate(&net, &cfg, &mut got_rng);
            let want = churn_generate(&net, &cfg, &mut want_rng);
            assert!(got == want, "{what}: the traces differ");
            assert_eq!(delay_bits(&got), delay_bits(&want), "{what}: delay bits");
            assert_same_stream(&mut got_rng, &mut want_rng, &what);
        }
    }
}
