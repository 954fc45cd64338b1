//! Property-based tests of the mobility substrates: the trace parser,
//! nearest-station attachment, and the statistical generators.

use mobility::geo::GeoPoint;
use mobility::trace::{parse_line, resample, TaxiRecord};
use mobility::workload::WorkloadDist;
use mobility::{rome_metro, MobilityInput};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn trace_parser_roundtrips_synthesized_lines(
        driver in 0u64..100_000,
        hh in 0u32..24,
        mm in 0u32..60,
        ss in 0u32..60,
        lat in 41.0f64..43.0,
        lon in 12.0f64..13.0,
    ) {
        let line = format!(
            "{driver};2014-02-12 {hh:02}:{mm:02}:{ss:02}+01;POINT({lat:.6} {lon:.6})"
        );
        let r = parse_line(&line).expect("well-formed line parses");
        prop_assert_eq!(r.driver, driver);
        prop_assert!((r.point.lat - lat).abs() < 1e-5);
        prop_assert!((r.point.lon - lon).abs() < 1e-5);
    }

    #[test]
    fn resample_positions_stay_within_fix_bounds(
        lat0 in 41.0f64..42.0,
        lat1 in 41.0f64..42.0,
        minutes in 1u32..30,
    ) {
        let t0 = 1_000_000.0;
        let recs = vec![
            TaxiRecord { driver: 1, timestamp: t0, point: GeoPoint::new(lat0, 12.5) },
            TaxiRecord { driver: 1, timestamp: t0 + minutes as f64 * 60.0, point: GeoPoint::new(lat1, 12.5) },
        ];
        let (ids, pos) = resample(&recs, t0, 60.0, minutes as usize + 1);
        prop_assert_eq!(ids, vec![1]);
        let (lo, hi) = if lat0 <= lat1 { (lat0, lat1) } else { (lat1, lat0) };
        for p in &pos[0] {
            prop_assert!(p.lat >= lo - 1e-9 && p.lat <= hi + 1e-9);
        }
    }

    #[test]
    fn nearest_station_is_truly_nearest(
        lat in 41.85f64..41.95,
        lon in 12.44f64..12.52,
    ) {
        let net = rome_metro();
        let p = GeoPoint::new(lat, lon);
        let (chosen, chosen_d) = net.attach(&p);
        prop_assert_eq!(
            chosen_d.to_bits(),
            net.station(chosen).position.distance_km(&p).to_bits()
        );
        for i in 0..net.len() {
            let d = net.station(i).position.distance_km(&p);
            prop_assert!(chosen_d <= d + 1e-12, "station {i} closer than {chosen}");
        }
    }

    #[test]
    fn workload_samples_respect_invariants(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for dist in [
            WorkloadDist::default_power(),
            WorkloadDist::default_uniform(),
            WorkloadDist::default_normal(),
        ] {
            let s = dist.sample_many(50, &mut rng);
            prop_assert!(s.iter().all(|&v| v >= 1));
        }
    }

    #[test]
    fn random_walk_attachments_are_valid_stations(
        seed in 0u64..500,
        users in 1usize..10,
        slots in 1usize..15,
    ) {
        let net = rome_metro();
        let mut rng = StdRng::seed_from_u64(seed);
        let input = mobility::random_walk::generate(&net, users, slots, &mut rng);
        prop_assert_eq!(input.num_users(), users);
        for j in 0..users {
            for t in 0..slots {
                prop_assert!(input.attached(j, t) < net.len());
            }
        }
    }

    #[test]
    fn handover_rate_is_a_rate(
        seed in 0u64..200,
        users in 1usize..8,
        slots in 2usize..12,
    ) {
        let net = rome_metro();
        let mut rng = StdRng::seed_from_u64(seed);
        let input = mobility::random_walk::generate(&net, users, slots, &mut rng);
        let r = input.handover_rate();
        prop_assert!((0.0..=1.0).contains(&r));
    }
}

#[test]
fn mobility_input_rejects_ragged_rows() {
    let result = std::panic::catch_unwind(|| {
        MobilityInput::new(2, vec![vec![0, 1], vec![0]], vec![vec![0.0; 2]; 2])
    });
    assert!(result.is_err());
}
