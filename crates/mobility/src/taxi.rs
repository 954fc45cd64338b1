//! Synthetic taxi-like mobility traces.
//!
//! **Substitution note (see DESIGN.md):** the paper replays the CRAWDAD
//! `roma/taxi` GPS dataset, which requires a gated download. The allocation
//! algorithm only observes the per-slot nearest-station attachment and the
//! user-to-station distance, so what must be preserved is *arbitrary,
//! temporally correlated, non-Markov motion at street speeds with moderate
//! handover frequency*. This generator produces exactly that: taxis run
//! trips between "hotspots" scattered around the metro stations, moving at
//! noisy street speeds with idle pauses between fares. The real dataset can
//! be dropped in through [`crate::trace`].

use crate::attach::{MobilityInput, StationTable};
use crate::geo::{haversine_km, GeoPoint};
use crate::rand_util::{normal, truncated_normal};
use crate::stations::StationNetwork;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Kilometers per degree of latitude.
const KM_PER_DEG_LAT: f64 = 111.2;

/// Parameters of the synthetic taxi generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaxiConfig {
    /// Number of taxis (users).
    pub num_users: usize,
    /// Number of time slots.
    pub num_slots: usize,
    /// Slot length in seconds (the paper uses one-minute slots).
    pub slot_seconds: f64,
    /// Mean street speed in km/h.
    pub speed_kmh_mean: f64,
    /// Street-speed standard deviation in km/h.
    pub speed_kmh_sd: f64,
    /// Maximum idle pause between fares, in slots.
    pub pause_slots_max: usize,
    /// Spread (km std-dev) of trip endpoints around metro stations.
    pub hotspot_sd_km: f64,
}

impl Default for TaxiConfig {
    fn default() -> Self {
        TaxiConfig {
            num_users: 60,
            num_slots: 60,
            slot_seconds: 60.0,
            speed_kmh_mean: 30.0,
            speed_kmh_sd: 10.0,
            pause_slots_max: 4,
            hotspot_sd_km: 0.35,
        }
    }
}

/// Draws a hotspot: a point near a uniformly chosen station, jittered by a
/// 2-D Gaussian of `sd_km`. Shared with the churn generator
/// ([`crate::churn`]), whose arrivals and fare jumps land on hotspots too.
pub(crate) fn hotspot<R: Rng + ?Sized>(table: &StationTable, sd_km: f64, rng: &mut R) -> GeoPoint {
    let (s, cos_lat) = table.station(rng.gen_range(0..table.len()));
    let km_per_deg_lon = KM_PER_DEG_LAT * cos_lat;
    GeoPoint {
        lat: s.lat + normal(rng, 0.0, sd_km) / KM_PER_DEG_LAT,
        lon: s.lon + normal(rng, 0.0, sd_km) / km_per_deg_lon,
    }
}

/// One taxi's trajectory: its position, its fare's destination, its speed
/// and the idle slots left, with each point's `cos φ` taken once (for the
/// trip distance and the attachment).
struct Taxi {
    pos: GeoPoint,
    cos_pos: f64,
    dest: GeoPoint,
    cos_dest: f64,
    speed_kmh: f64,
    pause: usize,
}

impl Taxi {
    /// A taxi at a hotspot with a fare to another.
    fn new<R: Rng + ?Sized>(table: &StationTable, cfg: &TaxiConfig, rng: &mut R) -> Self {
        let pos = hotspot(table, cfg.hotspot_sd_km, rng);
        let dest = hotspot(table, cfg.hotspot_sd_km, rng);
        let speed_kmh = truncated_normal(rng, cfg.speed_kmh_mean, cfg.speed_kmh_sd, 5.0);
        Taxi {
            pos,
            cos_pos: pos.cos_lat(),
            dest,
            cos_dest: dest.cos_lat(),
            speed_kmh,
            pause: 0,
        }
    }

    /// Moves the taxi on by one slot.
    fn advance<R: Rng + ?Sized>(&mut self, table: &StationTable, cfg: &TaxiConfig, rng: &mut R) {
        if self.pause > 0 {
            self.pause -= 1;
            return;
        }
        let step_km = self.speed_kmh * cfg.slot_seconds / 3600.0;
        let remaining = haversine_km(&self.pos, self.cos_pos, &self.dest, self.cos_dest);
        if remaining <= step_km {
            // Fare completed: idle, then a new trip at a new speed.
            self.pos = self.dest;
            self.cos_pos = self.cos_dest;
            self.pause = rng.gen_range(0..=cfg.pause_slots_max);
            self.dest = hotspot(table, cfg.hotspot_sd_km, rng);
            self.cos_dest = self.dest.cos_lat();
            self.speed_kmh = truncated_normal(rng, cfg.speed_kmh_mean, cfg.speed_kmh_sd, 5.0);
        } else {
            // Advance along the straight line with lateral street noise.
            let f = step_km / remaining;
            let mut next = self.pos.lerp(&self.dest, f);
            let km_per_deg_lon = KM_PER_DEG_LAT * next.cos_lat();
            next.lat += normal(rng, 0.0, 0.03) / KM_PER_DEG_LAT;
            next.lon += normal(rng, 0.0, 0.03) / km_per_deg_lon;
            self.pos = next;
            self.cos_pos = next.cos_lat();
        }
    }
}

/// Walks every taxi through every slot, taxi by taxi, handing
/// `visit(j, t, position, cos φ)` each position as it is produced.
fn walk<R: Rng + ?Sized>(
    table: &StationTable,
    cfg: &TaxiConfig,
    rng: &mut R,
    mut visit: impl FnMut(usize, usize, &GeoPoint, f64),
) {
    for j in 0..cfg.num_users {
        let mut taxi = Taxi::new(table, cfg, rng);
        for t in 0..cfg.num_slots {
            visit(j, t, &taxi.pos, taxi.cos_pos);
            taxi.advance(table, cfg, rng);
        }
    }
}

/// Generates per-slot GPS positions for every taxi: the positions
/// [`generate`] attaches, drawn in the same order.
///
/// # Panics
///
/// Panics if `net` is empty.
pub fn generate_positions<R: Rng + ?Sized>(
    net: &StationNetwork,
    cfg: &TaxiConfig,
    rng: &mut R,
) -> Vec<Vec<GeoPoint>> {
    assert!(!net.is_empty(), "station network is empty");
    let mut rows: Vec<Vec<GeoPoint>> = (0..cfg.num_users)
        .map(|_| Vec::with_capacity(cfg.num_slots))
        .collect();
    walk(&StationTable::new(net), cfg, rng, |j, _, p, _| {
        rows[j].push(*p)
    });
    rows
}

/// Generates a full [`MobilityInput`]: each position attached to the
/// nearest station of `net` as the taxi reaches it, the same input as
/// [`MobilityInput::from_positions`] on [`generate_positions`]'s rows.
///
/// # Panics
///
/// Panics if `net` is empty.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use mobility::taxi::{generate, TaxiConfig};
///
/// let net = mobility::rome_metro();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let input = generate(&net, &TaxiConfig::default(), &mut rng);
/// assert_eq!(input.num_users(), 60);
/// ```
pub fn generate<R: Rng + ?Sized>(
    net: &StationNetwork,
    cfg: &TaxiConfig,
    rng: &mut R,
) -> MobilityInput {
    assert!(!net.is_empty(), "station network is empty");
    let table = StationTable::new(net);
    // Zero users give zero slots, as `from_positions` on no rows does.
    let num_slots = if cfg.num_users == 0 { 0 } else { cfg.num_slots };
    let mut input = MobilityInput::with_size(net.len(), cfg.num_users, num_slots);
    walk(&table, cfg, rng, |j, t, p, cos_p| {
        input.set(j, t, table.attach(p, cos_p))
    });
    input
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stations::rome_metro;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> TaxiConfig {
        TaxiConfig {
            num_users: 30,
            num_slots: 60,
            ..TaxiConfig::default()
        }
    }

    #[test]
    fn speeds_are_physically_plausible() {
        let net = rome_metro();
        let mut rng = StdRng::seed_from_u64(8);
        let pos = generate_positions(&net, &cfg(), &mut rng);
        for row in &pos {
            for w in row.windows(2) {
                let km = w[0].distance_km(&w[1]);
                // One minute at <= ~80 km/h incl. jitter.
                assert!(km < 1.5, "taxi teleported {km} km in one slot");
            }
        }
    }

    #[test]
    fn taxis_stay_near_the_city() {
        let net = rome_metro();
        let (min, max) = net.bounding_box();
        let mut rng = StdRng::seed_from_u64(8);
        let pos = generate_positions(&net, &cfg(), &mut rng);
        for row in &pos {
            for p in row {
                assert!(p.lat > min.lat - 0.05 && p.lat < max.lat + 0.05);
                assert!(p.lon > min.lon - 0.05 && p.lon < max.lon + 0.05);
            }
        }
    }

    #[test]
    fn mobility_is_moderate_not_frantic() {
        // The paper notes "moderate mobility" in the Roma dataset: users
        // should switch stations sometimes, but far less than every slot.
        let net = rome_metro();
        let mut rng = StdRng::seed_from_u64(13);
        let input = generate(&net, &cfg(), &mut rng);
        let rate = input.handover_rate();
        assert!(rate > 0.01, "taxis should move between cells: {rate}");
        assert!(rate < 0.5, "taxis should not thrash: {rate}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let net = rome_metro();
        let a = generate(&net, &cfg(), &mut StdRng::seed_from_u64(21));
        let b = generate(&net, &cfg(), &mut StdRng::seed_from_u64(21));
        assert_eq!(a, b);
    }

    #[test]
    fn access_delay_is_bounded_by_city_scale() {
        let net = rome_metro();
        let mut rng = StdRng::seed_from_u64(4);
        let input = generate(&net, &cfg(), &mut rng);
        for j in 0..input.num_users() {
            for t in 0..input.num_slots() {
                assert!(input.delay(j, t) < 5.0, "delay {}", input.delay(j, t));
            }
        }
    }
}
