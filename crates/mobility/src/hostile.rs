//! Hostile mobility shapes for overload experiments.
//!
//! The robustness track needs mobility that *concentrates* demand instead
//! of spreading it: a flash crowd pulling everyone to one station, and
//! diurnal commute waves that slosh the whole population between home and
//! work stations. Both are deterministic under a seeded RNG and produce
//! ordinary [`MobilityInput`] tables, so every downstream consumer (the
//! attachment-driven quality costs, the allocator, the statistics) treats
//! them exactly like the benign substrates.

use crate::attach::MobilityInput;
use crate::stations::StationNetwork;
use rand::Rng;

/// Flash-crowd reshaping of an existing mobility trace.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FlashCrowdConfig {
    /// Station (edge-cloud index) the crowd converges on.
    pub station: usize,
    /// First slot of the crowd window.
    pub start: usize,
    /// Window length in slots (0 = no reshaping).
    pub duration: usize,
    /// Probability that a user joins the crowd in a window slot; clamped
    /// to `[0, 1]` (non-finite values disable the pull).
    pub attraction: f64,
}

impl FlashCrowdConfig {
    fn attraction_prob(&self) -> f64 {
        if self.attraction.is_finite() {
            self.attraction.clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

/// Pulls users of an existing trace toward one station for a window of
/// slots: during `[start, start + duration)` each user independently
/// attaches to `cfg.station` with probability `cfg.attraction` (keeping
/// its own access delay), and follows its original trace otherwise.
///
/// The decision is rolled per user *and* slot, so the crowd churns the way
/// a real event does; outside the window the trace is returned unchanged.
///
/// The reshaped trace is a copy of `base` whose drawn entries are
/// overwritten in place; the draws run user by user, slot by slot.
///
/// # Panics
///
/// Panics if `net` is empty (there is no station to converge on), or if a
/// user joins a crowd whose station is not a cloud of `base`.
pub fn flash_crowd<R: Rng + ?Sized>(
    net: &StationNetwork,
    base: &MobilityInput,
    cfg: &FlashCrowdConfig,
    rng: &mut R,
) -> MobilityInput {
    assert!(!net.is_empty(), "station network is empty");
    let station = cfg.station.min(net.len() - 1);
    let prob = cfg.attraction_prob();
    let mut crowd = base.clone();
    if prob > 0.0 {
        let num_slots = base.num_slots();
        let window =
            cfg.start.min(num_slots)..cfg.start.saturating_add(cfg.duration).min(num_slots);
        for j in 0..base.num_users() {
            for t in window.clone() {
                if rng.gen_bool(prob) {
                    assert!(
                        station < base.num_clouds(),
                        "crowd station {station} is not a cloud of the trace"
                    );
                    crowd.set(j, t, (station, base.delay(j, t)));
                }
            }
        }
    }
    crowd
}

/// Diurnal commute-wave mobility.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CommuteConfig {
    /// Number of commuters.
    pub num_users: usize,
    /// Horizon length in slots.
    pub num_slots: usize,
    /// Slot of the morning wave (everyone heads to work).
    pub morning: usize,
    /// Slot of the evening wave (everyone heads home); waves collapse to
    /// one when `evening <= morning`.
    pub evening: usize,
    /// Per-user departure jitter in slots (uniform in `±jitter`), so the
    /// waves have realistic shoulders instead of a single step.
    pub jitter: usize,
}

impl Default for CommuteConfig {
    fn default() -> Self {
        CommuteConfig {
            num_users: 40,
            num_slots: 30,
            morning: 8,
            evening: 20,
            jitter: 2,
        }
    }
}

/// Generates commute-wave mobility: each user picks a home and a work
/// station (work stations are drawn from a small set of hubs, which is
/// what makes the morning wave hostile — most of the city lands on a few
/// clouds at once), sits at home before the jittered morning slot, at work
/// until the jittered evening slot, and back home afterwards.
///
/// Access delay is zero, matching the at-station idiom of
/// [`crate::random_walk`].
///
/// # Panics
///
/// Panics if `net` is empty.
pub fn commute_waves<R: Rng + ?Sized>(
    net: &StationNetwork,
    cfg: &CommuteConfig,
    rng: &mut R,
) -> MobilityInput {
    assert!(!net.is_empty(), "station network is empty");
    let num_stations = net.len();
    // A handful of work hubs concentrates the morning wave.
    let num_hubs = num_stations.div_ceil(5).max(1);
    let hubs: Vec<usize> = (0..num_hubs)
        .map(|_| rng.gen_range(0..num_stations))
        .collect();
    let jitter = |rng: &mut R, base: usize, j: usize| -> usize {
        if j == 0 {
            base
        } else {
            let offset = rng.gen_range(0..=(2 * j)) as isize - j as isize;
            base.saturating_add_signed(offset)
        }
    };
    let mut attachment = Vec::with_capacity(cfg.num_users);
    for _ in 0..cfg.num_users {
        let home = rng.gen_range(0..num_stations);
        let work = hubs[rng.gen_range(0..hubs.len())];
        let leave = jitter(rng, cfg.morning, cfg.jitter);
        let ret = jitter(rng, cfg.evening.max(cfg.morning), cfg.jitter).max(leave);
        let row: Vec<usize> = (0..cfg.num_slots)
            .map(|t| if t >= leave && t < ret { work } else { home })
            .collect();
        attachment.push(row);
    }
    let access_delay = vec![vec![0.0; cfg.num_slots]; cfg.num_users];
    MobilityInput::new(num_stations, attachment, access_delay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_walk;
    use crate::stations::rome_metro;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn flash_crowd_concentrates_the_window_and_leaves_the_rest() {
        let net = rome_metro();
        let base = random_walk::generate(&net, 30, 20, &mut StdRng::seed_from_u64(7));
        let cfg = FlashCrowdConfig {
            station: 3,
            start: 5,
            duration: 8,
            attraction: 1.0,
        };
        let crowd = flash_crowd(&net, &base, &cfg, &mut StdRng::seed_from_u64(8));
        for j in 0..30 {
            for t in 0..20 {
                if (5..13).contains(&t) {
                    assert_eq!(crowd.attached(j, t), 3, "user {j} slot {t} not in crowd");
                } else {
                    assert_eq!(crowd.attached(j, t), base.attached(j, t));
                }
                assert_eq!(crowd.delay(j, t), base.delay(j, t));
            }
        }
    }

    #[test]
    fn flash_crowd_is_deterministic_and_partial_at_half_attraction() {
        let net = rome_metro();
        let base = random_walk::generate(&net, 40, 16, &mut StdRng::seed_from_u64(1));
        let cfg = FlashCrowdConfig {
            station: 0,
            start: 4,
            duration: 6,
            attraction: 0.5,
        };
        let a = flash_crowd(&net, &base, &cfg, &mut StdRng::seed_from_u64(2));
        let b = flash_crowd(&net, &base, &cfg, &mut StdRng::seed_from_u64(2));
        assert_eq!(a, b);
        // Roughly half the window attachments sit at the crowd station.
        let mut at_crowd = 0usize;
        let mut total = 0usize;
        for j in 0..40 {
            for t in 4..10 {
                total += 1;
                if a.attached(j, t) == 0 {
                    at_crowd += 1;
                }
            }
        }
        let frac = at_crowd as f64 / total as f64;
        assert!(frac > 0.3 && frac < 0.8, "crowd fraction {frac}");
    }

    #[test]
    fn bad_attraction_and_station_are_clamped() {
        let net = rome_metro();
        let base = random_walk::generate(&net, 5, 8, &mut StdRng::seed_from_u64(3));
        let cfg = FlashCrowdConfig {
            station: 10_000,
            start: 0,
            duration: 8,
            attraction: f64::NAN,
        };
        // NaN attraction disables the pull entirely.
        let out = flash_crowd(&net, &base, &cfg, &mut StdRng::seed_from_u64(4));
        assert_eq!(out, base);
        // An out-of-range station clamps instead of panicking downstream.
        let cfg = FlashCrowdConfig {
            attraction: 1.0,
            ..cfg
        };
        let out = flash_crowd(&net, &base, &cfg, &mut StdRng::seed_from_u64(4));
        assert_eq!(out.attached(0, 0), net.len() - 1);
    }

    #[test]
    fn commute_waves_put_everyone_at_work_midday_and_home_at_night() {
        let net = rome_metro();
        let cfg = CommuteConfig {
            num_users: 25,
            num_slots: 30,
            morning: 8,
            evening: 20,
            jitter: 2,
        };
        let mob = commute_waves(&net, &cfg, &mut StdRng::seed_from_u64(5));
        assert_eq!(mob.num_users(), 25);
        assert_eq!(mob.num_slots(), 30);
        for j in 0..25 {
            let home = mob.attached(j, 0);
            let work = mob.attached(j, 14); // inside both jitter shoulders
            assert_eq!(mob.attached(j, 29), home, "user {j} did not return home");
            // Midday the user is at its (fixed) work station.
            for t in 11..17 {
                assert_eq!(mob.attached(j, t), work, "user {j} wandered at slot {t}");
            }
            assert_eq!(mob.delay(j, 0), 0.0);
        }
        // The hub draw concentrates work stations on a small set.
        let mut works: Vec<usize> = (0..25).map(|j| mob.attached(j, 14)).collect();
        works.sort_unstable();
        works.dedup();
        assert!(works.len() <= 3, "work hubs too spread: {works:?}");
    }

    #[test]
    fn commute_waves_are_deterministic() {
        let net = rome_metro();
        let cfg = CommuteConfig::default();
        let a = commute_waves(&net, &cfg, &mut StdRng::seed_from_u64(9));
        let b = commute_waves(&net, &cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
