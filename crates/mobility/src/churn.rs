//! Deterministic churn-event streams: arrivals, departures, and handovers
//! as slot-ordered deltas instead of fixed user populations.
//!
//! The batch model of [`crate::attach::MobilityInput`] fixes the user set
//! for the whole horizon; a live edge service sees a *churning* population
//! — taxis start and end shifts, users walk in and out of coverage. This
//! module generates that stream: users park at taxi hotspots (see
//! [`crate::taxi`]) and stay attached with a fixed delay until a fare jump
//! moves them (a sparse [`ChurnEvent::Move`]), while a random-walk
//! birth/death process retires users and admits fresh ones. Every event is
//! drawn from one seeded RNG in a fixed order, so a trace is replay-stable:
//! the same seed reproduces the identical event stream, which the streaming
//! allocator (`crates/stream`) relies on for resumable soak runs.

use crate::attach::StationTable;
use crate::stations::StationNetwork;
use crate::taxi::hotspot;
use crate::workload::WorkloadDist;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One churn delta. User identifiers are stable `u64` handles assigned at
/// arrival and never reused within a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChurnEvent {
    /// A new user enters service at `station` with workload `lambda` and
    /// access delay `delay`.
    Arrive {
        /// Stable user handle.
        user: u64,
        /// Nearest station (the attachment `l_j`).
        station: usize,
        /// Workload `λ_j ≥ 1`.
        lambda: f64,
        /// Access delay at `station`.
        delay: f64,
    },
    /// The user leaves service; its workload vanishes from the system.
    Depart {
        /// Stable user handle.
        user: u64,
    },
    /// The user hands over to `station` at access delay `delay`.
    Move {
        /// Stable user handle.
        user: u64,
        /// New attachment.
        station: usize,
        /// New access delay at `station`.
        delay: f64,
    },
}

impl ChurnEvent {
    /// The stable handle of the user this event concerns.
    pub fn user(&self) -> u64 {
        match *self {
            ChurnEvent::Arrive { user, .. }
            | ChurnEvent::Depart { user }
            | ChurnEvent::Move { user, .. } => user,
        }
    }
}

/// A slot-ordered churn trace: `slots[t]` lists slot `t`'s events in
/// application order (departures, then moves, then arrivals).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnTrace {
    /// Number of edge clouds the events reference.
    pub num_clouds: usize,
    /// Per-slot event lists.
    pub slots: Vec<Vec<ChurnEvent>>,
}

impl ChurnTrace {
    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Largest concurrent user population over the horizon (measured after
    /// each slot's events apply).
    pub fn peak_users(&self) -> usize {
        let mut active = 0usize;
        let mut peak = 0usize;
        for slot in &self.slots {
            for ev in slot {
                match ev {
                    ChurnEvent::Arrive { .. } => active += 1,
                    ChurnEvent::Depart { .. } => active -= 1,
                    ChurnEvent::Move { .. } => {}
                }
            }
            peak = peak.max(active);
        }
        peak
    }
}

/// Parameters of the churn generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Users arriving at slot 0 (the starting population).
    pub initial_users: usize,
    /// Number of time slots.
    pub num_slots: usize,
    /// Expected arrivals per slot from slot 1 on (fractional rates
    /// accumulate deterministically across slots).
    pub arrival_rate: f64,
    /// Per-user, per-slot probability of leaving service.
    pub depart_prob: f64,
    /// Per-user, per-slot probability of a fare jump to a new hotspot
    /// (emitting a [`ChurnEvent::Move`]).
    pub move_prob: f64,
    /// Workload distribution for arriving users.
    pub workload: WorkloadDist,
    /// Spread (km std-dev) of hotspots around metro stations.
    pub hotspot_sd_km: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            initial_users: 60,
            num_slots: 60,
            arrival_rate: 0.5,
            depart_prob: 0.01,
            move_prob: 0.05,
            workload: WorkloadDist::default_power(),
            hotspot_sd_km: 0.35,
        }
    }
}

/// Generates a seeded, replay-stable churn trace: slot 0 carries the
/// `initial_users` arrivals, later slots carry departures, fare-jump moves,
/// and fresh arrivals in that order.
///
/// # Panics
///
/// Panics if `net` is empty.
pub fn generate<R: Rng + ?Sized>(
    net: &StationNetwork,
    cfg: &ChurnConfig,
    rng: &mut R,
) -> ChurnTrace {
    assert!(!net.is_empty(), "station network is empty");
    let table = StationTable::new(net);
    // A hotspot and its attachment `(station, delay)`.
    let land = |rng: &mut R| -> (usize, f64) {
        let p = hotspot(&table, cfg.hotspot_sd_km, rng);
        table.attach(&p, p.cos_lat())
    };
    let mut next_id = 0u64;
    let mut active: Vec<u64> = Vec::with_capacity(cfg.initial_users);
    let mut slots = Vec::with_capacity(cfg.num_slots);
    // Fractional arrival budget carried across slots so non-integer rates
    // stay deterministic (no per-slot coin flip on the count).
    let mut arrival_budget = 0.0f64;
    let mut arrive = |active: &mut Vec<u64>, rng: &mut R, out: &mut Vec<ChurnEvent>| {
        let (station, delay) = land(rng);
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
                let (station, delay) = land(rng);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stations::rome_metro;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn cfg() -> ChurnConfig {
        ChurnConfig {
            initial_users: 40,
            num_slots: 50,
            arrival_rate: 0.7,
            depart_prob: 0.02,
            move_prob: 0.08,
            ..ChurnConfig::default()
        }
    }

    #[test]
    fn replay_stable_for_fixed_seed() {
        let net = rome_metro();
        let a = generate(&net, &cfg(), &mut StdRng::seed_from_u64(11));
        let b = generate(&net, &cfg(), &mut StdRng::seed_from_u64(11));
        assert_eq!(a, b, "same seed must reproduce the identical stream");
        let c = generate(&net, &cfg(), &mut StdRng::seed_from_u64(12));
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn events_are_well_formed() {
        let net = rome_metro();
        let trace = generate(&net, &cfg(), &mut StdRng::seed_from_u64(5));
        assert_eq!(trace.num_clouds, net.len());
        assert_eq!(trace.num_slots(), 50);
        let mut live: HashSet<u64> = HashSet::new();
        let mut seen: HashSet<u64> = HashSet::new();
        for slot in &trace.slots {
            for ev in slot {
                match ev {
                    ChurnEvent::Arrive {
                        user,
                        station,
                        lambda,
                        delay,
                    } => {
                        assert!(seen.insert(*user), "id {user} reused");
                        assert!(live.insert(*user));
                        assert!(*station < net.len());
                        assert!(*lambda >= 1.0 && lambda.is_finite());
                        assert!(*delay >= 0.0 && delay.is_finite());
                    }
                    ChurnEvent::Depart { user } => {
                        assert!(live.remove(user), "departing unknown user {user}");
                    }
                    ChurnEvent::Move {
                        user,
                        station,
                        delay,
                    } => {
                        assert!(live.contains(user), "moving unknown user {user}");
                        assert!(*station < net.len());
                        assert!(*delay >= 0.0 && delay.is_finite());
                    }
                }
            }
        }
        assert!(trace.peak_users() >= 40);
    }

    #[test]
    fn churn_stays_sparse() {
        // The streaming perf story depends on most users being untouched
        // in most slots; the default rates must keep per-slot churn small.
        let net = rome_metro();
        let trace = generate(&net, &cfg(), &mut StdRng::seed_from_u64(3));
        let peak = trace.peak_users() as f64;
        for slot in trace.slots.iter().skip(1) {
            assert!(
                (slot.len() as f64) < 0.5 * peak,
                "slot churn {} too dense for population {peak}",
                slot.len()
            );
        }
    }
}
