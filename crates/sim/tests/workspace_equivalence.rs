//! Integration tests for the persistent-workspace online solve path:
//! [`OnlineRegularized`] with cross-slot solver reuse must produce the same
//! trajectories, bit for bit, as a solver reset before every slot (which
//! builds a fresh ℙ₂ workspace per slot) over a *full* taxi scenario —
//! including when fault injection forces the degradation ladder through
//! sanitization, retries, and LP fallbacks with a cached workspace in play,
//! when clouds go dark and come back mid-horizon (their reconfiguration
//! groups vanish and return), and when a pooled-cohort run changes its
//! cohort count between slots.

use edgealloc::algorithms::SlotInput;
use edgealloc::prelude::*;
use sim::runner::build_instance;
use sim::scenario::{MobilityKind, Scenario};
use sim::{FaultKind, FaultPlan, HostileKind, HostilePlan};

/// A taxi-mobility scenario sized like a (small) paper experiment.
fn taxi_scenario(faults: FaultPlan) -> Scenario {
    Scenario {
        name: "workspace-equivalence".into(),
        mobility: MobilityKind::Taxi { num_users: 12 },
        num_slots: 10,
        repetitions: 1,
        seed: 7,
        faults,
        ..Scenario::default()
    }
}

/// Resets its solver before every slot, so each slot builds a fresh ℙ₂
/// workspace: the reference a refreshed workspace must reproduce.
struct ResetEverySlot(OnlineRegularized);

impl OnlineAlgorithm for ResetEverySlot {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn decide(
        &mut self,
        input: &SlotInput<'_>,
        prev: &Allocation,
    ) -> edgealloc::Result<Allocation> {
        self.0.reset();
        self.0.decide(input, prev)
    }

    fn take_health(&mut self) -> Option<SlotHealth> {
        self.0.take_health()
    }
}

/// Runs `alg` and a copy reset before every slot over `inst`, asserts
/// that they agree, and returns the first run's trajectory.
fn assert_equivalent(inst: &Instance, alg: OnlineRegularized) -> Trajectory {
    let reused = run_online(inst, &mut alg.clone()).expect("horizon");
    let fresh = run_online(inst, &mut ResetEverySlot(alg)).expect("horizon");
    assert_eq!(reused.allocations.len(), fresh.allocations.len());
    // Caching the workspace must change neither a decision nor *which*
    // rung of the degradation ladder produced it.
    for (t, ((xa, ha), (xb, hb))) in reused
        .allocations
        .iter()
        .zip(&reused.health)
        .zip(fresh.allocations.iter().zip(&fresh.health))
        .enumerate()
    {
        assert_eq!(xa.as_flat(), xb.as_flat(), "slot {t}: allocations differ");
        assert_eq!(ha.rung, hb.rung, "slot {t}: rungs differ");
    }
    reused
}

#[test]
fn workspace_path_matches_fresh_path_on_clean_taxi_scenario() {
    let inst = build_instance(&taxi_scenario(FaultPlan::none()), 0).expect("instance");
    assert_equivalent(&inst, OnlineRegularized::with_defaults());
}

#[test]
fn workspace_path_matches_fresh_path_under_fault_injection() {
    // Price corruption mid-horizon plus a dead cloud: sanitization rewrites
    // slot inputs and the ladder may leave the primary rung — all with the
    // cached workspace carrying across the disruption.
    let plan = FaultPlan {
        faults: vec![
            FaultKind::PriceNan { slot: 3, cloud: 1 },
            FaultKind::PriceSpike {
                slot: 5,
                cloud: 0,
                value: 1e9,
            },
            FaultKind::ZeroCapacity { cloud: 2 },
        ],
    };
    let inst = build_instance(&taxi_scenario(plan), 0).expect("instance");
    assert_equivalent(&inst, OnlineRegularized::with_defaults());
}

#[test]
fn workspace_path_matches_fresh_path_under_rolling_blackouts() {
    // Clouds 0–3 lose all their capacity for two slots each, one after
    // another from slot 2: a zero capacity gives η = 0, so the set of
    // clouds with a reconfiguration group changes mid-horizon and changes
    // back, and the cached workspace must rebuild its solver each time.
    let scenario = Scenario {
        hostile: HostilePlan {
            seed: 0,
            events: vec![HostileKind::RollingDegradation {
                start: 2,
                slots_per_cloud: 2,
                loss: 1.0,
            }],
        },
        ..taxi_scenario(FaultPlan::none())
    };
    let inst = build_instance(&scenario, 0).expect("instance");
    let dark_slots = (0..inst.num_slots())
        .filter(|&t| (0..inst.num_clouds()).any(|i| inst.capacity_factor(t, i) == 0.0))
        .count();
    assert_eq!(dark_slots, 8, "slots 2–9 each have one dark cloud");
    let traj = assert_equivalent(&inst, OnlineRegularized::with_defaults());
    // Every slot is solved by the cached workspace's primary solve.
    assert!(traj.health.iter().all(|h| h.rung == FallbackRung::Primary));
}

#[test]
fn workspace_path_matches_fresh_path_with_a_changing_cohort_count() {
    // Pooled cohorts key on (station, λ-class): as users move, the count
    // of reduced "users" changes between slots, and so does the shape of
    // the reduced ℙ₂ the cached workspace solves.
    let scenario = Scenario {
        mobility: MobilityKind::Taxi { num_users: 40 },
        ..taxi_scenario(FaultPlan::none())
    };
    let inst = build_instance(&scenario, 0).expect("instance");
    let alg = OnlineRegularized::with_defaults().with_cohort_config(CohortConfig {
        lambda_tolerance: Some(0.5),
        max_cohort_fraction: 1.0,
        pool_references: true,
    });
    let traj = assert_equivalent(&inst, alg);
    let counts: Vec<usize> = traj.health.iter().map(|h| h.cohorts).collect();
    eprintln!("cohorts per slot: {counts:?}");
    assert!(
        counts.iter().all(|&c| c > 0),
        "every slot takes the cohort path: {counts:?}"
    );
    assert!(
        counts.windows(2).filter(|w| w[0] != w[1]).count() >= 3,
        "the cohort count changes between slots: {counts:?}"
    );
}
