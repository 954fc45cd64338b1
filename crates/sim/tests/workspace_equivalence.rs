//! Integration tests for the persistent-workspace online solve path:
//! [`OnlineRegularized`] with cross-slot solver reuse must produce the same
//! trajectories, bit for bit, as a solver reset before every slot (which
//! builds a fresh ℙ₂ workspace per slot) over a *full* taxi scenario —
//! including when fault injection forces the degradation ladder through
//! sanitization, retries, and LP fallbacks with a cached workspace in play.

use edgealloc::algorithms::SlotInput;
use edgealloc::prelude::*;
use sim::runner::build_instance;
use sim::scenario::{MobilityKind, Scenario};
use sim::{FaultKind, FaultPlan};

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

fn assert_equivalent(inst: &Instance) {
    let reused = run_online(inst, &mut OnlineRegularized::with_defaults()).expect("horizon");
    let fresh = run_online(
        inst,
        &mut ResetEverySlot(OnlineRegularized::with_defaults()),
    )
    .expect("horizon");
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
}

#[test]
fn workspace_path_matches_fresh_path_on_clean_taxi_scenario() {
    let inst = build_instance(&taxi_scenario(FaultPlan::none()), 0).expect("instance");
    assert_equivalent(&inst);
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
    assert_equivalent(&inst);
}
