//! The ℙ₂ Schur kernel through the whole online pipeline, on a faulted
//! 30-user × 24-slot taxi horizon and its clean twin.
//!
//! The user-blocked kernel is the only one; the dense Woodbury kernel it
//! replaced ran every horizon here, so its results are pinned: the total
//! cost (within 1e-6 relative), the ladder rungs and the degraded-slot
//! count. Slot by slot, every decision must be exactly demand- and
//! capacity-feasible as written, every `Primary` slot must have the ℙ₂
//! objective of a cold `p2::solve` plus `project_exact` on the slot input
//! the ladder solved (after sanitization), and every barrier-decided slot
//! must name the kernel that ran. The fault plan drives sanitization
//! (a NaN price), an extreme price and a dead cloud through the ladder.

use edgealloc::exact::project_exact;
use edgealloc::prelude::*;
use edgealloc::programs::p2;
use edgealloc::sanitize::sanitize_slot;
use edgealloc::SlotInput;
use optim::convex::BarrierOptions;
use sim::runner::build_instance;
use sim::scenario::{MobilityKind, Scenario};
use sim::{FaultKind, FaultPlan};

/// A 30-user × 24-slot taxi horizon under `faults`.
fn taxi_scenario(faults: FaultPlan) -> Scenario {
    Scenario {
        name: "kernel-equivalence".into(),
        mobility: MobilityKind::Taxi { num_users: 30 },
        num_slots: 24,
        repetitions: 1,
        seed: 11,
        faults,
        ..Scenario::default()
    }
}

/// Runs the default allocator over `inst` and checks it against the dense
/// kernel's pinned `total` and `degraded` count, and every slot against
/// its reference solve.
fn assert_matches_dense_run_and_references(inst: &Instance, total: f64, degraded: usize) {
    let mut alg = OnlineRegularized::with_defaults();
    let traj = run_online(inst, &mut alg).expect("horizon");
    let (eval, _) = inst.sanitized();
    let cost = evaluate_trajectory(&eval, &traj.allocations).total();
    let rel = (cost - total).abs() / total;
    assert!(
        rel <= 1e-6,
        "total {cost} vs the dense kernel's {total} (relative {rel:.3e})"
    );
    let health = traj.health_summary();
    let all_primary = RungCounts {
        primary: inst.num_slots(),
        ..RungCounts::default()
    };
    assert_eq!(health.rungs, all_primary);
    assert_eq!(health.degraded_slots, degraded);

    let eps = alg.epsilons();
    let mut prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
    for (t, (x, h)) in traj.allocations.iter().zip(&traj.health).enumerate() {
        // The slot input the ladder solved, built as `run_online` and
        // `decide_slot` build it.
        let scaled = inst.scaled_slot(t);
        let raw = match &scaled {
            Some(s) => s.as_input(inst, t),
            None => SlotInput::from_instance(inst, t),
        };
        let sanitized = sanitize_slot(&raw);
        let input = match &sanitized {
            Some((slot, _)) => slot.as_input(&raw),
            None => raw,
        };
        for j in 0..input.num_users() {
            assert!(
                x.user_total(j) >= input.workloads[j],
                "slot {t} user {j}: {} < {}",
                x.user_total(j),
                input.workloads[j]
            );
        }
        for i in 0..input.num_clouds() {
            assert!(
                x.cloud_total(i) <= input.system.capacity(i),
                "slot {t} cloud {i}: {} > {}",
                x.cloud_total(i),
                input.system.capacity(i)
            );
        }
        assert_eq!(h.schur_kernel.as_deref(), Some("blocked"), "slot {t}");
        if h.rung == FallbackRung::Primary {
            let mut reference = p2::solve(&input, &prev, eps, &BarrierOptions::default())
                .expect("reference solve")
                .allocation;
            project_exact(&input, &mut reference).expect("reference projection");
            let got = p2::slot_objective(&input, &prev, x, eps).expect("objective");
            let best = p2::slot_objective(&input, &prev, &reference, eps).expect("objective");
            let rel = (got - best).abs() / best.abs().max(1.0);
            assert!(
                rel <= 1e-6,
                "slot {t}: decision objective {got} vs reference {best} (relative {rel:.3e})"
            );
        }
        prev = x.clone();
    }
}

#[test]
fn blocked_kernel_matches_dense_on_clean_taxi_horizon() {
    let inst = build_instance(&taxi_scenario(FaultPlan::none()), 0).expect("instance");
    assert_matches_dense_run_and_references(&inst, 3956.7499266006453, 0);
}

#[test]
fn blocked_kernel_matches_dense_under_fault_injection() {
    // Price corruption mid-horizon plus a dead cloud: sanitization rewrites
    // slot 7's input (its one degraded slot) and the dead cloud loses its
    // reconfiguration term on every slot.
    let plan = FaultPlan {
        faults: vec![
            FaultKind::PriceNan { slot: 7, cloud: 1 },
            FaultKind::PriceSpike {
                slot: 12,
                cloud: 0,
                value: 1e9,
            },
            FaultKind::ZeroCapacity { cloud: 2 },
        ],
    };
    let inst = build_instance(&taxi_scenario(plan), 0).expect("instance");
    assert_matches_dense_run_and_references(&inst, 4470.220027745247, 1);
}
