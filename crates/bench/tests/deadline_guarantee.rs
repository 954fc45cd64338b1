//! Deadline acceptance: on a fault-injected 30-user × 24-slot horizon with
//! a deliberately expensive primary solve, a 50 ms per-slot budget must
//! bound every slot's wall clock near the deadline, every slot must still
//! produce a decision, and the budget pressure must be visible in the
//! health telemetry (deadline hits on non-primary rungs).

use edgealloc::algorithms::run_online;
use edgealloc::health::FallbackRung;
use edgealloc::prelude::*;
use optim::convex::BarrierOptions;
use rand::SeedableRng;
use sim::faults::{FaultKind, FaultPlan};

#[test]
fn fifty_ms_slot_deadline_bounds_a_faulted_horizon() {
    let users = 30;
    let slots = 24;
    let net = mobility::rome_metro();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let cfg = mobility::taxi::TaxiConfig {
        num_users: users,
        num_slots: slots,
        ..Default::default()
    };
    let mob = mobility::taxi::generate(&net, &cfg, &mut rng);
    let mut inst = Instance::synthetic(&net, mob, &mut rng);
    FaultPlan {
        faults: vec![
            FaultKind::PriceNan { slot: 3, cloud: 0 },
            FaultKind::PriceSpike {
                slot: 11,
                cloud: 2,
                value: -75.0,
            },
            FaultKind::ZeroCapacity { cloud: 1 },
        ],
    }
    .apply(&mut inst);

    // Cripple the primary solve: a tolerance at the numerical floor with a
    // huge iteration allowance wants far more Newton steps than 50 ms
    // permits, so the budget — not convergence — ends each slot.
    let deadline_ms = 50.0;
    let mut alg = OnlineRegularized::with_defaults()
        .with_solver_options(BarrierOptions {
            tol: 1e-14,
            max_iterations: 10_000,
            ..BarrierOptions::default()
        })
        .with_slot_deadline_ms(deadline_ms);

    let traj = run_online(&inst, &mut alg).expect("every slot must deliver a decision");
    assert_eq!(traj.allocations.len(), slots);
    assert_eq!(traj.health.len(), slots);

    let hits = traj.health.iter().filter(|h| h.deadline_hit).count();
    assert!(hits >= 1, "expected at least one deadline hit, got none");
    assert!(
        traj.health
            .iter()
            .any(|h| h.deadline_hit && h.rung != FallbackRung::Primary),
        "a deadline hit should land on a degraded rung"
    );

    // ~2× the deadline: one budget's worth of solving plus at most one
    // uncancellable Newton step / phase-I factorization of overshoot (plus
    // a little absolute grace for a loaded CI machine). The deadline is
    // checked between steps, so a debug build — whose individual steps run
    // 10–15× slower depending on the host — gets a proportionally slacker
    // bound (the debug run only checks the overshoot is bounded at all);
    // the CI chaos job enforces the tight one in release.
    let bound_ms = if cfg!(debug_assertions) {
        20.0 * deadline_ms
    } else {
        2.0 * deadline_ms + 25.0
    };
    for (t, h) in traj.health.iter().enumerate() {
        assert_eq!(h.deadline_ms, Some(deadline_ms), "slot {t}");
        assert!(
            h.wall_time_ms <= bound_ms,
            "slot {t} ran {:.1} ms against a {deadline_ms} ms budget (rung {:?})",
            h.wall_time_ms,
            h.rung
        );
        assert!(
            !h.rung_ms.is_empty(),
            "slot {t} should record per-rung timings"
        );
    }
}
