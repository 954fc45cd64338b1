//! The overload gate: the ISSUE's hostile-workload acceptance scenario.
//!
//! A 30-user × 24-slot random-walk horizon is hit by a flash crowd that
//! surges aggregate demand to ~2× total capacity over the middle window.
//! The run must not abort a single slot: the sentinel classifies every
//! surged slot Overloaded, the shedding rung defers the minimum-penalty
//! user set to the overflow tier, the survivors get an *exactly* feasible
//! allocation, the shed workload and penalty stay within 1.1× of the
//! shedding-LP relaxation's lower bound, and seeded replays are
//! bit-identical. On a benign horizon the sentinel-enabled build is
//! bit-identical to a run with shedding disabled.

use edgealloc::algorithms::{OnlineRegularized, SlotInput};
use edgealloc::health::FallbackRung;
use edgealloc::instance::Instance;
use edgealloc::prelude::*;
use edgealloc::sentinel::SentinelVerdict;
use edgealloc::shed::{plan_shedding, ShedConfig, ShedDecision};
use optim::budget::SolveBudget;
use shard::OnlineSharded;
use sim::runner::build_instance;
use sim::scenario::{MobilityKind, Scenario};
use sim::{HostileKind, HostilePlan};

/// The ISSUE-mandated shape. Debug builds run a shortened horizon: the
/// release gate (CI's `overload-chaos` job) is the real acceptance check,
/// and the un-optimized barrier makes 24 surged slots take minutes.
const NUM_SLOTS: usize = if cfg!(debug_assertions) { 8 } else { 24 };
const NUM_USERS: usize = 30;

/// Flash crowd over the middle half of the horizon. The scenario
/// provisions capacity at 80% utilization (ΣC = 1.25·Σλ), so a 2.5×
/// demand surge puts the window at exactly 2× aggregate capacity.
fn overload_scenario() -> Scenario {
    Scenario {
        name: "overload-gate".into(),
        mobility: MobilityKind::RandomWalk {
            num_users: NUM_USERS,
        },
        num_slots: NUM_SLOTS,
        repetitions: 1,
        seed: 8,
        hostile: HostilePlan {
            seed: 8,
            events: vec![HostileKind::FlashCrowd {
                station: 0,
                start: NUM_SLOTS / 4,
                duration: NUM_SLOTS / 2,
                attraction: 0.8,
                surge: 2.5,
            }],
        },
        ..Scenario::default()
    }
}

fn surge_window() -> std::ops::Range<usize> {
    (NUM_SLOTS / 4)..(NUM_SLOTS / 4 + NUM_SLOTS / 2)
}

/// The slot's online view (scaled when hostile factors are installed) and
/// its independently recomputed shedding decision.
fn recompute_decision(inst: &Instance, t: usize) -> Option<ShedDecision> {
    let scaled = inst.scaled_slot(t);
    let input = match &scaled {
        Some(s) => s.as_input(inst, t),
        None => SlotInput::from_instance(inst, t),
    };
    plan_shedding(&input, &ShedConfig::default(), &SolveBudget::unlimited()).ok()
}

/// Asserts the gate's per-slot guarantees on one trajectory.
fn assert_gate(inst: &Instance, traj: &edgealloc::algorithms::Trajectory, label: &str) {
    assert_eq!(traj.allocations.len(), NUM_SLOTS, "{label}: missing slots");
    let window = surge_window();
    for (t, h) in traj.health.iter().enumerate() {
        // Zero aborts anywhere: overload is absorbed, never carried.
        assert_ne!(
            h.rung,
            FallbackRung::CarryForward,
            "{label}: slot {t} aborted: {h:?}"
        );
        let x = &traj.allocations[t];
        if window.contains(&t) {
            assert_eq!(
                h.sentinel_verdict,
                Some(SentinelVerdict::Overloaded),
                "{label}: surged slot {t} not flagged"
            );
            assert_eq!(h.rung, FallbackRung::Shedding, "{label}: slot {t}: {h:?}");
            assert!(h.shed_users > 0, "{label}: slot {t} shed nobody");
            assert!(h.shed_penalty > 0.0, "{label}: slot {t} penalty zero");

            // Exact feasibility: capacity as written, survivors served in
            // full against the *surged* workloads.
            let decision = recompute_decision(inst, t).expect("surged slot has a plan");
            for i in 0..inst.num_clouds() {
                assert!(
                    x.cloud_total(i) <= inst.system().capacity(i),
                    "{label}: slot {t} cloud {i} exceeds capacity exactly"
                );
            }
            let scaled = inst.scaled_slot(t).expect("surged slot is scaled");
            let input = scaled.as_input(inst, t);
            for &j in &decision.survivors {
                assert!(
                    x.user_total(j) >= input.workloads[j],
                    "{label}: slot {t} survivor {j} under-served exactly"
                );
            }
            // Minimality: within 1.1× of the LP relaxation's lower bound.
            assert!(
                decision.shed_workload <= 1.1 * decision.required_shed.max(f64::MIN_POSITIVE),
                "{label}: slot {t} shed {} vs required {}",
                decision.shed_workload,
                decision.required_shed
            );
            assert!(
                decision.penalty <= 1.1 * decision.penalty_lower_bound.max(f64::MIN_POSITIVE),
                "{label}: slot {t} penalty {} vs LP bound {}",
                decision.penalty,
                decision.penalty_lower_bound
            );
            // The trajectory's recorded penalty is the recomputed plan's
            // (the rung runs the same deterministic planner).
            assert!(
                (h.shed_penalty - decision.penalty).abs() <= 1e-9 * (1.0 + decision.penalty),
                "{label}: slot {t} recorded penalty {} != plan {}",
                h.shed_penalty,
                decision.penalty
            );
        } else {
            assert_eq!(h.shed_users, 0, "{label}: benign slot {t} shed");
            assert!(
                x.capacity_excess(inst.system().capacities()) < 1e-5,
                "{label}: benign slot {t} over capacity"
            );
        }
    }
    let summary = traj.health_summary();
    assert_eq!(
        summary.overloaded_slots,
        window.len(),
        "{label}: {summary:?}"
    );
    assert_eq!(summary.rungs.shedding, window.len(), "{label}: {summary:?}");
    assert_eq!(summary.rungs.carry_forward, 0, "{label}: {summary:?}");
}

#[test]
fn flash_crowd_horizon_survives_with_minimal_shedding() {
    let inst = build_instance(&overload_scenario(), 0).expect("instance builds");
    let mut approx = OnlineRegularized::with_defaults().with_explicit_capacity();
    let traj = run_online(&inst, &mut approx).expect("approx horizon");
    assert_gate(&inst, &traj, "online-approx");

    let mut sharded = OnlineSharded::new(4, OnlineRegularized::with_defaults());
    let straj = run_online(&inst, &mut sharded).expect("sharded horizon");
    assert_gate(&inst, &straj, "online-sharded");
}

#[test]
fn overload_replays_are_bit_identical() {
    let inst = build_instance(&overload_scenario(), 0).expect("instance builds");
    let mut a = OnlineRegularized::with_defaults().with_explicit_capacity();
    let ta = run_online(&inst, &mut a).expect("first run");
    let mut b = OnlineRegularized::with_defaults().with_explicit_capacity();
    let tb = run_online(&inst, &mut b).expect("second run");
    for (t, (xa, xb)) in ta.allocations.iter().zip(&tb.allocations).enumerate() {
        assert_eq!(xa.as_flat(), xb.as_flat(), "slot {t} diverged on replay");
    }
    // The instance build itself is seeded: a rebuilt instance replays too.
    let inst2 = build_instance(&overload_scenario(), 0).expect("rebuild");
    let mut c = OnlineRegularized::with_defaults().with_explicit_capacity();
    let tc = run_online(&inst2, &mut c).expect("rebuilt run");
    for (t, (xa, xc)) in ta.allocations.iter().zip(&tc.allocations).enumerate() {
        assert_eq!(xa.as_flat(), xc.as_flat(), "slot {t} diverged on rebuild");
    }
}

#[test]
fn benign_horizon_is_bit_identical_with_shedding_wired_in() {
    let benign = Scenario {
        hostile: HostilePlan::none(),
        ..overload_scenario()
    };
    let inst = build_instance(&benign, 0).expect("instance builds");
    let mut on = OnlineRegularized::with_defaults().with_explicit_capacity();
    let ta = run_online(&inst, &mut on).expect("sentinel-enabled run");
    let mut off = OnlineRegularized::with_defaults()
        .with_explicit_capacity()
        .without_shedding();
    let tb = run_online(&inst, &mut off).expect("shedding-disabled run");
    for (t, (xa, xb)) in ta.allocations.iter().zip(&tb.allocations).enumerate() {
        assert_eq!(
            xa.as_flat(),
            xb.as_flat(),
            "slot {t}: sentinel changed a benign decision"
        );
    }
    for h in &ta.health {
        assert_eq!(h.shed_users, 0);
        assert_ne!(h.sentinel_verdict, Some(SentinelVerdict::Overloaded));
    }
}
