//! Integration gate for cohort aggregation: the station-granularity
//! reduced solve scattered back to users must walk the whole online
//! pipeline — fault injection, sanitization, the degradation ladder —
//! and land on the *same* per-slot costs and the *same* rung ladder as
//! the blocked per-user solve, while every allocation of both pipelines
//! stays exactly feasible.
//!
//! This is the ISSUE's acceptance gate: a faulted 30-user × 24-slot taxi
//! horizon, cohort vs blocked, identical rung ladders, per-slot cost
//! within `1e-6` relative, exact feasibility on every slot.

use edgealloc::cost::trajectory_timeline;
use edgealloc::prelude::*;
use sim::runner::build_instance;
use sim::scenario::{MobilityKind, Scenario};
use sim::{FaultKind, FaultPlan};

/// The ISSUE-mandated shape: a faulted 30-user × 24-slot taxi horizon.
/// Debug builds run a shortened horizon — the release gate is the real
/// acceptance check; the un-optimized barrier makes the full horizon
/// take minutes per algorithm run.
const NUM_SLOTS: usize = if cfg!(debug_assertions) { 6 } else { 24 };

fn taxi_scenario(faults: FaultPlan) -> Scenario {
    Scenario {
        name: "cohort-equivalence".into(),
        mobility: MobilityKind::Taxi { num_users: 30 },
        num_slots: NUM_SLOTS,
        repetitions: 1,
        seed: 11,
        faults,
        ..Scenario::default()
    }
}

/// Mid-horizon price corruption: one slot is sanitized (NaN price), one
/// sees a finite 1e9 spike. Both are recoverable, so the cohort path must
/// stay engaged through them.
fn faulted_plan() -> FaultPlan {
    FaultPlan {
        faults: vec![
            FaultKind::PriceNan { slot: 5, cloud: 1 },
            FaultKind::PriceSpike {
                slot: 3,
                cloud: 0,
                value: 1e9,
            },
        ],
    }
}

/// A dead cloud for the whole horizon: both pipelines must ride the
/// degradation ladder identically.
fn dead_cloud_plan() -> FaultPlan {
    FaultPlan {
        faults: vec![FaultKind::ZeroCapacity { cloud: 2 }],
    }
}

/// Small taxi instances put only a handful of users on each station, so
/// the default explosion guard (cohorts ≤ J/2) would refuse to engage.
/// The gate wants the cohort path exercised wherever it is *exact*, so
/// lift the fraction cap and keep exact λ-matching.
fn cohort_alg() -> OnlineRegularized {
    OnlineRegularized::with_defaults().with_cohort_config(CohortConfig {
        max_cohort_fraction: 1.0,
        ..CohortConfig::default()
    })
}

fn run(inst: &Instance, alg: &mut dyn OnlineAlgorithm) -> Trajectory {
    run_online(inst, alg).expect("horizon")
}

/// Asserts that `x`, the `what` decision of slot `t`, meets every demand
/// and capacity bound of `eval` exactly, for the sums as written.
fn assert_exactly_feasible(eval: &Instance, x: &Allocation, what: &str, t: usize) {
    for j in 0..eval.num_users() {
        assert!(
            x.user_total(j) >= eval.workloads()[j],
            "{what} slot {t} user {j}: {} < {}",
            x.user_total(j),
            eval.workloads()[j]
        );
    }
    for i in 0..eval.num_clouds() {
        assert!(
            x.cloud_total(i) <= eval.system().capacity(i),
            "{what} slot {t} cloud {i}: {} > {}",
            x.cloud_total(i),
            eval.system().capacity(i)
        );
    }
}

fn assert_same_ladder_and_costs(
    inst: &Instance,
    expect_engaged: bool,
) -> (Trajectory, HealthSummary) {
    let mut blocked = OnlineRegularized::with_defaults();
    let traj_b = run(inst, &mut blocked);

    let mut cohort = cohort_alg();
    let traj_c = run(inst, &mut cohort);

    // Identical rung ladders: the cohort hook must never change *which*
    // rung a slot lands on, only how the primary rung is solved.
    let rungs_b: Vec<_> = traj_b.health.iter().map(|h| h.rung).collect();
    let rungs_c: Vec<_> = traj_c.health.iter().map(|h| h.rung).collect();
    assert_eq!(rungs_c, rungs_b, "cohort mode changed the rung ladder");

    // Per-slot costs within 1e-6 relative on the sanitized instance.
    let (eval, _) = inst.sanitized();
    let timeline_b = trajectory_timeline(&eval, &traj_b.allocations);
    let timeline_c = trajectory_timeline(&eval, &traj_c.allocations);
    for (t, (cb, cc)) in timeline_b.iter().zip(&timeline_c).enumerate() {
        let (b, c) = (cb.total(), cc.total());
        let rel = (c - b).abs() / b.abs().max(1e-9);
        assert!(
            rel <= 1e-6,
            "slot {t}: cohort {c} vs blocked {b} (relative {rel:.3e})"
        );
    }

    // Every decision of both pipelines is *exactly* feasible — the
    // projection's contract on every path, with no floating-point
    // tolerance.
    for (t, x) in traj_b.allocations.iter().enumerate() {
        assert_exactly_feasible(&eval, x, "blocked", t);
    }
    let mut engaged = 0;
    for (t, (x, h)) in traj_c.allocations.iter().zip(&traj_c.health).enumerate() {
        engaged += usize::from(h.cohorts > 0);
        assert_exactly_feasible(&eval, x, "cohort", t);
    }
    let summary = traj_c.health_summary();
    if expect_engaged {
        assert!(
            engaged > 0 && summary.cohort_slots == engaged,
            "cohort aggregation never engaged: {summary:?}"
        );
        assert!(
            summary.peak_cohorts > 0,
            "engaged slots reported no cohorts: {summary:?}"
        );
    }
    (traj_c, summary)
}

#[test]
fn cohort_matches_blocked_on_clean_taxi_horizon() {
    let inst = build_instance(&taxi_scenario(FaultPlan::none()), 0).expect("instance");
    let (traj, _) = assert_same_ladder_and_costs(&inst, true);
    // 30 taxis over 15 stations with integer power-law workloads must
    // actually compress at the symmetric start (prev = 0, every reference
    // row identical). Later slots legitimately decay toward singleton
    // cohorts under exact keying — independent mobility diversifies the
    // reference rows — which is what the pooled mode below is for.
    assert!(
        traj.health[0].cohorts < 30,
        "no compression on the first slot: {:?}",
        traj.health[0]
    );
}

#[test]
fn cohort_matches_blocked_under_fault_injection() {
    // Recoverable price corruption mid-horizon: sanitization rewrites the
    // NaN slot's inputs and the spike slot stays solvable, so the cohort
    // path must stay engaged and still match the blocked comparator
    // walking the same sanitization.
    let inst = build_instance(&taxi_scenario(faulted_plan()), 0).expect("instance");
    let (_, summary) = assert_same_ladder_and_costs(&inst, true);
    assert!(
        summary.sanitized_slots > 0,
        "the NaN price never forced sanitization: {summary:?}"
    );
}

#[test]
fn pooled_cohorts_sustain_compression_within_cost_envelope() {
    // The sustained-compression configuration: keying on (station, λ)
    // only, references pooled by the log-sum bound, entropic scatter. The
    // reduction is no longer bit-exact once member histories mix, so the
    // contract is different from the exact gate: cohort count stays at
    // station-granularity on *every* slot (no decay), allocations stay
    // exactly feasible, no degradation rungs engage, and the evaluated
    // cost stays within a small envelope of the blocked per-user solve.
    let inst = build_instance(&taxi_scenario(FaultPlan::none()), 0).expect("instance");

    let mut blocked = OnlineRegularized::with_defaults();
    let traj_b = run(&inst, &mut blocked);

    let mut pooled = OnlineRegularized::with_defaults().with_cohort_config(CohortConfig {
        max_cohort_fraction: 1.0,
        pool_references: true,
        ..CohortConfig::default()
    });
    let traj_c = run(&inst, &mut pooled);

    let (eval, _) = inst.sanitized();
    for (t, h) in traj_c.health.iter().enumerate() {
        assert!(
            h.cohorts > 0 && h.cohorts < eval.num_users(),
            "slot {t}: pooled compression decayed: {h:?}"
        );
        assert!(
            !h.degraded(),
            "slot {t} degraded under pooled cohorts: {h:?}"
        );
    }
    for (t, x) in traj_c.allocations.iter().enumerate() {
        assert_exactly_feasible(&eval, x, "pooled", t);
    }
    let cost_b = evaluate_trajectory(&eval, &traj_b.allocations).total();
    let cost_c = evaluate_trajectory(&eval, &traj_c.allocations).total();
    let rel = (cost_c - cost_b) / cost_b.abs().max(1e-12);
    assert!(
        rel <= 0.05,
        "pooled cohorts cost {cost_c} vs blocked {cost_b} (relative {rel:.3e})"
    );
}

#[test]
fn cohort_keys_on_scaled_workloads_under_flash_crowd() {
    // Satellite regression: a hostile λ surge reaches the cohort layer
    // through the scaled slot view, so the surged slots' cohorts are keyed
    // on the *effective* workloads and the scattered allocations cover the
    // surged demand — not the stale pre-surge λ. A silent pre-scale keying
    // would under-serve every user by the surge factor here.
    let mut inst = build_instance(&taxi_scenario(FaultPlan::none()), 0).expect("instance");
    let surged = NUM_SLOTS / 2;
    inst.scale_demand(surged, 1.15);

    let mut blocked = OnlineRegularized::with_defaults();
    let traj_b = run(&inst, &mut blocked);
    let mut cohort = cohort_alg();
    let traj_c = run(&inst, &mut cohort);

    let rungs_b: Vec<_> = traj_b.health.iter().map(|h| h.rung).collect();
    let rungs_c: Vec<_> = traj_c.health.iter().map(|h| h.rung).collect();
    assert_eq!(rungs_c, rungs_b, "cohort mode changed the rung ladder");

    let (eval, _) = inst.sanitized();
    let timeline_b = trajectory_timeline(&eval, &traj_b.allocations);
    let timeline_c = trajectory_timeline(&eval, &traj_c.allocations);
    for (t, (cb, cc)) in timeline_b.iter().zip(&timeline_c).enumerate() {
        let (b, c) = (cb.total(), cc.total());
        let rel = (c - b).abs() / b.abs().max(1e-9);
        assert!(
            rel <= 1e-6,
            "slot {t}: cohort {c} vs blocked {b} (relative {rel:.3e})"
        );
    }

    // The surged slot engaged cohorts and covers the *scaled* demand.
    let h = &traj_c.health[surged];
    assert!(h.cohorts > 0, "surge slot never engaged cohorts: {h:?}");
    let factor = eval.demand_factor(surged);
    assert!(factor > 1.0, "the surge factor was lost in sanitization");
    let x = &traj_c.allocations[surged];
    for j in 0..eval.num_users() {
        let scaled = eval.workloads()[j] * factor;
        assert!(
            x.user_total(j) >= scaled * (1.0 - 1e-12),
            "slot {surged} user {j}: {} < scaled demand {scaled}",
            x.user_total(j)
        );
    }
}

#[test]
fn cohort_degrades_like_blocked_when_a_cloud_is_dead() {
    // A zero-capacity cloud pushes the blocked pipeline down its
    // degradation ladder; the cohort hook must not change where each
    // slot lands or what it costs.
    let inst = build_instance(&taxi_scenario(dead_cloud_plan()), 0).expect("instance");
    assert_same_ladder_and_costs(&inst, false);
}
