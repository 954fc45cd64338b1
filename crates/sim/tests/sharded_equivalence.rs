//! Integration tests for the sharded algorithm: price-coordinated shard
//! decomposition through the whole online pipeline must land on the same
//! costs as the monolithic explicit-capacity solve — including when fault
//! injection forces sanitization and fallback rungs mid-horizon — and its
//! decisions must be feasible every slot.
//!
//! This is the ISSUE's acceptance gate: total cost within `1e-4` relative
//! of the monolithic comparator on a faulted 30-user × 24-slot taxi
//! horizon, all slots demand- and capacity-feasible.

use edgealloc::prelude::*;
use optim::convex::SchurKernel;
use shard::OnlineSharded;
use sim::runner::build_instance;
use sim::scenario::{MobilityKind, Scenario};
use sim::{FaultKind, FaultPlan};

/// The ISSUE-mandated shape: a faulted 30-user × 24-slot taxi horizon.
/// Debug builds run a shortened horizon: the release gate is the real
/// acceptance check, and the un-optimized barrier makes 24 slots × 4
/// algorithm runs take tens of minutes.
const NUM_SLOTS: usize = if cfg!(debug_assertions) { 6 } else { 24 };

fn taxi_scenario(faults: FaultPlan) -> Scenario {
    Scenario {
        name: "sharded-equivalence".into(),
        mobility: MobilityKind::Taxi { num_users: 30 },
        num_slots: NUM_SLOTS,
        repetitions: 1,
        seed: 11,
        faults,
        ..Scenario::default()
    }
}

/// Mid-horizon price corruption: slot 7 is sanitized (NaN price), slot 12
/// sees a finite 1e9 spike. Both are recoverable — the barrier still has a
/// strict interior everywhere, so the decomposition must stay engaged.
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

/// A dead cloud for the whole horizon: the explicit-capacity barrier loses
/// its strict interior on every slot, so *both* pipelines must ride the
/// degradation ladder down to the per-slot LP — identically.
fn dead_cloud_plan() -> FaultPlan {
    FaultPlan {
        faults: vec![FaultKind::ZeroCapacity { cloud: 2 }],
    }
}

/// Runs one algorithm and returns (total cost on the sanitized instance,
/// allocations, health summary).
fn run(inst: &Instance, alg: &mut dyn OnlineAlgorithm) -> (f64, Vec<Allocation>, HealthSummary) {
    let traj = run_online(inst, alg).expect("horizon");
    let (eval, _) = inst.sanitized();
    let cost = evaluate_trajectory(&eval, &traj.allocations).total();
    let health = traj.health_summary();
    (cost, traj.allocations, health)
}

fn assert_feasible(inst: &Instance, allocs: &[Allocation], who: &str) {
    let (eval, _) = inst.sanitized();
    for (t, x) in allocs.iter().enumerate() {
        for j in 0..eval.num_users() {
            assert!(
                x.user_total(j) >= eval.workloads()[j] - 1e-6,
                "{who}: slot {t} user {j} under-served ({} < {})",
                x.user_total(j),
                eval.workloads()[j]
            );
        }
        for i in 0..eval.num_clouds() {
            assert!(
                x.cloud_total(i) <= eval.system().capacity(i) + 1e-6,
                "{who}: slot {t} cloud {i} over capacity ({} > {})",
                x.cloud_total(i),
                eval.system().capacity(i)
            );
        }
    }
}

fn assert_sharded_matches_monolithic(
    inst: &Instance,
    shards: usize,
    expect_engaged: bool,
) -> HealthSummary {
    let mut mono = OnlineRegularized::with_defaults()
        .with_explicit_capacity()
        .with_schur_kernel(SchurKernel::Blocked);
    let (cost_m, allocs_m, _) = run(inst, &mut mono);

    let mut sharded = OnlineSharded::new(
        shards,
        OnlineRegularized::with_defaults().with_schur_kernel(SchurKernel::Blocked),
    );
    let (cost_s, allocs_s, health_s) = run(inst, &mut sharded);

    let rel = (cost_s - cost_m).abs() / cost_m.abs().max(1e-12);
    assert!(
        rel <= 1e-4,
        "S={shards}: sharded {cost_s} vs monolithic {cost_m} (relative {rel:.3e})"
    );
    assert_feasible(inst, &allocs_m, "monolithic");
    assert_feasible(inst, &allocs_s, "sharded");
    if expect_engaged {
        assert!(
            health_s.sharded_slots > 0,
            "S={shards}: the decomposition never engaged: {health_s:?}"
        );
    }
    health_s
}

#[test]
fn sharded_matches_monolithic_on_clean_taxi_horizon() {
    let inst = build_instance(&taxi_scenario(FaultPlan::none()), 0).expect("instance");
    for shards in [2, 4] {
        assert_sharded_matches_monolithic(&inst, shards, true);
    }
}

#[test]
fn sharded_matches_monolithic_under_fault_injection() {
    // Recoverable price corruption mid-horizon: sanitization rewrites the
    // NaN slot's inputs and the spike slot stays solvable, so the sharded
    // path must stay engaged and still land within tolerance of the
    // monolithic comparator walking the same sanitization.
    let inst = build_instance(&taxi_scenario(faulted_plan()), 0).expect("instance");
    for shards in [2, 4] {
        let health = assert_sharded_matches_monolithic(&inst, shards, true);
        assert!(
            health.sanitized_slots > 0,
            "S={shards}: the NaN price never forced sanitization: {health:?}"
        );
    }
}

#[test]
fn sharded_degrades_like_monolithic_when_a_cloud_is_dead() {
    // A zero-capacity cloud strips the explicit-capacity barrier of its
    // strict interior on every slot: neither pipeline can shard or solve
    // the barrier, and both must ride the degradation ladder down to the
    // per-slot LP — identically, so the costs still agree.
    let inst = build_instance(&taxi_scenario(dead_cloud_plan()), 0).expect("instance");
    let health = assert_sharded_matches_monolithic(&inst, 2, false);
    assert!(
        health.rungs.per_slot_lp > 0,
        "the dead cloud never pushed the sharded path onto the LP rung: {health:?}"
    );
}

#[test]
fn sharded_decisions_are_exactly_feasible_on_sharded_slots() {
    // Stronger than the pipeline gate: slots the coordinator decided
    // (shards ≥ 2) satisfy demand and capacity *exactly* under
    // floating-point summation — the projection's contract.
    let inst = build_instance(&taxi_scenario(FaultPlan::none()), 0).expect("instance");
    let mut alg = OnlineSharded::new(4, OnlineRegularized::with_defaults());
    let traj = run_online(&inst, &mut alg).expect("horizon");
    let (eval, _) = inst.sanitized();
    let mut sharded_slots = 0;
    for (t, (x, h)) in traj.allocations.iter().zip(&traj.health).enumerate() {
        if h.shards < 2 {
            continue;
        }
        sharded_slots += 1;
        for j in 0..eval.num_users() {
            assert!(
                x.user_total(j) >= eval.workloads()[j],
                "slot {t} user {j}: {} < {}",
                x.user_total(j),
                eval.workloads()[j]
            );
        }
        for i in 0..eval.num_clouds() {
            assert!(
                x.cloud_total(i) <= eval.system().capacity(i),
                "slot {t} cloud {i}: {} > {}",
                x.cloud_total(i),
                eval.system().capacity(i)
            );
        }
    }
    assert!(sharded_slots > 0, "no slot exercised the projection");
}
