//! End-to-end runs of `online-sharded` over small horizons: the sharded
//! decisions must be exactly feasible every slot, the telemetry must record
//! the decomposition, and degenerate shapes must fall back monolithically.

use edgealloc::algorithms::{run_online, OnlineAlgorithm, OnlineRegularized};
use edgealloc::cost::{evaluate_trajectory, CostWeights};
use edgealloc::health::SlotHealth;
use edgealloc::instance::Instance;
use edgealloc::system::EdgeCloudSystem;
use mobility::MobilityInput;
use shard::{ChaosConfig, OnlineSharded};

/// A deterministic multi-user instance (`fig1_example` has a single user,
/// which can never shard): `nu` users over 3 clouds and `nt` slots, with
/// 1.5× capacity slack and mildly varying prices/attachments.
fn multi_user_instance(nu: usize, nt: usize) -> Instance {
    let nc = 3;
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut rnd = move || {
        // xorshift64*: deterministic, dependency-free.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 40) as f64 / (1u64 << 24) as f64
    };
    let workloads: Vec<f64> = (0..nu).map(|_| 1.0 + (2.0 * rnd()).round()).collect();
    let total: f64 = workloads.iter().sum();
    let shares: Vec<f64> = (0..nc).map(|_| 0.5 + rnd()).collect();
    let share_sum: f64 = shares.iter().sum();
    let capacities: Vec<f64> = shares.iter().map(|s| 1.5 * total * s / share_sum).collect();
    let mut delay = vec![vec![0.0; nc]; nc];
    for i in 0..nc {
        for j in (i + 1)..nc {
            let d = 0.5 + 2.0 * rnd();
            delay[i][j] = d;
            delay[j][i] = d;
        }
    }
    let system = EdgeCloudSystem::new(capacities, delay).expect("valid system");
    let attachment: Vec<Vec<usize>> = (0..nu)
        .map(|_| (0..nt).map(|_| (rnd() * nc as f64) as usize % nc).collect())
        .collect();
    let access: Vec<Vec<f64>> = (0..nu)
        .map(|_| (0..nt).map(|_| 0.2 + rnd()).collect())
        .collect();
    let mobility = MobilityInput::new(nc, attachment, access);
    let prices: Vec<Vec<f64>> = (0..nt)
        .map(|_| (0..nc).map(|_| 0.5 + rnd()).collect())
        .collect();
    let reconfig: Vec<f64> = (0..nc).map(|_| 0.3 + rnd()).collect();
    let b_out: Vec<f64> = (0..nc).map(|_| 0.2 + 0.5 * rnd()).collect();
    let b_in: Vec<f64> = (0..nc).map(|_| 0.2 + 0.5 * rnd()).collect();
    Instance::new(
        system,
        workloads,
        mobility,
        prices,
        reconfig,
        b_out,
        b_in,
        CostWeights::default(),
    )
    .expect("valid instance")
}

fn assert_feasible(inst: &Instance, traj: &edgealloc::algorithms::Trajectory) {
    for (t, x) in traj.allocations.iter().enumerate() {
        for j in 0..inst.num_users() {
            assert!(
                x.user_total(j) >= inst.workloads()[j] - 1e-6,
                "slot {t}: user {j} under-served"
            );
        }
        for i in 0..inst.num_clouds() {
            assert!(
                x.cloud_total(i) <= inst.system().capacity(i) + 1e-6,
                "slot {t}: cloud {i} over capacity"
            );
        }
    }
}

#[test]
fn sharded_run_is_feasible_and_reports_telemetry() {
    let inst = multi_user_instance(8, 4);
    let mut alg = OnlineSharded::new(2, OnlineRegularized::with_defaults());
    let traj = run_online(&inst, &mut alg).expect("horizon runs");
    assert_eq!(traj.allocations.len(), inst.num_slots());
    assert_feasible(&inst, &traj);
    // Sharded slots must be *exactly* feasible (projection, not repair),
    // and name the Schur kernel their shard solves ran.
    for (t, (x, h)) in traj.allocations.iter().zip(&traj.health).enumerate() {
        if h.shards >= 2 {
            assert_eq!(h.schur_kernel.as_deref(), Some("blocked"), "slot {t}");
            for j in 0..inst.num_users() {
                assert!(
                    x.user_total(j) >= inst.workloads()[j],
                    "slot {t}: sharded decision not exactly demand-feasible"
                );
            }
            for i in 0..inst.num_clouds() {
                assert!(
                    x.cloud_total(i) <= inst.system().capacity(i),
                    "slot {t}: sharded decision not exactly capacity-feasible"
                );
            }
        }
    }
    let summary = traj.health_summary();
    assert!(
        summary.sharded_slots > 0,
        "no slot used the decomposition: {summary:?}"
    );
    assert!(summary.coord_rounds >= summary.sharded_slots);
}

#[test]
fn sharded_cost_matches_monolithic_closely() {
    let inst = multi_user_instance(10, 4);
    let mut mono = OnlineRegularized::with_defaults().with_explicit_capacity();
    let mono_traj = run_online(&inst, &mut mono).expect("monolithic runs");
    let mono_cost = evaluate_trajectory(&inst, &mono_traj.allocations).total();

    let mut alg = OnlineSharded::new(2, OnlineRegularized::with_defaults());
    let traj = run_online(&inst, &mut alg).expect("sharded runs");
    let cost = evaluate_trajectory(&inst, &traj.allocations).total();

    let rel = (cost - mono_cost).abs() / mono_cost.abs().max(1.0);
    assert!(
        rel <= 1e-4,
        "sharded cost {cost} vs monolithic {mono_cost} (rel {rel:.2e})"
    );
}

#[test]
fn single_shard_falls_back_to_the_monolithic_path() {
    let inst = multi_user_instance(6, 3);
    let mut alg = OnlineSharded::new(1, OnlineRegularized::with_defaults());
    let traj = run_online(&inst, &mut alg).expect("horizon runs");
    assert_feasible(&inst, &traj);
    for h in &traj.health {
        assert_eq!(h.shards, 1, "S = 1 must take the monolithic path");
        assert_eq!(h.coord_rounds, 0);
    }
    assert_eq!(traj.health_summary().sharded_slots, 0);

    // One shard runs the very pipeline of an explicit-capacity
    // `OnlineRegularized` — shedding rung and warm starts included — so on
    // a surged horizon the two decide identically, slot for slot.
    use rand::SeedableRng;
    let net = mobility::rome_metro();
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mob = mobility::random_walk::generate(&net, 12, 6, &mut rng);
    let mut inst = Instance::synthetic(&net, mob, &mut rng);
    inst.scale_demand(2, 2.5);
    inst.scale_demand(3, 2.5);
    let mut one = OnlineSharded::new(1, OnlineRegularized::with_defaults());
    let a = run_online(&inst, &mut one).expect("single-shard horizon");
    let mut mono = OnlineRegularized::with_defaults().with_explicit_capacity();
    let b = run_online(&inst, &mut mono).expect("monolithic horizon");
    let untimed = |h: &SlotHealth| {
        let mut h = h.clone();
        h.shards = 0;
        h.wall_time_ms = 0.0;
        h.rung_ms.clear();
        h.newton_step_ms = None;
        format!("{h:?}")
    };
    for t in 0..inst.num_slots() {
        assert_eq!(
            a.allocations[t].as_flat(),
            b.allocations[t].as_flat(),
            "slot {t}: allocation"
        );
        assert_eq!(
            untimed(&a.health[t]),
            untimed(&b.health[t]),
            "slot {t}: health"
        );
    }
    assert_eq!(a.health_summary().rungs.shedding, 2);
}

#[test]
fn reset_clears_cross_horizon_state() {
    let inst = multi_user_instance(8, 3);
    let mut alg = OnlineSharded::new(2, OnlineRegularized::with_defaults());
    let a = run_online(&inst, &mut alg).expect("first horizon");
    let b = run_online(&inst, &mut alg).expect("second horizon");
    for (t, (xa, xb)) in a.allocations.iter().zip(&b.allocations).enumerate() {
        for i in 0..inst.num_clouds() {
            for j in 0..inst.num_users() {
                assert!(
                    (xa.get(i, j) - xb.get(i, j)).abs() < 1e-9,
                    "slot {t}: rerun diverged at ({i}, {j})"
                );
            }
        }
    }
}

#[test]
fn certain_panics_trip_the_breaker_and_the_run_still_completes() {
    // Every shard solve attempt panics: no round ever produces a fresh
    // offer, the breakers trip shard by shard, and every slot lands on the
    // monolithic fallback — feasible, with the carnage in the telemetry.
    let inst = multi_user_instance(8, 3);
    let chaos = ChaosConfig {
        seed: 5,
        panic_prob: 1.0,
        ..ChaosConfig::disabled()
    };
    let mut alg = OnlineSharded::new(2, OnlineRegularized::with_defaults())
        .with_chaos(chaos)
        .with_retry_limit(1);
    let traj = run_online(&inst, &mut alg).expect("horizon survives certain panics");
    assert_eq!(traj.allocations.len(), inst.num_slots());
    assert_feasible(&inst, &traj);
    let summary = traj.health_summary();
    assert_eq!(summary.sharded_slots, 0, "no slot can complete sharded");
    assert!(
        summary.breaker_trips > 0,
        "breakers never tripped: {summary:?}"
    );
    assert!(summary.shard_retries > 0, "retries never ran: {summary:?}");
}

#[test]
fn certain_corruption_is_quarantined_and_the_run_still_completes() {
    // Every fresh offer arrives damaged: quarantine rejects them all, so
    // the coordinator can never adopt a round, but the horizon still
    // completes feasibly via the fallback.
    let inst = multi_user_instance(8, 3);
    let chaos = ChaosConfig {
        seed: 6,
        corrupt_prob: 1.0,
        ..ChaosConfig::disabled()
    };
    let mut alg = OnlineSharded::new(2, OnlineRegularized::with_defaults())
        .with_chaos(chaos)
        .with_retry_limit(1);
    let traj = run_online(&inst, &mut alg).expect("horizon survives corruption");
    assert_feasible(&inst, &traj);
    let summary = traj.health_summary();
    assert!(
        summary.quarantined_offers > 0,
        "no offer was quarantined: {summary:?}"
    );
}

#[test]
fn transient_panics_are_retried_and_sharding_still_wins_slots() {
    // Moderate panic probability: the attempt-indexed fault rolls let
    // retries escape, so the decomposition still completes slots while the
    // retry counter records the recoveries.
    let inst = multi_user_instance(10, 4);
    let chaos = ChaosConfig {
        seed: 11,
        panic_prob: 0.4,
        ..ChaosConfig::disabled()
    };
    let mut alg = OnlineSharded::new(2, OnlineRegularized::with_defaults())
        .with_chaos(chaos)
        .with_retry_limit(3);
    let traj = run_online(&inst, &mut alg).expect("horizon survives transient panics");
    assert_feasible(&inst, &traj);
    let summary = traj.health_summary();
    assert!(summary.shard_retries > 0, "no retry recorded: {summary:?}");
    assert!(
        summary.sharded_slots > 0,
        "sharding never completed a slot despite retries: {summary:?}"
    );
}

#[test]
fn inert_chaos_config_leaves_the_trajectory_bit_identical() {
    let inst = multi_user_instance(8, 3);
    let mut plain = OnlineSharded::new(2, OnlineRegularized::with_defaults());
    let a = run_online(&inst, &mut plain).expect("plain run");
    let mut wired = OnlineSharded::new(2, OnlineRegularized::with_defaults())
        .with_chaos(ChaosConfig::disabled());
    let b = run_online(&inst, &mut wired).expect("chaos-disabled run");
    for (t, (xa, xb)) in a.allocations.iter().zip(&b.allocations).enumerate() {
        for i in 0..inst.num_clouds() {
            for j in 0..inst.num_users() {
                assert_eq!(
                    xa.get(i, j),
                    xb.get(i, j),
                    "slot {t}: inert chaos changed the decision at ({i}, {j})"
                );
            }
        }
    }
}

#[test]
fn overloaded_slot_sheds_before_sharding_and_survivors_are_exact() {
    use edgealloc::health::FallbackRung;
    use edgealloc::sentinel::SentinelVerdict;

    let mut inst = multi_user_instance(12, 4);
    // 1.5× slack → a 2.5× surge puts aggregate demand ~1.67× capacity.
    inst.scale_demand(2, 2.5);
    let mut alg = OnlineSharded::new(3, OnlineRegularized::with_defaults());
    let traj = run_online(&inst, &mut alg).expect("overloaded horizon runs");
    assert_eq!(traj.allocations.len(), inst.num_slots());
    for (t, h) in traj.health.iter().enumerate() {
        if t == 2 {
            assert_eq!(h.sentinel_verdict, Some(SentinelVerdict::Overloaded));
            assert_eq!(h.rung, FallbackRung::Shedding, "slot {t}: {h:?}");
            assert!(h.shed_users > 0, "slot {t} shed nobody");
            assert!(h.shed_penalty > 0.0);
        } else {
            assert_ne!(h.rung, FallbackRung::CarryForward, "slot {t} aborted");
            assert_eq!(h.shed_users, 0, "slot {t} shed without overload");
        }
        // Every slot — shed or not — stays within capacity; the shed slot
        // must be *exactly* capacity-feasible (projection on survivors).
        let x = &traj.allocations[t];
        for i in 0..inst.num_clouds() {
            if t == 2 {
                assert!(
                    x.cloud_total(i) <= inst.system().capacity(i),
                    "slot {t}: cloud {i} exceeds capacity exactly"
                );
            } else {
                assert!(
                    x.capacity_excess(inst.system().capacities()) < 1e-5,
                    "slot {t}: cloud {i} over capacity"
                );
            }
        }
    }
    let summary = traj.health_summary();
    assert_eq!(summary.overloaded_slots, 1);
    assert_eq!(summary.rungs.shedding, 1);
    assert!(summary.shed_users > 0);
}

#[test]
fn feasible_horizon_is_bit_identical_with_the_sentinel_wired_in() {
    let inst = multi_user_instance(8, 3);
    let mut on = OnlineSharded::new(2, OnlineRegularized::with_defaults());
    let a = run_online(&inst, &mut on).expect("sentinel-enabled run");
    let mut off = OnlineSharded::new(2, OnlineRegularized::with_defaults().without_shedding());
    let b = run_online(&inst, &mut off).expect("shedding-disabled run");
    for (t, (xa, xb)) in a.allocations.iter().zip(&b.allocations).enumerate() {
        assert_eq!(
            xa.as_flat(),
            xb.as_flat(),
            "slot {t}: sentinel changed a feasible decision"
        );
    }
    for h in &a.health {
        assert_eq!(h.shed_users, 0);
        assert!(h.sentinel_verdict.is_some());
    }
}

#[test]
fn name_and_builders_round_trip() {
    let alg = OnlineSharded::new(
        4,
        OnlineRegularized::with_epsilon(0.25).with_slot_deadline_ms(250.0),
    );
    assert_eq!(alg.name(), "online-sharded");
    assert_eq!(alg.shards(), 4);
    assert_eq!(alg.slot_deadline_ms(), Some(250.0));
}

#[test]
fn cohort_slots_route_monolithically_with_telemetry_folded_through() {
    use edgealloc::cohort::CohortConfig;

    // Integer λ ∈ {1, 2, 3} over 3 stations: the slot collapses to at most
    // 9 cohorts, so every slot should take the cohort-reduced monolithic
    // path instead of the shard pipeline. Pooled references keep the
    // compression from decaying as mobility diversifies history rows.
    let inst = multi_user_instance(12, 4);
    let cfg = CohortConfig {
        max_cohort_fraction: 1.0,
        pool_references: true,
        ..CohortConfig::default()
    };
    let mut alg = OnlineSharded::new(
        3,
        OnlineRegularized::with_defaults().with_cohort_config(cfg),
    );
    let traj = run_online(&inst, &mut alg).expect("cohort-first horizon runs");
    assert_eq!(traj.allocations.len(), inst.num_slots());
    assert_eq!(alg.name(), "online-sharded");
    assert_feasible(&inst, &traj);
    for (t, (x, h)) in traj.allocations.iter().zip(&traj.health).enumerate() {
        assert!(h.cohorts > 0, "slot {t} never engaged cohorts: {h:?}");
        assert!(
            h.cohorts < inst.num_users(),
            "slot {t}: no compression ({} cohorts)",
            h.cohorts
        );
        assert_eq!(h.shards, 1, "slot {t}: cohort slot still sharded");
        assert_eq!(h.coord_rounds, 0, "slot {t}: coordination ran needlessly");
        // Cohort decisions are projected, not repaired: exact feasibility.
        for j in 0..inst.num_users() {
            assert!(
                x.user_total(j) >= inst.workloads()[j],
                "slot {t}: user {j} not exactly demand-feasible"
            );
        }
        for i in 0..inst.num_clouds() {
            assert!(
                x.cloud_total(i) <= inst.system().capacity(i),
                "slot {t}: cloud {i} not exactly capacity-feasible"
            );
        }
    }
    let summary = traj.health_summary();
    assert_eq!(summary.cohort_slots, inst.num_slots());
    assert_eq!(summary.sharded_slots, 0);
    assert!(summary.peak_cohorts > 0 && summary.peak_cohorts < inst.num_users());

    // The cohort route must stay close to the plain sharded answer.
    let mut plain = OnlineSharded::new(3, OnlineRegularized::with_defaults());
    let base = run_online(&inst, &mut plain).expect("plain sharded runs");
    let cost = evaluate_trajectory(&inst, &traj.allocations).total();
    let base_cost = evaluate_trajectory(&inst, &base.allocations).total();
    let rel = (cost - base_cost).abs() / base_cost.abs().max(1.0);
    assert!(
        rel <= 0.05,
        "cohort-routed cost {cost} vs sharded {base_cost} (rel {rel:.2e})"
    );
}
