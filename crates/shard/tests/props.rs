//! Property tests of the shard merge path: merged shard solutions, once
//! projected, satisfy demand and capacity **exactly** under floating-point
//! summation — `Σ_i x_ij ≥ λ_j` and `Σ_j x_ij ≤ C_i` hold for the very sums
//! `Allocation::user_total` / `Allocation::cloud_total` compute, with no
//! `1e-9` overshoot allowance anywhere.

use edgealloc::algorithms::SlotInput;
use edgealloc::cost::CostWeights;
use edgealloc::exact::project_exact;
use edgealloc::instance::Instance;
use edgealloc::system::EdgeCloudSystem;
use mobility::MobilityInput;
use proptest::prelude::*;
use shard::{merge_shards, restrict, ShardPlan};

/// Strategy: a small random instance with 2–4 clouds, 2–8 users, 2 slots
/// (the merge path only looks at one slot's data).
fn small_instance() -> impl Strategy<Value = Instance> {
    (
        2usize..5,
        2usize..9,
        proptest::collection::vec(0.1f64..3.0, 64),
        proptest::collection::vec(0usize..4, 32),
    )
        .prop_map(|(nc, nu, raw, att)| {
            let nt = 2;
            let workloads: Vec<f64> = (0..nu)
                .map(|j| 1.0 + (raw[(j * 3) % raw.len()] * 2.0).round())
                .collect();
            let total_workload: f64 = workloads.iter().sum();
            // Capacities proportional to random shares, totalling 1.5·Σλ so
            // every generated instance is feasible.
            let shares: Vec<f64> = (0..nc).map(|i| 0.2 + raw[i % raw.len()]).collect();
            let share_sum: f64 = shares.iter().sum();
            let capacities: Vec<f64> = shares
                .iter()
                .map(|s| 1.5 * total_workload * s / share_sum)
                .collect();
            let mut delay = vec![vec![0.0; nc]; nc];
            for i in 0..nc {
                for j in (i + 1)..nc {
                    let d = raw[(i * 5 + j) % raw.len()];
                    delay[i][j] = d;
                    delay[j][i] = d;
                }
            }
            let system = EdgeCloudSystem::new(capacities, delay).expect("valid system");
            let attachment: Vec<Vec<usize>> = (0..nu)
                .map(|j| {
                    (0..nt)
                        .map(|t| att[(j * nt + t) % att.len()] % nc)
                        .collect()
                })
                .collect();
            let access: Vec<Vec<f64>> = (0..nu)
                .map(|j| (0..nt).map(|t| raw[(j + t * 7) % raw.len()]).collect())
                .collect();
            let mobility = MobilityInput::new(nc, attachment, access);
            let prices: Vec<Vec<f64>> = (0..nt)
                .map(|t| {
                    (0..nc)
                        .map(|i| 0.2 + raw[(t * nc + i) % raw.len()])
                        .collect()
                })
                .collect();
            let reconfig: Vec<f64> = (0..nc).map(|i| raw[(i + 11) % raw.len()]).collect();
            let b_out: Vec<f64> = (0..nc).map(|i| raw[(i + 17) % raw.len()] * 0.5).collect();
            let b_in: Vec<f64> = (0..nc).map(|i| raw[(i + 23) % raw.len()] * 0.5).collect();
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
        })
}

/// Fake per-shard "solutions": arbitrary non-negative flats of the right
/// shape, scaled so some are under-demand and some blow past capacity —
/// the projection has to fix both directions.
fn shard_parts(plan: &ShardPlan, num_clouds: usize, raw: &[f64], scale: f64) -> Vec<Vec<f64>> {
    let mut k = 0usize;
    (0..plan.num_shards())
        .map(|s| {
            let cols = plan.users(s).len();
            (0..num_clouds * cols)
                .map(|_| {
                    let v = raw[k % raw.len()] * scale;
                    k += 1;
                    v
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merged_projected_shards_are_exactly_feasible(
        inst in small_instance(),
        raw in proptest::collection::vec(0.0f64..2.0, 48),
        shards in 1usize..5,
        scale in 0.01f64..4.0,
    ) {
        let input = SlotInput::from_instance(&inst, 0);
        let plan = ShardPlan::balanced(inst.workloads(), shards);
        let parts = shard_parts(&plan, inst.num_clouds(), &raw, scale);
        let mut x = merge_shards(&plan, &parts, inst.num_clouds(), inst.num_users());
        project_exact(&input, &mut x).expect("projection succeeds with 1.5× slack");
        for j in 0..inst.num_users() {
            // Exact comparison on the summation the consumers run — not
            // `>= λ − 1e-9`.
            prop_assert!(
                x.user_total(j) >= inst.workloads()[j],
                "user {} total {} < λ {}",
                j, x.user_total(j), inst.workloads()[j]
            );
        }
        for i in 0..inst.num_clouds() {
            prop_assert!(
                x.cloud_total(i) <= inst.system().capacity(i),
                "cloud {} total {} > C {}",
                i, x.cloud_total(i), inst.system().capacity(i)
            );
        }
        for i in 0..inst.num_clouds() {
            for j in 0..inst.num_users() {
                let v = x.get(i, j);
                prop_assert!(v.is_finite() && v >= 0.0, "entry ({i},{j}) = {v}");
            }
        }
    }

    #[test]
    fn projection_survives_the_nonnegative_clamp(
        inst in small_instance(),
        raw in proptest::collection::vec(0.0f64..2.0, 48),
        shards in 1usize..4,
    ) {
        // `run_online` clamps tiny negatives after `decide`; the projection
        // must emit only non-negative entries so the clamp is a no-op and
        // exact feasibility survives to the trajectory.
        let input = SlotInput::from_instance(&inst, 0);
        let plan = ShardPlan::balanced(inst.workloads(), shards);
        let parts = shard_parts(&plan, inst.num_clouds(), &raw, 1.0);
        let mut x = merge_shards(&plan, &parts, inst.num_clouds(), inst.num_users());
        project_exact(&input, &mut x).expect("projection succeeds");
        let before = x.clone();
        x.clamp_nonnegative(1e-6);
        for i in 0..inst.num_clouds() {
            for j in 0..inst.num_users() {
                prop_assert_eq!(x.get(i, j), before.get(i, j));
            }
        }
    }

    #[test]
    fn stale_and_missing_shard_offers_still_project_exactly_feasible(
        inst in small_instance(),
        raw_fresh in proptest::collection::vec(0.0f64..2.0, 48),
        raw_stale in proptest::collection::vec(0.0f64..2.0, 48),
        shards in 2usize..5,
        stale_mask in 0u8..16,
        missing_mask in 0u8..16,
    ) {
        // Straggler carry-forward merges a mixture of this round's offers,
        // archived offers from an earlier round, and (for shards with no
        // archive) all-zero placeholders. Whatever the mixture, the merged
        // point must project to an exactly feasible decision — staleness
        // may cost optimality, never feasibility.
        let input = SlotInput::from_instance(&inst, 0);
        let plan = ShardPlan::balanced(inst.workloads(), shards);
        let fresh = shard_parts(&plan, inst.num_clouds(), &raw_fresh, 1.0);
        let stale = shard_parts(&plan, inst.num_clouds(), &raw_stale, 2.5);
        let parts: Vec<Vec<f64>> = (0..plan.num_shards())
            .map(|s| {
                if missing_mask & (1 << (s % 4)) != 0 {
                    vec![0.0; fresh[s].len()]
                } else if stale_mask & (1 << (s % 4)) != 0 {
                    stale[s].clone()
                } else {
                    fresh[s].clone()
                }
            })
            .collect();
        let mut x = merge_shards(&plan, &parts, inst.num_clouds(), inst.num_users());
        project_exact(&input, &mut x).expect("projection succeeds with 1.5× slack");
        for j in 0..inst.num_users() {
            prop_assert!(
                x.user_total(j) >= inst.workloads()[j],
                "user {} total {} < λ {}",
                j, x.user_total(j), inst.workloads()[j]
            );
        }
        for i in 0..inst.num_clouds() {
            prop_assert!(
                x.cloud_total(i) <= inst.system().capacity(i),
                "cloud {} total {} > C {}",
                i, x.cloud_total(i), inst.system().capacity(i)
            );
        }
        for i in 0..inst.num_clouds() {
            for j in 0..inst.num_users() {
                let v = x.get(i, j);
                prop_assert!(v.is_finite() && v >= 0.0, "entry ({i},{j}) = {v}");
            }
        }
    }

    #[test]
    fn merge_then_restrict_roundtrips_each_shard(
        inst in small_instance(),
        raw in proptest::collection::vec(0.0f64..2.0, 48),
        shards in 1usize..5,
    ) {
        let plan = ShardPlan::balanced(inst.workloads(), shards);
        let parts = shard_parts(&plan, inst.num_clouds(), &raw, 1.0);
        let x = merge_shards(&plan, &parts, inst.num_clouds(), inst.num_users());
        for s in 0..plan.num_shards() {
            let r = restrict(&x, plan.users(s));
            let cols = plan.users(s).len();
            for i in 0..inst.num_clouds() {
                for col in 0..cols {
                    prop_assert_eq!(r.get(i, col), parts[s][i * cols + col]);
                }
            }
        }
    }
}
