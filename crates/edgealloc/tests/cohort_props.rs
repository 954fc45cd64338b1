//! Property-based tests of the cohort aggregation layer: scatter/restrict
//! conservation, exact feasibility after projection, and the exactness of
//! the symmetric split against the reduced ℙ₂ objective.

use edgealloc::algorithms::SlotInput;
use edgealloc::allocation::Allocation;
use edgealloc::cohort::{CohortConfig, CohortPlan};
use edgealloc::cost::CostWeights;
use edgealloc::exact::project_exact;
use edgealloc::instance::Instance;
use edgealloc::programs::p2::{slot_objective, Epsilons};
use edgealloc::system::EdgeCloudSystem;
use mobility::MobilityInput;
use proptest::prelude::*;

/// A lenient config so the tiny generated instances always engage.
fn lenient() -> CohortConfig {
    CohortConfig {
        max_cohort_fraction: 1.0,
        ..CohortConfig::default()
    }
}

/// Strategy: a small feasible instance whose users draw λ from a few
/// integer classes and attach to a few stations, so multi-member cohorts
/// actually form. 2–4 clouds, 4–10 users, 2 slots.
fn cohortable_instance() -> impl Strategy<Value = Instance> {
    (
        2usize..5,
        4usize..11,
        proptest::collection::vec(0.1f64..3.0, 64),
        proptest::collection::vec(0usize..16, 32),
    )
        .prop_map(|(nc, nu, raw, att)| {
            let nt = 2usize;
            // Few λ classes: integers 1–3.
            let workloads: Vec<f64> = (0..nu)
                .map(|j| 1.0 + (att[j % att.len()] % 3) as f64)
                .collect();
            let total_workload: f64 = workloads.iter().sum();
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
            // Access delay shared per station so co-attached users stay
            // exchangeable (as in the real per-slot station geometry).
            let access: Vec<Vec<f64>> = (0..nu)
                .map(|j| {
                    (0..nt)
                        .map(|t| raw[(attachment[j][t] + t * 7) % raw.len()])
                        .collect()
                })
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

/// A cohort-feasible reduced allocation: each cohort's pooled demand
/// spread across clouds proportionally to capacity. Feasible because the
/// generated instances carry 1.5× headroom.
fn reduced_point(inst: &Instance, plan: &CohortPlan) -> Allocation {
    let nc = inst.num_clouds();
    let cap_sum: f64 = (0..nc).map(|i| inst.system().capacity(i)).sum();
    let mut y = Allocation::zeros(nc, plan.num_cohorts());
    let cohort_demand = {
        let mut d = vec![0.0; plan.num_cohorts()];
        for (j, &c) in plan.cohort_of().iter().enumerate() {
            d[c] += inst.workloads()[j];
        }
        d
    };
    for i in 0..nc {
        let share = inst.system().capacity(i) / cap_sum;
        for (c, d) in cohort_demand.iter().enumerate() {
            y.set(i, c, d * share * 1.000001);
        }
    }
    y
}

/// A symmetric previous allocation (identical rows within each zero-prev
/// cohort) — what the exact scatter itself produces, so exact keying
/// reconstructs the same cohorts against it.
fn symmetric_prev(inst: &Instance, raw: &[f64]) -> (Allocation, CohortPlan) {
    let input = SlotInput::from_instance(inst, 0);
    let zero = Allocation::zeros(inst.num_clouds(), inst.num_users());
    let plan = CohortPlan::build(&input, &zero, &lenient()).expect("plan at zero prev");
    let mut reduced = Allocation::zeros(inst.num_clouds(), plan.num_cohorts());
    for i in 0..inst.num_clouds() {
        for c in 0..plan.num_cohorts() {
            reduced.set(i, c, raw[(i * 7 + c) % raw.len()].abs() + 0.05);
        }
    }
    let prev = plan.scatter(&reduced, input.workloads);
    let replan = CohortPlan::build(&input, &prev, &lenient()).expect("plan persists");
    (prev, replan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scatter preserves Σ demand per (cohort, cloud): restricting the
    /// scattered allocation recovers the reduced point exactly (within
    /// summation ulps), for both the symmetric and the entropic scatter.
    #[test]
    fn scatter_preserves_cohort_cloud_totals(
        inst in cohortable_instance(),
        raw in proptest::collection::vec(0.01f64..2.0, 32),
    ) {
        let input = SlotInput::from_instance(&inst, 0);
        let zero = Allocation::zeros(inst.num_clouds(), inst.num_users());
        let plan = CohortPlan::build(&input, &zero, &lenient()).expect("plan");
        let mut reduced = Allocation::zeros(inst.num_clouds(), plan.num_cohorts());
        for i in 0..inst.num_clouds() {
            for c in 0..plan.num_cohorts() {
                reduced.set(i, c, raw[(i * 5 + c) % raw.len()]);
            }
        }
        let back = plan.restrict(&plan.scatter(&reduced, input.workloads));
        for i in 0..inst.num_clouds() {
            for c in 0..plan.num_cohorts() {
                let (a, b) = (back.get(i, c), reduced.get(i, c));
                prop_assert!((a - b).abs() <= 1e-12 * b.max(1.0), "({i},{c}): {a} vs {b}");
            }
        }
        // The entropic scatter conserves totals too (prev = 0 ⇒ uniform
        // split, nothing clamps).
        let pooled = CohortPlan::build(&input, &zero, &CohortConfig {
            pool_references: true, ..lenient()
        }).expect("pooled plan");
        let back = pooled.restrict(&pooled.scatter_pooled_with(
            &reduced,
            &pooled.restrict(&zero),
            &zero,
            0.5,
        ));
        for i in 0..inst.num_clouds() {
            for c in 0..pooled.num_cohorts() {
                let (a, b) = (back.get(i, c), reduced.get(i, c));
                prop_assert!((a - b).abs() <= 1e-12 * b.max(1.0), "pooled ({i},{c}): {a} vs {b}");
            }
        }
    }

    /// Scattered allocations are exactly feasible after the projection:
    /// every user's demand row and every cloud's capacity hold as written,
    /// with no tolerance.
    #[test]
    fn scattered_allocations_project_to_exact_feasibility(
        inst in cohortable_instance(),
        raw in proptest::collection::vec(0.01f64..2.0, 32),
    ) {
        let input = SlotInput::from_instance(&inst, 0);
        let (prev, plan) = symmetric_prev(&inst, &raw);
        let reduced = reduced_point(&inst, &plan);
        let mut x = plan.scatter(&reduced, input.workloads);
        project_exact(&input, &mut x).expect("projection succeeds");
        for j in 0..inst.num_users() {
            prop_assert!(
                x.user_total(j) >= inst.workloads()[j],
                "user {j}: {} < {}", x.user_total(j), inst.workloads()[j]
            );
        }
        for i in 0..inst.num_clouds() {
            prop_assert!(
                x.cloud_total(i) <= inst.system().capacity(i),
                "cloud {i}: {} > {}", x.cloud_total(i), inst.system().capacity(i)
            );
        }
        // The entropic scatter reaches the same contract through the same
        // projection, even with heterogeneous previous rows.
        let mut hetero = prev.clone();
        for j in 0..inst.num_users() {
            hetero.set(0, j, hetero.get(0, j) + 0.01 * j as f64);
        }
        let pooled = CohortPlan::build(&input, &hetero, &CohortConfig {
            pool_references: true, ..lenient()
        }).expect("pooled plan");
        let mut x = pooled.scatter_pooled_with(
            &reduced_point(&inst, &pooled),
            &pooled.restrict(&hetero),
            &hetero,
            0.5,
        );
        project_exact(&input, &mut x).expect("projection succeeds");
        for j in 0..inst.num_users() {
            prop_assert!(x.user_total(j) >= inst.workloads()[j]);
        }
        for i in 0..inst.num_clouds() {
            prop_assert!(x.cloud_total(i) <= inst.system().capacity(i));
        }
    }

    /// Exactness: for cohorts of exchangeable users the full-program ℙ₂
    /// objective of the symmetric split equals the reduced program's
    /// objective of the cohort point to ≤1e-10 relative — the reduction
    /// costs nothing.
    #[test]
    fn symmetric_split_cost_matches_cohort_objective(
        inst in cohortable_instance(),
        raw in proptest::collection::vec(0.01f64..2.0, 32),
    ) {
        let input = SlotInput::from_instance(&inst, 0);
        let (prev, plan) = symmetric_prev(&inst, &raw);
        let reduced = reduced_point(&inst, &plan);
        let eps = Epsilons { eps1: 0.5, eps2: 0.5 };
        let full_cost = slot_objective(&input, &prev, &plan.scatter(&reduced, input.workloads), eps)
            .expect("full objective");
        let rinput = plan.as_input(&input);
        let rprev = plan.restrict(&prev);
        let reduced_cost = slot_objective(&rinput, &rprev, &reduced, eps)
            .expect("reduced objective");
        let rel = (full_cost - reduced_cost).abs() / full_cost.abs().max(1e-12);
        prop_assert!(
            rel <= 1e-10,
            "full {full_cost} vs reduced {reduced_cost} (relative {rel:.3e})"
        );
    }
}

#[test]
fn degenerate_all_singleton_cohorts_reduce_to_the_identity() {
    // Every user in its own cohort: distinct λ per user forces singleton
    // classes, and the "reduction" must be the identity program.
    let nc = 3;
    let nu = 4;
    let workloads: Vec<f64> = (0..nu).map(|j| 1.0 + j as f64).collect();
    let system = EdgeCloudSystem::new(
        vec![20.0, 20.0, 20.0],
        vec![
            vec![0.0, 1.0, 2.0],
            vec![1.0, 0.0, 1.5],
            vec![2.0, 1.5, 0.0],
        ],
    )
    .expect("system");
    let attachment: Vec<Vec<usize>> = (0..nu).map(|j| vec![j % nc, j % nc]).collect();
    let access: Vec<Vec<f64>> = (0..nu).map(|_| vec![0.5, 0.5]).collect();
    let inst = Instance::new(
        system,
        workloads,
        MobilityInput::new(nc, attachment, access),
        vec![vec![1.0; nc]; 2],
        vec![1.0; nc],
        vec![0.5; nc],
        vec![0.5; nc],
        CostWeights::default(),
    )
    .expect("instance");
    let input = SlotInput::from_instance(&inst, 0);
    let prev = Allocation::zeros(nc, nu);
    let plan = CohortPlan::build(&input, &prev, &lenient()).expect("plan");
    assert_eq!(plan.num_cohorts(), nu);
    assert_eq!(plan.compression_ratio(), 1.0);
    assert_eq!(plan.multiplicities(), &[1.0; 4][..]);
    // Identity: the reduced input carries the same workloads and the
    // scatter returns the reduced point unchanged.
    let rinput = plan.as_input(&input);
    assert_eq!(rinput.workloads, input.workloads);
    let mut reduced = Allocation::zeros(nc, nu);
    for i in 0..nc {
        for c in 0..nu {
            reduced.set(i, c, 0.25 + (i + c) as f64);
        }
    }
    let full = plan.scatter(&reduced, input.workloads);
    for i in 0..nc {
        for j in 0..nu {
            assert_eq!(full.get(i, j), reduced.get(i, plan.cohort_of()[j]));
        }
    }
}

#[test]
fn degenerate_single_cohort_splits_symmetrically() {
    // All users exchangeable (one station, one λ class, zero prev): one
    // cohort, and the scatter is exactly λ-proportional = uniform.
    let nc = 2;
    let nu = 5;
    let system = EdgeCloudSystem::new(vec![30.0, 30.0], vec![vec![0.0, 1.0], vec![1.0, 0.0]])
        .expect("system");
    let attachment: Vec<Vec<usize>> = (0..nu).map(|_| vec![0, 0]).collect();
    let access: Vec<Vec<f64>> = (0..nu).map(|_| vec![0.3, 0.3]).collect();
    let inst = Instance::new(
        system,
        vec![2.0; nu],
        MobilityInput::new(nc, attachment, access),
        vec![vec![1.0; nc]; 2],
        vec![1.0; nc],
        vec![0.5; nc],
        vec![0.5; nc],
        CostWeights::default(),
    )
    .expect("instance");
    let input = SlotInput::from_instance(&inst, 0);
    let prev = Allocation::zeros(nc, nu);
    let plan = CohortPlan::build(&input, &prev, &lenient()).expect("plan");
    assert_eq!(plan.num_cohorts(), 1);
    assert_eq!(plan.compression_ratio(), nu as f64);
    assert_eq!(plan.multiplicities(), &[nu as f64][..]);
    let mut reduced = Allocation::zeros(nc, 1);
    reduced.set(0, 0, 10.0);
    reduced.set(1, 0, 5.0);
    let full = plan.scatter(&reduced, input.workloads);
    for j in 0..nu {
        assert_eq!(full.get(0, j), 2.0);
        assert_eq!(full.get(1, j), 1.0);
    }
}
