//! The paper's theory, executed: Lemma 1 (gap-preserving transformation),
//! Theorem 1 (feasibility), Lemma 2 (dual feasibility of S_D), the weak-
//! duality chain `D ≤ P₃ ≤ P₁`, and Theorem 2 (the competitive ratio bound)
//! are all checked numerically on randomized instances.

use edgealloc::algorithms::SlotInput;
use edgealloc::allocation::Allocation;
use edgealloc::cost::evaluate_trajectory;
use edgealloc::prelude::*;
use edgealloc::programs::dual;
use edgealloc::programs::p2::{self, Epsilons, P2Solution};
use edgealloc::transform::{p1_objective, sigma};
use optim::convex::BarrierOptions;
use rand::SeedableRng;

fn random_instance(seed: u64, users: usize, slots: usize) -> Instance {
    let net = mobility::rome_metro();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mob = mobility::random_walk::generate(&net, users, slots, &mut rng);
    Instance::synthetic(&net, mob, &mut rng)
}

/// An instance with comfortable capacity headroom (50% utilization). The
/// paper's Theorem-1 argument is sound in this regime; at tight capacities
/// the ℙ₂ optimum can exceed capacity (erratum in DESIGN.md) and the
/// algorithm's repair projection takes over.
fn roomy_instance(seed: u64, users: usize, slots: usize) -> Instance {
    use edgealloc::instance::SyntheticConfig;
    let net = mobility::rome_metro();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mob = mobility::random_walk::generate(&net, users, slots, &mut rng);
    let cfg = SyntheticConfig {
        utilization: 0.4,
        ..SyntheticConfig::default()
    };
    Instance::synthetic_with(&net, mob, &cfg, &mut rng).unwrap()
}

fn solve_p2_horizon(inst: &Instance, eps: Epsilons) -> Vec<P2Solution> {
    let mut prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
    let mut out = Vec::new();
    for t in 0..inst.num_slots() {
        let input = SlotInput::from_instance(inst, t);
        let sol = p2::solve(&input, &prev, eps, &BarrierOptions::default()).unwrap();
        prev = sol.allocation.clone();
        out.push(sol);
    }
    out
}

#[test]
fn lemma1_p1_bounded_by_p0_plus_sigma() {
    for seed in [1, 2, 3] {
        let inst = random_instance(seed, 6, 6);
        let traj = run_online(&inst, &mut OnlineRegularized::with_defaults()).unwrap();
        let p0 = evaluate_trajectory(&inst, &traj.allocations).total();
        let p1 = p1_objective(&inst, &traj.allocations);
        assert!(
            p1 <= p0 + sigma(&inst) + 1e-6,
            "seed {seed}: P1 {p1} > P0 {p0} + σ {}",
            sigma(&inst)
        );
    }
}

#[test]
fn theorem1_feasibility_of_p2_solutions() {
    // What ℙ₂'s constraints (10a)+(10b) actually guarantee: demand is
    // always met, and every cloud's load exceeds its capacity by at most
    // the total over-allocation `(Σ_i x_{i,t} − Σ_j λ_j)⁺`. The paper's
    // stronger claim (exact capacity feasibility) fails when (10b) rows
    // bind — the erratum documented in DESIGN.md and pinned down by
    // `raw_p2_exceeds_capacity_on_tight_instances` below; the algorithm's
    // repair projection restores exact feasibility.
    for seed in [4, 5] {
        let inst = roomy_instance(seed, 6, 6);
        let sols = solve_p2_horizon(&inst, Epsilons::default());
        for (t, s) in sols.iter().enumerate() {
            assert!(
                s.allocation.demand_shortfall(inst.workloads()) < 1e-4,
                "seed {seed} slot {t}: demand violated"
            );
            let surplus = (s.allocation.grand_total() - inst.total_workload()).max(0.0);
            assert!(
                s.allocation.capacity_excess(inst.system().capacities()) <= surplus + 1e-4,
                "seed {seed} slot {t}: capacity excess beyond the (10b) structural bound"
            );
        }
    }
}

#[test]
fn lemma2_dual_fit_is_feasible() {
    let inst = roomy_instance(7, 5, 5);
    let eps = Epsilons::default();
    let sols = solve_p2_horizon(&inst, eps);
    let fit = dual::fit(&inst, &sols, eps);
    let simple = fit.simple_constraint_violation(&inst);
    assert!(simple < 1e-6, "bound constraints violated by {simple}");
    let coupling = fit.coupling_violation(&inst, &sols, eps);
    assert!(coupling < 1e-2, "coupling (14a) violated by {coupling}");
}

#[test]
fn weak_duality_chain_d_le_p1() {
    // D ≤ P₃ ≤ P₁: we check the outer inequality D ≤ P₁ evaluated at the
    // algorithm's own trajectory (P₃'s optimum lies between).
    let inst = roomy_instance(8, 5, 5);
    let eps = Epsilons::default();
    let sols = solve_p2_horizon(&inst, eps);
    let fit = dual::fit(&inst, &sols, eps);
    let allocations: Vec<Allocation> = sols.iter().map(|s| s.allocation.clone()).collect();
    let p1 = p1_objective(&inst, &allocations);
    let d = fit.objective(&inst);
    assert!(d <= p1 + 1e-6, "dual objective {d} exceeds primal P1 {p1}");
}

#[test]
fn full_duality_chain_d_le_p3_le_p1() {
    // The complete chain of §IV: D ≤ P₃ ≤ P₁, with ℙ₃ solved exactly as an
    // LP and the access-delay constant excluded consistently.
    use edgealloc::programs::p3;
    let inst = roomy_instance(14, 4, 4);
    let eps = Epsilons::default();
    let sols = solve_p2_horizon(&inst, eps);
    let fit = dual::fit(&inst, &sols, eps);
    let d = fit.objective(&inst);
    let p3_opt = p3::optimal_value(&inst, &optim::lp::IpmOptions::default()).unwrap();
    let access_constant: f64 = (0..inst.num_slots())
        .map(|t| {
            (0..inst.num_users())
                .map(|j| inst.weights().quality * inst.access_delay(j, t))
                .sum::<f64>()
        })
        .sum();
    let allocations: Vec<Allocation> = sols.iter().map(|s| s.allocation.clone()).collect();
    let p1 = p1_objective(&inst, &allocations) - access_constant;
    assert!(d <= p3_opt + 1e-5, "D {d} > P3 {p3_opt}");
    assert!(p3_opt <= p1 + 1e-5, "P3 {p3_opt} > P1 {p1}");
}

#[test]
fn theorem2_competitive_ratio_bound_holds() {
    // The empirical ratio must respect r = 1 + γ|I| (it is far below it).
    for seed in [9, 10] {
        let inst = random_instance(seed, 5, 5);
        let mut alg = OnlineRegularized::with_defaults();
        let bound = alg.theoretical_ratio(inst.system());
        let traj = run_online(&inst, &mut alg).unwrap();
        let offline = solve_offline(&inst).unwrap();
        let ratio = competitive_ratio(
            evaluate_trajectory(&inst, &traj.allocations).total(),
            offline.cost.total(),
        );
        assert!(ratio >= 1.0 - 1e-6, "seed {seed}: ratio {ratio} below 1");
        assert!(
            ratio <= bound,
            "seed {seed}: ratio {ratio} violates the theoretical bound {bound}"
        );
    }
}

#[test]
fn p2_partial_derivative_positive_above_previous() {
    // ∂P₂/∂x_{ijt} > 0 for x above the previous solution (Theorem 1's
    // monotonicity argument), checked by numeric differentiation.
    let inst = random_instance(11, 4, 3);
    let eps = Epsilons::default();
    let input = SlotInput::from_instance(&inst, 0);
    let prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
    let solver = p2::build(&input, &prev, eps).unwrap();
    let f = solver.objective();
    // Any point with x ≥ prev = 0: use a uniform positive point.
    let n = inst.num_clouds() * inst.num_users();
    let x = vec![1.0; n];
    let g = f.gradient(&x);
    for (k, gk) in g.iter().enumerate() {
        assert!(*gk > 0.0, "∂P2/∂x[{k}] = {gk} not positive");
    }
}

#[test]
fn gamma_formula_matches_definition() {
    let inst = random_instance(12, 4, 3);
    let alg = OnlineRegularized::with_epsilon(0.5);
    let eps = 0.5;
    let expected = inst
        .system()
        .capacities()
        .iter()
        .map(|&c| (c + eps) * (1.0 + c / eps).ln())
        .fold(0.0f64, f64::max);
    assert!((alg.gamma(inst.system()) - expected).abs() < 1e-9);
}

#[test]
fn repair_restores_feasibility_on_tight_instances() {
    // At 80% utilization with few users, the raw ℙ₂ optimum can exceed
    // capacity (the Theorem-1 erratum); the full algorithm (with the repair
    // projection) must still produce a ℙ₀-feasible trajectory.
    for seed in [4, 7] {
        let inst = random_instance(seed, 6, 6);
        let traj = run_online(&inst, &mut OnlineRegularized::with_defaults()).unwrap();
        for (t, x) in traj.allocations.iter().enumerate() {
            assert!(
                x.demand_shortfall(inst.workloads()) < 1e-6,
                "seed {seed} slot {t}: demand"
            );
            assert!(
                x.capacity_excess(inst.system().capacities()) < 1e-6,
                "seed {seed} slot {t}: capacity"
            );
        }
    }
}

#[test]
fn raw_p2_exceeds_capacity_on_tight_instances() {
    // Pin down the erratum itself: without repair, the ℙ₂ optimum really
    // does exceed capacity on a tight instance (so the repair projection is
    // not dead code).
    let inst = random_instance(4, 6, 6);
    let traj = run_online(
        &inst,
        &mut OnlineRegularized::with_defaults().without_repair(),
    )
    .unwrap();
    let worst = traj
        .allocations
        .iter()
        .map(|x| x.capacity_excess(inst.system().capacities()))
        .fold(0.0f64, f64::max);
    assert!(
        worst > 1e-3,
        "expected a visible capacity excess, got {worst}"
    );
}
