//! The fitted dual solution `S_D` of program 𝔻 (§IV of the paper).
//!
//! The competitive analysis constructs, from the per-slot ℙ₂ solutions and
//! their KKT multipliers, a feasible point of the dual 𝔻 of the relaxed
//! LP ℙ₃:
//!
//! ```text
//! α_{i,t}   = (c̃_i/η_i)   · ln( (C_i+ε₁) / (x*_{i,t−1}+ε₁) )
//! β_{i,j,t} = (b̃_i/τ_ij) · ln( (λ_j+ε₂) / (x*_{i,j,t−1}+ε₂) )
//! θ_{j,t}   = θ'_{j,t},    ρ_{i,t} = ρ'_{i,t}
//! ```
//!
//! (The paper prints `C_i+ε₂` in the β numerator; the bound β ≤ b̃ in its
//! own Lemma 2 requires the numerator `λ_j+ε₂` matching `τ_{i,j} =
//! ln(1+λ_j/ε₂)`, and constraint (14a) only involves *differences* of β, so
//! we use `λ_j+ε₂`. DESIGN.md records this erratum.)
//!
//! This module exists so the paper's chain `P₁ ≥ P₃ ≥ D` and the dual
//! feasibility of `S_D` (Lemma 2) can be verified **numerically** in tests
//! — turning the competitive proof into executable checks.

use crate::allocation::Allocation;
use crate::instance::Instance;
use crate::programs::p2::{Epsilons, P2Solution};

/// The fitted dual solution for a whole horizon.
#[derive(Debug, Clone)]
pub struct DualFit {
    /// `α[t][i]` for `t = 0..T` (slot indices; `α[t]` belongs to slot `t`).
    pub alpha: Vec<Vec<f64>>,
    /// `β[t][i][j]`.
    pub beta: Vec<Vec<Vec<f64>>>,
    /// `θ[t][j]` — demand-row duals from ℙ₂.
    pub theta: Vec<Vec<f64>>,
    /// `ρ[t][i]` — (10b)-row duals from ℙ₂.
    pub rho: Vec<Vec<f64>>,
}

/// Builds `S_D` from the sequence of solved per-slot programs.
///
/// # Panics
///
/// Panics if `solutions.len() != inst.num_slots()`.
pub fn fit(inst: &Instance, solutions: &[P2Solution], eps: Epsilons) -> DualFit {
    let num_slots = inst.num_slots();
    assert_eq!(solutions.len(), num_slots, "one ℙ₂ solution per slot");
    let num_clouds = inst.num_clouds();
    let num_users = inst.num_users();
    let w = inst.weights();

    let prev_alloc = |t: usize| -> Allocation {
        if t == 0 {
            Allocation::zeros(num_clouds, num_users)
        } else {
            solutions[t - 1].allocation.clone()
        }
    };

    let mut alpha = Vec::with_capacity(num_slots);
    let mut beta = Vec::with_capacity(num_slots);
    let mut theta = Vec::with_capacity(num_slots);
    let mut rho = Vec::with_capacity(num_slots);
    for (t, sol) in solutions.iter().enumerate() {
        let prev = prev_alloc(t);
        let mut at = Vec::with_capacity(num_clouds);
        let mut bt = Vec::with_capacity(num_clouds);
        for i in 0..num_clouds {
            let cap = inst.system().capacity(i);
            let c_tilde = w.reconfig * inst.reconfig_price(i);
            let b_tilde = w.migration * inst.migration_total(i);
            let eta = (1.0 + cap / eps.eps1).ln();
            at.push(c_tilde / eta * ((cap + eps.eps1) / (prev.cloud_total(i) + eps.eps1)).ln());
            let mut bij = Vec::with_capacity(num_users);
            for j in 0..num_users {
                let lambda = inst.workload(j);
                let tau = (1.0 + lambda / eps.eps2).ln();
                bij.push(b_tilde / tau * ((lambda + eps.eps2) / (prev.get(i, j) + eps.eps2)).ln());
            }
            bt.push(bij);
        }
        alpha.push(at);
        beta.push(bt);
        theta.push(sol.theta.clone());
        rho.push(sol.rho.clone());
    }
    DualFit {
        alpha,
        beta,
        theta,
        rho,
    }
}

impl DualFit {
    /// The dual objective
    /// `D = Σ_t Σ_j λ_j θ_{j,t} + Σ_t Σ_i (Σ_j λ_j − C_i)⁺ ρ_{i,t}`.
    pub fn objective(&self, inst: &Instance) -> f64 {
        let total_workload = inst.total_workload();
        let mut d = 0.0;
        for t in 0..self.theta.len() {
            for j in 0..inst.num_users() {
                d += inst.workload(j) * self.theta[t][j];
            }
            for i in 0..inst.num_clouds() {
                d += (total_workload - inst.system().capacity(i)).max(0.0) * self.rho[t][i];
            }
        }
        d
    }

    /// Maximum violation of the 𝔻 constraints (14b)–(14e) — the parts of
    /// Lemma 2 that do not depend on KKT stationarity. A feasible fit
    /// returns ≈ 0 (up to solver tolerance).
    pub fn simple_constraint_violation(&self, inst: &Instance) -> f64 {
        let w = inst.weights();
        let mut worst = 0.0f64;
        for t in 0..self.alpha.len() {
            for i in 0..inst.num_clouds() {
                let c_tilde = w.reconfig * inst.reconfig_price(i);
                let b_tilde = w.migration * inst.migration_total(i);
                // (14b): α ≤ c̃ ; (14d): α ≥ 0, ρ ≥ 0.
                worst = worst.max(self.alpha[t][i] - c_tilde);
                worst = worst.max(-self.alpha[t][i]);
                worst = worst.max(-self.rho[t][i]);
                for j in 0..inst.num_users() {
                    // (14c): β ≤ b̃ ; (14e): β ≥ 0, θ ≥ 0.
                    worst = worst.max(self.beta[t][i][j] - b_tilde);
                    worst = worst.max(-self.beta[t][i][j]);
                }
            }
            for j in 0..inst.num_users() {
                worst = worst.max(-self.theta[t][j]);
            }
        }
        worst
    }

    /// Maximum violation of the coupling constraint (14a),
    ///
    /// ```text
    /// −ã_{i,t} − w_q d(l_{j,t},i)/λ_j + α_{i,t+1} − α_{i,t}
    ///   + β_{i,j,t+1} − β_{i,j,t} + Σ_{k≠i} ρ_{k,t} + θ_{j,t} ≤ 0,
    /// ```
    ///
    /// evaluated with `α_{·,T+1}` and `β_{·,·,T+1}` computed from the final
    /// slot's solution. Feasibility follows from the ℙ₂ stationarity
    /// condition (15a), so this measures how exactly KKT holds.
    pub fn coupling_violation(
        &self,
        inst: &Instance,
        solutions: &[P2Solution],
        eps: Epsilons,
    ) -> f64 {
        let w = inst.weights();
        let num_slots = self.alpha.len();
        let num_clouds = inst.num_clouds();
        let num_users = inst.num_users();
        // α, β at t+1 — extend using the final solution.
        let next_alpha = |t: usize, i: usize| -> f64 {
            if t + 1 < num_slots {
                self.alpha[t + 1][i]
            } else {
                let cap = inst.system().capacity(i);
                let c_tilde = w.reconfig * inst.reconfig_price(i);
                let eta = (1.0 + cap / eps.eps1).ln();
                let x = solutions[t].allocation.cloud_total(i);
                c_tilde / eta * ((cap + eps.eps1) / (x + eps.eps1)).ln()
            }
        };
        let next_beta = |t: usize, i: usize, j: usize| -> f64 {
            if t + 1 < num_slots {
                self.beta[t + 1][i][j]
            } else {
                let lambda = inst.workload(j);
                let b_tilde = w.migration * inst.migration_total(i);
                let tau = (1.0 + lambda / eps.eps2).ln();
                let x = solutions[t].allocation.get(i, j);
                b_tilde / tau * ((lambda + eps.eps2) / (x + eps.eps2)).ln()
            }
        };
        let mut worst = f64::NEG_INFINITY;
        for t in 0..num_slots {
            let rho_sum: f64 = self.rho[t].iter().sum();
            for i in 0..num_clouds {
                let a_tilde = w.operation * inst.operation_price(i, t);
                for j in 0..num_users {
                    let l = inst.attached(j, t);
                    let lhs = -a_tilde - w.quality * inst.system().delay(l, i) / inst.workload(j)
                        + next_alpha(t, i)
                        - self.alpha[t][i]
                        + next_beta(t, i, j)
                        - self.beta[t][i][j]
                        + (rho_sum - self.rho[t][i])
                        + self.theta[t][j];
                    worst = worst.max(lhs);
                }
            }
        }
        worst.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::SlotInput;
    use crate::programs::p2;
    use optim::convex::BarrierOptions;

    fn solve_horizon(inst: &Instance, eps: Epsilons) -> Vec<P2Solution> {
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
    fn dual_fit_is_feasible_on_fig1() {
        // Lemma 2, executed: the constructed S_D satisfies 𝔻's constraints.
        let inst = Instance::fig1_example(2.1, true);
        let eps = Epsilons::default();
        let sols = solve_horizon(&inst, eps);
        let fit = fit(&inst, &sols, eps);
        assert!(
            fit.simple_constraint_violation(&inst) < 1e-6,
            "violation {}",
            fit.simple_constraint_violation(&inst)
        );
        let coupling = fit.coupling_violation(&inst, &sols, eps);
        assert!(coupling < 1e-3, "coupling violation {coupling}");
    }

    #[test]
    fn dual_objective_is_nonnegative() {
        let inst = Instance::fig1_example(1.9, false);
        let eps = Epsilons::default();
        let sols = solve_horizon(&inst, eps);
        let fit = fit(&inst, &sols, eps);
        assert!(fit.objective(&inst) >= 0.0);
    }
}
