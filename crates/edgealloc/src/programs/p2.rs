//! The regularized per-slot convex program ℙ₂ (§III-B of the paper).
//!
//! At slot `t`, taking the previous decision `x*_{t−1}` as input:
//!
//! ```text
//! min  Σ_ij ã_{i,t} x_ij + Σ_j ( d(j,l_jt) + Σ_i (w_q·d(l_jt,i)/λ_j) x_ij )
//!    + Σ_i (c̃_i/η_i) ( (x_i+ε₁) ln((x_i+ε₁)/(x*_{i,t−1}+ε₁)) − x_i )
//!    + Σ_ij (b̃_i/τ_ij) ( (x_ij+ε₂) ln((x_ij+ε₂)/(x*_{ij,t−1}+ε₂)) − x_ij )
//! s.t. Σ_i x_ij ≥ λ_j          ∀j                  (10a)
//!      Σ_{k≠i} Σ_j x_kj ≥ Σ_j λ_j − C_i  ∀i        (10b)
//!      x ≥ 0                                        (10c)
//! ```
//!
//! with `η_i = ln(1 + C_i/ε₁)`, `τ_ij = ln(1 + λ_j/ε₂)` and
//! weight-scaled prices `ã = w_op·a`, `c̃ = w_rc·c` and
//! `b̃ = w_mg·(b^out + b^in)`.
//! The objective is convex separable plus per-cloud aggregate terms, solved
//! by [`optim::convex::BarrierSolver`].

use crate::algorithms::SlotInput;
use crate::allocation::Allocation;
use crate::{Error, Result};
use optim::convex::{
    BarrierOptions, BarrierSolution, BarrierSolver, BarrierWorkspace, ScalarTerm,
    SeparableObjective,
};
use optim::sparse::CscMatrix;

/// How ℙ₂ encodes the capacity limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CapacityMode {
    /// The paper's constraint (10b): `Σ_{k≠i} Σ_j x_kj ≥ Σλ − C_i`. Used by
    /// the competitive analysis, but does **not** imply `x_i ≤ C_i` when
    /// the optimum over-allocates (see DESIGN.md erratum 1).
    #[default]
    Paper10b,
    /// Explicit per-cloud rows `Σ_j x_ij ≤ C_i` (which imply (10b) whenever
    /// demand is met). Guarantees capacity feasibility outright — what a
    /// practitioner would deploy; the ρ duals then belong to the capacity
    /// rows instead of (10b).
    Explicit,
}

/// Regularization parameters `ε₁` (aggregate/reconfiguration term) and
/// `ε₂` (per-user/migration term).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Epsilons {
    /// `ε₁ > 0`.
    pub eps1: f64,
    /// `ε₂ > 0`.
    pub eps2: f64,
}

impl Default for Epsilons {
    fn default() -> Self {
        // Figure 4 shows a shallow optimum of the empirical ratio for
        // ε around 10⁻¹…10⁰; 0.5 is a robust default.
        Epsilons {
            eps1: 0.5,
            eps2: 0.5,
        }
    }
}

/// The solved per-slot program: the allocation plus the KKT multipliers the
/// competitive analysis needs (`θ'_{j,t}` for the demand rows (10a) and
/// `ρ'_{i,t}` for the rows (10b)).
#[derive(Debug, Clone)]
pub struct P2Solution {
    /// The slot's allocation `x*_{·,·,t}`.
    pub allocation: Allocation,
    /// Demand-row duals `θ'_{j,t} ≥ 0`.
    pub theta: Vec<f64>,
    /// (10b)-row duals `ρ'_{i,t} ≥ 0`.
    pub rho: Vec<f64>,
    /// Optimal objective value of ℙ₂ (excluding the constant access-delay
    /// term `Σ_j d(j, l_{j,t})`).
    pub objective: f64,
}

/// Builds the ℙ₂ [`BarrierSolver`] for one slot. Variables are indexed
/// `k = i·J + j`, matching [`Allocation::as_flat`].
///
/// # Errors
///
/// Returns [`Error::Invalid`] for non-positive epsilons.
pub fn build(input: &SlotInput<'_>, prev: &Allocation, eps: Epsilons) -> Result<BarrierSolver> {
    build_with_mode(input, prev, eps, CapacityMode::Paper10b)
}

/// [`build`] with an explicit [`CapacityMode`].
///
/// # Errors
///
/// Returns [`Error::Invalid`] for non-positive epsilons.
pub fn build_with_mode(
    input: &SlotInput<'_>,
    prev: &Allocation,
    eps: Epsilons,
    mode: CapacityMode,
) -> Result<BarrierSolver> {
    if !(eps.eps1 > 0.0) || !(eps.eps2 > 0.0) {
        return Err(Error::Invalid("ε₁ and ε₂ must be positive".into()));
    }
    let num_clouds = input.num_clouds();
    let num_users = input.num_users();
    let n = num_clouds * num_users;
    let total_workload: f64 = input.workloads.iter().sum();

    let mut f = SeparableObjective::new(n);
    for i in 0..num_clouds {
        // Per-cloud aggregate regularizer (reconfiguration smoothing). A
        // degenerate η — zero for a zero-capacity (down) cloud, non-finite
        // for corrupted capacities — would poison the objective, so such
        // clouds simply lose their smoothing term.
        if let Some(weight) = reconfig_weight(input, i, eps.eps1) {
            let members: Vec<usize> = (0..num_users).map(|j| i * num_users + j).collect();
            f.add_group(
                members,
                ScalarTerm::RelativeEntropy {
                    weight,
                    eps: eps.eps1,
                    xref: prev.cloud_total(i),
                },
            );
        }
        for j in 0..num_users {
            let k = i * num_users + j;
            let lin = linear_coef(input, i, j)?;
            f.add_term(k, ScalarTerm::Linear { coef: lin });
            // Per-(i,j) regularizer (migration smoothing); τ degenerates
            // like η does when λ_j is corrupted.
            if let Some(weight) = migration_weight(input, i, j, eps.eps2) {
                f.add_term(
                    k,
                    ScalarTerm::RelativeEntropy {
                        weight,
                        eps: input.mult(j) * eps.eps2,
                        xref: prev.get(i, j),
                    },
                );
            }
        }
    }

    // Constraints: J demand rows then I rows of (10b).
    let a = constraint_matrix(num_clouds, num_users, mode);
    let mut b = input.workloads[..num_users].to_vec();
    b.extend((0..num_clouds).map(|i| capacity_rhs(input, i, mode, total_workload)));
    BarrierSolver::new(f, a, b).map_err(Error::from)
}

/// ℙ₂'s constraint matrix, written column by column: column `k = i·J + j`
/// holds demand row `j`, then either the (10b) rows of every cloud but `i`
/// or, in [`CapacityMode::Explicit`], cloud `i`'s own row with `−1`
/// (`−Σ_j x_ij ≥ −C_i` in the solver's `A x ≥ b` form).
fn constraint_matrix(num_clouds: usize, num_users: usize, mode: CapacityMode) -> CscMatrix {
    let n = num_clouds * num_users;
    let per_column = match mode {
        CapacityMode::Paper10b => num_clouds,
        CapacityMode::Explicit => 2,
    };
    let (mut rowind, mut values) = (
        Vec::with_capacity(n * per_column),
        Vec::with_capacity(n * per_column),
    );
    let mut colptr = Vec::with_capacity(n + 1);
    colptr.push(0);
    for i in 0..num_clouds {
        for j in 0..num_users {
            rowind.push(j);
            values.push(1.0);
            match mode {
                CapacityMode::Paper10b => {
                    for other in (0..num_clouds).filter(|&other| other != i) {
                        rowind.push(num_users + other);
                        values.push(1.0);
                    }
                }
                CapacityMode::Explicit => {
                    rowind.push(num_users + i);
                    values.push(-1.0);
                }
            }
            colptr.push(rowind.len());
        }
    }
    CscMatrix::from_raw_parts(num_users + num_clouds, n, colptr, rowind, values)
}

/// Weight `c̃_i/η_i` of cloud `i`'s aggregate (reconfiguration) regularizer,
/// or `None` when the term is absent (zero reconfiguration price, or a
/// degenerate η from a zero/corrupted capacity).
fn reconfig_weight(input: &SlotInput<'_>, i: usize, eps1: f64) -> Option<f64> {
    let c_tilde = input.weights.reconfig * input.reconfig_prices[i];
    let eta = (1.0 + input.system.capacity(i) / eps1).ln();
    (c_tilde > 0.0 && eta.is_finite() && eta > 0.0).then(|| c_tilde / eta)
}

/// Weight `b̃_i/τ_ij` of the per-(i,j) migration regularizer, or `None`
/// when the term is absent (zero migration price, or a degenerate τ from a
/// corrupted workload). On cohort-reduced slots τ is computed from the
/// per-member workload — every member carries its own `b̃_i/τ` term in the
/// full program, and the aggregate (see [`crate::cohort`]) keeps that
/// per-member weight while scaling only the entropy offset `ε₂` by the
/// multiplicity.
fn migration_weight(input: &SlotInput<'_>, i: usize, j: usize, eps2: f64) -> Option<f64> {
    let b_tilde = input.weights.migration * input.migration_total(i);
    let tau = (1.0 + input.per_user_workload(j) / eps2).ln();
    (b_tilde > 0.0 && tau.is_finite() && tau > 0.0).then(|| b_tilde / tau)
}

/// Linear (operation + service-quality) coefficient of variable `(i, j)`.
///
/// # Errors
///
/// Returns [`Error::Invalid`] when corrupted prices or delays make the
/// coefficient non-finite.
fn linear_coef(input: &SlotInput<'_>, i: usize, j: usize) -> Result<f64> {
    let w = input.weights;
    // The quality term divides by the *per-member* workload: on a
    // cohort-reduced slot the variable is the pooled Σλ, but the delay
    // penalty is per unit of each member's own λ.
    let lin = w.operation * input.operation_prices[i]
        + w.quality * input.system.delay(input.attachment[j], i) / input.per_user_workload(j);
    if !lin.is_finite() {
        return Err(Error::Invalid(format!(
            "non-finite objective coefficient for cloud {i}, user {j} \
             (corrupted prices or delays; sanitize the input first)"
        )));
    }
    Ok(lin)
}

/// Right-hand side of cloud `i`'s capacity row in the chosen mode.
fn capacity_rhs(input: &SlotInput<'_>, i: usize, mode: CapacityMode, total_workload: f64) -> f64 {
    match mode {
        CapacityMode::Paper10b => total_workload - input.system.capacity(i),
        CapacityMode::Explicit => -input.system.capacity(i),
    }
}

/// Cloud `i`'s aggregate (reconfiguration) regularizer as a [`ScalarTerm`]
/// on the cloud total `x_{i,t} = Σ_j x_ij`, referenced at the previous
/// slot's total — exactly the group term [`build_with_mode`] installs, or
/// `None` when that term is absent. The sharded coordinator evaluates this
/// term's value/derivative (`φ_i`, `φ_i'`) to linearize the one
/// non-separable piece of ℙ₂ across user shards.
pub fn reconfig_term(
    input: &SlotInput<'_>,
    prev: &Allocation,
    i: usize,
    eps1: f64,
) -> Option<ScalarTerm> {
    reconfig_weight(input, i, eps1).map(|weight| ScalarTerm::RelativeEntropy {
        weight,
        eps: eps1,
        xref: prev.cloud_total(i),
    })
}

/// Evaluates the full ℙ₂ objective (linear operation + quality costs,
/// per-cloud aggregate reconfiguration entropy, per-(i,j) migration
/// entropy; excluding the constant access-delay term, as everywhere in this
/// module) at an **arbitrary** allocation `x` — not necessarily a solver
/// iterate. Terms dropped by the builders (degenerate η/τ, zero prices) are
/// dropped here too, so the value agrees exactly with
/// [`BarrierSolution::objective`] at the same point.
///
/// The sharded slot solver uses this to compare coordination rounds on a
/// common footing (merged shard solutions and their capacity projections
/// are not iterates of any single solver).
///
/// # Errors
///
/// Returns [`Error::Invalid`] for non-positive epsilons, a dimension
/// mismatch between `x` and the slot, or corrupted prices/delays (as
/// [`build`]).
pub fn slot_objective(
    input: &SlotInput<'_>,
    prev: &Allocation,
    x: &Allocation,
    eps: Epsilons,
) -> Result<f64> {
    if !(eps.eps1 > 0.0) || !(eps.eps2 > 0.0) {
        return Err(Error::Invalid("ε₁ and ε₂ must be positive".into()));
    }
    let num_clouds = input.num_clouds();
    let num_users = input.num_users();
    if x.num_clouds() != num_clouds || x.num_users() != num_users {
        return Err(Error::Invalid(format!(
            "allocation is {}×{} but the slot is {}×{}",
            x.num_clouds(),
            x.num_users(),
            num_clouds,
            num_users
        )));
    }
    let mut total = 0.0;
    for i in 0..num_clouds {
        if let Some(term) = reconfig_term(input, prev, i, eps.eps1) {
            total += term.value(x.cloud_total(i));
        }
        for j in 0..num_users {
            total += linear_coef(input, i, j)? * x.get(i, j);
            if let Some(weight) = migration_weight(input, i, j, eps.eps2) {
                let term = ScalarTerm::RelativeEntropy {
                    weight,
                    eps: input.mult(j) * eps.eps2,
                    xref: prev.get(i, j),
                };
                total += term.value(x.get(i, j));
            }
        }
    }
    Ok(total)
}

/// Which terms of ℙ₂ *exist* for a given slot: the per-cloud aggregate
/// groups and per-(i,j) entropy terms are dropped when their weights
/// degenerate, so term existence — unlike term values — can in principle
/// change between slots (e.g. a fault zeroes a capacity mid-horizon).
/// [`P2Workspace::refresh`] compares signatures to decide between the cheap
/// in-place value refresh and a full rebuild.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StructureSig {
    num_clouds: usize,
    num_users: usize,
    groups: Vec<bool>,
    entropy: Vec<bool>,
}

impl StructureSig {
    fn of(input: &SlotInput<'_>, eps: Epsilons) -> Self {
        let num_clouds = input.num_clouds();
        let num_users = input.num_users();
        let mut entropy = Vec::with_capacity(num_clouds * num_users);
        for i in 0..num_clouds {
            for j in 0..num_users {
                entropy.push(migration_weight(input, i, j, eps.eps2).is_some());
            }
        }
        StructureSig {
            num_clouds,
            num_users,
            groups: (0..num_clouds)
                .map(|i| reconfig_weight(input, i, eps.eps1).is_some())
                .collect(),
            entropy,
        }
    }
}

/// A persistent ℙ₂ solve context for one horizon: the constraint matrix,
/// the objective's term/group structure, and the barrier solver's Schur
/// coupling are built **once**; each slot only refreshes the term *values*
/// (operation prices, delays, entropy references) and the right-hand side,
/// then solves out of a retained [`BarrierWorkspace`] — the per-slot path
/// allocates nothing beyond the returned solution.
///
/// The cross-slot reuse is sound because ℙ₂'s structure depends only on
/// per-instance data (capacities, workloads, reconfiguration/migration
/// prices, weights): per-slot inputs (operation prices, attachments, the
/// previous allocation) enter as coefficients. [`P2Workspace::refresh`]
/// still guards with a comparison of which terms exist and transparently
/// rebuilds when term existence *does* change (fault injection can zero a
/// capacity or a price mid-horizon).
#[derive(Debug, Clone)]
pub struct P2Workspace {
    solver: BarrierSolver,
    barrier: BarrierWorkspace,
    eps: Epsilons,
    mode: CapacityMode,
    sig: StructureSig,
}

impl P2Workspace {
    /// Builds the workspace for the first slot of a horizon.
    ///
    /// # Errors
    ///
    /// As [`build_with_mode`].
    pub fn new(
        input: &SlotInput<'_>,
        prev: &Allocation,
        eps: Epsilons,
        mode: CapacityMode,
    ) -> Result<Self> {
        let solver = build_with_mode(input, prev, eps, mode)?;
        let barrier = BarrierWorkspace::for_solver(&solver);
        Ok(P2Workspace {
            barrier,
            solver,
            eps,
            mode,
            sig: StructureSig::of(input, eps),
        })
    }

    /// Re-targets the workspace at a new slot: overwrites every term value
    /// and right-hand-side entry in place (or rebuilds from scratch when
    /// the structure signature changed). Produces a solver state identical
    /// to [`build_with_mode`] on the same inputs, so solves after a refresh
    /// are bit-for-bit equal to fresh-build solves.
    ///
    /// # Errors
    ///
    /// As [`build_with_mode`]; on error the workspace holds partially
    /// refreshed values, which is harmless — the slot is abandoned to a
    /// fallback rung and the next refresh overwrites every value again.
    pub fn refresh(&mut self, input: &SlotInput<'_>, prev: &Allocation) -> Result<()> {
        let sig = StructureSig::of(input, self.eps);
        if sig != self.sig {
            self.solver = build_with_mode(input, prev, self.eps, self.mode)?;
            self.sig = sig;
            return Ok(());
        }
        let num_clouds = input.num_clouds();
        let num_users = input.num_users();
        let f = self.solver.objective_mut();
        let mut g = 0usize;
        for i in 0..num_clouds {
            if let Some(weight) = reconfig_weight(input, i, self.eps.eps1) {
                f.set_group_term(
                    g,
                    ScalarTerm::RelativeEntropy {
                        weight,
                        eps: self.eps.eps1,
                        xref: prev.cloud_total(i),
                    },
                );
                g += 1;
            }
            for j in 0..num_users {
                let k = i * num_users + j;
                f.set_term(
                    k,
                    0,
                    ScalarTerm::Linear {
                        coef: linear_coef(input, i, j)?,
                    },
                );
                if let Some(weight) = migration_weight(input, i, j, self.eps.eps2) {
                    f.set_term(
                        k,
                        1,
                        ScalarTerm::RelativeEntropy {
                            weight,
                            eps: input.mult(j) * self.eps.eps2,
                            xref: prev.get(i, j),
                        },
                    );
                }
            }
        }
        let total_workload: f64 = input.workloads.iter().sum();
        let b = self.solver.rhs_mut();
        b[..num_users].copy_from_slice(&input.workloads[..num_users]);
        for i in 0..num_clouds {
            b[num_users + i] = capacity_rhs(input, i, self.mode, total_workload);
        }
        Ok(())
    }

    /// Solves the current slot's program out of the retained buffers.
    ///
    /// # Errors
    ///
    /// As [`BarrierSolver::solve`].
    pub fn solve(
        &mut self,
        start: Option<&[f64]>,
        opts: &BarrierOptions,
    ) -> Result<BarrierSolution> {
        self.solve_raw(start, opts).map_err(Error::from)
    }

    /// [`P2Workspace::solve`] surfacing the raw [`optim::Error`], which the
    /// degradation ladder inspects (retryability, bad starting points).
    pub(crate) fn solve_raw(
        &mut self,
        start: Option<&[f64]>,
        opts: &BarrierOptions,
    ) -> optim::Result<BarrierSolution> {
        self.solver
            .solve_with_workspace(start, opts, &mut self.barrier)
    }

    /// The underlying solver (dimensions, objective evaluation).
    pub fn solver(&self) -> &BarrierSolver {
        &self.solver
    }
}

/// A strictly feasible starting point: every user's demand spread across
/// clouds proportionally to capacity, scaled by 1.001, and at least
/// `1e-9·λ_j` per cloud so that a cloud without capacity does not put the
/// point on the `x ≥ 0` boundary. Returns `None` when total capacity does
/// not strictly exceed total workload (the barrier solver then falls back
/// to its phase-I LP).
pub fn proportional_start(input: &SlotInput<'_>) -> Option<Vec<f64>> {
    let num_clouds = input.num_clouds();
    let num_users = input.num_users();
    let total_cap = input.system.total_capacity();
    let total_workload: f64 = input.workloads.iter().sum();
    if total_cap <= total_workload * 1.0015 {
        return None;
    }
    let mut x = vec![0.0; num_clouds * num_users];
    for i in 0..num_clouds {
        let share = input.system.capacity(i) / total_cap;
        for j in 0..num_users {
            let lambda = input.workloads[j];
            x[i * num_users + j] = (1.001 * lambda * share).max(1e-9 * lambda);
        }
    }
    Some(x)
}

/// Builds and optimally solves ℙ₂ for one slot, starting at
/// [`proportional_start`] (or the solver's phase I when there is none, or
/// when it is rejected).
///
/// # Errors
///
/// Propagates solver failures.
pub fn solve(
    input: &SlotInput<'_>,
    prev: &Allocation,
    eps: Epsilons,
    opts: &BarrierOptions,
) -> Result<P2Solution> {
    solve_with_mode(input, prev, eps, opts, CapacityMode::Paper10b)
}

/// [`solve`] with an explicit [`CapacityMode`].
///
/// # Errors
///
/// Propagates solver failures.
pub fn solve_with_mode(
    input: &SlotInput<'_>,
    prev: &Allocation,
    eps: Epsilons,
    opts: &BarrierOptions,
    mode: CapacityMode,
) -> Result<P2Solution> {
    let solver = build_with_mode(input, prev, eps, mode)?;
    let start = proportional_start(input);
    let sol = match solver.solve(start.as_deref(), opts) {
        Ok(s) => s,
        // The start can be (numerically) on the boundary; retry with
        // phase-I rather than failing the whole horizon.
        Err(optim::Error::BadStartingPoint(_)) => solver.solve(None, opts)?,
        Err(e) => return Err(e.into()),
    };
    Ok(solution_from_barrier(input, sol))
}

/// Unpacks a raw barrier solution of a ℙ₂ program into a [`P2Solution`]
/// (allocation + the duals the analysis needs). Shared by [`solve`] and the
/// degradation ladder in [`crate::algorithms::OnlineRegularized`], which
/// drives the barrier solver itself to control retries.
pub fn solution_from_barrier(
    input: &SlotInput<'_>,
    sol: optim::convex::BarrierSolution,
) -> P2Solution {
    let num_users = input.num_users();
    let allocation = Allocation::from_flat(input.num_clouds(), num_users, sol.x);
    P2Solution {
        theta: sol.row_duals[..num_users].to_vec(),
        rho: sol.row_duals[num_users..].to_vec(),
        objective: sol.objective,
        allocation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::SlotInput;
    use crate::instance::Instance;

    fn fig1_slot(t: usize) -> (Instance, usize) {
        (Instance::fig1_example(2.1, true), t)
    }

    #[test]
    fn p2_solution_is_feasible_for_p1() {
        let (inst, t) = fig1_slot(0);
        let input = SlotInput::from_instance(&inst, t);
        let prev = Allocation::zeros(2, 1);
        let sol = solve(
            &input,
            &prev,
            Epsilons::default(),
            &BarrierOptions::default(),
        )
        .unwrap();
        // Theorem 1: demand met and capacity respected.
        assert!(sol.allocation.demand_shortfall(inst.workloads()) < 1e-5);
        assert!(sol.allocation.capacity_excess(inst.system().capacities()) < 1e-5);
    }

    #[test]
    fn p2_monotone_in_previous_solution() {
        // Theorem 1's proof: x*_t ≥ would-decrease only; with prev already
        // serving from cloud 0, the solution should not exceed capacity and
        // the aggregate must stay within [0, C].
        let (inst, _) = fig1_slot(1);
        let input = SlotInput::from_instance(&inst, 1);
        let mut prev = Allocation::zeros(2, 1);
        prev.set(0, 0, 1.0);
        let sol = solve(
            &input,
            &prev,
            Epsilons::default(),
            &BarrierOptions::default(),
        )
        .unwrap();
        for i in 0..2 {
            assert!(sol.allocation.cloud_total(i) <= inst.system().capacity(i) + 1e-6);
        }
    }

    #[test]
    fn duals_are_nonnegative() {
        let (inst, _) = fig1_slot(0);
        let input = SlotInput::from_instance(&inst, 0);
        let prev = Allocation::zeros(2, 1);
        let sol = solve(
            &input,
            &prev,
            Epsilons::default(),
            &BarrierOptions::default(),
        )
        .unwrap();
        assert!(sol.theta.iter().all(|&v| v >= 0.0));
        assert!(sol.rho.iter().all(|&v| v >= 0.0));
        assert_eq!(sol.theta.len(), 1);
        assert_eq!(sol.rho.len(), 2);
    }

    #[test]
    fn explicit_capacity_mode_respects_caps_exactly() {
        let (inst, _) = fig1_slot(0);
        let input = SlotInput::from_instance(&inst, 0);
        let prev = Allocation::zeros(2, 1);
        let sol = solve_with_mode(
            &input,
            &prev,
            Epsilons::default(),
            &BarrierOptions::default(),
            CapacityMode::Explicit,
        )
        .unwrap();
        assert!(sol.allocation.demand_shortfall(inst.workloads()) < 1e-5);
        assert!(sol.allocation.capacity_excess(inst.system().capacities()) < 1e-7);
    }

    #[test]
    fn rejects_nonpositive_epsilons() {
        let (inst, _) = fig1_slot(0);
        let input = SlotInput::from_instance(&inst, 0);
        let prev = Allocation::zeros(2, 1);
        assert!(build(
            &input,
            &prev,
            Epsilons {
                eps1: 0.0,
                eps2: 1.0
            }
        )
        .is_err());
    }

    #[test]
    fn proportional_start_is_strictly_feasible() {
        use rand::SeedableRng;
        let (fig1, _) = fig1_slot(0);
        // A cloud without capacity must not put the start on x ≥ 0.
        let net = mobility::rome_metro();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mob = mobility::random_walk::generate(&net, 8, 2, &mut rng);
        let mut dark = Instance::synthetic(&net, mob, &mut rng);
        dark.system_mut().inject_capacity(2, 0.0);
        for inst in [fig1, dark] {
            let input = SlotInput::from_instance(&inst, 0);
            let start = proportional_start(&input).expect("capacity exceeds workload");
            let prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
            let solver = build(&input, &prev, Epsilons::default()).unwrap();
            // Solving from this start must not raise BadStartingPoint.
            let sol = solver.solve(Some(&start), &BarrierOptions::default());
            assert!(sol.is_ok(), "{sol:?}");
        }
    }

    #[test]
    fn slot_objective_agrees_with_solver_objective() {
        let inst = Instance::fig1_example(2.1, true);
        let input = SlotInput::from_instance(&inst, 1);
        let mut prev = Allocation::zeros(2, 1);
        prev.set(0, 0, 1.0);
        let sol = solve(
            &input,
            &prev,
            Epsilons::default(),
            &BarrierOptions::default(),
        )
        .unwrap();
        let eval = slot_objective(&input, &prev, &sol.allocation, Epsilons::default()).unwrap();
        assert!(
            (eval - sol.objective).abs() <= 1e-9 * (1.0 + sol.objective.abs()),
            "evaluator {eval} vs solver {}",
            sol.objective
        );
        // And it rejects a mis-shaped allocation.
        assert!(
            slot_objective(&input, &prev, &Allocation::zeros(3, 1), Epsilons::default()).is_err()
        );
    }

    #[test]
    fn reconfig_term_matches_installed_group() {
        let inst = Instance::fig1_example(2.1, true);
        let input = SlotInput::from_instance(&inst, 0);
        let mut prev = Allocation::zeros(2, 1);
        prev.set(1, 0, 0.7);
        let term = reconfig_term(&input, &prev, 1, 0.5).expect("live cloud has a group term");
        match term {
            ScalarTerm::RelativeEntropy { weight, eps, xref } => {
                assert!(weight > 0.0);
                assert_eq!(eps, 0.5);
                assert!((xref - 0.7).abs() < 1e-12);
            }
            other => panic!("unexpected term {other:?}"),
        }
    }

    #[test]
    fn column_wise_constraints_match_coordinate_assembly() {
        use optim::sparse::Triplets;
        let bits = |m: &CscMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (clouds, users) in [(15, 1), (15, 2), (15, 13), (15, 240), (1, 3)] {
            for mode in [CapacityMode::Paper10b, CapacityMode::Explicit] {
                // The coordinate-form assembly the builder used to run.
                let n = clouds * users;
                let mut t = Triplets::new(users + clouds, n);
                for j in 0..users {
                    for i in 0..clouds {
                        t.push(j, i * users + j, 1.0);
                    }
                }
                for i in 0..clouds {
                    match mode {
                        CapacityMode::Paper10b => {
                            for k in (0..clouds).filter(|&k| k != i) {
                                for j in 0..users {
                                    t.push(users + i, k * users + j, 1.0);
                                }
                            }
                        }
                        CapacityMode::Explicit => {
                            for j in 0..users {
                                t.push(users + i, i * users + j, -1.0);
                            }
                        }
                    }
                }
                let (got, want) = (constraint_matrix(clouds, users, mode), t.to_csc());
                let what = format!("{clouds} clouds, {users} users, {mode:?}");
                assert_eq!(
                    (got.nrows(), got.ncols()),
                    (want.nrows(), want.ncols()),
                    "{what}"
                );
                assert_eq!(got.colptr(), want.colptr(), "{what}");
                assert_eq!(got.rowind(), want.rowind(), "{what}");
                assert_eq!(bits(&got), bits(&want), "{what}");
            }
        }
    }

    #[test]
    fn entropy_pull_keeps_allocation_near_previous() {
        // With huge migration prices, the solution should stay very close
        // to the previous allocation (which is feasible here).
        let inst = Instance::fig1_example(2.1, true);
        let mut inst2 = inst.clone();
        // Scale dynamic weights hard.
        inst2 = inst2.with_weights(crate::cost::CostWeights {
            reconfig: 100.0,
            migration: 100.0,
            ..Default::default()
        });
        let input = SlotInput::from_instance(&inst2, 1);
        let mut prev = Allocation::zeros(2, 1);
        prev.set(0, 0, 1.0);
        let sol = solve(
            &input,
            &prev,
            Epsilons::default(),
            &BarrierOptions::default(),
        )
        .unwrap();
        assert!(
            sol.allocation.get(0, 0) > 0.9,
            "allocation should stick to cloud 0, got {:?}",
            sol.allocation
        );
    }
}
