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

/// [`build`] with an explicit [`CapacityMode`]: the terms of
/// [`write_terms`] in a fresh objective, J demand rows then I capacity
/// rows.
fn build_with_mode(
    input: &SlotInput<'_>,
    prev: &Allocation,
    eps: Epsilons,
    mode: CapacityMode,
) -> Result<BarrierSolver> {
    let (num_clouds, num_users) = (input.num_clouds(), input.num_users());
    let mut f = SeparableObjective::new(num_clouds * num_users);
    push_terms(&mut f, input, prev, eps)?;
    let mut b = vec![0.0; num_users + num_clouds];
    write_rhs(&mut b, input, mode);
    let a = constraint_matrix(num_clouds, num_users, mode);
    BarrierSolver::new(f, a, b).map_err(Error::from)
}

/// Writes ℙ₂'s objective through `emit`, the one place its terms are made:
/// for each cloud `i`, its reconfiguration group term ([`reconfig_term`])
/// as `emit(i, None, term)`, then for each user `j` the linear term and the
/// migration entropy term as `emit(i, Some(j), term)`. A term whose weight
/// degenerates is not written (see [`reconfig_weight`] and
/// [`migration_weight`]).
///
/// # Errors
///
/// Returns [`Error::Invalid`] for non-positive epsilons or corrupted
/// prices or delays (see [`linear_coef`]).
fn write_terms(
    input: &SlotInput<'_>,
    prev: &Allocation,
    eps: Epsilons,
    mut emit: impl FnMut(usize, Option<usize>, ScalarTerm),
) -> Result<()> {
    if !(eps.eps1 > 0.0) || !(eps.eps2 > 0.0) {
        return Err(Error::Invalid("ε₁ and ε₂ must be positive".into()));
    }
    for i in 0..input.num_clouds() {
        if let Some(term) = reconfig_term(input, prev, i, eps.eps1) {
            emit(i, None, term);
        }
        for j in 0..input.num_users() {
            let coef = linear_coef(input, i, j)?;
            emit(i, Some(j), ScalarTerm::Linear { coef });
            if let Some(weight) = migration_weight(input, i, j, eps.eps2) {
                let term = ScalarTerm::RelativeEntropy {
                    weight,
                    eps: input.mult(j) * eps.eps2,
                    xref: prev.get(i, j),
                };
                emit(i, Some(j), term);
            }
        }
    }
    Ok(())
}

/// Adds ℙ₂'s terms ([`write_terms`]) to `f`: user `j`'s terms on cloud `i`
/// to variable `i·J + j`, and cloud `i`'s group term over its J variables.
fn push_terms(
    f: &mut SeparableObjective,
    input: &SlotInput<'_>,
    prev: &Allocation,
    eps: Epsilons,
) -> Result<()> {
    let num_users = input.num_users();
    write_terms(input, prev, eps, |i, j, term| match j {
        Some(j) => f.add_term(i * num_users + j, term),
        None => f.add_group((i * num_users..(i + 1) * num_users).collect(), term),
    })
}

/// Writes ℙ₂'s right-hand side into `b`: the J demands, then each cloud's
/// capacity row in `mode`.
fn write_rhs(b: &mut [f64], input: &SlotInput<'_>, mode: CapacityMode) {
    let num_users = input.num_users();
    let total_workload: f64 = input.workloads.iter().sum();
    b[..num_users].copy_from_slice(&input.workloads[..num_users]);
    for (i, bi) in b[num_users..].iter_mut().enumerate() {
        *bi = match mode {
            CapacityMode::Paper10b => total_workload - input.system.capacity(i),
            CapacityMode::Explicit => -input.system.capacity(i),
        };
    }
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

/// Cloud `i`'s aggregate (reconfiguration) regularizer as a [`ScalarTerm`]
/// on the cloud total `x_{i,t} = Σ_j x_ij`, referenced at the previous
/// slot's total — exactly the group term [`build`] installs, or `None`
/// when that term is absent. The sharded coordinator evaluates this
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
/// iterate. It sums the terms [`build`] installs, each at its variable or
/// cloud total, in the order they are written: cloud by cloud, the group
/// term first. [`BarrierSolution::objective`] sums the same terms variable
/// by variable and the group terms last, so the two agree only to
/// round-off at the same point.
///
/// The sharded slot solver uses this to compare coordination rounds on a
/// common footing (merged shard solutions and their capacity projections
/// are not iterates of any single solver) and to certify their gaps.
///
/// # Errors
///
/// Returns [`Error::Invalid`] for a dimension mismatch between `x` and
/// the slot, non-positive epsilons or corrupted prices/delays (as
/// [`build`]).
pub fn slot_objective(
    input: &SlotInput<'_>,
    prev: &Allocation,
    x: &Allocation,
    eps: Epsilons,
) -> Result<f64> {
    let (num_clouds, num_users) = (input.num_clouds(), input.num_users());
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
    write_terms(input, prev, eps, |i, j, term| {
        total += term.value(j.map_or_else(|| x.cloud_total(i), |j| x.get(i, j)));
    })?;
    Ok(total)
}

/// What ℙ₂'s constraint matrix and Schur coupling `U` depend on: the user
/// count, the capacity mode, and which clouds carry a reconfiguration
/// group (`grouped[i]`; its length is the cloud count).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Shape {
    users: usize,
    mode: CapacityMode,
    grouped: Vec<bool>,
}

/// A ℙ₂ solve context carried across slots: the last slot's
/// [`BarrierSolver`] and a retained [`BarrierWorkspace`]. It starts empty.
///
/// A refresh whose slot has the held solver's shape — user and cloud
/// counts, capacity mode, clouds with a group — keeps the solver's
/// constraint matrix and Schur coupling `U`, and writes only the
/// objective's terms and the right-hand side; any other refresh builds the
/// solver anew. Either way the solver equals [`build`]'s for the slot, so
/// a solve after a refresh is bit for bit a fresh build's solve. A refresh
/// allocates the objective's group member lists (I·J indices), and the
/// whole solver on a new shape; once the buffers are warm, a solve from a
/// given start allocates only the returned solution.
#[derive(Debug, Clone, Default)]
pub struct P2Workspace {
    /// The solver of the last successful refresh and its shape.
    built: Option<(BarrierSolver, Shape)>,
    barrier: BarrierWorkspace,
}

impl P2Workspace {
    /// Points the workspace at a new slot's ℙ₂ (see [`P2Workspace`]).
    ///
    /// # Errors
    ///
    /// As [`build`]. A failed refresh leaves the workspace empty, so the
    /// next refresh builds from scratch.
    pub fn refresh(
        &mut self,
        input: &SlotInput<'_>,
        prev: &Allocation,
        eps: Epsilons,
        mode: CapacityMode,
    ) -> Result<()> {
        let shape = Shape {
            users: input.num_users(),
            mode,
            grouped: (0..input.num_clouds())
                .map(|i| reconfig_weight(input, i, eps.eps1).is_some())
                .collect(),
        };
        let solver = match self.built.take() {
            Some((mut solver, built)) if built == shape => {
                let f = solver.objective_mut();
                f.clear();
                push_terms(f, input, prev, eps)?;
                write_rhs(solver.rhs_mut(), input, mode);
                solver
            }
            _ => build_with_mode(input, prev, eps, mode)?,
        };
        self.built = Some((solver, shape));
        Ok(())
    }

    /// Solves the current slot's program out of the retained buffers. The
    /// error is [`optim`]'s own, which callers inspect (bad starting
    /// points, retryability, a deadline's salvaged iterate).
    ///
    /// # Errors
    ///
    /// As [`BarrierSolver::solve`].
    ///
    /// # Panics
    ///
    /// Panics unless the last [`P2Workspace::refresh`] succeeded.
    pub fn solve(
        &mut self,
        start: Option<&[f64]>,
        opts: &BarrierOptions,
    ) -> optim::Result<BarrierSolution> {
        let (solver, _) = self
            .built
            .as_ref()
            .expect("P2Workspace::solve needs a successful refresh first");
        solver.solve_with_workspace(start, opts, &mut self.barrier)
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

    /// One slot's data, owned so a test can edit it, viewed as a
    /// [`SlotInput`] by [`Slot::input`].
    #[derive(Clone)]
    struct Slot {
        system: crate::system::EdgeCloudSystem,
        workloads: Vec<f64>,
        operation_prices: Vec<f64>,
        attachment: Vec<usize>,
        access_delay: Vec<f64>,
        reconfig_prices: Vec<f64>,
        migration_out: Vec<f64>,
        migration_in: Vec<f64>,
        weights: crate::cost::CostWeights,
        multiplicity: Option<Vec<f64>>,
    }

    impl Slot {
        /// Slot `t` of a seeded random-walk instance with `users` users on
        /// the 15-station network.
        fn new(seed: u64, users: usize, t: usize) -> Self {
            use rand::SeedableRng;
            let net = mobility::rome_metro();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mob = mobility::random_walk::generate(&net, users, t + 1, &mut rng);
            let inst = Instance::synthetic(&net, mob, &mut rng);
            let input = SlotInput::from_instance(&inst, t);
            Slot {
                system: input.system.clone(),
                workloads: input.workloads.to_vec(),
                operation_prices: input.operation_prices.to_vec(),
                attachment: input.attachment.to_vec(),
                access_delay: input.access_delay.to_vec(),
                reconfig_prices: input.reconfig_prices.to_vec(),
                migration_out: input.migration_out.to_vec(),
                migration_in: input.migration_in.to_vec(),
                weights: input.weights,
                multiplicity: None,
            }
        }

        /// The slot restricted to its first `users` users.
        fn first(mut self, users: usize) -> Self {
            self.workloads.truncate(users);
            self.attachment.truncate(users);
            self.access_delay.truncate(users);
            self
        }

        fn input(&self) -> SlotInput<'_> {
            SlotInput {
                t: 0,
                system: &self.system,
                workloads: &self.workloads,
                operation_prices: &self.operation_prices,
                attachment: &self.attachment,
                access_delay: &self.access_delay,
                reconfig_prices: &self.reconfig_prices,
                migration_out: &self.migration_out,
                migration_in: &self.migration_in,
                weights: self.weights,
                multiplicity: self.multiplicity.as_deref(),
            }
        }
    }

    #[test]
    fn refresh_matches_a_fresh_workspace_across_shape_changes() {
        use CapacityMode::{Explicit, Paper10b};
        let base = Slot::new(5, 8, 1);
        let fewer = base.clone().first(5);
        // A zero capacity gives η = 0: cloud 2 loses its group term.
        let mut dark = fewer.clone();
        dark.system.inject_capacity(2, 0.0);
        // A zero migration price: cloud 1 loses its migration terms.
        let mut frozen = fewer.clone();
        frozen.migration_out[1] = 0.0;
        frozen.migration_in[1] = 0.0;
        // Each slot, and whether its shape is the previous slot's (the
        // refresh then keeps the solver and rewrites its terms).
        let schedule = [
            (&base, Paper10b, false),
            (&fewer, Paper10b, false),
            (&frozen, Paper10b, true),
            (&fewer, Paper10b, true),
            (&dark, Paper10b, false),
            (&dark, Paper10b, true),
            (&fewer, Paper10b, false),
            (&fewer, Explicit, false),
            (&base, Explicit, false),
            (&frozen, Explicit, false),
        ];
        let (eps, opts) = (Epsilons::default(), BarrierOptions::default());
        let solve = |ws: &mut P2Workspace, start: Option<&[f64]>| match ws.solve(start, &opts) {
            Err(optim::Error::BadStartingPoint(_)) => ws.solve(None, &opts),
            other => other,
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut ws = P2Workspace::default();
        let mut prev: Option<Allocation> = None;
        for (t, &(slot, mode, in_place)) in schedule.iter().enumerate() {
            let input = slot.input();
            let (clouds, users) = (input.num_clouds(), input.num_users());
            let start = proportional_start(&input);
            let prev_x = match prev.take() {
                Some(x) if x.num_users() == users => x,
                _ => Allocation::from_flat(clouds, users, start.clone().expect("interior")),
            };
            let held = ws.built.as_ref().map(|(_, shape)| shape.clone());
            ws.refresh(&input, &prev_x, eps, mode).unwrap();
            let shape = &ws.built.as_ref().expect("refreshed").1;
            assert_eq!(held.as_ref() == Some(shape), in_place, "slot {t}: path");
            let got = solve(&mut ws, start.as_deref()).unwrap();
            let mut fresh = P2Workspace::default();
            fresh.refresh(&input, &prev_x, eps, mode).unwrap();
            let want = solve(&mut fresh, start.as_deref()).unwrap();
            assert_eq!(bits(&got.x), bits(&want.x), "slot {t}: x");
            assert_eq!(bits(&got.row_duals), bits(&want.row_duals), "slot {t}");
            assert_eq!(bits(&got.bound_duals), bits(&want.bound_duals), "slot {t}");
            assert_eq!(
                got.objective.to_bits(),
                want.objective.to_bits(),
                "slot {t}"
            );
            prev = Some(Allocation::from_flat(clouds, users, got.x));
        }
    }

    /// [`slot_objective`]'s sum as it was written before ℙ₂'s terms had one
    /// writer, kept verbatim as the oracle of the current one.
    fn slot_objective_oracle(
        input: &SlotInput<'_>,
        prev: &Allocation,
        x: &Allocation,
        eps: Epsilons,
    ) -> Result<f64> {
        let num_clouds = input.num_clouds();
        let num_users = input.num_users();
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

    #[test]
    fn slot_objective_matches_its_former_loop_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        // Seed bits pick the variants: 1 a cohort-reduced slot, 2 a
        // zero-capacity cloud, 4 a zero migration price.
        for seed in 0..32u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut slot = Slot::new(seed, 3 + seed as usize % 9, seed as usize % 3);
            let (clouds, users) = (slot.system.num_clouds(), slot.workloads.len());
            if seed & 1 != 0 {
                let n: Vec<f64> = (0..users).map(|_| rng.gen_range(1u32..6) as f64).collect();
                for (w, m) in slot.workloads.iter_mut().zip(&n) {
                    *w *= m;
                }
                slot.multiplicity = Some(n);
            }
            if seed & 2 != 0 {
                slot.system.inject_capacity(rng.gen_range(0..clouds), 0.0);
            }
            if seed & 4 != 0 {
                let i = rng.gen_range(0..clouds);
                slot.migration_out[i] = 0.0;
                slot.migration_in[i] = 0.0;
            }
            let mut point = |zero_share: f64| {
                let v = (0..clouds * users)
                    .map(|_| {
                        if rng.gen_bool(zero_share) {
                            0.0
                        } else {
                            rng.gen_range(0.0..3.0)
                        }
                    })
                    .collect();
                Allocation::from_flat(clouds, users, v)
            };
            let (prev, x) = (point(0.5), point(0.2));
            let eps = Epsilons {
                eps1: rng.gen_range(0.05..2.0),
                eps2: rng.gen_range(0.05..2.0),
            };
            let input = slot.input();
            let got = slot_objective(&input, &prev, &x, eps).unwrap();
            let want = slot_objective_oracle(&input, &prev, &x, eps).unwrap();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "seed {seed}: {got} vs {want}"
            );
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
