//! Log-barrier path-following solver for separable convex programs.

use crate::budget::SolveBudget;
use crate::convex::{DiagPlusLowRank, DiagPlusLowRankWorkspace, SchurKernel, SeparableObjective};
use crate::lp::{ConstraintSense, IpmOptions, LpProblem};
use crate::sparse::{CscMatrix, Triplets};
use crate::{Error, Result, Salvage};

/// Options for the barrier solver.
#[derive(Debug, Clone)]
pub struct BarrierOptions {
    /// Initial barrier parameter `t₀`.
    pub t0: f64,
    /// Barrier parameter growth factor `μ > 1` per outer iteration.
    pub mu: f64,
    /// Relative duality-gap tolerance: stop when
    /// `(m+n)/t ≤ tol · (1 + |f(x)|)`.
    pub tol: f64,
    /// Newton decrement tolerance for the centering steps (`λ²/2`).
    pub inner_tol: f64,
    /// Newton step limit per centering. A centering that takes all of
    /// them without converging fails the solve with
    /// [`Error::MaxIterations`]: the `(m+n)/t` gap bound holds only at a
    /// centered point, so an uncentered one is never certified.
    pub max_newton: usize,
    /// Outer iteration limit.
    pub max_outer: usize,
    /// Cooperative wall-clock/iteration budget, checked at the top of each
    /// Newton step (unlimited by default — the happy path then reads no
    /// clock). On exhaustion the solve returns
    /// [`Error::DeadlineExceeded`] carrying the current (strictly
    /// feasible) iterate as a salvage point.
    pub budget: SolveBudget,
}

impl Default for BarrierOptions {
    fn default() -> Self {
        BarrierOptions {
            t0: 1.0,
            mu: 20.0,
            tol: 1e-8,
            inner_tol: 1e-9,
            max_newton: 200,
            max_outer: 80,
            budget: SolveBudget::unlimited(),
        }
    }
}

/// Statistics of a finished barrier solve.
#[derive(Debug, Clone, Copy)]
pub struct BarrierStats {
    /// Outer (centering) iterations.
    pub outer_iterations: usize,
    /// Total Newton steps across all centerings.
    pub newton_steps: usize,
    /// Final certified duality gap `(m+n)/t`.
    pub gap: f64,
}

/// Solution of a separable convex program.
#[derive(Debug, Clone)]
pub struct BarrierSolution {
    /// Primal solution.
    pub x: Vec<f64>,
    /// Objective value `f(x)`.
    pub objective: f64,
    /// Approximate KKT multipliers of the rows `A x ≥ b`
    /// (`λ_r = 1/(t·slack_r) ≥ 0`).
    pub row_duals: Vec<f64>,
    /// Approximate KKT multipliers of the bounds `x ≥ 0`.
    pub bound_duals: Vec<f64>,
    /// Statistics.
    pub stats: BarrierStats,
}

/// A separable convex program `min f(x) s.t. A x ≥ b, x ≥ 0` solved by a
/// log-barrier path-following Newton method.
///
/// The Newton systems are diagonal-plus-low-rank and solved through a dense
/// Schur complement of size `#groups + #rows` (see [`DiagPlusLowRank`]), so
/// the per-step cost is linear in the number of variables.
///
/// # Example
///
/// Minimize `x² + y²` over `x + y ≥ 2` (optimum at x = y = 1):
///
/// ```
/// use optim::convex::{BarrierOptions, BarrierSolver, ScalarTerm, SeparableObjective};
/// use optim::sparse::Triplets;
///
/// # fn main() -> Result<(), optim::Error> {
/// let mut f = SeparableObjective::new(2);
/// f.add_term(0, ScalarTerm::Quadratic { q: 2.0 });
/// f.add_term(1, ScalarTerm::Quadratic { q: 2.0 });
/// let mut a = Triplets::new(1, 2);
/// a.push(0, 0, 1.0);
/// a.push(0, 1, 1.0);
/// let solver = BarrierSolver::new(f, a.to_csc(), vec![2.0])?;
/// let sol = solver.solve(None, &BarrierOptions::default())?;
/// assert!((sol.x[0] - 1.0).abs() < 1e-5);
/// assert!((sol.x[1] - 1.0).abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BarrierSolver {
    objective: SeparableObjective,
    b: Vec<f64>,
    /// `U`: the group indicator rows over the rows of `A` (the solver's
    /// only copy of `A`).
    coupling: DiagPlusLowRank,
    num_groups: usize,
}

impl BarrierSolver {
    /// Creates a solver for `min f(x) s.t. a·x ≥ b, x ≥ 0`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Dimension`] on inconsistent sizes.
    pub fn new(objective: SeparableObjective, a: CscMatrix, b: Vec<f64>) -> Result<Self> {
        Self::new_with_kernel(objective, a, b, SchurKernel::Auto)
    }

    /// [`BarrierSolver::new`] with an explicit Newton-step Schur kernel
    /// (see [`SchurKernel`]); `new` uses [`SchurKernel::Auto`], which keeps
    /// the dense path for small programs and switches to the user-blocked
    /// nested-Schur elimination when the constraint pattern has a large
    /// block of pairwise-disjoint rows (ℙ₂'s per-user demand rows).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Dimension`] on inconsistent sizes.
    pub fn new_with_kernel(
        objective: SeparableObjective,
        a: CscMatrix,
        b: Vec<f64>,
        kernel: SchurKernel,
    ) -> Result<Self> {
        let u = coupling_matrix(&objective, &a, &b)?;
        Ok(BarrierSolver {
            num_groups: objective.groups().len(),
            objective,
            b,
            coupling: DiagPlusLowRank::with_kernel(u, kernel),
        })
    }

    /// [`BarrierSolver::new_with_kernel`] with the blocked kernel and
    /// caller-declared local rows *of `a`* (the streaming fast path): the
    /// declared rows are taken as the pairwise-disjoint local block
    /// directly, skipping the greedy structure scan over the coupling
    /// pattern. Group rows (which prefix the internal coupling matrix) are
    /// offset automatically. An invalid declaration falls back to
    /// detection — see [`DiagPlusLowRank::with_declared_locals`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Dimension`] on inconsistent sizes.
    pub fn new_with_declared_locals(
        objective: SeparableObjective,
        a: CscMatrix,
        b: Vec<f64>,
        declared: &[usize],
    ) -> Result<Self> {
        let u = coupling_matrix(&objective, &a, &b)?;
        let g = objective.groups().len();
        let shifted: Vec<usize> = declared.iter().map(|&r| g + r).collect();
        Ok(BarrierSolver {
            num_groups: g,
            objective,
            b,
            coupling: DiagPlusLowRank::with_declared_locals(u, &shifted),
        })
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.num_vars()
    }

    /// The Schur kernel the Newton steps actually use after auto-resolution
    /// ([`SchurKernel::Dense`] or [`SchurKernel::Blocked`]).
    pub fn schur_kernel(&self) -> SchurKernel {
        self.coupling.resolved_kernel()
    }

    /// Short stable name of the active Schur kernel, for health records.
    pub fn schur_kernel_name(&self) -> &'static str {
        match self.coupling.resolved_kernel() {
            SchurKernel::Blocked => "blocked",
            _ => "dense",
        }
    }

    /// Worker-thread target for the blocked kernel's per-user elimination
    /// (leased from the process-global [`crate::parallel::WorkerBudget`]
    /// per Newton step; no-op on the dense kernel). The default of 1 keeps
    /// steady-state solves allocation-free and bit-deterministic.
    pub fn set_schur_threads(&mut self, threads: usize) {
        self.coupling.set_threads(threads);
    }

    /// The configured Schur worker-thread target (1 = sequential).
    pub fn schur_threads(&self) -> usize {
        self.coupling.threads()
    }

    /// Number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.b.len()
    }

    /// The objective (for evaluating candidate points).
    pub fn objective(&self) -> &SeparableObjective {
        &self.objective
    }

    /// Mutable access to the objective, for refreshing term *values* in
    /// place between solves (cross-solve reuse: the constraint pattern and
    /// the group/Schur coupling built at construction are kept).
    ///
    /// The structure must not change: do not add variables, terms, or
    /// groups — only overwrite existing ones via
    /// [`SeparableObjective::set_term`] / [`SeparableObjective::set_group_term`].
    /// A changed group count is caught by a debug assertion at the next
    /// solve; a changed membership silently desyncs the cached coupling.
    pub fn objective_mut(&mut self) -> &mut SeparableObjective {
        &mut self.objective
    }

    /// Mutable access to the right-hand side `b`, for refreshing constraint
    /// levels in place between solves (the matrix `A` stays fixed).
    pub fn rhs_mut(&mut self) -> &mut [f64] {
        &mut self.b
    }

    /// Finds a strictly feasible point by solving the phase-I LP
    /// `min t  s.t.  A x + t·1 ≥ b + δ·1,  x + t·1 ≥ δ·1,  x, t ≥ 0`
    /// for a decreasing sequence of target margins `δ`. The LP is always
    /// feasible (take `x = 0` and `t` large); an interior point with margin
    /// `δ − t* > 0` exists whenever `t* < δ`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Infeasible`] if no interior point exists down to the
    /// smallest margin tried.
    pub fn strictly_feasible_start(&self) -> Result<Vec<f64>> {
        self.strictly_feasible_start_budgeted(&SolveBudget::unlimited())
    }

    /// [`BarrierSolver::strictly_feasible_start`] under a budget: the
    /// phase-I interior-point solves inherit the deadline, so a hanging
    /// phase I surrenders cooperatively like the main solve does.
    ///
    /// # Errors
    ///
    /// As [`BarrierSolver::strictly_feasible_start`], plus
    /// [`Error::DeadlineExceeded`] (with nothing to salvage — no interior
    /// point exists yet) when the budget runs out.
    pub fn strictly_feasible_start_budgeted(&self, budget: &SolveBudget) -> Result<Vec<f64>> {
        let n = self.num_vars();
        let m = self.num_rows();
        let scale = 1.0 + self.b.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        // Column g + r of `ut` is row r of A.
        let ut = self.coupling.matrix().transpose();
        let mut delta = 1e-3 * scale;
        for _attempt in 0..4 {
            if budget.exhausted(0) {
                return Err(Error::DeadlineExceeded {
                    iterations: 0,
                    best: None,
                });
            }
            let mut lp = LpProblem::new();
            let x0 = lp.add_vars(n, 0.0);
            let t_var = lp.add_var(1.0); // minimize t
            for r in 0..m {
                let (cols, vals) = ut.col(self.num_groups + r);
                let mut terms: Vec<(usize, f64)> =
                    cols.iter().zip(vals).map(|(&c, &v)| (x0 + c, v)).collect();
                terms.push((t_var, 1.0));
                lp.add_row(ConstraintSense::Ge, self.b[r] + delta, &terms);
            }
            for k in 0..n {
                lp.add_row(ConstraintSense::Ge, delta, &[(x0 + k, 1.0), (t_var, 1.0)]);
            }
            let sol = lp
                .solve_with(&IpmOptions {
                    tol: 1e-9,
                    budget: *budget,
                    ..IpmOptions::default()
                })
                .map_err(|e| match e {
                    // A phase-I iterate lives in the auxiliary LP's variable
                    // space — useless to barrier callers, so don't offer it.
                    Error::DeadlineExceeded { iterations, .. } => Error::DeadlineExceeded {
                        iterations,
                        best: None,
                    },
                    other => other,
                })?;
            let t_opt = sol.x[t_var];
            if t_opt < 0.5 * delta {
                // Strictly interior with margin ≥ δ/2 up to solver tolerance;
                // verify and return.
                let x: Vec<f64> = sol.x[..n].to_vec();
                let mut slacks = vec![0.0; m];
                let mut class_sum = vec![0.0; self.coupling.num_classes()];
                self.slacks_into(&x, &mut slacks, &mut class_sum);
                if x.iter().all(|&v| v > 0.0) && slacks.iter().all(|&s| s > 0.0) {
                    return Ok(x);
                }
            }
            delta *= 1e-3;
        }
        Err(Error::Infeasible)
    }

    fn barrier_value(&self, t: f64, x: &[f64], slack: &[f64]) -> f64 {
        let mut v = t * self.objective.value(x);
        for &sk in slack {
            v -= sk.ln();
        }
        for &xk in x {
            v -= xk.ln();
        }
        v
    }

    /// Constraint slacks `A x − b` written into `out`, with `A x` in
    /// class space (`class_sum` is its scratch).
    fn slacks_into(&self, x: &[f64], out: &mut [f64], class_sum: &mut [f64]) {
        self.coupling
            .mul_rows_into(self.num_groups, x, class_sum, out);
        for (sr, &br) in out.iter_mut().zip(&self.b) {
            *sr -= br;
        }
    }

    /// Solves the program, optionally from a strictly feasible start `x0`
    /// (found via [`BarrierSolver::strictly_feasible_start`] when `None`).
    ///
    /// Convenience wrapper over [`BarrierSolver::solve_with_workspace`]
    /// that allocates a fresh [`BarrierWorkspace`]; callers solving the
    /// same (or a value-refreshed) program repeatedly should hold a
    /// workspace and reuse it.
    ///
    /// # Errors
    ///
    /// * [`Error::BadStartingPoint`] if `x0` is supplied but not strictly
    ///   feasible.
    /// * [`Error::Infeasible`] if phase I finds no interior point.
    /// * [`Error::MaxIterations`] / [`Error::Numerical`] on breakdown.
    pub fn solve(&self, x0: Option<&[f64]>, opts: &BarrierOptions) -> Result<BarrierSolution> {
        let mut ws = BarrierWorkspace::for_solver(self);
        self.solve_with_workspace(x0, opts, &mut ws)
    }

    /// [`BarrierSolver::solve`] against a caller-held [`BarrierWorkspace`].
    ///
    /// Every Newton-step intermediate — slacks, gradients, the Newton
    /// diagonal, the Schur-complement scratch, line-search candidates —
    /// lives in `ws`, so the inner loop performs **no heap allocation**
    /// (verified by `tests/alloc_free.rs`). The workspace carries across
    /// solves: per-horizon callers build it once and reuse it every slot.
    ///
    /// # Errors
    ///
    /// As [`BarrierSolver::solve`].
    pub fn solve_with_workspace(
        &self,
        x0: Option<&[f64]>,
        opts: &BarrierOptions,
        ws: &mut BarrierWorkspace,
    ) -> Result<BarrierSolution> {
        let n = self.num_vars();
        let m = self.num_rows();
        debug_assert_eq!(
            self.objective.groups().len(),
            self.num_groups,
            "objective structure changed under a live solver (see objective_mut)"
        );
        ws.resize_for(self);
        match x0 {
            Some(start) => {
                if start.len() != n {
                    return Err(Error::Dimension("starting point length".into()));
                }
                if start.iter().any(|&v| v <= 0.0) {
                    return Err(Error::BadStartingPoint("some x_k ≤ 0".into()));
                }
                ws.x.copy_from_slice(start);
            }
            None => {
                let start = self.strictly_feasible_start_budgeted(&opts.budget)?;
                ws.x.copy_from_slice(&start);
            }
        }
        // From here on `ws.slack` holds the slacks of `ws.x`: an accepted
        // line-search trial swaps in the slacks it already computed.
        self.slacks_into(&ws.x, &mut ws.slack, &mut ws.class_sum);
        if ws.slack.iter().any(|&v| v <= 0.0) {
            return Err(Error::BadStartingPoint("some constraint slack ≤ 0".into()));
        }

        let mut t = opts.t0;
        let mut stats = BarrierStats {
            outer_iterations: 0,
            newton_steps: 0,
            gap: f64::INFINITY,
        };
        let total_constraints = (m + n) as f64;
        let trace = std::env::var_os("OPTIM_TRACE").is_some();
        // The budget check is hoisted out of the hot loop condition: an
        // unlimited budget (the default) performs no clock reads at all.
        let budgeted = !opts.budget.is_unlimited();

        for outer in 0..opts.max_outer {
            stats.outer_iterations = outer + 1;
            let steps_before = stats.newton_steps;
            let mut trials = 0usize;
            // The barrier value of `ws.x` at this `t`, once a step has
            // computed it (an accepted trial's ψ is the next step's ψ₀).
            let mut psi_current: Option<f64> = None;
            let mut centered = false;
            // ---- center at parameter t ----
            for _ in 0..opts.max_newton {
                if budgeted && opts.budget.exhausted(stats.newton_steps) {
                    // The current iterate is the last *accepted* point, so
                    // it is strictly feasible; hand it back for salvage
                    // with the gap bound of the current barrier parameter
                    // (approximate — this point may not be fully centered).
                    stats.gap = total_constraints / t;
                    return Err(Error::DeadlineExceeded {
                        iterations: stats.newton_steps,
                        best: Some(Box::new(Salvage {
                            x: ws.x.clone(),
                            objective: self.objective.value(&ws.x),
                            residual: stats.gap,
                        })),
                    });
                }
                self.objective.gradient_into(&ws.x, &mut ws.grad_f);
                self.objective.hessian_diag_into(&ws.x, &mut ws.diag_f);
                self.objective.group_curvatures_into(&ws.x, &mut ws.group_h);

                // Gradient of the barrier (assembled directly in negated
                // form: the Newton system is H dx = −∇ψ).
                for (ir, &sr) in ws.inv_slack.iter_mut().zip(&ws.slack) {
                    *ir = 1.0 / sr;
                }
                self.coupling.mul_transpose_rows_into(
                    self.num_groups,
                    &ws.inv_slack,
                    &mut ws.class_sum,
                    &mut ws.at_inv_slack,
                );
                for k in 0..n {
                    ws.g[k] = -(t * ws.grad_f[k] - ws.at_inv_slack[k] - 1.0 / ws.x[k]);
                    // Newton matrix diagonal.
                    ws.d[k] = (t * ws.diag_f[k] + 1.0 / (ws.x[k] * ws.x[k])).max(1e-14);
                }
                for (gi, &h) in ws.group_h.iter().enumerate() {
                    ws.e[gi] = t * h;
                }
                for (r, &s) in ws.slack.iter().enumerate() {
                    ws.e[self.num_groups + r] = 1.0 / (s * s);
                }
                self.coupling
                    .solve_into(&ws.d, &ws.e, &ws.g, &mut ws.schur, &mut ws.dx)?;
                // Newton decrement λ² = dxᵀ H dx = −∇ψᵀ dx = gᵀ dx (g already negated).
                let lambda2: f64 =
                    ws.g.iter()
                        .zip(&ws.dx)
                        .map(|(a, b)| a * b)
                        .sum::<f64>()
                        .max(0.0);
                stats.newton_steps += 1;
                if 0.5 * lambda2 < opts.inner_tol {
                    centered = true;
                    break;
                }

                // Ratio test for strict feasibility.
                let mut alpha_max = 1.0f64;
                for k in 0..n {
                    if ws.dx[k] < 0.0 {
                        alpha_max = alpha_max.min(-ws.x[k] / ws.dx[k]);
                    }
                }
                self.coupling
                    .mul_rows_into(self.num_groups, &ws.dx, &mut ws.class_sum, &mut ws.ds);
                for r in 0..m {
                    if ws.ds[r] < 0.0 {
                        alpha_max = alpha_max.min(-ws.slack[r] / ws.ds[r]);
                    }
                }
                let mut alpha = (0.99 * alpha_max).min(1.0);
                // Backtracking (Armijo on the barrier function).
                let psi0 = psi_current.unwrap_or_else(|| self.barrier_value(t, &ws.x, &ws.slack));
                let slope = -lambda2; // ∇ψᵀ dx
                let mut accepted = false;
                let mut psi_accepted = psi0;
                for _ in 0..60 {
                    trials += 1;
                    for k in 0..n {
                        ws.xn[k] = ws.x[k] + alpha * ws.dx[k];
                    }
                    self.slacks_into(&ws.xn, &mut ws.sn, &mut ws.class_sum);
                    if ws.xn.iter().all(|&v| v > 0.0) && ws.sn.iter().all(|&v| v > 0.0) {
                        let psi = self.barrier_value(t, &ws.xn, &ws.sn);
                        if psi <= psi0 + 0.01 * alpha * slope {
                            std::mem::swap(&mut ws.x, &mut ws.xn);
                            std::mem::swap(&mut ws.slack, &mut ws.sn);
                            psi_current = Some(psi);
                            accepted = true;
                            psi_accepted = psi;
                            break;
                        }
                    }
                    alpha *= 0.5;
                }
                if !accepted {
                    // Numerically stuck: the current point is as centered as
                    // floating point allows at this t.
                    centered = true;
                    break;
                }
                // At large t the barrier value sits at ~t·f ≫ 1, and the
                // Armijo threshold `0.01·α·slope` eventually falls below one
                // ulp of ψ — steps then "succeed" with no representable
                // descent and the centering spins until `max_newton`. Treat
                // a sub-ulp decrease as converged-at-this-precision.
                if psi0 - psi_accepted <= 1e-13 * (1.0 + psi0.abs()) {
                    centered = true;
                    break;
                }
            }

            stats.gap = total_constraints / t;
            if trace {
                eprintln!(
                    "outer {outer}: t={t:.3e} steps={} trials={trials}",
                    stats.newton_steps - steps_before
                );
            }
            // `(m+n)/t` bounds the gap only at a centered point.
            if !centered {
                return Err(Error::MaxIterations {
                    iterations: opts.max_newton,
                    residual: stats.gap,
                });
            }
            let fval = self.objective.value(&ws.x);
            if stats.gap <= opts.tol * (1.0 + fval.abs()) {
                return Ok(BarrierSolution {
                    objective: fval,
                    row_duals: ws.slack.iter().map(|&s| 1.0 / (t * s)).collect(),
                    bound_duals: ws.x.iter().map(|&v| 1.0 / (t * v)).collect(),
                    x: ws.x.clone(),
                    stats,
                });
            }
            t *= opts.mu;
        }
        Err(Error::MaxIterations {
            iterations: opts.max_outer,
            residual: stats.gap,
        })
    }
}

/// The coupling matrix `U`: the objective's group indicator rows stacked
/// over the rows of `a`, after checking `a` against the objective and `b`.
fn coupling_matrix(objective: &SeparableObjective, a: &CscMatrix, b: &[f64]) -> Result<CscMatrix> {
    let n = objective.num_vars();
    if a.ncols() != n {
        return Err(Error::Dimension(format!(
            "constraint matrix has {} columns, objective has {} variables",
            a.ncols(),
            n
        )));
    }
    if a.nrows() != b.len() {
        return Err(Error::Dimension(format!(
            "constraint matrix has {} rows, rhs has {}",
            a.nrows(),
            b.len()
        )));
    }
    let g = objective.groups().len();
    let mut t = Triplets::with_capacity(g + a.nrows(), n, a.nnz() + g * 4);
    for (gi, group) in objective.groups().iter().enumerate() {
        for &k in &group.members {
            t.push(gi, k, 1.0);
        }
    }
    for c in 0..n {
        let (rows, vals) = a.col(c);
        for (p, &r) in rows.iter().enumerate() {
            t.push(g + r, c, vals[p]);
        }
    }
    Ok(t.to_csc())
}

/// Preallocated buffers for [`BarrierSolver::solve_with_workspace`]: every
/// per-Newton-step vector (slacks, gradient, Newton diagonal, step, line
/// search candidates) plus the [`DiagPlusLowRankWorkspace`] for the Schur
/// solve. Reusable across Newton steps, across solves, and across
/// value-refreshed re-solves of the same program — the persistent-workspace
/// online path holds exactly one of these per horizon.
#[derive(Debug, Clone, Default)]
pub struct BarrierWorkspace {
    x: Vec<f64>,
    slack: Vec<f64>,
    inv_slack: Vec<f64>,
    at_inv_slack: Vec<f64>,
    grad_f: Vec<f64>,
    diag_f: Vec<f64>,
    group_h: Vec<f64>,
    g: Vec<f64>,
    d: Vec<f64>,
    e: Vec<f64>,
    dx: Vec<f64>,
    ds: Vec<f64>,
    xn: Vec<f64>,
    sn: Vec<f64>,
    /// Per-class scratch for the class-space products with `A`.
    class_sum: Vec<f64>,
    schur: DiagPlusLowRankWorkspace,
}

impl BarrierWorkspace {
    /// A workspace fully pre-sized for `solver`, so even the first solve
    /// performs no buffer growth.
    pub fn for_solver(solver: &BarrierSolver) -> Self {
        let mut ws = BarrierWorkspace {
            schur: DiagPlusLowRankWorkspace::for_solver(&solver.coupling),
            ..BarrierWorkspace::default()
        };
        ws.resize_for(solver);
        ws
    }

    /// Resizes every buffer for `solver`. A no-op when dimensions already
    /// match (the steady state); after a structural rebuild it regrows only
    /// what changed, keeping spare capacity.
    pub fn resize_for(&mut self, solver: &BarrierSolver) {
        let n = solver.num_vars();
        let m = solver.num_rows();
        for buf in [
            &mut self.x,
            &mut self.grad_f,
            &mut self.diag_f,
            &mut self.g,
            &mut self.d,
            &mut self.dx,
            &mut self.xn,
        ] {
            buf.resize(n, 0.0);
        }
        for buf in [
            &mut self.slack,
            &mut self.inv_slack,
            &mut self.ds,
            &mut self.sn,
        ] {
            buf.resize(m, 0.0);
        }
        self.at_inv_slack.resize(n, 0.0);
        self.class_sum.resize(solver.coupling.num_classes(), 0.0);
        self.group_h.resize(solver.num_groups, 0.0);
        self.e.resize(solver.num_groups + m, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convex::ScalarTerm;

    fn simple_row(coefs: &[f64]) -> CscMatrix {
        let mut t = Triplets::new(1, coefs.len());
        for (k, &v) in coefs.iter().enumerate() {
            t.push(0, k, v);
        }
        t.to_csc()
    }

    #[test]
    fn quadratic_with_linear_constraint() {
        // min x² + y² s.t. x + y ≥ 2 → (1,1).
        let mut f = SeparableObjective::new(2);
        f.add_term(0, ScalarTerm::Quadratic { q: 2.0 });
        f.add_term(1, ScalarTerm::Quadratic { q: 2.0 });
        let solver = BarrierSolver::new(f, simple_row(&[1.0, 1.0]), vec![2.0]).unwrap();
        let sol = solver.solve(None, &BarrierOptions::default()).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-5);
        assert!((sol.x[1] - 1.0).abs() < 1e-5);
        assert!((sol.objective - 2.0).abs() < 1e-5);
    }

    #[test]
    fn asymmetric_quadratic() {
        // min 2x² + y² s.t. x + y ≥ 3 → x = 1, y = 2 (gradients 4x = 2y).
        let mut f = SeparableObjective::new(2);
        f.add_term(0, ScalarTerm::Quadratic { q: 4.0 });
        f.add_term(1, ScalarTerm::Quadratic { q: 2.0 });
        let solver = BarrierSolver::new(f, simple_row(&[1.0, 1.0]), vec![3.0]).unwrap();
        let sol = solver.solve(None, &BarrierOptions::default()).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-4, "x = {:?}", sol.x);
        assert!((sol.x[1] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn exhausted_centering_is_not_certified() {
        // One Newton step cannot center min 2x² + y² s.t. x + y ≥ 3 from
        // (5, 5); the (m+n)/t gap of the uncentered point proves nothing.
        let mut f = SeparableObjective::new(2);
        f.add_term(0, ScalarTerm::Quadratic { q: 4.0 });
        f.add_term(1, ScalarTerm::Quadratic { q: 2.0 });
        let solver = BarrierSolver::new(f, simple_row(&[1.0, 1.0]), vec![3.0]).unwrap();
        let opts = BarrierOptions {
            max_newton: 1,
            ..BarrierOptions::default()
        };
        let result = solver.solve(Some(&[5.0, 5.0]), &opts);
        assert!(
            matches!(result, Err(Error::MaxIterations { .. })),
            "{result:?}"
        );
    }

    #[test]
    fn expired_budget_runs_no_newton_step() {
        use std::time::{Duration, Instant};
        let mut f = SeparableObjective::new(2);
        f.add_term(0, ScalarTerm::Quadratic { q: 2.0 });
        f.add_term(1, ScalarTerm::Quadratic { q: 2.0 });
        let solver = BarrierSolver::new(f, simple_row(&[1.0, 1.0]), vec![2.0]).unwrap();
        let opts = BarrierOptions {
            budget: SolveBudget::until(Instant::now() - Duration::from_millis(1)),
            ..BarrierOptions::default()
        };
        // Without a start, phase I refuses before any interior point exists.
        assert!(matches!(
            solver.solve(None, &opts),
            Err(Error::DeadlineExceeded {
                iterations: 0,
                best: None
            })
        ));
        // With one, the start itself comes back untouched.
        match solver.solve(Some(&[1.5, 1.5]), &opts) {
            Err(Error::DeadlineExceeded {
                iterations: 0,
                best: Some(s),
            }) => assert_eq!(s.x, vec![1.5, 1.5]),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn budget_stopped_solve_salvages_an_interior_point() {
        let mut f = SeparableObjective::new(2);
        f.add_term(0, ScalarTerm::Quadratic { q: 2.0 });
        f.add_term(1, ScalarTerm::Quadratic { q: 2.0 });
        let solver = BarrierSolver::new(f, simple_row(&[1.0, 1.0]), vec![2.0]).unwrap();
        let opts = BarrierOptions {
            budget: SolveBudget::from_millis(60_000.0).with_max_iters(1),
            ..BarrierOptions::default()
        };
        match solver.solve(Some(&[1.5, 1.5]), &opts) {
            Err(Error::DeadlineExceeded {
                iterations: 1,
                best: Some(s),
            }) => {
                assert_eq!(s.x.len(), 2);
                assert!(s.x[0] + s.x[1] > 2.0, "salvage not interior: {:?}", s.x);
                assert!(
                    s.x.iter().all(|&v| v > 0.0),
                    "salvage not interior: {:?}",
                    s.x
                );
            }
            other => panic!("expected DeadlineExceeded after one step, got {other:?}"),
        }
    }

    #[test]
    fn linear_objective_hits_vertex() {
        // min x + 2y s.t. x + y ≥ 1 → (1, 0): acts like an LP.
        let mut f = SeparableObjective::new(2);
        f.add_term(0, ScalarTerm::Linear { coef: 1.0 });
        f.add_term(1, ScalarTerm::Linear { coef: 2.0 });
        let solver = BarrierSolver::new(f, simple_row(&[1.0, 1.0]), vec![1.0]).unwrap();
        let sol = solver.solve(None, &BarrierOptions::default()).unwrap();
        assert!((sol.objective - 1.0).abs() < 1e-5, "obj {}", sol.objective);
        assert!(sol.x[1] < 1e-4);
    }

    #[test]
    fn group_term_is_honored() {
        // min (x+y−2)² rewritten via a group quadratic plus linear parts:
        // φ(s) = s² − 4s (+const) over s = x+y, s.t. x ≥ 0, y ≥ 0 (no rows).
        // Minimum at s = 2.
        let mut f = SeparableObjective::new(2);
        f.add_group(vec![0, 1], ScalarTerm::Quadratic { q: 2.0 });
        f.add_term(0, ScalarTerm::Linear { coef: -4.0 });
        f.add_term(1, ScalarTerm::Linear { coef: -4.0 });
        let a = Triplets::new(0, 2).to_csc();
        let solver = BarrierSolver::new(f, a, vec![]).unwrap();
        let sol = solver
            .solve(Some(&[0.5, 0.5]), &BarrierOptions::default())
            .unwrap();
        let s = sol.x[0] + sol.x[1];
        assert!((s - 2.0).abs() < 1e-4, "sum = {s}");
    }

    #[test]
    fn entropy_pull_toward_reference() {
        // min a·x + w·((x+ε)ln((x+ε)/(xref+ε)) − x) s.t. x ≥ 1 (single var).
        // With a = 0 and minimization over x ≥ 1, the entropy term pulls x
        // toward xref = 3; unconstrained minimum of the term alone:
        // derivative w·ln((x+ε)/(xref+ε)) = 0 → x = xref.
        let mut f = SeparableObjective::new(1);
        f.add_term(
            0,
            ScalarTerm::RelativeEntropy {
                weight: 2.0,
                eps: 0.1,
                xref: 3.0,
            },
        );
        let solver = BarrierSolver::new(f, simple_row(&[1.0]), vec![1.0]).unwrap();
        let sol = solver.solve(None, &BarrierOptions::default()).unwrap();
        assert!((sol.x[0] - 3.0).abs() < 1e-4, "x = {}", sol.x[0]);
    }

    #[test]
    fn infeasible_program_detected() {
        // x ≥ 0 with row −x ≥ 1 → infeasible.
        let f = SeparableObjective::new(1);
        let solver = BarrierSolver::new(f, simple_row(&[-1.0]), vec![1.0]).unwrap();
        assert!(matches!(
            solver.solve(None, &BarrierOptions::default()),
            Err(Error::Infeasible)
        ));
    }

    #[test]
    fn bad_starting_point_rejected() {
        let f = SeparableObjective::new(1);
        let solver = BarrierSolver::new(f, simple_row(&[1.0]), vec![1.0]).unwrap();
        assert!(matches!(
            solver.solve(Some(&[0.5]), &BarrierOptions::default()),
            Err(Error::BadStartingPoint(_))
        ));
    }

    #[test]
    fn row_duals_satisfy_stationarity() {
        // min x² s.t. x ≥ 1: optimum x = 1, dual λ of (x ≥ 1) is 2
        // (∇f = 2x = λ·1 + z, z → 0).
        let mut f = SeparableObjective::new(1);
        f.add_term(0, ScalarTerm::Quadratic { q: 2.0 });
        let solver = BarrierSolver::new(f, simple_row(&[1.0]), vec![1.0]).unwrap();
        let sol = solver.solve(None, &BarrierOptions::default()).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-5);
        assert!(
            (sol.row_duals[0] - 2.0).abs() < 1e-3,
            "dual = {}",
            sol.row_duals[0]
        );
    }
}
