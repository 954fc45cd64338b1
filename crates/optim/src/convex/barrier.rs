//! Primal-dual interior-point solver for separable convex programs.

use crate::budget::SolveBudget;
use crate::convex::{DiagPlusLowRank, DiagPlusLowRankWorkspace, SeparableObjective};
use crate::lp::{ConstraintSense, IpmOptions, LpProblem};
use crate::sparse::CscMatrix;
use crate::{Error, Result, Salvage};

/// Options for the interior-point solver.
#[derive(Debug, Clone)]
pub struct BarrierOptions {
    /// Relative tolerance: the solve returns a point near the central
    /// point of the first barrier parameter `μ₀/20^k` (`μ₀ = 1`) whose gap
    /// `(m+n)·μ` is at most `tol · (1 + |f(x)|)`, once
    /// `sᵀy + xᵀz + ½·r_dᵀM⁻¹r_d ≤ tol · (1 + |f(x)|)` certifies it.
    pub tol: f64,
    /// Iteration limit, one Newton-matrix factorization each. A solve
    /// that uses all of them fails with [`Error::MaxIterations`]: the stop
    /// rule is the only certificate, so an unconverged point is never
    /// returned as a solution.
    pub max_iterations: usize,
    /// Cooperative wall-clock/iteration budget, checked at the top of each
    /// iteration (unlimited by default — the happy path then reads no
    /// clock). On exhaustion the solve returns
    /// [`Error::DeadlineExceeded`] carrying the current (strictly
    /// feasible) iterate as a salvage point.
    pub budget: SolveBudget,
}

impl Default for BarrierOptions {
    fn default() -> Self {
        BarrierOptions {
            tol: 1e-8,
            max_iterations: 100,
            budget: SolveBudget::unlimited(),
        }
    }
}

/// Statistics of a finished solve.
#[derive(Debug, Clone, Copy)]
pub struct BarrierStats {
    /// Primal-dual iterations, one Newton-matrix factorization each.
    pub iterations: usize,
    /// Final complementarity `sᵀy + xᵀz`.
    pub complementarity: f64,
    /// Final dual decrement `½·r_dᵀM⁻¹r_d` (infinite when the solve ended
    /// before computing it).
    pub decrement: f64,
}

impl BarrierStats {
    /// The certified gap `sᵀy + xᵀz + ½·r_dᵀM⁻¹r_d`: the quantity the stop
    /// rule holds to `tol · (1 + |f|)`.
    pub fn gap(&self) -> f64 {
        self.complementarity + self.decrement
    }
}

/// Solution of a separable convex program.
#[derive(Debug, Clone)]
pub struct BarrierSolution {
    /// Primal solution.
    pub x: Vec<f64>,
    /// Objective value `f(x)`.
    pub objective: f64,
    /// The final iterate's multipliers `y > 0` of the rows `A x ≥ b`.
    pub row_duals: Vec<f64>,
    /// The final iterate's multipliers `z > 0` of the bounds `x ≥ 0`.
    pub bound_duals: Vec<f64>,
    /// Statistics.
    pub stats: BarrierStats,
}

/// A separable convex program `min f(x) s.t. A x ≥ b, x ≥ 0` solved by a
/// feasible-primal Mehrotra predictor–corrector.
///
/// Every iteration factors one Newton matrix `M = D + Uᵀ E U` (see
/// [`DiagPlusLowRank`]) and back-solves it for the stop test, the
/// predictor and the corrector, so the per-iteration cost is linear in the
/// number of variables. The iterates stay strictly feasible:
/// `x > 0` and `A x − b > 0`.
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
        let u = coupling_matrix(&objective, &a, &b)?;
        Ok(BarrierSolver {
            num_groups: objective.groups().len(),
            objective,
            b,
            coupling: DiagPlusLowRank::new(u),
        })
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.num_vars()
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
    /// Every per-iteration intermediate — slacks, duals, gradients, the
    /// Newton diagonal, the predictor and corrector directions, the Schur
    /// factorization — lives in `ws`, so the iteration performs **no heap
    /// allocation** (verified by `tests/alloc_free.rs`). The workspace
    /// carries across solves: per-horizon callers build it once and reuse
    /// it every slot.
    ///
    /// # The iteration
    ///
    /// From the strictly feasible start, with `s = A x − b`, `y = μ₀/s`
    /// and `z = μ₀/x` (`μ₀ = 1`, the duals a log barrier at `t = 1` would
    /// use), each iteration:
    ///
    /// 1. factors `M = D + Uᵀ E U` with `D = diag ∇²f + z/x` and
    ///    `E = [group curvatures; y/s]`;
    /// 2. stops when `sᵀy + xᵀz` is within a tenth of `(m+n)·μ_final`
    ///    (below) and `sᵀy + xᵀz + ½·r_dᵀM⁻¹r_d ≤ tol·(1 + |f|)`, where
    ///    `r_d = ∇f − Aᵀy − z` (the decrement costs one back-solve, made
    ///    only once the complementarity passes);
    /// 3. back-solves the predictor `M dx = −∇f` and sets
    ///    `σ = (μ_aff/μ)³` from its longest feasible step;
    /// 4. back-solves the corrector
    ///    `M dx = −∇f + Aᵀ((σμ − Δs∘Δy)/s) + (σμ − Δx∘Δz)/x` with the
    ///    predictor's `Δ` products, dropping them when they shorten the
    ///    step below the predictor's, and with `σμ` raised to `μ_final`
    ///    when it would fall below;
    /// 5. takes one step `α = min(1, 0.99·ratio)` in `x`, `y` and `z`,
    ///    recomputes `s = A x − b`, and halves `α` while round-off leaves
    ///    an entry of `x` or `s` non-positive.
    ///
    /// `μ_final = μ₀/20^k` for the least `k` with
    /// `(m+n)·μ_final ≤ tol·(1 + |f|)`, with `f` at the current iterate:
    /// the solve ends near the central point a log barrier started at
    /// `t = 1/μ₀` and grown 20× per centering would return, so solves of
    /// one program along different paths (per-user and cohort) end at the
    /// same point, not wherever each path first passed the tolerance. Only
    /// the objective near the end sets that point: an objective that
    /// crosses zero on the way does not tighten the finish.
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
        self.solve_from(x0, MU0, opts, ws)
    }

    /// [`BarrierSolver::solve_with_workspace`] with the duals started at
    /// complementarity `mu0` instead of [`MU0`].
    fn solve_from(
        &self,
        x0: Option<&[f64]>,
        mu0: f64,
        opts: &BarrierOptions,
        ws: &mut BarrierWorkspace,
    ) -> Result<BarrierSolution> {
        let n = self.num_vars();
        let m = self.num_rows();
        let g = self.num_groups;
        debug_assert_eq!(
            self.objective.groups().len(),
            g,
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
        // From here on `ws.slack` holds the slacks of `ws.x`, recomputed
        // from `x` after every step.
        self.slacks_into(&ws.x, &mut ws.slack, &mut ws.class_sum);
        if ws.slack.iter().any(|&v| v <= 0.0) {
            return Err(Error::BadStartingPoint("some constraint slack ≤ 0".into()));
        }
        for (y, &s) in ws.y.iter_mut().zip(&ws.slack) {
            *y = mu0 / s;
        }
        for (z, &x) in ws.z.iter_mut().zip(&ws.x) {
            *z = mu0 / x;
        }

        let total_constraints = (m + n) as f64;
        let mut stats = BarrierStats {
            iterations: 0,
            complementarity: f64::INFINITY,
            decrement: f64::INFINITY,
        };
        // The budget check is hoisted out of the hot loop condition: an
        // unlimited budget (the default) performs no clock reads at all.
        let budgeted = !opts.budget.is_unlimited();

        for _ in 0..opts.max_iterations {
            let comp = dot(&ws.slack, &ws.y) + dot(&ws.x, &ws.z);
            stats.complementarity = comp;
            if budgeted && opts.budget.exhausted(stats.iterations) {
                // The current iterate is strictly feasible; hand it back
                // for salvage with its complementarity (uncertified).
                return Err(Error::DeadlineExceeded {
                    iterations: stats.iterations,
                    best: Some(Box::new(Salvage {
                        x: ws.x.clone(),
                        objective: self.objective.value(&ws.x),
                        residual: comp,
                    })),
                });
            }
            let fval =
                self.objective
                    .evaluate_into(&ws.x, &mut ws.grad_f, &mut ws.d, &mut ws.e[..g]);
            for k in 0..n {
                ws.d[k] = (ws.d[k] + ws.z[k] / ws.x[k]).max(1e-14);
            }
            for r in 0..m {
                ws.e[g + r] = ws.y[r] / ws.slack[r];
            }
            self.coupling.factor(&ws.d, &ws.e, &mut ws.schur)?;
            stats.iterations += 1;

            let target = opts.tol * (1.0 + fval.abs());
            let mu_final = grid_point(mu0, total_constraints, target);

            // Stop test: at the final grid point and certified. The
            // decrement costs a back-solve, so it is computed only once the
            // complementarity is within a tenth of the grid point's.
            stats.decrement = f64::INFINITY;
            let grid_comp = total_constraints * mu_final;
            if comp <= target && (comp - grid_comp).abs() <= 0.1 * grid_comp {
                self.coupling
                    .mul_transpose_rows_into(g, &ws.y, &mut ws.class_sum, &mut ws.rhs);
                for k in 0..n {
                    ws.rhs[k] = ws.grad_f[k] - ws.rhs[k] - ws.z[k];
                }
                stats.decrement = 0.5
                    * self
                        .coupling
                        .inverse_form(&ws.d, &ws.e, &ws.rhs, &mut ws.schur, &mut ws.dx);
                if comp + stats.decrement <= target {
                    return Ok(BarrierSolution {
                        objective: fval,
                        row_duals: ws.y.clone(),
                        bound_duals: ws.z.clone(),
                        x: ws.x.clone(),
                        stats,
                    });
                }
            }

            // Predictor (affine scaling): M dx = −∇f, kept in the `_aff`
            // buffers for the corrector's second-order term.
            let alpha_aff = self.direction(ws, 0.0, false).min(1.0);
            std::mem::swap(&mut ws.dx, &mut ws.dx_aff);
            std::mem::swap(&mut ws.ds, &mut ws.ds_aff);
            std::mem::swap(&mut ws.dy, &mut ws.dy_aff);
            std::mem::swap(&mut ws.dz, &mut ws.dz_aff);
            let mu = comp / total_constraints;
            let comp_aff = shifted_dot(&ws.slack, &ws.ds_aff, &ws.y, &ws.dy_aff, alpha_aff)
                + shifted_dot(&ws.x, &ws.dx_aff, &ws.z, &ws.dz_aff, alpha_aff);
            let sigma = (comp_aff / comp).max(0.0).powi(3);

            // Corrector toward σμ, never aiming past `μ_final`. The
            // second-order term is dropped when it shortens the step below
            // the predictor's.
            let sigma_mu = (sigma * mu).max(mu_final);
            let mut ratio = self.direction(ws, sigma_mu, true);
            if ratio < alpha_aff {
                ratio = self.direction(ws, sigma_mu, false);
            }

            // One step length for x, y and z; s follows from x.
            let mut alpha = (0.99 * ratio).min(1.0);
            let mut feasible = false;
            for _ in 0..60 {
                for k in 0..n {
                    ws.xn[k] = ws.x[k] + alpha * ws.dx[k];
                }
                self.slacks_into(&ws.xn, &mut ws.sn, &mut ws.class_sum);
                if ws.xn.iter().all(|&v| v > 0.0) && ws.sn.iter().all(|&v| v > 0.0) {
                    feasible = true;
                    break;
                }
                alpha *= 0.5;
            }
            if !feasible {
                return Err(Error::Numerical(
                    "no strictly feasible step along the Newton direction".into(),
                ));
            }
            std::mem::swap(&mut ws.x, &mut ws.xn);
            std::mem::swap(&mut ws.slack, &mut ws.sn);
            for (y, &dy) in ws.y.iter_mut().zip(&ws.dy) {
                *y += alpha * dy;
            }
            for (z, &dz) in ws.z.iter_mut().zip(&ws.dz) {
                *z += alpha * dz;
            }
        }
        Err(Error::MaxIterations {
            iterations: opts.max_iterations,
            residual: dot(&ws.slack, &ws.y) + dot(&ws.x, &ws.z),
        })
    }
}

impl BarrierSolver {
    /// The Newton direction toward complementarity `σμ` into
    /// `ws.{dx, ds, dy, dz}`:
    /// `M dx = −∇f + Aᵀ((σμ − Δs∘Δy)/s) + (σμ − Δx∘Δz)/x`, with the
    /// predictor's `Δ` products (`ws.*_aff`) when `second_order` holds and
    /// without them otherwise — so `σμ = 0` without them is the predictor.
    /// Returns the longest step that keeps `x`, `s`, `y` and `z`
    /// nonnegative.
    fn direction(&self, ws: &mut BarrierWorkspace, sigma_mu: f64, second_order: bool) -> f64 {
        let (n, m, g) = (self.num_vars(), self.num_rows(), self.num_groups);
        // `dy` and `dz` hold (σμ − Δs∘Δy)/s and (σμ − Δx∘Δz)/x until the
        // step is known.
        for r in 0..m {
            let shift = if second_order {
                ws.ds_aff[r] * ws.dy_aff[r]
            } else {
                0.0
            };
            ws.dy[r] = (sigma_mu - shift) / ws.slack[r];
        }
        self.coupling
            .mul_transpose_rows_into(g, &ws.dy, &mut ws.class_sum, &mut ws.rhs);
        for k in 0..n {
            let shift = if second_order {
                ws.dx_aff[k] * ws.dz_aff[k]
            } else {
                0.0
            };
            ws.dz[k] = (sigma_mu - shift) / ws.x[k];
            ws.rhs[k] += ws.dz[k] - ws.grad_f[k];
        }
        self.coupling
            .back_solve(&ws.d, &ws.rhs, &mut ws.schur, &mut ws.dx);
        self.coupling
            .mul_rows_into(g, &ws.dx, &mut ws.class_sum, &mut ws.ds);
        for r in 0..m {
            ws.dy[r] -= ws.y[r] + ws.y[r] / ws.slack[r] * ws.ds[r];
        }
        for k in 0..n {
            ws.dz[k] -= ws.z[k] + ws.z[k] / ws.x[k] * ws.dx[k];
        }
        step_to_boundary(&ws.x, &ws.dx)
            .min(step_to_boundary(&ws.slack, &ws.ds))
            .min(step_to_boundary(&ws.y, &ws.dy))
            .min(step_to_boundary(&ws.z, &ws.dz))
    }
}

/// Starting complementarity `μ₀` of every solve: the duals start at
/// `y = μ₀/s` and `z = μ₀/x`.
const MU0: f64 = 1.0;

/// Growth of the barrier parameter `t = 1/μ` between the points the solve
/// may return.
const GRID: f64 = 20.0;

/// The barrier parameter `μ` a solve started at `mu0` ends at: the first
/// of `μ₀, μ₀/20, μ₀/400, …` whose gap `total·μ` meets `target`.
fn grid_point(mu0: f64, total: f64, target: f64) -> f64 {
    let mut t = 1.0 / mu0;
    while total / t > target && t < f64::MAX / GRID {
        t *= GRID;
    }
    1.0 / t
}

/// `aᵀb`.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `(u + α du)ᵀ(v + α dv)`.
fn shifted_dot(u: &[f64], du: &[f64], v: &[f64], dv: &[f64], alpha: f64) -> f64 {
    u.iter()
        .zip(du)
        .zip(v.iter().zip(dv))
        .map(|((&u, &du), (&v, &dv))| (u + alpha * du) * (v + alpha * dv))
        .sum()
}

/// The largest `α` with `v + α dv ≥ 0` (infinite when no entry decreases).
fn step_to_boundary(v: &[f64], dv: &[f64]) -> f64 {
    v.iter()
        .zip(dv)
        .filter(|&(_, &d)| d < 0.0)
        .map(|(&v, &d)| -v / d)
        .fold(f64::INFINITY, f64::min)
}

/// The coupling matrix `U`: the objective's group indicator rows stacked
/// over the rows of `a`, after checking `a` against the objective and `b`.
///
/// Written column by column: each column's group rows (ascending; a member
/// listed `r` times in one group gives that row the entry `r`), then its
/// nonzero entries of `a` shifted down by the group count. That is the
/// matrix the coordinate-form assembly gives, without its per-column sort.
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
    let groups = objective.groups();
    let g = groups.len();
    // Each column's group memberships, ascending by group: a counting sort.
    let mut member_ptr = vec![0usize; n + 1];
    for group in groups {
        for &k in &group.members {
            member_ptr[k + 1] += 1;
        }
    }
    for k in 0..n {
        member_ptr[k + 1] += member_ptr[k];
    }
    let mut member_group = vec![0usize; member_ptr[n]];
    let mut cursor = member_ptr.clone();
    for (gi, group) in groups.iter().enumerate() {
        for &k in &group.members {
            member_group[cursor[k]] = gi;
            cursor[k] += 1;
        }
    }
    let nnz = member_ptr[n] + a.nnz();
    let (mut rowind, mut values) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
    let mut colptr = Vec::with_capacity(n + 1);
    colptr.push(0);
    for c in 0..n {
        let mut memberships = &member_group[member_ptr[c]..member_ptr[c + 1]];
        while let Some(&gi) = memberships.first() {
            let repeats = memberships.iter().take_while(|&&h| h == gi).count();
            rowind.push(gi);
            values.push(repeats as f64);
            memberships = &memberships[repeats..];
        }
        let (rows, vals) = a.col(c);
        for (&r, &v) in rows.iter().zip(vals) {
            if v != 0.0 {
                rowind.push(g + r);
                values.push(v);
            }
        }
        colptr.push(rowind.len());
    }
    Ok(CscMatrix::from_raw_parts(
        g + a.nrows(),
        n,
        colptr,
        rowind,
        values,
    ))
}

/// Preallocated buffers for [`BarrierSolver::solve_with_workspace`]: every
/// per-iteration vector (slacks, duals, gradient, Newton diagonal,
/// predictor and corrector directions, step candidates) plus the
/// [`DiagPlusLowRankWorkspace`] holding the Schur factorization. Reusable
/// across iterations, across solves, and across value-refreshed re-solves
/// of the same program — the persistent-workspace online path holds
/// exactly one of these per horizon.
#[derive(Debug, Clone, Default)]
pub struct BarrierWorkspace {
    x: Vec<f64>,
    slack: Vec<f64>,
    /// Row duals `y`.
    y: Vec<f64>,
    /// Bound duals `z`.
    z: Vec<f64>,
    grad_f: Vec<f64>,
    /// Right-hand side of the current back-solve.
    rhs: Vec<f64>,
    d: Vec<f64>,
    e: Vec<f64>,
    dx: Vec<f64>,
    ds: Vec<f64>,
    dy: Vec<f64>,
    dz: Vec<f64>,
    dx_aff: Vec<f64>,
    ds_aff: Vec<f64>,
    dy_aff: Vec<f64>,
    dz_aff: Vec<f64>,
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
            &mut self.z,
            &mut self.grad_f,
            &mut self.rhs,
            &mut self.d,
            &mut self.dx,
            &mut self.dz,
            &mut self.dx_aff,
            &mut self.dz_aff,
            &mut self.xn,
        ] {
            buf.resize(n, 0.0);
        }
        for buf in [
            &mut self.slack,
            &mut self.y,
            &mut self.ds,
            &mut self.dy,
            &mut self.ds_aff,
            &mut self.dy_aff,
            &mut self.sn,
        ] {
            buf.resize(m, 0.0);
        }
        self.class_sum.resize(solver.coupling.num_classes(), 0.0);
        self.e.resize(solver.num_groups + m, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convex::ScalarTerm;
    use crate::sparse::Triplets;

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
    fn exhausted_iterations_are_not_certified() {
        // One iteration cannot close the gap of min 2x² + y² s.t.
        // x + y ≥ 3 from (5, 5); the point it reaches proves nothing.
        let mut f = SeparableObjective::new(2);
        f.add_term(0, ScalarTerm::Quadratic { q: 4.0 });
        f.add_term(1, ScalarTerm::Quadratic { q: 2.0 });
        let solver = BarrierSolver::new(f, simple_row(&[1.0, 1.0]), vec![3.0]).unwrap();
        let opts = BarrierOptions {
            max_iterations: 1,
            ..BarrierOptions::default()
        };
        let result = solver.solve(Some(&[5.0, 5.0]), &opts);
        assert!(
            matches!(result, Err(Error::MaxIterations { .. })),
            "{result:?}"
        );
    }

    /// `sᵀy + xᵀz + ½·r_dᵀM⁻¹r_d` of `sol` for `min f s.t. a·x ≥ b`,
    /// recomputed with dense products and an LU of the dense Newton matrix.
    fn dense_certificate(
        f: &SeparableObjective,
        a: &CscMatrix,
        b: &[f64],
        sol: &BarrierSolution,
    ) -> f64 {
        let (x, y, z) = (&sol.x, &sol.row_duals, &sol.bound_duals);
        let n = x.len();
        let rows = a.to_dense();
        let s: Vec<f64> = rows
            .iter()
            .zip(b)
            .map(|(row, &br)| dot(row, x) - br)
            .collect();
        assert!(x.iter().chain(&s).all(|&v| v > 0.0), "not interior");
        let grad = f.gradient(x);
        let mut hess = vec![0.0; n];
        f.hessian_diag_into(x, &mut hess);
        let mut m = crate::linalg::DenseMatrix::zeros(n, n);
        let mut rd = vec![0.0; n];
        for k in 0..n {
            m.set(k, k, hess[k] + z[k] / x[k]);
            let aty: f64 = rows.iter().zip(y).map(|(row, &yr)| row[k] * yr).sum();
            rd[k] = grad[k] - aty - z[k];
        }
        for (group, h) in f.groups().iter().zip(f.group_curvatures(x)) {
            for &p in &group.members {
                for &q in &group.members {
                    m.add(p, q, h);
                }
            }
        }
        for (r, row) in rows.iter().enumerate() {
            for p in 0..n {
                for q in 0..n {
                    m.add(p, q, row[p] * y[r] / s[r] * row[q]);
                }
            }
        }
        let v = m.lu().unwrap().solve(&rd);
        dot(&s, y) + dot(x, z) + 0.5 * dot(&rd, &v)
    }

    #[test]
    fn seeded_start_is_certified_only_when_centered() {
        // With μ₀ at the final grid point the start already passes the
        // complementarity half of the stop rule, so only the decrement
        // keeps an uncentered start from being returned. On the linear
        // program `D = z/x` spans ~1e-10..1e9: there the decrement taken
        // as `r_dᵀdx` cancels to 0 while the dense value is 2.5e-7,
        // above the target of 2e-8. That solve cannot center in its
        // iterations (the back-solve loses the digits its duals need),
        // so only the curved programs must certify.
        let row = simple_row(&[1.0, 1.0]);
        let quadratics = |qs: &[f64]| {
            let mut f = SeparableObjective::new(qs.len());
            for (k, &q) in qs.iter().enumerate() {
                f.add_term(k, ScalarTerm::Quadratic { q });
            }
            f
        };
        let mut linear = SeparableObjective::new(2);
        linear.add_term(0, ScalarTerm::Linear { coef: 1.0 });
        linear.add_term(1, ScalarTerm::Linear { coef: 2.0 });
        let mut entropy = SeparableObjective::new(1);
        entropy.add_term(
            0,
            ScalarTerm::RelativeEntropy {
                weight: 2.0,
                eps: 0.1,
                xref: 3.0,
            },
        );
        let cases = [
            (quadratics(&[2.0, 2.0]), row.clone(), 2.0, None, true),
            (quadratics(&[4.0, 2.0]), row.clone(), 3.0, None, true),
            (
                quadratics(&[4.0, 2.0]),
                row.clone(),
                3.0,
                Some(vec![5.0, 5.0]),
                true,
            ),
            (quadratics(&[2.0]), simple_row(&[1.0]), 1.0, None, true),
            (entropy, simple_row(&[1.0]), 1.0, None, true),
            (linear, row, 1.0, None, false),
        ];
        let opts = BarrierOptions::default();
        for (f, a, b, start, must_certify) in cases {
            let solver = BarrierSolver::new(f.clone(), a.clone(), vec![b]).unwrap();
            let start = start.unwrap_or_else(|| solver.strictly_feasible_start().unwrap());
            let total = (1 + start.len()) as f64;
            let mu0 = 0.5 * opts.tol * (1.0 + f.value(&start).abs()) / total;
            let mut ws = BarrierWorkspace::for_solver(&solver);
            match solver.solve_from(Some(&start), mu0, &opts, &mut ws) {
                Ok(sol) => {
                    let target = opts.tol * (1.0 + sol.objective.abs());
                    let certified = dense_certificate(&f, &a, &[b], &sol);
                    assert!(certified <= target, "{certified:e} > {target:e}");
                    assert!((certified - sol.stats.gap()).abs() <= 1e-9 * target);
                }
                Err(Error::MaxIterations { .. }) if !must_certify => {}
                Err(err) => panic!("{err:?}"),
            }
        }
    }

    #[test]
    fn finish_is_set_by_the_final_objective() {
        // min x² − 10x s.t. x ≥ 1 from x = 10: f is 0 at the start and
        // −25 at the end. The target tol·(1 + |f|) = 2.6e-7 puts the
        // finish at μ = 20⁻⁶, complementarity 2·20⁻⁶ = 3.1e-8; the start's
        // target of 1e-8 would have put it 20× lower.
        let mut f = SeparableObjective::new(1);
        f.add_term(0, ScalarTerm::Quadratic { q: 2.0 });
        f.add_term(0, ScalarTerm::Linear { coef: -10.0 });
        let solver = BarrierSolver::new(f, simple_row(&[1.0]), vec![1.0]).unwrap();
        let sol = solver
            .solve(Some(&[10.0]), &BarrierOptions::default())
            .unwrap();
        assert!((sol.x[0] - 5.0).abs() < 1e-5, "x = {}", sol.x[0]);
        let grid_comp = 2.0 * 20f64.powi(-6);
        let comp = sol.stats.complementarity;
        assert!(
            (comp - grid_comp).abs() <= 0.1 * grid_comp,
            "complementarity {comp:e}, grid point {grid_comp:e}"
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

    /// `coupling_matrix` as coordinate-form assembly builds it: the
    /// oracle for the column-wise construction.
    fn coupling_by_triplets(objective: &SeparableObjective, a: &CscMatrix) -> CscMatrix {
        let g = objective.groups().len();
        let mut t = Triplets::with_capacity(g + a.nrows(), a.ncols(), a.nnz() + g * 4);
        for (gi, group) in objective.groups().iter().enumerate() {
            for &k in &group.members {
                t.push(gi, k, 1.0);
            }
        }
        for c in 0..a.ncols() {
            let (rows, vals) = a.col(c);
            for (p, &r) in rows.iter().enumerate() {
                t.push(g + r, c, vals[p]);
            }
        }
        t.to_csc()
    }

    fn assert_same_csc(got: &CscMatrix, want: &CscMatrix, what: &str) {
        let bits = |m: &CscMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            (got.nrows(), got.ncols()),
            (want.nrows(), want.ncols()),
            "{what}"
        );
        assert_eq!(got.colptr(), want.colptr(), "{what}: colptr");
        assert_eq!(got.rowind(), want.rowind(), "{what}: rowind");
        assert_eq!(bits(got), bits(want), "{what}: values");
    }

    #[test]
    fn column_wise_coupling_matches_coordinate_assembly() {
        // ℙ₂'s shape: one group per cloud with a reconfiguration term
        // (cloud 1 has none), over J demand rows and I capacity rows.
        let clouds = 4;
        for users in [1, 2, 13, 240] {
            for explicit in [false, true] {
                let n = clouds * users;
                let mut f = SeparableObjective::new(n);
                for i in (0..clouds).filter(|&i| i != 1) {
                    let members = (0..users).map(|j| i * users + j).collect();
                    f.add_group(members, ScalarTerm::Quadratic { q: 1.0 });
                }
                let mut a = Triplets::new(users + clouds, n);
                for j in 0..users {
                    for i in 0..clouds {
                        a.push(j, i * users + j, 1.0);
                    }
                }
                for i in 0..clouds {
                    for j in 0..users {
                        if explicit {
                            a.push(users + i, i * users + j, -1.0);
                        } else {
                            for other in (0..clouds).filter(|&o| o != i) {
                                a.push(users + other, i * users + j, 1.0);
                            }
                        }
                    }
                }
                let a = a.to_csc();
                let b = vec![0.0; a.nrows()];
                let got = coupling_matrix(&f, &a, &b).unwrap();
                let what = format!("J = {users}, explicit = {explicit}");
                assert_same_csc(&got, &coupling_by_triplets(&f, &a), &what);
            }
        }
        // A member listed twice in one group sums to 2.0; a column in two
        // groups gets both rows; an explicit zero in `a` is dropped, as
        // `Triplets::push` drops it.
        let mut f = SeparableObjective::new(3);
        f.add_group(vec![2, 0, 2], ScalarTerm::Linear { coef: 1.0 });
        f.add_group(vec![0, 1], ScalarTerm::Linear { coef: 1.0 });
        let a = CscMatrix::from_raw_parts(
            2,
            3,
            vec![0, 2, 3, 4],
            vec![0, 1, 1, 0],
            vec![1.0, 0.0, -0.0, 3.0],
        );
        let got = coupling_matrix(&f, &a, &[0.0, 0.0]).unwrap();
        assert_same_csc(&got, &coupling_by_triplets(&f, &a), "duplicates and zeros");
        assert_eq!(got.get(0, 2), 2.0);
        assert_eq!(got.nnz(), 6);
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
