//! Diagonal-plus-low-rank linear solves `(D + Uᵀ E U) dx = r` by
//! user-blocked nested Schur elimination.
//!
//! The solve exploits *arrow structure*: rows of `U` with pairwise-disjoint
//! column supports ("local" rows, e.g. ℙ₂'s per-user demand constraints)
//! make the local block of the Woodbury complement `E⁻¹ + U D⁻¹ Uᵀ`
//! diagonal, so each local row is eliminated in closed form, a rank-1
//! downdate of the small block over the remaining ("coupling") rows.
//!
//! The elimination works in *class space*: columns with the same coupling
//! column (same coupling rows, same values) form one class, and with `m`
//! classes the coupling block is `E_c⁻¹ + T K Tᵀ`, where `T` (c × m) holds
//! each class's coupling column and the m × m matrix `K` collects every
//! column's `1/d_k` and every local row's rank-1 elimination. One solve
//! then costs O(nnz_L + n + J·m²) plus O(c·m² + c²·m) to form the block and
//! one c³ Cholesky, where `J` is the local-row count, `nnz_L` the local
//! rows' entries and `c` the coupling-row count. ℙ₂ has `m = I`,
//! `nnz_L = n = J·I` and `c ≤ 2I`, so a solve is O(J·I + J·m²) — linear in
//! users — and no pass of it reads the J·I² entries of ℙ₂'s (10b) rows.
//! Any pattern is solved exactly; one whose columns nearly all differ in
//! their coupling column has `m` close to `n`, and `K` then costs as much
//! as a dense solve.
//!
//! Every pass over the columns walks *runs*: maximal stretches of
//! consecutive columns that lie in consecutive local rows and share one
//! class (free columns, owned by no local row, form runs of their own). A
//! run's columns, its local rows' entries and its class's per-row arrays
//! are contiguous slices, so each pass is a loop over slices. ℙ₂ has one
//! run per cloud: variables `[i·J, (i+1)·J)` over its J demand rows.
//!
//! The same classes give every product with `U`
//! ([`DiagPlusLowRank::mul_rows_into`] and its transpose): a local row sums
//! its own entries, a coupling row is `T` times the per-class sums. The
//! back-solve forms `U z` that way, and the barrier solver forms `A x` and
//! `Aᵀ y` that way — O(J·I) for ℙ₂.
//!
//! The plan is all the kernel keeps of `U`. It comes one of two ways:
//! [`DiagPlusLowRank::new`] detects it in a CSC matrix, and
//! [`DiagPlusLowRank::declared`] takes it from a caller that knows it in
//! advance ([`ArrowForm`]) and checks it in O(n + nnz(T)). ℙ₂ declares
//! its plan, so building one writes and reads none of its (10b) entries.
//! The barrier's phase I reads `U`'s rows from the plan
//! ([`DiagPlusLowRank::row_view`]).

use std::collections::HashMap;
use std::ops::Range;

use crate::linalg::DenseMatrix;
use crate::sparse::CscMatrix;
use crate::{Error, Result};

/// Rows with `E_i` at or below this are inert: their reciprocal would
/// overflow toward infinity and poison the Schur complement.
const ACTIVE_EPS: f64 = 1e-300;

/// Class of a column with no entry in any coupling row.
const NO_CLASS: usize = usize::MAX;

/// Local row of a free column (one owned by no local row).
const NO_ROW: usize = usize::MAX;

/// The Newton-step Schur kernel. There is one: the user-blocked
/// nested-Schur elimination of [`DiagPlusLowRank`]. The type is kept only
/// because the benchmark's `Workload::algorithm` names it through
/// `OnlineRegularized::with_schur_kernel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchurKernel {
    /// The user-blocked nested-Schur elimination.
    Blocked,
}

/// Solves systems `(D + Uᵀ E U) dx = r` where `D ≻ 0` and `E ⪰ 0` are
/// diagonal and `U` is a fixed `p × n` coupling matrix with `p ≪ n`.
///
/// The barrier solver's Newton matrix has exactly this shape: `D` collects
/// the separable Hessian and the `x ≥ 0` barrier curvature, while `U` stacks
/// the group-indicator rows and the constraint rows of `A`.
///
/// Uses the Woodbury identity
/// `(D + UᵀEU)⁻¹ = D⁻¹ − D⁻¹Uᵀ (E⁻¹ + U D⁻¹ Uᵀ)⁻¹ U D⁻¹`,
/// restricted to rows with `E_i > 0` (zero-curvature rows contribute
/// nothing), with the inner `(E⁻¹ + U D⁻¹ Uᵀ)⁻¹` applied by eliminating the
/// local rows in closed form and factoring only the coupling block (see
/// the module docs).
///
/// # Example
///
/// ```
/// use optim::sparse::Triplets;
/// use optim::convex::DiagPlusLowRank;
///
/// # fn main() -> Result<(), optim::Error> {
/// // U = [1 1], so M = diag(2,2) + 3·[1 1]ᵀ[1 1] = [[5,3],[3,5]].
/// let mut t = Triplets::new(1, 2);
/// t.push(0, 0, 1.0);
/// t.push(0, 1, 1.0);
/// let solver = DiagPlusLowRank::new(t.to_csc());
/// let dx = solver.solve(&[2.0, 2.0], &[3.0], &[8.0, 8.0])?;
/// assert!((dx[0] - 1.0).abs() < 1e-12 && (dx[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
///
/// Two operators are equal when their plans are: the same local and
/// coupling rows, runs and classes, every value compared by its bits.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagPlusLowRank {
    /// Local rows, column runs and column classes of `U` — all that is
    /// kept of it: the factorization eliminates over them, and the
    /// class-space products ([`DiagPlusLowRank::mul_rows_into`]) run on
    /// them.
    plan: BlockedPlan,
}

impl DiagPlusLowRank {
    /// Analyzes a fixed coupling matrix `U` (p × n) once, here, and keeps
    /// only its plan; per-solve work is pattern-reuse.
    pub fn new(u: CscMatrix) -> Self {
        DiagPlusLowRank {
            plan: BlockedPlan::detect(&u),
        }
    }

    /// The operator of a coupling matrix declared in arrow form, its plan
    /// taken as declared after an O(p + n + nnz(T)) check.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when a class's coupling rows are not
    /// ascending rows of `U`, a run names a missing class or runs past the
    /// last row, or a row is both a run's local row and a coupling row.
    pub fn declared(form: ArrowForm) -> Result<Self> {
        Ok(DiagPlusLowRank {
            plan: BlockedPlan::declared(form)?,
        })
    }

    /// Number of coupling rows `p`.
    pub fn rank(&self) -> usize {
        self.plan.locals.len() + self.plan.coupling.len()
    }

    /// Number of variables `n`.
    pub fn dim(&self) -> usize {
        self.plan.vals.len()
    }

    /// `Uᵀ` (n × p) read from the plan: column `i` holds row `i` of `U`,
    /// its columns ascending, as [`CscMatrix::transpose`] gives it of the
    /// matrix the plan describes. The barrier's phase I reads the rows of
    /// its constraint matrix this way. O(n + nnz(U)).
    pub fn row_view(&self) -> CscMatrix {
        let plan = &self.plan;
        let (p, n) = (self.rank(), self.dim());
        let mut class_len = vec![0usize; plan.classes.len()];
        let mut colptr = vec![0usize; p + 1];
        for run in &plan.runs {
            if run.row != NO_ROW {
                for count in &mut colptr[run.row + 1..run.row + run.len + 1] {
                    *count += 1;
                }
            }
            if run.class != NO_CLASS {
                class_len[run.class] += run.len;
            }
        }
        for (c, &len) in class_len.iter().enumerate() {
            for &row in plan.classes.t_col(c).0 {
                colptr[row + 1] += len;
            }
        }
        for i in 0..p {
            colptr[i + 1] += colptr[i];
        }
        let (mut rowind, mut values) = (vec![0usize; colptr[p]], vec![0.0; colptr[p]]);
        let mut next = colptr.clone();
        for run in self.runs() {
            let Run { row, class, .. } = run.run;
            let (t_rows, t_vals) = match class {
                NO_CLASS => (&[][..], &[][..]),
                c => plan.classes.t_col(c),
            };
            for (t, k) in run.cols().enumerate() {
                let local = (row != NO_ROW).then(|| (row + t, run.vals[t]));
                for (i, v) in local
                    .into_iter()
                    .chain(t_rows.iter().copied().zip(t_vals.iter().copied()))
                {
                    rowind[next[i]] = k;
                    values[next[i]] = v;
                    next[i] += 1;
                }
            }
        }
        CscMatrix::from_raw_parts(n, p, colptr, rowind, values)
    }

    /// Row `row` of `U` read from the plan, as (column, value): the one
    /// column of each run it is local to, or every column of each run
    /// whose class's coupling column holds it. O(runs · log c + entries).
    pub(crate) fn row_entries(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let plan = &self.plan;
        plan.runs.iter().flat_map(move |run| {
            let local = (run.row != NO_ROW && (run.row..run.row + run.len).contains(&row))
                .then(|| run.col + row - run.row)
                .map(|k| (k, plan.vals[k]));
            let coupled = match run.class {
                NO_CLASS => None,
                c => {
                    let (rows, vals) = plan.classes.t_col(c);
                    rows.binary_search(&row).ok().map(|at| vals[at])
                }
            };
            let cols = coupled.map_or(0..0, |_| run.col..run.col + run.len);
            let v = coupled.unwrap_or(0.0);
            local.into_iter().chain(cols.map(move |k| (k, v)))
        })
    }

    /// Solves `(D + Uᵀ E U) dx = r`.
    ///
    /// Convenience wrapper over [`DiagPlusLowRank::solve_into`] that
    /// allocates a fresh workspace; hot loops should hold a
    /// [`DiagPlusLowRankWorkspace`] and call `solve_into` directly.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Numerical`] if the Schur complement is not positive
    /// definite (should not happen for `D ≻ 0`, `E ⪰ 0`).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or non-positive `d`.
    pub fn solve(&self, d: &[f64], e: &[f64], r: &[f64]) -> Result<Vec<f64>> {
        let mut ws = DiagPlusLowRankWorkspace::for_solver(self);
        let mut dx = vec![0.0; self.dim()];
        self.solve_into(d, e, r, &mut ws, &mut dx)?;
        Ok(dx)
    }

    /// Solves `(D + Uᵀ E U) dx = r` into `dx`, reusing `ws` for every
    /// intermediate: the active-row scratch, the local rows' pivots and
    /// borders, the class matrix and the coupling block's Cholesky storage.
    /// After the workspace has warmed up (first call at a given active-row
    /// count), repeat solves perform no heap allocation.
    ///
    /// This is [`DiagPlusLowRank::factor`] followed by
    /// [`DiagPlusLowRank::back_solve`]; callers with several right-hand
    /// sides for one matrix factor once and back-solve each.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Numerical`] if the Schur complement is not positive
    /// definite (should not happen for `D ≻ 0`, `E ⪰ 0`).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or non-positive `d`.
    pub fn solve_into(
        &self,
        d: &[f64],
        e: &[f64],
        r: &[f64],
        ws: &mut DiagPlusLowRankWorkspace,
        dx: &mut [f64],
    ) -> Result<()> {
        self.factor(d, e, ws)?;
        self.back_solve(d, r, ws, dx);
        Ok(())
    }

    /// Factors `D + Uᵀ E U` into `ws`: eliminates every active local row in
    /// closed form (its pivot and class-space border, and a rank-1 update
    /// of the class matrix `K`), then forms and factors only the coupling
    /// block. Nothing here depends on a right-hand side;
    /// [`DiagPlusLowRank::back_solve`] then solves against the
    /// factorization as often as needed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Numerical`] if the Schur complement is not positive
    /// definite (should not happen for `D ≻ 0`, `E ⪰ 0`).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or non-positive `d`.
    pub fn factor(&self, d: &[f64], e: &[f64], ws: &mut DiagPlusLowRankWorkspace) -> Result<()> {
        assert_eq!(d.len(), self.dim(), "diagonal length mismatch");
        assert_eq!(e.len(), self.rank(), "low-rank weight length mismatch");
        assert!(d.iter().all(|&v| v > 0.0), "D must be positive");
        let plan = &self.plan;
        let p = self.rank();

        // Active coupling rows, with a row → active-index map.
        ws.active.clear();
        ws.active
            .extend(plan.coupling.iter().copied().filter(|&i| e[i] > ACTIVE_EPS));
        ws.row_of.clear();
        ws.row_of.resize(p, usize::MAX);
        for (ci, &i) in ws.active.iter().enumerate() {
            ws.row_of[i] = ci;
        }
        let qc = ws.active.len();

        eliminate_local_rows(plan, d, e, ws);
        self.assemble_coupling(d, e, ws);
        if qc > 0 {
            ws.factor_with_ridge(qc)?;
        }
        Ok(())
    }

    /// Solves `(D + Uᵀ E U) dx = r` against the factorization the last
    /// [`DiagPlusLowRank::factor`] call left in `ws`; `d` must be the
    /// diagonal that call factored. Forms `z = D⁻¹ r` and `U z` in class
    /// space, eliminates `U z` through the active local rows
    /// (`ρ = Σ_j v_j · (Uz)_j / sdd_j`), solves the coupling block for
    /// `w_C`, and back-substitutes the local rows' `w` and
    /// `dx = z − D⁻¹ Uᵀ w`. Allocation-free once `ws` is warm.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn back_solve(
        &self,
        d: &[f64],
        r: &[f64],
        ws: &mut DiagPlusLowRankWorkspace,
        dx: &mut [f64],
    ) {
        assert_eq!(r.len(), self.dim(), "rhs length mismatch");
        self.back_solve_first(d, ws, |run, out| out.copy_from_slice(&r[run.cols()]));
        self.back_solve_second(d, ws, dx, |_, _| {});
    }

    /// The first half of a back-solve, in one pass over the runs: `rhs`
    /// writes each run's slice of the right-hand side `r`, and the pass
    /// turns it into `z = D⁻¹ r` and adds `z` into `U z`'s local rows and
    /// class sums. Then `U z`'s coupling rows, the class-space
    /// `ρ = Σ_j v_j (Uz)_j / sdd_j` and the coupling solve for `w_C`.
    /// [`DiagPlusLowRank::back_solve_second`] finishes the solve.
    pub(crate) fn back_solve_first(
        &self,
        d: &[f64],
        ws: &mut DiagPlusLowRankWorkspace,
        mut rhs: impl FnMut(RunRef<'_>, &mut [f64]),
    ) {
        let n = self.dim();
        assert_eq!(d.len(), n, "diagonal length mismatch");
        let plan = &self.plan;
        let (nl, m) = (plan.locals.len(), plan.classes.len());
        ws.z.resize(n, 0.0);
        ws.uz.clear();
        ws.uz.resize(self.rank(), 0.0);
        // `class_y` holds the per-class sums of `z` until the
        // back-substitution rebuilds it.
        ws.class_y.clear();
        ws.class_y.resize(m, 0.0);
        for run in self.runs() {
            let cols = run.cols();
            let z = &mut ws.z[cols.clone()];
            rhs(run, z);
            for (zk, &dk) in z.iter_mut().zip(&d[cols]) {
                *zk /= dk;
            }
            run.add_to_rows(z, 0, &mut ws.class_y, &mut ws.uz);
        }
        self.add_coupling_rows(0, &ws.class_y, &mut ws.uz);

        // Inactive local rows have a zero pivot and no border.
        ws.rho.clear();
        ws.rho.resize(m, 0.0);
        for (jl, &row) in plan.locals.iter().enumerate() {
            let pivot = ws.sdd[jl];
            if pivot > 0.0 {
                let scale = ws.uz[row] / pivot;
                for (c, r) in ws.rho.iter_mut().enumerate() {
                    *r += ws.border[c * nl + jl] * scale;
                }
            }
        }
        // The coupling rhs `t_c = (Uz)_c − T ρ`, solved against the factor.
        // Each row's `T ρ` adds its classes in class order, from a float
        // sum's neutral element.
        ws.wq.clear();
        ws.wq.resize(ws.active.len(), -0.0);
        for (c, &rho) in ws.rho.iter().enumerate() {
            let (rows, vals) = ws.active_t.t_col(c);
            for (&ci, &v) in rows.iter().zip(vals) {
                ws.wq[ci] += v * rho;
            }
        }
        for (t_rho, &i) in ws.wq.iter_mut().zip(&ws.active) {
            *t_rho = ws.uz[i] - *t_rho;
        }
        if !ws.active.is_empty() {
            ws.l.chol_solve_in_place(&mut ws.wq);
        }
    }

    /// The second half of a back-solve begun by
    /// [`DiagPlusLowRank::back_solve_first`]: back-substitutes the local
    /// rows' `w`, then in one pass over the runs writes
    /// `dx = z − D⁻¹ Uᵀ w` and hands `each` every run with its slice of
    /// `dx`.
    pub(crate) fn back_solve_second(
        &self,
        d: &[f64],
        ws: &mut DiagPlusLowRankWorkspace,
        dx: &mut [f64],
        mut each: impl FnMut(RunRef<'_>, &[f64]),
    ) {
        assert_eq!(dx.len(), self.dim(), "solution length mismatch");
        let plan = &self.plan;
        let (nl, m) = (plan.locals.len(), plan.classes.len());
        // Back-substitute: coupling rows from the small solve, active local
        // rows in closed form, inactive rows zero. A row's border is
        // `T v_j`, so its dot product with `w_C` runs over `Tᵀ w_C`.
        ws.w.clear();
        ws.w.resize(self.rank(), 0.0);
        for (ci, &i) in ws.active.iter().enumerate() {
            ws.w[i] = ws.wq[ci];
        }
        ws.class_y.clear();
        ws.class_y.extend((0..m).map(|c| {
            let (rows, vals) = ws.active_t.t_col(c);
            rows.iter()
                .zip(vals)
                .map(|(&ci, &v)| v * ws.wq[ci])
                .sum::<f64>()
        }));
        // Each row's `v_j · (Tᵀ w_C)`, added class by class from the
        // neutral element of a float sum.
        ws.dot.clear();
        ws.dot.resize(nl, -0.0);
        for (c, &y) in ws.class_y.iter().enumerate() {
            for (acc, v) in ws.dot.iter_mut().zip(&ws.border[c * nl..(c + 1) * nl]) {
                *acc += v * y;
            }
        }
        for (jl, &row) in plan.locals.iter().enumerate() {
            let pivot = ws.sdd[jl];
            if pivot > 0.0 {
                ws.w[row] = (ws.uz[row] - ws.dot[jl]) / pivot;
            }
        }
        // dx = z − D⁻¹ Uᵀ w, with `Uᵀ w` in class space: `class_y` already
        // holds `Tᵀ w_C` (inactive coupling rows have w = 0).
        for run in self.runs() {
            let cols = run.cols();
            let out = &mut dx[cols.clone()];
            run.transpose_into(0, &ws.w, &ws.class_y, out);
            for ((v, &zk), &dk) in out.iter_mut().zip(&ws.z[cols.clone()]).zip(&d[cols]) {
                *v = zk - *v / dk;
            }
            each(run, out);
        }
    }

    /// [`DiagPlusLowRank::back_solve`] that also returns `rᵀM⁻¹r`,
    /// evaluated as `dxᵀD dx + wᵀE⁻¹w` with `w = E U dx` the back-solve's
    /// row multipliers (zero on inactive rows). Both sums are of
    /// nonnegative terms, so the form keeps its digits when `D` spans many
    /// orders of magnitude, where `rᵀdx` cancels to noise. `e` must be the
    /// weights the factorization used.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn inverse_form(
        &self,
        d: &[f64],
        e: &[f64],
        r: &[f64],
        ws: &mut DiagPlusLowRankWorkspace,
        dx: &mut [f64],
    ) -> f64 {
        assert_eq!(e.len(), self.rank(), "low-rank weight length mismatch");
        self.back_solve(d, r, ws, dx);
        let diagonal: f64 = d.iter().zip(dx.iter()).map(|(&dk, &v)| dk * v * v).sum();
        let rows: f64 =
            ws.w.iter()
                .zip(e)
                .filter(|&(_, &ei)| ei > ACTIVE_EPS)
                .map(|(&wi, &ei)| wi * wi / ei)
                .sum();
        diagonal + rows
    }

    /// Number of column classes: the length of the class-sum scratch that
    /// [`DiagPlusLowRank::mul_rows_into`] and
    /// [`DiagPlusLowRank::mul_transpose_rows_into`] take.
    pub fn num_classes(&self) -> usize {
        self.plan.classes.len()
    }

    /// The column runs, in column order: every pass over the columns
    /// walks these.
    pub(crate) fn runs(&self) -> impl Iterator<Item = RunRef<'_>> {
        let vals = &self.plan.vals;
        self.plan.runs.iter().map(move |&run| RunRef {
            run,
            vals: &vals[run.col..run.col + run.len],
        })
    }

    /// `out = U[lo.., :] · x`: the product with the rows of `U` from `lo`
    /// on (for the barrier solver, `A x`), evaluated in class space. A
    /// local row sums its own entries in column order, exactly as
    /// [`CscMatrix::mul_vec_into`] does; every other row is
    /// `T · (per-class sums of x)`. One pass over the local rows' entries
    /// plus `nnz(T)` — never more than the sparse product, and O(J·I)
    /// instead of O(J·I²) for ℙ₂'s (10b) rows.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch: `x` needs `dim()` entries, `out`
    /// `rank() − lo` and `class_sum` [`DiagPlusLowRank::num_classes`].
    pub fn mul_rows_into(&self, lo: usize, x: &[f64], class_sum: &mut [f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.dim(), "dimension mismatch in mul_rows_into");
        assert_eq!(
            out.len() + lo,
            self.rank(),
            "dimension mismatch in mul_rows_into"
        );
        assert_eq!(class_sum.len(), self.num_classes(), "class scratch length");
        class_sum.fill(0.0);
        out.fill(0.0);
        for run in self.runs() {
            run.add_to_rows(&x[run.cols()], lo, class_sum, out);
        }
        self.add_coupling_rows(lo, class_sum, out);
    }

    /// Adds `T · class_sum` into the coupling rows of `out`, the rows of
    /// `U` from `lo` on: the second step of
    /// [`DiagPlusLowRank::mul_rows_into`], after
    /// [`RunRef::add_to_rows`] has summed every run.
    pub(crate) fn add_coupling_rows(&self, lo: usize, class_sum: &[f64], out: &mut [f64]) {
        let classes = &self.plan.classes;
        for (c, &sum) in class_sum.iter().enumerate() {
            let (rows, vals) = classes.t_col(c);
            for (&row, &v) in rows.iter().zip(vals) {
                if row >= lo {
                    out[row - lo] += v * sum;
                }
            }
        }
    }

    /// `out = U[lo.., :]ᵀ · y`, the transpose of
    /// [`DiagPlusLowRank::mul_rows_into`] (for the barrier solver,
    /// `Aᵀ y`): each column's local-row term, then its class's entry of
    /// `Tᵀ y` added after it. `class_y` is scratch of
    /// [`DiagPlusLowRank::num_classes`] entries; it receives `Tᵀ y`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn mul_transpose_rows_into(
        &self,
        lo: usize,
        y: &[f64],
        class_y: &mut [f64],
        out: &mut [f64],
    ) {
        assert_eq!(
            out.len(),
            self.dim(),
            "dimension mismatch in mul_transpose_rows_into"
        );
        self.class_transpose(lo, y, class_y);
        for run in self.runs() {
            run.transpose_into(lo, y, class_y, &mut out[run.cols()]);
        }
    }

    /// `class_y = Tᵀ y` over the coupling rows from `lo` on (`y` indexed
    /// from `lo`): the first step of
    /// [`DiagPlusLowRank::mul_transpose_rows_into`], before
    /// [`RunRef::transpose_into`] writes every run.
    pub(crate) fn class_transpose(&self, lo: usize, y: &[f64], class_y: &mut [f64]) {
        let classes = &self.plan.classes;
        assert_eq!(
            y.len() + lo,
            self.rank(),
            "dimension mismatch in mul_transpose_rows_into"
        );
        assert_eq!(class_y.len(), classes.len(), "class scratch length");
        for (c, slot) in class_y.iter_mut().enumerate() {
            let (rows, vals) = classes.t_col(c);
            *slot = rows
                .iter()
                .zip(vals)
                .filter(|&(&row, _)| row >= lo)
                .map(|(&row, &v)| v * y[row - lo])
                .sum();
        }
    }

    /// The coupling system `S_cc = E_c⁻¹ + T K Tᵀ` (lower triangle only —
    /// the Cholesky reads nothing else) with `K` the local rows' class
    /// matrix plus the free columns' `1/d_k`. `T` holds each class's
    /// coupling column over the active coupling rows; both products run
    /// over its nonzeros (I per class under (10b), 2 under Explicit), in
    /// passes down contiguous columns. Every entry of `T K` adds its
    /// classes in class order, and so does every entry of `S`; the zero
    /// terms left out change no sum with a nonzero term.
    fn assemble_coupling(&self, d: &[f64], e: &[f64], ws: &mut DiagPlusLowRankWorkspace) {
        let plan = &self.plan;
        let qc = ws.active.len();
        let classes = &plan.classes;
        let m = classes.len();
        for run in &plan.runs {
            if run.row == NO_ROW && run.class != NO_CLASS {
                for &dk in &d[run.col..run.col + run.len] {
                    ws.kmat.add(run.class, run.class, 1.0 / dk);
                }
            }
        }
        let kmat = &ws.kmat;

        let t = &mut ws.active_t;
        t.tptr.clear();
        t.trows.clear();
        t.tvals.clear();
        t.tptr.push(0);
        for c in 0..m {
            let (rows, vals) = classes.t_col(c);
            for (&row, &v) in rows.iter().zip(vals) {
                let ci = ws.row_of[row];
                if ci != usize::MAX {
                    t.trows.push(ci);
                    t.tvals.push(v);
                }
            }
            t.tptr.push(t.trows.len());
        }
        let t = &ws.active_t;
        // T K, column by column: class a's nonzeros times the symmetric
        // K's entry (a, b), classes ascending.
        let tk = &mut ws.class_tk;
        tk.resize_reset(qc, m);
        for b in 0..m {
            let col = tk.column_mut(b);
            for a in 0..m {
                let kab = if a >= b {
                    kmat.get(a, b)
                } else {
                    kmat.get(b, a)
                };
                let (rows, vals) = t.t_col(a);
                for (&ci, &ta) in rows.iter().zip(vals) {
                    col[ci] += ta * kab;
                }
            }
        }
        // S's column j takes `T K`'s column c times `T[j, c]`, on and below
        // the diagonal, classes ascending.
        ws.s.resize_reset(qc, qc);
        for c in 0..m {
            let tk_c = tk.column(c);
            let (rows, vals) = t.t_col(c);
            for (&j, &tjc) in rows.iter().zip(vals) {
                for (s, &x) in ws.s.column_mut(j)[j..].iter_mut().zip(&tk_c[j..]) {
                    *s += x * tjc;
                }
            }
        }
        for j in 0..qc {
            ws.s.add(j, j, 1.0 / e[ws.active[j]]);
        }
    }
}

/// A maximal stretch of consecutive columns that lie in consecutive local
/// rows and share one class, or of consecutive free columns that share one
/// class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    /// First column.
    col: usize,
    /// Number of columns.
    len: usize,
    /// The first column's local row (a row of `U`; the run's rows are
    /// `row..row + len`), or [`NO_ROW`] for free columns.
    row: usize,
    /// The first column's local row as an index into the plan's `locals`
    /// (the run's are `local..local + len`); unused for free columns.
    local: usize,
    /// The columns' class, or [`NO_CLASS`].
    class: usize,
}

/// One run of columns with its columns' values in their local rows, as
/// the class-space passes walk it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunRef<'a> {
    run: Run,
    vals: &'a [f64],
}

impl RunRef<'_> {
    /// The run's columns.
    pub(crate) fn cols(&self) -> Range<usize> {
        self.run.col..self.run.col + self.run.len
    }

    /// The first of the run's positions whose local row is at least `lo`
    /// (the run's length when none is, or for free columns).
    fn first_at(&self, lo: usize) -> usize {
        match self.run.row {
            NO_ROW => self.run.len,
            row => lo.saturating_sub(row).min(self.run.len),
        }
    }

    /// Adds `x`, the run's slice of a vector, to the sums of `U[lo.., :]·x`:
    /// each column's term to its local row's entry of `out` (indexed from
    /// `lo`; rows below `lo` are left out) and the column to its class's
    /// entry of `class_sum`. Walking every run in order adds each local row
    /// and each class in ascending column order.
    pub(crate) fn add_to_rows(&self, x: &[f64], lo: usize, class_sum: &mut [f64], out: &mut [f64]) {
        let Run {
            len, row, class, ..
        } = self.run;
        let first = self.first_at(lo);
        if first < len {
            let rows = &mut out[row + first - lo..row + len - lo];
            for ((o, &v), &xk) in rows.iter_mut().zip(&self.vals[first..]).zip(&x[first..]) {
                // Leaving zeros out mirrors `CscMatrix::mul_vec_acc`, so
                // the row's sum carries the same sign of zero.
                *o += if xk != 0.0 { v * xk } else { 0.0 };
            }
        }
        if class != NO_CLASS {
            let mut sum = class_sum[class];
            for &xk in x {
                sum += xk;
            }
            class_sum[class] = sum;
        }
    }

    /// Writes the run's slice of `U[lo.., :]ᵀ · y` into `out`: each
    /// column's local-row term (`y` indexed from `lo`, zero below it),
    /// then its class's entry of `class_y = Tᵀ y` added after it.
    pub(crate) fn transpose_into(&self, lo: usize, y: &[f64], class_y: &[f64], out: &mut [f64]) {
        let Run {
            len, row, class, ..
        } = self.run;
        let gather = if class == NO_CLASS {
            0.0
        } else {
            class_y[class]
        };
        if row == NO_ROW {
            out.fill(gather);
            return;
        }
        let first = self.first_at(lo);
        for (o, &v) in out[..first].iter_mut().zip(self.vals) {
            *o = v * 0.0 + gather;
        }
        if first < len {
            let ys = &y[row + first - lo..row + len - lo];
            for ((o, &v), &yr) in out[first..].iter_mut().zip(&self.vals[first..]).zip(ys) {
                *o = v * yr + gather;
            }
        }
    }
}

/// Structure analysis of the coupling matrix, detected once per CSC matrix
/// or declared ([`ArrowForm`]):
/// which rows are "local" (pairwise-disjoint column supports —
/// eliminable in closed form), which remain in the small coupling block,
/// the column classes the elimination and the class-space products
/// accumulate over, and the runs every pass over the columns walks.
///
/// Detection is greedy over rows in ascending-sparsity order: a row becomes
/// local if none of its columns are owned by an earlier local row. For ℙ₂
/// with more users than clouds this selects exactly the `J` per-user
/// demand rows (each owning user j's `I` columns) and leaves the
/// group/capacity rows — which touch every user — as coupling. A plan with
/// more column classes than local rows gets one retry, with the rows that
/// repeat one of its locals' column sets moved last; the plan with fewer
/// classes wins (ties keep the first). That makes the demand rows local for
/// ℙ₂ with `J ≤ I` too, where the group rows are no wider than them.
#[derive(Debug, Clone)]
struct BlockedPlan {
    /// Local rows, ascending by row index.
    locals: Vec<usize>,
    /// Coupling rows, ascending by row index.
    coupling: Vec<usize>,
    /// Every column in exactly one run, the runs ascending by column.
    runs: Vec<Run>,
    /// Each column's entry in its local row (zero for free columns).
    vals: Vec<f64>,
    /// The coupling column of each class.
    classes: ColumnClasses,
}

/// The coupling column (coupling rows plus value bits) shared by the
/// columns of each class. Every column of class `c` has coupling column
/// `T[:, c]`, so its coupling-Gram contribution is `T[:, c] T[:, c]ᵀ / d_k`,
/// a local row's border is `T v_j` for a class-space vector `v_j`, and the
/// coupling rows' product with any `x` is `T · (per-class sums of x)`. ℙ₂
/// has one class per cloud.
#[derive(Debug, Clone, Default)]
struct ColumnClasses {
    /// Per-class extent into `trows`/`tvals` (classes + 1).
    tptr: Vec<usize>,
    /// `T` column by column: the class's coupling rows (rows of `U`,
    /// ascending)...
    trows: Vec<usize>,
    /// ...and their values.
    tvals: Vec<f64>,
}

impl ColumnClasses {
    /// Number of classes.
    fn len(&self) -> usize {
        self.tptr.len() - 1
    }

    /// Class `c`'s coupling column `T[:, c]`: (rows of `U`, values).
    fn t_col(&self, c: usize) -> (&[usize], &[f64]) {
        let span = self.tptr[c]..self.tptr[c + 1];
        (&self.trows[span.clone()], &self.tvals[span])
    }
}

impl PartialEq for BlockedPlan {
    /// Field for field, every value by its bits.
    fn eq(&self, other: &Self) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (t, o) = (&self.classes, &other.classes);
        self.locals == other.locals
            && self.coupling == other.coupling
            && self.runs == other.runs
            && bits(&self.vals) == bits(&other.vals)
            && (&t.tptr, &t.trows) == (&o.tptr, &o.trows)
            && bits(&t.tvals) == bits(&o.tvals)
    }
}

/// A coupling matrix `U` (p × n) declared in arrow form, for
/// [`DiagPlusLowRank::declared`]: the plan [`DiagPlusLowRank::new`] would
/// detect, written down by a caller that knows it. Columns come in runs,
/// in column order; a run's columns lie in consecutive local rows with
/// their values there, and share a class. Each class is its coupling
/// column: the entries every column of the class has outside the local
/// rows. ℙ₂ knows its plan: one run and one class per cloud, over its J
/// demand rows.
///
/// # Example
///
/// ```
/// use optim::convex::{ArrowForm, DiagPlusLowRank};
///
/// # fn main() -> Result<(), optim::Error> {
/// // U = [1 1] in row 0 (coupling) over local rows 1 and 2 holding 2 and
/// // 3: two columns of one class, in one run.
/// let mut form = ArrowForm::new(3);
/// let class = form.push_class([(0, 1.0)]);
/// form.push_run(1, class, [2.0, 3.0]);
/// let op = DiagPlusLowRank::declared(form)?;
/// assert_eq!((op.rank(), op.dim()), (3, 2));
/// assert_eq!(op.row_view().col(0), (&[0, 1][..], &[1.0, 1.0][..]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ArrowForm {
    /// Rows of `U`.
    rows: usize,
    /// The runs so far (their `local` is set by the check).
    runs: Vec<Run>,
    /// Each column's value in its local row.
    vals: Vec<f64>,
    /// Each class's coupling column.
    classes: ColumnClasses,
}

impl ArrowForm {
    /// A form of `rows` rows with no column and no class yet.
    pub fn new(rows: usize) -> Self {
        ArrowForm {
            rows,
            runs: Vec::new(),
            vals: Vec::new(),
            classes: ColumnClasses {
                tptr: vec![0],
                ..ColumnClasses::default()
            },
        }
    }

    /// Declares the next class, with coupling column `entries` (row of
    /// `U`, value; rows ascending), and returns its index.
    pub fn push_class(&mut self, entries: impl IntoIterator<Item = (usize, f64)>) -> usize {
        let classes = &mut self.classes;
        for (row, v) in entries {
            classes.trows.push(row);
            classes.tvals.push(v);
        }
        classes.tptr.push(classes.trows.len());
        classes.len() - 1
    }

    /// Appends the next run, one column per value of `vals`: its `t`-th
    /// column holds `vals[t]` in local row `first_row + t` and belongs to
    /// `class`. A run without values adds nothing.
    pub fn push_run(
        &mut self,
        first_row: usize,
        class: usize,
        vals: impl IntoIterator<Item = f64>,
    ) {
        let col = self.vals.len();
        self.vals.extend(vals);
        let len = self.vals.len() - col;
        if len > 0 {
            self.runs.push(Run {
                col,
                len,
                row: first_row,
                local: 0,
                class,
            });
        }
    }
}

/// Row-major copy of a CSC pattern, built by counting sort.
struct RowMajor {
    ptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl RowMajor {
    fn of(u: &CscMatrix) -> RowMajor {
        let counts = u.row_counts();
        let mut ptr = vec![0usize; u.nrows() + 1];
        for (i, &count) in counts.iter().enumerate() {
            ptr[i + 1] = ptr[i] + count;
        }
        let mut cols = vec![0usize; u.nnz()];
        let mut vals = vec![0f64; u.nnz()];
        let mut cursor = ptr.clone();
        for k in 0..u.ncols() {
            let (rows, colvals) = u.col(k);
            for (&rr, &v) in rows.iter().zip(colvals) {
                cols[cursor[rr]] = k;
                vals[cursor[rr]] = v;
                cursor[rr] += 1;
            }
        }
        RowMajor { ptr, cols, vals }
    }

    fn cols(&self, i: usize) -> &[usize] {
        &self.cols[self.ptr[i]..self.ptr[i + 1]]
    }

    fn vals(&self, i: usize) -> &[f64] {
        &self.vals[self.ptr[i]..self.ptr[i + 1]]
    }
}

impl BlockedPlan {
    /// The plan `form` declares, after checking it: every class's coupling
    /// rows ascend and lie in `U`, every run's class exists and its rows
    /// lie in `U`, and no row is both a run's local row and a coupling row.
    /// Rows in neither are coupling rows. O(p + n + nnz(T)).
    fn declared(form: ArrowForm) -> Result<BlockedPlan> {
        let ArrowForm {
            rows: p,
            runs,
            vals,
            classes,
        } = form;
        let invalid = |what: String| Err(Error::InvalidInput(format!("arrow form: {what}")));
        let m = classes.len();
        let mut coupled = vec![false; p];
        for c in 0..m {
            let rows = classes.t_col(c).0;
            if !rows.windows(2).all(|w| w[0] < w[1]) || rows.last().is_some_and(|&row| row >= p) {
                return invalid(format!(
                    "class {c}'s coupling rows are not ascending rows of U"
                ));
            }
            for &row in rows {
                coupled[row] = true;
            }
        }
        // Each row's index among the local rows, once they are all known.
        let mut local_of = vec![NO_ROW; p];
        for run in &runs {
            if run.class >= m || run.row >= p || run.len > p - run.row {
                return invalid(format!(
                    "the run at column {} lies outside U's rows or classes",
                    run.col
                ));
            }
            for row in run.row..run.row + run.len {
                if coupled[row] {
                    return invalid(format!("row {row} is both local and coupling"));
                }
                local_of[row] = 0;
            }
        }
        let locals: Vec<usize> = (0..p).filter(|&row| local_of[row] != NO_ROW).collect();
        let coupling = (0..p).filter(|&row| local_of[row] == NO_ROW).collect();
        for (jl, &row) in locals.iter().enumerate() {
            local_of[row] = jl;
        }
        let runs = runs
            .into_iter()
            .map(|run| Run {
                local: local_of[run.row],
                ..run
            })
            .collect();
        Ok(BlockedPlan {
            locals,
            coupling,
            runs,
            vals,
            classes,
        })
    }

    fn detect(u: &CscMatrix) -> BlockedPlan {
        let rm = RowMajor::of(u);
        // Greedy: sparse rows claim columns first (ties broken by row index
        // for determinism), so the J thin demand rows beat the wide
        // group/capacity rows.
        let mut order: Vec<usize> = (0..u.nrows()).collect();
        order.sort_by_key(|&i| (rm.cols(i).len(), i));
        let first = Self::greedy(u, &rm, &order);
        if first.classes.len() <= first.locals.len() {
            return first;
        }
        // ℙ₂ with J ≤ I lands here: its group rows (and Explicit's capacity
        // rows, which have the same columns) won, leaving every column its
        // own class. Moving every row that repeats a local's columns last
        // lets the demand rows win instead.
        let mut owner = vec![usize::MAX; u.ncols()];
        let mut width = vec![0usize; first.locals.len()];
        for run in first.runs.iter().filter(|run| run.row != NO_ROW) {
            for t in 0..run.len {
                owner[run.col + t] = run.local + t;
                width[run.local + t] += 1;
            }
        }
        let repeats_a_local = |i: usize| {
            let cols = rm.cols(i);
            cols.first().is_some_and(|&k| {
                let jl = owner[k];
                jl != usize::MAX && cols.len() == width[jl] && cols.iter().all(|&c| owner[c] == jl)
            })
        };
        let (mut retry, back): (Vec<usize>, Vec<usize>) =
            order.iter().partition(|&&i| !repeats_a_local(i));
        retry.extend(back);
        let second = Self::greedy(u, &rm, &retry);
        if second.classes.len() < first.classes.len() {
            second
        } else {
            first
        }
    }

    /// The plan that takes rows as locals in `order`: a row becomes local
    /// if none of its columns belongs to an earlier local.
    fn greedy(u: &CscMatrix, rm: &RowMajor, order: &[usize]) -> BlockedPlan {
        let (p, n) = (u.nrows(), u.ncols());
        let mut owned = vec![false; n];
        let mut is_local = vec![false; p];
        for &i in order {
            let cols = rm.cols(i);
            if cols.iter().all(|&k| !owned[k]) {
                for &k in cols {
                    owned[k] = true;
                }
                is_local[i] = true;
            }
        }
        let locals: Vec<usize> = (0..p).filter(|&i| is_local[i]).collect();
        let coupling: Vec<usize> = (0..p).filter(|&i| !is_local[i]).collect();
        // Each column's local row, as (row, index into `locals`), and its
        // entry there.
        let mut local_of = vec![(NO_ROW, NO_ROW); n];
        let mut vals = vec![0.0; n];
        for (jl, &i) in locals.iter().enumerate() {
            for (&k, &v) in rm.cols(i).iter().zip(rm.vals(i)) {
                local_of[k] = (i, jl);
                vals[k] = v;
            }
        }
        let (class_of, reps) = column_classes(u, &is_local);
        let mut runs: Vec<Run> = Vec::new();
        for k in 0..n {
            let ((row, local), class) = (local_of[k], class_of[k]);
            if let Some(last) = runs.last_mut() {
                let next_row = if row == NO_ROW {
                    last.row == NO_ROW
                } else {
                    last.row != NO_ROW && last.row + last.len == row
                };
                if next_row && last.class == class {
                    last.len += 1;
                    continue;
                }
            }
            runs.push(Run {
                col: k,
                len: 1,
                row,
                local,
                class,
            });
        }
        let mut tptr = Vec::with_capacity(reps.len() + 1);
        let (mut trows, mut tvals) = (Vec::new(), Vec::new());
        tptr.push(0);
        for &rep in &reps {
            let (rows, vals) = u.col(rep);
            for (&rr, &v) in rows.iter().zip(vals) {
                if !is_local[rr] {
                    trows.push(rr);
                    tvals.push(v);
                }
            }
            tptr.push(trows.len());
        }
        BlockedPlan {
            locals,
            coupling,
            runs,
            vals,
            classes: ColumnClasses { tptr, trows, tvals },
        }
    }
}

/// Groups the columns of `u` by their coupling column: the (row, value
/// bits) pairs of their entries outside the local rows. Returns each
/// column's class ([`NO_CLASS`] for a column without coupling entries) and
/// one representative column per class, classes numbered by first
/// appearance. One O(nnz) pass with no per-column allocation. A column
/// that repeats the previous column's coupling entries takes its class
/// without hashing (ℙ₂'s columns come cloud by cloud, so all but I of
/// them do); any other is hashed, looked up in a hash → first-class map,
/// and settled against a per-class chain of classes with the same hash by
/// comparing entries.
fn column_classes(u: &CscMatrix, is_local: &[bool]) -> (Vec<usize>, Vec<usize>) {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let coupling_entries = |k: usize| {
        let (rows, vals) = u.col(k);
        rows.iter()
            .zip(vals)
            .filter(|&(&rr, _)| !is_local[rr])
            .map(|(&rr, &v)| (rr, v.to_bits()))
    };
    let mut class_of = vec![NO_CLASS; u.ncols()];
    let mut reps: Vec<usize> = Vec::new();
    // Next class with the same hash, or NO_CLASS.
    let mut next_same_hash: Vec<usize> = Vec::new();
    let mut first_by_hash: HashMap<u64, usize> = HashMap::new();
    for k in 0..u.ncols() {
        if k > 0 && class_of[k - 1] != NO_CLASS && coupling_entries(k - 1).eq(coupling_entries(k)) {
            class_of[k] = class_of[k - 1];
            continue;
        }
        let mut hash = FNV_OFFSET;
        let mut empty = true;
        for (rr, bits) in coupling_entries(k) {
            hash = (hash ^ rr as u64).wrapping_mul(FNV_PRIME);
            hash = (hash ^ bits).wrapping_mul(FNV_PRIME);
            empty = false;
        }
        if empty {
            continue;
        }
        let mut class = *first_by_hash.entry(hash).or_insert(reps.len());
        while class < reps.len() && !coupling_entries(reps[class]).eq(coupling_entries(k)) {
            if next_same_hash[class] == NO_CLASS {
                next_same_hash[class] = reps.len();
            }
            class = next_same_hash[class];
        }
        if class == reps.len() {
            reps.push(k);
            next_same_hash.push(NO_CLASS);
        }
        class_of[k] = class;
    }
    (class_of, reps)
}

/// Eliminates every local row of `plan` into `ws`, writing each row's pivot
/// `sdd_j = 1/e_j + Σ_k u_jk²/d_k` and class-space border
/// `v_j[c] = Σ_{k∈j,c} u_jk/d_k`, and adding its net contribution to `K`
/// — its own Gram `diag(g_j)`, `g_j[c] = Σ_{k∈j,c} 1/d_k`, minus its
/// rank-1 elimination `v_j v_jᵀ / sdd_j`. One pass over the runs adds
/// every column to its row's pivot, Gram and border, each row's sums in
/// ascending column order. Then every entry of `K` takes its rows' terms
/// in row order, O(m²) per row. Inactive local rows skip elimination but
/// still add their Gram — every column must feed `K` exactly once.
fn eliminate_local_rows(
    plan: &BlockedPlan,
    d: &[f64],
    e: &[f64],
    ws: &mut DiagPlusLowRankWorkspace,
) {
    let (nl, m) = (plan.locals.len(), plan.classes.len());
    let DiagPlusLowRankWorkspace {
        sdd,
        border,
        kmat,
        gram,
        factors,
        ..
    } = ws;
    kmat.resize_reset(m, m);
    sdd.clear();
    sdd.extend(plan.locals.iter().map(|&row| {
        if e[row] > ACTIVE_EPS {
            1.0 / e[row]
        } else {
            0.0
        }
    }));
    border.clear();
    border.resize(m * nl, 0.0);
    gram.clear();
    gram.resize(m * nl, 0.0);
    for run in plan.runs.iter().filter(|run| run.row != NO_ROW) {
        let cols = run.col..run.col + run.len;
        let locals = run.local..run.local + run.len;
        let (vals, d) = (&plan.vals[cols.clone()], &d[cols]);
        let pivots = &mut sdd[locals.clone()];
        if run.class == NO_CLASS {
            for ((pivot, &ujk), &dk) in pivots.iter_mut().zip(vals).zip(d) {
                let uj = ujk * (1.0 / dk);
                *pivot += uj * ujk;
            }
            continue;
        }
        let at = run.class * nl;
        let grams = &mut gram[at..at + nl][locals.clone()];
        let borders = &mut border[at..at + nl][locals];
        for ((((pivot, g), v), &ujk), &dk) in
            pivots.iter_mut().zip(grams).zip(borders).zip(vals).zip(d)
        {
            let dk_inv = 1.0 / dk;
            let uj = ujk * dk_inv;
            *pivot += uj * ujk;
            *g += dk_inv;
            *v += uj;
        }
    }
    // Each row's elimination factors `f_j[c] = v_j[c] / sdd_j`,
    // class-major like `border`.
    let class = |c: usize| c * nl..(c + 1) * nl;
    factors.clear();
    factors.resize(m * nl, 0.0);
    for c in 0..m {
        for ((fj, &vj), &pivot) in factors[class(c)]
            .iter_mut()
            .zip(&border[class(c)])
            .zip(sdd.iter())
        {
            *fj = vj / pivot;
        }
    }
    // An inactive row's pass summed its pivot and border too. Zero
    // factors and border leave it only its Gram in `K`:
    // `k + (g − 0·0)` is `k + g`, and `k − 0·0` is `k`.
    for (jl, &row) in plan.locals.iter().enumerate() {
        if !(e[row] > ACTIVE_EPS) {
            sdd[jl] = 0.0;
            for c in 0..m {
                border[c * nl + jl] = 0.0;
                factors[c * nl + jl] = 0.0;
            }
        }
    }
    // Row j adds `g_j[a] − f_j[a]·v_j[a]` to `K[a, a]` and subtracts
    // `f_j[a]·v_j[b]` from `K[b, a]`, b > a. Each entry takes its rows in
    // row order; entries are independent, so four run side by side.
    let (fs, vs, gs) = (&*factors, &*border, &*gram);
    for a in 0..m {
        let col = kmat.column_mut(a);
        let (f, v, g) = (&fs[class(a)], &vs[class(a)], &gs[class(a)]);
        let mut kaa = col[a];
        for ((&fj, &vj), &gj) in f.iter().zip(v).zip(g) {
            kaa += gj - fj * vj;
        }
        col[a] = kaa;
        for first in (a + 1..m).step_by(4) {
            // A group of fewer than four repeats its last entry and keeps
            // only its own.
            let bs: [Option<usize>; 4] =
                std::array::from_fn(|l| (first + l < m).then_some(first + l));
            let b = bs.map(|b| b.unwrap_or(m - 1));
            let (v0, v1, v2, v3) = (
                &vs[class(b[0])],
                &vs[class(b[1])],
                &vs[class(b[2])],
                &vs[class(b[3])],
            );
            let mut k = b.map(|b| col[b]);
            for j in 0..nl {
                let fj = f[j];
                k[0] -= fj * v0[j];
                k[1] -= fj * v1[j];
                k[2] -= fj * v2[j];
                k[3] -= fj * v3[j];
            }
            for (slot, value) in bs.iter().zip(k) {
                if let Some(b) = *slot {
                    col[b] = value;
                }
            }
        }
    }
}

/// Reusable scratch for [`DiagPlusLowRank::solve_into`]: active-row
/// bookkeeping, the per-local-row pivots and borders, the class matrix `K`,
/// and the coupling block `S` with its Cholesky factor. Create once (per
/// solver or per horizon) and reuse across Newton steps *and* across
/// successive solves — the buffers keep their capacity, so steady-state
/// solves allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct DiagPlusLowRankWorkspace {
    /// Active coupling rows.
    active: Vec<usize>,
    /// Row index → active index (`usize::MAX` elsewhere).
    row_of: Vec<usize>,
    z: Vec<f64>,
    s: DenseMatrix,
    l: DenseMatrix,
    uz: Vec<f64>,
    wq: Vec<f64>,
    w: Vec<f64>,
    /// Pivot `sdd_j` per local row (0 when inactive).
    sdd: Vec<f64>,
    /// Class-space borders `v_j`, class-major: class `c`'s entries of
    /// every local row are `border[c·J..(c+1)·J]`.
    border: Vec<f64>,
    /// The local rows' Grams `g_j`, class-major like `border`.
    gram: Vec<f64>,
    /// The elimination factors `v_j / sdd_j`, class-major like `border`.
    factors: Vec<f64>,
    /// The class matrix `K` (lower triangle).
    kmat: DenseMatrix,
    /// `T`'s nonzeros over the active coupling rows, each row as its
    /// active index.
    active_t: ColumnClasses,
    /// `T K` (qc × m).
    class_tk: DenseMatrix,
    /// The per-class sums of `z` while the back-solve forms `U z`, then
    /// `Tᵀ w_C` for the back-substitution.
    class_y: Vec<f64>,
    /// The rhs's class-space elimination `ρ`.
    rho: Vec<f64>,
    /// Each local row's `v_j · (Tᵀ w_C)`.
    dot: Vec<f64>,
}

impl DiagPlusLowRankWorkspace {
    /// A workspace pre-sized for `solver` (all rows active), so even the
    /// first solve performs no further allocation. The Schur block is
    /// sized for the coupling rows only.
    pub fn for_solver(solver: &DiagPlusLowRank) -> Self {
        let n = solver.dim();
        let p = solver.rank();
        let plan = &solver.plan;
        let (q, nl, m) = (plan.coupling.len(), plan.locals.len(), plan.classes.len());
        let nnz_t = plan.classes.trows.len();
        DiagPlusLowRankWorkspace {
            active: Vec::with_capacity(q),
            row_of: vec![usize::MAX; p],
            z: vec![0.0; n],
            s: DenseMatrix::zeros(q, q),
            l: DenseMatrix::zeros(q, q),
            uz: vec![0.0; p],
            wq: Vec::with_capacity(q),
            w: vec![0.0; p],
            sdd: vec![0.0; nl],
            border: vec![0.0; nl * m],
            gram: vec![0.0; nl * m],
            factors: vec![0.0; nl * m],
            kmat: DenseMatrix::zeros(m, m),
            active_t: ColumnClasses {
                tptr: Vec::with_capacity(m + 1),
                trows: Vec::with_capacity(nnz_t),
                tvals: Vec::with_capacity(nnz_t),
            },
            class_tk: DenseMatrix::zeros(q, m),
            class_y: Vec::with_capacity(m),
            rho: Vec::with_capacity(m),
            dot: vec![0.0; nl],
        }
    }

    /// Ridge-retry Cholesky: factor the leading `q × q` of `s` into `l`.
    /// The Schur complement is PSD in exact arithmetic; with extreme
    /// barrier weights it can lose definiteness to round-off, so retry
    /// with an escalating ridge before giving up. The factorization works
    /// on `l`, re-copied from the untouched `s` per attempt.
    fn factor_with_ridge(&mut self, q: usize) -> Result<()> {
        let mut ridge = 0.0f64;
        let base: f64 = (0..q).map(|i| self.s.get(i, i)).fold(1e-300, f64::max);
        loop {
            self.l.copy_values_from(&self.s);
            if ridge > 0.0 {
                for i in 0..q {
                    self.l.add(i, i, ridge);
                }
            }
            match self.l.cholesky_in_place() {
                Ok(()) => return Ok(()),
                Err(_) if ridge < base * 1e-2 => {
                    ridge = if ridge == 0.0 {
                        base * 1e-12
                    } else {
                        ridge * 100.0
                    };
                }
                Err(_) => {
                    return Err(Error::Numerical(
                        "Schur complement not positive definite".into(),
                    ))
                }
            }
        }
    }
}

/// The class-space passes as they were before the run layout: each local
/// row's columns listed in ascending order with their values and classes,
/// the free columns after them, the borders row-major, and `K` updated row
/// by row. Kept verbatim as the oracle the run layout must match bit for
/// bit on every ℙ₂.
#[cfg(test)]
pub(super) mod oracle {
    use super::*;

    /// The former column layout, rebuilt from the runs.
    pub(in crate::convex) struct RowLayout {
        /// Per-local-row extent into `lcols`/`lvals`/`local`.
        lptr: Vec<usize>,
        /// Columns owned by each local row, ascending.
        lcols: Vec<usize>,
        /// `U[row, col]` for each owned column.
        lvals: Vec<f64>,
        /// Class of each `lcols` entry.
        local: Vec<usize>,
        /// Columns owned by no local row, ascending.
        free_cols: Vec<usize>,
        /// Class of each free column.
        free: Vec<usize>,
    }

    impl RowLayout {
        pub(in crate::convex) fn of(op: &DiagPlusLowRank) -> RowLayout {
            let plan = &op.plan;
            let mut rows: Vec<Vec<(usize, f64, usize)>> = vec![Vec::new(); plan.locals.len()];
            let (mut free_cols, mut free) = (Vec::new(), Vec::new());
            // The runs ascend by column, so each row's columns do too.
            for run in &plan.runs {
                for t in 0..run.len {
                    let k = run.col + t;
                    if run.row == NO_ROW {
                        free_cols.push(k);
                        free.push(run.class);
                    } else {
                        rows[run.local + t].push((k, plan.vals[k], run.class));
                    }
                }
            }
            let mut lay = RowLayout {
                lptr: vec![0],
                lcols: Vec::new(),
                lvals: Vec::new(),
                local: Vec::new(),
                free_cols,
                free,
            };
            for row in rows {
                for (k, v, c) in row {
                    lay.lcols.push(k);
                    lay.lvals.push(v);
                    lay.local.push(c);
                }
                lay.lptr.push(lay.lcols.len());
            }
            lay
        }
    }

    /// The former `DiagPlusLowRank::mul_rows_into`.
    pub(in crate::convex) fn mul_rows_into(
        op: &DiagPlusLowRank,
        lay: &RowLayout,
        lo: usize,
        x: &[f64],
        class_sum: &mut [f64],
        out: &mut [f64],
    ) {
        let plan = &op.plan;
        let classes = &plan.classes;
        class_sum.fill(0.0);
        for (jl, &row) in plan.locals.iter().enumerate() {
            let span = lay.lptr[jl]..lay.lptr[jl + 1];
            let mut acc = 0.0;
            for ((&k, &v), &c) in lay.lcols[span.clone()]
                .iter()
                .zip(&lay.lvals[span.clone()])
                .zip(&lay.local[span])
            {
                let xk = x[k];
                if xk != 0.0 {
                    acc += v * xk;
                }
                if c != NO_CLASS {
                    class_sum[c] += xk;
                }
            }
            if row >= lo {
                out[row - lo] = acc;
            }
        }
        for (&k, &c) in lay.free_cols.iter().zip(&lay.free) {
            if c != NO_CLASS {
                class_sum[c] += x[k];
            }
        }
        for &row in plan.coupling.iter().filter(|&&row| row >= lo) {
            out[row - lo] = 0.0;
        }
        for (c, &sum) in class_sum.iter().enumerate() {
            let (rows, vals) = classes.t_col(c);
            for (&row, &v) in rows.iter().zip(vals) {
                if row >= lo {
                    out[row - lo] += v * sum;
                }
            }
        }
    }

    /// The former `DiagPlusLowRank::mul_transpose_rows_into`.
    pub(in crate::convex) fn mul_transpose_rows_into(
        op: &DiagPlusLowRank,
        lay: &RowLayout,
        lo: usize,
        y: &[f64],
        class_y: &mut [f64],
        out: &mut [f64],
    ) {
        let classes = &op.plan.classes;
        for (c, slot) in class_y.iter_mut().enumerate() {
            let (rows, vals) = classes.t_col(c);
            *slot = rows
                .iter()
                .zip(vals)
                .filter(|&(&row, _)| row >= lo)
                .map(|(&row, &v)| v * y[row - lo])
                .sum();
        }
        let local = |row: usize| if row >= lo { y[row - lo] } else { 0.0 };
        transpose_each(op, lay, local, class_y, |k, v| out[k] = v);
    }

    /// The former `BlockedPlan::transpose_each`.
    fn transpose_each(
        op: &DiagPlusLowRank,
        lay: &RowLayout,
        local_y: impl Fn(usize) -> f64,
        class_y: &[f64],
        mut emit: impl FnMut(usize, f64),
    ) {
        for (jl, &row) in op.plan.locals.iter().enumerate() {
            let y = local_y(row);
            let span = lay.lptr[jl]..lay.lptr[jl + 1];
            for ((&k, &v), &c) in lay.lcols[span.clone()]
                .iter()
                .zip(&lay.lvals[span.clone()])
                .zip(&lay.local[span])
            {
                let gather = if c == NO_CLASS { 0.0 } else { class_y[c] };
                emit(k, v * y + gather);
            }
        }
        for (&k, &c) in lay.free_cols.iter().zip(&lay.free) {
            emit(k, if c == NO_CLASS { 0.0 } else { class_y[c] });
        }
    }

    /// The dense `T` (over the active coupling rows) and `T K` the
    /// workspace held before the coupling block was assembled from `T`'s
    /// nonzeros.
    #[derive(Debug, Clone, Default)]
    pub(in crate::convex) struct DenseT {
        class_t: DenseMatrix,
        class_tk: DenseMatrix,
    }

    /// The former `DiagPlusLowRank::assemble_coupling`, its `T` and `T K`
    /// in `dense`.
    fn assemble_coupling(
        op: &DiagPlusLowRank,
        d: &[f64],
        e: &[f64],
        ws: &mut DiagPlusLowRankWorkspace,
        dense: &mut DenseT,
    ) {
        let plan = &op.plan;
        let qc = ws.active.len();
        let classes = &plan.classes;
        let m = classes.len();
        for run in &plan.runs {
            if run.row == NO_ROW && run.class != NO_CLASS {
                for &dk in &d[run.col..run.col + run.len] {
                    ws.kmat.add(run.class, run.class, 1.0 / dk);
                }
            }
        }
        let kmat = &ws.kmat;

        let t = &mut dense.class_t;
        t.resize_reset(qc, m);
        for c in 0..m {
            let (rows, vals) = classes.t_col(c);
            for (&rr, &v) in rows.iter().zip(vals) {
                let ci = ws.row_of[rr];
                if ci != usize::MAX {
                    t.set(ci, c, v);
                }
            }
        }
        // T K, one axpy of a T column per entry of the symmetric K.
        let tk = &mut dense.class_tk;
        tk.resize_reset(qc, m);
        for b in 0..m {
            for a in 0..m {
                let kab = if a >= b {
                    kmat.get(a, b)
                } else {
                    kmat.get(b, a)
                };
                if kab == 0.0 {
                    continue;
                }
                let t_a = t.column(a);
                for (x, &ta) in tk.column_mut(b).iter_mut().zip(t_a) {
                    *x += ta * kab;
                }
            }
        }
        ws.s.resize_reset(qc, qc);
        for j in 0..qc {
            for i in j..qc {
                let tkt: f64 = (0..m).map(|c| tk.get(i, c) * t.get(j, c)).sum();
                ws.s.set(i, j, tkt);
            }
            ws.s.add(j, j, 1.0 / e[ws.active[j]]);
        }
    }

    /// The former `DiagPlusLowRank::factor`: its borders go into
    /// `ws.border` row-major (`jl·m + c`), `ws.gram` is one row's Gram,
    /// and `dense` receives `T` and `T K`.
    pub(in crate::convex) fn factor(
        op: &DiagPlusLowRank,
        lay: &RowLayout,
        d: &[f64],
        e: &[f64],
        ws: &mut DiagPlusLowRankWorkspace,
        dense: &mut DenseT,
    ) {
        let plan = &op.plan;
        ws.active.clear();
        ws.active
            .extend(plan.coupling.iter().copied().filter(|&i| e[i] > ACTIVE_EPS));
        ws.row_of.clear();
        ws.row_of.resize(op.rank(), usize::MAX);
        for (ci, &i) in ws.active.iter().enumerate() {
            ws.row_of[i] = ci;
        }
        let qc = ws.active.len();
        eliminate_local_rows(plan, lay, d, e, ws);
        assemble_coupling(op, d, e, ws, dense);
        if qc > 0 {
            ws.factor_with_ridge(qc).expect("oracle factors");
        }
    }

    /// The former `eliminate_local_rows`.
    fn eliminate_local_rows(
        plan: &BlockedPlan,
        lay: &RowLayout,
        d: &[f64],
        e: &[f64],
        ws: &mut DiagPlusLowRankWorkspace,
    ) {
        let (nl, m) = (plan.locals.len(), plan.classes.len());
        let DiagPlusLowRankWorkspace {
            sdd,
            border,
            kmat,
            gram,
            ..
        } = ws;
        kmat.resize_reset(m, m);
        sdd.clear();
        sdd.resize(nl, 0.0);
        border.clear();
        border.resize(nl * m, 0.0);
        gram.clear();
        gram.resize(m, 0.0);
        for (jl, sdd_slot) in sdd.iter_mut().enumerate() {
            let row = plan.locals[jl];
            let span = lay.lptr[jl]..lay.lptr[jl + 1];
            let cols = &lay.lcols[span.clone()];
            let vals = &lay.lvals[span.clone()];
            let class = &lay.local[span];
            let active = e[row] > ACTIVE_EPS;
            let v = &mut border[jl * m..(jl + 1) * m];
            v.fill(0.0);
            gram.fill(0.0);
            let mut pivot = if active { 1.0 / e[row] } else { 0.0 };
            for ((&k, &ujk), &c) in cols.iter().zip(vals).zip(class) {
                let dk_inv = 1.0 / d[k];
                let uj = ujk * dk_inv;
                if active {
                    pivot += uj * ujk;
                }
                if c != NO_CLASS {
                    gram[c] += dk_inv;
                    if active {
                        v[c] += uj;
                    }
                }
            }
            *sdd_slot = pivot;
            if !active {
                for (c, &g) in gram.iter().enumerate() {
                    kmat.add(c, c, g);
                }
                continue;
            }
            for a in 0..m {
                let va = v[a];
                let fa = va / pivot;
                let col = kmat.column_mut(a);
                col[a] += gram[a] - fa * va;
                for (x, &vb) in col[a + 1..].iter_mut().zip(&v[a + 1..]) {
                    *x -= fa * vb;
                }
            }
        }
    }

    /// The former `DiagPlusLowRank::back_solve`, against a factorization
    /// [`factor`] left in `ws` and `dense`.
    pub(in crate::convex) fn back_solve(
        op: &DiagPlusLowRank,
        lay: &RowLayout,
        d: &[f64],
        r: &[f64],
        ws: &mut DiagPlusLowRankWorkspace,
        dense: &DenseT,
        dx: &mut [f64],
    ) {
        let n = op.dim();
        ws.z.resize(n, 0.0);
        for k in 0..n {
            ws.z[k] = r[k] / d[k];
        }
        let plan = &op.plan;
        let p = op.rank();
        let m = plan.classes.len();
        ws.uz.resize(p, 0.0);
        ws.class_y.resize(m, 0.0);
        mul_rows_into(op, lay, 0, &ws.z, &mut ws.class_y, &mut ws.uz);
        ws.rho.clear();
        ws.rho.resize(m, 0.0);
        for (jl, &row) in plan.locals.iter().enumerate() {
            let pivot = ws.sdd[jl];
            if pivot > 0.0 {
                let scale = ws.uz[row] / pivot;
                let v = &ws.border[jl * m..(jl + 1) * m];
                for (r, &va) in ws.rho.iter_mut().zip(v) {
                    *r += va * scale;
                }
            }
        }
        let t = &dense.class_t;
        ws.wq.clear();
        ws.wq.extend(ws.active.iter().enumerate().map(|(ci, &i)| {
            let t_rho: f64 = (0..m).map(|c| t.get(ci, c) * ws.rho[c]).sum();
            ws.uz[i] - t_rho
        }));
        if !ws.active.is_empty() {
            ws.l.chol_solve_in_place(&mut ws.wq);
        }
        ws.w.clear();
        ws.w.resize(p, 0.0);
        for (ci, &i) in ws.active.iter().enumerate() {
            ws.w[i] = ws.wq[ci];
        }
        ws.class_y.clear();
        ws.class_y.extend((0..m).map(|c| {
            let t_c = t.column(c);
            t_c.iter().zip(&ws.wq).map(|(a, b)| a * b).sum::<f64>()
        }));
        for (jl, &row) in plan.locals.iter().enumerate() {
            let pivot = ws.sdd[jl];
            if pivot > 0.0 {
                let v = &ws.border[jl * m..(jl + 1) * m];
                let dot: f64 = v.iter().zip(&ws.class_y).map(|(a, b)| a * b).sum();
                ws.w[row] = (ws.uz[row] - dot) / pivot;
            }
        }
        let (w, z) = (&ws.w, &ws.z);
        transpose_each(
            op,
            lay,
            |row| w[row],
            &ws.class_y,
            |k, utw| {
                dx[k] = z[k] - utw / d[k];
            },
        );
    }

    /// Requires the factorization in `ws` to be [`factor`]'s in `old`, bit
    /// for bit: every pivot, every border entry (class-major against
    /// row-major), `K`, the coupling block `S` and its Cholesky factor.
    pub(in crate::convex) fn assert_same_factor(
        op: &DiagPlusLowRank,
        ws: &DiagPlusLowRankWorkspace,
        old: &DiagPlusLowRankWorkspace,
        what: &str,
    ) {
        let (nl, m) = (op.plan.locals.len(), op.plan.classes.len());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ws.sdd), bits(&old.sdd), "{what}: pivots");
        for jl in 0..nl {
            for c in 0..m {
                let (got, want) = (ws.border[c * nl + jl], old.border[jl * m + c]);
                assert_eq!(got.to_bits(), want.to_bits(), "{what}: border ({jl}, {c})");
            }
        }
        for a in 0..m {
            for b in a..m {
                let (got, want) = (ws.kmat.get(b, a), old.kmat.get(b, a));
                assert_eq!(got.to_bits(), want.to_bits(), "{what}: K ({b}, {a})");
            }
        }
        let qc = ws.active.len();
        assert_eq!(ws.active, old.active, "{what}: active rows");
        for j in 0..qc {
            for i in j..qc {
                let (got, want) = (ws.s.get(i, j), old.s.get(i, j));
                assert_eq!(got.to_bits(), want.to_bits(), "{what}: S ({i}, {j})");
                let (got, want) = (ws.l.get(i, j), old.l.get(i, j));
                assert_eq!(got.to_bits(), want.to_bits(), "{what}: L ({i}, {j})");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplets;

    /// Dense reference: build M = D + UᵀEU and solve by LU.
    fn dense_solve(u: &CscMatrix, d: &[f64], e: &[f64], r: &[f64]) -> Vec<f64> {
        let n = u.ncols();
        let p = u.nrows();
        let ud = u.to_dense();
        let mut m = DenseMatrix::zeros(n, n);
        for k in 0..n {
            m.set(k, k, d[k]);
        }
        for i in 0..p {
            for a in 0..n {
                for b in 0..n {
                    m.add(a, b, ud[i][a] * e[i] * ud[i][b]);
                }
            }
        }
        m.lu().unwrap().solve(r)
    }

    /// An arrow-structured coupling: `users` local rows of `width` disjoint
    /// columns each, plus `coup` rows touching every column.
    fn arrow_u(users: usize, width: usize, coup: usize) -> CscMatrix {
        let n = users * width;
        let mut t = Triplets::new(users + coup, n);
        for j in 0..users {
            for w in 0..width {
                t.push(j, j * width + w, 1.0 + 0.1 * (w as f64) + 0.01 * (j as f64));
            }
        }
        for c in 0..coup {
            for k in 0..n {
                t.push(users + c, k, 0.5 + 0.05 * ((c + k) % 7) as f64);
            }
        }
        t.to_csc()
    }

    /// ℙ₂'s coupling pattern as `BarrierSolver` stacks it: one group row
    /// per cloud, one demand row per user, then one capacity row per cloud
    /// — the paper's (10b) rows (all clouds but i) or, with `explicit`,
    /// `−Σ_j x_ij` rows. Column `k = i·users + j`.
    fn p2_u(clouds: usize, users: usize, explicit: bool) -> CscMatrix {
        p2_u_grouped(clouds, users, explicit, &vec![true; clouds])
    }

    /// [`p2_u`] with a group row only for the clouds `grouped` marks.
    fn p2_u_grouped(clouds: usize, users: usize, explicit: bool, grouped: &[bool]) -> CscMatrix {
        let group_row: Vec<Option<usize>> = grouped
            .iter()
            .scan(0, |next, &has| {
                let row = has.then_some(*next);
                *next += usize::from(has);
                Some(row)
            })
            .collect();
        let g = grouped.iter().filter(|&&has| has).count();
        let mut t = Triplets::new(g + users + clouds, clouds * users);
        for i in 0..clouds {
            for j in 0..users {
                let k = i * users + j;
                if let Some(row) = group_row[i] {
                    t.push(row, k, 1.0);
                }
                t.push(g + j, k, 1.0);
                if explicit {
                    t.push(g + users + i, k, -1.0);
                } else {
                    for other in (0..clouds).filter(|&o| o != i) {
                        t.push(g + users + other, k, 1.0);
                    }
                }
            }
        }
        t.to_csc()
    }

    /// Each column's (local row, class) from the plan's runs, after
    /// checking the runs: ascending, covering every column once, each in
    /// consecutive local rows with the values of `u`, and maximal.
    fn columns(plan: &BlockedPlan, u: &CscMatrix) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (r, run) in plan.runs.iter().enumerate() {
            assert_eq!(run.col, out.len(), "runs ascend and cover every column");
            assert!(run.len > 0);
            for t in 0..run.len {
                let k = run.col + t;
                if run.row == NO_ROW {
                    assert_eq!(plan.vals[k], 0.0);
                    out.push((NO_ROW, run.class));
                } else {
                    let row = run.row + t;
                    assert_eq!(plan.locals[run.local + t], row, "consecutive local rows");
                    assert_eq!(plan.vals[k].to_bits(), u.get(row, k).to_bits());
                    out.push((row, run.class));
                }
            }
            if let Some(next) = plan.runs.get(r + 1) {
                let rows_follow = match (run.row, next.row) {
                    (NO_ROW, NO_ROW) => true,
                    (NO_ROW, _) | (_, NO_ROW) => false,
                    (a, b) => a + run.len == b,
                };
                assert!(
                    !(rows_follow && run.class == next.class),
                    "runs are maximal"
                );
            }
        }
        assert_eq!(out.len(), u.ncols());
        out
    }

    /// The kernel against dense LU on one system, with a varied diagonal,
    /// weights and rhs and the listed rows inert.
    fn assert_blocked_matches_dense(u: &CscMatrix, inert: &[usize]) {
        let (n, p) = (u.ncols(), u.nrows());
        let d: Vec<f64> = (0..n).map(|k| 0.5 + (k % 9) as f64 * 0.3).collect();
        let mut e: Vec<f64> = (0..p).map(|i| 0.2 + (i % 5) as f64 * 0.7).collect();
        for &i in inert {
            e[i] = 0.0;
        }
        let r: Vec<f64> = (0..n).map(|k| ((k as f64) * 0.37).sin()).collect();
        let xb = DiagPlusLowRank::new(u.clone()).solve(&d, &e, &r).unwrap();
        let xref = dense_solve(u, &d, &e, &r);
        for k in 0..n {
            assert!((xb[k] - xref[k]).abs() < 1e-10, "blocked vs LU at {k}");
        }
    }

    #[test]
    fn matches_dense_reference() {
        let mut t = Triplets::new(3, 5);
        t.push(0, 0, 1.0);
        t.push(0, 1, 1.0);
        t.push(1, 2, 2.0);
        t.push(1, 3, -1.0);
        t.push(2, 0, 0.5);
        t.push(2, 4, 1.5);
        let u = t.to_csc();
        let d = [1.0, 2.0, 3.0, 4.0, 5.0];
        let e = [2.0, 0.5, 1.0];
        let r = [1.0, -1.0, 2.0, 0.0, 3.0];
        let solver = DiagPlusLowRank::new(u.clone());
        let x = solver.solve(&d, &e, &r).unwrap();
        let xref = dense_solve(&u, &d, &e, &r);
        for k in 0..5 {
            assert!((x[k] - xref[k]).abs() < 1e-9, "{x:?} vs {xref:?}");
        }
    }

    #[test]
    fn zero_curvature_rows_are_skipped() {
        let mut t = Triplets::new(2, 3);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        let u = t.to_csc();
        let d = [2.0, 2.0, 2.0];
        let e = [0.0, 4.0]; // first row inert
        let r = [2.0, 6.0, 2.0];
        let solver = DiagPlusLowRank::new(u.clone());
        let x = solver.solve(&d, &e, &r).unwrap();
        let xref = dense_solve(&u, &d, &e, &r);
        for k in 0..3 {
            assert!((x[k] - xref[k]).abs() < 1e-10);
        }
        // Variable 0 sees only D.
        assert!((x[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reused_workspace_matches_fresh_solves() {
        let mut t = Triplets::new(3, 5);
        t.push(0, 0, 1.0);
        t.push(0, 1, 1.0);
        t.push(1, 2, 2.0);
        t.push(1, 3, -1.0);
        t.push(2, 0, 0.5);
        t.push(2, 4, 1.5);
        let solver = DiagPlusLowRank::new(t.to_csc());
        let mut ws = DiagPlusLowRankWorkspace::for_solver(&solver);
        let mut dx = vec![0.0; 5];
        // Successive solves with different data (including a change of the
        // active set) through the same workspace must match the one-shot API.
        let cases: [(&[f64], &[f64], &[f64]); 3] = [
            (
                &[1.0, 2.0, 3.0, 4.0, 5.0],
                &[2.0, 0.5, 1.0],
                &[1.0, -1.0, 2.0, 0.0, 3.0],
            ),
            (
                &[2.0, 1.0, 1.0, 2.0, 1.0],
                &[0.0, 1.5, 2.0],
                &[0.5, 0.5, -1.0, 1.0, 0.0],
            ),
            (
                &[1.0, 1.0, 1.0, 1.0, 1.0],
                &[0.0, 0.0, 0.0],
                &[1.0, 2.0, 3.0, 4.0, 5.0],
            ),
        ];
        for (d, e, r) in cases {
            solver.solve_into(d, e, r, &mut ws, &mut dx).unwrap();
            let fresh = solver.solve(d, e, r).unwrap();
            for k in 0..5 {
                assert!((dx[k] - fresh[k]).abs() < 1e-14, "{dx:?} vs {fresh:?}");
            }
        }
    }

    #[test]
    fn pure_diagonal_when_no_active_rows() {
        let t = Triplets::new(1, 2);
        let solver = DiagPlusLowRank::new(t.to_csc());
        let x = solver.solve(&[4.0, 2.0], &[0.0], &[8.0, 8.0]).unwrap();
        assert_eq!(x, vec![2.0, 4.0]);
    }

    #[test]
    fn plan_detection_finds_arrow_structure() {
        let u = arrow_u(6, 3, 2);
        let plan = BlockedPlan::detect(&u);
        assert_eq!(plan.locals, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(plan.coupling, vec![6, 7]);
        // User j owns columns 3j..3j+3, all in row j: no two consecutive
        // columns lie in consecutive rows and one class, so every run is
        // one column long.
        let rows: Vec<usize> = columns(&plan, &u).iter().map(|&(row, _)| row).collect();
        assert_eq!(rows, (0..18).map(|k| k / 3).collect::<Vec<_>>());
        assert!(plan.runs.iter().all(|run| run.len == 1));
    }

    #[test]
    fn p2_patterns_have_one_class_per_cloud() {
        // More users than clouds, then no more users than clouds, where
        // the group rows are no wider than the demand rows.
        let shapes = [(4, 7), (4, 2), (4, 3), (4, 4), (15, 13), (3, 40)];
        for (clouds, users) in shapes {
            for explicit in [false, true] {
                let u = p2_u(clouds, users, explicit);
                let plan = BlockedPlan::detect(&u);
                let shape = format!("{clouds} × {users}, explicit = {explicit}");
                let cap = clouds + users;
                assert_eq!(plan.locals, (clouds..cap).collect::<Vec<_>>(), "{shape}");
                let classes = &plan.classes;
                assert_eq!(classes.len(), clouds, "one class per cloud: {shape}");
                // Class i's T column: group row i, then (10b) every other
                // cloud's capacity row or Explicit's −1 in cloud i's own.
                for i in 0..clouds {
                    let (rows, vals) = classes.t_col(i);
                    let (want_rows, want_vals): (Vec<usize>, Vec<f64>) = if explicit {
                        (vec![i, cap + i], vec![1.0, -1.0])
                    } else {
                        let rows = std::iter::once(i)
                            .chain((0..clouds).filter(|&o| o != i).map(|o| cap + o))
                            .collect();
                        (rows, vec![1.0; clouds])
                    };
                    assert_eq!((rows, vals), (&want_rows[..], &want_vals[..]), "{shape}");
                }
                // Exactly one run per cloud: variables [i·J, (i+1)·J) over
                // the J demand rows, in class i.
                let runs: Vec<Run> = (0..clouds)
                    .map(|i| Run {
                        col: i * users,
                        len: users,
                        row: clouds,
                        local: 0,
                        class: i,
                    })
                    .collect();
                assert_eq!(plan.runs, runs, "{shape}");
                columns(&plan, &u);
            }
        }
        // One user: the group rows are the locals, one column each, and
        // each cloud is still one run of its own class.
        for explicit in [false, true] {
            let u = p2_u(4, 1, explicit);
            let plan = BlockedPlan::detect(&u);
            assert_eq!(plan.locals, vec![0, 1, 2, 3]);
            let runs: Vec<(usize, usize, usize)> =
                plan.runs.iter().map(|r| (r.col, r.len, r.class)).collect();
            assert_eq!(runs, (0..4).map(|i| (i, 1, i)).collect::<Vec<_>>());
            columns(&plan, &u);
        }
        // A cloud with no group row keeps its own class and run.
        let u = p2_u_grouped(4, 6, false, &[true, false, true, true]);
        let plan = BlockedPlan::detect(&u);
        assert_eq!(plan.locals, (3..9).collect::<Vec<_>>());
        let runs: Vec<(usize, usize, usize)> =
            plan.runs.iter().map(|r| (r.col, r.len, r.class)).collect();
        assert_eq!(runs, (0..4).map(|i| (i * 6, 6, i)).collect::<Vec<_>>());
        for explicit in [false, true] {
            assert_blocked_matches_dense(&p2_u(4, 3, explicit), &[1, 4 + 2, 4 + 3 + 1]);
        }
    }

    /// The ℙ₂ patterns the run layout must serve bit for bit: (10b) and
    /// Explicit, fewer, as many and more users than clouds, one user, and
    /// a cloud with no group row.
    fn p2_cases() -> Vec<(String, CscMatrix)> {
        let mut cases = Vec::new();
        for explicit in [false, true] {
            for (clouds, users) in [(4, 2), (4, 4), (4, 9), (3, 1), (15, 24)] {
                let what = format!("{clouds} × {users}, explicit = {explicit}");
                cases.push((what, p2_u(clouds, users, explicit)));
            }
            let grouped = [true, false, true, true, true];
            let what = format!("5 × 7, cloud 1 ungrouped, explicit = {explicit}");
            cases.push((what, p2_u_grouped(5, 7, explicit, &grouped)));
        }
        cases
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn run_layout_matches_the_row_layout_bit_for_bit() {
        use super::oracle;
        for (what, u) in p2_cases() {
            let op = DiagPlusLowRank::new(u.clone());
            let lay = oracle::RowLayout::of(&op);
            let (n, p, m) = (op.dim(), op.rank(), op.num_classes());
            let g = p - n / m - m;
            let d: Vec<f64> = (0..n).map(|k| 0.3 + ((k * 7) % 13) as f64 * 0.21).collect();
            // A vector with exact and negative zeros, and y-like weights.
            let x: Vec<f64> = (0..n)
                .map(|k| match k % 5 {
                    1 => 0.0,
                    3 => -0.0,
                    _ => ((k as f64) * 0.73).sin(),
                })
                .collect();
            for inert in [vec![], vec![0, g + 1, p - 1]] {
                let mut e: Vec<f64> = (0..p).map(|i| 0.2 + ((i * 3) % 7) as f64 * 0.4).collect();
                for &i in &inert {
                    e[i] = 0.0;
                }
                let what = format!("{what}, inert rows {inert:?}");
                let mut ws = DiagPlusLowRankWorkspace::for_solver(&op);
                let (mut old, mut dense) = (ws.clone(), oracle::DenseT::default());
                op.factor(&d, &e, &mut ws).unwrap();
                oracle::factor(&op, &lay, &d, &e, &mut old, &mut dense);
                oracle::assert_same_factor(&op, &ws, &old, &what);
                // Two right-hand sides against one factorization.
                for r in [&x, &d] {
                    let (mut got, mut want) = (vec![0.0; n], vec![0.0; n]);
                    op.back_solve(&d, r, &mut ws, &mut got);
                    oracle::back_solve(&op, &lay, &d, r, &mut old, &dense, &mut want);
                    assert_eq!(bits(&got), bits(&want), "{what}: back-solve");
                }
                for lo in [0, g] {
                    let mut sums = (vec![0.0; m], vec![0.0; m]);
                    let (mut got, mut want) = (vec![f64::NAN; p - lo], vec![f64::NAN; p - lo]);
                    op.mul_rows_into(lo, &x, &mut sums.0, &mut got);
                    oracle::mul_rows_into(&op, &lay, lo, &x, &mut sums.1, &mut want);
                    assert_eq!(bits(&got), bits(&want), "{what}: U x from row {lo}");
                    assert_eq!(bits(&sums.0), bits(&sums.1), "{what}: class sums");
                    let y = &e[lo..];
                    let (mut got, mut want) = (vec![f64::NAN; n], vec![f64::NAN; n]);
                    op.mul_transpose_rows_into(lo, y, &mut sums.0, &mut got);
                    oracle::mul_transpose_rows_into(&op, &lay, lo, y, &mut sums.1, &mut want);
                    assert_eq!(bits(&got), bits(&want), "{what}: Uᵀ y from row {lo}");
                }
            }
        }
    }

    /// `column_classes` as it was before it compared each column with the
    /// previous one: every column hashed.
    fn column_classes_oracle(u: &CscMatrix, is_local: &[bool]) -> (Vec<usize>, Vec<usize>) {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let coupling_entries = |k: usize| {
            let (rows, vals) = u.col(k);
            rows.iter()
                .zip(vals)
                .filter(|&(&rr, _)| !is_local[rr])
                .map(|(&rr, &v)| (rr, v.to_bits()))
        };
        let mut class_of = vec![NO_CLASS; u.ncols()];
        let mut reps: Vec<usize> = Vec::new();
        let mut next_same_hash: Vec<usize> = Vec::new();
        let mut first_by_hash: HashMap<u64, usize> = HashMap::new();
        for k in 0..u.ncols() {
            let mut hash = FNV_OFFSET;
            let mut empty = true;
            for (rr, bits) in coupling_entries(k) {
                hash = (hash ^ rr as u64).wrapping_mul(FNV_PRIME);
                hash = (hash ^ bits).wrapping_mul(FNV_PRIME);
                empty = false;
            }
            if empty {
                continue;
            }
            let mut class = *first_by_hash.entry(hash).or_insert(reps.len());
            while class < reps.len() && !coupling_entries(reps[class]).eq(coupling_entries(k)) {
                if next_same_hash[class] == NO_CLASS {
                    next_same_hash[class] = reps.len();
                }
                class = next_same_hash[class];
            }
            if class == reps.len() {
                reps.push(k);
                next_same_hash.push(NO_CLASS);
            }
            class_of[k] = class;
        }
        (class_of, reps)
    }

    #[test]
    fn column_classes_keep_their_numbering() {
        let mut cases: Vec<CscMatrix> = p2_cases().into_iter().map(|(_, u)| u).collect();
        cases.push(arrow_u(9, 2, 3));
        // Columns that alternate between two coupling columns, repeat an
        // earlier one after a gap, or have none.
        let mut t = Triplets::new(3, 8);
        for (k, row) in [1, 2, 1, 1, 2, 0, 1, 0].into_iter().enumerate() {
            if row > 0 {
                t.push(row, k, 1.0);
            }
            t.push(0, k, 1.0);
        }
        cases.push(t.to_csc());
        for u in cases {
            let plan = BlockedPlan::detect(&u);
            let mut is_local = vec![false; u.nrows()];
            for &i in &plan.locals {
                is_local[i] = true;
            }
            assert_eq!(
                column_classes(&u, &is_local),
                column_classes_oracle(&u, &is_local)
            );
            // Every row local or none: no column has coupling entries, or
            // every entry is one.
            for all in [false, true] {
                let rows = vec![all; u.nrows()];
                assert_eq!(column_classes(&u, &rows), column_classes_oracle(&u, &rows));
            }
        }
    }

    #[test]
    fn declared_forms_are_checked() {
        // Row 0 couples; rows 1–3 are local. `bad` breaks one rule each:
        // descending coupling rows, a coupling row past U, a missing
        // class, a run past U's last row, a local row that also couples.
        let form = |classes: &[&[(usize, f64)]], runs: &[(usize, usize)]| {
            let mut form = ArrowForm::new(4);
            for &class in classes {
                form.push_class(class.iter().copied());
            }
            for &(row, class) in runs {
                form.push_run(row, class, [2.0, 3.0]);
            }
            form
        };
        let good = form(&[&[(0, 1.0)], &[]], &[(1, 0), (2, 1)]);
        let op = DiagPlusLowRank::declared(good).unwrap();
        assert_eq!((op.rank(), op.dim()), (4, 4));
        assert_eq!(op.plan.locals, vec![1, 2, 3]);
        assert_eq!(op.plan.coupling, vec![0]);
        let bad = [
            form(&[&[(2, 1.0), (0, 1.0)]], &[]),
            form(&[&[(4, 1.0)]], &[]),
            form(&[&[(0, 1.0)]], &[(1, 1)]),
            form(&[&[(0, 1.0)]], &[(3, 0)]),
            form(&[&[(0, 1.0), (2, 1.0)]], &[(1, 0)]),
        ];
        for form in bad {
            let what = format!("{form:?}");
            let result = DiagPlusLowRank::declared(form);
            assert!(matches!(result, Err(Error::InvalidInput(_))), "{what}");
        }
    }

    #[test]
    fn class_space_handles_free_columns() {
        // Two clouds, five users, plus two columns no demand row owns: one
        // with cloud 1's coupling column, one with no coupling entry at all.
        let (clouds, users) = (2, 5);
        let base = p2_u(clouds, users, false);
        let mut t = Triplets::new(base.nrows(), base.ncols() + 2);
        for k in 0..base.ncols() {
            let (rows, vals) = base.col(k);
            for (&rr, &v) in rows.iter().zip(vals) {
                t.push(rr, k, v);
            }
        }
        let free = base.ncols();
        t.push(1, free, 1.0);
        t.push(clouds + users, free, 1.0);
        let u = t.to_csc();
        let plan = BlockedPlan::detect(&u);
        assert_eq!(plan.classes.len(), clouds);
        let cols = columns(&plan, &u);
        assert_eq!(cols[free..], [(NO_ROW, 1), (NO_ROW, NO_CLASS)]);
        assert!(cols[..free].iter().all(|&(row, _)| row != NO_ROW));
        assert_blocked_matches_dense(&u, &[]);
        assert_blocked_matches_dense(&u, &[clouds + 2]);
    }

    #[test]
    fn class_space_handles_a_row_owning_two_columns_of_one_class() {
        // Demand row 0 owns columns 0 and 1, which share the coupling
        // column (1, 1) over rows 3 and 4; row 1 owns column 2 of that class
        // and column 3 of the class (1, ·); row 2 owns column 4 of the
        // second class.
        let mut t = Triplets::new(5, 5);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 2, 0.5);
        t.push(1, 3, 1.5);
        t.push(2, 4, 1.0);
        for k in 0..3 {
            t.push(3, k, 1.0);
            t.push(4, k, 1.0);
        }
        t.push(3, 3, 1.0);
        t.push(3, 4, 1.0);
        let u = t.to_csc();
        let plan = BlockedPlan::detect(&u);
        assert_eq!(plan.locals, vec![0, 1, 2]);
        let cols = columns(&plan, &u);
        assert_eq!(cols, [(0, 0), (0, 0), (1, 0), (1, 1), (2, 1)]);
        // Column 0 is a run of its own; 1–2 and 3–4 lie in consecutive
        // rows.
        assert_eq!(plan.runs.len(), 3);
        assert_blocked_matches_dense(&u, &[]);
        assert_blocked_matches_dense(&u, &[1]);
    }

    #[test]
    fn blocked_workspace_sizes_only_the_coupling_block() {
        // p = 200_002 rows: a p × p Schur block would need 320 GB, the
        // 2 × 2 coupling block 32 bytes.
        let users = 200_000;
        let mut t = Triplets::new(users + 2, 2 * users);
        for j in 0..users {
            t.push(j, 2 * j, 1.0);
            t.push(j, 2 * j + 1, 1.0);
            t.push(users, 2 * j, 1.0);
            t.push(users + 1, 2 * j + 1, 1.0);
        }
        let u = t.to_csc();
        let (n, p) = (u.ncols(), u.nrows());
        let solver = DiagPlusLowRank::new(u.clone());
        let d: Vec<f64> = (0..n).map(|k| 1.0 + (k % 3) as f64).collect();
        let e: Vec<f64> = (0..p).map(|i| 0.5 + (i % 2) as f64).collect();
        let r: Vec<f64> = (0..n).map(|k| ((k % 11) as f64) - 5.0).collect();
        let dx = solver.solve(&d, &e, &r).unwrap();
        // Residual of (D + Uᵀ E U) dx = r.
        let mut udx = u.mul_vec(&dx);
        for (v, &ei) in udx.iter_mut().zip(&e) {
            *v *= ei;
        }
        let utedx = u.mul_transpose_vec(&udx);
        for k in 0..n {
            let res = d[k] * dx[k] + utedx[k] - r[k];
            assert!(res.abs() < 1e-8, "residual {res} at {k}");
        }
    }

    #[test]
    fn blocked_matches_dense_on_arrow_systems() {
        // arrow_u's coupling values cycle with period 7, so its columns
        // fall into 7 classes: more classes than coupling rows.
        for (users, width, coup) in [(5, 3, 2), (9, 2, 3), (12, 4, 1)] {
            let u = arrow_u(users, width, coup);
            let plan = BlockedPlan::detect(&u);
            assert_eq!(plan.classes.len(), 7);
            assert!(plan.coupling.len() < 7);
            // A degenerate (inactive) local row and coupling row.
            let inert = if coup > 1 {
                vec![1, users + 1]
            } else {
                vec![1]
            };
            assert_blocked_matches_dense(&u, &inert);
        }
        // ℙ₂ patterns, one class per cloud; inert group, demand and
        // capacity rows, then none.
        for explicit in [false, true] {
            let u = p2_u(5, 9, explicit);
            assert_eq!(BlockedPlan::detect(&u).classes.len(), 5);
            assert_blocked_matches_dense(&u, &[1, 5 + 2, 5 + 9 + 3]);
            assert_blocked_matches_dense(&u, &[]);
        }
    }

    #[test]
    fn blocked_handles_non_arrow_patterns() {
        // Overlapping rows: only a subset ends up local; result must still
        // match dense LU.
        let mut t = Triplets::new(4, 6);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 1, 1.5); // overlaps row 0 → one of them stays coupling
        t.push(1, 2, 1.0);
        t.push(2, 3, 1.0);
        t.push(2, 4, -1.0);
        t.push(3, 0, 0.3);
        t.push(3, 5, 0.7); // column 5 otherwise untouched
        let u = t.to_csc();
        let d = [1.0, 2.0, 1.5, 3.0, 2.5, 1.0];
        let e = [1.0, 2.0, 0.5, 1.5];
        let r = [1.0, -2.0, 0.5, 3.0, -1.0, 2.0];
        let blocked = DiagPlusLowRank::new(u.clone());
        let xb = blocked.solve(&d, &e, &r).unwrap();
        let xref = dense_solve(&u, &d, &e, &r);
        for k in 0..6 {
            assert!((xb[k] - xref[k]).abs() < 1e-9, "{xb:?} vs {xref:?}");
        }
    }

    #[test]
    fn inverse_form_matches_the_dense_quadratic_form() {
        // rᵀM⁻¹r against dense LU, one row inert; then a row whose `D`
        // spans 1e-10..1e9, where `rᵀdx` cancels.
        let u = p2_u(3, 9, false);
        let (n, p) = (u.ncols(), u.nrows());
        let d: Vec<f64> = (0..n).map(|k| 0.5 + (k % 7) as f64 * 0.4).collect();
        let mut e: Vec<f64> = (0..p).map(|i| 0.3 + (i % 4) as f64 * 0.9).collect();
        e[4] = 0.0;
        let r: Vec<f64> = (0..n).map(|k| ((k as f64) * 0.61).cos()).collect();
        let reference: f64 = r
            .iter()
            .zip(dense_solve(&u, &d, &e, &r))
            .map(|(a, b)| a * b)
            .sum();
        let op = DiagPlusLowRank::new(u);
        let mut ws = DiagPlusLowRankWorkspace::for_solver(&op);
        let mut dx = vec![0.0; n];
        op.factor(&d, &e, &mut ws).unwrap();
        let form = op.inverse_form(&d, &e, &r, &mut ws, &mut dx);
        assert!(
            (form - reference).abs() <= 1e-12 * reference,
            "{form} vs {reference}"
        );

        let u = Triplets::new(1, 2);
        let mut t = u;
        t.push(0, 0, 1.0);
        t.push(0, 1, 1.0);
        let op = DiagPlusLowRank::new(t.to_csc());
        let (d, e, r) = ([3.7e-10, 2.7e9], [1.9e6], [0.97, 0.97]);
        let mut ws = DiagPlusLowRankWorkspace::for_solver(&op);
        let mut dx = [0.0; 2];
        op.factor(&d, &e, &mut ws).unwrap();
        let form = op.inverse_form(&d, &e, &r, &mut ws, &mut dx);
        // M = [[d0 + e, e], [e, d1 + e]]: rᵀM⁻¹r by Cramer's rule.
        let (a, b, c) = (d[0] + e[0], e[0], d[1] + e[0]);
        let det = a * c - b * b;
        let exact = (c * r[0] * r[0] - 2.0 * b * r[0] * r[1] + a * r[1] * r[1]) / det;
        assert!((form - exact).abs() <= 1e-9 * exact, "{form} vs {exact}");
    }

    #[test]
    fn blocked_all_rows_inactive_is_pure_diagonal() {
        let u = arrow_u(4, 2, 1);
        let solver = DiagPlusLowRank::new(u);
        let d = vec![2.0; 8];
        let e = vec![0.0; 5];
        let r = vec![4.0; 8];
        let x = solver.solve(&d, &e, &r).unwrap();
        assert_eq!(x, vec![2.0; 8]);
    }

    #[test]
    fn blocked_reused_workspace_matches_fresh() {
        let u = arrow_u(10, 3, 2);
        let solver = DiagPlusLowRank::new(u);
        let n = solver.dim();
        let p = solver.rank();
        let mut ws = DiagPlusLowRankWorkspace::for_solver(&solver);
        let mut dx = vec![0.0; n];
        for round in 0..3 {
            let d: Vec<f64> = (0..n).map(|k| 1.0 + ((k + round) % 5) as f64).collect();
            let mut e: Vec<f64> = (0..p).map(|i| 0.1 + (i % 4) as f64).collect();
            if round == 1 {
                e[3] = 0.0; // active set changes between reuses
            }
            let r: Vec<f64> = (0..n).map(|k| (k as f64 - 3.0) * 0.25).collect();
            solver.solve_into(&d, &e, &r, &mut ws, &mut dx).unwrap();
            let fresh = solver.solve(&d, &e, &r).unwrap();
            for k in 0..n {
                assert!((dx[k] - fresh[k]).abs() < 1e-14);
            }
        }
    }
}
