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
//! The same classes give every product with `U`
//! ([`DiagPlusLowRank::mul_rows_into`] and its transpose): a local row sums
//! its own entries, a coupling row is `T` times the per-class sums. The
//! back-solve forms `U z` that way, and the barrier solver forms `A x` and
//! `Aᵀ y` that way — O(J·I) for ℙ₂. Only the barrier's phase I and
//! `BlockedPlan::detect` read `U`'s CSC entries.

use std::collections::HashMap;

use crate::linalg::DenseMatrix;
use crate::sparse::CscMatrix;
use crate::{Error, Result};

/// Rows with `E_i` at or below this are inert: their reciprocal would
/// overflow toward infinity and poison the Schur complement.
const ACTIVE_EPS: f64 = 1e-300;

/// Class of a column with no entry in any coupling row.
const NO_CLASS: usize = usize::MAX;

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
#[derive(Debug, Clone)]
pub struct DiagPlusLowRank {
    /// The coupling matrix `U` (p × n).
    u: CscMatrix,
    /// Local rows and column classes of `U`: the factorization eliminates
    /// over them, and the class-space products
    /// ([`DiagPlusLowRank::mul_rows_into`]) run on them.
    plan: BlockedPlan,
}

impl DiagPlusLowRank {
    /// Wraps a fixed coupling matrix `U` (p × n). The structure analysis
    /// runs once, here; per-solve work is pattern-reuse.
    pub fn new(u: CscMatrix) -> Self {
        let plan = BlockedPlan::detect(&u);
        DiagPlusLowRank { u, plan }
    }

    /// The coupling matrix `U`.
    pub(crate) fn matrix(&self) -> &CscMatrix {
        &self.u
    }

    /// Number of coupling rows `p`.
    pub fn rank(&self) -> usize {
        self.u.nrows()
    }

    /// Number of variables `n`.
    pub fn dim(&self) -> usize {
        self.u.ncols()
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
        let n = self.dim();
        assert_eq!(d.len(), n, "diagonal length mismatch");
        assert_eq!(r.len(), n, "rhs length mismatch");
        assert_eq!(dx.len(), n, "solution length mismatch");
        ws.z.resize(n, 0.0);
        for k in 0..n {
            ws.z[k] = r[k] / d[k];
        }
        let plan = &self.plan;
        let p = self.rank();
        let m = plan.classes.len();
        ws.uz.resize(p, 0.0);
        // `class_y` is free until the back-substitution rebuilds it.
        ws.class_y.resize(m, 0.0);
        self.mul_rows_into(0, &ws.z, &mut ws.class_y, &mut ws.uz);

        // Inactive local rows have a zero pivot and no border.
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
        // The coupling rhs `t_c = (Uz)_c − T ρ`, solved against the factor.
        let t = &ws.class_t;
        ws.wq.clear();
        ws.wq.extend(ws.active.iter().enumerate().map(|(ci, &i)| {
            let t_rho: f64 = (0..m).map(|c| t.get(ci, c) * ws.rho[c]).sum();
            ws.uz[i] - t_rho
        }));
        if !ws.active.is_empty() {
            ws.l.chol_solve_in_place(&mut ws.wq);
        }

        // Back-substitute: coupling rows from the small solve, active local
        // rows in closed form, inactive rows zero. A row's border is
        // `T v_j`, so its dot product with `w_C` runs over `Tᵀ w_C`.
        ws.w.clear();
        ws.w.resize(p, 0.0);
        for (ci, &i) in ws.active.iter().enumerate() {
            ws.w[i] = ws.wq[ci];
        }
        ws.class_y.clear();
        ws.class_y.extend((0..m).map(|c| {
            let t_c = ws.class_t.column(c);
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
        // dx = z − D⁻¹ Uᵀ w, with `Uᵀ w` in class space: `class_y` already
        // holds `Tᵀ w_C` (inactive coupling rows have w = 0).
        let (w, z) = (&ws.w, &ws.z);
        plan.transpose_each(
            |row| w[row],
            &ws.class_y,
            |k, utw| {
                dx[k] = z[k] - utw / d[k];
            },
        );
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
        let plan = &self.plan;
        let classes = &plan.classes;
        assert_eq!(x.len(), self.dim(), "dimension mismatch in mul_rows_into");
        assert_eq!(
            out.len() + lo,
            self.rank(),
            "dimension mismatch in mul_rows_into"
        );
        assert_eq!(class_sum.len(), classes.len(), "class scratch length");
        class_sum.fill(0.0);
        for (jl, &row) in plan.locals.iter().enumerate() {
            let span = plan.lptr[jl]..plan.lptr[jl + 1];
            let mut acc = 0.0;
            for ((&k, &v), &c) in plan.lcols[span.clone()]
                .iter()
                .zip(&plan.lvals[span.clone()])
                .zip(&classes.local[span])
            {
                let xk = x[k];
                // Skipping zeros mirrors `CscMatrix::mul_vec_acc`, so the
                // row's sum carries the same sign of zero.
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
        for (&k, &c) in plan.free_cols.iter().zip(&classes.free) {
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
        let classes = &self.plan.classes;
        assert_eq!(
            y.len() + lo,
            self.rank(),
            "dimension mismatch in mul_transpose_rows_into"
        );
        assert_eq!(
            out.len(),
            self.dim(),
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
        let local = |row: usize| if row >= lo { y[row - lo] } else { 0.0 };
        self.plan.transpose_each(local, class_y, |k, v| out[k] = v);
    }

    /// The coupling system `S_cc = E_c⁻¹ + T K Tᵀ` (lower triangle only —
    /// the Cholesky reads nothing else) with `K` the local rows' class
    /// matrix plus the free columns' `1/d_k`. `T` holds each class's
    /// coupling column over the active coupling rows.
    fn assemble_coupling(&self, d: &[f64], e: &[f64], ws: &mut DiagPlusLowRankWorkspace) {
        let plan = &self.plan;
        let qc = ws.active.len();
        let classes = &plan.classes;
        let m = classes.len();
        for (&k, &c) in plan.free_cols.iter().zip(&classes.free) {
            if c != NO_CLASS {
                ws.kmat.add(c, c, 1.0 / d[k]);
            }
        }
        let kmat = &ws.kmat;

        let t = &mut ws.class_t;
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
        let tk = &mut ws.class_tk;
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
}

/// Structure analysis of the coupling matrix, computed once per matrix:
/// which rows are "local" (pairwise-disjoint column supports —
/// eliminable in closed form), which remain in the small coupling block,
/// and the column classes the elimination and the class-space products
/// accumulate over.
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
    /// Per-local-row extent into `lcols`/`lvals` (`locals.len() + 1`).
    lptr: Vec<usize>,
    /// Columns owned by each local row, user-major flat layout.
    lcols: Vec<usize>,
    /// `U[row, col]` for each owned column, aligned with `lcols`.
    lvals: Vec<f64>,
    /// Columns owned by no local row.
    free_cols: Vec<usize>,
    /// The columns grouped by coupling column.
    classes: ColumnClasses,
}

/// The columns grouped by their coupling column (coupling rows plus value
/// bits). Every column of class `c` has coupling column `T[:, c]`, so its
/// coupling-Gram contribution is `T[:, c] T[:, c]ᵀ / d_k`, a local row's
/// border is `T v_j` for a class-space vector `v_j`, and the coupling rows'
/// product with any `x` is `T · (per-class sums of x)`. ℙ₂ has one class
/// per cloud.
#[derive(Debug, Clone)]
struct ColumnClasses {
    /// Class of each `lcols` entry ([`NO_CLASS`] without coupling entries).
    local: Vec<usize>,
    /// Class of each `free_cols` entry.
    free: Vec<usize>,
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
}

impl BlockedPlan {
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
        for (jl, span) in first.lptr.windows(2).enumerate() {
            for &k in &first.lcols[span[0]..span[1]] {
                owner[k] = jl;
            }
        }
        let repeats_a_local = |i: usize| {
            let cols = rm.cols(i);
            cols.first().is_some_and(|&k| {
                let jl = owner[k];
                jl != usize::MAX
                    && cols.len() == first.lptr[jl + 1] - first.lptr[jl]
                    && cols.iter().all(|&c| owner[c] == jl)
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
        let mut owned = vec![false; u.ncols()];
        let mut is_local = vec![false; u.nrows()];
        for &i in order {
            let cols = rm.cols(i);
            if cols.iter().all(|&k| !owned[k]) {
                for &k in cols {
                    owned[k] = true;
                }
                is_local[i] = true;
            }
        }
        let p = u.nrows();
        let locals: Vec<usize> = (0..p).filter(|&i| is_local[i]).collect();
        let coupling: Vec<usize> = (0..p).filter(|&i| !is_local[i]).collect();
        let mut lptr = Vec::with_capacity(locals.len() + 1);
        let mut lcols = Vec::new();
        let mut lvals = Vec::new();
        lptr.push(0);
        for &i in &locals {
            let span = rm.ptr[i]..rm.ptr[i + 1];
            lcols.extend_from_slice(&rm.cols[span.clone()]);
            lvals.extend_from_slice(&rm.vals[span]);
            lptr.push(lcols.len());
        }
        let free_cols: Vec<usize> = (0..u.ncols()).filter(|&k| !owned[k]).collect();
        let (class_of, reps) = column_classes(u, &is_local);
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
        let classes = ColumnClasses {
            local: lcols.iter().map(|&k| class_of[k]).collect(),
            free: free_cols.iter().map(|&k| class_of[k]).collect(),
            tptr,
            trows,
            tvals,
        };
        BlockedPlan {
            locals,
            coupling,
            lptr,
            lcols,
            lvals,
            free_cols,
            classes,
        }
    }

    /// `Uᵀ y` in class space, column by column: calls `emit(k, (Uᵀ y)_k)`
    /// with `local_y(row)` the entry of `y` at local row `row` and
    /// `class_y = Tᵀ y_C`. Each column's local-row term comes first, its
    /// class's gather is added after it. O(nnz of the local rows + n).
    fn transpose_each(
        &self,
        local_y: impl Fn(usize) -> f64,
        class_y: &[f64],
        mut emit: impl FnMut(usize, f64),
    ) {
        let classes = &self.classes;
        for (jl, &row) in self.locals.iter().enumerate() {
            let y = local_y(row);
            let span = self.lptr[jl]..self.lptr[jl + 1];
            for ((&k, &v), &c) in self.lcols[span.clone()]
                .iter()
                .zip(&self.lvals[span.clone()])
                .zip(&classes.local[span])
            {
                let gather = if c == NO_CLASS { 0.0 } else { class_y[c] };
                emit(k, v * y + gather);
            }
        }
        for (&k, &c) in self.free_cols.iter().zip(&classes.free) {
            emit(k, if c == NO_CLASS { 0.0 } else { class_y[c] });
        }
    }
}

/// Groups the columns of `u` by their coupling column: the (row, value
/// bits) pairs of their entries outside the local rows. Returns each
/// column's class ([`NO_CLASS`] for a column without coupling entries) and
/// one representative column per class, classes numbered by first
/// appearance. One O(nnz) pass with no per-column allocation: a hash of
/// each column's coupling entries, a hash → first-class map, and a
/// per-class chain that settles hash collisions by comparing entries.
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
/// rank-1 elimination `v_j v_jᵀ / sdd_j` — in one pass, O(m²) per row.
/// Inactive local rows skip elimination but still add their Gram — every
/// column must feed `K` exactly once.
fn eliminate_local_rows(
    plan: &BlockedPlan,
    d: &[f64],
    e: &[f64],
    ws: &mut DiagPlusLowRankWorkspace,
) {
    let classes = &plan.classes;
    let (nl, m) = (plan.locals.len(), classes.len());
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
        let span = plan.lptr[jl]..plan.lptr[jl + 1];
        let cols = &plan.lcols[span.clone()];
        let vals = &plan.lvals[span.clone()];
        let class = &classes.local[span];
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
    /// Class-space borders `v_j`, flat `locals × m`.
    border: Vec<f64>,
    /// The class matrix `K` (lower triangle).
    kmat: DenseMatrix,
    /// The current local row's Σ 1/d_k per class.
    gram: Vec<f64>,
    /// `T` over the active coupling rows (qc × m).
    class_t: DenseMatrix,
    /// `T K` (qc × m).
    class_tk: DenseMatrix,
    /// The per-class sums of `z` while the back-solve forms `U z`, then
    /// `Tᵀ w_C` for the back-substitution.
    class_y: Vec<f64>,
    /// The rhs's class-space elimination `ρ`.
    rho: Vec<f64>,
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
            kmat: DenseMatrix::zeros(m, m),
            gram: vec![0.0; m],
            class_t: DenseMatrix::zeros(q, m),
            class_tk: DenseMatrix::zeros(q, m),
            class_y: Vec::with_capacity(m),
            rho: Vec::with_capacity(m),
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
        let mut t = Triplets::new(clouds + users + clouds, clouds * users);
        for i in 0..clouds {
            for j in 0..users {
                let k = i * users + j;
                t.push(i, k, 1.0);
                t.push(clouds + j, k, 1.0);
                if explicit {
                    t.push(clouds + users + i, k, -1.0);
                } else {
                    for other in (0..clouds).filter(|&o| o != i) {
                        t.push(clouds + users + other, k, 1.0);
                    }
                }
            }
        }
        t.to_csc()
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
        assert!(plan.free_cols.is_empty());
        for j in 0..6 {
            let cols = &plan.lcols[plan.lptr[j]..plan.lptr[j + 1]];
            assert_eq!(cols, &[j * 3, j * 3 + 1, j * 3 + 2]);
        }
    }

    #[test]
    fn p2_patterns_have_one_class_per_cloud() {
        // More users than clouds, then no more users than clouds, where
        // the group rows are no wider than the demand rows.
        let shapes = [(4, 7), (4, 2), (4, 3), (4, 4), (15, 13)];
        for (clouds, users) in shapes {
            for explicit in [false, true] {
                let plan = BlockedPlan::detect(&p2_u(clouds, users, explicit));
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
                // User j owns x_{0,j}, …, x_{I−1,j}: one column of each class.
                for j in 0..users {
                    let span = plan.lptr[j]..plan.lptr[j + 1];
                    let want: Vec<usize> = (0..clouds).collect();
                    assert_eq!(classes.local[span], want[..], "{shape}");
                }
            }
        }
        for explicit in [false, true] {
            assert_blocked_matches_dense(&p2_u(4, 3, explicit), &[1, 4 + 2, 4 + 3 + 1]);
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
        assert_eq!(plan.free_cols, vec![free, free + 1]);
        let classes = &plan.classes;
        assert_eq!(classes.len(), clouds);
        assert_eq!(classes.free, vec![1, NO_CLASS]);
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
        let classes = &plan.classes;
        assert_eq!(classes.local, vec![0, 0, 0, 1, 1]);
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
