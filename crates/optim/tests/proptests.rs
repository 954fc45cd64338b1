//! Property-based tests of the solver substrate: the interior-point method
//! against the independent simplex oracle on random feasible LPs, sparse
//! LDLᵀ against dense reference solves, and the Schur kernel against
//! dense LU.

use optim::convex::{DiagPlusLowRank, DiagPlusLowRankWorkspace};
use optim::linalg::{min_degree_ordering, DenseMatrix, LdlSymbolic};
use optim::lp::{ConstraintSense, LpProblem};
use optim::sparse::Triplets;
use proptest::prelude::*;

/// Dense reference for `DiagPlusLowRank`: builds `M = D + UᵀEU` entry by
/// entry and solves `M x = r` by LU.
fn dense_lu_solve(u: &optim::sparse::CscMatrix, d: &[f64], e: &[f64], r: &[f64]) -> Vec<f64> {
    let (n, p) = (u.ncols(), u.nrows());
    let ud = u.to_dense();
    let mut m = DenseMatrix::zeros(n, n);
    for i in 0..n {
        m.set(i, i, d[i]);
    }
    for i in 0..p {
        for a_ in 0..n {
            for b_ in 0..n {
                m.add(a_, b_, ud[i][a_] * e[i] * ud[i][b_]);
            }
        }
    }
    m.lu().expect("nonsingular").solve(r)
}

/// Strategy: a random transportation LP that is always feasible (total
/// capacity ≥ total demand by construction).
fn transportation_lp() -> impl Strategy<Value = LpProblem> {
    (
        2usize..5,
        2usize..5,
        proptest::collection::vec(1u32..9, 4..25),
    )
        .prop_map(|(nsrc, ndst, raw)| {
            let mut lp = LpProblem::new();
            let mut vars = vec![vec![0usize; ndst]; nsrc];
            let mut k = 0usize;
            for (i, row) in vars.iter_mut().enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    let cost = raw[k % raw.len()] as f64;
                    k += 1;
                    *v = lp.add_var(cost + (i + j) as f64 * 0.25);
                }
            }
            // Demands 1..3 per source row.
            let mut total_demand = 0.0;
            for (i, row) in vars.iter().enumerate() {
                let d = 1.0 + (raw[(i + 1) % raw.len()] % 3) as f64;
                total_demand += d;
                let terms: Vec<(usize, f64)> = row.iter().map(|&v| (v, 1.0)).collect();
                lp.add_row(ConstraintSense::Ge, d, &terms);
            }
            // Capacities sized to cover everything comfortably.
            for j in 0..ndst {
                let terms: Vec<(usize, f64)> = (0..nsrc).map(|i| (vars[i][j], 1.0)).collect();
                lp.add_row(
                    ConstraintSense::Le,
                    total_demand * 2.0 / ndst as f64 + 1.0,
                    &terms,
                );
            }
            lp
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ipm_matches_simplex_on_random_transportation_lps(lp in transportation_lp()) {
        let ip = lp.solve().expect("ipm solves feasible LP");
        let sx = lp.solve_simplex().expect("simplex solves feasible LP");
        prop_assert!(
            (ip.objective - sx.objective).abs() <= 1e-5 * (1.0 + sx.objective.abs()),
            "ipm {} vs simplex {}", ip.objective, sx.objective
        );
        prop_assert!(lp.max_violation(&ip.x) < 1e-6);
    }

    #[test]
    fn ipm_solution_is_feasible_and_no_better_than_optimal(lp in transportation_lp()) {
        let ip = lp.solve().expect("solves");
        let sx = lp.solve_simplex().expect("solves");
        // IPM cannot beat the exact optimum by more than tolerance.
        prop_assert!(ip.objective >= sx.objective - 1e-5 * (1.0 + sx.objective.abs()));
    }
}

/// Strategy: a random SPD matrix as lower-triangular CSC (B·Bᵀ + n·I).
fn spd_lower() -> impl Strategy<Value = (optim::sparse::CscMatrix, Vec<f64>)> {
    (3usize..12, proptest::collection::vec(-1.0f64..1.0, 200)).prop_map(|(n, raw)| {
        let mut dense = vec![vec![0.0f64; n]; n];
        let mut k = 0;
        for row in dense.iter_mut() {
            for v in row.iter_mut() {
                if k % 3 == 0 {
                    *v = raw[k % raw.len()];
                }
                k += 1;
            }
        }
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s: f64 = (0..n).map(|c| dense[i][c] * dense[j][c]).sum();
                if i == j {
                    s += n as f64;
                }
                if s != 0.0 {
                    t.push(i, j, s);
                }
            }
        }
        let b: Vec<f64> = (0..n).map(|i| raw[(i * 7) % raw.len()]).collect();
        (t.to_csc(), b)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ldl_solves_random_spd_systems((a, b) in spd_lower()) {
        let n = a.ncols();
        let perm = min_degree_ordering(&a);
        let sym = LdlSymbolic::new(&a, Some(perm));
        let f = sym.factor(&a).expect("SPD factors");
        let x = f.solve(&b);
        // Residual against the full symmetric matrix.
        for i in 0..n {
            let mut ax = 0.0;
            for j in 0..n {
                let v = if i >= j { a.get(i, j) } else { a.get(j, i) };
                ax += v * x[j];
            }
            prop_assert!((ax - b[i]).abs() < 1e-7, "row {i}: {ax} vs {}", b[i]);
        }
    }

    #[test]
    fn ordering_never_increases_fill_vs_worst_case((a, _b) in spd_lower()) {
        let n = a.ncols();
        let perm = min_degree_ordering(&a);
        let ordered = LdlSymbolic::new(&a, Some(perm));
        prop_assert!(ordered.factor_nnz() <= n * (n - 1) / 2);
    }

    #[test]
    fn woodbury_matches_dense_lu(
        n in 3usize..10,
        p in 1usize..4,
        raw in proptest::collection::vec(0.1f64..2.0, 64),
    ) {
        let mut t = Triplets::new(p, n);
        let mut k = 0;
        for i in 0..p {
            for j in 0..n {
                if (i + j) % 2 == 0 {
                    t.push(i, j, raw[k % raw.len()] - 1.0);
                }
                k += 1;
            }
        }
        let u = t.to_csc();
        let d: Vec<f64> = (0..n).map(|i| raw[(i * 3) % raw.len()]).collect();
        let e: Vec<f64> = (0..p).map(|i| raw[(i * 5 + 1) % raw.len()]).collect();
        let r: Vec<f64> = (0..n).map(|i| raw[(i * 7 + 2) % raw.len()] - 1.0).collect();
        let solver = DiagPlusLowRank::new(u.clone());
        let x = solver.solve(&d, &e, &r).expect("solves");
        let xref = dense_lu_solve(&u, &d, &e, &r);
        for i in 0..n {
            prop_assert!((x[i] - xref[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn csc_transpose_involution_and_matvec_consistency(
        n in 1usize..8,
        m in 1usize..8,
        raw in proptest::collection::vec(-2.0f64..2.0, 64),
    ) {
        let mut t = Triplets::new(m, n);
        let mut k = 0;
        for i in 0..m {
            for j in 0..n {
                if k % 3 != 2 && raw[k % raw.len()] != 0.0 {
                    t.push(i, j, raw[k % raw.len()]);
                }
                k += 1;
            }
        }
        let a = t.to_csc();
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        let x: Vec<f64> = (0..n).map(|i| raw[(i * 11) % raw.len()]).collect();
        let y1 = a.mul_vec(&x);
        let y2 = a.transpose().mul_transpose_vec(&x);
        for i in 0..m {
            prop_assert!((y1[i] - y2[i]).abs() < 1e-12);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Schur kernel must agree with a dense LU of `D + UᵀEU` on
    /// randomized ℙ₂-shaped arrow systems: J disjoint demand rows (I
    /// strided columns each, mirroring ℙ₂'s cloud-major layout) plus group
    /// rows and one of three capacity shapes — a single all-ones row, the
    /// paper's (10b) rows (cloud i's row covers every cloud but i), or
    /// `CapacityMode::Explicit`'s `−Σ_j x_ij` rows — with randomly
    /// degenerate (zero-curvature) rows in both blocks. Two right-hand
    /// sides back-solved against one factorization match two `solve_into`
    /// calls bit for bit.
    #[test]
    fn schur_kernel_matches_dense_lu(
        clouds in 2usize..6,
        users in 3usize..28,
        shape in 0usize..3,
        raw in proptest::collection::vec(0.05f64..2.5, 256),
    ) {
        let n = clouds * users;
        let capacity_rows = if shape == 0 { 1 } else { clouds };
        let p = users + clouds + capacity_rows;
        let mut t = Triplets::new(p, n);
        // Demand rows: user j touches column i·J + j in every cloud i.
        for j in 0..users {
            for i in 0..clouds {
                t.push(j, i * users + j, 0.5 + raw[(i * users + j) % raw.len()]);
            }
        }
        // Group rows: cloud i's J contiguous columns.
        for i in 0..clouds {
            for j in 0..users {
                t.push(users + i, i * users + j, 1.0);
            }
        }
        let cap = users + clouds;
        for i in 0..clouds {
            for j in 0..users {
                let k = i * users + j;
                match shape {
                    // One all-ones capacity row.
                    0 => t.push(cap, k, 1.0),
                    // (10b): x_ij sits in every capacity row but cloud i's.
                    1 => {
                        for other in (0..clouds).filter(|&o| o != i) {
                            t.push(cap + other, k, 1.0);
                        }
                    }
                    // Explicit: cloud i's row is −Σ_j x_ij.
                    _ => t.push(cap + i, k, -1.0),
                }
            }
        }
        let u = t.to_csc();
        let d: Vec<f64> = (0..n).map(|k| 0.01 + raw[(k * 3 + 1) % raw.len()]).collect();
        let e: Vec<f64> = (0..p)
            .map(|i| {
                // ~20% of rows degenerate (zero curvature → inactive).
                if raw[(i * 11 + 4) % raw.len()] < 0.5 {
                    0.0
                } else {
                    0.02 + raw[(i * 5 + 2) % raw.len()]
                }
            })
            .collect();
        let r: Vec<f64> = (0..n).map(|k| raw[(k * 7 + 3) % raw.len()] - 1.25).collect();
        let r2: Vec<f64> = (0..n).map(|k| 0.75 - raw[(k * 13 + 9) % raw.len()]).collect();
        let op = DiagPlusLowRank::new(u.clone());
        let x = op.solve(&d, &e, &r).expect("solves");
        let xref = dense_lu_solve(&u, &d, &e, &r);
        let scale = xref.iter().fold(1.0f64, |m, &v| m.max(v.abs()));
        for k in 0..n {
            prop_assert!(
                (x[k] - xref[k]).abs() <= 1e-10 * scale,
                "k={k}: kernel {} vs LU {} (scale {scale})", x[k], xref[k]
            );
        }
        let mut ws = DiagPlusLowRankWorkspace::for_solver(&op);
        let (mut once, mut twice) = (vec![0.0; n], vec![0.0; n]);
        op.factor(&d, &e, &mut ws).expect("factors");
        op.back_solve(&d, &r, &mut ws, &mut once);
        op.back_solve(&d, &r2, &mut ws, &mut twice);
        for (rhs, split) in [(&r, &once), (&r2, &twice)] {
            let mut fresh = vec![0.0; n];
            let mut ws = DiagPlusLowRankWorkspace::for_solver(&op);
            op.solve_into(&d, &e, rhs, &mut ws, &mut fresh).expect("solves");
            for k in 0..n {
                prop_assert_eq!(split[k].to_bits(), fresh[k].to_bits(), "k={}", k);
            }
        }
    }
}

/// Checks `DiagPlusLowRank`'s class-space products with the rows of `u`
/// from `lo` on against the sparse products with `a`, those rows as a
/// matrix of their own: `A x` on the rows in `local` bit for bit, every
/// other entry of `A x` and `Aᵀ y` within 1e-12 of the absolute sum of its
/// terms.
fn assert_class_space_matches_csc(
    op: &DiagPlusLowRank,
    lo: usize,
    a: &optim::sparse::CscMatrix,
    local: &[usize],
    x: &[f64],
    y: &[f64],
) {
    let (m, n) = (a.nrows(), a.ncols());
    let dense = a.to_dense();
    let mut class_sum = vec![0.0; op.num_classes()];
    let (mut ax, mut ax_ref) = (vec![f64::NAN; m], vec![0.0; m]);
    op.mul_rows_into(lo, x, &mut class_sum, &mut ax);
    a.mul_vec_into(x, &mut ax_ref);
    for r in 0..m {
        if local.contains(&r) {
            prop_assert_eq!(ax[r].to_bits(), ax_ref[r].to_bits(), "local row {}", r);
        }
        let scale: f64 = (0..n).map(|k| (dense[r][k] * x[k]).abs()).sum();
        prop_assert!(
            (ax[r] - ax_ref[r]).abs() <= 1e-12 * scale,
            "row {r}: class space {} vs csc {}",
            ax[r],
            ax_ref[r]
        );
    }
    let (mut aty, mut aty_ref) = (vec![f64::NAN; n], vec![0.0; n]);
    op.mul_transpose_rows_into(lo, y, &mut class_sum, &mut aty);
    a.mul_transpose_vec_into(y, &mut aty_ref);
    for k in 0..n {
        let scale: f64 = (0..m).map(|r| (dense[r][k] * y[r]).abs()).sum();
        prop_assert!(
            (aty[k] - aty_ref[k]).abs() <= 1e-12 * scale,
            "column {k}: class space {} vs csc {}",
            aty[k],
            aty_ref[k]
        );
    }
}

/// `U` as the barrier solver stacks it: `group_rows` over the rows of `a`.
fn stack(group_rows: &[Vec<usize>], a: &optim::sparse::CscMatrix) -> optim::sparse::CscMatrix {
    let g = group_rows.len();
    let mut t = Triplets::new(g + a.nrows(), a.ncols());
    for (gi, members) in group_rows.iter().enumerate() {
        for &k in members {
            t.push(gi, k, 1.0);
        }
    }
    for k in 0..a.ncols() {
        let (rows, vals) = a.col(k);
        for (&r, &v) in rows.iter().zip(vals) {
            t.push(g + r, k, v);
        }
    }
    t.to_csc()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The barrier's class-space `A x` and `Aᵀ y` on generated ℙ₂ shapes:
    /// demand rows with arbitrary values (the local rows), the (10b) or
    /// `CapacityMode::Explicit` capacity rows, optionally a cloud with no
    /// group row, and up to three columns no demand row owns (one in cloud
    /// 0's class, one in a class of its own, one with no entry at all).
    /// `x` has exact zeros.
    #[test]
    fn class_space_products_match_csc_on_p2_shapes(
        clouds in 2usize..6,
        users in 6usize..24,
        explicit in 0usize..2,
        ungrouped in 0usize..2,
        free in 0usize..4,
        raw in proptest::collection::vec(0.05f64..2.5, 256),
    ) {
        let n = clouds * users + free;
        let cap = users;
        let mut t = Triplets::new(users + clouds, n);
        for i in 0..clouds {
            for j in 0..users {
                let k = i * users + j;
                t.push(j, k, 0.5 + raw[k % raw.len()]);
                if explicit == 1 {
                    t.push(cap + i, k, -1.0);
                } else {
                    for other in (0..clouds).filter(|&o| o != i) {
                        t.push(cap + other, k, 1.0);
                    }
                }
            }
        }
        let base = clouds * users;
        if free > 0 {
            // Cloud 0's coupling column, owned by no demand row.
            if explicit == 1 {
                t.push(cap, base, -1.0);
            } else {
                for other in 1..clouds {
                    t.push(cap + other, base, 1.0);
                }
            }
        }
        if free > 1 {
            t.push(cap + clouds - 1, base + 1, 0.5 + raw[7]);
        }
        let a = t.to_csc();
        // Group rows: cloud i's columns, cloud 0 left out when ungrouped.
        let groups: Vec<Vec<usize>> = (ungrouped..clouds)
            .map(|i| {
                let mut members: Vec<usize> = (0..users).map(|j| i * users + j).collect();
                if i == 0 && free > 0 {
                    members.push(base);
                }
                members
            })
            .collect();
        let op = DiagPlusLowRank::new(stack(&groups, &a));
        let classes = clouds + usize::from(free > 1);
        prop_assert_eq!(op.num_classes(), classes);
        let x: Vec<f64> = (0..n)
            .map(|k| if k % 7 == 3 { 0.0 } else { raw[(k * 3 + 1) % raw.len()] })
            .collect();
        let y: Vec<f64> = (0..users + clouds)
            .map(|r| raw[(r * 5 + 2) % raw.len()] - 1.25)
            .collect();
        let demand: Vec<usize> = (0..users).collect();
        assert_class_space_matches_csc(&op, groups.len(), &a, &demand, &x, &y);
    }

    /// Class-space products on small arbitrary patterns where no two
    /// columns share a class (the last row gives every column its own
    /// value), with and without a leading row excluded as a group row.
    #[test]
    fn class_space_products_match_csc_on_arbitrary_patterns(
        rows in 1usize..7,
        cols in 1usize..12,
        lo in 0usize..2,
        raw in proptest::collection::vec(-2.0f64..2.0, 256),
    ) {
        // Row 0 all ones, then `rows` sparse random rows, then the row of
        // distinct values.
        let p = rows + 2;
        let mut t = Triplets::new(p, cols);
        for k in 0..cols {
            t.push(0, k, 1.0);
            t.push(p - 1, k, 1.0 + 0.01 * k as f64);
        }
        let mut idx = 0;
        for i in 1..=rows {
            for k in 0..cols {
                if idx % 3 != 2 {
                    t.push(i, k, raw[idx % raw.len()]);
                }
                idx += 1;
            }
        }
        let u = t.to_csc();
        let op = DiagPlusLowRank::new(u.clone());
        prop_assert_eq!(op.num_classes(), cols);
        let mut ta = Triplets::new(p - lo, cols);
        for k in 0..cols {
            let (rs, vs) = u.col(k);
            for (&r, &v) in rs.iter().zip(vs) {
                if r >= lo {
                    ta.push(r - lo, k, v);
                }
            }
        }
        let a = ta.to_csc();
        let x: Vec<f64> = (0..cols).map(|k| raw[(k * 11 + 5) % raw.len()]).collect();
        let y: Vec<f64> = (0..p - lo).map(|r| raw[(r * 13 + 1) % raw.len()]).collect();
        assert_class_space_matches_csc(&op, lo, &a, &[], &x, &y);
    }
}
