//! Checks every certified solve of the primal-dual solver independently.
//!
//! From the returned `x`, `row_duals` (y) and `bound_duals` (z) alone, the
//! check recomputes the slacks `s = A x − b`, the complementarity
//! `sᵀy + xᵀz` and the dual residual `r_d = ∇f − Aᵀy − z` with plain
//! `CscMatrix` products (the solver forms them in class space), builds the
//! Newton matrix `M = diag ∇²f + z/x + Σ_g φ_g''·1_g1_gᵀ + Aᵀ diag(y/s) A`
//! densely, and solves it by LU for the decrement `½·r_dᵀM⁻¹r_d`. A solve
//! that returns `Ok` must leave `x > 0` and `s > 0`, meet the stop rule
//! `sᵀy + xᵀz + ½·r_dᵀM⁻¹r_d ≤ tol·(1 + |f|)` under this recomputation,
//! and report the same two quantities in its `BarrierStats`.

use optim::convex::{
    BarrierOptions, BarrierSolution, BarrierSolver, ScalarTerm, SeparableObjective,
};
use optim::linalg::DenseMatrix;
use optim::sparse::{CscMatrix, Triplets};
use proptest::prelude::*;

/// The stop rule's quantities recomputed from a returned solution.
struct Recomputed {
    objective: f64,
    complementarity: f64,
    decrement: f64,
}

/// Asserts strict feasibility and recomputes the certificate of `sol` for
/// `min f(x) s.t. a·x ≥ b, x ≥ 0`.
fn recompute(
    f: &SeparableObjective,
    a: &CscMatrix,
    b: &[f64],
    sol: &BarrierSolution,
) -> Recomputed {
    let (x, y, z) = (&sol.x, &sol.row_duals, &sol.bound_duals);
    let n = f.num_vars();
    assert_eq!((x.len(), z.len(), y.len()), (n, n, b.len()));
    assert!(x.iter().all(|&v| v > 0.0), "x not interior: {x:?}");
    let mut s = a.mul_vec(x);
    for (sr, &br) in s.iter_mut().zip(b) {
        *sr -= br;
    }
    assert!(s.iter().all(|&v| v > 0.0), "A x − b not interior: {s:?}");
    assert!(y.iter().all(|&v| v > 0.0) && z.iter().all(|&v| v > 0.0));

    let complementarity: f64 = s.iter().zip(y).map(|(a, b)| a * b).sum::<f64>()
        + x.iter().zip(z).map(|(a, b)| a * b).sum::<f64>();
    let aty = a.mul_transpose_vec(y);
    let grad = f.gradient(x);
    let rd: Vec<f64> = (0..n).map(|k| grad[k] - aty[k] - z[k]).collect();

    let mut m = DenseMatrix::zeros(n, n);
    let mut hess = vec![0.0; n];
    f.hessian_diag_into(x, &mut hess);
    for k in 0..n {
        m.set(k, k, hess[k] + z[k] / x[k]);
    }
    for (group, h) in f.groups().iter().zip(f.group_curvatures(x)) {
        for &p in &group.members {
            for &q in &group.members {
                m.add(p, q, h);
            }
        }
    }
    let dense = a.to_dense();
    for (r, row) in dense.iter().enumerate() {
        let w = y[r] / s[r];
        let support: Vec<usize> = (0..n).filter(|&k| row[k] != 0.0).collect();
        for &p in &support {
            for &q in &support {
                m.add(p, q, row[p] * w * row[q]);
            }
        }
    }
    let v = m.lu().expect("M is nonsingular").solve(&rd);
    let decrement = 0.5 * rd.iter().zip(&v).map(|(a, b)| a * b).sum::<f64>();
    Recomputed {
        objective: f.value(x),
        complementarity,
        decrement,
    }
}

/// Solves from `x0` (the phase-I point when `None`) with the default
/// options and checks the certificate.
fn assert_certified(f: SeparableObjective, a: CscMatrix, b: Vec<f64>, x0: Option<&[f64]>) {
    let solver = BarrierSolver::new(f.clone(), a.clone(), b.clone()).unwrap();
    let opts = BarrierOptions::default();
    match solver.solve(x0, &opts) {
        Ok(sol) => assert_solution_certified(&f, &a, &b, &sol, &opts),
        Err(err) => panic!("{err:?}"),
    }
}

/// Asserts that `sol` meets the stop rule under the recomputation and
/// reports the same quantities.
fn assert_solution_certified(
    f: &SeparableObjective,
    a: &CscMatrix,
    b: &[f64],
    sol: &BarrierSolution,
    opts: &BarrierOptions,
) {
    let re = recompute(f, a, b, sol);
    let target = opts.tol * (1.0 + re.objective.abs());
    let certified = re.complementarity + re.decrement;
    assert!(
        certified <= target,
        "recomputed certificate {certified:e} (complementarity {:e}, decrement {:e}) \
         above the target {target:e}",
        re.complementarity,
        re.decrement
    );
    assert_eq!(sol.objective, re.objective);
    // Round-off: the class-space and CSC products, and the Schur and LU
    // solves, agree to far below the target.
    let stats = sol.stats;
    assert!(
        (stats.complementarity - re.complementarity).abs() <= 1e-9 * target,
        "complementarity {:e} reported, {:e} recomputed",
        stats.complementarity,
        re.complementarity
    );
    assert!(
        (stats.decrement - re.decrement).abs() <= 1e-9 * target,
        "decrement {:e} reported, {:e} recomputed",
        stats.decrement,
        re.decrement
    );
}

fn one_row(coefs: &[f64]) -> CscMatrix {
    let mut t = Triplets::new(1, coefs.len());
    for (k, &v) in coefs.iter().enumerate() {
        t.push(0, k, v);
    }
    t.to_csc()
}

fn quadratics(qs: &[f64]) -> SeparableObjective {
    let mut f = SeparableObjective::new(qs.len());
    for (k, &q) in qs.iter().enumerate() {
        f.add_term(k, ScalarTerm::Quadratic { q });
    }
    f
}

/// The programs of the solver's own unit tests, from phase I and from a
/// given start, and one whose objective crosses zero on the way.
#[test]
fn unit_programs_are_certified() {
    let row = one_row(&[1.0, 1.0]);
    assert_certified(quadratics(&[2.0, 2.0]), row.clone(), vec![2.0], None);
    assert_certified(quadratics(&[4.0, 2.0]), row.clone(), vec![3.0], None);
    let far = Some(&[5.0, 5.0][..]);
    assert_certified(quadratics(&[4.0, 2.0]), row.clone(), vec![3.0], far);
    assert_certified(quadratics(&[2.0]), one_row(&[1.0]), vec![1.0], None);

    let mut linear = SeparableObjective::new(2);
    linear.add_term(0, ScalarTerm::Linear { coef: 1.0 });
    linear.add_term(1, ScalarTerm::Linear { coef: 2.0 });
    assert_certified(linear, row, vec![1.0], None);

    let mut grouped = SeparableObjective::new(2);
    grouped.add_group(vec![0, 1], ScalarTerm::Quadratic { q: 2.0 });
    grouped.add_term(0, ScalarTerm::Linear { coef: -4.0 });
    grouped.add_term(1, ScalarTerm::Linear { coef: -4.0 });
    let no_rows = Triplets::new(0, 2).to_csc();
    let inside = Some(&[0.5, 0.5][..]);
    assert_certified(grouped, no_rows, vec![], inside);

    let mut entropy = SeparableObjective::new(1);
    entropy.add_term(
        0,
        ScalarTerm::RelativeEntropy {
            weight: 2.0,
            eps: 0.1,
            xref: 3.0,
        },
    );
    assert_certified(entropy, one_row(&[1.0]), vec![1.0], None);

    // x² − 10x over x ≥ 1 from x = 10: f = 0 at the start, −25 at the end.
    let mut crossing = quadratics(&[2.0]);
    crossing.add_term(0, ScalarTerm::Linear { coef: -10.0 });
    let at_zero = Some(&[10.0][..]);
    assert_certified(crossing, one_row(&[1.0]), vec![1.0], at_zero);
}

/// A ℙ₂-shaped program: per-variable linear and relative-entropy terms,
/// one entropy group per cloud, demand rows `Σ_i x_ij ≥ λ_j`, and the
/// capacity rows in one of three shapes — one total-capacity row, the
/// paper's (10b) rows, or `CapacityMode::Explicit`'s `−Σ_j x_ij ≥ −C_i`.
/// Returns the program and a strictly feasible start (5% over every
/// demand, spread by capacity).
fn p2_program(
    clouds: usize,
    users: usize,
    shape: usize,
    raw: &[f64],
) -> (SeparableObjective, CscMatrix, Vec<f64>, Vec<f64>) {
    let at = |i: usize| raw[i % raw.len()];
    let n = clouds * users;
    let demand: Vec<f64> = (0..users).map(|j| 0.5 + at(3 * j)).collect();
    let total: f64 = demand.iter().sum();
    let cap: Vec<f64> = (0..clouds)
        .map(|i| (1.2 + at(5 * i + 1)) * total / clouds as f64)
        .collect();
    let cap_total: f64 = cap.iter().sum();

    let mut f = SeparableObjective::new(n);
    for i in 0..clouds {
        let members: Vec<usize> = (0..users).map(|j| i * users + j).collect();
        f.add_group(
            members,
            ScalarTerm::RelativeEntropy {
                weight: 0.2 + at(7 * i + 2),
                eps: 0.5,
                xref: at(11 * i + 3) * total / clouds as f64,
            },
        );
        for j in 0..users {
            let k = i * users + j;
            f.add_term(
                k,
                ScalarTerm::Linear {
                    coef: 0.1 + at(k + 4),
                },
            );
            f.add_term(
                k,
                ScalarTerm::RelativeEntropy {
                    weight: 0.1 + 0.5 * at(2 * k + 5),
                    eps: 0.5,
                    xref: at(3 * k + 6) - 0.05,
                },
            );
        }
    }

    let cap_rows = if shape == 0 { 1 } else { clouds };
    let mut a = Triplets::new(users + cap_rows, n);
    let mut b = demand.clone();
    for j in 0..users {
        for i in 0..clouds {
            a.push(j, i * users + j, 1.0);
        }
    }
    for i in 0..clouds {
        for j in 0..users {
            let k = i * users + j;
            match shape {
                0 => a.push(users, k, -1.0),
                1 => {
                    for other in (0..clouds).filter(|&o| o != i) {
                        a.push(users + other, k, 1.0);
                    }
                }
                _ => a.push(users + i, k, -1.0),
            }
        }
    }
    match shape {
        0 => b.push(-cap_total),
        1 => b.extend(cap.iter().map(|&c| total - c)),
        _ => b.extend(cap.iter().map(|&c| -c)),
    }
    let start = (0..n)
        .map(|k| 1.05 * demand[k % users] * cap[k / users] / cap_total)
        .collect();
    (f, a.to_csc(), b, start)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random ℙ₂-shaped programs.
    #[test]
    fn p2_shaped_solves_are_certified(
        clouds in 2usize..6,
        users in 3usize..28,
        shape in 0usize..3,
        raw in proptest::collection::vec(0.05f64..2.5, 256),
    ) {
        let (f, a, b, start) = p2_program(clouds, users, shape, &raw);
        assert_certified(f, a, b, Some(&start));
    }
}
