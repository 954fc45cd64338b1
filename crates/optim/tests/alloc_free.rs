//! Verifies the barrier solver's Newton hot path performs no per-step heap
//! allocation: with a warmed [`BarrierWorkspace`], a whole solve allocates
//! only the handful of vectors of the returned [`BarrierSolution`] — a
//! count independent of how many Newton steps the solve takes.
//!
//! The counting allocator is process-global, so this lives in its own
//! integration-test binary (one test process, no interference from
//! parallel tests in other files). It counts per thread: the harness runs
//! this file's tests on parallel threads, and a global count would also
//! take in the other tests' and the harness's own allocations. The solves
//! under test are sequential (one Schur thread), so the calling thread's
//! count is every allocation they make.

use optim::convex::{
    BarrierOptions, BarrierSolver, BarrierWorkspace, DiagPlusLowRank, DiagPlusLowRankWorkspace,
    ScalarTerm, SeparableObjective,
};
use optim::sparse::Triplets;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator must not panic, even on a thread whose
    // locals are being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A ℙ₂-shaped program: linear + entropy terms per variable, entropy group
/// terms per "cloud", demand rows and a coupling row — enough structure to
/// exercise every branch of the Newton step (groups, active Schur rows,
/// backtracking).
fn p2_like(clouds: usize, users: usize) -> (BarrierSolver, Vec<f64>) {
    let n = clouds * users;
    let mut f = SeparableObjective::new(n);
    for i in 0..clouds {
        let members: Vec<usize> = (0..users).map(|j| i * users + j).collect();
        f.add_group(
            members,
            ScalarTerm::RelativeEntropy {
                weight: 0.7 + i as f64 * 0.1,
                eps: 0.5,
                xref: 1.0,
            },
        );
        for j in 0..users {
            let k = i * users + j;
            f.add_term(
                k,
                ScalarTerm::Linear {
                    coef: 1.0 + ((i * 7 + j * 3) % 5) as f64 * 0.3,
                },
            );
            f.add_term(
                k,
                ScalarTerm::RelativeEntropy {
                    weight: 0.4,
                    eps: 0.5,
                    xref: 0.3,
                },
            );
        }
    }
    let mut a = Triplets::new(users + 1, n);
    for j in 0..users {
        for i in 0..clouds {
            a.push(j, i * users + j, 1.0);
        }
    }
    for k in 0..n {
        a.push(users, k, 1.0);
    }
    let mut b = vec![1.0; users];
    b.push(users as f64 * 1.1);
    let solver = BarrierSolver::new(f, a.to_csc(), b).unwrap();
    // Strictly feasible start: spread every demand evenly with headroom.
    let start = vec![1.6 / clouds as f64; n];
    (solver, start)
}

fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn newton_inner_loop_is_allocation_free() {
    let (solver, start) = p2_like(4, 12);
    let mut ws = BarrierWorkspace::for_solver(&solver);
    let opts = BarrierOptions::default();
    // Warm-up solve: workspace buffers reach their steady-state sizes.
    let warm = solver
        .solve_with_workspace(Some(&start), &opts, &mut ws)
        .unwrap();
    assert!(warm.stats.iterations > 5, "test program too easy to solve");

    let mut solution_allocs = 0;
    let count = allocations_during(|| {
        let sol = solver
            .solve_with_workspace(Some(&start), &opts, &mut ws)
            .unwrap();
        // Only the returned solution may allocate: x, row_duals,
        // bound_duals (plus iterator-size slack inside collect).
        solution_allocs = 3;
        assert!(sol.stats.iterations > 5);
    });
    assert!(
        count <= 2 * solution_allocs + 4,
        "warmed solve allocated {count} times — the Newton inner loop is \
         supposed to run entirely out of the BarrierWorkspace"
    );

    // Control: the count must not scale with Newton steps. A much tighter
    // tolerance forces more outer iterations and more Newton steps; the
    // allocation count must stay flat.
    let tight = BarrierOptions {
        tol: 1e-10,
        ..BarrierOptions::default()
    };
    let mut steps_tight = 0;
    let count_tight = allocations_during(|| {
        let sol = solver
            .solve_with_workspace(Some(&start), &tight, &mut ws)
            .unwrap();
        steps_tight = sol.stats.iterations;
    });
    assert!(
        count_tight <= 2 * solution_allocs + 4,
        "allocations grew with solve length ({steps_tight} Newton steps → \
         {count_tight} allocations)"
    );
}

#[test]
fn blocked_kernel_newton_loop_is_allocation_free() {
    // Large enough that the demand rows form a real local block.
    let (solver, start) = p2_like(4, 64);
    let mut ws = BarrierWorkspace::for_solver(&solver);
    let opts = BarrierOptions::default();
    let warm = solver
        .solve_with_workspace(Some(&start), &opts, &mut ws)
        .unwrap();
    assert!(warm.stats.iterations > 5, "test program too easy to solve");

    let solution_allocs = 3;
    let count = allocations_during(|| {
        let sol = solver
            .solve_with_workspace(Some(&start), &opts, &mut ws)
            .unwrap();
        assert!(sol.stats.iterations > 5);
    });
    assert!(
        count <= 2 * solution_allocs + 4,
        "warmed blocked-kernel solve allocated {count} times — the nested-\
         Schur elimination is supposed to run entirely out of the workspace"
    );
}

#[test]
fn one_shot_solve_still_works_and_matches_workspace_path() {
    let (solver, start) = p2_like(3, 8);
    let opts = BarrierOptions::default();
    let one_shot = solver.solve(Some(&start), &opts).unwrap();
    let mut ws = BarrierWorkspace::for_solver(&solver);
    let via_ws = solver
        .solve_with_workspace(Some(&start), &opts, &mut ws)
        .unwrap();
    assert_eq!(one_shot.x, via_ws.x, "identical arithmetic expected");
    assert_eq!(one_shot.stats.iterations, via_ws.stats.iterations);
}

#[test]
fn warmed_factorization_back_solves_without_allocating() {
    // ℙ₂'s coupling pattern (group rows, demand rows, one capacity row):
    // after one warm-up, a factorization and two back-solves against it
    // allocate nothing.
    let (clouds, users) = (4, 64);
    let n = clouds * users;
    let mut t = Triplets::new(clouds + users + 1, n);
    for i in 0..clouds {
        for j in 0..users {
            let k = i * users + j;
            t.push(i, k, 1.0);
            t.push(clouds + j, k, 1.0);
            t.push(clouds + users, k, 1.0);
        }
    }
    let u = t.to_csc();
    let d: Vec<f64> = (0..n).map(|k| 1.0 + (k % 5) as f64 * 0.25).collect();
    let e: Vec<f64> = (0..u.nrows()).map(|i| 0.5 + (i % 3) as f64).collect();
    let r1: Vec<f64> = (0..n).map(|k| (k as f64 * 0.3).sin()).collect();
    let r2: Vec<f64> = (0..n).map(|k| (k as f64 * 0.7).cos()).collect();
    let op = DiagPlusLowRank::new(u);
    let mut ws = DiagPlusLowRankWorkspace::for_solver(&op);
    let (mut x1, mut x2) = (vec![0.0; n], vec![0.0; n]);
    op.solve_into(&d, &e, &r1, &mut ws, &mut x1).unwrap();
    let count = allocations_during(|| {
        op.factor(&d, &e, &mut ws).unwrap();
        op.back_solve(&d, &r1, &mut ws, &mut x1);
        op.back_solve(&d, &r2, &mut ws, &mut x2);
    });
    assert_eq!(count, 0, "factor + two back-solves allocated {count} times");
}
