//! `optim` — a self-contained convex-optimization substrate.
//!
//! This crate replaces the Pyomo + IPOPT/GLPK stack used by the ICDCS 2017
//! paper *Online Resource Allocation for Arbitrary User Mobility in
//! Distributed Edge Clouds*. It provides everything needed to solve the
//! paper's per-slot convex program ℙ₂, the per-slot greedy LPs, and the
//! horizon-wide offline LP, built from scratch:
//!
//! * [`sparse`] — compressed sparse column matrices and symmetric products.
//! * [`linalg`] — dense Cholesky/LU, sparse LDLᵀ factorization with
//!   elimination trees and a fill-reducing minimum-degree ordering.
//! * [`lp`] — a sparse Mehrotra predictor-corrector interior-point solver
//!   and an independent dense two-phase simplex used as a cross-check oracle.
//! * [`convex`] — a log-barrier path-following Newton solver for separable
//!   convex objectives (plus "group" terms `φ(Σ xᵢ)`) over linear
//!   inequality constraints, exploiting diagonal-plus-low-rank Hessian
//!   structure via a user-blocked nested Schur complement.
//! * [`resilience`] — retries that re-solve with escalating relaxations
//!   on iteration-limit or numerical breakdown and report what happened in
//!   a structured [`resilience::SolveReport`].
//! * [`parallel`] — scoped work-queue parallel maps sized by a shared
//!   process-global [`parallel::WorkerBudget`], so nested fan-outs (sweep
//!   points × repetitions × shards) never oversubscribe cores, and the
//!   part runner ([`parallel::Permits::run_parts`]) with which a large
//!   cohort slot splits its passes over users, inside the slot, on the
//!   same budget.
//! * [`budget`] — cooperative wall-clock/iteration budgets
//!   ([`budget::SolveBudget`]) checked at the top of every Newton /
//!   predictor-corrector iteration, so a hanging solve surrenders at its
//!   deadline with the best iterate it reached instead of stalling the
//!   caller.
//! * [`dual`] — the projected-subgradient dual-ascent driver
//!   ([`dual::DualAscent`]) behind price-coordinated decompositions:
//!   step-size schedule, best-round salvage bookkeeping, and per-round
//!   budget slicing for deadline-bounded coordination loops.
//!
//! # Example
//!
//! Solve `min -x - 2y  s.t. x + y <= 4, x <= 3, x,y >= 0`:
//!
//! ```
//! use optim::lp::{ConstraintSense, LpProblem};
//!
//! # fn main() -> Result<(), optim::Error> {
//! let mut lp = LpProblem::new();
//! let x = lp.add_var(-1.0);
//! let y = lp.add_var(-2.0);
//! lp.add_row(ConstraintSense::Le, 4.0, &[(x, 1.0), (y, 1.0)]);
//! lp.add_row(ConstraintSense::Le, 3.0, &[(x, 1.0)]);
//! let sol = lp.solve()?;
//! assert!((sol.objective - (-8.0)).abs() < 1e-6);
//! assert!((sol.x[y] - 4.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

pub mod budget;
pub mod convex;
pub mod dual;
pub mod linalg;
pub mod lp;
pub mod parallel;
pub mod resilience;
pub mod sparse;

use std::fmt;

/// Errors produced by the solvers in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The problem was proven (primal) infeasible.
    Infeasible,
    /// The problem was proven unbounded below.
    Unbounded,
    /// Dimensions of the supplied data are inconsistent.
    Dimension(String),
    /// The iteration limit was reached before convergence.
    MaxIterations { iterations: usize, residual: f64 },
    /// A factorization or line search broke down numerically.
    Numerical(String),
    /// The supplied starting point is not strictly feasible.
    BadStartingPoint(String),
    /// The problem description itself is invalid (NaN coefficient, …).
    InvalidInput(String),
    /// The solve's [`budget::SolveBudget`] ran out before convergence. The
    /// best iterate reached so far rides along (boxed — it is by far the
    /// largest variant) so callers can salvage a feasible-enough point
    /// instead of getting nothing; `None` when the budget expired before
    /// any iterate existed.
    DeadlineExceeded {
        /// Iterations completed before the budget ran out.
        iterations: usize,
        /// The best iterate reached, if any.
        best: Option<Box<Salvage>>,
    },
}

/// The best iterate a deadline-interrupted solve reached (see
/// [`Error::DeadlineExceeded`]).
///
/// For the barrier solver `x` is always **strictly feasible** (interior
/// methods never leave the feasible region), so a salvaged point can be
/// used as a degraded-but-valid decision; `residual` is the duality-gap
/// bound certified at interruption. For the LP solver the iterate is
/// generally infeasible until convergence — `residual` then reports the
/// worst relative KKT residual and callers should treat `x` as a warm
/// start, not a solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Salvage {
    /// The iterate.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// Accuracy bound at interruption (duality gap for the barrier, worst
    /// relative residual for the LP solver).
    pub residual: f64,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Infeasible => write!(f, "problem is infeasible"),
            Error::Unbounded => write!(f, "problem is unbounded"),
            Error::Dimension(s) => write!(f, "dimension mismatch: {s}"),
            Error::MaxIterations {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:.3e})"
            ),
            Error::Numerical(s) => write!(f, "numerical failure: {s}"),
            Error::BadStartingPoint(s) => write!(f, "starting point not strictly feasible: {s}"),
            Error::InvalidInput(s) => write!(f, "invalid input: {s}"),
            Error::DeadlineExceeded { iterations, best } => write!(
                f,
                "solve budget exhausted after {iterations} iterations ({})",
                match best {
                    Some(s) => format!("best iterate salvaged, residual {:.3e}", s.residual),
                    None => "no iterate to salvage".into(),
                }
            ),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
