//! Linear programming: problem representation and two solvers.
//!
//! * [`LpProblem`] — a general LP in "row form" with `<=`, `>=`, `=`
//!   constraints over nonnegative variables.
//! * [`StandardLp`] — the equality standard form `min cᵀx, Ax=b, x>=0`
//!   produced from an [`LpProblem`] by adding slack variables.
//! * [`solve_ip`] — a sparse Mehrotra predictor-corrector interior-point
//!   solver (the workhorse).
//! * [`simplex`] — a dense two-phase primal simplex, used as an independent
//!   cross-check oracle in tests and for tiny problems.

mod mehrotra;
mod problem;
pub mod simplex;
mod standard;

pub use mehrotra::{solve as solve_ip, IpmOptions, IpmSolution, IpmStats};
pub use problem::{ConstraintSense, LpProblem, LpSolution, LpStatus};
pub use standard::StandardLp;
