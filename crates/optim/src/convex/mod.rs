//! Separable convex programming over linear inequality constraints.
//!
//! Solves problems of the form
//!
//! ```text
//! min  Σ_k f_k(x_k) + Σ_g φ_g(Σ_{k∈g} x_k)
//! s.t. A x ≥ b,   x ≥ 0
//! ```
//!
//! where each `f_k` and `φ_g` is smooth and convex on `x > 0` — exactly the
//! shape of the paper's regularized per-slot program ℙ₂ (linear terms plus
//! relative-entropy terms on both the per-user-per-cloud variables and the
//! per-cloud aggregates).
//!
//! The solver ([`BarrierSolver`]) is a log-barrier path-following Newton
//! method. The Newton matrix is `D + Uᵀ E U` with diagonal `D` (from the
//! separable terms and the `x ≥ 0` barrier) and a low-rank coupling `U`
//! (group indicator rows and the constraint rows of `A`), so each Newton
//! step is solved with a Schur complement over the coupling rows —
//! independent of the number of variables. The complement is factored by
//! a user-blocked nested-Schur elimination ([`DiagPlusLowRank`]) that is
//! *linear* in the number of pairwise-disjoint ("local") rows — for ℙ₂,
//! linear in the number of users — and cubic only in the few rows that
//! couple them. [`SchurKernel`] names that one kernel and selects nothing.

mod barrier;
mod schur;
mod separable;

pub use barrier::{BarrierOptions, BarrierSolution, BarrierSolver, BarrierStats, BarrierWorkspace};
pub use schur::{ArrowForm, DiagPlusLowRank, DiagPlusLowRankWorkspace, SchurKernel};
pub use separable::{GroupTerm, ScalarTerm, SeparableObjective};
