//! Mathematical programs behind the algorithms.
//!
//! * [`p2`] — the regularized convex per-slot program ℙ₂ (§III-B).
//! * [`per_slot_lp`] — per-slot LPs for the greedy and atomistic baselines.
//! * [`horizon_lp`] — the offline full-horizon LP for ℙ₀, with the
//!   telescoped one-directional migration reformulation.
//! * [`p3`] — the relaxed LP of the competitive analysis (§IV-B), solved
//!   exactly so the chain `P₁ ≥ P₃ ≥ D` can be checked numerically.
//! * [`dual`] — the fitted dual solution `S_D` of program 𝔻 used by the
//!   competitive analysis (Lemmas 2, 5, 6), exposed so tests can verify the
//!   paper's inequalities numerically.

pub mod dual;
pub mod horizon_lp;
pub mod p2;
pub mod p3;
pub mod per_slot_lp;
