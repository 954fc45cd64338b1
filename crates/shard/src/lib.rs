//! Sharded per-slot solves: price-coordinated dual decomposition across
//! user shards.
//!
//! The paper's online algorithm solves one regularized convex program ℙ₂
//! per slot over all `I × J` allocation variables. The blocked Schur kernel
//! (see `optim::convex`) made the Newton *steps* near-linear in `J`, but
//! the whole-slot solve is still one monolithic Newton system, and its
//! superlinear growth in `J` eventually dominates. This crate decomposes
//! the slot across **users** instead:
//!
//! 1. [`ShardPlan`] partitions the `J` users into `S` workload-balanced
//!    shards.
//! 2. Each shard solves its own restricted ℙ₂ — its users only, full cloud
//!    set — with the existing `P2Workspace` machinery, from the cold
//!    proportional start every round ([`coordinator`]).
//! 3. A capacity-price loop coordinates the shards: dual ascent on the
//!    coupling constraints `Σ_j x_{ij} ≤ C_i` plus a tangent linearization
//!    of the per-cloud aggregate reconfiguration regularizer, iterated
//!    until the merged solution's capacity violation and a rigorously
//!    certified duality gap fall below tolerance.
//! 4. [`merge::merge_shards`] reassembles the shard solutions and
//!    [`edgealloc::exact::project_exact`] turns the merged point into a
//!    decision that satisfies demand and capacity **exactly** under
//!    floating-point summation.
//!
//! [`OnlineSharded`] packages the loop as an `OnlineAlgorithm` drop-in
//! (name `online-sharded`): the coordinator runs as a step inside an
//! `OnlineRegularized` slot pipeline, whose monolithic ladder takes the
//! cases decomposition cannot handle.

pub mod chaos;
pub mod coordinator;
pub mod merge;
pub mod plan;
pub mod sharded;

pub use chaos::{ChaosConfig, CorruptKind, FaultRoll};
pub use coordinator::{Coordinator, CoordinatorConfig};
pub use merge::{merge_shards, restrict};
pub use plan::ShardPlan;
pub use sharded::OnlineSharded;
