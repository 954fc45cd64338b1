//! `edgealloc` — online resource allocation for arbitrary user mobility in
//! distributed edge clouds.
//!
//! A complete Rust implementation of the ICDCS 2017 paper by Wang, Jiao, Li
//! and Mühlhäuser. An operator runs `I` edge clouds with capacities `C_i`;
//! `J` mobile users move arbitrarily between them, each carrying workload
//! `λ_j` that may be split across clouds. Four costs accrue over a
//! time-slotted horizon (program ℙ₀):
//!
//! * **operation** — time-varying per-unit resource prices `a_{i,t}`;
//! * **service quality** — user↔cloud and cloud↔cloud network delays;
//! * **reconfiguration** — `c_i · (scale-up of cloud i)⁺` across slots;
//! * **migration** — `b_i^{out}/b_i^{in}` per unit of workload moved.
//!
//! The centerpiece is [`algorithms::OnlineRegularized`]: at each slot it
//! solves the convex program ℙ₂ whose relative-entropy regularizers smooth
//! the dynamic costs, yielding a feasible trajectory with competitive ratio
//! `1 + γ|I|` (Theorem 2) — with **no** knowledge of future prices or
//! movements. All baselines evaluated by the paper are here too:
//! online-greedy, the atomistic group (perf-opt / oper-opt / stat-opt), the
//! offline optimum, and static allocations.
//!
//! # Quickstart
//!
//! ```
//! use edgealloc::prelude::*;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), edgealloc::Error> {
//! // A small scenario: the Rome metro system, random-walk users.
//! let net = mobility::rome_metro();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mob = mobility::random_walk::generate(&net, 8, 12, &mut rng);
//! let instance = Instance::synthetic(&net, mob, &mut rng);
//!
//! // Run the paper's online algorithm and compare with the offline optimum.
//! let mut online = OnlineRegularized::with_defaults();
//! let trajectory = run_online(&instance, &mut online)?;
//! let cost = evaluate_trajectory(&instance, &trajectory.allocations);
//!
//! let offline = solve_offline(&instance)?;
//! assert!(cost.total() >= offline.cost.total() - 1e-6);
//! # Ok(())
//! # }
//! ```

pub mod algorithms;
pub mod allocation;
pub mod cohort;
pub mod cost;
pub mod exact;
mod hash;
pub mod health;
pub mod instance;
pub mod programs;
pub mod ratio;
pub mod sanitize;
pub mod sentinel;
pub mod shed;
mod split;
pub mod system;
pub mod transform;

use std::fmt;

pub use algorithms::{decide_slot, run_online, OnlineAlgorithm, SlotInput, Trajectory};
pub use allocation::Allocation;
pub use cohort::{CohortConfig, CohortPlan};
pub use cost::{evaluate_trajectory, CostBreakdown, CostWeights};
pub use exact::project_exact;
pub use health::{FallbackRung, HealthSummary, RungCounts, SlotHealth};
pub use instance::Instance;
pub use sentinel::{SentinelReport, SentinelVerdict};
pub use shed::{OverflowTier, ShedConfig, ShedDecision, SurvivorSlot};
pub use system::EdgeCloudSystem;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use crate::algorithms::{
        run_online, solve_offline, OnlineAlgorithm, OnlineGreedy, OnlineRegularized, OperOpt,
        PerfOpt, StatOpt, StaticPolicy, Trajectory,
    };
    pub use crate::allocation::Allocation;
    pub use crate::cohort::{CohortConfig, CohortPlan};
    pub use crate::cost::{evaluate_trajectory, CostBreakdown, CostWeights};
    pub use crate::exact::project_exact;
    pub use crate::health::{FallbackRung, HealthSummary, RungCounts, SlotHealth};
    pub use crate::instance::Instance;
    pub use crate::ratio::competitive_ratio;
    pub use crate::sentinel::{SentinelReport, SentinelVerdict};
    pub use crate::shed::{OverflowTier, ShedConfig, ShedDecision, SurvivorSlot};
    pub use crate::system::EdgeCloudSystem;
}

/// Errors surfaced by this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A solver from the `optim` substrate failed.
    Solver(optim::Error),
    /// The instance or arguments are internally inconsistent.
    Invalid(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Solver(e) => write!(f, "solver failure: {e}"),
            Error::Invalid(s) => write!(f, "invalid input: {s}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Solver(e) => Some(e),
            Error::Invalid(_) => None,
        }
    }
}

impl From<optim::Error> for Error {
    fn from(e: optim::Error) -> Self {
        Error::Solver(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
