//! `online-sharded` — the sharded online algorithm.
//!
//! [`OnlineSharded`] runs one [`OnlineRegularized`] — its sentinel,
//! shedding rung, cohort path and monolithic ladder — with the
//! price-coordinated shard decomposition of [`crate::coordinator`] as the
//! per-user [`SlotStep`] ahead of the ladder. The step declines, and the
//! slot goes to the monolithic ladder (explicit capacity rows, same kernel
//! and options), whenever sharding cannot apply or coordination fails:
//!
//! - fewer than two effective shards (`min(S, J) < 2`) — there is nothing
//!   to decompose, and the monolithic path skips the coordination overhead;
//! - a non-positive operation weight — the price adjustment `μ/w_op` is
//!   undefined, so the prices cannot be folded into the shard subproblems;
//! - the coordinator produced no adoptable round (e.g. a fault stripped the
//!   capacity interior) — the ladder gets the slot's remaining budget, and
//!   [`run_online`]'s carry-forward rung backstops *that*.
//!
//! [`run_online`]: edgealloc::algorithms::run_online

use edgealloc::algorithms::{OnlineAlgorithm, OnlineRegularized, SlotInput, SlotStep};
use edgealloc::allocation::Allocation;
use edgealloc::health::SlotHealth;
use edgealloc::Result;
use optim::budget::SolveBudget;

use crate::chaos::ChaosConfig;
use crate::coordinator::{Coordinator, CoordinatorConfig};

/// The sharded online algorithm (see the crate docs for the decomposition).
///
/// # Example
///
/// ```
/// use edgealloc::prelude::*;
/// use shard::OnlineSharded;
///
/// # fn main() -> Result<(), edgealloc::Error> {
/// let inst = Instance::fig1_example(2.1, true);
/// let mut alg = OnlineSharded::new(2, OnlineRegularized::with_defaults());
/// let traj = run_online(&inst, &mut alg)?;
/// assert_eq!(traj.allocations.len(), inst.num_slots());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct OnlineSharded {
    step: ShardStep,
    inner: OnlineRegularized,
}

/// The shard settings and the lazily built coordinator: the step
/// [`OnlineSharded`] passes to its inner pipeline.
#[derive(Debug)]
struct ShardStep {
    cfg: CoordinatorConfig,
    coordinator: Option<Coordinator>,
}

impl OnlineSharded {
    /// Decomposes `inner`'s per-user slots across `shards` target shards.
    /// `inner` supplies everything else — ε, solver options, kernel,
    /// deadline, shedding and cohort settings — and is switched to explicit
    /// capacity rows, which the shard decomposition prices.
    pub fn new(shards: usize, inner: OnlineRegularized) -> Self {
        OnlineSharded {
            step: ShardStep {
                cfg: CoordinatorConfig {
                    shards: shards.max(1),
                    ..CoordinatorConfig::default()
                },
                coordinator: None,
            },
            inner: inner.with_explicit_capacity(),
        }
    }

    /// Caps the coordination rounds per slot.
    pub fn with_max_rounds(mut self, rounds: usize) -> Self {
        self.step.cfg.max_rounds = rounds.max(1);
        self
    }

    /// Sets the convergence tolerances: relative duality gap and relative
    /// capacity violation.
    pub fn with_tolerances(mut self, tol_gap: f64, tol_violation: f64) -> Self {
        self.step.cfg.tol_gap = tol_gap;
        self.step.cfg.tol_violation = tol_violation;
        self
    }

    /// Installs deterministic shard fault injection (the chaos harness;
    /// see [`ChaosConfig`]). `None` — or a config whose probabilities are
    /// all zero — keeps the solve path bit-identical to a run without
    /// chaos wired in.
    pub fn with_chaos(mut self, chaos: impl Into<Option<ChaosConfig>>) -> Self {
        self.step.cfg.chaos = chaos.into();
        self.step.coordinator = None;
        self
    }

    /// Retries per shard per round after a panic, solver error, or
    /// quarantined offer (0 = first attempt only).
    pub fn with_retry_limit(mut self, retries: usize) -> Self {
        self.step.cfg.retry_limit = retries;
        self.step.coordinator = None;
        self
    }

    /// The per-slot wall-clock budget of the inner algorithm, if any.
    pub fn slot_deadline_ms(&self) -> Option<f64> {
        self.inner.slot_deadline_ms()
    }

    /// Target shard count (effective count is capped at the user count).
    pub fn shards(&self) -> usize {
        self.step.cfg.shards
    }

    /// Carries the shard plan across a churn boundary instead of
    /// discarding it.
    ///
    /// `remap[old_j]` gives a surviving user's new dense index (`None` for
    /// departures) and `new_workloads` is the post-churn workload vector.
    /// Shard plans are repaired in place — survivors keep their shards,
    /// arrivals go to the lightest shard, emptied shards are dropped —
    /// while coordination state (prices, breaker counts, offer archive) is
    /// preserved. The inner algorithm drops its stale workspace, as
    /// `OnlineRegularized` does at every churn boundary.
    pub fn apply_churn(&mut self, remap: &[Option<usize>], new_workloads: &[f64]) {
        if new_workloads.is_empty() {
            self.reset();
            return;
        }
        if let Some(c) = self.step.coordinator.as_mut() {
            c.repair_churn(remap, new_workloads);
        }
        self.inner.reset();
    }
}

impl SlotStep for ShardStep {
    fn decide(
        &mut self,
        solver: &OnlineRegularized,
        input: &SlotInput<'_>,
        prev: &Allocation,
        health: &mut SlotHealth,
        budget: &SolveBudget,
    ) -> Option<Allocation> {
        let s_eff = self.cfg.shards.min(input.num_users());
        if s_eff < 2 || !(input.weights.operation > 0.0) {
            return None;
        }
        // A survivor-reduced (shed) slot has fewer users than the plan:
        // the staleness check rebuilds the coordinator for it.
        let stale = self
            .coordinator
            .as_ref()
            .is_none_or(|c| !c.matches(input, self.cfg.shards));
        if stale {
            self.coordinator = Some(Coordinator::new(self.cfg.clone(), input));
        }
        let coord = self.coordinator.as_mut().expect("coordinator was built");
        match coord.solve_slot(solver, input, prev, budget, health) {
            Ok(x) => Some(x),
            Err(e) => {
                health.note_error(format!("shard coordination failed: {e}"));
                None
            }
        }
    }

    fn reset(&mut self) {
        self.coordinator = None;
    }
}

impl OnlineAlgorithm for OnlineSharded {
    fn name(&self) -> &str {
        "online-sharded"
    }

    fn decide(&mut self, input: &SlotInput<'_>, prev: &Allocation) -> Result<Allocation> {
        self.inner.decide_with(input, prev, &mut self.step)
    }

    /// The inner record; a slot the coordinator did not decide counts as
    /// one shard.
    fn take_health(&mut self) -> Option<SlotHealth> {
        self.inner.take_health().map(|mut h| {
            h.shards = h.shards.max(1);
            h
        })
    }

    fn reset(&mut self) {
        self.step.reset();
        self.inner.reset();
    }
}
