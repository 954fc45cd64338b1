//! The pipelined long-running allocator.

use edgealloc::algorithms::{decide_slot, OnlineAlgorithm, OnlineRegularized, SlotInput};
use edgealloc::cohort::CohortConfig;
use edgealloc::cost::CostBreakdown;
use edgealloc::health::{HealthSummary, SlotHealth};
use edgealloc::Allocation;
use optim::convex::SchurKernel;
use shard::OnlineSharded;
use std::sync::mpsc::sync_channel;
use std::time::Instant;

use crate::event::SlotUpdate;
use crate::state::{ChurnOutcome, StreamState};

/// Demand headroom the residual capacities must offer before the
/// incremental path engages: residual room below `(1 + RESIDUAL_MARGIN) ×`
/// the churned demand falls back to a full solve.
const RESIDUAL_MARGIN: f64 = 0.05;

/// An online algorithm that can carry per-user state across a churn
/// boundary: `remap[old_j]` gives each pre-churn user's new dense index
/// (`None` for departures), `new_workloads` the post-churn workload
/// vector. Implementations must tolerate any population change; dropping
/// all such state is always a correct (if slow) response.
pub trait ChurnAware: OnlineAlgorithm {
    /// Remaps internal per-user state across the churn boundary.
    fn apply_churn(&mut self, remap: &[Option<usize>], new_workloads: &[f64]);
}

impl ChurnAware for OnlineRegularized {
    /// Every ℙ₂ solve starts cold, so there is nothing to remap. Churn
    /// reshapes the program, so the stale workspace is dropped here rather
    /// than held while the next slot builds its replacement.
    fn apply_churn(&mut self, _remap: &[Option<usize>], _new_workloads: &[f64]) {
        self.reset();
    }
}

impl ChurnAware for OnlineSharded {
    fn apply_churn(&mut self, remap: &[Option<usize>], new_workloads: &[f64]) {
        OnlineSharded::apply_churn(self, remap, new_workloads);
    }
}

/// Configuration of the streaming driver.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Largest churned-user fraction the incremental path accepts; slots
    /// above it (and all slots when this is 0.0, the default) solve in
    /// full. Incremental slots freeze the survivors at their previous
    /// allocation and re-place only churned users against the residual
    /// capacities, trading bounded staleness for latency — see DESIGN.md
    /// §17.
    pub max_incremental_churn: f64,
    /// Force a full solve every this many slots so incremental staleness
    /// cannot accumulate unboundedly (0 = never force; the default is 16).
    pub refresh_every: usize,
    /// Bound of the staging channel between the event producer and the
    /// solver: how many slots may be staged ahead while the current slot
    /// solves. Backpressure blocks the producer when full.
    pub pipeline_depth: usize,
    /// Per-slot wall-clock budget for the *delta* solver (the main
    /// algorithm carries its own deadline configuration).
    pub slot_deadline_ms: Option<f64>,
    /// Retain every slot's allocation (and dense-id snapshot) on the
    /// outcome. Off by default: a long soak at large `J` would hold the
    /// whole trajectory in memory.
    pub keep_allocations: bool,
    /// Cohort configuration of the delta solver.
    pub delta_cohorts: CohortConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            max_incremental_churn: 0.0,
            refresh_every: 16,
            pipeline_depth: 2,
            slot_deadline_ms: None,
            keep_allocations: false,
            delta_cohorts: CohortConfig::default(),
        }
    }
}

/// What a finished (or checkpointed) stream run produced, slot by slot.
#[derive(Debug, Clone, Default)]
pub struct StreamOutcome {
    /// Per-slot health records (churn telemetry stamped).
    pub health: Vec<SlotHealth>,
    /// Per-slot ℙ₀ costs (static + transition into the slot).
    pub costs: Vec<CostBreakdown>,
    /// Per-slot user population (after the slot's events).
    pub users: Vec<usize>,
    /// Per-slot wall-clock milliseconds (delta application + solve).
    pub slot_ms: Vec<f64>,
    /// Slots served by the incremental path.
    pub incremental_slots: usize,
    /// Per-slot allocations; populated only under
    /// [`StreamConfig::keep_allocations`].
    pub allocations: Vec<Allocation>,
    /// Dense-index → stable-handle snapshots matching `allocations`.
    pub ids_per_slot: Vec<Vec<u64>>,
}

impl StreamOutcome {
    /// Condensed health over the run.
    pub fn summary(&self) -> HealthSummary {
        HealthSummary::from_slots(&self.health)
    }

    /// Total cost over the run.
    pub fn total_cost(&self) -> CostBreakdown {
        let mut total = CostBreakdown::default();
        for c in &self.costs {
            total += *c;
        }
        total
    }
}

/// The long-running allocator: owns the incremental state, the main
/// algorithm, and a restricted delta solver, and turns each
/// [`SlotUpdate`] into an allocation. Drive it slot by slot with
/// [`StreamDriver::step`] (checkpoint/resume harnesses do), or feed a
/// whole update stream through the pipelined [`run_stream`].
pub struct StreamDriver<A: ChurnAware> {
    state: StreamState,
    alg: A,
    /// Restricted solver for churned users on incremental slots: explicit
    /// residual capacities, the blocked Schur kernel, cohort-reduced.
    delta: OnlineRegularized,
    cfg: StreamConfig,
    prev: Allocation,
    /// Storage for the next churn remap or decision, swapped with `prev`,
    /// so steady-state slots allocate no `I × J` matrix.
    spare: Allocation,
    slots_since_full: usize,
    /// The incremental path needs one full solve to anchor on: survivors
    /// frozen at an all-zero allocation would leave their demand unmet.
    anchored: bool,
    outcome: StreamOutcome,
}

impl<A: ChurnAware> StreamDriver<A> {
    /// A driver over an initial (usually empty) state.
    pub fn new(state: StreamState, mut alg: A, cfg: StreamConfig) -> Self {
        alg.reset();
        let mut delta = OnlineRegularized::with_defaults()
            .with_explicit_capacity()
            .with_schur_kernel(SchurKernel::Blocked)
            .with_cohort_config(cfg.delta_cohorts)
            .with_slot_deadline_ms(cfg.slot_deadline_ms);
        delta.reset();
        let prev = Allocation::zeros(state.num_clouds(), state.num_users());
        StreamDriver {
            state,
            alg,
            delta,
            cfg,
            spare: prev.clone(),
            prev,
            slots_since_full: 0,
            anchored: false,
            outcome: StreamOutcome::default(),
        }
    }

    /// The current incremental state.
    pub fn state(&self) -> &StreamState {
        &self.state
    }

    /// The most recent allocation (dense over the current population).
    pub fn allocation(&self) -> &Allocation {
        &self.prev
    }

    /// Read access to the accumulating outcome.
    pub fn outcome(&self) -> &StreamOutcome {
        &self.outcome
    }

    /// Applies one slot update and solves the slot. Never panics on
    /// malformed updates and never aborts the horizon: solver failures
    /// degrade through the same ladder as the batch loop.
    pub fn step(&mut self, update: &SlotUpdate) {
        let started = Instant::now();
        let churn = self.state.apply(update);
        let num_clouds = self.state.num_clouds();
        let num_users = self.state.num_users();
        // Carry the algorithm's state and the previous allocation across
        // the boundary.
        if let Some(remap) = &churn.remap {
            remap_allocation(&mut self.spare, &self.prev, remap, num_clouds, num_users);
            std::mem::swap(&mut self.prev, &mut self.spare);
            self.alg.apply_churn(remap, self.state.workloads());
        }
        // A decided slot leaves its allocation in `spare`; the others keep
        // `prev`.
        let (mut h, decided) = if num_users == 0 {
            (SlotHealth::primary(), false)
        } else if !self.incremental_applies(&churn, num_users) {
            (self.solve_full(), true)
        } else if churn.churned.is_empty() {
            // Nothing changed except prices; carry the allocation forward
            // unmodified. `refresh_every` bounds the staleness.
            self.slots_since_full += 1;
            let mut h = SlotHealth::primary();
            h.incremental = true;
            (h, false)
        } else {
            match self.solve_incremental(&churn.churned) {
                Some(h) => (h, true),
                None => (self.solve_full(), true),
            }
        };
        h.churn_arrivals = churn.arrivals;
        h.churn_departs = churn.departs;
        h.churn_moves = churn.moves;
        if h.incremental {
            self.outcome.incremental_slots += 1;
        }
        if !churn.notes.is_empty() {
            h.sanitized = true;
            h.errors.extend(churn.notes);
        }
        let cost = if decided {
            let cost = self.state.slot_cost(&self.prev, &self.spare);
            std::mem::swap(&mut self.prev, &mut self.spare);
            cost
        } else {
            self.state.slot_cost(&self.prev, &self.prev)
        };
        self.outcome.health.push(h);
        self.outcome.costs.push(cost);
        self.outcome.users.push(num_users);
        self.outcome
            .slot_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        if self.cfg.keep_allocations {
            self.outcome.allocations.push(self.prev.clone());
            self.outcome.ids_per_slot.push(self.state.ids().to_vec());
        }
    }

    /// Consumes the driver, returning the accumulated outcome.
    pub fn finish(self) -> StreamOutcome {
        self.outcome
    }

    fn incremental_applies(&self, churn: &ChurnOutcome, num_users: usize) -> bool {
        if self.cfg.max_incremental_churn <= 0.0 || !self.anchored || churn.scaled {
            return false;
        }
        if self.cfg.refresh_every > 0 && self.slots_since_full + 1 >= self.cfg.refresh_every {
            return false;
        }
        let frac = churn.churned.len() as f64 / num_users as f64;
        frac <= self.cfg.max_incremental_churn
    }

    /// Solves the slot in full into `spare`. The decision is copied rather
    /// than adopted, so `prev` and `spare` both keep room for the largest
    /// population seen.
    fn solve_full(&mut self) -> SlotHealth {
        let raw = self.state.slot_input();
        let (x, h) = decide_slot(&mut self.alg, &raw, &self.prev);
        self.spare.clone_from(&x);
        self.slots_since_full = 0;
        self.anchored = true;
        h
    }

    /// Freezes the survivors at their previous allocation and re-places
    /// only the churned users (non-empty) against the residual capacities,
    /// writing the slot's allocation into `spare`. Returns `None` when the
    /// residuals cannot absorb the churned demand (with
    /// [`RESIDUAL_MARGIN`]) — the caller then solves in full.
    fn solve_incremental(&mut self, churned: &[usize]) -> Option<SlotHealth> {
        let num_clouds = self.state.num_clouds();
        let num_users = self.state.num_users();
        let mut is_churned = vec![false; num_users];
        for &j in churned {
            is_churned[j] = true;
        }
        // Frozen per-cloud load of the survivors, and the residual room.
        let mut load = vec![0.0; num_clouds];
        for i in 0..num_clouds {
            for j in 0..num_users {
                if !is_churned[j] {
                    load[i] += self.prev.get(i, j);
                }
            }
        }
        let lambdas = self.state.workloads();
        let churned_demand: f64 = churned.iter().map(|&j| lambdas[j]).sum();
        let mut residual = vec![0.0; num_clouds];
        let mut total_residual = 0.0;
        for i in 0..num_clouds {
            residual[i] = (self.state.system().capacity(i) - load[i]).max(0.0);
            total_residual += residual[i];
        }
        if total_residual < churned_demand * (1.0 + RESIDUAL_MARGIN) {
            return None;
        }
        let mut sub_system = self.state.system().clone();
        for (i, &r) in residual.iter().enumerate() {
            sub_system.inject_capacity(i, r);
        }
        let attachment = self.state.attachment();
        let access_delay = self.state.access_delay();
        let sub_workloads: Vec<f64> = churned.iter().map(|&j| lambdas[j]).collect();
        let sub_input = SlotInput {
            t: self.state.t(),
            system: &sub_system,
            workloads: &sub_workloads,
            operation_prices: self.state.operation_prices(),
            attachment: churned.iter().map(|&j| attachment[j]).collect(),
            access_delay: churned.iter().map(|&j| access_delay[j]).collect(),
            reconfig_prices: self.state.reconfig_prices(),
            migration_out: self.state.migration_out(),
            migration_in: self.state.migration_in(),
            weights: self.state.weights(),
            multiplicity: None,
        };
        // Moved users keep their previous columns as the migration
        // reference; arrivals ramp from zero.
        let mut sub_prev = Allocation::zeros(num_clouds, churned.len());
        for (k, &j) in churned.iter().enumerate() {
            for i in 0..num_clouds {
                sub_prev.set(i, k, self.prev.get(i, j));
            }
        }
        // The churned set changes every slot: start the delta solver
        // from a clean state.
        self.delta.reset();
        let (x_sub, mut h) = decide_slot(&mut self.delta, &sub_input, &sub_prev);
        // A carried-forward sub-solve (its own final rung) can leave
        // churned demand unserved; that is a real degradation the full
        // path must absorb instead.
        if x_sub.demand_shortfall(&sub_workloads) > 1e-6 * churned_demand.max(1.0) {
            return None;
        }
        let x = &mut self.spare;
        x.clone_from(&self.prev);
        for (k, &j) in churned.iter().enumerate() {
            for i in 0..num_clouds {
                x.set(i, j, x_sub.get(i, k));
            }
        }
        h.incremental = true;
        self.slots_since_full += 1;
        Some(h)
    }
}

/// Remaps an allocation across a churn boundary into `out`, reusing its
/// storage: survivor columns move to their new dense indices, arrival
/// columns start at zero.
fn remap_allocation(
    out: &mut Allocation,
    prev: &Allocation,
    remap: &[Option<usize>],
    num_clouds: usize,
    num_users: usize,
) {
    out.set_zeros(num_clouds, num_users);
    for (old_j, target) in remap.iter().enumerate() {
        let Some(new_j) = target else { continue };
        for i in 0..num_clouds {
            out.set(i, *new_j, prev.get(i, old_j));
        }
    }
}

/// Runs an update stream through a driver with pipelined staging: a
/// producer thread pulls updates (which may be expensive to materialize —
/// trace parsing, event generation) and stages up to
/// [`StreamConfig::pipeline_depth`] of them in a bounded channel while the
/// current slot solves; a full channel blocks the producer
/// (backpressure) instead of buffering unboundedly.
pub fn run_stream<A, I>(state: StreamState, alg: A, updates: I, cfg: StreamConfig) -> StreamOutcome
where
    A: ChurnAware,
    I: IntoIterator<Item = SlotUpdate>,
    I::IntoIter: Send,
{
    let depth = cfg.pipeline_depth.max(1);
    let mut driver = StreamDriver::new(state, alg, cfg);
    let iter = updates.into_iter();
    std::thread::scope(|s| {
        let (tx, rx) = sync_channel::<SlotUpdate>(depth);
        s.spawn(move || {
            for u in iter {
                if tx.send(u).is_err() {
                    return;
                }
            }
        });
        for update in rx {
            driver.step(&update);
        }
    });
    driver.finish()
}
