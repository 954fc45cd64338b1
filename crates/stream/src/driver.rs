//! The pipelined long-running allocator.

use edgealloc::algorithms::{decide_slot, OnlineAlgorithm, OnlineRegularized, SlotInput};
use edgealloc::cohort::CohortConfig;
use edgealloc::cost::{self, CostBreakdown};
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
    /// The last slot's allocation, carried across churn boundaries in
    /// place; its storage keeps room for the largest population seen.
    prev: Allocation,
    /// `prev`'s per-cloud totals `Σ_j x_ij`: recomputed after every full
    /// slot and kept current column by column in between.
    load: Vec<f64>,
    /// Roundings `load` has taken since it was recomputed, each off by at
    /// most one unit roundoff of the cloud's capacity.
    load_roundings: usize,
    /// `prev`'s per-user quality terms ([`cost::user_quality`]), dense like
    /// the users. Churned users' entries are stale until their slot's
    /// decision rewrites them.
    quality: Vec<f64>,
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
        let mut driver = StreamDriver {
            state,
            alg,
            delta,
            cfg,
            prev,
            load: Vec::new(),
            load_roundings: 0,
            quality: Vec::new(),
            slots_since_full: 0,
            anchored: false,
            outcome: StreamOutcome::default(),
        };
        driver.resync_caches();
        driver
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
        let num_users = self.state.num_users();
        // Carry the previous allocation, its caches and the algorithm's
        // state across the boundary.
        if let Some(remap) = &churn.remap {
            self.carry_across(remap);
            self.alg.apply_churn(remap, self.state.workloads());
        }
        let (mut h, cost) = if num_users == 0 {
            // No user to serve and nothing to charge.
            self.resync_caches();
            (SlotHealth::primary(), CostBreakdown::default())
        } else {
            let (h, transition) = if !self.incremental_applies(&churn, num_users) {
                self.solve_full()
            } else if churn.churned.is_empty() {
                // Nothing changed except prices and departures; carry the
                // allocation forward unmodified. No column is rewritten, so
                // there is no transition to charge. `refresh_every` bounds
                // the staleness.
                self.slots_since_full += 1;
                let mut h = SlotHealth::primary();
                h.incremental = true;
                (h, CostBreakdown::default())
            } else {
                match self.solve_incremental(&churn.churned) {
                    Some(decided) => decided,
                    None => self.solve_full(),
                }
            };
            // Every slot is charged one way: the static cost from the
            // caches, which now describe the slot's decision, plus the
            // transition of the columns it rewrote.
            (h, self.cached_static_cost() + transition)
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

    /// Carries `prev` and its caches across a churn boundary in place.
    /// [`StreamState::apply`] compacts with `swap_remove`, so a survivor
    /// only ever moves down, into an index a departure vacated: the moved
    /// survivors' columns are gathered, the user count changes in place,
    /// the vacated columns are zeroed (arrivals start from zero) and the
    /// gathered columns written back. Departed columns leave the load
    /// cache. Besides one scan of `remap` and the row move of a population
    /// change, this costs O(I) per departure or moved survivor.
    fn carry_across(&mut self, remap: &[Option<usize>]) {
        let num_clouds = self.state.num_clouds();
        let num_users = self.state.num_users();
        let mut vacated = Vec::new();
        let mut moved = Vec::new();
        let mut columns = Vec::new();
        for (old_j, target) in remap.iter().enumerate() {
            match *target {
                Some(new_j) if new_j == old_j => continue,
                Some(new_j) => {
                    columns.extend((0..num_clouds).map(|i| self.prev.get(i, old_j)));
                    moved.push((new_j, self.quality[old_j]));
                }
                None => {
                    for (i, load) in self.load.iter_mut().enumerate() {
                        *load -= self.prev.get(i, old_j);
                    }
                    self.load_roundings += 1;
                }
            }
            vacated.push(old_j);
        }
        self.prev.resize_users(num_users);
        self.quality.resize(num_users, 0.0);
        for &j in vacated.iter().filter(|&&j| j < num_users) {
            for i in 0..num_clouds {
                self.prev.set(i, j, 0.0);
            }
            self.quality[j] = 0.0;
        }
        for (&(j, quality), column) in moved.iter().zip(columns.chunks_exact(num_clouds)) {
            for (i, &v) in column.iter().enumerate() {
                self.prev.set(i, j, v);
            }
            self.quality[j] = quality;
        }
    }

    /// Recomputes both caches from `prev` with [`cost::static_totals`],
    /// the helper behind [`cost::slot_static_cost`], so a full slot is
    /// charged what `trajectory_timeline` charges, bit for bit.
    fn resync_caches(&mut self) {
        let state = &self.state;
        let (station, delay, lambda) =
            (state.attachment(), state.access_delay(), state.workloads());
        cost::static_totals(
            state.system(),
            |j| (station[j], delay[j], lambda[j]),
            &self.prev,
            &mut self.load,
            &mut self.quality,
        );
        self.load_roundings = self.prev.num_users();
    }

    /// The static cost of `prev`, charged from the caches.
    fn cached_static_cost(&self) -> CostBreakdown {
        cost::static_cost_from_totals(
            self.state.weights(),
            self.state.operation_prices(),
            &self.load,
            &self.quality,
        )
    }

    /// Solves the slot in full and returns the transition of every
    /// column. The decision is copied into `prev` rather than adopted, so
    /// `prev` keeps room for the largest population seen, and both caches
    /// are recomputed from it.
    fn solve_full(&mut self) -> (SlotHealth, CostBreakdown) {
        let raw = self.state.slot_input();
        let (x, h) = decide_slot(&mut self.alg, &raw, &self.prev);
        let transition = slot_transition(&raw, &self.prev, &x);
        self.prev.clone_from(&x);
        self.resync_caches();
        self.slots_since_full = 0;
        self.anchored = true;
        (h, transition)
    }

    /// Freezes the survivors at their previous allocation and re-places
    /// only the churned users (non-empty) against the residual capacities,
    /// writing their columns into `prev` and updating both caches. Returns
    /// the transition of the churned columns, or `None`, leaving `prev`
    /// and the caches untouched, when the residuals cannot absorb the
    /// churned demand (with [`RESIDUAL_MARGIN`]) or the sub-decision is
    /// not exactly feasible — the caller then solves in full.
    fn solve_incremental(&mut self, churned: &[usize]) -> Option<(SlotHealth, CostBreakdown)> {
        let num_clouds = self.state.num_clouds();
        let num_users = self.state.num_users();
        // Moved users keep their previous columns as the migration
        // reference; arrivals ramp from zero.
        let mut sub_prev = Allocation::zeros(num_clouds, churned.len());
        for (k, &j) in churned.iter().enumerate() {
            for i in 0..num_clouds {
                sub_prev.set(i, k, self.prev.get(i, j));
            }
        }
        // The survivors' frozen load is the cache minus the churned users'
        // previous columns. Each residual is shrunk by a rounding margin so
        // that the written decision's row totals stay within capacity as
        // computed. With u the unit roundoff and every load at most C_i,
        // the row total over J users errs by at most J·u·C_i, the cache by
        // `load_roundings`·u·C_i, the frozen load and the sub-solve's row
        // total by 2·churned·u·C_i more, and the residual's own two
        // roundings by 2·u·C_i; the margin is twice their sum
        // (ε = f64::EPSILON = 2u).
        let frozen: Vec<f64> = (0..num_clouds)
            .map(|i| self.load[i] - sub_prev.cloud_total(i))
            .collect();
        let roundings = num_users + self.load_roundings + 2 * churned.len() + 2;
        let lambdas = self.state.workloads();
        let churned_demand: f64 = churned.iter().map(|&j| lambdas[j]).sum();
        let mut sub_system = self.state.system().clone();
        let mut total_residual = 0.0;
        for (i, &load) in frozen.iter().enumerate() {
            let capacity = self.state.system().capacity(i);
            let margin = roundings as f64 * f64::EPSILON * capacity;
            let residual = (capacity - load - margin).max(0.0);
            sub_system.inject_capacity(i, residual);
            total_residual += residual;
        }
        if total_residual < churned_demand * (1.0 + RESIDUAL_MARGIN) {
            return None;
        }
        let attachment = self.state.attachment();
        let access_delay = self.state.access_delay();
        let sub_workloads: Vec<f64> = churned.iter().map(|&j| lambdas[j]).collect();
        let sub_attachment: Vec<usize> = churned.iter().map(|&j| attachment[j]).collect();
        let sub_delay: Vec<f64> = churned.iter().map(|&j| access_delay[j]).collect();
        let sub_input = SlotInput {
            t: self.state.t(),
            system: &sub_system,
            workloads: &sub_workloads,
            operation_prices: self.state.operation_prices(),
            attachment: &sub_attachment,
            access_delay: &sub_delay,
            reconfig_prices: self.state.reconfig_prices(),
            migration_out: self.state.migration_out(),
            migration_in: self.state.migration_in(),
            weights: self.state.weights(),
            multiplicity: None,
        };
        // The churned set changes every slot: start the delta solver
        // from a clean state.
        self.delta.reset();
        let (x_sub, mut h) = decide_slot(&mut self.delta, &sub_input, &sub_prev);
        // The delta solver has projected its decision once, against these
        // residual capacities and workloads. It is adopted only if it is
        // exactly feasible as written: each churned column sums to at least
        // λ_j, and each cloud's total stays within its residual, so with the
        // margin above the written row totals stay within capacity. A shed
        // sub-decision, or one the projection could not make exact (a
        // carried-forward one that leaves churned demand unserved, a
        // non-finite one), fails here, and the slot is solved in full.
        let exact = (0..churned.len()).all(|k| x_sub.user_total(k) >= sub_workloads[k])
            && (0..num_clouds).all(|i| x_sub.cloud_total(i) <= sub_system.capacity(i));
        if !exact {
            return None;
        }
        let transition = slot_transition(&sub_input, &sub_prev, &x_sub);
        for (k, &j) in churned.iter().enumerate() {
            for i in 0..num_clouds {
                self.prev.set(i, j, x_sub.get(i, k));
            }
            let user = (attachment[j], access_delay[j], lambdas[j]);
            self.quality[j] = cost::user_quality(self.state.system(), user, &x_sub, k);
        }
        for (i, load) in frozen.iter().enumerate() {
            self.load[i] = load + x_sub.cloud_total(i);
        }
        self.load_roundings += 2 * churned.len() + 2;
        h.incremental = true;
        self.slots_since_full += 1;
        Some((h, transition))
    }
}

/// ℙ₀'s transition from `prev` to `cur` at `input`'s static prices. A
/// column equal in both adds nothing, so a slot is charged the transition
/// of the columns it rewrote.
fn slot_transition(input: &SlotInput<'_>, prev: &Allocation, cur: &Allocation) -> CostBreakdown {
    cost::dynamic_cost(
        input.weights,
        input.reconfig_prices,
        input.migration_out,
        input.migration_in,
        prev,
        cur,
    )
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
