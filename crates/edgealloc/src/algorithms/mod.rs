//! Online algorithms and offline baselines.
//!
//! The online algorithms implement [`OnlineAlgorithm`] and see only a
//! [`SlotInput`] — the information revealed at the current slot — plus the
//! previous slot's allocation, exactly matching the paper's online model.
//! The offline optimum ([`solve_offline`]) deliberately does *not*
//! implement the trait: it requires the whole future.

mod atomistic;
mod greedy;
mod offline;
mod regularized;
mod static_alloc;

/// [`crate::exact::project_exact`] under its former name: the capacity
/// repair that ended the per-user ladder is now the exact projection.
pub use crate::exact::project_exact as repair_capacity;
pub use atomistic::{OperOpt, PerfOpt, StatOpt};
pub use greedy::OnlineGreedy;
pub use offline::{solve_offline, solve_offline_with, OfflineSolution};
pub use regularized::{OnlineRegularized, SlotStep};
pub use static_alloc::{StaticPolicy, StaticVariant};

use crate::allocation::Allocation;
use crate::cost::CostWeights;
use crate::health::{FallbackRung, HealthSummary, SlotHealth};
use crate::instance::Instance;
use crate::sanitize::sanitize_slot;
use crate::system::EdgeCloudSystem;
use crate::Result;

/// Everything an online algorithm may observe at slot `t`: the static
/// system description, the prices and attachments *of this slot*, and
/// nothing about the future.
#[derive(Debug, Clone)]
pub struct SlotInput<'a> {
    /// The slot index (0-based).
    pub t: usize,
    /// The static system (capacities, inter-cloud delays).
    pub system: &'a EdgeCloudSystem,
    /// Workloads `λ_j`.
    pub workloads: &'a [f64],
    /// This slot's operation prices `a_{i,t}`.
    pub operation_prices: &'a [f64],
    /// This slot's attachments `l_{j,t}`.
    pub attachment: &'a [usize],
    /// This slot's access delays `d(j, l_{j,t})`.
    pub access_delay: &'a [f64],
    /// Static reconfiguration prices `c_i`.
    pub reconfig_prices: &'a [f64],
    /// Static outgoing migration prices `b_i^{out}`.
    pub migration_out: &'a [f64],
    /// Static incoming migration prices `b_i^{in}`.
    pub migration_in: &'a [f64],
    /// Cost weights.
    pub weights: CostWeights,
    /// Cohort multiplicities: `Some(n)` marks a cohort-reduced slot whose
    /// "user" `j` stands for `n[j]` exchangeable real users with pooled
    /// workload `workloads[j]` (see [`crate::cohort`]). `None` — the
    /// ordinary case — means every user has multiplicity one.
    pub multiplicity: Option<&'a [f64]>,
}

impl<'a> SlotInput<'a> {
    /// Extracts the slot-`t` view of an instance. It borrows every vector,
    /// the slot's attachments and delays included.
    ///
    /// # Panics
    ///
    /// Panics if `t >= inst.num_slots()`.
    pub fn from_instance(inst: &'a Instance, t: usize) -> Self {
        assert!(t < inst.num_slots(), "slot {t} out of range");
        SlotInput {
            t,
            system: inst.system(),
            workloads: inst.workloads(),
            operation_prices: inst.operation_prices_at(t),
            attachment: inst.mobility().attachments_at(t),
            access_delay: inst.mobility().delays_at(t),
            reconfig_prices: inst.reconfig_prices_slice(),
            migration_out: inst.migration_out_slice(),
            migration_in: inst.migration_in_slice(),
            weights: inst.weights(),
            multiplicity: None,
        }
    }

    /// Number of edge clouds.
    pub fn num_clouds(&self) -> usize {
        self.system.num_clouds()
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.workloads.len()
    }

    /// Folded migration price `b_i = b_i^{out} + b_i^{in}`.
    pub fn migration_total(&self, i: usize) -> f64 {
        self.migration_out[i] + self.migration_in[i]
    }

    /// The multiplicity of user `j`: how many exchangeable real users the
    /// slot's user `j` stands for (1 unless the slot is cohort-reduced).
    pub fn mult(&self, j: usize) -> f64 {
        self.multiplicity.map_or(1.0, |m| m[j])
    }

    /// The per-member workload `λ_j = workloads[j] / n_j`. For ordinary
    /// slots the division by 1.0 is exact, so all non-cohort code paths
    /// compute bit-identical values through this accessor.
    pub fn per_user_workload(&self, j: usize) -> f64 {
        self.workloads[j] / self.mult(j)
    }
}

/// An online decision rule: given the information revealed at slot `t` and
/// the previous allocation, produce this slot's allocation.
pub trait OnlineAlgorithm {
    /// Human-readable algorithm name (used in reports).
    fn name(&self) -> &str;

    /// Decides the allocation for the slot described by `input`.
    ///
    /// # Errors
    ///
    /// Implementations propagate solver failures their own degradation
    /// ladder could not absorb; [`run_online`] then applies the final
    /// carry-forward rung instead of aborting the horizon.
    fn decide(&mut self, input: &SlotInput<'_>, prev: &Allocation) -> Result<Allocation>;

    /// Hands over the [`SlotHealth`] of the most recent [`decide`] call,
    /// if the implementation tracks one. [`run_online`] collects these on
    /// the trajectory; implementations without a ladder may keep the
    /// default (`None`) and are recorded as healthy primary solves.
    ///
    /// [`decide`]: OnlineAlgorithm::decide
    fn take_health(&mut self) -> Option<SlotHealth> {
        None
    }

    /// Clears any internal state so the algorithm can run a fresh horizon.
    fn reset(&mut self) {}
}

/// A complete run of an online algorithm over a horizon.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// One allocation per slot.
    pub allocations: Vec<Allocation>,
    /// One health record per slot: which degradation-ladder rung produced
    /// the allocation (same indexing as `allocations`).
    pub health: Vec<SlotHealth>,
}

impl Trajectory {
    /// Condenses the per-slot health records for reporting.
    pub fn health_summary(&self) -> HealthSummary {
        HealthSummary::from_slots(&self.health)
    }
}

/// One slot of the never-abort online loop: sanitizes the raw slot view,
/// asks the algorithm to decide, and applies the final carry-forward rung
/// on failure: the previous allocation, passed through
/// [`crate::exact::project_exact`]. Nothing sweeps the decision afterwards.
/// [`OnlineRegularized`] returns every decision exactly projected, and the
/// LP baselines clamp their solutions where they become allocations.
/// [`run_online`] and the streaming driver (`crates/stream`) share this
/// function, so a replayed event stream reproduces the batch path bit for
/// bit — the equivalence gate of the streaming subsystem rests on this
/// single code path.
pub fn decide_slot<A: OnlineAlgorithm + ?Sized>(
    alg: &mut A,
    raw: &SlotInput<'_>,
    prev: &Allocation,
) -> (Allocation, SlotHealth) {
    let sanitized = sanitize_slot(raw);
    let clean;
    let input = match &sanitized {
        Some((slot, _)) => {
            clean = slot.as_input(raw);
            &clean
        }
        None => raw,
    };
    let mut h;
    let x = match alg.decide(input, prev) {
        Ok(x) => {
            h = alg.take_health().unwrap_or_else(SlotHealth::primary);
            x
        }
        Err(err) => {
            // Final rung: carry the previous allocation forward and
            // project it. Starting from all-zeros (t = 0) the projection's
            // refill builds a cheapest-slack covering, so even a
            // first-slot failure yields service.
            h = alg.take_health().unwrap_or_else(SlotHealth::primary);
            h.rung = FallbackRung::CarryForward;
            h.final_residual = None;
            h.note_error(&err);
            let mut carried = prev.clone();
            if let Err(project_err) = crate::exact::project_exact(input, &mut carried) {
                h.note_error(&project_err);
            }
            h.repaired = true;
            carried
        }
    };
    if let Some((_, notes)) = &sanitized {
        h.sanitized = true;
        h.errors.extend(notes.iter().cloned());
    }
    (x, h)
}

/// Runs an online algorithm over every slot of the instance, starting from
/// the all-zero allocation (`x_{i,j,0} ≜ 0`).
///
/// The loop never aborts mid-horizon. Corrupted slot inputs (non-finite
/// prices, negative delays — see [`crate::sanitize`]) are repaired before
/// the algorithm sees them, and a `decide` failure that survived the
/// algorithm's own ladder triggers the final rung: the previous slot's
/// allocation is carried forward and passed through
/// [`crate::exact::project_exact`]. Decisions are returned as the
/// algorithm made them. Every slot's outcome is recorded in
/// [`Trajectory::health`].
///
/// # Errors
///
/// Returns [`crate::Error::Invalid`] only for an empty horizon; solver
/// failures degrade instead of propagating.
pub fn run_online<A: OnlineAlgorithm + ?Sized>(inst: &Instance, alg: &mut A) -> Result<Trajectory> {
    if inst.num_slots() == 0 {
        return Err(crate::Error::Invalid("instance has no slots".into()));
    }
    alg.reset();
    let mut prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
    let mut allocations = Vec::with_capacity(inst.num_slots());
    let mut health = Vec::with_capacity(inst.num_slots());
    for t in 0..inst.num_slots() {
        // Hostile scaling factors (flash crowds, rolling capacity loss —
        // see `Instance::scale_demand`/`scale_capacity`) replace the slot
        // view; unscaled instances take the borrow-only path unchanged.
        let scaled = inst.scaled_slot(t);
        let raw = match &scaled {
            Some(s) => s.as_input(inst, t),
            None => SlotInput::from_instance(inst, t),
        };
        let (x, h) = decide_slot(alg, &raw, &prev);
        prev = x.clone();
        allocations.push(x);
        health.push(h);
    }
    Ok(Trajectory {
        allocations,
        health,
    })
}
