//! Per-slot solve health: which rung of the degradation ladder produced
//! each slot's allocation, and aggregate summaries for reporting.
//!
//! The online pipeline (see [`crate::algorithms::run_online`]) must emit a
//! decision every slot even when a solver breaks down. Instead of aborting
//! the horizon, each algorithm walks a degradation ladder:
//!
//! 1. [`FallbackRung::Primary`] — the intended solver with its primary
//!    options succeeded.
//! 2. [`FallbackRung::RelaxedTolerance`] — a re-solve with escalating
//!    relaxations (see [`optim::resilience`]) succeeded.
//! 3. [`FallbackRung::PerSlotLp`] — the entropy-free per-slot LP (the
//!    linearized slot objective) succeeded where the barrier could not.
//! 4. [`FallbackRung::DeadlineSalvage`] — the slot's wall-clock budget ran
//!    out mid-solve and the best strictly-feasible barrier iterate reached
//!    was adopted as the decision.
//! 5. [`FallbackRung::CarryForward`] — the previous slot's allocation was
//!    carried forward.
//!
//! Whichever rung decides, [`crate::algorithms::OnlineRegularized`]'s
//! decision then passes through [`crate::exact::project_exact`] exactly
//! once, so it is exactly feasible whenever capacity can absorb demand.
//!
//! One rung sits *beside* the ladder rather than below it:
//! [`FallbackRung::Shedding`] marks slots the pre-solve sentinel
//! (see [`crate::sentinel`]) classified as overloaded, where a
//! minimum-penalty user subset was deferred to the overflow tier
//! (see [`crate::shed`]) and ℙ₂ was re-solved on the survivors.
//!
//! Every slot records which rung produced its allocation in a
//! [`SlotHealth`], collected on the
//! [`crate::algorithms::Trajectory`]. [`HealthSummary`] condenses a
//! trajectory for scenario-level reporting. It is generated from one list
//! that gives each summary field, once, its doc, type, fold and the
//! [`SlotHealth`] value it folds; the struct, [`HealthSummary::from_slots`]
//! and [`HealthSummary::merge`] all come from that list, so they cannot
//! disagree, and a new field is one entry.

use crate::sentinel::SentinelVerdict;
use serde::{Deserialize, Serialize};

/// Which rung of the degradation ladder produced a slot's allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FallbackRung {
    /// The intended solver converged with its primary options.
    #[default]
    Primary,
    /// A retry with relaxed options (or the exact-simplex rung of an LP
    /// retry chain) converged.
    RelaxedTolerance,
    /// The entropy-free per-slot LP converged after the barrier gave up.
    PerSlotLp,
    /// The slot deadline expired and the best interior iterate any budgeted
    /// solve reached was adopted (after the exact projection) as the
    /// decision.
    DeadlineSalvage,
    /// The previous allocation was carried forward and exactly projected.
    CarryForward,
    /// The sentinel found the slot overloaded; a minimum-penalty user set
    /// was deferred to the overflow tier and ℙ₂ was re-solved on the
    /// feasible survivors (see [`crate::shed`]).
    Shedding,
}

/// What happened while deciding one slot, whatever the outcome. The
/// `Default` record is the all-zero one: primary rung, no attempt, nothing
/// recorded ([`SlotHealth::primary`] counts its one attempt).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SlotHealth {
    /// The ladder rung that produced the slot's allocation.
    pub rung: FallbackRung,
    /// Total solve attempts across all rungs, each counted once (1 = clean
    /// first solve; 0 = the ladder ran no solver, e.g. its deadline was
    /// already spent).
    pub attempts: usize,
    /// Residual of the accepted solve: the certified gap
    /// `sᵀy + xᵀz + ½·r_dᵀM⁻¹r_d` for ℙ₂ solves, the maximum constraint
    /// violation for LPs, `None` when no solver produced the allocation
    /// (carry-forward) — serialized as JSON `null`, which also matches how
    /// legacy records wrote their NaN sentinel.
    pub final_residual: Option<f64>,
    /// Wall time spent deciding the slot, in milliseconds.
    pub wall_time_ms: f64,
    /// The wall-clock budget the slot was decided under, in milliseconds
    /// (`None` = unlimited).
    #[serde(default)]
    pub deadline_ms: Option<f64>,
    /// Whether the slot's budget expired at any point while walking the
    /// ladder (the decision then came from a salvage or carry-forward
    /// rung, or from a rung that ran with a reduced slice).
    #[serde(default)]
    pub deadline_hit: bool,
    /// Wall time each attempted ladder rung consumed, in milliseconds,
    /// in the order the rungs ran (skipped rungs don't appear).
    #[serde(default)]
    pub rung_ms: Vec<f64>,
    /// Whether the cohort path, the per-user ladder or the carry-forward
    /// rung passed the decision through [`crate::exact::project_exact`].
    /// The name predates the projection, which replaced the capacity
    /// repair.
    pub repaired: bool,
    /// Whether the slot's inputs were sanitized (non-finite or negative
    /// data replaced) before solving.
    pub sanitized: bool,
    /// Newton-matrix factorizations of the accepted ℙ₂ solve, one per
    /// primal-dual iteration (0 when the slot was decided by an LP rung or
    /// carry-forward, and in records written before this field existed).
    #[serde(default)]
    pub newton_steps: usize,
    /// Primal-dual iterations of the accepted ℙ₂ solve (0 for LP and
    /// carry-forward rungs and legacy records).
    #[serde(default)]
    pub outer_iterations: usize,
    /// Which Newton-step Schur kernel the accepted barrier solve used
    /// (`"dense"` or `"blocked"`; `None` for non-barrier rungs and legacy
    /// records).
    #[serde(default)]
    pub schur_kernel: Option<String>,
    /// Mean wall time per Newton step of the accepted barrier solve, in
    /// milliseconds (`None` when no barrier solve was accepted or no step
    /// ran) — the per-step cost the kernel choice is supposed to move.
    #[serde(default)]
    pub newton_step_ms: Option<f64>,
    /// User shards the slot was decomposed into (0 for non-sharded
    /// algorithms and legacy records; 1 when the sharded algorithm fell
    /// through to its monolithic path).
    #[serde(default)]
    pub shards: usize,
    /// Capacity-price coordination rounds the sharded decomposition ran
    /// (0 for non-sharded slots).
    #[serde(default)]
    pub coord_rounds: usize,
    /// Largest relative per-cloud capacity violation of the adopted
    /// coordination round's *merged, unprojected* allocation
    /// (`max_i (Σ_j x_ij − C_i)⁺ / max(C_i, 1)`; `None` for non-sharded
    /// slots). The projection step removes it from the decision — this
    /// records how far coordination itself got.
    #[serde(default)]
    pub max_capacity_violation: Option<f64>,
    /// Certified relative duality gap of the adopted round: the distance
    /// between the projected decision's true ℙ₂ objective and the
    /// decomposition's dual lower bound (`None` for non-sharded slots).
    #[serde(default)]
    pub duality_gap: Option<f64>,
    /// Whether the sharded coordinator closed the slot with its hybrid
    /// refinement: a warm-started monolithic solve from the best projected
    /// round, run when coordination stalled above its gap tolerance.
    #[serde(default)]
    pub polished: bool,
    /// Carried-forward (stale) shard offers merged in place of a fresh
    /// offer because the shard failed or straggled past its round budget
    /// (0 for non-sharded slots and legacy records).
    #[serde(default)]
    pub stale_offers: usize,
    /// Per-shard solve retries taken after a panic, solver error, or
    /// quarantined offer (0 = every shard solved on its first attempt).
    #[serde(default)]
    pub shard_retries: usize,
    /// Fresh shard offers rejected by the NaN/Inf/negativity quarantine
    /// screen before they could reach the merge or the carry-forward
    /// archive.
    #[serde(default)]
    pub quarantined_offers: usize,
    /// Shard circuit-breaker trips: after R consecutive failures a sick
    /// shard's users were merged into a neighbor shard, or (at ≤ 2 shards)
    /// the slot was demoted to the monolithic fallback.
    #[serde(default)]
    pub breaker_trips: usize,
    /// Coordination rounds that completed without a fresh offer from every
    /// shard (stale carry-forward, or too few offers to merge at all).
    #[serde(default)]
    pub degraded_rounds: usize,
    /// The pre-solve sentinel's feasibility verdict for the slot (`None`
    /// for algorithms that don't run the sentinel and for legacy records).
    #[serde(default)]
    pub sentinel_verdict: Option<SentinelVerdict>,
    /// Users deferred off the edge for this slot by the shedding rung
    /// (0 = nobody shed).
    #[serde(default)]
    pub shed_users: usize,
    /// Of the shed users, how many were routed to the overflow cloud tier
    /// (the rest were shed outright).
    #[serde(default)]
    pub overflowed_users: usize,
    /// Total deferral penalty charged by the shedding rung for this slot.
    #[serde(default)]
    pub shed_penalty: f64,
    /// Exchangeability cohorts the slot's users collapsed into when the
    /// cohort-aggregation mode decided the slot (see [`crate::cohort`];
    /// 0 = the slot was decided per-user, as are all legacy records).
    #[serde(default)]
    pub cohorts: usize,
    /// Users per cohort variable (`J / cohorts`) of a cohort-decided slot
    /// (`None` for per-user slots and legacy records).
    #[serde(default)]
    pub compression_ratio: Option<f64>,
    /// Users that arrived (via churn events) before this slot's solve
    /// (0 for batch runs and all legacy records).
    #[serde(default)]
    pub churn_arrivals: usize,
    /// Users that departed before this slot's solve.
    #[serde(default)]
    pub churn_departs: usize,
    /// Users that moved stations before this slot's solve.
    #[serde(default)]
    pub churn_moves: usize,
    /// Whether the slot was decided by the streaming delta path (survivors
    /// kept, restricted solve over churned users) instead of a full solve.
    #[serde(default)]
    pub incremental: bool,
    /// Errors swallowed along the way (the failures that pushed the
    /// decision down the ladder), newest last.
    pub errors: Vec<String>,
}

impl SlotHealth {
    /// A pristine slot: first attempt, primary rung, nothing repaired.
    pub fn primary() -> Self {
        SlotHealth {
            attempts: 1,
            ..SlotHealth::default()
        }
    }

    /// Builds a slot record from an LP [`SolveReport`]. A degraded report
    /// maps to [`FallbackRung::RelaxedTolerance`]: the LP retry chain's
    /// relaxations and exact-simplex rung re-solve the *same* program with
    /// escalating options, they do not substitute a different one.
    ///
    /// [`SolveReport`]: optim::resilience::SolveReport
    pub fn from_lp_report(report: &optim::resilience::SolveReport) -> Self {
        SlotHealth {
            rung: if report.degraded() {
                FallbackRung::RelaxedTolerance
            } else {
                FallbackRung::Primary
            },
            attempts: report.attempts.max(1),
            final_residual: if report.final_residual.is_finite() {
                Some(report.final_residual)
            } else {
                None
            },
            wall_time_ms: report.wall_time_ms,
            errors: report.error.iter().cloned().collect(),
            ..SlotHealth::primary()
        }
    }

    /// Records a swallowed error.
    pub fn note_error(&mut self, err: impl std::fmt::Display) {
        self.errors.push(err.to_string());
    }

    /// Whether anything beyond the primary clean path happened.
    pub fn degraded(&self) -> bool {
        self.rung != FallbackRung::Primary
            || self.sanitized
            || self.deadline_hit
            || !self.errors.is_empty()
    }
}

/// Per-rung slot counts of one trajectory (or merged across many).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RungCounts {
    /// Slots decided on [`FallbackRung::Primary`].
    pub primary: usize,
    /// Slots decided on [`FallbackRung::RelaxedTolerance`].
    pub relaxed_tolerance: usize,
    /// Slots decided on [`FallbackRung::PerSlotLp`].
    pub per_slot_lp: usize,
    /// Slots decided on [`FallbackRung::DeadlineSalvage`].
    #[serde(default)]
    pub deadline_salvage: usize,
    /// Slots decided on [`FallbackRung::CarryForward`].
    pub carry_forward: usize,
    /// Slots decided on [`FallbackRung::Shedding`].
    #[serde(default)]
    pub shedding: usize,
}

impl RungCounts {
    /// Counts one slot.
    pub fn record(&mut self, rung: FallbackRung) {
        match rung {
            FallbackRung::Primary => self.primary += 1,
            FallbackRung::RelaxedTolerance => self.relaxed_tolerance += 1,
            FallbackRung::PerSlotLp => self.per_slot_lp += 1,
            FallbackRung::DeadlineSalvage => self.deadline_salvage += 1,
            FallbackRung::CarryForward => self.carry_forward += 1,
            FallbackRung::Shedding => self.shedding += 1,
        }
    }

    /// Adds another count set into this one.
    pub fn merge(&mut self, other: &RungCounts) {
        self.primary += other.primary;
        self.relaxed_tolerance += other.relaxed_tolerance;
        self.per_slot_lp += other.per_slot_lp;
        self.deadline_salvage += other.deadline_salvage;
        self.carry_forward += other.carry_forward;
        self.shedding += other.shedding;
    }

    /// Total slots counted.
    pub fn total(&self) -> usize {
        self.primary
            + self.relaxed_tolerance
            + self.per_slot_lp
            + self.deadline_salvage
            + self.carry_forward
            + self.shedding
    }
}

/// Generates [`HealthSummary`], [`HealthSummary::from_slots`] and
/// [`HealthSummary::merge`] from the list of summary fields below; `|h|`
/// names the [`SlotHealth`] record the values read. A `count` counts the
/// slots where its condition holds, a `sum` adds its values, a `peak` keeps
/// the largest from zero and a `tally` counts slots per rung; a `sum` or
/// `peak` skips a `None` value. Merging adds counts, sums and tallies and
/// keeps the larger peak. Every field is `#[serde(default)]`: a record
/// written before a field existed loads with that field at zero.
macro_rules! health_summary {
    (|$h:ident| $($(#[doc = $doc:literal])* $field:ident: $ty:ty = $fold:ident($value:expr),)*) => {
        /// Aggregate health of one trajectory (one algorithm × one
        /// repetition), or of several merged together.
        #[derive(Debug, Clone, Default, Serialize, Deserialize)]
        pub struct HealthSummary {
            $($(#[doc = $doc])* #[serde(default)] pub $field: $ty,)*
        }

        impl HealthSummary {
            /// Summarizes a trajectory's per-slot health records.
            pub fn from_slots(slots: &[SlotHealth]) -> Self {
                let mut summary = HealthSummary::default();
                for $h in slots {
                    $(health_summary!(@fold $fold: $ty, summary.$field, $value);)*
                }
                summary
            }

            /// Merges another summary into this one.
            pub fn merge(&mut self, other: &HealthSummary) {
                $(health_summary!(@merge $fold, self.$field, other.$field);)*
            }
        }
    };
    (@fold count: $ty:ty, $acc:expr, $hit:expr) => { $acc += usize::from($hit) };
    (@fold tally: $ty:ty, $acc:expr, $rung:expr) => { $acc.record($rung) };
    (@fold $fold:ident: $ty:ty, $acc:expr, $value:expr) => {
        if let Some(v) = Option::<$ty>::from($value) { health_summary!(@merge $fold, $acc, v) }
    };
    (@merge peak, $acc:expr, $other:expr) => { $acc = $acc.max($other) };
    (@merge tally, $acc:expr, $other:expr) => { $acc.merge(&$other) };
    (@merge count, $acc:expr, $other:expr) => { $acc += $other };
    (@merge sum, $acc:expr, $other:expr) => { $acc += $other };
}

health_summary! { |h|
    /// Total slots covered.
    slots: usize = count(true),
    /// Slots where anything beyond the clean primary path happened.
    degraded_slots: usize = count(h.degraded()),
    /// Slots whose inputs needed sanitization before solving.
    sanitized_slots: usize = count(h.sanitized),
    /// Slots whose allocation needed fallback rungs, by rung.
    rungs: RungCounts = tally(h.rung),
    /// Total Newton steps across all barrier-decided slots.
    newton_steps: usize = sum(h.newton_steps),
    /// Largest number of primal-dual iterations any single slot's accepted
    /// ℙ₂ solve needed.
    peak_outer_iterations: usize = peak(h.outer_iterations),
    /// Slots whose wall-clock budget expired while deciding.
    deadline_hits: usize = count(h.deadline_hit),
    /// Slots whose accepted barrier solve used the blocked nested-Schur
    /// kernel (0 for legacy records; dense-kernel slots are
    /// `slots − blocked_kernel_slots − non-barrier slots`).
    blocked_kernel_slots: usize = count(h.schur_kernel.as_deref() == Some("blocked")),
    /// Slots decided by the sharded decomposition (shards ≥ 2; a sharded
    /// algorithm's monolithic fall-through slots don't count).
    sharded_slots: usize = count(h.shards >= 2),
    /// Total capacity-price coordination rounds across all sharded slots.
    coord_rounds: usize = sum(h.coord_rounds),
    /// Largest relative capacity violation any sharded slot's adopted
    /// (unprojected) coordination round left behind (0 when no sharded
    /// slot ran).
    peak_capacity_violation: f64 = peak(h.max_capacity_violation.filter(|v| v.is_finite())),
    /// Sharded slots closed by the hybrid refinement (warm-started
    /// monolithic solve after coordination stalled above tolerance).
    polished_slots: usize = count(h.polished),
    /// Total carried-forward (stale) shard offers merged across all slots.
    stale_offers: usize = sum(h.stale_offers),
    /// Total per-shard solve retries across all slots.
    shard_retries: usize = sum(h.shard_retries),
    /// Total shard offers rejected by the quarantine screen.
    quarantined_offers: usize = sum(h.quarantined_offers),
    /// Total shard circuit-breaker trips.
    breaker_trips: usize = sum(h.breaker_trips),
    /// Total coordination rounds that completed without a full set of
    /// fresh shard offers.
    degraded_rounds: usize = sum(h.degraded_rounds),
    /// Slots the sentinel classified as overloaded (demand above aggregate
    /// capacity).
    overloaded_slots: usize = count(h.sentinel_verdict == Some(SentinelVerdict::Overloaded)),
    /// Slots the sentinel classified as tight (feasible, but with an
    /// interior thinner than the configured margin).
    tight_slots: usize = count(h.sentinel_verdict == Some(SentinelVerdict::Tight)),
    /// Total user-slots deferred by the shedding rung.
    shed_users: usize = sum(h.shed_users),
    /// Of those, total user-slots routed to the overflow tier.
    overflowed_users: usize = sum(h.overflowed_users),
    /// Total deferral penalty across all shedding slots.
    shed_penalty: f64 = sum(Some(h.shed_penalty).filter(|p| p.is_finite())),
    /// Slots decided through the cohort-aggregation mode (cohorts > 0).
    cohort_slots: usize = count(h.cohorts > 0),
    /// Largest cohort count any single cohort-decided slot used (0 when no
    /// cohort slot ran).
    peak_cohorts: usize = peak(h.cohorts),
    /// Total churn arrivals across the horizon (streaming runs; 0 for
    /// batch runs and legacy records).
    churn_arrivals: usize = sum(h.churn_arrivals),
    /// Total churn departures across the horizon.
    churn_departs: usize = sum(h.churn_departs),
    /// Total station moves delivered as churn events.
    churn_moves: usize = sum(h.churn_moves),
    /// Slots decided by the streaming delta path (survivors kept, a
    /// restricted solve over churned users only).
    incremental_slots: usize = count(h.incremental),
}

impl HealthSummary {
    /// Fraction of slots that degraded (0 when no slots were recorded).
    pub fn degraded_fraction(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.degraded_slots as f64 / self.slots as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_slot_is_not_degraded() {
        let h = SlotHealth::primary();
        assert!(!h.degraded());
        assert_eq!(h.rung, FallbackRung::Primary);
        assert_eq!(h.attempts, 1);
    }

    #[test]
    fn noting_an_error_marks_degraded() {
        let mut h = SlotHealth::primary();
        h.note_error("solver wobbled");
        assert!(h.degraded());
        assert_eq!(h.errors.len(), 1);
    }

    #[test]
    fn summary_counts_rungs_and_degradation() {
        let mut a = SlotHealth::primary();
        a.rung = FallbackRung::CarryForward;
        let mut b = SlotHealth::primary();
        b.sanitized = true;
        let clean = SlotHealth::primary();
        let s = HealthSummary::from_slots(&[a, b, clean]);
        assert_eq!(s.slots, 3);
        assert_eq!(s.degraded_slots, 2);
        assert_eq!(s.sanitized_slots, 1);
        assert_eq!(s.rungs.carry_forward, 1);
        assert_eq!(s.rungs.primary, 2);
        assert_eq!(s.rungs.total(), 3);
        assert!((s.degraded_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn summaries_merge_additively() {
        let mut x = HealthSummary::from_slots(&[SlotHealth::primary()]);
        let mut carry = SlotHealth::primary();
        carry.rung = FallbackRung::CarryForward;
        let y = HealthSummary::from_slots(&[carry]);
        x.merge(&y);
        assert_eq!(x.slots, 2);
        assert_eq!(x.degraded_slots, 1);
        assert_eq!(x.rungs.carry_forward, 1);
    }

    #[test]
    fn summary_aggregates_solver_effort() {
        let mut a = SlotHealth::primary();
        a.newton_steps = 12;
        a.outer_iterations = 8;
        let mut b = SlotHealth::primary();
        b.newton_steps = 5;
        b.outer_iterations = 3;
        let mut s = HealthSummary::from_slots(&[a, b]);
        assert_eq!(s.newton_steps, 17);
        assert_eq!(s.peak_outer_iterations, 8);
        let other = HealthSummary {
            newton_steps: 1,
            peak_outer_iterations: 11,
            ..HealthSummary::default()
        };
        s.merge(&other);
        assert_eq!(s.newton_steps, 18);
        assert_eq!(s.peak_outer_iterations, 11);
    }

    #[test]
    fn legacy_health_json_without_effort_fields_deserializes() {
        let legacy = r#"{"rung":"Primary","attempts":1,"final_residual":0.0,
            "wall_time_ms":0.0,"repaired":false,"sanitized":false,"errors":[]}"#;
        let h: SlotHealth = serde_json::from_str(legacy).unwrap();
        assert_eq!(h.newton_steps, 0);
        assert_eq!(h.outer_iterations, 0);
        assert!(!h.deadline_hit);
        assert_eq!(h.deadline_ms, None);
        assert!(h.rung_ms.is_empty());
        assert_eq!(h.final_residual, Some(0.0));
        assert_eq!(h.schur_kernel, None);
        assert_eq!(h.newton_step_ms, None);
        assert_eq!(h.shards, 0);
        assert_eq!(h.coord_rounds, 0);
        assert_eq!(h.max_capacity_violation, None);
        assert_eq!(h.duality_gap, None);
        assert_eq!(h.stale_offers, 0);
        assert_eq!(h.shard_retries, 0);
        assert_eq!(h.quarantined_offers, 0);
        assert_eq!(h.breaker_trips, 0);
        assert_eq!(h.degraded_rounds, 0);
    }

    #[test]
    fn pre_fault_tolerance_health_record_round_trips() {
        // A record exactly as the previous sweep checkpoints wrote it:
        // shard coordination fields present, fault-tolerance fields absent.
        // Resuming one of those JSONL checkpoints must keep working, and
        // re-serializing must fill the new fields with zeros.
        let legacy = r#"{"rung":"Primary","attempts":1,"final_residual":2e-6,
            "wall_time_ms":12.5,"deadline_ms":50.0,"deadline_hit":false,
            "rung_ms":[12.5],"repaired":false,"sanitized":false,
            "newton_steps":40,"outer_iterations":9,"schur_kernel":"blocked",
            "newton_step_ms":0.3,"shards":4,"coord_rounds":3,
            "max_capacity_violation":0.01,"duality_gap":1.5e-5,
            "polished":false,"errors":[]}"#;
        let h: SlotHealth = serde_json::from_str(legacy).unwrap();
        assert_eq!(h.shards, 4);
        assert_eq!(h.stale_offers, 0);
        assert_eq!(h.shard_retries, 0);
        assert_eq!(h.quarantined_offers, 0);
        assert_eq!(h.breaker_trips, 0);
        assert_eq!(h.degraded_rounds, 0);
        let json = serde_json::to_string(&h).unwrap();
        let back: SlotHealth = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shards, 4);
        assert_eq!(back.coord_rounds, 3);
        assert_eq!(back.breaker_trips, 0);

        let legacy_summary = r#"{"slots":4,"degraded_slots":0,"sanitized_slots":0,
            "rungs":{"primary":4,"relaxed_tolerance":0,"per_slot_lp":0,"carry_forward":0},
            "sharded_slots":4,"coord_rounds":12}"#;
        let s: HealthSummary = serde_json::from_str(legacy_summary).unwrap();
        assert_eq!(s.sharded_slots, 4);
        assert_eq!(s.stale_offers, 0);
        assert_eq!(s.shard_retries, 0);
        assert_eq!(s.quarantined_offers, 0);
        assert_eq!(s.breaker_trips, 0);
        assert_eq!(s.degraded_rounds, 0);
    }

    #[test]
    fn summary_aggregates_fault_tolerance_telemetry() {
        let mut a = SlotHealth::primary();
        a.stale_offers = 2;
        a.shard_retries = 3;
        a.quarantined_offers = 1;
        a.degraded_rounds = 2;
        let mut b = SlotHealth::primary();
        b.breaker_trips = 1;
        b.shard_retries = 1;
        let mut s = HealthSummary::from_slots(&[a, b]);
        assert_eq!(s.stale_offers, 2);
        assert_eq!(s.shard_retries, 4);
        assert_eq!(s.quarantined_offers, 1);
        assert_eq!(s.breaker_trips, 1);
        assert_eq!(s.degraded_rounds, 2);
        let other = HealthSummary {
            stale_offers: 1,
            shard_retries: 2,
            quarantined_offers: 3,
            breaker_trips: 4,
            degraded_rounds: 5,
            ..HealthSummary::default()
        };
        s.merge(&other);
        assert_eq!(s.stale_offers, 3);
        assert_eq!(s.shard_retries, 6);
        assert_eq!(s.quarantined_offers, 4);
        assert_eq!(s.breaker_trips, 5);
        assert_eq!(s.degraded_rounds, 7);
    }

    #[test]
    fn summary_aggregates_sharded_telemetry() {
        let mut a = SlotHealth::primary();
        a.shards = 4;
        a.coord_rounds = 3;
        a.max_capacity_violation = Some(0.02);
        a.duality_gap = Some(1e-5);
        let mut b = SlotHealth::primary();
        b.shards = 1; // monolithic fall-through: not a sharded slot
        b.coord_rounds = 0;
        let c = SlotHealth::primary(); // non-sharded algorithm
        let mut s = HealthSummary::from_slots(&[a.clone(), b, c]);
        assert_eq!(s.sharded_slots, 1);
        assert_eq!(s.coord_rounds, 3);
        assert!((s.peak_capacity_violation - 0.02).abs() < 1e-15);
        assert!(!a.degraded(), "sharding itself is not a degradation");
        let mut d = SlotHealth::primary();
        d.shards = 2;
        d.coord_rounds = 7;
        d.max_capacity_violation = Some(0.5);
        let other = HealthSummary::from_slots(&[d]);
        s.merge(&other);
        assert_eq!(s.sharded_slots, 2);
        assert_eq!(s.coord_rounds, 10);
        assert!((s.peak_capacity_violation - 0.5).abs() < 1e-15);
    }

    #[test]
    fn legacy_summary_json_without_shard_fields_deserializes() {
        let legacy = r#"{"slots":4,"degraded_slots":0,"sanitized_slots":0,
            "rungs":{"primary":4,"relaxed_tolerance":0,"per_slot_lp":0,"carry_forward":0}}"#;
        let s: HealthSummary = serde_json::from_str(legacy).unwrap();
        assert_eq!(s.sharded_slots, 0);
        assert_eq!(s.coord_rounds, 0);
        assert_eq!(s.peak_capacity_violation, 0.0);
    }

    #[test]
    fn summary_counts_blocked_kernel_slots() {
        let mut a = SlotHealth::primary();
        a.schur_kernel = Some("blocked".into());
        a.newton_step_ms = Some(0.4);
        let mut b = SlotHealth::primary();
        b.schur_kernel = Some("dense".into());
        let c = SlotHealth::primary(); // non-barrier slot: no kernel
        let mut s = HealthSummary::from_slots(&[a.clone(), b, c]);
        assert_eq!(s.blocked_kernel_slots, 1);
        assert!(!a.degraded(), "kernel choice is not a degradation");
        let other = HealthSummary::from_slots(&[a]);
        s.merge(&other);
        assert_eq!(s.blocked_kernel_slots, 2);
    }

    #[test]
    fn legacy_nan_residual_serialized_as_null_reads_back_as_none() {
        // Carry-forward slots used to write `final_residual: f64::NAN`,
        // which serde_json emits as `null`; those records must now load as
        // `None` rather than failing to parse.
        let legacy = r#"{"rung":"CarryForward","attempts":2,"final_residual":null,
            "wall_time_ms":1.5,"repaired":true,"sanitized":false,"errors":["x"]}"#;
        let h: SlotHealth = serde_json::from_str(legacy).unwrap();
        assert_eq!(h.final_residual, None);
        let json = serde_json::to_string(&h).unwrap();
        assert!(
            json.contains(r#""final_residual":null"#),
            "missing residual must serialize as null: {json}"
        );
    }

    #[test]
    fn deadline_hits_aggregate_and_merge() {
        let mut a = SlotHealth::primary();
        a.deadline_ms = Some(50.0);
        a.deadline_hit = true;
        a.rung = FallbackRung::DeadlineSalvage;
        let mut b = SlotHealth::primary();
        b.deadline_ms = Some(50.0);
        let mut s = HealthSummary::from_slots(&[a.clone(), b]);
        assert_eq!(s.deadline_hits, 1);
        assert_eq!(s.rungs.deadline_salvage, 1);
        assert!(a.degraded(), "a deadline hit is a degradation");
        let other = HealthSummary::from_slots(&[a]);
        s.merge(&other);
        assert_eq!(s.deadline_hits, 2);
        assert_eq!(s.rungs.deadline_salvage, 2);
        assert_eq!(s.rungs.total(), 3);
    }

    #[test]
    fn pre_shedding_health_record_round_trips() {
        // A record exactly as the fault-tolerance-era checkpoints wrote it:
        // shard fault fields present, sentinel/shed fields absent. Resuming
        // those JSONL checkpoints must keep working, and re-serializing
        // must fill the shed fields with their zero defaults.
        let legacy = r#"{"rung":"Primary","attempts":1,"final_residual":2e-6,
            "wall_time_ms":12.5,"deadline_ms":50.0,"deadline_hit":false,
            "rung_ms":[12.5],"repaired":false,"sanitized":false,
            "newton_steps":40,"outer_iterations":9,"schur_kernel":"blocked",
            "newton_step_ms":0.3,"shards":4,"coord_rounds":3,
            "max_capacity_violation":0.01,"duality_gap":1.5e-5,
            "polished":false,"stale_offers":1,"shard_retries":2,
            "quarantined_offers":0,"breaker_trips":0,"degraded_rounds":1,
            "errors":[]}"#;
        let h: SlotHealth = serde_json::from_str(legacy).unwrap();
        assert_eq!(h.sentinel_verdict, None);
        assert_eq!(h.shed_users, 0);
        assert_eq!(h.overflowed_users, 0);
        assert_eq!(h.shed_penalty, 0.0);
        let json = serde_json::to_string(&h).unwrap();
        let back: SlotHealth = serde_json::from_str(&json).unwrap();
        assert_eq!(back.sentinel_verdict, None);
        assert_eq!(back.shed_users, 0);
        assert_eq!(back.shards, 4);

        let legacy_summary = r#"{"slots":4,"degraded_slots":0,"sanitized_slots":0,
            "rungs":{"primary":4,"relaxed_tolerance":0,"per_slot_lp":0,"carry_forward":0},
            "sharded_slots":4,"coord_rounds":12,"shard_retries":2}"#;
        let s: HealthSummary = serde_json::from_str(legacy_summary).unwrap();
        assert_eq!(s.overloaded_slots, 0);
        assert_eq!(s.tight_slots, 0);
        assert_eq!(s.shed_users, 0);
        assert_eq!(s.overflowed_users, 0);
        assert_eq!(s.shed_penalty, 0.0);
        assert_eq!(s.rungs.shedding, 0);
        assert_eq!(s.rungs.total(), 4);
    }

    #[test]
    fn summary_aggregates_shedding_telemetry() {
        let mut a = SlotHealth::primary();
        a.rung = FallbackRung::Shedding;
        a.sentinel_verdict = Some(SentinelVerdict::Overloaded);
        a.shed_users = 3;
        a.overflowed_users = 3;
        a.shed_penalty = 7.5;
        let mut b = SlotHealth::primary();
        b.sentinel_verdict = Some(SentinelVerdict::Tight);
        let mut c = SlotHealth::primary();
        c.sentinel_verdict = Some(SentinelVerdict::Feasible);
        let mut s = HealthSummary::from_slots(&[a.clone(), b, c]);
        assert_eq!(s.overloaded_slots, 1);
        assert_eq!(s.tight_slots, 1);
        assert_eq!(s.shed_users, 3);
        assert_eq!(s.overflowed_users, 3);
        assert!((s.shed_penalty - 7.5).abs() < 1e-12);
        assert_eq!(s.rungs.shedding, 1);
        assert_eq!(s.rungs.total(), 3);
        assert!(a.degraded(), "a shed slot is a degradation");
        let other = HealthSummary::from_slots(&[a]);
        s.merge(&other);
        assert_eq!(s.overloaded_slots, 2);
        assert_eq!(s.shed_users, 6);
        assert!((s.shed_penalty - 15.0).abs() < 1e-12);
        assert_eq!(s.rungs.shedding, 2);
    }

    #[test]
    fn pre_cohort_health_record_round_trips() {
        // A record exactly as the shedding-era checkpoints wrote it: shed
        // fields present, cohort fields absent. Those JSONL checkpoints
        // must keep loading, re-serializing must fill the cohort fields
        // with their "per-user slot" defaults, and the new fields must not
        // retroactively flag old slots as degraded.
        let legacy = r#"{"rung":"Primary","attempts":1,"final_residual":2e-6,
            "wall_time_ms":12.5,"deadline_ms":50.0,"deadline_hit":false,
            "rung_ms":[12.5],"repaired":false,"sanitized":false,
            "newton_steps":40,"outer_iterations":9,"schur_kernel":"blocked",
            "newton_step_ms":0.3,"shards":4,"coord_rounds":3,
            "max_capacity_violation":0.01,"duality_gap":1.5e-5,
            "polished":false,"stale_offers":1,"shard_retries":2,
            "quarantined_offers":0,"breaker_trips":0,"degraded_rounds":1,
            "sentinel_verdict":"Feasible","shed_users":0,
            "overflowed_users":0,"shed_penalty":0.0,"errors":[]}"#;
        let h: SlotHealth = serde_json::from_str(legacy).unwrap();
        assert_eq!(h.cohorts, 0);
        assert_eq!(h.compression_ratio, None);
        assert!(!h.degraded());
        let json = serde_json::to_string(&h).unwrap();
        let back: SlotHealth = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cohorts, 0);
        assert_eq!(back.compression_ratio, None);
        assert_eq!(back.shards, 4);

        let legacy_summary = r#"{"slots":4,"degraded_slots":0,"sanitized_slots":0,
            "rungs":{"primary":4,"relaxed_tolerance":0,"per_slot_lp":0,"carry_forward":0},
            "sharded_slots":4,"coord_rounds":12,"shed_users":1}"#;
        let s: HealthSummary = serde_json::from_str(legacy_summary).unwrap();
        assert_eq!(s.cohort_slots, 0);
        assert_eq!(s.peak_cohorts, 0);
    }

    #[test]
    fn pre_stream_health_records_round_trip_without_churn_fields() {
        // A record serialized before the streaming fields existed must
        // deserialize with zero churn telemetry, and a re-serialized
        // modern record must round-trip the new fields unchanged.
        let legacy = r#"{"rung":"Primary","attempts":1,"final_residual":null,
            "wall_time_ms":1.0,"repaired":false,"sanitized":false,
            "newton_steps":3,"outer_iterations":1,"errors":[]}"#;
        let h: SlotHealth = serde_json::from_str(legacy).unwrap();
        assert_eq!(h.churn_arrivals, 0);
        assert_eq!(h.churn_departs, 0);
        assert_eq!(h.churn_moves, 0);
        assert!(!h.incremental);

        let mut modern = SlotHealth::primary();
        modern.churn_arrivals = 7;
        modern.churn_departs = 2;
        modern.churn_moves = 11;
        modern.incremental = true;
        let json = serde_json::to_string(&modern).unwrap();
        let back: SlotHealth = serde_json::from_str(&json).unwrap();
        assert_eq!(back.churn_arrivals, 7);
        assert_eq!(back.churn_departs, 2);
        assert_eq!(back.churn_moves, 11);
        assert!(back.incremental);

        let legacy_summary = r#"{"slots":4,"degraded_slots":0,
            "sanitized_slots":0,"repaired_slots":0,"carry_forward_slots":0,
            "total_attempts":4,"max_attempts":1,"newton_steps":10,
            "rungs":{"primary":4,"relaxed_tolerance":0,"per_slot_lp":0,"carry_forward":0}}"#;
        let s: HealthSummary = serde_json::from_str(legacy_summary).unwrap();
        assert_eq!(s.churn_arrivals + s.churn_departs + s.churn_moves, 0);
        assert_eq!(s.incremental_slots, 0);
    }

    #[test]
    fn churn_telemetry_aggregates_and_merges() {
        let mut a = SlotHealth::primary();
        a.churn_arrivals = 3;
        a.churn_moves = 5;
        a.incremental = true;
        let mut b = SlotHealth::primary();
        b.churn_departs = 2;
        let mut s = HealthSummary::from_slots(&[a, b]);
        assert_eq!(s.churn_arrivals, 3);
        assert_eq!(s.churn_departs, 2);
        assert_eq!(s.churn_moves, 5);
        assert_eq!(s.incremental_slots, 1);
        let mut c = SlotHealth::primary();
        c.incremental = true;
        c.churn_moves = 1;
        let other = HealthSummary::from_slots(&[c]);
        s.merge(&other);
        assert_eq!(s.churn_moves, 6);
        assert_eq!(s.incremental_slots, 2);
    }

    #[test]
    fn summary_aggregates_cohort_telemetry() {
        let mut a = SlotHealth::primary();
        a.cohorts = 45;
        a.compression_ratio = Some(222.2);
        let mut b = SlotHealth::primary();
        b.cohorts = 60;
        b.compression_ratio = Some(166.7);
        let c = SlotHealth::primary(); // per-user slot
        let mut s = HealthSummary::from_slots(&[a.clone(), b, c]);
        assert_eq!(s.cohort_slots, 2);
        assert_eq!(s.peak_cohorts, 60);
        assert!(!a.degraded(), "cohort mode is not a degradation");
        let mut d = SlotHealth::primary();
        d.cohorts = 90;
        let other = HealthSummary::from_slots(&[d]);
        s.merge(&other);
        assert_eq!(s.cohort_slots, 3);
        assert_eq!(s.peak_cohorts, 90);
    }

    #[test]
    fn health_round_trips_through_serde() {
        let mut h = SlotHealth::primary();
        h.rung = FallbackRung::PerSlotLp;
        h.note_error("boom");
        let json = serde_json::to_string(&h).unwrap();
        let back: SlotHealth = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rung, FallbackRung::PerSlotLp);
        assert_eq!(back.errors, vec!["boom".to_string()]);
    }
}
