//! The capacity-price coordination loop over user shards.
//!
//! One slot's ℙ₂ couples its users in exactly two places: the explicit
//! per-cloud capacity rows `Σ_j x_ij ≤ C_i`, and the per-cloud aggregate
//! reconfiguration regularizer `φ_i(Σ_j x_ij)`. Everything else — the
//! linear operation/quality costs and the per-(i,j) migration entropies —
//! is separable across users. The coordinator exploits that:
//!
//! 1. **Capacity** is priced by dual decomposition: multipliers `μ_i ≥ 0`
//!    on `Σ_j x_ij ≤ C_i`, updated by projected-subgradient ascent
//!    ([`optim::dual::DualAscent`]) on each round's violation.
//! 2. **The aggregate entropy** is linearized at a relaxed estimate `ŷ_i`
//!    of the cloud total: each round charges every shard the tangent price
//!    `g_i = φ_i'(ŷ_i)` and updates `ŷ ← (1−β)·ŷ + β·y` afterwards. At a
//!    fixed point (`ŷ = y`) the tangent slope equals the true gradient, so
//!    the decomposed KKT system coincides with the monolithic one.
//!
//! Both prices fold into the shard subproblems as an operation-price
//! adjustment `a'_i = a_i + (μ_i + g_i)/w_op` — the restricted programs are
//! then ordinary ℙ₂ instances (reconfiguration prices zeroed, capacities at
//! the full `C_i`) solved by the existing [`P2Workspace`] machinery, each
//! from the cold proportional start.
//!
//! Every round certifies a rigorous duality gap. The product of the shard
//! regions contains the original feasible region, and the tangent line
//! minorizes `φ_i`, so for round prices `(μ, g)` with shard minima bounded
//! below by `obj_s − gap_s` (the barrier's certified per-shard gap):
//!
//! ```text
//! D = Σ_s (obj_s − gap_s) + Σ_i [φ_i(ŷ_i) − g_i·ŷ_i] − Σ_i μ_i·C_i ≤ F*,
//! ```
//!
//! and `F(x_proj) − D` bounds the adopted decision's suboptimality. The
//! loop terminates when the merged point's relative capacity violation and
//! this relative gap both fall below tolerance; a deadline or round cap
//! instead adopts the best exactly-feasible projected round seen
//! ([`DualAscent::offer`]).
//!
//! # Fault tolerance
//!
//! The coordinator is only as reliable as its weakest shard worker unless
//! every failure mode is contained, so each per-shard solve runs behind
//! four layers of isolation (see `DESIGN.md` §14 for the full model):
//!
//! - **Panic isolation + retry ladder**: every solve attempt runs under
//!   `catch_unwind`; a panic, solver error, or quarantined offer triggers
//!   up to [`CoordinatorConfig::retry_limit`] deterministic retries, each
//!   from a rebuilt workspace on an even [`SolveBudget::slice`] of what
//!   remains of the round budget.
//! - **Offer quarantine**: a fresh offer must have the right shape, finite
//!   non-negative entries, a finite objective, and a valid gap before it
//!   may touch the merge or the carry-forward archive.
//! - **Straggler carry-forward**: a round completes with at least one
//!   fresh offer; a missing shard's last archived offer
//!   ([`optim::dual::OfferArchive`]) is merged instead, with its dual
//!   contribution re-priced by the staleness correction
//!   `m ≥ obj° − gap° − Σ_i (old_i − new_i)⁺·C_i` (valid because the
//!   explicit capacity rows bound the shard's cloud totals by `C_i`), so a
//!   stale offer can only *weaken* the certified bound `D`, never tighten
//!   it. Offers archived in an earlier slot price a different program and
//!   contribute no certificate at all.
//! - **Circuit breaker**: a shard that fails three consecutive rounds is
//!   merged into its smallest neighbor (re-plan via [`ShardPlan::merged`]);
//!   at two shards the slot is abandoned to the monolithic fallback
//!   instead.
//!
//! With no chaos configured and no failures occurring, every layer is
//! inert and the trajectory is bit-identical to the pre-fault-tolerance
//! coordinator.

use edgealloc::algorithms::{OnlineRegularized, SlotInput};
use edgealloc::allocation::Allocation;
use edgealloc::exact::project_exact;
use edgealloc::health::{FallbackRung, SlotHealth, SCHUR_KERNEL};
use edgealloc::programs::p2::{self, CapacityMode, P2Workspace};
use edgealloc::{Error, Result};
use optim::budget::SolveBudget;
use optim::dual::{ArchivedOffer, DualAscent, OfferArchive, StepSchedule};
use optim::parallel::{panic_message, try_parallel_map_budgeted, WorkerBudget};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Duration;

use crate::chaos::{corrupt_offer, ChaosConfig};
use crate::merge::{merge_shards, restrict};
use crate::plan::ShardPlan;

/// Coordination rounds per slot before adopting the best round.
const MAX_ROUNDS: usize = 8;

/// Stop early after this many consecutive rounds without a new best
/// projected objective (the dual has stalled short of tolerance; more
/// rounds only burn the budget).
const STALL_ROUNDS: usize = 4;

/// Relative duality-gap tolerance for convergence. The gap is measured on
/// the exactly-feasible projected point, so meeting it certifies the
/// adopted decision within `TOL_GAP` of the slot optimum.
const TOL_GAP: f64 = 2e-5;

/// Relative capacity-violation tolerance (pre-projection) for convergence.
/// The projection repairs any violation exactly, so this only bounds how
/// far the dual iterate may sit from primal feasibility when the gap test
/// passes — it guards against adopting a gap computed at a wildly
/// infeasible merge, not decision quality.
const TOL_VIOLATION: f64 = 1e-2;

/// Relaxation factor `β ∈ (0, 1]` of the aggregate estimate `ŷ`.
const RELAXATION: f64 = 0.7;

/// Multiplier on the auto-scaled dual step `α₀`.
const STEP_SCALE: f64 = 1.0;

/// Dual step decay `δ` (`α_k = α₀/(1 + δ·k)`).
const STEP_DECAY: f64 = 0.1;

/// Consecutive failed rounds (across slots) before a shard's circuit
/// breaker trips: its users are merged into the smallest neighbor shard,
/// or — at two shards — the slot is abandoned to the monolithic fallback.
const BREAKER_THRESHOLD: usize = 3;

/// Minimum *fresh* (this-round) shard offers a coordination round needs to
/// complete; the remaining shards may be covered by archived carry-forward
/// offers.
const MIN_FRESH: usize = 1;

/// Tuning of the coordination loop (see [`crate::OnlineSharded`] for the
/// algorithm-level builder that fills this in). The ℙ₂ solver settings —
/// ε, barrier options and Schur kernel — are not tuned here: every slot
/// reads them from the [`OnlineRegularized`] the coordinator runs in.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Target shard count (effective count is capped at the user count).
    pub shards: usize,
    /// Retries per shard per round after a panic, solver error, or
    /// quarantined offer (0 = first attempt only). Each retry rebuilds the
    /// shard's workspace and runs on an even slice of what remains of the
    /// round budget.
    pub retry_limit: usize,
    /// Deterministic fault injection for the chaos harness (`None` and
    /// inert configs leave the solve path bit-identical to a build
    /// without chaos).
    pub chaos: Option<ChaosConfig>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            shards: 4,
            retry_limit: 2,
            chaos: None,
        }
    }
}

/// One shard's persistent solve state: its user columns and a retained
/// [`P2Workspace`] (its shape is stable across rounds and slots while the
/// shard keeps its users — zeroed reconfiguration prices keep the group
/// terms absent).
#[derive(Debug)]
struct ShardState {
    users: Vec<usize>,
    workloads: Vec<f64>,
    workspace: P2Workspace,
    // Per-slot scratch, refreshed by `begin_slot`.
    attachment: Vec<usize>,
    access_delay: Vec<f64>,
    prev: Allocation,
}

impl ShardState {
    fn new(users: Vec<usize>, input: &SlotInput<'_>) -> Self {
        let workloads = users.iter().map(|&j| input.workloads[j]).collect();
        ShardState {
            users,
            workloads,
            workspace: P2Workspace::default(),
            attachment: Vec::new(),
            access_delay: Vec::new(),
            prev: Allocation::zeros(0, 0),
        }
    }

    fn begin_slot(&mut self, input: &SlotInput<'_>, prev: &Allocation) {
        self.attachment = self.users.iter().map(|&j| input.attachment[j]).collect();
        self.access_delay = self.users.iter().map(|&j| input.access_delay[j]).collect();
        // Workloads can change under sanitization (a corrupted λ repaired
        // mid-horizon), so refresh them too.
        self.workloads = self.users.iter().map(|&j| input.workloads[j]).collect();
        self.prev = restrict(prev, &self.users);
    }

    /// Remaps this shard across a churn boundary: departed users drop out
    /// and survivors take their new dense indices (kept in ascending order,
    /// as [`ShardPlan::balanced`] guarantees). The workspace's next
    /// refresh rebuilds its solver if the shard's size changed.
    fn remap_churn(&mut self, remap: &[Option<usize>]) {
        let mut kept: Vec<usize> = self
            .users
            .iter()
            .filter_map(|&old_j| remap.get(old_j).copied().flatten())
            .collect();
        kept.sort_unstable();
        self.users = kept;
    }

    /// Admits an arriving user (churn repair), keeping the ascending user
    /// order; the shard's program grew a column block, so the workspace's
    /// next refresh rebuilds its solver.
    fn admit(&mut self, j: usize) {
        let pos = self.users.partition_point(|&u| u < j);
        self.users.insert(pos, j);
    }
}

/// What one shard's round solve produced.
struct ShardSolve {
    x: Vec<f64>,
    objective: f64,
    /// Certified (absolute) duality gap of the shard solve; `INFINITY`
    /// marks a solution without a usable bound (salvaged iterate with a
    /// non-finite residual).
    gap: f64,
    newton_steps: usize,
    deadline_hit: bool,
}

/// What one shard contributed to a round after panic isolation, the retry
/// ladder, fault injection, and quarantine screening.
struct RoundShard {
    /// The accepted fresh offer (`None` = every attempt failed).
    fresh: Option<ShardSolve>,
    /// Retry attempts taken beyond the first.
    retries: usize,
    /// Offers rejected by the quarantine screen.
    quarantined: usize,
    /// Whether any attempt ran into the round budget.
    deadline_hit: bool,
    /// The last failure swallowed (panic, solver error, or quarantine);
    /// `None` when the first attempt succeeded cleanly.
    error: Option<String>,
}

/// A fully evaluated coordination round kept as the adoption candidate.
struct RoundCandidate {
    x: Allocation,
    max_violation: f64,
    rel_gap: f64,
    /// True ℙ₂ objective of the projected point: candidates are adopted by
    /// it.
    objective: f64,
}

/// Per-horizon coordinator: the shard plan, per-shard solve states, and the
/// capacity prices `μ` carried across slots (consecutive slots price the
/// same clouds under similar load, so warm prices typically converge in one
/// or two rounds).
#[derive(Debug)]
pub struct Coordinator {
    cfg: CoordinatorConfig,
    plan: ShardPlan,
    /// The shard count this coordinator was asked for — the circuit
    /// breaker may merge the *plan* below it, and that re-plan must
    /// survive [`Coordinator::matches`] on the next slot.
    requested_shards: usize,
    states: Vec<ShardState>,
    prices: Vec<f64>,
    /// Per-shard archive of the most recent feasible offer — the
    /// carry-forward substitute when a shard fails or straggles.
    archive: OfferArchive,
    /// Per-shard consecutive failed-round counts (persisted across slots,
    /// reset by any fresh offer); the circuit breaker trips at
    /// [`BREAKER_THRESHOLD`].
    breaker: Vec<usize>,
    /// Lazily built monolithic workspace for the hybrid refinement
    /// ([`Coordinator::polish`]); retained across slots like the shard
    /// workspaces so repeated polishes pay no rebuild.
    mono: P2Workspace,
}

impl Coordinator {
    /// Plans shards for the instance shape seen in `input` (balanced by
    /// workload) and prepares per-shard states.
    pub fn new(cfg: CoordinatorConfig, input: &SlotInput<'_>) -> Self {
        let plan = ShardPlan::balanced(input.workloads, cfg.shards);
        let states = (0..plan.num_shards())
            .map(|s| ShardState::new(plan.users(s).to_vec(), input))
            .collect();
        let num_shards = plan.num_shards();
        Coordinator {
            requested_shards: cfg.shards,
            cfg,
            plan,
            states,
            prices: vec![0.0; input.num_clouds()],
            archive: OfferArchive::new(num_shards),
            breaker: vec![0; num_shards],
            mono: P2Workspace::default(),
        }
    }

    /// The plan this coordinator decomposes with.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Whether this coordinator still matches the instance shape. Compares
    /// the *requested* shard count, not the current plan's: a breaker
    /// re-plan deliberately runs below the requested count and must not be
    /// reverted (and its sick shard resurrected) on the next slot.
    pub fn matches(&self, input: &SlotInput<'_>, shards: usize) -> bool {
        self.plan.num_users() == input.num_users()
            && self.requested_shards == shards
            && self.prices.len() == input.num_clouds()
    }

    /// Repairs the shard plan across a churn boundary instead of rebuilding
    /// the coordinator from scratch: survivors stay on their shards (their
    /// indices remapped), arrivals go to the lightest shard, and the
    /// cross-slot coordination state — capacity prices `μ`, per-shard
    /// breaker counts, and the offer archive — survives. Archived
    /// offers of reshaped shards are harmless: offers are epoch- and
    /// shape-guarded at merge time, so a stale shape can never be adopted.
    ///
    /// `remap[old_j]` is the user's new dense index (`None` = departed);
    /// `new_workloads` are the post-churn per-user workloads. Shards
    /// emptied by departures are dropped (their breaker counts with them).
    ///
    /// # Panics
    ///
    /// Panics if `remap` maps a user at or beyond `new_workloads.len()`,
    /// or if every user departed (use a fresh coordinator instead).
    pub fn repair_churn(&mut self, remap: &[Option<usize>], new_workloads: &[f64]) {
        let new_users = new_workloads.len();
        for st in &mut self.states {
            st.remap_churn(remap);
        }
        let mut assigned = vec![false; new_users];
        for st in &self.states {
            for &j in &st.users {
                assigned[j] = true;
            }
        }
        let mut loads: Vec<f64> = self
            .states
            .iter()
            .map(|st| st.users.iter().map(|&j| new_workloads[j]).sum())
            .collect();
        for (j, taken) in assigned.iter().enumerate() {
            if *taken {
                continue;
            }
            let s = loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
                .map(|(s, _)| s)
                .expect("repair_churn on a coordinator with no shards");
            self.states[s].admit(j);
            loads[s] += new_workloads[j];
        }
        // Drop shards emptied by departures, keeping breaker counts (and,
        // when the shard count is unchanged, archived offers) aligned.
        let keep: Vec<bool> = self.states.iter().map(|st| !st.users.is_empty()).collect();
        if keep.iter().any(|k| !k) {
            let mut it = keep.iter();
            self.states.retain(|_| *it.next().unwrap());
            let mut it = keep.iter();
            self.breaker.retain(|_| *it.next().unwrap());
            self.archive = OfferArchive::new(self.states.len());
        }
        assert!(
            !self.states.is_empty(),
            "repair_churn left no users; rebuild the coordinator instead"
        );
        for st in &mut self.states {
            st.workloads = st.users.iter().map(|&j| new_workloads[j]).collect();
        }
        let groups: Vec<Vec<usize>> = self.states.iter().map(|st| st.users.clone()).collect();
        self.plan = ShardPlan::from_groups(new_users, groups);
    }

    /// Decides one slot by price-coordinated shard solves, with the ℙ₂
    /// settings (ε, barrier options) of `solver`. On success the returned
    /// allocation is **exactly** feasible (see [`project_exact`]); `health`
    /// receives the coordination telemetry either way, and the decision's
    /// shard count and Schur kernel on success.
    ///
    /// # Errors
    ///
    /// Fails when no coordination round produced an adoptable decision —
    /// the caller (`OnlineSharded`) then hands the slot to `solver`'s
    /// monolithic ladder.
    pub fn solve_slot(
        &mut self,
        solver: &OnlineRegularized,
        input: &SlotInput<'_>,
        prev: &Allocation,
        budget: &SolveBudget,
        health: &mut SlotHealth,
    ) -> Result<Allocation> {
        let num_clouds = input.num_clouds();
        let num_users = input.num_users();
        let w_op = input.weights.operation;
        if !(w_op > 0.0) {
            return Err(Error::Invalid(
                "price coordination needs a positive operation weight".into(),
            ));
        }
        let eps = solver.epsilons();
        for st in &mut self.states {
            st.begin_slot(input, prev);
        }
        let caps: Vec<f64> = (0..num_clouds).map(|i| input.system.capacity(i)).collect();
        let phi: Vec<Option<optim::convex::ScalarTerm>> = (0..num_clouds)
            .map(|i| p2::reconfig_term(input, prev, i, eps.eps1))
            .collect();
        let mut ascent = DualAscent::warm(
            self.prices.clone(),
            StepSchedule {
                alpha0: self.step_alpha0(input, &caps),
                decay: STEP_DECAY,
            },
        )
        .with_adaptive_steps();
        // Linearization point of the aggregate entropy: the previous slot's
        // totals, where the tangent slope is exactly zero — round 0 solves
        // the unregularized-aggregate problem and later rounds correct.
        let mut yhat: Vec<f64> = (0..num_clouds).map(|i| prev.cloud_total(i)).collect();
        let zero_reconfig = vec![0.0; num_clouds];

        let mut adopted: Option<RoundCandidate> = None;
        let mut best: Option<RoundCandidate> = None;
        let mut last_err: Option<Error> = None;
        let mut deadline_hit = false;
        let mut stalled_rounds = 0usize;
        let mut best_gap = f64::INFINITY;
        // Last round's (linearization point, aggregate response) — the
        // second sample the secant update on ŷ needs.
        let mut prev_response: Option<(Vec<f64>, Vec<f64>)> = None;
        for round in 0..MAX_ROUNDS {
            if !budget.is_unlimited() && budget.exhausted(0) {
                deadline_hit = true;
                break;
            }
            let round_budget = ascent.round_budget(budget, MAX_ROUNDS);
            let g: Vec<f64> = phi
                .iter()
                .zip(&yhat)
                .map(|(t, &y)| t.map_or(0.0, |t| t.deriv(y)))
                .collect();
            // Total per-cloud price each shard is charged this round; the
            // carry-forward archive keeps it per offer so a stale offer's
            // bound can be re-priced later.
            let tot: Vec<f64> = (0..num_clouds).map(|i| ascent.prices()[i] + g[i]).collect();
            let adjusted: Vec<f64> = (0..num_clouds)
                .map(|i| input.operation_prices[i] + tot[i] / w_op)
                .collect();
            if adjusted.iter().any(|a| !a.is_finite()) {
                last_err = Some(Error::Invalid(
                    "coordination produced non-finite shard prices".into(),
                ));
                break;
            }
            let outcomes = self.solve_round(
                solver,
                input,
                &adjusted,
                &zero_reconfig,
                &round_budget,
                round,
            );
            health.coord_rounds += 1;
            health.attempts += 1;

            // Fold the round's offers in: fresh offers are archived and
            // contribute their certified bound at the current prices; a
            // failed shard falls back to its archived offer with the
            // staleness-corrected (weaker, still valid) bound.
            let s_now = self.plan.num_shards();
            let mut parts: Vec<Option<Vec<f64>>> = Vec::with_capacity(s_now);
            let mut shard_bound = 0.0f64;
            let mut fresh_gap_sum = 0.0f64;
            let mut fresh_count = 0usize;
            let mut stale_used = 0usize;
            let mut round_err: Option<String> = None;
            for (s, out) in outcomes.into_iter().enumerate() {
                health.shard_retries += out.retries;
                health.quarantined_offers += out.quarantined;
                deadline_hit |= out.deadline_hit;
                if let Some(err) = out.error {
                    let msg = format!("shard {s}: {err}");
                    health.note_error(&msg);
                    round_err.get_or_insert(msg);
                }
                match out.fresh {
                    Some(sv) => {
                        fresh_count += 1;
                        self.breaker[s] = 0;
                        health.newton_steps += sv.newton_steps;
                        shard_bound += sv.objective - sv.gap;
                        fresh_gap_sum += sv.gap;
                        self.archive.record(
                            s,
                            ArchivedOffer {
                                x: sv.x.clone(),
                                objective: sv.objective,
                                gap: sv.gap,
                                prices: tot.clone(),
                                round,
                                epoch: input.t,
                            },
                        );
                        parts.push(Some(sv.x));
                    }
                    None => {
                        self.breaker[s] = self.breaker[s].saturating_add(1);
                        match self.archive.latest(s) {
                            Some(old) if old.x.len() == self.states[s].users.len() * num_clouds => {
                                stale_used += 1;
                                shard_bound += stale_bound(old, &tot, &caps, input.t);
                                parts.push(Some(old.x.clone()));
                            }
                            _ => parts.push(None),
                        }
                    }
                }
            }
            health.stale_offers += stale_used;
            if fresh_count < s_now {
                health.degraded_rounds += 1;
            }
            if fresh_count == 0 && stale_used == 0 {
                // Every shard failed and nothing usable is archived: the
                // slot cannot be coordinated at all (e.g. a fault stripped
                // the barrier's interior on every shard). Still run the
                // breaker so chronic failure re-plans for the next slot,
                // then surface the concrete shard error over the breaker's
                // generic message.
                self.breaker_round(input, prev, health, &mut last_err);
                last_err = Some(Error::Invalid(round_err.unwrap_or_else(|| {
                    "every shard failed and no offer is archived".into()
                })));
                break;
            }
            if fresh_count < MIN_FRESH || parts.iter().any(|p| p.is_none()) {
                // Too few offers to merge a round: count it as a stall and
                // re-roll at the same prices (the breaker below re-plans a
                // persistently sick shard).
                stalled_rounds += 1;
                if best.is_some() && stalled_rounds >= STALL_ROUNDS {
                    break;
                }
                if self.breaker_round(input, prev, health, &mut last_err) {
                    break;
                }
                continue;
            }
            let parts: Vec<Vec<f64>> = parts.into_iter().map(|p| p.expect("screened")).collect();
            let merged = merge_shards(&self.plan, &parts, num_clouds, num_users);
            let y: Vec<f64> = (0..num_clouds).map(|i| merged.cloud_total(i)).collect();
            let violation: Vec<f64> = (0..num_clouds).map(|i| y[i] - caps[i]).collect();
            let max_violation = (0..num_clouds)
                .map(|i| violation[i].max(0.0) / caps[i].max(1.0))
                .fold(0.0, f64::max);

            let mut projected = merged;
            let candidate = match project_exact(input, &mut projected) {
                Ok(()) => {
                    match p2::slot_objective(input, prev, &projected, eps) {
                        Ok(f_proj) => {
                            // Dual lower bound at this round's prices
                            // (stale offers enter `shard_bound` already
                            // weakened by their staleness correction).
                            let mut d: f64 = shard_bound;
                            for i in 0..num_clouds {
                                if let Some(t) = phi[i] {
                                    d += t.value(yhat[i]) - g[i] * yhat[i];
                                }
                                d -= ascent.prices()[i] * caps[i];
                            }
                            // A dual "bound" sitting meaningfully *above*
                            // the primal objective is numerically broken
                            // (cancellation at extreme price scales, e.g. a
                            // 1e9 fault spike) — treat it as no certificate
                            // at all rather than as a perfect gap of zero.
                            let rel = (f_proj - d) / f_proj.abs().max(1.0);
                            let rel_gap = if d.is_finite() && rel >= -1e-9 {
                                rel.max(0.0)
                            } else {
                                f64::INFINITY
                            };
                            if std::env::var_os("SHARD_DEBUG").is_some() {
                                let gap_sum = fresh_gap_sum;
                                let mu_slack: f64 = (0..num_clouds)
                                    .map(|i| ascent.prices()[i] * (caps[i] - y[i]))
                                    .sum();
                                let curv: f64 = (0..num_clouds)
                                    .filter_map(|i| {
                                        phi[i].map(|t| {
                                            t.value(y[i])
                                                - t.value(yhat[i])
                                                - g[i] * (y[i] - yhat[i])
                                        })
                                    })
                                    .sum();
                                eprintln!(
                                    "  round {}: relgap {rel_gap:.3e} shardgaps {gap_sum:.3e} \
                                     muslack {mu_slack:.3e} curv {curv:.3e} viol {max_violation:.3e}",
                                    ascent.round(),
                                );
                            }
                            Some(RoundCandidate {
                                x: projected,
                                max_violation,
                                rel_gap,
                                objective: f_proj,
                            })
                        }
                        Err(e) => {
                            health.note_error(&e);
                            None
                        }
                    }
                }
                Err(e) => {
                    health.note_error(&e);
                    None
                }
            };
            let mut meaningful = false;
            if let Some(c) = candidate {
                let converged = c.max_violation <= TOL_VIOLATION && c.rel_gap <= TOL_GAP;
                // The tangent fixed-point contracts linearly (factor
                // ~0.7–0.9 per round), so any strict improvement counts as
                // progress; only a window of rounds with *no* new best
                // reads as a genuine stall.
                meaningful = c.rel_gap < best_gap;
                if ascent.offer(c.rel_gap) || best.is_none() {
                    best_gap = best_gap.min(c.rel_gap);
                    best = Some(RoundCandidate {
                        x: c.x.clone(),
                        max_violation: c.max_violation,
                        rel_gap: c.rel_gap,
                        objective: c.objective,
                    });
                }
                if converged {
                    adopted = Some(c);
                    break;
                }
            }
            // A run of rounds that fail to tighten the best projected gap
            // means the dual has stalled short of tolerance — adopt what we
            // have rather than burning the remaining budget.
            if meaningful {
                stalled_rounds = 0;
            } else {
                stalled_rounds += 1;
                if best.is_some() && stalled_rounds >= STALL_ROUNDS {
                    break;
                }
            }
            // Advance the linearization point toward the fixed point
            // `y(ŷ) = ŷ`. Plain relaxed Picard contracts linearly (factor
            // up to ~0.9 when the subproblems are flat along the aggregate
            // direction), so with two samples of the response in hand we
            // take a safeguarded per-cloud secant step on the residual
            // `r(ŷ) = y(ŷ) − ŷ` instead, falling back to Picard when the
            // secant is degenerate or extrapolates wildly.
            let yhat_now = yhat.clone();
            for i in 0..num_clouds {
                let r = y[i] - yhat[i];
                let mut next = (1.0 - RELAXATION) * yhat[i] + RELAXATION * y[i];
                if let Some((ph, py)) = &prev_response {
                    let r_prev = py[i] - ph[i];
                    let denom = r - r_prev;
                    if denom.abs() > 1e-12 * r.abs().max(r_prev.abs()).max(1e-12) {
                        let cand = yhat[i] - r * (yhat[i] - ph[i]) / denom;
                        let lo = yhat[i].min(y[i]);
                        let hi = yhat[i].max(y[i]);
                        let span = (hi - lo).max(1e-9 * hi.max(1.0));
                        if cand.is_finite()
                            && cand >= 0.0
                            && (lo - 10.0 * span..=hi + 10.0 * span).contains(&cand)
                        {
                            next = cand;
                        }
                    }
                }
                if next.is_finite() && next >= 0.0 {
                    yhat[i] = next;
                }
            }
            prev_response = Some((yhat_now, y.clone()));
            ascent.ascend(&violation);
            if self.breaker_round(input, prev, health, &mut last_err) {
                break;
            }
        }
        self.prices = ascent.prices().to_vec();
        health.deadline_hit |= deadline_hit;
        // Hybrid refinement: coordination stalled (or ran out of rounds)
        // short of the gap tolerance. One monolithic solve, started from
        // the blended best round at the solver's μ₀ like every solve,
        // closes the certified gap; it is adopted only when it improves
        // the round's objective.
        if adopted.is_none() && (budget.is_unlimited() || !budget.exhausted(0)) {
            if let Some(b) = best.as_ref() {
                match self.polish(solver, input, prev, budget, b, health) {
                    // A budget-starved polish must not replace a better
                    // decision we already hold.
                    Ok(c) if c.objective <= b.objective || !b.objective.is_finite() => {
                        health.polished = true;
                        adopted = Some(c);
                    }
                    Ok(_) => {}
                    Err(e) => health.note_error(format!("polish: {e}")),
                }
            }
        }
        let outcome = adopted.or_else(|| {
            best.take().inspect(|_| {
                // The tolerance was not met; record how the loop ended.
                health.rung = if deadline_hit {
                    FallbackRung::DeadlineSalvage
                } else {
                    FallbackRung::RelaxedTolerance
                };
            })
        });
        match outcome {
            Some(c) => {
                health.shards = self.plan.num_shards();
                health.schur_kernel = Some(SCHUR_KERNEL.to_string());
                health.max_capacity_violation = Some(c.max_violation);
                // A round can be adoptable without a usable dual bound
                // (salvaged shard iterates); keep the JSON clean of ±inf.
                health.duality_gap = c.rel_gap.is_finite().then_some(c.rel_gap);
                health.final_residual = health.duality_gap;
                Ok(c.x)
            }
            None => Err(last_err.unwrap_or_else(|| {
                Error::Invalid("no coordination round produced a decision".into())
            })),
        }
    }

    /// The hybrid refinement solve: the full slot ℙ₂ (true reconfiguration
    /// prices, explicit capacity rows), started from the best projected
    /// coordination round. The duals start at the solver's `μ₀` like every
    /// solve: seeding them from the round's certified gap saved no
    /// iterations (DESIGN.md §13).
    fn polish(
        &mut self,
        solver: &OnlineRegularized,
        input: &SlotInput<'_>,
        prev: &Allocation,
        budget: &SolveBudget,
        round: &RoundCandidate,
        health: &mut SlotHealth,
    ) -> Result<RoundCandidate> {
        let ws = &mut self.mono;
        ws.refresh(input, prev, solver.epsilons(), CapacityMode::Explicit)?;
        let mut opts = solver.solver_options().clone();
        opts.budget = *budget;
        // The projected round sits exactly on the capacity/demand
        // boundaries; a small blend toward the strictly-interior
        // proportional point gives the barrier an interior start while
        // keeping the round's near-optimality.
        let start: Option<Vec<f64>> = p2::proportional_start(input).map(|p| {
            round
                .x
                .as_flat()
                .iter()
                .zip(&p)
                .map(|(&x, &q)| 0.99 * x + 0.01 * q)
                .collect()
        });
        let attempt = match ws.solve(start.as_deref(), &opts) {
            Err(optim::Error::BadStartingPoint(_)) if start.is_some() => ws.solve(None, &opts),
            other => other,
        };
        let sol = attempt?;
        health.attempts += 1;
        health.newton_steps += sol.stats.iterations;
        let num_clouds = input.num_clouds();
        let mut x = Allocation::from_flat(num_clouds, input.num_users(), sol.x);
        let max_violation = (0..num_clouds)
            .map(|i| {
                let cap = input.system.capacity(i);
                (x.cloud_total(i) - cap).max(0.0) / cap.max(1.0)
            })
            .fold(0.0, f64::max);
        project_exact(input, &mut x)?;
        let objective = p2::slot_objective(input, prev, &x, solver.epsilons())?;
        let rel_gap = if sol.stats.gap().is_finite() {
            sol.stats.gap().max(0.0) / objective.abs().max(1.0)
        } else {
            f64::INFINITY
        };
        Ok(RoundCandidate {
            x,
            max_violation,
            rel_gap,
            objective,
        })
    }

    /// Auto-scale of the dual step: `μ` moves in cost-per-resource units,
    /// violations in resource units, so `α₀ ~ (mean priced cost per unit) /
    /// (mean capacity)` makes the first correction shift prices by the
    /// order of the operation prices when a cloud is ~100% over capacity.
    fn step_alpha0(&self, input: &SlotInput<'_>, caps: &[f64]) -> f64 {
        let finite_mean = |vals: &mut dyn Iterator<Item = f64>| {
            let mut sum = 0.0;
            let mut n = 0usize;
            for v in vals {
                if v.is_finite() {
                    sum += v.abs();
                    n += 1;
                }
            }
            if n == 0 {
                0.0
            } else {
                sum / n as f64
            }
        };
        let mean_price = finite_mean(&mut input.operation_prices.iter().copied());
        let mean_cap = finite_mean(&mut caps.iter().copied()).max(1e-9);
        let alpha = STEP_SCALE * input.weights.operation * (mean_price + 1e-3) / mean_cap;
        if alpha.is_finite() && alpha > 0.0 {
            alpha
        } else {
            1e-3
        }
    }

    /// Fans the round's restricted ℙ₂ solves across the shards (extra
    /// workers leased from the global [`WorkerBudget`]; a drained pool runs
    /// them inline). All shards share the round's absolute deadline rather
    /// than pre-split slices, so sequential execution hands unused time
    /// forward and parallel execution gives each shard the full window.
    /// Every shard runs its own isolated retry ladder
    /// ([`solve_shard_isolated`]); a failed shard yields a `fresh: None`
    /// entry instead of aborting the round.
    fn solve_round(
        &mut self,
        solver: &OnlineRegularized,
        input: &SlotInput<'_>,
        adjusted: &[f64],
        zero_reconfig: &[f64],
        round_budget: &SolveBudget,
        round: usize,
    ) -> Vec<RoundShard> {
        let cfg = &self.cfg;
        let chaos = cfg.chaos.filter(|c| c.is_active());
        let want = self.states.len();
        let items: Vec<Mutex<(usize, &mut ShardState)>> =
            self.states.iter_mut().enumerate().map(Mutex::new).collect();
        let results = try_parallel_map_budgeted(&items, want, WorkerBudget::global(), |cell| {
            let (s, st) = &mut *cell.lock().expect("shard state lock poisoned");
            solve_shard_isolated(
                *s,
                st,
                input,
                adjusted,
                zero_reconfig,
                cfg.retry_limit,
                solver,
                round_budget,
                round,
                chaos.as_ref(),
            )
        });
        results
            .into_iter()
            .map(|r| match r {
                Ok(out) => out,
                // The retry ladder itself panicked (outside any attempt's
                // own isolation): the shard failed for the round.
                Err(panic_msg) => RoundShard {
                    fresh: None,
                    retries: 0,
                    quarantined: 0,
                    deadline_hit: false,
                    error: Some(format!("solver {panic_msg}")),
                },
            })
            .collect()
    }

    /// The end-of-round circuit-breaker check: any shard at
    /// [`BREAKER_THRESHOLD`] consecutive failures is
    /// merged into its smallest healthy neighbor. Returns `true` when
    /// coordination must stop instead — a trip with no third shard to
    /// absorb the users, which abandons the slot to the caller's
    /// monolithic fallback (or to the best round already in hand).
    fn breaker_round(
        &mut self,
        input: &SlotInput<'_>,
        prev: &Allocation,
        health: &mut SlotHealth,
        last_err: &mut Option<Error>,
    ) -> bool {
        let Some(sick) = self.breaker.iter().position(|&c| c >= BREAKER_THRESHOLD) else {
            return false;
        };
        health.breaker_trips += 1;
        if self.plan.num_shards() <= 2 {
            *last_err = Some(Error::Invalid(format!(
                "shard {sick} failed {} consecutive rounds with only {} shards; \
                 abandoning coordination for this slot",
                self.breaker[sick],
                self.plan.num_shards()
            )));
            return true;
        }
        self.replan_without(sick, input, prev);
        false
    }

    /// The circuit-breaker re-plan: merge the sick shard's users into the
    /// shard with the fewest users (deterministic tie-break by index),
    /// rebuild the per-shard solve states for the current slot, and reset
    /// the archive and breaker counters — offers and failure counts are
    /// indexed by shard, and the re-plan reassigns users across shards.
    fn replan_without(&mut self, sick: usize, input: &SlotInput<'_>, prev: &Allocation) {
        let into = (0..self.plan.num_shards())
            .filter(|&s| s != sick)
            .min_by_key(|&s| (self.plan.users(s).len(), s))
            .expect("breaker re-plan needs at least two shards");
        self.plan = self.plan.merged(sick, into);
        self.states = (0..self.plan.num_shards())
            .map(|s| {
                let mut st = ShardState::new(self.plan.users(s).to_vec(), input);
                st.begin_slot(input, prev);
                st
            })
            .collect();
        self.archive.reset(self.plan.num_shards());
        self.breaker = vec![0; self.plan.num_shards()];
    }
}

/// One shard's full per-round solve chain: fault injection (when chaos is
/// configured), panic isolation, the bounded retry ladder, and the
/// quarantine screen. Never panics and never returns a corrupt offer.
///
/// Attempt 0 runs exactly as a pre-fault-tolerance round did (full round
/// budget), so fault-free trajectories stay bit-identical. Every retry
/// rebuilds the workspace from scratch and runs on an even
/// [`SolveBudget::slice`] of whatever remains of the round budget, so a
/// crash-looping shard cannot starve its peers past the round deadline.
#[allow(clippy::too_many_arguments)]
fn solve_shard_isolated(
    s: usize,
    st: &mut ShardState,
    parent: &SlotInput<'_>,
    adjusted: &[f64],
    zero_reconfig: &[f64],
    retry_limit: usize,
    solver: &OnlineRegularized,
    round_budget: &SolveBudget,
    round: usize,
    chaos: Option<&ChaosConfig>,
) -> RoundShard {
    let expected = st.users.len() * parent.num_clouds();
    let max_attempts = 1 + retry_limit;
    let mut out = RoundShard {
        fresh: None,
        retries: 0,
        quarantined: 0,
        deadline_hit: false,
        error: None,
    };
    for attempt in 0..max_attempts {
        if attempt > 0 {
            if !round_budget.is_unlimited() && round_budget.exhausted(0) {
                out.deadline_hit = true;
                break;
            }
            out.retries += 1;
            st.workspace = P2Workspace::default();
        }
        let attempt_budget = if attempt == 0 {
            *round_budget
        } else {
            round_budget.slice(max_attempts - attempt)
        };
        let roll = chaos
            .map(|c| c.roll(parent.t, round, s, attempt))
            .unwrap_or_default();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if roll.delay_ms > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(roll.delay_ms / 1e3));
            }
            if roll.panic {
                panic!(
                    "injected shard panic (slot {}, round {round}, shard {s})",
                    parent.t
                );
            }
            solve_shard(st, parent, adjusted, zero_reconfig, solver, &attempt_budget).map(
                |mut sv| {
                    if let Some(kind) = roll.corrupt {
                        corrupt_offer(&mut sv.x, kind, roll.entropy);
                    }
                    sv
                },
            )
        }));
        match result {
            Ok(Ok(sv)) => {
                out.deadline_hit |= sv.deadline_hit;
                match screen_offer(&sv, expected) {
                    Ok(()) => {
                        out.fresh = Some(sv);
                        return out;
                    }
                    Err(msg) => {
                        out.quarantined += 1;
                        out.error = Some(format!("quarantined offer: {msg}"));
                    }
                }
            }
            Ok(Err(e)) => {
                if matches!(e, Error::Solver(optim::Error::DeadlineExceeded { .. })) {
                    out.deadline_hit = true;
                }
                out.error = Some(e.to_string());
            }
            Err(payload) => {
                out.error = Some(format!("solver panicked: {}", panic_message(payload)));
                // A panic can leave the workspace mid-update; rebuild it
                // before anything touches it again.
                st.workspace = P2Workspace::default();
            }
        }
    }
    out
}

/// The quarantine screen a fresh offer must pass before it may reach the
/// merge or the carry-forward archive: the right shape, finite entries, no
/// genuinely negative allocation (float noise above `−10⁻⁹` passes — the
/// exact projection clamps it, as it always has), a finite objective, and
/// a non-NaN, non-negative gap (`+∞` = "no certificate" is honest and
/// allowed).
fn screen_offer(sv: &ShardSolve, expected_len: usize) -> std::result::Result<(), String> {
    if sv.x.len() != expected_len {
        return Err(format!("shape {} (expected {expected_len})", sv.x.len()));
    }
    if let Some(v) = sv.x.iter().find(|v| !v.is_finite()) {
        return Err(format!("non-finite entry {v}"));
    }
    if let Some(v) = sv.x.iter().find(|&&v| v < -1e-9) {
        return Err(format!("negative entry {v}"));
    }
    if !sv.objective.is_finite() {
        return Err(format!("non-finite objective {}", sv.objective));
    }
    if sv.gap.is_nan() || sv.gap < 0.0 {
        return Err(format!("invalid gap {}", sv.gap));
    }
    Ok(())
}

/// The staleness correction for a carried-forward offer's dual
/// contribution. The shard objective at total prices `p` is
/// `f_s(x) = base_s(x) + Σ_i p_i·y_si` with `0 ≤ y_si ≤ C_i` (explicit
/// capacity rows), so a bound `obj° − gap°` certified at old prices still
/// bounds the current-price shard minimum after paying
/// `Σ_i (old_i − new_i)⁺ · C_i` — price increases cost nothing (their
/// term is nonnegative), price *drops* are charged at the worst case
/// `y_si = C_i`. The correction is one-sided by construction: a stale
/// offer can only weaken the round's bound `D`. Offers from an earlier
/// slot (epoch mismatch) price a different program entirely and
/// contribute `−∞` — a usable warm decision, no certificate.
fn stale_bound(old: &ArchivedOffer, tot: &[f64], caps: &[f64], slot: usize) -> f64 {
    if old.epoch != slot || !old.gap.is_finite() {
        return f64::NEG_INFINITY;
    }
    let mut m = old.objective - old.gap;
    for (i, &cap) in caps.iter().enumerate() {
        let old_p = old.prices.get(i).copied().unwrap_or(0.0);
        m -= (old_p - tot[i]).max(0.0) * cap;
    }
    m
}

/// One shard's restricted ℙ₂ for the round: the shard's own users, the
/// round's adjusted operation prices, zeroed reconfiguration prices (the
/// aggregate term lives in the coordinator's tangent price), and the full
/// per-cloud capacities as explicit rows.
fn solve_shard(
    st: &mut ShardState,
    parent: &SlotInput<'_>,
    adjusted: &[f64],
    zero_reconfig: &[f64],
    solver: &OnlineRegularized,
    budget: &SolveBudget,
) -> Result<ShardSolve> {
    let shard_input = SlotInput {
        t: parent.t,
        system: parent.system,
        workloads: &st.workloads,
        operation_prices: adjusted,
        attachment: &st.attachment,
        access_delay: &st.access_delay,
        reconfig_prices: zero_reconfig,
        migration_out: parent.migration_out,
        migration_in: parent.migration_in,
        weights: parent.weights,
        // Cohort-reduced slots route through the monolithic path, so the
        // shard pipeline only ever partitions per-user inputs.
        multiplicity: None,
    };
    let ws = &mut st.workspace;
    ws.refresh(
        &shard_input,
        &st.prev,
        solver.epsilons(),
        CapacityMode::Explicit,
    )?;
    let mut opts = solver.solver_options().clone();
    opts.budget = *budget;
    let start = p2::proportional_start(&shard_input);
    let attempt = match ws.solve(start.as_deref(), &opts) {
        // The proportional start can be (numerically) on the boundary;
        // fall back to phase I.
        Err(optim::Error::BadStartingPoint(_)) if start.is_some() => ws.solve(None, &opts),
        other => other,
    };
    match attempt {
        Ok(sol) => Ok(ShardSolve {
            objective: sol.objective,
            gap: if sol.stats.gap().is_finite() {
                sol.stats.gap().max(0.0)
            } else {
                f64::INFINITY
            },
            newton_steps: sol.stats.iterations,
            deadline_hit: false,
            x: sol.x,
        }),
        // The round's window closed mid-solve: the best interior iterate is
        // strictly feasible for the shard region, and its certified residual
        // still yields a valid (if loose) dual bound.
        Err(optim::Error::DeadlineExceeded {
            best: Some(salvage),
            ..
        }) => Ok(ShardSolve {
            objective: salvage.objective,
            gap: if salvage.residual.is_finite() {
                salvage.residual.max(0.0)
            } else {
                f64::INFINITY
            },
            newton_steps: 0,
            deadline_hit: true,
            x: salvage.x,
        }),
        Err(e) => Err(e.into()),
    }
}
