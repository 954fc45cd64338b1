//! `online-approx` — the paper's regularization-based online algorithm.

use crate::algorithms::{OnlineAlgorithm, SlotInput};
use crate::allocation::Allocation;
use crate::cohort::{CohortConfig, CohortPlan};
use crate::health::{FallbackRung, SlotHealth, SCHUR_KERNEL};
use crate::programs::p2::{self, CapacityMode, Epsilons, P2Solution, P2Workspace};
use crate::programs::per_slot_lp::{
    add_dynamic_terms, base_lp, solve_to_allocation_resilient_with, StaticTerms,
};
use crate::sentinel;
use crate::shed::{self, ShedConfig, SurvivorSlot};
use crate::Result;
use optim::budget::SolveBudget;
use optim::convex::{BarrierOptions, SchurKernel};
use optim::lp::IpmOptions;
use optim::resilience;
use optim::Salvage;
use std::time::Instant;

/// The paper's online algorithm (§III-B): at every slot, optimally solve
/// the regularized convex program ℙ₂ built around the previous slot's
/// decision. Theorem 2 gives the competitive ratio `1 + γ|I|` with
///
/// ```text
/// γ = max_i { (C_i+ε₁)·ln(1+C_i/ε₁), (C_i+ε₂)·ln(1+C_i/ε₂) }.
/// ```
///
/// # Example
///
/// ```
/// use edgealloc::prelude::*;
///
/// # fn main() -> Result<(), edgealloc::Error> {
/// let inst = Instance::fig1_example(2.1, true);
/// let mut alg = OnlineRegularized::with_defaults();
/// let traj = run_online(&inst, &mut alg)?;
/// let cost = evaluate_trajectory(&inst, &traj.allocations);
/// assert!(cost.total() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OnlineRegularized {
    eps: Epsilons,
    options: BarrierOptions,
    capacity_mode: CapacityMode,
    slot_deadline_ms: Option<f64>,
    shedding: bool,
    /// Cohort aggregation's settings, when it is on.
    cohorts: Option<CohortConfig>,
    workspace: Option<P2Workspace>,
    last_health: Option<SlotHealth>,
}

impl OnlineRegularized {
    /// Creates the algorithm with explicit regularization parameters.
    pub fn new(eps: Epsilons) -> Self {
        OnlineRegularized {
            eps,
            options: BarrierOptions::default(),
            capacity_mode: CapacityMode::Paper10b,
            slot_deadline_ms: None,
            shedding: true,
            cohorts: None,
            workspace: None,
            last_health: None,
        }
    }

    /// Default `ε₁ = ε₂ = 0.5` (see [`Epsilons::default`]).
    pub fn with_defaults() -> Self {
        Self::new(Epsilons::default())
    }

    /// Convenience constructor for the Figure-4 sweep: `ε₁ = ε₂ = ε`.
    pub fn with_epsilon(eps: f64) -> Self {
        Self::new(Epsilons {
            eps1: eps,
            eps2: eps,
        })
    }

    /// Switches ℙ₂ to explicit per-cloud capacity rows instead of the
    /// paper's constraint (10b) — the deployment-grade variant whose raw
    /// solutions already respect capacity (ablation knob; see
    /// [`CapacityMode`]).
    pub fn with_explicit_capacity(mut self) -> Self {
        self.capacity_mode = CapacityMode::Explicit;
        self
    }

    /// Overrides the barrier-solver options.
    pub fn with_solver_options(mut self, options: BarrierOptions) -> Self {
        self.options = options;
        self
    }

    /// Does nothing: ℙ₂ has one Newton-step Schur kernel
    /// ([`SchurKernel::Blocked`]). Kept only because the benchmark's
    /// `Workload::algorithm` still calls it.
    pub fn with_schur_kernel(self, _kernel: SchurKernel) -> Self {
        self
    }

    /// Gives every slot a wall-clock budget of `ms` milliseconds. The
    /// degradation ladder splits it across its rungs ([`SolveBudget::slice`]),
    /// skips rungs once it is spent, and — when even that fails — adopts
    /// the best strictly-feasible barrier iterate reached
    /// ([`FallbackRung::DeadlineSalvage`], exactly projected), so `decide`
    /// returns within roughly twice the deadline (budget checks are
    /// cooperative, between iterations). `None` restores unlimited slots.
    pub fn with_slot_deadline_ms(mut self, ms: impl Into<Option<f64>>) -> Self {
        self.slot_deadline_ms = ms.into();
        self
    }

    /// The per-slot wall-clock budget, if one is set.
    pub fn slot_deadline_ms(&self) -> Option<f64> {
        self.slot_deadline_ms
    }

    /// Disables the overload sentinel and the shedding rung: overloaded
    /// slots fall down the ordinary ladder into carry-forward with a
    /// flagged deficit, as the pre-shedding implementation did
    /// (ablation/debugging knob; feasible horizons are bit-identical
    /// either way — the sentinel is a pure pre-solve read).
    pub fn without_shedding(mut self) -> Self {
        self.shedding = false;
        self
    }

    /// The shedding configuration in use (headroom, overflow tier,
    /// outright penalty): always [`ShedConfig::default`]. The headroom
    /// doubles as the sentinel's interior margin for the `Tight`
    /// classification.
    pub fn shed_config(&self) -> ShedConfig {
        ShedConfig::default()
    }

    /// Enables cohort aggregation: slots whose users collapse into few
    /// exchangeability cohorts (same station, same λ-class, same previous
    /// row unless `cfg` pools references — see [`crate::cohort`]) solve
    /// the constant-size reduced ℙ₂ and scatter the optimum back, certified
    /// exactly feasible by [`crate::exact::project_exact`]. Slots where the
    /// class count explodes, and any slot whose reduced solve fails, run
    /// the ordinary blocked per-user ladder unchanged.
    pub fn with_cohort_config(mut self, cfg: CohortConfig) -> Self {
        self.cohorts = Some(cfg);
        self
    }

    /// The cohort configuration in use ([`CohortConfig::default`] while
    /// cohort aggregation is off).
    pub fn cohort_config(&self) -> CohortConfig {
        self.cohorts.unwrap_or_default()
    }

    /// The regularization parameters in use.
    pub fn epsilons(&self) -> Epsilons {
        self.eps
    }

    /// The barrier-solver options in use.
    pub fn solver_options(&self) -> &BarrierOptions {
        &self.options
    }

    /// Decides one slot like [`OnlineAlgorithm::decide`], with `step` run
    /// ahead of the monolithic ℙ₂ ladder on every slot the cohort path did
    /// not decide (see [`SlotStep`]). The slot's health is handed over by
    /// [`OnlineAlgorithm::take_health`] as usual.
    ///
    /// # Errors
    ///
    /// As [`OnlineAlgorithm::decide`].
    pub fn decide_with(
        &mut self,
        input: &SlotInput<'_>,
        prev: &Allocation,
        step: &mut dyn SlotStep,
    ) -> Result<Allocation> {
        let clock = Instant::now();
        // Every solver attempt the slot makes counts itself in.
        let mut health = SlotHealth {
            attempts: 0,
            deadline_ms: self.slot_deadline_ms,
            ..SlotHealth::primary()
        };
        let budget = match self.slot_deadline_ms {
            Some(ms) => SolveBudget::from_millis(ms),
            None => SolveBudget::unlimited(),
        };
        let result = self.decide_sentineled(input, prev, &mut health, &budget, step);
        health.wall_time_ms = clock.elapsed().as_secs_f64() * 1e3;
        self.last_health = Some(health);
        result
    }

    /// Theorem 2's parameter `γ` for a given system.
    pub fn gamma(&self, system: &crate::system::EdgeCloudSystem) -> f64 {
        let mut g = 0.0f64;
        for i in 0..system.num_clouds() {
            let c = system.capacity(i);
            g = g.max((c + self.eps.eps1) * (1.0 + c / self.eps.eps1).ln());
            g = g.max((c + self.eps.eps2) * (1.0 + c / self.eps.eps2).ln());
        }
        g
    }

    /// Theorem 2's competitive ratio `r = 1 + γ|I|`.
    pub fn theoretical_ratio(&self, system: &crate::system::EdgeCloudSystem) -> f64 {
        1.0 + self.gamma(system) * system.num_clouds() as f64
    }

    /// Rungs 1–2 of the ladder: the ℙ₂ barrier solve with its primary
    /// options, then the escalating relaxations of
    /// [`resilience::relaxed_barrier_options`]. Every level starts cold:
    /// level 0 at [`p2::proportional_start`], falling back to phase I for a
    /// missing or rejected start, so it reproduces [`p2::solve_with_mode`]
    /// exactly and healthy horizons are bit-identical to a ladder-free run;
    /// later levels start from phase I.
    /// `budget` is the whole slot's remaining wall-clock allowance: each
    /// barrier level runs under a slice of it (one share is held back for
    /// the per-slot-LP rung), levels are skipped entirely once it is spent,
    /// and any interior iterate a cut-off solve reached is kept in
    /// `salvage` for the caller's DeadlineSalvage rung.
    fn solve_p2_ladder(
        &mut self,
        input: &SlotInput<'_>,
        prev: &Allocation,
        health: &mut SlotHealth,
        budget: &SolveBudget,
        salvage: &mut Option<Box<Salvage>>,
    ) -> Result<P2Solution> {
        // The persistent workspace keeps the constraint matrix, objective
        // structure, and Schur coupling across slots; only term values and
        // the rhs are refreshed. `take` so a refresh failure drops the
        // workspace: the next slot then rebuilds instead of inheriting
        // half-refreshed values (the failed slot itself falls to a
        // fallback rung).
        let ws = match self.workspace.take() {
            Some(mut ws) => {
                ws.refresh(input, prev)?;
                ws
            }
            None => P2Workspace::new(input, prev, self.eps, self.capacity_mode)?,
        };
        let ws = self.workspace.insert(ws);
        let proportional = p2::proportional_start(input);
        let levels = resilience::MAX_ATTEMPTS;
        let budgeted = !budget.is_unlimited();
        let mut last_err: Option<optim::Error> = None;
        for k in 0..levels {
            if budgeted && budget.exhausted(0) {
                // The slot budget is spent: skip the remaining levels. The
                // caller falls through to salvage / carry-forward.
                health.deadline_hit = true;
                break;
            }
            let mut opts = resilience::relaxed_barrier_options(&self.options, k);
            if budgeted {
                // One extra share is held back for the per-slot-LP rung
                // that follows a failed ladder.
                opts.budget = budget.slice(levels - k + 1);
            }
            let start = if k == 0 {
                proportional.as_deref()
            } else {
                None
            };
            if k > 0 {
                health.rung = FallbackRung::RelaxedTolerance;
            }
            health.attempts += 1;
            let rung_clock = Instant::now();
            let attempt = match ws.solve_raw(start, &opts) {
                // The proportional start can be (numerically) on the
                // boundary; drop to phase-I before relaxing.
                Err(optim::Error::BadStartingPoint(_)) if start.is_some() => {
                    health.attempts += 1;
                    ws.solve_raw(None, &opts)
                }
                other => other,
            };
            let rung_elapsed_ms = rung_clock.elapsed().as_secs_f64() * 1e3;
            health.rung_ms.push(rung_elapsed_ms);
            match attempt {
                Ok(sol) => {
                    // One factorization per primal-dual iteration.
                    health.final_residual = Some(sol.stats.gap());
                    health.newton_steps += sol.stats.iterations;
                    health.outer_iterations = sol.stats.iterations;
                    health.schur_kernel = Some(SCHUR_KERNEL.to_string());
                    if sol.stats.iterations > 0 {
                        health.newton_step_ms = Some(rung_elapsed_ms / sol.stats.iterations as f64);
                    }
                    return Ok(p2::solution_from_barrier(input, sol));
                }
                Err(err) => {
                    match &err {
                        optim::Error::MaxIterations { residual, .. } => {
                            health.final_residual = Some(*residual);
                        }
                        optim::Error::DeadlineExceeded { best, .. } => {
                            // The level's slice ran out. Keep the best
                            // interior iterate seen so far — it is strictly
                            // feasible and becomes the DeadlineSalvage rung
                            // if no later rung finishes.
                            health.deadline_hit = true;
                            if let Some(b) = best {
                                let keep = match salvage.as_ref() {
                                    Some(cur) => !(cur.residual <= b.residual),
                                    None => true,
                                };
                                if keep {
                                    *salvage = Some(b.clone());
                                }
                            }
                        }
                        _ => {}
                    }
                    health.note_error(&err);
                    let slice_expired = matches!(err, optim::Error::DeadlineExceeded { .. });
                    if !slice_expired && !resilience::retryable(&err) {
                        return Err(err.into());
                    }
                    last_err = Some(err);
                }
            }
        }
        // `last_err` is only absent when the budget was spent before the
        // first level even started (e.g. the workspace refresh ate it).
        Err(last_err
            .unwrap_or(optim::Error::DeadlineExceeded {
                iterations: 0,
                best: None,
            })
            .into())
    }
}

impl OnlineAlgorithm for OnlineRegularized {
    fn name(&self) -> &str {
        if self.cohorts.is_some() {
            "online-approx-cohort"
        } else {
            "online-approx"
        }
    }

    fn decide(&mut self, input: &SlotInput<'_>, prev: &Allocation) -> Result<Allocation> {
        self.decide_with(input, prev, &mut NoStep)
    }

    fn take_health(&mut self) -> Option<SlotHealth> {
        self.last_health.take()
    }

    fn reset(&mut self) {
        self.workspace = None;
        self.last_health = None;
    }
}

impl OnlineRegularized {
    /// The sentinel layer around the ladder: classify the slot in O(I+J);
    /// overloaded slots get the shedding rung (minimum-penalty deferral +
    /// reduced re-solve), everything else runs the ordinary ladder
    /// untouched — the sentinel is a pure read, so feasible horizons stay
    /// bit-identical to the pre-sentinel pipeline.
    fn decide_sentineled(
        &mut self,
        input: &SlotInput<'_>,
        prev: &Allocation,
        health: &mut SlotHealth,
        budget: &SolveBudget,
        step: &mut dyn SlotStep,
    ) -> Result<Allocation> {
        let shed = ShedConfig::default();
        let report = sentinel::assess(input, shed.headroom);
        health.sentinel_verdict = Some(report.verdict);
        if !(self.shedding && report.overloaded()) {
            return self.decide_core(input, prev, health, budget, step);
        }
        let decision = match shed::plan_shedding(input, &shed, budget) {
            Ok(d) => d,
            Err(err) => {
                // No shedding plan: run the full slot anyway — the ladder's
                // repair serves as much demand as capacity allows and flags
                // the deficit, exactly the pre-shedding behavior.
                health.note_error(&err);
                return self.decide_core(input, prev, health, budget, step);
            }
        };
        health.rung = FallbackRung::Shedding;
        health.shed_users = decision.deferred.len();
        health.overflowed_users = if decision.overflowed {
            decision.deferred.len()
        } else {
            0
        };
        health.shed_penalty = decision.penalty;
        if decision.survivors.is_empty() {
            // Everything overflows (e.g. all capacity is gone): the edge
            // decision is the zero allocation and there is nothing to solve.
            step.reset();
            return Ok(Allocation::zeros(input.num_clouds(), input.num_users()));
        }
        let slot = SurvivorSlot::new(input, &decision);
        let rinput = slot.as_input(input);
        let rprev = slot.restrict(prev);
        let shed_rung = health.rung;
        // The core returns the survivor decision exactly projected on the
        // survivor slot, whichever path decided it, so capacity and the
        // survivor demands hold as written.
        let reduced = self.decide_core(&rinput, &rprev, health, budget, step)?;
        // The core reports the rung that solved the reduced program; the
        // slot's identity stays Shedding (the errors/attempt counters the
        // core recorded are kept).
        health.rung = shed_rung;
        Ok(slot.scatter(&reduced, input.num_users()))
    }

    /// The cohort path, then `step`, then rungs 1–4 of the ladder on the
    /// given (possibly survivor-reduced) slot: barrier + relaxations,
    /// per-slot LP, deadline salvage, then [`crate::exact::project_exact`].
    /// Every path returns its decision projected exactly once: the cohort
    /// path and `step` project their own, the ladder projects its rung's.
    /// Extracted from `decide` so the shedding rung can run it on the
    /// reduced slot.
    fn decide_core(
        &mut self,
        input: &SlotInput<'_>,
        prev: &Allocation,
        health: &mut SlotHealth,
        budget: &SolveBudget,
        step: &mut dyn SlotStep,
    ) -> Result<Allocation> {
        // Cohort-first: when the slot's users collapse into few
        // exchangeability cohorts, solve the constant-size reduced ℙ₂ and
        // scatter back. `build` returning `None` (class explosion, tiny
        // slot, already-reduced input) or a failed reduced solve falls
        // through to the per-user `step` and the ordinary blocked ladder
        // below on the untouched per-user input.
        if let Some(cfg) = self.cohorts {
            if let Some(plan) = CohortPlan::build(input, prev, &cfg) {
                match self.decide_cohort(&plan, input, prev, health, budget) {
                    Ok(x) => return Ok(x),
                    Err(err) => {
                        health.note_error(&err);
                        // The failed reduced ladder may have left a relaxed
                        // rung; the blocked run below re-earns its own rung
                        // from a clean primary state.
                        health.rung = FallbackRung::Primary;
                        health.cohorts = 0;
                        health.compression_ratio = None;
                    }
                }
            }
        }
        if let Some(x) = step.decide(self, input, prev, health, budget) {
            return Ok(x);
        }
        let mut salvage: Option<Box<Salvage>> = None;
        let mut allocation = match self.solve_p2_ladder(input, prev, health, budget, &mut salvage) {
            Ok(sol) => sol.allocation,
            Err(err) => {
                let mut adopted: Option<Allocation> = None;
                if !budget.exhausted(0) {
                    // Rung 3: the entropy-free per-slot LP — the
                    // linearized slot objective, no regularizers, exact
                    // dynamic costs — under whatever slot time remains
                    // (it is the last solver rung, so no further split).
                    health.rung = FallbackRung::PerSlotLp;
                    let mut lp = base_lp(
                        input,
                        StaticTerms {
                            operation: true,
                            quality: true,
                        },
                    );
                    add_dynamic_terms(&mut lp, input, prev);
                    let lp_opts = IpmOptions {
                        budget: *budget,
                        ..IpmOptions::default()
                    };
                    let rung_clock = Instant::now();
                    let (result, report) = solve_to_allocation_resilient_with(&lp, input, &lp_opts);
                    health.attempts += report.attempts;
                    health
                        .rung_ms
                        .push(rung_clock.elapsed().as_secs_f64() * 1e3);
                    match result {
                        Ok(x) => {
                            health.final_residual = if report.final_residual.is_finite() {
                                Some(report.final_residual)
                            } else {
                                None
                            };
                            adopted = Some(x);
                        }
                        Err(lp_err) => {
                            if matches!(
                                lp_err,
                                crate::Error::Solver(optim::Error::DeadlineExceeded { .. })
                            ) {
                                health.deadline_hit = true;
                            }
                            health.note_error(&lp_err);
                        }
                    }
                } else {
                    health.deadline_hit = true;
                }
                match adopted {
                    Some(x) => x,
                    // Rung 4: the deadline salvage — the best strictly
                    // feasible interior iterate any budgeted barrier
                    // solve reached. It covers demand by construction;
                    // the projection below handles any excess, making it
                    // a valid degraded decision.
                    None => match salvage.take() {
                        Some(s) => {
                            health.rung = FallbackRung::DeadlineSalvage;
                            health.deadline_hit = true;
                            health.final_residual = if s.residual.is_finite() {
                                Some(s.residual)
                            } else {
                                None
                            };
                            Allocation::from_flat(input.num_clouds(), input.num_users(), s.x)
                        }
                        None => return Err(err),
                    },
                }
            }
        };
        // Best-effort: a structurally infeasible slot (demand above total
        // capacity) leaves a deficit, which is flagged rather than failing
        // the slot — the allocation still respects capacities and serves
        // as much demand as possible.
        if let Err(err) = crate::exact::project_exact(input, &mut allocation) {
            health.note_error(&err);
        }
        health.repaired = true;
        Ok(allocation)
    }

    /// The cohort rung: the barrier ladder (rungs 1–2) on the reduced
    /// cohort program, then the plan's scatter back to per-user columns and
    /// the exact projection (`CohortPlan::scatter_exact`, one finisher for
    /// exact and pooled plans). Deeper rungs
    /// (per-slot LP, salvage) are *not* attempted here — a failed reduced
    /// solve hands the whole slot back to `decide_core`'s blocked ladder,
    /// so degraded slots behave identically with and without cohort mode.
    fn decide_cohort(
        &mut self,
        plan: &CohortPlan,
        input: &SlotInput<'_>,
        prev: &Allocation,
        health: &mut SlotHealth,
        budget: &SolveBudget,
    ) -> Result<Allocation> {
        let rinput = plan.as_input(input);
        let mut salvage: Option<Box<Salvage>> = None;
        let sol = self.solve_p2_ladder(&rinput, plan.reference(), health, budget, &mut salvage)?;
        // Exact plans split symmetrically (each member gets `y/n`, the
        // optimum by exchangeability); pooled plans split entropically,
        // attaining the log-sum bound while preserving each member's
        // migration locality. The symmetric scatter rounds at the ulp
        // scale; the entropic one can also under-serve individual demand
        // rows it cannot see. Either split is then projected, so demand
        // and capacity hold as written.
        let (x, projected) = plan.scatter_exact(input, &sol.allocation, prev, self.eps.eps2);
        if let Err(err) = projected {
            health.note_error(&err);
        }
        health.repaired = true;
        health.cohorts = plan.num_cohorts();
        health.compression_ratio = Some(plan.compression_ratio());
        Ok(x)
    }
}

/// A per-user solve run inside [`OnlineRegularized`]'s slot pipeline —
/// after the sentinel, the shedding rung and the cohort path — ahead of the
/// monolithic ℙ₂ ladder, on every slot the cohort path did not decide. The
/// shard coordinator of `crates/shard` is the step `online-sharded` passes
/// to [`OnlineRegularized::decide_with`]; plain `decide` passes a step that
/// always declines.
pub trait SlotStep {
    /// Decides the (possibly survivor-reduced) slot, or declines with
    /// `None` to hand it to the ladder. `solver` supplies the ℙ₂ settings
    /// (ε, barrier options); `health` and `budget` are the slot's own.
    fn decide(
        &mut self,
        solver: &OnlineRegularized,
        input: &SlotInput<'_>,
        prev: &Allocation,
        health: &mut SlotHealth,
        budget: &SolveBudget,
    ) -> Option<Allocation>;

    /// Drops the step's cross-slot state where the pipeline drops its own
    /// (a slot that shed every user).
    fn reset(&mut self) {}
}

/// The step that always declines: every slot goes to the ladder.
struct NoStep;

impl SlotStep for NoStep {
    fn decide(
        &mut self,
        _: &OnlineRegularized,
        _: &SlotInput<'_>,
        _: &Allocation,
        _: &mut SlotHealth,
        _: &SolveBudget,
    ) -> Option<Allocation> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{decide_slot, run_online};
    use crate::cost::evaluate_trajectory;
    use crate::instance::Instance;

    /// Asserts that `x` meets every listed user's demand and every cloud's
    /// capacity of `input` exactly, for the sums as written.
    fn assert_exactly_feasible(
        input: &SlotInput<'_>,
        x: &Allocation,
        users: impl IntoIterator<Item = usize>,
        slot: usize,
    ) {
        for j in users {
            assert!(
                x.user_total(j) >= input.workloads[j],
                "slot {slot} user {j}: {} < {}",
                x.user_total(j),
                input.workloads[j]
            );
        }
        for i in 0..input.num_clouds() {
            assert!(
                x.cloud_total(i) <= input.system.capacity(i),
                "slot {slot} cloud {i}: {} > {}",
                x.cloud_total(i),
                input.system.capacity(i)
            );
        }
    }

    #[test]
    fn produces_feasible_trajectory() {
        let inst = Instance::fig1_example(2.1, true);
        let mut alg = OnlineRegularized::with_defaults();
        let traj = run_online(&inst, &mut alg).unwrap();
        assert_eq!(traj.allocations.len(), 3);
        for x in &traj.allocations {
            assert!(x.demand_shortfall(inst.workloads()) < 1e-5);
            assert!(x.capacity_excess(inst.system().capacities()) < 1e-5);
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_builds_exactly() {
        // The refreshed workspace must hold a solver state identical to a
        // per-slot rebuild (a solver reset before every slot): trajectories
        // agree bit for bit, not just within tolerance.
        let inst = Instance::fig1_example(2.1, true);
        let mut reused = OnlineRegularized::with_defaults();
        let a = run_online(&inst, &mut reused).unwrap();
        let mut fresh = OnlineRegularized::with_defaults();
        let mut prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
        for (t, xa) in a.allocations.iter().enumerate() {
            fresh.reset();
            let (xb, _) = decide_slot(&mut fresh, &SlotInput::from_instance(&inst, t), &prev);
            assert_eq!(xa.as_flat(), xb.as_flat(), "slot {t} diverged");
            prev = xb;
        }
    }

    #[test]
    fn health_records_solver_effort() {
        let inst = Instance::fig1_example(2.1, true);
        let mut alg = OnlineRegularized::with_defaults();
        let traj = run_online(&inst, &mut alg).unwrap();
        for (t, h) in traj.health.iter().enumerate() {
            assert!(h.newton_steps > 0, "slot {t} recorded no Newton steps");
            assert!(
                h.outer_iterations > 0,
                "slot {t} recorded no outer iterations"
            );
        }
        let summary = traj.health_summary();
        assert!(summary.newton_steps >= traj.health.len());
        assert!(summary.peak_outer_iterations > 0);
    }

    #[test]
    fn gamma_monotone_decreasing_in_epsilon() {
        let inst = Instance::fig1_example(2.1, true);
        let small = OnlineRegularized::with_epsilon(0.01).gamma(inst.system());
        let large = OnlineRegularized::with_epsilon(10.0).gamma(inst.system());
        assert!(small > large, "γ(0.01)={small} vs γ(10)={large}");
    }

    #[test]
    fn theoretical_ratio_exceeds_one() {
        let inst = Instance::fig1_example(2.1, true);
        let alg = OnlineRegularized::with_defaults();
        assert!(alg.theoretical_ratio(inst.system()) > 1.0);
    }

    #[test]
    fn explicit_capacity_p2_solutions_are_feasible_unrepaired() {
        // The raw ℙ₂ solutions, chained slot to slot with no repair.
        let inst = Instance::fig1_example(2.1, true);
        let mut prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
        for t in 0..inst.num_slots() {
            let input = SlotInput::from_instance(&inst, t);
            let x = p2::solve_with_mode(
                &input,
                &prev,
                Epsilons::default(),
                &BarrierOptions::default(),
                CapacityMode::Explicit,
            )
            .unwrap()
            .allocation;
            assert!(x.capacity_excess(inst.system().capacities()) < 1e-6);
            assert!(x.demand_shortfall(inst.workloads()) < 1e-5);
            prev = x;
        }
    }

    #[test]
    fn healthy_run_records_primary_on_every_slot() {
        let inst = Instance::fig1_example(2.1, true);
        let mut alg = OnlineRegularized::with_defaults();
        let traj = run_online(&inst, &mut alg).unwrap();
        assert_eq!(traj.health.len(), traj.allocations.len());
        for h in &traj.health {
            assert_eq!(h.rung, FallbackRung::Primary);
            assert_eq!(h.attempts, 1);
            assert!(!h.sanitized);
            assert!(h.errors.is_empty(), "{:?}", h.errors);
            assert!(h
                .final_residual
                .expect("primary slot certifies a gap")
                .is_finite());
        }
        assert_eq!(traj.health_summary().degraded_slots, 0);
    }

    #[test]
    fn crippled_barrier_still_covers_the_horizon() {
        // One iteration cannot close the duality gap; the ladder must
        // still produce an allocation (and a recorded rung) for every slot.
        let inst = Instance::fig1_example(2.1, true);
        let crippled = BarrierOptions {
            max_iterations: 1,
            ..BarrierOptions::default()
        };
        let mut alg = OnlineRegularized::with_defaults().with_solver_options(crippled);
        let traj = run_online(&inst, &mut alg).unwrap();
        assert_eq!(traj.allocations.len(), inst.num_slots());
        assert_eq!(traj.health.len(), inst.num_slots());
        for (t, (x, h)) in traj.allocations.iter().zip(&traj.health).enumerate() {
            assert_ne!(
                h.rung,
                FallbackRung::Primary,
                "slot {t} claims a clean solve"
            );
            assert!(
                h.attempts > 1,
                "slot {t} recorded {} attempt(s)",
                h.attempts
            );
            assert!(!h.errors.is_empty(), "slot {t} swallowed no error");
            // Whichever rung decided, the projection made it exact.
            let input = SlotInput::from_instance(&inst, t);
            assert_exactly_feasible(&input, x, 0..inst.num_users(), t);
        }
        let cost = evaluate_trajectory(&inst, &traj.allocations).total();
        assert!(cost.is_finite() && cost > 0.0, "cost {cost}");
    }

    #[test]
    fn zero_deadline_skips_every_rung_and_carries_forward() {
        // An already-spent budget must not run any solver at all: every
        // slot drops straight to the runner's carry-forward rung, and —
        // starting from all-zeros — the projection itself still builds an
        // exactly feasible allocation.
        let inst = Instance::fig1_example(2.1, true);
        let mut alg = OnlineRegularized::with_defaults().with_slot_deadline_ms(0.0);
        let traj = run_online(&inst, &mut alg).unwrap();
        for (t, (x, h)) in traj.allocations.iter().zip(&traj.health).enumerate() {
            assert_eq!(h.rung, FallbackRung::CarryForward, "slot {t}");
            assert!(h.repaired, "slot {t}");
            assert!(h.deadline_hit, "slot {t} missed the deadline flag");
            assert_eq!(h.deadline_ms, Some(0.0));
            let input = SlotInput::from_instance(&inst, t);
            assert_exactly_feasible(&input, x, 0..inst.num_users(), t);
        }
        assert_eq!(traj.health_summary().deadline_hits, inst.num_slots());
    }

    #[test]
    fn generous_deadline_leaves_the_happy_path_bit_identical() {
        // Budget checks are reads, not perturbations: with a deadline that
        // never trips, the trajectory must match the unbudgeted run exactly
        // and every slot must still report the clean primary rung.
        let inst = Instance::fig1_example(2.1, true);
        let mut plain = OnlineRegularized::with_defaults();
        let mut budgeted = OnlineRegularized::with_defaults().with_slot_deadline_ms(10_000.0);
        let a = run_online(&inst, &mut plain).unwrap();
        let b = run_online(&inst, &mut budgeted).unwrap();
        for (t, (xa, xb)) in a.allocations.iter().zip(&b.allocations).enumerate() {
            assert_eq!(xa.as_flat(), xb.as_flat(), "slot {t} diverged under budget");
        }
        for h in &b.health {
            assert_eq!(h.rung, FallbackRung::Primary);
            assert!(!h.deadline_hit);
            assert_eq!(h.deadline_ms, Some(10_000.0));
            assert!(!h.rung_ms.is_empty(), "per-rung timing not recorded");
        }
    }

    #[test]
    fn feasible_horizon_records_sentinel_verdicts_and_is_bit_identical_without_shedding() {
        // The sentinel is a pure pre-solve read: on a feasible horizon the
        // shedding-enabled build must produce exactly the allocations of
        // the shedding-disabled one, while recording a verdict per slot.
        let inst = Instance::fig1_example(2.1, true);
        let mut on = OnlineRegularized::with_defaults();
        let mut off = OnlineRegularized::with_defaults().without_shedding();
        let a = run_online(&inst, &mut on).unwrap();
        let b = run_online(&inst, &mut off).unwrap();
        for (t, (xa, xb)) in a.allocations.iter().zip(&b.allocations).enumerate() {
            assert_eq!(xa.as_flat(), xb.as_flat(), "slot {t} diverged");
        }
        for h in &a.health {
            assert_eq!(
                h.sentinel_verdict,
                Some(crate::sentinel::SentinelVerdict::Feasible)
            );
            assert_eq!(h.rung, FallbackRung::Primary);
            assert_eq!(h.shed_users, 0);
        }
        let s = a.health_summary();
        assert_eq!(s.overloaded_slots, 0);
        assert_eq!(s.shed_users, 0);
    }

    #[test]
    fn overloaded_slot_routes_through_the_shedding_rung() {
        use rand::SeedableRng;
        let net = mobility::rome_metro();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mob = mobility::random_walk::generate(&net, 12, 6, &mut rng);
        let mut inst = Instance::synthetic(&net, mob, &mut rng);
        // Slots 2..4 surge to 2× aggregate capacity (utilization 0.8 →
        // capacity = 1.25·Σλ, so a 2.5× surge lands at 2× capacity).
        inst.scale_demand(2, 2.5);
        inst.scale_demand(3, 2.5);
        let mut alg = OnlineRegularized::with_defaults();
        let traj = run_online(&inst, &mut alg).unwrap();
        assert_eq!(traj.allocations.len(), 6);
        for (t, h) in traj.health.iter().enumerate() {
            let surged = t == 2 || t == 3;
            if surged {
                assert_eq!(
                    h.sentinel_verdict,
                    Some(crate::sentinel::SentinelVerdict::Overloaded),
                    "slot {t}"
                );
                assert_eq!(h.rung, FallbackRung::Shedding, "slot {t}");
                assert!(h.shed_users > 0, "slot {t} shed nobody");
                assert_eq!(h.overflowed_users, h.shed_users, "slot {t}");
                assert!(h.shed_penalty > 0.0, "slot {t}");
            } else {
                assert_ne!(h.rung, FallbackRung::CarryForward, "slot {t} aborted");
                assert_eq!(h.shed_users, 0, "slot {t} shed on a feasible slot");
            }
            // Every slot is exactly feasible on the slot view the algorithm
            // saw (the surged demand on surged slots); shed users are
            // exempt from the demand bound.
            let scaled = inst.scaled_slot(t);
            let input = match &scaled {
                Some(s) => s.as_input(&inst, t),
                None => SlotInput::from_instance(&inst, t),
            };
            let served = if surged {
                shed::plan_shedding(&input, &ShedConfig::default(), &SolveBudget::unlimited())
                    .expect("the surged slot has a shedding plan")
                    .survivors
            } else {
                (0..inst.num_users()).collect()
            };
            assert_exactly_feasible(&input, &traj.allocations[t], served, t);
        }
        let s = traj.health_summary();
        assert_eq!(s.overloaded_slots, 2);
        assert_eq!(s.rungs.shedding, 2);
        assert!(s.shed_users > 0);
        assert!(s.shed_penalty > 0.0);
    }

    #[test]
    fn shedding_replays_bit_identically() {
        use rand::SeedableRng;
        let net = mobility::rome_metro();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mob = mobility::random_walk::generate(&net, 10, 5, &mut rng);
        let mut inst = Instance::synthetic(&net, mob, &mut rng);
        inst.scale_demand(1, 3.0);
        inst.scale_demand(2, 3.0);
        let mut a1 = OnlineRegularized::with_defaults();
        let mut a2 = OnlineRegularized::with_defaults();
        let t1 = run_online(&inst, &mut a1).unwrap();
        let t2 = run_online(&inst, &mut a2).unwrap();
        for (t, (xa, xb)) in t1.allocations.iter().zip(&t2.allocations).enumerate() {
            assert_eq!(xa.as_flat(), xb.as_flat(), "slot {t} not reproducible");
        }
    }

    #[test]
    fn cohort_mode_matches_blocked_cost_and_records_telemetry() {
        use rand::SeedableRng;
        let net = mobility::rome_metro();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mob = mobility::random_walk::generate(&net, 24, 6, &mut rng);
        let inst = Instance::synthetic(&net, mob, &mut rng);
        let mut blocked = OnlineRegularized::with_defaults();
        let mut cohort = OnlineRegularized::with_defaults().with_cohort_config(CohortConfig {
            max_cohort_fraction: 1.0,
            ..CohortConfig::default()
        });
        assert_eq!(cohort.name(), "online-approx-cohort");
        let a = run_online(&inst, &mut blocked).unwrap();
        let b = run_online(&inst, &mut cohort).unwrap();
        let ca = evaluate_trajectory(&inst, &a.allocations).total();
        let cb = evaluate_trajectory(&inst, &b.allocations).total();
        assert!(
            (ca - cb).abs() / ca < 1e-6,
            "blocked {ca} vs cohort {cb}: the exact reduction drifted"
        );
        let s = b.health_summary();
        assert_eq!(s.cohort_slots, inst.num_slots(), "a slot skipped cohorts");
        assert!(s.peak_cohorts > 0 && s.peak_cohorts <= inst.num_users());
        for (t, (x, h)) in b.allocations.iter().zip(&b.health).enumerate() {
            assert_eq!(h.rung, FallbackRung::Primary, "slot {t}");
            assert!(h.cohorts > 0, "slot {t} lost its cohort count");
            let ratio = h.compression_ratio.expect("cohort slot records a ratio");
            assert!(ratio >= 1.0, "slot {t} ratio {ratio}");
            // Cohort slots certify *exact* feasibility.
            for j in 0..inst.num_users() {
                assert!(x.user_total(j) >= inst.workloads()[j], "slot {t} user {j}");
            }
            for i in 0..inst.num_clouds() {
                assert!(
                    x.cloud_total(i) <= inst.system().capacity(i),
                    "slot {t} cloud {i}"
                );
            }
        }
    }
}
