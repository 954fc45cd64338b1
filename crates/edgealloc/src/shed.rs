//! Minimal load shedding: the escape valve for overloaded slots.
//!
//! When the sentinel (see [`crate::sentinel`]) reports aggregate demand
//! above aggregate capacity, ℙ₂ has no feasible point and no amount of
//! ladder-walking will find one — the previous behavior was to dead-end in
//! carry-forward with a flagged deficit. This module gives the ladder a
//! principled rung instead: pick the **minimum-penalty** set of users to
//! defer for the slot, then re-solve ℙ₂ on the survivors, which are
//! feasible by construction.
//!
//! Deferred users are routed to an *overflow tier* — an
//! effectively-infinite-capacity remote cloud with a high access delay, in
//! the spirit of cloudlet/cloud hierarchies (Dinh et al. 2020) — or shed
//! outright when no overflow tier is configured. Either way the deferral
//! penalty is explicit and the decision carries a certificate: the
//! continuous relaxation of the selection problem
//!
//! ```text
//! min Σ_j p_j s_j   s.t.   Σ_j λ_j s_j ≥ required,   0 ≤ s_j ≤ 1
//! ```
//!
//! is a fractional-knapsack LP whose optimum sorts users by the penalty
//! density `p_j/λ_j`; [`plan_shedding`] computes that optimum analytically
//! (a unit test cross-checks it against `optim::lp`), and rounds it
//! with a deterministic greedy that sheds at most one boundary user more
//! than the relaxation — so the integral decision is provably within one
//! user (and in workload terms within `max_j λ_j`) of the LP lower bound.

use crate::algorithms::SlotInput;
use crate::allocation::Allocation;
use crate::{Error, Result};
use optim::budget::SolveBudget;
use serde::{Deserialize, Serialize};

/// The overflow cloud tier deferred users are routed to: effectively
/// infinite capacity, far away. Costs follow the paper's per-slot model —
/// operation cost `w_op · unit_price · λ_j` plus quality cost
/// `w_q · delay` for a fully-served user.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverflowTier {
    /// Per-unit-workload operation price at the overflow tier (edge prices
    /// in the synthetic scenarios average ~1).
    pub unit_price: f64,
    /// Access delay to the overflow tier, in quality-cost units (edge
    /// delays are single digits).
    pub delay: f64,
}

impl Default for OverflowTier {
    fn default() -> Self {
        OverflowTier {
            unit_price: 4.0,
            delay: 50.0,
        }
    }
}

/// Tuning of the shedding rung.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShedConfig {
    /// Interior headroom: survivors are trimmed to at most
    /// `(1 − headroom) · ΣC` so the re-solved ℙ₂ keeps a real interior
    /// instead of landing exactly on the capacity boundary.
    pub headroom: f64,
    /// The overflow tier (`None` = deferred users are shed outright and
    /// penalized via `outright_unit_penalty`).
    pub overflow: Option<OverflowTier>,
    /// Penalty per unit of workload shed outright (only used when
    /// `overflow` is `None`); deliberately punitive.
    pub outright_unit_penalty: f64,
}

impl Default for ShedConfig {
    fn default() -> Self {
        ShedConfig {
            headroom: 0.02,
            overflow: Some(OverflowTier::default()),
            outright_unit_penalty: 100.0,
        }
    }
}

/// The shedding decision for one overloaded slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShedDecision {
    /// Users deferred for this slot, ascending.
    pub deferred: Vec<usize>,
    /// Users kept (the reduced ℙ₂'s columns), ascending.
    pub survivors: Vec<usize>,
    /// Whether deferred users go to the overflow tier (vs shed outright).
    pub overflowed: bool,
    /// Total workload of the deferred users.
    pub shed_workload: f64,
    /// The workload the slot *had* to shed — `D − (1 − headroom)·C` — and
    /// simultaneously the LP lower bound on any feasible decision's shed
    /// workload.
    pub required_shed: f64,
    /// Total deferral penalty of the decision.
    pub penalty: f64,
    /// The fractional-knapsack (LP-relaxation) optimum of the penalty —
    /// the certificate the integral decision is measured against.
    pub penalty_lower_bound: f64,
}

impl ShedDecision {
    /// A decision that sheds nobody (the slot was not overloaded).
    pub fn keep_all(num_users: usize) -> Self {
        ShedDecision {
            deferred: Vec::new(),
            survivors: (0..num_users).collect(),
            overflowed: false,
            shed_workload: 0.0,
            required_shed: 0.0,
            penalty: 0.0,
            penalty_lower_bound: 0.0,
        }
    }

    /// Whether anything was shed.
    pub fn is_empty(&self) -> bool {
        self.deferred.is_empty()
    }
}

/// The per-user deferral penalty under `cfg`: what one slot of overflow
/// service (or outright shedding) costs user `j`.
fn deferral_penalty(input: &SlotInput<'_>, cfg: &ShedConfig, lambda: f64) -> f64 {
    match cfg.overflow {
        Some(tier) => {
            input.weights.operation * tier.unit_price * lambda + input.weights.quality * tier.delay
        }
        None => cfg.outright_unit_penalty * lambda,
    }
}

/// Computes the minimum-penalty shedding decision for one slot.
///
/// Deterministic: users are ordered by penalty density `p_j/λ_j`
/// (ascending, ties by index), the greedy takes the shortest prefix
/// covering `required`, then swaps its boundary user for the lightest
/// not-picked user that still covers the residual — minimizing workload
/// overshoot at the same user count. The user *count* is monotone in the
/// overload (a higher `required` never sheds fewer users).
///
/// The plan is analytic, O(J log J), and needs no solver, so `_budget` is
/// unused; it stays for callers that pass the slot's budget.
///
/// # Errors
///
/// Returns [`Error::Invalid`] when the slot has no users to shed from.
pub fn plan_shedding(
    input: &SlotInput<'_>,
    cfg: &ShedConfig,
    _budget: &SolveBudget,
) -> Result<ShedDecision> {
    let num_users = input.num_users();
    if num_users == 0 {
        return Err(Error::Invalid(
            "cannot shed from a slot with no users".into(),
        ));
    }
    let headroom = if cfg.headroom.is_finite() {
        cfg.headroom.clamp(0.0, 1.0)
    } else {
        0.0
    };
    let lambda: Vec<f64> = input
        .workloads
        .iter()
        .map(|&l| if l.is_finite() { l.max(0.0) } else { 0.0 })
        .collect();
    let total_demand: f64 = lambda.iter().sum();
    let total_capacity: f64 = (0..input.num_clouds())
        .map(|i| input.system.capacity(i))
        .filter(|c| c.is_finite())
        .map(|c| c.max(0.0))
        .sum();
    let required = total_demand - (1.0 - headroom) * total_capacity;
    if required <= 0.0 {
        return Ok(ShedDecision::keep_all(num_users));
    }

    let penalty: Vec<f64> = lambda
        .iter()
        .map(|&l| deferral_penalty(input, cfg, l))
        .collect();
    // Penalty density: users that cover a lot of overload per unit of
    // penalty come first. Zero-workload users can never help and sort last.
    let density = |j: usize| {
        if lambda[j] > 0.0 {
            penalty[j] / lambda[j]
        } else {
            f64::INFINITY
        }
    };
    let mut order: Vec<usize> = (0..num_users).collect();
    order.sort_by(|&a, &b| {
        density(a)
            .partial_cmp(&density(b))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    // Fractional-knapsack optimum of the relaxation: full users in density
    // order, one fractional boundary user.
    let mut penalty_lower_bound = 0.0;
    let mut covered = 0.0;
    for &j in &order {
        if covered >= required {
            break;
        }
        let take = (required - covered).min(lambda[j]);
        if lambda[j] > 0.0 {
            penalty_lower_bound += penalty[j] * take / lambda[j];
        }
        covered += take;
    }

    // Greedy prefix: shortest density-ordered prefix covering `required`.
    let mut picked: Vec<usize> = Vec::new();
    let mut is_picked = vec![false; num_users];
    let mut cum = 0.0;
    for &j in &order {
        if cum >= required {
            break;
        }
        picked.push(j);
        is_picked[j] = true;
        cum += lambda[j];
    }
    // Overshoot swap: replace the boundary (last-picked) user with the
    // lightest candidate still covering the residual. Keeps the count, can
    // only shrink the overshoot, and — densities being increasing in λ only
    // through the additive quality term — never raises the penalty above
    // the boundary user's.
    if let Some(&last) = picked.last() {
        let residual = required - (cum - lambda[last]);
        let mut best = last;
        for j in 0..num_users {
            if is_picked[j] {
                continue;
            }
            if lambda[j] >= residual && lambda[j] < lambda[best] {
                best = j;
            }
        }
        if best != last {
            let len = picked.len();
            cum = cum - lambda[last] + lambda[best];
            picked[len - 1] = best;
            is_picked[last] = false;
            is_picked[best] = true;
        }
    }

    let mut deferred = picked;
    deferred.sort_unstable();
    let survivors: Vec<usize> = (0..num_users).filter(|&j| !is_picked[j]).collect();
    let decision_penalty: f64 = deferred.iter().map(|&j| penalty[j]).sum();

    Ok(ShedDecision {
        deferred,
        survivors,
        overflowed: cfg.overflow.is_some(),
        shed_workload: cum,
        required_shed: required,
        penalty: decision_penalty,
        penalty_lower_bound,
    })
}

/// An owned survivor-only view of one slot: the columns of the users kept
/// by a [`ShedDecision`], plus the mappings to restrict allocations into —
/// and scatter solutions out of — the reduced index space. Mirrors
/// [`crate::sanitize::SanitizedSlot`]'s borrow-back pattern.
#[derive(Debug, Clone)]
pub struct SurvivorSlot {
    survivors: Vec<usize>,
    workloads: Vec<f64>,
    attachment: Vec<usize>,
    access_delay: Vec<f64>,
}

impl SurvivorSlot {
    /// Extracts the survivor columns of `input` under `decision`.
    pub fn new(input: &SlotInput<'_>, decision: &ShedDecision) -> Self {
        let survivors = decision.survivors.clone();
        SurvivorSlot {
            workloads: survivors.iter().map(|&j| input.workloads[j]).collect(),
            attachment: survivors.iter().map(|&j| input.attachment[j]).collect(),
            access_delay: survivors.iter().map(|&j| input.access_delay[j]).collect(),
            survivors,
        }
    }

    /// The kept users, ascending.
    pub fn survivors(&self) -> &[usize] {
        &self.survivors
    }

    /// Number of survivors.
    pub fn len(&self) -> usize {
        self.survivors.len()
    }

    /// Whether everyone was shed.
    pub fn is_empty(&self) -> bool {
        self.survivors.is_empty()
    }

    /// The reduced slot view over the survivor columns, preserving the
    /// original slot index, system, prices, and weights.
    pub fn as_input<'a>(&'a self, raw: &SlotInput<'a>) -> SlotInput<'a> {
        SlotInput {
            t: raw.t,
            system: raw.system,
            workloads: &self.workloads,
            operation_prices: raw.operation_prices,
            attachment: &self.attachment,
            access_delay: &self.access_delay,
            reconfig_prices: raw.reconfig_prices,
            migration_out: raw.migration_out,
            migration_in: raw.migration_in,
            weights: raw.weights,
            // Shedding operates on per-user slots; the cohort layer (which
            // introduces multiplicities) runs downstream of it.
            multiplicity: None,
        }
    }

    /// Extracts the survivor columns of a full allocation (the reduced
    /// previous-slot reference the migration regularizers need).
    pub fn restrict(&self, x: &Allocation) -> Allocation {
        let num_clouds = x.num_clouds();
        let mut r = Allocation::zeros(num_clouds, self.survivors.len());
        for i in 0..num_clouds {
            for (col, &j) in self.survivors.iter().enumerate() {
                r.set(i, col, x.get(i, j));
            }
        }
        r
    }

    /// Scatters a reduced allocation back to the full `I × num_users`
    /// shape; deferred users' columns are zero (their workload lives at the
    /// overflow tier, not on any edge cloud).
    pub fn scatter(&self, reduced: &Allocation, num_users: usize) -> Allocation {
        let num_clouds = reduced.num_clouds();
        let mut x = Allocation::zeros(num_clouds, num_users);
        for i in 0..num_clouds {
            for (col, &j) in self.survivors.iter().enumerate() {
                x.set(i, j, reduced.get(i, col));
            }
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;

    fn overloaded_input(factor: f64) -> Instance {
        let mut inst = Instance::fig1_example(2.1, true);
        // fig1: one user, λ = 1, capacity 4. Add overload via injection.
        inst.inject_workload(0, factor);
        inst
    }

    #[test]
    fn feasible_slot_sheds_nothing() {
        let inst = Instance::fig1_example(2.1, true);
        let input = SlotInput::from_instance(&inst, 0);
        let d = plan_shedding(&input, &ShedConfig::default(), &SolveBudget::unlimited()).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.survivors, vec![0]);
        assert_eq!(d.required_shed, 0.0);
    }

    #[test]
    fn overloaded_slot_sheds_enough_workload() {
        let inst = overloaded_input(10.0);
        let input = SlotInput::from_instance(&inst, 0);
        let d = plan_shedding(&input, &ShedConfig::default(), &SolveBudget::unlimited()).unwrap();
        assert_eq!(d.deferred, vec![0]);
        assert!(d.shed_workload >= d.required_shed);
        assert!(d.overflowed);
        assert!(d.penalty > 0.0);
        assert!(d.penalty >= d.penalty_lower_bound - 1e-9);
    }

    #[test]
    fn lp_cross_check_matches_the_analytic_bound() {
        use optim::lp::{ConstraintSense, LpProblem};
        let net = mobility::rome_metro();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(17);
        let mob = mobility::random_walk::generate(&net, 12, 2, &mut rng);
        let mut inst = Instance::synthetic(&net, mob, &mut rng);
        for j in 0..inst.num_users() {
            inst.inject_workload(j, inst.workload(j) * 3.0);
        }
        let input = SlotInput::from_instance(&inst, 0);
        let cfg = ShedConfig::default();
        let d = plan_shedding(&input, &cfg, &SolveBudget::unlimited()).unwrap();
        assert!(!d.deferred.is_empty());
        // The same relaxation through `optim::lp`:
        // min Σ p_j s_j  s.t.  Σ λ_j s_j ≥ required,  s_j ≤ 1,  s ≥ 0.
        let mut lp = LpProblem::new();
        for &l in input.workloads {
            lp.add_var(deferral_penalty(&input, &cfg, l));
        }
        let coverage: Vec<(usize, f64)> = input
            .workloads
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l > 0.0)
            .map(|(j, &l)| (j, l))
            .collect();
        lp.add_row(ConstraintSense::Ge, d.required_shed, &coverage);
        for j in 0..input.num_users() {
            lp.add_row(ConstraintSense::Le, 1.0, &[(j, 1.0)]);
        }
        let lp = lp.solve().expect("the relaxation is feasible").objective;
        let rel = (lp - d.penalty_lower_bound).abs() / d.penalty_lower_bound.max(1e-12);
        assert!(rel < 1e-4, "lp {lp} vs analytic {}", d.penalty_lower_bound);
        // The integral greedy is within one boundary user of the bound.
        assert!(d.penalty >= d.penalty_lower_bound - 1e-9);
    }

    #[test]
    fn shed_count_is_monotone_in_overload() {
        let net = mobility::rome_metro();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let mob = mobility::random_walk::generate(&net, 10, 2, &mut rng);
        let inst = Instance::synthetic(&net, mob, &mut rng);
        let mut last = 0usize;
        for surge in [1.5, 2.0, 2.5, 3.0, 4.0] {
            let mut surged = inst.clone();
            for j in 0..surged.num_users() {
                surged.inject_workload(j, inst.workload(j) * surge);
            }
            let input = SlotInput::from_instance(&surged, 0);
            let d =
                plan_shedding(&input, &ShedConfig::default(), &SolveBudget::unlimited()).unwrap();
            assert!(
                d.deferred.len() >= last,
                "surge {surge} shed {} after {last}",
                d.deferred.len()
            );
            last = d.deferred.len();
        }
        assert!(last > 0, "the largest surge shed nobody");
    }

    #[test]
    fn outright_shedding_penalizes_by_workload() {
        let inst = overloaded_input(10.0);
        let input = SlotInput::from_instance(&inst, 0);
        let cfg = ShedConfig {
            overflow: None,
            ..ShedConfig::default()
        };
        let d = plan_shedding(&input, &cfg, &SolveBudget::unlimited()).unwrap();
        assert!(!d.overflowed);
        assert!((d.penalty - cfg.outright_unit_penalty * 10.0).abs() < 1e-9);
    }

    #[test]
    fn survivor_slot_round_trips_restrict_and_scatter() {
        let decision = ShedDecision {
            deferred: vec![1],
            survivors: vec![0, 2],
            overflowed: true,
            shed_workload: 2.0,
            required_shed: 1.5,
            penalty: 3.0,
            penalty_lower_bound: 2.5,
        };
        let inst = Instance::fig1_example(2.1, true);
        let raw = SlotInput::from_instance(&inst, 0);
        // Fake a 3-user view by hand: reuse the real system with synthetic
        // per-user vectors.
        let workloads = [1.0, 2.0, 3.0];
        let input = SlotInput {
            workloads: &workloads,
            attachment: &[0, 1, 0],
            access_delay: &[0.5, 0.25, 0.75],
            ..raw
        };
        let slot = SurvivorSlot::new(&input, &decision);
        assert_eq!(slot.len(), 2);
        let rinput = slot.as_input(&input);
        assert_eq!(rinput.workloads, &[1.0, 3.0]);
        assert_eq!(rinput.attachment, &[0, 0]);

        let mut full = Allocation::zeros(2, 3);
        for i in 0..2 {
            for j in 0..3 {
                full.set(i, j, (10 * i + j) as f64);
            }
        }
        let reduced = slot.restrict(&full);
        assert_eq!(reduced.get(0, 1), 2.0);
        assert_eq!(reduced.get(1, 0), 10.0);
        let back = slot.scatter(&reduced, 3);
        assert_eq!(back.get(0, 0), 0.0);
        assert_eq!(back.get(0, 2), 2.0);
        assert_eq!(back.get(1, 1), 0.0, "deferred column is zero");
    }
}
