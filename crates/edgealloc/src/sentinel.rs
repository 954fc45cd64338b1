//! Pre-solve feasibility sentinel.
//!
//! The paper's ℙ₂ assumes every slot satisfies `Σ_j λ_j ≤ Σ_i C_i` —
//! [`crate::instance::Instance::new`] even rejects instances that violate
//! it. Under live traffic that assumption breaks: flash crowds multiply
//! demand mid-horizon and faults strip capacity, and the first thing a
//! barrier solve does on such a slot is burn its whole budget in phase I
//! before discovering there is no interior. The sentinel answers the
//! feasibility question in O(I + J) *before* any solver starts, so the
//! ladder can route an overloaded slot straight to the shedding rung
//! (see [`crate::shed`]).
//!
//! One aggregate comparison suffices as a per-resource interior check for
//! every cloud with capacity: the proportional point
//! `x_{ij} = λ_j · C_i / ΣC` loads every cloud at the uniform utilization
//! `D/ΣC`, so `D < ΣC` certifies a strictly interior point for all their
//! rows at once. A zero-capacity cloud is the exception under explicit
//! capacity rows ([`crate::programs::p2::CapacityMode::Explicit`]): its
//! proportional share is 0, so its row `Σ_j x_ij ≤ 0` is tight at every
//! feasible point and ℙ₂ has no strict interior, although the sentinel
//! calls the slot feasible. Such a slot falls past the barrier rungs to
//! the per-slot LP — the path a dead cloud takes under the sharded solver,
//! which always uses explicit rows. The paper's (10b) rows keep their
//! interior: a dead cloud's row `Σ_{k≠i} Σ_j x_kj ≥ D` is strict at any
//! point that over-serves demand. The margin parameter flags slots whose
//! interior is thinner than the requested headroom as
//! [`SentinelVerdict::Tight`] — still solvable, but phase I will work for
//! its living.

use crate::algorithms::SlotInput;
use serde::{Deserialize, Serialize};

/// Default interior margin: a slot whose slack `(C − D)/C` falls below
/// this fraction is classified [`SentinelVerdict::Tight`].
pub const DEFAULT_INTERIOR_MARGIN: f64 = 0.02;

/// The sentinel's classification of one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SentinelVerdict {
    /// Demand fits with at least the requested interior margin.
    Feasible,
    /// Demand fits, but the interior is thinner than the margin — solvable,
    /// with phase I doing real work.
    Tight,
    /// Aggregate demand exceeds aggregate capacity: ℙ₂ has no feasible
    /// point and the slot needs load shedding.
    Overloaded,
}

/// The sentinel's full report for one slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SentinelReport {
    /// The classification.
    pub verdict: SentinelVerdict,
    /// Aggregate demand `D = Σ_j λ_j` (non-finite workloads, which
    /// sanitization removes upstream, are skipped).
    pub total_demand: f64,
    /// Aggregate capacity `C = Σ_i C_i` (non-finite capacities skipped).
    pub total_capacity: f64,
    /// Relative slack `(C − D)/C`; negative when overloaded, 0 when the
    /// system has no capacity at all.
    pub slack_fraction: f64,
}

impl SentinelReport {
    /// Whether the slot needs the shedding rung.
    pub fn overloaded(&self) -> bool {
        self.verdict == SentinelVerdict::Overloaded
    }
}

/// Classifies one slot in O(I + J). `margin` is the interior slack
/// fraction below which a feasible slot is reported as
/// [`SentinelVerdict::Tight`] (use [`DEFAULT_INTERIOR_MARGIN`] when in
/// doubt; values are clamped to `[0, 1)`).
pub fn assess(input: &SlotInput<'_>, margin: f64) -> SentinelReport {
    let margin = if margin.is_finite() {
        margin.clamp(0.0, 1.0 - f64::EPSILON)
    } else {
        DEFAULT_INTERIOR_MARGIN
    };
    let total_demand: f64 = input
        .workloads
        .iter()
        .copied()
        .filter(|l| l.is_finite())
        .map(|l| l.max(0.0))
        .sum();
    let total_capacity: f64 = (0..input.num_clouds())
        .map(|i| input.system.capacity(i))
        .filter(|c| c.is_finite())
        .map(|c| c.max(0.0))
        .sum();
    let slack_fraction = if total_capacity > 0.0 {
        (total_capacity - total_demand) / total_capacity
    } else {
        0.0
    };
    let verdict = if total_demand > total_capacity {
        SentinelVerdict::Overloaded
    } else if slack_fraction < margin {
        SentinelVerdict::Tight
    } else {
        SentinelVerdict::Feasible
    };
    SentinelReport {
        verdict,
        total_demand,
        total_capacity,
        slack_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;

    #[test]
    fn healthy_slot_is_feasible() {
        let inst = Instance::fig1_example(2.1, true);
        let input = SlotInput::from_instance(&inst, 0);
        let report = assess(&input, DEFAULT_INTERIOR_MARGIN);
        assert_eq!(report.verdict, SentinelVerdict::Feasible);
        assert!(report.slack_fraction > 0.5, "{}", report.slack_fraction);
        assert!(!report.overloaded());
    }

    #[test]
    fn surged_demand_is_overloaded() {
        let mut inst = Instance::fig1_example(2.1, true);
        inst.inject_workload(0, 10.0); // capacity is 4
        let input = SlotInput::from_instance(&inst, 0);
        let report = assess(&input, DEFAULT_INTERIOR_MARGIN);
        assert_eq!(report.verdict, SentinelVerdict::Overloaded);
        assert!(report.slack_fraction < 0.0);
    }

    #[test]
    fn thin_interior_is_tight() {
        let mut inst = Instance::fig1_example(2.1, true);
        inst.inject_workload(0, 3.96); // slack fraction 1%
        let input = SlotInput::from_instance(&inst, 0);
        let report = assess(&input, 0.02);
        assert_eq!(report.verdict, SentinelVerdict::Tight);
    }

    #[test]
    fn zero_capacity_system_with_demand_is_overloaded() {
        let mut inst = Instance::fig1_example(2.1, true);
        inst.system_mut().inject_capacity(0, 0.0);
        inst.system_mut().inject_capacity(1, 0.0);
        let input = SlotInput::from_instance(&inst, 0);
        let report = assess(&input, DEFAULT_INTERIOR_MARGIN);
        assert_eq!(report.verdict, SentinelVerdict::Overloaded);
        assert_eq!(report.slack_fraction, 0.0);
        assert_eq!(report.total_capacity, 0.0);
    }

    #[test]
    fn non_finite_inputs_do_not_poison_the_sums() {
        let mut inst = Instance::fig1_example(2.1, true);
        inst.inject_workload(0, f64::NAN);
        let input = SlotInput::from_instance(&inst, 0);
        let report = assess(&input, DEFAULT_INTERIOR_MARGIN);
        assert!(report.total_demand.is_finite());
        assert!(report.total_capacity.is_finite());
    }

    #[test]
    fn verdict_round_trips_through_serde() {
        for v in [
            SentinelVerdict::Feasible,
            SentinelVerdict::Tight,
            SentinelVerdict::Overloaded,
        ] {
            let json = serde_json::to_string(&v).unwrap();
            let back: SentinelVerdict = serde_json::from_str(&json).unwrap();
            assert_eq!(back, v);
        }
    }
}
