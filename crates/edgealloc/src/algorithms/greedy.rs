//! `online-greedy` — per-slot minimization of the full ℙ₀ objective.

use crate::algorithms::{OnlineAlgorithm, SlotInput};
use crate::allocation::Allocation;
use crate::health::SlotHealth;
use crate::programs::per_slot_lp::{
    add_dynamic_terms, base_lp, solve_to_allocation_resilient, StaticTerms,
};
use crate::Result;

/// The natural greedy baseline (§II-E, §V-B): in every slot, minimize the
/// slot's full ℙ₀ cost — static costs plus the reconfiguration and
/// bidirectional migration costs of transitioning from the previous slot —
/// with no consideration of the future. The paper's Figure 1 shows it can
/// be both too aggressive and too conservative.
///
/// # Example
///
/// ```
/// use edgealloc::prelude::*;
///
/// # fn main() -> Result<(), edgealloc::Error> {
/// let inst = Instance::fig1_example(2.1, true);
/// let mut alg = OnlineGreedy::new();
/// let traj = run_online(&inst, &mut alg)?;
/// assert_eq!(traj.allocations.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineGreedy {
    last_health: Option<SlotHealth>,
}

impl OnlineGreedy {
    /// Creates the greedy baseline.
    pub fn new() -> Self {
        OnlineGreedy::default()
    }
}

impl OnlineAlgorithm for OnlineGreedy {
    fn name(&self) -> &str {
        "online-greedy"
    }

    fn decide(&mut self, input: &SlotInput<'_>, prev: &Allocation) -> Result<Allocation> {
        let mut lp = base_lp(
            input,
            StaticTerms {
                operation: true,
                quality: true,
            },
        );
        add_dynamic_terms(&mut lp, input, prev);
        let (result, report) = solve_to_allocation_resilient(&lp, input);
        self.last_health = Some(SlotHealth::from_lp_report(&report));
        result
    }

    fn take_health(&mut self) -> Option<SlotHealth> {
        self.last_health.take()
    }

    fn reset(&mut self) {
        self.last_health = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::run_online;
    use crate::cost::evaluate_trajectory;
    use crate::instance::Instance;

    /// Evaluate a trajectory *excluding* the initial ramp-up transition, as
    /// the paper's Figure-1 tallies do (the ramp is identical across
    /// policies).
    fn cost_without_ramp(inst: &Instance, allocs: &[Allocation]) -> f64 {
        let full = evaluate_trajectory(inst, allocs).total();
        let ramp = crate::cost::transition_cost(
            inst,
            &Allocation::zeros(inst.num_clouds(), inst.num_users()),
            &allocs[0],
        )
        .total();
        full - ramp
    }

    #[test]
    fn fig1a_greedy_is_too_aggressive() {
        // Figure 1(a): greedy pays 11.5 while the optimum pays 9.6.
        let inst = Instance::fig1_example(2.1, true);
        let mut alg = OnlineGreedy::new();
        let traj = run_online(&inst, &mut alg).unwrap();
        // Greedy migrates to B at t=1 and back to A at t=2.
        assert!(traj.allocations[0].get(0, 0) > 0.99);
        assert!(
            traj.allocations[1].get(1, 0) > 0.99,
            "{:?}",
            traj.allocations[1]
        );
        assert!(traj.allocations[2].get(0, 0) > 0.99);
        let total = cost_without_ramp(&inst, &traj.allocations);
        assert!(
            (total - 11.5).abs() < 1e-4,
            "greedy cost {total}, expected 11.5"
        );
    }

    #[test]
    fn fig1b_greedy_is_too_conservative() {
        // Figure 1(b): greedy pays 11.3 while the optimum pays 9.5.
        let inst = Instance::fig1_example(1.9, false);
        let mut alg = OnlineGreedy::new();
        let traj = run_online(&inst, &mut alg).unwrap();
        // Greedy never leaves A.
        for t in 0..3 {
            assert!(traj.allocations[t].get(0, 0) > 0.99, "slot {t}");
        }
        let total = cost_without_ramp(&inst, &traj.allocations);
        assert!(
            (total - 11.3).abs() < 1e-4,
            "greedy cost {total}, expected 11.3"
        );
    }
}
