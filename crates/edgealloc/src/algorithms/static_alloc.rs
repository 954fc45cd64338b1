//! Static allocation baselines — "the static approaches which are
//! typically employed in edge clouds" (§I, §V).
//!
//! A static policy fixes one allocation at the first slot and never adapts.
//! The paper reports up to 4× total-cost reduction of the online algorithm
//! over such approaches; since it does not pin down a single variant, three
//! natural ones are provided.

use crate::algorithms::{OnlineAlgorithm, SlotInput};
use crate::allocation::Allocation;
use crate::health::SlotHealth;
use crate::programs::per_slot_lp::{base_lp, solve_to_allocation_resilient, StaticTerms};
use crate::Result;

/// Which static allocation is frozen at the first slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticVariant {
    /// Every user's workload spread over clouds proportionally to capacity.
    Proportional,
    /// The static-cost-optimal allocation of the *first* slot, frozen.
    FirstSlotOpt,
    /// Each user fully served by the cloud it is attached to at the first
    /// slot (capacity permitting — overflows spill proportionally).
    Local,
}

/// A static baseline: computes an allocation at `t = 0` and returns it for
/// every slot thereafter, paying no further reconfiguration or migration
/// but drifting away from users as they move.
#[derive(Debug, Clone)]
pub struct StaticPolicy {
    variant: StaticVariant,
    frozen: Option<Allocation>,
    last_health: Option<SlotHealth>,
}

impl StaticPolicy {
    /// Creates a static policy of the given variant.
    pub fn new(variant: StaticVariant) -> Self {
        StaticPolicy {
            variant,
            frozen: None,
            last_health: None,
        }
    }

    fn initial(&mut self, input: &SlotInput<'_>) -> Result<Allocation> {
        let num_clouds = input.num_clouds();
        let num_users = input.num_users();
        let terms = match self.variant {
            StaticVariant::Proportional => {
                let total_cap = input.system.total_capacity();
                let mut x = Allocation::zeros(num_clouds, num_users);
                for i in 0..num_clouds {
                    let share = input.system.capacity(i) / total_cap;
                    for j in 0..num_users {
                        x.set(i, j, input.workloads[j] * share);
                    }
                }
                return Ok(x);
            }
            StaticVariant::FirstSlotOpt => StaticTerms {
                operation: true,
                quality: true,
            },
            // Serve locally; spill each cloud's excess over the others
            // proportionally to remaining capacity via a quality-only LP
            // (equivalent to the natural "nearest with spillover").
            StaticVariant::Local => StaticTerms {
                operation: false,
                quality: true,
            },
        };
        let lp = base_lp(input, terms);
        let (result, report) = solve_to_allocation_resilient(&lp, input);
        self.last_health = Some(SlotHealth::from_lp_report(&report));
        result
    }
}

impl OnlineAlgorithm for StaticPolicy {
    fn name(&self) -> &str {
        match self.variant {
            StaticVariant::Proportional => "static-proportional",
            StaticVariant::FirstSlotOpt => "static-first-slot",
            StaticVariant::Local => "static-local",
        }
    }

    fn decide(&mut self, input: &SlotInput<'_>, _prev: &Allocation) -> Result<Allocation> {
        if self.frozen.is_none() {
            self.frozen = Some(self.initial(input)?);
        }
        Ok(self.frozen.clone().expect("frozen allocation just set"))
    }

    fn take_health(&mut self) -> Option<SlotHealth> {
        self.last_health.take()
    }

    fn reset(&mut self) {
        self.frozen = None;
        self.last_health = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::run_online;
    use crate::cost::{evaluate_trajectory, transition_cost};
    use crate::instance::Instance;

    #[test]
    fn allocation_is_frozen_across_slots() {
        let inst = Instance::fig1_example(2.1, true);
        for variant in [
            StaticVariant::Proportional,
            StaticVariant::FirstSlotOpt,
            StaticVariant::Local,
        ] {
            let mut alg = StaticPolicy::new(variant);
            let traj = run_online(&inst, &mut alg).unwrap();
            assert_eq!(traj.allocations[0], traj.allocations[1]);
            assert_eq!(traj.allocations[1], traj.allocations[2]);
        }
    }

    #[test]
    fn static_pays_no_dynamic_cost_after_ramp() {
        let inst = Instance::fig1_example(2.1, true);
        let mut alg = StaticPolicy::new(StaticVariant::Proportional);
        let traj = run_online(&inst, &mut alg).unwrap();
        let c = transition_cost(&inst, &traj.allocations[0], &traj.allocations[1]);
        assert_eq!(c.total(), 0.0);
    }

    #[test]
    fn static_is_feasible() {
        let inst = Instance::fig1_example(2.1, true);
        for variant in [
            StaticVariant::Proportional,
            StaticVariant::FirstSlotOpt,
            StaticVariant::Local,
        ] {
            let mut alg = StaticPolicy::new(variant);
            let traj = run_online(&inst, &mut alg).unwrap();
            for x in &traj.allocations {
                assert!(x.demand_shortfall(inst.workloads()) < 1e-5);
                assert!(x.capacity_excess(inst.system().capacities()) < 1e-5);
            }
        }
    }

    #[test]
    fn reset_allows_rerun_on_new_instance() {
        let a = Instance::fig1_example(2.1, true);
        let b = Instance::fig1_example(1.9, false);
        let mut alg = StaticPolicy::new(StaticVariant::FirstSlotOpt);
        let ta = run_online(&a, &mut alg).unwrap();
        let tb = run_online(&b, &mut alg).unwrap();
        // Both runs must be internally consistent (frozen per run).
        assert_eq!(ta.allocations[0], ta.allocations[2]);
        assert_eq!(tb.allocations[0], tb.allocations[2]);
        let _ = evaluate_trajectory(&a, &ta.allocations);
    }
}
