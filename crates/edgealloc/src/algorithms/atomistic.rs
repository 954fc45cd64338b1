//! The atomistic baselines: perf-opt, oper-opt, stat-opt (§V-B).
//!
//! All three ignore the dynamic costs entirely and optimize (parts of) the
//! static cost independently in every slot.

use crate::algorithms::{OnlineAlgorithm, SlotInput};
use crate::allocation::Allocation;
use crate::health::SlotHealth;
use crate::programs::per_slot_lp::{base_lp, solve_to_allocation_resilient, StaticTerms};
use crate::Result;

macro_rules! atomistic {
    ($(#[$doc:meta])* $name:ident, $label:literal, $operation:literal, $quality:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Default)]
        pub struct $name {
            last_health: Option<SlotHealth>,
        }

        impl $name {
            /// Creates the baseline.
            pub fn new() -> Self {
                Self::default()
            }
        }

        impl OnlineAlgorithm for $name {
            fn name(&self) -> &str {
                $label
            }

            fn decide(&mut self, input: &SlotInput<'_>, _prev: &Allocation) -> Result<Allocation> {
                let lp = base_lp(
                    input,
                    StaticTerms {
                        operation: $operation,
                        quality: $quality,
                    },
                );
                let (result, report) =
                    solve_to_allocation_resilient(&lp, input);
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
    };
}

atomistic!(
    /// `perf-opt`: minimizes only the service-quality cost in every slot,
    /// pinning workload as close to each user as capacity allows.
    PerfOpt,
    "perf-opt",
    false,
    true
);

atomistic!(
    /// `oper-opt`: minimizes only the operation cost in every slot, chasing
    /// the cheapest clouds regardless of delay or churn.
    OperOpt,
    "oper-opt",
    true,
    false
);

atomistic!(
    /// `stat-opt`: minimizes the total static cost (operation + quality) in
    /// every slot, still ignoring reconfiguration and migration.
    StatOpt,
    "stat-opt",
    true,
    true
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::run_online;
    use crate::cost::evaluate_trajectory;
    use crate::instance::Instance;
    use mobility::MobilityInput;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_instance() -> Instance {
        let net = mobility::rome_metro();
        let mut rng = StdRng::seed_from_u64(17);
        let mob = mobility::random_walk::generate(&net, 6, 6, &mut rng);
        Instance::synthetic(&net, mob, &mut rng)
    }

    #[test]
    fn all_atomistic_are_feasible() {
        let inst = small_instance();
        for alg in [
            &mut PerfOpt::new() as &mut dyn OnlineAlgorithm,
            &mut OperOpt::new(),
            &mut StatOpt::new(),
        ] {
            let traj = run_online(&inst, alg).unwrap();
            for x in &traj.allocations {
                assert!(
                    x.demand_shortfall(inst.workloads()) < 1e-5,
                    "{}",
                    alg.name()
                );
                assert!(
                    x.capacity_excess(inst.system().capacities()) < 1e-4,
                    "{}",
                    alg.name()
                );
            }
        }
    }

    #[test]
    fn perf_opt_keeps_workload_at_attached_cloud() {
        // With one user, ample capacity, and positive inter-cloud delays,
        // perf-opt must serve the user entirely from its attached cloud.
        let inst = Instance::fig1_example(2.1, true);
        let mut alg = PerfOpt::new();
        let traj = run_online(&inst, &mut alg).unwrap();
        assert!(traj.allocations[0].get(0, 0) > 0.99);
        assert!(traj.allocations[1].get(1, 0) > 0.99);
        assert!(traj.allocations[2].get(0, 0) > 0.99);
    }

    #[test]
    fn stat_opt_dominates_components_on_static_cost() {
        // stat-opt's static cost is ≤ both single-component optimizers'
        // static costs... not in general, but its *objective* (static sum)
        // is minimal by construction. Verify against perf-opt and oper-opt.
        let inst = small_instance();
        let stat = run_online(&inst, &mut StatOpt::new()).unwrap();
        let perf = run_online(&inst, &mut PerfOpt::new()).unwrap();
        let oper = run_online(&inst, &mut OperOpt::new()).unwrap();
        let s = evaluate_trajectory(&inst, &stat.allocations).static_part();
        let p = evaluate_trajectory(&inst, &perf.allocations).static_part();
        let o = evaluate_trajectory(&inst, &oper.allocations).static_part();
        assert!(s <= p + 1e-6, "stat {s} vs perf {p}");
        assert!(s <= o + 1e-6, "stat {s} vs oper {o}");
    }

    #[test]
    fn oper_opt_ignores_quality() {
        // Make cloud B dirt cheap: oper-opt must move everything there even
        // though the user sits at A.
        let net = mobility::rome_metro();
        let mob = MobilityInput::new(15, vec![vec![0; 3]], vec![vec![0.0; 3]]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut inst = Instance::synthetic(&net, mob, &mut rng);
        // Rebuild with extreme prices: cloud 14 free, others expensive.
        let mut prices = vec![vec![10.0; 15]; 3];
        for row in &mut prices {
            row[14] = 0.0;
        }
        inst = Instance::new(
            inst.system().clone(),
            inst.workloads().to_vec(),
            inst.mobility().clone(),
            prices,
            inst.reconfig_prices_slice().to_vec(),
            inst.migration_out_slice().to_vec(),
            inst.migration_in_slice().to_vec(),
            inst.weights(),
        )
        .unwrap();
        let traj = run_online(&inst, &mut OperOpt::new()).unwrap();
        let lambda = inst.workload(0);
        // All workload lands on cloud 14 (capacity permitting).
        let c14 = inst.system().capacity(14);
        let expected = lambda.min(c14);
        assert!(
            traj.allocations[0].get(14, 0) >= expected - 1e-5,
            "{:?}",
            traj.allocations[0].get(14, 0)
        );
    }
}
