//! Property-based tests of the overload sentinel and the minimal-shedding
//! rung: on arbitrary (possibly overloaded) slots the shedding plan must
//! free enough capacity, the survivors must be *exactly* solvable, and the
//! plan must be monotone in the overload intensity.

use edgealloc::algorithms::SlotInput;
use edgealloc::allocation::Allocation;
use edgealloc::cost::CostWeights;
use edgealloc::exact::project_exact;
use edgealloc::instance::Instance;
use edgealloc::sentinel::{self, SentinelVerdict};
use edgealloc::shed::{plan_shedding, ShedConfig, SurvivorSlot};
use edgealloc::system::EdgeCloudSystem;
use mobility::MobilityInput;
use optim::budget::SolveBudget;
use proptest::prelude::*;

/// Strategy: a single-slot instance with 2–4 clouds and 1–6 users whose
/// *online-view* aggregate demand is `load` times the total capacity —
/// spanning feasible (`load < 1`) through heavily overloaded (`load` up to
/// 4). The instance itself is built feasible (1.5× slack, as
/// [`Instance::new`] requires) and then surged through
/// [`Instance::scale_demand`], the same path a hostile plan takes.
fn loaded_instance() -> impl Strategy<Value = (Instance, f64)> {
    (
        2usize..5,
        1usize..7,
        0.3f64..4.0,
        proptest::collection::vec(0.1f64..3.0, 64),
    )
        .prop_map(|(nc, nu, load, raw)| {
            let workloads: Vec<f64> = (0..nu)
                .map(|j| 1.0 + (raw[(j * 3) % raw.len()] * 2.0).round())
                .collect();
            let total_workload: f64 = workloads.iter().sum();
            let shares: Vec<f64> = (0..nc).map(|i| 0.2 + raw[i % raw.len()]).collect();
            let share_sum: f64 = shares.iter().sum();
            let capacities: Vec<f64> = shares
                .iter()
                .map(|s| 1.5 * total_workload * s / share_sum)
                .collect();
            let mut delay = vec![vec![0.0; nc]; nc];
            for i in 0..nc {
                for j in (i + 1)..nc {
                    let d = raw[(i * 5 + j) % raw.len()];
                    delay[i][j] = d;
                    delay[j][i] = d;
                }
            }
            let system = EdgeCloudSystem::new(capacities, delay).expect("valid system");
            let attachment: Vec<Vec<usize>> = (0..nu).map(|j| vec![(j * 7) % nc]).collect();
            let access: Vec<Vec<f64>> = (0..nu).map(|j| vec![raw[(j + 13) % raw.len()]]).collect();
            let mobility = MobilityInput::new(nc, attachment, access);
            let prices: Vec<Vec<f64>> = vec![(0..nc).map(|i| 0.2 + raw[i % raw.len()]).collect()];
            let reconfig: Vec<f64> = (0..nc).map(|i| raw[(i + 11) % raw.len()]).collect();
            let b_out: Vec<f64> = (0..nc).map(|i| raw[(i + 17) % raw.len()] * 0.5).collect();
            let b_in: Vec<f64> = (0..nc).map(|i| raw[(i + 23) % raw.len()] * 0.5).collect();
            let mut inst = Instance::new(
                system,
                workloads,
                mobility,
                prices,
                reconfig,
                b_out,
                b_in,
                CostWeights::default(),
            )
            .expect("valid instance");
            // ΣC = 1.5·Σλ, so a demand factor of 1.5·load makes the
            // online-view demand exactly load · ΣC.
            inst.scale_demand(0, 1.5 * load);
            (inst, load)
        })
}

/// The slot-0 online view of an instance with scaling factors installed.
macro_rules! online_input {
    ($inst:expr, $scaled:ident, $input:ident) => {
        let $scaled = $inst.scaled_slot(0);
        let $input = match &$scaled {
            Some(s) => s.as_input(&$inst, 0),
            None => SlotInput::from_instance(&$inst, 0),
        };
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The plan always frees at least the required workload, never sheds on
    /// slots the sentinel calls feasible, and its penalty is at least the
    /// LP relaxation's lower bound (it can never beat the relaxation).
    #[test]
    fn shedding_frees_enough_and_respects_the_lp_bound(
        (inst, _load) in loaded_instance(),
    ) {
        online_input!(inst, _scaled, input);
        let cfg = ShedConfig::default();
        let report = sentinel::assess(&input, cfg.headroom);
        let decision = plan_shedding(&input, &cfg, &SolveBudget::unlimited()).unwrap();
        if report.verdict != SentinelVerdict::Overloaded {
            // Headroom can require a small trim on Tight slots, but a
            // Feasible slot (slack ≥ headroom) must shed nothing.
            if report.verdict == SentinelVerdict::Feasible {
                prop_assert!(decision.is_empty(), "feasible slot shed: {decision:?}");
            }
        }
        if decision.required_shed > 0.0 {
            prop_assert!(
                decision.shed_workload >= decision.required_shed,
                "shed {} < required {}",
                decision.shed_workload,
                decision.required_shed
            );
        }
        prop_assert!(
            decision.penalty >= decision.penalty_lower_bound - 1e-9 * (1.0 + decision.penalty),
            "greedy penalty {} beat the LP bound {}",
            decision.penalty,
            decision.penalty_lower_bound
        );
        // Deferred users and survivors partition the slot's users.
        let mut users: Vec<usize> =
            decision.deferred.iter().chain(&decision.survivors).copied().collect();
        users.sort_unstable();
        prop_assert_eq!(users, (0..input.num_users()).collect::<Vec<_>>());
        // Survivor demand (in the surged online view) fits total capacity.
        let surviving: f64 = decision.survivors.iter().map(|&j| input.workloads[j]).sum();
        let capacity: f64 = (0..inst.num_clouds()).map(|i| inst.system().capacity(i)).sum();
        prop_assert!(
            surviving <= capacity + 1e-9 * (1.0 + capacity),
            "survivors {surviving} exceed capacity {capacity}"
        );
    }

    /// Survivor slots are exactly solvable: projecting any nonnegative
    /// start onto the reduced slot yields exact capacity and demand
    /// feasibility under floating-point evaluation as written.
    #[test]
    fn survivors_are_exactly_feasible_after_projection(
        (inst, _load) in loaded_instance(),
    ) {
        online_input!(inst, _scaled, input);
        let cfg = ShedConfig::default();
        let decision = plan_shedding(&input, &cfg, &SolveBudget::unlimited()).unwrap();
        // Nothing survives (total capacity collapse): nothing to solve.
        if !decision.survivors.is_empty() {
        let slot = SurvivorSlot::new(&input, &decision);
        let rinput = slot.as_input(&input);
        let mut x = Allocation::zeros(input.num_clouds(), slot.len());
        project_exact(&rinput, &mut x).expect("survivors are projectable");
        for i in 0..rinput.num_clouds() {
            prop_assert!(
                x.cloud_total(i) <= rinput.system.capacity(i),
                "cloud {i} over capacity exactly"
            );
        }
        for (col, _) in decision.survivors.iter().enumerate() {
            prop_assert!(
                x.user_total(col) >= rinput.workloads[col],
                "survivor {col} under-served exactly"
            );
        }
        }
    }

    /// Scaling every workload up can only grow the shed set: the plan is
    /// monotone in overload intensity.
    #[test]
    fn shed_count_is_monotone_in_overload(
        (inst, _load) in loaded_instance(),
        bump in 1.1f64..2.5,
    ) {
        online_input!(inst, _scaled, input);
        let cfg = ShedConfig::default();
        let base = plan_shedding(&input, &cfg, &SolveBudget::unlimited()).unwrap();

        let mut surged = inst.clone();
        surged.scale_demand(0, bump);
        online_input!(surged, _sscaled, sinput);
        let more = plan_shedding(&sinput, &cfg, &SolveBudget::unlimited()).unwrap();
        prop_assert!(
            more.deferred.len() >= base.deferred.len(),
            "surge x{bump} shrank the shed set: {} -> {}",
            base.deferred.len(),
            more.deferred.len()
        );
        prop_assert!(more.required_shed >= base.required_shed - 1e-9);
    }
}
