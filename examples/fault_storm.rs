//! Fault storm: run a scenario whose instances are deliberately corrupted
//! — NaN and negative price spikes, a cloud going dark, a demand surge past
//! total capacity — and watch the pipeline degrade instead of dying. The
//! outcome's health telemetry shows which ladder rungs carried each
//! algorithm through.
//!
//! Run with: `cargo run --release --example fault_storm`

use edgealloc::algorithms::run_online;
use edgealloc::prelude::*;
use optim::convex::BarrierOptions;
use sim::faults::{FaultKind, FaultPlan};
use sim::report::ratio_table;
use sim::runner::run_scenario;
use sim::scenario::{AlgorithmKind, MobilityKind, Scenario};

fn main() -> Result<(), edgealloc::Error> {
    let scenario = Scenario {
        name: "fault-storm".into(),
        mobility: MobilityKind::RandomWalk { num_users: 8 },
        num_slots: 10,
        algorithms: vec![
            AlgorithmKind::Approx { eps: 0.5 },
            AlgorithmKind::Greedy,
            AlgorithmKind::StatOpt,
        ],
        repetitions: 3,
        seed: 4242,
        faults: FaultPlan {
            faults: vec![
                FaultKind::PriceNan { slot: 2, cloud: 0 },
                FaultKind::PriceSpike {
                    slot: 5,
                    cloud: 3,
                    value: -40.0,
                },
                FaultKind::ZeroCapacity { cloud: 1 },
                FaultKind::DemandSurge { factor: 1.1 },
            ],
        },
        ..Scenario::default()
    };

    let outcome = run_scenario(&scenario)?;
    println!("{}", ratio_table(&outcome));
    for alg in &outcome.algorithms {
        let h = alg.merged_health();
        let r = alg.fallback_totals();
        println!(
            "{:<20} degraded {:>5.1}% of {} slots | sanitized {} | rungs: primary {} / relaxed {} / lp {} / carry {}",
            alg.name,
            100.0 * alg.degraded_slot_fraction(),
            h.slots,
            h.sanitized_slots,
            r.primary,
            r.relaxed_tolerance,
            r.per_slot_lp,
            r.carry_forward,
        );
    }
    for f in &outcome.failures {
        let kind = if f.fatal { "FATAL" } else { "note " };
        println!("[{kind}] rep {}: {}", f.repetition, f.message);
    }

    // The same ladder, close up: cripple the solver to a single
    // iteration and watch every slot still get decided.
    println!("\ncrippled solver (max_iterations = 1), Figure-1 instance:");
    let inst = Instance::fig1_example(2.1, true);
    let mut crippled = OnlineRegularized::with_defaults().with_solver_options(BarrierOptions {
        max_iterations: 1,
        ..BarrierOptions::default()
    });
    let traj = run_online(&inst, &mut crippled)?;
    for (t, h) in traj.health.iter().enumerate() {
        println!(
            "  slot {t}: rung {:?}, {} attempt(s), residual {:.2e}",
            h.rung,
            h.attempts,
            h.final_residual.unwrap_or(f64::NAN)
        );
    }
    let cost = evaluate_trajectory(&inst, &traj.allocations);
    println!(
        "  total cost {:.2} (finite, horizon complete)",
        cost.total()
    );
    Ok(())
}
