//! The §I/§V headline claim: "up to 4× reduction on the total cost can be
//! achieved compared to the static approaches which are typically employed
//! in edge clouds."
//!
//! Runs online-approx against three static baselines (capacity-
//! proportional, first-slot static optimum, locality-first) and reports the
//! cost multiple `static / online-approx` for each.

use bench::{maybe_write, Flags};
use sim::report::{outcome_json, ratio_table};
use sim::scenario::{AlgorithmKind, MobilityKind, Scenario};

fn main() {
    let flags = Flags::from_env("users slots reps seed json");
    let users = flags.usize("users", 30);
    let slots = flags.usize("slots", 24);
    let reps = flags.usize("reps", 3);
    let seed = flags.u64("seed", 2017);

    let scenario = Scenario {
        name: "static-vs-online".into(),
        mobility: MobilityKind::Taxi { num_users: users },
        num_slots: slots,
        algorithms: vec![
            AlgorithmKind::Approx { eps: 0.5 },
            AlgorithmKind::StaticProportional,
            AlgorithmKind::StaticFirstSlot,
            AlgorithmKind::StaticLocal,
        ],
        repetitions: reps,
        seed,
        ..Scenario::default()
    };
    eprintln!("running {} ...", scenario.name);
    let outcome = sim::run_scenario(&scenario).expect("scenario");
    println!("{}", ratio_table(&outcome));
    let approx_mean = outcome.algorithms[0].mean_ratio();
    println!("cost multiple vs online-approx (paper: up to 4×):");
    for alg in &outcome.algorithms[1..] {
        println!("  {:<22} {:.2}×", alg.name, alg.mean_ratio() / approx_mean);
    }
    maybe_write(flags.str("json"), &outcome_json(&outcome));
}
