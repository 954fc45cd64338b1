//! CLI driver: run a scenario described by a JSON file (or the default
//! scenario) and print the ratio table.
//!
//! ```bash
//! # Print the default scenario as a JSON template:
//! cargo run --release -p bench --bin run_scenario -- --template > my.json
//! # Edit my.json, then:
//! cargo run --release -p bench --bin run_scenario -- --config my.json
//! ```
//!
//! Flags (standard `bench::Flags` spelling):
//!
//! ```text
//! --template             print the default scenario JSON and exit
//! --config FILE          scenario JSON (default: the built-in scenario)
//! --json OUT             also write the outcome as JSON
//! --slot-deadline-ms MS  override the scenario's per-slot budget
//! --shards N             add the sharded solver (online-sharded, N user
//!                        shards) to the scenario's algorithm roster
//! --shard-faults SPEC    inject shard-worker faults into the sharded
//!                        solver, e.g. panic=0.1,delay=0.2:120,corrupt=0.05,seed=7
//!                        (see sim::ShardFaultPlan::from_spec)
//! ```
//!
//! With an active shard-fault plan the `--json` payload is wrapped as
//! `{"shard_fault_spec", "shard_faults", "outcome"}` so the injected mix
//! and its seed travel with the numbers; otherwise the payload is the
//! bare outcome, as before.

use bench::Flags;
use sim::report::{outcome_json, ratio_table};
use sim::scenario::{AlgorithmKind, Scenario};
use sim::ShardFaultPlan;

fn main() {
    let flags = Flags::from_env("template config json slot-deadline-ms shards shard-faults");

    if flags.bool("template") {
        println!(
            "{}",
            serde_json::to_string_pretty(&Scenario::default()).expect("serialize template")
        );
        return;
    }

    let mut scenario: Scenario = match flags.str("config") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("bad config {path}: {e}"))
        }
        None => Scenario::default(),
    };
    if let Some(ms) = flags.opt_f64("slot-deadline-ms") {
        scenario.slot_deadline_ms = Some(ms);
    }
    let shards = flags.usize("shards", 0);
    if shards > 0 {
        scenario
            .algorithms
            .push(AlgorithmKind::Sharded { eps: 0.5, shards });
    }
    let fault_spec = flags.str("shard-faults").map(str::to_string);
    if let Some(spec) = fault_spec.as_deref() {
        scenario.shard_faults =
            ShardFaultPlan::from_spec(spec).unwrap_or_else(|e| panic!("bad --shard-faults: {e}"));
    }

    eprintln!(
        "running scenario {:?}: {} users, {} slots, {} repetitions",
        scenario.name,
        scenario.mobility.num_users(),
        scenario.num_slots,
        scenario.repetitions
    );
    if !scenario.shard_faults.is_empty() {
        eprintln!(
            "injecting shard faults (seed {}): {:?}",
            scenario.shard_faults.seed, scenario.shard_faults.faults
        );
    }
    let outcome = sim::run_scenario(&scenario).expect("scenario failed");
    println!("{}", ratio_table(&outcome));
    let payload = if scenario.shard_faults.is_empty() {
        outcome_json(&outcome)
    } else {
        // Wrap so the fault mix and its seed are recorded next to the
        // numbers they produced — a chaos result without its seed is not
        // reproducible.
        #[derive(serde::Serialize)]
        struct ChaosReport {
            shard_fault_spec: Option<String>,
            shard_faults: ShardFaultPlan,
            outcome: sim::ScenarioOutcome,
        }
        serde_json::to_string_pretty(&ChaosReport {
            shard_fault_spec: fault_spec.clone(),
            shard_faults: scenario.shard_faults.clone(),
            outcome: outcome.clone(),
        })
        .expect("serialize outcome")
    };
    bench::maybe_write(flags.str("json"), &payload);
}
