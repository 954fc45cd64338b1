//! Profiling harness for the online algorithms (not part of the figure
//! suite): runs each algorithm over one synthetic taxi horizon and reports
//! wall-clock, per-slot latency percentiles, and barrier-solver effort.
//!
//! ```text
//! profile_online [--users N] [--slots N] [--seed N] [--json PATH]
//!                [--slot-deadline-ms MS] [--algs a,b,...]
//! ```
//!
//! The text report prints one line per algorithm; `--json` additionally
//! writes the full profile (the record format stored under
//! `results/BENCH_PR2.json` and `results/BENCH_PR4.json`). Per-slot
//! latencies come from each trajectory's [`SlotHealth::wall_time_ms`]
//! records; Newton-step and outer-iteration counts from its
//! [`HealthSummary`] — both are zero for the non-barrier algorithms.
//!
//! `--algs` filters the roster (comma-separated names from {approx,
//! greedy, stat-opt, perf-opt}; default all).

use bench::{maybe_write, Flags};
use edgealloc::prelude::*;
use rand::SeedableRng;
use serde::Serialize;
use sim::metrics::percentile;
use std::time::Instant;

/// Everything measured for one algorithm over the horizon.
#[derive(Debug, Clone, Serialize)]
struct AlgorithmProfile {
    name: String,
    wall_clock_ms: f64,
    cost: f64,
    slot_ms_p50: f64,
    slot_ms_p95: f64,
    newton_steps: usize,
    peak_outer_iterations: usize,
    degraded_slots: usize,
}

/// The whole run: the workload point plus one profile per algorithm.
#[derive(Debug, Clone, Serialize)]
struct Profile {
    users: usize,
    slots: usize,
    seed: u64,
    algorithms: Vec<AlgorithmProfile>,
}

fn main() {
    let flags = Flags::from_env("users slots seed json slot-deadline-ms algs");
    let users = flags.usize("users", 30);
    let slots = flags.usize("slots", 24);
    let seed = flags.u64("seed", 1);
    let deadline = flags.opt_f64("slot-deadline-ms");
    let algs: Option<Vec<String>> = flags
        .str("algs")
        .map(|s| s.split(',').map(|a| a.trim().to_string()).collect());

    let net = mobility::rome_metro();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let cfg = mobility::taxi::TaxiConfig {
        num_users: users,
        num_slots: slots,
        ..Default::default()
    };
    let mob = mobility::taxi::generate(&net, &cfg, &mut rng);
    let inst = Instance::synthetic(&net, mob, &mut rng);

    let roster: Vec<(&str, Box<dyn OnlineAlgorithm>)> = vec![
        (
            "approx",
            Box::new(OnlineRegularized::with_defaults().with_slot_deadline_ms(deadline)),
        ),
        ("greedy", Box::new(OnlineGreedy::new())),
        ("stat-opt", Box::new(StatOpt::new())),
        ("perf-opt", Box::new(PerfOpt::new())),
    ];
    let roster: Vec<_> = roster
        .into_iter()
        .filter(|(name, _)| {
            algs.as_ref()
                .is_none_or(|keep| keep.iter().any(|a| a == name))
        })
        .collect();
    assert!(!roster.is_empty(), "--algs filtered out every algorithm");
    let mut profile = Profile {
        users,
        slots,
        seed,
        algorithms: Vec::new(),
    };
    for (name, mut alg) in roster {
        let t0 = Instant::now();
        let traj = run_online(&inst, alg.as_mut()).expect("horizon");
        let wall_clock_ms = t0.elapsed().as_secs_f64() * 1e3;
        let cost = evaluate_trajectory(&inst, &traj.allocations).total();
        let slot_ms: Vec<f64> = traj.health.iter().map(|h| h.wall_time_ms).collect();
        let summary = traj.health_summary();
        let p = AlgorithmProfile {
            name: name.to_string(),
            wall_clock_ms,
            cost,
            slot_ms_p50: percentile(&slot_ms, 50.0),
            slot_ms_p95: percentile(&slot_ms, 95.0),
            newton_steps: summary.newton_steps,
            peak_outer_iterations: summary.peak_outer_iterations,
            degraded_slots: summary.degraded_slots,
        };
        println!(
            "{name}: {:.1} ms cost {:.2} | slot p50 {:.2} ms p95 {:.2} ms | \
             {} Newton steps, peak {} outer",
            p.wall_clock_ms,
            p.cost,
            p.slot_ms_p50,
            p.slot_ms_p95,
            p.newton_steps,
            p.peak_outer_iterations,
        );
        profile.algorithms.push(p);
    }
    maybe_write(
        flags.str("json"),
        &serde_json::to_string_pretty(&profile).expect("serialize profile"),
    );
}
