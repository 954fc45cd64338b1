//! Cohort-aggregation scale sweep: station-granularity slot solves vs the
//! blocked per-user kernel, J ∈ {1k, 10k, 100k, 1M} (not a paper figure —
//! the paper stops at 300 users; this measures the compression lever that
//! turns the J=100k / minutes-per-slot blocked solve of
//! `results/BENCH_PR5.json` into a constant-size program).
//!
//! ```text
//! fig_cohort [--users 1000,10000,100000,1000000] [--blocked-max 10000]
//!            [--slots N] [--seed N] [--threads N] [--lambda-tol-bp 1000]
//!            [--resume PATH] [--json PATH]
//! ```
//!
//! Each sweep point runs one synthetic taxi horizon on the 15-station
//! Rome-metro network. Cohort cells use pooled references (sustained
//! station-granularity compression under arbitrary mobility; see
//! `edgealloc::cohort`) with λ-classes quantized to `--lambda-tol-bp`
//! basis points (1000 = 10% geometric buckets; 0 = exact bitwise classes).
//! Blocked cells run the per-user blocked Schur kernel and are skipped
//! above `--blocked-max` users, where minutes-per-slot solves make them
//! intractable; the report carries cost deltas at every J where both ran.
//! `--resume` makes the sweep crash-safe (see [`bench::checkpointed_map`]);
//! `--json` writes the JSON report (none without it).

use bench::{checkpointed_map, maybe_write, Flags, SweepLabel};
use edgealloc::prelude::*;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use sim::metrics::percentile;
use std::time::Instant;

/// One (J, mode) cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CohortPoint {
    users: usize,
    /// `"cohort"` or `"blocked"`.
    mode: String,
    slots: usize,
    seed: u64,
    wall_clock_ms: f64,
    slot_ms_p50: f64,
    slot_ms_p95: f64,
    slot_ms_max: f64,
    cost: f64,
    /// Slots the cohort reduction decided (0 in blocked mode).
    cohort_slots: usize,
    /// Largest reduced program across the horizon (0 in blocked mode).
    peak_cohorts: usize,
    /// `J / cohorts` of the tightest slot (`None` in blocked mode).
    min_compression: Option<f64>,
    degraded_slots: usize,
    newton_steps: usize,
}

fn build_instance(users: usize, slots: usize, seed: u64) -> Instance {
    let net = mobility::rome_metro();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let cfg = mobility::taxi::TaxiConfig {
        num_users: users,
        num_slots: slots,
        ..Default::default()
    };
    let mob = mobility::taxi::generate(&net, &cfg, &mut rng);
    Instance::synthetic(&net, mob, &mut rng)
}

fn run_point(users: usize, cohort: bool, slots: usize, seed: u64, tol: Option<f64>) -> CohortPoint {
    let inst = build_instance(users, slots, seed);
    let mut alg = OnlineRegularized::with_defaults();
    if cohort {
        alg = alg.with_cohort_config(CohortConfig {
            lambda_tolerance: tol,
            pool_references: true,
            ..CohortConfig::default()
        });
    }
    let t0 = Instant::now();
    let traj = run_online(&inst, &mut alg).expect("horizon");
    let wall_clock_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cost = evaluate_trajectory(&inst, &traj.allocations).total();
    let slot_ms: Vec<f64> = traj.health.iter().map(|h| h.wall_time_ms).collect();
    let summary = traj.health_summary();
    let min_compression = traj
        .health
        .iter()
        .filter_map(|h| h.compression_ratio)
        .fold(None, |acc: Option<f64>, r| {
            Some(acc.map_or(r, |a| a.min(r)))
        });
    CohortPoint {
        users,
        mode: if cohort { "cohort" } else { "blocked" }.into(),
        slots,
        seed,
        wall_clock_ms,
        slot_ms_p50: percentile(&slot_ms, 50.0),
        slot_ms_p95: percentile(&slot_ms, 95.0),
        slot_ms_max: slot_ms.iter().copied().fold(0.0, f64::max),
        cost,
        cohort_slots: summary.cohort_slots,
        peak_cohorts: summary.peak_cohorts,
        min_compression,
        degraded_slots: summary.degraded_slots,
        newton_steps: summary.newton_steps,
    }
}

fn main() {
    let flags = Flags::from_env();
    let users = flags.usize_list("users", &[1000, 10_000, 100_000, 1_000_000]);
    let blocked_max = flags.usize("blocked-max", 10_000);
    let slots_override = flags.usize("slots", 0);
    let seed = flags.u64("seed", 1);
    let threads = flags.threads();
    // λ-class quantization in basis points (1000 = 10%); 0 = exact classes.
    let tol_bp = flags.usize("lambda-tol-bp", 1000);
    let tol = (tol_bp > 0).then_some(tol_bp as f64 * 1e-4);

    // (users, cohort?, slots): cohort cells run a longer horizon so the
    // sustained (post-mixing) per-slot time is what gets measured; blocked
    // cells shrink with J exactly like fig_scale's monolithic cells.
    let points: Vec<(usize, bool, usize)> = users
        .iter()
        .flat_map(|&j| {
            let cohort_slots = if slots_override > 0 {
                slots_override
            } else {
                4
            };
            let blocked_slots = if slots_override > 0 {
                slots_override
            } else if j > 10_000 {
                1
            } else {
                2
            };
            let mut cells = vec![(j, true, cohort_slots)];
            if j <= blocked_max {
                cells.push((j, false, blocked_slots));
                // The timing cell above runs a longer horizon — a different
                // instance, so its total cost is not comparable against the
                // blocked cell. Pair the delta on an identical horizon.
                if blocked_slots != cohort_slots {
                    cells.push((j, true, blocked_slots));
                }
            }
            cells
        })
        .collect();

    let label = SweepLabel::new("fig-cohort")
        .kv_debug("u", &users)
        .kv("b", blocked_max)
        .kv("t", slots_override)
        .kv("seed", seed)
        .kv("tol", tol_bp)
        .build();
    let results = checkpointed_map(
        &label,
        &points,
        threads,
        flags.resume(),
        |&(j, cohort, t)| {
            let mode = if cohort { "cohort" } else { "blocked" };
            eprintln!("running J={j} mode={mode} T={t} ...");
            let p = run_point(j, cohort, t, seed, tol);
            eprintln!(
                "  J={j} {mode}: {:.1} ms total, slot p50 {:.1} ms / max {:.1} ms, \
                 peak cohorts {}, min compression {:?}",
                p.wall_clock_ms, p.slot_ms_p50, p.slot_ms_max, p.peak_cohorts, p.min_compression
            );
            p
        },
    );

    println!(
        "{:>9} {:>8} {:>5} {:>12} {:>12} {:>12} {:>9} {:>12}",
        "users", "mode", "slots", "slot_p50_ms", "slot_max_ms", "cohorts", "compress", "cost"
    );
    for p in &results {
        println!(
            "{:>9} {:>8} {:>5} {:>12.1} {:>12.1} {:>12} {:>9} {:>12.1}",
            p.users,
            p.mode,
            p.slots,
            p.slot_ms_p50,
            p.slot_ms_max,
            p.peak_cohorts,
            p.min_compression.map_or("-".into(), |r| format!("{r:.0}x")),
            p.cost
        );
    }

    /// Cohort-vs-blocked relative cost difference at a J where both ran,
    /// paired on an identical horizon (same slot count → same instance).
    #[derive(Serialize)]
    struct CostDelta {
        users: usize,
        slots: usize,
        cost_blocked: f64,
        cost_cohort: f64,
        relative: f64,
    }
    let deltas: Vec<CostDelta> = users
        .iter()
        .filter_map(|&j| {
            let blocked = results
                .iter()
                .find(|p| p.users == j && p.mode == "blocked")?;
            let cohort = results
                .iter()
                .find(|p| p.users == j && p.mode == "cohort" && p.slots == blocked.slots)?;
            Some(CostDelta {
                users: j,
                slots: blocked.slots,
                cost_blocked: blocked.cost,
                cost_cohort: cohort.cost,
                relative: (cohort.cost - blocked.cost) / blocked.cost.abs().max(1e-12),
            })
        })
        .collect();
    for d in &deltas {
        println!(
            "delta J={} T={}: cohort vs blocked {:+.3e} relative",
            d.users, d.slots, d.relative
        );
    }

    #[derive(Serialize)]
    struct Report {
        what: String,
        machine: String,
        lambda_tolerance: Option<f64>,
        points: Vec<CohortPoint>,
        cost_deltas: Vec<CostDelta>,
    }
    let report = Report {
        what: "Cohort aggregation (pooled references, station x lambda-class granularity) vs \
               blocked per-user slot solves: wall-clock over synthetic taxi horizons on the \
               15-station Rome-metro network. Blocked cells are skipped above --blocked-max \
               users; cost_deltas pairs the J where both ran. \
               Command: fig_cohort --users .. --blocked-max .. --seed .."
            .to_string(),
        machine: bench::machine_tag(),
        lambda_tolerance: tol,
        points: results,
        cost_deltas: deltas,
    };
    maybe_write(
        flags.str("json"),
        &serde_json::to_string_pretty(&report).expect("serialize report"),
    );
}
