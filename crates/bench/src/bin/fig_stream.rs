//! Streaming churn sweep: incremental delta solves vs full rebuilds over
//! a long-running churn stream (not a paper figure — the paper fixes the
//! user population per horizon; this measures the live-service mode of
//! `crates/stream` and records the PR 10 perf gate: at J = 100k with ≤1%
//! per-slot churn the incremental slot solve must be ≥5× faster than the
//! full-rebuild path).
//!
//! ```text
//! fig_stream [--users 100000] [--churn 0.001,0.005,0.01] [--slots 8]
//!            [--seed N] [--threads N] [--resume PATH] [--json PATH]
//!            [--full-every N] [--slot-deadline-ms MS]
//! ```
//!
//! Each sweep point generates one seeded churn trace on the 15-station
//! Rome-metro network (`mobility::churn`: taxi-hotspot moves plus
//! birth/death at the requested per-slot fraction), builds the synthetic
//! price environment the batch instances use (§V-A, AR(1) operation
//! prices), and runs the *same* update stream twice through
//! [`stream::run_stream`]: once with the incremental path enabled and once
//! forced to full rebuilds. Slot 0 (the initial mass arrival) anchors both
//! runs with a full solve, so the steady-state comparison starts at slot 1.
//! `--json` writes the JSON report (none without it); it carries the
//! churn-rate axis plus a per-point speedup table.

use bench::{checkpointed_map, maybe_write, Flags, SweepLabel};
use edgealloc::cohort::CohortConfig;
use edgealloc::cost::CostWeights;
use edgealloc::system::EdgeCloudSystem;
use mobility::churn::{self, ChurnConfig, ChurnEvent};
use mobility::prices::{self, PriceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use sim::metrics::percentile;
use std::time::Instant;
use stream::{run_stream, updates_from_trace, StreamConfig, StreamState};

/// One (J, churn, mode) cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StreamPoint {
    users: usize,
    /// Requested per-slot churn fraction.
    churn: f64,
    /// `"incremental"` or `"full"`.
    mode: String,
    slots: usize,
    seed: u64,
    /// Mean churn events per slot actually generated (slot 0 excluded —
    /// it carries the initial mass arrival).
    events_per_slot: f64,
    wall_clock_ms: f64,
    /// Median/p95 per-slot time over the steady state (slot 1 on; slot 0
    /// is the anchoring full solve in both modes).
    steady_ms_p50: f64,
    steady_ms_p95: f64,
    cost: f64,
    /// Slots served by the incremental path (0 in full mode).
    incremental_slots: usize,
    degraded_slots: usize,
    /// Total churn telemetry over the run.
    arrivals: usize,
    departs: usize,
    moves: usize,
}

/// The per-cell cost weights / cohort setup shared by both modes: the
/// production large-J configuration (pooled references, 10% λ-classes).
fn cohort_cfg() -> CohortConfig {
    CohortConfig {
        lambda_tolerance: Some(0.1),
        pool_references: true,
        ..CohortConfig::default()
    }
}

/// Builds the seeded churn trace plus the synthetic environment (system
/// capacities sized for the initial population at 50% utilization so the
/// residual room survives arrival bursts, §V-A price processes) and the
/// initial stream state.
fn build_environment(
    users: usize,
    churn_rate: f64,
    slots: usize,
    seed: u64,
) -> (StreamState, Vec<stream::SlotUpdate>) {
    let net = mobility::rome_metro();
    let mut rng = StdRng::seed_from_u64(seed);
    let per_kind = churn_rate / 3.0;
    let cfg = ChurnConfig {
        initial_users: users,
        num_slots: slots,
        // Arrivals balance expected departures, so the population hovers
        // around `users` and the three kinds split the churn budget.
        arrival_rate: per_kind * users as f64,
        depart_prob: per_kind,
        move_prob: per_kind,
        ..ChurnConfig::default()
    };
    let trace = churn::generate(&net, &cfg, &mut rng);

    // Capacities ∝ initial attachment frequency (Laplace-smoothed), total
    // = Σλ / 0.5, mirroring `Instance::synthetic` with extra headroom.
    let num_clouds = net.len();
    let mut freq = vec![1.0_f64; num_clouds];
    let mut total_lambda = 0.0;
    for ev in &trace.slots[0] {
        if let ChurnEvent::Arrive {
            station, lambda, ..
        } = ev
        {
            freq[*station] += 1.0;
            total_lambda += lambda;
        }
    }
    let total_freq: f64 = freq.iter().sum();
    let total_capacity = total_lambda / 0.5;
    let capacities: Vec<f64> = freq
        .iter()
        .map(|f| total_capacity * f / total_freq)
        .collect();
    let system = EdgeCloudSystem::from_stations(&net, capacities, 1.0).expect("valid system");

    let price_cfg = PriceConfig::default();
    let base = prices::operation_base_prices(system.capacities(), price_cfg.operation_mean);
    let rows = prices::operation_price_series_ar1(
        &base,
        slots,
        price_cfg.operation_floor_frac,
        price_cfg.operation_correlation,
        &mut rng,
    );
    let reconfig = prices::reconfig_prices(
        num_clouds,
        price_cfg.reconfig_mean,
        price_cfg.reconfig_sd,
        &mut rng,
    );
    let (migration_out, migration_in) =
        prices::bandwidth_prices(num_clouds, price_cfg.bandwidth_scale, &mut rng);

    let state = StreamState::new(
        system,
        reconfig,
        migration_out,
        migration_in,
        CostWeights::default(),
    );
    let updates = updates_from_trace(&trace, &rows);
    (state, updates)
}

fn run_point(
    users: usize,
    churn_rate: f64,
    incremental: bool,
    slots: usize,
    seed: u64,
    full_every: usize,
    deadline: Option<f64>,
) -> StreamPoint {
    let (state, updates) = build_environment(users, churn_rate, slots, seed);
    let events_after_slot0: usize = updates.iter().skip(1).map(|u| u.events.len()).sum();
    let alg = edgealloc::algorithms::OnlineRegularized::with_defaults()
        .with_cohort_config(cohort_cfg())
        .with_slot_deadline_ms(deadline);
    let cfg = StreamConfig {
        // Accept up to 4× the requested rate so stochastic spikes stay on
        // the incremental path; full mode pins the threshold to 0.
        max_incremental_churn: if incremental {
            (churn_rate * 4.0).min(0.5)
        } else {
            0.0
        },
        refresh_every: full_every,
        slot_deadline_ms: deadline,
        delta_cohorts: cohort_cfg(),
        ..StreamConfig::default()
    };
    let t0 = Instant::now();
    let out = run_stream(state, alg, updates, cfg);
    let wall_clock_ms = t0.elapsed().as_secs_f64() * 1e3;
    let steady: Vec<f64> = out.slot_ms.iter().skip(1).copied().collect();
    let summary = out.summary();
    StreamPoint {
        users,
        churn: churn_rate,
        mode: if incremental { "incremental" } else { "full" }.into(),
        slots,
        seed,
        events_per_slot: events_after_slot0 as f64 / (slots.max(2) - 1) as f64,
        wall_clock_ms,
        steady_ms_p50: percentile(&steady, 50.0),
        steady_ms_p95: percentile(&steady, 95.0),
        cost: out.total_cost().total(),
        incremental_slots: out.incremental_slots,
        degraded_slots: summary.degraded_slots,
        arrivals: out.health.iter().map(|h| h.churn_arrivals).sum(),
        departs: out.health.iter().map(|h| h.churn_departs).sum(),
        moves: out.health.iter().map(|h| h.churn_moves).sum(),
    }
}

fn main() {
    let flags =
        Flags::from_env("users churn slots seed threads resume json full-every slot-deadline-ms");
    let users = flags.usize_list("users", &[100_000]);
    let churn_rates = flags.churn(&[0.001, 0.005, 0.01]);
    let slots = flags.usize("slots", 8);
    let seed = flags.u64("seed", 10);
    let threads = flags.threads();
    let deadline = flags.opt_f64("slot-deadline-ms");
    // Forced full-solve cadence of the incremental mode (staleness bound);
    // 0 = never. Default stays above the horizon so the steady state is
    // purely incremental.
    let full_every = flags.usize("full-every", 0);

    let points: Vec<(usize, f64, bool)> = users
        .iter()
        .flat_map(|&j| {
            churn_rates
                .iter()
                .flat_map(move |&c| [(j, c, true), (j, c, false)])
        })
        .collect();
    let label = SweepLabel::new("fig-stream")
        .kv_debug("u", &users)
        .kv_debug("c", &churn_rates)
        .kv("t", slots)
        .kv("seed", seed)
        .kv("fe", full_every)
        .deadline(deadline)
        .build();
    let results = checkpointed_map(&label, &points, threads, flags.resume(), |&(j, c, inc)| {
        let mode = if inc { "incremental" } else { "full" };
        eprintln!("running J={j} churn={c} mode={mode} ...");
        let p = run_point(j, c, inc, slots, seed, full_every, deadline);
        eprintln!(
            "  J={j} churn={c} {mode}: steady p50 {:.1} ms, {} incremental slots, \
                 cost {:.1}",
            p.steady_ms_p50, p.incremental_slots, p.cost
        );
        p
    });

    println!(
        "{:>9} {:>8} {:>12} {:>12} {:>12} {:>7} {:>12}",
        "users", "churn", "mode", "steady_p50", "steady_p95", "inc", "cost"
    );
    for p in &results {
        println!(
            "{:>9} {:>8} {:>12} {:>12.1} {:>12.1} {:>7} {:>12.1}",
            p.users, p.churn, p.mode, p.steady_ms_p50, p.steady_ms_p95, p.incremental_slots, p.cost
        );
    }

    /// The perf-gate row: incremental vs full steady-state latency on the
    /// same (J, churn) stream, plus the cost of incremental staleness.
    #[derive(Serialize)]
    struct Speedup {
        users: usize,
        churn: f64,
        full_ms_p50: f64,
        incremental_ms_p50: f64,
        speedup: f64,
        /// `(incremental − full) / full` total cost (staleness premium).
        cost_premium: f64,
    }
    let speedups: Vec<Speedup> = users
        .iter()
        .flat_map(|&j| churn_rates.iter().map(move |&c| (j, c)))
        .filter_map(|(j, c)| {
            let pick = |mode: &str| {
                results
                    .iter()
                    .find(|p| p.users == j && p.churn == c && p.mode == mode)
            };
            let full = pick("full")?;
            let inc = pick("incremental")?;
            Some(Speedup {
                users: j,
                churn: c,
                full_ms_p50: full.steady_ms_p50,
                incremental_ms_p50: inc.steady_ms_p50,
                speedup: full.steady_ms_p50 / inc.steady_ms_p50.max(1e-9),
                cost_premium: (inc.cost - full.cost) / full.cost.abs().max(1e-12),
            })
        })
        .collect();
    for s in &speedups {
        println!(
            "speedup J={} churn={}: {:.1}x (full {:.1} ms → incremental {:.1} ms), \
             cost premium {:+.3e}",
            s.users, s.churn, s.speedup, s.full_ms_p50, s.incremental_ms_p50, s.cost_premium
        );
    }

    #[derive(Serialize)]
    struct Report {
        what: String,
        machine: String,
        points: Vec<StreamPoint>,
        speedups: Vec<Speedup>,
    }
    let report = Report {
        what: "Streaming service mode: incremental delta solves (survivors frozen, churned \
               users re-placed against residual capacities) vs full rebuilds over the same \
               churn stream on the 15-station Rome-metro network. steady_ms covers slots \
               1.. (slot 0 is the anchoring mass-arrival full solve in both modes). \
               Perf gate: speedup >= 5 at J=100k, churn <= 1%. \
               Command: fig_stream --users .. --churn .. --slots .. --seed .."
            .to_string(),
        machine: bench::machine_tag(),
        points: results,
        speedups,
    };
    maybe_write(
        flags.str("json"),
        &serde_json::to_string_pretty(&report).expect("serialize report"),
    );
}
