//! Scale sweep: sharded vs monolithic slot solves, J ∈ {1k, 10k, 100k} ×
//! S ∈ {1, 4, 16} (not a paper figure — the paper stops at 300 users on a
//! 512 GB server; this measures how the price-coordinated decomposition
//! extends the blocked-kernel scaling of `results/BENCH_PR4.json`).
//!
//! ```text
//! fig_scale [--users 1000,10000,100000] [--shards 1,4,16] [--slots N]
//!           [--seed N] [--threads N] [--resume PATH] [--json PATH]
//!           [--slot-deadline-ms MS] [--shard-faults SPEC]
//! ```
//!
//! Each sweep point runs `OnlineSharded` (blocked Schur kernel) over one
//! synthetic taxi horizon; `S = 1` exercises the monolithic fallback path,
//! so the S-axis is sharded-vs-monolithic on identical instances. Slots
//! default to 2 per horizon up to 10k users and 1 above (the big cells are
//! minutes per slot on one core); `--slots` overrides for all points.
//! `--resume` makes the sweep crash-safe (see [`bench::checkpointed_map`]);
//! `--json` writes the JSON report (none without it).
//!
//! `--shard-faults` injects deterministic shard-worker faults (panics,
//! stragglers, offer corruption) into every sweep point's coordinator —
//! spec format `panic=0.1,delay=0.2:120,corrupt=0.05,seed=7`, see
//! [`sim::ShardFaultPlan::from_spec`]. The spec and its seed are recorded
//! in the JSON report so chaos measurements stay reproducible.

use bench::{checkpointed_map, maybe_write, Flags, SweepLabel};
use edgealloc::prelude::*;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use shard::OnlineSharded;
use sim::metrics::percentile;
use std::time::Instant;

/// One (J, S) cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScalePoint {
    users: usize,
    shards: usize,
    slots: usize,
    seed: u64,
    wall_clock_ms: f64,
    slot_ms_p50: f64,
    slot_ms_p95: f64,
    cost: f64,
    /// Slots the coordinator actually decomposed (0 when S = 1: the
    /// monolithic fallback decided every slot).
    sharded_slots: usize,
    coord_rounds: usize,
    newton_steps: usize,
    degraded_slots: usize,
    /// Peak pre-projection relative capacity violation across slots
    /// (`None` when no slot went through the coordinator).
    max_capacity_violation: Option<f64>,
    /// Worst certified relative duality gap across sharded slots.
    duality_gap: Option<f64>,
    /// Seed of the injected shard-fault rolls (0 when no faults were
    /// injected; absent in pre-chaos checkpoints).
    #[serde(default)]
    fault_seed: u64,
    /// Fault-tolerance telemetry (all zero on fault-free runs; absent in
    /// pre-chaos checkpoints).
    #[serde(default)]
    shard_retries: usize,
    #[serde(default)]
    stale_offers: usize,
    #[serde(default)]
    quarantined_offers: usize,
    #[serde(default)]
    breaker_trips: usize,
}

fn run_point(
    users: usize,
    shards: usize,
    slots: usize,
    seed: u64,
    deadline: Option<f64>,
    faults: &sim::ShardFaultPlan,
) -> ScalePoint {
    let net = mobility::rome_metro();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let cfg = mobility::taxi::TaxiConfig {
        num_users: users,
        num_slots: slots,
        ..Default::default()
    };
    let mob = mobility::taxi::generate(&net, &cfg, &mut rng);
    let inst = Instance::synthetic(&net, mob, &mut rng);

    let mut alg = OnlineSharded::new(
        shards,
        OnlineRegularized::with_defaults().with_slot_deadline_ms(deadline),
    )
    .with_chaos(faults.to_chaos());
    let t0 = Instant::now();
    let traj = run_online(&inst, &mut alg).expect("horizon");
    let wall_clock_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cost = evaluate_trajectory(&inst, &traj.allocations).total();
    let slot_ms: Vec<f64> = traj.health.iter().map(|h| h.wall_time_ms).collect();
    let summary = traj.health_summary();
    let duality_gap = traj
        .health
        .iter()
        .filter_map(|h| h.duality_gap)
        .fold(None, |acc: Option<f64>, g| {
            Some(acc.map_or(g, |a| a.max(g)))
        });
    ScalePoint {
        users,
        shards,
        slots,
        seed,
        wall_clock_ms,
        slot_ms_p50: percentile(&slot_ms, 50.0),
        slot_ms_p95: percentile(&slot_ms, 95.0),
        cost,
        sharded_slots: summary.sharded_slots,
        coord_rounds: summary.coord_rounds,
        newton_steps: summary.newton_steps,
        degraded_slots: summary.degraded_slots,
        max_capacity_violation: (summary.sharded_slots > 0)
            .then_some(summary.peak_capacity_violation),
        duality_gap,
        fault_seed: faults.seed,
        shard_retries: summary.shard_retries,
        stale_offers: summary.stale_offers,
        quarantined_offers: summary.quarantined_offers,
        breaker_trips: summary.breaker_trips,
    }
}

fn main() {
    let flags = Flags::from_env();
    let users = flags.usize_list("users", &[1000, 10_000, 100_000]);
    let shards = flags.usize_list("shards", &[1, 4, 16]);
    let slots_override = flags.usize("slots", 0);
    let seed = flags.u64("seed", 1);
    let threads = flags.threads();
    let deadline = flags.opt_f64("slot-deadline-ms");
    let fault_spec = flags.str("shard-faults").map(str::to_string);
    let faults = fault_spec
        .as_deref()
        .map(|spec| {
            sim::ShardFaultPlan::from_spec(spec)
                .unwrap_or_else(|e| panic!("bad --shard-faults: {e}"))
        })
        .unwrap_or_default();

    let points: Vec<(usize, usize, usize)> = users
        .iter()
        .flat_map(|&j| {
            let slots = if slots_override > 0 {
                slots_override
            } else if j > 10_000 {
                1
            } else {
                2
            };
            shards.iter().map(move |&s| (j, s, slots))
        })
        .collect();
    // The fault spec is part of the checkpoint identity: resuming a chaos
    // sweep from fault-free points (or vice versa) would silently mix
    // distributions.
    let label = SweepLabel::new("fig-scale")
        .kv_debug("u", &users)
        .kv_debug("s", &shards)
        .kv("t", slots_override)
        .kv("seed", seed)
        .deadline(deadline)
        .kv("f", fault_spec.as_deref().unwrap_or("none"))
        .build();

    let results = checkpointed_map(&label, &points, threads, flags.resume(), |&(j, s, t)| {
        eprintln!("running J={j} S={s} T={t} ...");
        let p = run_point(j, s, t, seed, deadline, &faults);
        eprintln!(
            "  J={j} S={s}: {:.1} ms total, slot p50 {:.1} ms, {} rounds, \
             {} Newton steps, gap {:?}",
            p.wall_clock_ms, p.slot_ms_p50, p.coord_rounds, p.newton_steps, p.duality_gap
        );
        p
    });

    println!(
        "{:>8} {:>6} {:>5} {:>14} {:>12} {:>8} {:>10}",
        "users", "shards", "slots", "wall_ms", "slot_p50_ms", "rounds", "newtons"
    );
    for p in &results {
        println!(
            "{:>8} {:>6} {:>5} {:>14.1} {:>12.1} {:>8} {:>10}",
            p.users,
            p.shards,
            p.slots,
            p.wall_clock_ms,
            p.slot_ms_p50,
            p.coord_rounds,
            p.newton_steps
        );
    }

    #[derive(Serialize)]
    struct Report {
        what: String,
        machine: String,
        /// The `--shard-faults` spec this sweep ran under (`None` =
        /// fault-free); the per-point `fault_seed` pins the rolls.
        shard_fault_spec: Option<String>,
        points: Vec<ScalePoint>,
    }
    let report = Report {
        what: "Sharded (price-coordinated dual decomposition) vs monolithic slot solves: \
               wall-clock over synthetic taxi horizons, J x S sweep, blocked Schur kernel. \
               S=1 is the monolithic fallback path on the same instance. \
               Command: fig_scale --users .. --shards .. --seed .."
            .to_string(),
        machine: bench::machine_tag(),
        shard_fault_spec: fault_spec,
        points: results,
    };
    maybe_write(
        flags.str("json"),
        &serde_json::to_string_pretty(&report).expect("serialize report"),
    );
}
