//! Streaming soak: a long-horizon churn run through the sharded solver
//! with injected shard faults (the service must absorb churn *and* worker
//! failures without panicking or going infeasible), plus a mid-run SIGKILL
//! of a checkpointed `fig_stream` sweep that must resume byte-identically.
//! CI runs this in release mode under a hard job timeout.

use edgealloc::algorithms::OnlineRegularized;
use edgealloc::cost::CostWeights;
use edgealloc::system::EdgeCloudSystem;
use mobility::churn::{self, ChurnConfig, ChurnEvent};
use mobility::prices::{self, PriceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use shard::OnlineSharded;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use stream::{run_stream, updates_from_trace, SlotUpdate, StreamConfig, StreamState};

/// Builds a seeded churn stream plus its environment, the way `fig_stream`
/// does: capacities sized to the initial population at 50% utilization,
/// §V-A price processes.
fn churn_environment(
    users: usize,
    slots: usize,
    churn_rate: f64,
    seed: u64,
) -> (StreamState, Vec<SlotUpdate>) {
    let net = mobility::rome_metro();
    let mut rng = StdRng::seed_from_u64(seed);
    let per_kind = churn_rate / 3.0;
    let cfg = ChurnConfig {
        initial_users: users,
        num_slots: slots,
        arrival_rate: per_kind * users as f64,
        depart_prob: per_kind,
        move_prob: per_kind,
        ..ChurnConfig::default()
    };
    let trace = churn::generate(&net, &cfg, &mut rng);
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
    let capacities: Vec<f64> = freq
        .iter()
        .map(|f| (total_lambda / 0.5) * f / total_freq)
        .collect();
    let system = EdgeCloudSystem::from_stations(&net, capacities, 1.0).expect("valid system");
    let pc = PriceConfig::default();
    let base = prices::operation_base_prices(system.capacities(), pc.operation_mean);
    let rows = prices::operation_price_series_ar1(
        &base,
        slots,
        pc.operation_floor_frac,
        pc.operation_correlation,
        &mut rng,
    );
    let reconfig = prices::reconfig_prices(num_clouds, pc.reconfig_mean, pc.reconfig_sd, &mut rng);
    let (mo, mi) = prices::bandwidth_prices(num_clouds, pc.bandwidth_scale, &mut rng);
    let state = StreamState::new(system, reconfig, mo, mi, CostWeights::default());
    (state, updates_from_trace(&trace, &rows))
}

/// Sixty slots of ~6% churn through three shards with panicking,
/// straggling, and offer-corrupting workers: the stream must finish every
/// slot with finite cost, keep serving the live population, use the
/// incremental path, and retry/absorb the injected faults.
#[test]
fn long_horizon_churn_survives_shard_faults() {
    const SLOTS: usize = 60;
    let (state, updates) = churn_environment(300, SLOTS, 0.06, 11);
    let faults = sim::ShardFaultPlan::from_spec("panic=0.08,delay=0.1:20,corrupt=0.05,seed=7")
        .expect("valid fault spec");
    let alg =
        OnlineSharded::new(3, OnlineRegularized::with_defaults()).with_chaos(faults.to_chaos());
    let cfg = StreamConfig {
        max_incremental_churn: 0.25,
        refresh_every: 8,
        ..StreamConfig::default()
    };
    let out = run_stream(state, alg, updates, cfg);

    assert_eq!(out.health.len(), SLOTS);
    assert_eq!(out.costs.len(), SLOTS);
    for (t, c) in out.costs.iter().enumerate() {
        assert!(c.total().is_finite(), "slot {t}: non-finite cost");
    }
    assert!(
        out.users.iter().all(|&j| j > 0),
        "population died out mid-soak"
    );
    let arrivals: usize = out.health.iter().map(|h| h.churn_arrivals).sum();
    let departs: usize = out.health.iter().map(|h| h.churn_departs).sum();
    let moves: usize = out.health.iter().map(|h| h.churn_moves).sum();
    assert!(arrivals > 0 && departs > 0 && moves > 0, "degenerate churn");
    assert!(
        out.incremental_slots > SLOTS / 2,
        "only {}/{SLOTS} slots took the incremental path",
        out.incremental_slots
    );
    // The refresh cadence bounds staleness: with refresh_every = 8 at
    // least ⌈60/8⌉ slots must have solved in full.
    assert!(
        SLOTS - out.incremental_slots >= SLOTS / 8,
        "staleness refreshes did not run"
    );
    // The chaos plan must have actually bitten (and been absorbed).
    let summary = out.summary();
    assert!(
        summary.shard_retries + summary.quarantined_offers + summary.breaker_trips > 0,
        "fault injection produced no observable faults"
    );
}

/// The deterministic slice of a `fig_stream` sweep point: everything but
/// the wall-clock timings. Unknown JSON keys are ignored on deserialize,
/// so this doubles as the torn-line detector for checkpoint records.
#[derive(Debug, PartialEq, serde::Deserialize)]
struct DetPoint {
    users: usize,
    churn: f64,
    mode: String,
    slots: usize,
    seed: u64,
    events_per_slot: f64,
    cost: f64,
    incremental_slots: usize,
    degraded_slots: usize,
    arrivals: usize,
    departs: usize,
    moves: usize,
}

/// The deterministic slice of a speedup row (timings and the ratio built
/// from them excluded; costs are bit-reproducible).
#[derive(Debug, PartialEq, serde::Deserialize)]
struct DetSpeedup {
    users: usize,
    churn: f64,
    cost_premium: f64,
}

/// The deterministic slice of the final JSON report.
#[derive(Debug, PartialEq, serde::Deserialize)]
struct DetReport {
    points: Vec<DetPoint>,
    speedups: Vec<DetSpeedup>,
}

/// A checkpointed `fig_stream` sweep killed mid-flight resumes with the
/// same flags (mirrors `chaos_resume.rs` for the streaming binary).
/// `fig_stream` records carry wall-clock timings, so unlike fig2 the
/// artifacts cannot be byte-identical across runs; instead we require the
/// surviving checkpoint records to be whole (parseable) and correct in
/// every deterministic field, the resumed run to carry them forward
/// *verbatim* (reuse, not recomputation), and the resumed report to match
/// the uninterrupted run in every deterministic field.
#[test]
fn killed_stream_sweep_resumes_identically() {
    let dir = test_dir();
    let baseline_json = dir.join("baseline.json");
    let baseline_ckpt = dir.join("baseline.ckpt");
    let chaos_json = dir.join("chaos.json");
    let chaos_ckpt = dir.join("chaos.ckpt");

    let status = fig_stream(&baseline_json, &baseline_ckpt).status().unwrap();
    assert!(status.success(), "baseline sweep failed");
    let want_report: DetReport =
        serde_json::from_str(&std::fs::read_to_string(&baseline_json).unwrap())
            .expect("baseline report parses");
    let want_ckpt = std::fs::read_to_string(&baseline_ckpt).unwrap();
    let total_lines = want_ckpt.lines().count();
    assert!(total_lines > 2, "checkpoint should hold header + records");
    let want_header = want_ckpt.lines().next().unwrap().to_string();
    let parse_record = |line: &str| -> (usize, DetPoint) {
        serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("torn or foreign checkpoint line ({e:?}): {line}"))
    };
    let want_records: Vec<(usize, DetPoint)> =
        want_ckpt.lines().skip(1).map(parse_record).collect();

    // Kill once the checkpoint holds at least one record but not all.
    let mut child = fig_stream(&chaos_json, &chaos_ckpt).spawn().unwrap();
    let poll_deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let lines = std::fs::read_to_string(&chaos_ckpt)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if lines >= 2 && lines < total_lines {
            child.kill().unwrap();
            break;
        }
        if child.try_wait().unwrap().is_some() {
            break; // outran the kill — synthesized below
        }
        assert!(
            Instant::now() < poll_deadline,
            "chaos run made no checkpoint progress"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = child.wait();

    // If the sweep finished before the kill landed, synthesize the
    // mid-flight state deterministically: keep the chaos run's own header
    // and first record, drop the rest and the output JSON.
    let survived = std::fs::read_to_string(&chaos_ckpt).unwrap_or_default();
    if survived.lines().count() >= total_lines {
        let truncated: String = survived.lines().take(2).map(|l| format!("{l}\n")).collect();
        std::fs::write(&chaos_ckpt, truncated).unwrap();
        let _ = std::fs::remove_file(&chaos_json);
    }

    // Whatever survived must be uncorrupted: the deterministic header and
    // whole record lines whose non-timing payload matches the reference
    // point at the same index (checkpoint writes are atomic full-file
    // renames, so nothing may be torn).
    let survived = std::fs::read_to_string(&chaos_ckpt).unwrap();
    let mut lines = survived.lines();
    assert_eq!(lines.next(), Some(want_header.as_str()), "header corrupted");
    let survivors: Vec<String> = lines.map(str::to_string).collect();
    assert!(!survivors.is_empty(), "no records survived the kill");
    for line in &survivors {
        let (i, got) = parse_record(line);
        let want = want_records
            .iter()
            .find(|(j, _)| *j == i)
            .map(|(_, p)| p)
            .unwrap_or_else(|| panic!("record index {i} out of range"));
        assert_eq!(&got, want, "surviving record {i} diverges from baseline");
    }

    // Resume with identical flags: completed points must be reused (their
    // record lines, timings included, reappear verbatim) and the final
    // report must match the uninterrupted run everywhere deterministic.
    let status = fig_stream(&chaos_json, &chaos_ckpt).status().unwrap();
    assert!(status.success(), "resumed sweep failed");
    let resumed_ckpt = std::fs::read_to_string(&chaos_ckpt).unwrap();
    assert_eq!(resumed_ckpt.lines().count(), total_lines);
    for line in &survivors {
        assert!(
            resumed_ckpt.lines().any(|l| l == line),
            "resume recomputed an already-checkpointed point: {line}"
        );
    }
    let resumed_report: DetReport =
        serde_json::from_str(&std::fs::read_to_string(&chaos_json).unwrap())
            .expect("resumed report parses");
    assert_eq!(
        resumed_report, want_report,
        "resumed report diverges from the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Small-but-real fig_stream sweep: 3 churn rates × 2 modes = 6 points.
fn fig_stream(json: &Path, ckpt: &Path) -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_fig_stream"));
    c.args([
        "--users",
        "400",
        "--churn",
        "0.02,0.05,0.1",
        "--slots",
        "5",
        "--threads",
        "2",
        "--seed",
        "99",
    ])
    .arg("--json")
    .arg(json)
    .arg("--resume")
    .arg(ckpt)
    .stdout(Stdio::null())
    .stderr(Stdio::null());
    c
}

fn test_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stream-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
