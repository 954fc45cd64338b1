//! Runs one benchmark workload and prints one JSON line per event:
//! `setup` (one per set-up repetition), `plan`, `slot` (one per decided
//! slot, printed as soon as the slot is checked), `pass` and `end`.
//! `perfbench/run.py` drives it under a time cap and turns the lines into
//! metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//! ```
//!
//! Untraced runs repeat whole passes over the workload until `--seconds`
//! of measurement have elapsed. Traced runs make exactly two passes: an
//! untraced one (the overhead baseline) and a traced one with spans and the
//! shadow calls into each layer.

use edgealloc::algorithms::{repair_capacity, SlotInput};
use edgealloc::cohort::{CohortConfig, CohortPlan};
use edgealloc::health::{FallbackRung, SlotHealth};
use edgealloc::sanitize::sanitize_slot;
use edgealloc::sentinel::assess;
use edgealloc::shed::{plan_shedding, ShedConfig, SurvivorSlot};
use edgealloc::{project_exact, Allocation, CostBreakdown};
use optim::budget::SolveBudget;
use perfbench::trace::{SpanId, Tracer};
use perfbench::{
    allowed_unmet, batch_setup, batch_slot_cost, drive_batch, drive_stream, peak_rss_mb,
    slot_failed, stream_setup, Calibration, Feasibility, StreamObserver, Workload, STREAM_CHURN,
};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use stream::{StreamDriver, StreamState};

/// Set-up repetitions: at least this many...
const MIN_SETUPS: usize = 3;
/// ...and more while they total under this many seconds...
const SETUP_TARGET_S: f64 = 1.0;
/// ...up to this many.
const MAX_SETUPS: usize = 25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|k| argv.get(k + 1))
            .map(String::as_str)
    };
    let num = |key: &str| -> Result<Option<u64>, String> {
        get(key)
            .map(|v| v.parse::<u64>().map_err(|e| format!("{key} {v}: {e}")))
            .transpose()
    };
    let name = get("--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    Ok(Args {
        workload,
        seed: num("--seed")?.ok_or("missing --seed")?,
        seconds: num("--seconds")?.ok_or("missing --seconds")? as f64,
        trace: match get("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace {v}: expected 0 or 1")),
        },
        spans: get("--spans").map(str::to_string),
    })
}

/// `ms` at the reference machine speed, given the calibration time.
fn scaled(ms: f64, cal_ms: f64) -> f64 {
    ms * Calibration::REFERENCE_MS / cal_ms
}

fn emit<T: Serialize>(line: &T) {
    println!("{}", serde_json::to_string(line).expect("lines serialize"));
}

#[derive(Serialize)]
struct SetupLine {
    kind: &'static str,
    rep: usize,
    setup_s: f64,
    /// `setup_s` at the reference machine speed.
    scaled_setup_s: f64,
    generate_s: f64,
    build_s: f64,
}

#[derive(Serialize)]
struct PlanLine {
    kind: &'static str,
    slots_per_pass: usize,
    users: usize,
}

#[derive(Serialize)]
struct SlotLine {
    kind: &'static str,
    pass: usize,
    t: usize,
    traced: bool,
    users: usize,
    ms: f64,
    /// `ms` at the reference machine speed (see `Calibration`).
    scaled_ms: f64,
    cal_ms: f64,
    view_ms: f64,
    failed: bool,
    /// Feasible up to round-off (shed users excepted).
    feasible: bool,
    /// Feasible with no tolerance at all (shed users excepted).
    exactly_feasible: bool,
    capacity_excess: f64,
    unmet_users: usize,
    allowed_unmet: usize,
    cost: f64,
    health: SlotHealth,
    /// Traced passes only: shadow-call timings and layer counters.
    layers: Vec<(&'static str, f64)>,
}

#[derive(Serialize)]
struct PassLine {
    kind: &'static str,
    pass: usize,
    traced: bool,
    cost: f64,
}

#[derive(Serialize)]
struct EndLine {
    kind: &'static str,
    passes: usize,
    peak_rss_mb: Option<f64>,
}

/// Repeats a set-up, dropping each result before building the next, and
/// returns the last one.
fn repeated_setup<T>(mut build: impl FnMut(usize) -> (T, SetupLine)) -> T {
    let mut kept: Option<T> = None;
    let mut total = 0.0;
    let mut rep = 0;
    while rep < MIN_SETUPS || (total < SETUP_TARGET_S && rep < MAX_SETUPS) {
        drop(kept.take());
        let (value, line) = build(rep);
        total += line.setup_s;
        emit(&line);
        kept = Some(value);
        rep += 1;
    }
    kept.expect("at least one set-up ran")
}

/// Which layers the decided algorithm runs, for the shadow calls.
struct Layers {
    shed: ShedConfig,
    cohorts: Option<CohortConfig>,
    eps2: f64,
}

/// Times `f` as a child span of `parent` and records its duration.
fn shadow<R>(
    tr: &mut Tracer,
    out: &mut Vec<(&'static str, f64)>,
    name: &'static str,
    parent: SpanId,
    slot: usize,
    f: impl FnOnce() -> R,
) -> R {
    let span = tr.open(name, parent, Some(slot));
    let r = black_box(f());
    tr.close(span);
    out.push((name, tr.duration_ms(span).unwrap_or(f64::NAN)));
    r
}

/// Re-runs, on copies of the slot's raw input, previous allocation and
/// decision, each layer call the algorithm made on the slot, timing each
/// under a `shadow` span; returns the timings and layer counters. Runs
/// after the slot's timed decision.
fn shadow_calls(
    tr: &mut Tracer,
    slot: usize,
    layers: &Layers,
    raw: &SlotInput<'_>,
    prev: &Allocation,
    x: &Allocation,
    health: &SlotHealth,
) -> Vec<(&'static str, f64)> {
    let mut measured = Vec::new();
    let out = &mut measured;
    let root = tr.open("shadow", SpanId::NONE, Some(slot));
    shadow(tr, out, "sanitize.sanitize_slot", root, slot, || {
        sanitize_slot(raw)
    });
    let report = shadow(tr, out, "sentinel.assess", root, slot, || {
        assess(raw, layers.shed.headroom)
    });
    out.push((
        "sentinel.overloaded",
        f64::from(u8::from(report.overloaded())),
    ));
    let mut survivors: Option<SurvivorSlot> = None;
    if report.overloaded() && health.rung == FallbackRung::Shedding {
        let budget = SolveBudget::unlimited();
        let plan = shadow(tr, out, "shed.plan_shedding", root, slot, || {
            plan_shedding(raw, &layers.shed, &budget)
        });
        if let Ok(d) = plan {
            out.push(("shed.penalty", d.penalty));
            out.push(("shed.penalty_lower_bound", d.penalty_lower_bound));
            if !d.survivors.is_empty() {
                survivors = Some(SurvivorSlot::new(raw, &d));
            }
        }
    }
    // A shedding slot decides its survivors: the layers below see the
    // survivor slot, as the algorithm did.
    let (input, prev, x) = match &survivors {
        Some(s) => (s.as_input(raw), s.restrict(prev), s.restrict(x)),
        None => (raw.clone(), prev.clone(), x.clone()),
    };
    if let (Some(cfg), true) = (&layers.cohorts, health.cohorts > 0) {
        let plan = shadow(tr, out, "cohort.build", root, slot, || {
            CohortPlan::build(&input, &prev, cfg)
        });
        if let Some(plan) = plan {
            // The reduced optimum is internal to the solve; the restricted
            // decision stands in for it with the same shape and scale.
            let reduced = plan.restrict(&x);
            shadow(tr, out, "cohort.scatter", root, slot, || {
                let pooled_prev = plan.restrict(&prev);
                plan.scatter_pooled_with(&reduced, &pooled_prev, &prev, layers.eps2)
            });
        }
    }
    if health.cohorts > 0 || survivors.is_some() {
        let mut copy = x.clone();
        shadow(tr, out, "exact.project_exact", root, slot, || {
            project_exact(&input, &mut copy).is_ok()
        });
    }
    if health.repaired && health.cohorts == 0 {
        let mut copy = x;
        shadow(tr, out, "repair.repair_capacity", root, slot, || {
            repair_capacity(&input, &mut copy).is_ok()
        });
    }
    tr.close(root);
    measured
}

/// Whether the measurement is over after `passes` passes: traced runs make
/// an untraced and a traced pass, untraced runs pass until `--seconds`.
fn measured_enough(args: &Args, started: Instant, passes: usize) -> bool {
    if args.trace {
        passes == 2
    } else {
        started.elapsed().as_secs_f64() >= args.seconds
    }
}

/// Runs a batch workload; returns the number of passes made.
fn run_batch(args: &Args, tr: &mut Tracer) -> usize {
    let w = args.workload;
    let mut cal = Calibration::new();
    let mut setup = repeated_setup(|rep| {
        let before = cal.sample();
        let s = batch_setup(w, w.size(), args.seed, tr);
        let line = SetupLine {
            kind: "setup",
            rep,
            setup_s: s.setup_s,
            scaled_setup_s: scaled(s.setup_s, (before + cal.sample()) / 2.0),
            generate_s: s.generate_s,
            build_s: s.synthetic_s,
        };
        (s, line)
    });
    let inst = &setup.inst;
    emit(&PlanLine {
        kind: "plan",
        slots_per_pass: inst.num_slots(),
        users: inst.num_users(),
    });
    let layers = Layers {
        shed: setup.alg.shed_config(),
        cohorts: w.uses_cohorts().then(|| setup.alg.cohort_config()),
        eps2: setup.alg.epsilons().eps2,
    };
    let started = Instant::now();
    let mut pass = 0;
    loop {
        let traced = args.trace && pass == 1;
        let mut off = Tracer::new(false);
        let pass_tr: &mut Tracer = if traced { &mut *tr } else { &mut off };
        let mut cost = CostBreakdown::default();
        drive_batch(
            inst,
            &mut setup.alg,
            pass_tr,
            &mut cal,
            pass * inst.num_slots(),
            |tr, s| {
                let feas = Feasibility::check(s.raw.system.capacities(), s.raw.workloads, s.x);
                let feasible = feas.holds(allowed_unmet(s.health));
                let slot_cost = batch_slot_cost(inst, s.t, s.prev, s.x);
                cost += slot_cost;
                let shadows = if traced {
                    shadow_calls(tr, s.slot, &layers, s.raw, s.prev, s.x, s.health)
                } else {
                    Vec::new()
                };
                emit(&SlotLine {
                    kind: "slot",
                    pass,
                    t: s.t,
                    traced,
                    users: s.raw.num_users(),
                    ms: s.ms,
                    scaled_ms: scaled(s.ms, s.cal_ms),
                    cal_ms: s.cal_ms,
                    view_ms: s.view_ms,
                    failed: slot_failed(s.health, feasible),
                    feasible,
                    exactly_feasible: feas.holds_exactly(allowed_unmet(s.health)),
                    capacity_excess: feas.capacity_excess,
                    unmet_users: feas.strict_unmet_users,
                    allowed_unmet: allowed_unmet(s.health),
                    cost: slot_cost.total(),
                    health: s.health.clone(),
                    layers: shadows,
                });
            },
        );
        emit(&PassLine {
            kind: "pass",
            pass,
            traced,
            cost: cost.total(),
        });
        pass += 1;
        if measured_enough(args, started, pass) {
            return pass;
        }
    }
}

/// Per-slot checks, records and (traced) shadow calls of a stream pass.
struct StreamPass<'a> {
    tr: &'a mut Tracer,
    pass: usize,
    traced: bool,
    first_slot: usize,
    t: usize,
    layers: &'a Layers,
    /// Traced passes: a twin state fed the same updates, for timing
    /// `StreamState::apply` and reading each slot's churn outcome.
    twin: Option<StreamState>,
    /// Traced passes: the previous allocation, remapped to this slot.
    prev: Option<Allocation>,
    slots_since_full: usize,
    anchored: bool,
    max_incremental_churn: f64,
    refresh_every: usize,
}

impl<A: stream::ChurnAware> StreamObserver<A> for StreamPass<'_> {
    fn before(&mut self, driver: &StreamDriver<A>, _update: &stream::SlotUpdate) {
        if self.traced {
            self.prev = Some(driver.allocation().clone());
        }
    }

    fn after(
        &mut self,
        driver: &StreamDriver<A>,
        update: &stream::SlotUpdate,
        ms: f64,
        cal_ms: f64,
    ) {
        let slot = self.first_slot + self.t;
        let state = driver.state();
        let raw = state.slot_input();
        let x = driver.allocation();
        let health = driver.outcome().health.last().expect("a slot was stepped");
        let feas = Feasibility::check(raw.system.capacities(), raw.workloads, x);
        let feasible = feas.holds(allowed_unmet(health));
        let mut layers = Vec::new();
        if self.traced {
            let twin = self.twin.as_mut().expect("traced passes keep a twin");
            let span = self.tr.open("stream.apply", SpanId::NONE, Some(slot));
            let churn = black_box(twin.apply(update));
            self.tr.close(span);
            layers.push((
                "stream.apply",
                self.tr.duration_ms(span).unwrap_or(f64::NAN),
            ));
            layers.push(("stream.events", update.events.len() as f64));
            let num_users = state.num_users();
            let forced = self.refresh_every > 0 && self.slots_since_full + 1 >= self.refresh_every;
            let frac = churn.churned.len() as f64 / num_users.max(1) as f64;
            let eligible = self.anchored
                && !forced
                && !churn.scaled
                && num_users > 0
                && frac <= self.max_incremental_churn;
            layers.push(("stream.eligible", f64::from(u8::from(eligible))));
            let mut prev = self.prev.take().expect("before() stored the allocation");
            if let Some(remap) = &churn.remap {
                prev = remap_allocation(&prev, remap, state.num_clouds(), num_users);
            }
            if !health.incremental && num_users > 0 {
                layers.extend(shadow_calls(
                    self.tr,
                    slot,
                    self.layers,
                    &raw,
                    &prev,
                    x,
                    health,
                ));
            }
        }
        if health.incremental {
            self.slots_since_full += 1;
        } else if state.num_users() > 0 {
            self.slots_since_full = 0;
            self.anchored = true;
        }
        emit(&SlotLine {
            kind: "slot",
            pass: self.pass,
            t: self.t,
            traced: self.traced,
            users: state.num_users(),
            ms,
            scaled_ms: scaled(ms, cal_ms),
            cal_ms,
            view_ms: 0.0,
            failed: slot_failed(health, feasible),
            feasible,
            exactly_feasible: feas.holds_exactly(allowed_unmet(health)),
            capacity_excess: feas.capacity_excess,
            unmet_users: feas.strict_unmet_users,
            allowed_unmet: allowed_unmet(health),
            cost: driver
                .outcome()
                .costs
                .last()
                .map_or(f64::NAN, |c| c.total()),
            health: health.clone(),
            layers,
        });
        self.t += 1;
    }
}

/// Survivor columns to their new dense indices, arrivals at zero — the
/// driver's own carry-over across a churn boundary.
fn remap_allocation(
    prev: &Allocation,
    remap: &[Option<usize>],
    num_clouds: usize,
    num_users: usize,
) -> Allocation {
    let mut out = Allocation::zeros(num_clouds, num_users);
    for (old_j, target) in remap.iter().enumerate() {
        let Some(new_j) = target else { continue };
        for i in 0..num_clouds {
            out.set(i, *new_j, prev.get(i, old_j));
        }
    }
    out
}

/// Runs the stream workload; returns the number of passes made.
fn run_stream(args: &Args, tr: &mut Tracer) -> usize {
    let mut cal = Calibration::new();
    let setup = repeated_setup(|rep| {
        let before = cal.sample();
        let s = stream_setup(args.workload.size(), STREAM_CHURN, args.seed, tr);
        let line = SetupLine {
            kind: "setup",
            rep,
            setup_s: s.setup_s,
            scaled_setup_s: scaled(s.setup_s, (before + cal.sample()) / 2.0),
            generate_s: s.generate_s,
            build_s: s.build_s,
        };
        (s, line)
    });
    emit(&PlanLine {
        kind: "plan",
        slots_per_pass: setup.updates.len(),
        users: args.workload.size().users,
    });
    let layers = Layers {
        shed: setup.alg.shed_config(),
        cohorts: Some(setup.alg.cohort_config()),
        eps2: setup.alg.epsilons().eps2,
    };
    let started = Instant::now();
    let mut pass = 0;
    loop {
        let traced = args.trace && pass == 1;
        let mut off = Tracer::new(false);
        let pass_tr: &mut Tracer = if traced { &mut *tr } else { &mut off };
        let mut obs = StreamPass {
            tr: pass_tr,
            pass,
            traced,
            first_slot: pass * setup.updates.len(),
            t: 0,
            layers: &layers,
            twin: traced.then(|| setup.state.clone()),
            prev: None,
            slots_since_full: 0,
            anchored: false,
            max_incremental_churn: setup.cfg.max_incremental_churn,
            refresh_every: setup.cfg.refresh_every,
        };
        // Each pass replays the stream from the generated initial state.
        let outcome = drive_stream(
            setup.state.clone(),
            setup.alg.clone(),
            setup.updates.clone(),
            setup.cfg.clone(),
            &mut obs,
            &mut cal,
        );
        emit(&PassLine {
            kind: "pass",
            pass,
            traced,
            cost: outcome.total_cost().total(),
        });
        pass += 1;
        if measured_enough(args, started, pass) {
            return pass;
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tr = Tracer::new(args.trace);
    let passes = if args.workload == Workload::Stream100k {
        run_stream(&args, &mut tr)
    } else {
        run_batch(&args, &mut tr)
    };
    emit(&EndLine {
        kind: "end",
        passes,
        peak_rss_mb: peak_rss_mb(),
    });
    if let Some(path) = &args.spans {
        let file = std::fs::File::create(path).expect("create the span file");
        let mut out = std::io::BufWriter::new(file);
        tr.write_jsonl(&mut out).expect("write the span file");
    }
}
