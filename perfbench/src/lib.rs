//! The allocator benchmark: four seeded workloads on the 15-station
//! Rome-metro network, driven slot by slot through the library's public
//! per-slot entry points so every slot can be timed and checked from
//! outside the program.
//!
//! - Batch workloads ([`Workload::Taxi200`], [`Workload::Cohort1m`],
//!   [`Workload::Flash10k`]) run [`drive_batch`]: the loop of
//!   [`edgealloc::run_online`], calling [`decide_slot`] on the view from
//!   [`SlotInput::from_instance`] or [`Instance::scaled_slot`].
//! - The stream workload ([`Workload::Stream100k`]) runs [`drive_stream`]:
//!   the producer / bounded-channel loop of [`stream::run_stream`], with
//!   each [`StreamDriver::step`] timed at its boundary.
//!
//! `tests/equivalence.rs` pins both loops bit for bit to the library's.

pub mod trace;

use crate::trace::{SpanId, Tracer};
use edgealloc::algorithms::{decide_slot, OnlineAlgorithm, OnlineRegularized, SlotInput};
use edgealloc::cohort::CohortConfig;
use edgealloc::cost::{slot_static_cost, transition_cost, CostBreakdown, CostWeights};
use edgealloc::health::{FallbackRung, SlotHealth};
use edgealloc::system::EdgeCloudSystem;
use edgealloc::{Allocation, Instance};
use mobility::churn::{self, ChurnConfig, ChurnEvent};
use mobility::prices::{self, PriceConfig};
use mobility::taxi::TaxiConfig;
use optim::convex::SchurKernel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::{HostileKind, HostilePlan};
use std::sync::mpsc::sync_channel;
use std::time::Instant;
use stream::{
    updates_from_trace, ChurnAware, SlotUpdate, StreamConfig, StreamDriver, StreamOutcome,
    StreamState,
};

/// Per-slot churn fraction of the stream workload.
pub const STREAM_CHURN: f64 = 0.005;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Taxi mobility, J=200, T=24, default regularized solver (the Auto
    /// kernel picks the blocked Schur kernel): Newton-bound per-user slots.
    Taxi200,
    /// Taxi mobility, J=1M, pooled cohorts with 10% λ-classes on the
    /// blocked kernel: sweep- and set-up-bound slots.
    Cohort1m,
    /// A 0.5%-per-slot churn stream over ~100k users through the streaming
    /// driver with incremental delta solves.
    Stream100k,
    /// Taxi mobility, J=10k, T=12, with a 2× flash crowd on station 0 over
    /// slots 8–11, pooled cohorts on the blocked kernel: the sentinel →
    /// shed → survivor restrict/scatter path. (At J=60 on the per-user path
    /// the shed slots take seconds to minutes and some seeds fall to the
    /// per-slot LP, too unsteady to time.)
    Flash10k,
}

/// Users and slots of one workload pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Users (the initial population for the stream).
    pub users: usize,
    /// Slots per pass.
    pub slots: usize,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Taxi200,
        Workload::Cohort1m,
        Workload::Stream100k,
        Workload::Flash10k,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Taxi200 => "taxi-200",
            Workload::Cohort1m => "cohort-1m",
            Workload::Stream100k => "stream-100k",
            Workload::Flash10k => "flash-10k",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark size of one pass.
    pub fn size(self) -> Size {
        match self {
            Workload::Taxi200 => Size {
                users: 200,
                slots: 24,
            },
            Workload::Cohort1m => Size {
                users: 1_000_000,
                slots: 4,
            },
            Workload::Stream100k => Size {
                users: 100_000,
                slots: 129,
            },
            Workload::Flash10k => Size {
                users: 10_000,
                slots: 12,
            },
        }
    }

    /// Whether the workload decides slots through cohort aggregation.
    pub fn uses_cohorts(self) -> bool {
        !matches!(self, Workload::Taxi200)
    }

    /// The hostile events injected into the workload's instance.
    pub fn hostile_plan(self, seed: u64) -> HostilePlan {
        match self {
            Workload::Flash10k => HostilePlan {
                seed,
                events: vec![HostileKind::FlashCrowd {
                    station: 0,
                    start: 8,
                    duration: 4,
                    attraction: 0.8,
                    surge: 2.0,
                }],
            },
            _ => HostilePlan::none(),
        }
    }

    /// The online algorithm the workload runs (solver threads = 1, no
    /// slot deadline: deadline rungs would make results timing-dependent).
    pub fn algorithm(self) -> OnlineRegularized {
        if self.uses_cohorts() {
            OnlineRegularized::with_defaults()
                .with_schur_kernel(SchurKernel::Blocked)
                .with_cohort_config(pooled_cohorts())
        } else {
            OnlineRegularized::with_defaults()
        }
    }
}

/// The production large-J cohort configuration: pooled references and 10%
/// geometric λ-classes.
pub fn pooled_cohorts() -> CohortConfig {
    CohortConfig {
        lambda_tolerance: Some(0.1),
        pool_references: true,
        ..CohortConfig::default()
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Milliseconds since `start`.
pub fn millis(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Milliseconds a fixed calibration kernel takes right now: a dependent
/// floating-point chain plus a strided sweep over a 4 MiB buffer. The
/// kernel is the benchmark's own code, so program changes never move it;
/// contention from other tenants of the machine slows it roughly as much
/// as it slows the workload, and slot times are scaled by it (see
/// [`Calibration`]).
pub fn calibration_ms(buf: &mut [f64]) -> f64 {
    let started = Instant::now();
    let mut acc = 0.0_f64;
    let mut x = 1.000_001_f64;
    for _ in 0..200_000 {
        x = x * 1.000_000_1 + 1e-9;
        acc += x;
    }
    let n = buf.len();
    for k in 0..n {
        let j = (k * 4099) % n;
        buf[j] += acc * 1e-12;
        acc += buf[j];
    }
    std::hint::black_box(acc);
    millis(started)
}

/// Machine-speed calibration of slot times: the calibration kernel runs
/// right before and right after each slot, and the slot's time is scaled
/// by `REFERENCE_MS / mean(before, after)`, i.e. reported in milliseconds
/// at the speed the reference machine runs the kernel at.
pub struct Calibration {
    buf: Vec<f64>,
}

impl Calibration {
    /// The kernel's time on an idle 2-vCPU 2.1 GHz virtual machine.
    pub const REFERENCE_MS: f64 = 2.5;

    /// A calibration with its own sweep buffer.
    pub fn new() -> Self {
        Calibration {
            buf: vec![1.0; 1 << 19],
        }
    }

    /// Runs the kernel once and returns its time in milliseconds.
    pub fn sample(&mut self) -> f64 {
        calibration_ms(&mut self.buf)
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

/// A generated batch workload: the instance and its algorithm, with the
/// set-up time split by layer.
pub struct BatchSetup {
    /// The instance the slots are decided on.
    pub inst: Instance,
    /// The algorithm, freshly constructed.
    pub alg: OnlineRegularized,
    /// Mobility generation (including hostile shaping), seconds.
    pub generate_s: f64,
    /// `Instance::synthetic` plus hostile scaling, seconds.
    pub synthetic_s: f64,
    /// Everything before slot 0, seconds.
    pub setup_s: f64,
}

/// Generates a batch workload from `seed`, recording set-up spans on `tr`.
///
/// # Panics
///
/// Panics if called with [`Workload::Stream100k`].
pub fn batch_setup(w: Workload, size: Size, seed: u64, tr: &mut Tracer) -> BatchSetup {
    assert!(
        w != Workload::Stream100k,
        "the stream workload has no instance"
    );
    let started = Instant::now();
    let root = tr.open("setup", SpanId::NONE, None);
    let net = mobility::rome_metro();
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = TaxiConfig {
        num_users: size.users,
        num_slots: size.slots,
        ..TaxiConfig::default()
    };
    let plan = w.hostile_plan(seed);
    let mob = tr.scope("mobility.generate", root, None, || {
        let mob = mobility::taxi::generate(&net, &cfg, &mut rng);
        // Shaping happens before synthesis so capacities are provisioned
        // for the benign trace and the crowd genuinely overloads them.
        plan.shape_mobility(&net, mob, &mut rng)
    });
    let generate_s = secs(started);
    let synth = Instant::now();
    let inst = tr.scope("instance.synthetic", root, None, || {
        let mut inst = Instance::synthetic(&net, mob, &mut rng);
        plan.apply(&mut inst);
        inst
    });
    let synthetic_s = secs(synth);
    let alg = tr.scope("algorithm.new", root, None, || w.algorithm());
    tr.close(root);
    BatchSetup {
        inst,
        alg,
        generate_s,
        synthetic_s,
        setup_s: secs(started),
    }
}

/// One decided batch slot, as [`drive_batch`] hands it to its observer.
pub struct BatchSlot<'a> {
    /// Slot index.
    pub t: usize,
    /// Run-wide slot number (the span slot id).
    pub slot: usize,
    /// The raw slot view the decision was made on.
    pub raw: &'a SlotInput<'a>,
    /// The previous slot's decision.
    pub prev: &'a Allocation,
    /// This slot's decision.
    pub x: &'a Allocation,
    /// This slot's health record.
    pub health: &'a SlotHealth,
    /// Slot latency: view build plus `decide_slot`, milliseconds.
    pub ms: f64,
    /// Mean calibration-kernel time right before and after the slot.
    pub cal_ms: f64,
    /// The view build alone, milliseconds.
    pub view_ms: f64,
}

/// Decides every slot of `inst` exactly as [`edgealloc::run_online`] does,
/// timing each slot from outside and handing it to `on_slot` before the
/// next one starts. Work done in `on_slot` and the calibration runs around
/// each slot are outside the timed region. Slots are numbered run-wide from `first_slot` on `tr`'s spans.
pub fn drive_batch<A: OnlineAlgorithm + ?Sized>(
    inst: &Instance,
    alg: &mut A,
    tr: &mut Tracer,
    cal: &mut Calibration,
    first_slot: usize,
    mut on_slot: impl FnMut(&mut Tracer, &BatchSlot<'_>),
) {
    alg.reset();
    let mut prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
    for t in 0..inst.num_slots() {
        let slot = first_slot + t;
        let span = tr.open("slot", SpanId::NONE, Some(slot));
        let cal_before = cal.sample();
        let started = Instant::now();
        let view = tr.open("instance.slot_view", span, Some(slot));
        let scaled = inst.scaled_slot(t);
        let raw = match &scaled {
            Some(s) => s.as_input(inst, t),
            None => SlotInput::from_instance(inst, t),
        };
        tr.close(view);
        let view_ms = millis(started);
        let decide = tr.open("decide_slot", span, Some(slot));
        let (x, health) = decide_slot(alg, &raw, &prev);
        tr.close(decide);
        let ms = millis(started);
        tr.close(span);
        let cal_ms = (cal_before + cal.sample()) / 2.0;
        on_slot(
            tr,
            &BatchSlot {
                t,
                slot,
                raw: &raw,
                prev: &prev,
                x: &x,
                health: &health,
                ms,
                cal_ms,
                view_ms,
            },
        );
        prev = x;
    }
}

/// ℙ₀ cost of one batch slot: its static cost plus the transition into it,
/// accumulated in the order [`edgealloc::evaluate_trajectory`] uses, so the
/// running sum over a pass equals it bit for bit.
pub fn batch_slot_cost(
    inst: &Instance,
    t: usize,
    prev: &Allocation,
    x: &Allocation,
) -> CostBreakdown {
    let mut cost = slot_static_cost(inst, t, x);
    cost += transition_cost(inst, prev, x);
    cost
}

/// A generated stream workload.
pub struct StreamSetup {
    /// The initial (empty) stream state.
    pub state: StreamState,
    /// One update per slot; slot 0 carries the initial mass arrival.
    pub updates: Vec<SlotUpdate>,
    /// The main (full-solve) algorithm.
    pub alg: OnlineRegularized,
    /// The driver configuration.
    pub cfg: StreamConfig,
    /// Churn-trace generation, seconds.
    pub generate_s: f64,
    /// System, prices, state and update stream construction, seconds.
    pub build_s: f64,
    /// Everything before slot 0, seconds.
    pub setup_s: f64,
}

/// The stream driver configuration: incremental path on (up to 4× the
/// workload's churn rate), the default refresh cadence, pooled cohorts.
pub fn stream_config(churn_rate: f64) -> StreamConfig {
    StreamConfig {
        max_incremental_churn: (churn_rate * 4.0).min(0.5),
        delta_cohorts: pooled_cohorts(),
        ..StreamConfig::default()
    }
}

/// Generates the churn stream from `seed`: taxi-hotspot moves plus
/// birth/death at `churn_rate` per slot, capacities sized for the initial
/// population at 50% utilization, §V-A price processes. Set-up spans go
/// to `tr`.
pub fn stream_setup(size: Size, churn_rate: f64, seed: u64, tr: &mut Tracer) -> StreamSetup {
    let started = Instant::now();
    let root = tr.open("setup", SpanId::NONE, None);
    let net = mobility::rome_metro();
    let mut rng = StdRng::seed_from_u64(seed);
    let per_kind = churn_rate / 3.0;
    let cfg = ChurnConfig {
        initial_users: size.users,
        num_slots: size.slots,
        // Arrivals balance expected departures, so the population hovers
        // around `users` and the three kinds split the churn budget.
        arrival_rate: per_kind * size.users as f64,
        depart_prob: per_kind,
        move_prob: per_kind,
        ..ChurnConfig::default()
    };
    let trace = tr.scope("mobility.generate", root, None, || {
        churn::generate(&net, &cfg, &mut rng)
    });
    let generate_s = secs(started);

    let build = Instant::now();
    let span = tr.open("stream.state_build", root, None);
    // Capacities ∝ initial attachment frequency (Laplace-smoothed), total
    // = Σλ / 0.5.
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
        size.slots,
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
    tr.close(span);
    let build_s = secs(build);
    let alg = tr.scope("algorithm.new", root, None, || {
        Workload::Stream100k.algorithm()
    });
    let cfg = stream_config(churn_rate);
    tr.close(root);
    StreamSetup {
        state,
        updates,
        alg,
        cfg,
        generate_s,
        build_s,
        setup_s: secs(started),
    }
}

/// Sees each stream slot before and after its [`StreamDriver::step`].
pub trait StreamObserver<A: ChurnAware> {
    /// Called before the step of `update`.
    fn before(&mut self, _driver: &StreamDriver<A>, _update: &SlotUpdate) {}
    /// Called after the step of `update`, which took `ms` milliseconds of
    /// wall time with the calibration kernel at `cal_ms` around it.
    fn after(&mut self, driver: &StreamDriver<A>, update: &SlotUpdate, ms: f64, cal_ms: f64);
}

/// Runs an update stream exactly as [`stream::run_stream`] does — one
/// producer thread staging updates in a bounded channel of
/// `cfg.pipeline_depth` (a closed loop: a full channel blocks the
/// producer) while the driver steps — timing each step at its boundary and
/// showing each slot to `obs` outside the timed region.
pub fn drive_stream<A: ChurnAware>(
    state: StreamState,
    alg: A,
    updates: Vec<SlotUpdate>,
    cfg: StreamConfig,
    obs: &mut impl StreamObserver<A>,
    cal: &mut Calibration,
) -> StreamOutcome {
    let depth = cfg.pipeline_depth.max(1);
    let mut driver = StreamDriver::new(state, alg, cfg);
    std::thread::scope(|s| {
        let (tx, rx) = sync_channel::<SlotUpdate>(depth);
        s.spawn(move || {
            for u in updates {
                if tx.send(u).is_err() {
                    return;
                }
            }
        });
        for update in rx {
            obs.before(&driver, &update);
            let cal_before = cal.sample();
            let started = Instant::now();
            driver.step(&update);
            let ms = millis(started);
            let cal_ms = (cal_before + cal.sample()) / 2.0;
            obs.after(&driver, &update, ms, cal_ms);
        }
    });
    driver.finish()
}

/// Relative slack a bound may be missed by and still count as met up to
/// floating-point round-off: `Σ_j x_ij ≤ C_i + ROUND_OFF·max(C_i, 1)` and
/// `Σ_i x_ij ≥ λ_j − ROUND_OFF·max(λ_j, 1)`.
pub const ROUND_OFF: f64 = 1e-9;

/// Feasibility of one decision, evaluated with the same sums as
/// [`Allocation::cloud_total`] and [`Allocation::user_total`]: exactly
/// (no tolerance) and up to [`ROUND_OFF`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Feasibility {
    /// Largest `Σ_j x_ij − C_i` over clouds (negative when all have room).
    pub capacity_excess: f64,
    /// Clouds over capacity beyond round-off.
    pub over_capacity: usize,
    /// Clouds over capacity at all.
    pub strict_over_capacity: usize,
    /// Users whose demand is unmet beyond round-off.
    pub unmet_users: usize,
    /// Users with `Σ_i x_ij < λ_j`.
    pub strict_unmet_users: usize,
    /// Whether any entry is negative or non-finite.
    pub malformed: bool,
}

impl Feasibility {
    /// Checks `x` against `capacities` and `workloads`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn check(capacities: &[f64], workloads: &[f64], x: &Allocation) -> Feasibility {
        let (num_clouds, num_users) = (x.num_clouds(), x.num_users());
        assert_eq!(capacities.len(), num_clouds, "capacity length mismatch");
        assert_eq!(workloads.len(), num_users, "workload length mismatch");
        let flat = x.as_flat();
        let malformed = flat.iter().any(|v| !v.is_finite() || *v < 0.0);
        let mut capacity_excess = f64::NEG_INFINITY;
        let (mut over_capacity, mut strict_over_capacity) = (0, 0);
        for (i, &cap) in capacities.iter().enumerate() {
            let total = x.cloud_total(i);
            capacity_excess = capacity_excess.max(total - cap);
            strict_over_capacity += usize::from(!(total <= cap));
            over_capacity += usize::from(!(total <= cap + ROUND_OFF * cap.max(1.0)));
        }
        // Row sweeps in ascending-cloud order: the same additions, in the
        // same order, as `user_total`, without its strided access.
        let mut totals = vec![0.0; num_users];
        for row in flat.chunks_exact(num_users.max(1)).take(num_clouds) {
            for (t, v) in totals.iter_mut().zip(row) {
                *t += v;
            }
        }
        let (mut unmet_users, mut strict_unmet_users) = (0, 0);
        for (&total, &lambda) in totals.iter().zip(workloads) {
            strict_unmet_users += usize::from(!(total >= lambda));
            unmet_users += usize::from(!(total >= lambda - ROUND_OFF * lambda.max(1.0)));
        }
        Feasibility {
            capacity_excess,
            over_capacity,
            strict_over_capacity,
            unmet_users,
            strict_unmet_users,
            malformed,
        }
    }

    /// Feasibility up to round-off, allowing `shed` unmet demands (the
    /// users a shedding slot deferred off the edge).
    pub fn holds(&self, shed: usize) -> bool {
        !self.malformed && self.over_capacity == 0 && self.unmet_users <= shed
    }

    /// Exact feasibility, allowing `shed` unmet demands.
    pub fn holds_exactly(&self, shed: usize) -> bool {
        !self.malformed && self.strict_over_capacity == 0 && self.strict_unmet_users <= shed
    }
}

/// Whether a decided slot counts as a failure: infeasible beyond
/// round-off, or decided by a rung that abandons the regularized solve.
pub fn slot_failed(health: &SlotHealth, feasible: bool) -> bool {
    !feasible
        || matches!(
            health.rung,
            FallbackRung::PerSlotLp | FallbackRung::DeadlineSalvage | FallbackRung::CarryForward
        )
}

/// Demands a slot may leave unmet: the users its shedding rung deferred.
pub fn allowed_unmet(health: &SlotHealth) -> usize {
    if health.rung == FallbackRung::Shedding {
        health.shed_users
    } else {
        0
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB; `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
