//! Pins the benchmark's slot loops to the library's at small J: the
//! driven batch loop reproduces `run_online`, and the driven stream loop
//! reproduces `run_stream`, allocation for allocation, bit for bit. The
//! benchmark's timings and checks are then about the same decisions the
//! library makes.

use edgealloc::algorithms::run_online;
use edgealloc::cost::evaluate_trajectory;
use edgealloc::health::SlotHealth;
use edgealloc::{Allocation, CostBreakdown, FallbackRung};
use perfbench::trace::Tracer;
use perfbench::{
    batch_setup, batch_slot_cost, drive_batch, drive_stream, stream_setup, Calibration,
    Feasibility, Size, StreamObserver, Workload, STREAM_CHURN,
};
use stream::{run_stream, ChurnAware, SlotUpdate, StreamConfig, StreamDriver};

const SEED: u64 = 7;

#[test]
fn batch_loop_matches_run_online() {
    // Small sizes of each batch workload; the flash crowd keeps its surge
    // window (slots 8–11) inside the horizon.
    let cases = [
        (
            Workload::Taxi200,
            Size {
                users: 30,
                slots: 6,
            },
        ),
        (
            Workload::Cohort1m,
            Size {
                users: 3000,
                slots: 3,
            },
        ),
        (
            Workload::Flash10k,
            Size {
                users: 600,
                slots: 12,
            },
        ),
    ];
    for (w, size) in cases {
        let mut setup = batch_setup(w, size, SEED, &mut Tracer::new(false));
        let reference = run_online(&setup.inst, &mut w.algorithm()).expect("horizon");

        let mut xs: Vec<Allocation> = Vec::new();
        let mut hs: Vec<SlotHealth> = Vec::new();
        let mut cost = CostBreakdown::default();
        let inst = &setup.inst;
        let (mut tr, mut cal) = (Tracer::new(false), Calibration::new());
        drive_batch(inst, &mut setup.alg, &mut tr, &mut cal, 0, |_, s| {
            cost += batch_slot_cost(inst, s.t, s.prev, s.x);
            xs.push(s.x.clone());
            hs.push(s.health.clone());
        });

        assert_eq!(xs.len(), reference.allocations.len(), "{}", w.name());
        for (t, (x, r)) in xs.iter().zip(&reference.allocations).enumerate() {
            assert_eq!(
                x.as_flat(),
                r.as_flat(),
                "{} slot {t}: allocation",
                w.name()
            );
            assert_eq!(
                hs[t].rung,
                reference.health[t].rung,
                "{} slot {t}: rung",
                w.name()
            );
        }
        let expected = evaluate_trajectory(inst, &reference.allocations).total();
        assert_eq!(
            cost.total().to_bits(),
            expected.to_bits(),
            "{}: cost",
            w.name()
        );
        if w == Workload::Flash10k {
            assert!(
                hs.iter().any(|h| h.rung == FallbackRung::Shedding),
                "the flash crowd never reached the shedding rung"
            );
        }
        if w.uses_cohorts() {
            assert!(
                hs.iter().all(|h| h.cohorts > 0),
                "a cohort slot ran per-user"
            );
        }
    }
}

/// Keeps each stepped slot's allocation.
struct Keep(Vec<Allocation>);

impl<A: ChurnAware> StreamObserver<A> for Keep {
    fn after(&mut self, driver: &StreamDriver<A>, _: &SlotUpdate, _: f64, _: f64) {
        self.0.push(driver.allocation().clone());
    }
}

#[test]
fn stream_loop_matches_run_stream() {
    let size = Size {
        users: 2000,
        slots: 20,
    };
    let s = stream_setup(size, STREAM_CHURN, SEED, &mut Tracer::new(false));
    let cfg = StreamConfig {
        keep_allocations: true,
        ..s.cfg.clone()
    };
    let reference = run_stream(
        s.state.clone(),
        s.alg.clone(),
        s.updates.clone(),
        cfg.clone(),
    );
    let mut keep = Keep(Vec::new());
    let driven = drive_stream(
        s.state,
        s.alg,
        s.updates,
        cfg,
        &mut keep,
        &mut Calibration::new(),
    );

    assert!(
        driven.incremental_slots > 0,
        "the incremental path never ran"
    );
    assert_eq!(driven.incremental_slots, reference.incremental_slots);
    assert_eq!(driven.allocations.len(), reference.allocations.len());
    for (t, (x, r)) in driven
        .allocations
        .iter()
        .zip(&reference.allocations)
        .enumerate()
    {
        assert_eq!(x.as_flat(), r.as_flat(), "slot {t}: allocation");
        assert_eq!(
            keep.0[t].as_flat(),
            r.as_flat(),
            "slot {t}: observed allocation"
        );
        assert_eq!(
            driven.ids_per_slot[t], reference.ids_per_slot[t],
            "slot {t}: ids"
        );
        assert_eq!(
            driven.health[t].rung, reference.health[t].rung,
            "slot {t}: rung"
        );
    }
    assert_eq!(
        driven.total_cost().total().to_bits(),
        reference.total_cost().total().to_bits()
    );
}

#[test]
fn feasibility_separates_round_off_from_violations() {
    let caps = [1.0, 1.0];
    let lambdas = [1.0];
    let exact = Allocation::from_flat(2, 1, vec![0.5, 0.5]);
    let f = Feasibility::check(&caps, &lambdas, &exact);
    assert!(f.holds(0) && f.holds_exactly(0));

    // One ulp short of the demand: met up to round-off, not exactly.
    let ulp_short = Allocation::from_flat(2, 1, vec![0.5, 0.5 - f64::EPSILON / 2.0]);
    let f = Feasibility::check(&caps, &lambdas, &ulp_short);
    assert!(f.holds(0) && !f.holds_exactly(0));
    assert_eq!(f.strict_unmet_users, 1);

    // A real shortfall and a real overload fail both, unless shed.
    let short = Allocation::from_flat(2, 1, vec![0.5, 0.4]);
    let f = Feasibility::check(&caps, &lambdas, &short);
    assert!(!f.holds(0) && f.holds(1));
    let over = Allocation::from_flat(2, 1, vec![1.5, 0.0]);
    assert!(!Feasibility::check(&caps, &lambdas, &over).holds(1));
}
