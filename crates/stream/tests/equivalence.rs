//! The streaming equivalence gate: a faulted batch scenario replayed as an
//! event stream must reproduce the batch pipeline exactly — same
//! allocations bit for bit (hence per-slot costs well inside the 1e-6
//! relative gate), the stream's own per-slot ℙ₀ costs bit for bit equal to
//! the batch cost model's, identical degradation-rung ladders, and exact
//! feasibility on every slot's effective (scaled) view.

use edgealloc::algorithms::{run_online, OnlineRegularized};
use edgealloc::cohort::CohortConfig;
use edgealloc::cost::trajectory_timeline;
use edgealloc::instance::Instance;
use mobility::taxi::{self, TaxiConfig};
use optim::convex::SchurKernel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shard::OnlineSharded;
use stream::{replay_instance, run_stream, ChurnAware, StreamConfig, StreamOutcome};

const USERS: usize = 30;
const SLOTS: usize = 24;

/// A 30-user × 24-slot taxi scenario with the whole fault menagerie:
/// corrupted prices (NaN, negative), a demand surge, slot-local capacity
/// degradation, a NaN capacity factor (slot-local cloud loss), and a
/// combined surge+degradation slot.
fn faulted_instance() -> Instance {
    let net = mobility::rome_metro();
    let mut rng = StdRng::seed_from_u64(30);
    let mob = taxi::generate(
        &net,
        &TaxiConfig {
            num_users: USERS,
            num_slots: SLOTS,
            ..TaxiConfig::default()
        },
        &mut rng,
    );
    let mut inst = Instance::synthetic(&net, mob, &mut rng);
    inst.inject_operation_price(5, 2, f64::NAN);
    inst.inject_operation_price(9, 0, -3.0);
    inst.scale_demand(7, 1.15);
    inst.scale_capacity(11, 1, 0.5);
    inst.scale_capacity(15, 3, f64::NAN);
    inst.scale_demand(16, 1.1);
    inst.scale_capacity(16, 0, 0.7);
    inst
}

/// Replays `inst` through the streaming driver in equivalence mode (no
/// incremental solving) and checks the three gate properties against the
/// batch trajectory produced by `make_alg()`.
fn assert_equivalent<A, F>(inst: &Instance, make_alg: F)
where
    A: ChurnAware,
    F: Fn() -> A,
{
    let mut batch_alg = make_alg();
    let batch = run_online(inst, &mut batch_alg).expect("batch run");

    let (state, updates) = replay_instance(inst);
    let cfg = StreamConfig {
        keep_allocations: true,
        ..StreamConfig::default()
    };
    let out: StreamOutcome = run_stream(state, make_alg(), updates, cfg);

    assert_eq!(out.allocations.len(), SLOTS);
    assert_eq!(
        out.incremental_slots, 0,
        "equivalence mode never solves incrementally"
    );
    for t in 0..SLOTS {
        assert_eq!(
            out.allocations[t].as_flat(),
            batch.allocations[t].as_flat(),
            "slot {t}: streamed allocation diverged from batch"
        );
        assert_eq!(
            out.health[t].rung, batch.health[t].rung,
            "slot {t}: rung ladder diverged"
        );
        assert_eq!(out.users[t], USERS);
    }

    // Per-slot costs within 1e-6 relative (bitwise equality implies it;
    // the gate is stated in costs, so check costs explicitly). Evaluate on
    // the sanitized instance: the corrupted NaN price would turn *both*
    // sides' costs NaN, which compares as diverged.
    let (clean, _) = inst.sanitized();
    let tl_batch = trajectory_timeline(&clean, &batch.allocations);
    let tl_stream = trajectory_timeline(&clean, &out.allocations);
    for t in 0..SLOTS {
        let (b, s) = (tl_batch[t].total(), tl_stream[t].total());
        assert!(
            (b - s).abs() <= 1e-6 * b.abs().max(1.0),
            "slot {t}: cost {s} vs batch {b}"
        );
    }

    // The costs the stream charged itself are the batch cost model's, bit
    // for bit, on the instance as given: slot 5's NaN price makes both
    // sides' operation cost NaN.
    let tl_model = trajectory_timeline(inst, &batch.allocations);
    for t in 0..SLOTS {
        let (s, b) = (out.costs[t], tl_model[t]);
        for (name, sv, bv) in [
            ("operation", s.operation, b.operation),
            ("quality", s.quality, b.quality),
            ("reconfig", s.reconfig, b.reconfig),
            ("migration", s.migration, b.migration),
        ] {
            assert!(
                sv.to_bits() == bv.to_bits() || (sv.is_nan() && bv.is_nan()),
                "slot {t}: streamed {name} cost {sv} vs batch model {bv}"
            );
        }
    }

    // Exact feasibility on every slot's effective (scaled) view.
    for t in 0..SLOTS {
        let x = &out.allocations[t];
        let (workloads, capacities) = match inst.scaled_slot(t) {
            Some(s) => {
                let input = s.as_input(inst, t);
                (input.workloads.to_vec(), input.system.capacities().to_vec())
            }
            None => (
                inst.workloads().to_vec(),
                inst.system().capacities().to_vec(),
            ),
        };
        assert!(
            x.demand_shortfall(&workloads) <= 1e-6,
            "slot {t}: demand shortfall {}",
            x.demand_shortfall(&workloads)
        );
        assert!(
            x.capacity_excess(&capacities) <= 1e-6,
            "slot {t}: capacity excess {}",
            x.capacity_excess(&capacities)
        );
    }
}

#[test]
fn replayed_stream_matches_batch_regularized() {
    let inst = faulted_instance();
    assert_equivalent(&inst, || {
        OnlineRegularized::with_defaults().with_schur_kernel(SchurKernel::Blocked)
    });
}

#[test]
fn replayed_stream_matches_batch_regularized_cohorts() {
    let inst = faulted_instance();
    assert_equivalent(&inst, || {
        OnlineRegularized::with_defaults()
            .with_schur_kernel(SchurKernel::Blocked)
            .with_cohort_config(CohortConfig::default())
    });
}

#[test]
fn replayed_stream_matches_batch_sharded() {
    let inst = faulted_instance();
    assert_equivalent(&inst, || {
        OnlineSharded::new(3, OnlineRegularized::with_defaults())
    });
}
