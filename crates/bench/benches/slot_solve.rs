//! Criterion benchmark isolating one online ℙ₂ slot solve from the
//! proportional start: rebuilding the `BarrierSolver` from scratch versus
//! refreshing a persistent [`P2Workspace`] in place, as `OnlineRegularized`
//! does on every slot of a horizon.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use edgealloc::prelude::*;
use edgealloc::programs::p2::{self, CapacityMode, Epsilons, P2Workspace};
use edgealloc::SlotInput;
use optim::convex::BarrierOptions;
use rand::SeedableRng;

/// A taxi instance at the profiling shape (scaled down for bench runtime),
/// plus the slot-0 solution used as the previous allocation for slot 1.
fn fixture() -> (Instance, Allocation) {
    fixture_sized(15)
}

/// Same fixture at an arbitrary user count. Slot 0 is solved just to
/// obtain a realistic previous allocation.
fn fixture_sized(num_users: usize) -> (Instance, Allocation) {
    let net = mobility::rome_metro();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let cfg = mobility::taxi::TaxiConfig {
        num_users,
        num_slots: 2,
        ..Default::default()
    };
    let mob = mobility::taxi::generate(&net, &cfg, &mut rng);
    let inst = Instance::synthetic(&net, mob, &mut rng);
    let input0 = SlotInput::from_instance(&inst, 0);
    let zeros = Allocation::zeros(inst.num_clouds(), inst.num_users());
    let sol0 = p2::solve(
        &input0,
        &zeros,
        Epsilons::default(),
        &BarrierOptions::default(),
    )
    .expect("slot 0 solve");
    (inst, sol0.allocation)
}

fn bench_slot_solve(c: &mut Criterion) {
    let (inst, prev) = fixture();
    let input = SlotInput::from_instance(&inst, 1);
    let eps = Epsilons::default();
    let opts = BarrierOptions::default();
    let start = p2::proportional_start(&input).expect("capacity exceeds demand");

    let mut group = c.benchmark_group("slot_solve");
    group.sample_size(10);

    // Rebuild matrix, groups, and Schur coupling, then solve.
    group.bench_function("cold_rebuild", |b| {
        b.iter(|| {
            let sol = p2::solve(black_box(&input), &prev, eps, &opts).expect("cold solve");
            black_box(sol.objective)
        });
    });

    // Refresh values in the persistent workspace, then solve.
    let mut ws =
        P2Workspace::new(&input, &prev, eps, CapacityMode::Paper10b).expect("workspace build");
    group.bench_function("refresh", |b| {
        b.iter(|| {
            ws.refresh(black_box(&input), &prev).expect("refresh");
            let sol = ws.solve(Some(&start), &opts).expect("refreshed solve");
            black_box(sol.objective)
        });
    });
    group.finish();
}

/// The large-J regime: a J=2000 slot solve, where a dense Woodbury
/// complement would pay a (J+2I)³ factorization per Newton step and the
/// user-blocked Schur kernel pays O(J·I²) plus one small Cholesky.
fn bench_slot_solve_j2000(c: &mut Criterion) {
    let (inst, prev) = fixture_sized(2000);
    let input = SlotInput::from_instance(&inst, 1);
    let eps = Epsilons::default();
    let opts = BarrierOptions::default();
    let start = p2::proportional_start(&input).expect("capacity exceeds demand");

    let mut group = c.benchmark_group("slot_solve_j2000");
    group.sample_size(10);

    let mut ws =
        P2Workspace::new(&input, &prev, eps, CapacityMode::Paper10b).expect("workspace build");
    group.bench_function("refresh_blocked", |b| {
        b.iter(|| {
            ws.refresh(black_box(&input), &prev).expect("refresh");
            let sol = ws.solve(Some(&start), &opts).expect("refreshed solve");
            black_box(sol.objective)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_slot_solve, bench_slot_solve_j2000);
criterion_main!(benches);
