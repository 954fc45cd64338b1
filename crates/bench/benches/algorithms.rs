//! Criterion benchmarks and ablations of the allocation algorithms:
//! per-slot ℙ₂ solves (including the capacity-mode ablation), the greedy
//! per-slot LP, and the exact projection's capacity repair.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use edgealloc::algorithms::SlotInput;
use edgealloc::allocation::Allocation;
use edgealloc::exact::project_exact;
use edgealloc::instance::Instance;
use edgealloc::programs::p2::{self, CapacityMode, Epsilons};
use edgealloc::programs::per_slot_lp::{add_dynamic_terms, base_lp, StaticTerms};
use optim::convex::BarrierOptions;
use rand::SeedableRng;

fn instance(users: usize, slots: usize, seed: u64) -> Instance {
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

fn bench_p2_single_slot(c: &mut Criterion) {
    let mut group = c.benchmark_group("p2_single_slot");
    group.sample_size(10);
    for users in [10usize, 30, 60] {
        let inst = instance(users, 2, 1);
        let input = SlotInput::from_instance(&inst, 0);
        let prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
        group.bench_with_input(BenchmarkId::from_parameter(users), &users, |b, _| {
            b.iter(|| {
                p2::solve(
                    &input,
                    &prev,
                    Epsilons::default(),
                    &BarrierOptions::default(),
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_greedy_slot_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy_slot_lp");
    group.sample_size(10);
    for users in [10usize, 30, 60] {
        let inst = instance(users, 2, 3);
        let input = SlotInput::from_instance(&inst, 0);
        let prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
        group.bench_with_input(BenchmarkId::from_parameter(users), &users, |b, _| {
            b.iter(|| {
                let mut lp = base_lp(
                    &input,
                    StaticTerms {
                        operation: true,
                        quality: true,
                    },
                );
                add_dynamic_terms(&mut lp, &input, &prev);
                lp.solve().unwrap()
            });
        });
    }
    group.finish();
}

fn bench_repair(c: &mut Criterion) {
    let mut group = c.benchmark_group("capacity_repair");
    group.sample_size(20);
    let inst = instance(60, 2, 4);
    let input = SlotInput::from_instance(&inst, 0);
    // An intentionally over-capacity allocation: everything piled on cloud 0.
    let mut x = Allocation::zeros(inst.num_clouds(), inst.num_users());
    for j in 0..inst.num_users() {
        x.set(0, j, inst.workload(j));
    }
    group.bench_function("pile_on_one_cloud", |b| {
        b.iter(|| {
            let mut y = x.clone();
            project_exact(&input, &mut y).unwrap();
            y
        })
    });
    group.finish();
}

fn bench_capacity_mode(c: &mut Criterion) {
    // Ablation: the paper's (10b) rows (dense, I·(I−1)·J coupling entries)
    // vs explicit per-cloud capacity rows (sparse).
    let mut group = c.benchmark_group("p2_capacity_mode");
    group.sample_size(10);
    let inst = instance(30, 2, 5);
    let input = SlotInput::from_instance(&inst, 0);
    let prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
    group.bench_function("paper_10b", |b| {
        b.iter(|| {
            p2::solve_with_mode(
                &input,
                &prev,
                Epsilons::default(),
                &BarrierOptions::default(),
                CapacityMode::Paper10b,
            )
            .unwrap()
        })
    });
    group.bench_function("explicit", |b| {
        b.iter(|| {
            p2::solve_with_mode(
                &input,
                &prev,
                Epsilons::default(),
                &BarrierOptions::default(),
                CapacityMode::Explicit,
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_p2_single_slot,
    bench_greedy_slot_lp,
    bench_repair,
    bench_capacity_mode
);
criterion_main!(benches);
