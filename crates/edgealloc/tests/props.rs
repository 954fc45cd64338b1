//! Property-based tests of the cost model, allocations, and the capacity
//! repair projection.

use edgealloc::algorithms::{repair_capacity, SlotInput};
use edgealloc::allocation::Allocation;
use edgealloc::cost::{evaluate_trajectory, slot_static_cost, transition_cost, CostWeights};
use edgealloc::instance::Instance;
use edgealloc::system::EdgeCloudSystem;
use mobility::MobilityInput;
use proptest::prelude::*;

/// Strategy: a small random instance with 2–4 clouds, 1–4 users, 2–4 slots.
fn small_instance() -> impl Strategy<Value = Instance> {
    (
        2usize..5,
        1usize..5,
        2usize..5,
        proptest::collection::vec(0.1f64..3.0, 64),
        proptest::collection::vec(0usize..4, 32),
    )
        .prop_map(|(nc, nu, nt, raw, att)| {
            let workloads: Vec<f64> = (0..nu)
                .map(|j| 1.0 + (raw[(j * 3) % raw.len()] * 2.0).round())
                .collect();
            let total_workload: f64 = workloads.iter().sum();
            // Capacities proportional to random shares, totalling 1.5·Σλ so
            // every generated instance is feasible.
            let shares: Vec<f64> = (0..nc).map(|i| 0.2 + raw[i % raw.len()]).collect();
            let share_sum: f64 = shares.iter().sum();
            let capacities: Vec<f64> = shares
                .iter()
                .map(|s| 1.5 * total_workload * s / share_sum)
                .collect();
            let mut delay = vec![vec![0.0; nc]; nc];
            for i in 0..nc {
                for j in (i + 1)..nc {
                    let d = raw[(i * 5 + j) % raw.len()];
                    delay[i][j] = d;
                    delay[j][i] = d;
                }
            }
            let system = EdgeCloudSystem::new(capacities, delay).expect("valid system");
            let attachment: Vec<Vec<usize>> = (0..nu)
                .map(|j| {
                    (0..nt)
                        .map(|t| att[(j * nt + t) % att.len()] % nc)
                        .collect()
                })
                .collect();
            let access: Vec<Vec<f64>> = (0..nu)
                .map(|j| (0..nt).map(|t| raw[(j + t * 7) % raw.len()]).collect())
                .collect();
            let mobility = MobilityInput::new(nc, attachment, access);
            let prices: Vec<Vec<f64>> = (0..nt)
                .map(|t| {
                    (0..nc)
                        .map(|i| 0.2 + raw[(t * nc + i) % raw.len()])
                        .collect()
                })
                .collect();
            let reconfig: Vec<f64> = (0..nc).map(|i| raw[(i + 11) % raw.len()]).collect();
            let b_out: Vec<f64> = (0..nc).map(|i| raw[(i + 17) % raw.len()] * 0.5).collect();
            let b_in: Vec<f64> = (0..nc).map(|i| raw[(i + 23) % raw.len()] * 0.5).collect();
            Instance::new(
                system,
                workloads,
                mobility,
                prices,
                reconfig,
                b_out,
                b_in,
                CostWeights::default(),
            )
            .expect("valid instance")
        })
}

/// Strategy: a random allocation shaped for the instance (not necessarily
/// feasible).
fn allocation_for(inst: &Instance, raw: &[f64]) -> Allocation {
    let mut x = Allocation::zeros(inst.num_clouds(), inst.num_users());
    let mut k = 0usize;
    for i in 0..inst.num_clouds() {
        for j in 0..inst.num_users() {
            x.set(i, j, raw[k % raw.len()].abs());
            k += 1;
        }
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn costs_are_nonnegative_and_additive(
        inst in small_instance(),
        raw in proptest::collection::vec(0.0f64..2.0, 32),
    ) {
        let nt = inst.num_slots();
        let allocs: Vec<Allocation> = (0..nt)
            .map(|t| allocation_for(&inst, &raw[(t % 3)..]))
            .collect();
        let total = evaluate_trajectory(&inst, &allocs);
        prop_assert!(total.operation >= 0.0);
        prop_assert!(total.quality >= 0.0);
        prop_assert!(total.reconfig >= 0.0);
        prop_assert!(total.migration >= 0.0);
        // Sum of per-slot statics + per-transition dynamics equals the total.
        let mut acc = 0.0;
        let mut prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
        for (t, x) in allocs.iter().enumerate() {
            acc += slot_static_cost(&inst, t, x).total();
            acc += transition_cost(&inst, &prev, x).total();
            prev = x.clone();
        }
        prop_assert!((acc - total.total()).abs() < 1e-9 * (1.0 + acc.abs()));
    }

    /// `slot_static_cost` charges ℙ₀'s static cost as written, entry by
    /// entry: operation `Σ_j Σ_i a_{i,t} x_{i,j}` and quality
    /// `Σ_j (d(j, l_{j,t}) + Σ_i x_{i,j} / λ_j · d(l_{j,t}, i))`, each times
    /// its weight. About a third of the entries are exact zeros.
    #[test]
    fn static_cost_is_the_per_entry_sum(
        inst in small_instance(),
        entries in proptest::collection::vec(
            (0u8..3, 0.0f64..3.0).prop_map(|(k, v)| if k == 0 { 0.0 } else { v }),
            16,
        ),
        weights in (0.1f64..4.0, 0.1f64..4.0),
        slot in 0usize..4,
    ) {
        let inst = inst.with_weights(CostWeights {
            operation: weights.0,
            quality: weights.1,
            ..CostWeights::default()
        });
        let t = slot % inst.num_slots();
        let x = allocation_for(&inst, &entries);
        let prices = inst.operation_prices_at(t);
        let (mut operation, mut quality) = (0.0, 0.0);
        for j in 0..inst.num_users() {
            let (l, lambda) = (inst.attached(j, t), inst.workload(j));
            quality += inst.access_delay(j, t);
            for i in 0..inst.num_clouds() {
                operation += prices[i] * x.get(i, j);
                quality += x.get(i, j) / lambda * inst.system().delay(l, i);
            }
        }
        let cost = slot_static_cost(&inst, t, &x);
        for (name, got, want) in [
            ("operation", cost.operation, weights.0 * operation),
            ("quality", cost.quality, weights.1 * quality),
        ] {
            prop_assert!(
                (got - want).abs() <= 1e-12 * want.abs(),
                "{name}: charged {got}, per-entry sum {want}"
            );
        }
        prop_assert_eq!(cost.reconfig, 0.0);
        prop_assert_eq!(cost.migration, 0.0);
    }

    #[test]
    fn identical_consecutive_slots_pay_no_dynamic_cost(
        inst in small_instance(),
        raw in proptest::collection::vec(0.0f64..2.0, 32),
    ) {
        let x = allocation_for(&inst, &raw);
        let c = transition_cost(&inst, &x, &x);
        prop_assert_eq!(c.total(), 0.0);
    }

    #[test]
    fn migration_cost_is_symmetric_in_magnitude(
        inst in small_instance(),
        raw in proptest::collection::vec(0.0f64..2.0, 32),
    ) {
        // Moving a→b then b→a costs the same in each direction when prices
        // are symmetric per cloud pair... in general: total out-volume
        // equals total in-volume for demand-preserving reshuffles.
        let a = allocation_for(&inst, &raw);
        let b = allocation_for(&inst, &raw[3..]);
        let _ = transition_cost(&inst, &a, &b);
        // Volume conservation: Σ z_in − Σ z_out = Δ grand total.
        let mut z_in = 0.0;
        let mut z_out = 0.0;
        for i in 0..inst.num_clouds() {
            for j in 0..inst.num_users() {
                let d = b.get(i, j) - a.get(i, j);
                if d > 0.0 { z_in += d } else { z_out -= d }
            }
        }
        let delta = b.grand_total() - a.grand_total();
        prop_assert!((z_in - z_out - delta).abs() < 1e-9);
    }

    #[test]
    fn scaling_dynamic_weights_scales_dynamic_costs(
        inst in small_instance(),
        raw in proptest::collection::vec(0.0f64..2.0, 32),
        mu in 0.1f64..10.0,
    ) {
        let a = allocation_for(&inst, &raw);
        let b = allocation_for(&inst, &raw[5..]);
        let base = transition_cost(&inst, &a, &b).total();
        let scaled_inst = inst.with_weights(CostWeights::with_dynamic_ratio(mu));
        let scaled = transition_cost(&scaled_inst, &a, &b).total();
        prop_assert!((scaled - mu * base).abs() < 1e-9 * (1.0 + scaled.abs()));
    }

    #[test]
    fn repair_always_restores_feasibility(
        inst in small_instance(),
        raw in proptest::collection::vec(0.0f64..4.0, 32),
    ) {
        let input = SlotInput::from_instance(&inst, 0);
        let mut x = allocation_for(&inst, &raw);
        repair_capacity(&input, &mut x).expect("repair succeeds when ΣC ≥ Σλ");
        // The repair is the exact projection: every bound holds as written.
        for j in 0..inst.num_users() {
            prop_assert!(x.user_total(j) >= inst.workloads()[j],
                "user {j}: {} < {}", x.user_total(j), inst.workloads()[j]);
        }
        for i in 0..inst.num_clouds() {
            prop_assert!(x.cloud_total(i) <= inst.system().capacity(i),
                "cloud {i}: {} > {}", x.cloud_total(i), inst.system().capacity(i));
        }
    }

    #[test]
    fn repair_is_idempotent_on_feasible_allocations(
        inst in small_instance(),
        raw in proptest::collection::vec(0.0f64..4.0, 32),
    ) {
        let input = SlotInput::from_instance(&inst, 0);
        let mut x = allocation_for(&inst, &raw);
        repair_capacity(&input, &mut x).expect("first repair");
        let once = x.clone();
        repair_capacity(&input, &mut x).expect("second repair");
        for i in 0..inst.num_clouds() {
            for j in 0..inst.num_users() {
                prop_assert!((x.get(i, j) - once.get(i, j)).abs() < 1e-9);
            }
        }
    }
}
