//! The stream driver's incremental slots on a 4000-user, 1%-churn stream
//! with full solves every 16 slots, two ways.
//!
//! The first test verifies that the driver reuses its `I × J` storage:
//! once the population stops reaching new highs, an incremental slot
//! (in-place churn remap, frozen survivors, re-placed churned users) makes
//! no allocation the size of an allocation matrix. A fresh 12 MB matrix
//! per slot at J = 100k pays first-touch page faults or not depending on
//! the allocator's mmap and trim thresholds, so the driver keeps its
//! storage instead. The allocator records the largest single allocation
//! per thread, so this lives in its own integration-test binary.
//! `StreamDriver::step` runs on the calling thread, so that thread's
//! record covers every allocation the step makes. The run spans three full
//! solves, 16 slots apart (the default `refresh_every`). A driver that
//! adopted a full solve's result, sized for that slot's population, would
//! grow it on a later incremental slot with more users than at the full
//! solve, even below the peak. The population is above `I³` users. The
//! delta sub-solve's blocked kernel allocates a class matrix whose size
//! does not grow with `J`: at most `I² × I²` entries, reached when fewer
//! users churn than there are clouds. Above `I³` users that matrix stays
//! smaller than one `I × J` matrix, so the bound separates buffers that
//! grow with `J` from those that do not.
//!
//! The second test checks what the driver's per-cloud and per-user caches
//! let it skip. Every slot's charged cost matches ℙ₀ evaluated afresh from
//! the allocation matrices (`cost::static_cost` plus `cost::dynamic_cost`
//! against the previous slot's allocation remapped by stable ids) to 1e-10
//! of the slot's total; the in-place remap keeps every untouched
//! survivor's column bit for bit; and every slot is exactly feasible as
//! computed, with no tolerance.

use edgealloc::algorithms::OnlineRegularized;
use edgealloc::cohort::CohortConfig;
use edgealloc::cost::{self, CostWeights};
use edgealloc::system::EdgeCloudSystem;
use edgealloc::Allocation;
use mobility::churn::{self, ChurnConfig, ChurnEvent};
use optim::convex::SchurKernel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use stream::{updates_from_trace, StreamConfig, StreamDriver, StreamState};

struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    // `try_with`: the allocator must not panic, even on a thread whose
    // locals are being torn down.
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

const USERS: usize = 4000;
const SLOTS: usize = 48;
const CHURN: f64 = 0.01;

/// A seeded churn stream on the Rome network: taxi-hotspot moves plus
/// birth/death, each a third of `CHURN`, with capacities at 50%
/// utilization of the initial population.
fn environment() -> (StreamState, Vec<stream::SlotUpdate>) {
    let net = mobility::rome_metro();
    let mut rng = StdRng::seed_from_u64(5);
    let per_kind = CHURN / 3.0;
    let trace = churn::generate(
        &net,
        &ChurnConfig {
            initial_users: USERS,
            num_slots: SLOTS,
            arrival_rate: per_kind * USERS as f64,
            depart_prob: per_kind,
            move_prob: per_kind,
            ..ChurnConfig::default()
        },
        &mut rng,
    );
    let total_lambda: f64 = trace.slots[0]
        .iter()
        .map(|ev| match ev {
            ChurnEvent::Arrive { lambda, .. } => *lambda,
            _ => 0.0,
        })
        .sum();
    let num_clouds = net.len();
    let capacities = vec![total_lambda / 0.5 / num_clouds as f64; num_clouds];
    let system = EdgeCloudSystem::from_stations(&net, capacities, 1.0).expect("valid system");
    let state = StreamState::new(
        system,
        vec![0.5; num_clouds],
        vec![0.3; num_clouds],
        vec![0.2; num_clouds],
        CostWeights::default(),
    );
    let prices: Vec<Vec<f64>> = (0..SLOTS)
        .map(|t| {
            (0..num_clouds)
                .map(|i| 1.0 + ((i + t) % 4) as f64 * 0.1)
                .collect()
        })
        .collect();
    (state, updates_from_trace(&trace, &prices))
}

/// The driver over `state`: pooled cohorts in both solvers, the
/// incremental path on up to 4× the churn rate.
fn driver(state: StreamState) -> StreamDriver<OnlineRegularized> {
    let pooled = CohortConfig {
        pool_references: true,
        ..CohortConfig::default()
    };
    let alg = OnlineRegularized::with_defaults()
        .with_schur_kernel(SchurKernel::Blocked)
        .with_cohort_config(pooled);
    let cfg = StreamConfig {
        max_incremental_churn: CHURN * 4.0,
        delta_cohorts: pooled,
        ..StreamConfig::default()
    };
    StreamDriver::new(state, alg, cfg)
}

#[test]
fn incremental_slots_reuse_the_allocation_buffers() {
    let (state, updates) = environment();
    let mut driver = driver(state);
    let num_clouds = driver.state().num_clouds();
    assert!(USERS > num_clouds.pow(3), "see the module docs");
    let mut most_users = 0;
    let mut checked = 0;
    for (t, update) in updates.iter().enumerate() {
        LARGEST.with(|m| m.set(0));
        driver.step(update);
        let largest = LARGEST.with(Cell::get);
        let users = driver.state().num_users();
        let matrix_bytes = num_clouds * users * std::mem::size_of::<f64>();
        let incremental = driver.outcome().health[t].incremental;
        if incremental && t >= 2 && users <= most_users {
            assert!(
                largest < matrix_bytes,
                "slot {t} ({users} users): an allocation of {largest} bytes, \
                 at least the {matrix_bytes}-byte allocation matrix"
            );
            checked += 1;
        }
        most_users = most_users.max(users);
    }
    assert!(
        checked >= SLOTS / 3,
        "only {checked} incremental slots at or below the peak population"
    );
}

#[test]
fn incremental_slots_charge_exact_costs_and_stay_exactly_feasible() {
    let (state, updates) = environment();
    let mut driver = driver(state);
    let num_clouds = driver.state().num_clouds();
    let mut checked = 0;
    for (t, update) in updates.iter().enumerate() {
        let prev = driver.allocation().clone();
        let prev_index: HashMap<u64, usize> = driver
            .state()
            .ids()
            .iter()
            .enumerate()
            .map(|(j, &id)| (id, j))
            .collect();
        // Users whose inputs this update changes; arrivals start from zero.
        let mut arrived = HashSet::new();
        let mut churned = HashSet::new();
        for ev in &update.events {
            match ev {
                ChurnEvent::Arrive { user, .. } => {
                    arrived.insert(*user);
                    churned.insert(*user);
                }
                ChurnEvent::Move { user, .. } => {
                    churned.insert(*user);
                }
                ChurnEvent::Depart { .. } => {}
            }
        }
        driver.step(update);
        let state = driver.state();
        let x = driver.allocation();
        let incremental = driver.outcome().health[t].incremental;

        // The previous allocation, remapped to this slot by stable ids.
        let mut remapped = Allocation::zeros(num_clouds, state.num_users());
        for (j, id) in state.ids().iter().enumerate() {
            let Some(&old_j) = prev_index.get(id) else {
                continue;
            };
            if arrived.contains(id) {
                continue;
            }
            for i in 0..num_clouds {
                remapped.set(i, j, prev.get(i, old_j));
            }
            if incremental && !churned.contains(id) {
                for i in 0..num_clouds {
                    assert_eq!(
                        x.get(i, j).to_bits(),
                        prev.get(i, old_j).to_bits(),
                        "slot {t}: survivor {id} changed at cloud {i}"
                    );
                }
            }
        }

        let charged = driver.outcome().costs[t];
        // ℙ₀ on the state's arrays, from the matrices, not the caches.
        let (station, delay, lambda) =
            (state.attachment(), state.access_delay(), state.workloads());
        let exact = cost::static_cost(
            state.weights(),
            state.operation_prices(),
            state.system(),
            |j| (station[j], delay[j], lambda[j]),
            x,
        ) + cost::dynamic_cost(
            state.weights(),
            state.reconfig_prices(),
            state.migration_out(),
            state.migration_in(),
            &remapped,
            x,
        );
        let tol = 1e-10 * exact.total().abs();
        for (name, a, b) in [
            ("operation", charged.operation, exact.operation),
            ("quality", charged.quality, exact.quality),
            ("reconfig", charged.reconfig, exact.reconfig),
            ("migration", charged.migration, exact.migration),
        ] {
            assert!(
                (a - b).abs() <= tol,
                "slot {t} (incremental: {incremental}): {name} charged {a}, exact {b}"
            );
        }

        for i in 0..num_clouds {
            let (total, capacity) = (x.cloud_total(i), state.system().capacity(i));
            assert!(
                total <= capacity,
                "slot {t}: cloud {i} carries {total} over its capacity {capacity}"
            );
        }
        for (j, &lambda) in state.workloads().iter().enumerate() {
            let total = x.user_total(j);
            assert!(
                total >= lambda,
                "slot {t}: user {j} gets {total} of its workload {lambda}"
            );
        }
        checked += usize::from(incremental);
    }
    assert!(
        checked >= SLOTS / 3,
        "only {checked} incremental slots checked"
    );
}
