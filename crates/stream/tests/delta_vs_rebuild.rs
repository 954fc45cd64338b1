//! Property: applying *any* delta sequence to a [`stream::StreamState`]
//! and then solving is the same as rebuilding the instance arrays from the
//! surviving full user list and solving — bitwise on the per-user arrays
//! (order included) and on the solve, and within 1e-10 on cost (the solves
//! see identical inputs, so they are in fact identical). Handles come from
//! a small pool and the λ palette is tiny, so arrivals, departures and
//! moves keep hitting live users and colliding workloads.

use edgealloc::algorithms::{decide_slot, OnlineRegularized, SlotInput};
use edgealloc::cost::{self, CostWeights};
use edgealloc::system::EdgeCloudSystem;
use edgealloc::Allocation;
use mobility::churn::ChurnEvent;
use optim::convex::SchurKernel;
use proptest::prelude::*;
use stream::{SlotUpdate, StreamState};

const NUM_CLOUDS: usize = 3;

/// The reference model: plain grow-and-swap_remove vectors, rebuilt
/// through the most naive code possible.
#[derive(Default, Clone)]
struct Naive {
    ids: Vec<u64>,
    lambda: Vec<f64>,
    station: Vec<usize>,
    delay: Vec<f64>,
}

impl Naive {
    fn index_of(&self, user: u64) -> Option<usize> {
        self.ids.iter().position(|&u| u == user)
    }
    fn apply(&mut self, ev: &ChurnEvent) {
        match ev {
            ChurnEvent::Arrive {
                user,
                station,
                lambda,
                delay,
            } => {
                if self.index_of(*user).is_none() {
                    self.ids.push(*user);
                    self.lambda.push(*lambda);
                    self.station.push(*station);
                    self.delay.push(*delay);
                }
            }
            ChurnEvent::Depart { user } => {
                if let Some(j) = self.index_of(*user) {
                    self.ids.swap_remove(j);
                    self.lambda.swap_remove(j);
                    self.station.swap_remove(j);
                    self.delay.swap_remove(j);
                }
            }
            ChurnEvent::Move {
                user,
                station,
                delay,
            } => {
                if let Some(j) = self.index_of(*user) {
                    self.station[j] = *station;
                    self.delay[j] = *delay;
                }
            }
        }
    }
}

/// A uniform system with ample capacity (delta sequences must stay
/// feasible so both solves exercise the primary rung).
fn system() -> EdgeCloudSystem {
    let mut delay = vec![vec![0.0; NUM_CLOUDS]; NUM_CLOUDS];
    for i in 0..NUM_CLOUDS {
        for k in 0..NUM_CLOUDS {
            if i != k {
                delay[i][k] = 1.0 + ((i * NUM_CLOUDS + k) % 4) as f64;
            }
        }
    }
    EdgeCloudSystem::new(vec![200.0; NUM_CLOUDS], delay).expect("valid system")
}

fn fresh_state() -> StreamState {
    StreamState::new(
        system(),
        vec![0.4; NUM_CLOUDS],
        vec![0.3; NUM_CLOUDS],
        vec![0.2; NUM_CLOUDS],
        CostWeights::with_dynamic_ratio(1.0),
    )
}

/// Strategy: one abstract event, weighted 3:2:2 arrive/depart/move.
/// Handles are drawn from a small pool so depart/move frequently hit live
/// users (the state must also tolerate events for unknown handles — they
/// are skipped on both sides by construction of `Naive`).
fn event() -> impl Strategy<Value = ChurnEvent> {
    (0u8..7, 0u64..12, 0usize..NUM_CLOUDS, 0usize..3, 0u8..50).prop_map(
        |(kind, user, station, lam_ix, delay_raw)| match kind {
            0..=2 => ChurnEvent::Arrive {
                user,
                station,
                // Tiny λ palette: classes collide, split, die.
                lambda: [1.0, 2.0, 5.0][lam_ix],
                delay: f64::from(delay_raw) * 0.1,
            },
            3 | 4 => ChurnEvent::Depart { user },
            _ => ChurnEvent::Move {
                user,
                station,
                delay: f64::from(delay_raw) * 0.1,
            },
        },
    )
}

/// Builds the naive model's slot view.
fn naive_input<'a>(
    naive: &'a Naive,
    sys: &'a EdgeCloudSystem,
    prices: &'a [f64; NUM_CLOUDS],
    statics: &'a [Vec<f64>; 3],
) -> SlotInput<'a> {
    SlotInput {
        t: 0,
        system: sys,
        workloads: &naive.lambda,
        operation_prices: prices,
        attachment: &naive.station,
        access_delay: &naive.delay,
        reconfig_prices: &statics[0],
        migration_out: &statics[1],
        migration_in: &statics[2],
        weights: CostWeights::with_dynamic_ratio(1.0),
        multiplicity: None,
    }
}

/// ℙ₀'s cost of `x` after `prev`, evaluated on `input`'s own arrays.
fn slot_cost(input: &SlotInput<'_>, prev: &Allocation, x: &Allocation) -> f64 {
    let user = |j| {
        (
            input.attachment[j],
            input.access_delay[j],
            input.workloads[j],
        )
    };
    let static_part =
        cost::static_cost(input.weights, input.operation_prices, input.system, user, x);
    let transition = cost::dynamic_cost(
        input.weights,
        input.reconfig_prices,
        input.migration_out,
        input.migration_in,
        prev,
        x,
    );
    (static_part + transition).total()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The per-user arrays match the rebuild bitwise after any delta
    /// sequence.
    #[test]
    fn state_matches_rebuild(events in proptest::collection::vec(event(), 1..40)) {
        let mut state = fresh_state();
        let mut naive = Naive::default();
        for ev in &events {
            naive.apply(ev);
        }
        state.apply(&SlotUpdate::new(0).with_events(events));

        // Dense arrays identical, bit for bit, including order.
        prop_assert_eq!(state.ids(), &naive.ids[..]);
        prop_assert_eq!(state.workloads(), &naive.lambda[..]);
        prop_assert_eq!(state.attachment(), &naive.station[..]);
        prop_assert_eq!(state.access_delay(), &naive.delay[..]);
    }

    /// Solving after the deltas equals solving after a rebuild.
    #[test]
    fn solve_matches_rebuild(events in proptest::collection::vec(event(), 1..24)) {
        let mut state = fresh_state();
        let mut naive = Naive::default();
        for ev in &events {
            naive.apply(ev);
        }
        state.apply(&SlotUpdate::new(0).with_events(events));
        // Prices must match what the state holds (initialized to zeros).
        let prices = [0.0; NUM_CLOUDS];
        let statics = [vec![0.4; NUM_CLOUDS], vec![0.3; NUM_CLOUDS], vec![0.2; NUM_CLOUDS]];
        let sys = system();
        if !naive.ids.is_empty() {
            let prev = Allocation::zeros(NUM_CLOUDS, naive.ids.len());
            let make =
                || OnlineRegularized::with_defaults().with_schur_kernel(SchurKernel::Blocked);
            let stream_input = state.slot_input();
            let (x_stream, h_stream) = decide_slot(&mut make(), &stream_input, &prev);
            let input = naive_input(&naive, &sys, &prices, &statics);
            let (x_naive, h_naive) = decide_slot(&mut make(), &input, &prev);
            prop_assert_eq!(h_stream.rung, h_naive.rung);
            prop_assert_eq!(x_stream.as_flat(), x_naive.as_flat());
            let cost_stream = slot_cost(&stream_input, &prev, &x_stream);
            let cost_naive = slot_cost(&input, &prev, &x_naive);
            prop_assert!((cost_stream - cost_naive).abs() <= 1e-10);
        }
    }
}
