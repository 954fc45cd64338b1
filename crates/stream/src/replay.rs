//! Replaying a batch [`Instance`] as an event stream.
//!
//! This is the equivalence bridge between the two pipelines: every batch
//! scenario — including hostile demand surges, capacity failures, and
//! corrupted prices — can be expressed as a [`SlotUpdate`] stream, and
//! with incremental solving disabled ([`crate::StreamConfig`]'s default)
//! the streamed trajectory is **bit-identical** to
//! [`edgealloc::run_online`]'s: both paths build the same per-slot arrays
//! and run the same [`edgealloc::decide_slot`].

use edgealloc::Instance;
use mobility::churn::ChurnEvent;

use crate::event::SlotUpdate;
use crate::state::StreamState;

/// Expresses `inst` as an initial (empty) stream state plus one update per
/// slot: slot 0 carries every user's arrival in instance order (dense
/// indices therefore coincide with the instance's user indices), later
/// slots carry a [`ChurnEvent::Move`] for each user whose attachment or
/// access delay changed, and every slot restates the operation prices and
/// any hostile scaling factors.
pub fn replay_instance(inst: &Instance) -> (StreamState, Vec<SlotUpdate>) {
    let state = StreamState::new(
        inst.system().clone(),
        inst.reconfig_prices_slice().to_vec(),
        inst.migration_out_slice().to_vec(),
        inst.migration_in_slice().to_vec(),
        inst.weights(),
    );
    let num_users = inst.num_users();
    let num_clouds = inst.num_clouds();
    let mut updates = Vec::with_capacity(inst.num_slots());
    for t in 0..inst.num_slots() {
        let mut events = Vec::new();
        if t == 0 {
            for j in 0..num_users {
                events.push(ChurnEvent::Arrive {
                    user: j as u64,
                    station: inst.attached(j, 0),
                    lambda: inst.workload(j),
                    delay: inst.access_delay(j, 0),
                });
            }
        } else {
            for j in 0..num_users {
                let station = inst.attached(j, t);
                let delay = inst.access_delay(j, t);
                if station != inst.attached(j, t - 1)
                    || delay.to_bits() != inst.access_delay(j, t - 1).to_bits()
                {
                    events.push(ChurnEvent::Move {
                        user: j as u64,
                        station,
                        delay,
                    });
                }
            }
        }
        let capacity_factors: Vec<f64> = (0..num_clouds)
            .map(|i| inst.capacity_factor(t, i))
            .collect();
        updates.push(SlotUpdate {
            t,
            events,
            operation_prices: Some(inst.operation_prices_at(t).to_vec()),
            demand_factor: inst.demand_factor(t),
            capacity_factors: capacity_factors
                .iter()
                .any(|&f| f != 1.0)
                .then_some(capacity_factors),
        });
    }
    (state, updates)
}
