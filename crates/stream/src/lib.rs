//! `stream` — the long-running streaming allocator.
//!
//! The batch pipeline (`edgealloc::run_online`) fixes the user population
//! for a whole horizon and rebuilds every slot's input from an
//! [`edgealloc::Instance`]. A live edge service is different: users arrive,
//! depart, and hand over continuously, and the allocator must keep running
//! across an unbounded horizon. This crate turns the per-slot solvers into
//! that service:
//!
//! * [`event`] — the input vocabulary: slot-ordered [`SlotUpdate`]s
//!   carrying churn deltas ([`mobility::churn::ChurnEvent`]) plus price and
//!   capacity updates, instead of full user lists.
//! * [`state`] — [`StreamState`], the incremental instance: dense per-user
//!   arrays maintained under churn (`swap_remove` compaction with stable
//!   `u64` handles), scaled on hostile slots by the batch pipeline's own
//!   rule ([`edgealloc::instance::ScaledSlot::new`]).
//! * [`driver`] — [`StreamDriver`] / [`run_stream`]: applies deltas,
//!   carries the previous allocation (in place, moving one column per
//!   departure) and the shard plan across churn boundaries
//!   ([`ChurnAware`]), solves each slot either in full (through the same
//!   [`edgealloc::decide_slot`] the batch loop uses — the equivalence
//!   guarantee) or *incrementally* (survivors frozen, churned users
//!   re-solved against residual capacities, in O(churn × I)), charges
//!   every slot ℙ₀ from per-cloud load and per-user quality caches plus
//!   the transition of the columns it rewrote ([`edgealloc::cost`]), and
//!   pipelines slot `t+1`'s staging while slot `t` solves, with channel
//!   backpressure.
//! * [`replay`] — replays a batch [`edgealloc::Instance`] as an event
//!   stream; with incremental solving disabled the streamed trajectory is
//!   bit-identical to `run_online`'s.
//!
//! See DESIGN.md §17 for the architecture and the staleness contract of
//! incremental mode.

pub mod driver;
pub mod event;
pub mod replay;
pub mod state;

pub use driver::{run_stream, ChurnAware, StreamConfig, StreamDriver, StreamOutcome};
pub use event::{updates_from_trace, SlotUpdate};
pub use mobility::churn::{ChurnConfig, ChurnEvent, ChurnTrace};
pub use replay::replay_instance;
pub use state::{ChurnOutcome, StreamState};
