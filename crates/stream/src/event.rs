//! Slot updates: the unit of input of the streaming allocator.

use mobility::churn::{ChurnEvent, ChurnTrace};
use serde::{Deserialize, Serialize};

/// Everything slot `t` reveals to the streaming allocator: the churn deltas
/// plus whatever changed in the environment. Fields left at their defaults
/// mean "unchanged since the previous slot", so a quiet slot is a few
/// bytes, not a full instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotUpdate {
    /// Slot index.
    pub t: usize,
    /// Churn deltas in application order.
    #[serde(default)]
    pub events: Vec<ChurnEvent>,
    /// New operation prices `a_{i,t}`, or `None` to keep the previous row.
    #[serde(default)]
    pub operation_prices: Option<Vec<f64>>,
    /// Hostile demand scaling for this slot (1.0 = none), mirroring
    /// [`edgealloc::Instance::scale_demand`].
    pub demand_factor: f64,
    /// Hostile per-cloud capacity scaling for this slot, mirroring
    /// [`edgealloc::Instance::scale_capacity`]; `None` = all 1.0.
    #[serde(default)]
    pub capacity_factors: Option<Vec<f64>>,
}

impl SlotUpdate {
    /// An empty update for slot `t` (no churn, everything unchanged).
    pub fn new(t: usize) -> Self {
        SlotUpdate {
            t,
            events: Vec::new(),
            operation_prices: None,
            demand_factor: 1.0,
            capacity_factors: None,
        }
    }

    /// Attaches churn events.
    pub fn with_events(mut self, events: Vec<ChurnEvent>) -> Self {
        self.events = events;
        self
    }
}

/// Zips a churn trace with per-slot operation-price rows into a slot-update
/// stream (the common shape of a synthetic soak run). `prices[t]` may be
/// shorter than the horizon; missing rows keep the previous prices.
pub fn updates_from_trace(trace: &ChurnTrace, prices: &[Vec<f64>]) -> Vec<SlotUpdate> {
    (0..trace.num_slots())
        .map(|t| SlotUpdate {
            t,
            events: trace.slots[t].clone(),
            operation_prices: prices.get(t).cloned(),
            demand_factor: 1.0,
            capacity_factors: None,
        })
        .collect()
}
