//! The incremental instance: per-user state maintained under churn.

use edgealloc::algorithms::SlotInput;
use edgealloc::cost::CostWeights;
use edgealloc::instance::ScaledSlot;
use edgealloc::system::EdgeCloudSystem;
use mobility::churn::ChurnEvent;
use std::collections::HashMap;

use crate::event::SlotUpdate;

/// What one [`StreamState::apply`] call did to the population: the churn
/// counts, the index remapping the solvers need to carry per-user state
/// across the boundary, and the set of users whose inputs changed.
#[derive(Debug, Clone, Default)]
pub struct ChurnOutcome {
    /// Users that arrived this slot.
    pub arrivals: usize,
    /// Users that departed this slot.
    pub departs: usize,
    /// Handover events applied this slot.
    pub moves: usize,
    /// For each *pre-update* dense index, the post-update dense index of
    /// the same user (`None` = departed). `None` overall when the
    /// population did not change (pure moves never permute indices).
    pub remap: Option<Vec<Option<usize>>>,
    /// Post-update dense indices of users whose inputs changed (arrivals
    /// and moved users), ascending. These are the users an incremental
    /// solve must re-place.
    pub churned: Vec<usize>,
    /// Whether this slot carries hostile demand/capacity scaling (the
    /// incremental path refuses scaled slots).
    pub scaled: bool,
    /// Repair notes for malformed events (unknown handles, non-finite
    /// values); surfaced on the slot's health record.
    pub notes: Vec<String>,
}

/// The streaming allocator's materialized view of the system: everything
/// [`SlotInput`] needs, maintained incrementally from [`SlotUpdate`]s
/// instead of rebuilt from a full user list.
///
/// Users live in dense arrays indexed `0..J`; departures compact with
/// `swap_remove`, and the stable `u64` handles from the event stream map to
/// dense indices through an internal table.
#[derive(Debug, Clone)]
pub struct StreamState {
    system: EdgeCloudSystem,
    weights: CostWeights,
    reconfig_prices: Vec<f64>,
    migration_out: Vec<f64>,
    migration_in: Vec<f64>,
    operation_prices: Vec<f64>,
    /// Per-user attachment stations.
    station: Vec<usize>,
    /// Per-user *unscaled* workloads λ_j.
    lambda: Vec<f64>,
    /// Per-user access delays `d(j, l_j)`.
    delay: Vec<f64>,
    /// Stable handle of the user at each dense index.
    ids: Vec<u64>,
    index_of: HashMap<u64, usize>,
    t: usize,
    /// The current slot's scaled view, built by the rule
    /// [`edgealloc::Instance::scaled_slot`] uses: `None` on unscaled slots
    /// so the common path lends the live arrays directly.
    scaled: Option<ScaledSlot>,
}

impl StreamState {
    /// A state with no users over the given system and static prices.
    ///
    /// # Panics
    ///
    /// Panics if any static price vector's length differs from the cloud
    /// count.
    pub fn new(
        system: EdgeCloudSystem,
        reconfig_prices: Vec<f64>,
        migration_out: Vec<f64>,
        migration_in: Vec<f64>,
        weights: CostWeights,
    ) -> Self {
        let i = system.num_clouds();
        assert_eq!(reconfig_prices.len(), i, "reconfig prices wrong length");
        assert_eq!(migration_out.len(), i, "migration_out wrong length");
        assert_eq!(migration_in.len(), i, "migration_in wrong length");
        StreamState {
            operation_prices: vec![0.0; i],
            system,
            weights,
            reconfig_prices,
            migration_out,
            migration_in,
            station: Vec::new(),
            lambda: Vec::new(),
            delay: Vec::new(),
            ids: Vec::new(),
            index_of: HashMap::new(),
            t: 0,
            scaled: None,
        }
    }

    /// Number of edge clouds.
    pub fn num_clouds(&self) -> usize {
        self.system.num_clouds()
    }

    /// Current user population.
    pub fn num_users(&self) -> usize {
        self.ids.len()
    }

    /// The current slot index (of the last applied update).
    pub fn t(&self) -> usize {
        self.t
    }

    /// The base (unscaled) system.
    pub fn system(&self) -> &EdgeCloudSystem {
        &self.system
    }

    /// Current *unscaled* workloads, dense order.
    pub fn workloads(&self) -> &[f64] {
        &self.lambda
    }

    /// Current attachments, dense order.
    pub fn attachment(&self) -> &[usize] {
        &self.station
    }

    /// Current access delays, dense order.
    pub fn access_delay(&self) -> &[f64] {
        &self.delay
    }

    /// Current operation prices.
    pub fn operation_prices(&self) -> &[f64] {
        &self.operation_prices
    }

    /// Static reconfiguration prices `c_i`.
    pub fn reconfig_prices(&self) -> &[f64] {
        &self.reconfig_prices
    }

    /// Static outgoing migration prices `b_i^{out}`.
    pub fn migration_out(&self) -> &[f64] {
        &self.migration_out
    }

    /// Static incoming migration prices `b_i^{in}`.
    pub fn migration_in(&self) -> &[f64] {
        &self.migration_in
    }

    /// Cost weights.
    pub fn weights(&self) -> CostWeights {
        self.weights
    }

    /// Stable handle of the user at dense index `j`.
    pub fn id(&self, j: usize) -> u64 {
        self.ids[j]
    }

    /// Stable handles in dense order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Dense index of the user with stable handle `user`, if live.
    pub fn index_of(&self, user: u64) -> Option<usize> {
        self.index_of.get(&user).copied()
    }

    /// Applies one slot update: churn events in order, then prices and
    /// scaling factors. Returns what changed. Malformed events (unknown
    /// handles, out-of-range stations, non-finite values) are skipped or
    /// repaired and reported in [`ChurnOutcome::notes`] — a live stream
    /// must never panic the service.
    pub fn apply(&mut self, update: &SlotUpdate) -> ChurnOutcome {
        let num_clouds = self.num_clouds();
        let mut out = ChurnOutcome::default();
        self.t = update.t;
        let old_count = self.ids.len();
        // `cur_to_old[k]` = pre-update dense index of the user now at `k`
        // (MAX for users that arrived this slot).
        let mut cur_to_old: Vec<usize> = (0..old_count).collect();
        let mut remap: Vec<Option<usize>> = (0..old_count).map(Some).collect();
        let mut population_changed = false;
        let mut churned_ids: Vec<u64> = Vec::new();
        for ev in &update.events {
            match ev {
                ChurnEvent::Arrive {
                    user,
                    station,
                    lambda,
                    delay,
                } => {
                    if self.index_of.contains_key(user) {
                        out.notes.push(format!("arrive: handle {user} is live"));
                        continue;
                    }
                    if *station >= num_clouds {
                        out.notes
                            .push(format!("arrive {user}: station {station} out of range"));
                        continue;
                    }
                    let mut l = *lambda;
                    if !l.is_finite() || l < 1.0 {
                        out.notes
                            .push(format!("arrive {user}: workload {lambda} set to 1"));
                        l = 1.0;
                    }
                    let mut d = *delay;
                    if !d.is_finite() || d < 0.0 {
                        out.notes
                            .push(format!("arrive {user}: delay {delay} set to 0"));
                        d = 0.0;
                    }
                    self.index_of.insert(*user, self.ids.len());
                    self.ids.push(*user);
                    self.station.push(*station);
                    self.lambda.push(l);
                    self.delay.push(d);
                    cur_to_old.push(usize::MAX);
                    churned_ids.push(*user);
                    population_changed = true;
                    out.arrivals += 1;
                }
                ChurnEvent::Depart { user } => {
                    let Some(j) = self.index_of.remove(user) else {
                        out.notes.push(format!("depart: unknown handle {user}"));
                        continue;
                    };
                    if cur_to_old[j] != usize::MAX {
                        remap[cur_to_old[j]] = None;
                    }
                    // swap_remove every per-user array alike.
                    self.ids.swap_remove(j);
                    self.station.swap_remove(j);
                    self.lambda.swap_remove(j);
                    self.delay.swap_remove(j);
                    cur_to_old.swap_remove(j);
                    if j < self.ids.len() {
                        self.index_of.insert(self.ids[j], j);
                        if cur_to_old[j] != usize::MAX {
                            remap[cur_to_old[j]] = Some(j);
                        }
                    }
                    population_changed = true;
                    out.departs += 1;
                }
                ChurnEvent::Move {
                    user,
                    station,
                    delay,
                } => {
                    let Some(j) = self.index_of.get(user).copied() else {
                        out.notes.push(format!("move: unknown handle {user}"));
                        continue;
                    };
                    if *station >= num_clouds {
                        out.notes
                            .push(format!("move {user}: station {station} out of range"));
                        continue;
                    }
                    let mut d = *delay;
                    if !d.is_finite() || d < 0.0 {
                        out.notes
                            .push(format!("move {user}: delay {delay} set to 0"));
                        d = 0.0;
                    }
                    self.station[j] = *station;
                    self.delay[j] = d;
                    churned_ids.push(*user);
                    out.moves += 1;
                }
            }
        }
        if population_changed {
            out.remap = Some(remap);
        }
        // Resolve churned users to their final dense indices (an arrival
        // may have departed again within the same slot).
        let mut churned: Vec<usize> = churned_ids
            .iter()
            .filter_map(|u| self.index_of.get(u).copied())
            .collect();
        churned.sort_unstable();
        churned.dedup();
        out.churned = churned;
        // Prices and hostile factors, scaled by the rule
        // `Instance::scaled_slot` uses so replayed batch instances stay
        // bit-identical.
        if let Some(p) = &update.operation_prices {
            if p.len() == num_clouds {
                self.operation_prices.clone_from(p);
            } else {
                out.notes
                    .push(format!("price row of length {} ignored", p.len()));
            }
        }
        let cf_row = update.capacity_factors.as_ref().filter(|r| {
            if r.len() == num_clouds {
                true
            } else {
                out.notes
                    .push(format!("capacity-factor row of length {} ignored", r.len()));
                false
            }
        });
        self.scaled = ScaledSlot::new(&self.system, &self.lambda, update.demand_factor, |i| {
            cf_row.map_or(1.0, |r| r[i])
        });
        out.scaled = self.scaled.is_some();
        out
    }

    /// The current slot's view for the solvers: identical to what the
    /// batch loop's `SlotInput::from_instance` / `ScaledSlot::as_input`
    /// would construct from an instance holding the same data.
    pub fn slot_input(&self) -> SlotInput<'_> {
        let (system, workloads) = match &self.scaled {
            Some(s) => (s.system(), s.workloads()),
            None => (&self.system, self.lambda.as_slice()),
        };
        SlotInput {
            t: self.t,
            system,
            workloads,
            operation_prices: &self.operation_prices,
            attachment: &self.station,
            access_delay: &self.delay,
            reconfig_prices: &self.reconfig_prices,
            migration_out: &self.migration_out,
            migration_in: &self.migration_in,
            weights: self.weights,
            multiplicity: None,
        }
    }
}
