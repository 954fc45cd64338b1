//! Full problem instances: system + users + mobility + price processes.

use crate::cost::CostWeights;
use crate::system::EdgeCloudSystem;
use crate::{Error, Result};
use mobility::prices::{self, PriceConfig};
use mobility::workload::WorkloadDist;
use mobility::{MobilityInput, StationNetwork};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of [`Instance::synthetic_with`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Workload distribution for `λ_j`.
    pub workload: WorkloadDist,
    /// Target system utilization (§V-A keeps 80%: total capacity is
    /// `total_workload / utilization`).
    pub utilization: f64,
    /// Price-process parameters.
    pub prices: PriceConfig,
    /// Delay (quality-cost) units per kilometer of distance.
    pub delay_per_km: f64,
    /// Cost-component weights.
    pub weights: CostWeights,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            workload: WorkloadDist::default_power(),
            utilization: 0.8,
            prices: PriceConfig::default(),
            delay_per_km: 1.0,
            weights: CostWeights::default(),
        }
    }
}

/// A complete instance of the online resource-allocation problem: the
/// quantities an omniscient offline solver sees. Online algorithms access
/// it only through per-slot [`crate::algorithms::SlotInput`] views.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Instance {
    system: EdgeCloudSystem,
    workloads: Vec<f64>,
    mobility: MobilityInput,
    /// `operation_prices[t][i]` = `a_{i,t}`.
    operation_prices: Vec<Vec<f64>>,
    /// `c_i`.
    reconfig_prices: Vec<f64>,
    /// `b_i^{out}`.
    migration_out: Vec<f64>,
    /// `b_i^{in}`.
    migration_in: Vec<f64>,
    weights: CostWeights,
    /// Per-slot multiplicative demand scaling `demand_factors[t]` applied
    /// to every `λ_j` on the *online* path (hostile generators use this to
    /// create overload mid-horizon without tripping [`Instance::new`]'s
    /// aggregate-feasibility validation). `None` = no scaling anywhere.
    #[serde(default)]
    demand_factors: Option<Vec<f64>>,
    /// Per-slot, per-cloud multiplicative capacity scaling
    /// `capacity_factors[t][i]` (rolling degradation). `None` = no scaling.
    #[serde(default)]
    capacity_factors: Option<Vec<Vec<f64>>>,
}

impl Instance {
    /// Assembles and validates an instance.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] on any dimensional inconsistency,
    /// non-positive workload, or negative price.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        system: EdgeCloudSystem,
        workloads: Vec<f64>,
        mobility: MobilityInput,
        operation_prices: Vec<Vec<f64>>,
        reconfig_prices: Vec<f64>,
        migration_out: Vec<f64>,
        migration_in: Vec<f64>,
        weights: CostWeights,
    ) -> Result<Self> {
        let num_clouds = system.num_clouds();
        if mobility.num_clouds() != num_clouds {
            return Err(Error::Invalid(format!(
                "mobility references {} clouds, system has {}",
                mobility.num_clouds(),
                num_clouds
            )));
        }
        if workloads.len() != mobility.num_users() {
            return Err(Error::Invalid(format!(
                "{} workloads for {} users",
                workloads.len(),
                mobility.num_users()
            )));
        }
        if workloads.iter().any(|&l| !(l >= 1.0) || !l.is_finite()) {
            return Err(Error::Invalid(
                "workloads must be ≥ 1 (λ_j ∈ ℤ⁺ in the paper)".into(),
            ));
        }
        if operation_prices.len() != mobility.num_slots() {
            return Err(Error::Invalid(format!(
                "{} operation-price rows for {} slots",
                operation_prices.len(),
                mobility.num_slots()
            )));
        }
        for (t, row) in operation_prices.iter().enumerate() {
            if row.len() != num_clouds {
                return Err(Error::Invalid(format!(
                    "operation price row {t} wrong length"
                )));
            }
            if row.iter().any(|&p| p < 0.0 || !p.is_finite()) {
                return Err(Error::Invalid(format!(
                    "negative operation price at slot {t}"
                )));
            }
        }
        for (name, v) in [
            ("reconfig", &reconfig_prices),
            ("migration_out", &migration_out),
            ("migration_in", &migration_in),
        ] {
            if v.len() != num_clouds {
                return Err(Error::Invalid(format!("{name} prices wrong length")));
            }
            if v.iter().any(|&p| p < 0.0 || !p.is_finite()) {
                return Err(Error::Invalid(format!("negative {name} price")));
            }
        }
        for (name, w) in [
            ("operation", weights.operation),
            ("quality", weights.quality),
            ("reconfig", weights.reconfig),
            ("migration", weights.migration),
        ] {
            if !w.is_finite() || w < 0.0 {
                return Err(Error::Invalid(format!(
                    "{name} cost weight must be finite and non-negative, got {w}"
                )));
            }
        }
        let total_workload: f64 = workloads.iter().sum();
        if system.total_capacity() < total_workload {
            return Err(Error::Invalid(format!(
                "total capacity {} below total workload {total_workload}; the problem is infeasible",
                system.total_capacity()
            )));
        }
        Ok(Instance {
            system,
            workloads,
            mobility,
            operation_prices,
            reconfig_prices,
            migration_out,
            migration_in,
            weights,
            demand_factors: None,
            capacity_factors: None,
        })
    }

    /// Builds a paper-style synthetic instance over a station network with
    /// default parameters (power-law workloads, 80% utilization, §V-A price
    /// processes).
    ///
    /// # Panics
    ///
    /// Panics if the generated instance fails validation (cannot happen for
    /// a non-empty network and mobility).
    pub fn synthetic<R: Rng + ?Sized>(
        net: &StationNetwork,
        mobility: MobilityInput,
        rng: &mut R,
    ) -> Self {
        Self::synthetic_with(net, mobility, &SyntheticConfig::default(), rng)
            .expect("default synthetic instance must be valid")
    }

    /// Builds a synthetic instance with explicit configuration.
    ///
    /// Capacities follow §V-A: total capacity is `Σλ / utilization`,
    /// distributed across clouds proportionally to the attachment frequency
    /// (Laplace-smoothed so unvisited clouds keep a sliver of capacity).
    ///
    /// # Errors
    ///
    /// Propagates [`Instance::new`] validation failures.
    pub fn synthetic_with<R: Rng + ?Sized>(
        net: &StationNetwork,
        mobility: MobilityInput,
        cfg: &SyntheticConfig,
        rng: &mut R,
    ) -> Result<Self> {
        if mobility.num_clouds() != net.len() {
            return Err(Error::Invalid(
                "mobility was generated for a different network".into(),
            ));
        }
        let num_clouds = net.len();
        let num_users = mobility.num_users();
        let num_slots = mobility.num_slots();
        let workloads: Vec<f64> = cfg
            .workload
            .sample_many(num_users, rng)
            .into_iter()
            .map(f64::from)
            .collect();
        let total_workload: f64 = workloads.iter().sum();

        // Capacity ∝ attachment frequency (smoothed), total = Σλ/utilization.
        let freq = mobility.attachment_frequency();
        let smooth: Vec<f64> = freq.iter().map(|&f| f as f64 + 1.0).collect();
        let total_smooth: f64 = smooth.iter().sum();
        let total_capacity = total_workload / cfg.utilization;
        let capacities: Vec<f64> = smooth
            .iter()
            .map(|&s| total_capacity * s / total_smooth)
            .collect();

        let system = EdgeCloudSystem::from_stations(net, capacities, cfg.delay_per_km)?;
        let base = prices::operation_base_prices(system.capacities(), cfg.prices.operation_mean);
        let operation_prices = prices::operation_price_series_ar1(
            &base,
            num_slots,
            cfg.prices.operation_floor_frac,
            cfg.prices.operation_correlation,
            rng,
        );
        let reconfig_prices = prices::reconfig_prices(
            num_clouds,
            cfg.prices.reconfig_mean,
            cfg.prices.reconfig_sd,
            rng,
        );
        let (migration_out, migration_in) =
            prices::bandwidth_prices(num_clouds, cfg.prices.bandwidth_scale, rng);
        Instance::new(
            system,
            workloads,
            mobility,
            operation_prices,
            reconfig_prices,
            migration_out,
            migration_in,
            cfg.weights,
        )
    }

    /// The two-cloud, one-user, three-slot toy instance of Figure 1.
    ///
    /// `d_ab` is the inter-cloud delay (2.1 for Fig 1(a), 1.9 for Fig 1(b));
    /// with `user_returns` the user visits clouds A, B, A (Fig 1(a)),
    /// otherwise A, B, B (Fig 1(b)). Operation prices are 1 at both clouds,
    /// the access delay is 1.5 in every slot, `c_i = 1`, and
    /// `b^{out} = b^{in} = 0.5` so a full move costs 1 in migration plus 1
    /// in reconfiguration — reproducing the cost tallies 11.5 vs 9.6 and
    /// 11.3 vs 9.5 from the paper (excluding the initial ramp-up transition
    /// which is identical for all policies; see
    /// [`crate::cost::evaluate_trajectory`] with a warm initial allocation).
    pub fn fig1_example(d_ab: f64, user_returns: bool) -> Self {
        let system = EdgeCloudSystem::new(vec![2.0, 2.0], vec![vec![0.0, d_ab], vec![d_ab, 0.0]])
            .expect("static example system is valid");
        let attachment = if user_returns {
            vec![vec![0, 1, 0]]
        } else {
            vec![vec![0, 1, 1]]
        };
        let mobility = MobilityInput::new(2, attachment, vec![vec![1.5, 1.5, 1.5]]);
        Instance::new(
            system,
            vec![1.0],
            mobility,
            vec![vec![1.0, 1.0]; 3],
            vec![1.0, 1.0],
            vec![0.5, 0.5],
            vec![0.5, 0.5],
            CostWeights::default(),
        )
        .expect("static example instance is valid")
    }

    /// An adversarial "ping-pong" instance exploring the lower bound the
    /// paper leaves as future work: one unit-workload user oscillates
    /// between two clouds every slot; the inter-cloud delay `k + 0.1` is
    /// just above the full dynamic cost `k` of a move (reconfiguration
    /// `k/2` plus migration `k/4 + k/4`), so online-greedy relocates every
    /// slot while better policies park the workload. As `k` grows,
    /// greedy's competitive ratio approaches 2 on this family.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not positive or `num_slots == 0`.
    pub fn pingpong(num_slots: usize, k: f64) -> Self {
        assert!(k > 0.0, "k must be positive");
        assert!(num_slots > 0, "need at least one slot");
        let d_ab = k + 0.1;
        let system = EdgeCloudSystem::new(vec![2.0, 2.0], vec![vec![0.0, d_ab], vec![d_ab, 0.0]])
            .expect("static system is valid");
        let attachment = vec![(0..num_slots).map(|t| t % 2).collect::<Vec<_>>()];
        let mobility = MobilityInput::new(2, attachment, vec![vec![0.0; num_slots]]);
        Instance::new(
            system,
            vec![1.0],
            mobility,
            vec![vec![1.0, 1.0]; num_slots],
            vec![k / 2.0, k / 2.0],
            vec![k / 4.0, k / 4.0],
            vec![k / 4.0, k / 4.0],
            CostWeights::default(),
        )
        .expect("static instance is valid")
    }

    /// The underlying system.
    pub fn system(&self) -> &EdgeCloudSystem {
        &self.system
    }

    /// Number of edge clouds `I`.
    pub fn num_clouds(&self) -> usize {
        self.system.num_clouds()
    }

    /// Number of users `J`.
    pub fn num_users(&self) -> usize {
        self.workloads.len()
    }

    /// Number of time slots `T`.
    pub fn num_slots(&self) -> usize {
        self.mobility.num_slots()
    }

    /// Workload `λ_j`.
    pub fn workload(&self, j: usize) -> f64 {
        self.workloads[j]
    }

    /// All workloads.
    pub fn workloads(&self) -> &[f64] {
        &self.workloads
    }

    /// Total workload `Σ_j λ_j`.
    pub fn total_workload(&self) -> f64 {
        self.workloads.iter().sum()
    }

    /// The mobility input.
    pub fn mobility(&self) -> &MobilityInput {
        &self.mobility
    }

    /// Cloud user `j` is attached to at slot `t` (`l_{j,t}`).
    pub fn attached(&self, j: usize, t: usize) -> usize {
        self.mobility.attached(j, t)
    }

    /// Access delay `d(j, l_{j,t})`.
    pub fn access_delay(&self, j: usize, t: usize) -> f64 {
        self.mobility.delay(j, t)
    }

    /// Operation price `a_{i,t}`.
    pub fn operation_price(&self, i: usize, t: usize) -> f64 {
        self.operation_prices[t][i]
    }

    /// Operation prices of slot `t` for all clouds.
    pub fn operation_prices_at(&self, t: usize) -> &[f64] {
        &self.operation_prices[t]
    }

    /// Reconfiguration price `c_i`.
    pub fn reconfig_price(&self, i: usize) -> f64 {
        self.reconfig_prices[i]
    }

    /// Outgoing migration price `b_i^{out}`.
    pub fn migration_out(&self, i: usize) -> f64 {
        self.migration_out[i]
    }

    /// Incoming migration price `b_i^{in}`.
    pub fn migration_in(&self, i: usize) -> f64 {
        self.migration_in[i]
    }

    /// Folded migration price `b_i = b_i^{out} + b_i^{in}` (ℙ₁, §III-A).
    pub fn migration_total(&self, i: usize) -> f64 {
        self.migration_out[i] + self.migration_in[i]
    }

    /// All reconfiguration prices.
    pub fn reconfig_prices_slice(&self) -> &[f64] {
        &self.reconfig_prices
    }

    /// All outgoing migration prices.
    pub fn migration_out_slice(&self) -> &[f64] {
        &self.migration_out
    }

    /// All incoming migration prices.
    pub fn migration_in_slice(&self) -> &[f64] {
        &self.migration_in
    }

    /// The cost weights.
    pub fn weights(&self) -> CostWeights {
        self.weights
    }

    /// Returns a copy of the instance with different cost weights (used for
    /// the Figure-4 `μ` sweep).
    pub fn with_weights(&self, weights: CostWeights) -> Self {
        let mut inst = self.clone();
        inst.weights = weights;
        inst
    }

    /// Overwrites one operation price **without validation** — the value
    /// may be negative or non-finite. This deliberately breaks the
    /// invariants [`Instance::new`] established; it exists for fault
    /// injection (see `sim::faults`). Use [`Instance::sanitized`] or the
    /// online pipeline's per-slot sanitization to restore well-formedness.
    ///
    /// # Panics
    ///
    /// Panics if `t` or `i` is out of range.
    pub fn inject_operation_price(&mut self, t: usize, i: usize, value: f64) {
        self.operation_prices[t][i] = value;
    }

    /// Overwrites one workload **without validation** — same caveats as
    /// [`Instance::inject_operation_price`].
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn inject_workload(&mut self, j: usize, value: f64) {
        self.workloads[j] = value;
    }

    /// Unchecked mutable access to the system, for fault injection via
    /// [`EdgeCloudSystem::inject_capacity`] and
    /// [`EdgeCloudSystem::inject_delay`]. Mutations bypass all validation.
    pub fn system_mut(&mut self) -> &mut EdgeCloudSystem {
        &mut self.system
    }

    /// Multiplies the demand scaling factor of slot `t` by `factor`
    /// (clamped via [`crate::sanitize::clamp_factor`]; out-of-range `t` is
    /// ignored). The factor applies to every user's `λ_j` on the online
    /// path — see [`Instance::scaled_slot`] — and deliberately bypasses
    /// [`Instance::new`]'s aggregate-feasibility validation: overload is
    /// exactly what hostile generators are for. The offline/cost view keeps
    /// the base workloads.
    pub fn scale_demand(&mut self, t: usize, factor: f64) {
        if t >= self.num_slots() {
            return;
        }
        let factors = self
            .demand_factors
            .get_or_insert_with(|| vec![1.0; self.mobility.num_slots()]);
        factors[t] *= crate::sanitize::clamp_factor(factor);
    }

    /// Multiplies cloud `i`'s capacity scaling factor at slot `t` by
    /// `factor` (clamped; out-of-range indices ignored). Same online-path
    /// semantics as [`Instance::scale_demand`].
    pub fn scale_capacity(&mut self, t: usize, i: usize, factor: f64) {
        if t >= self.num_slots() || i >= self.num_clouds() {
            return;
        }
        let num_clouds = self.system.num_clouds();
        let factors = self
            .capacity_factors
            .get_or_insert_with(|| vec![vec![1.0; num_clouds]; self.mobility.num_slots()]);
        factors[t][i] *= crate::sanitize::clamp_factor(factor);
    }

    /// The demand scaling factor of slot `t` (1 when unscaled).
    pub fn demand_factor(&self, t: usize) -> f64 {
        self.demand_factors
            .as_ref()
            .and_then(|f| f.get(t))
            .copied()
            .unwrap_or(1.0)
    }

    /// The capacity scaling factor of cloud `i` at slot `t` (1 when
    /// unscaled).
    pub fn capacity_factor(&self, t: usize, i: usize) -> f64 {
        self.capacity_factors
            .as_ref()
            .and_then(|f| f.get(t))
            .and_then(|row| row.get(i))
            .copied()
            .unwrap_or(1.0)
    }

    /// The scaled view of slot `t`, or `None` when every factor at `t` is
    /// exactly 1 — the common case, which keeps the unscaled online path
    /// allocation-free and bit-identical to the pre-scaling pipeline.
    /// Scaled workloads are hardened (finite, `λ_j ≥ 1`) so a hostile surge
    /// cannot smuggle ill-formed demand past the sentinel.
    pub fn scaled_slot(&self, t: usize) -> Option<ScaledSlot> {
        ScaledSlot::new(&self.system, &self.workloads, self.demand_factor(t), |i| {
            self.capacity_factor(t, i)
        })
    }

    /// Number of distinct *effective* λ-classes at slot `t`: the bitwise
    /// workload classes the cohort layer keys on (see [`crate::cohort`]),
    /// computed on the post-[`Self::scale_demand`] view. A hostile per-slot
    /// surge multiplies every λ by the slot's factor, so a scaled slot's
    /// classes are the surviving distinct products, never the unscaled
    /// classes — the guarantee the cohort keying relies on.
    pub fn workload_classes(&self, t: usize) -> usize {
        let distinct = |ws: &[f64]| {
            ws.iter()
                .map(|l| l.to_bits())
                .collect::<std::collections::HashSet<u64>>()
                .len()
        };
        match self.scaled_slot(t) {
            Some(s) => distinct(s.workloads()),
            None => distinct(&self.workloads),
        }
    }

    /// Returns a copy with all corrupted values repaired (see the rules in
    /// [`crate::sanitize`]) plus one note per repaired value; the notes are
    /// empty when the instance was already well-formed. Structural problems
    /// — total demand exceeding total capacity, for instance — are *not*
    /// "repaired": they are real, and the degradation ladder handles them.
    pub fn sanitized(&self) -> (Self, Vec<String>) {
        let mut inst = self.clone();
        let mut notes = Vec::new();
        crate::sanitize::fix_workloads(&mut inst.workloads, &mut notes);
        for (t, row) in inst.operation_prices.iter_mut().enumerate() {
            let before = notes.len();
            crate::sanitize::fix_prices(row, "operation_price", &mut notes);
            for note in &mut notes[before..] {
                note.push_str(&format!(" (slot {t})"));
            }
        }
        crate::sanitize::fix_prices(&mut inst.reconfig_prices, "reconfig_price", &mut notes);
        crate::sanitize::fix_prices(&mut inst.migration_out, "migration_out", &mut notes);
        crate::sanitize::fix_prices(&mut inst.migration_in, "migration_in", &mut notes);
        crate::sanitize::fix_system(&mut inst.system, &mut notes);
        if let Some(factors) = &mut inst.demand_factors {
            for (t, f) in factors.iter_mut().enumerate() {
                let clamped = crate::sanitize::clamp_factor(*f);
                if clamped != *f {
                    notes.push(format!("demand_factor[{t}] was {f}, set to {clamped}"));
                    *f = clamped;
                }
            }
        }
        if let Some(factors) = &mut inst.capacity_factors {
            for (t, row) in factors.iter_mut().enumerate() {
                for (i, f) in row.iter_mut().enumerate() {
                    let clamped = crate::sanitize::clamp_factor(*f);
                    if clamped != *f {
                        notes.push(format!(
                            "capacity_factor[{t}][{i}] was {f}, set to {clamped}"
                        ));
                        *f = clamped;
                    }
                }
            }
        }
        (inst, notes)
    }
}

/// The scaled online view of one slot under the instance's hostile demand
/// and capacity factors: an owned system copy with scaled capacities plus
/// the scaled (and hardened) workloads. Borrow it back into a
/// [`crate::algorithms::SlotInput`] with [`ScaledSlot::as_input`] — the
/// same pattern as [`crate::sanitize::SanitizedSlot`].
#[derive(Debug, Clone)]
pub struct ScaledSlot {
    system: EdgeCloudSystem,
    workloads: Vec<f64>,
}

impl ScaledSlot {
    /// The scaled view of `system` and `workloads` under `demand_factor`
    /// and each cloud's `capacity_factor(i)`, or `None` when every factor
    /// is exactly 1. Every hostile scaling, batch or stream, is this rule:
    /// workloads are multiplied by the demand factor and hardened (finite,
    /// `λ_j ≥ 1`); a capacity whose factor is not 1 is multiplied by it,
    /// with a negative product clamped to 0 and a non-finite one set to 0.
    pub fn new(
        system: &EdgeCloudSystem,
        workloads: &[f64],
        demand_factor: f64,
        capacity_factor: impl Fn(usize) -> f64,
    ) -> Option<ScaledSlot> {
        let num_clouds = system.num_clouds();
        let any_cap = (0..num_clouds).any(|i| capacity_factor(i) != 1.0);
        if demand_factor == 1.0 && !any_cap {
            return None;
        }
        let mut workloads: Vec<f64> = workloads.iter().map(|&l| l * demand_factor).collect();
        crate::sanitize::harden_workloads(&mut workloads);
        let mut scaled = system.clone();
        for i in 0..num_clouds {
            let cf = capacity_factor(i);
            if cf != 1.0 {
                let capacity = system.capacity(i) * cf;
                scaled.inject_capacity(
                    i,
                    if capacity.is_finite() {
                        capacity.max(0.0)
                    } else {
                        0.0
                    },
                );
            }
        }
        Some(ScaledSlot {
            system: scaled,
            workloads,
        })
    }

    /// The system with scaled capacities.
    pub fn system(&self) -> &EdgeCloudSystem {
        &self.system
    }

    /// The scaled, hardened workloads.
    pub fn workloads(&self) -> &[f64] {
        &self.workloads
    }

    /// The slot-`t` view over the scaled data; prices and mobility come
    /// from the instance unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `t >= inst.num_slots()`.
    pub fn as_input<'a>(
        &'a self,
        inst: &'a Instance,
        t: usize,
    ) -> crate::algorithms::SlotInput<'a> {
        crate::algorithms::SlotInput {
            system: &self.system,
            workloads: &self.workloads,
            ..crate::algorithms::SlotInput::from_instance(inst, t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn workload_classes_track_the_scaled_view() {
        let net = mobility::rome_metro();
        let mut rng = StdRng::seed_from_u64(3);
        let mob = mobility::random_walk::generate(&net, 20, 4, &mut rng);
        let mut inst = Instance::synthetic(&net, mob, &mut rng);
        let base = inst.workload_classes(1);
        assert!(base >= 1);
        // A uniform surge preserves distinctness: the effective classes
        // are the scaled products, one per unscaled class.
        inst.scale_demand(1, 1.15);
        assert_eq!(inst.workload_classes(1), base);
        let scaled = inst.scaled_slot(1).expect("scaled view");
        assert!(scaled
            .workloads
            .iter()
            .zip(inst.workloads())
            .all(|(s, w)| *s == w * 1.15));
        // Unscaled slots are untouched.
        assert!(inst.scaled_slot(0).is_none());
    }

    #[test]
    fn synthetic_instance_is_consistent() {
        let net = mobility::rome_metro();
        let mut rng = StdRng::seed_from_u64(3);
        let mob = mobility::random_walk::generate(&net, 10, 8, &mut rng);
        let inst = Instance::synthetic(&net, mob, &mut rng);
        assert_eq!(inst.num_clouds(), 15);
        assert_eq!(inst.num_users(), 10);
        assert_eq!(inst.num_slots(), 8);
        // 80% utilization → capacity = 1.25 × workload.
        let ratio = inst.system().total_capacity() / inst.total_workload();
        assert!((ratio - 1.25).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn capacity_follows_attachment_frequency() {
        let net = mobility::rome_metro();
        let mut rng = StdRng::seed_from_u64(5);
        // All users parked at station 0.
        let mob = MobilityInput::new(15, vec![vec![0; 6]; 8], vec![vec![0.0; 6]; 8]);
        let inst = Instance::synthetic(&net, mob, &mut rng);
        let c0 = inst.system().capacity(0);
        for i in 1..15 {
            assert!(c0 > inst.system().capacity(i));
        }
    }

    #[test]
    fn rejects_capacity_below_workload() {
        let system = EdgeCloudSystem::new(vec![1.0], vec![vec![0.0]]).unwrap();
        let mob = MobilityInput::new(1, vec![vec![0]], vec![vec![0.0]]);
        let r = Instance::new(
            system,
            vec![5.0],
            mob,
            vec![vec![1.0]],
            vec![1.0],
            vec![0.5],
            vec![0.5],
            CostWeights::default(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn rejects_fractional_below_one_workload() {
        let system = EdgeCloudSystem::new(vec![10.0], vec![vec![0.0]]).unwrap();
        let mob = MobilityInput::new(1, vec![vec![0]], vec![vec![0.0]]);
        let r = Instance::new(
            system,
            vec![0.5],
            mob,
            vec![vec![1.0]],
            vec![1.0],
            vec![0.5],
            vec![0.5],
            CostWeights::default(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn rejects_nan_operation_price() {
        let system = EdgeCloudSystem::new(vec![10.0], vec![vec![0.0]]).unwrap();
        let mob = MobilityInput::new(1, vec![vec![0]], vec![vec![0.0]]);
        let r = Instance::new(
            system,
            vec![1.0],
            mob,
            vec![vec![f64::NAN]],
            vec![1.0],
            vec![0.5],
            vec![0.5],
            CostWeights::default(),
        );
        assert!(matches!(r, Err(Error::Invalid(_))), "{r:?}");
    }

    #[test]
    fn rejects_nan_workload() {
        let system = EdgeCloudSystem::new(vec![10.0], vec![vec![0.0]]).unwrap();
        let mob = MobilityInput::new(1, vec![vec![0]], vec![vec![0.0]]);
        let r = Instance::new(
            system,
            vec![f64::NAN],
            mob,
            vec![vec![1.0]],
            vec![1.0],
            vec![0.5],
            vec![0.5],
            CostWeights::default(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn rejects_negative_migration_price() {
        let system = EdgeCloudSystem::new(vec![10.0], vec![vec![0.0]]).unwrap();
        let mob = MobilityInput::new(1, vec![vec![0]], vec![vec![0.0]]);
        let r = Instance::new(
            system,
            vec![1.0],
            mob,
            vec![vec![1.0]],
            vec![1.0],
            vec![-0.5],
            vec![0.5],
            CostWeights::default(),
        );
        assert!(matches!(r, Err(Error::Invalid(_))));
    }

    #[test]
    fn rejects_non_finite_weights() {
        let system = EdgeCloudSystem::new(vec![10.0], vec![vec![0.0]]).unwrap();
        let mob = MobilityInput::new(1, vec![vec![0]], vec![vec![0.0]]);
        let r = Instance::new(
            system,
            vec![1.0],
            mob,
            vec![vec![1.0]],
            vec![1.0],
            vec![0.5],
            vec![0.5],
            CostWeights {
                operation: f64::INFINITY,
                ..CostWeights::default()
            },
        );
        assert!(matches!(r, Err(Error::Invalid(_))));
    }

    #[test]
    fn empty_system_is_rejected_at_system_level() {
        assert!(EdgeCloudSystem::new(vec![], vec![]).is_err());
    }

    #[test]
    fn sanitized_repairs_injected_corruption() {
        let mut inst = Instance::fig1_example(2.1, true);
        inst.inject_operation_price(1, 0, f64::NAN);
        inst.inject_workload(0, -3.0);
        inst.system_mut().inject_delay(0, 1, f64::INFINITY);
        let (clean, notes) = inst.sanitized();
        assert_eq!(notes.len(), 3, "{notes:?}");
        assert!(clean.operation_price(0, 1).is_finite());
        assert_eq!(clean.workload(0), 1.0);
        assert!(clean.system().delay(0, 1).is_finite());
        // A clean instance sanitizes to itself.
        let (_, no_notes) = clean.sanitized();
        assert!(no_notes.is_empty(), "{no_notes:?}");
    }

    #[test]
    fn fig1_examples_have_expected_shape() {
        let a = Instance::fig1_example(2.1, true);
        assert_eq!(a.num_slots(), 3);
        assert_eq!(a.attached(0, 2), 0);
        let b = Instance::fig1_example(1.9, false);
        assert_eq!(b.attached(0, 2), 1);
        assert_eq!(b.migration_total(0), 1.0);
    }

    #[test]
    fn unscaled_instance_has_no_scaled_slots() {
        let inst = Instance::fig1_example(2.1, true);
        for t in 0..inst.num_slots() {
            assert!(inst.scaled_slot(t).is_none());
            assert_eq!(inst.demand_factor(t), 1.0);
            assert_eq!(inst.capacity_factor(t, 0), 1.0);
        }
    }

    #[test]
    fn demand_scaling_surges_the_online_view_only() {
        let mut inst = Instance::fig1_example(2.1, true);
        inst.scale_demand(1, 2.5);
        assert!(inst.scaled_slot(0).is_none(), "other slots stay unscaled");
        let scaled = inst.scaled_slot(1).expect("slot 1 is scaled");
        let view = scaled.as_input(&inst, 1);
        assert_eq!(view.workloads, &[2.5]);
        // The offline/base view keeps λ = 1.
        assert_eq!(inst.workload(0), 1.0);
        // Factors compose multiplicatively.
        inst.scale_demand(1, 2.0);
        assert_eq!(inst.demand_factor(1), 5.0);
    }

    #[test]
    fn capacity_scaling_degrades_one_cloud() {
        let mut inst = Instance::fig1_example(2.1, true);
        inst.scale_capacity(2, 0, 0.25);
        let scaled = inst.scaled_slot(2).expect("slot 2 is scaled");
        let view = scaled.as_input(&inst, 2);
        assert_eq!(view.system.capacity(0), 0.5);
        assert_eq!(view.system.capacity(1), 2.0);
        assert_eq!(inst.system().capacity(0), 2.0, "base system untouched");
    }

    #[test]
    fn bad_factors_are_clamped_not_propagated() {
        let mut inst = Instance::fig1_example(2.1, true);
        inst.scale_demand(0, f64::NAN); // clamps to 1: no scaling
        assert_eq!(inst.demand_factor(0), 1.0);
        inst.scale_capacity(0, 0, -2.0); // clamps to 0: cloud down
        assert_eq!(inst.capacity_factor(0, 0), 0.0);
        let view_owner = inst.scaled_slot(0).unwrap();
        let view = view_owner.as_input(&inst, 0);
        assert_eq!(view.system.capacity(0), 0.0);
        // A small positive wave scales through; hardening only guards
        // against non-positive and non-finite results.
        inst.scale_demand(1, 0.1);
        let scaled = inst.scaled_slot(1).unwrap();
        assert_eq!(scaled.as_input(&inst, 1).workloads, &[0.1]);
        inst.scale_demand(2, 0.0);
        let zeroed = inst.scaled_slot(2).unwrap();
        assert_eq!(
            zeroed.as_input(&inst, 2).workloads,
            &[1.0],
            "a zeroed workload is hardened back to the λ ≥ 1 floor"
        );
        // Out-of-range indices are ignored.
        inst.scale_demand(99, 3.0);
        inst.scale_capacity(0, 99, 3.0);
    }

    #[test]
    fn legacy_instance_json_without_factor_fields_deserializes() {
        let inst = Instance::fig1_example(2.1, true);
        let json = serde_json::to_string(&inst).unwrap();
        let stripped = json
            .replace(r#","demand_factors":null"#, "")
            .replace(r#","capacity_factors":null"#, "");
        let back: Instance = serde_json::from_str(&stripped).unwrap();
        assert!(back.scaled_slot(0).is_none());
        assert_eq!(back.num_slots(), 3);
    }

    #[test]
    fn with_weights_changes_only_weights() {
        let a = Instance::fig1_example(2.1, true);
        let b = a.with_weights(CostWeights::with_dynamic_ratio(5.0));
        assert_eq!(b.weights().reconfig, 5.0);
        assert_eq!(b.num_slots(), a.num_slots());
    }
}
