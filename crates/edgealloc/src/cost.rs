//! The four-part cost model of program ℙ₀ and its evaluation.

use crate::allocation::Allocation;
use crate::instance::Instance;
use crate::system::EdgeCloudSystem;
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign};

/// Weights of the four cost components in the total objective.
///
/// The paper omits weights in the formulation "for simplicity of expression
/// but keeps them during evaluation"; Figure 4 sweeps the ratio `μ` between
/// the dynamic (reconfiguration + migration) and static (operation +
/// quality) weights.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostWeights {
    /// Weight of the operation cost.
    pub operation: f64,
    /// Weight of the service-quality cost.
    pub quality: f64,
    /// Weight of the reconfiguration cost.
    pub reconfig: f64,
    /// Weight of the migration cost.
    pub migration: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            operation: 1.0,
            quality: 1.0,
            reconfig: 1.0,
            migration: 1.0,
        }
    }
}

impl CostWeights {
    /// Unit static weights with both dynamic weights set to `mu` — the
    /// Figure-4 sweep parameter.
    pub fn with_dynamic_ratio(mu: f64) -> Self {
        CostWeights {
            operation: 1.0,
            quality: 1.0,
            reconfig: mu,
            migration: mu,
        }
    }
}

/// A cost tally split into the paper's four components (already weighted).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Weighted operation cost.
    pub operation: f64,
    /// Weighted service-quality cost.
    pub quality: f64,
    /// Weighted reconfiguration cost.
    pub reconfig: f64,
    /// Weighted migration cost.
    pub migration: f64,
}

impl CostBreakdown {
    /// Total cost (the ℙ₀ objective).
    pub fn total(&self) -> f64 {
        self.operation + self.quality + self.reconfig + self.migration
    }

    /// The static part (operation + quality).
    pub fn static_part(&self) -> f64 {
        self.operation + self.quality
    }
}

impl Add for CostBreakdown {
    type Output = CostBreakdown;
    fn add(self, o: CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            operation: self.operation + o.operation,
            quality: self.quality + o.quality,
            reconfig: self.reconfig + o.reconfig,
            migration: self.migration + o.migration,
        }
    }
}

impl AddAssign for CostBreakdown {
    fn add_assign(&mut self, o: CostBreakdown) {
        *self = *self + o;
    }
}

/// The static (per-slot) cost of allocation `x` at slot `t`:
/// weighted operation plus service quality, including the
/// allocation-independent access-delay term `Σ_j d(j, l_{j,t})`.
///
/// # Panics
///
/// Panics if dimensions of `x` do not match the instance.
pub fn slot_static_cost(inst: &Instance, t: usize, x: &Allocation) -> CostBreakdown {
    assert_eq!(x.num_users(), inst.num_users(), "user count mismatch");
    let user = |j| {
        (
            inst.attached(j, t),
            inst.access_delay(j, t),
            inst.workload(j),
        )
    };
    static_cost(
        inst.weights(),
        inst.operation_prices_at(t),
        inst.system(),
        user,
        x,
    )
}

/// The dynamic (transition) cost between consecutive slots: weighted
/// reconfiguration `Σ_i c_i (x_{i,t} − x_{i,t−1})⁺` plus bidirectional
/// migration `Σ_i b_i^{out} z^{out}_{i,t} + b_i^{in} z^{in}_{i,t}` (Eq. 2,
/// 4–5 of the paper).
///
/// # Panics
///
/// Panics on dimension mismatches.
pub fn transition_cost(inst: &Instance, prev: &Allocation, cur: &Allocation) -> CostBreakdown {
    assert_eq!(cur.num_users(), inst.num_users(), "user count mismatch");
    dynamic_cost(
        inst.weights(),
        inst.reconfig_prices_slice(),
        inst.migration_out_slice(),
        inst.migration_in_slice(),
        prev,
        cur,
    )
}

/// [`slot_static_cost`] on one slot's data instead of an [`Instance`]:
/// `operation_prices` is the slot's row `a_{·,t}` and `user(j)` returns
/// user `j`'s attachment `l_{j,t}`, access delay `d(j, l_{j,t})` and
/// workload `λ_j`. It is [`static_totals`] followed by
/// [`static_cost_from_totals`].
///
/// # Panics
///
/// Panics if `x`, `operation_prices` and `system` disagree on the cloud
/// count.
pub fn static_cost(
    weights: CostWeights,
    operation_prices: &[f64],
    system: &EdgeCloudSystem,
    user: impl Fn(usize) -> (usize, f64, f64),
    x: &Allocation,
) -> CostBreakdown {
    let (mut loads, mut qualities) = (Vec::new(), Vec::new());
    static_totals(system, user, x, &mut loads, &mut qualities);
    static_cost_from_totals(weights, operation_prices, &loads, &qualities)
}

/// Fills the two totals ℙ₀'s static cost depends on into the caller's
/// buffers: `loads[i]` is cloud `i`'s load `x_{i,t} = Σ_j x_{i,j,t}`
/// ([`Allocation::cloud_total`]) and `qualities[j]` user `j`'s
/// [`user_quality`], with `user` as in [`static_cost`].
///
/// # Panics
///
/// Panics if `x` and `system` disagree on the cloud count.
pub fn static_totals(
    system: &EdgeCloudSystem,
    user: impl Fn(usize) -> (usize, f64, f64),
    x: &Allocation,
    loads: &mut Vec<f64>,
    qualities: &mut Vec<f64>,
) {
    assert_eq!(x.num_clouds(), system.num_clouds(), "cloud count mismatch");
    loads.clear();
    loads.extend((0..x.num_clouds()).map(|i| x.cloud_total(i)));
    qualities.clear();
    qualities.extend((0..x.num_users()).map(|j| user_quality(system, user(j), x, j)));
}

/// User `j`'s unweighted service-quality term:
/// `q_j = d(j, l_{j,t}) + Σ_i x_{i,j} / λ_j · d(l_{j,t}, i)`, its terms
/// added in ascending cloud order. `user` is `(l_{j,t}, d(j, l_{j,t}), λ_j)`
/// as [`static_cost`]'s `user(j)` returns it.
pub fn user_quality(
    system: &EdgeCloudSystem,
    user: (usize, f64, f64),
    x: &Allocation,
    j: usize,
) -> f64 {
    let (l, delay, lambda) = user;
    (0..system.num_clouds()).fold(delay, |q, i| q + x.get(i, j) / lambda * system.delay(l, i))
}

/// ℙ₀'s static cost from its totals ([`static_totals`]): weighted
/// operation `Σ_i a_{i,t} · loads_i` and quality `Σ_j qualities_j`. Every
/// ℙ₀ static cost, batch or stream, is this sum; it costs O(I + J).
///
/// # Panics
///
/// Panics if `loads` and `operation_prices` differ in length.
pub fn static_cost_from_totals(
    weights: CostWeights,
    operation_prices: &[f64],
    loads: &[f64],
    qualities: &[f64],
) -> CostBreakdown {
    assert_eq!(operation_prices.len(), loads.len(), "price row mismatch");
    let operation: f64 = operation_prices.iter().zip(loads).map(|(a, x)| a * x).sum();
    let quality: f64 = qualities.iter().sum();
    CostBreakdown {
        operation: weights.operation * operation,
        quality: weights.quality * quality,
        reconfig: 0.0,
        migration: 0.0,
    }
}

/// [`transition_cost`] on the static price rows `c_i`, `b_i^{out}` and
/// `b_i^{in}` instead of an [`Instance`]. Every ℙ₀ transition cost, batch
/// or stream, is this loop. A column equal in `prev` and `cur` adds
/// nothing to either sum, so the transition of a decision that rewrites
/// only some columns is this loop on those columns alone.
///
/// # Panics
///
/// Panics if `prev`, `cur` and the price rows disagree on a dimension.
pub fn dynamic_cost(
    weights: CostWeights,
    reconfig_prices: &[f64],
    migration_out: &[f64],
    migration_in: &[f64],
    prev: &Allocation,
    cur: &Allocation,
) -> CostBreakdown {
    let (num_clouds, num_users) = (cur.num_clouds(), cur.num_users());
    assert_eq!(prev.num_clouds(), num_clouds, "cloud count mismatch");
    assert_eq!(prev.num_users(), num_users, "user count mismatch");
    assert_eq!(reconfig_prices.len(), num_clouds, "price row mismatch");
    assert_eq!(migration_out.len(), num_clouds, "price row mismatch");
    assert_eq!(migration_in.len(), num_clouds, "price row mismatch");
    let mut reconfig = 0.0;
    let mut migration = 0.0;
    let rows = cur
        .as_flat()
        .chunks_exact(num_users.max(1))
        .zip(prev.as_flat().chunks_exact(num_users.max(1)));
    for (i, (cur_row, prev_row)) in rows.enumerate() {
        // One read of both rows: the cloud totals add in ascending `j`
        // from −0.0, as `cloud_total`'s `Sum` does, and each difference
        // goes to `z_in` or `z_out` by a select instead of a branch whose
        // direction the data decides. Adding +0.0 to `z_in` (never −0.0)
        // or subtracting it from `z_out` leaves their bits unchanged, and
        // a NaN difference still lands in `z_out`.
        let (mut cur_total, mut prev_total) = (-0.0, -0.0);
        let (mut z_in, mut z_out) = (0.0, 0.0);
        for (&c, &p) in cur_row.iter().zip(prev_row) {
            cur_total += c;
            prev_total += p;
            let d = c - p;
            let inward = d > 0.0;
            z_in += if inward { d } else { 0.0 };
            z_out -= if inward { 0.0 } else { d };
        }
        let delta_aggregate = cur_total - prev_total;
        reconfig += reconfig_prices[i] * delta_aggregate.max(0.0);
        migration += migration_out[i] * z_out + migration_in[i] * z_in;
    }
    CostBreakdown {
        operation: 0.0,
        quality: 0.0,
        reconfig: weights.reconfig * reconfig,
        migration: weights.migration * migration,
    }
}

/// Evaluates the full ℙ₀ objective of a trajectory: the sum of its
/// [`trajectory_timeline`].
///
/// # Panics
///
/// Panics if `allocations.len() != inst.num_slots()` or any dimension
/// mismatches.
pub fn evaluate_trajectory(inst: &Instance, allocations: &[Allocation]) -> CostBreakdown {
    trajectory_timeline(inst, allocations)
        .into_iter()
        .fold(CostBreakdown::default(), |total, slot| total + slot)
}

/// Per-slot cost series of a trajectory: element `t` holds the slot's
/// static cost plus the dynamic cost of the transition *into* slot `t`
/// (from the all-zero allocation for `t = 0`). Summing the series yields
/// [`evaluate_trajectory`].
///
/// # Panics
///
/// Panics on trajectory/instance dimension mismatches.
pub fn trajectory_timeline(inst: &Instance, allocations: &[Allocation]) -> Vec<CostBreakdown> {
    assert_eq!(
        allocations.len(),
        inst.num_slots(),
        "trajectory length must equal the number of slots"
    );
    let zeros = Allocation::zeros(inst.num_clouds(), inst.num_users());
    std::iter::once(&zeros)
        .chain(allocations)
        .zip(allocations)
        .enumerate()
        .map(|(t, (prev, x))| slot_static_cost(inst, t, x) + transition_cost(inst, prev, x))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;

    /// 2 clouds, 1 user, 3 slots — Figure 1(a) of the paper.
    fn fig1a() -> Instance {
        Instance::fig1_example(2.1, true)
    }

    /// `dynamic_cost`'s loop before it read each row once: two
    /// `cloud_total` sums and a branchy in/out split, verbatim.
    fn two_pass_dynamic_cost(
        reconfig_prices: &[f64],
        migration_out: &[f64],
        migration_in: &[f64],
        prev: &Allocation,
        cur: &Allocation,
    ) -> (f64, f64) {
        let (num_clouds, num_users) = (cur.num_clouds(), cur.num_users());
        let mut reconfig = 0.0;
        let mut migration = 0.0;
        for i in 0..num_clouds {
            let delta_aggregate = cur.cloud_total(i) - prev.cloud_total(i);
            reconfig += reconfig_prices[i] * delta_aggregate.max(0.0);
            let mut z_in = 0.0;
            let mut z_out = 0.0;
            for j in 0..num_users {
                let d = cur.get(i, j) - prev.get(i, j);
                if d > 0.0 {
                    z_in += d;
                } else {
                    z_out -= d;
                }
            }
            migration += migration_out[i] * z_out + migration_in[i] * z_in;
        }
        (reconfig, migration)
    }

    #[test]
    fn one_read_dynamic_cost_is_the_two_pass_loop() {
        // Rows of −0.0 only, +0.0 against −0.0, equal entries, ordinary
        // moves both ways, and a NaN.
        let prev_rows = [
            [-0.0, -0.0, -0.0, -0.0],
            [0.0, -0.0, 1.5, 0.1],
            [0.3, 0.3, 0.7, 2.0],
            [1.0, 0.2, 0.0, 0.5],
            [0.25, 0.0, 4.0, 1.0],
        ];
        let cur_rows = [
            [-0.0, -0.0, -0.0, -0.0],
            [-0.0, 0.0, 1.5, 0.2],
            [0.3, 0.1, 0.9, 2.0],
            [f64::NAN, 0.2, 1.0, 0.5],
            [0.0, 0.0, 3.5, 1.25],
        ];
        let flat = |rows: &[[f64; 4]]| rows.iter().flatten().copied().collect::<Vec<f64>>();
        let prices = [0.5, 1.25, 2.0, 0.75, 3.0];
        let (out, inn) = ([1.0, 0.5, 0.25, 2.0, 1.5], [0.3, 0.6, 0.9, 1.2, 0.1]);
        for clouds in 1..=prev_rows.len() {
            let prev = Allocation::from_flat(clouds, 4, flat(&prev_rows[..clouds]));
            let cur = Allocation::from_flat(clouds, 4, flat(&cur_rows[..clouds]));
            let weights = CostWeights::default();
            let got = dynamic_cost(
                weights,
                &prices[..clouds],
                &out[..clouds],
                &inn[..clouds],
                &prev,
                &cur,
            );
            let (reconfig, migration) = two_pass_dynamic_cost(
                &prices[..clouds],
                &out[..clouds],
                &inn[..clouds],
                &prev,
                &cur,
            );
            assert_eq!(
                got.reconfig.to_bits(),
                (weights.reconfig * reconfig).to_bits(),
                "{clouds} clouds"
            );
            assert_eq!(
                got.migration.to_bits(),
                (weights.migration * migration).to_bits(),
                "{clouds} clouds"
            );
        }
    }

    #[test]
    fn weights_scale_components() {
        let inst = fig1a();
        let mut x = Allocation::zeros(2, 1);
        x.set(0, 0, 1.0);
        let c = slot_static_cost(&inst, 0, &x);
        assert!(c.reconfig == 0.0 && c.migration == 0.0);
        assert!(c.operation > 0.0);
    }

    #[test]
    fn transition_cost_zero_for_identical() {
        let inst = fig1a();
        let mut x = Allocation::zeros(2, 1);
        x.set(0, 0, 1.0);
        let c = transition_cost(&inst, &x, &x);
        assert_eq!(c.total(), 0.0);
    }

    #[test]
    fn migration_counts_both_ends() {
        let inst = fig1a(); // b_out = b_in = 0.5, c_i = 1 in the example
        let mut a = Allocation::zeros(2, 1);
        a.set(0, 0, 1.0);
        let mut b = Allocation::zeros(2, 1);
        b.set(1, 0, 1.0);
        let c = transition_cost(&inst, &a, &b);
        // Move 1 unit: z_out(0)=1, z_in(1)=1 → 0.5 + 0.5 = 1 migration;
        // reconfig at cloud 1 for +1 unit → 1.
        assert!(
            (c.migration - 1.0).abs() < 1e-12,
            "migration {}",
            c.migration
        );
        assert!((c.reconfig - 1.0).abs() < 1e-12, "reconfig {}", c.reconfig);
    }

    #[test]
    fn timeline_sums_to_total() {
        let inst = Instance::fig1_example(2.1, true);
        let mut a = Allocation::zeros(2, 1);
        a.set(0, 0, 1.0);
        let mut b = Allocation::zeros(2, 1);
        b.set(1, 0, 1.0);
        let traj = vec![a.clone(), b, a];
        let timeline = trajectory_timeline(&inst, &traj);
        assert_eq!(timeline.len(), 3);
        let summed: CostBreakdown = timeline
            .into_iter()
            .fold(CostBreakdown::default(), |x, y| x + y);
        let total = evaluate_trajectory(&inst, &traj);
        assert!((summed.total() - total.total()).abs() < 1e-12);
        assert!((summed.migration - total.migration).abs() < 1e-12);
    }

    #[test]
    fn changed_columns_carry_the_whole_transition() {
        let weights = CostWeights::with_dynamic_ratio(2.0);
        let prev = Allocation::from_flat(2, 3, vec![0.5, 1.0, 0.0, 0.5, 1.0, 3.0]);
        let mut cur = prev.clone();
        cur.set(0, 1, 2.0);
        cur.set(1, 1, 0.25);

        // Only column 1 changed: its transition alone is the whole one.
        let column = |x: &Allocation| Allocation::from_flat(2, 1, vec![x.get(0, 1), x.get(1, 1)]);
        let (c, out, inn) = ([1.0, 0.5], [0.3, 0.2], [0.1, 0.4]);
        let whole = dynamic_cost(weights, &c, &out, &inn, &prev, &cur);
        let part = dynamic_cost(weights, &c, &out, &inn, &column(&prev), &column(&cur));
        assert!((whole.reconfig - part.reconfig).abs() < 1e-12);
        assert!((whole.migration - part.migration).abs() < 1e-12);
        assert!(whole.total() > 0.0);
    }

    #[test]
    fn breakdown_addition() {
        let a = CostBreakdown {
            operation: 1.0,
            quality: 2.0,
            reconfig: 3.0,
            migration: 4.0,
        };
        let b = a + a;
        assert_eq!(b.total(), 20.0);
        assert_eq!(b.static_part(), 6.0);
    }
}
