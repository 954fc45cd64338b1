//! Cohort aggregation: station-granularity slot solves.
//!
//! In ℙ₂ a user enters the slot program only through its attachment
//! `l_{j,t}`, workload `λ_j`, and previous-slot row `x*_{·,j,t−1}` — users
//! that agree on all three are *exchangeable*: permuting them permutes an
//! optimal solution into another optimal solution, and by strict convexity
//! of the migration regularizer the symmetric (equal-split) solution is
//! optimal. The slot solve can therefore collapse to one variable per
//! `(cloud, cohort)` pair, where a cohort is a maximal set of exchangeable
//! users — `O(I × stations × λ-classes)` variables regardless of `J`.
//!
//! **Exactness.** For a cohort of `n` users with common workload `λ`,
//! common reference row `r_i = x*_{ij,t−1}`, and cohort total
//! `y_i = Σ_{j∈c} x_ij`, the symmetric split `x_ij = y_i/n` evaluates the
//! per-user migration entropies to
//!
//! ```text
//! n · (b̃_i/τ) [ (y_i/n + ε₂) ln((y_i/n + ε₂)/(r_i + ε₂)) − y_i/n ]
//!   = (b̃_i/τ) [ (y_i + nε₂) ln((y_i + nε₂)/(n r_i + nε₂)) − y_i ],
//! ```
//!
//! i.e. a single relative-entropy term in the cohort variable `y_i` with
//! multiplicity-scaled offset `nε₂` and the *summed* reference `n·r_i` —
//! exactly what the reduced program installs (see
//! [`crate::programs::p2`]'s multiplicity handling). The linear operation
//! and quality coefficients are identical across cohort members, the
//! demand rows pool to `Σ_i y_ic ≥ n λ`, and the aggregate reconfiguration
//! term only reads cloud totals, which restriction preserves. The reduced
//! optimum scattered symmetrically is therefore an optimum of the full
//! program — the reduction is exact, not an approximation.
//!
//! The exactness argument *requires* the common reference row: two users at
//! the same station with the same λ but different previous rows price
//! migration differently and are not exchangeable. [`CohortPlan::build`]
//! therefore keys cohorts on the bitwise previous row as well. On healthy
//! horizons this costs nothing — the symmetric scatter writes bit-identical
//! rows for every cohort member, so cohorts persist across slots — while
//! histories diversified by faults or fallback rungs split into smaller
//! cohorts until the plan's explosion guard hands the slot back to the
//! blocked per-user path (see [`CohortConfig::max_cohort_fraction`]).
//!
//! **Pooled references.** Under arbitrary independent mobility, exact
//! keying refines cohorts every slot — users sharing `(station, λ)` at `t`
//! arrived from different stations at `t−1` and carry different rows, so
//! the class count grows like the number of distinct station *histories*
//! and compression decays toward nothing. The opt-in
//! [`CohortConfig::pool_references`] mode drops the row from the key and
//! pools the migration references instead, which the log-sum inequality
//! makes principled: for any split `Σ_j x_j = y` of a cohort total,
//!
//! ```text
//! Σ_j (x_j + ε) ln((x_j + ε)/(r_j + ε)) − x_j
//!   ≥ (y + nε) ln((y + nε)/(Σ_j r_j + nε)) − y,
//! ```
//!
//! with equality iff `x_j + ε ∝ r_j + ε`. The reduced program with the
//! pooled reference `Σ_j r_j` is therefore an *exact lower bound* on the
//! full program restricted to cohort totals, attained by the entropic
//! split [`CohortPlan::scatter_pooled`] — the reduction is only an
//! approximation insofar as that split can under-serve an individual
//! member's demand row, which the caller's exact projection then repairs.
//! When member rows coincide the bound is the exact reduction above, so
//! pooled mode degrades gracefully to exact mode on symmetric histories.
//! Cohort count stays `O(stations × λ-classes)` *per slot regardless of
//! horizon length* — the property the million-user target needs.
//!
//! Workloads are read from the [`SlotInput`] *as decided*, i.e. after
//! [`crate::instance::Instance::scale_demand`] hostile scaling has been
//! applied by the runner — a flash-crowd surge changes the λ bits and
//! therefore the class key, so surged users can never silently merge into
//! an unsurged class.

use crate::algorithms::SlotInput;
use crate::allocation::Allocation;
use std::collections::HashMap;

/// Fewest users a slot needs for cohort mode to engage: one user has no
/// one to pool with.
const MIN_USERS: usize = 2;

/// Tuning knobs for [`CohortPlan::build`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CohortConfig {
    /// Opt-in λ-class quantization: `Some(tol)` buckets workloads into
    /// geometric classes of relative width `tol` (users whose λ differ by
    /// less than ~`tol` can share a class; the reduced program then uses the
    /// class's mean λ and the reduction is approximate). `None` — the
    /// default — requires bitwise λ equality, keeping the reduction exact.
    pub lambda_tolerance: Option<f64>,
    /// Bail out (return `None` from [`CohortPlan::build`]) when the cohort
    /// count exceeds this fraction of the user count: a near-singleton plan
    /// buys no compression but still pays the plan/scatter overhead, and
    /// the caller's blocked per-user path is the better tool.
    pub max_cohort_fraction: f64,
    /// Opt-in sustained-compression mode: key cohorts on `(station,
    /// λ-class)` only and pool the migration references across members
    /// (the log-sum-inequality lower bound; see the module docs). The
    /// scatter becomes the entropic split [`CohortPlan::scatter_pooled`]
    /// and per-user demand is restored by the caller's exact projection.
    /// `false` — the default — keys on the bitwise previous row as well,
    /// keeping the reduction exact at the price of compression that decays
    /// under independent mobility.
    pub pool_references: bool,
}

impl Default for CohortConfig {
    fn default() -> Self {
        CohortConfig {
            lambda_tolerance: None,
            max_cohort_fraction: 0.5,
            pool_references: false,
        }
    }
}

/// The per-slot cohort structure: the user→cohort map, the reduced slot
/// data (cohort workloads `Λ_c = Σ_{j∈c} λ_j`, multiplicities `n_c`, shared
/// attachments), and the scatter weights that turn a cohort-space solution
/// back into per-user allocations. Mirrors the borrow-back idiom of
/// [`crate::shed::SurvivorSlot`].
#[derive(Debug, Clone, PartialEq)]
pub struct CohortPlan {
    cohort_of: Vec<usize>,
    multiplicity: Vec<f64>,
    workloads: Vec<f64>,
    attachment: Vec<usize>,
    access_delay: Vec<f64>,
    /// Per-user scatter weight `λ_j / Λ_c`: proportional-to-λ scattering
    /// preserves per-user demand exactly for quantized classes and reduces
    /// to the symmetric `1/n` split for exact classes.
    share: Vec<f64>,
    num_users: usize,
    /// Whether the plan was built with [`CohortConfig::pool_references`]:
    /// references are pooled across mixed-history members and the caller
    /// should scatter with [`CohortPlan::scatter_pooled`].
    pooled: bool,
}

/// λ-class key: bitwise by default, geometric bucket under quantization.
fn lambda_key(lambda: f64, tolerance: Option<f64>) -> u64 {
    match tolerance {
        Some(tol) if tol > 0.0 && lambda > 0.0 && lambda.is_finite() => {
            (lambda.ln() / (1.0 + tol).ln()).floor() as i64 as u64
        }
        _ => lambda.to_bits(),
    }
}

/// FNV-1a over the bitwise previous-slot column of user `j` — a cheap
/// grouping hint; equality is always confirmed bitwise (see `rows_equal`),
/// so a hash collision can never merge non-exchangeable users.
fn row_hash(prev: &Allocation, j: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..prev.num_clouds() {
        h ^= prev.get(i, j).to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Whether users `a` and `b` have bitwise-identical previous-slot rows.
fn rows_equal(prev: &Allocation, a: usize, b: usize) -> bool {
    (0..prev.num_clouds()).all(|i| prev.get(i, a).to_bits() == prev.get(i, b).to_bits())
}

impl CohortPlan {
    /// Groups the slot's users into exchangeability cohorts keyed on
    /// `(attached station, λ-class, bitwise previous row)`. Returns `None`
    /// when cohorting does not apply: the input is already cohort-reduced
    /// (it carries a multiplicity), the slot has fewer than two users, the
    /// previous allocation's shape does not match the slot, or the class
    /// count exploded past [`CohortConfig::max_cohort_fraction`] — the
    /// caller then runs its blocked per-user path.
    pub fn build(
        input: &SlotInput<'_>,
        prev: &Allocation,
        cfg: &CohortConfig,
    ) -> Option<CohortPlan> {
        let num_users = input.num_users();
        if input.multiplicity.is_some()
            || num_users < MIN_USERS
            || prev.num_users() != num_users
            || prev.num_clouds() != input.num_clouds()
        {
            return None;
        }
        // (station, λ-class, row-hash) → cohort ids sharing that triple;
        // the inner Vec has one entry unless the row hash collides, and
        // membership is always confirmed by a bitwise row comparison. In
        // pooled mode the row is not part of the identity: the hash is a
        // constant and the confirmation is skipped.
        let mut index: HashMap<(usize, u64, u64), Vec<usize>> = HashMap::new();
        let mut first_member: Vec<usize> = Vec::new();
        let mut cohort_of = vec![0usize; num_users];
        for j in 0..num_users {
            let key = (
                input.attachment[j],
                lambda_key(input.workloads[j], cfg.lambda_tolerance),
                if cfg.pool_references {
                    0
                } else {
                    row_hash(prev, j)
                },
            );
            let ids = index.entry(key).or_default();
            let c = match ids
                .iter()
                .copied()
                .find(|&c| cfg.pool_references || rows_equal(prev, first_member[c], j))
            {
                Some(c) => c,
                None => {
                    let c = first_member.len();
                    first_member.push(j);
                    ids.push(c);
                    c
                }
            };
            cohort_of[j] = c;
        }
        let num_cohorts = first_member.len();
        if (num_cohorts as f64) > cfg.max_cohort_fraction * num_users as f64 {
            return None;
        }
        let mut multiplicity = vec![0.0; num_cohorts];
        let mut workloads = vec![0.0; num_cohorts];
        let mut access_delay = vec![0.0; num_cohorts];
        for j in 0..num_users {
            let c = cohort_of[j];
            multiplicity[c] += 1.0;
            workloads[c] += input.workloads[j];
            access_delay[c] += input.access_delay[j];
        }
        let attachment: Vec<usize> = first_member.iter().map(|&j| input.attachment[j]).collect();
        let share: Vec<f64> = (0..num_users)
            .map(|j| input.workloads[j] / workloads[cohort_of[j]])
            .collect();
        Some(CohortPlan {
            cohort_of,
            multiplicity,
            workloads,
            attachment,
            access_delay,
            share,
            num_users,
            pooled: cfg.pool_references,
        })
    }

    /// Whether the plan pools mixed-history references (built with
    /// [`CohortConfig::pool_references`]); pooled plans scatter with
    /// [`CohortPlan::scatter_pooled`].
    pub fn pooled(&self) -> bool {
        self.pooled
    }

    /// Number of cohorts (reduced-program "users").
    pub fn num_cohorts(&self) -> usize {
        self.multiplicity.len()
    }

    /// Number of original users the plan covers.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Users per cohort variable, `J / cohorts` (≥ 1).
    pub fn compression_ratio(&self) -> f64 {
        self.num_users as f64 / self.num_cohorts() as f64
    }

    /// Cohort multiplicities `n_c` (as floats, ready for the reduced
    /// program's multiplicity channel).
    pub fn multiplicities(&self) -> &[f64] {
        &self.multiplicity
    }

    /// The cohort each user belongs to.
    pub fn cohort_of(&self) -> &[usize] {
        &self.cohort_of
    }

    /// The reduced slot view: cohort totals as workloads, one attachment
    /// per cohort, summed access delays, and the multiplicity channel the
    /// ℙ₂ builders use to recover per-user λ inside quality and migration
    /// coefficients. System, prices, and weights are borrowed unchanged.
    pub fn as_input<'a>(&'a self, raw: &SlotInput<'a>) -> SlotInput<'a> {
        SlotInput {
            t: raw.t,
            system: raw.system,
            workloads: &self.workloads,
            operation_prices: raw.operation_prices,
            attachment: self.attachment.clone(),
            access_delay: self.access_delay.clone(),
            reconfig_prices: raw.reconfig_prices,
            migration_out: raw.migration_out,
            migration_in: raw.migration_in,
            weights: raw.weights,
            multiplicity: Some(&self.multiplicity),
        }
    }

    /// Pools a full `I × J` allocation into cohort space by summing member
    /// columns — the reduced previous-slot reference the migration
    /// regularizers need (cloud totals are preserved, so the aggregate
    /// reconfiguration references are too).
    pub fn restrict(&self, x: &Allocation) -> Allocation {
        let num_clouds = x.num_clouds();
        let mut r = Allocation::zeros(num_clouds, self.num_cohorts());
        for i in 0..num_clouds {
            for (j, &c) in self.cohort_of.iter().enumerate() {
                r.set(i, c, r.get(i, c) + x.get(i, j));
            }
        }
        r
    }

    /// Scatters a cohort-space allocation back to per-user columns,
    /// proportionally to workload: `x_ij = y_{i,c} · λ_j/Λ_c`. For exact
    /// λ-classes this is the symmetric split (every member gets the same
    /// bit pattern, keeping cohorts stable across slots); for quantized
    /// classes it still covers each member's own λ whenever the cohort
    /// demand row is met.
    pub fn scatter(&self, reduced: &Allocation) -> Allocation {
        let num_clouds = reduced.num_clouds();
        let mut x = Allocation::zeros(num_clouds, self.num_users);
        for i in 0..num_clouds {
            for (j, &c) in self.cohort_of.iter().enumerate() {
                x.set(i, j, reduced.get(i, c) * self.share[j]);
            }
        }
        x
    }

    /// Scatters a cohort-space allocation entropically, proportionally to
    /// the members' *previous* rows: `x_ij + ε₂ ∝ r_ij + ε₂`, i.e.
    ///
    /// ```text
    /// x_ij = (y_ic + n_c ε₂) · (r_ij + ε₂) / (R_ic + n_c ε₂) − ε₂,
    /// ```
    ///
    /// where `R_ic = Σ_{j∈c} r_ij` is the pooled reference. This is the
    /// split that *attains* the log-sum lower bound the pooled reduced
    /// program optimizes (see the module docs), so members keep their
    /// migration locality — a user previously on cloud A stays mostly on
    /// A. Negative values (possible when `y_ic` shrinks far below the
    /// reference) clamp to zero; per-cloud totals are preserved exactly up
    /// to that clamp, and per-user demand rows — which the entropic split
    /// does not see — are restored by the caller's exact projection.
    pub fn scatter_pooled(&self, reduced: &Allocation, prev: &Allocation, eps2: f64) -> Allocation {
        self.scatter_pooled_with(reduced, &self.restrict(prev), prev, eps2)
    }

    /// [`CohortPlan::scatter_pooled`] with the pooled previous allocation
    /// (`restrict(prev)`) supplied by the caller — the reduced solve
    /// already computed it, and at J = 10⁶ the duplicate restriction is a
    /// measurable slice of the slot.
    pub fn scatter_pooled_with(
        &self,
        reduced: &Allocation,
        pooled_prev: &Allocation,
        prev: &Allocation,
        eps2: f64,
    ) -> Allocation {
        let num_clouds = reduced.num_clouds();
        let num_cohorts = self.num_cohorts();
        // The scale factor depends only on (cloud, cohort): hoisting the
        // divisions out of the member loop removes one `div` per entry —
        // tens of milliseconds per slot at J = 10⁶.
        let mut scale = vec![0.0; num_clouds * num_cohorts];
        for i in 0..num_clouds {
            for c in 0..num_cohorts {
                let n = self.multiplicity[c];
                scale[i * num_cohorts + c] =
                    (reduced.get(i, c) + n * eps2) / (pooled_prev.get(i, c) + n * eps2);
            }
        }
        let mut x = Allocation::zeros(num_clouds, self.num_users);
        for i in 0..num_clouds {
            let row = &mut x.as_flat_mut()[i * self.num_users..(i + 1) * self.num_users];
            let prev_row = &prev.as_flat()[i * self.num_users..(i + 1) * self.num_users];
            let scale_row = &scale[i * num_cohorts..(i + 1) * num_cohorts];
            for ((v, &p), &c) in row.iter_mut().zip(prev_row).zip(&self.cohort_of) {
                *v = (scale_row[c] * (p + eps2) - eps2).max(0.0);
            }
        }
        x
    }

    /// Expands cohort demand duals to per-user duals: at the symmetric
    /// optimum every member's demand row carries the cohort's multiplier.
    pub fn scatter_theta(&self, theta: &[f64]) -> Vec<f64> {
        self.cohort_of.iter().map(|&c| theta[c]).collect()
    }
}

/// The effect of one churn event on the cohort class structure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassDelta {
    /// The event created a `(station, λ-class)` cell that had no members.
    pub born: bool,
    /// The event emptied a cell that had members.
    pub died: bool,
}

/// Per-class running state of a [`CohortLedger`].
#[derive(Debug, Clone, Default)]
struct ClassState {
    count: usize,
    lambda_sum: f64,
}

/// Incrementally maintained cohort structure for the streaming driver:
/// a churn event is literally a cohort-count increment or decrement, so
/// arrivals, departures, and moves update the `(station, λ-class)` cell
/// map in `O(1)` instead of re-indexing all `J` users. The ledger tracks
/// *pooled* classes ([`CohortConfig::pool_references`]): in non-pooled
/// mode the class identity includes the bitwise previous-slot row, which
/// changes every slot regardless of churn, so there is nothing durable to
/// maintain.
///
/// [`CohortLedger::plan`] materializes a [`CohortPlan`] bitwise identical
/// (fields and numbering) to [`CohortPlan::build`] on the current dense
/// user arrays: cohort numbering is canonical first-occurrence order and
/// the cohort sums are re-accumulated in user order, so summation order —
/// and therefore every float — matches the batch builder exactly.
#[derive(Debug, Clone)]
pub struct CohortLedger {
    cfg: CohortConfig,
    /// Per dense-user attachment station (the class key's first half).
    station: Vec<usize>,
    /// Per dense-user workload λ_j as fed to the solver.
    lambda: Vec<f64>,
    /// Per dense-user access delay `d(j, l_j)`.
    delay: Vec<f64>,
    classes: HashMap<(usize, u64), ClassState>,
}

impl CohortLedger {
    /// An empty ledger. `pool_references` is forced on — see the type docs.
    pub fn new(cfg: CohortConfig) -> Self {
        CohortLedger {
            cfg: CohortConfig {
                pool_references: true,
                ..cfg
            },
            station: Vec::new(),
            lambda: Vec::new(),
            delay: Vec::new(),
            classes: HashMap::new(),
        }
    }

    /// Number of live users.
    pub fn num_users(&self) -> usize {
        self.station.len()
    }

    /// Number of live `(station, λ-class)` cells.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// The maintained per-user access delays (dense order).
    pub fn delays(&self) -> &[f64] {
        &self.delay
    }

    /// The maintained per-user workloads (dense order).
    pub fn lambdas(&self) -> &[f64] {
        &self.lambda
    }

    /// The maintained per-user attachments (dense order).
    pub fn stations(&self) -> &[usize] {
        &self.station
    }

    fn key(&self, station: usize, lambda: f64) -> (usize, u64) {
        (station, lambda_key(lambda, self.cfg.lambda_tolerance))
    }

    fn join(&mut self, key: (usize, u64), lambda: f64) -> bool {
        let cell = self.classes.entry(key).or_default();
        let born = cell.count == 0;
        cell.count += 1;
        cell.lambda_sum += lambda;
        born
    }

    fn leave(&mut self, key: (usize, u64), lambda: f64) -> bool {
        let cell = self.classes.get_mut(&key).expect("departing a dead class");
        cell.count -= 1;
        cell.lambda_sum -= lambda;
        if cell.count == 0 {
            self.classes.remove(&key);
            true
        } else {
            false
        }
    }

    /// A user arrives; returns the new dense index and the class effect.
    pub fn arrive(&mut self, station: usize, lambda: f64, delay: f64) -> (usize, ClassDelta) {
        let j = self.station.len();
        self.station.push(station);
        self.lambda.push(lambda);
        self.delay.push(delay);
        let born = self.join(self.key(station, lambda), lambda);
        (j, ClassDelta { born, died: false })
    }

    /// User `j` departs (swap-remove): the former last user takes index
    /// `j`. Returns the class effect and the old index of the user that
    /// moved into `j` (`None` when `j` was last).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn depart(&mut self, j: usize) -> (ClassDelta, Option<usize>) {
        let key = self.key(self.station[j], self.lambda[j]);
        let died = self.leave(key, self.lambda[j]);
        let last = self.station.len() - 1;
        self.station.swap_remove(j);
        self.lambda.swap_remove(j);
        self.delay.swap_remove(j);
        (
            ClassDelta { born: false, died },
            (j != last).then_some(last),
        )
    }

    /// User `j` moves to `station` with the given access delay.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn move_to(&mut self, j: usize, station: usize, delay: f64) -> ClassDelta {
        let lambda = self.lambda[j];
        let old = self.key(self.station[j], lambda);
        let new = self.key(station, lambda);
        self.station[j] = station;
        self.delay[j] = delay;
        if old == new {
            return ClassDelta::default();
        }
        let died = self.leave(old, lambda);
        let born = self.join(new, lambda);
        ClassDelta { born, died }
    }

    /// Materializes the [`CohortPlan`] for the current user set — bitwise
    /// identical to [`CohortPlan::build`] on the same dense arrays (the
    /// delta-sequence property test pins this). Returns `None` under the
    /// same conditions as the batch builder (too few users, class-count
    /// explosion).
    pub fn plan(&self, prev: &Allocation) -> Option<CohortPlan> {
        let num_users = self.num_users();
        if num_users < MIN_USERS
            || prev.num_users() != num_users
            || (self.num_classes() as f64) > self.cfg.max_cohort_fraction * num_users as f64
        {
            return None;
        }
        // Canonical first-occurrence renumbering: one lookup-only pass in
        // user order — class *births* were already absorbed by the event
        // updates, so no insertion logic runs here.
        let mut renumber: HashMap<(usize, u64), usize> = HashMap::with_capacity(self.num_classes());
        let mut first_member: Vec<usize> = Vec::with_capacity(self.num_classes());
        let mut cohort_of = vec![0usize; num_users];
        for j in 0..num_users {
            let key = self.key(self.station[j], self.lambda[j]);
            let c = *renumber.entry(key).or_insert_with(|| {
                first_member.push(j);
                first_member.len() - 1
            });
            cohort_of[j] = c;
        }
        let num_cohorts = first_member.len();
        debug_assert_eq!(num_cohorts, self.num_classes());
        let mut multiplicity = vec![0.0; num_cohorts];
        let mut workloads = vec![0.0; num_cohorts];
        let mut access_delay = vec![0.0; num_cohorts];
        for j in 0..num_users {
            let c = cohort_of[j];
            multiplicity[c] += 1.0;
            workloads[c] += self.lambda[j];
            access_delay[c] += self.delay[j];
        }
        let attachment: Vec<usize> = first_member.iter().map(|&j| self.station[j]).collect();
        let share: Vec<f64> = (0..num_users)
            .map(|j| self.lambda[j] / workloads[cohort_of[j]])
            .collect();
        Some(CohortPlan {
            cohort_of,
            multiplicity,
            workloads,
            attachment,
            access_delay,
            share,
            num_users,
            pooled: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;

    fn uniform_input(inst: &Instance) -> SlotInput<'_> {
        SlotInput::from_instance(inst, 0)
    }

    fn taxi_instance(users: usize, slots: usize, seed: u64) -> Instance {
        use rand::SeedableRng;
        let net = mobility::rome_metro();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mob = mobility::random_walk::generate(&net, users, slots, &mut rng);
        Instance::synthetic(&net, mob, &mut rng)
    }

    #[test]
    fn zero_prev_groups_by_station_and_lambda() {
        let inst = taxi_instance(24, 2, 7);
        let input = uniform_input(&inst);
        let prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
        let cfg = CohortConfig {
            max_cohort_fraction: 1.0,
            ..CohortConfig::default()
        };
        let plan = CohortPlan::build(&input, &prev, &cfg).expect("plan builds");
        // Distinct (station, λ-bits) pairs are exactly the cohort count at
        // prev = 0 (every reference row is the zero row).
        let distinct: std::collections::HashSet<(usize, u64)> = (0..inst.num_users())
            .map(|j| (input.attachment[j], input.workloads[j].to_bits()))
            .collect();
        assert_eq!(plan.num_cohorts(), distinct.len());
        // Totals and multiplicities are consistent.
        let total: f64 = plan.workloads.iter().sum();
        let full: f64 = input.workloads.iter().sum();
        assert!((total - full).abs() <= 1e-12 * full.max(1.0));
        let n: f64 = plan.multiplicities().iter().sum();
        assert_eq!(n, inst.num_users() as f64);
    }

    #[test]
    fn distinct_prev_rows_split_cohorts() {
        let inst = taxi_instance(6, 2, 3);
        let input = uniform_input(&inst);
        let cfg = CohortConfig {
            max_cohort_fraction: 1.0,
            ..CohortConfig::default()
        };
        let zero = Allocation::zeros(inst.num_clouds(), inst.num_users());
        let base = CohortPlan::build(&input, &zero, &cfg).expect("plan builds");
        // Give one user a unique history: it must land in its own cohort.
        let mut prev = zero.clone();
        prev.set(0, 0, 0.25);
        let split = CohortPlan::build(&input, &prev, &cfg).expect("plan builds");
        assert!(split.num_cohorts() >= base.num_cohorts());
        let c0 = split.cohort_of()[0];
        assert_eq!(
            split.multiplicities()[c0],
            1.0,
            "the user with a unique previous row must be a singleton cohort"
        );
    }

    #[test]
    fn explosion_guard_bails_to_none() {
        let inst = taxi_instance(8, 2, 9);
        let input = uniform_input(&inst);
        // Every user gets a distinct previous row → all-singleton cohorts.
        let mut prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
        for j in 0..inst.num_users() {
            prev.set(0, j, 0.01 * (j + 1) as f64);
        }
        let guarded = CohortConfig::default(); // max fraction 0.5
        assert!(CohortPlan::build(&input, &prev, &guarded).is_none());
        let lenient = CohortConfig {
            max_cohort_fraction: 1.0,
            ..CohortConfig::default()
        };
        let plan = CohortPlan::build(&input, &prev, &lenient).expect("lenient plan builds");
        assert_eq!(plan.num_cohorts(), inst.num_users());
    }

    #[test]
    fn already_reduced_input_is_refused() {
        let inst = taxi_instance(8, 2, 9);
        let input = uniform_input(&inst);
        let prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
        let cfg = CohortConfig {
            max_cohort_fraction: 1.0,
            ..CohortConfig::default()
        };
        let plan = CohortPlan::build(&input, &prev, &cfg).expect("plan builds");
        let rinput = plan.as_input(&input);
        let rprev = plan.restrict(&prev);
        assert!(
            CohortPlan::build(&rinput, &rprev, &cfg).is_none(),
            "a cohort-reduced input must not be cohorted again"
        );
    }

    #[test]
    fn restrict_and_scatter_round_trip_totals() {
        let inst = taxi_instance(12, 2, 5);
        let input = uniform_input(&inst);
        let prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
        let cfg = CohortConfig {
            max_cohort_fraction: 1.0,
            ..CohortConfig::default()
        };
        let plan = CohortPlan::build(&input, &prev, &cfg).expect("plan builds");
        let mut reduced = Allocation::zeros(inst.num_clouds(), plan.num_cohorts());
        for i in 0..inst.num_clouds() {
            for c in 0..plan.num_cohorts() {
                reduced.set(i, c, (1 + i + 3 * c) as f64 * 0.125);
            }
        }
        let full = plan.scatter(&reduced);
        let back = plan.restrict(&full);
        for i in 0..inst.num_clouds() {
            for c in 0..plan.num_cohorts() {
                let rel = (back.get(i, c) - reduced.get(i, c)).abs() / reduced.get(i, c).max(1e-12);
                assert!(rel <= 1e-12, "cohort ({i}, {c}) total drifted by {rel}");
            }
            // Cloud totals are preserved by both directions.
            let rel = (full.cloud_total(i) - reduced.cloud_total(i)).abs() / reduced.cloud_total(i);
            assert!(rel <= 1e-12, "cloud {i} total drifted");
        }
    }

    #[test]
    fn symmetric_scatter_gives_members_identical_rows() {
        let inst = taxi_instance(16, 2, 11);
        let input = uniform_input(&inst);
        let prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
        let cfg = CohortConfig {
            max_cohort_fraction: 1.0,
            ..CohortConfig::default()
        };
        let plan = CohortPlan::build(&input, &prev, &cfg).expect("plan builds");
        let mut reduced = Allocation::zeros(inst.num_clouds(), plan.num_cohorts());
        for i in 0..inst.num_clouds() {
            for c in 0..plan.num_cohorts() {
                reduced.set(i, c, 0.3 + (i + c) as f64 * 0.07);
            }
        }
        let full = plan.scatter(&reduced);
        for (j, &c) in plan.cohort_of().iter().enumerate() {
            let rep = plan.cohort_of().iter().position(|&d| d == c).unwrap();
            for i in 0..inst.num_clouds() {
                assert_eq!(
                    full.get(i, j).to_bits(),
                    full.get(i, rep).to_bits(),
                    "member {j} diverged from representative {rep} at cloud {i}"
                );
            }
        }
        // Stability: rebuilding on the scattered rows keeps cohorts whole.
        let next = CohortPlan::build(&input, &full, &cfg).expect("plan persists");
        assert_eq!(next.num_cohorts(), plan.num_cohorts());
    }

    #[test]
    fn pooled_mode_ignores_previous_rows() {
        let inst = taxi_instance(24, 2, 7);
        let input = uniform_input(&inst);
        // Every user gets a distinct previous row — exact keying would
        // shatter into singletons, pooled keying must not notice.
        let mut prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
        for j in 0..inst.num_users() {
            prev.set(0, j, 0.01 * (j + 1) as f64);
            prev.set(1, j, inst.workloads()[j]);
        }
        let pooled = CohortPlan::build(
            &input,
            &prev,
            &CohortConfig {
                max_cohort_fraction: 1.0,
                pool_references: true,
                ..CohortConfig::default()
            },
        )
        .expect("pooled plan builds");
        let distinct: std::collections::HashSet<(usize, u64)> = (0..inst.num_users())
            .map(|j| (input.attachment[j], input.workloads[j].to_bits()))
            .collect();
        assert_eq!(pooled.num_cohorts(), distinct.len());
        assert!(pooled.pooled());
    }

    #[test]
    fn entropic_scatter_attains_the_pooled_bound() {
        let inst = taxi_instance(18, 2, 21);
        let input = uniform_input(&inst);
        let mut prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
        for j in 0..inst.num_users() {
            for i in 0..inst.num_clouds() {
                prev.set(i, j, 0.1 + 0.03 * ((i + 2 * j) % 7) as f64);
            }
        }
        let plan = CohortPlan::build(
            &input,
            &prev,
            &CohortConfig {
                max_cohort_fraction: 1.0,
                pool_references: true,
                ..CohortConfig::default()
            },
        )
        .expect("pooled plan builds");
        assert!(plan.num_cohorts() < inst.num_users(), "no mixing to test");
        // A strictly positive cohort-space point (so no clamping occurs).
        let pooled_ref = plan.restrict(&prev);
        let mut reduced = Allocation::zeros(inst.num_clouds(), plan.num_cohorts());
        for i in 0..inst.num_clouds() {
            for c in 0..plan.num_cohorts() {
                reduced.set(
                    i,
                    c,
                    pooled_ref.get(i, c) * (0.6 + 0.1 * ((i + c) % 5) as f64),
                );
            }
        }
        let eps2 = 0.5;
        let full = plan.scatter_pooled(&reduced, &prev, eps2);
        let ent = |x: f64, r: f64, e: f64| (x + e) * ((x + e) / (r + e)).ln() - x;
        for i in 0..inst.num_clouds() {
            for c in 0..plan.num_cohorts() {
                let n = plan.multiplicities()[c];
                // Per-cloud cohort totals are preserved exactly (no clamp).
                let y = reduced.get(i, c);
                let total: f64 = (0..inst.num_users())
                    .filter(|&j| plan.cohort_of()[j] == c)
                    .map(|j| full.get(i, j))
                    .sum();
                assert!(
                    (total - y).abs() <= 1e-12 * y.max(1.0),
                    "cohort ({i}, {c}) total drifted: {total} vs {y}"
                );
                // Σ_j D_ε(x_j ‖ r_j) equals the single pooled term — the
                // log-sum inequality holds with equality at this split.
                let member_sum: f64 = (0..inst.num_users())
                    .filter(|&j| plan.cohort_of()[j] == c)
                    .map(|j| ent(full.get(i, j), prev.get(i, j), eps2))
                    .sum();
                let pooled_term = ent(y, pooled_ref.get(i, c), n * eps2);
                assert!(
                    (member_sum - pooled_term).abs() <= 1e-10 * pooled_term.abs().max(1.0),
                    "cohort ({i}, {c}): member entropies {member_sum} vs pooled {pooled_term}"
                );
            }
        }
    }

    #[test]
    fn entropic_scatter_with_identical_rows_is_the_symmetric_split() {
        let inst = taxi_instance(12, 2, 5);
        let input = uniform_input(&inst);
        let prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
        let plan = CohortPlan::build(
            &input,
            &prev,
            &CohortConfig {
                max_cohort_fraction: 1.0,
                pool_references: true,
                ..CohortConfig::default()
            },
        )
        .expect("pooled plan builds");
        let mut reduced = Allocation::zeros(inst.num_clouds(), plan.num_cohorts());
        for i in 0..inst.num_clouds() {
            for c in 0..plan.num_cohorts() {
                reduced.set(i, c, 0.3 + (i + c) as f64 * 0.07);
            }
        }
        let full = plan.scatter_pooled(&reduced, &prev, 0.5);
        for (j, &c) in plan.cohort_of().iter().enumerate() {
            for i in 0..inst.num_clouds() {
                let expect = reduced.get(i, c) / plan.multiplicities()[c];
                assert!(
                    (full.get(i, j) - expect).abs() <= 1e-12 * expect.max(1.0),
                    "member {j} cloud {i}: {} vs uniform {expect}",
                    full.get(i, j)
                );
            }
        }
    }

    #[test]
    fn quantized_lambda_classes_merge_close_workloads() {
        let inst = taxi_instance(10, 2, 13);
        let mut workloads: Vec<f64> = inst.workloads().to_vec();
        // Perturb every λ by < 0.1% so exact matching sees all-distinct
        // classes but a 1% quantization folds them back together.
        for (j, w) in workloads.iter_mut().enumerate() {
            *w *= 1.0 + 1e-4 * (j % 3) as f64;
        }
        let raw = uniform_input(&inst);
        let input = SlotInput {
            workloads: &workloads,
            ..raw.clone()
        };
        let prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
        let lenient = CohortConfig {
            max_cohort_fraction: 1.0,
            ..CohortConfig::default()
        };
        let exact = CohortPlan::build(&input, &prev, &lenient).expect("exact plan");
        let quantized = CohortPlan::build(
            &input,
            &prev,
            &CohortConfig {
                lambda_tolerance: Some(0.01),
                max_cohort_fraction: 1.0,
                ..CohortConfig::default()
            },
        )
        .expect("quantized plan");
        assert!(quantized.num_cohorts() <= exact.num_cohorts());
        // Proportional scatter still covers each member's own λ.
        let mut reduced = Allocation::zeros(inst.num_clouds(), quantized.num_cohorts());
        for c in 0..quantized.num_cohorts() {
            // Meet each cohort's demand row exactly on cloud 0.
            reduced.set(0, c, quantized.workloads[c]);
        }
        let full = quantized.scatter(&reduced);
        for j in 0..inst.num_users() {
            assert!(
                full.user_total(j) >= workloads[j] * (1.0 - 1e-12),
                "user {j} under-served after quantized scatter"
            );
        }
    }
}
