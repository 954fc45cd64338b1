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
//! split [`CohortPlan::scatter_pooled_with`] — the reduction is only an
//! approximation insofar as that split can under-serve an individual
//! member's demand row, which the caller's exact projection then repairs.
//! When member rows coincide the bound is the exact reduction above, so
//! pooled mode degrades gracefully to exact mode on symmetric histories.
//! Cohort count stays `O(stations × λ-classes)` *per slot regardless of
//! horizon length* — the property the million-user target needs.
//!
//! **Two cores, same bits.** At a million users the slot's time goes to
//! passes over users, not to the reduced solve. From 100,000 users
//! [`CohortPlan::build`] assigns the users in ranges run on workers leased
//! from [`optim::parallel::WorkerBudget::global`]: every part numbers the
//! cohorts of its users by first appearance, and after the join the later
//! parts' cohorts take their global ids in part order. The cohort sums
//! then add the users in ascending order, and the pooled reference pools
//! `prev` by clouds, each `(i, c)` sum in ascending user order, as
//! [`CohortPlan::restrict`] does. The plan is therefore bit for bit the
//! one-part plan. The finisher's projection splits by the same rule (see
//! [`crate::exact`]).
//!
//! Workloads are read from the [`SlotInput`] *as decided*, i.e. after
//! [`crate::instance::Instance::scale_demand`] hostile scaling has been
//! applied by the runner — a flash-crowd surge changes the λ bits and
//! therefore the class key, so surged users can never silently merge into
//! an unsurged class.

use crate::algorithms::SlotInput;
use crate::allocation::Allocation;
use crate::exact;
use crate::hash::MulMap;
use crate::split::{cut, Columns, UserSplit};
use crate::Result;
use std::ops::Range;

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
    /// scatter becomes the entropic split
    /// [`CohortPlan::scatter_pooled_with`] and per-user demand is restored
    /// by the caller's exact projection.
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
/// attachments) and the pooled previous allocation. Mirrors the
/// borrow-back idiom of [`crate::shed::SurvivorSlot`]. The scatters turn a
/// cohort-space solution back into per-user allocations:
/// [`CohortPlan::scatter`] from the slot's workloads,
/// [`CohortPlan::scatter_pooled_with`] from the previous allocation. The
/// slot pipeline finishes either plan through one crate-private finisher,
/// the plan's scatter followed by [`exact::project_exact`]; for a pooled
/// plan the split is written inside the projection's first sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortPlan {
    cohort_of: Vec<usize>,
    multiplicity: Vec<f64>,
    workloads: Vec<f64>,
    attachment: Vec<usize>,
    access_delay: Vec<f64>,
    /// The pooled previous allocation `restrict(prev)` (I × cohorts),
    /// accumulated while the users are assigned.
    reference: Allocation,
    num_users: usize,
    /// Whether the plan was built with [`CohortConfig::pool_references`]:
    /// references are pooled across mixed-history members and the plan
    /// scatters with [`CohortPlan::scatter_pooled_with`].
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

/// Users whose previous columns [`pool`] adds at a time.
const POOL_BLOCK: usize = 256;

/// Pools the columns of `x` into the `I × cohorts` allocation of their
/// cohorts' sums, `cohort_of` giving each user's cohort. Every `(i, c)` sum
/// starts at `+0.0` and adds its members in ascending `j`, a block of
/// [`POOL_BLOCK`] users at a time; the rows split by clouds among
/// `split`'s parts, each part taking whole rows, so `x` is read once.
fn pool(
    split: &UserSplit<'_>,
    cohort_of: &[usize],
    num_cohorts: usize,
    x: &Allocation,
) -> Allocation {
    let num_users = cohort_of.len();
    let mut pooled = Allocation::zeros(x.num_clouds(), num_cohorts);
    let bounds = split.cloud_bounds(x.num_clouds());
    let rows: Vec<usize> = bounds.iter().map(|&i| i * num_cohorts).collect();
    let x_rows = x.as_flat().chunks_exact(x.num_users().max(1));
    split.run(cut(pooled.as_flat_mut(), &rows), |k, part| {
        for start in (0..num_users).step_by(POOL_BLOCK) {
            let users = start..num_users.min(start + POOL_BLOCK);
            let cohorts = &cohort_of[users.clone()];
            for (row, x_row) in part
                .chunks_exact_mut(num_cohorts.max(1))
                .zip(x_rows.clone().skip(bounds[k]))
            {
                for (&v, &c) in x_row[users.clone()].iter().zip(cohorts) {
                    row[c] += v;
                }
            }
        }
    });
    pooled
}

/// Whether users `a` and `b` have bitwise-identical previous-slot rows.
fn rows_equal(prev: &Allocation, a: usize, b: usize) -> bool {
    (0..prev.num_clouds()).all(|i| prev.get(i, a).to_bits() == prev.get(i, b).to_bits())
}

/// A cohort's key: attached station, λ-class and the hash of the previous
/// row (a constant in pooled mode).
type Key = (usize, u64, u64);

/// Cohorts numbered by first appearance: what one part of
/// `CohortPlan::build` finds among its users.
#[derive(Default)]
struct Cohorts {
    /// Key → cohort ids sharing it; the inner Vec has one entry unless the
    /// row hash collides, and membership is always confirmed by a bitwise
    /// row comparison (skipped in pooled mode, where the row is not part
    /// of the identity).
    index: MulMap<Key, Vec<usize>>,
    first_member: Vec<usize>,
}

impl Cohorts {
    /// The id of the cohort of user `j`, whose key is `key`, numbering a
    /// new cohort if `j` is its first member; `same(a, b)` says whether
    /// users `a` and `b` with one key share a cohort. `None` once the
    /// count would pass `max_cohorts`: it only grows, so the plan stops at
    /// the first cohort past the guard instead of assigning the rest.
    fn id(
        &mut self,
        key: Key,
        j: usize,
        same: impl Fn(usize, usize) -> bool,
        max_cohorts: f64,
    ) -> Option<usize> {
        let ids = self.index.entry(key).or_default();
        if let Some(c) = ids.iter().copied().find(|&c| same(self.first_member[c], j)) {
            return Some(c);
        }
        let c = self.first_member.len();
        if (c + 1) as f64 > max_cohorts {
            return None;
        }
        self.first_member.push(j);
        ids.push(c);
        Some(c)
    }
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
        Self::build_with(input, prev, cfg, &UserSplit::lease(input.num_users()))
    }

    /// [`CohortPlan::build`] with its passes over users split as `split`
    /// says (see [`crate::split`]). Every part numbers the cohorts of its
    /// users by first appearance. After the join the later parts' cohorts
    /// take their global ids in part order, so ids still follow first
    /// appearance, and every sum runs over the users in ascending order:
    /// the cohort sums user by user, the pooled reference by clouds.
    pub(crate) fn build_with(
        input: &SlotInput<'_>,
        prev: &Allocation,
        cfg: &CohortConfig,
        split: &UserSplit<'_>,
    ) -> Option<CohortPlan> {
        let num_users = input.num_users();
        let num_clouds = prev.num_clouds();
        if input.multiplicity.is_some()
            || num_users < MIN_USERS
            || prev.num_users() != num_users
            || num_clouds != input.num_clouds()
        {
            return None;
        }
        let max_cohorts = cfg.max_cohort_fraction * num_users as f64;
        let key = |j: usize| -> Key {
            (
                input.attachment[j],
                lambda_key(input.workloads[j], cfg.lambda_tolerance),
                if cfg.pool_references {
                    0
                } else {
                    row_hash(prev, j)
                },
            )
        };
        let same = |a: usize, b: usize| cfg.pool_references || rows_equal(prev, a, b);
        let mut cohort_of = vec![0usize; num_users];
        let parts = split.run(cut(&mut cohort_of, split.bounds()), |k, ids| {
            let mut cohorts = Cohorts::default();
            for (j, id) in split.users(k).zip(ids) {
                *id = cohorts.id(key(j), j, same, max_cohorts)?;
            }
            Some(cohorts)
        });
        let mut parts = parts.into_iter();
        let mut cohorts = parts.next().expect("at least one part")?;
        for (k, part) in (1..).zip(parts) {
            let global = part?
                .first_member
                .iter()
                .map(|&m| cohorts.id(key(m), m, same, max_cohorts))
                .collect::<Option<Vec<usize>>>()?;
            for c in &mut cohort_of[split.users(k)] {
                *c = global[*c];
            }
        }
        let num_cohorts = cohorts.first_member.len();
        let mut multiplicity = vec![0.0; num_cohorts];
        let mut workloads = vec![0.0; num_cohorts];
        let mut access_delay = vec![0.0; num_cohorts];
        for (j, &c) in cohort_of.iter().enumerate() {
            multiplicity[c] += 1.0;
            workloads[c] += input.workloads[j];
            access_delay[c] += input.access_delay[j];
        }
        let reference = pool(split, &cohort_of, num_cohorts, prev);
        let attachment = cohorts
            .first_member
            .iter()
            .map(|&j| input.attachment[j])
            .collect();
        Some(CohortPlan {
            cohort_of,
            multiplicity,
            workloads,
            attachment,
            access_delay,
            reference,
            num_users,
            pooled: cfg.pool_references,
        })
    }

    /// Whether the plan pools mixed-history references (built with
    /// [`CohortConfig::pool_references`]); pooled plans scatter with
    /// [`CohortPlan::scatter_pooled_with`].
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

    /// The pooled previous allocation the plan was built on: bit for bit
    /// [`CohortPlan::restrict`] of `build`'s `prev`, accumulated during
    /// the user loop so `prev` is read once per slot.
    pub fn reference(&self) -> &Allocation {
        &self.reference
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
            attachment: &self.attachment,
            access_delay: &self.access_delay,
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
    /// reconfiguration references are too). Each `(i, c)` sum adds its
    /// members in ascending `j`, the order [`CohortPlan::reference`] uses.
    pub fn restrict(&self, x: &Allocation) -> Allocation {
        let split = UserSplit::lease(self.num_users);
        pool(&split, &self.cohort_of, self.num_cohorts(), x)
    }

    /// Scatters a cohort-space allocation back to per-user columns,
    /// proportionally to workload: `x_ij = y_{i,c} · λ_j/Λ_c`, with
    /// `workloads` the slot's `λ` the plan was built on. For exact
    /// λ-classes this is the symmetric split (every member gets the same
    /// bit pattern, keeping cohorts stable across slots); for quantized
    /// classes it still covers each member's own λ whenever the cohort
    /// demand row is met.
    pub fn scatter(&self, reduced: &Allocation, workloads: &[f64]) -> Allocation {
        let num_clouds = reduced.num_clouds();
        let share: Vec<f64> = self
            .cohort_of
            .iter()
            .zip(workloads)
            .map(|(&c, &lambda)| lambda / self.workloads[c])
            .collect();
        let mut x = Allocation::zeros(num_clouds, self.num_users);
        for i in 0..num_clouds {
            for (j, &c) in self.cohort_of.iter().enumerate() {
                x.set(i, j, reduced.get(i, c) * share[j]);
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
    /// where `R_ic = Σ_{j∈c} r_ij` is the pooled reference `pooled_prev`:
    /// [`CohortPlan::restrict`] of `prev`, or [`CohortPlan::reference`]
    /// when `prev` is the plan's own. This is the split that *attains* the
    /// log-sum lower bound the pooled reduced program optimizes (see the
    /// module docs), so members keep their migration locality — a user
    /// previously on cloud A stays mostly on A. Negative values (possible
    /// when `y_ic` shrinks far below the reference) clamp to zero;
    /// per-cloud totals are preserved exactly up to that clamp, and
    /// per-user demand rows — which the entropic split does not see — are
    /// restored by the caller's exact projection.
    pub fn scatter_pooled_with(
        &self,
        reduced: &Allocation,
        pooled_prev: &Allocation,
        prev: &Allocation,
        eps2: f64,
    ) -> Allocation {
        let split = EntropicSplit::new(self, reduced, pooled_prev, prev, eps2);
        let mut x = Allocation::zeros(reduced.num_clouds(), self.num_users);
        split.write_all(&mut x);
        x
    }

    /// The plan's scatter followed by [`exact::project_exact`]: returns the
    /// projected allocation and the projection's outcome. An exact plan
    /// runs the two calls, [`CohortPlan::scatter`] on the slot's workloads
    /// and the projection. A pooled plan runs
    /// [`CohortPlan::scatter_pooled_with`] on the plan's own `prev` and
    /// [`CohortPlan::reference`], bit for bit the two calls in one fewer
    /// sweep: the projection's first sweep writes each block of users,
    /// trims it to demand and sums its users and clouds in one go. A
    /// non-finite user total (a corrupted reduced solution) rewrites the
    /// whole split and projects it as the two calls would, so the error and
    /// the matrix it leaves are the projection's own.
    pub(crate) fn scatter_exact(
        &self,
        input: &SlotInput<'_>,
        reduced: &Allocation,
        prev: &Allocation,
        eps2: f64,
    ) -> (Allocation, Result<()>) {
        let split = UserSplit::lease(self.num_users);
        self.scatter_exact_with(input, reduced, prev, eps2, &split)
    }

    /// [`CohortPlan::scatter_exact`] with its sweeps split as `split` says.
    pub(crate) fn scatter_exact_with(
        &self,
        input: &SlotInput<'_>,
        reduced: &Allocation,
        prev: &Allocation,
        eps2: f64,
        split: &UserSplit<'_>,
    ) -> (Allocation, Result<()>) {
        if !self.pooled {
            let mut x = self.scatter(reduced, input.workloads);
            let result = exact::project_exact_with(input, &mut x, split);
            return (x, result);
        }
        let entropic = EntropicSplit::new(self, reduced, &self.reference, prev, eps2);
        let mut x = Allocation::zeros(reduced.num_clouds(), self.num_users);
        let fill = |users, cols: &mut Columns<'_>| entropic.write(users, cols);
        match exact::repair_blocks(input, &mut x, fill, true, split) {
            Ok(true) => (x, Ok(())),
            Ok(false) => {
                entropic.write_all(&mut x);
                let result = exact::project_exact_with(input, &mut x, split);
                (x, result)
            }
            Err(err) => (x, Err(err)),
        }
    }
}

/// The entropic split's per-(cloud, cohort) factors.
struct EntropicSplit<'a> {
    plan: &'a CohortPlan,
    prev: &'a Allocation,
    eps2: f64,
    /// `(y_ic + n_c ε₂) / (R_ic + n_c ε₂)` at `i·C + c`: hoisting the
    /// divisions out of the member loop removes one `div` per entry.
    scale: Vec<f64>,
}

impl<'a> EntropicSplit<'a> {
    fn new(
        plan: &'a CohortPlan,
        reduced: &Allocation,
        pooled_prev: &Allocation,
        prev: &'a Allocation,
        eps2: f64,
    ) -> Self {
        let num_cohorts = plan.num_cohorts();
        let mut scale = vec![0.0; reduced.num_clouds() * num_cohorts];
        for (i, row) in scale.chunks_exact_mut(num_cohorts.max(1)).enumerate() {
            for (c, s) in row.iter_mut().enumerate() {
                let n = plan.multiplicity[c];
                *s = (reduced.get(i, c) + n * eps2) / (pooled_prev.get(i, c) + n * eps2);
            }
        }
        EntropicSplit {
            plan,
            prev,
            eps2,
            scale,
        }
    }

    /// Writes the entries `x_ij` of users `users` on every cloud into
    /// their columns `cols`.
    fn write(&self, users: Range<usize>, cols: &mut Columns<'_>) {
        let num_users = self.plan.num_users;
        let num_cohorts = self.plan.num_cohorts().max(1);
        let cohort_of = &self.plan.cohort_of[users.clone()];
        let rows = cols
            .blocks_mut(users.clone())
            .zip(self.prev.as_flat().chunks_exact(num_users))
            .zip(self.scale.chunks_exact(num_cohorts));
        for ((block, prev_row), scale_row) in rows {
            let prev_block = &prev_row[users.clone()];
            for ((v, &p), &c) in block.iter_mut().zip(prev_block).zip(cohort_of) {
                *v = (scale_row[c] * (p + self.eps2) - self.eps2).max(0.0);
            }
        }
    }

    /// Writes every entry of `x`.
    fn write_all(&self, x: &mut Allocation) {
        let num_users = self.plan.num_users;
        self.write(
            0..num_users,
            &mut Columns::of(x.as_flat_mut(), num_users, 0..num_users),
        );
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
        let full = plan.scatter(&reduced, input.workloads);
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
        let full = plan.scatter(&reduced, input.workloads);
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
        let full = plan.scatter_pooled_with(&reduced, &plan.restrict(&prev), &prev, eps2);
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
    fn projected_entropic_scatter_is_the_scatter_then_the_projection() {
        let inst = taxi_instance(40, 2, 17);
        let input = uniform_input(&inst);
        let mut prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
        for j in 0..inst.num_users() {
            for i in 0..inst.num_clouds() {
                prev.set(i, j, 0.05 * ((3 * i + j) % 5) as f64);
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
        let bits = |x: &Allocation| x.as_flat().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut reduced = Allocation::zeros(inst.num_clouds(), plan.num_cohorts());
        for (k, v) in reduced.as_flat_mut().iter_mut().enumerate() {
            // Some cohorts over-served, some under, some cut to zero.
            *v = [0.0, 0.7, 2.5, 11.0][k % 4] * (1.0 + 0.01 * k as f64);
        }
        for poison in [None, Some(f64::INFINITY), Some(f64::NAN)] {
            let mut reduced = reduced.clone();
            if let Some(v) = poison {
                reduced.set(1, plan.num_cohorts() - 1, v);
            }
            let (fused, got) = plan.scatter_exact(&input, &reduced, &prev, 0.5);
            let mut want = plan.scatter_pooled_with(&reduced, &plan.restrict(&prev), &prev, 0.5);
            let expected = exact::project_exact(&input, &mut want);
            assert_eq!(got, expected, "poison {poison:?}");
            assert_eq!(bits(&fused), bits(&want), "poison {poison:?}");
        }
    }

    #[test]
    fn projected_symmetric_scatter_is_the_scatter_then_the_projection() {
        let inst = taxi_instance(40, 2, 17);
        let input = uniform_input(&inst);
        let prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
        let cfg = CohortConfig {
            max_cohort_fraction: 1.0,
            ..CohortConfig::default()
        };
        let plan = CohortPlan::build(&input, &prev, &cfg).expect("exact plan builds");
        assert!(!plan.pooled());
        let bits = |x: &Allocation| x.as_flat().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut reduced = Allocation::zeros(inst.num_clouds(), plan.num_cohorts());
        for (k, v) in reduced.as_flat_mut().iter_mut().enumerate() {
            // Some cohorts over-served, some under, some cut to zero.
            *v = [0.0, 0.7, 2.5, 11.0][k % 4] * (1.0 + 0.01 * k as f64);
        }
        let last = plan.num_cohorts() - 1;
        let cases: [(&str, &[(usize, f64)]); 5] = [
            ("clean", &[]),
            ("small negatives", &[(0, -1e-13), (2, -0.25), (1, -0.0)]),
            ("+inf", &[(1, f64::INFINITY)]),
            ("-inf", &[(2, f64::NEG_INFINITY)]),
            ("nan", &[(1, f64::NAN)]),
        ];
        for (name, edits) in cases {
            let mut reduced = reduced.clone();
            for &(i, v) in edits {
                reduced.set(i, last - i % 2, v);
            }
            let (fused, got) = plan.scatter_exact(&input, &reduced, &prev, 0.5);
            let mut want = plan.scatter(&reduced, input.workloads);
            let expected = exact::project_exact(&input, &mut want);
            assert_eq!(got, expected, "{name}");
            assert_eq!(bits(&fused), bits(&want), "{name}");
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
        let full = plan.scatter_pooled_with(&reduced, &plan.restrict(&prev), &prev, 0.5);
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
        let full = quantized.scatter(&reduced, &workloads);
        for j in 0..inst.num_users() {
            assert!(
                full.user_total(j) >= workloads[j] * (1.0 - 1e-12),
                "user {j} under-served after quantized scatter"
            );
        }
    }
}
