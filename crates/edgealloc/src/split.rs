//! Splitting a large slot's O(J) passes across workers, bit for bit.
//!
//! A pooled cohort slot at a million users spends most of its time in
//! passes over users: the plan's assignment and pooling
//! (`CohortPlan::build`) and the sweeps of the exact projection
//! (`exact::repair_blocks`). [`UserSplit`] cuts the users into consecutive
//! ranges, one per part, and runs the parts on workers leased from
//! [`WorkerBudget::global`]. One rule keeps every bit:
//!
//! * **Per-user work splits by user range.** A user's key, its cohort, its
//!   entries and its total over the clouds depend on nothing but that
//!   user's data, so whichever part computes them computes the same bits.
//! * **No sum over users changes its ascending order.** A sum either
//!   starts in the first part's fused loop and continues over the later
//!   ranges after the join, or runs over all users after the join; either
//!   way it adds the users in ascending order. A pass of its own that
//!   makes one sum per cloud splits by clouds
//!   ([`UserSplit::cloud_bounds`]): each part takes whole rows.
//!
//! With one part the first part is the whole slot and every continuation is
//! empty, so there is one code path. Slots below twice
//! [`PART_MIN_USERS`] run as one part, and so does a slot that finds the
//! budget drained (say, inside a parallel sweep of repetitions).

use optim::parallel::{Permits, WorkerBudget};
use std::ops::Range;

/// Fewest users a part of a split slot takes, so a slot splits from twice
/// this many users. Each split pass starts scoped threads and the later
/// parts' sums make a second pass over their rows; on a 2-vCPU VM a pooled
/// cohort slot gained nothing from two parts at 65,536 users and about a
/// fifth at 100,000 (DESIGN.md §16).
const PART_MIN_USERS: usize = 50_000;

/// The users of a slot cut into consecutive ranges, one per part, and the
/// leased workers that run the parts.
pub(crate) struct UserSplit<'a> {
    /// Part `k` takes users `bounds[k]..bounds[k + 1]`.
    bounds: Vec<usize>,
    workers: Permits<'a>,
}

impl UserSplit<'static> {
    /// Splits `num_users` users into `1 + granted` near-equal parts, the
    /// workers leased from [`WorkerBudget::global`]: as many as the budget
    /// spares, up to one part per [`PART_MIN_USERS`] users.
    pub(crate) fn lease(num_users: usize) -> Self {
        let want = num_users / PART_MIN_USERS;
        let workers = WorkerBudget::global().acquire(want.saturating_sub(1));
        let parts = 1 + workers.count();
        UserSplit {
            bounds: (0..=parts).map(|k| k * num_users / parts).collect(),
            workers,
        }
    }
}

impl<'a> UserSplit<'a> {
    /// A split at the given `bounds` (ascending, from 0 to the user
    /// count), run on `workers` and the calling thread.
    #[cfg(test)]
    pub(crate) fn new(bounds: Vec<usize>, workers: Permits<'a>) -> Self {
        assert!(
            bounds.len() >= 2 && bounds[0] == 0,
            "bounds start at user 0"
        );
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "bounds ascend");
        UserSplit { bounds, workers }
    }

    /// The part boundaries: part `k` takes users `bounds[k]..bounds[k + 1]`.
    pub(crate) fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// The users of part `k`.
    pub(crate) fn users(&self, k: usize) -> Range<usize> {
        self.bounds[k]..self.bounds[k + 1]
    }

    /// The users after the first part, over which every sum continues.
    pub(crate) fn later(&self) -> Range<usize> {
        self.bounds[1]..self.bounds[self.bounds.len() - 1]
    }

    /// One near-equal, consecutive range of `n` rows per part, as
    /// boundaries like [`UserSplit::bounds`].
    pub(crate) fn cloud_bounds(&self, n: usize) -> Vec<usize> {
        let parts = self.bounds.len() - 1;
        (0..=parts).map(|k| k * n / parts).collect()
    }

    /// Runs `f(k, part)` for each part; see
    /// [`Permits::run_parts`](optim::parallel::Permits::run_parts).
    pub(crate) fn run<T, R, F>(&self, parts: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.workers.run_parts(parts, f)
    }
}

/// Cuts `s` into the consecutive pieces `bounds[k] − bounds[0] ..
/// bounds[k + 1] − bounds[0]`.
pub(crate) fn cut<'s, T>(mut s: &'s mut [T], bounds: &[usize]) -> Vec<&'s mut [T]> {
    bounds
        .windows(2)
        .map(|w| {
            let (piece, rest) = std::mem::take(&mut s).split_at_mut(w[1] - w[0]);
            s = rest;
            piece
        })
        .collect()
}

/// The columns of a range of users in every row of a cloud-major matrix:
/// the part of the matrix one part of a split sweep owns.
pub(crate) struct Columns<'m> {
    users: Range<usize>,
    rows: Vec<&'m mut [f64]>,
}

impl<'m> Columns<'m> {
    /// The columns of each part's users, `bounds` as in
    /// [`UserSplit::bounds`], of the flat matrix `flat` with `num_users`
    /// users per row.
    pub(crate) fn cut(flat: &'m mut [f64], num_users: usize, bounds: &[usize]) -> Vec<Self> {
        let mut parts: Vec<Columns<'m>> = bounds
            .windows(2)
            .map(|w| Columns {
                users: w[0]..w[1],
                rows: Vec::new(),
            })
            .collect();
        let (first, last) = (bounds[0], bounds[bounds.len() - 1]);
        for row in flat.chunks_exact_mut(num_users.max(1)) {
            for (part, piece) in parts.iter_mut().zip(cut(&mut row[first..last], bounds)) {
                part.rows.push(piece);
            }
        }
        parts
    }

    /// The columns of `users`.
    pub(crate) fn of(flat: &'m mut [f64], num_users: usize, users: Range<usize>) -> Self {
        Self::cut(flat, num_users, &[users.start, users.end])
            .pop()
            .expect("one part")
    }

    /// The users whose columns these are.
    pub(crate) fn users(&self) -> Range<usize> {
        self.users.clone()
    }

    /// Each row's entries of `users` (a subrange of [`Columns::users`]),
    /// in cloud order.
    pub(crate) fn blocks(&self, users: Range<usize>) -> impl Iterator<Item = &[f64]> {
        let local = users.start - self.users.start..users.end - self.users.start;
        self.rows.iter().map(move |row| &row[local.clone()])
    }

    /// [`Columns::blocks`], writable.
    pub(crate) fn blocks_mut(
        &mut self,
        users: Range<usize>,
    ) -> impl Iterator<Item = &mut [f64]> + use<'_, 'm> {
        let local = users.start - self.users.start..users.end - self.users.start;
        self.rows.iter_mut().map(move |row| &mut row[local.clone()])
    }

    /// Row `i`'s entries of `users`.
    pub(crate) fn block_mut(&mut self, i: usize, users: Range<usize>) -> &mut [f64] {
        &mut self.rows[i][users.start - self.users.start..users.end - self.users.start]
    }

    /// Entry `(i, j)`.
    pub(crate) fn entry(&mut self, i: usize, j: usize) -> &mut f64 {
        &mut self.rows[i][j - self.users.start]
    }
}

#[cfg(test)]
mod tests {
    //! Every split core against its one-part run, bit for bit: the plan,
    //! the exact projection and the pooled scatter under uneven parts, an
    //! empty part and part boundaries inside a 32-user block.

    use super::*;
    use crate::algorithms::SlotInput;
    use crate::allocation::Allocation;
    use crate::cohort::{CohortConfig, CohortPlan};
    use crate::cost::CostWeights;
    use crate::exact::{project_exact_with, repair_blocks, sum_and_argmax, sweep_blocks};
    use crate::system::EdgeCloudSystem;
    use crate::Error;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::fmt::Debug;

    struct Slot {
        system: EdgeCloudSystem,
        workloads: Vec<f64>,
        prices: Vec<f64>,
        attachment: Vec<usize>,
        access_delay: Vec<f64>,
        static_prices: Vec<f64>,
    }

    impl Slot {
        fn input(&self) -> SlotInput<'_> {
            SlotInput {
                t: 0,
                system: &self.system,
                workloads: &self.workloads,
                operation_prices: &self.prices,
                attachment: &self.attachment,
                access_delay: &self.access_delay,
                reconfig_prices: &self.static_prices,
                migration_out: &self.static_prices,
                migration_in: &self.static_prices,
                weights: CostWeights::default(),
                multiplicity: None,
            }
        }
    }

    /// A seeded slot of `nu` users on `nc` clouds, and a point to project:
    /// users served 0.4–1.6× their λ (integer and non-integer), exact
    /// zeros and small negative entries, and capacities summing to `room`
    /// times the demand, spread unevenly so that some rows exceed theirs.
    /// Users attach to few stations and repeat previous columns, so the
    /// point doubles as a `prev` that forms cohorts in both key modes.
    fn slot(seed: u64, nc: usize, nu: usize, room: f64) -> (Slot, Allocation) {
        let mut rng = StdRng::seed_from_u64(seed);
        let workloads: Vec<f64> = (0..nu)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    rng.gen_range(1u32..4) as f64
                } else {
                    rng.gen_range(0.5..3.5)
                }
            })
            .collect();
        let columns: Vec<Vec<f64>> = (0..6)
            .map(|_| {
                (0..nc)
                    .map(|_| match rng.gen_range(0u32..4) {
                        0 => 0.0,
                        1 => -1e-13 * rng.gen::<f64>(),
                        _ => rng.gen_range(0.01..1.0),
                    })
                    .collect()
            })
            .collect();
        let mut x = Allocation::zeros(nc, nu);
        for j in 0..nu {
            let serve = rng.gen_range(0.4..1.6);
            let fresh: Vec<f64>;
            let w = if rng.gen_bool(0.7) {
                &columns[rng.gen_range(0..columns.len())]
            } else {
                fresh = (0..nc).map(|_| rng.gen_range(0.0..1.0)).collect();
                &fresh
            };
            let sum: f64 = w.iter().map(|v| v.max(0.0)).sum::<f64>() + 0.01;
            for (i, &v) in w.iter().enumerate() {
                x.set(i, j, workloads[j] * serve * v / sum);
            }
        }
        let demand: f64 = workloads.iter().sum();
        let shares: Vec<f64> = (0..nc).map(|_| rng.gen_range(0.2..1.8)).collect();
        let total: f64 = shares.iter().sum();
        let capacities = shares.iter().map(|s| room * demand * s / total).collect();
        let delay = (0..nc)
            .map(|a| {
                (0..nc)
                    .map(|b| {
                        if a == b {
                            0.0
                        } else {
                            0.5 + ((a * 7 + b * 3) % 5) as f64
                        }
                    })
                    .collect()
            })
            .collect();
        let attachment: Vec<usize> = (0..nu).map(|_| rng.gen_range(0..nc.min(3))).collect();
        let slot = Slot {
            system: EdgeCloudSystem::new(capacities, delay).expect("valid system"),
            workloads,
            prices: (0..nc).map(|_| rng.gen_range(0.2..1.2)).collect(),
            access_delay: attachment.iter().map(|&l| 0.1 * l as f64).collect(),
            attachment,
            static_prices: (0..nc).map(|_| rng.gen::<f64>()).collect(),
        };
        (slot, x)
    }

    /// The splits of `n` users each case runs besides one part: two
    /// near-equal parts, an empty first part, a boundary inside the second
    /// 32-user block, three uneven parts with an empty middle one, and
    /// three uneven parts with both boundaries inside blocks.
    fn splits(n: usize) -> Vec<Vec<usize>> {
        let at = |j: usize| j.min(n);
        vec![
            vec![0, n / 2, n],
            vec![0, 0, n],
            vec![0, at(45), n],
            vec![0, at(7), at(7), n],
            vec![0, n / 3 + 1, at(n / 3 + 1 + 33), n],
        ]
    }

    /// Runs `f` under one part and under every split of [`splits`], each
    /// on its own leased workers, and requires the same output.
    fn same_under_every_split<T: PartialEq + Debug>(n: usize, f: impl Fn(&UserSplit<'_>) -> T) {
        let budget = WorkerBudget::new(2);
        let one = f(&UserSplit::new(vec![0, n], budget.acquire(0)));
        for bounds in splits(n) {
            let workers = budget.acquire(bounds.len() - 2);
            assert_eq!(
                f(&UserSplit::new(bounds.clone(), workers)),
                one,
                "bounds {bounds:?}"
            );
        }
    }

    fn bits(x: &Allocation) -> Vec<u64> {
        x.as_flat().iter().map(|v| v.to_bits()).collect()
    }

    fn bits_of(v: &[f64]) -> Vec<u64> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    /// A previous allocation whose columns mostly repeat one of four bit
    /// patterns (with exact and negative zeros), so that exact-row keys
    /// form cohorts too.
    fn repeating_prev(seed: u64, nc: usize, nu: usize) -> Allocation {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let columns: Vec<Vec<f64>> = (0..4)
            .map(|_| {
                (0..nc)
                    .map(|_| match rng.gen_range(0u32..4) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen::<f64>(),
                    })
                    .collect()
            })
            .collect();
        let mut prev = Allocation::zeros(nc, nu);
        for j in 0..nu {
            let fresh: Vec<f64>;
            let column = if rng.gen_bool(0.9) {
                &columns[rng.gen_range(0..columns.len())]
            } else {
                fresh = (0..nc).map(|_| rng.gen::<f64>()).collect();
                &fresh
            };
            for (i, &v) in column.iter().enumerate() {
                prev.set(i, j, v);
            }
        }
        prev
    }

    /// Every field of a plan, floats by their bits.
    #[allow(clippy::type_complexity)]
    fn plan_bits(
        input: &SlotInput<'_>,
        plan: &CohortPlan,
    ) -> (Vec<usize>, [Vec<u64>; 4], Vec<usize>, usize, bool) {
        let reduced = plan.as_input(input);
        (
            plan.cohort_of().to_vec(),
            [
                bits_of(plan.multiplicities()),
                bits_of(reduced.workloads),
                bits_of(reduced.access_delay),
                bits(plan.reference()),
            ],
            reduced.attachment.to_vec(),
            plan.num_users(),
            plan.pooled(),
        )
    }

    /// Sizes 1–599, block edges among them, on 2–5 clouds.
    fn small_cases() -> impl Iterator<Item = (u64, usize, usize)> {
        let sizes = [1, 2, 3, 31, 32, 33, 64, 65, 97, 130, 257, 333, 480, 599];
        (0u64..)
            .zip(sizes)
            .map(|(seed, nu)| (seed, 2 + seed as usize % 4, nu))
    }

    #[test]
    fn split_projection_keeps_every_bit() {
        let mut failed_in = [false; 2];
        let cases = small_cases().chain([(99, 15, 40_000)]);
        for (seed, nc, nu) in cases {
            // Loose, tight and scarce capacity: the last leaves the refill
            // short of capacity, at a user early or late in the slot.
            for room in [3.0, 1.05, 0.9, 0.35] {
                let (slot, x) = slot(seed, nc, nu, room);
                let input = slot.input();
                let project = |split: &UserSplit<'_>| {
                    let mut x = x.clone();
                    let result = project_exact_with(&input, &mut x, split);
                    (bits(&x), result)
                };
                same_under_every_split(nu, project);
                let budget = WorkerBudget::new(0);
                let (_, result) = project(&UserSplit::new(vec![0, nu], budget.acquire(0)));
                if let Err(Error::Invalid(msg)) = &result {
                    let user: usize = msg
                        .strip_prefix("capacity repair failed: user ")
                        .and_then(|rest| rest.split(' ').next())
                        .and_then(|j| j.parse().ok())
                        .unwrap_or_else(|| panic!("unexpected error {msg}"));
                    assert!(msg.contains(" left with deficit "), "{msg}");
                    failed_in[usize::from(user >= nu / 2)] = true;
                }
            }
        }
        assert_eq!(
            failed_in,
            [true, true],
            "a refill must run out of capacity in the first half and in the second"
        );
    }

    #[test]
    fn split_sweeps_track_each_rows_largest_entry() {
        // The fix-up's first trims take each row's largest entry from the
        // third sweep: it must be `sum_and_argmax`'s pick on the matrix the
        // sweeps leave, under every split.
        let clamp = |users: Range<usize>, cols: &mut Columns<'_>| {
            for block in cols.blocks_mut(users) {
                for v in block {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
        };
        let cases = small_cases().chain([(99, 15, 40_000)]);
        for (seed, nc, nu) in cases {
            // Loose and tight capacity; scarce capacity fails the refill
            // before the fix-up, in every split alike.
            for room in [3.0, 1.05, 0.35] {
                let (slot, x) = slot(seed, nc, nu, room);
                let input = slot.input();
                let caps: Vec<f64> = (0..nc).map(|i| input.system.capacity(i)).collect();
                let sweep = |split: &UserSplit<'_>| {
                    let mut x = x.clone();
                    let sums = sweep_blocks(&input, &mut x, &caps, clamp, false, split);
                    let sums = sums.map(|sums| {
                        let sums = sums.expect("finite");
                        for (i, row) in x.as_flat().chunks(nu).enumerate() {
                            let (sum, jmax) = sum_and_argmax(row);
                            assert_eq!(sums.largest[i], jmax, "seed {seed}, row {i}");
                            assert_eq!(sums.rows[i].to_bits(), sum.to_bits(), "seed {seed}");
                        }
                        (bits_of(&sums.rows), sums.largest)
                    });
                    (bits(&x), sums)
                };
                same_under_every_split(nu, sweep);
            }
        }
    }

    #[test]
    fn split_plan_keeps_every_bit() {
        let mut formed = [false; 2];
        let cases = small_cases().chain([(99, 15, 40_000)]);
        for (seed, nc, nu) in cases {
            let (slot, _) = slot(seed, nc, nu, 3.0);
            let input = slot.input();
            let prev = repeating_prev(seed, nc, nu);
            for (pool_references, lambda_tolerance) in [
                (false, None),
                (true, None),
                (false, Some(0.2)),
                (true, Some(0.2)),
            ] {
                for max_cohort_fraction in [0.02, 0.3, 1.0] {
                    let cfg = CohortConfig {
                        lambda_tolerance,
                        max_cohort_fraction,
                        pool_references,
                    };
                    let build = |split: &UserSplit<'_>| {
                        let plan = CohortPlan::build_with(&input, &prev, &cfg, split);
                        plan.map(|plan| plan_bits(&input, &plan))
                    };
                    same_under_every_split(nu, build);
                    let budget = WorkerBudget::new(0);
                    let one = UserSplit::new(vec![0, nu], budget.acquire(0));
                    let plan = CohortPlan::build_with(&input, &prev, &cfg, &one);
                    if plan.is_some_and(|p| p.num_cohorts() < nu / 4) {
                        formed[usize::from(pool_references)] = true;
                    }
                }
            }
        }
        assert_eq!(formed, [true, true], "both key modes must form cohorts");
    }

    #[test]
    fn split_pooled_scatter_keeps_every_bit() {
        let mut fell_back = false;
        let cases = small_cases().filter(|c| c.2 >= 2).chain([(99, 15, 40_000)]);
        for (seed, nc, nu) in cases {
            for room in [3.0, 1.05, 0.35] {
                let (slot, prev) = slot(seed, nc, nu, room);
                let input = slot.input();
                let cfg = CohortConfig {
                    lambda_tolerance: Some(0.2),
                    max_cohort_fraction: 1.0,
                    pool_references: true,
                };
                let budget = WorkerBudget::new(0);
                let one = UserSplit::new(vec![0, nu], budget.acquire(0));
                let plan = CohortPlan::build_with(&input, &prev, &cfg, &one).expect("plan");
                let mut reduced = Allocation::zeros(nc, plan.num_cohorts());
                for (k, v) in reduced.as_flat_mut().iter_mut().enumerate() {
                    // Some cohorts over-served, some under, some cut to zero.
                    *v = [0.0, 0.7, 2.5, 11.0][k % 4] * (1.0 + 0.01 * k as f64) * nu as f64;
                }
                for poison in [None, Some(f64::INFINITY), Some(f64::NAN)] {
                    let mut reduced = reduced.clone();
                    if let Some(v) = poison {
                        reduced.set(nc - 1, plan.num_cohorts() - 1, v);
                    }
                    let scatter = |split: &UserSplit<'_>| {
                        let (x, result) =
                            plan.scatter_exact_with(&input, &reduced, &prev, 0.5, split);
                        (bits(&x), result)
                    };
                    same_under_every_split(nu, scatter);
                    // The poisoned cohort's members turn every row of
                    // their columns non-finite: the fused sweep stops and
                    // the finisher falls back, under every split.
                    let c = plan.num_cohorts() - 1;
                    if poison.is_some() && plan.cohort_of().contains(&c) {
                        let entropic = |split: &UserSplit<'_>| {
                            let mut x = Allocation::zeros(nc, nu);
                            let plan = &plan;
                            let scattered =
                                plan.scatter_pooled_with(&reduced, plan.reference(), &prev, 0.5);
                            let fill = |users: Range<usize>, cols: &mut Columns<'_>| {
                                for (i, block) in cols.blocks_mut(users.clone()).enumerate() {
                                    let row = &scattered.as_flat()[i * nu..(i + 1) * nu];
                                    block.copy_from_slice(&row[users.clone()]);
                                }
                            };
                            repair_blocks(&input, &mut x, fill, true, split)
                        };
                        same_under_every_split(nu, entropic);
                        let none = WorkerBudget::new(0);
                        let result = entropic(&UserSplit::new(vec![0, nu], none.acquire(0)));
                        fell_back |= result == Ok(false);
                    }
                }
            }
        }
        assert!(fell_back, "no case took the non-finite fallback");
    }
}
