//! Bit-for-bit oracle for the column-sweep projection and the cohort
//! plan's pooled reference.
//!
//! [`project_exact`] (also exported as [`repair_capacity`], its former
//! name) runs its passes in blocks of users and revisits only what the
//! previous fix-up pass wrote;
//! [`CohortPlan::build`] pools the previous allocation while it assigns
//! users. The `oracle` module below keeps verbatim copies of the
//! sequential implementations these replaced, and every property here
//! requires the same `Result`, the same matrix bit for bit (also when the
//! projection fails), and the same plan and pooled reference.
//!
//! The slots mix surplus and deficit users, exact zeros, small negative
//! entries, over-capacity rows, integer and non-integer λ, the occasional
//! non-finite entry, and capacities within a few ulps of their row's
//! total, where the fix-up needs more than one pass.

use edgealloc::algorithms::{repair_capacity, SlotInput};
use edgealloc::allocation::Allocation;
use edgealloc::cohort::{CohortConfig, CohortPlan};
use edgealloc::cost::CostWeights;
use edgealloc::exact::project_exact;
use edgealloc::system::EdgeCloudSystem;
use proptest::prelude::*;

mod oracle {
    //! The parent implementation, copied verbatim; only import paths and
    //! the plan's type name (`OraclePlan`) differ.

    use edgealloc::algorithms::SlotInput;
    use edgealloc::allocation::Allocation;
    use edgealloc::cohort::CohortConfig;
    use edgealloc::{Error, Result};
    use std::collections::HashMap;

    const MIN_USERS: usize = 2;

    pub fn project_exact(input: &SlotInput<'_>, x: &mut Allocation) -> Result<()> {
        let num_clouds = input.num_clouds();
        let num_users = input.num_users();
        for (k, v) in x.as_flat_mut().iter_mut().enumerate() {
            if !v.is_finite() {
                return Err(Error::Invalid(format!(
                    "non-finite allocation entry ({}, {}) = {v}",
                    k / num_users,
                    k % num_users
                )));
            }
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        repair_capacity(input, x)?;
        // The repair leaves residues of float-rounding size; alternate exact
        // capacity trims and exact demand top-ups until both checks pass as
        // written. Trims only touch saturated clouds and top-ups only clouds
        // with positive exact slack, so the passes cannot ping-pong.
        for _pass in 0..32 {
            let mut dirty = false;
            for i in 0..num_clouds {
                dirty |= trim_cloud_exact(input, x, i)?;
            }
            // One fused row sweep yields both sides of the certificate:
            //
            // * Per-cloud slack, computed once per pass and kept current by
            //   `fill_user_exact` with the exact delta of each entry it writes.
            //   Recomputing the true sums per deficient user would cost O(I·J)
            //   *per user* — quadratic in J and the difference between micro-
            //   and multi-second projections at J = 10⁶. The cache can drift
            //   from the re-summed totals only by summation rounding (ulps
            //   against macroscopic slack, guarded by the 2× margin below);
            //   the pass-clean exit still certifies feasibility against the
            //   true sums. The row's running sum adds the same values in the
            //   same ascending-`j` order as `cloud_total`, so the cached slack
            //   is bitwise what a separate sum pass would seed it with.
            // * Scan totals for the demand screen: summing per user strides
            //   the cloud-major storage against the cache. The accumulation
            //   order matches `user_total` (ascending clouds), so the screen
            //   is exact — users it passes over satisfy the very sum the fill
            //   would recompute; users it flags are re-certified against the
            //   true sums inside `fill_user_exact`.
            let mut slack: Vec<f64> = vec![0.0; num_clouds];
            let mut scan: Vec<f64> = vec![0.0; num_users];
            for i in 0..num_clouds {
                let row = &x.as_flat()[i * num_users..(i + 1) * num_users];
                let mut sum = 0.0;
                for (t, v) in scan.iter_mut().zip(row) {
                    *t += v;
                    sum += v;
                }
                slack[i] = input.system.capacity(i) - sum;
            }
            for j in 0..num_users {
                if scan[j] < input.workloads[j] {
                    dirty |= fill_user_exact(input, x, j, &mut slack)?;
                }
            }
            if !dirty {
                return Ok(());
            }
        }
        Err(Error::Invalid(
            "exact-feasibility projection failed to converge".into(),
        ))
    }

    /// Removes cloud `i`'s exact capacity overshoot by subtracting it from the
    /// cloud's largest entry (repeatedly — the re-summed total can still sit an
    /// ulp over). Returns whether anything changed.
    fn trim_cloud_exact(input: &SlotInput<'_>, x: &mut Allocation, i: usize) -> Result<bool> {
        let cap = input.system.capacity(i);
        let num_users = input.num_users();
        let mut dirty = false;
        for _ in 0..64 {
            let total = x.cloud_total(i);
            if total <= cap {
                return Ok(dirty);
            }
            let excess = total - cap;
            let jmax = (0..num_users)
                .max_by(|&a, &b| {
                    x.get(i, a)
                        .partial_cmp(&x.get(i, b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("at least one user");
            let before = x.get(i, jmax);
            let after = (before - excess).max(0.0);
            if after == before {
                // The excess is below the entry's ulp; step the entry down one
                // representable value instead.
                x.set(i, jmax, next_down(before).max(0.0));
            } else {
                x.set(i, jmax, after);
            }
            dirty = true;
        }
        Err(Error::Invalid(format!(
            "cloud {i} capacity trim failed to converge"
        )))
    }

    /// Tops user `j` up to its exact workload bound at the cloud with the most
    /// cached slack, doubling the increment until the re-summed total crosses
    /// `λ_j`. `slack` is the caller's per-cloud slack cache (capacity minus
    /// exact cloud total at pass start); every write is mirrored into it by its
    /// exact entry delta, so the scan stays O(I) per top-up instead of O(I·J).
    /// Returns whether anything changed.
    fn fill_user_exact(
        input: &SlotInput<'_>,
        x: &mut Allocation,
        j: usize,
        slack: &mut [f64],
    ) -> Result<bool> {
        let lambda = input.workloads[j];
        let num_clouds = input.num_clouds();
        let mut dirty = false;
        let mut add = (lambda - x.user_total(j)).max(f64::MIN_POSITIVE);
        for _ in 0..64 {
            if x.user_total(j) >= lambda {
                return Ok(dirty);
            }
            let (imax, best) = (0..num_clouds)
                .map(|i| (i, slack[i]))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("at least one cloud");
            // Stay strictly inside the slack so the matching capacity check
            // cannot flip; residues are ulp-sized against macroscopic slack.
            if !(best > 2.0 * add) {
                return Err(Error::Invalid(format!(
                    "user {j} demand top-up of {add} exceeds the best slack {best}"
                )));
            }
            let before = x.get(imax, j);
            let after = before + add;
            let written = if after > before {
                after
            } else {
                next_up(before)
            };
            x.set(imax, j, written);
            slack[imax] -= written - before;
            dirty = true;
            add *= 2.0;
        }
        Err(Error::Invalid(format!(
            "user {j} demand top-up failed to converge"
        )))
    }

    /// The next representable `f64` above `v` (for non-negative finite `v`).
    fn next_up(v: f64) -> f64 {
        if v == 0.0 {
            f64::MIN_POSITIVE
        } else {
            f64::from_bits(v.to_bits() + 1)
        }
    }

    /// The next representable `f64` below `v` (for positive finite `v`).
    fn next_down(v: f64) -> f64 {
        if v <= 0.0 {
            0.0
        } else {
            f64::from_bits(v.to_bits() - 1)
        }
    }

    pub fn repair_capacity(input: &SlotInput<'_>, x: &mut Allocation) -> Result<()> {
        let num_clouds = input.num_clouds();
        let num_users = input.num_users();
        // Per-user totals, accumulated cloud-row by cloud-row: the storage is
        // cloud-major, so summing `user_total(j)` per user strides the whole
        // matrix once *per cloud* from a cache-hostile direction — at J = 10⁶
        // the difference between this pass and per-user sums is hundreds of
        // milliseconds. The row order matches `user_total`'s addition order
        // (ascending clouds), so the totals are bitwise identical.
        let user_totals = |x: &Allocation, totals: &mut Vec<f64>| {
            totals.clear();
            totals.resize(num_users, 0.0);
            for i in 0..num_clouds {
                let row = &x.as_flat()[i * num_users..(i + 1) * num_users];
                for (t, v) in totals.iter_mut().zip(row) {
                    *t += v;
                }
            }
        };
        let mut totals: Vec<f64> = Vec::new();
        // Trim per-user surpluses: ℙ₀ only requires Σ_i x_ij ≥ λ_j, and any
        // surplus pays operation and quality cost every slot, so scale each
        // over-served user down to exactly λ_j.
        user_totals(x, &mut totals);
        let mut any_surplus = false;
        let factors: Vec<f64> = (0..num_users)
            .map(|j| {
                let total = totals[j];
                let lambda = input.workloads[j];
                if total > lambda {
                    any_surplus = true;
                    lambda / total
                } else {
                    1.0
                }
            })
            .collect();
        // Apply the trim factors and accumulate each cloud's total in the same
        // row sweep: the running sum adds the freshly scaled entries in
        // ascending-`j` order, exactly the values and order `cloud_total`
        // would re-sum afterwards, so the totals are bitwise identical while
        // the matrix is swept once instead of twice.
        let mut cloud_tot = vec![0.0; num_clouds];
        for i in 0..num_clouds {
            let row = &mut x.as_flat_mut()[i * num_users..(i + 1) * num_users];
            let mut sum = 0.0;
            if any_surplus {
                for (v, &f) in row.iter_mut().zip(&factors) {
                    if f != 1.0 {
                        *v *= f;
                    }
                    sum += *v;
                }
            } else {
                for v in row.iter() {
                    sum += *v;
                }
            }
            cloud_tot[i] = sum;
        }
        // Scale down over-capacity clouds, and in the same sweep accumulate
        // the post-scale per-user totals and per-cloud slack the refill below
        // needs — again value-for-value and order-for-order what separate
        // `cloud_total`/`user_total` passes would compute.
        let mut slack = vec![0.0; num_clouds];
        totals.clear();
        totals.resize(num_users, 0.0);
        for i in 0..num_clouds {
            let cap = input.system.capacity(i);
            let row = &mut x.as_flat_mut()[i * num_users..(i + 1) * num_users];
            if cloud_tot[i] > cap {
                let factor = cap / cloud_tot[i];
                let mut sum = 0.0;
                for (t, v) in totals.iter_mut().zip(row.iter_mut()) {
                    *v *= factor;
                    sum += *v;
                    *t += *v;
                }
                slack[i] = (cap - sum).max(0.0);
            } else {
                for (t, v) in totals.iter_mut().zip(row.iter()) {
                    *t += *v;
                }
                slack[i] = (cap - cloud_tot[i]).max(0.0);
            }
        }
        // Refill per-user deficits at the cheapest clouds with slack. The
        // cheapest-first order depends on `j` only through its station and
        // workload, so it is computed once per distinct (station, λ) pair —
        // under cohort structure that is hundreds of sorts instead of one per
        // deficient user.
        let mut order_cache: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
        for j in 0..num_users {
            let mut deficit = input.workloads[j] - totals[j];
            if deficit <= 1e-12 {
                continue;
            }
            let l = input.attachment[j];
            let order = order_cache
                .entry((l, input.workloads[j].to_bits()))
                .or_insert_with(|| {
                    let mut order: Vec<usize> = (0..num_clouds).collect();
                    let unit_cost = |i: usize| {
                        input.weights.operation * input.operation_prices[i]
                            + input.weights.quality * input.system.delay(l, i) / input.workloads[j]
                    };
                    // Corrupted (NaN) costs sort as equal instead of panicking
                    // — the repair rung must survive even un-sanitized inputs.
                    order.sort_by(|&a, &b| {
                        unit_cost(a)
                            .partial_cmp(&unit_cost(b))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    });
                    order
                });
            for &i in order.iter() {
                if deficit <= 1e-12 {
                    break;
                }
                let take = deficit.min(slack[i]);
                if take > 0.0 {
                    x.set(i, j, x.get(i, j) + take);
                    slack[i] -= take;
                    deficit -= take;
                }
            }
            if deficit > 1e-9 {
                return Err(Error::Invalid(format!(
                    "capacity repair failed: user {j} left with deficit {deficit}"
                )));
            }
        }
        Ok(())
    }

    fn lambda_key(lambda: f64, tolerance: Option<f64>) -> u64 {
        match tolerance {
            Some(tol) if tol > 0.0 && lambda > 0.0 && lambda.is_finite() => {
                (lambda.ln() / (1.0 + tol).ln()).floor() as i64 as u64
            }
            _ => lambda.to_bits(),
        }
    }
    fn row_hash(prev: &Allocation, j: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..prev.num_clouds() {
            h ^= prev.get(i, j).to_bits();
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
    fn rows_equal(prev: &Allocation, a: usize, b: usize) -> bool {
        (0..prev.num_clouds()).all(|i| prev.get(i, a).to_bits() == prev.get(i, b).to_bits())
    }

    pub struct OraclePlan {
        pub cohort_of: Vec<usize>,
        pub multiplicity: Vec<f64>,
        pub workloads: Vec<f64>,
        pub attachment: Vec<usize>,
        pub access_delay: Vec<f64>,
        pub share: Vec<f64>,
        pub num_users: usize,
        pub pooled: bool,
    }

    impl OraclePlan {
        pub fn num_cohorts(&self) -> usize {
            self.multiplicity.len()
        }

        pub fn build(
            input: &SlotInput<'_>,
            prev: &Allocation,
            cfg: &CohortConfig,
        ) -> Option<OraclePlan> {
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
            let attachment: Vec<usize> =
                first_member.iter().map(|&j| input.attachment[j]).collect();
            let share: Vec<f64> = (0..num_users)
                .map(|j| input.workloads[j] / workloads[cohort_of[j]])
                .collect();
            Some(OraclePlan {
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
    }
}

/// One slot's owned data; [`Slot::input`] borrows it as a [`SlotInput`].
#[derive(Debug, Clone)]
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

fn next_up(v: f64) -> f64 {
    if v == 0.0 {
        f64::MIN_POSITIVE
    } else {
        f64::from_bits(v.to_bits() + 1)
    }
}

/// A slot and a point to project. `raw` supplies every random draw. In a
/// *tight* case each user's column sums to λ_j give or take a few ulps (so
/// the refill skips it and the fix-up must top it up) and each capacity
/// sits a few ulps above its row's total, so the fix-up's fills can push a
/// re-summed row over and a later pass has rows and users to revisit. In
/// a loose case users are over- or under-served by up to 2×, entries are
/// exact zeros or small negatives, and capacities are drawn so that some
/// rows are over.
fn slot_case() -> impl Strategy<Value = (Slot, Allocation)> {
    (
        2usize..5,
        1usize..600,
        0usize..4,
        proptest::collection::vec(0.0f64..1.0, 512),
        0usize..8,
    )
        .prop_map(|(nc, nu, kind, raw, poison)| {
            let (tight, integer) = (kind & 1 == 1, kind & 2 == 2);
            let mut k = 0;
            let mut draw = || {
                k += 1;
                raw[k % raw.len()]
            };
            let workloads: Vec<f64> = (0..nu)
                .map(|_| {
                    if integer {
                        1.0 + (draw() * 3.0).floor()
                    } else {
                        0.5 + 3.0 * draw()
                    }
                })
                .collect();
            let mut x = Allocation::zeros(nc, nu);
            for j in 0..nu {
                let mut weights: Vec<f64> = (0..nc)
                    .map(|_| if draw() < 0.3 { 0.0 } else { draw() + 0.01 })
                    .collect();
                weights[j % nc] += 0.01;
                let sum: f64 = weights.iter().sum();
                let serve = if tight { 1.0 } else { 0.4 + 1.6 * draw() };
                for (i, w) in weights.iter().enumerate() {
                    let v = workloads[j] * serve * w / sum;
                    let v = if !tight && v == 0.0 && draw() < 0.3 {
                        -1e-13 * draw()
                    } else {
                        v
                    };
                    x.set(i, j, v);
                }
                if tight && draw() < 0.5 {
                    // A few ulps under λ_j: below the refill's 1e-12 cut.
                    let i = (draw() * nc as f64) as usize % nc;
                    let v = x.get(i, j);
                    let steps = 1 + (draw() * 4.0) as u64;
                    if v > 0.0 {
                        x.set(i, j, f64::from_bits(v.to_bits() - steps.min(v.to_bits())));
                    }
                }
            }
            let demand: f64 = workloads.iter().sum();
            let capacities: Vec<f64> = (0..nc)
                .map(|i| {
                    if tight {
                        let mut c = x.cloud_total(i).max(0.0);
                        for _ in 0..1 + (draw() * 4.0) as usize {
                            c = next_up(c);
                        }
                        // Spare room on some clouds in half the cases;
                        // otherwise every top-up lands within ulps of a
                        // capacity.
                        if integer && draw() < 0.4 {
                            c += 1e-9 * demand * draw();
                        }
                        c.max(f64::MIN_POSITIVE)
                    } else {
                        (0.1 + draw()) * 2.0 * demand / nc as f64
                    }
                })
                .collect();
            let delay: Vec<Vec<f64>> = (0..nc)
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
            let system = EdgeCloudSystem::new(capacities, delay).expect("valid system");
            let attachment: Vec<usize> = (0..nu)
                .map(|_| (draw() * nc as f64) as usize % nc)
                .collect();
            let access_delay = attachment.iter().map(|&l| 0.1 * l as f64).collect();
            let prices = (0..nc).map(|_| 0.2 + draw()).collect();
            let static_prices = (0..nc).map(|_| draw()).collect();
            if poison == 0 {
                let k = (draw() * (nc * nu) as f64) as usize % (nc * nu);
                let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][k % 3];
                x.as_flat_mut()[k] = bad;
            }
            let slot = Slot {
                system,
                workloads,
                prices,
                attachment,
                access_delay,
                static_prices,
            };
            (slot, x)
        })
}

fn bits(x: &Allocation) -> Vec<u64> {
    x.as_flat().iter().map(|v| v.to_bits()).collect()
}

/// Previous allocations whose columns repeat, so exact-mode cohorts form;
/// some entries are `-0.0`, which a pooled sum must turn into `+0.0`.
fn plan_case() -> impl Strategy<Value = (Slot, Allocation, CohortConfig)> {
    (
        2usize..5,
        2usize..60,
        proptest::collection::vec(0.0f64..1.0, 256),
        0usize..4,
        0usize..4,
        0.01f64..0.3,
    )
        .prop_map(|(nc, nu, raw, fraction, mode, tol)| {
            let (pool, tolerance) = (mode & 1 == 1, (mode & 2 == 2).then_some(tol));
            let mut k = 0;
            let mut draw = || {
                k += 1;
                raw[k % raw.len()]
            };
            let (mut slot, _) = {
                let delay: Vec<Vec<f64>> = (0..nc)
                    .map(|a| (0..nc).map(|b| if a == b { 0.0 } else { 1.0 }).collect())
                    .collect();
                let system = EdgeCloudSystem::new(vec![10.0; nc], delay).expect("valid system");
                let slot = Slot {
                    system,
                    workloads: Vec::new(),
                    prices: vec![1.0; nc],
                    attachment: Vec::new(),
                    access_delay: Vec::new(),
                    static_prices: vec![0.5; nc],
                };
                (slot, ())
            };
            slot.workloads = (0..nu)
                .map(|_| [1.0, 2.0, 2.5, 2.5000001][(draw() * 4.0) as usize % 4])
                .collect();
            slot.attachment = (0..nu).map(|_| (draw() * 3.0) as usize % nc).collect();
            slot.access_delay = slot.attachment.iter().map(|&l| 0.3 * l as f64).collect();
            let pool_of_columns: Vec<Vec<f64>> = (0..4)
                .map(|_| {
                    (0..nc)
                        .map(|_| match (draw() * 4.0) as usize {
                            0 => 0.0,
                            1 => -0.0,
                            _ => draw(),
                        })
                        .collect()
                })
                .collect();
            let mut prev = Allocation::zeros(nc, nu);
            for j in 0..nu {
                let fresh: Vec<f64>;
                let column = if draw() < 0.8 {
                    &pool_of_columns[(draw() * 4.0) as usize % 4]
                } else {
                    fresh = (0..nc).map(|_| draw()).collect();
                    &fresh
                };
                for (i, &v) in column.iter().enumerate() {
                    prev.set(i, j, v);
                }
            }
            let cfg = CohortConfig {
                lambda_tolerance: tolerance,
                max_cohort_fraction: [0.05, 0.3, 0.5, 1.0][fraction],
                pool_references: pool,
            };
            (slot, prev, cfg)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn project_exact_matches_the_oracle((slot, x) in slot_case()) {
        let input = slot.input();
        let (mut fused, mut oracle) = (x.clone(), x);
        let got = project_exact(&input, &mut fused);
        let want = oracle::project_exact(&input, &mut oracle);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(bits(&fused), bits(&oracle));
    }

    /// `repair_capacity` is the projection under its former name.
    #[test]
    fn repair_capacity_matches_the_oracle((slot, x) in slot_case()) {
        let input = slot.input();
        let (mut fused, mut oracle) = (x.clone(), x);
        let got = repair_capacity(&input, &mut fused);
        let want = oracle::project_exact(&input, &mut oracle);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(bits(&fused), bits(&oracle));
    }

    #[test]
    fn plan_and_pooled_reference_match_the_oracle((slot, prev, cfg) in plan_case()) {
        let input = slot.input();
        let got = CohortPlan::build(&input, &prev, &cfg);
        let want = oracle::OraclePlan::build(&input, &prev, &cfg);
        prop_assert_eq!(got.is_some(), want.is_some());
        if let (Some(plan), Some(want)) = (got, want) {
            prop_assert_eq!(plan.cohort_of(), &want.cohort_of[..]);
            prop_assert_eq!(plan.multiplicities(), &want.multiplicity[..]);
            prop_assert_eq!(plan.num_users(), want.num_users);
            prop_assert_eq!(plan.pooled(), want.pooled);
            let reduced = plan.as_input(&input);
            prop_assert_eq!(reduced.workloads, &want.workloads[..]);
            prop_assert_eq!(&reduced.attachment, &want.attachment);
            prop_assert_eq!(&reduced.access_delay, &want.access_delay);
            let reference = want.restrict(&prev);
            prop_assert_eq!(bits(plan.reference()), bits(&reference));
            prop_assert_eq!(bits(&plan.restrict(&prev)), bits(&reference));
            // The scatter weights, through the symmetric scatter.
            let mut y = Allocation::zeros(prev.num_clouds(), plan.num_cohorts());
            for (k, v) in y.as_flat_mut().iter_mut().enumerate() {
                *v = 0.25 + 0.125 * k as f64;
            }
            prop_assert_eq!(bits(&plan.scatter(&y, input.workloads)), bits(&want.scatter(&y)));
        }
    }
}
