//! Projection onto *exact* floating-point feasibility.
//!
//! [`project_exact`] turns an approximately feasible allocation into a
//! decision that satisfies the slot's constraints **exactly under
//! floating-point evaluation**: `Σ_i x_ij ≥ λ_j` and `Σ_j x_ij ≤ C_i` hold
//! for the very sums [`Allocation::user_total`] and
//! [`Allocation::cloud_total`] compute — no `1e-9` overshoot allowance.
//!
//! Exactness matters downstream: health gates and feasibility assertions
//! compare these sums against the bounds directly, and a decision that is
//! "feasible up to tolerance" forces every consumer to thread that
//! tolerance through. The projection does the tolerance-free cleanup once,
//! at the only place that knows the slot data.
//!
//! The machinery originated in the shard crate's merge step (where shard
//! solutions are reassembled) and moved here so the shedding rung
//! (see [`crate::shed`]) can certify exact feasibility on survivor slots
//! without a dependency cycle; the shard coordinator calls it from here.

use crate::algorithms::{repair_capacity, SlotInput};
use crate::allocation::Allocation;
use crate::{Error, Result};

/// Projects an allocation onto the slot's feasible region with **exact**
/// floating-point feasibility: after return, `x.user_total(j) >= λ_j` and
/// `x.cloud_total(i) <= C_i` hold as written, for every user and cloud, and
/// all entries are non-negative and finite.
///
/// The bulk of the work is [`repair_capacity`] (trim user surplus, scale
/// over-capacity clouds, refill deficits at the cheapest slack); what
/// remains are rounding residues of at most a few ulps, removed by a short
/// fix-up loop: capacity overshoot is subtracted from the cloud's largest
/// entry, demand shortfall is topped up at the cloud with the most exact
/// slack using geometrically growing increments (so a sum stuck below `λ_j`
/// by less than one ulp of a large entry still crosses the bound in a few
/// steps).
///
/// # Errors
///
/// Returns [`Error::Invalid`] for non-finite entries, when total capacity
/// cannot absorb total demand, or if the fix-up fails to converge (not
/// observed for instances with strict capacity slack).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;

    #[test]
    fn next_up_and_down_step_one_ulp() {
        let v = 1.5;
        assert!(next_up(v) > v);
        assert!(next_down(v) < v);
        assert_eq!(next_down(next_up(v)), v);
        assert_eq!(next_down(0.0), 0.0);
        assert!(next_up(0.0) > 0.0);
    }

    #[test]
    fn projection_makes_a_sloppy_point_exactly_feasible() {
        let inst = Instance::fig1_example(2.1, true);
        let input = SlotInput::from_instance(&inst, 0);
        let mut x = Allocation::zeros(2, 1);
        // Under-serves demand and carries a tiny negative entry.
        x.set(0, 0, 0.3);
        x.set(1, 0, -1e-12);
        project_exact(&input, &mut x).unwrap();
        assert!(x.user_total(0) >= input.workloads[0]);
        for i in 0..2 {
            assert!(x.cloud_total(i) <= input.system.capacity(i));
            assert!(x.get(i, 0) >= 0.0);
        }
    }

    #[test]
    fn projection_rejects_non_finite_entries() {
        let inst = Instance::fig1_example(2.1, true);
        let input = SlotInput::from_instance(&inst, 0);
        let mut x = Allocation::zeros(2, 1);
        x.set(0, 0, f64::NAN);
        assert!(project_exact(&input, &mut x).is_err());
    }
}
