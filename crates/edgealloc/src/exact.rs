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
//! **The one finisher.** Every slot decision of
//! [`crate::algorithms::OnlineRegularized`] leaves through this projection
//! exactly once, whichever path made it: the per-user ladder (barrier,
//! relaxed levels, per-slot LP, deadline salvage), the cohort path, the
//! shedding rung's survivor solve and the carry-forward rung of
//! [`crate::algorithms::decide_slot`]. Nothing sweeps the decision after
//! it. [`crate::algorithms::repair_capacity`] is this function under its
//! former name. The shard coordinator calls it from here as well. The
//! stream driver does not: its delta sub-slot is decided by
//! [`crate::algorithms::decide_slot`], which has projected it already, and
//! the driver only reads whether the result is exactly feasible.
//!
//! **One core, few sweeps, split by users.** [`project_exact`] is a thin
//! wrapper over one crate-private core that sweeps the cloud-major matrix
//! in blocks of users, so that a user's total and a cloud's total come out
//! of the same pass, each added in the order its `Allocation` method adds
//! it. The pooled cohort scatter writes its decision through the same core
//! (`CohortPlan::scatter_exact`, the cohort path's one finisher; an exact
//! plan's symmetric scatter is written first and then projected), so at a
//! million users the scatter, the surplus trim and all the sums the repair
//! needs share one pass over the freshly written matrix. From 100,000
//! users the sweeps split into user ranges run on leased workers: each
//! part does its own users' work, the first part's fused loop starts every
//! sum over users, and after the join each sum continues over the later
//! users in ascending order (see the crate-private `split` module). The
//! refill of the later users and the fix-up stay sequential. The result is bit for bit that of running the steps one
//! after another, at every part count; `tests/projection_oracle.rs` pins
//! it against verbatim copies of the sequential implementation, and the
//! `split` unit tests pin every split against one part.

use crate::algorithms::SlotInput;
use crate::allocation::Allocation;
use crate::hash::MulMap;
use crate::split::{cut, Columns, UserSplit};
use crate::{Error, Result};
use std::ops::Range;

/// Projects an allocation onto the slot's feasible region with **exact**
/// floating-point feasibility: after return, `x.user_total(j) >= λ_j` and
/// `x.cloud_total(i) <= C_i` hold as written, for every user and cloud, and
/// all entries are non-negative and finite.
///
/// **Why this exists (erratum, see DESIGN.md §6):** Theorem 1 of the paper
/// argues that the ℙ₂ optimum never exceeds capacity by monotonicity of the
/// objective — but reducing an over-capacity cloud can violate constraint
/// (10b) of *other* clouds, and on tightly-capacitated instances
/// (`C_i < λ_j` for some clouds) the true ℙ₂ optimum does allocate
/// `x_{i,t} = C_i + δ` with several (10b) rows binding. Every slot decision
/// therefore passes through this projection.
///
/// The bulk of the work is a capacity repair: negative entries are clamped
/// to zero, user surpluses trimmed to `λ_j`, over-capacity clouds scaled
/// down to `C_i`, and each resulting demand deficit refilled at the
/// cheapest clouds with remaining slack (which exist because
/// `ΣC_i ≥ Σλ_j`). What remains are rounding residues of at most a few
/// ulps, removed by a short fix-up loop: capacity overshoot is subtracted
/// from the cloud's largest entry, demand shortfall is topped up at the
/// cloud with the most exact slack using geometrically growing increments
/// (so a sum stuck below `λ_j` by less than one ulp of a large entry still
/// crosses the bound in a few steps).
///
/// Apart from a read-only finiteness check, the matrix is swept twice, in
/// blocks of users (see the module docs): once to clamp, trim and sum,
/// once to scale, refill and re-sum for the fix-up, whose later passes
/// revisit only the rows and users whose sums can have changed. A large
/// slot splits both sweeps by users across the workers it can lease, and
/// reads the later users' rows once more to continue the row sums. The
/// result is bit for bit that of running the steps one after another.
///
/// The projection is not idempotent bit for bit: projecting an exactly
/// feasible decision again can move entries by ulps (the surplus trim
/// rescales every over-served column). That is why each decision is
/// projected once.
///
/// # Errors
///
/// Returns [`Error::Invalid`] for non-finite entries (leaving the entries
/// before the first one, in storage order, clamped at zero and the rest
/// untouched), when total capacity cannot absorb total demand (the
/// refill then leaves a deficit, which a structurally overloaded slot
/// records instead of failing), or if the fix-up fails to converge (not
/// observed for instances with strict capacity slack).
pub fn project_exact(input: &SlotInput<'_>, x: &mut Allocation) -> Result<()> {
    project_exact_with(input, x, &UserSplit::lease(input.num_users()))
}

/// [`project_exact`] with its sweeps split as `split` says.
pub(crate) fn project_exact_with(
    input: &SlotInput<'_>,
    x: &mut Allocation,
    split: &UserSplit<'_>,
) -> Result<()> {
    let num_users = input.num_users();
    if let Some(k) = x.as_flat().iter().position(|v| !v.is_finite()) {
        for v in &mut x.as_flat_mut()[..k] {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        let v = x.as_flat()[k];
        return Err(Error::Invalid(format!(
            "non-finite allocation entry ({}, {}) = {v}",
            k / num_users,
            k % num_users
        )));
    }
    let clamp = |users: Range<usize>, cols: &mut Columns<'_>| {
        for block in cols.blocks_mut(users) {
            for v in block {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
    };
    repair_blocks(input, x, clamp, false, split).map(|_| ())
}

/// Users per block of a sweep: a block's entries of every cloud stay in
/// L1 between the steps of the sweep that visit them.
const BLOCK: usize = 32;

/// The blocks of [`BLOCK`] users that a sweep over `users` visits in turn.
fn blocks(users: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let end = users.end;
    users.step_by(BLOCK).map(move |j| j..end.min(j + BLOCK))
}

/// The exact projection, in block sweeps over the cloud-major matrix. A
/// sweep takes the users in blocks of [`BLOCK`] and visits a block's
/// entries of every cloud before the next block's, so each user's total
/// adds its entries in ascending cloud order (as
/// [`Allocation::user_total`] does) and each cloud's running total adds
/// its entries in ascending user order (as [`Allocation::cloud_total`]
/// does), both in the same pass. Every value and every sum is therefore
/// the one the sequential steps compute: sum the user totals; trim each
/// surplus user to `λ_j`; sum the rows; scale each over-capacity row to
/// `C_i`; sum the user totals again; refill each deficit user in
/// ascending order at its cheapest clouds with slack; then the fix-up
/// passes.
///
/// The sweeps split as `split` says (see [`crate::split`]): every part
/// does its own users' work, the first part's fused loop starts every sum
/// over users, and each sum continues over the later parts' users after
/// the join.
///
/// 1. `fill(users, columns)` makes the block's entries of every row final
///    — clamping them (for [`project_exact`]) or writing them, as the
///    pooled scatter does. The block's user totals and its surplus trim
///    follow; the first part also adds the trimmed block to the row sums,
///    which then continue by clouds.
/// 2. The over-capacity rows are re-summed as scaled (a read of those
///    rows only, split by clouds), which fixes every cloud's slack before
///    the refill.
/// 3. One sweep scales the over-capacity rows and sums each user's total.
///    The first part refills a deficit user while its block is in cache
///    and sums its refilled users and rows for the fix-up's first pass.
///    After the join one sequential pass over the later users refills
///    the deficit ones, in ascending order from the slack the first part
///    left, and continues the row sums, a block at a time.
///
/// With `stop_on_non_finite`, a non-finite user total in the first sweep
/// returns `Ok(false)`, with the matrix partly written: the caller writes
/// it anew. Otherwise the result is `Ok(true)` or the projection's error,
/// and the matrix is the one the sequential steps leave.
pub(crate) fn repair_blocks(
    input: &SlotInput<'_>,
    x: &mut Allocation,
    fill: impl Fn(Range<usize>, &mut Columns<'_>) + Sync,
    stop_on_non_finite: bool,
    split: &UserSplit<'_>,
) -> Result<bool> {
    let caps: Vec<f64> = (0..input.num_clouds())
        .map(|i| input.system.capacity(i))
        .collect();
    let Some(sums) = sweep_blocks(input, x, &caps, fill, stop_on_non_finite, split)? else {
        return Ok(false);
    };
    fix_up(input, x, &caps, sums)?;
    Ok(true)
}

/// The sums the sweeps of [`repair_blocks`] leave for the fix-up, of the
/// matrix as they left it: each row's sum in ascending user order, the
/// user of its largest entry (the last among equals, as
/// [`sum_and_argmax`] picks it) and each user's total.
pub(crate) struct Sums {
    pub(crate) rows: Vec<f64>,
    pub(crate) largest: Vec<usize>,
    users: Vec<f64>,
}

/// The sweeps of [`repair_blocks`], up to the fix-up: `Ok(None)` where
/// that returns `Ok(false)`.
pub(crate) fn sweep_blocks(
    input: &SlotInput<'_>,
    x: &mut Allocation,
    caps: &[f64],
    fill: impl Fn(Range<usize>, &mut Columns<'_>) + Sync,
    stop_on_non_finite: bool,
    split: &UserSplit<'_>,
) -> Result<Option<Sums>> {
    let num_clouds = input.num_clouds();
    let num_users = input.num_users();
    let later_parts = split.bounds().len() - 2;
    let mut row_sums = vec![0.0; num_clouds];
    let flat = x.as_flat_mut();
    let parts = Columns::cut(flat, num_users, split.bounds())
        .into_iter()
        .zip(first_only(&mut row_sums, later_parts))
        .collect();
    let finite = split.run(parts, |_, (mut cols, mut sums)| {
        let mut totals = [0.0; BLOCK];
        let mut factors = [1.0; BLOCK];
        for users in blocks(cols.users()) {
            fill(users.clone(), &mut cols);
            let totals = &mut totals[..users.len()];
            sum_users(&cols, users.clone(), totals);
            if stop_on_non_finite && totals.iter().any(|t| !t.is_finite()) {
                return false;
            }
            // Trim per-user surpluses: ℙ₀ only requires Σ_i x_ij ≥ λ_j, and
            // any surplus pays operation and quality cost every slot. A
            // factor of 1 leaves an entry's bits as they are.
            let mut trim = false;
            for ((f, &total), &lambda) in factors
                .iter_mut()
                .zip(totals.iter())
                .zip(&input.workloads[users.clone()])
            {
                let surplus = total > lambda;
                trim |= surplus;
                *f = if surplus { lambda / total } else { 1.0 };
            }
            if trim {
                for block in cols.blocks_mut(users.clone()) {
                    for (v, f) in block.iter_mut().zip(&factors) {
                        *v *= f;
                    }
                }
            }
            if let Some(sums) = sums.as_deref_mut() {
                add_rows(&cols, users, sums);
            }
        }
        true
    });
    if finite.contains(&false) {
        return Ok(None);
    }
    continue_row_sums(split, flat, num_users, split.later(), &mut row_sums);
    // Scale down over-capacity clouds. Their scaled sums are needed for
    // the slack before the first refill, so those rows are read once here.
    let over: Vec<(usize, f64)> = (0..num_clouds)
        .filter(|&i| row_sums[i] > caps[i])
        .map(|i| (i, caps[i] / row_sums[i]))
        .collect();
    let mut scaled_sums = vec![0.0; over.len()];
    let over_bounds = split.cloud_bounds(over.len());
    split.run(cut(&mut scaled_sums, &over_bounds), |k, sums| {
        for (sum, &(i, factor)) in sums.iter_mut().zip(&over[over_bounds[k]..]) {
            for v in &flat[i * num_users..(i + 1) * num_users] {
                *sum += v * factor;
            }
        }
    });
    let mut slack: Vec<f64> = (0..num_clouds)
        .map(|i| (caps[i] - row_sums[i]).max(0.0))
        .collect();
    for (&(i, _), &sum) in over.iter().zip(&scaled_sums) {
        slack[i] = (caps[i] - sum).max(0.0);
    }
    let scale = |cols: &mut Columns<'_>, users: Range<usize>| {
        for &(i, factor) in &over {
            for v in cols.block_mut(i, users.clone()) {
                *v *= factor;
            }
        }
    };
    let mut orders = RefillOrders::default();
    let mut scan = vec![0.0; num_users];
    row_sums.fill(0.0);
    let mut largest = vec![(f64::NEG_INFINITY, 0); num_clouds];
    let parts = Columns::cut(flat, num_users, split.bounds())
        .into_iter()
        .zip(cut(&mut scan, split.bounds()))
        .zip(first_only(
            (&mut slack, &mut orders, (&mut row_sums, &mut largest)),
            later_parts,
        ))
        .collect();
    let refilled = split.run(parts, |_, ((mut cols, scan), mut first)| {
        let part = cols.users();
        for users in blocks(part.clone()) {
            scale(&mut cols, users.clone());
            let totals = &mut scan[users.start - part.start..users.end - part.start];
            sum_users(&cols, users.clone(), totals);
            // Only the first part refills here: the later parts' refills
            // wait for the slack the first part leaves.
            let Some((slack, orders, (sums, largest))) = first.as_mut() else {
                continue;
            };
            if let Err(err) = refill(input, &mut cols, users.clone(), totals, slack, orders) {
                // The part's blocks not yet swept get their scale, so the
                // matrix is the one a complete scale pass would have left.
                for rest in blocks(part.clone()).skip_while(|b| b.start <= users.start) {
                    scale(&mut cols, rest);
                }
                return Err(err);
            }
            add_rows_and_largest(&cols, users, sums, largest);
        }
        Ok(())
    });
    refilled.into_iter().collect::<Result<()>>()?;
    // The later users' refills and row sums continue in one sequential
    // pass, each block read once, while it is refilled.
    let mut rest = Columns::of(flat, num_users, split.later());
    for users in blocks(split.later()) {
        let totals = &mut scan[users.clone()];
        refill(
            input,
            &mut rest,
            users.clone(),
            totals,
            &mut slack,
            &mut orders,
        )?;
        add_rows_and_largest(&rest, users, &mut row_sums, &mut largest);
    }
    Ok(Some(Sums {
        rows: row_sums,
        largest: largest.into_iter().map(|(_, j)| j).collect(),
        users: scan,
    }))
}

/// `Some(first)` for the first part and `None` for each of the `later`
/// parts.
fn first_only<T>(first: T, later: usize) -> impl Iterator<Item = Option<T>> {
    std::iter::once(Some(first)).chain(std::iter::repeat_with(|| None).take(later))
}

/// Sets `totals` to the block `users`' totals over every row, each added
/// in ascending cloud order from zero.
fn sum_users(cols: &Columns<'_>, users: Range<usize>, totals: &mut [f64]) {
    totals.fill(0.0);
    for block in cols.blocks(users) {
        for (t, v) in totals.iter_mut().zip(block) {
            *t += v;
        }
    }
}

/// Adds each row's entries of the block `users` to that row's sum, in
/// ascending user order.
fn add_rows(cols: &Columns<'_>, users: Range<usize>, sums: &mut [f64]) {
    for (sum, block) in sums.iter_mut().zip(cols.blocks(users)) {
        for v in block {
            *sum += v;
        }
    }
}

/// [`add_rows`] that also keeps each row's largest entry so far in
/// `largest`, as (value, user): the last among equals, as
/// [`sum_and_argmax`] picks it. A row starts at `(−∞, 0)`.
fn add_rows_and_largest(
    cols: &Columns<'_>,
    users: Range<usize>,
    sums: &mut [f64],
    largest: &mut [(f64, usize)],
) {
    for ((sum, block), (best, at)) in sums.iter_mut().zip(cols.blocks(users.clone())).zip(largest) {
        for (j, &v) in users.clone().zip(block) {
            *sum += v;
            if !(*best > v) {
                *best = v;
                *at = j;
            }
        }
    }
}

/// Refills each deficit user of the block `users`, in ascending order, at
/// its cheapest clouds with slack. `totals` holds the block's user totals
/// on entry and on return.
fn refill(
    input: &SlotInput<'_>,
    cols: &mut Columns<'_>,
    users: Range<usize>,
    totals: &mut [f64],
    slack: &mut [f64],
    orders: &mut RefillOrders,
) -> Result<()> {
    let mut written = false;
    for (j, &total) in users.clone().zip(totals.iter()) {
        let mut deficit = input.workloads[j] - total;
        if deficit <= 1e-12 {
            continue;
        }
        written = true;
        for &i in orders.get(input, j, slack) {
            if deficit <= 1e-12 {
                break;
            }
            let take = deficit.min(slack[i]);
            if take > 0.0 {
                *cols.entry(i, j) += take;
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
    if written {
        sum_users(cols, users, totals);
    }
    Ok(())
}

/// Adds the entries of `users` in each row to that row's sum in `sums`,
/// in ascending user order, with the rows split by clouds among the parts.
fn continue_row_sums(
    split: &UserSplit<'_>,
    flat: &[f64],
    num_users: usize,
    users: Range<usize>,
    sums: &mut [f64],
) {
    if users.is_empty() {
        return;
    }
    let bounds = split.cloud_bounds(sums.len());
    split.run(cut(sums, &bounds), |k, sums| {
        for (sum, i) in sums.iter_mut().zip(bounds[k]..) {
            for v in &flat[i * num_users..(i + 1) * num_users][users.clone()] {
                *sum += v;
            }
        }
    });
}

/// The cheapest-first refill order of each distinct (station, λ) pair:
/// the order depends on user `j` only through those two, so under cohort
/// structure it is hundreds of sorts instead of one per deficient user.
/// Each order also keeps how many of its leading clouds have run out of
/// slack: a cloud's slack only shrinks, and a cloud at zero slack gives
/// nothing and leaves the deficit as it was, so skipping it changes no
/// value — it saves the refills of a saturated slot from walking past the
/// same full clouds user after user.
#[derive(Default)]
struct RefillOrders(MulMap<(usize, u64), (usize, Vec<usize>)>);

impl RefillOrders {
    fn get(&mut self, input: &SlotInput<'_>, j: usize, slack: &[f64]) -> &[usize] {
        let l = input.attachment[j];
        let (full, order) = self
            .0
            .entry((l, input.workloads[j].to_bits()))
            .or_insert_with(|| {
                let mut order: Vec<usize> = (0..input.num_clouds()).collect();
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
                (0, order)
            });
        while *full < order.len() && slack[order[*full]] == 0.0 {
            *full += 1;
        }
        &order[*full..]
    }
}

/// The repair leaves residues of float-rounding size; alternate exact
/// capacity trims and exact demand top-ups until both checks pass as
/// written. Trims only touch saturated clouds and top-ups only clouds with
/// positive exact slack, so the passes cannot ping-pong.
///
/// `sums` holds the row and user totals of `x` as the repair left it, and
/// each row's largest entry, which the first pass's trims take without
/// reading the row. Each pass trims the rows over capacity, then fills the
/// users under their demand in ascending order:
///
/// * Per-cloud slack is computed once per pass and kept current by
///   `fill_user_exact` with the exact delta of each entry it writes.
///   Recomputing the true sums per deficient user would cost O(I·J) *per
///   user*. The cache can drift from the re-summed totals only by
///   summation rounding (ulps against macroscopic slack, guarded by the 2×
///   margin in the fill); the pass-clean exit still certifies feasibility
///   against the true sums.
/// * A row's total changes only when the row is written, so a pass
///   re-sums only the rows the previous pass's fills wrote; a trim ends
///   on a fresh sum of its row.
/// * A user's total changes only when its column is written. A fill ends
///   only once its user's total meets `λ_j` as written, and fills touch
///   nothing but their own column, so after the first pass (which checks
///   every user) a user can fall short only through a trim of the same
///   pass: those are the users re-checked.
fn fix_up(input: &SlotInput<'_>, x: &mut Allocation, caps: &[f64], sums: Sums) -> Result<()> {
    let Sums {
        rows: mut row_sums,
        largest,
        users: mut scan,
    } = sums;
    let num_clouds = input.num_clouds();
    let num_users = input.num_users();
    let mut stale = vec![false; num_clouds];
    let mut slack = vec![0.0; num_clouds];
    let mut trimmed: Vec<usize> = Vec::new();
    for pass in 0..32 {
        let mut dirty = false;
        trimmed.clear();
        for i in 0..num_clouds {
            if stale[i] {
                row_sums[i] = row_sum(&x.as_flat()[i * num_users..(i + 1) * num_users]);
                stale[i] = false;
            }
            let first = (pass == 0).then_some(largest[i]);
            dirty |= trim_cloud_exact(x, i, caps[i], &mut row_sums[i], first, &mut trimmed)?;
        }
        for i in 0..num_clouds {
            slack[i] = caps[i] - row_sums[i];
        }
        if pass == 0 {
            for &j in &trimmed {
                scan[j] = x.user_total(j);
            }
            for j in 0..num_users {
                if scan[j] < input.workloads[j] {
                    dirty |= fill_user_exact(input, x, j, &mut slack, &mut stale)?;
                }
            }
        } else {
            trimmed.sort_unstable();
            trimmed.dedup();
            for &j in &trimmed {
                if x.user_total(j) < input.workloads[j] {
                    dirty |= fill_user_exact(input, x, j, &mut slack, &mut stale)?;
                }
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

/// A row's total in ascending user order, as [`Allocation::cloud_total`]
/// adds it.
fn row_sum(row: &[f64]) -> f64 {
    let mut sum = 0.0;
    for v in row {
        sum += v;
    }
    sum
}

/// Removes cloud `i`'s exact capacity overshoot by subtracting it from the
/// cloud's largest entry (the last one, among equals) — repeatedly, up to
/// 64 writes, since the re-summed total can still sit an ulp over. `total`
/// holds the row's current sum on entry and on return; `largest`, when
/// known, the user of its largest entry on entry (else the first write
/// reads the row for it). After each write, one read of the row re-sums it
/// and finds its largest entry together. Every user written is pushed onto
/// `trimmed`. Returns whether anything changed.
fn trim_cloud_exact(
    x: &mut Allocation,
    i: usize,
    cap: f64,
    total: &mut f64,
    mut largest: Option<usize>,
    trimmed: &mut Vec<usize>,
) -> Result<bool> {
    let num_users = x.num_users();
    let row = &mut x.as_flat_mut()[i * num_users..(i + 1) * num_users];
    for step in 0..64 {
        if step > 0 {
            let (sum, jmax) = sum_and_argmax(row);
            *total = sum;
            largest = Some(jmax);
        }
        if *total <= cap {
            return Ok(step > 0);
        }
        let jmax = largest.unwrap_or_else(|| sum_and_argmax(row).1);
        let excess = *total - cap;
        let before = row[jmax];
        let after = (before - excess).max(0.0);
        // An excess below the entry's ulp steps the entry down one
        // representable value instead.
        row[jmax] = if after == before {
            next_down(before).max(0.0)
        } else {
            after
        };
        trimmed.push(jmax);
    }
    Err(Error::Invalid(format!(
        "cloud {i} capacity trim failed to converge"
    )))
}

/// A row's sum in ascending order and the index of its largest entry —
/// the last among equals, as [`Iterator::max_by`] picks it.
pub(crate) fn sum_and_argmax(row: &[f64]) -> (f64, usize) {
    let mut best = *row.first().expect("at least one user");
    let mut jmax = 0;
    let mut sum = 0.0;
    for (j, &v) in row.iter().enumerate() {
        sum += v;
        if !(best > v) {
            best = v;
            jmax = j;
        }
    }
    (sum, jmax)
}

/// Tops user `j` up to its exact workload bound at the cloud with the most
/// cached slack, doubling the increment until the re-summed total crosses
/// `λ_j`. `slack` is the caller's per-cloud slack cache (capacity minus
/// exact cloud total at pass start); every write is mirrored into it by its
/// exact entry delta, so the scan stays O(I) per top-up instead of O(I·J),
/// and marks its row in `stale`. Returns whether anything changed.
fn fill_user_exact(
    input: &SlotInput<'_>,
    x: &mut Allocation,
    j: usize,
    slack: &mut [f64],
    stale: &mut [bool],
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
        stale[imax] = true;
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
    fn tracked_largest_entry_is_the_last_among_equals() {
        // Rows with ties at their largest entry, a zero row, a row whose
        // largest entry comes first and one whose comes last, summed in
        // blocks that cut between the tied entries.
        let rows: [&[f64]; 5] = [
            &[0.5, 2.0, 1.0, 2.0, 0.25, 2.0, 1.5],
            &[0.0; 7],
            &[3.0, 1.0, 1.0, 0.5, 2.0, 0.0, 2.5],
            &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
            &[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        ];
        let mut flat: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        for cuts in [vec![0, 7], vec![0, 2, 4, 7], vec![0, 1, 6, 7]] {
            let mut sums = vec![0.0; rows.len()];
            let mut largest = vec![(f64::NEG_INFINITY, 0); rows.len()];
            let cols = Columns::of(&mut flat, 7, 0..7);
            for users in cuts.windows(2) {
                add_rows_and_largest(&cols, users[0]..users[1], &mut sums, &mut largest);
            }
            for (i, row) in rows.iter().enumerate() {
                let (sum, jmax) = sum_and_argmax(row);
                assert_eq!(
                    (sums[i].to_bits(), largest[i].1),
                    (sum.to_bits(), jmax),
                    "{cuts:?}"
                );
            }
        }
    }

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
