//! Merging shard solutions and projecting them to *exact* feasibility.
//!
//! A coordination round produces one flat solution per shard (cloud-major
//! over the shard's own user columns). [`merge_shards`] scatters them back
//! into a full `I × J` [`Allocation`]; [`edgealloc::exact::project_exact`]
//! then turns the merged point into a decision that satisfies the slot's
//! constraints **exactly under floating-point evaluation**: `Σ_i x_ij ≥ λ_j`
//! and `Σ_j x_ij ≤ C_i` hold for the very sums [`Allocation::user_total`]
//! and [`Allocation::cloud_total`] compute — no `1e-9` overshoot allowance.

use edgealloc::allocation::Allocation;

use crate::plan::ShardPlan;

/// Scatters per-shard flat solutions (cloud-major over each shard's user
/// columns, as produced by the restricted ℙ₂ solves) into a full
/// allocation.
///
/// # Panics
///
/// Panics when a part's length does not match its shard's `I × J_s` shape.
pub fn merge_shards(
    plan: &ShardPlan,
    parts: &[Vec<f64>],
    num_clouds: usize,
    num_users: usize,
) -> Allocation {
    assert_eq!(parts.len(), plan.num_shards(), "one part per shard");
    let mut x = Allocation::zeros(num_clouds, num_users);
    for (s, flat) in parts.iter().enumerate() {
        let users = plan.users(s);
        assert_eq!(
            flat.len(),
            num_clouds * users.len(),
            "shard {s} solution has the wrong shape"
        );
        for i in 0..num_clouds {
            for (col, &j) in users.iter().enumerate() {
                x.set(i, j, flat[i * users.len() + col]);
            }
        }
    }
    x
}

/// Extracts the columns of `users` from a full allocation — the restricted
/// previous-slot reference each shard's migration regularizers need.
pub fn restrict(x: &Allocation, users: &[usize]) -> Allocation {
    let num_clouds = x.num_clouds();
    let mut r = Allocation::zeros(num_clouds, users.len());
    for i in 0..num_clouds {
        for (col, &j) in users.iter().enumerate() {
            r.set(i, col, x.get(i, j));
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_scatters_columns_back_to_global_indices() {
        let plan = ShardPlan::balanced(&[1.0, 2.0, 3.0, 4.0], 2);
        let num_clouds = 2;
        let parts: Vec<Vec<f64>> = (0..plan.num_shards())
            .map(|s| {
                let us = plan.users(s);
                let mut flat = vec![0.0; num_clouds * us.len()];
                for i in 0..num_clouds {
                    for (col, &j) in us.iter().enumerate() {
                        flat[i * us.len() + col] = (10 * i + j) as f64;
                    }
                }
                flat
            })
            .collect();
        let x = merge_shards(&plan, &parts, num_clouds, 4);
        for i in 0..num_clouds {
            for j in 0..4 {
                assert_eq!(x.get(i, j), (10 * i + j) as f64, "entry ({i}, {j})");
            }
        }
    }

    #[test]
    fn restrict_extracts_the_requested_columns() {
        let mut x = Allocation::zeros(2, 4);
        for i in 0..2 {
            for j in 0..4 {
                x.set(i, j, (10 * i + j) as f64);
            }
        }
        let r = restrict(&x, &[1, 3]);
        assert_eq!(r.num_users(), 2);
        assert_eq!(r.get(0, 0), 1.0);
        assert_eq!(r.get(1, 1), 13.0);
    }
}
