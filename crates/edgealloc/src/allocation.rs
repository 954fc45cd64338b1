//! Per-slot allocation matrices `x_{i,j}`.

use serde::{Deserialize, Serialize};

/// The resource allocation of one time slot: `x_{i,j}` units of cloud `i`'s
/// resources serving user `j`'s workload.
///
/// # Example
///
/// ```
/// use edgealloc::Allocation;
///
/// let mut x = Allocation::zeros(2, 3);
/// x.set(1, 0, 4.0);
/// assert_eq!(x.get(1, 0), 4.0);
/// assert_eq!(x.cloud_total(1), 4.0);
/// assert_eq!(x.user_total(0), 4.0);
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    num_clouds: usize,
    num_users: usize,
    /// Row-major by cloud: entry `(i, j)` at `x[i * num_users + j]`.
    x: Vec<f64>,
}

impl Clone for Allocation {
    fn clone(&self) -> Self {
        Allocation {
            num_clouds: self.num_clouds,
            num_users: self.num_users,
            x: self.x.clone(),
        }
    }

    /// Copies `source` into `self`'s storage, which is reallocated only
    /// when its capacity is short of `source`'s entries.
    fn clone_from(&mut self, source: &Self) {
        self.num_clouds = source.num_clouds;
        self.num_users = source.num_users;
        self.x.clone_from(&source.x);
    }
}

impl Allocation {
    /// The all-zero allocation (`x_{i,j,0} ≜ 0` in the paper).
    pub fn zeros(num_clouds: usize, num_users: usize) -> Self {
        Allocation {
            num_clouds,
            num_users,
            x: vec![0.0; num_clouds * num_users],
        }
    }

    /// Changes the user count to `num_users` in place: each cloud keeps
    /// its first `min(J, num_users)` entries, and new entries are zero.
    /// Every row moves once (`copy_within`), in ascending cloud order when
    /// shrinking and descending when growing, so no row overwrites one not
    /// yet moved; the storage is reallocated only when its capacity is
    /// short.
    pub fn resize_users(&mut self, num_users: usize) {
        let (old, new) = (self.num_users, num_users);
        if new < old {
            for i in 1..self.num_clouds {
                self.x.copy_within(i * old..i * old + new, i * new);
            }
            self.x.truncate(self.num_clouds * new);
        } else if new > old {
            self.x.resize(self.num_clouds * new, 0.0);
            for i in (0..self.num_clouds).rev() {
                self.x.copy_within(i * old..(i + 1) * old, i * new);
                self.x[i * new + old..(i + 1) * new].fill(0.0);
            }
        }
        self.num_users = new;
    }

    /// Builds from a flat row-major (cloud-major) vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_clouds * num_users`.
    pub fn from_flat(num_clouds: usize, num_users: usize, x: Vec<f64>) -> Self {
        assert_eq!(x.len(), num_clouds * num_users, "flat length mismatch");
        Allocation {
            num_clouds,
            num_users,
            x,
        }
    }

    /// Number of clouds `I`.
    pub fn num_clouds(&self) -> usize {
        self.num_clouds
    }

    /// Number of users `J`.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// `x_{i,j}`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.x[i * self.num_users + j]
    }

    /// Sets `x_{i,j}`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.x[i * self.num_users + j] = v;
    }

    /// The flat storage (cloud-major).
    pub fn as_flat(&self) -> &[f64] {
        &self.x
    }

    /// Mutable flat storage (cloud-major) — for cache-aware row sweeps
    /// that would otherwise pay a strided `get`/`set` per entry.
    pub fn as_flat_mut(&mut self) -> &mut [f64] {
        &mut self.x
    }

    /// Total allocated in cloud `i`: `x_{i,t} = Σ_j x_{i,j,t}`.
    pub fn cloud_total(&self, i: usize) -> f64 {
        self.x[i * self.num_users..(i + 1) * self.num_users]
            .iter()
            .sum()
    }

    /// Total allocated to user `j`: `Σ_i x_{i,j,t}`.
    pub fn user_total(&self, j: usize) -> f64 {
        (0..self.num_clouds).map(|i| self.get(i, j)).sum()
    }

    /// Sum of all entries.
    pub fn grand_total(&self) -> f64 {
        self.x.iter().sum()
    }

    /// Clamps tiny negative values (solver round-off) to zero.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a value is more negative than `-tol`.
    pub fn clamp_nonnegative(&mut self, tol: f64) {
        for v in &mut self.x {
            debug_assert!(*v >= -tol, "allocation entry {v} below -{tol}");
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// Maximum demand shortfall `max_j (λ_j − Σ_i x_{i,j})⁺`.
    ///
    /// # Panics
    ///
    /// Panics if `workloads.len() != num_users`.
    pub fn demand_shortfall(&self, workloads: &[f64]) -> f64 {
        assert_eq!(workloads.len(), self.num_users, "workload length mismatch");
        (0..self.num_users)
            .map(|j| (workloads[j] - self.user_total(j)).max(0.0))
            .fold(0.0, f64::max)
    }

    /// Maximum capacity excess `max_i (Σ_j x_{i,j} − C_i)⁺`.
    ///
    /// # Panics
    ///
    /// Panics if `capacities.len() != num_clouds`.
    pub fn capacity_excess(&self, capacities: &[f64]) -> f64 {
        assert_eq!(
            capacities.len(),
            self.num_clouds,
            "capacity length mismatch"
        );
        (0..self.num_clouds)
            .map(|i| (self.cloud_total(i) - capacities[i]).max(0.0))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let mut a = Allocation::zeros(2, 2);
        a.set(0, 0, 1.0);
        a.set(0, 1, 2.0);
        a.set(1, 0, 3.0);
        assert_eq!(a.cloud_total(0), 3.0);
        assert_eq!(a.cloud_total(1), 3.0);
        assert_eq!(a.user_total(0), 4.0);
        assert_eq!(a.grand_total(), 6.0);
    }

    #[test]
    fn feasibility_metrics() {
        let mut a = Allocation::zeros(2, 1);
        a.set(0, 0, 1.0);
        a.set(1, 0, 1.0);
        assert_eq!(a.demand_shortfall(&[3.0]), 1.0);
        assert_eq!(a.demand_shortfall(&[2.0]), 0.0);
        assert_eq!(a.capacity_excess(&[0.5, 2.0]), 0.5);
    }

    /// `resize_users` against a rebuild through `get`/`set`.
    fn assert_resizes_like_a_rebuild(num_clouds: usize, from: usize, to: usize) {
        let flat = (0..num_clouds * from).map(|k| k as f64 + 1.0).collect();
        let original = Allocation::from_flat(num_clouds, from, flat);
        let mut rebuilt = Allocation::zeros(num_clouds, to);
        for i in 0..num_clouds {
            for j in 0..from.min(to) {
                rebuilt.set(i, j, original.get(i, j));
            }
        }
        let mut resized = original.clone();
        resized.resize_users(to);
        assert_eq!(resized, rebuilt, "{num_clouds} clouds, {from} → {to} users");
    }

    #[test]
    fn resize_users_matches_a_rebuild() {
        for (from, to) in [(5, 3), (3, 5), (4, 4), (0, 4), (4, 0), (0, 0), (1, 7)] {
            for num_clouds in [1, 3] {
                assert_resizes_like_a_rebuild(num_clouds, from, to);
            }
        }
    }

    #[test]
    fn clamp_zeroes_small_negatives() {
        let mut a = Allocation::from_flat(1, 2, vec![-1e-12, 5.0]);
        a.clamp_nonnegative(1e-9);
        assert_eq!(a.get(0, 0), 0.0);
        assert_eq!(a.get(0, 1), 5.0);
    }
}
