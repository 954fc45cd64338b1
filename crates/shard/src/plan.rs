//! User-shard partition planning.
//!
//! A shard plan splits the `J` users of an instance into `S` disjoint,
//! non-empty groups. The coordinator solves one restricted ℙ₂ per group, so
//! the quality of the plan decides how balanced the per-shard Newton work
//! is: the blocked kernel's per-slot cost grows superlinearly in the user
//! count, which makes the *largest* shard the round's critical path.
//! [`ShardPlan::balanced`] therefore packs users by workload with the
//! classical longest-processing-time greedy.

/// A disjoint partition of users `0..J` into non-empty shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    users: Vec<Vec<usize>>,
    shard_of: Vec<usize>,
}

impl ShardPlan {
    /// Partitions users by workload with the longest-processing-time
    /// greedy: users sorted by descending `λ_j`, each assigned to the
    /// currently lightest shard. Shards come out within one user's workload
    /// of each other, and every shard is non-empty whenever
    /// `shards <= workloads.len()`.
    ///
    /// # Panics
    ///
    /// Panics when `workloads` is empty or `shards == 0`.
    pub fn balanced(workloads: &[f64], shards: usize) -> Self {
        assert!(!workloads.is_empty(), "cannot shard zero users");
        assert!(shards > 0, "cannot plan zero shards");
        let num_users = workloads.len();
        let shards = shards.min(num_users);
        let mut order: Vec<usize> = (0..num_users).collect();
        // Corrupted (NaN) workloads sort as equal instead of panicking; they
        // are sanitized upstream anyway.
        order.sort_by(|&a, &b| {
            workloads[b]
                .partial_cmp(&workloads[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut users: Vec<Vec<usize>> = vec![Vec::new(); shards];
        let mut load = vec![0.0f64; shards];
        for j in order {
            let lightest = (0..shards)
                .min_by(|&a, &b| {
                    load[a]
                        .partial_cmp(&load[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("at least one shard");
            users[lightest].push(j);
            let w = workloads[j];
            load[lightest] += if w.is_finite() && w > 0.0 { w } else { 0.0 };
        }
        // Per-shard user lists in ascending order: shard-local columns then
        // scatter back predictably.
        for group in &mut users {
            group.sort_unstable();
        }
        Self::from_groups(num_users, users)
    }

    pub(crate) fn from_groups(num_users: usize, users: Vec<Vec<usize>>) -> Self {
        let mut shard_of = vec![usize::MAX; num_users];
        for (s, group) in users.iter().enumerate() {
            debug_assert!(!group.is_empty(), "shard {s} is empty");
            for &j in group {
                debug_assert_eq!(shard_of[j], usize::MAX, "user {j} assigned twice");
                shard_of[j] = s;
            }
        }
        debug_assert!(
            shard_of.iter().all(|&s| s != usize::MAX),
            "some user is unassigned"
        );
        ShardPlan { users, shard_of }
    }

    /// Number of shards (≥ 1, ≤ number of users).
    pub fn num_shards(&self) -> usize {
        self.users.len()
    }

    /// Total users across all shards.
    pub fn num_users(&self) -> usize {
        self.shard_of.len()
    }

    /// The global user indices of shard `s`, in ascending order.
    pub fn users(&self, s: usize) -> &[usize] {
        &self.users[s]
    }

    /// Which shard user `j` belongs to.
    pub fn shard_of(&self, j: usize) -> usize {
        self.shard_of[j]
    }

    /// Sum of `weights` over each shard (diagnostics; callers pass `λ`).
    pub fn loads(&self, weights: &[f64]) -> Vec<f64> {
        self.users
            .iter()
            .map(|group| group.iter().map(|&j| weights[j]).sum())
            .collect()
    }

    /// The circuit-breaker re-plan: a new partition with shard `sick`'s
    /// users merged into shard `into`, and `sick`'s slot removed (shards
    /// above `sick` shift down by one). The merged shard's user list stays
    /// in ascending order, so restriction and scatter behave exactly as for
    /// a freshly planned shard.
    ///
    /// # Panics
    ///
    /// Panics when `sick == into`, either index is out of range, or the
    /// plan has fewer than two shards.
    pub fn merged(&self, sick: usize, into: usize) -> ShardPlan {
        assert!(self.num_shards() >= 2, "cannot merge a single-shard plan");
        assert!(sick != into, "cannot merge a shard into itself");
        assert!(sick < self.num_shards(), "sick shard out of range");
        assert!(into < self.num_shards(), "target shard out of range");
        let mut groups = self.users.clone();
        let moved = std::mem::take(&mut groups[sick]);
        groups[into].extend(moved);
        groups[into].sort_unstable();
        groups.remove(sick);
        Self::from_groups(self.num_users(), groups)
    }
}

/// SplitMix64's finalizer: a cheap, well-mixed deterministic hash (also
/// the keyed-hash primitive behind `chaos`'s fault rolls).
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_is_partition(plan: &ShardPlan, num_users: usize) {
        let mut seen = vec![false; num_users];
        for s in 0..plan.num_shards() {
            assert!(!plan.users(s).is_empty(), "shard {s} is empty");
            for &j in plan.users(s) {
                assert!(!seen[j], "user {j} appears twice");
                seen[j] = true;
                assert_eq!(plan.shard_of(j), s);
            }
        }
        assert!(seen.iter().all(|&b| b), "some user is missing");
    }

    #[test]
    fn balanced_plan_is_a_partition_with_no_empty_shards() {
        let workloads: Vec<f64> = (0..23).map(|j| 1.0 + (j % 5) as f64).collect();
        for shards in [1, 2, 4, 23, 40] {
            let plan = ShardPlan::balanced(&workloads, shards);
            assert_eq!(plan.num_shards(), shards.min(workloads.len()));
            assert_is_partition(&plan, workloads.len());
        }
    }

    #[test]
    fn balanced_plan_balances_load_within_one_user() {
        let workloads: Vec<f64> = (0..64).map(|j| 1.0 + (j % 7) as f64).collect();
        let heaviest = workloads.iter().cloned().fold(0.0, f64::max);
        let plan = ShardPlan::balanced(&workloads, 4);
        let loads = plan.loads(&workloads);
        let max = loads.iter().cloned().fold(0.0, f64::max);
        let min = loads.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max - min <= heaviest + 1e-12,
            "loads {loads:?} spread more than one user apart"
        );
    }

    #[test]
    fn balanced_plan_survives_corrupt_workloads() {
        let workloads = [1.0, f64::NAN, 3.0, -2.0, f64::INFINITY, 2.0];
        let plan = ShardPlan::balanced(&workloads, 3);
        assert_is_partition(&plan, workloads.len());
    }

    #[test]
    fn merged_plan_is_a_partition_with_sorted_groups() {
        let workloads: Vec<f64> = (0..17).map(|j| 1.0 + (j % 4) as f64).collect();
        let plan = ShardPlan::balanced(&workloads, 4);
        let sick_users: Vec<usize> = plan.users(2).to_vec();
        let merged = plan.merged(2, 0);
        assert_eq!(merged.num_shards(), 3);
        assert_eq!(merged.num_users(), 17);
        assert_is_partition(&merged, 17);
        for &j in &sick_users {
            assert_eq!(merged.shard_of(j), 0, "user {j} did not land in shard 0");
        }
        for s in 0..merged.num_shards() {
            let us = merged.users(s);
            assert!(us.windows(2).all(|w| w[0] < w[1]), "shard {s}: {us:?}");
        }
        // Shards above the removed slot shift down: old shard 3 is new 2.
        assert_eq!(merged.users(2), plan.users(3));
    }

    #[test]
    fn merged_plan_handles_target_above_sick() {
        let workloads = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let plan = ShardPlan::balanced(&workloads, 3);
        let merged = plan.merged(0, 2);
        assert_eq!(merged.num_shards(), 2);
        assert_is_partition(&merged, workloads.len());
    }

    #[test]
    fn shard_user_lists_are_sorted() {
        let workloads: Vec<f64> = (0..31).map(|j| 1.0 + (j % 3) as f64).collect();
        let plan = ShardPlan::balanced(&workloads, 5);
        for s in 0..plan.num_shards() {
            let us = plan.users(s);
            assert!(us.windows(2).all(|w| w[0] < w[1]), "shard {s}: {us:?}");
        }
    }
}
