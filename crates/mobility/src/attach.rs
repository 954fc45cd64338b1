//! Nearest-station attachment: turning raw positions into the per-slot
//! `(l_{j,t}, d(j, l_{j,t}))` pairs the allocator consumes.

use crate::geo::GeoPoint;
use crate::stations::StationNetwork;
use serde::{Deserialize, Serialize};

/// The mobility-derived inputs of the allocation problem: for each user `j`
/// and slot `t`, the attached edge cloud `l_{j,t}` and the access delay
/// `d(j, l_{j,t})` (expressed in kilometers; the service-quality price is
/// proportional to distance, per §V-A of the paper).
///
/// Both tables are stored slot-major, one flat vector each, so a slot's
/// attachments and delays are two contiguous slices
/// ([`MobilityInput::attachments_at`], [`MobilityInput::delays_at`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MobilityInput {
    num_clouds: usize,
    num_users: usize,
    num_slots: usize,
    /// `attachment[t·J + j]` = index of the edge cloud user `j` connects to
    /// at slot `t`.
    attachment: Vec<usize>,
    /// `access_delay[t·J + j]` = distance between user `j` and its cloud at
    /// slot `t`.
    access_delay: Vec<f64>,
}

impl MobilityInput {
    /// Builds an input from explicit per-user attachment and delay rows
    /// (`attachment[j][t]`, `access_delay[j][t]`).
    ///
    /// # Panics
    ///
    /// Panics if the tables are ragged, reference clouds out of range, or
    /// contain negative delays.
    pub fn new(
        num_clouds: usize,
        attachment: Vec<Vec<usize>>,
        access_delay: Vec<Vec<f64>>,
    ) -> Self {
        assert_eq!(
            attachment.len(),
            access_delay.len(),
            "attachment/delay user-count mismatch"
        );
        let num_users = attachment.len();
        let num_slots = attachment.first().map_or(0, Vec::len);
        let mut input = MobilityInput::with_size(num_clouds, num_users, num_slots);
        for (j, (a, d)) in attachment.into_iter().zip(access_delay).enumerate() {
            assert_eq!(a.len(), num_slots, "user {j}: ragged attachment row");
            assert_eq!(d.len(), num_slots, "user {j}: ragged delay row");
            assert!(
                a.iter().all(|&i| i < num_clouds),
                "user {j}: cloud index out of range"
            );
            assert!(
                d.iter().all(|&v| v >= 0.0 && v.is_finite()),
                "user {j}: invalid delay"
            );
            for (t, (a, d)) in a.into_iter().zip(d).enumerate() {
                input.attachment[t * num_users + j] = a;
                input.access_delay[t * num_users + j] = d;
            }
        }
        input
    }

    /// Builds an input by attaching every per-slot position to its nearest
    /// station in `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is empty or position rows are ragged.
    pub fn from_positions(net: &StationNetwork, positions: &[Vec<GeoPoint>]) -> Self {
        let num_users = positions.len();
        let num_slots = positions.first().map_or(0, Vec::len);
        let mut input = MobilityInput::with_size(net.len(), num_users, num_slots);
        for (j, row) in positions.iter().enumerate() {
            assert_eq!(row.len(), num_slots, "ragged position row");
            for (t, p) in row.iter().enumerate() {
                let (s, d) = net.attach(p);
                input.attachment[t * num_users + j] = s;
                input.access_delay[t * num_users + j] = d;
            }
        }
        input
    }

    /// Zeroed tables of the given shape.
    fn with_size(num_clouds: usize, num_users: usize, num_slots: usize) -> Self {
        MobilityInput {
            num_clouds,
            num_users,
            num_slots,
            attachment: vec![0; num_users * num_slots],
            access_delay: vec![0.0; num_users * num_slots],
        }
    }

    /// Number of edge clouds.
    pub fn num_clouds(&self) -> usize {
        self.num_clouds
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of time slots.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Every user's cloud at slot `t`, indexed by user.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.num_slots()`.
    pub fn attachments_at(&self, t: usize) -> &[usize] {
        assert!(t < self.num_slots, "slot {t} out of range");
        &self.attachment[t * self.num_users..(t + 1) * self.num_users]
    }

    /// Every user's access delay at slot `t`, indexed by user.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.num_slots()`.
    pub fn delays_at(&self, t: usize) -> &[f64] {
        assert!(t < self.num_slots, "slot {t} out of range");
        &self.access_delay[t * self.num_users..(t + 1) * self.num_users]
    }

    /// The cloud user `j` is attached to at slot `t`.
    pub fn attached(&self, j: usize, t: usize) -> usize {
        self.attachments_at(t)[j]
    }

    /// The access delay of user `j` at slot `t`.
    pub fn delay(&self, j: usize, t: usize) -> f64 {
        self.delays_at(t)[j]
    }

    /// How often each cloud is the attachment target, over all users and
    /// slots (the paper sizes capacities proportionally to this frequency).
    pub fn attachment_frequency(&self) -> Vec<usize> {
        let mut freq = vec![0usize; self.num_clouds];
        for &i in &self.attachment {
            freq[i] += 1;
        }
        freq
    }

    /// Fraction of consecutive-slot pairs in which a user switches clouds —
    /// a simple mobility-intensity metric.
    pub fn handover_rate(&self) -> f64 {
        let mut switches = 0usize;
        let mut pairs = 0usize;
        for t in 1..self.num_slots {
            let (before, now) = (self.attachments_at(t - 1), self.attachments_at(t));
            pairs += self.num_users;
            switches += before.iter().zip(now).filter(|(a, b)| a != b).count();
        }
        if pairs == 0 {
            0.0
        } else {
            switches as f64 / pairs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stations::rome_metro;

    #[test]
    fn from_positions_attaches_to_nearest() {
        let net = rome_metro();
        // A user sitting exactly on each of two stations across two slots.
        let positions = vec![vec![net.station(0).position, net.station(3).position]];
        let input = MobilityInput::from_positions(&net, &positions);
        assert_eq!(input.num_users(), 1);
        assert_eq!(input.num_slots(), 2);
        assert_eq!(input.attached(0, 0), 0);
        assert_eq!(input.attached(0, 1), 3);
        assert!(input.delay(0, 0) < 1e-9);
    }

    #[test]
    fn handover_rate_counts_switches() {
        let input = MobilityInput::new(
            3,
            vec![vec![0, 0, 1, 1], vec![2, 2, 2, 2]],
            vec![vec![0.0; 4], vec![0.0; 4]],
        );
        // User 0 switches once in 3 pairs, user 1 never: 1/6.
        assert!((input.handover_rate() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn attachment_frequency_sums_to_users_times_slots() {
        let input = MobilityInput::new(
            2,
            vec![vec![0, 1, 1], vec![0, 0, 0]],
            vec![vec![0.0; 3], vec![0.0; 3]],
        );
        let f = input.attachment_frequency();
        assert_eq!(f, vec![4, 2]);
        assert_eq!(f.iter().sum::<usize>(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_cloud_index() {
        MobilityInput::new(2, vec![vec![5]], vec![vec![0.0]]);
    }
}
