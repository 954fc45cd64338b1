//! Nearest-station attachment: turning raw positions into the per-slot
//! `(l_{j,t}, d(j, l_{j,t}))` pairs the allocator consumes.

use crate::geo::GeoPoint;
use crate::stations::StationNetwork;
use serde::{Deserialize, Serialize};

/// The mobility-derived inputs of the allocation problem: for each user `j`
/// and slot `t`, the attached edge cloud `l_{j,t}` and the access delay
/// `d(j, l_{j,t})` (expressed in kilometers; the service-quality price is
/// proportional to distance, per §V-A of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MobilityInput {
    num_clouds: usize,
    num_slots: usize,
    /// `attachment[j][t]` = index of the edge cloud user `j` connects to.
    attachment: Vec<Vec<usize>>,
    /// `access_delay[j][t]` = distance between user `j` and its cloud.
    access_delay: Vec<Vec<f64>>,
}

impl MobilityInput {
    /// Builds an input from explicit attachment and delay tables.
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
        let num_slots = attachment.first().map_or(0, Vec::len);
        for (j, (a, d)) in attachment.iter().zip(&access_delay).enumerate() {
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
        }
        MobilityInput {
            num_clouds,
            num_slots,
            attachment,
            access_delay,
        }
    }

    /// Builds an input by attaching every per-slot position to its nearest
    /// station in `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is empty or position rows are ragged.
    pub fn from_positions(net: &StationNetwork, positions: &[Vec<GeoPoint>]) -> Self {
        let num_slots = positions.first().map_or(0, Vec::len);
        let mut attachment = Vec::with_capacity(positions.len());
        let mut access_delay = Vec::with_capacity(positions.len());
        for row in positions {
            assert_eq!(row.len(), num_slots, "ragged position row");
            let mut att = Vec::with_capacity(num_slots);
            let mut del = Vec::with_capacity(num_slots);
            for p in row {
                let (s, d) = net.attach(p);
                att.push(s);
                del.push(d);
            }
            attachment.push(att);
            access_delay.push(del);
        }
        MobilityInput {
            num_clouds: net.len(),
            num_slots,
            attachment,
            access_delay,
        }
    }

    /// Number of edge clouds.
    pub fn num_clouds(&self) -> usize {
        self.num_clouds
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.attachment.len()
    }

    /// Number of time slots.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// The cloud user `j` is attached to at slot `t`.
    pub fn attached(&self, j: usize, t: usize) -> usize {
        self.attachment[j][t]
    }

    /// The access delay of user `j` at slot `t`.
    pub fn delay(&self, j: usize, t: usize) -> f64 {
        self.access_delay[j][t]
    }

    /// How often each cloud is the attachment target, over all users and
    /// slots (the paper sizes capacities proportionally to this frequency).
    pub fn attachment_frequency(&self) -> Vec<usize> {
        let mut freq = vec![0usize; self.num_clouds];
        for row in &self.attachment {
            for &i in row {
                freq[i] += 1;
            }
        }
        freq
    }

    /// Fraction of consecutive-slot pairs in which a user switches clouds —
    /// a simple mobility-intensity metric.
    pub fn handover_rate(&self) -> f64 {
        let mut switches = 0usize;
        let mut pairs = 0usize;
        for row in &self.attachment {
            for w in row.windows(2) {
                pairs += 1;
                if w[0] != w[1] {
                    switches += 1;
                }
            }
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
