//! The 15-station central Rome metro network hosting the edge clouds.
//!
//! The paper deploys one edge cloud at each of 15 selected metro stations in
//! central Rome, with GPS positions collected manually from Google Maps. We
//! embed approximate public coordinates of 15 central stations on lines A
//! and B (interchange at Termini) together with the line adjacency used by
//! the §V-D random-walk mobility model.

use crate::geo::GeoPoint;
use serde::{Deserialize, Serialize};

/// A metro station hosting an edge cloud.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Station {
    /// Station name.
    pub name: String,
    /// GPS position.
    pub position: GeoPoint,
}

/// A set of stations plus the metro-line adjacency between them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StationNetwork {
    stations: Vec<Station>,
    /// Adjacency lists: `neighbors[i]` are stations one metro hop from `i`.
    neighbors: Vec<Vec<usize>>,
}

impl StationNetwork {
    /// Builds a network from stations and undirected edges.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a station out of range.
    pub fn new(stations: Vec<Station>, edges: &[(usize, usize)]) -> Self {
        let n = stations.len();
        let mut neighbors = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range");
            neighbors[a].push(b);
            neighbors[b].push(a);
        }
        for list in &mut neighbors {
            list.sort_unstable();
            list.dedup();
        }
        StationNetwork {
            stations,
            neighbors,
        }
    }

    /// Number of stations.
    pub fn len(&self) -> usize {
        self.stations.len()
    }

    /// Whether the network has no stations.
    pub fn is_empty(&self) -> bool {
        self.stations.is_empty()
    }

    /// The stations.
    pub fn stations(&self) -> &[Station] {
        &self.stations
    }

    /// Station `i`.
    pub fn station(&self, i: usize) -> &Station {
        &self.stations[i]
    }

    /// Metro neighbors of station `i`.
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.neighbors[i]
    }

    /// Attaches position `p`: the index of the station nearest to `p`
    /// (ties broken by lower index) and its distance to `p` in kilometers,
    /// the access delay. A position with no finite distance (a NaN
    /// coordinate) attaches to station 0 at an infinite delay.
    ///
    /// # Panics
    ///
    /// Panics if the network is empty.
    pub fn attach(&self, p: &GeoPoint) -> (usize, f64) {
        assert!(!self.is_empty(), "no stations");
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, s) in self.stations.iter().enumerate() {
            let d = s.position.distance_km(p);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        (best, best_d)
    }

    /// Pairwise great-circle distance matrix in kilometers
    /// (`d[i][i] = 0`, symmetric).
    pub fn distance_matrix_km(&self) -> Vec<Vec<f64>> {
        let n = self.len();
        let mut d = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let dist = self.stations[i]
                    .position
                    .distance_km(&self.stations[j].position);
                d[i][j] = dist;
                d[j][i] = dist;
            }
        }
        d
    }

    /// Bounding box of the stations as `(min, max)` corner points.
    ///
    /// # Panics
    ///
    /// Panics if the network is empty.
    pub fn bounding_box(&self) -> (GeoPoint, GeoPoint) {
        assert!(!self.is_empty(), "no stations");
        let mut min = self.stations[0].position;
        let mut max = min;
        for s in &self.stations {
            min.lat = min.lat.min(s.position.lat);
            min.lon = min.lon.min(s.position.lon);
            max.lat = max.lat.max(s.position.lat);
            max.lon = max.lon.max(s.position.lon);
        }
        (min, max)
    }
}

/// The 15 central Rome metro stations used in the paper's evaluation, with
/// line-A/line-B adjacency (interchange at Termini).
///
/// # Example
///
/// ```
/// let net = mobility::rome_metro();
/// assert_eq!(net.len(), 15);
/// // Termini (index 7) interconnects lines A and B: 2 A-neighbors + Cavour.
/// assert_eq!(net.neighbors(7).len(), 3);
/// ```
pub fn rome_metro() -> StationNetwork {
    let mk = |name: &str, lat: f64, lon: f64| Station {
        name: name.to_string(),
        position: GeoPoint::new(lat, lon),
    };
    let stations = vec![
        // Line A, north-west to south-east (indices 0–10).
        mk("Cipro", 41.9074, 12.4476),
        mk("Ottaviano", 41.9098, 12.4585),
        mk("Lepanto", 41.9095, 12.4703),
        mk("Flaminio", 41.9124, 12.4760),
        mk("Spagna", 41.9066, 12.4822),
        mk("Barberini", 41.9038, 12.4887),
        mk("Repubblica", 41.9031, 12.4956),
        mk("Termini", 41.9009, 12.5019),
        mk("Vittorio Emanuele", 41.8945, 12.5065),
        mk("Manzoni", 41.8896, 12.5116),
        mk("San Giovanni", 41.8860, 12.5090),
        // Line B, from Termini south-west (indices 11–14).
        mk("Cavour", 41.8944, 12.4977),
        mk("Colosseo", 41.8902, 12.4924),
        mk("Circo Massimo", 41.8839, 12.4886),
        mk("Piramide", 41.8764, 12.4810),
    ];
    let mut edges: Vec<(usize, usize)> = (0..10).map(|i| (i, i + 1)).collect();
    edges.extend_from_slice(&[(7, 11), (11, 12), (12, 13), (13, 14)]);
    StationNetwork::new(stations, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rome_has_15_stations() {
        let net = rome_metro();
        assert_eq!(net.len(), 15);
    }

    #[test]
    fn network_is_connected() {
        let net = rome_metro();
        let mut seen = vec![false; net.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for &u in net.neighbors(v) {
                if !seen[u] {
                    seen[u] = true;
                    stack.push(u);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "metro graph must be connected");
    }

    #[test]
    fn stations_are_in_central_rome() {
        let net = rome_metro();
        for s in net.stations() {
            assert!(s.position.lat > 41.8 && s.position.lat < 42.0, "{}", s.name);
            assert!(s.position.lon > 12.4 && s.position.lon < 12.6, "{}", s.name);
        }
    }

    #[test]
    fn distance_matrix_is_symmetric_with_zero_diagonal() {
        let net = rome_metro();
        let d = net.distance_matrix_km();
        for i in 0..net.len() {
            assert_eq!(d[i][i], 0.0);
            for j in 0..net.len() {
                assert_eq!(d[i][j], d[j][i]);
                if i != j {
                    assert!(d[i][j] > 0.0);
                    assert!(d[i][j] < 10.0, "central Rome span <10km");
                }
            }
        }
    }

    #[test]
    fn nearest_station_of_station_position_is_itself() {
        let net = rome_metro();
        for i in 0..net.len() {
            assert_eq!(net.attach(&net.station(i).position), (i, 0.0));
        }
    }

    #[test]
    fn termini_is_interchange() {
        let net = rome_metro();
        assert_eq!(net.station(7).name, "Termini");
        assert!(net.neighbors(7).contains(&11), "Termini adjacent to Cavour");
    }

    #[test]
    fn bounding_box_contains_all() {
        let net = rome_metro();
        let (min, max) = net.bounding_box();
        for s in net.stations() {
            assert!(s.position.lat >= min.lat && s.position.lat <= max.lat);
            assert!(s.position.lon >= min.lon && s.position.lon <= max.lon);
        }
    }
}
