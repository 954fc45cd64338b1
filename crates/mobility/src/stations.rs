//! The 15-station central Rome metro network hosting the edge clouds.
//!
//! The paper deploys one edge cloud at each of 15 selected metro stations in
//! central Rome, with GPS positions collected manually from Google Maps. We
//! embed approximate public coordinates of 15 central stations on lines A
//! and B (interchange at Termini) together with the line adjacency used by
//! the §V-D random-walk mobility model.

use crate::attach::StationTable;
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
    /// coordinate) attaches to station 0 at an infinite delay. The distance
    /// is [`GeoPoint::distance_km`]'s, bit for bit, though only the
    /// stations that may be nearest compute it; each call builds the
    /// station table that [`MobilityInput::from_positions`] builds once.
    ///
    /// [`MobilityInput::from_positions`]: crate::MobilityInput::from_positions
    ///
    /// # Panics
    ///
    /// Panics if the network is empty.
    pub fn attach(&self, p: &GeoPoint) -> (usize, f64) {
        StationTable::new(self).attach(p, p.cos_lat())
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

    /// A network of the given `(lat, lon)` stations, without metro edges.
    fn network(points: &[(f64, f64)]) -> StationNetwork {
        let stations = points
            .iter()
            .enumerate()
            .map(|(i, &(lat, lon))| Station {
                name: format!("s{i}"),
                position: GeoPoint::new(lat, lon),
            })
            .collect();
        StationNetwork::new(stations, &[])
    }

    #[test]
    fn non_finite_coordinates_attach_to_station_zero_at_infinity() {
        let net = rome_metro();
        let termini = net.station(7).position;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for p in [
                GeoPoint::new(bad, termini.lon),
                GeoPoint::new(termini.lat, bad),
                GeoPoint::new(bad, bad),
            ] {
                assert_eq!(net.attach(&p), (0, f64::INFINITY), "{p:?}");
            }
        }
    }

    #[test]
    fn a_duplicated_station_loses_to_its_lower_index() {
        let net = network(&[(41.91, 12.48), (41.90, 12.50), (41.90, 12.50)]);
        let on = GeoPoint::new(41.90, 12.50);
        assert_eq!(net.attach(&on), (1, 0.0));
        let near = GeoPoint::new(41.9003, 12.5004);
        let (i, d) = net.attach(&near);
        assert_eq!(i, 1);
        assert_eq!(d.to_bits(), on.distance_km(&near).to_bits());
    }

    #[test]
    fn an_equidistant_point_attaches_to_the_lower_index() {
        // Longitudes ±0.25° from the point, both exact in binary: the two
        // haversines take the same operands up to sign, so they are equal.
        let (west, east) = ((41.875, 12.25), (41.875, 12.75));
        let p = GeoPoint::new(41.875, 12.5);
        let d = GeoPoint::new(west.0, west.1).distance_km(&p);
        assert_eq!(
            d.to_bits(),
            GeoPoint::new(east.0, east.1).distance_km(&p).to_bits()
        );
        for net in [network(&[west, east]), network(&[east, west])] {
            let (i, got) = net.attach(&p);
            assert_eq!((i, got.to_bits()), (0, d.to_bits()));
        }
        // With a farther station first, the tie still goes to the lower
        // of the two nearest.
        let net = network(&[(41.0, 12.5), east, west]);
        assert_eq!(net.attach(&p).0, 1);
    }

    #[test]
    fn near_ties_the_proxy_misranks_attach_to_the_nearer_station() {
        // Station 0 due north of `p`, station 1 due east, station 0 one
        // part in 10⁶ farther. The proxy `h²` overstates `sin²h` more for
        // the eastern station's larger half-angle, so it ranks station 0
        // first: by less than its 10⁻³ slack at `|h| ≈ 0.0099`, and by
        // more than it at `|h| ≈ 0.12`, beyond the 0.01-rad fallback.
        let p = GeoPoint::new(41.9, 12.5);
        let (cos_p, half) = (p.lat.to_radians().cos(), |deg: f64| deg.to_radians() / 2.0);
        for (h_east, beyond_slack) in [(0.0099_f64, false), (0.12, true)] {
            let east = GeoPoint::new(p.lat, p.lon + (2.0 * h_east).to_degrees());
            let target = east.distance_km(&p) * (1.0 + 1e-6);
            let (mut lo, mut hi) = (0.0, 30.0);
            for _ in 0..100 {
                let mid = (lo + hi) / 2.0;
                if GeoPoint::new(p.lat + mid, p.lon).distance_km(&p) < target {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let north = GeoPoint::new(p.lat + hi, p.lon);
            assert!(north.distance_km(&p) > east.distance_km(&p));
            let q_north = half(north.lat - p.lat).powi(2);
            let q_east = cos_p * cos_p * half(east.lon - p.lon).powi(2);
            assert!(q_north < q_east, "the proxy ranks north first");
            assert_eq!(q_east > (1.0 + 1e-3) * q_north, beyond_slack);
            let net = network(&[(north.lat, north.lon), (east.lat, east.lon)]);
            let (i, d) = net.attach(&p);
            assert_eq!((i, d.to_bits()), (1, east.distance_km(&p).to_bits()));
        }
    }

    #[test]
    fn points_a_few_ulps_off_a_station_attach_to_it() {
        let net = rome_metro();
        for (i, s) in net.stations().iter().enumerate() {
            let on = s.position;
            assert_eq!(net.attach(&on), (i, 0.0));
            let mut ups = on;
            let mut downs = on;
            for _ in 0..4 {
                ups = GeoPoint::new(ups.lat.next_up(), ups.lon.next_up());
                downs = GeoPoint::new(downs.lat.next_down(), downs.lon.next_down());
                for p in [ups, downs] {
                    let (got, d) = net.attach(&p);
                    assert_eq!(got, i, "{p:?}");
                    assert!(d > 0.0, "{p:?}: {d}");
                    assert_eq!(d.to_bits(), on.distance_km(&p).to_bits(), "{p:?}");
                }
            }
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
