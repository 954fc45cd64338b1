//! GPS points and great-circle distances.

use serde::{Deserialize, Serialize};

/// Mean Earth radius in kilometers.
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// A WGS-84 latitude/longitude point in degrees.
///
/// # Example
///
/// ```
/// use mobility::geo::GeoPoint;
///
/// let termini = GeoPoint::new(41.9009, 12.5019);
/// let colosseo = GeoPoint::new(41.8902, 12.4924);
/// let d = termini.distance_km(&colosseo);
/// assert!(d > 1.0 && d < 2.0, "about 1.4 km, got {d}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoPoint {
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point from latitude/longitude in degrees.
    pub fn new(lat: f64, lon: f64) -> Self {
        GeoPoint { lat, lon }
    }

    /// Great-circle (haversine) distance to `other`, in kilometers.
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        haversine_km(self, self.cos_lat(), other, other.cos_lat())
    }

    /// `cos φ` of the latitude, the factor [`GeoPoint::distance_km`] takes
    /// of each end.
    pub(crate) fn cos_lat(&self) -> f64 {
        self.lat.to_radians().cos()
    }

    /// Linear interpolation toward `target` by fraction `f ∈ [0, 1]`
    /// (adequate over the few-kilometer scales of a city).
    pub fn lerp(&self, target: &GeoPoint, f: f64) -> GeoPoint {
        GeoPoint {
            lat: self.lat + (target.lat - self.lat) * f,
            lon: self.lon + (target.lon - self.lon) * f,
        }
    }
}

/// The haversine distance from `p` to `q` in kilometers, given each end's
/// [`GeoPoint::cos_lat`]: [`GeoPoint::distance_km`] with the cosines taken
/// once by the caller, so the same operands give the same bits.
pub(crate) fn haversine_km(p: &GeoPoint, cos_p: f64, q: &GeoPoint, cos_q: f64) -> f64 {
    let dphi = (q.lat - p.lat).to_radians();
    let dlambda = (q.lon - p.lon).to_radians();
    let a = (dphi / 2.0).sin().powi(2) + cos_p * cos_q * (dlambda / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_to_self() {
        let p = GeoPoint::new(41.9, 12.5);
        assert_eq!(p.distance_km(&p), 0.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = GeoPoint::new(41.9, 12.5);
        let b = GeoPoint::new(41.88, 12.47);
        assert!((a.distance_km(&b) - b.distance_km(&a)).abs() < 1e-12);
    }

    #[test]
    fn one_degree_latitude_is_about_111km() {
        let a = GeoPoint::new(41.0, 12.5);
        let b = GeoPoint::new(42.0, 12.5);
        let d = a.distance_km(&b);
        assert!((d - 111.2).abs() < 0.5, "got {d}");
    }

    #[test]
    fn lerp_endpoints() {
        let a = GeoPoint::new(41.0, 12.0);
        let b = GeoPoint::new(42.0, 13.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let mid = a.lerp(&b, 0.5);
        assert!((mid.lat - 41.5).abs() < 1e-12);
    }

    #[test]
    fn triangle_inequality_holds() {
        let a = GeoPoint::new(41.90, 12.45);
        let b = GeoPoint::new(41.88, 12.50);
        let c = GeoPoint::new(41.92, 12.48);
        assert!(a.distance_km(&b) <= a.distance_km(&c) + c.distance_km(&b) + 1e-12);
    }
}
