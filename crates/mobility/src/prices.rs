//! Price processes for operation, reconfiguration, and bandwidth costs,
//! following §V-A of the paper.

use crate::rand_util::{normal, truncated_normal};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Flat-rate prices (euro/month for 1 Mbps) of the three Rome ISPs the paper
/// assigns edge clouds to: Tiscali Italia, Vodafone Italia, Infostrada-Wind.
/// Only the ratios matter.
pub const ISP_RATES: [f64; 3] = [2.49, 4.86, 1.25];

/// Configuration of all price generators.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PriceConfig {
    /// Mean of the per-cloud base operation prices (bases are set inversely
    /// proportional to capacity, then normalized to this mean).
    pub operation_mean: f64,
    /// Floor of the per-slot operation price, as a fraction of the base
    /// (the Gaussian's negative tail is cut here).
    pub operation_floor_frac: f64,
    /// Mean of the static per-cloud reconfiguration price.
    pub reconfig_mean: f64,
    /// Standard deviation of the reconfiguration price.
    pub reconfig_sd: f64,
    /// Scale applied to the ISP rate ratios to obtain per-unit migration
    /// prices.
    pub bandwidth_scale: f64,
    /// Lag-1 autocorrelation of the per-slot operation price (AR(1) with
    /// the §V-A Gaussian as its stationary marginal). `0` reproduces fully
    /// independent per-slot redraws; electricity-style prices over
    /// one-minute slots are strongly correlated, so the default is high.
    pub operation_correlation: f64,
}

impl Default for PriceConfig {
    fn default() -> Self {
        PriceConfig {
            operation_mean: 1.0,
            operation_floor_frac: 0.05,
            reconfig_mean: 1.0,
            reconfig_sd: 0.4,
            bandwidth_scale: 0.4,
            operation_correlation: 0.95,
        }
    }
}

/// Base operation prices, inversely proportional to capacity (economy of
/// scale) and normalized so their mean equals `mean`.
///
/// # Panics
///
/// Panics if any capacity is non-positive.
pub fn operation_base_prices(capacities: &[f64], mean: f64) -> Vec<f64> {
    assert!(
        capacities.iter().all(|&c| c > 0.0),
        "capacities must be positive"
    );
    let inv: Vec<f64> = capacities.iter().map(|&c| 1.0 / c).collect();
    let avg: f64 = inv.iter().sum::<f64>() / inv.len() as f64;
    inv.into_iter().map(|v| mean * v / avg).collect()
}

/// Per-slot operation prices as a stationary AR(1) process whose marginal
/// is the §V-A Gaussian `N(base_i, (base_i/2)²)`:
///
/// ```text
/// a_{i,t} = base_i + ρ·(a_{i,t−1} − base_i) + √(1−ρ²)·(base_i/2)·ξ_t
/// ```
///
/// truncated below at `floor_frac · base_i` after the recursion. `rho = 0`
/// reduces to independent redraws; one-minute slots call for high `rho`.
///
/// # Panics
///
/// Panics if `rho` is not in `[0, 1)`.
pub fn operation_price_series_ar1<R: Rng + ?Sized>(
    base: &[f64],
    num_slots: usize,
    floor_frac: f64,
    rho: f64,
    rng: &mut R,
) -> Vec<Vec<f64>> {
    assert!((0.0..1.0).contains(&rho), "rho must be in [0, 1)");
    let n = base.len();
    let mut state: Vec<f64> = base.iter().map(|&b| normal(rng, 0.0, b / 2.0)).collect();
    let mut out = Vec::with_capacity(num_slots);
    for _ in 0..num_slots {
        let mut row = Vec::with_capacity(n);
        for i in 0..n {
            let b = base[i];
            row.push((b + state[i]).max(floor_frac * b));
            state[i] = rho * state[i] + (1.0 - rho * rho).sqrt() * normal(rng, 0.0, b / 2.0);
        }
        out.push(row);
    }
    out
}

/// Static per-cloud reconfiguration prices: Gaussian with the negative tail
/// cut (§V-A), floored at 5% of the mean to stay strictly positive.
pub fn reconfig_prices<R: Rng + ?Sized>(
    num_clouds: usize,
    mean: f64,
    sd: f64,
    rng: &mut R,
) -> Vec<f64> {
    (0..num_clouds)
        .map(|_| truncated_normal(rng, mean, sd, 0.05 * mean))
        .collect()
}

/// Per-cloud migration prices `(b_out, b_in)`: clouds are assigned
/// round-robin to the three ISP clusters and inherit the cluster's rate
/// ratio scaled by `scale`, split evenly between the outgoing and incoming
/// direction, with a small per-cloud jitter.
pub fn bandwidth_prices<R: Rng + ?Sized>(
    num_clouds: usize,
    scale: f64,
    rng: &mut R,
) -> (Vec<f64>, Vec<f64>) {
    let mut out = Vec::with_capacity(num_clouds);
    let mut inn = Vec::with_capacity(num_clouds);
    for i in 0..num_clouds {
        let rate = ISP_RATES[i % ISP_RATES.len()] * scale;
        let jitter = (1.0 + 0.05 * normal(rng, 0.0, 1.0)).clamp(0.8, 1.2);
        out.push(0.5 * rate * jitter);
        inn.push(0.5 * rate * jitter);
    }
    (out, inn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn base_prices_inverse_to_capacity() {
        let base = operation_base_prices(&[10.0, 20.0, 40.0], 1.0);
        assert!(base[0] > base[1] && base[1] > base[2]);
        let mean: f64 = base.iter().sum::<f64>() / 3.0;
        assert!((mean - 1.0).abs() < 1e-12);
        // Exact inverse proportionality.
        assert!((base[0] / base[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ar1_marginals_match_iid_statistics() {
        let mut rng = StdRng::seed_from_u64(21);
        let base = vec![2.0];
        let series = operation_price_series_ar1(&base, 60_000, 0.01, 0.95, &mut rng);
        let vals: Vec<f64> = series.iter().map(|r| r[0]).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        // Lag-1 autocorrelation near rho.
        let var: f64 =
            vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
        let cov: f64 = vals
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / (vals.len() - 1) as f64;
        let rho = cov / var;
        assert!((rho - 0.95).abs() < 0.05, "autocorrelation {rho}");
    }

    #[test]
    fn ar1_with_zero_rho_is_volatile() {
        let mut rng = StdRng::seed_from_u64(22);
        let series = operation_price_series_ar1(&[1.0], 1000, 0.05, 0.0, &mut rng);
        let mut changes = 0;
        for w in series.windows(2) {
            if (w[0][0] - w[1][0]).abs() > 0.1 {
                changes += 1;
            }
        }
        assert!(changes > 500, "independent redraws should jump often");
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn ar1_rejects_bad_rho() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = operation_price_series_ar1(&[1.0], 5, 1.5, 1.0, &mut rng);
    }

    #[test]
    fn reconfig_prices_positive() {
        let mut rng = StdRng::seed_from_u64(8);
        let prices = reconfig_prices(100, 1.0, 0.8, &mut rng);
        assert!(prices.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn bandwidth_clusters_follow_isp_ratios() {
        let mut rng = StdRng::seed_from_u64(9);
        let (out, inn) = bandwidth_prices(6, 1.0, &mut rng);
        // Clouds 0 and 3 share a cluster, as do 1/4 and 2/5.
        for i in 0..3 {
            let r1 = (out[i] + inn[i]) / ISP_RATES[i];
            let r2 = (out[i + 3] + inn[i + 3]) / ISP_RATES[i];
            assert!((r1 - 1.0).abs() < 0.25 && (r2 - 1.0).abs() < 0.25);
        }
        // Vodafone cluster (index 1) is the most expensive on average.
        assert!(out[1] > out[0] && out[1] > out[2]);
    }
}
