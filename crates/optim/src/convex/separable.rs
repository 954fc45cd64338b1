//! Separable convex objectives with group (aggregate) terms.
//!
//! The split matters to the Newton solver: per-variable terms contribute
//! only to the diagonal `D` of the Newton matrix `D + Uᵀ E U`, while each
//! group term contributes one *coupling row* to `U` (its indicator row)
//! and one curvature entry to `E`. In ℙ₂ the group rows are wide (one per
//! cloud, spanning all of that cloud's variables) and therefore always
//! land in the coupling block of the blocked nested-Schur kernel — only
//! the thin, pairwise-disjoint constraint rows of `A` are eliminated in
//! closed form (see `convex::schur` and DESIGN.md §12).

/// A smooth convex scalar term, evaluated on `x > -eps` (all variants are
/// well-defined for `x ≥ 0`, which the barrier solver maintains).
///
/// The regularized program ℙ₂ of the paper uses exactly [`ScalarTerm::Linear`]
/// and [`ScalarTerm::RelativeEntropy`]; [`ScalarTerm::Quadratic`] exists for
/// testing the solver against closed-form QP solutions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalarTerm {
    /// `coef · x`
    Linear {
        /// The linear coefficient.
        coef: f64,
    },
    /// `(q/2) · x²` with `q ≥ 0`.
    Quadratic {
        /// The curvature `q`.
        q: f64,
    },
    /// `w · ( (x+ε) ln((x+ε)/(x_ref+ε)) − x )` — the paper's regularizer,
    /// a relative-entropy distance to the previous slot's solution `x_ref`.
    RelativeEntropy {
        /// The weight `w` (`c_i/η_i` or `b_i/τ_{i,j}` in the paper).
        weight: f64,
        /// The smoothing parameter `ε > 0`.
        eps: f64,
        /// The reference point (previous slot's allocation), `≥ 0`.
        xref: f64,
    },
}

impl ScalarTerm {
    /// Function value at `x`.
    pub fn value(&self, x: f64) -> f64 {
        match *self {
            ScalarTerm::Linear { coef } => coef * x,
            ScalarTerm::Quadratic { q } => 0.5 * q * x * x,
            ScalarTerm::RelativeEntropy { weight, eps, xref } => {
                weight * ((x + eps) * ((x + eps) / (xref + eps)).ln() - x)
            }
        }
    }

    /// First derivative at `x`.
    pub fn deriv(&self, x: f64) -> f64 {
        match *self {
            ScalarTerm::Linear { coef } => coef,
            ScalarTerm::Quadratic { q } => q * x,
            ScalarTerm::RelativeEntropy { weight, eps, xref } => {
                weight * ((x + eps) / (xref + eps)).ln()
            }
        }
    }

    /// Second derivative at `x`.
    pub fn deriv2(&self, x: f64) -> f64 {
        match *self {
            ScalarTerm::Linear { .. } => 0.0,
            ScalarTerm::Quadratic { q } => q,
            ScalarTerm::RelativeEntropy { weight, eps, .. } => weight / (x + eps),
        }
    }

    /// `(value, deriv, deriv2)` at `x`, each bit for bit the method of
    /// that name, with the relative entropy's logarithm taken once.
    fn value_and_derivs(&self, x: f64) -> (f64, f64, f64) {
        match *self {
            ScalarTerm::RelativeEntropy { weight, eps, xref } => {
                let ln = ((x + eps) / (xref + eps)).ln();
                (
                    weight * ((x + eps) * ln - x),
                    weight * ln,
                    weight / (x + eps),
                )
            }
            _ => (self.value(x), self.deriv(x), self.deriv2(x)),
        }
    }
}

/// A convex term applied to the **sum** of a set of variables:
/// `φ(Σ_{k ∈ members} x_k)`.
///
/// ℙ₂'s reconfiguration regularizer is a [`ScalarTerm::RelativeEntropy`] on
/// the per-cloud aggregate `x_{i,t} = Σ_j x_{i,j,t}`.
#[derive(Debug, Clone)]
pub struct GroupTerm {
    /// Variable indices whose sum the term is applied to.
    pub members: Vec<usize>,
    /// The scalar function φ.
    pub term: ScalarTerm,
}

/// Objective `Σ_k Σ_t f_{k,t}(x_k) + Σ_g φ_g(Σ_{k∈g} x_k)`: a sum of scalar
/// terms per variable plus group terms on aggregates.
///
/// # Example
///
/// ```
/// use optim::convex::{ScalarTerm, SeparableObjective};
///
/// let mut f = SeparableObjective::new(2);
/// f.add_term(0, ScalarTerm::Linear { coef: 3.0 });
/// f.add_term(1, ScalarTerm::Quadratic { q: 2.0 });
/// assert_eq!(f.value(&[1.0, 2.0]), 3.0 + 4.0);
/// ```
#[derive(Debug, Clone)]
pub struct SeparableObjective {
    n: usize,
    terms: Vec<Vec<ScalarTerm>>,
    groups: Vec<GroupTerm>,
}

impl SeparableObjective {
    /// An objective over `n` variables with no terms (identically zero).
    pub fn new(n: usize) -> Self {
        SeparableObjective {
            n,
            terms: vec![Vec::new(); n],
            groups: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// The group terms.
    pub fn groups(&self) -> &[GroupTerm] {
        &self.groups
    }

    /// Adds a scalar term on variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= n`.
    pub fn add_term(&mut self, var: usize, term: ScalarTerm) {
        assert!(var < self.n, "variable {var} out of range");
        self.terms[var].push(term);
    }

    /// Adds a group term `φ(Σ_{k∈members} x_k)`.
    ///
    /// # Panics
    ///
    /// Panics if any member index is out of range.
    pub fn add_group(&mut self, members: Vec<usize>, term: ScalarTerm) {
        assert!(
            members.iter().all(|&k| k < self.n),
            "group member out of range"
        );
        self.groups.push(GroupTerm { members, term });
    }

    /// Removes every term and group and sets the variable count to `n`,
    /// keeping the per-variable term lists' capacity (the first `n`'s when
    /// `n` shrinks): a persistent solve workspace resets its objective and
    /// adds the next program's terms.
    pub fn reset(&mut self, n: usize) {
        self.terms.truncate(n);
        for ts in &mut self.terms {
            ts.clear();
        }
        self.terms.resize_with(n, Vec::new);
        self.groups.clear();
        self.n = n;
    }

    /// Objective value at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        let mut v = 0.0;
        for (k, ts) in self.terms.iter().enumerate() {
            for t in ts {
                v += t.value(x[k]);
            }
        }
        for g in &self.groups {
            let s: f64 = g.members.iter().map(|&k| x[k]).sum();
            v += g.term.value(s);
        }
        v
    }

    /// Gradient at `x`, written into `grad`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn gradient_into(&self, x: &[f64], grad: &mut [f64]) {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        assert_eq!(grad.len(), self.n, "dimension mismatch");
        grad.fill(0.0);
        for (k, ts) in self.terms.iter().enumerate() {
            for t in ts {
                grad[k] += t.deriv(x[k]);
            }
        }
        for g in &self.groups {
            let s: f64 = g.members.iter().map(|&k| x[k]).sum();
            let d = g.term.deriv(s);
            for &k in &g.members {
                grad[k] += d;
            }
        }
    }

    /// Gradient at `x` as a new vector.
    pub fn gradient(&self, x: &[f64]) -> Vec<f64> {
        let mut g = vec![0.0; self.n];
        self.gradient_into(x, &mut g);
        g
    }

    /// Diagonal (separable) part of the Hessian at `x`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn hessian_diag_into(&self, x: &[f64], diag: &mut [f64]) {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        diag.fill(0.0);
        for (k, ts) in self.terms.iter().enumerate() {
            for t in ts {
                diag[k] += t.deriv2(x[k]);
            }
        }
    }

    /// Curvatures `φ''_g(Σ x)` of the group terms at `x`.
    pub fn group_curvatures(&self, x: &[f64]) -> Vec<f64> {
        let mut h = vec![0.0; self.groups.len()];
        self.group_curvatures_into(x, &mut h);
        h
    }

    /// Curvatures `φ''_g(Σ x)` of the group terms at `x`, written into `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h.len()` does not match the number of groups.
    pub fn group_curvatures_into(&self, x: &[f64], h: &mut [f64]) {
        assert_eq!(h.len(), self.groups.len(), "dimension mismatch");
        for (hg, g) in h.iter_mut().zip(&self.groups) {
            let s: f64 = g.members.iter().map(|&k| x[k]).sum();
            *hg = g.term.deriv2(s);
        }
    }

    /// [`SeparableObjective::value`] at `x`, returned, with
    /// [`SeparableObjective::gradient_into`],
    /// [`SeparableObjective::hessian_diag_into`] and
    /// [`SeparableObjective::group_curvatures_into`] written into `grad`,
    /// `diag` and `h`, in one pass: each term's logarithm and each group's
    /// member sum are computed once. Every sum runs in the order those
    /// methods use, so every output is bit for bit theirs.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn evaluate_into(
        &self,
        x: &[f64],
        grad: &mut [f64],
        diag: &mut [f64],
        h: &mut [f64],
    ) -> f64 {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        assert_eq!(grad.len(), self.n, "dimension mismatch");
        assert_eq!(diag.len(), self.n, "dimension mismatch");
        assert_eq!(h.len(), self.groups.len(), "dimension mismatch");
        let mut v = 0.0;
        for (k, ts) in self.terms.iter().enumerate() {
            let (mut gk, mut dk) = (0.0, 0.0);
            for t in ts {
                let (value, deriv, deriv2) = t.value_and_derivs(x[k]);
                v += value;
                gk += deriv;
                dk += deriv2;
            }
            grad[k] = gk;
            diag[k] = dk;
        }
        for (hg, g) in h.iter_mut().zip(&self.groups) {
            let s: f64 = g.members.iter().map(|&k| x[k]).sum();
            let (value, deriv, deriv2) = g.term.value_and_derivs(s);
            v += value;
            for &k in &g.members {
                grad[k] += deriv;
            }
            *hg = deriv2;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_term_matches_finite_differences() {
        let t = ScalarTerm::RelativeEntropy {
            weight: 2.5,
            eps: 0.3,
            xref: 1.7,
        };
        let h = 1e-5;
        let h2 = 1e-4; // larger step for the second difference (cancellation)
        for &x in &[0.0, 0.5, 1.7, 10.0] {
            let fd1 = (t.value(x + h) - t.value(x - h)) / (2.0 * h);
            assert!((fd1 - t.deriv(x)).abs() < 1e-5, "deriv at {x}");
            let fd2 = (t.value(x + h2) - 2.0 * t.value(x) + t.value(x - h2)) / (h2 * h2);
            assert!(
                (fd2 - t.deriv2(x)).abs() < 1e-3,
                "deriv2 at {x}: {fd2} vs {}",
                t.deriv2(x)
            );
        }
    }

    #[test]
    fn entropy_is_zero_at_reference() {
        // At x = xref the bregman-style term equals w·(xref+eps)·0 − w·xref.
        let t = ScalarTerm::RelativeEntropy {
            weight: 1.0,
            eps: 0.5,
            xref: 2.0,
        };
        assert!((t.value(2.0) - (-2.0)).abs() < 1e-12);
        assert_eq!(t.deriv(2.0), 0.0);
    }

    #[test]
    fn group_gradient_uses_chain_rule() {
        let mut f = SeparableObjective::new(3);
        f.add_group(
            vec![0, 2],
            ScalarTerm::Quadratic { q: 2.0 }, // φ(s) = s², φ' = 2s
        );
        let x = [1.0, 5.0, 2.0];
        let g = f.gradient(&x);
        // s = 3, φ'(3) = 6, applied to members 0 and 2 only.
        assert_eq!(g, vec![6.0, 0.0, 6.0]);
    }

    #[test]
    fn value_accumulates_multiple_terms() {
        let mut f = SeparableObjective::new(1);
        f.add_term(0, ScalarTerm::Linear { coef: 1.0 });
        f.add_term(0, ScalarTerm::Linear { coef: 2.0 });
        assert_eq!(f.value(&[3.0]), 9.0);
    }

    #[test]
    fn group_curvatures_at_point() {
        let mut f = SeparableObjective::new(2);
        f.add_group(vec![0, 1], ScalarTerm::Quadratic { q: 4.0 });
        assert_eq!(f.group_curvatures(&[1.0, 1.0]), vec![4.0]);
    }

    #[test]
    fn one_pass_evaluation_matches_the_separate_passes_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for seed in 0..64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1usize..40);
            // A reference at 0 half the time; points at 0, far above the
            // reference, or near it.
            let xref: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        0.0
                    } else {
                        rng.gen_range(0.0..5.0)
                    }
                })
                .collect();
            let x: Vec<f64> = (0..n)
                .map(|k| match rng.gen_range(0u32..3) {
                    0 => 0.0,
                    1 => xref[k] * 1e6 + rng.gen_range(1e3..1e6),
                    _ => rng.gen_range(0.0..5.0),
                })
                .collect();
            let term = |rng: &mut rand::rngs::StdRng, xref: f64| match rng.gen_range(0u32..3) {
                0 => ScalarTerm::Linear {
                    coef: rng.gen_range(-3.0..3.0),
                },
                1 => ScalarTerm::Quadratic {
                    q: rng.gen_range(0.0..4.0),
                },
                _ => ScalarTerm::RelativeEntropy {
                    weight: rng.gen_range(0.1..3.0),
                    eps: rng.gen_range(0.01..1.0),
                    xref,
                },
            };
            let mut f = SeparableObjective::new(n);
            // Variable k carries k % 3 terms: 0, 1 or 2.
            for k in 0..n {
                for _ in 0..k % 3 {
                    let t = term(&mut rng, xref[k]);
                    f.add_term(k, t);
                }
            }
            // A one-member group and groups of many members.
            f.add_group(vec![rng.gen_range(0..n)], term(&mut rng, 0.0));
            for _ in 0..rng.gen_range(0usize..4) {
                let members = (0..n).filter(|_| rng.gen_bool(0.6)).collect();
                let agg = rng.gen_range(0.0..10.0);
                f.add_group(members, term(&mut rng, agg));
            }

            let g = f.groups().len();
            let (mut grad, mut diag, mut h) =
                (vec![f64::NAN; n], vec![f64::NAN; n], vec![f64::NAN; g]);
            let value = f.evaluate_into(&x, &mut grad, &mut diag, &mut h);
            let (mut grad_ref, mut diag_ref, mut h_ref) =
                (vec![0.0; n], vec![0.0; n], vec![0.0; g]);
            f.gradient_into(&x, &mut grad_ref);
            f.hessian_diag_into(&x, &mut diag_ref);
            f.group_curvatures_into(&x, &mut h_ref);
            assert_eq!(value.to_bits(), f.value(&x).to_bits(), "value, seed {seed}");
            assert_eq!(bits(&grad), bits(&grad_ref), "gradient, seed {seed}");
            assert_eq!(
                bits(&diag),
                bits(&diag_ref),
                "Hessian diagonal, seed {seed}"
            );
            assert_eq!(bits(&h), bits(&h_ref), "group curvatures, seed {seed}");
        }
    }
}
