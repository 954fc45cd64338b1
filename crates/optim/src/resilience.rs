//! Retries for solver breakdowns.
//!
//! The online pipeline must produce a decision every slot, so a solver
//! giving up on [`Error::MaxIterations`] or [`Error::Numerical`] is not an
//! acceptable terminal state there. A retry re-solves with escalating
//! relaxations — looser tolerances, larger iteration budgets, stronger
//! regularization — for up to [`MAX_ATTEMPTS`] attempts.
//! [`solve_lp_with_retry`] drives the LP solver through them, finishing on
//! the dense simplex, and reports what happened in a structured
//! [`SolveReport`]; the barrier's retry loop is the `edgealloc` crate's
//! degradation ladder, built on [`relaxed_barrier_options`].
//!
//! Proven-structural failures ([`Error::Infeasible`], [`Error::Unbounded`],
//! [`Error::Dimension`], [`Error::InvalidInput`]) are *not* retried: no
//! amount of relaxation fixes those, and the caller's degradation ladder
//! (see the `edgealloc` crate) must take over instead.
//!
//! # Budgets
//!
//! When the caller's options carry a
//! [`SolveBudget`](crate::budget::SolveBudget) deadline, the retry driver
//! *splits* it: attempt `k` of a chain with `K` attempts left runs under
//! `remaining / K` of the wall-clock budget, so the first attempt can never
//! eat the whole slot and every relaxation level still gets a shot.
//! An attempt cut off by its slice does not abort the chain while overall
//! time remains; when the whole budget is gone the driver returns
//! [`Error::DeadlineExceeded`] carrying the best salvage point any attempt
//! reached. A budget that is already exhausted on entry returns immediately
//! with **zero** attempts made.

use crate::convex::BarrierOptions;
use crate::lp::{IpmOptions, LpProblem, LpSolution};
use crate::{Error, Result, Salvage};
use std::time::Instant;

/// Relaxation levels a retried solve runs through, the primary options
/// (level 0) included: levels `0..MAX_ATTEMPTS`.
pub const MAX_ATTEMPTS: usize = 4;
/// Factor applied to convergence tolerances per relaxation level.
const TOL_RELAX: f64 = 100.0;
/// Factor applied to iteration limits per relaxation level.
const ITER_GROWTH: f64 = 2.0;
/// Factor applied to the interior-point regularization per level.
const REG_GROWTH: f64 = 100.0;

/// What a retried solve did, whether it succeeded or not.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SolveReport {
    /// Solve attempts made (1 = the primary options sufficed).
    pub attempts: usize,
    /// Relaxation level of the attempt that produced the returned result
    /// (0 = primary options; for LPs the simplex rung counts one past the
    /// last interior-point level).
    pub fallback_level: usize,
    /// Residual reported by the last attempt: the certified duality gap on
    /// success, the error's residual on iteration-limit failures, NaN when
    /// no residual applies.
    pub final_residual: f64,
    /// Total wall time across all attempts, in milliseconds.
    pub wall_time_ms: f64,
    /// Whether a solution was returned.
    pub converged: bool,
    /// Description of the final error when `converged` is false.
    pub error: Option<String>,
}

impl SolveReport {
    fn start() -> Self {
        SolveReport {
            attempts: 0,
            fallback_level: 0,
            final_residual: f64::NAN,
            wall_time_ms: 0.0,
            converged: false,
            error: None,
        }
    }

    /// Whether the solve needed any relaxation at all.
    pub fn degraded(&self) -> bool {
        self.fallback_level > 0 || !self.converged
    }
}

/// Whether relaxing options could plausibly fix this failure. Structural
/// verdicts (infeasible, unbounded, malformed input) are final; iteration
/// limits, numerical breakdowns, and rejected starting points are worth
/// another attempt with different options. [`Error::DeadlineExceeded`] is
/// *not* retryable — time, not numerics, ran out, and retrying with relaxed
/// options cannot manufacture more of it (the budget-splitting driver in
/// this module handles slice expiry itself). Callers building their own
/// degradation ladders (see the `edgealloc` crate) use this to decide
/// whether to keep escalating or to jump straight to the next rung.
pub fn retryable(err: &Error) -> bool {
    matches!(
        err,
        Error::MaxIterations { .. } | Error::Numerical(_) | Error::BadStartingPoint(_)
    )
}

fn residual_of(err: &Error) -> f64 {
    match err {
        Error::MaxIterations { residual, .. } => *residual,
        Error::DeadlineExceeded { best, .. } => best.as_ref().map_or(f64::NAN, |s| s.residual),
        _ => f64::NAN,
    }
}

/// Keeps whichever salvage point certifies the smaller residual (an
/// incumbent with a NaN residual always loses).
fn better_salvage(
    incumbent: Option<Box<Salvage>>,
    candidate: Option<Box<Salvage>>,
) -> Option<Box<Salvage>> {
    match (incumbent, candidate) {
        (Some(a), Some(b)) => {
            if a.residual <= b.residual {
                Some(a)
            } else {
                Some(b)
            }
        }
        (a, None) => a,
        (None, b) => b,
    }
}

/// The barrier options at relaxation level `k`: a looser tolerance and a
/// larger iteration limit.
pub fn relaxed_barrier_options(base: &BarrierOptions, k: usize) -> BarrierOptions {
    let relax = TOL_RELAX.powi(k as i32);
    let growth = ITER_GROWTH.powi(k as i32);
    BarrierOptions {
        tol: (base.tol * relax).min(1e-2),
        max_iterations: ((base.max_iterations as f64) * growth).ceil() as usize,
        budget: base.budget,
    }
}

/// The interior-point options at relaxation level `k`: looser tolerance,
/// more iterations, stronger regularization, shorter steps.
pub fn relaxed_ipm_options(base: &IpmOptions, k: usize) -> IpmOptions {
    let ki = k as i32;
    IpmOptions {
        tol: (base.tol * TOL_RELAX.powi(ki)).min(1e-3),
        max_iters: ((base.max_iters as f64) * ITER_GROWTH.powi(ki)).ceil() as usize,
        reg: base.reg * REG_GROWTH.powi(ki),
        step_scale: (base.step_scale * 0.99f64.powi(ki)).max(0.9),
        use_ordering: base.use_ordering,
        budget: base.budget,
    }
}

/// Solves an LP with retries.
///
/// [`MAX_ATTEMPTS`] interior-point attempts escalate through
/// [`relaxed_ipm_options`]; if all of them fail, the dense simplex runs as
/// a final exact rung (counted one level past the last interior-point
/// attempt).
///
/// # Errors
///
/// Returns the last attempt's error when every rung fails, or immediately
/// on non-retryable failures. The [`SolveReport`] describes the outcome
/// either way.
pub fn solve_lp_with_retry(lp: &LpProblem, opts: &IpmOptions) -> (Result<LpSolution>, SolveReport) {
    let clock = Instant::now();
    let mut report = SolveReport::start();
    if opts.budget.exhausted(0) {
        let err = Error::DeadlineExceeded {
            iterations: 0,
            best: None,
        };
        report.error = Some(err.to_string());
        report.wall_time_ms = clock.elapsed().as_secs_f64() * 1e3;
        return (Err(err), report);
    }
    let mut last_err = Error::Numerical("no attempts made".into());
    let mut salvage: Option<Box<Salvage>> = None;
    let mut deadline_iters = 0;
    for k in 0..MAX_ATTEMPTS {
        if k > 0 && opts.budget.exhausted(0) {
            last_err = Error::DeadlineExceeded {
                iterations: deadline_iters,
                best: salvage.take(),
            };
            break;
        }
        report.attempts = k + 1;
        report.fallback_level = k;
        let mut level_opts = relaxed_ipm_options(opts, k);
        level_opts.budget = opts.budget.slice(MAX_ATTEMPTS - k);
        match lp.solve_with(&level_opts) {
            Ok(sol) => {
                report.converged = true;
                report.final_residual = lp.max_violation(&sol.x);
                report.wall_time_ms = clock.elapsed().as_secs_f64() * 1e3;
                return (Ok(sol), report);
            }
            Err(Error::DeadlineExceeded { iterations, best }) => {
                deadline_iters += iterations;
                salvage = better_salvage(salvage, best);
                report.final_residual = salvage.as_ref().map_or(f64::NAN, |s| s.residual);
                last_err = Error::DeadlineExceeded {
                    iterations: deadline_iters,
                    best: salvage.clone(),
                };
            }
            Err(err) => {
                report.final_residual = residual_of(&err);
                let fatal = !retryable(&err);
                last_err = err;
                if fatal {
                    break;
                }
            }
        }
    }
    // The simplex rung cannot be cancelled mid-pivot, so it only runs when
    // no deadline pressure exists: never after a DeadlineExceeded (not
    // `retryable`), and never once the overall budget is spent.
    if retryable(&last_err) && !opts.budget.exhausted(0) {
        report.attempts += 1;
        report.fallback_level = MAX_ATTEMPTS;
        match lp.solve_simplex() {
            Ok(sol) => {
                report.converged = true;
                report.final_residual = lp.max_violation(&sol.x);
                report.wall_time_ms = clock.elapsed().as_secs_f64() * 1e3;
                return (Ok(sol), report);
            }
            Err(err) => last_err = err,
        }
    }
    if opts.budget.exhausted(0) && !matches!(last_err, Error::DeadlineExceeded { .. }) {
        last_err = Error::DeadlineExceeded {
            iterations: deadline_iters,
            best: salvage.take(),
        };
    }
    report.error = Some(last_err.to_string());
    report.wall_time_ms = clock.elapsed().as_secs_f64() * 1e3;
    (Err(last_err), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::SolveBudget;
    use crate::lp::ConstraintSense;

    fn toy_lp() -> LpProblem {
        // min x + 2y s.t. x + y ≥ 3, y ≤ 2 → optimum 3 at (3, 0).
        let mut lp = LpProblem::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(2.0);
        lp.add_row(ConstraintSense::Ge, 3.0, &[(x, 1.0), (y, 1.0)]);
        lp.add_row(ConstraintSense::Le, 2.0, &[(y, 1.0)]);
        lp
    }

    #[test]
    fn healthy_lp_solves_on_first_attempt() {
        let (result, report) = solve_lp_with_retry(&toy_lp(), &IpmOptions::default());
        let sol = result.unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-6);
        assert_eq!(report.attempts, 1);
        assert_eq!(report.fallback_level, 0);
        assert!(report.converged);
        assert!(!report.degraded());
        assert!(report.final_residual < 1e-6);
        assert!(report.error.is_none());
    }

    #[test]
    fn crippled_lp_recovers_through_escalation() {
        let opts = IpmOptions {
            max_iters: 1,
            ..IpmOptions::default()
        };
        let (result, report) = solve_lp_with_retry(&toy_lp(), &opts);
        let sol = result.unwrap();
        // Degraded rungs trade accuracy for survival: the relaxed tolerance
        // caps at 1e-3 relative, so only percent-level accuracy is promised.
        assert!((sol.objective - 3.0).abs() < 1e-2, "obj {}", sol.objective);
        assert!(report.converged);
        assert!(report.fallback_level > 0, "report {report:?}");
        assert!(report.degraded());
    }

    #[test]
    fn relaxation_schedules_escalate_monotonically() {
        let base_b = BarrierOptions::default();
        let base_i = IpmOptions::default();
        for k in 1..MAX_ATTEMPTS {
            let b = relaxed_barrier_options(&base_b, k);
            let prev = relaxed_barrier_options(&base_b, k - 1);
            assert!(b.tol >= prev.tol);
            assert!(b.max_iterations >= prev.max_iterations);
            let i = relaxed_ipm_options(&base_i, k);
            let prev_i = relaxed_ipm_options(&base_i, k - 1);
            assert!(i.tol >= prev_i.tol);
            assert!(i.max_iters >= prev_i.max_iters);
            assert!(i.reg >= prev_i.reg);
            assert!(i.step_scale <= prev_i.step_scale);
        }
    }

    #[test]
    fn expired_budget_returns_immediately_without_attempting() {
        use std::time::{Duration, Instant};
        let dead = SolveBudget::until(Instant::now() - Duration::from_millis(1));
        let lp_opts = IpmOptions {
            budget: dead,
            ..IpmOptions::default()
        };
        let (result, report) = solve_lp_with_retry(&toy_lp(), &lp_opts);
        assert!(matches!(
            result,
            Err(Error::DeadlineExceeded {
                iterations: 0,
                best: None
            })
        ));
        assert_eq!(report.attempts, 0, "no solve may run on an expired budget");
        assert!(!report.converged);
    }

    #[test]
    fn relaxation_levels_never_exceed_the_remaining_budget() {
        use std::time::Instant;
        // Each level's slice deadline must sit at or before the overall
        // deadline, for every level in the chain.
        let overall = SolveBudget::from_millis(200.0);
        let base = BarrierOptions {
            budget: overall,
            ..BarrierOptions::default()
        };
        for k in 0..MAX_ATTEMPTS {
            let mut level = relaxed_barrier_options(&base, k);
            level.budget = base.budget.slice(MAX_ATTEMPTS - k);
            let level_deadline = level.budget.deadline.expect("slice keeps a deadline");
            assert!(
                level_deadline <= overall.deadline.unwrap(),
                "level {k} slice extends past the overall deadline"
            );
            assert!(level_deadline >= Instant::now() - std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn deadline_skips_the_simplex_rung() {
        // One-iteration budget: every IPM rung dies on its ceiling. The
        // simplex rung cannot be cancelled, so it must not run, and the
        // final error must be DeadlineExceeded rather than MaxIterations.
        // The whole chain fails, and the report says so.
        let opts = IpmOptions {
            budget: SolveBudget::from_millis(60_000.0).with_max_iters(1),
            ..IpmOptions::default()
        };
        let (result, report) = solve_lp_with_retry(&toy_lp(), &opts);
        assert!(matches!(result, Err(Error::DeadlineExceeded { .. })));
        assert_eq!(
            report.attempts, MAX_ATTEMPTS,
            "simplex rung must not run under deadline pressure"
        );
        assert!(!report.converged);
        assert!(report.error.is_some());
    }

    #[test]
    fn report_round_trips_through_serde() {
        let report = SolveReport {
            attempts: 3,
            fallback_level: 2,
            final_residual: 1e-5,
            wall_time_ms: 12.5,
            converged: true,
            error: None,
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: SolveReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.attempts, 3);
        assert_eq!(back.fallback_level, 2);
        assert!(back.converged);
    }
}
