//! Cooperative wall-clock / iteration budgets for solver calls.
//!
//! The online pipeline must produce a decision inside each time slot, so a
//! solver that *hangs* (an ill-conditioned Schur system grinding through
//! Newton steps, an interior-point method stalling near the boundary) is as
//! fatal as one that fails. A [`SolveBudget`] gives every solve a deadline
//! and an iteration ceiling, checked **cooperatively** at the top of each
//! Newton / predictor-corrector iteration: when the budget runs out, the
//! solver returns [`crate::Error::DeadlineExceeded`] carrying the best
//! iterate it reached, so the caller can salvage a feasible-enough point
//! instead of getting nothing.
//!
//! An unlimited budget (the default) performs **no clock reads at all** —
//! the happy path pays nothing for the mechanism.

use std::time::{Duration, Instant};

/// A wall-clock deadline plus an iteration ceiling for one solve.
///
/// Both limits are optional; [`SolveBudget::unlimited`] (the `Default`)
/// disables the mechanism entirely. The budget is *cooperative*: solvers
/// poll [`SolveBudget::exhausted`] between iterations, so overruns are
/// bounded by the cost of a single iteration, not detected preemptively.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveBudget {
    /// Absolute wall-clock deadline, if any.
    pub deadline: Option<Instant>,
    /// Ceiling on iterations (Newton steps for the barrier,
    /// predictor-corrector iterations for the LP solver), if any.
    pub max_iters: Option<usize>,
}

impl SolveBudget {
    /// No limits: solvers never read the clock.
    pub fn unlimited() -> Self {
        SolveBudget::default()
    }

    /// A budget expiring `ms` milliseconds from now.
    pub fn from_millis(ms: f64) -> Self {
        SolveBudget {
            deadline: Some(Instant::now() + Duration::from_secs_f64((ms / 1e3).max(0.0))),
            max_iters: None,
        }
    }

    /// A budget with an absolute deadline.
    pub fn until(deadline: Instant) -> Self {
        SolveBudget {
            deadline: Some(deadline),
            max_iters: None,
        }
    }

    /// Adds an iteration ceiling to this budget.
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = Some(iters);
        self
    }

    /// Whether this budget imposes no limits (solvers then skip every
    /// clock read).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_iters.is_none()
    }

    /// Whether the budget is exhausted after `iters_done` iterations.
    /// Reads the clock only when a deadline is set.
    pub fn exhausted(&self, iters_done: usize) -> bool {
        if let Some(cap) = self.max_iters {
            if iters_done >= cap {
                return true;
            }
        }
        match self.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// Wall-clock time left, `None` when no deadline is set,
    /// `Some(Duration::ZERO)` when already past it.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// An equal slice of the remaining budget for one of `parts` upcoming
    /// phases: the returned budget's deadline is `remaining / parts` from
    /// now (never past the original deadline), and the iteration ceiling is
    /// carried through unchanged. With no deadline set, the slice is the
    /// budget itself. `parts` is clamped to at least 1.
    pub fn slice(&self, parts: usize) -> SolveBudget {
        let parts = parts.max(1) as u32;
        let deadline = self.deadline.map(|d| {
            let now = Instant::now();
            let left = d.saturating_duration_since(now);
            now + left / parts
        });
        SolveBudget {
            deadline,
            max_iters: self.max_iters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = SolveBudget::unlimited();
        assert!(b.is_unlimited());
        assert!(!b.exhausted(0));
        assert!(!b.exhausted(usize::MAX));
        assert!(b.remaining().is_none());
    }

    #[test]
    fn expired_deadline_exhausts_immediately() {
        let b = SolveBudget::until(Instant::now() - Duration::from_millis(5));
        assert!(b.exhausted(0));
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn iteration_ceiling_exhausts_without_clock() {
        let b = SolveBudget::unlimited().with_max_iters(10);
        assert!(!b.is_unlimited());
        assert!(!b.exhausted(9));
        assert!(b.exhausted(10));
    }

    #[test]
    fn slice_never_exceeds_the_original_deadline() {
        let b = SolveBudget::from_millis(100.0);
        for parts in [1, 2, 4, 100] {
            let s = b.slice(parts);
            assert!(
                s.deadline.unwrap() <= b.deadline.unwrap(),
                "slice({parts}) past the original deadline"
            );
        }
    }

    #[test]
    fn slice_of_expired_budget_is_expired() {
        let b = SolveBudget::until(Instant::now() - Duration::from_millis(1));
        assert!(b.slice(3).exhausted(0));
    }

    #[test]
    fn slice_of_unlimited_budget_is_unlimited() {
        assert!(SolveBudget::unlimited().slice(4).is_unlimited());
    }
}
