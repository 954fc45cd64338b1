//! Scoped parallel mapping with a process-global worker budget.
//!
//! The bench harness, the simulator, and the shard coordinator all want to
//! fan work across threads, and they nest: a sweep point runs a scenario
//! whose repetitions each run a solver, which may fan out its shards. Left
//! to size themselves independently, the layers multiply (`threads ×
//! repetitions × shards` OS threads) and oversubscribe the machine. This
//! module gives every layer the same primitive — a scoped, work-stealing,
//! panic-isolated map — plus a shared [`WorkerBudget`]: a process-global
//! pool of *spare* worker permits (`available_parallelism − 1`; the calling
//! thread is always free). Each parallel site grabs as many spare permits
//! as it can use, runs with `1 + granted` workers, and returns the permits
//! when done. An inner site that finds the pool drained simply runs inline
//! on its caller — no blocking, no deadlock, and the process never has more
//! runnable workers than cores.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Renders a panic payload into a readable message.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// A pool of spare worker permits shared by nested parallel sites.
///
/// The pool counts threads *in addition to* the calling thread, so a
/// freshly built budget for an `n`-core machine holds `n − 1` permits.
/// [`acquire`](Self::acquire) is non-blocking: it hands back whatever is
/// available (possibly zero) and the caller proceeds with that many extra
/// workers. Permits return to the pool when the [`Permits`] guard drops.
pub struct WorkerBudget {
    spare: AtomicUsize,
}

impl WorkerBudget {
    /// A budget holding `spare` permits.
    pub fn new(spare: usize) -> Self {
        Self {
            spare: AtomicUsize::new(spare),
        }
    }

    /// The process-global budget: `available_parallelism − 1` spare permits.
    pub fn global() -> &'static WorkerBudget {
        static GLOBAL: OnceLock<WorkerBudget> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, usize::from);
            WorkerBudget::new(cores.saturating_sub(1))
        })
    }

    /// Takes up to `want` permits without blocking; the guard returns them
    /// on drop. May grant fewer than asked — including zero.
    pub fn acquire(&self, want: usize) -> Permits<'_> {
        let mut cur = self.spare.load(Ordering::Relaxed);
        let mut granted = 0;
        while want.min(cur) > 0 {
            let take = want.min(cur);
            match self.spare.compare_exchange_weak(
                cur,
                cur - take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    granted = take;
                    break;
                }
                Err(seen) => cur = seen,
            }
        }
        Permits {
            budget: self,
            count: granted,
        }
    }

    /// Permits currently available (racy snapshot; for tests/telemetry).
    pub fn spare(&self) -> usize {
        self.spare.load(Ordering::Relaxed)
    }
}

/// Guard over permits taken from a [`WorkerBudget`]; returns them on drop.
pub struct Permits<'a> {
    budget: &'a WorkerBudget,
    count: usize,
}

impl Permits<'_> {
    /// How many permits were actually granted.
    pub fn count(&self) -> usize {
        self.count
    }
}

impl Drop for Permits<'_> {
    fn drop(&mut self) {
        if self.count > 0 {
            self.budget.spare.fetch_add(self.count, Ordering::Relaxed);
        }
    }
}

/// Maps `f` over `items` on up to `threads` scoped worker threads, pulling
/// work from a shared atomic queue (long items don't straggle behind a
/// static partition), and *isolates* each item: a panic inside `f` is
/// caught and returned as that item's `Err` while the other workers keep
/// draining the queue. Results come back in input order.
///
/// With `threads <= 1` (or a single item) the map runs inline on the
/// calling thread — with the same per-item isolation.
pub fn try_parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let run_one = |item: &T| {
        catch_unwind(AssertUnwindSafe(|| f(item)))
            .map_err(|payload| format!("panicked: {}", panic_message(payload)))
    };
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 {
        return items.iter().map(run_one).collect();
    }
    let next = AtomicUsize::new(0);
    let cells: Vec<Mutex<Option<Result<R, String>>>> =
        (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = run_one(&items[i]);
                *cells[i].lock().expect("result cell poisoned") = Some(r);
            });
        }
    });
    cells
        .into_iter()
        .map(|c| {
            c.into_inner()
                .expect("result cell poisoned")
                .expect("every index was claimed by a worker")
        })
        .collect()
}

/// [`try_parallel_map`] sized by a [`WorkerBudget`]: asks the budget for
/// `want − 1` spare permits (the calling thread is the first worker) and
/// runs with `1 + granted` workers, returning the permits when the map
/// completes. A drained budget degrades gracefully to an inline map, so
/// nested budgeted maps never oversubscribe the machine.
pub fn try_parallel_map_budgeted<T, R, F>(
    items: &[T],
    want: usize,
    budget: &WorkerBudget,
    f: F,
) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let want = want.clamp(1, items.len().max(1));
    let permits = if want > 1 {
        Some(budget.acquire(want - 1))
    } else {
        None
    };
    let workers = 1 + permits.as_ref().map_or(0, Permits::count);
    try_parallel_map(items, workers, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order_inline_and_threaded() {
        let items: Vec<usize> = (0..37).collect();
        for threads in [1, 4] {
            let got = try_parallel_map(&items, threads, |&x| x * x);
            let want: Vec<Result<usize, String>> = items.iter().map(|&x| Ok(x * x)).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn isolates_panics_per_item() {
        let items: Vec<usize> = (0..8).collect();
        let got = try_parallel_map(&items, 3, |&x| {
            assert!(x != 5, "boom at {x}");
            x + 1
        });
        for (i, r) in got.iter().enumerate() {
            if i == 5 {
                let e = r.as_ref().unwrap_err();
                assert!(e.contains("boom at 5"), "unexpected error: {e}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i + 1);
            }
        }
    }

    #[test]
    fn budget_grants_at_most_spare_and_returns_on_drop() {
        let budget = WorkerBudget::new(3);
        let a = budget.acquire(2);
        assert_eq!(a.count(), 2);
        assert_eq!(budget.spare(), 1);
        let b = budget.acquire(5);
        assert_eq!(b.count(), 1);
        let c = budget.acquire(1);
        assert_eq!(c.count(), 0);
        drop(b);
        drop(c);
        assert_eq!(budget.spare(), 1);
        drop(a);
        assert_eq!(budget.spare(), 3);
    }

    #[test]
    fn budgeted_map_runs_inline_when_drained() {
        let budget = WorkerBudget::new(0);
        let items: Vec<usize> = (0..5).collect();
        let got = try_parallel_map_budgeted(&items, 8, &budget, |&x| x + 10);
        let want: Vec<Result<usize, String>> = items.iter().map(|&x| Ok(x + 10)).collect();
        assert_eq!(got, want);
        assert_eq!(budget.spare(), 0);
    }

    #[test]
    fn budgeted_map_returns_permits_when_a_task_panics() {
        // The panic-path audit: a panicking item is caught per-item inside
        // the map, but even so the permits guard must release on *every*
        // exit path, or one bad shard/repetition would permanently shrink
        // the process-global pool for all later parallel sites.
        let budget = WorkerBudget::new(3);
        let items: Vec<usize> = (0..8).collect();
        let got = try_parallel_map_budgeted(&items, 4, &budget, |&x| {
            assert!(x != 3, "shard {x} exploded");
            x
        });
        assert!(got[3].as_ref().unwrap_err().contains("shard 3 exploded"));
        assert_eq!(got.iter().filter(|r| r.is_ok()).count(), 7);
        assert_eq!(budget.spare(), 3, "panicking task leaked permits");
    }

    #[test]
    fn permits_release_when_unwinding_past_the_guard() {
        // A panic that unwinds *through* a frame holding Permits (e.g. a
        // coordinator round dying between acquire and the map) still runs
        // the RAII drop under catch_unwind.
        let budget = WorkerBudget::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _permits = budget.acquire(2);
            assert_eq!(budget.spare(), 0);
            panic!("round failed while holding permits");
        }));
        assert!(result.is_err());
        assert_eq!(budget.spare(), 2, "unwind leaked permits");
    }

    #[test]
    fn repeated_panicking_maps_never_drain_the_pool() {
        // Regression shape for the repetition-isolation path: many
        // consecutive failing fan-outs must leave the pool whole each time.
        let budget = WorkerBudget::new(2);
        let items: Vec<usize> = (0..4).collect();
        for _ in 0..10 {
            let got = try_parallel_map_budgeted(&items, 3, &budget, |_| -> usize {
                panic!("every item fails");
            });
            assert!(got.iter().all(|r| r.is_err()));
            assert_eq!(budget.spare(), 2);
        }
    }

    #[test]
    fn nested_budgeted_maps_share_one_pool() {
        // Outer map takes the whole pool; inner maps see it drained and run
        // inline. After everything returns the pool is whole again.
        let budget = WorkerBudget::new(2);
        let items: Vec<usize> = (0..4).collect();
        let got = try_parallel_map_budgeted(&items, 4, &budget, |&x| {
            let inner: Vec<usize> = (0..3).map(|k| x * 10 + k).collect();
            let inner_got = try_parallel_map_budgeted(&inner, 3, &budget, |&y| y * 2);
            inner_got.into_iter().map(|r| r.unwrap()).sum::<usize>()
        });
        for (i, r) in got.iter().enumerate() {
            let expect: usize = (0..3).map(|k| (i * 10 + k) * 2).sum();
            assert_eq!(*r.as_ref().unwrap(), expect);
        }
        assert_eq!(budget.spare(), 2);
    }
}
