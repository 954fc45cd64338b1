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
//!
//! The same budget serves the one split inside a slot: a large pooled
//! cohort slot (`edgealloc`'s plan and exact projection) cuts its passes
//! over users into parts fixed by the caller and runs them with
//! [`Permits::run_parts`], part `k` on thread `k mod (1 + granted)`. Its
//! parts are not isolated: a panic reaches the caller as it would from
//! sequential code.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
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

    /// Runs `f(k, part)` for every part `k` of `parts` on the calling
    /// thread and the [`count`](Self::count) leased workers, and returns
    /// the results in part order. Part `k` runs on thread `k mod (1 +
    /// count)`, the calling thread being thread 0, so each part owns what
    /// it is handed (say, disjoint `&mut` pieces of one buffer) and the
    /// split is fixed by the caller, not by scheduling.
    ///
    /// A panic reaches the caller as sequential code would raise it: with
    /// no leased worker the parts run in order and the first panic unwinds
    /// at once; otherwise every thread stops at its first panicking part,
    /// and once all have joined, the panic of the lowest-numbered part is
    /// resumed with its own payload. Permits are held by the guard, so they
    /// return to the budget on that unwind too.
    pub fn run_parts<T, R, F>(&self, parts: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let threads = (1 + self.count).min(parts.len());
        if threads <= 1 {
            return parts
                .into_iter()
                .enumerate()
                .map(|(k, p)| f(k, p))
                .collect();
        }
        let num_parts = parts.len();
        let mut shares: Vec<Vec<(usize, T)>> = (0..threads).map(|_| Vec::new()).collect();
        for (k, part) in parts.into_iter().enumerate() {
            shares[k % threads].push((k, part));
        }
        let run = |share: Vec<(usize, T)>| {
            let mut done = Vec::with_capacity(share.len());
            for (k, part) in share {
                let result = catch_unwind(AssertUnwindSafe(|| f(k, part)));
                let failed = result.is_err();
                done.push((k, result));
                if failed {
                    break;
                }
            }
            done
        };
        let mut results: Vec<Option<std::thread::Result<R>>> =
            (0..num_parts).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut shares = shares.into_iter();
            let own = shares.next().expect("the calling thread has a share");
            let run = &run;
            let workers: Vec<_> = shares
                .map(|share| scope.spawn(move || run(share)))
                .collect();
            let mut done = run(own);
            for worker in workers {
                done.extend(worker.join().expect("parts catch their own panics"));
            }
            for (k, result) in done {
                results[k] = Some(result);
            }
        });
        // A thread skips only the parts after its own panicking part, so
        // walking in part order meets that panic before any skipped part.
        results
            .into_iter()
            .map(
                |result| match result.expect("a skipped part follows a panic") {
                    Ok(r) => r,
                    Err(payload) => resume_unwind(payload),
                },
            )
            .collect()
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
    fn parts_come_back_in_part_order() {
        let budget = WorkerBudget::new(2);
        let permits = budget.acquire(2);
        assert_eq!(permits.count(), 2);
        let mut data: Vec<usize> = (0..23).collect();
        // Uneven, owned `&mut` pieces, one of them empty.
        let (a, rest) = data.split_at_mut(9);
        let (b, rest) = rest.split_at_mut(0);
        let (c, d) = rest.split_at_mut(4);
        let got = permits.run_parts(vec![a, b, c, d], |k, piece| {
            for v in piece.iter_mut() {
                *v *= 10;
            }
            (k, piece.len(), std::thread::current().id())
        });
        let lens: Vec<(usize, usize)> = got.iter().map(|&(k, n, _)| (k, n)).collect();
        assert_eq!(lens, vec![(0, 9), (1, 0), (2, 4), (3, 10)]);
        // Part k runs on thread k mod 3, the caller being thread 0.
        assert_eq!(got[0].2, std::thread::current().id());
        assert_eq!(got[3].2, std::thread::current().id());
        assert_ne!(got[1].2, got[0].2);
        assert_eq!(data, (0..23).map(|v| v * 10).collect::<Vec<_>>());
        drop(permits);
        assert_eq!(budget.spare(), 2);
    }

    #[test]
    fn parts_run_inline_in_order_when_drained() {
        let budget = WorkerBudget::new(0);
        let permits = budget.acquire(3);
        assert_eq!(permits.count(), 0);
        let order = Mutex::new(Vec::new());
        let got = permits.run_parts(vec![5, 6, 7], |k, v| {
            order.lock().unwrap().push(k);
            (v, std::thread::current().id())
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
        for (k, &(v, id)) in got.iter().enumerate() {
            assert_eq!(v, 5 + k);
            assert_eq!(id, std::thread::current().id(), "part {k} left the caller");
        }
    }

    #[test]
    fn permits_return_after_a_part_panics() {
        let budget = WorkerBudget::new(2);
        for _ in 0..5 {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let permits = budget.acquire(2);
                assert_eq!(budget.spare(), 0);
                permits.run_parts(vec![0usize, 1, 2, 3], |k, _| {
                    assert!(k != 2, "part {k} exploded");
                    k
                })
            }));
            assert!(result.is_err());
            assert_eq!(budget.spare(), 2, "a panicking part leaked permits");
        }
    }

    #[test]
    fn the_first_parts_panic_reaches_the_caller() {
        for spare in [0, 1, 2] {
            let budget = WorkerBudget::new(spare);
            let ran = Mutex::new(Vec::new());
            let payload = catch_unwind(AssertUnwindSafe(|| {
                budget.acquire(spare).run_parts(vec![(); 5], |k, ()| {
                    ran.lock().unwrap().push(k);
                    if k == 1 || k == 3 {
                        panic!("part {k} failed");
                    }
                })
            }))
            .expect_err("the panic must reach the caller");
            assert_eq!(panic_message(payload), "part 1 failed", "spare {spare}");
            if spare == 0 {
                // Inline, as sequential code: nothing after part 1 runs.
                assert_eq!(*ran.lock().unwrap(), vec![0, 1]);
            }
            assert_eq!(budget.spare(), spare);
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
