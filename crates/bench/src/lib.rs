//! Shared plumbing for the figure-reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one figure of the paper's
//! evaluation (see DESIGN.md's experiment index) or profiles a run. They
//! spell their flags alike; each names the ones it accepts
//! ([`Flags::from_env`]) and exits with status 2, naming the flag, on any
//! other:
//!
//! ```text
//! --users N              number of users (default per figure)
//! --slots N              number of time slots (default per figure)
//! --reps N               repetitions per point (default 5, as in the paper)
//! --seed N               base RNG seed
//! --threads N            sweep points solved concurrently (default: all cores)
//! --json PATH            also write the raw series as JSON
//! --resume PATH          crash-safe sweep checkpoint (created if absent,
//!                        completed points skipped if present)
//! --slot-deadline-ms MS  per-slot wall-clock budget for the online solves
//! --shards LIST          user-shard counts for the sharded solver
//!                        (comma-separated, e.g. 1,4,16)
//! --churn LIST           per-slot churn fractions for streaming sweeps
//!                        (comma-separated, e.g. 0.001,0.01,0.1)
//! ```
//!
//! Sweep points are independent scenarios (each seeds its own RNG), so the
//! figure binaries fan them out with [`parallel_map`]; results are
//! identical to a sequential sweep, point order included. With `--resume`
//! the fan-out goes through [`checkpointed_map`], which appends each
//! completed point to an fsync'd JSONL checkpoint (full-file atomic
//! rewrite: tmp file + rename), so a killed sweep restarts where it left
//! off and reproduces the uninterrupted output bit for bit. (Checkpointed
//! points always replay exactly; a point *re-run* under a wall-clock
//! deadline can differ, since where the deadline fires is
//! timing-dependent.)

use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// Parsed command-line flags (`--key value` pairs), each one the binary
/// accepts.
#[derive(Debug, Clone)]
pub struct Flags {
    values: HashMap<String, String>,
    /// The accepted flag names, separated by whitespace.
    accepted: &'static str,
}

impl Flags {
    /// Parses `std::env::args`, ignoring the binary name, against the
    /// flags the binary accepts (see [`Flags::from_args`]). Any other
    /// argument ends the process with exit status 2 and a message naming
    /// it, before the binary does any work.
    pub fn from_env(accepted: &'static str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_args(&args, accepted).unwrap_or_else(|err| {
            eprintln!("error: {err}");
            std::process::exit(2);
        })
    }

    /// Parses an explicit argument list against `accepted`, the names of
    /// the flags the binary accepts separated by whitespace (`"users json"`
    /// accepts `--users` and `--json`). A flag followed by another flag (or
    /// by nothing) is a bare switch and stores `"true"` — so `--template`
    /// and `--template true` are equivalent (see [`Flags::bool`]).
    ///
    /// # Errors
    ///
    /// Names the first argument that is not a flag `accepted` lists.
    pub fn from_args(args: &[String], accepted: &'static str) -> Result<Self, String> {
        let mut flags = Flags {
            values: HashMap::new(),
            accepted,
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--").filter(|key| flags.accepts(key)) else {
                let names: Vec<&str> = accepted.split_whitespace().collect();
                return Err(format!(
                    "unknown argument {arg}; accepted: --{}",
                    names.join(" --")
                ));
            };
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().cloned().expect("peeked"),
                _ => "true".to_string(),
            };
            flags.values.insert(key.to_string(), value);
        }
        Ok(flags)
    }

    fn accepts(&self, key: &str) -> bool {
        self.accepted.split_whitespace().any(|name| name == key)
    }

    /// The value given for `key`, if any.
    ///
    /// # Panics
    ///
    /// Panics if the binary reads a flag it does not accept, which no
    /// command line could give it.
    fn get(&self, key: &str) -> Option<&String> {
        assert!(
            self.accepts(key),
            "--{key} is read but not accepted ({})",
            self.accepted
        );
        self.values.get(key)
    }

    /// A `usize` flag with default.
    ///
    /// # Panics
    ///
    /// Panics if the value does not parse.
    pub fn usize(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer"))
            })
            .unwrap_or(default)
    }

    /// A `u64` flag with default.
    ///
    /// # Panics
    ///
    /// Panics if the value does not parse.
    pub fn u64(&self, key: &str, default: u64) -> u64 {
        self.get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer"))
            })
            .unwrap_or(default)
    }

    /// An `f64` flag with default.
    ///
    /// # Panics
    ///
    /// Panics if the value does not parse.
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.opt_f64(key).unwrap_or(default)
    }

    /// An optional `f64` flag (`None` when absent).
    ///
    /// # Panics
    ///
    /// Panics if the value does not parse.
    pub fn opt_f64(&self, key: &str) -> Option<f64> {
        self.get(key).map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{key} expects a number"))
        })
    }

    /// A boolean switch: `false` when absent, `true` when given bare
    /// (`--template`) or as `--template true`/`1`; `--template false`/`0`
    /// turns it back off.
    ///
    /// # Panics
    ///
    /// Panics if the value is not one of `true`/`false`/`1`/`0`.
    pub fn bool(&self, key: &str) -> bool {
        match self.get(key).map(String::as_str) {
            None => false,
            Some("true") | Some("1") => true,
            Some("false") | Some("0") => false,
            Some(_) => panic!("--{key} expects true or false"),
        }
    }

    /// A comma-separated `usize` list flag with default (e.g.
    /// `--shards 1,4,16`).
    ///
    /// # Panics
    ///
    /// Panics if any element does not parse or the list is empty.
    pub fn usize_list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        match self.get(key) {
            None => default.to_vec(),
            Some(v) => {
                let list: Vec<usize> = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| panic!("--{key} expects comma-separated integers"))
                    })
                    .collect();
                assert!(!list.is_empty(), "--{key} expects at least one value");
                list
            }
        }
    }

    /// A comma-separated `f64` list flag with default (e.g.
    /// `--churn 0.001,0.01,0.1`).
    ///
    /// # Panics
    ///
    /// Panics if any element does not parse or the list is empty.
    pub fn f64_list(&self, key: &str, default: &[f64]) -> Vec<f64> {
        match self.get(key) {
            None => default.to_vec(),
            Some(v) => {
                let list: Vec<f64> = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| panic!("--{key} expects comma-separated numbers"))
                    })
                    .collect();
                assert!(!list.is_empty(), "--{key} expects at least one value");
                list
            }
        }
    }

    /// An optional string flag.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).map(String::as_str)
    }

    /// The shared `--threads` flag (default: every available core).
    pub fn threads(&self) -> usize {
        self.usize("threads", default_threads())
    }

    /// The shared `--resume` checkpoint path.
    pub fn resume(&self) -> Option<&str> {
        self.str("resume")
    }

    /// The shared `--churn` axis: per-slot churn fractions for streaming
    /// sweeps.
    ///
    /// # Panics
    ///
    /// Panics if any element does not parse or the list is empty.
    pub fn churn(&self, default: &[f64]) -> Vec<f64> {
        self.f64_list("churn", default)
    }
}

/// Builds sweep/checkpoint labels the way every figure binary does:
/// `figure-key1value1-key2value2-...`. Keeping the construction in one
/// place keeps the labels collision-free (every parameter that shapes the
/// point list must be appended) and the style uniform across binaries.
#[derive(Debug, Clone)]
pub struct SweepLabel {
    out: String,
}

impl SweepLabel {
    /// Starts a label with the figure name.
    pub fn new(figure: &str) -> Self {
        SweepLabel {
            out: figure.to_string(),
        }
    }

    /// Appends `-{key}{value}` using `Display` formatting.
    #[must_use]
    pub fn kv(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        use std::fmt::Write;
        write!(self.out, "-{key}{value}").expect("write to String");
        self
    }

    /// Appends `-{key}{value:?}` using `Debug` formatting (lists).
    #[must_use]
    pub fn kv_debug(mut self, key: &str, value: impl std::fmt::Debug) -> Self {
        use std::fmt::Write;
        write!(self.out, "-{key}{value:?}").expect("write to String");
        self
    }

    /// Appends the per-slot deadline tag (see [`deadline_tag`]).
    #[must_use]
    pub fn deadline(self, ms: Option<f64>) -> Self {
        let tag = deadline_tag(ms);
        self.kv("dl", tag)
    }

    /// The finished label.
    pub fn build(self) -> String {
        self.out
    }
}

/// The repeated `machine` tag of the JSON reports, in one place so every
/// figure describes the hardware identically. A large pooled cohort slot
/// splits its passes over users across the workers it can lease from
/// [`optim::parallel::WorkerBudget::global`], which the sweep's own
/// fan-out shares, so one slot uses at most every core.
pub fn machine_tag() -> String {
    let cores = default_threads();
    format!("{cores}-core container, release build, up to {cores} workers per slot")
}

/// Number of worker threads to default a sweep to: every available core.
///
/// Oversubscription is prevented one layer down: the sweep's point fan-out
/// and [`sim::run_scenario`]'s repetition fan-out both lease workers from
/// the process-global [`optim::parallel::WorkerBudget`], so whichever layer
/// starts first claims the spare cores and the nested layers run inline —
/// the process never has more runnable workers than cores, no matter how
/// `threads × repetitions` multiplies out.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Maps `f` over `items` on scoped worker threads (at most `threads`,
/// further capped by the process-global [`optim::parallel::WorkerBudget`]
/// so nested fan-outs never oversubscribe cores), pulling work from a
/// shared atomic queue (long points don't straggle behind a static
/// partition), and *isolating* each point: a panic inside `f` is caught and
/// returned as that point's `Err` while the other workers keep draining the
/// queue. Results come back in input order.
///
/// With `threads <= 1` (or a single item) the map runs inline on the
/// calling thread — with the same per-point isolation.
pub fn try_parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    optim::parallel::try_parallel_map_budgeted(
        items,
        threads,
        optim::parallel::WorkerBudget::global(),
        f,
    )
}

/// [`try_parallel_map`] for sweeps where a failed point is fatal: the whole
/// sweep still drains (so the failure report covers every point), then the
/// first failure panics with its point index and message.
///
/// # Panics
///
/// Panics when any `f` invocation panicked.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    try_parallel_map(items, threads, f)
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|e| panic!("sweep point {i} failed: {e}")))
        .collect()
}

/// Writes `content` to `path` atomically: parent directories are created,
/// the bytes go to a sibling `.tmp` file which is fsync'd and then renamed
/// over `path`, so a crash at any moment leaves either the old file or the
/// new one — never a torn half-write. The parent directory is fsync'd
/// best-effort to persist the rename itself.
///
/// # Errors
///
/// Returns the underlying I/O error (create, write, sync, or rename).
pub fn write_atomic(path: &Path, content: &str) -> std::io::Result<()> {
    use std::io::Write;
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = parent {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut fh = std::fs::File::create(&tmp)?;
        fh.write_all(content.as_bytes())?;
        fh.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = parent {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Writes `content` to `path` if `path` is `Some`, atomically (see
/// [`write_atomic`]); logs the destination. On I/O failure the process
/// exits with a message naming the path — no panic backtrace, the sweep
/// data printed so far is still on stdout.
pub fn maybe_write(path: Option<&str>, content: &str) {
    if let Some(p) = path {
        if let Err(err) = write_atomic(Path::new(p), content) {
            eprintln!("error: failed to write {p}: {err}");
            std::process::exit(1);
        }
        eprintln!("wrote {p}");
    }
}

/// Stable tag for an optional per-slot deadline, used in sweep labels so a
/// checkpoint written with one deadline is not resumed under another.
pub fn deadline_tag(ms: Option<f64>) -> String {
    ms.map_or_else(|| "none".to_string(), |v| v.to_string())
}

/// First line of a sweep checkpoint: identifies the sweep and its size so a
/// resume against the wrong figure or the wrong parameters fails loudly
/// instead of splicing foreign points into the series.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct CheckpointHeader {
    /// Sweep label (figure name + the parameters that shape the point list).
    sweep: String,
    /// Number of sweep points.
    points: usize,
}

/// Parses checkpoint text: a header line, then one `[index, result]` record
/// line per completed point. Later records for the same index win. Empty
/// text is a fresh (zero-point) checkpoint.
fn parse_checkpoint<R>(text: &str, label: &str, points: usize) -> Result<Vec<Option<R>>, String>
where
    R: Deserialize,
{
    let mut done: Vec<Option<R>> = (0..points).map(|_| None).collect();
    let mut lines = text.lines().enumerate();
    let Some((_, header_line)) = lines.next() else {
        return Ok(done);
    };
    let header: CheckpointHeader =
        serde_json::from_str(header_line).map_err(|e| format!("line 1: bad header: {e}"))?;
    let expected = CheckpointHeader {
        sweep: label.to_string(),
        points,
    };
    if header != expected {
        return Err(format!(
            "written by sweep {:?} with {} points, but this run is {:?} with {} points \
             — delete it or pass a different --resume path",
            header.sweep, header.points, expected.sweep, expected.points
        ));
    }
    for (lineno, line) in lines {
        let (i, r): (usize, R) = serde_json::from_str(line)
            .map_err(|e| format!("line {}: bad record: {e}", lineno + 1))?;
        if i >= points {
            return Err(format!(
                "line {}: point index {i} out of range for {points} points",
                lineno + 1
            ));
        }
        done[i] = Some(r);
    }
    Ok(done)
}

/// Renders the checkpoint for the completed subset of `done`. Records are
/// emitted in index order, so the file a resumed sweep ends with is byte
/// for byte the file an uninterrupted sweep would have written.
fn render_checkpoint<R>(label: &str, done: &[Option<R>]) -> String
where
    R: Serialize,
{
    let header = CheckpointHeader {
        sweep: label.to_string(),
        points: done.len(),
    };
    let mut out = serde_json::to_string(&header).expect("serialize checkpoint header");
    out.push('\n');
    for (i, r) in done.iter().enumerate() {
        if let Some(r) = r {
            out.push_str(&serde_json::to_string(&(i, r)).expect("serialize checkpoint record"));
            out.push('\n');
        }
    }
    out
}

/// [`parallel_map`] with a crash-safe checkpoint. With `checkpoint = None`
/// this *is* [`parallel_map`]. With a path, completed points are loaded
/// from the checkpoint and skipped, pending points run through the
/// panic-isolated map, and after every completion the checkpoint is
/// rewritten atomically (see [`write_atomic`]) with all results so far —
/// kill the process at any moment and a rerun with the same flags resumes
/// where it left off and produces identical output.
///
/// `label` should encode the sweep identity (figure name plus the
/// parameters that shape the point list); a checkpoint written under a
/// different label or point count is rejected.
///
/// # Panics
///
/// Panics if any point failed (after the rest of the sweep drained —
/// completed points are already in the checkpoint, so the rerun only
/// retries the failures).
///
/// Exits the process on an unreadable, corrupt, or mismatched checkpoint,
/// or on checkpoint write failure.
pub fn checkpointed_map<T, R, F>(
    label: &str,
    items: &[T],
    threads: usize,
    checkpoint: Option<&str>,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send + Clone + Serialize + Deserialize,
    F: Fn(&T) -> R + Sync,
{
    let Some(path) = checkpoint else {
        return parallel_map(items, threads, f);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => {
            eprintln!("error: failed to read checkpoint {path}: {e}");
            std::process::exit(1);
        }
    };
    let done: Vec<Option<R>> = match parse_checkpoint(&text, label, items.len()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: checkpoint {path}: {e}");
            std::process::exit(1);
        }
    };
    let pending: Vec<usize> = (0..items.len()).filter(|&i| done[i].is_none()).collect();
    let completed = items.len() - pending.len();
    if completed > 0 {
        eprintln!(
            "resuming from {path}: {completed}/{} points already done",
            items.len()
        );
    }
    let state = Mutex::new(done);
    let results = try_parallel_map(&pending, threads, |&i| {
        let r = f(&items[i]);
        // Record + rewrite under one lock so a later write can never clobber
        // the file with a stale snapshot missing an earlier point.
        let mut slots = state.lock().expect("checkpoint state poisoned");
        slots[i] = Some(r.clone());
        let content = render_checkpoint(label, &slots);
        if let Err(err) = write_atomic(Path::new(path), &content) {
            eprintln!("error: failed to write checkpoint {path}: {err}");
            std::process::exit(1);
        }
        drop(slots);
        r
    });
    let failures: Vec<String> = pending
        .iter()
        .zip(results)
        .filter_map(|(&i, r)| r.err().map(|e| format!("point {i}: {e}")))
        .collect();
    assert!(
        failures.is_empty(),
        "{} sweep point(s) failed (completed points are checkpointed in {path}; \
         rerun with the same flags to retry only the failures):\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
    state
        .into_inner()
        .expect("checkpoint state poisoned")
        .into_iter()
        .map(|o| o.expect("every point completed or the map panicked"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    /// Parses `s` as a binary accepting every flag these tests read.
    fn flags(s: &[&str]) -> Flags {
        let accepted = "users slots json template shards resume churn threads";
        Flags::from_args(&args(s), accepted).expect("accepted flags")
    }

    #[test]
    fn parses_key_value_pairs() {
        let f = flags(&["--users", "40", "--json", "/tmp/x.json"]);
        assert_eq!(f.usize("users", 10), 40);
        assert_eq!(f.usize("slots", 30), 30);
        assert_eq!(f.str("json"), Some("/tmp/x.json"));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = parallel_map(&items, 8, |&v| 2 * v);
        assert_eq!(doubled, items.iter().map(|v| 2 * v).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_more_threads_than_items() {
        let items = vec![1, 2, 3];
        assert_eq!(parallel_map(&items, 64, |&v| v + 1), vec![2, 3, 4]);
    }

    #[test]
    fn parallel_map_single_thread_runs_inline() {
        let items = vec![5, 6];
        assert_eq!(parallel_map(&items, 1, |&v| v * v), vec![25, 36]);
        assert_eq!(parallel_map(&items, 0, |&v| v * v), vec![25, 36]);
    }

    #[test]
    fn parallel_map_empty_input() {
        let items: Vec<u8> = Vec::new();
        assert!(parallel_map(&items, 4, |&v| v).is_empty());
    }

    #[test]
    fn try_parallel_map_isolates_a_panicking_point() {
        let items: Vec<usize> = (0..16).collect();
        let results = try_parallel_map(&items, 4, |&v| {
            assert!(v != 5, "boom at five");
            v * 10
        });
        for (i, r) in results.iter().enumerate() {
            if i == 5 {
                let e = r.as_ref().unwrap_err();
                assert!(e.contains("boom at five"), "unexpected error: {e}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 10, "point {i} should still run");
            }
        }
    }

    #[test]
    fn write_atomic_creates_parents_and_leaves_no_tmp() {
        let dir = test_dir("write_atomic");
        let path = dir.join("nested").join("out.json");
        write_atomic(&path, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("out.json")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_round_trips_and_rejects_mismatches() {
        let done = vec![Some(1.5_f64), None, Some(2.5_f64)];
        let text = render_checkpoint("fig9-u4-s2", &done);
        let back: Vec<Option<f64>> = parse_checkpoint(&text, "fig9-u4-s2", 3).unwrap();
        assert_eq!(back, done);
        assert_eq!(render_checkpoint("fig9-u4-s2", &back), text);

        let wrong_label = parse_checkpoint::<f64>(&text, "fig9-u8-s2", 3).unwrap_err();
        assert!(wrong_label.contains("fig9-u4-s2"), "{wrong_label}");
        let wrong_points = parse_checkpoint::<f64>(&text, "fig9-u4-s2", 4).unwrap_err();
        assert!(wrong_points.contains("3 points"), "{wrong_points}");
        let corrupt = format!("{text}not json\n");
        let err = parse_checkpoint::<f64>(&corrupt, "fig9-u4-s2", 3).unwrap_err();
        assert!(err.contains("line 4"), "{err}");
        let empty: Vec<Option<f64>> = parse_checkpoint("", "fig9-u4-s2", 3).unwrap();
        assert_eq!(empty, vec![None, None, None]);
    }

    #[test]
    fn checkpointed_map_resumes_without_recomputing() {
        let dir = test_dir("checkpointed_map");
        let ckpt = dir.join("sweep.jsonl");
        let ckpt = ckpt.to_str().unwrap();
        let items: Vec<usize> = (0..6).collect();
        let calls = AtomicUsize::new(0);
        let f = |&v: &usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            (v * v) as f64
        };

        let first = checkpointed_map("unit-sweep", &items, 3, Some(ckpt), f);
        assert_eq!(first, vec![0.0, 1.0, 4.0, 9.0, 16.0, 25.0]);
        assert_eq!(calls.swap(0, Ordering::Relaxed), 6);
        let full = std::fs::read_to_string(ckpt).unwrap();
        assert_eq!(full.lines().count(), 7, "header + one record per point");

        // A finished checkpoint resumes with zero work.
        let second = checkpointed_map("unit-sweep", &items, 3, Some(ckpt), f);
        assert_eq!(second, first);
        assert_eq!(calls.load(Ordering::Relaxed), 0);

        // Drop the last two records (a mid-sweep kill) and resume: only the
        // missing points rerun, and the file comes back byte-identical.
        let truncated: String = full.lines().take(5).map(|l| format!("{l}\n")).collect();
        std::fs::write(ckpt, &truncated).unwrap();
        let third = checkpointed_map("unit-sweep", &items, 3, Some(ckpt), f);
        assert_eq!(third, first);
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(std::fs::read_to_string(ckpt).unwrap(), full);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn test_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bench-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn bare_switches_and_lists_parse() {
        let f = flags(&["--template", "--shards", "1,4,16", "--users", "40"]);
        assert!(f.bool("template"));
        assert!(!f.bool("resume"));
        assert_eq!(f.usize_list("shards", &[1]), vec![1, 4, 16]);
        assert_eq!(f.usize_list("slots", &[2, 3]), vec![2, 3]);
        assert_eq!(f.usize("users", 10), 40);
        // A trailing bare flag is a switch too.
        let tail = flags(&["--users", "7", "--template"]);
        assert!(tail.bool("template"));
        assert_eq!(tail.usize("users", 10), 7);
    }

    #[test]
    #[should_panic(expected = "expects true or false")]
    fn bad_bool_panics() {
        let f = flags(&["--template", "maybe"]);
        let _ = f.bool("template");
    }

    #[test]
    #[should_panic(expected = "comma-separated integers")]
    fn bad_list_panics() {
        let f = flags(&["--shards", "1,two"]);
        let _ = f.usize_list("shards", &[1]);
    }

    #[test]
    #[should_panic(expected = "expects an integer")]
    fn bad_integer_panics() {
        let f = flags(&["--users", "many"]);
        let _ = f.usize("users", 1);
    }

    #[test]
    fn shared_flag_helpers() {
        let f = flags(&["--churn", "0.001,0.01", "--resume", "/tmp/c"]);
        assert_eq!(f.churn(&[0.05]), vec![0.001, 0.01]);
        assert_eq!(f.resume(), Some("/tmp/c"));
        let g = flags(&["--json", "/tmp/out.json"]);
        assert_eq!(g.churn(&[0.05]), vec![0.05]);
        assert_eq!(g.threads(), default_threads());
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        let err = Flags::from_args(&args(&["--users", "5", "--kernel", "dense"]), "users slots")
            .unwrap_err();
        assert!(err.contains("--kernel"), "{err}");
        // A flag matches whole: `--user` is not `--users`.
        assert!(Flags::from_args(&args(&["--user", "5"]), "users").is_err());
        let err = Flags::from_args(&args(&["dense"]), "users").unwrap_err();
        assert!(err.contains("dense"), "{err}");
        let f = Flags::from_args(&args(&["--slots", "4"]), "users slots").unwrap();
        assert_eq!(f.usize("slots", 1), 4);
    }

    #[test]
    #[should_panic(expected = "--slots is read but not accepted")]
    fn reading_a_flag_the_binary_does_not_accept_panics() {
        let f = Flags::from_args(&[], "users").unwrap();
        let _ = f.usize("slots", 1);
    }

    #[test]
    fn sweep_labels_match_the_historical_format() {
        let label = SweepLabel::new("fig2")
            .kv("u", 24)
            .kv("s", 18)
            .kv("r", 3)
            .kv("seed", 2017)
            .deadline(None)
            .build();
        assert_eq!(label, "fig2-u24-s18-r3-seed2017-dlnone");
        let listy = SweepLabel::new("fig-overload")
            .kv("u", 40)
            .kv_debug("s", [10usize, 20])
            .deadline(Some(250.0))
            .build();
        assert_eq!(listy, "fig-overload-u40-s[10, 20]-dl250");
    }

    #[test]
    #[should_panic(expected = "comma-separated numbers")]
    fn bad_f64_list_panics() {
        let f = flags(&["--churn", "0.1,lots"]);
        let _ = f.f64_list("churn", &[0.5]);
    }
}
