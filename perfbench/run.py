#!/usr/bin/env python3
"""Runs one workload of the allocator benchmark and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the `perfbench` package
(release, offline) into $CARGO_TARGET_DIR (default `.bench_build`), runs
it under a wall-clock cap, checks every slot it reports and prints, as its
last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the `end_to_end` metrics of BENCHMARK.json, `--trace 1`
the `per_layer` ones. `attempted` counts slots; `failed` counts slots that
were infeasible beyond round-off, were decided by a rung that abandons the
regularized solve (PerSlotLp, DeadlineSalvage, CarryForward), or never
finished before the cap. A fuller report — stamps, units, directions and
sample counts, and for traced runs the span file and a per-layer self-time
summary — is written to perfbench/out/.
"""

import argparse
import hashlib
import json
import math
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Wall-clock cap on the measuring process. A run that hangs ends here and
# every slot it did not finish counts as failed.
CAP_S = 150.0
# Solver configuration the binary uses (stamped into every report).
SOLVER_THREADS = 1


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    return args


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else ROOT / t


def build():
    """Builds the benchmark binary from source; exits on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    return target_dir() / "release" / "perfbench"


def vm_hwm_mb(pid):
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return None


def run_child(binary, args, spans):
    """Runs the binary, collecting its JSON lines until it exits or the cap
    expires; returns (records, timed_out, returncode, peak_rss_mb_if_killed)."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = queue.Queue()

    def pump():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    deadline = time.monotonic() + CAP_S
    records, timed_out, killed_peak = [], False, None
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            timed_out = True
            break
        try:
            line = lines.get(timeout=left)
        except queue.Empty:
            continue
        if line is None:
            break
        try:
            records.append(json.loads(line))
        except ValueError:
            print(f"perfbench: unparsable line {line!r}", file=sys.stderr)
    if timed_out:
        killed_peak = vm_hwm_mb(proc.pid)
        proc.kill()
    proc.wait()
    reader.join()
    return records, timed_out, proc.returncode, killed_peak


def pct(values, q):
    """Percentile `q` (0–100), linear between closest ranks."""
    v = sorted(values)
    if not v:
        return None
    k = (len(v) - 1) * q / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def layer(slots, name):
    return [v for s in slots for (k, v) in s["layers"] if k == name]


def end_to_end(run):
    """name -> (value, samples) over the untraced slots."""
    slots, setups = run["untraced"], run["setups"]
    ms = [s["scaled_ms"] for s in slots]
    wall = [s["ms"] for s in slots]
    users = sum(s["users"] for s in slots)
    return {
        "setup_s": (statistics.median(s["scaled_setup_s"] for s in setups), len(setups)),
        "slot_ms_p50": (pct(ms, 50), len(ms)),
        "slot_ms_p90": (pct(ms, 90), len(ms)),
        "user_slots_per_s": (users / (sum(ms) / 1e3) if ms else None, len(ms)),
        "cost_total": (run["cost_total"], 1),
        "ok_slot_frac": (1.0 - run["failed"] / run["attempted"], run["attempted"]),
        "peak_rss_mb": (run["peak_rss_mb"], 1),
        # Unscaled wall-clock figures, for the report only.
        "wall_setup_s": (statistics.median(s["setup_s"] for s in setups), len(setups)),
        "wall_slot_ms_p50": (pct(wall, 50), len(wall)),
        "wall_slot_ms_p90": (pct(wall, 90), len(wall)),
        "wall_user_slots_per_s": (users / (sum(wall) / 1e3) if wall else None, len(wall)),
        "calibration_ms_p50": (pct([s["cal_ms"] for s in slots], 50), len(slots)),
    }


def per_layer(run, batch):
    """name -> (value, samples) over the traced pass; 0 with 0 samples
    where the workload never enters the layer."""
    slots, setups = run["traced"], run["setups"]
    out = {}

    def put(name, values, reduce=lambda v: pct(v, 50)):
        values = [v for v in values if v is not None]
        out[name] = (reduce(values) if values else 0.0, len(values))

    def ratio(name, num, den, samples):
        out[name] = (num / den if den else 0.0, samples)

    put("mobility.generate_s", [s["generate_s"] for s in setups])
    put("instance.synthetic_s", [s["build_s"] for s in setups] if batch else [])
    put("stream.state_build_s", [] if batch else [s["build_s"] for s in setups])
    put("instance.slot_view_ms_p50", [s["view_ms"] for s in slots] if batch else [])
    put("sanitize.ms_p50", layer(slots, "sanitize.sanitize_slot"))
    put("sentinel.ms_p50", layer(slots, "sentinel.assess"))
    put("sentinel.overloaded_slots", layer(slots, "sentinel.overloaded"), sum)
    put("shed.plan_ms_p50", layer(slots, "shed.plan_shedding"))
    put("shed.users", [s["health"]["shed_users"] for s in slots], sum)
    penalties = layer(slots, "shed.penalty")
    ratio("shed.penalty_ratio", sum(penalties),
          sum(layer(slots, "shed.penalty_lower_bound")), len(penalties))
    put("cohort.plan_ms_p50", layer(slots, "cohort.build"))
    put("cohort.scatter_ms_p50", layer(slots, "cohort.scatter"))
    cohort = [s["health"] for s in slots if s["health"]["cohorts"] > 0]
    put("cohort.count_p50", [h["cohorts"] for h in cohort])
    put("cohort.compression_min", [h["compression_ratio"] for h in cohort], min)
    # Slots whose decision ran at least one barrier solve.
    solved = [s["health"] for s in slots if s["health"]["rung_ms"]]
    put("newton.solve_ms_p50", [sum(h["rung_ms"]) for h in solved])
    put("newton.steps_p50", [h["newton_steps"] for h in solved])
    put("newton.step_ms_p50", [h["newton_step_ms"] for h in solved])
    put("newton.outer_p50", [h["outer_iterations"] for h in solved])
    attempts = sum(h["attempts"] for h in solved)
    ratio("newton.accept_ratio", sum(1 for h in solved if h["schur_kernel"] is not None),
          attempts, attempts)
    put("decide.outside_newton_ms_p50", [h["wall_time_ms"] - sum(h["rung_ms"]) for h in solved])
    put("exact.project_ms_p50", layer(slots, "exact.project_exact"))
    put("repair.ms_p50", layer(slots, "repair.repair_capacity"))
    put("stream.apply_ms_p50", layer(slots, "stream.apply"))
    # Slot 0 carries the initial mass arrival, not churn.
    put("stream.events_per_slot",
        [v for s in slots if s["t"] > 0 for (k, v) in s["layers"] if k == "stream.events"],
        statistics.fmean)
    put("stream.incremental_ms_p50",
        [] if batch else [s["ms"] for s in slots if s["health"]["incremental"]])
    put("stream.full_ms_p50",
        [] if batch else [s["ms"] for s in slots if not s["health"]["incremental"]])
    eligible = sum(layer(slots, "stream.eligible"))
    ratio("stream.incremental_ratio", sum(1 for s in slots if s["health"]["incremental"]),
          eligible, int(eligible))
    put("check.inexact_slots", [int(not s["exactly_feasible"]) for s in run["all"]], sum)
    traced_p50 = pct([s["ms"] for s in slots], 50)
    untraced_p50 = pct([s["ms"] for s in run["untraced"]], 50)
    out["trace.overhead_ms"] = (
        traced_p50 - untraced_p50 if None not in (traced_p50, untraced_p50) else 0.0,
        len(slots))
    return out


def self_times(spans_path):
    """Per span name: calls, total and self milliseconds (self = duration
    minus the part covered by child spans), and the median self time."""
    spans = []
    with open(spans_path) as f:
        for line in f:
            s = json.loads(line)
            if s["end_us"] is not None:
                spans.append(s)
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end_us"] - s["start_us"]
    by_name = defaultdict(list)
    for s in spans:
        d = (s["end_us"] - s["start_us"]) / 1e3
        by_name[s["name"]].append((d, d - covered[s["id"]] / 1e3))
    return {
        name: {
            "calls": len(v),
            "total_ms": sum(d for d, _ in v),
            "self_ms": sum(x for _, x in v),
            "self_ms_p50": pct([x for _, x in v], 50),
        }
        for name, v in sorted(by_name.items())
    }


def slot_breakdown(slots):
    """Median split of a traced slot: where the decision time goes."""
    rows = {
        "slot_ms": [s["ms"] for s in slots],
        "slot_view_ms": [s["view_ms"] for s in slots],
        "decide_wall_ms": [s["health"]["wall_time_ms"] for s in slots],
        "newton_ms": [sum(s["health"]["rung_ms"]) for s in slots],
        "outside_newton_ms": [s["health"]["wall_time_ms"] - sum(s["health"]["rung_ms"])
                              for s in slots],
    }
    for name in ("sanitize.sanitize_slot", "sentinel.assess", "shed.plan_shedding",
                 "cohort.build", "cohort.scatter", "exact.project_exact",
                 "repair.repair_capacity", "stream.apply"):
        rows[name + "_ms"] = layer(slots, name)
    return {k: pct(v, 50) for k, v in rows.items() if v}


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    files = []
    for r in (ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "crates", ROOT / "vendor", BENCH):
        if r.is_file():
            files.append(r)
        elif r.is_dir():
            for dirpath, dirnames, filenames in os.walk(r):
                dirnames[:] = [d for d in dirnames if d not in ("target", "out")]
                files += [Path(dirpath) / n for n in filenames]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamps(args):
    rev = command_output(["git", "rev-parse", "HEAD"])
    return {
        "command": " ".join(["python3", "perfbench/run.py"] + sys.argv[1:]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "-V"]),
        "profile": "release",
        "solver_threads": SOLVER_THREADS,
        "rev": rev if rev else "source-sha256:" + source_digest(),
    }


def collect(records, timed_out, returncode, killed_peak):
    """Folds the binary's lines into one run summary."""
    plan = next((r for r in records if r["kind"] == "plan"), None)
    if plan is None:
        fail("the run ended before its first slot"
             + (" (time cap)" if timed_out else f" (exit code {returncode})"))
    slots = [r for r in records if r["kind"] == "slot"]
    passes = [r for r in records if r["kind"] == "pass"]
    end = next((r for r in records if r["kind"] == "end"), None)
    unfinished = 0
    if end is None:
        # Cut short: the pass after the last finished one was in progress.
        current = max((p["pass"] for p in passes), default=-1) + 1
        seen = Counter(s["pass"] for s in slots)
        unfinished = max(plan["slots_per_pass"] - seen[current], 1)
    costs = [p["cost"] for p in passes]
    problems = []
    if any(not s["feasible"] for s in slots):
        problems.append("a slot is infeasible beyond round-off")
    if len(set(costs)) > 1:
        problems.append(f"passes disagree on the cost: {sorted(set(costs))}")
    if not all(math.isfinite(c) for c in costs + [s["cost"] for s in slots]):
        problems.append("a non-finite cost")
    if returncode != 0 and not timed_out:
        problems.append(f"the binary exited with code {returncode}")
    return {
        "setups": [r for r in records if r["kind"] == "setup"],
        "all": slots,
        "untraced": [s for s in slots if not s["traced"]],
        "traced": [s for s in slots if s["traced"]],
        "attempted": len(slots) + unfinished,
        "failed": sum(1 for s in slots if s["failed"]) + unfinished,
        "unfinished": unfinished,
        "cost_total": costs[0] if costs else sum(s["cost"] for s in slots if s["pass"] == 0),
        "peak_rss_mb": end["peak_rss_mb"] if end else killed_peak,
        "problems": problems,
        "timed_out": timed_out,
    }


def main():
    args = parse_args()
    spec = load_spec()
    binary = build()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    spans = OUT / f"{stem}.spans.jsonl" if args.trace else None
    run = collect(*run_child(binary, args, spans))
    batch = args.workload != "stream-100k"

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer(run, batch) if args.trace else end_to_end(run)
    metrics, report_metrics = {}, {}
    for m in wanted:
        value, samples = values[m["name"]]
        if value is None or not math.isfinite(value):
            run["problems"].append(f"metric {m['name']} has no value")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        report_metrics[m["name"]] = {"value": value, "unit": m["unit"],
                                     "better": m["better"], "samples": samples}

    report = {
        "stamps": stamps(args),
        "correct": not run["problems"],
        "problems": run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "unfinished": run["unfinished"],
        "timed_out": run["timed_out"],
        "metrics": report_metrics,
        "values": {k: v for k, (v, _) in values.items()},
    }
    if args.trace:
        report["slot_breakdown_p50"] = slot_breakdown(run["traced"])
        report["spans"] = str(spans.relative_to(ROOT))
        if spans.exists():
            report["self_time"] = self_times(spans)
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")

    for name, m in report_metrics.items():
        print(f"{args.workload:>12} {name:<32} {m['value']:>16.6g} {m['unit']:<6} "
              f"({m['better']}, n={m['samples']})", file=sys.stderr)
    for p in run["problems"]:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
