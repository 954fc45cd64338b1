//! Overload sweep: cost vs shed fraction under a flash crowd of increasing
//! intensity (not a paper figure — the paper never drives demand past
//! provisioned capacity; this measures the PR-8 sentinel + minimal-shedding
//! rung against the shedding-LP lower bound).
//!
//! ```text
//! fig_overload [--users N] [--slots N] [--surges-x10 10,15,20,25,30]
//!              [--seed N] [--threads N] [--resume PATH] [--json PATH]
//! ```
//!
//! Each sweep point builds one seeded flash-crowd scenario (random-walk
//! mobility reshaped toward one station, demand surged over the window —
//! see [`sim::HostilePlan`]), runs both `online-approx` (explicit
//! capacity) and `online-sharded` over it, and then *independently*
//! recomputes every overloaded slot's shedding plan to compare the shed
//! workload and penalty against the LP relaxation's lower bound. The
//! sweep's headline acceptance numbers: zero carry-forward slots at any
//! surge, and penalty within 1.1× of the LP bound at the acceptance point
//! (≥ 2× aggregate capacity). Mild surges shed so few users per slot that
//! the one-boundary-user rounding overhead dominates the ratio — still
//! within the guarantee, but above 1.1. `--json` writes the JSON report
//! (none without it).

use bench::{checkpointed_map, maybe_write, Flags, SweepLabel};
use edgealloc::algorithms::SlotInput;
use edgealloc::prelude::*;
use edgealloc::shed::{plan_shedding, ShedConfig};
use optim::budget::SolveBudget;
use serde::{Deserialize, Serialize};
use sim::scenario::{AlgorithmKind, MobilityKind, Scenario};
use sim::{HostileKind, HostilePlan};
use std::time::Instant;

/// One (surge, algorithm) cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct OverloadPoint {
    surge: f64,
    algorithm: String,
    users: usize,
    slots: usize,
    seed: u64,
    wall_clock_ms: f64,
    /// Total cost of the trajectory (edge-side; shed users are priced by
    /// the shed penalty, reported separately).
    cost: f64,
    /// Slots the sentinel classified Overloaded / Tight.
    overloaded_slots: usize,
    tight_slots: usize,
    /// Slot-records summed: users deferred, users sent to the overflow
    /// tier, and the total deferral penalty.
    shed_users: usize,
    overflowed_users: usize,
    shed_penalty: f64,
    /// Carry-forward slots (the acceptance gate requires 0: overload must
    /// be absorbed by shedding, never by aborting the slot).
    carry_forward_slots: usize,
    /// Independently recomputed per-slot shedding plans, summed over the
    /// overloaded slots: workload actually shed vs the minimum required,
    /// and greedy penalty vs the LP relaxation's lower bound.
    shed_workload: f64,
    required_shed: f64,
    penalty_lower_bound: f64,
    /// `shed_penalty / penalty_lower_bound` (1.0 = the greedy plan is
    /// LP-optimal; the acceptance bar is ≤ 1.1).
    penalty_ratio: f64,
}

fn flash_scenario(users: usize, slots: usize, surge: f64, seed: u64) -> Scenario {
    let window = slots / 2;
    Scenario {
        name: format!("overload-x{surge:.1}"),
        mobility: MobilityKind::RandomWalk { num_users: users },
        num_slots: slots,
        repetitions: 1,
        seed,
        hostile: HostilePlan {
            seed,
            events: vec![HostileKind::FlashCrowd {
                station: 0,
                start: slots / 4,
                duration: window,
                attraction: 0.8,
                surge,
            }],
        },
        ..Scenario::default()
    }
}

/// Recomputes the shedding plan of every overloaded slot (pure and
/// deterministic: same inputs, same plan the algorithms saw) and sums the
/// workload/penalty aggregates.
fn recompute_shed_bounds(inst: &Instance) -> (f64, f64, f64, f64) {
    let cfg = ShedConfig::default();
    let budget = SolveBudget::unlimited();
    let (mut shed_w, mut required, mut penalty, mut bound) = (0.0, 0.0, 0.0, 0.0);
    for t in 0..inst.num_slots() {
        let scaled = inst.scaled_slot(t);
        let input = match &scaled {
            Some(s) => s.as_input(inst, t),
            None => SlotInput::from_instance(inst, t),
        };
        let Ok(decision) = plan_shedding(&input, &cfg, &budget) else {
            continue;
        };
        if decision.is_empty() {
            continue;
        }
        shed_w += decision.shed_workload;
        required += decision.required_shed;
        penalty += decision.penalty;
        bound += decision.penalty_lower_bound;
    }
    (shed_w, required, penalty, bound)
}

fn run_point(users: usize, slots: usize, surge: f64, seed: u64) -> Vec<OverloadPoint> {
    let scenario = flash_scenario(users, slots, surge, seed);
    let inst = sim::runner::build_instance(&scenario, 0).expect("instance builds");
    let (shed_workload, required_shed, _greedy_penalty, penalty_lower_bound) =
        recompute_shed_bounds(&inst);
    let kinds = [
        ("online-approx", AlgorithmKind::ApproxExplicit { eps: 0.5 }),
        (
            "online-sharded",
            AlgorithmKind::Sharded {
                eps: 0.5,
                shards: 4,
            },
        ),
    ];
    kinds
        .iter()
        .map(|(label, kind)| {
            let mut alg = kind.build();
            let t0 = Instant::now();
            let traj = run_online(&inst, alg.as_mut()).expect("horizon");
            let wall_clock_ms = t0.elapsed().as_secs_f64() * 1e3;
            let cost = evaluate_trajectory(&inst, &traj.allocations).total();
            let summary = traj.health_summary();
            let penalty_ratio = if penalty_lower_bound > 0.0 {
                summary.shed_penalty / penalty_lower_bound
            } else {
                1.0
            };
            OverloadPoint {
                surge,
                algorithm: label.to_string(),
                users,
                slots,
                seed,
                wall_clock_ms,
                cost,
                overloaded_slots: summary.overloaded_slots,
                tight_slots: summary.tight_slots,
                shed_users: summary.shed_users,
                overflowed_users: summary.overflowed_users,
                shed_penalty: summary.shed_penalty,
                carry_forward_slots: summary.rungs.carry_forward,
                shed_workload,
                required_shed,
                penalty_lower_bound,
                penalty_ratio,
            }
        })
        .collect()
}

fn main() {
    let flags = Flags::from_env("users slots surges-x10 seed threads resume json");
    let users = flags.usize("users", 30);
    let slots = flags.usize("slots", 24);
    // Surge factors ×10 (integer flag plumbing): 10 = no surge baseline.
    let surges_x10 = flags.usize_list("surges-x10", &[10, 15, 20, 25, 30]);
    let seed = flags.u64("seed", 8);
    let threads = flags.threads();

    let label = SweepLabel::new("fig-overload")
        .kv("u", users)
        .kv("t", slots)
        .kv_debug("s", &surges_x10)
        .kv("seed", seed)
        .build();
    let results: Vec<Vec<OverloadPoint>> =
        checkpointed_map(&label, &surges_x10, threads, flags.resume(), |&sx10| {
            let surge = sx10 as f64 / 10.0;
            eprintln!("running surge x{surge:.1} ...");
            let pts = run_point(users, slots, surge, seed);
            for p in &pts {
                eprintln!(
                    "  x{surge:.1} {}: cost {:.1}, {} overloaded slots, {} shed users, \
                     penalty ratio {:.3}",
                    p.algorithm, p.cost, p.overloaded_slots, p.shed_users, p.penalty_ratio
                );
            }
            pts
        });
    let points: Vec<OverloadPoint> = results.into_iter().flatten().collect();

    println!(
        "{:>6} {:>16} {:>12} {:>10} {:>10} {:>12} {:>10} {:>8}",
        "surge", "algorithm", "cost", "overload", "shed", "penalty", "ratio", "cf"
    );
    for p in &points {
        println!(
            "{:>6.1} {:>16} {:>12.1} {:>10} {:>10} {:>12.1} {:>10.3} {:>8}",
            p.surge,
            p.algorithm,
            p.cost,
            p.overloaded_slots,
            p.shed_users,
            p.shed_penalty,
            p.penalty_ratio,
            p.carry_forward_slots
        );
    }

    #[derive(Serialize)]
    struct Report {
        what: String,
        machine: String,
        points: Vec<OverloadPoint>,
    }
    let report = Report {
        what: "Overload survival: cost vs shed fraction under a flash crowd of increasing \
               surge (x1.0 = benign baseline). online-approx (explicit capacity) and \
               online-sharded (4 shards) with the feasibility sentinel + minimal-shedding \
               rung; penalty_ratio compares the recorded shed penalty against the \
               shedding-LP relaxation's lower bound (acceptance bar <= 1.1 at >= 2x \
               aggregate capacity; mild surges shed so few users that the \
               one-boundary-user rounding overhead dominates the ratio), \
               carry_forward_slots must be 0. Command: fig_overload --users .. --slots .. \
               --surges-x10 .. --seed .."
            .to_string(),
        machine: bench::machine_tag(),
        points,
    };
    maybe_write(
        flags.str("json"),
        &serde_json::to_string_pretty(&report).expect("serialize report"),
    );
}
