//! Figure 5 — synthetic random-walk mobility with a growing number of
//! users: empirical competitive ratios of online-approx and online-greedy.
//!
//! Expected shape: online-approx stays flat around ≈1.1 regardless of the
//! number of users, while online-greedy reaches ratios up to ≈1.8.
//!
//! The paper sweeps 40→1000 users and so does the default grid here: with
//! the blocked nested-Schur kernel the per-slot solves are near-linear in
//! users, so the full sweep is laptop-sized (shrink with `--max-users 200`
//! for a quick pass).

use bench::{checkpointed_map, maybe_write, Flags, SweepLabel};
use sim::metrics::Series;
use sim::report::{series_json, series_table};
use sim::scenario::{AlgorithmKind, MobilityKind, Scenario};

fn main() {
    let flags = Flags::from_env("max-users slots reps seed threads slot-deadline-ms resume json");
    let slots = flags.usize("slots", 12);
    let reps = flags.usize("reps", 2);
    let seed = flags.u64("seed", 2017);
    let threads = flags.threads();
    let deadline = flags.opt_f64("slot-deadline-ms");
    let resume = flags.resume();
    let max_users = flags.usize("max-users", 1000);
    let grid: Vec<usize> = [40usize, 70, 100, 140, 200, 400, 700, 1000]
        .into_iter()
        .filter(|&u| u <= max_users)
        .collect();

    let roster = vec![AlgorithmKind::Greedy, AlgorithmKind::Approx { eps: 0.5 }];
    let mut series: Vec<Series> = roster.iter().map(|k| Series::new(k.label())).collect();
    // "fig5v2": the default sweep grew from 200 to the paper's full 1000
    // users. The checkpoint header pins the sweep label and point count, so
    // the version bump makes `--resume` reject pre-expansion checkpoints
    // loudly instead of silently grafting short-grid results onto the new
    // grid.
    let label = SweepLabel::new("fig5v2")
        .kv("maxu", max_users)
        .kv("s", slots)
        .kv("r", reps)
        .kv("seed", seed)
        .deadline(deadline)
        .build();
    let outcomes = checkpointed_map(&label, &grid, threads, resume, |&users| {
        let scenario = Scenario {
            name: format!("fig5-users-{users}"),
            mobility: MobilityKind::RandomWalk { num_users: users },
            num_slots: slots,
            algorithms: roster.clone(),
            repetitions: reps,
            seed,
            slot_deadline_ms: deadline,
            ..Scenario::default()
        };
        eprintln!("running {} ...", scenario.name);
        sim::run_scenario(&scenario).expect("scenario")
    });
    for (&users, outcome) in grid.iter().zip(&outcomes) {
        for (s, alg) in series.iter_mut().zip(&outcome.algorithms) {
            s.push_from(users as f64, &alg.ratios);
        }
    }
    println!("Figure 5 — competitive ratio vs number of users (random walk)");
    println!("{}", series_table("users", &series));
    let greedy = &series[0];
    let approx = &series[1];
    println!(
        "online-approx range [{:.3}, {:.3}] (paper: flat ≈1.1); greedy max {:.3} (paper: up to 1.8)",
        approx.min_mean(),
        approx.max_mean(),
        greedy.max_mean()
    );
    maybe_write(flags.str("json"), &series_json(&series));
}
