//! Figure 2 — empirical competitive ratios of the atomistic group
//! (perf-opt / oper-opt / stat-opt) and the holistic group (online-greedy /
//! online-approx), normalized by offline-opt, across six hourly test cases
//! (3pm–8pm, Feb 12 2014 in the paper; six independently seeded taxi-trace
//! cases here), with power-law workloads and 5 repetitions per case.
//!
//! Expected shape: atomistic ≫ holistic; online-approx ≈ 1.1 and up to
//! ~60% below online-greedy.

use bench::{checkpointed_map, maybe_write, Flags, SweepLabel};
use sim::metrics::Series;
use sim::report::{series_json, series_table};
use sim::scenario::{AlgorithmKind, MobilityKind, Scenario};

fn main() {
    let flags = Flags::from_env("users slots reps seed threads slot-deadline-ms resume json");
    let users = flags.usize("users", 30);
    let slots = flags.usize("slots", 24);
    let reps = flags.usize("reps", 3);
    let seed = flags.u64("seed", 2017);
    let threads = flags.threads();
    let deadline = flags.opt_f64("slot-deadline-ms");
    let resume = flags.resume();

    let roster = vec![
        AlgorithmKind::PerfOpt,
        AlgorithmKind::OperOpt,
        AlgorithmKind::StatOpt,
        AlgorithmKind::Greedy,
        AlgorithmKind::Approx { eps: 0.5 },
    ];
    let mut series: Vec<Series> = roster.iter().map(|k| Series::new(k.label())).collect();

    // Six hourly test cases: 3pm–8pm, fanned across worker threads.
    let cases: Vec<(usize, usize)> = (15..21).enumerate().collect();
    let label = SweepLabel::new("fig2")
        .kv("u", users)
        .kv("s", slots)
        .kv("r", reps)
        .kv("seed", seed)
        .deadline(deadline)
        .build();
    let outcomes = checkpointed_map(&label, &cases, threads, resume, |&(case, hour)| {
        let scenario = Scenario {
            name: format!("fig2-hour-{hour}"),
            mobility: MobilityKind::Taxi { num_users: users },
            num_slots: slots,
            algorithms: roster.clone(),
            repetitions: reps,
            seed: seed + 1000 * case as u64,
            slot_deadline_ms: deadline,
            ..Scenario::default()
        };
        eprintln!("running {} ...", scenario.name);
        sim::run_scenario(&scenario).expect("scenario")
    });
    for (&(_, hour), outcome) in cases.iter().zip(&outcomes) {
        for (s, alg) in series.iter_mut().zip(&outcome.algorithms) {
            s.push_from(hour as f64, &alg.ratios);
        }
    }

    println!("Figure 2 — empirical competitive ratio vs offline-opt (power workload)");
    println!("{}", series_table("hour", &series));
    let approx = series.last().expect("roster non-empty");
    let greedy = &series[3];
    let best_improvement = greedy
        .points
        .iter()
        .zip(&approx.points)
        .map(|(g, a)| sim::metrics::improvement(a.mean, g.mean))
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "online-approx mean ratio: {:.3} (paper: ≈1.1); max improvement over greedy: {:.0}% (paper: up to 60%)",
        approx.points.iter().map(|p| p.mean).sum::<f64>() / approx.points.len() as f64,
        100.0 * best_improvement
    );
    maybe_write(flags.str("json"), &series_json(&series));
}
