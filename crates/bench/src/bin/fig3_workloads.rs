//! Figure 3 — empirical competitive ratios under uniformly and normally
//! distributed user workloads (same setup as Figure 2 otherwise).
//!
//! Expected shape: online-approx stays near-optimal (≈1.1, slightly better
//! under uniform workloads) with up to ~70% improvement over greedy.

use bench::{checkpointed_map, maybe_write, Flags, SweepLabel};
use mobility::workload::WorkloadDist;
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

    let mut all_json = String::new();
    for (dist_name, dist) in [
        ("uniform", WorkloadDist::default_uniform()),
        ("normal", WorkloadDist::default_normal()),
    ] {
        let mut series: Vec<Series> = roster.iter().map(|k| Series::new(k.label())).collect();
        let cases: Vec<(usize, usize)> = (15..21).enumerate().collect();
        // Each workload gets its own checkpoint file (suffix on the
        // --resume path) so the two sweeps never clobber one another.
        let label = SweepLabel::new(&format!("fig3-{dist_name}"))
            .kv("u", users)
            .kv("s", slots)
            .kv("r", reps)
            .kv("seed", seed)
            .deadline(deadline)
            .build();
        let ckpt = resume.map(|p| format!("{p}.{dist_name}"));
        let outcomes =
            checkpointed_map(&label, &cases, threads, ckpt.as_deref(), |&(case, hour)| {
                let scenario = Scenario {
                    name: format!("fig3-{dist_name}-hour-{hour}"),
                    mobility: MobilityKind::Taxi { num_users: users },
                    num_slots: slots,
                    workload: dist,
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
        println!("Figure 3 — competitive ratio, {dist_name} workloads");
        println!("{}", series_table("hour", &series));
        let approx = series.last().expect("roster non-empty");
        println!(
            "online-approx mean ratio ({dist_name}): {:.3}",
            approx.points.iter().map(|p| p.mean).sum::<f64>() / approx.points.len() as f64
        );
        all_json.push_str(&series_json(&series));
        all_json.push('\n');
    }
    maybe_write(flags.str("json"), &all_json);
}
