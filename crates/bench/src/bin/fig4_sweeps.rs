//! Figure 4 — the impact of the regularization parameter `ε` (with
//! `ε₁ = ε₂ = ε`) and of the dynamic/static weight ratio `μ` on the
//! empirical competitive ratio, both swept over `10⁻³ … 10³`.
//!
//! Expected shape: the ε curve dips slightly and then rises to a stable
//! level; the μ curve is ≈1 for small μ (static cost negligible → per-slot
//! optimization is optimal) and stabilizes at a reasonably good ratio for
//! large μ.

use bench::{checkpointed_map, maybe_write, Flags, SweepLabel};
use sim::metrics::Series;
use sim::report::{series_json, series_table};
use sim::scenario::{AlgorithmKind, MobilityKind, Scenario};

fn main() {
    let flags = Flags::from_env("users slots reps seed threads slot-deadline-ms resume json");
    let users = flags.usize("users", 24);
    let slots = flags.usize("slots", 18);
    let reps = flags.usize("reps", 3);
    let seed = flags.u64("seed", 2017);
    let threads = flags.threads();
    let deadline = flags.opt_f64("slot-deadline-ms");
    let resume = flags.resume();
    let grid: Vec<f64> = (-3..=3).map(|e| 10f64.powi(e)).collect();
    let tag = |prefix: &str| {
        SweepLabel::new(prefix)
            .kv("u", users)
            .kv("s", slots)
            .kv("r", reps)
            .kv("seed", seed)
            .deadline(deadline)
            .build()
    };

    // ---- ε sweep ----  (its own checkpoint file: `<resume>.eps`)
    let mut eps_series = Series::new("online-approx");
    let eps_ckpt = resume.map(|p| format!("{p}.eps"));
    let eps_label = tag("fig4-eps");
    let eps_outcomes = checkpointed_map(&eps_label, &grid, threads, eps_ckpt.as_deref(), |&eps| {
        let scenario = Scenario {
            name: format!("fig4-eps-{eps}"),
            mobility: MobilityKind::Taxi { num_users: users },
            num_slots: slots,
            algorithms: vec![AlgorithmKind::Approx { eps }],
            repetitions: reps,
            seed,
            slot_deadline_ms: deadline,
            ..Scenario::default()
        };
        eprintln!("running {} ...", scenario.name);
        sim::run_scenario(&scenario).expect("scenario")
    });
    for (&eps, outcome) in grid.iter().zip(&eps_outcomes) {
        eps_series.push_from(eps, &outcome.algorithms[0].ratios);
    }
    println!("Figure 4 (left) — competitive ratio vs ε (= ε₁ = ε₂)");
    println!("{}", series_table("epsilon", &[eps_series.clone()]));

    // ---- μ sweep ----  (its own checkpoint file: `<resume>.mu`)
    let mut mu_series = Series::new("online-approx");
    let mu_ckpt = resume.map(|p| format!("{p}.mu"));
    let mu_label = tag("fig4-mu");
    let mu_outcomes = checkpointed_map(&mu_label, &grid, threads, mu_ckpt.as_deref(), |&mu| {
        let scenario = Scenario {
            name: format!("fig4-mu-{mu}"),
            mobility: MobilityKind::Taxi { num_users: users },
            num_slots: slots,
            dynamic_weight: mu,
            algorithms: vec![AlgorithmKind::Approx { eps: 0.5 }],
            repetitions: reps,
            seed,
            slot_deadline_ms: deadline,
            ..Scenario::default()
        };
        eprintln!("running {} ...", scenario.name);
        sim::run_scenario(&scenario).expect("scenario")
    });
    for (&mu, outcome) in grid.iter().zip(&mu_outcomes) {
        mu_series.push_from(mu, &outcome.algorithms[0].ratios);
    }
    println!("Figure 4 (right) — competitive ratio vs μ (dynamic/static weight)");
    println!("{}", series_table("mu", &[mu_series.clone()]));

    let mut json = series_json(&[eps_series]);
    json.push('\n');
    json.push_str(&series_json(&[mu_series]));
    maybe_write(flags.str("json"), &json);
}
