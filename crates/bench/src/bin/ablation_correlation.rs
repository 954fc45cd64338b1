//! Ablation: temporal correlation of the operation-price process.
//!
//! §V-A says per-slot prices are Gaussian with sd = base/2 but does not fix
//! their temporal structure. This ablation shows why it matters (DESIGN.md,
//! finding 2): with independent per-minute redraws the regularized
//! algorithm "chases noise" — its marginal dynamic cost at the previous
//! allocation is zero, so it pays real migration for transient gains —
//! while with correlated (AR(1)) prices it beats online-greedy as the
//! paper reports.

use bench::{maybe_write, Flags};
use sim::metrics::Series;
use sim::report::{series_json, series_table};
use sim::scenario::{AlgorithmKind, MobilityKind, Scenario};

fn main() {
    let flags = Flags::from_env("users slots reps seed json");
    let users = flags.usize("users", 20);
    let slots = flags.usize("slots", 20);
    let reps = flags.usize("reps", 3);
    let seed = flags.u64("seed", 2017);

    let roster = vec![AlgorithmKind::Greedy, AlgorithmKind::Approx { eps: 0.5 }];
    let mut series: Vec<Series> = roster.iter().map(|k| Series::new(k.label())).collect();
    for rho in [0.0, 0.5, 0.8, 0.95, 0.99] {
        let mut scenario = Scenario {
            name: format!("ablation-corr-{rho}"),
            mobility: MobilityKind::Taxi { num_users: users },
            num_slots: slots,
            algorithms: roster.clone(),
            repetitions: reps,
            seed,
            ..Scenario::default()
        };
        scenario.prices.operation_correlation = rho;
        eprintln!("running {} ...", scenario.name);
        let outcome = sim::run_scenario(&scenario).expect("scenario");
        for (s, alg) in series.iter_mut().zip(&outcome.algorithms) {
            s.push_from(rho, &alg.ratios);
        }
    }
    println!("Ablation — competitive ratio vs operation-price autocorrelation");
    println!("{}", series_table("correlation", &series));
    maybe_write(flags.str("json"), &series_json(&series));
}
