//! Declarative experiment descriptions.

use crate::faults::{FaultPlan, ShardFaultPlan};
use crate::hostile::HostilePlan;
use edgealloc::algorithms::{
    OnlineAlgorithm, OnlineGreedy, OnlineRegularized, OperOpt, PerfOpt, StatOpt, StaticPolicy,
    StaticVariant,
};
use edgealloc::cost::CostWeights;
use mobility::prices::PriceConfig;
use mobility::taxi::TaxiConfig;
use mobility::workload::WorkloadDist;
use serde::{Deserialize, Serialize};
use shard::OnlineSharded;

/// Which mobility substrate drives the users.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum MobilityKind {
    /// Synthetic taxi trips around the metro stations (the Roma-taxi
    /// substitution; §V-A/B of the paper).
    Taxi {
        /// Number of taxis/users.
        num_users: usize,
    },
    /// Uniform random walk on the metro graph (§V-D).
    RandomWalk {
        /// Number of walkers/users.
        num_users: usize,
    },
    /// Diurnal commute waves between home stations and a few work hubs —
    /// the hostile mobility shape (see [`mobility::hostile`]). The wave
    /// slots are derived from the scenario horizon (morning at ¼, evening
    /// at ¾).
    Commute {
        /// Number of commuters/users.
        num_users: usize,
    },
}

impl MobilityKind {
    /// The number of users the scenario simulates.
    pub fn num_users(&self) -> usize {
        match *self {
            MobilityKind::Taxi { num_users }
            | MobilityKind::RandomWalk { num_users }
            | MobilityKind::Commute { num_users } => num_users,
        }
    }
}

/// Which algorithm to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AlgorithmKind {
    /// The paper's regularized online algorithm with `ε₁ = ε₂ = eps`.
    Approx {
        /// Regularization parameter.
        eps: f64,
    },
    /// The regularized algorithm with explicit capacity rows instead of
    /// constraint (10b) — the deployment-grade variant (ablation).
    ApproxExplicit {
        /// Regularization parameter.
        eps: f64,
    },
    /// Per-slot full-ℙ₀ greedy.
    Greedy,
    /// Quality-only atomistic baseline.
    PerfOpt,
    /// Operation-only atomistic baseline.
    OperOpt,
    /// Static-cost atomistic baseline.
    StatOpt,
    /// Frozen capacity-proportional allocation.
    StaticProportional,
    /// Frozen first-slot static optimum.
    StaticFirstSlot,
    /// Frozen first-slot locality-first allocation.
    StaticLocal,
    /// The regularized algorithm with cohort aggregation: users sharing
    /// an attachment station and workload class collapse to one solver
    /// variable per slot and the symmetric solution is scattered back
    /// exactly (see `edgealloc::cohort`). Falls back to the blocked
    /// per-user solve when the class structure does not compress.
    Cohort {
        /// Regularization parameter.
        eps: f64,
    },
    /// The sharded regularized algorithm: each slot decomposed across
    /// `shards` user shards coordinated by capacity prices (explicit
    /// capacity rows, like [`AlgorithmKind::ApproxExplicit`]).
    Sharded {
        /// Regularization parameter.
        eps: f64,
        /// Target user-shard count.
        shards: usize,
    },
}

impl AlgorithmKind {
    /// Instantiates the algorithm.
    pub fn build(&self) -> Box<dyn OnlineAlgorithm + Send> {
        self.build_with_deadline(None)
    }

    /// Instantiates the algorithm with a per-slot wall-clock budget in
    /// milliseconds. Only the regularized variants solve anything that can
    /// run long, so only they honor the deadline; the atomistic and static
    /// baselines are O(users·clouds) per slot and ignore it.
    pub fn build_with_deadline(
        &self,
        slot_deadline_ms: Option<f64>,
    ) -> Box<dyn OnlineAlgorithm + Send> {
        self.build_full(slot_deadline_ms, &ShardFaultPlan::none())
    }

    /// Instantiates the algorithm with a per-slot deadline *and* the
    /// scenario's shard-worker fault plan. Only [`AlgorithmKind::Sharded`]
    /// has shard workers to fault, so only it consumes the plan; every
    /// other variant builds exactly as [`AlgorithmKind::build_with_deadline`].
    pub fn build_full(
        &self,
        slot_deadline_ms: Option<f64>,
        shard_faults: &ShardFaultPlan,
    ) -> Box<dyn OnlineAlgorithm + Send> {
        match *self {
            AlgorithmKind::Approx { eps } => Box::new(
                OnlineRegularized::with_epsilon(eps).with_slot_deadline_ms(slot_deadline_ms),
            ),
            AlgorithmKind::ApproxExplicit { eps } => Box::new(
                OnlineRegularized::with_epsilon(eps)
                    .with_explicit_capacity()
                    .with_slot_deadline_ms(slot_deadline_ms),
            ),
            AlgorithmKind::Cohort { eps } => Box::new(
                OnlineRegularized::with_epsilon(eps)
                    .with_cohorts()
                    .with_slot_deadline_ms(slot_deadline_ms),
            ),
            AlgorithmKind::Greedy => Box::new(OnlineGreedy::new()),
            AlgorithmKind::PerfOpt => Box::new(PerfOpt::new()),
            AlgorithmKind::OperOpt => Box::new(OperOpt::new()),
            AlgorithmKind::StatOpt => Box::new(StatOpt::new()),
            AlgorithmKind::StaticProportional => {
                Box::new(StaticPolicy::new(StaticVariant::Proportional))
            }
            AlgorithmKind::StaticFirstSlot => {
                Box::new(StaticPolicy::new(StaticVariant::FirstSlotOpt))
            }
            AlgorithmKind::StaticLocal => Box::new(StaticPolicy::new(StaticVariant::Local)),
            AlgorithmKind::Sharded { eps, shards } => Box::new(
                OnlineSharded::new(
                    shards,
                    OnlineRegularized::with_epsilon(eps).with_slot_deadline_ms(slot_deadline_ms),
                )
                .with_chaos(shard_faults.to_chaos()),
            ),
        }
    }

    /// Stable display name (matches the paper's labels).
    pub fn label(&self) -> String {
        match *self {
            AlgorithmKind::Approx { .. } => "online-approx".into(),
            AlgorithmKind::ApproxExplicit { .. } => "online-approx".into(),
            AlgorithmKind::Cohort { .. } => "online-approx-cohort".into(),
            AlgorithmKind::Greedy => "online-greedy".into(),
            AlgorithmKind::PerfOpt => "perf-opt".into(),
            AlgorithmKind::OperOpt => "oper-opt".into(),
            AlgorithmKind::StatOpt => "stat-opt".into(),
            AlgorithmKind::StaticProportional => "static-proportional".into(),
            AlgorithmKind::StaticFirstSlot => "static-first-slot".into(),
            AlgorithmKind::StaticLocal => "static-local".into(),
            AlgorithmKind::Sharded { .. } => "online-sharded".into(),
        }
    }
}

/// A complete experiment description: mobility, workload, prices, weights,
/// the algorithm roster, and how many seeded repetitions to average.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (used in reports).
    pub name: String,
    /// Mobility source.
    pub mobility: MobilityKind,
    /// Number of time slots (the paper uses 60 one-minute slots).
    pub num_slots: usize,
    /// Workload distribution.
    pub workload: WorkloadDist,
    /// Ratio of dynamic to static cost weights (`μ` in Figure 4; 1 = equal).
    pub dynamic_weight: f64,
    /// Algorithms to evaluate (offline-opt always runs as the normalizer).
    pub algorithms: Vec<AlgorithmKind>,
    /// Independent repetitions (the paper uses 5).
    pub repetitions: usize,
    /// Base RNG seed; repetition `r` uses `seed + r`.
    pub seed: u64,
    /// Taxi-generator tuning (ignored for random-walk mobility).
    pub taxi: TaxiConfig,
    /// Price-process parameters (see `EXPERIMENTS.md` for the calibration
    /// of the defaults against the paper's reported magnitudes).
    pub prices: PriceConfig,
    /// Quality-cost units per kilometer of distance.
    pub delay_per_km: f64,
    /// Target system utilization (§V-A: 80%).
    pub utilization: f64,
    /// Faults injected into every repetition's instance (empty by
    /// default); see [`crate::faults`].
    pub faults: FaultPlan,
    /// Per-slot wall-clock budget in milliseconds for the deadline-aware
    /// algorithms (`None` = unlimited; absent in legacy scenario JSON).
    #[serde(default)]
    pub slot_deadline_ms: Option<f64>,
    /// Shard-worker faults injected into the sharded algorithm's
    /// coordination loop (inert by default; absent in legacy scenario
    /// JSON); see [`crate::faults::ShardFaultPlan`].
    #[serde(default)]
    pub shard_faults: ShardFaultPlan,
    /// Hostile workload events (flash crowds, demand waves, price spikes,
    /// rolling degradation) applied to every repetition's mobility and
    /// instance (inert by default; absent in legacy scenario JSON); see
    /// [`crate::hostile::HostilePlan`].
    #[serde(default)]
    pub hostile: HostilePlan,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            name: "default".into(),
            mobility: MobilityKind::Taxi { num_users: 40 },
            num_slots: 30,
            workload: WorkloadDist::default_power(),
            dynamic_weight: 1.0,
            algorithms: vec![
                AlgorithmKind::PerfOpt,
                AlgorithmKind::OperOpt,
                AlgorithmKind::StatOpt,
                AlgorithmKind::Greedy,
                AlgorithmKind::Approx { eps: 0.5 },
            ],
            repetitions: 5,
            seed: 2017,
            taxi: TaxiConfig::default(),
            prices: PriceConfig {
                reconfig_mean: 2.0,
                bandwidth_scale: 2.0,
                ..PriceConfig::default()
            },
            delay_per_km: 2.0,
            utilization: 0.8,
            faults: FaultPlan::none(),
            slot_deadline_ms: None,
            shard_faults: ShardFaultPlan::none(),
            hostile: HostilePlan::none(),
        }
    }
}

impl Scenario {
    /// The cost weights implied by `dynamic_weight`.
    pub fn weights(&self) -> CostWeights {
        CostWeights::with_dynamic_ratio(self.dynamic_weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_kinds_build_with_matching_names() {
        for kind in [
            AlgorithmKind::Approx { eps: 0.5 },
            AlgorithmKind::Cohort { eps: 0.5 },
            AlgorithmKind::Greedy,
            AlgorithmKind::PerfOpt,
            AlgorithmKind::OperOpt,
            AlgorithmKind::StatOpt,
            AlgorithmKind::StaticProportional,
            AlgorithmKind::StaticFirstSlot,
            AlgorithmKind::StaticLocal,
            AlgorithmKind::Sharded {
                eps: 0.5,
                shards: 4,
            },
        ] {
            let alg = kind.build();
            assert_eq!(alg.name(), kind.label());
        }
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let s = Scenario {
            slot_deadline_ms: Some(50.0),
            ..Scenario::default()
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, s.name);
        assert_eq!(back.repetitions, s.repetitions);
        assert_eq!(back.slot_deadline_ms, Some(50.0));
    }

    #[test]
    fn legacy_scenario_json_without_deadline_parses() {
        let json = serde_json::to_string(&Scenario::default()).unwrap();
        let legacy = json.replace(",\"slot_deadline_ms\":null", "");
        assert_ne!(
            legacy, json,
            "expected the field to be present and removable"
        );
        let back: Scenario = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.slot_deadline_ms, None);
    }

    #[test]
    fn legacy_scenario_json_without_shard_faults_parses() {
        let json = serde_json::to_string(&Scenario::default()).unwrap();
        let legacy = json.replace(",\"shard_faults\":{\"seed\":0,\"faults\":[]}", "");
        assert_ne!(
            legacy, json,
            "expected the field to be present and removable"
        );
        let back: Scenario = serde_json::from_str(&legacy).unwrap();
        assert!(back.shard_faults.is_empty());
    }

    #[test]
    fn legacy_scenario_json_without_hostile_plan_parses() {
        let json = serde_json::to_string(&Scenario::default()).unwrap();
        let legacy = json.replace(",\"hostile\":{\"seed\":0,\"events\":[]}", "");
        assert_ne!(
            legacy, json,
            "expected the field to be present and removable"
        );
        let back: Scenario = serde_json::from_str(&legacy).unwrap();
        assert!(back.hostile.is_empty());
    }

    #[test]
    fn cohort_kind_round_trips_through_scenario_json() {
        let s = Scenario {
            algorithms: vec![AlgorithmKind::Cohort { eps: 0.5 }],
            ..Scenario::default()
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back.algorithms, s.algorithms);
        assert_eq!(back.algorithms[0].label(), "online-approx-cohort");
    }

    #[test]
    fn commute_mobility_reports_its_user_count() {
        let kind = MobilityKind::Commute { num_users: 17 };
        assert_eq!(kind.num_users(), 17);
    }

    #[test]
    fn shard_faults_reach_the_sharded_algorithm_only() {
        use crate::faults::ShardFaultKind;
        let plan = ShardFaultPlan {
            seed: 3,
            faults: vec![ShardFaultKind::PanicWithProbability { prob: 0.5 }],
        };
        // Every roster entry still builds with a fault plan supplied; the
        // non-sharded kinds ignore it.
        for kind in [
            AlgorithmKind::Approx { eps: 0.5 },
            AlgorithmKind::Greedy,
            AlgorithmKind::Sharded {
                eps: 0.5,
                shards: 4,
            },
        ] {
            let alg = kind.build_full(None, &plan);
            assert_eq!(alg.name(), kind.label());
        }
    }

    #[test]
    fn default_scenario_matches_paper_roster() {
        let s = Scenario::default();
        assert_eq!(s.algorithms.len(), 5);
        assert_eq!(s.repetitions, 5);
    }
}
