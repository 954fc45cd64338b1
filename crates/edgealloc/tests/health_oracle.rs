//! The generated health fold against the hand-written one it replaced.
//!
//! `HealthSummary`'s struct, `from_slots` and `merge` are generated from
//! one per-field list; `RungCounts` folds the `rungs` field. This file
//! keeps the earlier hand-written `from_slots`, `merge` and
//! `RungCounts::{record, merge, total}` verbatim, as free functions over
//! the same public fields, and requires the library's fold to agree with
//! them byte for byte in `serde_json` on seeded random records that
//! cover every summarized field and its edge values: every rung and
//! sentinel verdict, 0–4 shards, non-finite and signed-zero penalties and
//! capacity violations. A golden record, written by the hand-written
//! struct, pins the JSON layout itself.

use edgealloc::health::{FallbackRung, HealthSummary, RungCounts, SlotHealth};
use edgealloc::sentinel::SentinelVerdict;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---- The hand-written fold, verbatim --------------------------------------

fn oracle_record(counts: &mut RungCounts, rung: FallbackRung) {
    match rung {
        FallbackRung::Primary => counts.primary += 1,
        FallbackRung::RelaxedTolerance => counts.relaxed_tolerance += 1,
        FallbackRung::PerSlotLp => counts.per_slot_lp += 1,
        FallbackRung::DeadlineSalvage => counts.deadline_salvage += 1,
        FallbackRung::CarryForward => counts.carry_forward += 1,
        FallbackRung::Shedding => counts.shedding += 1,
    }
}

fn oracle_rung_merge(counts: &mut RungCounts, other: &RungCounts) {
    counts.primary += other.primary;
    counts.relaxed_tolerance += other.relaxed_tolerance;
    counts.per_slot_lp += other.per_slot_lp;
    counts.deadline_salvage += other.deadline_salvage;
    counts.carry_forward += other.carry_forward;
    counts.shedding += other.shedding;
}

fn oracle_total(counts: &RungCounts) -> usize {
    counts.primary
        + counts.relaxed_tolerance
        + counts.per_slot_lp
        + counts.deadline_salvage
        + counts.carry_forward
        + counts.shedding
}

fn oracle_from_slots(slots: &[SlotHealth]) -> HealthSummary {
    let mut summary = HealthSummary {
        slots: slots.len(),
        ..HealthSummary::default()
    };
    for h in slots {
        if h.degraded() {
            summary.degraded_slots += 1;
        }
        if h.sanitized {
            summary.sanitized_slots += 1;
        }
        oracle_record(&mut summary.rungs, h.rung);
        summary.newton_steps += h.newton_steps;
        summary.peak_outer_iterations = summary.peak_outer_iterations.max(h.outer_iterations);
        if h.deadline_hit {
            summary.deadline_hits += 1;
        }
        if h.shards >= 2 {
            summary.sharded_slots += 1;
        }
        summary.coord_rounds += h.coord_rounds;
        if h.polished {
            summary.polished_slots += 1;
        }
        summary.stale_offers += h.stale_offers;
        summary.shard_retries += h.shard_retries;
        summary.quarantined_offers += h.quarantined_offers;
        summary.breaker_trips += h.breaker_trips;
        summary.degraded_rounds += h.degraded_rounds;
        match h.sentinel_verdict {
            Some(SentinelVerdict::Overloaded) => summary.overloaded_slots += 1,
            Some(SentinelVerdict::Tight) => summary.tight_slots += 1,
            _ => {}
        }
        summary.shed_users += h.shed_users;
        summary.overflowed_users += h.overflowed_users;
        if h.shed_penalty.is_finite() {
            summary.shed_penalty += h.shed_penalty;
        }
        if h.cohorts > 0 {
            summary.cohort_slots += 1;
            summary.peak_cohorts = summary.peak_cohorts.max(h.cohorts);
        }
        summary.churn_arrivals += h.churn_arrivals;
        summary.churn_departs += h.churn_departs;
        summary.churn_moves += h.churn_moves;
        if h.incremental {
            summary.incremental_slots += 1;
        }
        if let Some(v) = h.max_capacity_violation {
            if v.is_finite() {
                summary.peak_capacity_violation = summary.peak_capacity_violation.max(v);
            }
        }
    }
    summary
}

fn oracle_merge(summary: &mut HealthSummary, other: &HealthSummary) {
    summary.slots += other.slots;
    summary.degraded_slots += other.degraded_slots;
    summary.sanitized_slots += other.sanitized_slots;
    oracle_rung_merge(&mut summary.rungs, &other.rungs);
    summary.newton_steps += other.newton_steps;
    summary.peak_outer_iterations = summary
        .peak_outer_iterations
        .max(other.peak_outer_iterations);
    summary.deadline_hits += other.deadline_hits;
    summary.sharded_slots += other.sharded_slots;
    summary.coord_rounds += other.coord_rounds;
    summary.peak_capacity_violation = summary
        .peak_capacity_violation
        .max(other.peak_capacity_violation);
    summary.polished_slots += other.polished_slots;
    summary.stale_offers += other.stale_offers;
    summary.shard_retries += other.shard_retries;
    summary.quarantined_offers += other.quarantined_offers;
    summary.breaker_trips += other.breaker_trips;
    summary.degraded_rounds += other.degraded_rounds;
    summary.overloaded_slots += other.overloaded_slots;
    summary.tight_slots += other.tight_slots;
    summary.shed_users += other.shed_users;
    summary.overflowed_users += other.overflowed_users;
    summary.shed_penalty += other.shed_penalty;
    summary.cohort_slots += other.cohort_slots;
    summary.peak_cohorts = summary.peak_cohorts.max(other.peak_cohorts);
    summary.churn_arrivals += other.churn_arrivals;
    summary.churn_departs += other.churn_departs;
    summary.churn_moves += other.churn_moves;
    summary.incremental_slots += other.incremental_slots;
}

// ---- Seeded records --------------------------------------------------------

const RUNGS: [FallbackRung; 6] = [
    FallbackRung::Primary,
    FallbackRung::RelaxedTolerance,
    FallbackRung::PerSlotLp,
    FallbackRung::DeadlineSalvage,
    FallbackRung::CarryForward,
    FallbackRung::Shedding,
];

const VERDICTS: [Option<SentinelVerdict>; 4] = [
    None,
    Some(SentinelVerdict::Feasible),
    Some(SentinelVerdict::Tight),
    Some(SentinelVerdict::Overloaded),
];

fn pick<T: Copy>(rng: &mut StdRng, values: &[T]) -> T {
    values[rng.gen_range(0..values.len())]
}

/// A random slot record. Finite shed penalties are arbitrary reals, or
/// multiples of 1/4 under `quarter_penalties`, whose sums round nowhere.
fn random_slot(rng: &mut StdRng, quarter_penalties: bool) -> SlotHealth {
    let finite_penalty = if quarter_penalties {
        rng.gen_range(0..4000usize) as f64 / 4.0
    } else {
        rng.gen::<f64>() * 1e3
    };
    let violation = rng.gen::<f64>() * 0.5;
    let cohorts = rng.gen_range(1..600usize);
    let mut h = SlotHealth {
        rung: pick(rng, &RUNGS),
        attempts: rng.gen_range(0..4usize),
        sanitized: rng.gen_bool(0.2),
        deadline_hit: rng.gen_bool(0.2),
        newton_steps: rng.gen_range(0..80usize),
        outer_iterations: rng.gen_range(0..40usize),
        // Not summarized; still drawn, so every later field keeps its draw.
        schur_kernel: pick(rng, &[None, Some("dense"), Some("blocked")]).map(String::from),
        shards: rng.gen_range(0..5usize),
        coord_rounds: rng.gen_range(0..9usize),
        max_capacity_violation: pick(
            rng,
            &[
                None,
                Some(f64::NAN),
                Some(f64::INFINITY),
                Some(f64::NEG_INFINITY),
                Some(-0.0),
                Some(0.0),
                Some(violation),
            ],
        ),
        polished: rng.gen_bool(0.3),
        stale_offers: rng.gen_range(0..4usize),
        shard_retries: rng.gen_range(0..4usize),
        quarantined_offers: rng.gen_range(0..4usize),
        breaker_trips: rng.gen_range(0..3usize),
        degraded_rounds: rng.gen_range(0..4usize),
        sentinel_verdict: pick(rng, &VERDICTS),
        shed_users: rng.gen_range(0..50usize),
        overflowed_users: rng.gen_range(0..50usize),
        shed_penalty: pick(
            rng,
            &[
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                0.0,
                finite_penalty,
                finite_penalty,
            ],
        ),
        cohorts: pick(rng, &[0, 0, cohorts]),
        churn_arrivals: rng.gen_range(0..30usize),
        churn_departs: rng.gen_range(0..30usize),
        churn_moves: rng.gen_range(0..30usize),
        incremental: rng.gen_bool(0.4),
        ..SlotHealth::primary()
    };
    if rng.gen_bool(0.2) {
        h.note_error("injected");
    }
    h
}

fn random_slots(seed: u64, quarter_penalties: bool) -> Vec<SlotHealth> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.gen_range(0..120usize);
    (0..len)
        .map(|_| random_slot(&mut rng, quarter_penalties))
        .collect()
}

fn json(summary: &HealthSummary) -> String {
    serde_json::to_string(summary).unwrap()
}

// ---- The checks --------------------------------------------------------------

#[test]
fn generated_health_fold_matches_the_hand_written_one() {
    for seed in 0..200 {
        let slots = random_slots(seed, false);
        let got = HealthSummary::from_slots(&slots);
        let want = oracle_from_slots(&slots);
        assert_eq!(json(&got), json(&want), "seed {seed}");
        // JSON writes every non-finite float as null: pin the bits too.
        assert_eq!(got.shed_penalty.to_bits(), want.shed_penalty.to_bits());
        assert_eq!(
            got.peak_capacity_violation.to_bits(),
            want.peak_capacity_violation.to_bits()
        );
        assert_eq!(got.rungs.total(), oracle_total(&want.rungs), "seed {seed}");
    }
}

#[test]
fn generated_health_merge_matches_the_hand_written_one() {
    for seed in 0..200 {
        let a = HealthSummary::from_slots(&random_slots(2 * seed, false));
        let b = HealthSummary::from_slots(&random_slots(2 * seed + 1, false));
        let mut got = a.clone();
        got.merge(&b);
        let mut want = a;
        oracle_merge(&mut want, &b);
        assert_eq!(json(&got), json(&want), "seed {seed}");
        assert_eq!(got.shed_penalty.to_bits(), want.shed_penalty.to_bits());
        let mut rungs = got.rungs;
        rungs.merge(&b.rungs);
        let mut oracle_rungs = got.rungs;
        oracle_rung_merge(&mut oracle_rungs, &b.rungs);
        assert_eq!(rungs, oracle_rungs, "seed {seed}");
    }
}

#[test]
fn health_summary_of_a_concatenation_is_the_merge_of_its_parts() {
    for seed in 0..200 {
        let a = random_slots(2 * seed, true);
        let b = random_slots(2 * seed + 1, true);
        let whole: Vec<SlotHealth> = a.iter().chain(&b).cloned().collect();
        let mut merged = HealthSummary::from_slots(&a);
        merged.merge(&HealthSummary::from_slots(&b));
        let whole = HealthSummary::from_slots(&whole);
        assert_eq!(json(&merged), json(&whole), "seed {seed}");
        assert_eq!(merged.shed_penalty.to_bits(), whole.shed_penalty.to_bits());
    }
}

#[test]
fn generated_health_summary_round_trips_byte_for_byte() {
    for seed in 0..50 {
        let summary = HealthSummary::from_slots(&random_slots(seed, false));
        let text = json(&summary);
        let back: HealthSummary = serde_json::from_str(&text).unwrap();
        assert_eq!(json(&back), text, "seed {seed}");
    }
}

#[test]
fn health_summary_json_keeps_the_hand_written_layout() {
    // Written by the hand-written struct: every field's name, its place
    // and its number format.
    const WANT: &str = concat!(
        r#"{"slots":3,"degraded_slots":2,"sanitized_slots":1,"rungs":{"primary":1,"#,
        r#""relaxed_tolerance":0,"per_slot_lp":0,"deadline_salvage":0,"carry_forward":1,"#,
        r#""shedding":1},"newton_steps":40,"peak_outer_iterations":9,"deadline_hits":1,"#,
        r#""sharded_slots":1,"coord_rounds":3,"#,
        r#""peak_capacity_violation":0.125,"polished_slots":1,"stale_offers":1,"#,
        r#""shard_retries":2,"quarantined_offers":3,"breaker_trips":4,"degraded_rounds":5,"#,
        r#""overloaded_slots":1,"tight_slots":1,"shed_users":3,"overflowed_users":2,"#,
        r#""shed_penalty":7.25,"cohort_slots":1,"peak_cohorts":45,"churn_arrivals":5,"#,
        r#""churn_departs":6,"churn_moves":7,"incremental_slots":1}"#,
    );
    let a = SlotHealth {
        rung: FallbackRung::Shedding,
        sentinel_verdict: Some(SentinelVerdict::Overloaded),
        shed_users: 3,
        overflowed_users: 2,
        shed_penalty: 7.25,
        newton_steps: 40,
        outer_iterations: 9,
        schur_kernel: Some("blocked".into()),
        shards: 4,
        coord_rounds: 3,
        max_capacity_violation: Some(0.125),
        cohorts: 45,
        churn_arrivals: 5,
        incremental: true,
        ..SlotHealth::primary()
    };
    let b = SlotHealth {
        rung: FallbackRung::CarryForward,
        sanitized: true,
        deadline_hit: true,
        polished: true,
        stale_offers: 1,
        shard_retries: 2,
        quarantined_offers: 3,
        breaker_trips: 4,
        degraded_rounds: 5,
        sentinel_verdict: Some(SentinelVerdict::Tight),
        churn_departs: 6,
        churn_moves: 7,
        ..SlotHealth::primary()
    };
    let summary = HealthSummary::from_slots(&[a, b, SlotHealth::primary()]);
    assert_eq!(json(&summary), WANT);
    let back: HealthSummary = serde_json::from_str(WANT).unwrap();
    assert_eq!(json(&back), WANT);
}
