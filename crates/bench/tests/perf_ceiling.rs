//! Perf-smoke gate for the linear scaling of the ℙ₂ Schur kernel: a
//! J=2000, I=15 slot solve — workspace refresh plus a solve from the
//! proportional start, as `OnlineRegularized` runs it — must finish under
//! a generous wall-clock ceiling. The ceiling is deliberately loose
//! (shared CI runners are noisy) — it exists to catch *complexity*
//! regressions: a Newton step that stops being linear in the user count
//! (one that factors a J-sized block, say) is orders of magnitude slower
//! at J=2000, not percent.
//!
//! Run in release only (`cargo test -p bench --release --test
//! perf_ceiling`); under a debug build the test is a no-op because debug
//! arithmetic is uniformly ~30× slower and would need a ceiling too loose
//! to gate anything.

use edgealloc::prelude::*;
use edgealloc::programs::p2::{self, CapacityMode, Epsilons, P2Workspace};
use edgealloc::SlotInput;
use optim::convex::BarrierOptions;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Wall-clock ceiling for one slot solve at J=2000, I=15. Typical release
/// time is a few hundred milliseconds; a dense (J+2I)³ factorization per
/// Newton step at this shape takes minutes.
const SOLVE_CEILING: Duration = Duration::from_secs(60);

#[test]
fn cold_j2000_blocked_slot_solve_under_ceiling() {
    if cfg!(debug_assertions) {
        eprintln!("perf_ceiling: skipped (debug build)");
        return;
    }

    let net = mobility::rome_metro();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let cfg = mobility::taxi::TaxiConfig {
        num_users: 2000,
        num_slots: 2,
        ..Default::default()
    };
    let mob = mobility::taxi::generate(&net, &cfg, &mut rng);
    let inst = Instance::synthetic(&net, mob, &mut rng);

    let input0 = SlotInput::from_instance(&inst, 0);
    let zeros = Allocation::zeros(inst.num_clouds(), inst.num_users());
    let eps = Epsilons::default();
    let opts = BarrierOptions::default();
    let prev = p2::solve(&input0, &zeros, eps, &opts)
        .expect("slot 0 solve")
        .allocation;

    let input = SlotInput::from_instance(&inst, 1);
    let start = p2::proportional_start(&input).expect("capacity exceeds demand");
    let mut ws = P2Workspace::default();

    // Warm-up: the first refresh builds the solver and the first solve
    // grows the workspace buffers to steady state.
    ws.refresh(&input, &prev, eps, CapacityMode::Paper10b)
        .expect("refresh");
    ws.solve(Some(&start), &opts).expect("warm-up solve");

    let clock = Instant::now();
    ws.refresh(&input, &prev, eps, CapacityMode::Paper10b)
        .expect("refresh");
    let sol = ws.solve(Some(&start), &opts).expect("timed solve");
    let elapsed = clock.elapsed();

    eprintln!(
        "perf_ceiling: J=2000 slot solve took {:.1} ms \
         ({} Newton steps, objective {:.6e})",
        elapsed.as_secs_f64() * 1e3,
        sol.stats.iterations,
        sol.objective
    );
    assert!(
        elapsed <= SOLVE_CEILING,
        "J=2000 slot solve took {elapsed:?} (ceiling \
         {SOLVE_CEILING:?}) — did the Schur kernel regress to a \
         superlinear path?"
    );
}
