//! Theorem 2's ratio `r = 1 + γ|I|` holds for slot-by-slot *optimal* ℙ₂
//! solutions. This gate checks that the default per-user allocator delivers
//! them: on a taxi horizon at J=1000, every slot recorded as a clean
//! `Primary` solve must have the ℙ₂ objective of a fresh solve from the
//! proportional start, given the same previous allocation and the same
//! exact projection. A barrier that certified a centering it never finished
//! would leave these slots measurably above the optimum. Every decision
//! must also be exactly feasible: each demand and capacity bound holds for
//! the sums as written, with no tolerance.

use edgealloc::exact::project_exact;
use edgealloc::prelude::*;
use edgealloc::programs::p2;
use edgealloc::SlotInput;
use optim::convex::BarrierOptions;
use rand::SeedableRng;

fn assert_primary_slots_are_p2_optimal(seed: u64) {
    let net = mobility::rome_metro();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let cfg = mobility::taxi::TaxiConfig {
        num_users: 1000,
        num_slots: 8,
        ..Default::default()
    };
    let mob = mobility::taxi::generate(&net, &cfg, &mut rng);
    let inst = Instance::synthetic(&net, mob, &mut rng);

    let mut alg = OnlineRegularized::with_defaults();
    let traj = run_online(&inst, &mut alg).expect("horizon");
    let eps = alg.epsilons();
    let mut prev = Allocation::zeros(inst.num_clouds(), inst.num_users());
    for (t, (x, h)) in traj.allocations.iter().zip(&traj.health).enumerate() {
        assert_eq!(h.rung, FallbackRung::Primary, "seed {seed} slot {t}");
        let input = SlotInput::from_instance(&inst, t);
        let mut reference = p2::solve(&input, &prev, eps, &BarrierOptions::default())
            .expect("reference solve")
            .allocation;
        project_exact(&input, &mut reference).expect("reference projection");
        for j in 0..inst.num_users() {
            assert!(
                x.user_total(j) >= inst.workload(j),
                "seed {seed} slot {t} user {j}: {} < {}",
                x.user_total(j),
                inst.workload(j)
            );
        }
        for i in 0..inst.num_clouds() {
            assert!(
                x.cloud_total(i) <= inst.system().capacity(i),
                "seed {seed} slot {t} cloud {i}: {} > {}",
                x.cloud_total(i),
                inst.system().capacity(i)
            );
        }
        let got = p2::slot_objective(&input, &prev, x, eps).expect("objective");
        let best = p2::slot_objective(&input, &prev, &reference, eps).expect("objective");
        let rel = (got - best).abs() / best.abs().max(1.0);
        assert!(
            rel <= 1e-6,
            "seed {seed} slot {t}: decision objective {got} vs reference {best} \
             (relative {rel:.3e})"
        );
        prev = x.clone();
    }
}

#[test]
fn taxi_j1000_seed1_primary_slots_are_p2_optimal() {
    assert_primary_slots_are_p2_optimal(1);
}

#[test]
fn taxi_j1000_seed2_primary_slots_are_p2_optimal() {
    assert_primary_slots_are_p2_optimal(2);
}
