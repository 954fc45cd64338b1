//! Profiling harness for the offline horizon LP (not part of the figure
//! suite): builds one synthetic taxi horizon and times `solve_offline`.
//!
//! ```text
//! profile_offline [--users N] [--slots N] [--seed N] [--json PATH]
//! ```

use bench::{maybe_write, Flags};
use edgealloc::prelude::*;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

/// One timed offline solve.
#[derive(Debug, Clone, Serialize)]
struct OfflineProfile {
    users: usize,
    slots: usize,
    seed: u64,
    wall_clock_ms: f64,
    cost: f64,
}

fn main() {
    let flags = Flags::from_env("users slots seed json");
    let users = flags.usize("users", 40);
    let slots = flags.usize("slots", 36);
    let seed = flags.u64("seed", 1);

    let net = mobility::rome_metro();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let cfg = mobility::taxi::TaxiConfig {
        num_users: users,
        num_slots: slots,
        ..Default::default()
    };
    let mob = mobility::taxi::generate(&net, &cfg, &mut rng);
    let inst = Instance::synthetic(&net, mob, &mut rng);

    let t0 = Instant::now();
    let off = solve_offline(&inst).expect("offline solve");
    let profile = OfflineProfile {
        users,
        slots,
        seed,
        wall_clock_ms: t0.elapsed().as_secs_f64() * 1e3,
        cost: off.cost.total(),
    };
    println!(
        "offline J={users} T={slots}: {:.1} ms, cost {:.2}",
        profile.wall_clock_ms, profile.cost
    );
    maybe_write(
        flags.str("json"),
        &serde_json::to_string_pretty(&profile).expect("serialize profile"),
    );
}
