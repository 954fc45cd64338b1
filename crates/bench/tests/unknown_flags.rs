//! Every bench binary names the flags it accepts: any other flag — a
//! removed one such as `profile_online --kernel`, or a misspelt one — ends
//! the run with exit status 2 and a message naming it, before the binary
//! does any work, instead of running the defaults.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn")
}

#[test]
fn profile_online_rejects_the_removed_kernel_flag() {
    let out = run(
        env!("CARGO_BIN_EXE_profile_online"),
        &["--users", "5", "--slots", "2", "--kernel", "dense"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--kernel"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "it ran a report");
}

#[test]
fn every_binary_rejects_an_unknown_flag_before_any_work() {
    for bin in [
        env!("CARGO_BIN_EXE_ablation_correlation"),
        env!("CARGO_BIN_EXE_fig2_competitive_ratio"),
        env!("CARGO_BIN_EXE_fig3_workloads"),
        env!("CARGO_BIN_EXE_fig4_sweeps"),
        env!("CARGO_BIN_EXE_fig5_random_walk"),
        env!("CARGO_BIN_EXE_fig_cohort"),
        env!("CARGO_BIN_EXE_fig_overload"),
        env!("CARGO_BIN_EXE_fig_scale"),
        env!("CARGO_BIN_EXE_fig_stream"),
        env!("CARGO_BIN_EXE_profile_offline"),
        env!("CARGO_BIN_EXE_profile_online"),
        env!("CARGO_BIN_EXE_run_scenario"),
        env!("CARGO_BIN_EXE_static_vs_online"),
    ] {
        let out = run(bin, &["--no-such-flag", "1"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(stderr.contains("--no-such-flag"), "{bin}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} printed before parsing");
    }
}
