//! A tiny-size run of each workload through the built binary: the run
//! must pass its own correctness checks, exit 0, and end with the
//! one-line JSON summary.

use std::process::Command;

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "2", "--scale", "tiny"])
        .args(["--trace", trace])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("output").to_string();
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "summary: {last}");
    assert!(!stdout.contains("FAILED"), "{stdout}");
    last
}

#[test]
fn fig2_n100_tiny() {
    assert!(run("fig2-n100", "0").contains("\"lat_p99_ms\""));
    assert!(run("fig2-n100", "1").contains("\"net.loop_self_ms\""));
}

#[test]
fn open_n10_recover_tiny() {
    assert!(run("open-n10-recover", "0").contains("\"done_ratio\""));
    assert!(run("open-n10-recover", "1").contains("\"storage.recover_ms\""));
}

#[test]
fn testnet_4_tiny() {
    assert!(run("testnet-4", "0").contains("\"node.lat_p99_ms\""));
    assert!(run("testnet-4", "1").contains("\"client.confirm_dupes\""));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_summary() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &["--seconds"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().expect("run");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed {:?}", out.stdout);
    }
}
