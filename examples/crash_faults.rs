//! Crash-fault comparison (a miniature Figure 2): run Bullshark and
//! HammerHead on identical 10-validator committees with 3 validators
//! crashed from the start, and compare.
//!
//! ```sh
//! cargo run --release --example crash_faults
//! ```

use hammerhead_repro::hh_net::FaultPlan;
use hammerhead_repro::hh_sim::{run_experiment, ExperimentConfig, SystemKind};

fn main() {
    let committee = 10;
    let faults = 3; // the maximum tolerable for n = 10
    let load = 1_000;

    println!("{committee} validators, {faults} crashed from t=0, {load} tx/s offered\n");
    println!(
        "{:<12} {:>12} {:>10} {:>10} {:>10} {:>9} {:>7}",
        "system", "throughput", "latency", "p95", "timeouts", "commits", "epochs"
    );

    let mut results = Vec::new();
    for system in [SystemKind::Bullshark, SystemKind::Hammerhead] {
        let mut config = ExperimentConfig::paper(system, committee, load);
        config.duration_secs = 45;
        config.warmup_secs = 10;
        config.faults = FaultPlan::crash_last(committee, faults).expect("faults < committee");
        let r = run_experiment(&config);
        assert!(r.agreement_ok, "total order violated");
        println!(
            "{:<12} {:>9.0} tps {:>9.2}s {:>9.2}s {:>10} {:>9} {:>7}",
            system.label(),
            r.throughput_tps,
            r.latency.mean,
            r.latency.p95,
            r.leader_timeouts,
            r.commits,
            r.schedule_epochs,
        );
        results.push(r);
    }

    let (bullshark, hammerhead) = (&results[0], &results[1]);
    println!(
        "\nHammerHead vs Bullshark under faults: {:.1}x latency reduction, {:+.0}% throughput",
        bullshark.latency.mean / hammerhead.latency.mean.max(1e-9),
        (hammerhead.throughput_tps / bullshark.throughput_tps.max(1e-9) - 1.0) * 100.0,
    );
    println!(
        "(the paper reports up to 2x latency reduction and 25-40% throughput gains; \
         exact factors depend on calibration)"
    );
}
