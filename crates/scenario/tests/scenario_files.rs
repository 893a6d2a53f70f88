//! Tests over the checked-in `scenarios/*.toml` files: every file must
//! parse, expand, survive a serialize/parse round trip, and the fig2
//! scenario must build exactly the configuration the legacy hard-coded
//! `fig2_faults` binary used.

use hh_net::FaultPlan;
use hh_scenario::{load_scenario, repo_scenarios_dir, PlanOptions, ScenarioSpec};
use hh_sim::{run_experiment, ExperimentConfig, SystemKind};
use std::path::PathBuf;

fn checked_in_scenarios() -> Vec<PathBuf> {
    let dir = repo_scenarios_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    assert_eq!(
        files.len(),
        13,
        "expected the seven paper scenarios plus recovery, partition, saturation, bursty, \
         byzantine and chaos, found {files:?}"
    );
    files
}

#[test]
fn every_checked_in_scenario_parses_and_plans() {
    for path in checked_in_scenarios() {
        let spec = load_scenario(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for quick in [false, true] {
            let opts = PlanOptions { quick, ..PlanOptions::default() };
            let plan = spec
                .plan(&opts)
                .unwrap_or_else(|e| panic!("{} (quick={quick}): {e}", path.display()));
            assert!(!plan.runs.is_empty(), "{} expanded to no runs", path.display());
        }
    }
}

#[test]
fn every_checked_in_scenario_round_trips() {
    for path in checked_in_scenarios() {
        let spec = load_scenario(&path).expect("parses");
        let canonical = spec.to_toml();
        let again = ScenarioSpec::parse(&canonical).unwrap_or_else(|e| {
            panic!("{} canonical form does not re-parse: {e}\n{canonical}", path.display())
        });
        assert_eq!(spec, again, "{} round trip changed the spec", path.display());
    }
}

/// The legacy `fig2_faults` binary built its configs by hand; the
/// scenario file must reproduce them knob for knob — same seeds, same
/// simulation, identical results.
#[test]
fn fig2_scenario_matches_legacy_binary_config() {
    let spec = load_scenario(&repo_scenarios_dir().join("fig2_faults.toml")).expect("parses");
    let plan = spec.plan(&PlanOptions { quick: true, ..PlanOptions::default() }).expect("plans");

    // Quick axes: 1 committee × 2 systems × 3 loads.
    assert_eq!(plan.runs.len(), 6);
    let run = plan
        .runs
        .iter()
        .find(|r| r.system == "bullshark" && r.config.load_tps == 500)
        .expect("bullshark @ 500 tps is part of the quick sweep");

    // What the legacy binary constructed for the same point
    // (Scale { quick: true } → duration 15, warmup 15/6 = 2, seed 42).
    let committee = 10;
    let mut legacy = ExperimentConfig::paper(SystemKind::Bullshark, committee, 500);
    legacy.duration_secs = 15;
    legacy.warmup_secs = 2;
    legacy.seed = 42;
    legacy.faults = FaultPlan::crash_last(committee, committee / 3).expect("f < n");

    assert_eq!(run.config.committee_size, legacy.committee_size);
    assert_eq!(run.config.duration_secs, legacy.duration_secs);
    assert_eq!(run.config.warmup_secs, legacy.warmup_secs);
    assert_eq!(run.config.seed, legacy.seed);
    assert_eq!(run.config.faults.crashed_nodes(), legacy.faults.crashed_nodes());
    assert_eq!(run.config.geo, legacy.geo);
    assert_eq!(run.config.gst_secs, legacy.gst_secs);
    assert_eq!(run.config.client_window_secs, legacy.client_window_secs);

    // And the simulations agree bit for bit.
    let from_scenario = run_experiment(&run.config);
    let from_legacy = run_experiment(&legacy);
    assert_eq!(from_scenario.chain_hash, from_legacy.chain_hash);
    assert_eq!(from_scenario.commits, from_legacy.commits);
    assert_eq!(from_scenario.throughput_tps, from_legacy.throughput_tps);
    assert_eq!(from_scenario.latency, from_legacy.latency);
}
