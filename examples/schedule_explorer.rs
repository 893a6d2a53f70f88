//! Schedule explorer: watch HammerHead's reputation machinery epoch by
//! epoch — scores, the B/G swap, and slot ownership — while one validator
//! is crashed and another is chronically slow.
//!
//! ```sh
//! cargo run --release --example schedule_explorer
//! ```

use hammerhead_repro::hh_consensus::SchedulePolicy;
use hammerhead_repro::hh_net::{Duration, FaultPlan, NodeId, SimTime, SlowdownSpec};
use hammerhead_repro::hh_sim::{build_sim, ExperimentConfig, SystemKind};
use hammerhead_repro::hh_types::ValidatorId;

fn main() {
    let committee = 8;
    let mut config = ExperimentConfig::paper(SystemKind::Hammerhead, committee, 200);
    config.duration_secs = 40;
    config.warmup_secs = 2;
    // v7 crashed from the start; v6 slow (+500ms) from t=10s.
    config.faults = FaultPlan::new().crash_from_start([NodeId(7)]).slowdown(SlowdownSpec {
        node: NodeId(6),
        from: SimTime::from_secs(10),
        until: SimTime::MAX,
        extra: Duration::from_millis(500),
    });

    println!("8 validators: v7 crashed from t=0, v6 slowed (+500ms) from t=10s\n");
    let mut handle = build_sim(&config);
    handle.sim.run_until(SimTime::from_secs(40));

    let v0 = handle.validator(0);
    let policy = v0.hammerhead_policy().expect("hammerhead configured");

    println!("epoch history ({} switches):", policy.epoch());
    for summary in policy.epoch_history() {
        let scores: Vec<String> =
            summary.final_scores.iter().enumerate().map(|(i, s)| format!("v{i}:{s}")).collect();
        println!(
            "  epoch {:>2} -> switch at round {:>4}: scores [{}]",
            summary.epoch,
            summary.new_initial_round.0,
            scores.join(" ")
        );
        println!("           excluded {:?}  promoted {:?}", summary.excluded, summary.promoted);
    }

    println!("\nfinal slot ownership:");
    let schedule = policy.active_schedule();
    for i in 0..committee {
        let id = ValidatorId(i as u16);
        let slots = schedule.slot_count(id);
        let marker = match i {
            7 => " (crashed)",
            6 => " (slowed)",
            _ => "",
        };
        println!("  v{i}: {slots} slot(s){marker}");
    }

    // The crashed validator must have been swapped out.
    assert_eq!(schedule.slot_count(ValidatorId(7)), 0, "crashed validator still owns leader slots");
    println!("\ncrashed validator v7 owns no leader slots: reputation did its job");
}
