//! Whole-system simulation harness.
//!
//! Assembles [`hammerhead::Validator`] nodes and workload-driven load
//! generators on the deterministic discrete-event network (`hh-net`),
//! reproducing — and generalizing — the paper's measurement methodology
//! (§5):
//!
//! * geo-distributed validators (13 AWS regions, round-robin assignment);
//! * benchmark clients co-located with live validators, driven by a
//!   [`Workload`]: a timeline of deterministic arrival processes
//!   (constant, Poisson, on/off bursts, linear ramps), closed-loop
//!   (windowed) or open-loop submission, configurable modeled payload
//!   bytes and per-client heterogeneity — the paper's fixed-rate client
//!   is [`Workload::constant`], the default;
//! * *latency* = client submission → execution finality of the
//!   transaction; *throughput* = distinct transactions over the run;
//!   byte goodput weighs each transaction by its modeled wire size;
//! * one [`hh_net::FaultPlan`] per run: crash faults from t=0 (Fig. 2),
//!   mid-run crashes with WAL-backed recovery, slowdown faults (the §1
//!   incident) and partitions, validated up front and executed by the
//!   network simulator as given;
//! * a [`ByzantineSchedule`] of strategic adversaries attacking the
//!   reputation mechanism — equivocation, vote withholding, lazy
//!   leadership, flip-flopping — lowered to [`ByzantineBehavior`] hooks
//!   that rewrite an attacker's network boundary while its validator
//!   logic stays honest;
//! * one [`hh_net::ChaosPlan`] of adverse-network windows — probabilistic
//!   frame drop, duplication, in-flight byte corruption (rejected at
//!   the receiving codec) and reorder, scoped per link, node or the
//!   whole mesh — executed on the run's seeded RNG and restricted to
//!   validator links, so chaos-free runs stay bit-identical;
//! * an agreement audit across all live validators' commit sequences after
//!   every run, hardened by an always-on [`SafetyChecker`] asserting no
//!   fork, `(round, author)` slot uniqueness and commit monotonicity
//!   across WAL replays (safety is checked on every experiment, not
//!   assumed — a violation aborts the run with a diagnostic dump).
//!
//! # Example
//!
//! ```
//! use hh_sim::{ExperimentConfig, SystemKind, run_experiment};
//!
//! let mut config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
//! config.committee_size = 4;
//! config.load_tps = 100;
//! let result = run_experiment(&config);
//! assert!(result.agreement_ok);
//! assert!(result.commits > 0);
//! ```
//!
//! Shaping the load instead of fixing a rate:
//!
//! ```
//! use hh_sim::{
//!     run_experiment, Arrival, ExperimentConfig, Phase, SubmissionMode, SystemKind, Workload,
//! };
//!
//! let mut config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
//! config.workload = Workload {
//!     // Open-loop Poisson arrivals with 256-byte payloads.
//!     phases: vec![Phase { from_us: 0, arrival: Arrival::Poisson { scale: 1.0 } }],
//!     mode: SubmissionMode::Open,
//!     payload_bytes: 256,
//!     spread: 1.0,
//! };
//! config.workload.validate().expect("runnable workload");
//! let result = run_experiment(&config);
//! assert!(result.agreement_ok);
//! assert!(result.bytes_committed > 0);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

mod actor;
mod byzantine;
mod experiment;
mod metrics;
pub mod prof;
mod safety;
mod sink;
mod timeseries;
mod workload;

pub use actor::{Actor, Client, NetMessage, MIN_CLIENT_WINDOW};
pub use byzantine::{
    ByzantineBehavior, ByzantineEntry, ByzantineSchedule, ByzantineScheduleError,
    ByzantineStrategy, BYZANTINE_TOKEN_BASE,
};
pub use experiment::{
    build_sim, collect_metrics, collect_streamed_metrics, run_experiment, run_experiment_limited,
    run_sim_limited, run_sim_streaming, ExperimentConfig, RecoverySample, RunLimit, RunResult,
    SimHandle, SystemKind,
};
pub use metrics::LatencySummary;
pub use safety::{SafetyChecker, SafetyViolation};
pub use sink::{MetricsSink, StreamingHistogram};
pub use timeseries::{Bucket, TimeSeries};
pub use workload::{
    Arrival, ArrivalKind, Phase, RateNow, SubmissionMode, Workload, WorkloadError,
    MAX_PAYLOAD_BYTES,
};
