//! The scenario schema: parsing, validation and expansion into concrete
//! [`ExperimentConfig`]s.
//!
//! A scenario file is declarative: it names the committee/load/duration/
//! seed *axes* (scalar or list — lists expand to the cross product), the
//! system variants to compare, the fault schedule, and optional analyses.
//! [`ScenarioSpec::parse`] rejects unknown keys and invalid parameter
//! combinations up front, so a typo'd knob fails loudly instead of
//! silently running the default. The full schema is documented in
//! `docs/scenarios.md`.

use crate::toml::{self, TomlError, Value};
use hammerhead::{HammerheadConfig, ScheduleConfig, ScoringRule};
use hh_net::{
    ChaosPlan, ChaosScope, ChaosWindow, Duration, FaultPlan, NodeId, PartitionSpec, SimTime,
    SlowdownSpec,
};
use hh_sim::{
    Arrival, ByzantineSchedule, ExperimentConfig, Phase, SubmissionMode, SystemKind, Workload,
    MAX_PAYLOAD_BYTES,
};
use hh_types::{Committee, Stake, ValidatorId, TX_HEADER_BYTES};
use std::collections::BTreeMap;
use std::fmt;

/// Anything that can go wrong turning scenario text into a run plan.
#[derive(Clone, Debug)]
pub enum ScenarioError {
    /// The TOML itself does not parse.
    Toml(TomlError),
    /// The TOML parses but does not match the schema.
    Schema(String),
    /// The spec matches the schema but describes an unrunnable experiment.
    Invalid(String),
    /// Reading the scenario file failed.
    Io(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Toml(e) => write!(f, "{e}"),
            ScenarioError::Schema(m) => write!(f, "schema error: {m}"),
            ScenarioError::Invalid(m) => write!(f, "invalid scenario: {m}"),
            ScenarioError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<TomlError> for ScenarioError {
    fn from(e: TomlError) -> Self {
        ScenarioError::Toml(e)
    }
}

/// Which system a variant benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemSpec {
    /// Static stake-weighted round-robin Bullshark (the baseline).
    Bullshark,
    /// HammerHead reputation scheduling.
    Hammerhead,
    /// One pinned leader (the §7 extreme; ablations only).
    StaticLeader,
}

impl SystemSpec {
    fn parse(s: &str) -> Result<Self, ScenarioError> {
        match s {
            "bullshark" | "round-robin" => Ok(SystemSpec::Bullshark),
            "hammerhead" => Ok(SystemSpec::Hammerhead),
            "static-leader" => Ok(SystemSpec::StaticLeader),
            other => Err(ScenarioError::Schema(format!(
                "unknown system `{other}` (expected bullshark, hammerhead or static-leader)"
            ))),
        }
    }

    /// The label used in output rows.
    pub fn label(self) -> &'static str {
        match self {
            SystemSpec::Bullshark => "bullshark",
            SystemSpec::Hammerhead => "hammerhead",
            SystemSpec::StaticLeader => "static-leader",
        }
    }
}

/// The link-latency model of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NetworkSpec {
    /// The paper's 13-region AWS matrix.
    Geo,
    /// A flat network with the given constant one-way delay.
    Flat {
        /// One-way delay in milliseconds.
        ms: u64,
    },
}

/// The schedule-exclusion budget (set `B`'s stake bound).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExclusionSpec {
    /// The committee's `f` (the paper's benchmark setting).
    F,
    /// A percentage of total committee stake (Sui mainnet runs 20%).
    Pct(u64),
    /// An absolute stake amount.
    Stake(u64),
}

impl ExclusionSpec {
    fn to_config(self, committee: &Committee) -> Option<Stake> {
        match self {
            ExclusionSpec::F => None,
            ExclusionSpec::Pct(pct) => Some(Stake(committee.total_stake().0 * pct / 100)),
            ExclusionSpec::Stake(s) => Some(Stake(s)),
        }
    }

    fn label(self) -> String {
        match self {
            ExclusionSpec::F => "f".to_string(),
            ExclusionSpec::Pct(p) => format!("{p}%"),
            ExclusionSpec::Stake(s) => format!("stake{s}"),
        }
    }
}

/// Parses a scoring-rule name (`vote-based`, `leader-outcome`,
/// `vote-ema-<alpha>`).
pub fn parse_scoring(s: &str) -> Result<ScoringRule, ScenarioError> {
    if s == "vote-based" {
        return Ok(ScoringRule::VoteBased);
    }
    if s == "leader-outcome" {
        return Ok(ScoringRule::LeaderOutcome);
    }
    if let Some(alpha) = s.strip_prefix("vote-ema-") {
        let alpha_percent: u8 = alpha
            .parse()
            .map_err(|_| ScenarioError::Schema(format!("bad vote-ema alpha in `{s}`")))?;
        return Ok(ScoringRule::VoteEma { alpha_percent });
    }
    Err(ScenarioError::Schema(format!(
        "unknown scoring rule `{s}` (expected vote-based, leader-outcome or vote-ema-<alpha>)"
    )))
}

/// Formats a scoring rule back to its scenario-file name.
pub fn scoring_name(rule: ScoringRule) -> String {
    match rule {
        ScoringRule::VoteBased => "vote-based".to_string(),
        ScoringRule::LeaderOutcome => "leader-outcome".to_string(),
        ScoringRule::VoteEma { alpha_percent } => format!("vote-ema-{alpha_percent}"),
    }
}

/// A validator count: absolute, or derived from the committee size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CountExpr {
    /// Exactly this many validators.
    Abs(u64),
    /// `max(1, committee_size / k)` — "one in every k", as in the paper's
    /// "10% of validators" (`"n/10"`) or "maximum tolerable faults"
    /// (`"n/3"`).
    DivN(u64),
}

impl CountExpr {
    fn parse(value: &Value) -> Result<Self, ScenarioError> {
        match value {
            Value::Int(i) if *i >= 0 => Ok(CountExpr::Abs(*i as u64)),
            Value::Str(s) => {
                let k = s
                    .strip_prefix("n/")
                    .and_then(|k| k.parse::<u64>().ok())
                    .filter(|k| *k > 0)
                    .ok_or_else(|| {
                        ScenarioError::Schema(format!(
                            "bad count `{s}` (expected an integer or \"n/<k>\")"
                        ))
                    })?;
                Ok(CountExpr::DivN(k))
            }
            other => Err(ScenarioError::Schema(format!(
                "bad count `{other:?}` (expected an integer or \"n/<k>\")"
            ))),
        }
    }

    /// Resolves against a committee size.
    pub fn resolve(self, committee_size: usize) -> usize {
        match self {
            CountExpr::Abs(k) => k as usize,
            CountExpr::DivN(k) => (committee_size / k as usize).max(1),
        }
    }

    fn to_value(self) -> Value {
        match self {
            CountExpr::Abs(k) => Value::Int(k as i64),
            CountExpr::DivN(k) => Value::Str(format!("n/{k}")),
        }
    }
}

/// One named system configuration under test.
#[derive(Clone, Debug, PartialEq)]
pub struct VariantSpec {
    /// Output label for this variant's rows.
    pub label: String,
    /// System override (defaults to hammerhead).
    pub system: SystemSpec,
    /// Pinned leader for [`SystemSpec::StaticLeader`].
    pub static_leader: u16,
    /// Scoring-rule override.
    pub scoring: Option<ScoringRule>,
    /// Period override.
    pub period_rounds: Option<u64>,
    /// Exclusion-budget override.
    pub exclusion: Option<ExclusionSpec>,
}

/// When a fault event fires or a window opens/closes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WhenSpec {
    /// At an absolute simulated second.
    Secs(u64),
    /// At this fraction of the run duration (resolved per-run, so a
    /// "degrade halfway" scenario scales with `--duration`).
    Frac(f64),
}

impl WhenSpec {
    /// Resolves to microseconds of simulated time for a run of
    /// `duration_secs`.
    pub fn resolve_us(self, duration_secs: u64) -> u64 {
        match self {
            WhenSpec::Secs(secs) => secs * 1_000_000,
            WhenSpec::Frac(frac) => (duration_secs as f64 * frac * 1e6) as u64,
        }
    }
}

/// Which validators a fault hits.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeSel {
    /// Explicit validator ids.
    Ids(Vec<u16>),
    /// The first `count` validators (low ids hold early leader slots).
    First(CountExpr),
}

/// One slowdown window from the scenario's fault schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct SlowdownEntry {
    /// Affected validators.
    pub nodes: NodeSel,
    /// Window start.
    pub at: WhenSpec,
    /// Window end; `None` degrades until the end of the run.
    pub until: Option<WhenSpec>,
    /// Extra one-way delay while degraded, in milliseconds.
    pub extra_ms: u64,
}

/// One timed crash or recovery event (`[[faults.crash]]` /
/// `[[faults.recover]]`).
#[derive(Clone, Debug, PartialEq)]
pub struct TimedFaultEntry {
    /// Affected validators.
    pub nodes: NodeSel,
    /// When the event fires.
    pub at: WhenSpec,
}

/// Which validators a partition cuts off from the rest.
#[derive(Clone, Debug, PartialEq)]
pub enum PartitionSel {
    /// Explicit groups on each side of the cut.
    Groups {
        /// One side.
        a: Vec<u16>,
        /// The other side.
        b: Vec<u16>,
    },
    /// The first `count` validators against everyone else (scales with
    /// the committee axis).
    IsolateFirst(CountExpr),
}

/// One partition window (`[[faults.partition]]`).
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionEntry {
    /// The cut.
    pub sel: PartitionSel,
    /// Window start.
    pub from: WhenSpec,
    /// Heal time.
    pub until: WhenSpec,
}

/// The strategy of one `[[faults.byzantine]]` entry — the declarative
/// form of [`hh_sim::ByzantineStrategy`], with times in scenario units
/// (ms delays, whole-second flip periods).
#[derive(Clone, Debug, PartialEq)]
pub enum ByzantineStrategySpec {
    /// Broadcast a conflicting twin before every own vertex.
    Equivocate,
    /// Drop inbound vertex pushes from `targets`, forcing own proposals
    /// to wait for the slowest quorum.
    WithholdVotes {
        /// Victim validators whose pushes are ignored (≤ f of them).
        targets: Vec<u16>,
    },
    /// Hold every own broadcast back by a fixed delay.
    LazyLeader {
        /// Delay in milliseconds.
        delay_ms: u64,
    },
    /// Alternate honest and lazy half-periods.
    FlipFlop {
        /// Half-period length in seconds.
        flip_secs: u64,
        /// Delay in milliseconds during lazy half-periods.
        delay_ms: u64,
    },
}

/// One byzantine window (`[[faults.byzantine]]`).
#[derive(Clone, Debug, PartialEq)]
pub struct ByzantineEntrySpec {
    /// The attacker.
    pub node: u16,
    /// What it does.
    pub strategy: ByzantineStrategySpec,
    /// Window start.
    pub from: WhenSpec,
    /// Window end (`None` = until the run ends).
    pub until: Option<WhenSpec>,
}

/// One chaos window (`[[faults.chaos]]`) — the declarative form of
/// [`hh_net::ChaosWindow`], with the reorder bound in milliseconds.
///
/// Scope defaults to every link; `node` narrows it to one validator's
/// links (inbound and outbound), `link` to one directed pair.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosWindowSpec {
    /// Afflict only this validator's links, when set.
    pub node: Option<u16>,
    /// Afflict only the directed `(from, to)` link, when set.
    pub link: Option<(u16, u16)>,
    /// Window start.
    pub from: WhenSpec,
    /// Window end (`None` = until the run ends).
    pub until: Option<WhenSpec>,
    /// Probability a frame is dropped outright.
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame's encoded bytes are flipped in flight.
    pub corrupt: f64,
    /// Maximum extra per-frame delay in milliseconds, drawn uniformly.
    pub reorder_ms: u64,
}

/// The scenario's fault schedule — the declarative form of
/// [`hh_net::FaultPlan`] and [`hh_net::ChaosPlan`] (plus the byzantine
/// windows), resolved per planned run (committee size and duration fix
/// the `n/k` counts and `*_frac` times).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultsSpec {
    /// Explicitly crashed validator ids (from t=0).
    pub crashed: Vec<u16>,
    /// Crash the last `count` validators from t=0 (Fig. 2's setting).
    pub crash_last: Option<CountExpr>,
    /// Slowdown windows (the §1 incident's shape).
    pub slowdowns: Vec<SlowdownEntry>,
    /// Mid-run crash events.
    pub crashes: Vec<TimedFaultEntry>,
    /// Recovery events (each must follow a crash of the same validator;
    /// recovered nodes replay their WAL through `Validator::on_restart`).
    pub recovers: Vec<TimedFaultEntry>,
    /// Partition windows.
    pub partitions: Vec<PartitionEntry>,
    /// Byzantine strategy windows (the adversary suite).
    pub byzantine: Vec<ByzantineEntrySpec>,
    /// Adverse-network chaos windows (frame drop / duplicate / corrupt /
    /// reorder on selected links).
    pub chaos: Vec<ChaosWindowSpec>,
}

/// The arrival process of a `[workload]` table or `[[workload.phase]]`
/// entry — the declarative form of [`hh_sim::Arrival`], with rates as
/// scales on the run's `[load] tps` axis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalSpec {
    /// Fixed-rate with ±10% jitter (the `[load] tps` sugar).
    Constant,
    /// Exponential inter-arrivals at the same mean rate.
    Poisson,
    /// `burst_secs` on at the scaled rate, `idle_secs` off, repeating.
    OnOff {
        /// Burst length, seconds.
        burst_secs: f64,
        /// Idle gap, seconds.
        idle_secs: f64,
    },
    /// Rate interpolated linearly across the phase (or whole run).
    Ramp {
        /// Scale at the phase start (default 0).
        from_scale: f64,
        /// Scale at the phase end.
        to_scale: f64,
    },
}

/// The rate of one workload phase, relative or absolute.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RateSpec {
    /// A multiplier on the run's `[load] tps` value (sweeps with the
    /// load axis).
    Scale(f64),
    /// An absolute rate in tx/s (divided by the run's load to recover
    /// the scale; requires a non-zero load).
    Tps(u64),
}

/// One `[[workload.phase]]` entry.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadPhaseSpec {
    /// Phase start (`from_secs` / `from_frac`); the first phase must
    /// start at 0.
    pub from: WhenSpec,
    /// The phase's rate (ignored by [`ArrivalSpec::Ramp`], which
    /// carries its own scales).
    pub rate: RateSpec,
    /// The arrival process in force.
    pub arrival: ArrivalSpec,
}

/// The `[workload]` table — the declarative form of
/// [`hh_sim::Workload`], resolved per planned run (duration fixes
/// `from_frac` instants, the load axis fixes absolute `tps` rates).
///
/// A scenario without this table desugars to a constant closed-loop
/// workload at the `[load] tps` rate — the historical client, bit for
/// bit.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Whether the scenario wrote a `[workload]` table at all. Only
    /// declared workloads add the per-run `workload` block (offered vs
    /// accepted vs committed goodput, shed rate, byte goodput) to the
    /// report, keeping legacy scenario JSON byte-identical.
    pub declared: bool,
    /// Open- vs closed-loop submission.
    pub mode: SubmissionMode,
    /// Modeled payload bytes per transaction.
    pub payload_bytes: u32,
    /// Heaviest/lightest per-client rate ratio (1 = uniform).
    pub spread: f64,
    /// Proposer block byte bound, when set.
    pub block_bytes: Option<u64>,
    /// Single-phase arrival process (used when `phases` is empty).
    pub arrival: ArrivalSpec,
    /// Multi-phase timeline; non-empty replaces `arrival`.
    pub phases: Vec<WorkloadPhaseSpec>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            declared: false,
            mode: SubmissionMode::Closed,
            payload_bytes: 0,
            spread: 1.0,
            block_bytes: None,
            arrival: ArrivalSpec::Constant,
            phases: Vec::new(),
        }
    }
}

impl WorkloadSpec {
    fn lower_arrival(arrival: &ArrivalSpec, scale: f64) -> Arrival {
        match *arrival {
            ArrivalSpec::Constant => Arrival::Constant { scale },
            ArrivalSpec::Poisson => Arrival::Poisson { scale },
            ArrivalSpec::OnOff { burst_secs, idle_secs } => {
                Arrival::OnOff { scale, burst_secs, idle_secs }
            }
            ArrivalSpec::Ramp { from_scale, to_scale } => Arrival::Ramp { from_scale, to_scale },
        }
    }

    /// Resolves the declarative workload against a run of `duration`
    /// seconds at `load_tps` offered load into the concrete
    /// [`hh_sim::Workload`], and validates the result. An undeclared
    /// workload lowers to exactly [`Workload::constant`] — the `[load]
    /// tps` sugar.
    pub fn build(&self, duration: u64, load_tps: u64) -> Result<Workload, ScenarioError> {
        let duration_us = duration.saturating_mul(1_000_000);
        let phases = if self.phases.is_empty() {
            vec![Phase { from_us: 0, arrival: Self::lower_arrival(&self.arrival, 1.0) }]
        } else {
            let mut phases = Vec::with_capacity(self.phases.len());
            for spec in &self.phases {
                let scale = match spec.rate {
                    RateSpec::Scale(s) => s,
                    RateSpec::Tps(tps) => {
                        if load_tps == 0 {
                            return Err(ScenarioError::Invalid(
                                "a workload phase gives an absolute tps but the load axis \
                                 is 0 — use `scale`, or set [load] tps"
                                    .into(),
                            ));
                        }
                        tps as f64 / load_tps as f64
                    }
                };
                phases.push(Phase {
                    from_us: spec.from.resolve_us(duration),
                    arrival: Self::lower_arrival(&spec.arrival, scale),
                });
            }
            // Ordering of the resolved starts (mixed secs/frac pairs
            // escape the parse-time check) is enforced by
            // `Workload::validate` below.
            if let Some(late) = phases.iter().find(|p| p.from_us >= duration_us) {
                return Err(ScenarioError::Invalid(format!(
                    "workload phase at {} µs starts at or after the {duration}s run ends",
                    late.from_us
                )));
            }
            phases
        };
        let workload = Workload {
            phases,
            mode: self.mode,
            payload_bytes: self.payload_bytes,
            spread: self.spread,
        };
        workload.validate().map_err(|e| ScenarioError::Invalid(format!("workload: {e}")))?;
        Ok(workload)
    }
}

/// A named latency-measurement window over submission times.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowSpec {
    /// Window name in the report.
    pub name: String,
    /// Start, as a fraction of the run duration (inclusive).
    pub from_frac: f64,
    /// End, as a fraction of the run duration (exclusive).
    pub to_frac: f64,
}

/// Extra per-run analyses beyond the standard metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AnalysisSpec {
    /// Latency percentiles per named submission-time window.
    pub windows: Vec<WindowSpec>,
    /// Count even rounds ≤ the last committed anchor with no committed
    /// anchor (the Lemma 6 "skipped leader rounds" metric).
    pub skipped_rounds: bool,
    /// Report per-epoch B/G churn from the schedule history.
    pub schedule_churn: bool,
    /// Per recovered validator: rounds from recovery to its first
    /// post-recovery leader slot and first committed anchor, plus its
    /// score trajectory across epochs (HammerHead runs).
    pub reinclusion: bool,
    /// Per byzantine validator: rounds and epochs until first demotion,
    /// leader-slot share over time, equivocation evidence, and the
    /// honest commit latency alongside (runs with `[[faults.byzantine]]`).
    pub adversary: bool,
    /// Chaos-delivery accounting: frames delivered / dropped /
    /// duplicated / corrupt-rejected / reordered, RBC retransmits spent
    /// digging out, and the safety checker's record and violation counts
    /// (runs with `[[faults.chaos]]`).
    pub chaos: bool,
}

/// Scaled-down axis overrides applied by `--quick`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QuickSpec {
    /// Committee-size axis override.
    pub sizes: Option<Vec<usize>>,
    /// Load axis override.
    pub tps: Option<Vec<u64>>,
    /// Duration axis override.
    pub duration_secs: Option<Vec<u64>>,
    /// Seed axis override.
    pub seeds: Option<Vec<u64>>,
    /// Period axis override.
    pub period_rounds: Option<Vec<u64>>,
}

/// A fully parsed scenario file.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used in output and by `hh-cli list`).
    pub name: String,
    /// Human description.
    pub description: String,
    /// The paper figure/section this scenario reproduces, if any.
    pub figure: Option<String>,
    /// Committee-size axis.
    pub committee_sizes: Vec<usize>,
    /// Offered-load axis (tx/s).
    pub load_tps: Vec<u64>,
    /// Run-length axis (simulated seconds).
    pub duration_secs: Vec<u64>,
    /// Warmup excluded from latency stats; default `max(1, duration/6)`.
    pub warmup_secs: Option<u64>,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// Global Stabilization Time (0 = synchronous, the benchmark setting).
    pub gst_secs: u64,
    /// Client in-flight window in seconds of offered rate.
    pub client_window_secs: f64,
    /// Link-latency model.
    pub network: NetworkSpec,
    /// Systems axis, used when `variants` is empty.
    pub systems: Vec<SystemSpec>,
    /// HammerHead period axis.
    pub period_rounds: Vec<u64>,
    /// HammerHead exclusion-budget axis.
    pub exclusion: Vec<ExclusionSpec>,
    /// HammerHead scoring-rule axis.
    pub scoring: Vec<ScoringRule>,
    /// Seed for the initial schedule permutation.
    pub schedule_seed: u64,
    /// Recompute each epoch's slot swap against the base schedule S0
    /// (the production leader-swap-table semantics; required for
    /// crash-recovery re-inclusion to be observable).
    pub swap_from_base: bool,
    /// The workload shape (`[workload]`; defaults to the `[load] tps`
    /// constant-rate sugar).
    pub workload: WorkloadSpec,
    /// Explicit variants; when non-empty they replace the systems ×
    /// hammerhead-knob axes.
    pub variants: Vec<VariantSpec>,
    /// Fault schedule applied to every run.
    pub faults: FaultsSpec,
    /// Extra analyses.
    pub analysis: AnalysisSpec,
    /// `--quick` overrides.
    pub quick: QuickSpec,
}

// ---------------------------------------------------------------------------
// Strict table reading
// ---------------------------------------------------------------------------

fn check_keys(
    table: &BTreeMap<String, Value>,
    context: &str,
    allowed: &[&str],
) -> Result<(), ScenarioError> {
    for key in table.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(ScenarioError::Schema(format!(
                "unknown key `{key}` in {context} (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn get_table<'a>(
    table: &'a BTreeMap<String, Value>,
    key: &str,
) -> Result<Option<&'a BTreeMap<String, Value>>, ScenarioError> {
    match table.get(key) {
        None => Ok(None),
        Some(Value::Table(t)) => Ok(Some(t)),
        Some(other) => {
            Err(ScenarioError::Schema(format!("`{key}` must be a table, got {other:?}")))
        }
    }
}

fn get_str(
    table: &BTreeMap<String, Value>,
    key: &str,
    context: &str,
) -> Result<Option<String>, ScenarioError> {
    match table.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(other) => {
            Err(ScenarioError::Schema(format!("`{context}.{key}` must be a string, got {other:?}")))
        }
    }
}

fn get_u64(
    table: &BTreeMap<String, Value>,
    key: &str,
    context: &str,
) -> Result<Option<u64>, ScenarioError> {
    match table.get(key) {
        None => Ok(None),
        Some(Value::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
        Some(other) => Err(ScenarioError::Schema(format!(
            "`{context}.{key}` must be a non-negative integer, got {other:?}"
        ))),
    }
}

fn get_f64(
    table: &BTreeMap<String, Value>,
    key: &str,
    context: &str,
) -> Result<Option<f64>, ScenarioError> {
    match table.get(key) {
        None => Ok(None),
        Some(Value::Float(x)) => Ok(Some(*x)),
        Some(Value::Int(i)) => Ok(Some(*i as f64)),
        Some(other) => {
            Err(ScenarioError::Schema(format!("`{context}.{key}` must be a number, got {other:?}")))
        }
    }
}

fn get_bool(
    table: &BTreeMap<String, Value>,
    key: &str,
    context: &str,
) -> Result<Option<bool>, ScenarioError> {
    match table.get(key) {
        None => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(other) => Err(ScenarioError::Schema(format!(
            "`{context}.{key}` must be a boolean, got {other:?}"
        ))),
    }
}

/// Reads a scalar-or-list axis of non-negative integers.
fn get_u64_axis(
    table: &BTreeMap<String, Value>,
    key: &str,
    context: &str,
) -> Result<Option<Vec<u64>>, ScenarioError> {
    let to_u64 = |v: &Value| -> Result<u64, ScenarioError> {
        match v {
            Value::Int(i) if *i >= 0 => Ok(*i as u64),
            other => Err(ScenarioError::Schema(format!(
                "`{context}.{key}` entries must be non-negative integers, got {other:?}"
            ))),
        }
    };
    match table.get(key) {
        None => Ok(None),
        Some(Value::Array(items)) => {
            if items.is_empty() {
                return Err(ScenarioError::Schema(format!("`{context}.{key}` must not be empty")));
            }
            Ok(Some(items.iter().map(to_u64).collect::<Result<_, _>>()?))
        }
        Some(v) => Ok(Some(vec![to_u64(v)?])),
    }
}

fn get_str_axis(
    table: &BTreeMap<String, Value>,
    key: &str,
    context: &str,
) -> Result<Option<Vec<String>>, ScenarioError> {
    match table.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(vec![s.clone()])),
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| match v {
                Value::Str(s) => Ok(s.clone()),
                other => Err(ScenarioError::Schema(format!(
                    "`{context}.{key}` entries must be strings, got {other:?}"
                ))),
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
        Some(other) => Err(ScenarioError::Schema(format!(
            "`{context}.{key}` must be a string or list of strings, got {other:?}"
        ))),
    }
}

/// Reads the entries of an array-of-tables key (`[[faults.crash]]`
/// style); absent keys yield an empty list.
fn get_entry_tables<'a>(
    table: &'a BTreeMap<String, Value>,
    key: &str,
    context: &str,
) -> Result<Vec<&'a BTreeMap<String, Value>>, ScenarioError> {
    match table.get(key) {
        None => Ok(Vec::new()),
        Some(Value::Array(items)) => items
            .iter()
            .map(|item| {
                item.as_table().ok_or_else(|| {
                    ScenarioError::Schema(format!("{context} entries must be tables"))
                })
            })
            .collect(),
        Some(other) => Err(ScenarioError::Schema(format!(
            "`{context}` must be an array of tables, got {other:?}"
        ))),
    }
}

/// Reads the `nodes` (id list) / `first` (count) validator selector of a
/// fault entry.
fn get_node_sel(table: &BTreeMap<String, Value>, context: &str) -> Result<NodeSel, ScenarioError> {
    match (table.get("nodes"), table.get("first")) {
        (Some(Value::Array(ids)), None) => Ok(NodeSel::Ids(
            ids.iter()
                .map(|v| match v {
                    Value::Int(i) if *i >= 0 => Ok(*i as u16),
                    other => Err(ScenarioError::Schema(format!(
                        "bad validator id {other:?} in {context}.nodes"
                    ))),
                })
                .collect::<Result<_, _>>()?,
        )),
        (None, Some(v)) => Ok(NodeSel::First(CountExpr::parse(v)?)),
        _ => Err(ScenarioError::Schema(format!(
            "{context} needs exactly one of `nodes` (id list) or `first` (count)"
        ))),
    }
}

/// Reads an optional `<prefix>_secs` / `<prefix>_frac` instant.
fn get_when(
    table: &BTreeMap<String, Value>,
    prefix: &str,
    context: &str,
) -> Result<Option<WhenSpec>, ScenarioError> {
    let secs_key = format!("{prefix}_secs");
    let frac_key = format!("{prefix}_frac");
    match (get_u64(table, &secs_key, context)?, get_f64(table, &frac_key, context)?) {
        (Some(secs), None) => Ok(Some(WhenSpec::Secs(secs))),
        (None, Some(frac)) => Ok(Some(WhenSpec::Frac(frac))),
        (None, None) => Ok(None),
        _ => Err(ScenarioError::Schema(format!("{context} sets both {secs_key} and {frac_key}"))),
    }
}

/// Reads an optional list of validator ids.
fn get_id_list(
    table: &BTreeMap<String, Value>,
    key: &str,
    context: &str,
) -> Result<Option<Vec<u16>>, ScenarioError> {
    match table.get(key) {
        None => Ok(None),
        Some(Value::Array(ids)) => ids
            .iter()
            .map(|v| match v {
                Value::Int(i) if *i >= 0 => Ok(*i as u16),
                other => Err(ScenarioError::Schema(format!(
                    "bad validator id {other:?} in {context}.{key}"
                ))),
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
        Some(other) => Err(ScenarioError::Schema(format!(
            "`{context}.{key}` must be a list of validator ids, got {other:?}"
        ))),
    }
}

/// Keys that configure an arrival process, shared by `[workload]` and
/// `[[workload.phase]]`.
const ARRIVAL_PARAM_KEYS: &[&str] =
    &["burst_secs", "idle_secs", "ramp_from_scale", "ramp_to_scale"];

/// Reads the arrival process of a `[workload]` table or phase entry.
fn get_arrival(
    table: &BTreeMap<String, Value>,
    context: &str,
) -> Result<ArrivalSpec, ScenarioError> {
    let name = get_str(table, "arrival", context)?.unwrap_or_else(|| "constant".into());
    let forbid = |keys: &[&str]| -> Result<(), ScenarioError> {
        for key in keys {
            if table.contains_key(*key) {
                return Err(ScenarioError::Schema(format!(
                    "`{context}.{key}` does not apply to arrival = \"{name}\""
                )));
            }
        }
        Ok(())
    };
    match name.as_str() {
        "constant" => {
            forbid(ARRIVAL_PARAM_KEYS)?;
            Ok(ArrivalSpec::Constant)
        }
        "poisson" => {
            forbid(ARRIVAL_PARAM_KEYS)?;
            Ok(ArrivalSpec::Poisson)
        }
        "onoff" => {
            forbid(&["ramp_from_scale", "ramp_to_scale"])?;
            let burst_secs = get_f64(table, "burst_secs", context)?.ok_or_else(|| {
                ScenarioError::Schema(format!("{context} arrival = \"onoff\" requires burst_secs"))
            })?;
            let idle_secs = get_f64(table, "idle_secs", context)?.ok_or_else(|| {
                ScenarioError::Schema(format!("{context} arrival = \"onoff\" requires idle_secs"))
            })?;
            Ok(ArrivalSpec::OnOff { burst_secs, idle_secs })
        }
        "ramp" => {
            forbid(&["burst_secs", "idle_secs"])?;
            let to_scale = get_f64(table, "ramp_to_scale", context)?.ok_or_else(|| {
                ScenarioError::Schema(format!(
                    "{context} arrival = \"ramp\" requires ramp_to_scale"
                ))
            })?;
            Ok(ArrivalSpec::Ramp {
                from_scale: get_f64(table, "ramp_from_scale", context)?.unwrap_or(0.0),
                to_scale,
            })
        }
        other => Err(ScenarioError::Schema(format!(
            "unknown arrival process `{other}` (expected constant, poisson, onoff or ramp)"
        ))),
    }
}

fn axis_u64_value(xs: &[u64]) -> Value {
    if xs.len() == 1 {
        Value::Int(xs[0] as i64)
    } else {
        Value::Array(xs.iter().map(|x| Value::Int(*x as i64)).collect())
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

impl ScenarioSpec {
    /// Parses and validates scenario TOML text.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        Self::from_value(&toml::parse(text)?)
    }

    /// Builds a spec from an already-parsed TOML document (the hook
    /// `hh-cli --set` uses to patch knobs before schema validation).
    pub fn from_value(root_value: &Value) -> Result<Self, ScenarioError> {
        let root = root_value
            .as_table()
            .ok_or_else(|| ScenarioError::Schema("scenario root must be a table".into()))?;
        check_keys(
            root,
            "the scenario root",
            &[
                "name",
                "description",
                "figure",
                "committee",
                "load",
                "run",
                "network",
                "systems",
                "hammerhead",
                "workload",
                "variant",
                "faults",
                "analysis",
                "quick",
            ],
        )?;

        let name = get_str(root, "name", "scenario")?
            .ok_or_else(|| ScenarioError::Schema("missing required key `name`".into()))?;
        let description = get_str(root, "description", "scenario")?.unwrap_or_default();
        let figure = get_str(root, "figure", "scenario")?;

        // [committee]
        let committee = get_table(root, "committee")?;
        let committee_sizes = match committee {
            Some(t) => {
                check_keys(t, "[committee]", &["size", "sizes"])?;
                if t.contains_key("size") && t.contains_key("sizes") {
                    return Err(ScenarioError::Schema(
                        "set only one of committee.size / committee.sizes".into(),
                    ));
                }
                let axis = get_u64_axis(t, "sizes", "committee")?.or(get_u64_axis(
                    t,
                    "size",
                    "committee",
                )?);
                axis.map(|xs| xs.into_iter().map(|x| x as usize).collect())
                    .unwrap_or_else(|| vec![10])
            }
            None => vec![10],
        };

        // [load]
        let load_tps = match get_table(root, "load")? {
            Some(t) => {
                check_keys(t, "[load]", &["tps"])?;
                get_u64_axis(t, "tps", "load")?.unwrap_or_else(|| vec![500])
            }
            None => vec![500],
        };

        // [run]
        let (duration_secs, warmup_secs, seeds, gst_secs, client_window_secs) =
            match get_table(root, "run")? {
                Some(t) => {
                    check_keys(
                        t,
                        "[run]",
                        &[
                            "duration_secs",
                            "warmup_secs",
                            "seed",
                            "seeds",
                            "gst_secs",
                            "client_window_secs",
                        ],
                    )?;
                    if t.contains_key("seed") && t.contains_key("seeds") {
                        return Err(ScenarioError::Schema(
                            "set only one of run.seed / run.seeds".into(),
                        ));
                    }
                    (
                        get_u64_axis(t, "duration_secs", "run")?.unwrap_or_else(|| vec![60]),
                        get_u64(t, "warmup_secs", "run")?,
                        get_u64_axis(t, "seeds", "run")?
                            .or(get_u64_axis(t, "seed", "run")?)
                            .unwrap_or_else(|| vec![42]),
                        get_u64(t, "gst_secs", "run")?.unwrap_or(0),
                        get_f64(t, "client_window_secs", "run")?.unwrap_or(2.0),
                    )
                }
                None => (vec![60], None, vec![42], 0, 2.0),
            };

        // [network]
        let network = match get_table(root, "network")? {
            Some(t) => {
                check_keys(t, "[network]", &["model", "flat_ms"])?;
                let model = get_str(t, "model", "network")?.unwrap_or_else(|| "geo".into());
                match model.as_str() {
                    "geo" => {
                        if t.contains_key("flat_ms") {
                            return Err(ScenarioError::Schema(
                                "`network.flat_ms` only applies to model = \"flat\"".into(),
                            ));
                        }
                        NetworkSpec::Geo
                    }
                    "flat" => {
                        NetworkSpec::Flat { ms: get_u64(t, "flat_ms", "network")?.unwrap_or(5) }
                    }
                    other => {
                        return Err(ScenarioError::Schema(format!(
                            "unknown network model `{other}` (expected geo or flat)"
                        )))
                    }
                }
            }
            None => NetworkSpec::Geo,
        };

        // [systems]
        let systems = match get_table(root, "systems")? {
            Some(t) => {
                check_keys(t, "[systems]", &["run"])?;
                get_str_axis(t, "run", "systems")?
                    .unwrap_or_else(|| vec!["hammerhead".into()])
                    .iter()
                    .map(|s| SystemSpec::parse(s))
                    .collect::<Result<Vec<_>, _>>()?
            }
            None => vec![SystemSpec::Hammerhead],
        };

        // [hammerhead]
        let (period_rounds, exclusion, scoring, schedule_seed, swap_from_base) =
            match get_table(root, "hammerhead")? {
                Some(t) => {
                    check_keys(
                        t,
                        "[hammerhead]",
                        &[
                            "period_rounds",
                            "max_excluded_pct",
                            "max_excluded_stake",
                            "scoring",
                            "schedule_seed",
                            "swap_from_base",
                        ],
                    )?;
                    let pct = get_u64_axis(t, "max_excluded_pct", "hammerhead")?;
                    let stake = get_u64_axis(t, "max_excluded_stake", "hammerhead")?;
                    if pct.is_some() && stake.is_some() {
                        return Err(ScenarioError::Schema(
                            "set only one of hammerhead.max_excluded_pct / max_excluded_stake"
                                .into(),
                        ));
                    }
                    let exclusion = match (pct, stake) {
                        (Some(ps), _) => ps.into_iter().map(ExclusionSpec::Pct).collect(),
                        (_, Some(ss)) => ss.into_iter().map(ExclusionSpec::Stake).collect(),
                        _ => vec![ExclusionSpec::F],
                    };
                    let scoring = get_str_axis(t, "scoring", "hammerhead")?
                        .unwrap_or_else(|| vec!["vote-based".into()])
                        .iter()
                        .map(|s| parse_scoring(s))
                        .collect::<Result<Vec<_>, _>>()?;
                    (
                        get_u64_axis(t, "period_rounds", "hammerhead")?.unwrap_or_else(|| vec![20]),
                        exclusion,
                        scoring,
                        get_u64(t, "schedule_seed", "hammerhead")?.unwrap_or(0),
                        get_bool(t, "swap_from_base", "hammerhead")?.unwrap_or(false),
                    )
                }
                None => (vec![20], vec![ExclusionSpec::F], vec![ScoringRule::VoteBased], 0, false),
            };

        // [workload]
        let workload = match get_table(root, "workload")? {
            Some(t) => {
                check_keys(
                    t,
                    "[workload]",
                    &[
                        "arrival",
                        "mode",
                        "payload_bytes",
                        "spread",
                        "block_bytes",
                        "burst_secs",
                        "idle_secs",
                        "ramp_from_scale",
                        "ramp_to_scale",
                        "phase",
                    ],
                )?;
                let mode = match get_str(t, "mode", "workload")?.as_deref() {
                    None | Some("closed") => SubmissionMode::Closed,
                    Some("open") => SubmissionMode::Open,
                    Some(other) => {
                        return Err(ScenarioError::Schema(format!(
                            "unknown workload mode `{other}` (expected closed or open)"
                        )))
                    }
                };
                let payload_bytes = match get_u64(t, "payload_bytes", "workload")? {
                    Some(b) if b > MAX_PAYLOAD_BYTES as u64 => {
                        return Err(ScenarioError::Invalid(format!(
                            "workload payload_bytes {b} exceeds the {MAX_PAYLOAD_BYTES}-byte cap"
                        )))
                    }
                    Some(b) => b as u32,
                    None => 0,
                };
                let mut phases = Vec::new();
                for p in get_entry_tables(t, "phase", "[[workload.phase]]")? {
                    check_keys(
                        p,
                        "[[workload.phase]]",
                        &[
                            "from_secs",
                            "from_frac",
                            "scale",
                            "tps",
                            "arrival",
                            "burst_secs",
                            "idle_secs",
                            "ramp_from_scale",
                            "ramp_to_scale",
                        ],
                    )?;
                    let arrival = get_arrival(p, "[[workload.phase]]")?;
                    let scale = get_f64(p, "scale", "workload.phase")?;
                    let tps = get_u64(p, "tps", "workload.phase")?;
                    if matches!(arrival, ArrivalSpec::Ramp { .. })
                        && (scale.is_some() || tps.is_some())
                    {
                        return Err(ScenarioError::Schema(
                            "ramp phases take ramp_from_scale / ramp_to_scale, not scale or tps"
                                .into(),
                        ));
                    }
                    let rate = match (scale, tps) {
                        (Some(_), Some(_)) => {
                            return Err(ScenarioError::Schema(
                                "[[workload.phase]] sets both `scale` and `tps`".into(),
                            ))
                        }
                        (Some(s), None) => RateSpec::Scale(s),
                        (None, Some(t)) => RateSpec::Tps(t),
                        (None, None) => RateSpec::Scale(1.0),
                    };
                    phases.push(WorkloadPhaseSpec {
                        from: get_when(p, "from", "[[workload.phase]]")?
                            .unwrap_or(WhenSpec::Secs(0)),
                        rate,
                        arrival,
                    });
                }
                if !phases.is_empty() {
                    for key in ["arrival"].iter().chain(ARRIVAL_PARAM_KEYS) {
                        if t.contains_key(*key) {
                            return Err(ScenarioError::Schema(format!(
                                "`workload.{key}` conflicts with an explicit \
                                 [[workload.phase]] timeline"
                            )));
                        }
                    }
                }
                let arrival = if phases.is_empty() {
                    get_arrival(t, "[workload]")?
                } else {
                    ArrivalSpec::Constant
                };
                WorkloadSpec {
                    declared: true,
                    mode,
                    payload_bytes,
                    spread: get_f64(t, "spread", "workload")?.unwrap_or(1.0),
                    block_bytes: get_u64(t, "block_bytes", "workload")?,
                    arrival,
                    phases,
                }
            }
            None => WorkloadSpec::default(),
        };

        // [[variant]]
        let variants = match root.get("variant") {
            None => Vec::new(),
            Some(Value::Array(items)) => items
                .iter()
                .map(|item| {
                    let t = item.as_table().ok_or_else(|| {
                        ScenarioError::Schema("[[variant]] entries must be tables".into())
                    })?;
                    check_keys(
                        t,
                        "[[variant]]",
                        &[
                            "label",
                            "system",
                            "static_leader",
                            "scoring",
                            "period_rounds",
                            "max_excluded_pct",
                            "max_excluded_stake",
                        ],
                    )?;
                    let label = get_str(t, "label", "variant")?.ok_or_else(|| {
                        ScenarioError::Schema("[[variant]] requires a `label`".into())
                    })?;
                    let system = match get_str(t, "system", "variant")? {
                        Some(s) => SystemSpec::parse(&s)?,
                        None => SystemSpec::Hammerhead,
                    };
                    let pct = get_u64(t, "max_excluded_pct", "variant")?;
                    let stake = get_u64(t, "max_excluded_stake", "variant")?;
                    if pct.is_some() && stake.is_some() {
                        return Err(ScenarioError::Schema(
                            "variant sets both max_excluded_pct and max_excluded_stake".into(),
                        ));
                    }
                    Ok(VariantSpec {
                        label,
                        system,
                        static_leader: get_u64(t, "static_leader", "variant")?.unwrap_or(0) as u16,
                        scoring: get_str(t, "scoring", "variant")?
                            .map(|s| parse_scoring(&s))
                            .transpose()?,
                        period_rounds: get_u64(t, "period_rounds", "variant")?,
                        exclusion: pct.map(ExclusionSpec::Pct).or(stake.map(ExclusionSpec::Stake)),
                    })
                })
                .collect::<Result<Vec<_>, _>>()?,
            Some(other) => {
                return Err(ScenarioError::Schema(format!(
                    "`variant` must be an array of tables ([[variant]]), got {other:?}"
                )))
            }
        };

        // [faults]
        let faults = match get_table(root, "faults")? {
            Some(t) => {
                check_keys(
                    t,
                    "[faults]",
                    &[
                        "crashed",
                        "crash_last",
                        "slowdown",
                        "crash",
                        "recover",
                        "partition",
                        "byzantine",
                        "chaos",
                    ],
                )?;
                let crashed = get_u64_axis(t, "crashed", "faults")?
                    .unwrap_or_default()
                    .into_iter()
                    .map(|x| x as u16)
                    .collect();
                let crash_last = t.get("crash_last").map(CountExpr::parse).transpose()?;

                let mut slowdowns = Vec::new();
                for s in get_entry_tables(t, "slowdown", "[[faults.slowdown]]")? {
                    check_keys(
                        s,
                        "[[faults.slowdown]]",
                        &[
                            "nodes",
                            "first",
                            "at_secs",
                            "at_frac",
                            "until_secs",
                            "until_frac",
                            "extra_ms",
                        ],
                    )?;
                    let extra_ms = get_u64(s, "extra_ms", "faults.slowdown")?.ok_or_else(|| {
                        ScenarioError::Schema("[[faults.slowdown]] requires `extra_ms`".into())
                    })?;
                    slowdowns.push(SlowdownEntry {
                        nodes: get_node_sel(s, "[[faults.slowdown]]")?,
                        at: get_when(s, "at", "[[faults.slowdown]]")?.unwrap_or(WhenSpec::Secs(0)),
                        until: get_when(s, "until", "[[faults.slowdown]]")?,
                        extra_ms,
                    });
                }

                // [[faults.recover]] first, then the `recover_at_*` sugar
                // on [[faults.crash]] desugars into the same list.
                let mut recovers = Vec::new();
                for r in get_entry_tables(t, "recover", "[[faults.recover]]")? {
                    check_keys(r, "[[faults.recover]]", &["nodes", "first", "at_secs", "at_frac"])?;
                    recovers.push(TimedFaultEntry {
                        nodes: get_node_sel(r, "[[faults.recover]]")?,
                        at: get_when(r, "at", "[[faults.recover]]")?.ok_or_else(|| {
                            ScenarioError::Schema(
                                "[[faults.recover]] requires at_secs or at_frac".into(),
                            )
                        })?,
                    });
                }
                let mut crashes = Vec::new();
                for entry in get_entry_tables(t, "crash", "[[faults.crash]]")? {
                    check_keys(
                        entry,
                        "[[faults.crash]]",
                        &[
                            "nodes",
                            "first",
                            "at_secs",
                            "at_frac",
                            "recover_at_secs",
                            "recover_at_frac",
                        ],
                    )?;
                    let nodes = get_node_sel(entry, "[[faults.crash]]")?;
                    if let Some(recover_at) = get_when(entry, "recover_at", "[[faults.crash]]")? {
                        recovers.push(TimedFaultEntry { nodes: nodes.clone(), at: recover_at });
                    }
                    crashes.push(TimedFaultEntry {
                        nodes,
                        at: get_when(entry, "at", "[[faults.crash]]")?.unwrap_or(WhenSpec::Secs(0)),
                    });
                }

                let mut partitions = Vec::new();
                for p in get_entry_tables(t, "partition", "[[faults.partition]]")? {
                    check_keys(
                        p,
                        "[[faults.partition]]",
                        &[
                            "a",
                            "b",
                            "isolate_first",
                            "from_secs",
                            "from_frac",
                            "until_secs",
                            "until_frac",
                        ],
                    )?;
                    let a = get_id_list(p, "a", "faults.partition")?;
                    let b = get_id_list(p, "b", "faults.partition")?;
                    let sel = match (a, b, p.get("isolate_first")) {
                        (Some(a), Some(b), None) => PartitionSel::Groups { a, b },
                        (None, None, Some(v)) => PartitionSel::IsolateFirst(CountExpr::parse(v)?),
                        _ => {
                            return Err(ScenarioError::Schema(
                                "[[faults.partition]] needs either both `a` and `b` id lists \
                                 or `isolate_first` (count)"
                                    .into(),
                            ))
                        }
                    };
                    partitions.push(PartitionEntry {
                        sel,
                        from: get_when(p, "from", "[[faults.partition]]")?
                            .unwrap_or(WhenSpec::Secs(0)),
                        until: get_when(p, "until", "[[faults.partition]]")?.ok_or_else(|| {
                            ScenarioError::Schema(
                                "[[faults.partition]] requires until_secs or until_frac".into(),
                            )
                        })?,
                    });
                }

                let mut byzantine = Vec::new();
                for b in get_entry_tables(t, "byzantine", "[[faults.byzantine]]")? {
                    check_keys(
                        b,
                        "[[faults.byzantine]]",
                        &[
                            "node",
                            "strategy",
                            "from_secs",
                            "from_frac",
                            "until_secs",
                            "until_frac",
                            "targets",
                            "delay_ms",
                            "flip_secs",
                        ],
                    )?;
                    let node = get_u64(b, "node", "faults.byzantine")?.ok_or_else(|| {
                        ScenarioError::Schema("[[faults.byzantine]] requires `node`".into())
                    })? as u16;
                    let name = get_str(b, "strategy", "faults.byzantine")?.ok_or_else(|| {
                        ScenarioError::Schema("[[faults.byzantine]] requires `strategy`".into())
                    })?;
                    let targets = get_id_list(b, "targets", "faults.byzantine")?;
                    let delay_ms = get_u64(b, "delay_ms", "faults.byzantine")?;
                    let flip_secs = get_u64(b, "flip_secs", "faults.byzantine")?;
                    let forbid = |key: &str, present: bool| {
                        if present {
                            Err(ScenarioError::Schema(format!(
                                "`{key}` does not apply to the `{name}` strategy"
                            )))
                        } else {
                            Ok(())
                        }
                    };
                    let require = |key: &str| {
                        ScenarioError::Schema(format!("the `{name}` strategy requires `{key}`"))
                    };
                    let strategy = match name.as_str() {
                        "equivocate" => {
                            forbid("targets", targets.is_some())?;
                            forbid("delay_ms", delay_ms.is_some())?;
                            forbid("flip_secs", flip_secs.is_some())?;
                            ByzantineStrategySpec::Equivocate
                        }
                        "withhold_votes" => {
                            forbid("delay_ms", delay_ms.is_some())?;
                            forbid("flip_secs", flip_secs.is_some())?;
                            ByzantineStrategySpec::WithholdVotes {
                                targets: targets.ok_or_else(|| require("targets"))?,
                            }
                        }
                        "lazy_leader" => {
                            forbid("targets", targets.is_some())?;
                            forbid("flip_secs", flip_secs.is_some())?;
                            ByzantineStrategySpec::LazyLeader {
                                delay_ms: delay_ms.ok_or_else(|| require("delay_ms"))?,
                            }
                        }
                        "flip_flop" => {
                            forbid("targets", targets.is_some())?;
                            ByzantineStrategySpec::FlipFlop {
                                flip_secs: flip_secs.ok_or_else(|| require("flip_secs"))?,
                                delay_ms: delay_ms.ok_or_else(|| require("delay_ms"))?,
                            }
                        }
                        other => {
                            return Err(ScenarioError::Schema(format!(
                                "unknown byzantine strategy `{other}` (expected equivocate, \
                                 withhold_votes, lazy_leader or flip_flop)"
                            )))
                        }
                    };
                    byzantine.push(ByzantineEntrySpec {
                        node,
                        strategy,
                        from: get_when(b, "from", "[[faults.byzantine]]")?
                            .unwrap_or(WhenSpec::Secs(0)),
                        until: get_when(b, "until", "[[faults.byzantine]]")?,
                    });
                }

                let mut chaos = Vec::new();
                for c in get_entry_tables(t, "chaos", "[[faults.chaos]]")? {
                    check_keys(
                        c,
                        "[[faults.chaos]]",
                        &[
                            "node",
                            "from",
                            "to",
                            "from_secs",
                            "from_frac",
                            "until_secs",
                            "until_frac",
                            "drop",
                            "duplicate",
                            "corrupt",
                            "reorder_ms",
                        ],
                    )?;
                    let node = get_u64(c, "node", "faults.chaos")?.map(|x| x as u16);
                    let link_from = get_u64(c, "from", "faults.chaos")?.map(|x| x as u16);
                    let link_to = get_u64(c, "to", "faults.chaos")?.map(|x| x as u16);
                    let link = match (node, link_from, link_to) {
                        (_, None, None) => None,
                        (None, Some(a), Some(b)) => Some((a, b)),
                        _ => {
                            return Err(ScenarioError::Schema(
                                "[[faults.chaos]] afflicts all links by default; narrow it \
                                 with either `node` or the directed pair `from` + `to`, \
                                 not a mix"
                                    .into(),
                            ))
                        }
                    };
                    chaos.push(ChaosWindowSpec {
                        node,
                        link,
                        from: get_when(c, "from", "[[faults.chaos]]")?.unwrap_or(WhenSpec::Secs(0)),
                        until: get_when(c, "until", "[[faults.chaos]]")?,
                        drop: get_f64(c, "drop", "faults.chaos")?.unwrap_or(0.0),
                        duplicate: get_f64(c, "duplicate", "faults.chaos")?.unwrap_or(0.0),
                        corrupt: get_f64(c, "corrupt", "faults.chaos")?.unwrap_or(0.0),
                        reorder_ms: get_u64(c, "reorder_ms", "faults.chaos")?.unwrap_or(0),
                    });
                }

                FaultsSpec {
                    crashed,
                    crash_last,
                    slowdowns,
                    crashes,
                    recovers,
                    partitions,
                    byzantine,
                    chaos,
                }
            }
            None => FaultsSpec::default(),
        };

        // [analysis]
        let analysis = match get_table(root, "analysis")? {
            Some(t) => {
                check_keys(
                    t,
                    "[analysis]",
                    &[
                        "skipped_rounds",
                        "schedule_churn",
                        "reinclusion",
                        "adversary",
                        "chaos",
                        "window",
                    ],
                )?;
                let windows = match t.get("window") {
                    None => Vec::new(),
                    Some(Value::Array(items)) => items
                        .iter()
                        .map(|item| {
                            let w = item.as_table().ok_or_else(|| {
                                ScenarioError::Schema(
                                    "[[analysis.window]] entries must be tables".into(),
                                )
                            })?;
                            check_keys(
                                w,
                                "[[analysis.window]]",
                                &["name", "from_frac", "to_frac"],
                            )?;
                            Ok(WindowSpec {
                                name: get_str(w, "name", "analysis.window")?.ok_or_else(|| {
                                    ScenarioError::Schema(
                                        "[[analysis.window]] requires `name`".into(),
                                    )
                                })?,
                                from_frac: get_f64(w, "from_frac", "analysis.window")?
                                    .unwrap_or(0.0),
                                to_frac: get_f64(w, "to_frac", "analysis.window")?.unwrap_or(1.0),
                            })
                        })
                        .collect::<Result<Vec<_>, ScenarioError>>()?,
                    Some(other) => {
                        return Err(ScenarioError::Schema(format!(
                            "`analysis.window` must be an array of tables, got {other:?}"
                        )))
                    }
                };
                AnalysisSpec {
                    windows,
                    skipped_rounds: get_bool(t, "skipped_rounds", "analysis")?.unwrap_or(false),
                    schedule_churn: get_bool(t, "schedule_churn", "analysis")?.unwrap_or(false),
                    reinclusion: get_bool(t, "reinclusion", "analysis")?.unwrap_or(false),
                    adversary: get_bool(t, "adversary", "analysis")?.unwrap_or(false),
                    chaos: get_bool(t, "chaos", "analysis")?.unwrap_or(false),
                }
            }
            None => AnalysisSpec::default(),
        };

        // [quick]
        let quick = match get_table(root, "quick")? {
            Some(t) => {
                check_keys(
                    t,
                    "[quick]",
                    &["sizes", "tps", "duration_secs", "seeds", "period_rounds"],
                )?;
                QuickSpec {
                    sizes: get_u64_axis(t, "sizes", "quick")?
                        .map(|xs| xs.into_iter().map(|x| x as usize).collect()),
                    tps: get_u64_axis(t, "tps", "quick")?,
                    duration_secs: get_u64_axis(t, "duration_secs", "quick")?,
                    seeds: get_u64_axis(t, "seeds", "quick")?,
                    period_rounds: get_u64_axis(t, "period_rounds", "quick")?,
                }
            }
            None => QuickSpec::default(),
        };

        let spec = ScenarioSpec {
            name,
            description,
            figure,
            committee_sizes,
            load_tps,
            duration_secs,
            warmup_secs,
            seeds,
            gst_secs,
            client_window_secs,
            network,
            systems,
            period_rounds,
            exclusion,
            scoring,
            schedule_seed,
            swap_from_base,
            workload,
            variants,
            faults,
            analysis,
            quick,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Structural validation beyond per-key type checks; the per-committee
    /// checks ([`HammerheadConfig::validate`], fault counts) run during
    /// [`ScenarioSpec::plan`] where the committee size is known.
    fn validate(&self) -> Result<(), ScenarioError> {
        if self.committee_sizes.iter().any(|n| *n < 4) {
            return Err(ScenarioError::Invalid(
                "committee sizes below 4 cannot tolerate any fault (n = 3f + 1)".into(),
            ));
        }
        if self.duration_secs.contains(&0) {
            return Err(ScenarioError::Invalid("duration_secs must be positive".into()));
        }
        if let Some(w) = self.warmup_secs {
            if let Some(short) = self.duration_secs.iter().find(|d| **d <= w) {
                return Err(ScenarioError::Invalid(format!(
                    "warmup_secs {w} does not leave a measurement window in a {short}s run"
                )));
            }
        }
        if self.client_window_secs <= 0.0 {
            return Err(ScenarioError::Invalid("client_window_secs must be positive".into()));
        }
        let mut labels: Vec<&str> = self.variants.iter().map(|v| v.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        if labels.len() != self.variants.len() {
            return Err(ScenarioError::Invalid("variant labels must be unique".into()));
        }
        for w in &self.analysis.windows {
            if !(0.0..=1.0).contains(&w.from_frac)
                || !(0.0..=1.0).contains(&w.to_frac)
                || w.from_frac >= w.to_frac
            {
                return Err(ScenarioError::Invalid(format!(
                    "analysis window `{}` must satisfy 0 <= from_frac < to_frac <= 1",
                    w.name
                )));
            }
        }
        fn check_frac(when: WhenSpec, what: &str) -> Result<(), ScenarioError> {
            if let WhenSpec::Frac(frac) = when {
                if !(0.0..=1.0).contains(&frac) {
                    return Err(ScenarioError::Invalid(format!(
                        "{what} fraction must be within [0, 1]"
                    )));
                }
            }
            Ok(())
        }
        /// Same-kind windows can be ordered here; mixed secs/frac pairs
        /// are checked after per-run resolution.
        fn check_window(from: WhenSpec, until: WhenSpec, what: &str) -> Result<(), ScenarioError> {
            let empty = match (from, until) {
                (WhenSpec::Secs(a), WhenSpec::Secs(b)) => a >= b,
                (WhenSpec::Frac(a), WhenSpec::Frac(b)) => a >= b,
                _ => false,
            };
            if empty {
                return Err(ScenarioError::Invalid(format!("{what} window is empty")));
            }
            Ok(())
        }
        self.validate_workload()?;
        for s in &self.faults.slowdowns {
            if s.extra_ms == 0 {
                return Err(ScenarioError::Invalid("slowdown extra_ms must be positive".into()));
            }
            check_frac(s.at, "slowdown at")?;
            if let Some(until) = s.until {
                check_frac(until, "slowdown until")?;
                check_window(s.at, until, "slowdown")?;
            }
        }
        for entry in self.faults.crashes.iter().chain(&self.faults.recovers) {
            check_frac(entry.at, "crash/recover at")?;
        }
        for p in &self.faults.partitions {
            check_frac(p.from, "partition from")?;
            check_frac(p.until, "partition until")?;
            check_window(p.from, p.until, "partition")?;
            if let PartitionSel::Groups { a, b } = &p.sel {
                if a.is_empty() || b.is_empty() {
                    return Err(ScenarioError::Invalid(
                        "partition groups must both be non-empty".into(),
                    ));
                }
                if let Some(shared) = a.iter().find(|x| b.contains(x)) {
                    return Err(ScenarioError::Invalid(format!(
                        "validator {shared} is on both sides of a partition"
                    )));
                }
            }
        }
        for c in &self.faults.chaos {
            check_frac(c.from, "chaos from")?;
            if let Some(until) = c.until {
                check_frac(until, "chaos until")?;
                check_window(c.from, until, "chaos")?;
            }
        }
        Ok(())
    }

    /// Structural validation of the `[workload]` table: value ranges and
    /// timeline ordering that need no per-run resolution (mixed
    /// secs/frac phase starts are ordered in [`ScenarioSpec::plan`],
    /// mirroring the fault-schedule grammar).
    fn validate_workload(&self) -> Result<(), ScenarioError> {
        let w = &self.workload;
        if w.spread < 1.0 || !w.spread.is_finite() {
            return Err(ScenarioError::Invalid(format!(
                "workload spread must be ≥ 1, got {}",
                w.spread
            )));
        }
        if let Some(block_bytes) = w.block_bytes {
            let one_tx = (TX_HEADER_BYTES as u64) + w.payload_bytes as u64;
            if block_bytes < one_tx {
                return Err(ScenarioError::Invalid(format!(
                    "workload block_bytes {block_bytes} cannot fit one \
                     {one_tx}-byte transaction"
                )));
            }
        }
        fn check_arrival(a: &ArrivalSpec, what: &str) -> Result<(), ScenarioError> {
            match *a {
                ArrivalSpec::Constant | ArrivalSpec::Poisson => Ok(()),
                ArrivalSpec::OnOff { burst_secs, idle_secs } => {
                    // The sim truncates bursts to whole µs; anything
                    // below that would be silently idle forever.
                    if burst_secs * 1e6 < 1.0 || !burst_secs.is_finite() {
                        return Err(ScenarioError::Invalid(format!(
                            "{what} burst_secs must be at least 1 µs"
                        )));
                    }
                    if idle_secs < 0.0 || !idle_secs.is_finite() {
                        return Err(ScenarioError::Invalid(format!(
                            "{what} idle_secs must be non-negative"
                        )));
                    }
                    Ok(())
                }
                ArrivalSpec::Ramp { from_scale, to_scale } => {
                    if from_scale < 0.0
                        || to_scale < 0.0
                        || !from_scale.is_finite()
                        || !to_scale.is_finite()
                    {
                        return Err(ScenarioError::Invalid(format!(
                            "{what} ramp scales must be non-negative"
                        )));
                    }
                    if from_scale == 0.0 && to_scale == 0.0 {
                        return Err(ScenarioError::Invalid(format!(
                            "{what} ramp never leaves zero"
                        )));
                    }
                    Ok(())
                }
            }
        }
        fn check_frac(when: WhenSpec, what: &str) -> Result<(), ScenarioError> {
            if let WhenSpec::Frac(frac) = when {
                if !(0.0..=1.0).contains(&frac) {
                    return Err(ScenarioError::Invalid(format!(
                        "{what} fraction must be within [0, 1]"
                    )));
                }
            }
            Ok(())
        }
        if w.phases.is_empty() {
            check_arrival(&w.arrival, "workload")?;
            return Ok(());
        }
        let first_at_zero = match w.phases[0].from {
            WhenSpec::Secs(s) => s == 0,
            WhenSpec::Frac(f) => f == 0.0,
        };
        if !first_at_zero {
            return Err(ScenarioError::Invalid(format!(
                "the first workload phase must start at 0, got {:?}",
                w.phases[0].from
            )));
        }
        let mut any_active = false;
        for (i, phase) in w.phases.iter().enumerate() {
            check_frac(phase.from, "workload phase from")?;
            check_arrival(&phase.arrival, "workload phase")?;
            let peak = match (phase.rate, phase.arrival) {
                (_, ArrivalSpec::Ramp { from_scale, to_scale }) => from_scale.max(to_scale),
                (RateSpec::Scale(s), _) => s,
                (RateSpec::Tps(t), _) => t as f64,
            };
            if peak < 0.0 || !peak.is_finite() {
                return Err(ScenarioError::Invalid(format!(
                    "workload phase {i} has a bad rate ({peak})"
                )));
            }
            any_active |= peak > 0.0;
        }
        if !any_active {
            return Err(ScenarioError::Invalid(
                "every workload phase has zero rate — nothing ever arrives".into(),
            ));
        }
        // Same-kind starts can be ordered here; mixed secs/frac pairs are
        // checked after per-run resolution.
        for pair in w.phases.windows(2) {
            let out_of_order = match (pair[0].from, pair[1].from) {
                (WhenSpec::Secs(a), WhenSpec::Secs(b)) => a >= b,
                (WhenSpec::Frac(a), WhenSpec::Frac(b)) => a >= b,
                _ => false,
            };
            if out_of_order {
                return Err(ScenarioError::Invalid(
                    "workload phase starts must be strictly ascending".into(),
                ));
            }
        }
        Ok(())
    }

    /// Serializes the spec back to a TOML value (the canonical form used
    /// by round-trip tests and `hh-cli validate --dump`).
    pub fn to_value(&self) -> Value {
        let mut root = BTreeMap::new();
        root.insert("name".into(), Value::Str(self.name.clone()));
        if !self.description.is_empty() {
            root.insert("description".into(), Value::Str(self.description.clone()));
        }
        if let Some(figure) = &self.figure {
            root.insert("figure".into(), Value::Str(figure.clone()));
        }

        let mut committee = BTreeMap::new();
        committee.insert(
            "sizes".into(),
            axis_u64_value(&self.committee_sizes.iter().map(|n| *n as u64).collect::<Vec<_>>()),
        );
        root.insert("committee".into(), Value::Table(committee));

        let mut load = BTreeMap::new();
        load.insert("tps".into(), axis_u64_value(&self.load_tps));
        root.insert("load".into(), Value::Table(load));

        let mut run = BTreeMap::new();
        run.insert("duration_secs".into(), axis_u64_value(&self.duration_secs));
        if let Some(w) = self.warmup_secs {
            run.insert("warmup_secs".into(), Value::Int(w as i64));
        }
        run.insert("seeds".into(), axis_u64_value(&self.seeds));
        if self.gst_secs != 0 {
            run.insert("gst_secs".into(), Value::Int(self.gst_secs as i64));
        }
        if self.client_window_secs != 2.0 {
            run.insert("client_window_secs".into(), Value::Float(self.client_window_secs));
        }
        root.insert("run".into(), Value::Table(run));

        let mut network = BTreeMap::new();
        match self.network {
            NetworkSpec::Geo => {
                network.insert("model".into(), Value::Str("geo".into()));
            }
            NetworkSpec::Flat { ms } => {
                network.insert("model".into(), Value::Str("flat".into()));
                network.insert("flat_ms".into(), Value::Int(ms as i64));
            }
        }
        root.insert("network".into(), Value::Table(network));

        let mut systems = BTreeMap::new();
        systems.insert(
            "run".into(),
            Value::Array(self.systems.iter().map(|s| Value::Str(s.label().to_string())).collect()),
        );
        root.insert("systems".into(), Value::Table(systems));

        let mut hammerhead = BTreeMap::new();
        hammerhead.insert("period_rounds".into(), axis_u64_value(&self.period_rounds));
        match self.exclusion.as_slice() {
            [ExclusionSpec::F] => {}
            xs if xs.iter().all(|x| matches!(x, ExclusionSpec::Pct(_))) => {
                let pcts: Vec<u64> = xs
                    .iter()
                    .map(|x| match x {
                        ExclusionSpec::Pct(p) => *p,
                        _ => unreachable!("checked by the guard"),
                    })
                    .collect();
                hammerhead.insert("max_excluded_pct".into(), axis_u64_value(&pcts));
            }
            xs => {
                let stakes: Vec<u64> = xs
                    .iter()
                    .map(|x| match x {
                        ExclusionSpec::Stake(s) => *s,
                        other => panic!("mixed exclusion axis {other:?}"),
                    })
                    .collect();
                hammerhead.insert("max_excluded_stake".into(), axis_u64_value(&stakes));
            }
        }
        if self.scoring != vec![ScoringRule::VoteBased] {
            hammerhead.insert(
                "scoring".into(),
                Value::Array(self.scoring.iter().map(|s| Value::Str(scoring_name(*s))).collect()),
            );
        }
        if self.schedule_seed != 0 {
            hammerhead.insert("schedule_seed".into(), Value::Int(self.schedule_seed as i64));
        }
        if self.swap_from_base {
            hammerhead.insert("swap_from_base".into(), Value::Bool(true));
        }
        root.insert("hammerhead".into(), Value::Table(hammerhead));

        if self.workload.declared {
            fn insert_arrival(t: &mut BTreeMap<String, Value>, arrival: &ArrivalSpec) {
                match *arrival {
                    ArrivalSpec::Constant => {}
                    ArrivalSpec::Poisson => {
                        t.insert("arrival".into(), Value::Str("poisson".into()));
                    }
                    ArrivalSpec::OnOff { burst_secs, idle_secs } => {
                        t.insert("arrival".into(), Value::Str("onoff".into()));
                        t.insert("burst_secs".into(), Value::Float(burst_secs));
                        t.insert("idle_secs".into(), Value::Float(idle_secs));
                    }
                    ArrivalSpec::Ramp { from_scale, to_scale } => {
                        t.insert("arrival".into(), Value::Str("ramp".into()));
                        if from_scale != 0.0 {
                            t.insert("ramp_from_scale".into(), Value::Float(from_scale));
                        }
                        t.insert("ramp_to_scale".into(), Value::Float(to_scale));
                    }
                }
            }
            let w = &self.workload;
            let mut workload = BTreeMap::new();
            workload.insert(
                "mode".into(),
                Value::Str(
                    match w.mode {
                        SubmissionMode::Closed => "closed",
                        SubmissionMode::Open => "open",
                    }
                    .into(),
                ),
            );
            if w.payload_bytes != 0 {
                workload.insert("payload_bytes".into(), Value::Int(w.payload_bytes as i64));
            }
            if w.spread != 1.0 {
                workload.insert("spread".into(), Value::Float(w.spread));
            }
            if let Some(block_bytes) = w.block_bytes {
                workload.insert("block_bytes".into(), Value::Int(block_bytes as i64));
            }
            if w.phases.is_empty() {
                insert_arrival(&mut workload, &w.arrival);
            } else {
                let items = w
                    .phases
                    .iter()
                    .map(|p| {
                        let mut t = BTreeMap::new();
                        insert_when(&mut t, "from", p.from, true);
                        if !matches!(p.arrival, ArrivalSpec::Ramp { .. }) {
                            match p.rate {
                                // Scale 1.0 is the parse-side default.
                                RateSpec::Scale(s) => {
                                    if s != 1.0 {
                                        t.insert("scale".into(), Value::Float(s));
                                    }
                                }
                                RateSpec::Tps(tps) => {
                                    t.insert("tps".into(), Value::Int(tps as i64));
                                }
                            }
                        }
                        insert_arrival(&mut t, &p.arrival);
                        Value::Table(t)
                    })
                    .collect();
                workload.insert("phase".into(), Value::Array(items));
            }
            root.insert("workload".into(), Value::Table(workload));
        }

        if !self.variants.is_empty() {
            let items = self
                .variants
                .iter()
                .map(|v| {
                    let mut t = BTreeMap::new();
                    t.insert("label".into(), Value::Str(v.label.clone()));
                    t.insert("system".into(), Value::Str(v.system.label().to_string()));
                    if v.system == SystemSpec::StaticLeader {
                        t.insert("static_leader".into(), Value::Int(v.static_leader as i64));
                    }
                    if let Some(s) = v.scoring {
                        t.insert("scoring".into(), Value::Str(scoring_name(s)));
                    }
                    if let Some(p) = v.period_rounds {
                        t.insert("period_rounds".into(), Value::Int(p as i64));
                    }
                    match v.exclusion {
                        Some(ExclusionSpec::Pct(p)) => {
                            t.insert("max_excluded_pct".into(), Value::Int(p as i64));
                        }
                        Some(ExclusionSpec::Stake(s)) => {
                            t.insert("max_excluded_stake".into(), Value::Int(s as i64));
                        }
                        Some(ExclusionSpec::F) | None => {}
                    }
                    Value::Table(t)
                })
                .collect();
            root.insert("variant".into(), Value::Array(items));
        }

        let mut faults = BTreeMap::new();
        if !self.faults.crashed.is_empty() {
            faults.insert(
                "crashed".into(),
                Value::Array(self.faults.crashed.iter().map(|i| Value::Int(*i as i64)).collect()),
            );
        }
        if let Some(c) = self.faults.crash_last {
            faults.insert("crash_last".into(), c.to_value());
        }
        fn insert_node_sel(t: &mut BTreeMap<String, Value>, sel: &NodeSel) {
            match sel {
                NodeSel::Ids(ids) => {
                    t.insert(
                        "nodes".into(),
                        Value::Array(ids.iter().map(|i| Value::Int(*i as i64)).collect()),
                    );
                }
                NodeSel::First(c) => {
                    t.insert("first".into(), c.to_value());
                }
            }
        }
        /// `omit_zero` drops `Secs(0)` — the parse-side default for event
        /// starts — keeping canonical files minimal.
        fn insert_when(
            t: &mut BTreeMap<String, Value>,
            prefix: &str,
            when: WhenSpec,
            omit_zero: bool,
        ) {
            match when {
                WhenSpec::Secs(0) if omit_zero => {}
                WhenSpec::Secs(secs) => {
                    t.insert(format!("{prefix}_secs"), Value::Int(secs as i64));
                }
                WhenSpec::Frac(frac) => {
                    t.insert(format!("{prefix}_frac"), Value::Float(frac));
                }
            }
        }
        if !self.faults.slowdowns.is_empty() {
            let items = self
                .faults
                .slowdowns
                .iter()
                .map(|s| {
                    let mut t = BTreeMap::new();
                    insert_node_sel(&mut t, &s.nodes);
                    insert_when(&mut t, "at", s.at, true);
                    if let Some(until) = s.until {
                        insert_when(&mut t, "until", until, false);
                    }
                    t.insert("extra_ms".into(), Value::Int(s.extra_ms as i64));
                    Value::Table(t)
                })
                .collect();
            faults.insert("slowdown".into(), Value::Array(items));
        }
        let timed_items = |entries: &[TimedFaultEntry]| -> Value {
            Value::Array(
                entries
                    .iter()
                    .map(|entry| {
                        let mut t = BTreeMap::new();
                        insert_node_sel(&mut t, &entry.nodes);
                        insert_when(&mut t, "at", entry.at, false);
                        Value::Table(t)
                    })
                    .collect(),
            )
        };
        if !self.faults.crashes.is_empty() {
            faults.insert("crash".into(), timed_items(&self.faults.crashes));
        }
        if !self.faults.recovers.is_empty() {
            faults.insert("recover".into(), timed_items(&self.faults.recovers));
        }
        if !self.faults.partitions.is_empty() {
            let items = self
                .faults
                .partitions
                .iter()
                .map(|p| {
                    let mut t = BTreeMap::new();
                    match &p.sel {
                        PartitionSel::Groups { a, b } => {
                            let ids = |xs: &[u16]| {
                                Value::Array(xs.iter().map(|i| Value::Int(*i as i64)).collect())
                            };
                            t.insert("a".into(), ids(a));
                            t.insert("b".into(), ids(b));
                        }
                        PartitionSel::IsolateFirst(c) => {
                            t.insert("isolate_first".into(), c.to_value());
                        }
                    }
                    insert_when(&mut t, "from", p.from, true);
                    insert_when(&mut t, "until", p.until, false);
                    Value::Table(t)
                })
                .collect();
            faults.insert("partition".into(), Value::Array(items));
        }
        if !self.faults.byzantine.is_empty() {
            let items = self
                .faults
                .byzantine
                .iter()
                .map(|b| {
                    let mut t = BTreeMap::new();
                    t.insert("node".into(), Value::Int(b.node as i64));
                    let name = match &b.strategy {
                        ByzantineStrategySpec::Equivocate => "equivocate",
                        ByzantineStrategySpec::WithholdVotes { targets } => {
                            t.insert(
                                "targets".into(),
                                Value::Array(
                                    targets.iter().map(|i| Value::Int(*i as i64)).collect(),
                                ),
                            );
                            "withhold_votes"
                        }
                        ByzantineStrategySpec::LazyLeader { delay_ms } => {
                            t.insert("delay_ms".into(), Value::Int(*delay_ms as i64));
                            "lazy_leader"
                        }
                        ByzantineStrategySpec::FlipFlop { flip_secs, delay_ms } => {
                            t.insert("delay_ms".into(), Value::Int(*delay_ms as i64));
                            t.insert("flip_secs".into(), Value::Int(*flip_secs as i64));
                            "flip_flop"
                        }
                    };
                    t.insert("strategy".into(), Value::Str(name.into()));
                    insert_when(&mut t, "from", b.from, true);
                    if let Some(until) = b.until {
                        insert_when(&mut t, "until", until, false);
                    }
                    Value::Table(t)
                })
                .collect();
            faults.insert("byzantine".into(), Value::Array(items));
        }
        if !self.faults.chaos.is_empty() {
            let items = self
                .faults
                .chaos
                .iter()
                .map(|c| {
                    let mut t = BTreeMap::new();
                    if let Some(node) = c.node {
                        t.insert("node".into(), Value::Int(node as i64));
                    }
                    if let Some((from, to)) = c.link {
                        t.insert("from".into(), Value::Int(from as i64));
                        t.insert("to".into(), Value::Int(to as i64));
                    }
                    insert_when(&mut t, "from", c.from, true);
                    if let Some(until) = c.until {
                        insert_when(&mut t, "until", until, false);
                    }
                    if c.drop != 0.0 {
                        t.insert("drop".into(), Value::Float(c.drop));
                    }
                    if c.duplicate != 0.0 {
                        t.insert("duplicate".into(), Value::Float(c.duplicate));
                    }
                    if c.corrupt != 0.0 {
                        t.insert("corrupt".into(), Value::Float(c.corrupt));
                    }
                    if c.reorder_ms != 0 {
                        t.insert("reorder_ms".into(), Value::Int(c.reorder_ms as i64));
                    }
                    Value::Table(t)
                })
                .collect();
            faults.insert("chaos".into(), Value::Array(items));
        }
        if !faults.is_empty() {
            root.insert("faults".into(), Value::Table(faults));
        }

        let mut analysis = BTreeMap::new();
        if self.analysis.skipped_rounds {
            analysis.insert("skipped_rounds".into(), Value::Bool(true));
        }
        if self.analysis.schedule_churn {
            analysis.insert("schedule_churn".into(), Value::Bool(true));
        }
        if self.analysis.reinclusion {
            analysis.insert("reinclusion".into(), Value::Bool(true));
        }
        if self.analysis.adversary {
            analysis.insert("adversary".into(), Value::Bool(true));
        }
        if self.analysis.chaos {
            analysis.insert("chaos".into(), Value::Bool(true));
        }
        if !self.analysis.windows.is_empty() {
            let items = self
                .analysis
                .windows
                .iter()
                .map(|w| {
                    let mut t = BTreeMap::new();
                    t.insert("name".into(), Value::Str(w.name.clone()));
                    t.insert("from_frac".into(), Value::Float(w.from_frac));
                    t.insert("to_frac".into(), Value::Float(w.to_frac));
                    Value::Table(t)
                })
                .collect();
            analysis.insert("window".into(), Value::Array(items));
        }
        if !analysis.is_empty() {
            root.insert("analysis".into(), Value::Table(analysis));
        }

        let mut quick = BTreeMap::new();
        if let Some(xs) = &self.quick.sizes {
            quick.insert(
                "sizes".into(),
                axis_u64_value(&xs.iter().map(|n| *n as u64).collect::<Vec<_>>()),
            );
        }
        if let Some(xs) = &self.quick.tps {
            quick.insert("tps".into(), axis_u64_value(xs));
        }
        if let Some(xs) = &self.quick.duration_secs {
            quick.insert("duration_secs".into(), axis_u64_value(xs));
        }
        if let Some(xs) = &self.quick.seeds {
            quick.insert("seeds".into(), axis_u64_value(xs));
        }
        if let Some(xs) = &self.quick.period_rounds {
            quick.insert("period_rounds".into(), axis_u64_value(xs));
        }
        if !quick.is_empty() {
            root.insert("quick".into(), Value::Table(quick));
        }

        Value::Table(root)
    }

    /// Serializes to canonical TOML text.
    pub fn to_toml(&self) -> String {
        toml::serialize(&self.to_value())
    }
}

// ---------------------------------------------------------------------------
// Expansion into a run plan
// ---------------------------------------------------------------------------

/// Command-line-level adjustments applied while expanding a spec.
#[derive(Clone, Debug, Default)]
pub struct PlanOptions {
    /// Apply the scenario's `[quick]` overrides.
    pub quick: bool,
    /// Replace the duration axis.
    pub duration_override: Option<u64>,
    /// Replace the seed axis.
    pub seed_override: Option<u64>,
}

/// One fully resolved run: its output labels and simulator config.
#[derive(Clone, Debug)]
pub struct PlannedRun {
    /// Variant label (system name when no explicit variants are defined).
    pub variant: String,
    /// System label (`bullshark` / `hammerhead` / `static-leader`).
    pub system: String,
    /// Ordered key/value labels identifying the run in reports.
    pub labels: Vec<(String, String)>,
    /// Number of crashed validators.
    pub fault_count: usize,
    /// The simulator configuration.
    pub config: ExperimentConfig,
}

/// An expanded scenario: every concrete run, in a deterministic order.
#[derive(Clone, Debug)]
pub struct ScenarioPlan {
    /// Scenario name.
    pub name: String,
    /// Scenario description.
    pub description: String,
    /// Paper figure, if declared.
    pub figure: Option<String>,
    /// The runs, ordered committee → variant → duration → load → seed.
    pub runs: Vec<PlannedRun>,
    /// Analyses to compute per run.
    pub analysis: AnalysisSpec,
    /// Whether the scenario declared a `[workload]` table — only then
    /// does the report add the per-run workload goodput block.
    pub workload_declared: bool,
}

/// The variants in force after merging the axis defaults.
fn effective_variants(spec: &ScenarioSpec, period_axis: &[u64]) -> Vec<VariantSpec> {
    if !spec.variants.is_empty() {
        return spec.variants.clone();
    }
    let mut out = Vec::new();
    for system in &spec.systems {
        match system {
            SystemSpec::Bullshark | SystemSpec::StaticLeader => out.push(VariantSpec {
                label: system.label().to_string(),
                system: *system,
                static_leader: 0,
                scoring: None,
                period_rounds: None,
                exclusion: None,
            }),
            SystemSpec::Hammerhead => {
                for &period in period_axis {
                    for &exclusion in &spec.exclusion {
                        for &scoring in &spec.scoring {
                            let mut label = "hammerhead".to_string();
                            if period_axis.len() > 1 {
                                label.push_str(&format!("-T{period}"));
                            }
                            if spec.exclusion.len() > 1 {
                                label.push_str(&format!("-ex{}", exclusion.label()));
                            }
                            if spec.scoring.len() > 1 {
                                label.push_str(&format!("-{}", scoring_name(scoring)));
                            }
                            out.push(VariantSpec {
                                label,
                                system: SystemSpec::Hammerhead,
                                static_leader: 0,
                                scoring: Some(scoring),
                                period_rounds: Some(period),
                                exclusion: Some(exclusion),
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

impl ScenarioSpec {
    /// Expands the axes into concrete runs, validating every combination.
    pub fn plan(&self, opts: &PlanOptions) -> Result<ScenarioPlan, ScenarioError> {
        let sizes = match (opts.quick, &self.quick.sizes) {
            (true, Some(s)) => s.clone(),
            _ => self.committee_sizes.clone(),
        };
        let loads = match (opts.quick, &self.quick.tps) {
            (true, Some(t)) => t.clone(),
            _ => self.load_tps.clone(),
        };
        let mut durations = match (opts.quick, &self.quick.duration_secs) {
            (true, Some(d)) => d.clone(),
            _ => self.duration_secs.clone(),
        };
        if let Some(d) = opts.duration_override {
            if d == 0 {
                return Err(ScenarioError::Invalid("duration override must be positive".into()));
            }
            durations = vec![d];
        }
        let mut seeds = match (opts.quick, &self.quick.seeds) {
            (true, Some(s)) => s.clone(),
            _ => self.seeds.clone(),
        };
        if let Some(s) = opts.seed_override {
            seeds = vec![s];
        }
        let period_axis = match (opts.quick, &self.quick.period_rounds) {
            (true, Some(p)) => p.clone(),
            _ => self.period_rounds.clone(),
        };
        // Quick/CLI overrides bypass parse-time validation, so the
        // effective axes are re-checked here.
        if let Some(&small) = sizes.iter().find(|n| **n < 4) {
            return Err(ScenarioError::Invalid(format!(
                "committee size {small} cannot tolerate any fault (n = 3f + 1)"
            )));
        }
        if durations.contains(&0) {
            return Err(ScenarioError::Invalid("duration_secs must be positive".into()));
        }
        if let Some(w) = self.warmup_secs {
            if let Some(short) = durations.iter().find(|d| **d <= w) {
                return Err(ScenarioError::Invalid(format!(
                    "warmup_secs {w} does not leave a measurement window in a {short}s run"
                )));
            }
        }
        let variants = effective_variants(self, &period_axis);

        let mut runs = Vec::new();
        for &n in &sizes {
            let committee = Committee::new_equal_stake(n);
            let crashed = self.resolve_crashes(n)?;
            for variant in &variants {
                for &duration in &durations {
                    for &load in &loads {
                        for &seed in &seeds {
                            let config = self.build_config(
                                n, &committee, &crashed, variant, duration, load, seed,
                            )?;
                            // Fault count = distinct crashed validators
                            // anywhere on the timeline (mid-run crashes
                            // included).
                            let fault_count = config.faults.crashed_nodes().len();
                            let mut labels: Vec<(String, String)> = vec![
                                ("variant".into(), variant.label.clone()),
                                ("system".into(), variant.system.label().into()),
                                ("committee".into(), n.to_string()),
                                ("faults".into(), fault_count.to_string()),
                                ("load_tps".into(), load.to_string()),
                                ("duration_secs".into(), duration.to_string()),
                                ("seed".into(), seed.to_string()),
                            ];
                            if variant.system == SystemSpec::Hammerhead {
                                labels.push((
                                    "period_rounds".into(),
                                    config.hammerhead.period_rounds.to_string(),
                                ));
                                labels.push((
                                    "scoring".into(),
                                    scoring_name(config.hammerhead.scoring_rule),
                                ));
                                labels.push((
                                    "exclusion".into(),
                                    variant.exclusion.unwrap_or(ExclusionSpec::F).label(),
                                ));
                            }
                            runs.push(PlannedRun {
                                variant: variant.label.clone(),
                                system: variant.system.label().to_string(),
                                labels,
                                fault_count,
                                config,
                            });
                        }
                    }
                }
            }
        }
        Ok(ScenarioPlan {
            name: self.name.clone(),
            description: self.description.clone(),
            figure: self.figure.clone(),
            runs,
            analysis: self.analysis.clone(),
            workload_declared: self.workload.declared,
        })
    }

    fn resolve_crashes(&self, n: usize) -> Result<Vec<u16>, ScenarioError> {
        let mut crashed: Vec<u16> = self.faults.crashed.clone();
        if let Some(expr) = self.faults.crash_last {
            let count = expr.resolve(n);
            if count >= n {
                return Err(ScenarioError::Invalid(format!(
                    "crash_last resolves to {count} of {n} validators — nobody left alive"
                )));
            }
            crashed.extend(((n - count)..n).map(|i| i as u16));
        }
        crashed.sort_unstable();
        crashed.dedup();
        if let Some(&out_of_range) = crashed.iter().find(|i| **i as usize >= n) {
            return Err(ScenarioError::Invalid(format!(
                "crashed validator {out_of_range} is outside the committee of {n}"
            )));
        }
        // Beyond f crashed validators the protocol cannot commit at all;
        // running such a scenario measures nothing.
        let f = (n - 1) / 3;
        if crashed.len() > f {
            return Err(ScenarioError::Invalid(format!(
                "{} crashed validators exceeds f = {f} for a committee of {n}",
                crashed.len()
            )));
        }
        Ok(crashed)
    }

    #[allow(clippy::too_many_arguments)]
    fn build_config(
        &self,
        n: usize,
        committee: &Committee,
        crashed: &[u16],
        variant: &VariantSpec,
        duration: u64,
        load: u64,
        seed: u64,
    ) -> Result<ExperimentConfig, ScenarioError> {
        let system = match variant.system {
            SystemSpec::Hammerhead => SystemKind::Hammerhead,
            SystemSpec::Bullshark | SystemSpec::StaticLeader => SystemKind::Bullshark,
        };
        let mut config = ExperimentConfig::paper(system, n, load);
        config.duration_secs = duration;
        config.warmup_secs = self.warmup_secs.unwrap_or((duration / 6).max(1));
        config.seed = seed;
        config.gst_secs = self.gst_secs;
        config.client_window_secs = self.client_window_secs;
        match self.network {
            NetworkSpec::Geo => {
                config.geo = true;
            }
            NetworkSpec::Flat { ms } => {
                config.geo = false;
                config.flat_latency_ms = ms;
            }
        }

        if variant.system == SystemSpec::Hammerhead {
            let hh = HammerheadConfig {
                period_rounds: variant.period_rounds.unwrap_or(self.period_rounds[0]),
                max_excluded_stake: variant
                    .exclusion
                    .unwrap_or(self.exclusion[0])
                    .to_config(committee),
                scoring_rule: variant.scoring.unwrap_or(self.scoring[0]),
                schedule_seed: self.schedule_seed,
                swap_from_base: self.swap_from_base,
            };
            hh.validate(committee).map_err(|e| {
                ScenarioError::Invalid(format!("variant `{}` on n = {n}: {e}", variant.label))
            })?;
            config.hammerhead = hh;
        }
        if variant.system == SystemSpec::StaticLeader {
            let leader = variant.static_leader;
            if leader as usize >= n {
                return Err(ScenarioError::Invalid(format!(
                    "static_leader {leader} is outside the committee of {n}"
                )));
            }
            if crashed.contains(&leader) {
                return Err(ScenarioError::Invalid(format!(
                    "static_leader {leader} is crashed — the run would never commit"
                )));
            }
            config.schedule_override = Some(ScheduleConfig::StaticLeader(ValidatorId(leader)));
        }

        config.workload = self.workload.build(duration, load)?;
        config.max_block_bytes = self.workload.block_bytes.map(|b| b as usize);
        config.faults = self.build_fault_plan(n, crashed, duration)?;
        config.byzantine = self.build_byzantine_schedule(n, duration)?;
        config.chaos = self.build_chaos_plan(n, duration)?;
        Ok(config)
    }

    /// Resolves the `[[faults.chaos]]` entries against a committee of
    /// `n` and a run of `duration` seconds into the concrete
    /// [`hh_net::ChaosPlan`], and validates the result (rates outside
    /// `[0, 1]`, out-of-range validators, empty or effect-free windows,
    /// and ambiguously overlapping same-link windows are all rejected
    /// here).
    fn build_chaos_plan(&self, n: usize, duration: u64) -> Result<ChaosPlan, ScenarioError> {
        let mut plan = ChaosPlan::new();
        for entry in &self.faults.chaos {
            let scope = match (entry.node, entry.link) {
                (Some(node), _) => ChaosScope::Node(NodeId(node as usize)),
                (None, Some((from, to))) => {
                    ChaosScope::Pair { from: NodeId(from as usize), to: NodeId(to as usize) }
                }
                (None, None) => ChaosScope::AllLinks,
            };
            plan = plan.window(ChaosWindow {
                scope,
                from: SimTime(entry.from.resolve_us(duration)),
                until: entry.until.map_or(SimTime::MAX, |u| SimTime(u.resolve_us(duration))),
                drop: entry.drop,
                duplicate: entry.duplicate,
                corrupt: entry.corrupt,
                reorder: Duration::from_micros(entry.reorder_ms.saturating_mul(1_000)),
            });
        }
        plan.validate(n).map_err(|e| ScenarioError::Invalid(format!("chaos schedule: {e}")))?;
        Ok(plan)
    }

    /// Resolves the `[[faults.byzantine]]` entries against a committee of
    /// `n` and a run of `duration` seconds into the concrete
    /// [`hh_sim::ByzantineSchedule`], and validates the result (more than
    /// `f` attackers, out-of-range nodes or targets, and overlapping
    /// windows per node are all rejected here).
    fn build_byzantine_schedule(
        &self,
        n: usize,
        duration: u64,
    ) -> Result<ByzantineSchedule, ScenarioError> {
        let mut schedule = ByzantineSchedule::new();
        for entry in &self.faults.byzantine {
            let from_us = entry.from.resolve_us(duration);
            let until_us = entry.until.map(|u| u.resolve_us(duration)).unwrap_or(u64::MAX);
            schedule = match &entry.strategy {
                ByzantineStrategySpec::Equivocate => {
                    schedule.equivocate(entry.node, from_us, until_us)
                }
                ByzantineStrategySpec::WithholdVotes { targets } => {
                    schedule.withhold_votes(entry.node, targets.clone(), from_us, until_us)
                }
                ByzantineStrategySpec::LazyLeader { delay_ms } => {
                    schedule.lazy_leader(entry.node, delay_ms * 1_000, from_us, until_us)
                }
                ByzantineStrategySpec::FlipFlop { flip_secs, delay_ms } => schedule.flip_flop(
                    entry.node,
                    flip_secs * 1_000_000,
                    delay_ms * 1_000,
                    from_us,
                    until_us,
                ),
            };
        }
        schedule
            .validate(n)
            .map_err(|e| ScenarioError::Invalid(format!("byzantine schedule: {e}")))?;
        Ok(schedule)
    }

    /// Resolves the declarative fault spec against a committee of `n` and
    /// a run of `duration` seconds into the concrete [`hh_net::FaultPlan`],
    /// and validates the result (recover-before-crash, contradictory
    /// windows, more than `f` concurrent crashes are all rejected here).
    ///
    /// Crashes are added before recoveries, each in declaration order: the
    /// simulator numbers its crash and recovery events in that order.
    fn build_fault_plan(
        &self,
        n: usize,
        crashed: &[u16],
        duration: u64,
    ) -> Result<FaultPlan, ScenarioError> {
        fn resolve_nodes(sel: &NodeSel, n: usize, what: &str) -> Result<Vec<u16>, ScenarioError> {
            match sel {
                NodeSel::Ids(ids) => {
                    if let Some(&bad) = ids.iter().find(|i| **i as usize >= n) {
                        return Err(ScenarioError::Invalid(format!(
                            "{what} validator {bad} is outside the committee of {n}"
                        )));
                    }
                    Ok(ids.clone())
                }
                NodeSel::First(count) => {
                    let k = count.resolve(n).min(n);
                    Ok((0..k as u16).collect())
                }
            }
        }

        let ids = |nodes: Vec<u16>| nodes.into_iter().map(|i| NodeId(i as usize));
        let mut plan =
            FaultPlan::new().crash_from_start(crashed.iter().map(|i| NodeId(*i as usize)));
        for entry in &self.faults.crashes {
            let at = SimTime(entry.at.resolve_us(duration));
            for node in ids(resolve_nodes(&entry.nodes, n, "crash")?) {
                plan = plan.crash(node, at);
            }
        }
        for entry in &self.faults.recovers {
            let at = SimTime(entry.at.resolve_us(duration));
            for node in ids(resolve_nodes(&entry.nodes, n, "recover")?) {
                plan = plan.recover(node, at);
            }
        }
        for entry in &self.faults.slowdowns {
            let from = SimTime(entry.at.resolve_us(duration));
            let until = entry.until.map_or(SimTime::MAX, |u| SimTime(u.resolve_us(duration)));
            let extra = Duration::from_micros(entry.extra_ms * 1000);
            for node in ids(resolve_nodes(&entry.nodes, n, "slowdown")?) {
                plan = plan.slowdown(SlowdownSpec { node, from, until, extra });
            }
        }
        for entry in &self.faults.partitions {
            let (a, b) = match &entry.sel {
                PartitionSel::Groups { a, b } => {
                    for id in a.iter().chain(b) {
                        if *id as usize >= n {
                            return Err(ScenarioError::Invalid(format!(
                                "partition validator {id} is outside the committee of {n}"
                            )));
                        }
                    }
                    (a.clone(), b.clone())
                }
                PartitionSel::IsolateFirst(count) => {
                    let k = count.resolve(n).min(n.saturating_sub(1));
                    ((0..k as u16).collect(), (k as u16..n as u16).collect())
                }
            };
            plan = plan.partition(PartitionSpec {
                group_a: ids(a).collect(),
                group_b: ids(b).collect(),
                from: SimTime(entry.from.resolve_us(duration)),
                until: SimTime(entry.until.resolve_us(duration)),
            });
        }
        plan.validate(n).map_err(|e| ScenarioError::Invalid(format!("fault schedule: {e}")))?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "name = \"mini\"\n";

    #[test]
    fn minimal_spec_uses_paper_defaults() {
        let spec = ScenarioSpec::parse(MINIMAL).unwrap();
        assert_eq!(spec.committee_sizes, vec![10]);
        assert_eq!(spec.load_tps, vec![500]);
        assert_eq!(spec.duration_secs, vec![60]);
        assert_eq!(spec.seeds, vec![42]);
        assert_eq!(spec.network, NetworkSpec::Geo);
        assert_eq!(spec.systems, vec![SystemSpec::Hammerhead]);

        let plan = spec.plan(&PlanOptions::default()).unwrap();
        assert_eq!(plan.runs.len(), 1);
        let config = &plan.runs[0].config;
        assert_eq!(config.committee_size, 10);
        assert_eq!(config.load_tps, 500);
        assert_eq!(config.duration_secs, 60);
        assert_eq!(config.warmup_secs, 10, "default warmup is duration/6");
        assert!(config.geo);
        assert_eq!(config.hammerhead.period_rounds, 20);
    }

    #[test]
    fn axes_expand_to_cross_product_in_stable_order() {
        let spec = ScenarioSpec::parse(
            r#"
name = "sweep"
[committee]
sizes = [10, 13]
[load]
tps = [100, 200]
[systems]
run = ["bullshark", "hammerhead"]
"#,
        )
        .unwrap();
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        assert_eq!(plan.runs.len(), 8);
        // committee-major, then variant, then load.
        assert_eq!(plan.runs[0].labels[2].1, "10");
        assert_eq!(plan.runs[0].system, "bullshark");
        assert_eq!(plan.runs[0].config.load_tps, 100);
        assert_eq!(plan.runs[1].config.load_tps, 200);
        assert_eq!(plan.runs[2].system, "hammerhead");
        assert_eq!(plan.runs[4].labels[2].1, "13");
    }

    #[test]
    fn unknown_keys_rejected_everywhere() {
        for doc in [
            "name = \"x\"\ntypo = 1\n",
            "name = \"x\"\n[committee]\nsize = 10\nbad = 1\n",
            "name = \"x\"\n[run]\nduration = 5\n",
            "name = \"x\"\n[hammerhead]\nperiod = 3\n",
        ] {
            let err = ScenarioSpec::parse(doc).unwrap_err();
            assert!(matches!(err, ScenarioError::Schema(_)), "doc {doc:?} gave {err}");
        }
    }

    #[test]
    fn rejects_period_below_two() {
        let err = ScenarioSpec::parse("name = \"x\"\n[hammerhead]\nperiod_rounds = 1\n")
            .unwrap()
            .plan(&PlanOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("period_rounds"), "{err}");
    }

    #[test]
    fn rejects_excluded_stake_above_f() {
        // f = 3 for n = 10; 40% of stake = 4 > f.
        let err = ScenarioSpec::parse("name = \"x\"\n[hammerhead]\nmax_excluded_pct = 40\n")
            .unwrap()
            .plan(&PlanOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn rejects_more_crashes_than_f() {
        let err = ScenarioSpec::parse("name = \"x\"\n[faults]\ncrash_last = 4\n")
            .unwrap()
            .plan(&PlanOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("exceeds f"), "{err}");
    }

    #[test]
    fn crash_expressions_resolve_per_committee() {
        let spec = ScenarioSpec::parse(
            "name = \"x\"\n[committee]\nsizes = [10, 100]\n[faults]\ncrash_last = \"n/3\"\n",
        )
        .unwrap();
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        assert_eq!(plan.runs[0].fault_count, 3);
        assert_eq!(plan.runs[1].fault_count, 33);
        // The last validators crash, not the first.
        assert_eq!(
            plan.runs[0].config.faults.crashed_nodes(),
            vec![NodeId(7), NodeId(8), NodeId(9)]
        );
    }

    #[test]
    fn variants_replace_system_axes() {
        let spec = ScenarioSpec::parse(
            r#"
name = "ablation"
[[variant]]
label = "vote-based"
scoring = "vote-based"
[[variant]]
label = "static"
system = "static-leader"
static_leader = 2
"#,
        )
        .unwrap();
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        assert_eq!(plan.runs.len(), 2);
        assert_eq!(plan.runs[0].variant, "vote-based");
        assert!(matches!(
            plan.runs[1].config.schedule_override,
            Some(ScheduleConfig::StaticLeader(ValidatorId(2)))
        ));
    }

    #[test]
    fn static_leader_must_be_alive() {
        let err = ScenarioSpec::parse(
            r#"
name = "x"
[faults]
crashed = [0]
[[variant]]
label = "static"
system = "static-leader"
static_leader = 0
"#,
        )
        .unwrap()
        .plan(&PlanOptions::default())
        .unwrap_err();
        assert!(err.to_string().contains("crashed"), "{err}");
    }

    #[test]
    fn quick_overrides_apply_only_with_flag() {
        let spec = ScenarioSpec::parse(
            r#"
name = "x"
[committee]
sizes = [10, 50]
[quick]
sizes = [10]
duration_secs = 5
"#,
        )
        .unwrap();
        assert_eq!(spec.plan(&PlanOptions::default()).unwrap().runs.len(), 2);
        let quick = spec.plan(&PlanOptions { quick: true, ..PlanOptions::default() }).unwrap();
        assert_eq!(quick.runs.len(), 1);
        assert_eq!(quick.runs[0].config.duration_secs, 5);
    }

    #[test]
    fn slowdown_fractions_scale_with_duration() {
        let spec = ScenarioSpec::parse(
            r#"
name = "incident"
[run]
duration_secs = 40
[[faults.slowdown]]
first = "n/10"
at_frac = 0.5
extra_ms = 800
"#,
        )
        .unwrap();
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        let config = &plan.runs[0].config;
        // n = 10 → one degraded validator, onset at 20s, +800 ms.
        assert_eq!(
            config.faults.slowdowns(),
            &[SlowdownSpec {
                node: NodeId(0),
                from: SimTime(20_000_000),
                until: SimTime::MAX,
                extra: Duration::from_micros(800_000),
            }]
        );
        assert!(config.faults.crashes().is_empty() && config.faults.partitions().is_empty());
    }

    #[test]
    fn dynamic_fault_tables_lower_to_a_validated_schedule() {
        let spec = ScenarioSpec::parse(
            r#"
name = "dynamic"
[committee]
size = 7
[run]
duration_secs = 40
[[faults.crash]]
nodes = [3]
at_secs = 8
recover_at_secs = 16
[[faults.partition]]
isolate_first = 2
from_frac = 0.5
until_frac = 0.75
"#,
        )
        .unwrap();
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        let config = &plan.runs[0].config;
        assert_eq!(config.faults.crashes(), &[(NodeId(3), SimTime(8_000_000))]);
        assert_eq!(config.faults.recoveries(), &[(NodeId(3), SimTime(16_000_000))]);
        assert_eq!(
            config.faults.partitions(),
            &[PartitionSpec {
                group_a: vec![NodeId(0), NodeId(1)],
                group_b: (2..7).map(NodeId).collect(),
                from: SimTime(20_000_000),
                until: SimTime(30_000_000),
            }]
        );
        assert!(config.faults.slowdowns().is_empty());
        assert!(config.faults.has_recoveries());
        // The mid-run crash counts toward the faults label.
        assert_eq!(plan.runs[0].fault_count, 1);
    }

    #[test]
    fn contradictory_fault_schedules_are_rejected() {
        // Recovery with no preceding crash.
        let err =
            ScenarioSpec::parse("name = \"x\"\n[[faults.recover]]\nnodes = [1]\nat_secs = 5\n")
                .unwrap()
                .plan(&PlanOptions::default())
                .unwrap_err();
        assert!(err.to_string().contains("without a preceding crash"), "{err}");

        // Recovery scheduled before its crash.
        let err = ScenarioSpec::parse(
            "name = \"x\"\n[[faults.crash]]\nnodes = [1]\nat_secs = 20\nrecover_at_secs = 10\n",
        )
        .unwrap()
        .plan(&PlanOptions::default())
        .unwrap_err();
        assert!(err.to_string().contains("without a preceding crash"), "{err}");

        // Crashing four of ten at once (f = 3), staggered via mid-run
        // crashes on top of crash_last.
        let err = ScenarioSpec::parse(
            "name = \"x\"\n[faults]\ncrash_last = 3\n[[faults.crash]]\nnodes = [0]\nat_secs = 5\n",
        )
        .unwrap()
        .plan(&PlanOptions::default())
        .unwrap_err();
        assert!(err.to_string().contains("exceeds f"), "{err}");

        // A validator on both sides of a partition fails at parse time.
        let err = ScenarioSpec::parse(
            "name = \"x\"\n[[faults.partition]]\na = [0, 1]\nb = [1, 2]\nuntil_secs = 5\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("both sides"), "{err}");

        // An inverted same-kind window fails at parse time.
        let err = ScenarioSpec::parse(
            "name = \"x\"\n[[faults.partition]]\nisolate_first = 1\nfrom_secs = 9\nuntil_secs = 3\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
    }

    #[test]
    fn spec_round_trips_through_toml() {
        let doc = r#"
name = "round"
description = "exercise most knobs"
figure = "Figure 9"
[committee]
sizes = [10, 50]
[load]
tps = [250, 500]
[run]
duration_secs = 30
warmup_secs = 5
seeds = [1, 2]
[network]
model = "flat"
flat_ms = 7
[systems]
run = ["bullshark", "hammerhead"]
[hammerhead]
period_rounds = [4, 20]
max_excluded_pct = [10, 20]
scoring = ["vote-based", "vote-ema-30"]
schedule_seed = 3
[faults]
crashed = [1]
crash_last = "n/5"
[[faults.slowdown]]
first = 2
at_frac = 0.5
until_frac = 0.75
extra_ms = 100
[[faults.crash]]
nodes = [0]
at_secs = 10
[[faults.recover]]
nodes = [0]
at_secs = 20
[[faults.partition]]
a = [0, 1]
b = [2, 3]
from_secs = 3
until_frac = 0.5
[analysis]
skipped_rounds = true
reinclusion = true
[[analysis.window]]
name = "late"
from_frac = 0.5
to_frac = 1.0
[quick]
sizes = [10]
tps = [250]
"#;
        let spec = ScenarioSpec::parse(doc).unwrap();
        let text = spec.to_toml();
        let again = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(spec, again, "canonical form:\n{text}");
    }

    #[test]
    fn chaos_entries_parse_and_lower() {
        let spec = ScenarioSpec::parse(
            r#"
name = "chaos-parse"
[run]
duration_secs = 10
[[faults.chaos]]
until_frac = 0.5
drop = 0.3
duplicate = 0.1
[[faults.chaos]]
node = 2
from_frac = 0.5
corrupt = 0.2
reorder_ms = 40
[[faults.chaos]]
from = 0
to = 1
from_secs = 5
until_secs = 7
drop = 0.9
[analysis]
chaos = true
"#,
        )
        .unwrap();
        assert_eq!(spec.faults.chaos.len(), 3);
        assert!(spec.analysis.chaos);
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        // The plan holds windows by start: 0s (all links), then 5s twice,
        // the node window (declared first) ahead of the pair window.
        let windows = plan.runs[0].config.chaos.windows();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].scope, ChaosScope::AllLinks);
        assert_eq!(windows[0].until, SimTime(5_000_000), "frac of a 10s run");
        assert_eq!(windows[0].drop, 0.3);
        assert_eq!(windows[1].scope, ChaosScope::Node(NodeId(2)));
        assert_eq!(windows[1].until, SimTime::MAX, "open window runs to the end");
        assert_eq!(windows[1].reorder, Duration::from_micros(40_000), "ms sugar lowers to µs");
        assert_eq!(windows[2].scope, ChaosScope::Pair { from: NodeId(0), to: NodeId(1) });
        assert_eq!(windows[2].from, SimTime(5_000_000));
    }

    #[test]
    fn chaos_entries_round_trip_through_toml() {
        let doc = r#"
name = "chaos-round"
[[faults.chaos]]
until_frac = 0.4
drop = 0.25
reorder_ms = 15
[[faults.chaos]]
node = 1
from_frac = 0.4
until_frac = 0.8
duplicate = 0.5
[[faults.chaos]]
from = 2
to = 3
from_secs = 1
corrupt = 0.1
[analysis]
chaos = true
"#;
        let spec = ScenarioSpec::parse(doc).unwrap();
        let text = spec.to_toml();
        let again = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(spec, again, "canonical form:\n{text}");
    }

    #[test]
    fn rejects_mixed_chaos_scope() {
        let err = ScenarioSpec::parse(
            "name = \"x\"\n[[faults.chaos]]\nnode = 1\nfrom = 0\nto = 2\ndrop = 0.5\n",
        )
        .unwrap_err();
        assert!(matches!(err, ScenarioError::Schema(_)), "{err}");
        let err = ScenarioSpec::parse("name = \"x\"\n[[faults.chaos]]\nfrom = 0\ndrop = 0.5\n")
            .unwrap_err();
        assert!(err.to_string().contains("`from` + `to`"), "{err}");
    }

    #[test]
    fn rejects_unrunnable_chaos_schedules_at_plan_time() {
        // Rate out of [0, 1].
        let err = ScenarioSpec::parse("name = \"x\"\n[[faults.chaos]]\ndrop = 1.5\n")
            .unwrap()
            .plan(&PlanOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("chaos schedule"), "{err}");
        // Out-of-range validator for the committee of 10.
        let err = ScenarioSpec::parse("name = \"x\"\n[[faults.chaos]]\nnode = 10\ndrop = 0.5\n")
            .unwrap()
            .plan(&PlanOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("chaos schedule"), "{err}");
        // Empty parse-time window is caught before planning.
        let err = ScenarioSpec::parse(
            "name = \"x\"\n[[faults.chaos]]\nfrom_frac = 0.6\nuntil_frac = 0.4\ndrop = 0.5\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("chaos window is empty"), "{err}");
    }

    #[test]
    fn overridden_axes_are_revalidated() {
        // --duration below the explicit warmup leaves no measurement window.
        let spec = ScenarioSpec::parse("name = \"x\"\n[run]\nwarmup_secs = 6\n").unwrap();
        let err = spec
            .plan(&PlanOptions { duration_override: Some(5), ..PlanOptions::default() })
            .unwrap_err();
        assert!(err.to_string().contains("measurement window"), "{err}");

        // [quick] committee sizes below the n = 3f + 1 minimum.
        let spec = ScenarioSpec::parse("name = \"x\"\n[quick]\nsizes = 2\n").unwrap();
        assert!(spec.plan(&PlanOptions::default()).is_ok(), "non-quick path is unaffected");
        let err = spec.plan(&PlanOptions { quick: true, ..PlanOptions::default() }).unwrap_err();
        assert!(err.to_string().contains("committee size 2"), "{err}");
    }

    #[test]
    fn conflicting_scalar_and_plural_keys_rejected() {
        for doc in [
            "name = \"x\"\n[committee]\nsize = 50\nsizes = [10]\n",
            "name = \"x\"\n[run]\nseed = 1\nseeds = [2, 3]\n",
        ] {
            let err = ScenarioSpec::parse(doc).unwrap_err();
            assert!(err.to_string().contains("only one of"), "doc {doc:?} gave {err}");
        }
    }

    #[test]
    fn exclusion_pct_derives_from_total_stake() {
        let spec =
            ScenarioSpec::parse("name = \"x\"\n[hammerhead]\nmax_excluded_pct = 30\n").unwrap();
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        // Equal-stake committee of 10: total stake 10, 30% → 3 = f.
        assert_eq!(plan.runs[0].config.hammerhead.max_excluded_stake, Some(Stake(3)));
    }

    #[test]
    fn undeclared_workload_is_the_constant_sugar() {
        let spec = ScenarioSpec::parse(MINIMAL).unwrap();
        assert!(!spec.workload.declared);
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        assert!(!plan.workload_declared);
        let config = &plan.runs[0].config;
        assert_eq!(config.workload, Workload::constant(), "sugar lowers to the exact default");
        assert_eq!(config.max_block_bytes, None);
    }

    #[test]
    fn workload_table_parses_and_lowers() {
        let spec = ScenarioSpec::parse(
            r#"
name = "wl"
[load]
tps = 1000
[run]
duration_secs = 40
[workload]
arrival = "poisson"
mode = "open"
payload_bytes = 512
spread = 2.5
block_bytes = 65536
"#,
        )
        .unwrap();
        assert!(spec.workload.declared);
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        assert!(plan.workload_declared);
        let config = &plan.runs[0].config;
        assert_eq!(
            config.workload.phases,
            vec![Phase { from_us: 0, arrival: Arrival::Poisson { scale: 1.0 } }]
        );
        assert_eq!(config.workload.mode, SubmissionMode::Open);
        assert_eq!(config.workload.payload_bytes, 512);
        assert_eq!(config.workload.spread, 2.5);
        assert_eq!(config.max_block_bytes, Some(65536));
    }

    #[test]
    fn workload_phases_resolve_fracs_and_absolute_rates() {
        let spec = ScenarioSpec::parse(
            r#"
name = "phased"
[load]
tps = 500
[run]
duration_secs = 40
[[workload.phase]]
scale = 0.5
[[workload.phase]]
from_frac = 0.25
arrival = "onoff"
burst_secs = 2.0
idle_secs = 2.0
[[workload.phase]]
from_secs = 30
tps = 1500
arrival = "poisson"
"#,
        )
        .unwrap();
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        let workload = &plan.runs[0].config.workload;
        assert_eq!(
            workload.phases,
            vec![
                Phase { from_us: 0, arrival: Arrival::Constant { scale: 0.5 } },
                Phase {
                    from_us: 10_000_000,
                    arrival: Arrival::OnOff { scale: 1.0, burst_secs: 2.0, idle_secs: 2.0 },
                },
                // tps 1500 against the 500 load axis → scale 3.
                Phase { from_us: 30_000_000, arrival: Arrival::Poisson { scale: 3.0 } },
            ]
        );
    }

    #[test]
    fn workload_schema_rejections() {
        for (doc, needle) in [
            ("name = \"x\"\n[workload]\narrival = \"sawtooth\"\n", "unknown arrival"),
            ("name = \"x\"\n[workload]\nmode = \"half-open\"\n", "unknown workload mode"),
            ("name = \"x\"\n[workload]\narrival = \"onoff\"\n", "requires burst_secs"),
            ("name = \"x\"\n[workload]\narrival = \"ramp\"\n", "requires ramp_to_scale"),
            (
                "name = \"x\"\n[workload]\narrival = \"constant\"\nburst_secs = 1.0\n",
                "does not apply",
            ),
            (
                "name = \"x\"\n[workload]\narrival = \"poisson\"\n[[workload.phase]]\nscale = 1.0\n",
                "conflicts with an explicit",
            ),
            (
                "name = \"x\"\n[[workload.phase]]\nscale = 1.0\ntps = 100\n",
                "both `scale` and `tps`",
            ),
            (
                "name = \"x\"\n[[workload.phase]]\narrival = \"ramp\"\nramp_to_scale = 2.0\nscale = 1.0\n",
                "ramp phases take",
            ),
            ("name = \"x\"\n[workload]\ntypo = 1\n", "unknown key"),
        ] {
            let err = ScenarioSpec::parse(doc).unwrap_err();
            assert!(err.to_string().contains(needle), "doc {doc:?} gave {err}");
        }
    }

    #[test]
    fn workload_value_rejections() {
        for (doc, needle) in [
            ("name = \"x\"\n[workload]\nspread = 0.5\n", "spread"),
            ("name = \"x\"\n[workload]\npayload_bytes = 2097152\n", "payload_bytes"),
            (
                "name = \"x\"\n[workload]\npayload_bytes = 512\nblock_bytes = 100\n",
                "cannot fit one",
            ),
            (
                "name = \"x\"\n[[workload.phase]]\nscale = 0.0\n",
                "zero rate",
            ),
            (
                "name = \"x\"\n[[workload.phase]]\nfrom_secs = 5\nscale = 1.0\n",
                "must start at 0",
            ),
            (
                "name = \"x\"\n[[workload.phase]]\nscale = 1.0\n[[workload.phase]]\nfrom_secs = 0\nscale = 2.0\n",
                "ascending",
            ),
            (
                "name = \"x\"\n[workload]\narrival = \"onoff\"\nburst_secs = 0.0\nidle_secs = 1.0\n",
                "burst_secs",
            ),
        ] {
            let err = ScenarioSpec::parse(doc).unwrap_err();
            assert!(err.to_string().contains(needle), "doc {doc:?} gave {err}");
        }
    }

    #[test]
    fn workload_phase_beyond_duration_rejected_at_plan_time() {
        let spec = ScenarioSpec::parse(
            "name = \"x\"\n[run]\nduration_secs = 10\n\
             [[workload.phase]]\nscale = 1.0\n[[workload.phase]]\nfrom_secs = 20\nscale = 2.0\n",
        )
        .unwrap();
        let err = spec.plan(&PlanOptions::default()).unwrap_err();
        assert!(err.to_string().contains("starts at or after"), "{err}");
    }

    #[test]
    fn workload_round_trips_through_toml() {
        let doc = r#"
name = "wl-round"
[load]
tps = 800
[run]
duration_secs = 30
[workload]
mode = "open"
payload_bytes = 128
spread = 3.0
block_bytes = 32768
[[workload.phase]]
scale = 0.5
[[workload.phase]]
from_frac = 0.3
arrival = "onoff"
burst_secs = 1.5
idle_secs = 2.5
[[workload.phase]]
from_secs = 20
tps = 1200
arrival = "poisson"
[[workload.phase]]
from_frac = 0.9
arrival = "ramp"
ramp_from_scale = 1.0
ramp_to_scale = 2.0
"#;
        let spec = ScenarioSpec::parse(doc).unwrap();
        let text = spec.to_toml();
        let again = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(spec, again, "canonical form:\n{text}");
        // And the declared flag itself round-trips for a minimal table.
        let minimal = ScenarioSpec::parse("name = \"x\"\n[workload]\n").unwrap();
        assert!(minimal.workload.declared);
        let again = ScenarioSpec::parse(&minimal.to_toml()).unwrap();
        assert_eq!(minimal, again);
    }

    #[test]
    fn duration_and_seed_overrides() {
        let spec = ScenarioSpec::parse("name = \"x\"\n[run]\nseeds = [1, 2]\n").unwrap();
        let plan = spec
            .plan(&PlanOptions {
                duration_override: Some(9),
                seed_override: Some(77),
                ..PlanOptions::default()
            })
            .unwrap();
        assert_eq!(plan.runs.len(), 1);
        assert_eq!(plan.runs[0].config.duration_secs, 9);
        assert_eq!(plan.runs[0].config.seed, 77);
        // Warmup follows the overridden duration.
        assert_eq!(plan.runs[0].config.warmup_secs, 1);
    }
}
