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

use crate::schema::{
    self, key, table, tables, At, Axis, Codec, Field, List, Many, Reader, Rule::*, Schema, Visitor,
    Writer,
};
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
use std::fmt;
use std::marker::PhantomData;

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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SystemSpec {
    /// Static stake-weighted round-robin Bullshark (the baseline).
    Bullshark,
    /// HammerHead reputation scheduling.
    #[default]
    Hammerhead,
    /// One pinned leader (the §7 extreme; ablations only).
    StaticLeader,
}

impl Codec for SystemSpec {
    type T = SystemSpec;
    fn decode(v: &Value, at: &At<'_>) -> Result<Self, ScenarioError> {
        match at.str(v)? {
            "bullshark" | "round-robin" => Ok(SystemSpec::Bullshark),
            "hammerhead" => Ok(SystemSpec::Hammerhead),
            "static-leader" => Ok(SystemSpec::StaticLeader),
            other => Err(ScenarioError::Schema(format!(
                "unknown system `{other}` (expected bullshark, hammerhead or static-leader)"
            ))),
        }
    }
    fn encode(x: &Self) -> Value {
        Value::Str(x.label().into())
    }
}

impl SystemSpec {
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
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum NetworkSpec {
    /// The paper's 13-region AWS matrix.
    #[default]
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

impl Codec for ScoringRule {
    type T = ScoringRule;
    fn decode(v: &Value, at: &At<'_>) -> Result<Self, ScenarioError> {
        parse_scoring(at.str(v)?)
    }
    fn encode(x: &Self) -> Value {
        Value::Str(scoring_name(*x))
    }
}

impl Codec for SubmissionMode {
    type T = SubmissionMode;
    fn decode(v: &Value, at: &At<'_>) -> Result<Self, ScenarioError> {
        match at.str(v)? {
            "closed" => Ok(SubmissionMode::Closed),
            "open" => Ok(SubmissionMode::Open),
            other => Err(ScenarioError::Schema(format!(
                "unknown workload mode `{other}` (expected closed or open)"
            ))),
        }
    }
    fn encode(x: &Self) -> Value {
        Value::Str(match x {
            SubmissionMode::Closed => "closed".into(),
            SubmissionMode::Open => "open".into(),
        })
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

impl Codec for CountExpr {
    type T = CountExpr;
    fn decode(value: &Value, _: &At<'_>) -> Result<Self, ScenarioError> {
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
    fn encode(x: &Self) -> Value {
        match *x {
            CountExpr::Abs(k) => Value::Int(k as i64),
            CountExpr::DivN(k) => Value::Str(format!("n/{k}")),
        }
    }
}

impl CountExpr {
    /// Resolves against a committee size.
    pub fn resolve(self, committee_size: usize) -> usize {
        match self {
            CountExpr::Abs(k) => k as usize,
            CountExpr::DivN(k) => (committee_size / k as usize).max(1),
        }
    }
}

/// One named system configuration under test.
#[derive(Clone, Debug, Default, PartialEq)]
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

/// The start of the run.
impl Default for WhenSpec {
    fn default() -> Self {
        WhenSpec::Secs(0)
    }
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

/// Nobody.
impl Default for NodeSel {
    fn default() -> Self {
        NodeSel::Ids(Vec::new())
    }
}

/// One slowdown window from the scenario's fault schedule.
#[derive(Clone, Debug, Default, PartialEq)]
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
#[derive(Clone, Debug, Default, PartialEq)]
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

/// No cut.
impl Default for PartitionSel {
    fn default() -> Self {
        PartitionSel::Groups { a: Vec::new(), b: Vec::new() }
    }
}

/// One partition window (`[[faults.partition]]`).
#[derive(Clone, Debug, Default, PartialEq)]
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
#[derive(Clone, Debug, Default, PartialEq)]
pub enum ByzantineStrategySpec {
    /// Broadcast a conflicting twin before every own vertex.
    #[default]
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
#[derive(Clone, Debug, Default, PartialEq)]
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
#[derive(Clone, Debug, Default, PartialEq)]
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
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum ArrivalSpec {
    /// Fixed-rate with ±10% jitter (the `[load] tps` sugar).
    #[default]
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

/// The load axis's own rate.
impl Default for RateSpec {
    fn default() -> Self {
        RateSpec::Scale(1.0)
    }
}

/// One `[[workload.phase]]` entry.
#[derive(Clone, Debug, Default, PartialEq)]
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
#[derive(Clone, Debug, Default, PartialEq)]
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
#[derive(Clone, Debug, Default, PartialEq)]
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
// The schema: every key declared once
// ---------------------------------------------------------------------------
//
// Plain keys are one `key::<Type>("name")` line each, with their default
// and output rule; keys that depend on each other are the hand-written
// `Field`s below the tables.

impl Schema for ScenarioSpec {
    fn visit(&mut self, v: &mut impl Visitor) {
        v.field(key::<String>("name"), &mut self.name, Required);
        v.field(key::<String>("description"), &mut self.description, Omit(String::new));
        v.opt(key::<String>("figure"), &mut self.figure);
        v.section("committee", |v| {
            v.field(
                axis_pair::<usize>("size", "sizes"),
                &mut self.committee_sizes,
                Always(|| vec![10]),
            )
        });
        v.section("load", |v| {
            v.field(key::<Axis<u64>>("tps"), &mut self.load_tps, Always(|| vec![500]))
        });
        v.section("run", |v| {
            v.field(
                key::<Axis<u64>>("duration_secs"),
                &mut self.duration_secs,
                Always(|| vec![60]),
            );
            v.opt(key::<u64>("warmup_secs"), &mut self.warmup_secs);
            v.field(axis_pair::<u64>("seed", "seeds"), &mut self.seeds, Always(|| vec![42]));
            v.field(key::<u64>("gst_secs"), &mut self.gst_secs, Omit(|| 0));
            v.field(key::<f64>("client_window_secs"), &mut self.client_window_secs, Omit(|| 2.0));
        });
        v.section("network", |v| v.field(Network, &mut self.network, Always(|| NetworkSpec::Geo)));
        v.section("systems", |v| {
            let hammerhead = || vec![SystemSpec::Hammerhead];
            v.field(key::<Many<SystemSpec>>("run"), &mut self.systems, Always(hammerhead))
        });
        v.section("hammerhead", |v| {
            v.field(
                key::<Axis<u64>>("period_rounds"),
                &mut self.period_rounds,
                Always(|| vec![20]),
            );
            v.field(ExclusionAxis, &mut self.exclusion, Omit(|| vec![ExclusionSpec::F]));
            let vote_based = || vec![ScoringRule::VoteBased];
            v.field(key::<Many<ScoringRule>>("scoring"), &mut self.scoring, Omit(vote_based));
            v.field(key::<u64>("schedule_seed"), &mut self.schedule_seed, Omit(|| 0));
            v.field(key::<bool>("swap_from_base"), &mut self.swap_from_base, Omit(|| false));
        });
        v.field(DeclaredWorkload, &mut self.workload, Omit(WorkloadSpec::default));
        v.field(tables("variant"), &mut self.variants, Omit(Vec::new));
        v.field(table("faults"), &mut self.faults, Omit(FaultsSpec::default));
        v.field(table("analysis"), &mut self.analysis, Omit(AnalysisSpec::default));
        v.field(table("quick"), &mut self.quick, Omit(QuickSpec::default));
    }
}

impl Schema for WorkloadSpec {
    fn visit(&mut self, v: &mut impl Visitor) {
        v.field(key::<SubmissionMode>("mode"), &mut self.mode, Always(|| SubmissionMode::Closed));
        v.field(key::<u32>("payload_bytes"), &mut self.payload_bytes, Omit(|| 0));
        v.field(key::<f64>("spread"), &mut self.spread, Omit(|| 1.0));
        v.opt(key::<u64>("block_bytes"), &mut self.block_bytes);
        v.field(ArrivalProcess, &mut self.arrival, Omit(|| ArrivalSpec::Constant));
        v.field(tables("phase"), &mut self.phases, Omit(Vec::new));
    }
}

impl Schema for WorkloadPhaseSpec {
    fn visit(&mut self, v: &mut impl Visitor) {
        v.field(FROM, &mut self.from, Omit(|| WhenSpec::Secs(0)));
        v.field(ArrivalProcess, &mut self.arrival, Omit(|| ArrivalSpec::Constant));
        v.field(Rate, &mut self.rate, Omit(|| RateSpec::Scale(1.0)));
    }
}

impl Schema for VariantSpec {
    fn visit(&mut self, v: &mut impl Visitor) {
        v.field(key::<String>("label"), &mut self.label, Required);
        v.field(key::<SystemSpec>("system"), &mut self.system, Always(|| SystemSpec::Hammerhead));
        // Output names the pinned leader only where the system uses it.
        let leader =
            if self.system == SystemSpec::StaticLeader { Always(|| 0) } else { Omit(|| 0) };
        v.field(key::<u16>("static_leader"), &mut self.static_leader, leader);
        v.opt(key::<ScoringRule>("scoring"), &mut self.scoring);
        v.opt(key::<u64>("period_rounds"), &mut self.period_rounds);
        v.opt(VariantExclusion, &mut self.exclusion);
    }
}

impl Schema for FaultsSpec {
    fn visit(&mut self, v: &mut impl Visitor) {
        v.field(key::<Many<u16>>("crashed"), &mut self.crashed, Omit(Vec::new));
        v.opt(key::<CountExpr>("crash_last"), &mut self.crash_last);
        v.field(tables("slowdown"), &mut self.slowdowns, Omit(Vec::new));
        let mut timed = (std::mem::take(&mut self.crashes), std::mem::take(&mut self.recovers));
        v.field(CrashesAndRecoveries, &mut timed, Always(Default::default));
        (self.crashes, self.recovers) = timed;
        v.field(tables("partition"), &mut self.partitions, Omit(Vec::new));
        v.field(tables("byzantine"), &mut self.byzantine, Omit(Vec::new));
        v.field(tables("chaos"), &mut self.chaos, Omit(Vec::new));
    }
}

impl Schema for SlowdownEntry {
    fn visit(&mut self, v: &mut impl Visitor) {
        v.field(Nodes, &mut self.nodes, Required);
        v.field(AT, &mut self.at, Omit(|| WhenSpec::Secs(0)));
        v.opt(UNTIL, &mut self.until);
        v.field(key::<u64>("extra_ms"), &mut self.extra_ms, Required);
    }
}

/// A `[[faults.recover]]` entry.
impl Schema for TimedFaultEntry {
    fn visit(&mut self, v: &mut impl Visitor) {
        v.field(Nodes, &mut self.nodes, Required);
        v.field(AT, &mut self.at, Required);
    }
}

/// A `[[faults.crash]]` entry: a [`TimedFaultEntry`] starting at 0 by
/// default, plus the `recover_at_*` sugar for a recovery of the same
/// nodes.
#[derive(Clone, Default, PartialEq)]
struct CrashEntry {
    event: TimedFaultEntry,
    recover_at: Option<WhenSpec>,
}

impl Schema for CrashEntry {
    fn visit(&mut self, v: &mut impl Visitor) {
        v.field(Nodes, &mut self.event.nodes, Required);
        v.field(AT, &mut self.event.at, Always(|| WhenSpec::Secs(0)));
        v.opt(RECOVER_AT, &mut self.recover_at);
    }
}

impl Schema for PartitionEntry {
    fn visit(&mut self, v: &mut impl Visitor) {
        v.field(Cut, &mut self.sel, Required);
        v.field(FROM, &mut self.from, Omit(|| WhenSpec::Secs(0)));
        v.field(UNTIL, &mut self.until, Required);
    }
}

impl Schema for ByzantineEntrySpec {
    fn visit(&mut self, v: &mut impl Visitor) {
        v.field(key::<u16>("node"), &mut self.node, Required);
        v.field(Strategy, &mut self.strategy, Required);
        v.field(FROM, &mut self.from, Omit(|| WhenSpec::Secs(0)));
        v.opt(UNTIL, &mut self.until);
    }
}

impl Schema for ChaosWindowSpec {
    fn visit(&mut self, v: &mut impl Visitor) {
        let mut scope = (self.node, self.link);
        v.field(Scope, &mut scope, Always(|| (None, None)));
        (self.node, self.link) = scope;
        v.field(FROM, &mut self.from, Omit(|| WhenSpec::Secs(0)));
        v.opt(UNTIL, &mut self.until);
        v.field(key::<f64>("drop"), &mut self.drop, Omit(|| 0.0));
        v.field(key::<f64>("duplicate"), &mut self.duplicate, Omit(|| 0.0));
        v.field(key::<f64>("corrupt"), &mut self.corrupt, Omit(|| 0.0));
        v.field(key::<u64>("reorder_ms"), &mut self.reorder_ms, Omit(|| 0));
    }
}

impl Schema for AnalysisSpec {
    fn visit(&mut self, v: &mut impl Visitor) {
        v.field(key::<bool>("skipped_rounds"), &mut self.skipped_rounds, Omit(|| false));
        v.field(key::<bool>("schedule_churn"), &mut self.schedule_churn, Omit(|| false));
        v.field(key::<bool>("reinclusion"), &mut self.reinclusion, Omit(|| false));
        v.field(key::<bool>("adversary"), &mut self.adversary, Omit(|| false));
        v.field(key::<bool>("chaos"), &mut self.chaos, Omit(|| false));
        v.field(tables("window"), &mut self.windows, Omit(Vec::new));
    }
}

impl Schema for WindowSpec {
    fn visit(&mut self, v: &mut impl Visitor) {
        v.field(key::<String>("name"), &mut self.name, Required);
        v.field(key::<f64>("from_frac"), &mut self.from_frac, Always(|| 0.0));
        v.field(key::<f64>("to_frac"), &mut self.to_frac, Always(|| 1.0));
    }
}

impl Schema for QuickSpec {
    fn visit(&mut self, v: &mut impl Visitor) {
        v.opt(key::<Axis<usize>>("sizes"), &mut self.sizes);
        v.opt(key::<Axis<u64>>("tps"), &mut self.tps);
        v.opt(key::<Axis<u64>>("duration_secs"), &mut self.duration_secs);
        v.opt(key::<Axis<u64>>("seeds"), &mut self.seeds);
        v.opt(key::<Axis<u64>>("period_rounds"), &mut self.period_rounds);
    }
}

// --- Keys that depend on each other --------------------------------------

/// A sweep axis under a singular or a plural name (`size` / `sizes`),
/// not both; output uses the plural.
struct AxisPair<C>([&'static str; 2], PhantomData<C>);

const fn axis_pair<C: Codec>(one: &'static str, many: &'static str) -> AxisPair<C> {
    AxisPair([one, many], PhantomData)
}

impl<C: Codec> Field for AxisPair<C> {
    type T = Vec<C::T>;
    fn keys(&self) -> &[&'static str] {
        &self.0
    }
    fn read(&self, r: &mut Reader<'_>) -> Result<Option<Vec<C::T>>, ScenarioError> {
        let [one, many] = self.0;
        match (r.get::<Axis<C>>(one)?, r.get::<Axis<C>>(many)?) {
            (Some(_), Some(_)) => Err(ScenarioError::Schema(format!(
                "set only one of `{one}` / `{many}` in {}",
                r.ctx()
            ))),
            (xs, None) | (None, xs) => Ok(xs),
        }
    }
    fn write(&self, xs: &Vec<C::T>, w: &mut Writer) {
        w.put::<Axis<C>>(self.0[1], xs);
    }
}

/// An instant: `<prefix>_secs` (simulated seconds) or `<prefix>_frac`
/// (fraction of the run), not both.
struct When([&'static str; 2]);

const AT: When = When(["at_secs", "at_frac"]);
const FROM: When = When(["from_secs", "from_frac"]);
const UNTIL: When = When(["until_secs", "until_frac"]);
const RECOVER_AT: When = When(["recover_at_secs", "recover_at_frac"]);

impl Field for When {
    type T = WhenSpec;
    fn keys(&self) -> &[&'static str] {
        &self.0
    }
    fn read(&self, r: &mut Reader<'_>) -> Result<Option<WhenSpec>, ScenarioError> {
        let [secs, frac] = self.0;
        match (r.get::<u64>(secs)?, r.get::<f64>(frac)?) {
            (Some(s), None) => Ok(Some(WhenSpec::Secs(s))),
            (None, Some(f)) => Ok(Some(WhenSpec::Frac(f))),
            (None, None) => Ok(None),
            _ => Err(ScenarioError::Schema(format!("{} sets both {secs} and {frac}", r.ctx()))),
        }
    }
    fn write(&self, when: &WhenSpec, w: &mut Writer) {
        match when {
            WhenSpec::Secs(s) => w.put::<u64>(self.0[0], s),
            WhenSpec::Frac(f) => w.put::<f64>(self.0[1], f),
        }
    }
}

/// The validators a fault hits: `nodes` (id list) or `first` (count).
struct Nodes;

impl Field for Nodes {
    type T = NodeSel;
    fn keys(&self) -> &[&'static str] {
        &["nodes", "first"]
    }
    fn read(&self, r: &mut Reader<'_>) -> Result<Option<NodeSel>, ScenarioError> {
        match (r.get::<List<u16>>("nodes")?, r.get::<CountExpr>("first")?) {
            (Some(ids), None) => Ok(Some(NodeSel::Ids(ids))),
            (None, Some(count)) => Ok(Some(NodeSel::First(count))),
            _ => Err(ScenarioError::Schema(format!(
                "{} needs exactly one of `nodes` (id list) or `first` (count)",
                r.ctx()
            ))),
        }
    }
    fn write(&self, sel: &NodeSel, w: &mut Writer) {
        match sel {
            NodeSel::Ids(ids) => w.put::<List<u16>>("nodes", ids),
            NodeSel::First(count) => w.put::<CountExpr>("first", count),
        }
    }
}

/// `[network]`: `model`, with `flat_ms` only for the flat model.
struct Network;

impl Field for Network {
    type T = NetworkSpec;
    fn keys(&self) -> &[&'static str] {
        &["model", "flat_ms"]
    }
    fn read(&self, r: &mut Reader<'_>) -> Result<Option<NetworkSpec>, ScenarioError> {
        match (r.str("model")?.unwrap_or("geo"), r.get::<u64>("flat_ms")?) {
            ("geo", None) => Ok(Some(NetworkSpec::Geo)),
            ("geo", Some(_)) => Err(ScenarioError::Schema(
                "`network.flat_ms` only applies to model = \"flat\"".into(),
            )),
            ("flat", ms) => Ok(Some(NetworkSpec::Flat { ms: ms.unwrap_or(5) })),
            (other, _) => Err(ScenarioError::Schema(format!(
                "unknown network model `{other}` (expected geo or flat)"
            ))),
        }
    }
    fn write(&self, network: &NetworkSpec, w: &mut Writer) {
        match network {
            NetworkSpec::Geo => w.put::<String>("model", &"geo".into()),
            NetworkSpec::Flat { ms } => {
                w.put::<String>("model", &"flat".into());
                w.put::<u64>("flat_ms", ms);
            }
        }
    }
}

/// An exclusion budget as read: the variant its key selects, and the value.
type Budget<T> = (fn(u64) -> ExclusionSpec, T);

/// The exclusion budget as `max_excluded_pct` or `max_excluded_stake`,
/// not both, each read as `C`; `None` when neither is set.
fn read_budget<C: Codec>(r: &Reader<'_>) -> Result<Option<Budget<C::T>>, ScenarioError> {
    match (r.get::<C>(BUDGET_KEYS[0])?, r.get::<C>(BUDGET_KEYS[1])?) {
        (Some(_), Some(_)) => Err(ScenarioError::Schema(format!(
            "set only one of `max_excluded_pct` / `max_excluded_stake` in {}",
            r.ctx()
        ))),
        (Some(pct), None) => Ok(Some((ExclusionSpec::Pct, pct))),
        (None, Some(stake)) => Ok(Some((ExclusionSpec::Stake, stake))),
        (None, None) => Ok(None),
    }
}

const BUDGET_KEYS: [&str; 2] = ["max_excluded_pct", "max_excluded_stake"];

/// `[hammerhead]`'s exclusion-budget axis; neither key means `f`.
struct ExclusionAxis;

impl Field for ExclusionAxis {
    type T = Vec<ExclusionSpec>;
    fn keys(&self) -> &[&'static str] {
        &BUDGET_KEYS
    }
    fn read(&self, r: &mut Reader<'_>) -> Result<Option<Vec<ExclusionSpec>>, ScenarioError> {
        Ok(read_budget::<Axis<u64>>(r)?.map(|(lift, xs)| xs.into_iter().map(lift).collect()))
    }
    fn write(&self, xs: &Vec<ExclusionSpec>, w: &mut Writer) {
        let pcts: Option<Vec<u64>> = xs
            .iter()
            .map(|x| if let ExclusionSpec::Pct(p) = x { Some(*p) } else { None })
            .collect();
        let stakes: Option<Vec<u64>> = xs
            .iter()
            .map(|x| if let ExclusionSpec::Stake(s) = x { Some(*s) } else { None })
            .collect();
        match (pcts, stakes) {
            (Some(pcts), _) => w.put::<Axis<u64>>(BUDGET_KEYS[0], &pcts),
            (None, Some(stakes)) => w.put::<Axis<u64>>(BUDGET_KEYS[1], &stakes),
            (None, None) => panic!("mixed exclusion axis {xs:?}"),
        }
    }
}

/// A `[[variant]]`'s exclusion-budget override.
struct VariantExclusion;

impl Field for VariantExclusion {
    type T = ExclusionSpec;
    fn keys(&self) -> &[&'static str] {
        &BUDGET_KEYS
    }
    fn read(&self, r: &mut Reader<'_>) -> Result<Option<ExclusionSpec>, ScenarioError> {
        Ok(read_budget::<u64>(r)?.map(|(lift, x)| lift(x)))
    }
    fn write(&self, x: &ExclusionSpec, w: &mut Writer) {
        match x {
            ExclusionSpec::Pct(p) => w.put::<u64>(BUDGET_KEYS[0], p),
            ExclusionSpec::Stake(s) => w.put::<u64>(BUDGET_KEYS[1], s),
            ExclusionSpec::F => {}
        }
    }
}

/// `[workload]` itself: declaring the table, even empty, adds the
/// report's workload block.
struct DeclaredWorkload;

impl Field for DeclaredWorkload {
    type T = WorkloadSpec;
    fn keys(&self) -> &[&'static str] {
        &["workload"]
    }
    fn read(&self, r: &mut Reader<'_>) -> Result<Option<WorkloadSpec>, ScenarioError> {
        Ok(r.table::<WorkloadSpec>("workload")?.map(|w| WorkloadSpec { declared: true, ..w }))
    }
    fn write(&self, workload: &WorkloadSpec, w: &mut Writer) {
        if workload.declared {
            w.put_table("workload", workload);
        }
    }
}

/// The keys of an arrival process: its name, then every process's
/// parameters.
const ARRIVAL_KEYS: [&str; 5] =
    ["arrival", "burst_secs", "idle_secs", "ramp_from_scale", "ramp_to_scale"];

/// The arrival process of `[workload]` or a `[[workload.phase]]`: only
/// the named process's parameters may appear, a ramp phase takes no
/// `scale` or `tps`, and `[workload]` takes none of them beside a phase
/// timeline.
struct ArrivalProcess;

impl Field for ArrivalProcess {
    type T = ArrivalSpec;
    fn keys(&self) -> &[&'static str] {
        &ARRIVAL_KEYS
    }
    fn read(&self, r: &mut Reader<'_>) -> Result<Option<ArrivalSpec>, ScenarioError> {
        if r.has("phase") {
            return match ARRIVAL_KEYS.iter().find(|k| r.has(k)) {
                Some(key) => Err(ScenarioError::Schema(format!(
                    "`{key}` in {} conflicts with an explicit [[workload.phase]] timeline",
                    r.ctx()
                ))),
                None => Ok(None),
            };
        }
        let name = r.str("arrival")?.unwrap_or("constant");
        let forbid = |keys: &[&str]| match keys.iter().find(|k| r.has(k)) {
            Some(key) => Err(ScenarioError::Schema(format!(
                "`{key}` in {} does not apply to arrival = \"{name}\"",
                r.ctx()
            ))),
            None => Ok(()),
        };
        let require = |key: &'static str| -> Result<f64, ScenarioError> {
            r.get::<f64>(key)?.ok_or_else(|| {
                ScenarioError::Schema(format!("{} arrival = \"{name}\" requires {key}", r.ctx()))
            })
        };
        let arrival = match name {
            "constant" | "poisson" => {
                forbid(&ARRIVAL_KEYS[1..])?;
                if name == "constant" {
                    ArrivalSpec::Constant
                } else {
                    ArrivalSpec::Poisson
                }
            }
            "onoff" => {
                forbid(&ARRIVAL_KEYS[3..])?;
                ArrivalSpec::OnOff {
                    burst_secs: require("burst_secs")?,
                    idle_secs: require("idle_secs")?,
                }
            }
            "ramp" => {
                forbid(&ARRIVAL_KEYS[1..3])?;
                if r.has("scale") || r.has("tps") {
                    return Err(ScenarioError::Schema(
                        "ramp phases take ramp_from_scale / ramp_to_scale, not scale or tps".into(),
                    ));
                }
                let to_scale = require("ramp_to_scale")?;
                ArrivalSpec::Ramp {
                    from_scale: r.get::<f64>("ramp_from_scale")?.unwrap_or(0.0),
                    to_scale,
                }
            }
            other => {
                return Err(ScenarioError::Schema(format!(
                    "unknown arrival process `{other}` (expected constant, poisson, onoff or ramp)"
                )))
            }
        };
        Ok(Some(arrival))
    }
    fn write(&self, arrival: &ArrivalSpec, w: &mut Writer) {
        let name = match *arrival {
            ArrivalSpec::Constant => return,
            ArrivalSpec::Poisson => "poisson",
            ArrivalSpec::OnOff { burst_secs, idle_secs } => {
                w.put::<f64>("burst_secs", &burst_secs);
                w.put::<f64>("idle_secs", &idle_secs);
                "onoff"
            }
            ArrivalSpec::Ramp { from_scale, to_scale } => {
                if from_scale != 0.0 {
                    w.put::<f64>("ramp_from_scale", &from_scale);
                }
                w.put::<f64>("ramp_to_scale", &to_scale);
                "ramp"
            }
        };
        w.put::<String>("arrival", &name.into());
    }
}

/// A phase's rate: `scale` or `tps`, not both ([`ArrivalProcess`]
/// rejects either beside a ramp, which carries its own scales).
struct Rate;

impl Field for Rate {
    type T = RateSpec;
    fn keys(&self) -> &[&'static str] {
        &["scale", "tps"]
    }
    fn read(&self, r: &mut Reader<'_>) -> Result<Option<RateSpec>, ScenarioError> {
        match (r.get::<f64>("scale")?, r.get::<u64>("tps")?) {
            (Some(_), Some(_)) => {
                Err(ScenarioError::Schema(format!("{} sets both `scale` and `tps`", r.ctx())))
            }
            (Some(s), None) => Ok(Some(RateSpec::Scale(s))),
            (None, Some(t)) => Ok(Some(RateSpec::Tps(t))),
            (None, None) => Ok(None),
        }
    }
    fn write(&self, rate: &RateSpec, w: &mut Writer) {
        match rate {
            RateSpec::Scale(s) => w.put::<f64>("scale", s),
            RateSpec::Tps(t) => w.put::<u64>("tps", t),
        }
    }
}

/// `[[faults.crash]]` and `[[faults.recover]]`: a crash's
/// `recover_at_*` sugar joins the recoveries after the explicit ones.
struct CrashesAndRecoveries;

impl Field for CrashesAndRecoveries {
    type T = (Vec<TimedFaultEntry>, Vec<TimedFaultEntry>);
    fn keys(&self) -> &[&'static str] {
        &["crash", "recover"]
    }
    fn read(&self, r: &mut Reader<'_>) -> Result<Option<Self::T>, ScenarioError> {
        let mut recovers = r.tables::<TimedFaultEntry>("recover")?.unwrap_or_default();
        let mut crashes = Vec::new();
        for crash in r.tables::<CrashEntry>("crash")?.unwrap_or_default() {
            if let Some(at) = crash.recover_at {
                recovers.push(TimedFaultEntry { nodes: crash.event.nodes.clone(), at });
            }
            crashes.push(crash.event);
        }
        Ok(Some((crashes, recovers)))
    }
    fn write(&self, (crashes, recovers): &Self::T, w: &mut Writer) {
        let crashes: Vec<CrashEntry> =
            crashes.iter().map(|e| CrashEntry { event: e.clone(), recover_at: None }).collect();
        w.put_tables("crash", &crashes);
        w.put_tables("recover", recovers);
    }
}

/// A partition's cut: both `a` and `b` id lists, or `isolate_first`.
struct Cut;

impl Field for Cut {
    type T = PartitionSel;
    fn keys(&self) -> &[&'static str] {
        &["a", "b", "isolate_first"]
    }
    fn read(&self, r: &mut Reader<'_>) -> Result<Option<PartitionSel>, ScenarioError> {
        let groups = (r.get::<List<u16>>("a")?, r.get::<List<u16>>("b")?);
        match (groups, r.get::<CountExpr>("isolate_first")?) {
            ((Some(a), Some(b)), None) => Ok(Some(PartitionSel::Groups { a, b })),
            ((None, None), Some(count)) => Ok(Some(PartitionSel::IsolateFirst(count))),
            _ => Err(ScenarioError::Schema(format!(
                "{} needs either both `a` and `b` id lists or `isolate_first` (count)",
                r.ctx()
            ))),
        }
    }
    fn write(&self, sel: &PartitionSel, w: &mut Writer) {
        match sel {
            PartitionSel::Groups { a, b } => {
                w.put::<List<u16>>("a", a);
                w.put::<List<u16>>("b", b);
            }
            PartitionSel::IsolateFirst(count) => w.put::<CountExpr>("isolate_first", count),
        }
    }
}

/// A byzantine `strategy` with exactly the parameters it takes.
struct Strategy;

impl Field for Strategy {
    type T = ByzantineStrategySpec;
    fn keys(&self) -> &[&'static str] {
        &["strategy", "targets", "delay_ms", "flip_secs"]
    }
    fn read(&self, r: &mut Reader<'_>) -> Result<Option<ByzantineStrategySpec>, ScenarioError> {
        let name = r
            .str("strategy")?
            .ok_or_else(|| ScenarioError::Schema(format!("{} requires `strategy`", r.ctx())))?;
        let targets = r.get::<List<u16>>("targets")?;
        let delay_ms = r.get::<u64>("delay_ms")?;
        let flip_secs = r.get::<u64>("flip_secs")?;
        let forbid = |key: &str, present: bool| {
            if present {
                Err(ScenarioError::Schema(format!(
                    "`{key}` does not apply to the `{name}` strategy"
                )))
            } else {
                Ok(())
            }
        };
        let require =
            |key: &str| ScenarioError::Schema(format!("the `{name}` strategy requires `{key}`"));
        let strategy = match name {
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
        Ok(Some(strategy))
    }
    fn write(&self, strategy: &ByzantineStrategySpec, w: &mut Writer) {
        let name = match strategy {
            ByzantineStrategySpec::Equivocate => "equivocate",
            ByzantineStrategySpec::WithholdVotes { targets } => {
                w.put::<List<u16>>("targets", targets);
                "withhold_votes"
            }
            ByzantineStrategySpec::LazyLeader { delay_ms } => {
                w.put::<u64>("delay_ms", delay_ms);
                "lazy_leader"
            }
            ByzantineStrategySpec::FlipFlop { flip_secs, delay_ms } => {
                w.put::<u64>("delay_ms", delay_ms);
                w.put::<u64>("flip_secs", flip_secs);
                "flip_flop"
            }
        };
        w.put::<String>("strategy", &name.into());
    }
}

/// A chaos window's scope: every link by default, one validator's links
/// with `node`, or one directed pair with `from` + `to`.
struct Scope;

impl Field for Scope {
    type T = (Option<u16>, Option<(u16, u16)>);
    fn keys(&self) -> &[&'static str] {
        &["node", "from", "to"]
    }
    fn read(&self, r: &mut Reader<'_>) -> Result<Option<Self::T>, ScenarioError> {
        let node = r.get::<u16>("node")?;
        match (node, r.get::<u16>("from")?, r.get::<u16>("to")?) {
            (_, None, None) => Ok(Some((node, None))),
            (None, Some(from), Some(to)) => Ok(Some((None, Some((from, to))))),
            _ => Err(ScenarioError::Schema(
                "[[faults.chaos]] afflicts all links by default; narrow it \
                 with either `node` or the directed pair `from` + `to`, \
                 not a mix"
                    .into(),
            )),
        }
    }
    fn write(&self, (node, link): &Self::T, w: &mut Writer) {
        if let Some(node) = node {
            w.put::<u16>("node", node);
        }
        if let Some((from, to)) = link {
            w.put::<u16>("from", from);
            w.put::<u16>("to", to);
        }
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
    pub fn from_value(root: &Value) -> Result<Self, ScenarioError> {
        let spec: Self = schema::read(root, "the scenario root")?;
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
        if !(self.client_window_secs > 0.0 && self.client_window_secs.is_finite()) {
            return Err(ScenarioError::Invalid(format!(
                "client_window_secs must be positive and finite, got {}",
                self.client_window_secs
            )));
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
        if w.payload_bytes > MAX_PAYLOAD_BYTES {
            return Err(ScenarioError::Invalid(format!(
                "workload payload_bytes {} exceeds the {MAX_PAYLOAD_BYTES}-byte cap",
                w.payload_bytes
            )));
        }
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
        schema::write(self)
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

    #[test]
    fn validator_ids_beyond_u16_are_rejected_not_wrapped() {
        // Each id used to be cast with `as u16`: 65539 crashed validator 3,
        // 65537 pinned leader 1.
        for doc in [
            "[faults]\ncrashed = [65536]\n",
            "[[faults.crash]]\nnodes = [65539]\nat_secs = 5\n",
            "[[faults.slowdown]]\nnodes = [70000]\nextra_ms = 50\n",
            "[[faults.partition]]\na = [0]\nb = [65537]\nuntil_secs = 5\n",
            "[[faults.byzantine]]\nnode = 65536\nstrategy = \"equivocate\"\n",
            "[[faults.byzantine]]\nnode = 0\nstrategy = \"withhold_votes\"\ntargets = [65537]\n",
            "[[faults.chaos]]\nnode = 65536\ndrop = 0.1\n",
            "[[faults.chaos]]\nfrom = 0\nto = 65537\ndrop = 0.1\n",
            "[[variant]]\nlabel = \"s\"\nsystem = \"static-leader\"\nstatic_leader = 65537\n",
            "[faults]\ncrashed = [-1]\n",
        ] {
            let err = ScenarioSpec::parse(&format!("name = \"x\"\n{doc}")).unwrap_err();
            assert!(matches!(err, ScenarioError::Schema(_)), "doc {doc:?} gave {err}");
            assert!(err.to_string().contains("must be a validator id"), "doc {doc:?} gave {err}");
        }
    }

    #[test]
    fn non_finite_client_window_is_rejected() {
        // `1e999` parses as infinity; NaN arrives through `--set`.
        let err =
            ScenarioSpec::parse("name = \"x\"\n[run]\nclient_window_secs = 1e999\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("client_window_secs"), "{err}");
        let mut root = toml::parse("name = \"x\"\n[run]\nclient_window_secs = 1.0\n").unwrap();
        if let Value::Table(t) = &mut root {
            if let Some(Value::Table(run)) = t.get_mut("run") {
                run.insert("client_window_secs".into(), Value::Float(f64::NAN));
            }
        }
        let err = ScenarioSpec::from_value(&root).unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid(_)), "{err}");
    }

    #[test]
    fn unknown_key_errors_name_the_key_and_its_table() {
        for (doc, needle) in [
            ("typo = 1\n", "unknown key `typo` in the scenario root"),
            ("[run]\nduration = 5\n", "unknown key `duration` in [run]"),
            ("[[faults.crash]]\nnodes = [1]\nat = 3\n", "unknown key `at` in [[faults.crash]]"),
            ("[[workload.phase]]\nrate = 2\n", "unknown key `rate` in [[workload.phase]]"),
        ] {
            let err = ScenarioSpec::parse(&format!("name = \"x\"\n{doc}")).unwrap_err();
            assert!(err.to_string().contains(needle), "doc {doc:?} gave {err}");
        }
    }
}
