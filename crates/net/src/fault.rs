//! Fault injection plans.
//!
//! A [`FaultPlan`] declares, ahead of a run, when nodes crash, recover, slow
//! down, or partition. The paper's evaluation needs:
//!
//! * crash faults from t=0 (Fig. 2: 3/16/33 crashed validators);
//! * "less responsive" validators (the §1 Sui mainnet incident: 10% of
//!   validators suddenly slow);
//! * recovery (the crash-recovery feature of the production implementation);
//! * partitions, modelling the pre-GST adversary in liveness tests.
//!
//! The queries the simulator makes on the hot path — [`FaultPlan::
//! slowdown_delay`] and [`FaultPlan::partition_release`] run once per
//! routed message, [`FaultPlan::crashed_at`] per liveness probe — are
//! answered from indexes built incrementally as the plan is assembled: a
//! per-node crash/recovery timeline sorted for binary search, and window
//! lists sorted by start time so a lookup scans only windows that have
//! already opened. Builder-order accessors ([`FaultPlan::crashes`],
//! [`FaultPlan::recoveries`]) are preserved verbatim because the simulator
//! turns them into queue events whose sequence numbers must be stable.
//!
//! Scenario files lower straight into a plan, and [`FaultPlan::validate`]
//! rejects unrunnable timelines before anything runs. The experiment
//! harness reads the same plan to decide which validators carry persistent
//! storage ([`FaultPlan::has_recoveries`]) and which count as live for
//! metrics ([`FaultPlan::live_at`]).

use crate::time::{Duration, SimTime};
use crate::NodeId;
use std::fmt;

/// An unrunnable fault or chaos plan: contradictory, outside the
/// committee, or liveness-destroying. The message names the first
/// violation found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanError(pub(crate) String);

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for PlanError {}

/// Rejects a validator id at or above the committee size.
pub(crate) fn in_committee(node: NodeId, committee_size: usize) -> Result<(), PlanError> {
    if node.0 >= committee_size {
        return Err(PlanError(format!(
            "validator {} is outside the committee of {committee_size}",
            node.0
        )));
    }
    Ok(())
}

/// A per-node slowdown: all messages to and from `node` gain `extra` delay
/// while the window is active.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowdownSpec {
    /// The degraded node.
    pub node: NodeId,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive); `SimTime::MAX` for "until the end".
    pub until: SimTime,
    /// Extra one-way delay added to each message.
    pub extra: Duration,
}

/// A network partition between two groups of nodes.
///
/// Messages crossing the cut during the window are buffered and delivered
/// when the partition heals (links stay reliable, per the model in §2.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSpec {
    /// One side of the cut.
    pub group_a: Vec<NodeId>,
    /// The other side. Nodes in neither group talk to everyone.
    pub group_b: Vec<NodeId>,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive): the heal time.
    pub until: SimTime,
}

impl PartitionSpec {
    /// Whether a message `from → to` crosses the cut at time `now`.
    pub fn severs(&self, from: NodeId, to: NodeId, now: SimTime) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        let a_from = self.group_a.contains(&from);
        let b_from = self.group_b.contains(&from);
        let a_to = self.group_a.contains(&to);
        let b_to = self.group_b.contains(&to);
        (a_from && b_to) || (b_from && a_to)
    }

    /// [`PartitionSpec::severs`] for a plan-held window, whose groups
    /// are sorted for binary-search membership and whose time bounds the
    /// caller has already checked.
    fn severs_sorted(&self, from: NodeId, to: NodeId) -> bool {
        let a_from = self.group_a.binary_search(&from).is_ok();
        let b_from = self.group_b.binary_search(&from).is_ok();
        let a_to = self.group_a.binary_search(&to).is_ok();
        let b_to = self.group_b.binary_search(&to).is_ok();
        (a_from && b_to) || (b_from && a_to)
    }
}

/// What happened to a node at a point on its crash/recovery timeline.
///
/// `Crash < Recover` so that at equal timestamps the recovery sorts last
/// and wins: a node crashed and recovered at the same instant is up,
/// matching the window semantics (`recover_at >= crash_at` cancels).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum NodePhase {
    Crash,
    Recover,
}

/// The full fault schedule for a run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Crash events in builder order (the simulator's event-seq contract).
    crashes: Vec<(NodeId, SimTime)>,
    /// Recovery events in builder order.
    recoveries: Vec<(NodeId, SimTime)>,
    /// Slowdown windows sorted by `from`.
    slowdowns: Vec<SlowdownSpec>,
    /// Partition windows sorted by `from`, groups sorted for membership
    /// tests.
    partitions: Vec<PartitionSpec>,
    /// Per-node crash/recovery timeline sorted by `(node, time, phase)`;
    /// `crashed_at` binary-searches the node's segment.
    timeline: Vec<(NodeId, SimTime, NodePhase)>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    fn index_phase(&mut self, node: NodeId, at: SimTime, phase: NodePhase) {
        let entry = (node, at, phase);
        let pos = self.timeline.partition_point(|e| *e <= entry);
        self.timeline.insert(pos, entry);
    }

    /// Crashes `node` at `at`: it stops processing messages and timers.
    #[must_use]
    pub fn crash(mut self, node: NodeId, at: SimTime) -> Self {
        self.crashes.push((node, at));
        self.index_phase(node, at, NodePhase::Crash);
        self
    }

    /// Crashes `nodes` at simulation start (the Fig. 2 configuration).
    #[must_use]
    pub fn crash_from_start<I: IntoIterator<Item = NodeId>>(mut self, nodes: I) -> Self {
        for n in nodes {
            self = self.crash(n, SimTime::ZERO);
        }
        self
    }

    /// Restarts `node` at `at` (its [`crate::Node::on_restart`] runs).
    #[must_use]
    pub fn recover(mut self, node: NodeId, at: SimTime) -> Self {
        self.recoveries.push((node, at));
        self.index_phase(node, at, NodePhase::Recover);
        self
    }

    /// Adds a slowdown window.
    #[must_use]
    pub fn slowdown(mut self, spec: SlowdownSpec) -> Self {
        let pos = self.slowdowns.partition_point(|s| s.from <= spec.from);
        self.slowdowns.insert(pos, spec);
        self
    }

    /// Adds a partition window.
    #[must_use]
    pub fn partition(mut self, mut spec: PartitionSpec) -> Self {
        spec.group_a.sort_unstable();
        spec.group_b.sort_unstable();
        let pos = self.partitions.partition_point(|p| p.from <= spec.from);
        self.partitions.insert(pos, spec);
        self
    }

    /// Crashes the *last* `count` of `committee_size` validators from t=0
    /// (keeps the leader slots of early ids intact, matching "maximum
    /// tolerable faults" benchmarks).
    ///
    /// # Errors
    ///
    /// Fails when `count >= committee_size`: crashing everyone (or more
    /// validators than exist) leaves nothing to measure.
    pub fn crash_last(committee_size: usize, count: usize) -> Result<Self, PlanError> {
        if count >= committee_size {
            return Err(PlanError(format!(
                "crash_last: crashing the last {count} of {committee_size} validators leaves \
                 no live validator"
            )));
        }
        Ok(FaultPlan::new().crash_from_start((committee_size - count..committee_size).map(NodeId)))
    }

    /// Scheduled crash events, in builder order.
    pub fn crashes(&self) -> &[(NodeId, SimTime)] {
        &self.crashes
    }

    /// Scheduled recovery events, in builder order.
    pub fn recoveries(&self) -> &[(NodeId, SimTime)] {
        &self.recoveries
    }

    /// Slowdown windows, sorted by start (builder order among equal
    /// starts).
    pub fn slowdowns(&self) -> &[SlowdownSpec] {
        &self.slowdowns
    }

    /// Partition windows, sorted by start (builder order among equal
    /// starts), each with both groups sorted.
    pub fn partitions(&self) -> &[PartitionSpec] {
        &self.partitions
    }

    /// Whether the plan injects no fault at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.recoveries.is_empty()
            && self.slowdowns.is_empty()
            && self.partitions.is_empty()
    }

    /// Whether any recovery is scheduled (such runs get WAL-backed
    /// validator stores so `on_restart` has state to replay).
    pub fn has_recoveries(&self) -> bool {
        !self.recoveries.is_empty()
    }

    /// Distinct nodes with a crash anywhere on the timeline, ascending
    /// (the run's fault count).
    pub fn crashed_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.crashes.iter().map(|(node, _)| *node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Indices of the nodes below `committee_size` not crashed at `t_us`
    /// (µs), ascending.
    pub fn live_at(&self, committee_size: usize, t_us: u64) -> Vec<usize> {
        (0..committee_size).filter(|i| !self.crashed_at(NodeId(*i), SimTime(t_us))).collect()
    }

    /// Extra one-way delay affecting a `from → to` message sent at `now`.
    pub fn slowdown_delay(&self, from: NodeId, to: NodeId, now: SimTime) -> Duration {
        let mut extra = Duration::ZERO;
        // Windows are sorted by start; everything past the partition point
        // has not opened yet.
        let opened = self.slowdowns.partition_point(|s| s.from <= now);
        for s in &self.slowdowns[..opened] {
            if (s.node == from || s.node == to) && now < s.until {
                extra = extra + s.extra;
            }
        }
        extra
    }

    /// If a `from → to` message sent at `now` crosses an active partition,
    /// returns the heal time it must wait for.
    pub fn partition_release(&self, from: NodeId, to: NodeId, now: SimTime) -> Option<SimTime> {
        let opened = self.partitions.partition_point(|p| p.from <= now);
        self.partitions[..opened]
            .iter()
            .filter(|p| now < p.until && p.severs_sorted(from, to))
            .map(|p| p.until)
            .max()
    }

    /// Whether `node` is crashed at `t` (crashed at or before, not yet
    /// recovered after the crash).
    ///
    /// Answered by binary search over the node's sorted event timeline:
    /// the latest crash-or-recover event at or before `t` decides.
    pub fn crashed_at(&self, node: NodeId, t: SimTime) -> bool {
        let lo = self.timeline.partition_point(|e| e.0 < node);
        let hi = self.timeline.partition_point(|e| e.0 <= node);
        let segment = &self.timeline[lo..hi];
        let events_before = segment.partition_point(|e| e.1 <= t);
        match segment[..events_before].last() {
            Some((_, _, NodePhase::Crash)) => true,
            Some((_, _, NodePhase::Recover)) | None => false,
        }
    }

    /// Checks the plan against a committee of `committee_size`:
    ///
    /// * every referenced validator exists;
    /// * no contradictory crash/recovery sequencing — a recovery must
    ///   follow a crash of the same node, and a node cannot crash twice
    ///   without recovering in between;
    /// * at most `f = (n - 1) / 3` validators are crashed at any instant
    ///   (beyond that the protocol cannot commit and the run measures
    ///   nothing);
    /// * partitions have disjoint non-empty groups and non-empty windows;
    /// * slowdowns have positive delay and non-empty windows.
    ///
    /// The per-entry checks visit crashes and recoveries in builder order,
    /// then slowdowns and partitions in start order; sequencing and the
    /// concurrency bound are checked last.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] naming the first violation.
    pub fn validate(&self, committee_size: usize) -> Result<(), PlanError> {
        let n = committee_size;
        for (node, _) in self.crashes.iter().chain(&self.recoveries) {
            in_committee(*node, n)?;
        }
        for s in &self.slowdowns {
            in_committee(s.node, n)?;
            if s.extra == Duration::ZERO {
                return Err(PlanError(format!(
                    "slowdown of validator {} has zero extra delay",
                    s.node.0
                )));
            }
            if s.until <= s.from {
                return Err(PlanError(format!(
                    "slowdown window of validator {} is empty ({}µs..{}µs)",
                    s.node.0, s.from.0, s.until.0
                )));
            }
        }
        for p in &self.partitions {
            if p.group_a.is_empty() || p.group_b.is_empty() {
                return Err(PlanError("partition groups must both be non-empty".into()));
            }
            for node in p.group_a.iter().chain(&p.group_b) {
                in_committee(*node, n)?;
            }
            if let Some(shared) = p.group_a.iter().find(|x| p.group_b.binary_search(x).is_ok()) {
                return Err(PlanError(format!(
                    "validator {} is on both sides of a partition",
                    shared.0
                )));
            }
            if p.until <= p.from {
                return Err(PlanError(format!(
                    "partition window is empty ({}µs..{}µs)",
                    p.from.0, p.until.0
                )));
            }
        }

        // Sequencing: the timeline is sorted per node by time, a crash
        // before a recovery at the same instant (a zero-length outage);
        // require strict crash/recover alternation starting with a crash.
        let mut current = None;
        let mut down = false;
        for &(node, at, phase) in &self.timeline {
            if current != Some(node) {
                current = Some(node);
                down = false;
            }
            match (phase, down) {
                (NodePhase::Crash, true) => {
                    return Err(PlanError(format!(
                        "validator {} crashes again at {}µs without recovering first",
                        node.0, at.0
                    )))
                }
                (NodePhase::Recover, false) => {
                    return Err(PlanError(format!(
                        "validator {} recovers at {}µs without a preceding crash",
                        node.0, at.0
                    )))
                }
                (NodePhase::Crash, false) => down = true,
                (NodePhase::Recover, true) => down = false,
            }
        }

        // Concurrency sweep: at no instant may more than f validators be
        // down. A recovery at t frees its node at t (window semantics), so
        // process recoveries before crashes at equal times.
        let f = n.saturating_sub(1) / 3;
        let mut sweep: Vec<(SimTime, bool)> =
            self.timeline.iter().map(|&(_, at, phase)| (at, phase == NodePhase::Crash)).collect();
        sweep.sort_unstable();
        let mut down = 0usize;
        for (at, is_crash) in sweep {
            if is_crash {
                down += 1;
                if down > f {
                    return Err(PlanError(format!(
                        "{down} validators crashed at once at {}µs exceeds f = {f} for a \
                         committee of {n}",
                        at.0
                    )));
                }
            } else {
                down = down.saturating_sub(1);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn crash_and_recover_windows() {
        let plan = FaultPlan::new()
            .crash(NodeId(1), SimTime::from_secs(10))
            .recover(NodeId(1), SimTime::from_secs(20));
        assert!(!plan.crashed_at(NodeId(1), SimTime::from_secs(5)));
        assert!(plan.crashed_at(NodeId(1), SimTime::from_secs(10)));
        assert!(plan.crashed_at(NodeId(1), SimTime::from_secs(15)));
        assert!(!plan.crashed_at(NodeId(1), SimTime::from_secs(20)));
        assert!(!plan.crashed_at(NodeId(2), SimTime::from_secs(15)));
    }

    #[test]
    fn crash_from_start() {
        let plan = FaultPlan::new().crash_from_start([NodeId(0), NodeId(3)]);
        assert!(plan.crashed_at(NodeId(0), SimTime::ZERO));
        assert!(plan.crashed_at(NodeId(3), SimTime::from_secs(100)));
        assert!(!plan.crashed_at(NodeId(1), SimTime::ZERO));
    }

    #[test]
    fn repeated_crash_after_recovery() {
        let plan = FaultPlan::new()
            .crash(NodeId(1), SimTime::from_secs(10))
            .recover(NodeId(1), SimTime::from_secs(20))
            .crash(NodeId(1), SimTime::from_secs(30));
        assert!(!plan.crashed_at(NodeId(1), SimTime::from_secs(25)));
        assert!(plan.crashed_at(NodeId(1), SimTime::from_secs(31)));
    }

    #[test]
    fn recover_at_crash_instant_means_up() {
        let plan = FaultPlan::new()
            .crash(NodeId(1), SimTime::from_secs(10))
            .recover(NodeId(1), SimTime::from_secs(10));
        assert!(!plan.crashed_at(NodeId(1), SimTime::from_secs(10)));
        assert!(!plan.crashed_at(NodeId(1), SimTime::from_secs(11)));
    }

    #[test]
    fn stray_recovery_before_crash_does_not_cancel_it() {
        let plan = FaultPlan::new()
            .recover(NodeId(1), SimTime::from_secs(5))
            .crash(NodeId(1), SimTime::from_secs(10));
        assert!(!plan.crashed_at(NodeId(1), SimTime::from_secs(7)));
        assert!(plan.crashed_at(NodeId(1), SimTime::from_secs(15)));
    }

    #[test]
    fn builder_order_is_preserved_for_event_accessors() {
        // The simulator's event sequence numbers follow accessor order, so
        // the index must never re-shuffle these.
        let plan = FaultPlan::new()
            .crash(NodeId(3), SimTime::from_secs(9))
            .crash(NodeId(1), SimTime::ZERO)
            .recover(NodeId(3), SimTime::from_secs(12))
            .recover(NodeId(1), SimTime::from_secs(4));
        assert_eq!(
            plan.crashes(),
            &[(NodeId(3), SimTime::from_secs(9)), (NodeId(1), SimTime::ZERO)]
        );
        assert_eq!(
            plan.recoveries(),
            &[(NodeId(3), SimTime::from_secs(12)), (NodeId(1), SimTime::from_secs(4))]
        );
    }

    #[test]
    fn slowdown_applies_both_directions_within_window() {
        let plan = FaultPlan::new().slowdown(SlowdownSpec {
            node: NodeId(2),
            from: SimTime::from_secs(1),
            until: SimTime::from_secs(2),
            extra: Duration::from_millis(100),
        });
        let t = SimTime::from_millis(1500);
        assert_eq!(plan.slowdown_delay(NodeId(2), NodeId(0), t), Duration::from_millis(100));
        assert_eq!(plan.slowdown_delay(NodeId(0), NodeId(2), t), Duration::from_millis(100));
        assert_eq!(plan.slowdown_delay(NodeId(0), NodeId(1), t), Duration::ZERO);
        assert_eq!(
            plan.slowdown_delay(NodeId(2), NodeId(0), SimTime::from_secs(3)),
            Duration::ZERO
        );
    }

    #[test]
    fn overlapping_slowdowns_accumulate() {
        let spec = |extra| SlowdownSpec {
            node: NodeId(1),
            from: SimTime::ZERO,
            until: SimTime::MAX,
            extra: Duration::from_millis(extra),
        };
        let plan = FaultPlan::new().slowdown(spec(50)).slowdown(spec(25));
        assert_eq!(
            plan.slowdown_delay(NodeId(1), NodeId(0), SimTime::from_secs(1)),
            Duration::from_millis(75)
        );
    }

    #[test]
    fn partition_severs_cross_traffic_only() {
        let p = PartitionSpec {
            group_a: vec![NodeId(0), NodeId(1)],
            group_b: vec![NodeId(2), NodeId(3)],
            from: SimTime::from_secs(1),
            until: SimTime::from_secs(5),
        };
        let plan = FaultPlan::new().partition(p);
        let mid = SimTime::from_secs(2);
        assert_eq!(plan.partition_release(NodeId(0), NodeId(2), mid), Some(SimTime::from_secs(5)));
        assert_eq!(plan.partition_release(NodeId(3), NodeId(1), mid), Some(SimTime::from_secs(5)));
        assert_eq!(plan.partition_release(NodeId(0), NodeId(1), mid), None);
        assert_eq!(plan.partition_release(NodeId(0), NodeId(2), SimTime::from_secs(6)), None);
        // A node outside both groups is unaffected.
        assert_eq!(plan.partition_release(NodeId(0), NodeId(9), mid), None);
    }

    #[test]
    fn overlapping_partitions_release_at_the_latest_heal() {
        let window = |from, until| PartitionSpec {
            group_a: vec![NodeId(0)],
            group_b: vec![NodeId(1)],
            from: SimTime::from_secs(from),
            until: SimTime::from_secs(until),
        };
        // Inserted out of start order; the index sorts them.
        let plan = FaultPlan::new().partition(window(3, 9)).partition(window(1, 5));
        assert_eq!(
            plan.partition_release(NodeId(0), NodeId(1), SimTime::from_secs(4)),
            Some(SimTime::from_secs(9))
        );
        assert_eq!(
            plan.partition_release(NodeId(0), NodeId(1), SimTime::from_secs(2)),
            Some(SimTime::from_secs(5))
        );
    }

    /// A crash or recovery entry as the plan lists it.
    fn event(node: usize, at_us: u64) -> (NodeId, SimTime) {
        (NodeId(node), SimTime(at_us))
    }

    fn slowdown_us(node: usize, from_us: u64, until_us: u64, extra_us: u64) -> SlowdownSpec {
        SlowdownSpec {
            node: NodeId(node),
            from: SimTime(from_us),
            until: SimTime(until_us),
            extra: Duration::from_micros(extra_us),
        }
    }

    fn partition_us(a: &[usize], b: &[usize], from_us: u64, until_us: u64) -> PartitionSpec {
        PartitionSpec {
            group_a: a.iter().map(|i| NodeId(*i)).collect(),
            group_b: b.iter().map(|i| NodeId(*i)).collect(),
            from: SimTime(from_us),
            until: SimTime(until_us),
        }
    }

    #[test]
    fn crash_last_crashes_the_tail() {
        let plan = FaultPlan::crash_last(10, 3).expect("valid");
        assert_eq!(plan.crashed_nodes(), vec![NodeId(7), NodeId(8), NodeId(9)]);
        assert!(plan.crashed_at(NodeId(8), SimTime::ZERO));
        assert!(!plan.crashed_at(NodeId(0), SimTime::ZERO));
        assert_eq!(plan.live_at(10, 0), vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn crash_last_rejects_oversized_counts() {
        assert!(FaultPlan::crash_last(4, 5).is_err());
        assert!(FaultPlan::crash_last(4, 4).is_err());
        assert!(FaultPlan::crash_last(0, 0).is_err());
    }

    #[test]
    fn recovery_windows_flow_into_liveness() {
        let plan = FaultPlan::new()
            .crash(NodeId(2), SimTime(5_000_000))
            .recover(NodeId(2), SimTime(9_000_000));
        assert!(!plan.crashed_at(NodeId(2), SimTime(4_999_999)));
        assert!(plan.crashed_at(NodeId(2), SimTime(5_000_000)));
        assert!(plan.crashed_at(NodeId(2), SimTime(8_999_999)));
        assert!(!plan.crashed_at(NodeId(2), SimTime(9_000_000)));
        assert_eq!(plan.live_at(4, 6_000_000), vec![0, 1, 3]);
        assert_eq!(plan.live_at(4, 10_000_000), vec![0, 1, 2, 3]);
        assert!(plan.has_recoveries());
        assert_eq!(plan.recoveries(), &[event(2, 9_000_000)]);
    }

    #[test]
    fn mixed_plan_keeps_builder_order_and_windows() {
        let plan = FaultPlan::new()
            .crash_from_start([NodeId(2), NodeId(3)])
            .recover(NodeId(3), SimTime(7_000_000))
            .slowdown(slowdown_us(1, 1_000_000, u64::MAX, 250_000))
            .partition(partition_us(&[0], &[1], 2_000_000, 4_000_000));
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
        assert_eq!(plan.crashes(), &[event(2, 0), event(3, 0)]);
        assert_eq!(plan.recoveries(), &[event(3, 7_000_000)]);
        assert!(plan.crashed_at(NodeId(2), SimTime(8_000_000)));
        assert!(!plan.crashed_at(NodeId(3), SimTime(8_000_000)));
        assert_eq!(
            plan.slowdown_delay(NodeId(1), NodeId(0), SimTime(1_500_000)),
            Duration::from_micros(250_000)
        );
        assert_eq!(
            plan.partition_release(NodeId(0), NodeId(1), SimTime(3_000_000)),
            Some(SimTime(4_000_000))
        );
    }

    #[test]
    fn validate_accepts_a_full_dynamic_schedule() {
        let plan = FaultPlan::new()
            .crash(NodeId(3), SimTime(2_000_000))
            .recover(NodeId(3), SimTime(6_000_000))
            .crash(NodeId(3), SimTime(9_000_000))
            .recover(NodeId(3), SimTime(12_000_000))
            .slowdown(slowdown_us(1, 4_000_000, u64::MAX, 300_000))
            .partition(partition_us(&[0, 1], &[2, 3, 4, 5, 6], 3_000_000, 5_000_000));
        assert!(plan.validate(7).is_ok());
    }

    #[test]
    fn validate_rejects_recover_before_crash() {
        let plan = FaultPlan::new().recover(NodeId(1), SimTime(5_000_000));
        let err = plan.validate(4).unwrap_err().to_string();
        assert!(err.contains("without a preceding crash"), "{err}");

        let plan = FaultPlan::new()
            .crash(NodeId(1), SimTime(8_000_000))
            .recover(NodeId(1), SimTime(5_000_000));
        let err = plan.validate(4).unwrap_err().to_string();
        assert!(err.contains("without a preceding crash"), "{err}");
    }

    #[test]
    fn validate_rejects_double_crash() {
        let plan = FaultPlan::new()
            .crash(NodeId(1), SimTime(1_000_000))
            .crash(NodeId(1), SimTime(2_000_000));
        let err = plan.validate(7).unwrap_err().to_string();
        assert!(err.contains("crashes again"), "{err}");
    }

    #[test]
    fn validate_rejects_more_than_f_concurrent_crashes() {
        // n = 7 → f = 2; three validators down at once is unrunnable ...
        let plan = FaultPlan::new()
            .crash(NodeId(0), SimTime::ZERO)
            .crash(NodeId(1), SimTime::ZERO)
            .crash(NodeId(2), SimTime(1_000_000));
        let err = plan.validate(7).unwrap_err().to_string();
        assert!(err.contains("exceeds f = 2"), "{err}");
        // ... but fine once staggered around a recovery.
        let plan = FaultPlan::new()
            .crash(NodeId(0), SimTime::ZERO)
            .crash(NodeId(1), SimTime::ZERO)
            .recover(NodeId(0), SimTime(500_000))
            .crash(NodeId(2), SimTime(1_000_000));
        assert!(plan.validate(7).is_ok());
    }

    #[test]
    fn validate_rejects_bad_partitions_and_ranges() {
        let overlap = FaultPlan::new().partition(partition_us(&[0, 1], &[1, 2], 0, 1_000_000));
        assert!(overlap.validate(4).unwrap_err().to_string().contains("both sides"));

        let empty = FaultPlan::new().partition(partition_us(&[], &[1], 0, 1_000_000));
        assert!(empty.validate(4).is_err());

        let inverted = FaultPlan::new().partition(partition_us(&[0], &[1], 2_000_000, 1_000_000));
        assert!(inverted.validate(4).unwrap_err().to_string().contains("empty"));

        let out_of_range = FaultPlan::new().crash(NodeId(9), SimTime::ZERO);
        assert!(out_of_range.validate(4).unwrap_err().to_string().contains("outside"));
    }

    /// The indexed `crashed_at` must agree with a direct transcription of
    /// the window semantics on randomized event sets.
    #[test]
    fn crashed_at_matches_naive_oracle_on_random_schedules() {
        fn naive(
            crashes: &[(NodeId, SimTime)],
            recoveries: &[(NodeId, SimTime)],
            node: NodeId,
            t: SimTime,
        ) -> bool {
            let last_crash =
                crashes.iter().filter(|(n, at)| *n == node && *at <= t).map(|(_, at)| *at).max();
            let Some(crash_time) = last_crash else {
                return false;
            };
            !recoveries.iter().any(|(n, at)| *n == node && *at >= crash_time && *at <= t)
        }

        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let mut plan = FaultPlan::new();
            let mut crashes = Vec::new();
            let mut recoveries = Vec::new();
            for _ in 0..rng.gen_range(0..24usize) {
                let node = NodeId(rng.gen_range(0..6));
                let at = SimTime(rng.gen_range(0..40));
                if rng.gen_bool(0.5) {
                    plan = plan.crash(node, at);
                    crashes.push((node, at));
                } else {
                    plan = plan.recover(node, at);
                    recoveries.push((node, at));
                }
            }
            for _ in 0..40 {
                let node = NodeId(rng.gen_range(0..6));
                let t = SimTime(rng.gen_range(0..44));
                assert_eq!(
                    plan.crashed_at(node, t),
                    naive(&crashes, &recoveries, node, t),
                    "node {node} at {t}: crashes {crashes:?} recoveries {recoveries:?}"
                );
            }
        }
    }
}
