//! Link-level network chaos: scheduled windows of frame drop,
//! duplication, reordering and corruption.
//!
//! A [`ChaosPlan`] is what a scenario's `[[faults.chaos]]` tables lower
//! to, and [`ChaosPlan::validate`] rejects unrunnable timelines up front.
//! Each [`ChaosWindow`] covers a set of directed links (all links, one
//! node's links, or a single directed pair) for a half-open time
//! interval and carries independent rates for each effect. The
//! simulator consults [`ChaosPlan::window_at`] on every routed frame;
//! when no window matches — in particular, in every chaos-free run — the
//! plan draws nothing from the RNG, so existing executions stay
//! bit-identical.
//!
//! Unlike crashes, chaos never changes the *logical* fault model: every
//! effect acts on encoded frames below the protocol, so an honest protocol
//! must ride it out (drop → retransmit, duplicate → idempotent absorb,
//! corrupt → die at the codec, reorder → DAG buffering).
//!
//! Overlap on the same directed link at the same instant is rejected by
//! [`ChaosPlan::validate`], so `window_at` can return the first match
//! without ambiguity.

use crate::fault::{in_committee, PlanError};
use crate::sim::NodeId;
use crate::time::{Duration, SimTime};
use std::fmt;

/// Which directed links a chaos window covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosScope {
    /// Every link between in-scope nodes.
    AllLinks,
    /// Every link touching `node`, inbound or outbound.
    Node(NodeId),
    /// The directed link `from -> to` only.
    Pair {
        /// Sender side.
        from: NodeId,
        /// Receiver side.
        to: NodeId,
    },
}

impl ChaosScope {
    /// Whether the directed link `from -> to` falls under this scope.
    pub fn covers(&self, from: NodeId, to: NodeId) -> bool {
        match *self {
            ChaosScope::AllLinks => true,
            ChaosScope::Node(n) => from == n || to == n,
            ChaosScope::Pair { from: f, to: t } => from == f && to == t,
        }
    }

    /// Whether two scopes share at least one directed link. Any two
    /// node scopes intersect (the link between the two nodes belongs to
    /// both), which is what makes first-match lookup unambiguous once
    /// time-overlapping intersecting windows are rejected.
    pub fn intersects(&self, other: &ChaosScope) -> bool {
        match (*self, *other) {
            (ChaosScope::AllLinks, _) | (_, ChaosScope::AllLinks) => true,
            (ChaosScope::Node(_), ChaosScope::Node(_)) => true,
            (ChaosScope::Node(n), ChaosScope::Pair { from, to })
            | (ChaosScope::Pair { from, to }, ChaosScope::Node(n)) => from == n || to == n,
            (ChaosScope::Pair { from: f1, to: t1 }, ChaosScope::Pair { from: f2, to: t2 }) => {
                f1 == f2 && t1 == t2
            }
        }
    }
}

impl fmt::Display for ChaosScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosScope::AllLinks => write!(f, "all links"),
            ChaosScope::Node(n) => write!(f, "links of validator {}", n.0),
            ChaosScope::Pair { from, to } => write!(f, "link {} -> {}", from.0, to.0),
        }
    }
}

/// One chaos window: effect rates applied to every matching frame while
/// `from <= now < until`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosWindow {
    /// The links covered.
    pub scope: ChaosScope,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Probability a frame is dropped outright.
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame's encoded bytes are flipped in flight.
    pub corrupt: f64,
    /// Maximum extra per-frame delay, drawn uniformly in `[0, reorder]`
    /// — frames overtake each other when it exceeds the latency spread.
    pub reorder: Duration,
}

impl ChaosWindow {
    fn has_effect(&self) -> bool {
        self.drop > 0.0
            || self.duplicate > 0.0
            || self.corrupt > 0.0
            || self.reorder > Duration::ZERO
    }
}

/// The full chaos timeline of one run, plus the id bound separating
/// validators from co-simulated clients.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosPlan {
    /// Windows sorted by `from` (stable, preserving builder order among
    /// equal starts).
    windows: Vec<ChaosWindow>,
    /// Declaration index of each entry of `windows`, so validation errors
    /// name windows in the order they were added.
    declared: Vec<usize>,
    /// Chaos only touches links whose endpoints are both below this
    /// bound; client actors ride above the validator ids and keep clean
    /// links to their local validator.
    scope_limit: usize,
}

impl ChaosPlan {
    /// An empty plan: no window ever matches, no RNG draw ever happens.
    pub fn new() -> Self {
        ChaosPlan { windows: Vec::new(), declared: Vec::new(), scope_limit: usize::MAX }
    }

    /// Adds a window, keeping the list sorted by start time.
    #[must_use]
    pub fn window(mut self, w: ChaosWindow) -> Self {
        let pos = self.windows.partition_point(|x| x.from <= w.from);
        self.declared.insert(pos, self.windows.len());
        self.windows.insert(pos, w);
        self
    }

    /// Restricts chaos to links whose endpoints are both below `n`
    /// (the validator ids; clients sit at `n..`).
    #[must_use]
    pub fn restrict_to(mut self, n: usize) -> Self {
        self.scope_limit = n;
        self
    }

    /// Whether the plan has no windows at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The windows, sorted by start time.
    pub fn windows(&self) -> &[ChaosWindow] {
        &self.windows
    }

    /// The window governing the directed link `from -> to` at `now`,
    /// if any. First match wins; [`ChaosPlan::validate`] guarantees
    /// there is at most one.
    pub fn window_at(&self, from: NodeId, to: NodeId, now: SimTime) -> Option<&ChaosWindow> {
        if self.windows.is_empty() || from.0 >= self.scope_limit || to.0 >= self.scope_limit {
            return None;
        }
        let started = self.windows.partition_point(|w| w.from <= now);
        self.windows[..started].iter().find(|w| now < w.until && w.scope.covers(from, to))
    }

    /// Checks the plan against a committee of `committee_size`:
    ///
    /// * every rate lies in `[0, 1]`;
    /// * every referenced validator exists;
    /// * directed pairs have distinct endpoints;
    /// * every window is non-empty and has at least one effect;
    /// * no two windows overlap in time while sharing a directed link —
    ///   [`ChaosPlan::window_at`] resolves lookups first-match, so an
    ///   overlap would silently shadow one window's rates with the other's.
    ///
    /// "Chaos window *i*" in an error is the *i*-th window added to the
    /// plan, whatever its start time.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] naming the first violation.
    pub fn validate(&self, committee_size: usize) -> Result<(), PlanError> {
        let mut by_declaration: Vec<(usize, &ChaosWindow)> =
            self.declared.iter().copied().zip(&self.windows).collect();
        by_declaration.sort_unstable_by_key(|(i, _)| *i);
        let windows: Vec<&ChaosWindow> = by_declaration.into_iter().map(|(_, w)| w).collect();

        for (i, w) in windows.iter().enumerate() {
            for (name, rate) in
                [("drop", w.drop), ("duplicate", w.duplicate), ("corrupt", w.corrupt)]
            {
                if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                    return Err(PlanError(format!(
                        "chaos window {i} ({}): {name} rate {rate} is outside [0, 1]",
                        w.scope
                    )));
                }
            }
            match w.scope {
                ChaosScope::AllLinks => {}
                ChaosScope::Node(node) => in_committee(node, committee_size)?,
                ChaosScope::Pair { from, to } => {
                    in_committee(from, committee_size)?;
                    in_committee(to, committee_size)?;
                    if from == to {
                        return Err(PlanError(format!(
                            "chaos window {i}: a link needs two distinct endpoints, got \
                             {} -> {}",
                            from.0, to.0
                        )));
                    }
                }
            }
            if w.until <= w.from {
                return Err(PlanError(format!(
                    "chaos window {i} ({}) is empty ({}µs..{}µs)",
                    w.scope, w.from.0, w.until.0
                )));
            }
            if !w.has_effect() {
                return Err(PlanError(format!(
                    "chaos window {i} ({}) has no effect: all rates zero and no reorder",
                    w.scope
                )));
            }
        }
        // Pairwise overlap check: half-open time intervals intersecting
        // while the scopes share at least one directed link.
        for (i, a) in windows.iter().enumerate() {
            for (j, b) in windows.iter().enumerate().skip(i + 1) {
                let time_overlap = a.from < b.until && b.from < a.until;
                if time_overlap && a.scope.intersects(&b.scope) {
                    return Err(PlanError(format!(
                        "chaos windows {i} ({}) and {j} ({}) overlap in \
                         [{}µs, {}µs) on a shared link; split the windows or merge the rates",
                        a.scope,
                        b.scope,
                        a.from.max(b.from).0,
                        a.until.min(b.until).0,
                    )));
                }
            }
        }
        Ok(())
    }
}

impl Default for ChaosPlan {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(scope: ChaosScope, from_ms: u64, until_ms: u64) -> ChaosWindow {
        ChaosWindow {
            scope,
            from: SimTime::from_millis(from_ms),
            until: SimTime::from_millis(until_ms),
            drop: 0.5,
            duplicate: 0.0,
            corrupt: 0.0,
            reorder: Duration::ZERO,
        }
    }

    #[test]
    fn scope_coverage() {
        let all = ChaosScope::AllLinks;
        let node = ChaosScope::Node(NodeId(2));
        let pair = ChaosScope::Pair { from: NodeId(1), to: NodeId(3) };
        assert!(all.covers(NodeId(0), NodeId(9)));
        assert!(node.covers(NodeId(2), NodeId(5)));
        assert!(node.covers(NodeId(5), NodeId(2)));
        assert!(!node.covers(NodeId(0), NodeId(1)));
        assert!(pair.covers(NodeId(1), NodeId(3)));
        assert!(!pair.covers(NodeId(3), NodeId(1)), "pair scope is directed");
    }

    #[test]
    fn scope_intersection_is_symmetric_and_link_based() {
        let node_a = ChaosScope::Node(NodeId(0));
        let node_b = ChaosScope::Node(NodeId(1));
        // The link 0 -> 1 belongs to both node scopes.
        assert!(node_a.intersects(&node_b));
        let pair = ChaosScope::Pair { from: NodeId(2), to: NodeId(3) };
        assert!(!node_a.intersects(&pair));
        assert!(pair.intersects(&ChaosScope::Node(NodeId(3))));
        let other_pair = ChaosScope::Pair { from: NodeId(3), to: NodeId(2) };
        assert!(!pair.intersects(&other_pair), "reversed pair is a different link");
    }

    #[test]
    fn window_at_respects_time_and_scope() {
        let plan = ChaosPlan::new()
            .window(window(ChaosScope::Node(NodeId(1)), 100, 200))
            .window(window(ChaosScope::AllLinks, 300, 400));
        assert!(plan.window_at(NodeId(0), NodeId(1), SimTime::from_millis(50)).is_none());
        assert!(plan.window_at(NodeId(0), NodeId(1), SimTime::from_millis(150)).is_some());
        assert!(plan.window_at(NodeId(0), NodeId(2), SimTime::from_millis(150)).is_none());
        assert!(
            plan.window_at(NodeId(0), NodeId(1), SimTime::from_millis(200)).is_none(),
            "window end is exclusive"
        );
        assert!(plan.window_at(NodeId(5), NodeId(6), SimTime::from_millis(350)).is_some());
    }

    #[test]
    fn scope_limit_exempts_client_links() {
        let plan = ChaosPlan::new().window(window(ChaosScope::AllLinks, 0, 1000)).restrict_to(4);
        assert!(plan.window_at(NodeId(0), NodeId(3), SimTime::from_millis(10)).is_some());
        // Client 4 talking to validator 0 keeps a clean link.
        assert!(plan.window_at(NodeId(4), NodeId(0), SimTime::from_millis(10)).is_none());
        assert!(plan.window_at(NodeId(0), NodeId(4), SimTime::from_millis(10)).is_none());
        // A window until `SimTime::MAX` never closes.
        let endless = ChaosWindow { until: SimTime::MAX, ..window(ChaosScope::AllLinks, 0, 0) };
        let plan = ChaosPlan::new().window(endless).restrict_to(4);
        assert!(plan.window_at(NodeId(0), NodeId(1), SimTime(u64::MAX - 1)).is_some());
    }

    /// A window over `scope` for `[from_us, until_us)` dropping `drop`
    /// of its frames.
    fn dropping(scope: ChaosScope, from_us: u64, until_us: u64, drop: f64) -> ChaosWindow {
        ChaosWindow {
            from: SimTime(from_us),
            until: SimTime(until_us),
            drop,
            ..window(scope, 0, 0)
        }
    }

    #[test]
    fn validate_accepts_disjoint_windows() {
        let plan = ChaosPlan::new()
            .window(dropping(ChaosScope::AllLinks, 0, 5_000_000, 0.3))
            .window(dropping(ChaosScope::AllLinks, 5_000_000, 10_000_000, 0.1))
            .window(dropping(ChaosScope::Node(NodeId(2)), 12_000_000, 14_000_000, 0.5));
        assert!(plan.validate(4).is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_rates() {
        let plan = ChaosPlan::new().window(dropping(ChaosScope::AllLinks, 0, 1_000_000, 1.5));
        let err = plan.validate(4).unwrap_err().to_string();
        assert!(err.contains("drop rate 1.5 is outside [0, 1]"), "{err}");
        let plan = ChaosPlan::new().window(ChaosWindow {
            duplicate: -0.1,
            ..dropping(ChaosScope::AllLinks, 0, 1_000_000, 0.0)
        });
        assert!(plan.validate(4).is_err());
    }

    #[test]
    fn validate_rejects_unknown_validators_and_self_links() {
        let plan =
            ChaosPlan::new().window(dropping(ChaosScope::Node(NodeId(9)), 0, 1_000_000, 0.5));
        assert!(plan.validate(4).unwrap_err().to_string().contains("outside the committee"));
        let self_link = ChaosScope::Pair { from: NodeId(1), to: NodeId(1) };
        let plan = ChaosPlan::new().window(dropping(self_link, 0, 1_000_000, 0.5));
        assert!(plan.validate(4).unwrap_err().to_string().contains("two distinct endpoints"));
    }

    #[test]
    fn validate_rejects_empty_and_effectless_windows() {
        let plan =
            ChaosPlan::new().window(dropping(ChaosScope::AllLinks, 2_000_000, 1_000_000, 0.5));
        assert!(plan.validate(4).unwrap_err().to_string().contains("is empty"));
        let plan = ChaosPlan::new().window(dropping(ChaosScope::AllLinks, 0, 1_000_000, 0.0));
        assert!(plan.validate(4).unwrap_err().to_string().contains("has no effect"));
    }

    #[test]
    fn validate_rejects_same_link_time_overlap() {
        // Node(1) and Pair{0 -> 1} share the link 0 -> 1.
        let pair = |from, to| ChaosScope::Pair { from: NodeId(from), to: NodeId(to) };
        let plan = ChaosPlan::new()
            .window(dropping(ChaosScope::Node(NodeId(1)), 0, 2_000_000, 0.2))
            .window(dropping(pair(0, 1), 1_000_000, 3_000_000, 0.4));
        let err = plan.validate(4).unwrap_err().to_string();
        assert!(err.contains("overlap"), "{err}");
        // Disjoint link sets may overlap in time.
        let plan = ChaosPlan::new()
            .window(dropping(pair(0, 1), 0, 2_000_000, 0.2))
            .window(dropping(pair(1, 0), 0, 2_000_000, 0.4));
        assert!(plan.validate(4).is_ok());
    }

    #[test]
    fn validate_names_windows_in_declaration_order() {
        // Declared out of start order: the plan sorts windows by start, but
        // errors keep naming them by the order they were added.
        let plan = ChaosPlan::new()
            .window(dropping(ChaosScope::AllLinks, 5_000_000, 6_000_000, 0.2))
            .window(dropping(ChaosScope::AllLinks, 0, 1_000_000, 1.5));
        assert_eq!(plan.windows()[0].drop, 1.5, "stored by start");
        let err = plan.validate(4).unwrap_err().to_string();
        assert!(err.starts_with("chaos window 1 (all links): drop rate 1.5"), "{err}");
        let plan = ChaosPlan::new()
            .window(dropping(ChaosScope::AllLinks, 5_000_000, 9_000_000, 0.2))
            .window(dropping(ChaosScope::Node(NodeId(0)), 0, 6_000_000, 0.3));
        let err = plan.validate(4).unwrap_err().to_string();
        assert!(
            err.starts_with("chaos windows 0 (all links) and 1 (links of validator 0) overlap"),
            "{err}"
        );
    }

    #[test]
    fn empty_plan_never_matches() {
        let plan = ChaosPlan::new();
        assert!(plan.is_empty());
        assert!(plan.window_at(NodeId(0), NodeId(1), SimTime::from_millis(1)).is_none());
    }
}
