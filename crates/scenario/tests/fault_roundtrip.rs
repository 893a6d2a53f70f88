//! Property tests round-tripping random fault schedules through the
//! whole declaration pipeline: generated `FaultsSpec` → canonical TOML →
//! re-parsed `ScenarioSpec` → planned `ExperimentConfig` →
//! `hh_net::FaultPlan`.
//!
//! Two invariants: the canonical TOML re-parses to an equal spec, and the
//! planned `FaultPlan` holds exactly the generated events — crashes and
//! recoveries in builder order, slowdowns and partitions in start order.

use hh_net::{Duration, NodeId, PartitionSpec, SimTime, SlowdownSpec};
use hh_scenario::{
    NodeSel, PartitionEntry, PartitionSel, PlanOptions, ScenarioSpec, SlowdownEntry,
    TimedFaultEntry, WhenSpec,
};
use proptest::prelude::*;

const DURATION_SECS: u64 = 20;

/// SplitMix64 — drives the shape choices for one case.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next() % bound
        }
    }
}

/// A random instant, quantized so frac and secs forms both resolve
/// exactly: whole seconds, or quarter fractions of the 20s run.
fn random_when(rng: &mut Mix, lo_secs: u64, hi_secs: u64) -> WhenSpec {
    let secs = lo_secs + rng.below(hi_secs.saturating_sub(lo_secs).max(1));
    if rng.below(3) == 0 && secs.is_multiple_of(5) {
        WhenSpec::Frac(secs as f64 / DURATION_SECS as f64)
    } else {
        WhenSpec::Secs(secs)
    }
}

fn base_spec(n: usize) -> ScenarioSpec {
    ScenarioSpec::parse(&format!(
        "name = \"fault-roundtrip\"\n[committee]\nsize = {n}\n[run]\nduration_secs = \
         {DURATION_SECS}\nwarmup_secs = 2\n[network]\nmodel = \"flat\"\n"
    ))
    .expect("base spec parses")
}

/// Generates a valid dynamic fault spec on `n` validators: at most `f`
/// nodes carry a crash/recover pair (never concurrent beyond `f` since
/// each recovers before the run ends and crashes never overlap more
/// than `f` nodes), plus optional slowdowns and one partition.
fn random_faults(rng: &mut Mix, n: usize, spec: &mut ScenarioSpec) {
    let f = (n - 1) / 3;
    let crash_nodes: Vec<u16> = (0..rng.below(f as u64 + 1)).map(|k| k as u16 * 2).collect();
    for &node in &crash_nodes {
        // Crash somewhere in [1, 9], recover strictly later in [10, 18].
        spec.faults
            .crashes
            .push(TimedFaultEntry { nodes: NodeSel::Ids(vec![node]), at: random_when(rng, 1, 9) });
        spec.faults.recovers.push(TimedFaultEntry {
            nodes: NodeSel::Ids(vec![node]),
            at: random_when(rng, 10, 18),
        });
    }
    for _ in 0..rng.below(3) {
        let from = 1 + rng.below(8);
        spec.faults.slowdowns.push(SlowdownEntry {
            nodes: NodeSel::Ids(vec![rng.below(n as u64) as u16]),
            at: WhenSpec::Secs(from),
            until: if rng.below(2) == 0 {
                Some(WhenSpec::Secs(from + 1 + rng.below(8)))
            } else {
                None
            },
            extra_ms: 1 + rng.below(500),
        });
    }
    if rng.below(2) == 0 {
        let k = 1 + rng.below((n - 1) as u64) as usize;
        let sel = if rng.below(2) == 0 {
            PartitionSel::IsolateFirst(hh_scenario::CountExpr::Abs(k as u64))
        } else {
            PartitionSel::Groups { a: (0..k as u16).collect(), b: (k as u16..n as u16).collect() }
        };
        let from = 1 + rng.below(9);
        spec.faults.partitions.push(PartitionEntry {
            sel,
            from: WhenSpec::Secs(from),
            until: WhenSpec::Secs(from + 1 + rng.below(9)),
        });
    }
}

/// The instant a generated `WhenSpec` resolves to.
fn resolve(when: WhenSpec) -> SimTime {
    SimTime(when.resolve_us(DURATION_SECS))
}

/// Node ids as the plan holds them.
fn ids(nodes: Vec<u16>) -> Vec<NodeId> {
    nodes.into_iter().map(|i| NodeId(i as usize)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn fault_schedules_round_trip_to_the_wire_plan(
        n in 4usize..11,
        seed in any::<u64>(),
    ) {
        let mut rng = Mix(seed);
        let mut spec = base_spec(n);
        random_faults(&mut rng, n, &mut spec);

        // TOML round trip: canonical serialization re-parses to equality.
        let text = spec.to_toml();
        let again = ScenarioSpec::parse(&text)
            .unwrap_or_else(|e| panic!("canonical TOML does not re-parse: {e}\n{text}"));
        prop_assert_eq!(&again, &spec);

        // Planning lowers to a validated FaultPlan with exactly the
        // generated events.
        let plan = spec.plan(&PlanOptions::default())
            .unwrap_or_else(|e| panic!("valid schedule rejected: {e}\n{text}"));
        prop_assert_eq!(plan.runs.len(), 1);
        let faults = &plan.runs[0].config.faults;

        let timed = |entries: &[TimedFaultEntry]| -> Vec<(NodeId, SimTime)> {
            entries
                .iter()
                .filter_map(|entry| match &entry.nodes {
                    NodeSel::Ids(nodes) => Some((NodeId(nodes[0] as usize), resolve(entry.at))),
                    NodeSel::First(_) => None,
                })
                .collect()
        };
        prop_assert_eq!(faults.crashes(), timed(&spec.faults.crashes).as_slice());
        prop_assert_eq!(faults.recoveries(), timed(&spec.faults.recovers).as_slice());

        let mut slowdowns: Vec<SlowdownSpec> = Vec::new();
        for entry in &spec.faults.slowdowns {
            if let NodeSel::Ids(nodes) = &entry.nodes {
                slowdowns.push(SlowdownSpec {
                    node: NodeId(nodes[0] as usize),
                    from: resolve(entry.at),
                    until: entry.until.map_or(SimTime::MAX, resolve),
                    extra: Duration::from_micros(entry.extra_ms * 1000),
                });
            }
        }
        slowdowns.sort_by_key(|s| s.from);
        prop_assert_eq!(faults.slowdowns(), slowdowns.as_slice());

        let mut partitions: Vec<PartitionSpec> = Vec::new();
        for entry in &spec.faults.partitions {
            let (a, b) = match &entry.sel {
                PartitionSel::Groups { a, b } => (a.clone(), b.clone()),
                PartitionSel::IsolateFirst(count) => {
                    let k = count.resolve(n).min(n - 1);
                    ((0..k as u16).collect(), (k as u16..n as u16).collect())
                }
            };
            partitions.push(PartitionSpec {
                group_a: ids(a),
                group_b: ids(b),
                from: resolve(entry.from),
                until: resolve(entry.until),
            });
        }
        partitions.sort_by_key(|p| p.from);
        prop_assert_eq!(faults.partitions(), partitions.as_slice());
    }
}
