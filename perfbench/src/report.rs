//! Metrics, correctness checks, and the three renderings of a result:
//! human-readable lines, the JSON ledger entry written under
//! `perfbench/out/`, and the one-line JSON summary printed last.

use crate::stats::{Percentile, Quartiles};
use hh_scenario::Json;

/// End-to-end metrics of the simulator workloads (`BENCHMARK.json`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("goodput_tps", "tx/s"),
    ("done_ratio", "ratio"),
    ("cpu_ms_per_ktx", "ms/ktx"),
];

/// Per-layer metrics of the simulator workloads' traced run
/// (`BENCHMARK.json`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scenario.plan_ms", "ms"),
    ("sim.build_ms", "ms"),
    ("sim.events", "count"),
    ("sim.messages", "count"),
    ("sim.timers", "count"),
    ("net.loop_ns_per_event", "ns"),
    ("net.loop_self_ms", "ms"),
    ("sim.pool_len_max", "count"),
    ("sim.exec_wait_p50_ms", "ms"),
    ("sim.audit_ms", "ms"),
    ("rbc.handle_ns", "ns"),
    ("rbc.retransmits", "count"),
    ("rbc.delivered_per_msg", "ratio"),
    ("dag.insert_ns", "ns"),
    ("dag.vertices", "count"),
    ("dag.parents_mean", "count"),
    ("dag.causal_sub_dag_ns", "ns"),
    ("consensus.process_vertex_ns", "ns"),
    ("consensus.commits", "count"),
    ("consensus.vertices_per_commit", "count"),
    ("consensus.leader_timeouts", "count"),
    ("consensus.skipped_anchor_share", "ratio"),
    ("policy.before_order_ns", "ns"),
    ("policy.on_vertex_ordered_ns", "ns"),
    ("policy.epochs", "count"),
    ("policy.excluded", "count"),
    ("crypto.verify_ns", "ns"),
    ("crypto.digest_ns", "ns"),
    ("crypto.crc_ns_per_kib", "ns/KiB"),
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("codec.bytes_per_vertex", "bytes"),
    ("storage.append_ns", "ns"),
    ("storage.sync_ms", "ms"),
    ("storage.wal_mb", "MB"),
    ("storage.recover_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.replay_share", "ratio"),
];

/// End-to-end metrics of `testnet-4`. Its latency percentiles do not
/// repeat within a bound a regression check could use (leader timeouts
/// come and go from run to run), so they are reported as the `node`
/// layer's, and the workload keeps its steady metrics end to end.
pub const TESTNET_END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("goodput_tps", "tx/s"),
    ("done_ratio", "ratio"),
    ("cpu_ms_per_ktx", "ms/ktx"),
    ("node.lat_p50_ms", "ms"),
    ("node.lat_p99_ms", "ms"),
];

/// Per-layer metrics of `testnet-4`'s traced run: the layers replayed
/// from node 0's WAL, then the node processes and the client.
pub const TESTNET_PER_LAYER: &[(&str, &str)] = &[
    ("rbc.handle_ns", "ns"),
    ("dag.insert_ns", "ns"),
    ("dag.vertices", "count"),
    ("dag.parents_mean", "count"),
    ("dag.causal_sub_dag_ns", "ns"),
    ("consensus.process_vertex_ns", "ns"),
    ("consensus.commits", "count"),
    ("consensus.vertices_per_commit", "count"),
    ("consensus.skipped_anchor_share", "ratio"),
    ("policy.before_order_ns", "ns"),
    ("policy.on_vertex_ordered_ns", "ns"),
    ("policy.epochs", "count"),
    ("policy.excluded", "count"),
    ("crypto.verify_ns", "ns"),
    ("crypto.digest_ns", "ns"),
    ("crypto.crc_ns_per_kib", "ns/KiB"),
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("codec.bytes_per_vertex", "bytes"),
    ("codec.bytes_per_submit", "bytes"),
    ("storage.append_ns", "ns"),
    ("storage.sync_ms", "ms"),
    ("storage.wal_mb", "MB"),
    ("storage.recover_ms", "ms"),
    ("node.cpu_ms", "ms"),
    ("node.rss_mb", "MB"),
    ("node.wal_bytes_per_ktx", "bytes/ktx"),
    ("client.submit_ns", "ns"),
    ("client.gen_lag_p99_ms", "ms"),
    ("client.gen_lag_max_ms", "ms"),
    ("client.confirm_dupes", "count"),
    ("trace.overhead_s", "s"),
    ("trace.replay_share", "ratio"),
];

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported value (the median for repeated measurements).
    pub value: f64,
    /// Spread of repeated measurements within the run.
    pub quartiles: Option<Quartiles>,
    /// Sample count behind a percentile, and samples beyond its rank.
    pub samples: Option<(usize, usize)>,
}

impl Metric {
    /// A single measurement.
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric { name: name.to_string(), unit, value, quartiles: None, samples: None }
    }

    /// The median of repeated measurements, with their quartiles.
    pub fn repeated(name: &str, unit: &'static str, values: &[f64]) -> Metric {
        let q = Quartiles::of(values);
        Metric { name: name.to_string(), unit, value: q.median, quartiles: Some(q), samples: None }
    }

    /// A latency percentile in ms, read from µs samples.
    pub fn percentile_ms(name: &str, p: Option<Percentile>) -> Metric {
        let (value, samples) = p.map_or((0.0, (0, 0)), |p| (p.value / 1e3, (p.samples, p.beyond)));
        Metric {
            name: name.to_string(),
            unit: "ms",
            value,
            quartiles: None,
            samples: Some(samples),
        }
    }
}

/// One correctness check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Check {
    /// Check name.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

impl Check {
    /// A check result.
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
        Check { name, ok, detail: detail.into() }
    }

    /// Folds the same checks made on several repetitions into one each:
    /// a check holds if it held every time; the detail shown is the first
    /// failing one, or the first.
    pub fn merge(reps: impl IntoIterator<Item = Vec<Check>>) -> Vec<Check> {
        let mut out: Vec<Check> = Vec::new();
        for check in reps.into_iter().flatten() {
            match out.iter_mut().find(|c| c.name == check.name) {
                Some(seen) if seen.ok && !check.ok => *seen = check,
                Some(_) => {}
                None => out.push(check),
            }
        }
        out
    }
}

/// What a workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Transactions attempted.
    pub attempted: u64,
    /// Of those, shed or never executed/confirmed.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// Checks that `metrics` holds exactly the names and units of `expected`,
/// in order, each with a finite value.
pub fn conforms(metrics: &[Metric], expected: &[(&str, &str)]) -> Result<(), String> {
    let got: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    if got != expected {
        return Err(format!("metric set {got:?} differs from the declared {expected:?}"));
    }
    match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("metric {} is not finite ({})", m.name, m.value)),
        None => Ok(()),
    }
}

/// Human-readable lines: every metric by name with its unit, then the
/// checks and notes.
pub fn render_text(workload: &str, o: &Outcome) -> String {
    let mut s = String::new();
    for m in &o.metrics {
        let mut line = format!("{workload}  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
        if let Some(q) = m.quartiles {
            line += &format!("  (median of {}; q1 {:.4}, q3 {:.4})", q.n, q.q1, q.q3);
        }
        if let Some((n, beyond)) = m.samples {
            line += &format!("  ({n} samples, {beyond} beyond)");
        }
        s += &line;
        s.push('\n');
    }
    for c in &o.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        s += &format!("{workload}  check {:<24} {verdict:<6} {}\n", c.name, c.detail);
    }
    for n in &o.notes {
        s += &format!("{workload}  note  {n}\n");
    }
    s += &format!(
        "{workload}  attempted {} failed {} correct {}\n",
        o.attempted,
        o.failed,
        o.correct()
    );
    s
}

/// Facts recorded with every result.
#[derive(Clone, Debug)]
pub struct RunInfo {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Requested measuring time.
    pub seconds: f64,
    /// Traced run or not.
    pub trace: bool,
    /// Hardware threads.
    pub nproc: usize,
    /// CPU model.
    pub cpu_model: String,
    /// Source revision.
    pub git_rev: String,
}

/// The ledger entry: run facts, every metric with its median, quartiles
/// and sample counts, and every check.
pub fn ledger_entry(info: &RunInfo, o: &Outcome) -> Json {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            let q = m.quartiles.unwrap_or(Quartiles {
                q1: m.value,
                median: m.value,
                q3: m.value,
                n: 1,
            });
            let mut j = Json::object()
                .with("name", Json::Str(m.name.clone()))
                .with("unit", Json::Str(m.unit.into()))
                .with("median", Json::Float(q.median))
                .with("q1", Json::Float(q.q1))
                .with("q3", Json::Float(q.q3))
                .with("repeats", Json::Int(q.n as i64));
            if let Some((n, beyond)) = m.samples {
                j = j.with("samples", Json::Int(n as i64)).with("beyond", Json::Int(beyond as i64));
            }
            j
        })
        .collect();
    let checks = o
        .checks
        .iter()
        .map(|c| {
            Json::object()
                .with("name", Json::Str(c.name.into()))
                .with("ok", Json::Bool(c.ok))
                .with("detail", Json::Str(c.detail.clone()))
        })
        .collect();
    Json::object()
        .with("workload", Json::Str(info.workload.clone()))
        .with("seed", Json::Int(info.seed as i64))
        .with("seconds", Json::Float(info.seconds))
        .with("trace", Json::Bool(info.trace))
        .with("nproc", Json::Int(info.nproc as i64))
        .with("cpu_model", Json::Str(info.cpu_model.clone()))
        .with("git_rev", Json::Str(info.git_rev.clone()))
        .with("correct", Json::Bool(o.correct()))
        .with("attempted", Json::Int(o.attempted as i64))
        .with("failed", Json::Int(o.failed as i64))
        .with("metrics", Json::Array(metrics))
        .with("checks", Json::Array(checks))
        .with("notes", Json::Array(o.notes.iter().map(|n| Json::Str(n.clone())).collect()))
}

/// The one-line summary: `correct`, `attempted`, `failed`, and each
/// metric's value and unit.
pub fn summary_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, number(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// A JSON number with every digit (`{}` prints the shortest exact form).
fn number(x: f64) -> String {
    let s = format!("{x}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        s + ".0"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            attempted: 10,
            failed: 1,
            metrics: vec![Metric::single("wall_s", "s", 1.25), Metric::single("n", "count", 3.0)],
            checks: vec![Check::new("a", true, "")],
            notes: vec![],
        };
        assert_eq!(
            summary_line(&o),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"n\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn merged_checks_fail_if_any_repetition_failed() {
        let merged = Check::merge([
            vec![Check::new("x", true, "first"), Check::new("y", true, "y1")],
            vec![Check::new("x", false, "second"), Check::new("y", true, "y2")],
        ]);
        assert_eq!(merged, vec![Check::new("x", false, "second"), Check::new("y", true, "y1")]);
    }

    #[test]
    fn conformity_needs_the_declared_names_in_order() {
        let m = |n: &str, u: &'static str| Metric::single(n, u, 1.0);
        let declared = &[("a", "s"), ("b", "ms")];
        assert!(conforms(&[m("a", "s"), m("b", "ms")], declared).is_ok());
        assert!(conforms(&[m("b", "ms"), m("a", "s")], declared).is_err());
        assert!(conforms(&[m("a", "s")], declared).is_err());
        assert!(conforms(&[m("a", "s"), m("b", "s")], declared).is_err());
        assert!(conforms(&[m("a", "s"), Metric::single("b", "ms", f64::NAN)], declared).is_err());
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (list, section) in [(END_TO_END, "\"end_to_end\""), (PER_LAYER, "\"per_layer\"")] {
            let start = text.find(section).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let declared: Vec<(String, String)> = body
                .split('{')
                .skip(1)
                .map(|entry| (field(entry, "name"), field(entry, "unit")))
                .collect();
            let ours: Vec<(String, String)> =
                list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(declared, ours, "{section} in BENCHMARK.json");
        }
    }

    fn field(entry: &str, key: &str) -> String {
        let pat = format!("\"{key}\": \"");
        let start = entry.find(&pat).map(|i| i + pat.len()).expect("field present");
        entry[start..].split('"').next().expect("closing quote").to_string()
    }
}
