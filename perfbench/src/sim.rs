//! The two simulator workloads: timed repetitions, the seed checks, and
//! the traced run.
//!
//! A run is driven here rather than through `run_sim_streaming`, in the
//! same quarter-second slices and with the same drain and safety audit,
//! so the benchmark can keep its own count of the execution records it
//! drains and cross-check it against the program's `RunResult`.

use crate::replay::{self, LayerReplay};
use crate::report::{Check, Metric, Outcome};
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::{host, Scale};
use hammerhead::{ExecRecord, Validator};
use hh_crypto::Digest;
use hh_net::{NodeId, SimStats, SimTime};
use hh_scenario::{load_scenario, PlanOptions};
use hh_sim::{
    build_sim, collect_streamed_metrics, ExperimentConfig, MetricsSink, RunResult, SimHandle,
};
use hh_storage::MemBackend;
use hh_types::{Round, ValidatorId, Vertex, VertexRef};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The simulator's drain and audit slice (the program's own choice).
const SLICE_US: u64 = 250_000;

/// A simulator workload: a scenario file in `perfbench/workloads/` with
/// one planned run.
#[derive(Clone, Copy, Debug)]
pub struct SimWorkload {
    /// Workload name (the `--workload` argument).
    pub name: &'static str,
    /// Transactions submitted in the last `grace_secs` simulated seconds
    /// are not counted as attempted: a transaction fails only if it is
    /// shed or still unexecuted this long before the run ends.
    pub grace_secs: u64,
    /// Simulated seconds at `--scale tiny`.
    pub tiny_secs: u64,
}

impl SimWorkload {
    fn scenario_path(&self) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads").join(format!("{}.toml", self.name))
    }
}

/// Everything the protocol produced in one run; identical for a seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Outputs {
    /// Transactions executed inside the run.
    pub executed: u64,
    /// Transactions submitted before the grace cut-off.
    pub attempted: u64,
    /// Of those, shed or not executed by the end.
    pub failed: u64,
    /// Post-warmup latency samples (µs), ascending.
    pub latencies_us: Vec<u64>,
    /// Executed transactions per simulated second.
    pub goodput_tps: f64,
    /// Commit chain hash of the most advanced validator.
    pub chain_hash: Digest,
    /// Simulator counters.
    pub stats: SimStats,
}

/// One measured repetition.
struct Rep {
    plan_ms: f64,
    build_ms: f64,
    /// Run wall seconds, probe bursts excluded.
    wall_s: f64,
    /// Process CPU of the run, probe bursts excluded.
    cpu_ms: f64,
    /// The speed probe's scale factor over the run.
    speed: f64,
    loop_ms: f64,
    audit_ms: f64,
    outputs: Outputs,
    result: RunResult,
    checks: Vec<Check>,
    /// Committed → executed waits of every executed record (µs).
    exec_waits_us: Vec<u64>,
    /// Validator 0's committed anchors.
    anchors0: Vec<VertexRef>,
    /// Time-averaged number of live validators.
    live_avg: f64,
    /// Broadcast-layer messages delivered to validators: every delivery
    /// except client submissions and the confirmations sent back.
    rbc_messages: u64,
    has_wal: bool,
}

/// What the traced run adds per slice.
struct TraceHook {
    tracer: Tracer,
    replay: LayerReplay<MemBackend>,
    wal: MemBackend,
    seen: BTreeMap<u64, u128>,
    pool_len_max: usize,
}

impl TraceHook {
    /// Validator 0's vertices inserted since the last call, in
    /// `(round, author)` order, taken before garbage collection can
    /// remove them.
    fn harvest(&mut self, v: &Validator<MemBackend>) -> Vec<Arc<Vertex>> {
        let dag = v.dag();
        let lo = dag.gc_round().0;
        let Some(hi) = dag.highest_round() else { return Vec::new() };
        self.seen = self.seen.split_off(&lo);
        let mut out = Vec::new();
        for r in lo..=hi.0 {
            let mask = self.seen.entry(r).or_default();
            if dag.round_len(Round(r)) == mask.count_ones() as usize {
                continue;
            }
            for vx in dag.round_vertices(Round(r)) {
                let bit = 1u128 << vx.author().0;
                if *mask & bit == 0 {
                    *mask |= bit;
                    out.push(vx.clone());
                }
            }
        }
        out
    }

    fn after_slice(&mut self, handle: &SimHandle, live: &[usize]) -> Result<(), String> {
        for &i in live {
            self.pool_len_max = self.pool_len_max.max(handle.validator(i).pool_len());
        }
        for v in self.harvest(handle.validator(0)) {
            self.replay.feed(&mut self.tracer, &v)?;
        }
        Ok(())
    }
}

fn plan(w: &SimWorkload, seed: u64, scale: Scale) -> Result<ExperimentConfig, String> {
    let path = w.scenario_path();
    let spec = load_scenario(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let opts = PlanOptions {
        quick: false,
        duration_override: (scale == Scale::Tiny).then_some(w.tiny_secs),
        seed_override: Some(seed),
    };
    let plan = spec.plan(&opts).map_err(|e| format!("{}: {e}", path.display()))?;
    match plan.runs.as_slice() {
        [run] => Ok(run.config.clone()),
        runs => Err(format!("{} plans {} runs, the benchmark needs 1", path.display(), runs.len())),
    }
}

/// Builds, drives and collects one run of `w`.
fn run_once(
    w: &SimWorkload,
    seed: u64,
    scale: Scale,
    mut hook: Option<&mut TraceHook>,
) -> Result<Rep, String> {
    let t0 = Instant::now();
    let config = plan(w, seed, scale)?;
    let plan_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let mut handle = build_sim(&config);
    let build_ms = t1.elapsed().as_secs_f64() * 1e3;
    let n = handle.n_validators;
    if n > 128 {
        return Err(format!("committee of {n} exceeds the 128-validator harvest mask"));
    }

    let cap_us = config.duration_secs * 1_000_000;
    let warmup_us = config.warmup_secs * 1_000_000;
    let cutoff_us = cap_us.saturating_sub(w.grace_secs * 1_000_000);
    let drain = config.faults.live_at(n, cap_us);
    let mut sink = MetricsSink::new(warmup_us);
    let mut records: Vec<ExecRecord> = Vec::new();
    let mut attempted = None;
    let mut live_sum = 0usize;
    let mut slices = 0usize;
    let mut loop_ms = 0.0;
    let mut audit_ms = 0.0;

    let mut probe = host::SpeedProbe::new();
    let probe0 = probe.total_s();
    let cpu0 = host::cpu_ms("self").unwrap_or(0.0);
    let t2 = Instant::now();
    let mut now_us = 0u64;
    while now_us < cap_us {
        now_us = ((now_us / SLICE_US + 1) * SLICE_US).min(cap_us);
        let t = Instant::now();
        handle.sim.run_until(SimTime(now_us));
        loop_ms += t.elapsed().as_secs_f64() * 1e3;
        probe.tick();
        for &i in &drain {
            take_records(&mut handle, i, now_us, &mut sink, &mut records);
        }
        audit_ms += audit(&mut handle);
        let live = config.faults.live_at(n, now_us);
        live_sum += live.len();
        slices += 1;
        if now_us >= cutoff_us && attempted.is_none() {
            attempted = Some(submitted(&handle));
        }
        if let Some(h) = hook.as_deref_mut() {
            h.after_slice(&handle, &live)?;
        }
    }
    // A validator that crashed and recovered is live at the stop; its
    // records were kept across the restart and are drained now, as the
    // program's `run_sim_streaming` does.
    for i in config.faults.live_at(n, now_us) {
        if !drain.contains(&i) {
            take_records(&mut handle, i, now_us, &mut sink, &mut records);
        }
    }
    audit_ms += audit(&mut handle);
    let result = collect_streamed_metrics(&config, &handle, now_us, &mut sink);
    let probe_s = probe.total_s() - probe0;
    let wall_s = t2.elapsed().as_secs_f64() - probe_s;
    let cpu_ms = host::cpu_ms("self").unwrap_or(0.0) - cpu0 - probe_s * 1e3;
    let anchors0 = handle.validator(0).committed_anchors().to_vec();
    let (mut submits, mut confirms) = (0, 0);
    for i in 0..n {
        let m = handle.validator(i).metrics();
        submits += m.txs_accepted + m.txs_shed;
        confirms += m.own_txs_committed + m.txs_shed;
    }
    let rbc_messages = handle.sim.stats().delivered.saturating_sub(submits + confirms);

    // The benchmark's own accounting of the drained records.
    let end_us = now_us;
    let executed: Vec<&ExecRecord> = records.iter().filter(|r| r.executed_at <= end_us).collect();
    let mut latencies_us: Vec<u64> = executed
        .iter()
        .filter(|r| r.submitted_at >= warmup_us)
        .map(|r| r.executed_at - r.submitted_at)
        .collect();
    latencies_us.sort_unstable();
    let mut exec_waits_us: Vec<u64> =
        executed.iter().map(|r| r.executed_at - r.committed_at).collect();
    exec_waits_us.sort_unstable();
    let attempted = attempted.unwrap_or_else(|| submitted(&handle));
    let done = executed.iter().filter(|r| r.submitted_at <= cutoff_us).count() as u64;

    let mut checks = Vec::new();
    checks.push(Check::new(
        "agreement_ok",
        result.agreement_ok,
        "live validators' committed anchors are prefix-consistent",
    ));
    checks.push(Check::new(
        "safety_violations",
        handle.safety.is_clean(),
        format!(
            "{} violations over {} records{}",
            handle.safety.violations().len(),
            handle.safety.records_seen(),
            if handle.safety.is_clean() { String::new() } else { handle.safety.diagnostic_dump() }
        ),
    ));
    checks.push(Check::new(
        "drained_count",
        executed.len() as u64 == result.executed && latencies_us.len() == result.latency.count,
        format!(
            "benchmark drained {} executed ({} post-warmup), RunResult {} ({})",
            executed.len(),
            latencies_us.len(),
            result.executed,
            result.latency.count
        ),
    ));
    let exact_p50 = percentile(&latencies_us, 50.0).map_or(0.0, |p| p.value);
    let hist_p50 = result.latency.p50 * 1e6;
    // The program's p50 is the upper bound of a 32-per-octave log bucket.
    let p50_ok = hist_p50 + 0.5 >= exact_p50 && hist_p50 <= exact_p50 * 2f64.powf(1.0 / 32.0) + 1.0;
    checks.push(Check::new(
        "p50_matches",
        p50_ok,
        format!("exact p50 {exact_p50:.0} µs, RunResult bucket {hist_p50:.0} µs"),
    ));
    checks.push(Check::new(
        "at_most_once",
        done <= attempted,
        format!("{done} of {attempted} attempted transactions executed"),
    ));

    let outputs = Outputs {
        executed: result.executed,
        attempted,
        failed: attempted.saturating_sub(done),
        latencies_us,
        goodput_tps: result.throughput_tps,
        chain_hash: result.chain_hash,
        stats: handle.sim.stats(),
    };
    Ok(Rep {
        plan_ms,
        build_ms,
        wall_s,
        cpu_ms,
        speed: probe.scale(),
        loop_ms,
        audit_ms,
        outputs,
        result,
        checks,
        exec_waits_us,
        anchors0,
        live_avg: live_sum as f64 / slices.max(1) as f64,
        rbc_messages,
        has_wal: config.faults.has_recoveries(),
    })
}

fn take_records(
    handle: &mut SimHandle,
    i: usize,
    now_us: u64,
    sink: &mut MetricsSink,
    out: &mut Vec<ExecRecord>,
) {
    let v = handle.sim.node_mut(NodeId(i)).as_validator_mut().expect("node is a validator");
    for rec in v.take_exec_records() {
        sink.observe(&rec, now_us);
        out.push(rec);
    }
}

/// Feeds every validator's new commit records to the safety checker and
/// returns the time it took (ms). Violations surface in the
/// `safety_violations` check.
fn audit(handle: &mut SimHandle) -> f64 {
    let t = Instant::now();
    for i in 0..handle.n_validators {
        let v = handle.sim.node_mut(NodeId(i)).as_validator_mut().expect("node is a validator");
        let records = v.take_commit_records();
        handle.safety.observe_all(i as u16, &records);
    }
    t.elapsed().as_secs_f64() * 1e3
}

fn submitted(handle: &SimHandle) -> u64 {
    (handle.n_validators..handle.sim.len())
        .filter_map(|i| handle.sim.node(NodeId(i)).as_client())
        .map(|c| c.submitted())
        .sum()
}

/// The end-to-end protocol metrics of one repetition.
fn protocol_metrics(o: &Outputs) -> (Metric, Metric) {
    let p50 = percentile(&o.latencies_us, 50.0);
    let p99 = percentile(&o.latencies_us, 99.0);
    (Metric::percentile_ms("lat_p50_ms", p50), Metric::percentile_ms("lat_p99_ms", p99))
}

fn done_ratio(o: &Outputs) -> f64 {
    if o.attempted == 0 {
        0.0
    } else {
        (o.attempted - o.failed) as f64 / o.attempted as f64
    }
}

/// How many times the timed run repeats the set-up (`load_scenario`,
/// `plan`, `build_sim`) to report its median.
const SETUP_REPS: usize = 101;

/// Timed runs. The set-up is timed first, while the process's heap is
/// fresh (see `setup_times`). The first run, with `seed`, is not timed: its
/// peak resident memory is what a fresh process running the workload
/// needs, and it warms the allocator and page tables that later runs
/// reuse. A run with `seed + 1` follows, whose protocol outputs must
/// differ. Then the workload repeats with `seed` until `seconds` are used,
/// at least twice; every run of `seed` must produce identical protocol
/// outputs. Time metrics are medians over the repetitions, on the
/// reference processor (see `host::SpeedProbe`).
pub fn timed(w: &SimWorkload, seed: u64, seconds: f64, scale: Scale) -> Result<Outcome, String> {
    let started = Instant::now();
    let setups = setup_times(w, seed, scale)?;
    let cold = run_once(w, seed, scale, None)?;
    let peak_rss_mb = host::peak_rss_mb("self").unwrap_or(0.0);
    let other = run_once(w, seed.wrapping_add(1), scale, None)?;
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let t = Instant::now();
        reps.push(run_once(w, seed, scale, None)?);
        let per_rep = t.elapsed().as_secs_f64();
        let left = seconds - started.elapsed().as_secs_f64();
        if reps.len() >= 2 && left < per_rep {
            break;
        }
    }
    let o = &cold.outputs;
    let mut checks = Check::merge(
        std::iter::once(cold.checks.clone()).chain(reps.iter().map(|r| r.checks.clone())),
    );
    checks.push(Check::new(
        "same_seed_identical",
        reps.iter().all(|r| r.outputs == *o),
        format!(
            "{} runs of seed {seed}: latencies, goodput, chain hash and counters",
            reps.len() + 1
        ),
    ));
    checks.push(other_seed_differs(&other.outputs, o, seed));

    let (p50, p99) = protocol_metrics(o);
    let ktx = o.executed as f64 / 1e3;
    let scaled = |f: fn(&Rep) -> f64| reps.iter().map(|r| f(r) * r.speed).collect::<Vec<_>>();
    let cpu_per_ktx: Vec<f64> = scaled(|r| r.cpu_ms).iter().map(|c| c / ktx).collect();
    let metrics = vec![
        Metric::repeated("wall_s", "s", &scaled(|r| r.wall_s)),
        Metric::repeated("setup_s", "s", &setups),
        Metric::single("peak_rss_mb", "MB", peak_rss_mb),
        p50,
        p99,
        Metric::single("goodput_tps", "tx/s", o.goodput_tps),
        Metric::single("done_ratio", "ratio", done_ratio(o)),
        Metric::repeated("cpu_ms_per_ktx", "ms/ktx", &cpu_per_ktx),
    ];
    let raw: Vec<String> = reps.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    let speeds: Vec<String> = reps.iter().map(|r| format!("{:.3}", r.speed)).collect();
    Ok(Outcome {
        attempted: o.attempted,
        failed: o.failed,
        metrics,
        checks,
        notes: vec![
            format!(
                "{} repetitions; chain hash {}; {} events; fail_ratio {:.5}",
                reps.len(),
                o.chain_hash,
                o.stats.events,
                1.0 - done_ratio(o)
            ),
            format!("measured wall s [{}]; speed factors [{}]", raw.join(", "), speeds.join(", ")),
        ],
    })
}

/// Seed `seed + 1` must change latencies, goodput and the chain hash: the
/// seed reaches the generated inputs.
fn other_seed_differs(other: &Outputs, o: &Outputs, seed: u64) -> Check {
    Check::new(
        "other_seed_differs",
        o.chain_hash != other.chain_hash
            && o.latencies_us != other.latencies_us
            && o.goodput_tps != other.goodput_tps,
        format!(
            "seed {} against seed {seed}: latencies, goodput, chain hash",
            seed.wrapping_add(1)
        ),
    )
}

/// `SETUP_REPS` back-to-back set-ups (scenario load, plan, `build_sim`)
/// between probe bursts; their times on the reference processor. The
/// set-ups are short, so the bursts stay out of the block: their cache
/// and TLB traffic would land on the next set-up. Set-up time depends on
/// whether its large zeroed tables get fresh pages or reuse the heap, so
/// it is measured before any run has shaped the heap: once runs have
/// freed hundreds of MB, set-up medians over seeds ranged 69–186 µs on
/// `open-n10-recover`.
fn setup_times(w: &SimWorkload, seed: u64, scale: Scale) -> Result<Vec<f64>, String> {
    let mut probe = host::SpeedProbe::new();
    let mut raw = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let handle = build_sim(&plan(w, seed, scale)?);
        raw.push(t.elapsed().as_secs_f64());
        drop(handle);
    }
    for _ in 0..3 {
        probe.burst();
    }
    Ok(raw.iter().map(|s| s * probe.scale()).collect())
}

/// The traced run: a warm-up run with `seed + 1` (as in the timed run),
/// an untraced run, then one with the per-slice harvest and layer replay,
/// whose protocol outputs must equal the untraced run's.
pub fn traced(
    w: &SimWorkload,
    seed: u64,
    scale: Scale,
    spans_path: &Path,
) -> Result<Outcome, String> {
    let other = run_once(w, seed.wrapping_add(1), scale, None)?;
    let base = run_once(w, seed, scale, None)?;
    let config = plan(w, seed, scale)?;
    let committee = hh_types::Committee::new_equal_stake(config.committee_size);
    let vconfig = config.derive_validator_config();
    let tracer = Tracer::new();
    let wal = MemBackend::new();
    let replay = LayerReplay::new(&committee, ValidatorId(0), &vconfig, wal.clone(), &tracer)?;
    let mut hook = TraceHook { tracer, replay, wal, seen: BTreeMap::new(), pool_len_max: 0 };
    let rep = run_once(w, seed, scale, Some(&mut hook))?;
    hook.replay.sync(&mut hook.tracer)?;
    let recovered =
        replay::recover(&mut hook.tracer, &committee, ValidatorId(0), &vconfig, hook.wal.clone());

    let mut checks = rep.checks.clone();
    checks.push(other_seed_differs(&other.outputs, &base.outputs, seed));
    checks.push(Check::new(
        "trace_leaves_outputs",
        rep.outputs == base.outputs,
        "traced run's latencies, goodput, chain hash and counters equal the untraced run's",
    ));
    let anchors = hook.replay.committed_anchors();
    let common = anchors.len().min(rep.anchors0.len());
    checks.push(Check::new(
        "replay_agrees",
        common > 0
            && anchors[..common] == rep.anchors0[..common]
            && recovered.committed_anchors() == anchors,
        format!(
            "replay committed {} anchors, validator 0 {}; restart from the replay's WAL re-derived {}",
            anchors.len(),
            rep.anchors0.len(),
            recovered.committed_anchors().len()
        ),
    ));
    hook.tracer.write_csv(spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?;

    // Times are reported on the reference processor, like the timed run's.
    let k = rep.speed;
    let totals = hook.tracer.totals();
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let self_ms = |name: &str| t(name).self_ns as f64 * k / 1e6;
    let per_call = |name: &str| t(name).self_ns_per_call() * k;
    let c = hook.replay.counts();
    let stats = rep.outputs.stats;
    let per_validator = [
        "rbc.handle",
        "dag.insert",
        "consensus.process_vertex",
        "dag.causal_sub_dag",
        "policy.before_order",
        "policy.on_vertex_ordered",
    ];
    // Validator-local layers run once per live validator; the signature
    // check and digest are shared through the vertex's memo, once per
    // vertex; WAL appends happen only where the workload wires a WAL. The
    // simulator never frames messages, so codec and CRC are not in it.
    let mut replayed_ms = per_validator.iter().map(|n| self_ms(n)).sum::<f64>() * rep.live_avg;
    if rep.has_wal {
        replayed_ms += self_ms("storage.append") * rep.live_avg;
    }
    replayed_ms += self_ms("crypto.verify") + self_ms("crypto.digest");
    let loop_ms = rep.loop_ms * k;
    let loop_self_ms = loop_ms - replayed_ms;
    let crc_bytes = 2 * (c.frame_bytes - 4 * c.vertices);
    let wait_p50 = percentile(&rep.exec_waits_us, 50.0).map_or(0.0, |p| p.value / 1e3);
    let anchors_share = replay::skipped_anchor_share(anchors);

    let mut notes = vec![format!(
        "loop {:.1} ms; replayed layers {:.1} ms ({:.1}% of the loop) over {:.2} live validators",
        loop_ms,
        replayed_ms,
        100.0 * replayed_ms / loop_ms,
        rep.live_avg
    )];
    if loop_self_ms < 0.0 {
        notes.push(format!(
            "replayed layer time exceeds the loop wall time by {:.1} ms (not clamped)",
            -loop_self_ms
        ));
    }
    let metrics = vec![
        Metric::single("scenario.plan_ms", "ms", rep.plan_ms * k),
        Metric::single("sim.build_ms", "ms", rep.build_ms * k),
        Metric::single("sim.events", "count", stats.events as f64),
        Metric::single("sim.messages", "count", stats.delivered as f64),
        Metric::single("sim.timers", "count", (stats.events - stats.delivered) as f64),
        Metric::single("net.loop_ns_per_event", "ns", loop_ms * 1e6 / stats.events as f64),
        Metric::single("net.loop_self_ms", "ms", loop_self_ms),
        Metric::single("sim.pool_len_max", "count", hook.pool_len_max as f64),
        Metric::single("sim.exec_wait_p50_ms", "ms", wait_p50),
        Metric::single("sim.audit_ms", "ms", rep.audit_ms * k),
        Metric::single("rbc.handle_ns", "ns", per_call("rbc.handle")),
        Metric::single("rbc.retransmits", "count", rep.result.rbc_retransmits as f64),
        // Peer vertices validator 0 delivered, times the live validators,
        // per broadcast-layer message the simulator delivered.
        Metric::single(
            "rbc.delivered_per_msg",
            "ratio",
            c.delivered_from_peers as f64 * rep.live_avg / rep.rbc_messages.max(1) as f64,
        ),
        Metric::single("dag.insert_ns", "ns", per_call("dag.insert")),
        Metric::single("dag.vertices", "count", c.vertices as f64),
        Metric::single("dag.parents_mean", "count", c.parents as f64 / c.vertices.max(1) as f64),
        Metric::single("dag.causal_sub_dag_ns", "ns", per_call("dag.causal_sub_dag")),
        Metric::single("consensus.process_vertex_ns", "ns", per_call("consensus.process_vertex")),
        Metric::single("consensus.commits", "count", c.commits as f64),
        Metric::single(
            "consensus.vertices_per_commit",
            "count",
            c.committed_vertices as f64 / c.commits.max(1) as f64,
        ),
        Metric::single("consensus.leader_timeouts", "count", rep.result.leader_timeouts as f64),
        Metric::single("consensus.skipped_anchor_share", "ratio", anchors_share),
        Metric::single("policy.before_order_ns", "ns", per_call("policy.before_order")),
        Metric::single("policy.on_vertex_ordered_ns", "ns", per_call("policy.on_vertex_ordered")),
        Metric::single("policy.epochs", "count", hook.replay.epochs() as f64),
        Metric::single("policy.excluded", "count", hook.replay.excluded() as f64),
        Metric::single("crypto.verify_ns", "ns", per_call("crypto.verify")),
        Metric::single("crypto.digest_ns", "ns", per_call("crypto.digest")),
        Metric::single(
            "crypto.crc_ns_per_kib",
            "ns/KiB",
            self_ms("crypto.crc") * 1e6 / (crc_bytes as f64 / 1024.0),
        ),
        Metric::single("codec.encode_ns", "ns", per_call("codec.encode")),
        Metric::single("codec.decode_ns", "ns", per_call("codec.decode")),
        Metric::single(
            "codec.bytes_per_vertex",
            "bytes",
            c.frame_bytes as f64 / c.vertices.max(1) as f64,
        ),
        Metric::single("storage.append_ns", "ns", per_call("storage.append")),
        Metric::single("storage.sync_ms", "ms", self_ms("storage.sync")),
        Metric::single("storage.wal_mb", "MB", hook.replay.wal_bytes() as f64 / (1 << 20) as f64),
        Metric::single("storage.recover_ms", "ms", self_ms("storage.recover")),
        Metric::single("trace.overhead_s", "s", rep.wall_s * k - base.wall_s * base.speed),
        Metric::single("trace.replay_share", "ratio", replayed_ms / loop_ms),
    ];
    Ok(Outcome {
        attempted: rep.outputs.attempted,
        failed: rep.outputs.failed,
        metrics,
        checks,
        notes,
    })
}
