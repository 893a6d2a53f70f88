//! The `testnet-4` workload: four `hh-node` processes on loopback TCP,
//! driven open-loop from this process.
//!
//! Load comes from at most `nproc` client threads, each with one
//! connection to its own node. A client sends each transaction at its due
//! time (constant rate, ±10% seeded jitter between due times) and never
//! waits for replies, so a stalled committee does not slow the offered
//! load; each transaction is timed from its *due* time to its `Confirm`
//! frame, and how late the generator sent it is recorded separately.
//!
//! After the load stops and the clients have drained, every node is shut
//! down through stdin and must exit 0; then each node's WAL copy is
//! replayed through a fresh validator and the recomputed commits go to
//! the safety checker.

use crate::replay::{self, LayerReplay};
use crate::report::{Check, Metric, Outcome};
use crate::stats::{percentile, Quartiles};
use crate::trace::Tracer;
use crate::{host, out_dir, Scale};
use hammerhead::{Validator, ValidatorMessage};
use hh_net::tcp::{write_frame, write_handshake};
use hh_node::{runtime::parse_status_field, NodeConfig};
use hh_sim::SafetyChecker;
use hh_storage::{FileBackend, ValidatorStore};
use hh_types::codec::{decode_framed, encode_framed};
use hh_types::{Transaction, ValidatorId};
use rand::{Rng, SeedableRng, StdRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Committee size.
const NODES: u16 = 4;
/// Total offered load (tx/s).
const TPS: f64 = 4000.0;
/// Longest wait for outstanding confirmations after the load stops.
const DRAIN: Duration = Duration::from_secs(3);
/// Transactions due in the first seconds of load are confirmed and
/// counted, but left out of the latency percentiles: the committee's
/// first schedule epochs run right after boot.
const WARMUP_US: u64 = 4_000_000;
/// Longest wait for every node to report its first commit.
const BOOT_TIMEOUT: Duration = Duration::from_secs(30);
/// Seconds of a run not spent under load: boot, drain, shutdown, audit.
const OVERHEAD_SECS: f64 = 3.0;

/// One node process and the progress its stdout watcher parsed.
struct NodeProc {
    child: Child,
    commits: Arc<AtomicU64>,
    watcher: Option<JoinHandle<()>>,
}

/// The committee; kills and reaps every still-running node when dropped,
/// so an error path never leaves orphans.
struct Fleet(Vec<NodeProc>);

impl Drop for Fleet {
    fn drop(&mut self) {
        for n in &mut self.0 {
            let _ = n.child.kill();
            let _ = n.child.wait();
            if let Some(w) = n.watcher.take() {
                let _ = w.join();
            }
        }
    }
}

fn spawn_node(binary: &Path, config: &Path) -> Result<NodeProc, String> {
    let mut child = Command::new(binary)
        .arg("--config")
        .arg(config)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
    let stdout = child.stdout.take().ok_or("node stdout not captured")?;
    let commits = Arc::new(AtomicU64::new(0));
    let seen = commits.clone();
    let watcher = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if let Some(c) = parse_status_field(&line, "commits") {
                seen.store(c, Ordering::SeqCst);
            }
        }
    });
    Ok(NodeProc { child, commits, watcher: Some(watcher) })
}

/// What one client thread measured.
#[derive(Default)]
struct ClientLog {
    sent: u64,
    confirmed: u64,
    /// Due → confirm latencies (µs) past the warm-up.
    latencies_us: Vec<u64>,
    /// Send − due (µs), one per transaction.
    lags_us: Vec<u64>,
    dupes: u64,
    unknown: u64,
    submit_bytes: u64,
    /// First due time and last confirmation, µs after the load start.
    first_due_us: u64,
    last_confirm_us: u64,
    /// `(name, start_ns, end_ns)` spans, when tracing.
    spans: Vec<(&'static str, u64, u64)>,
}

/// Reads whatever bytes are buffered on `stream` without blocking (the
/// socket itself stays blocking for `write_frame`). `Ok(0)` means none
/// are available.
fn recv_available(stream: &TcpStream, buf: &mut [u8]) -> std::io::Result<usize> {
    extern "C" {
        fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
    }
    const MSG_DONTWAIT: i32 = 0x40;
    // SAFETY: `buf` is a valid, exclusively borrowed buffer of `buf.len()`
    // bytes for the duration of the call, and the descriptor belongs to
    // `stream`, which outlives it.
    let n = unsafe { recv(stream.as_raw_fd(), buf.as_mut_ptr(), buf.len(), MSG_DONTWAIT) };
    if n >= 0 {
        return if n == 0 { Err(std::io::ErrorKind::UnexpectedEof.into()) } else { Ok(n as usize) };
    }
    let err = std::io::Error::last_os_error();
    match err.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted => Ok(0),
        _ => Err(err),
    }
}

/// Splits complete length-prefixed frames off the front of `inbox`.
fn take_frames(inbox: &mut Vec<u8>) -> Result<Vec<Vec<u8>>, String> {
    let mut frames = Vec::new();
    let mut at = 0;
    while inbox.len() - at >= 4 {
        let len = u32::from_be_bytes(inbox[at..at + 4].try_into().expect("4 bytes")) as usize;
        if len > hh_net::tcp::MAX_FRAME_LEN {
            return Err(format!("reply frame of {len} bytes"));
        }
        if inbox.len() - at - 4 < len {
            break;
        }
        frames.push(inbox[at + 4..at + 4 + len].to_vec());
        at += 4 + len;
    }
    inbox.drain(..at);
    Ok(frames)
}

/// The due times of one client's transactions: constant rate with ±10%
/// jitter between consecutive due times, starting at a seeded phase.
fn due_times_us(seed: u64, client: u16, rate: f64, load_us: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(client) << 32));
    let interval = 1e6 / rate;
    let mut t = rng.gen::<f64>() * interval;
    let mut out = Vec::new();
    while (t as u64) < load_us {
        out.push(t as u64);
        t += interval * (0.9 + 0.2 * rng.gen::<f64>());
    }
    out
}

struct ClientPlan {
    addr: String,
    id: u16,
    due_us: Vec<u64>,
    start: Instant,
    origin: Option<Instant>,
}

/// One client: submit every transaction at its due time, collect
/// confirmations, then drain until all are confirmed or `DRAIN` passes.
fn client(plan: ClientPlan) -> Result<ClientLog, String> {
    let mut stream =
        TcpStream::connect(&plan.addr).map_err(|e| format!("connect {}: {e}", plan.addr))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    write_handshake(&mut stream, plan.id).map_err(|e| format!("handshake: {e}"))?;
    let n = plan.due_us.len();
    let mut log = ClientLog {
        lags_us: Vec::with_capacity(n),
        first_due_us: plan.due_us.first().copied().unwrap_or(0),
        ..ClientLog::default()
    };
    let mut confirmed = vec![false; n];
    let mut pending = n;
    let mut inbox = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    let load_end = plan.due_us.last().copied().unwrap_or(0);
    let deadline = plan.start + Duration::from_micros(load_end) + DRAIN;
    let span_ns = |o: &Instant| o.elapsed().as_nanos() as u64;
    let mut next = 0usize;
    while pending > 0 && Instant::now() < deadline {
        // Send everything due.
        let now_us = plan.start.elapsed().as_micros() as u64;
        while next < n && plan.due_us[next] <= now_us {
            let due = plan.due_us[next];
            let msg = ValidatorMessage::Submit(Transaction::new(plan.id.into(), next as u64, due));
            let sent = match plan.origin {
                None => {
                    let frame = encode_framed(&msg);
                    log.submit_bytes += frame.len() as u64;
                    write_frame(&mut stream, &frame)
                }
                Some(o) => {
                    let s = span_ns(&o);
                    let frame = encode_framed(&msg);
                    let m = span_ns(&o);
                    let r = write_frame(&mut stream, &frame);
                    log.spans.push(("codec.encode_submit", s, m));
                    log.spans.push(("client.submit", m, span_ns(&o)));
                    log.submit_bytes += frame.len() as u64;
                    r
                }
            };
            sent.map_err(|e| format!("submit to {}: {e}", plan.addr))?;
            log.lags_us.push((plan.start.elapsed().as_micros() as u64).saturating_sub(due));
            log.sent += 1;
            next += 1;
        }
        // Take in every confirmation already here.
        loop {
            let got = recv_available(&stream, &mut buf).map_err(|e| format!("read: {e}"))?;
            if got == 0 {
                break;
            }
            inbox.extend_from_slice(&buf[..got]);
        }
        let at_us = plan.start.elapsed().as_micros() as u64;
        for frame in take_frames(&mut inbox)? {
            let decoded = match plan.origin {
                None => decode_framed::<ValidatorMessage>(&frame),
                Some(o) => {
                    let s = span_ns(&o);
                    let d = decode_framed::<ValidatorMessage>(&frame);
                    log.spans.push(("codec.decode_confirm", s, span_ns(&o)));
                    d
                }
            };
            let Ok(ValidatorMessage::Confirm { id, executed_at }) = decoded else {
                log.unknown += 1;
                continue;
            };
            let seq = id.seq as usize;
            if id.client != u32::from(plan.id) || seq >= next {
                log.unknown += 1;
            } else if confirmed[seq] {
                log.dupes += 1;
            } else {
                confirmed[seq] = true;
                pending -= 1;
                // `executed_at == u64::MAX` reports a shed transaction: a
                // failure, not a confirmation.
                if executed_at != u64::MAX {
                    log.confirmed += 1;
                    log.last_confirm_us = at_us;
                    let due = plan.due_us[seq];
                    if due >= WARMUP_US {
                        log.latencies_us.push(at_us.saturating_sub(due));
                    }
                }
            }
        }
        // Sleep to the next due time, or poll for confirmations.
        let now_us = plan.start.elapsed().as_micros() as u64;
        let wait_us = match plan.due_us.get(next) {
            Some(due) => due.saturating_sub(now_us).min(1_000),
            None => 1_000,
        };
        if wait_us > 0 {
            std::thread::sleep(Duration::from_micros(wait_us));
        }
    }
    Ok(log)
}

/// What one testnet session measured.
struct Session {
    setup_s: f64,
    /// First due time → last confirmation (s).
    wall_s: f64,
    attempted: u64,
    confirmed: u64,
    latencies_us: Vec<u64>,
    lags_us: Vec<u64>,
    dupes: u64,
    unknown: u64,
    submit_bytes: u64,
    node_cpu_ms: Vec<f64>,
    node_rss_mb: Vec<f64>,
    wal_bytes: u64,
    checks: Vec<Check>,
    /// Node 0's WAL replay, when tracing.
    replay: Option<ReplaySummary>,
}

/// Runs one testnet session under `load_secs` of load. With a tracer,
/// the client's codec and socket calls are recorded, each node's WAL
/// restart is timed, and node 0's WAL is replayed through the layers.
fn session(
    dir: &Path,
    seed: u64,
    load_secs: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Session, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let binary = std::env::current_exe().map_err(|e| e.to_string())?.with_file_name("hh-node");
    if !binary.is_file() {
        return Err(format!("{} not built", binary.display()));
    }
    // Free loopback ports: hold every listener until all are assigned.
    let listeners: Vec<std::net::TcpListener> = (0..NODES)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("probing ports: {e}"))?;
    let peers: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    drop(listeners);
    let mut configs = Vec::new();
    for i in 0..NODES {
        let mut cfg = NodeConfig::template(i);
        cfg.peers = peers.clone();
        cfg.wal = dir.join(format!("wal-{i}.log"));
        cfg.validate()?;
        let path = dir.join(format!("node-{i}.toml"));
        std::fs::write(&path, cfg.to_toml()).map_err(|e| format!("write config: {e}"))?;
        configs.push((cfg, path));
    }

    let spawned = Instant::now();
    let mut fleet = Fleet(Vec::new());
    for (_, path) in &configs {
        fleet.0.push(spawn_node(&binary, path)?);
    }
    while fleet.0.iter().any(|n| n.commits.load(Ordering::SeqCst) == 0) {
        if spawned.elapsed() > BOOT_TIMEOUT {
            return Err("nodes did not all commit within the boot timeout".into());
        }
        for (i, n) in fleet.0.iter_mut().enumerate() {
            if let Ok(Some(status)) = n.child.try_wait() {
                return Err(format!("node {i} exited during boot ({status})"));
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let setup_s = spawned.elapsed().as_secs_f64();
    let pids: Vec<String> = fleet.0.iter().map(|n| n.child.id().to_string()).collect();
    let cpu0: Vec<f64> = pids.iter().map(|p| host::cpu_ms(p).unwrap_or(0.0)).collect();

    // Load: one connection and one thread per client, nproc clients.
    let clients = host::nproc().clamp(1, NODES as usize);
    let load_us = (load_secs * 1e6) as u64;
    let start = Instant::now();
    let origin = tracer.as_ref().map(|t| t.origin());
    let handles: Vec<JoinHandle<Result<ClientLog, String>>> = (0..clients)
        .map(|k| {
            let id = NODES + k as u16;
            let plan = ClientPlan {
                addr: peers[k].clone(),
                id,
                due_us: due_times_us(seed, id, TPS / clients as f64, load_us),
                start,
                origin,
            };
            std::thread::spawn(move || client(plan))
        })
        .collect();
    let mut logs = Vec::new();
    let mut client_error = None;
    for h in handles {
        match h.join() {
            Ok(Ok(log)) => logs.push(log),
            Ok(Err(e)) => client_error = Some(e),
            Err(_) => client_error = Some("client thread panicked".into()),
        }
    }
    if let Some(e) = client_error {
        return Err(e);
    }
    let node_cpu_ms: Vec<f64> =
        pids.iter().zip(&cpu0).map(|(p, c0)| host::cpu_ms(p).unwrap_or(0.0) - c0).collect();
    let node_rss_mb: Vec<f64> = pids.iter().map(|p| host::peak_rss_mb(p).unwrap_or(0.0)).collect();

    // Graceful stop: close every node's stdin; each must exit 0 by itself
    // (a node still running after the grace period is killed by the
    // fleet's drop and fails the check).
    for n in &mut fleet.0 {
        if let Some(mut stdin) = n.child.stdin.take() {
            let _ = stdin.write_all(b"shutdown\n");
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut exits = Vec::new();
    for n in &mut fleet.0 {
        let status = loop {
            match n.child.try_wait() {
                Ok(Some(s)) => break Some(s),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break None,
            }
        };
        exits.push(status);
    }
    drop(fleet);
    let mut checks = vec![Check::new(
        "clean_shutdown",
        exits.iter().all(|s| s.is_some_and(|s| s.success())),
        format!(
            "exit statuses after stdin closed: {}",
            exits
                .iter()
                .map(|s| s.map_or("still running".to_string(), |s| s.to_string()))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    )];

    // Audit every WAL copy from disk.
    let mut checker = SafetyChecker::new();
    let mut wal_bytes = 0u64;
    let mut commits = Vec::new();
    for (cfg, _) in &configs {
        let copy = cfg.wal.with_extension("audit");
        std::fs::copy(&cfg.wal, &copy).map_err(|e| format!("copy WAL: {e}"))?;
        wal_bytes += std::fs::metadata(&cfg.wal).map_or(0, |m| m.len());
        let backend = FileBackend::open(&copy).map_err(|e| format!("open WAL copy: {e}"))?;
        let vconfig = cfg.validator_config()?;
        let mut v = match tracer.as_deref_mut() {
            Some(tr) => {
                replay::recover(tr, &cfg.committee(), ValidatorId(cfg.id), &vconfig, backend)
            }
            None => {
                let mut v =
                    Validator::new(cfg.committee(), ValidatorId(cfg.id), vconfig, Some(backend));
                v.on_restart(0);
                v
            }
        };
        checker.observe_all(cfg.id, &v.take_commit_records());
        commits.push(v.commit_count());
    }
    checks.push(Check::new(
        "wal_safety",
        checker.is_clean() && commits.iter().all(|c| *c > 0),
        format!(
            "{} commit records from {NODES} WAL copies, commits {commits:?}, {} violations",
            checker.records_seen(),
            checker.violations().len()
        ),
    ));

    let mut latencies_us: Vec<u64> = logs.iter().flat_map(|l| l.latencies_us.clone()).collect();
    latencies_us.sort_unstable();
    let mut lags_us: Vec<u64> = logs.iter().flat_map(|l| l.lags_us.clone()).collect();
    lags_us.sort_unstable();
    let mut replay = None;
    if let Some(tr) = tracer {
        for log in &mut logs {
            for (name, s, e) in log.spans.drain(..) {
                tr.record(name, s, e, None);
            }
        }
        replay = Some(replay_wal(tr, &configs[0].0, dir)?);
    }
    let sum = |f: fn(&ClientLog) -> u64| logs.iter().map(f).sum::<u64>();
    let attempted: u64 = sum(|l| l.sent);
    let confirmed = sum(|l| l.confirmed);
    let last_confirm_us = logs.iter().map(|l| l.last_confirm_us).max().unwrap_or(0);
    let first_due_us = logs.iter().map(|l| l.first_due_us).min().unwrap_or(0);
    Ok(Session {
        setup_s,
        wall_s: last_confirm_us.saturating_sub(first_due_us) as f64 / 1e6,
        attempted,
        confirmed,
        latencies_us,
        lags_us,
        dupes: sum(|l| l.dupes),
        unknown: sum(|l| l.unknown),
        submit_bytes: sum(|l| l.submit_bytes),
        node_cpu_ms,
        node_rss_mb,
        wal_bytes,
        checks,
        replay,
    })
}

/// Replays node `cfg`'s WAL copy through the layers, persisting to a new
/// file-backed WAL.
fn replay_wal(tr: &mut Tracer, cfg: &NodeConfig, dir: &Path) -> Result<ReplaySummary, String> {
    let copy = FileBackend::open(cfg.wal.with_extension("audit")).map_err(|e| e.to_string())?;
    let vertices = ValidatorStore::new(copy).recover().map_err(|e| e.to_string())?.vertices;
    let out = FileBackend::open(dir.join("replay.wal")).map_err(|e| e.to_string())?;
    let vconfig = cfg.validator_config()?;
    let mut layers = LayerReplay::new(&cfg.committee(), ValidatorId(cfg.id), &vconfig, out, tr)?;
    for v in vertices {
        layers.feed(tr, &Arc::new(v))?;
    }
    layers.sync(tr)?;
    Ok(ReplaySummary {
        counts: layers.counts(),
        anchors_share: replay::skipped_anchor_share(layers.committed_anchors()),
        epochs: layers.epochs(),
        excluded: layers.excluded(),
        wal_bytes: layers.wal_bytes(),
    })
}

struct ReplaySummary {
    counts: replay::ReplayCounts,
    anchors_share: f64,
    epochs: u64,
    excluded: usize,
    wal_bytes: usize,
}

fn session_checks(s: &Session) -> Vec<Check> {
    let mut checks = s.checks.clone();
    checks.push(Check::new(
        "confirms_match_ids",
        s.unknown == 0,
        format!("{} confirmations for ids never submitted or undecodable", s.unknown),
    ));
    checks.push(Check::new(
        "confirm_dupes",
        s.dupes == 0,
        format!("{} transactions confirmed more than once", s.dupes),
    ));
    checks
}

/// Runs the workload. Timed: one session filling `seconds`. Traced: an
/// untraced and a traced session of half the load each.
pub fn run(
    seed: u64,
    seconds: f64,
    scale: Scale,
    trace: bool,
    spans_path: &Path,
) -> Result<Outcome, String> {
    let load_secs = match scale {
        Scale::Full => (seconds - OVERHEAD_SECS).max(2.0),
        Scale::Tiny => 2.0,
    };
    let base_dir: PathBuf = out_dir().join(format!("testnet-{}", std::process::id()));
    let result = if trace {
        traced(seed, load_secs / 2.0, &base_dir, spans_path)
    } else {
        timed(seed, load_secs, &base_dir)
    };
    let _ = std::fs::remove_dir_all(&base_dir);
    result
}

fn timed(seed: u64, load_secs: f64, dir: &Path) -> Result<Outcome, String> {
    let s = session(&dir.join("run"), seed, load_secs, None)?;
    let ktx = s.confirmed as f64 / 1e3;
    let cpu_total: f64 = s.node_cpu_ms.iter().sum();
    let metrics = vec![
        Metric::single("wall_s", "s", s.wall_s),
        Metric::single("setup_s", "s", s.setup_s),
        Metric::single("peak_rss_mb", "MB", s.node_rss_mb.iter().copied().fold(0.0, f64::max)),
        Metric::single("goodput_tps", "tx/s", s.confirmed as f64 / load_secs),
        Metric::single("done_ratio", "ratio", s.confirmed as f64 / s.attempted.max(1) as f64),
        Metric::single("cpu_ms_per_ktx", "ms/ktx", cpu_total / ktx.max(1e-9)),
        Metric::percentile_ms("node.lat_p50_ms", percentile(&s.latencies_us, 50.0)),
        Metric::percentile_ms("node.lat_p99_ms", percentile(&s.latencies_us, 99.0)),
    ];
    let lag = |p| percentile(&s.lags_us, p).map_or(0.0, |p| p.value / 1e3);
    Ok(Outcome {
        attempted: s.attempted,
        failed: s.attempted - s.confirmed,
        metrics,
        checks: session_checks(&s),
        notes: vec![format!(
            "{} s of load from {} client threads; generator lag p99 {:.3} ms, max {:.3} ms; \
             node CPU {:.0} ms",
            load_secs,
            host::nproc().clamp(1, NODES as usize),
            lag(99.0),
            lag(100.0),
            cpu_total
        )],
    })
}

fn traced(seed: u64, load_secs: f64, dir: &Path, spans_path: &Path) -> Result<Outcome, String> {
    let base = session(&dir.join("base"), seed, load_secs, None)?;
    let mut tr = Tracer::new();
    let s = session(&dir.join("traced"), seed, load_secs, Some(&mut tr))?;
    tr.write_csv(spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let r = s.replay.as_ref().ok_or("the traced session replayed no WAL")?;
    let totals = tr.totals();
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_call = |name: &str| t(name).self_ns_per_call();
    let c = r.counts;
    let ktx = s.confirmed as f64 / 1e3;
    let cpu_total: f64 = s.node_cpu_ms.iter().sum();
    let lag = |p| percentile(&s.lags_us, p).map_or(0.0, |p| p.value / 1e3);
    // Every node runs every layer on every vertex; only the author
    // encodes a vertex frame.
    let node_layers: f64 = totals
        .iter()
        .filter(|(name, _)| {
            !name.starts_with("client.")
                && !name.ends_with("_submit")
                && !name.ends_with("_confirm")
                && !name.starts_with("storage.recover")
                && *name != &"storage.sync"
        })
        .map(|(name, t)| if *name == "codec.encode" { t.self_ns } else { t.self_ns * NODES as i64 })
        .sum::<i64>() as f64
        / 1e6;
    let crc_bytes = 2 * (c.frame_bytes - 4 * c.vertices);
    let mut checks = session_checks(&s);
    checks.extend(session_checks(&base).into_iter().map(|mut ch| {
        ch.detail = format!("untraced session: {}", ch.detail);
        ch
    }));
    let metrics = vec![
        Metric::single("rbc.handle_ns", "ns", per_call("rbc.handle")),
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
        Metric::single("consensus.skipped_anchor_share", "ratio", r.anchors_share),
        Metric::single("policy.before_order_ns", "ns", per_call("policy.before_order")),
        Metric::single("policy.on_vertex_ordered_ns", "ns", per_call("policy.on_vertex_ordered")),
        Metric::single("policy.epochs", "count", r.epochs as f64),
        Metric::single("policy.excluded", "count", r.excluded as f64),
        Metric::single("crypto.verify_ns", "ns", per_call("crypto.verify")),
        Metric::single("crypto.digest_ns", "ns", per_call("crypto.digest")),
        Metric::single(
            "crypto.crc_ns_per_kib",
            "ns/KiB",
            t("crypto.crc").self_ns as f64 / (crc_bytes as f64 / 1024.0),
        ),
        Metric::single("codec.encode_ns", "ns", per_call("codec.encode")),
        Metric::single("codec.decode_ns", "ns", per_call("codec.decode")),
        Metric::single(
            "codec.bytes_per_vertex",
            "bytes",
            c.frame_bytes as f64 / c.vertices.max(1) as f64,
        ),
        Metric::single(
            "codec.bytes_per_submit",
            "bytes",
            s.submit_bytes as f64 / s.attempted.max(1) as f64,
        ),
        Metric::single("storage.append_ns", "ns", per_call("storage.append")),
        Metric::single("storage.sync_ms", "ms", t("storage.sync").self_ns as f64 / 1e6),
        Metric::single("storage.wal_mb", "MB", r.wal_bytes as f64 / (1 << 20) as f64),
        Metric::single("storage.recover_ms", "ms", per_call("storage.recover") / 1e6),
        Metric::single("node.cpu_ms", "ms", Quartiles::of(&s.node_cpu_ms).median),
        Metric::single("node.rss_mb", "MB", Quartiles::of(&s.node_rss_mb).median),
        Metric::single("node.wal_bytes_per_ktx", "bytes/ktx", s.wal_bytes as f64 / ktx.max(1e-9)),
        Metric::single("client.submit_ns", "ns", per_call("client.submit")),
        Metric::single("client.gen_lag_p99_ms", "ms", lag(99.0)),
        Metric::single("client.gen_lag_max_ms", "ms", lag(100.0)),
        Metric::single("client.confirm_dupes", "count", s.dupes as f64),
        Metric::single("trace.overhead_s", "s", s.wall_s - base.wall_s),
        Metric::single("trace.replay_share", "ratio", node_layers / cpu_total.max(1e-9)),
    ];
    Ok(Outcome {
        attempted: s.attempted,
        failed: s.attempted - s.confirmed,
        metrics,
        checks,
        notes: vec![format!(
            "node CPU {cpu_total:.0} ms over {load_secs} s of load; replayed layers account for \
             {node_layers:.0} ms of it; node 0's WAL replayed {} vertices, {} commits",
            c.vertices, c.commits
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_net::tcp::{read_frame, read_handshake};
    use std::net::TcpListener;

    /// A stand-in node: takes the handshake, then answers each submission
    /// with a confirmation (twice over when `dupes`) until the client
    /// hangs up; returns how many submissions it saw.
    fn fake_node(dupes: bool) -> (String, JoinHandle<u64>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let node = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            read_handshake(&mut s).expect("handshake");
            let mut seen = 0;
            while let Ok(frame) = read_frame(&mut s) {
                let Ok(ValidatorMessage::Submit(tx)) = decode_framed(&frame) else {
                    panic!("expected a submission");
                };
                let reply = encode_framed(&ValidatorMessage::Confirm { id: tx.id, executed_at: 1 });
                for _ in 0..if dupes { 2 } else { 1 } {
                    write_frame(&mut s, &reply).expect("reply");
                }
                seen += 1;
            }
            seen
        });
        (addr, node)
    }

    fn plan(addr: String, due_us: Vec<u64>, late: Duration) -> ClientPlan {
        let start = Instant::now().checked_sub(late).expect("monotonic clock far from zero");
        ClientPlan { addr, id: 4, due_us, start, origin: None }
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let (addr, node) = fake_node(false);
        // The generator starts 50 ms behind: every transaction is late.
        let late = Duration::from_micros(WARMUP_US) + Duration::from_millis(50);
        let log = client(plan(addr, vec![WARMUP_US; 3], late)).expect("client");
        assert_eq!(node.join().expect("node"), 3);
        assert_eq!((log.sent, log.confirmed, log.dupes, log.unknown), (3, 3, 0, 0));
        assert!(log.lags_us.iter().all(|l| *l >= 50_000), "lags {:?}", log.lags_us);
        // Latency runs from the due instant, so it includes the lag.
        assert_eq!(log.latencies_us.len(), 3);
        for (lat, lag) in log.latencies_us.iter().zip(&log.lags_us) {
            assert!(lat >= lag, "latency {lat} µs below generator lag {lag} µs");
        }
    }

    #[test]
    fn warm_up_transactions_are_confirmed_but_not_timed() {
        let (addr, node) = fake_node(false);
        let log = client(plan(addr, vec![0, 1, WARMUP_US], Duration::from_micros(WARMUP_US)))
            .expect("client");
        assert_eq!(node.join().expect("node"), 3);
        assert_eq!(log.confirmed, 3);
        assert_eq!(log.latencies_us.len(), 1);
    }

    #[test]
    fn duplicate_confirmations_are_counted() {
        let (addr, node) = fake_node(true);
        let log = client(plan(addr, vec![0, 1], Duration::ZERO)).expect("client");
        assert_eq!(node.join().expect("node"), 2);
        assert_eq!(log.confirmed, 2);
        assert!(log.dupes >= 1, "dupes {}", log.dupes);
    }

    #[test]
    fn due_times_follow_the_seed_and_the_rate() {
        let a = due_times_us(7, 4, 2000.0, 1_000_000);
        assert_eq!(a, due_times_us(7, 4, 2000.0, 1_000_000));
        assert_ne!(a, due_times_us(8, 4, 2000.0, 1_000_000));
        assert_ne!(a, due_times_us(7, 5, 2000.0, 1_000_000));
        assert!((1900..=2100).contains(&a.len()), "{} due times", a.len());
        assert!(a.windows(2).all(|w| (449..=551).contains(&(w[1] - w[0]))));
        assert!(a.iter().all(|t| *t < 1_000_000));
    }

    #[test]
    fn frames_split_only_when_complete() {
        let mut inbox = Vec::new();
        for payload in [&b"abc"[..], b"", b"de"] {
            inbox.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            inbox.extend_from_slice(payload);
        }
        inbox.extend_from_slice(&[0, 0, 0, 9, 1]);
        let frames = take_frames(&mut inbox).expect("well-formed");
        assert_eq!(frames, vec![b"abc".to_vec(), vec![], b"de".to_vec()]);
        assert_eq!(inbox, vec![0, 0, 0, 9, 1]);
        let mut hostile = (u32::MAX).to_be_bytes().to_vec();
        assert!(take_frames(&mut hostile).is_err());
    }
}
