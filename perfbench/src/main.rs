//! `perfbench` — one benchmark for the simulator and the real node.
//!
//! ```text
//! perfbench [--workload <name>|all] [--seed <n>] [--seconds <s>] [--trace 0|1] [--scale full|tiny]
//! ```
//!
//! Workloads: `fig2-n100` and `open-n10-recover` (simulator) and
//! `testnet-4` (four `hh-node` processes on loopback). A run prints every
//! metric by name with its unit, the correctness checks, and as its last
//! line a one-line JSON summary; it exits 1 if any check failed. With
//! `--trace 1` it reports per-layer metrics from a separate traced run
//! instead of the end-to-end ones. See `perfbench/README.md`.

mod host;
mod replay;
mod report;
mod sim;
mod stats;
mod testnet;
mod trace;

use report::{Outcome, RunInfo};
use sim::SimWorkload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Workload size: the benchmark's, or a tiny smoke size for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Seconds-long versions of each workload.
    Tiny,
}

/// Where runs write their ledger entries, spans and testnet scratch
/// files: `perfbench/out/` in the checkout the benchmark was built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The paper's Fig. 2 setting: 100 validators on the geo model, a third
/// crashed from t=0, closed-loop clients at 3000 tx/s.
const FIG2: SimWorkload = SimWorkload { name: "fig2-n100", grace_secs: 5, tiny_secs: 7 };

/// Ten validators on a flat 25 ms network under open-loop Poisson load
/// near the execution ceiling, one validator crashing and recovering from
/// its WAL.
const OPEN: SimWorkload = SimWorkload { name: "open-n10-recover", grace_secs: 10, tiny_secs: 12 };

const WORKLOADS: [&str; 3] = ["fig2-n100", "open-n10-recover", "testnet-4"];

const USAGE: &str = "usage: perfbench [--workload fig2-n100|open-n10-recover|testnet-4|all] \
                     [--seed <n>] [--seconds <s>] [--trace 0|1] [--scale full|tiny]";

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: 45.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if value == "all" => out.workloads = WORKLOADS.to_vec(),
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| **w == value.as_str());
                out.workloads = vec![*w.ok_or_else(|| format!("unknown workload {value}"))?];
            }
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(out.seconds > 0.0 && out.seconds <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--scale" => {
                out.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("--scale takes full or tiny, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(out)
}

fn run_workload(name: &str, a: &Args, spans: &Path) -> Result<Outcome, String> {
    match (name, a.trace) {
        ("fig2-n100", false) => sim::timed(&FIG2, a.seed, a.seconds, a.scale),
        ("fig2-n100", true) => sim::traced(&FIG2, a.seed, a.scale, spans),
        ("open-n10-recover", false) => sim::timed(&OPEN, a.seed, a.seconds, a.scale),
        ("open-n10-recover", true) => sim::traced(&OPEN, a.seed, a.scale, spans),
        ("testnet-4", trace) => testnet::run(a.seed, a.seconds, a.scale, trace, spans),
        _ => Err(format!("unknown workload {name}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("error: creating {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut combined = Outcome::default();
    for name in &args.workloads {
        let stem = format!("{name}-seed{}-trace{}", args.seed, u8::from(args.trace));
        let outcome =
            run_workload(name, &args, &out.join(format!("{stem}.spans.csv"))).and_then(|o| {
                let declared = match (*name == "testnet-4", args.trace) {
                    (false, false) => report::END_TO_END,
                    (false, true) => report::PER_LAYER,
                    (true, false) => report::TESTNET_END_TO_END,
                    (true, true) => report::TESTNET_PER_LAYER,
                };
                report::conforms(&o.metrics, declared).map(|()| o)
            });
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", report::render_text(name, &outcome));
        let info = RunInfo {
            workload: name.to_string(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            nproc: host::nproc(),
            cpu_model: host::cpu_model(),
            git_rev: host::git_rev(&root),
        };
        let entry = out.join(format!("{stem}.json"));
        if let Err(e) = std::fs::write(&entry, report::ledger_entry(&info, &outcome).render()) {
            eprintln!("error: writing {}: {e}", entry.display());
            return ExitCode::FAILURE;
        }
        if args.workloads.len() == 1 {
            combined = outcome;
        } else {
            combined.attempted += outcome.attempted;
            combined.failed += outcome.failed;
            combined.checks.extend(outcome.checks);
            combined.metrics.extend(outcome.metrics.into_iter().map(|mut m| {
                m.name = format!("{name}/{}", m.name);
                m
            }));
        }
    }
    println!("{}", report::summary_line(&combined));
    if combined.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
