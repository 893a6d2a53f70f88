//! Facts about the machine and processes, read from `/proc`: peak
//! resident memory, CPU time, the CPU model, and the source revision.

use std::path::Path;

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MiB. `None` if the process is gone or the field is missing.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU time of process `pid` (`"self"` for this one),
/// in milliseconds, from fields 14 and 15 of `/proc/<pid>/stat`.
pub fn cpu_ms(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may contain spaces; fields after it are
    // counted from the closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1000.0 / clock_ticks_per_sec())
}

fn clock_ticks_per_sec() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: `sysconf` takes an integer selector, has no preconditions
    // and touches no memory of ours; an unknown selector returns -1.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// Nanoseconds one probe burst takes on the reference processor: the
/// typical speed of the 2-core Xeon host the benchmark was calibrated on.
pub const PROBE_REFERENCE_NS: f64 = 3.1e6;

/// A processor-speed probe. This benchmark runs on shared machines whose
/// speed drifts by tens of percent over minutes, more than any bound a
/// regression check could use. The probe is a fixed piece of work that
/// is none of the program's code — a dependent walk over a 256 KiB table
/// and first touches of fresh pages, bound by the core, its caches and
/// page faults like the simulator — run in short bursts between
/// slices of the measured work. The ratio of the reference
/// burst time to the mean burst time measured alongside turns the
/// measured time into time on the reference processor.
pub struct SpeedProbe {
    table: Vec<u64>,
    x: u64,
    bursts: u64,
    ns: u128,
    last: std::time::Instant,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        SpeedProbe::new()
    }
}

impl SpeedProbe {
    const STEPS: usize = 200_000;
    const MAPPED: usize = 64 << 20;
    const PAGES: usize = 512;
    const EVERY: std::time::Duration = std::time::Duration::from_millis(100);

    /// A probe with its table allocated and one burst taken.
    pub fn new() -> SpeedProbe {
        let n = 1usize << 15;
        let table = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40).collect();
        let mut p = SpeedProbe { table, x: 1, bursts: 0, ns: 0, last: std::time::Instant::now() };
        p.burst();
        p
    }

    /// Runs one burst.
    pub fn burst(&mut self) {
        let t = std::time::Instant::now();
        let mask = self.table.len() - 1;
        let mut x = self.x;
        for _ in 0..Self::STEPS {
            x = self.table[(x as usize) & mask].wrapping_add(x.rotate_left(13) ^ 0x5bd1_e995);
        }
        self.x = std::hint::black_box(x);
        // Fresh pages: a block this large is always mapped and unmapped on
        // its own, outside the heap the measured program allocates from, so
        // the probe never changes that heap's layout or peak.
        let mut fresh: Vec<u8> = Vec::with_capacity(Self::MAPPED);
        for page in fresh.spare_capacity_mut().iter_mut().step_by(4096).take(Self::PAGES) {
            page.write(1);
        }
        drop(std::hint::black_box(fresh));
        self.ns += t.elapsed().as_nanos();
        self.bursts += 1;
        self.last = std::time::Instant::now();
    }

    /// Runs a burst if 100 ms have passed since the last one. Call it
    /// between slices of the measured work.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= Self::EVERY {
            self.burst();
        }
    }

    /// Mean nanoseconds per burst.
    pub fn mean_ns(&self) -> f64 {
        self.ns as f64 / self.bursts.max(1) as f64
    }

    /// Seconds spent in bursts.
    pub fn total_s(&self) -> f64 {
        self.ns as f64 / 1e9
    }

    /// Factor from time measured alongside the probe to time on the
    /// reference processor.
    pub fn scale(&self) -> f64 {
        PROBE_REFERENCE_NS / self.mean_ns()
    }
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Usable hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the sources were checked out at, read from `root/.git`
/// without running git (a checkout without `.git` reports `unknown`).
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb("self").is_some_and(|mb| mb > 0.0));
        let before = cpu_ms("self").expect("stat readable");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_ms("self").expect("stat readable") >= before);
        assert!(nproc() >= 1);
        assert!(!cpu_model().is_empty());
    }

    #[test]
    fn git_rev_resolves_refs_without_git() {
        let dir = crate::out_dir().join(format!("git-rev-test-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).expect("mkdir");
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").expect("write");
        assert_eq!(git_rev(&dir), "unknown");
        std::fs::write(git.join("packed-refs"), "# pack\nabc123 refs/heads/main\n").expect("w");
        assert_eq!(git_rev(&dir), "abc123");
        std::fs::write(git.join("refs/heads/main"), "def456\n").expect("write");
        assert_eq!(git_rev(&dir), "def456");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        assert_eq!(git_rev(&dir), "unknown");
    }
}
