//! The timing harness every arm shares: sample summaries, a log2
//! latency histogram for per-call timings, peak memory, and the host
//! fingerprint printed with every run.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Repeated measurements of one quantity (one value per round, or one
/// per call for latencies).
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

/// Order statistics of a [`Samples`] set.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub p10: f64,
    pub p90: f64,
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples(iter.into_iter().collect())
    }
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Linear-interpolated quantile `q` in `[0, 1]`; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        quantile_sorted(&v, q)
    }

    pub fn summary(&self) -> Option<Summary> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            n: v.len(),
            median: quantile_sorted(&v, 0.5)?,
            q1: quantile_sorted(&v, 0.25)?,
            q3: quantile_sorted(&v, 0.75)?,
            p10: quantile_sorted(&v, 0.10)?,
            p90: quantile_sorted(&v, 0.90)?,
        })
    }
}

fn quantile_sorted(v: &[f64], q: f64) -> Option<f64> {
    let last = v.len().checked_sub(1)?;
    let pos = q * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Per-call latency histogram with power-of-two buckets: bucket `b`
/// holds durations in `[2^b, 2^(b+1))` ns (bucket 0 also holds 0).
/// Constant memory however many millions of calls it records.
#[derive(Clone, Debug)]
pub struct Log2Hist {
    counts: [u64; 64],
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist { counts: [0; 64] }
    }
}

impl Log2Hist {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[(63 - ns.max(1).leading_zeros()) as usize] += 1;
    }

    pub fn merge(&mut self, other: &Log2Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Quantile `q`, interpolated linearly inside the bucket that holds
    /// the target rank; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = q * total as f64;
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let lo = (1u64 << b) as f64;
                let into = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo + lo * into);
            }
            below += c;
        }
        None
    }

    /// Non-empty buckets as `(lower bound ns, count)`.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (1u64 << b, c))
    }
}

/// The reference kernel the timings are scaled by: sorting a fixed
/// 128 Ki-element pseudo-random `u64` array (1 MiB).
///
/// The host this benchmark runs on is shared, and its speed for the
/// same code drifts by half or more over seconds to minutes as other
/// tenants come and go — a whole 35 s run can fall in a slow spell, so
/// no statistic over one run's rounds is steady from run to run. The
/// kernel is timed right before and after every arm; dividing the arm's
/// time by it cancels the host's speed at that moment, and multiplying
/// by [`REFERENCE_NOMINAL_S`] turns it back into seconds. The kernel is
/// the benchmark's own code and uses only `std`, so no change to the
/// repository's crates moves it.
pub struct Reference {
    src: Vec<u64>,
}

/// A typical time of [`Reference::time`] on the host the benchmark was
/// tuned on (2 vCPUs of an Intel Xeon; one run's median lay between
/// 2.7 and 4.1 ms over thirty runs): scaled times read as seconds on
/// that host at that speed. Each run prints its own median beside it.
pub const REFERENCE_NOMINAL_S: f64 = 3.4e-3;

impl Reference {
    pub fn new() -> Reference {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let src = (0..1 << 17)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Reference { src }
    }

    /// The faster of two runs of the kernel, in seconds: one run can
    /// be cut into by an interrupt or another thread's leftover work.
    pub fn time(&self) -> f64 {
        let once = || {
            let t = Instant::now();
            let mut v = self.src.clone();
            v.sort_unstable();
            std::hint::black_box(&v);
            t.elapsed().as_secs_f64()
        };
        once().min(once())
    }
}

/// What scales a time taken between two reference timings, `before`
/// and `after`, to the kernel's nominal speed.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_NOMINAL_S / (before + after)
}

/// Peak resident set size of this process in MiB (`VmHWM`, Linux).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Pin this process to the first CPU it may run on, so the client and
/// server threads hand off on one core instead of waking each other
/// across (virtual) CPUs, whose wake-up latency follows the host's load
/// rather than the code. Threads started later inherit the pin. Uses
/// `taskset`; returns the CPU, or `None` when pinning was not possible.
pub fn pin_to_one_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let cpu: u32 = allowed.split([',', '-']).next()?.parse().ok()?;
    let pid = std::process::id().to_string();
    let out = Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), &pid])
        .output()
        .ok()?;
    out.status.success().then_some(cpu)
}

/// What the numbers were measured on: core count, CPU model, compiler,
/// and the source revision.
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
    pub revision: String,
}

impl Host {
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
        // A git checkout names its commit; an exported tree (no `.git`)
        // is identified by a digest of the sources the benchmark builds.
        let revision = if Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"])
        } else {
            None
        }
        .unwrap_or_else(|| format!("tree-fnv64:{:016x}", source_digest()));
        Host {
            nproc,
            cpu,
            rustc,
            revision,
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over every file under `crates/`, `src/` and `vendor/` plus
/// the root manifests, visited in sorted order.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    for dir in ["crates", "src", "vendor"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            s.push(v);
        }
        let q = s.summary().unwrap();
        assert_eq!((q.median, q.q1, q.q3, q.n), (3.0, 2.0, 4.0, 5));
        assert!(Samples::default().summary().is_none());
    }

    #[test]
    fn histogram_quantile_lands_in_the_right_bucket() {
        let mut h = Log2Hist::default();
        for ns in [100, 100, 100, 100, 100, 100, 100, 100, 100, 5000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile(0.5).unwrap();
        assert!((64.0..128.0).contains(&p50), "{p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((4096.0..8192.0).contains(&p99), "{p99}");
    }
}
