//! Shared pieces: the seeded generator, sample statistics, the per-run
//! report, and the machine facts every result carries.

use std::collections::BTreeMap;
use std::time::Duration;

/// SplitMix64: a small, seedable generator.  The same seed always yields
/// the same stream, which is all the workloads need from it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under `seed`; distinct streams of one seed
    /// are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean (Poisson arrivals).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// The value at quantile `q` (0..=1) of `sorted`, by nearest rank.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// A growable set of samples of one quantity.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_duration_us(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as f64 / 1e3);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    pub fn quantile(&self, q: f64) -> f64 {
        quantile_sorted(&self.sorted(), q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }
}

/// Latency quantiles taken per unit of work (a run, a pass or a window)
/// and reported as their median across units, so that one scheduling
/// stall moves one unit's figure instead of the whole run's.
#[derive(Debug, Default)]
pub struct UnitQuantiles {
    p50: Samples,
    p99: Samples,
    samples: usize,
}

impl UnitQuantiles {
    pub fn add(&mut self, unit: &Samples) {
        if unit.len() > 0 {
            let sorted = unit.sorted();
            self.p50.push(quantile_sorted(&sorted, 0.5));
            self.p99.push(quantile_sorted(&sorted, 0.99));
            self.samples += unit.len();
        }
    }

    /// Records `lat_p50_us` (an end-to-end metric) in an untraced run and
    /// `lat_p99_us` (a per-layer figure: its run-to-run spread on a 2-vCPU
    /// box is wider than any end-to-end bound) in a traced one.
    pub fn report(&self, report: &mut Report, traced: bool) {
        if traced {
            report.layer("lat_p99_us", self.p99.median(), self.samples);
        } else {
            report.e2e("lat_p50_us", self.p50.median(), self.samples);
        }
        report.notes.push(format!(
            "latency: median over {} units of each unit's quantile ({} samples); p50 {:.3} us, p99 {:.3} us",
            self.p50.len(),
            self.samples,
            self.p50.median(),
            self.p99.median()
        ));
    }
}

/// Everything one invocation measured.  `e2e` and `layers` are keyed by the
/// metric names `BENCHMARK.json` declares; `counts` records how many
/// samples stand behind each figure.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not valid, if it is not (a broken gate other than a
    /// counted operation failure, or a generator that fell behind).
    pub invalid: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<&'static str, usize>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: usize) {
        self.e2e.insert(name, value);
        self.counts.insert(name, samples);
    }

    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        self.layers.insert(name, value);
        self.counts.insert(name, samples);
    }

    /// Counts one gated operation; `ok == false` is a failure.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 32 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    /// Counts `n` operations of which `bad` failed.
    pub fn gate_many(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 && self.notes.len() < 32 {
            self.notes.push(format!("FAILED {bad}/{n}: {}", what()));
        }
    }
}

/// The resident set of what is live now, in MiB (`VmRSS` in
/// `/proc/self/status`, after the allocator's free memory is returned to
/// the operating system, so freed temporaries do not count).  Sampled at
/// the end of each protected unit, before teardown, while the unit's
/// journal, snapshots and agent buffers are all still held.
pub fn rss_mb() -> f64 {
    release_free_memory();
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Returns the allocator's free memory to the operating system, so every
/// unit of work starts from the same heap state whatever the previous
/// units left behind: set-up then always pays for fresh pages, and the
/// resident set holds only what the live unit uses.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers, only releases
        // memory the allocator already holds as free, and is thread-safe.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The commit the checkout was built from, read from `.git/HEAD` without
/// running git; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version`, or `unknown` when no compiler is on the path.
pub fn rustc_version() -> String {
    std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
