//! Order statistics, CPU clocks and the machine-speed reference shared
//! by every workload.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Quantile `q` (0..=1) of an ascending slice, linearly interpolated
/// between the two closest ranks. Empty input yields 0.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median and spread of one sample set.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p90: f64,
    pub p99: f64,
    pub mean: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_unstable_by(f64::total_cmp);
        let mean = if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
        Summary {
            n: v.len(),
            p25: quantile(&v, 0.25),
            p50: quantile(&v, 0.50),
            p75: quantile(&v, 0.75),
            p90: quantile(&v, 0.90),
            p99: quantile(&v, 0.99),
            mean,
        }
    }
}

/// Median of a sample set (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).p50
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Latency histogram with constant memory: 1% log-spaced buckets from
/// 100 ns up, so a faster run's extra samples cannot raise peak RSS.
/// Quantiles interpolate by rank inside the bucket.
pub struct LogHistogram {
    counts: Vec<u64>,
    n: u64,
    sum_us: f64,
}

const LOG_BASE: f64 = 1.01;
const LOG_MIN_US: f64 = 0.1;
const LOG_BUCKETS: usize = 2100;

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram { counts: vec![0; LOG_BUCKETS], n: 0, sum_us: 0.0 }
    }
}

impl LogHistogram {
    pub fn record_us(&mut self, us: f64) {
        let b = if us <= LOG_MIN_US { 0.0 } else { (us / LOG_MIN_US).ln() / LOG_BASE.ln() };
        self.counts[(b as usize).min(LOG_BUCKETS - 1)] += 1;
        self.n += 1;
        self.sum_us += us;
    }

    /// Quantile `q` in µs (0 when empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && rank < (below + c) as f64 {
                let within = (rank - below as f64 + 0.5) / c as f64;
                return LOG_MIN_US * LOG_BASE.powf(b as f64 + within);
            }
            below += c;
        }
        LOG_MIN_US * LOG_BASE.powf(LOG_BUCKETS as f64)
    }

    pub fn summary(&self) -> Summary {
        Summary {
            n: self.n as usize,
            p25: self.quantile_us(0.25),
            p50: self.quantile_us(0.50),
            p75: self.quantile_us(0.75),
            p90: self.quantile_us(0.90),
            p99: self.quantile_us(0.99),
            mean: if self.n == 0 { 0.0 } else { self.sum_us / self.n as f64 },
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        0.0
    }
}

/// CPU time consumed so far by every thread of this process, live or
/// ended (`CLOCK_PROCESS_CPUTIME_ID`), in seconds.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2)
}

/// CPU time consumed so far by the calling thread
/// (`CLOCK_THREAD_CPUTIME_ID`), in seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3)
}

/// CPU time of one [`reference_kernel`] run on the machine the benchmark
/// was sized on (a 2-vCPU Intel Xeon VM), rounded from its typical
/// 12–14 ms. Normalized metrics are CPU time rescaled to this speed.
pub const REFERENCE_NOMINAL_S: f64 = 0.012;

/// A fixed CPU workload written against `std` alone — ordered-map
/// inserts, vector growth and sorting, string formatting: the mix the
/// analysis and classify paths run. It never changes with the
/// repository, so its CPU time tracks how fast the machine runs right
/// now (other tenants on the host's cores), not the code under test.
pub fn reference_kernel() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut buckets: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut names: BTreeMap<String, u64> = BTreeMap::new();
    for i in 0..40_000u32 {
        let k = next() % 8192;
        buckets.entry(k).or_default().push(i);
        if i % 4 == 0 {
            names.insert(format!("k{}", next() % 4096), k);
        }
    }
    let mut acc = 0u64;
    for v in buckets.values_mut() {
        v.sort_unstable_by(|a, b| b.cmp(a));
        acc = acc.wrapping_add(u64::from(v[0]));
    }
    for (k, v) in &names {
        acc = acc.wrapping_add(k.len() as u64 ^ v);
    }
    acc
}

/// Reference-kernel samples taken through one run.
#[derive(Default)]
pub struct MachineSpeed {
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl MachineSpeed {
    /// Runs the kernel once on this thread and records its CPU time.
    /// Returns `(cpu_s, wall_s)` the sample itself took, for callers that
    /// must take it out of a surrounding measurement.
    pub fn sample(&mut self) -> (f64, f64) {
        let (wall, cpu) = (Instant::now(), thread_cpu_s());
        std::hint::black_box(reference_kernel());
        let spent = thread_cpu_s() - cpu;
        self.samples.push(spent);
        self.last = Some(Instant::now());
        (spent, wall.elapsed().as_secs_f64())
    }

    /// [`MachineSpeed::sample`] when at least `gap` has passed since the
    /// last sample; `(0, 0)` otherwise.
    pub fn sample_every(&mut self, gap: Duration) -> (f64, f64) {
        match self.last {
            Some(t) if t.elapsed() < gap => (0.0, 0.0),
            _ => self.sample(),
        }
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Median kernel CPU time over the run, seconds.
    pub fn kernel_s(&self) -> f64 {
        median(&self.samples)
    }

    /// Multiplier taking CPU time measured in this run to
    /// [`REFERENCE_NOMINAL_S`] machine speed.
    pub fn factor(&self) -> f64 {
        REFERENCE_NOMINAL_S / self.kernel_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.n, s.p50, s.mean), (3, 3.0, 3.0));
    }

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let mut h = LogHistogram::default();
        for us in 1..=1000 {
            h.record_us(us as f64);
        }
        let s = h.summary();
        assert_eq!(s.n, 1000);
        assert!((s.p50 / 500.0 - 1.0).abs() < 0.02, "{}", s.p50);
        assert!((s.p99 / 990.0 - 1.0).abs() < 0.02, "{}", s.p99);
        assert!((s.mean - 500.5).abs() < 1e-9);
    }
}
