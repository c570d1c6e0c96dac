//! Measurement primitives the benchmark harness prints figures from.
//!
//! * [`Histogram`] — latency distributions (mean, percentiles) in virtual ns.
//! * [`Counter`] — monotonically increasing event/byte counts.
//! * [`TimeSeries`] — values bucketed by virtual time, used for the paper's
//!   drill-down plots (Fig. 11, Fig. 14b/c).

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::time::{SimDuration, SimTime};

/// A latency histogram over virtual durations.
///
/// Keeps every sample (simulations are scaled down, so sample counts stay
/// modest) which makes percentiles exact rather than approximate.
#[derive(Debug, Default)]
pub struct Histogram {
    samples: Mutex<Vec<u64>>,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    pub fn record(&self, d: SimDuration) {
        self.samples.lock().push(d.as_nanos());
    }

    pub fn len(&self) -> usize {
        self.samples.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn mean(&self) -> SimDuration {
        let s = self.samples.lock();
        if s.is_empty() {
            return SimDuration::ZERO;
        }
        SimDuration((s.iter().map(|&x| x as u128).sum::<u128>() / s.len() as u128) as u64)
    }

    /// Exact percentile by nearest-rank; `p` in `[0, 100]`.
    ///
    /// Each call clones and sorts the samples; when asking for several
    /// percentiles, use [`Histogram::percentiles`], which sorts once.
    pub fn percentile(&self, p: f64) -> SimDuration {
        self.percentiles(std::slice::from_ref(&p))[0]
    }

    /// Exact nearest-rank percentiles for every `p` in `ps`, cloning and
    /// sorting the sample vector once instead of once per percentile.
    pub fn percentiles(&self, ps: &[f64]) -> Vec<SimDuration> {
        let mut sorted = self.raw_samples();
        sorted.sort_unstable();
        ps.iter()
            .map(|&p| {
                if sorted.is_empty() {
                    return SimDuration::ZERO;
                }
                let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
                SimDuration(sorted[rank.clamp(1, sorted.len()) - 1])
            })
            .collect()
    }

    pub fn max(&self) -> SimDuration {
        SimDuration(self.samples.lock().iter().copied().max().unwrap_or(0))
    }

    pub fn min(&self) -> SimDuration {
        SimDuration(self.samples.lock().iter().copied().min().unwrap_or(0))
    }

    /// The raw sample sequence in record order, in ns. Primarily for
    /// determinism checks: two runs are byte-identical iff their raw
    /// sequences match.
    pub fn raw_samples(&self) -> Vec<u64> {
        self.samples.lock().clone()
    }

    /// Drain all samples, resetting the histogram.
    pub fn reset(&self) {
        self.samples.lock().clear();
    }
}

/// A monotonically increasing counter (ops completed, bytes moved).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }

    /// Rate per virtual second over `[0, horizon]`.
    #[cfg(test)]
    pub(crate) fn rate_per_sec(&self, horizon: SimTime) -> f64 {
        if horizon.0 == 0 {
            return 0.0;
        }
        self.get() as f64 / horizon.as_secs_f64()
    }
}

/// Values bucketed by virtual time — one bucket per `bucket_width` of
/// simulation time, each bucket accumulating a sum and a sample count.
#[derive(Debug)]
pub struct TimeSeries {
    bucket_width: SimDuration,
    /// `(sum, count)` per bucket.
    buckets: Mutex<Vec<(f64, u64)>>,
}

impl TimeSeries {
    pub fn new(bucket_width: SimDuration) -> TimeSeries {
        assert!(!bucket_width.is_zero());
        TimeSeries {
            bucket_width,
            buckets: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn bucket_width(&self) -> SimDuration {
        self.bucket_width
    }

    pub fn record(&self, at: SimTime, value: f64) {
        let idx = (at.as_nanos() / self.bucket_width.as_nanos()) as usize;
        let mut buckets = self.buckets.lock();
        if buckets.len() <= idx {
            buckets.resize(idx + 1, (0.0, 0));
        }
        buckets[idx].0 += value;
        buckets[idx].1 += 1;
    }

    /// Per-bucket mean values (empty buckets report 0.0).
    pub fn means(&self) -> Vec<f64> {
        self.buckets
            .lock()
            .iter()
            .map(|&(sum, n)| if n == 0 { 0.0 } else { sum / n as f64 })
            .collect()
    }

    /// Per-bucket sums (e.g. bytes per interval → divide by width for MB/s).
    pub fn sums(&self) -> Vec<f64> {
        self.buckets.lock().iter().map(|&(sum, _)| sum).collect()
    }

    /// Per-bucket sums normalized to a per-second rate.
    pub fn rates_per_sec(&self) -> Vec<f64> {
        let w = self.bucket_width.as_secs_f64();
        self.sums().iter().map(|s| s / w).collect()
    }
}

/// Aggregate outcome of a benchmark run, ready for table printing.
///
/// Closed-loop accounting: `ops` counts operations that *started* strictly
/// before the horizon (the driver contract), so ops straddling the horizon
/// boundary are included and `throughput_per_sec` slightly overshoots at
/// small horizons; [`crate::driver::RunOutcome`] has the exact accounting.
#[derive(Debug, Clone)]
pub struct RunSummary {
    pub label: String,
    pub ops: u64,
    pub virtual_secs: f64,
    pub throughput_per_sec: f64,
    pub mean_latency_us: f64,
    pub p95_latency_us: f64,
    pub p99_latency_us: f64,
}

impl RunSummary {
    pub fn from_histogram(label: impl Into<String>, h: &Histogram, horizon: SimTime) -> RunSummary {
        let ops = h.len() as u64;
        let secs = horizon.as_secs_f64();
        let pcts = h.percentiles(&[95.0, 99.0]);
        RunSummary {
            label: label.into(),
            ops,
            virtual_secs: secs,
            throughput_per_sec: if secs > 0.0 { ops as f64 / secs } else { 0.0 },
            mean_latency_us: h.mean().as_micros_f64(),
            p95_latency_us: pcts[0].as_micros_f64(),
            p99_latency_us: pcts[1].as_micros_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_and_percentiles() {
        let h = Histogram::new();
        for us in 1..=100u64 {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.len(), 100);
        assert_eq!(h.mean(), SimDuration::from_nanos(50_500)); // (1+..+100)us / 100 = 50.5us
        assert_eq!(h.percentile(50.0), SimDuration::from_micros(50));
        assert_eq!(h.percentile(95.0), SimDuration::from_micros(95));
        assert_eq!(h.percentile(100.0), SimDuration::from_micros(100));
        assert_eq!(h.max(), SimDuration::from_micros(100));
        assert_eq!(h.min(), SimDuration::from_micros(1));
    }

    #[test]
    fn histogram_empty_is_safe() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.percentile(99.0), SimDuration::ZERO);
    }

    #[test]
    fn counter_rates() {
        let c = Counter::new();
        c.add(500);
        c.incr();
        assert_eq!(c.get(), 501);
        assert!((c.rate_per_sec(SimTime(1_000_000_000)) - 501.0).abs() < 1e-9);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn timeseries_buckets_by_virtual_time() {
        let ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.record(SimTime(100), 10.0); // bucket 0
        ts.record(SimTime(500_000_000), 20.0); // bucket 0
        ts.record(SimTime(1_500_000_000), 30.0); // bucket 1
        assert_eq!(ts.means(), vec![15.0, 30.0]);
        assert_eq!(ts.sums(), vec![30.0, 30.0]);
        assert_eq!(ts.rates_per_sec(), vec![30.0, 30.0]);
    }

    #[test]
    fn run_summary_computes_throughput() {
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(SimDuration::from_micros(100));
        }
        let s = RunSummary::from_histogram("x", &h, SimTime(2_000_000_000));
        assert_eq!(s.ops, 1000);
        assert!((s.throughput_per_sec - 500.0).abs() < 1e-9);
        assert!((s.mean_latency_us - 100.0).abs() < 1e-9);
    }
}
