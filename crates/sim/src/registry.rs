//! Central registry of *named* metrics and virtual-clock span tracing.
//!
//! [`crate::metrics`] provides the raw primitives (counters, histograms,
//! time series); this module organizes them into one component hierarchy
//! (`nic.read.lat`, `fabric.read.bytes`, `broker.lease.grants`,
//! `bpext.hit_ratio`, `rfile.retries`, …) that the bench harness can
//! snapshot deterministically and serialize next to a figure's data.
//!
//! Two properties matter more than anything else here:
//!
//! * **Determinism** — all maps are `BTreeMap`, snapshots iterate in name
//!   order, and nothing reads the wall clock. Two identical seeded runs
//!   produce identical snapshots, byte for byte once serialized.
//! * **Zero time distortion** — recording a metric never charges a
//!   [`Clock`](crate::Clock). Span enter/exit take explicit [`SimTime`]
//!   instants so attribution is exact without touching the clock.
//!
//! Span tracing is stack-shaped: [`MetricsRegistry::span_enter`] /
//! [`MetricsRegistry::span_exit`] must nest LIFO (the simulation driver
//! runs one worker step to completion at a time, so this holds naturally).
//! Each named span accumulates call count, total time and *self* time
//! (total minus enclosed child spans) — the per-layer attribution that
//! splits an `rfile.read` into network verbs vs. file-layer overhead.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::metrics::{Counter, Histogram, TimeSeries};
use crate::time::{SimDuration, SimTime};

/// A settable scalar metric (stored as `f64` bits); last writer wins.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Intern a runtime-built span name, returning the `'static` string
/// [`MetricsRegistry::span_enter`] requires. Repeated calls with the same
/// name return the same leaked allocation, so the cost is bounded by the
/// number of *distinct* names (metric names are finite and small); call it
/// once at construction time, never per operation.
pub fn intern_name(name: &str) -> &'static str {
    static POOL: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut pool = POOL.lock();
    match pool.binary_search(&name) {
        Ok(i) => pool[i],
        Err(i) => {
            let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
            pool.insert(i, leaked);
            leaked
        }
    }
}

/// Aggregate statistics for one named span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    pub count: u64,
    pub total: SimDuration,
    /// Total minus time spent inside child spans.
    pub self_time: SimDuration,
}

/// Token returned by [`MetricsRegistry::span_enter`]; pass it back to
/// [`MetricsRegistry::span_exit`]. Exits must be LIFO.
#[derive(Debug)]
#[must_use = "a span that is never exited records nothing"]
pub struct SpanToken {
    depth: usize,
}

/// Pre-resolved handle to a named span, returned by
/// [`MetricsRegistry::span`]. Resolve once at construction time; entering
/// by id ([`MetricsRegistry::span_enter_id`]) is a plain index, with no
/// string comparison on the per-verb hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

struct OpenSpan {
    id: SpanId,
    start: SimTime,
    child_time: SimDuration,
}

#[derive(Default)]
struct SpanState {
    ids: BTreeMap<&'static str, SpanId>,
    names: Vec<&'static str>,
    stats: Vec<SpanStats>,
    stack: Vec<OpenSpan>,
}

impl SpanState {
    fn open(&mut self, id: SpanId, at: SimTime) {
        self.stack.push(OpenSpan {
            id,
            start: at,
            child_time: SimDuration::ZERO,
        });
    }

    fn close(&mut self, at: SimTime) {
        let open = self.stack.pop().expect("span_exit with no open span");
        let total = at.since(open.start);
        let self_time = SimDuration(total.as_nanos().saturating_sub(open.child_time.as_nanos()));
        if let Some(parent) = self.stack.last_mut() {
            parent.child_time += total;
        }
        let st = &mut self.stats[open.id.0 as usize];
        st.count += 1;
        st.total += total;
        st.self_time += self_time;
    }
}

/// The central metric registry: named counters, gauges, histograms, time
/// series and spans, created on first use.
///
/// A name is bound to one metric kind forever; asking for `fabric.bytes` as
/// a counter after it was created as a gauge is a programming error and
/// panics (names are compile-time constants in the instrumented crates, so
/// this fails fast and deterministically).
#[derive(Default)]
pub struct MetricsRegistry {
    kinds: Mutex<BTreeMap<String, &'static str>>,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    series: Mutex<BTreeMap<String, Arc<TimeSeries>>>,
    spans: Mutex<SpanState>,
}

// Configs embed `Option<Arc<MetricsRegistry>>` and still derive Debug;
// dumping every registered metric there would be noise, so show the count.
impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("metrics", &self.kinds.lock().len())
            .finish()
    }
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Convenience: a fresh registry behind an `Arc`, ready to share.
    pub fn shared() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry::new())
    }

    fn claim(&self, name: &str, kind: &'static str) {
        let mut kinds = self.kinds.lock();
        match kinds.get(name) {
            None => {
                kinds.insert(name.to_string(), kind);
            }
            Some(k) if *k == kind => {}
            Some(k) => panic!(
                "metric name collision: `{name}` is registered as a {k}, requested as a {kind}"
            ),
        }
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.claim(name, "counter");
        Arc::clone(
            self.counters
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.claim(name, "gauge");
        Arc::clone(
            self.gauges
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.claim(name, "histogram");
        Arc::clone(
            self.histograms
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Get or create the time series `name` (bucketed by `width` of virtual
    /// time; the width of the first creation wins).
    pub fn time_series(&self, name: &str, width: SimDuration) -> Arc<TimeSeries> {
        self.claim(name, "series");
        Arc::clone(
            self.series
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(TimeSeries::new(width))),
        )
    }

    /// Resolve (registering on first use) the span `name` to a [`SpanId`].
    /// Call once at construction time; the id makes every subsequent
    /// [`MetricsRegistry::span_enter_id`] a string-free array index.
    pub fn span(&self, name: &str) -> SpanId {
        let mut s = self.spans.lock();
        if let Some(&id) = s.ids.get(name) {
            return id;
        }
        self.claim(name, "span");
        let interned = intern_name(name);
        let id = SpanId(s.names.len() as u32);
        s.ids.insert(interned, id);
        s.names.push(interned);
        s.stats.push(SpanStats::default());
        id
    }

    /// Open the span `name` at instant `at`. Spans nest; close with
    /// [`MetricsRegistry::span_exit`] in LIFO order.
    ///
    /// Convenience wrapper that resolves `name` on every call; hot paths
    /// should resolve a [`SpanId`] once via [`MetricsRegistry::span`] and
    /// use [`MetricsRegistry::span_enter_id`] instead.
    pub fn span_enter(&self, name: &'static str, at: SimTime) -> SpanToken {
        let id = self.span(name);
        self.span_enter_id(id, at)
    }

    /// Open the pre-resolved span `id` at instant `at`. Close with
    /// [`MetricsRegistry::span_exit`] in LIFO order. Never hashes or
    /// compares a string.
    pub fn span_enter_id(&self, id: SpanId, at: SimTime) -> SpanToken {
        let mut s = self.spans.lock();
        s.open(id, at);
        SpanToken {
            depth: s.stack.len() - 1,
        }
    }

    /// Close the innermost open span, which must be the one `token` came
    /// from, charging `at - enter_time` to its stats.
    pub fn span_exit(&self, token: SpanToken, at: SimTime) {
        let mut s = self.spans.lock();
        assert_eq!(
            s.stack.len(),
            token.depth + 1,
            "span_exit out of order: spans must close LIFO"
        );
        s.close(at);
    }

    /// Per-name span statistics accumulated so far.
    pub fn span_stats(&self, name: &str) -> SpanStats {
        let s = self.spans.lock();
        match s.ids.get(name) {
            Some(&id) => s.stats[id.0 as usize],
            None => SpanStats::default(),
        }
    }

    /// A deterministic, name-ordered snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .iter()
            .map(|(k, h)| {
                // one clone+sort per histogram instead of one per percentile
                let pcts = h.percentiles(&[50.0, 95.0, 99.0]);
                (
                    k.clone(),
                    HistogramSummary {
                        count: h.len() as u64,
                        mean_ns: h.mean().as_nanos(),
                        p50_ns: pcts[0].as_nanos(),
                        p95_ns: pcts[1].as_nanos(),
                        p99_ns: pcts[2].as_nanos(),
                        max_ns: h.max().as_nanos(),
                    },
                )
            })
            .collect();
        let series = self
            .series
            .lock()
            .iter()
            .map(|(k, s)| {
                (
                    k.clone(),
                    SeriesSummary {
                        bucket_ns: s.bucket_width().as_nanos(),
                        sums: s.sums(),
                    },
                )
            })
            .collect();
        let spans = {
            let s = self.spans.lock();
            // Only spans that have closed at least once appear, matching the
            // registry's historical "stats exist after first exit" contract.
            let mut pairs: Vec<(String, SpanSummary)> = s
                .names
                .iter()
                .zip(s.stats.iter())
                .filter(|(_, st)| st.count > 0)
                .map(|(n, st)| {
                    (
                        n.to_string(),
                        SpanSummary {
                            count: st.count,
                            total_ns: st.total.as_nanos(),
                            self_ns: st.self_time.as_nanos(),
                        },
                    )
                })
                .collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            pairs
        };
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            series,
            spans,
        }
    }
}

/// Five-number summary of a histogram, in virtual nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub mean_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

/// A time series' bucket sums.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSummary {
    pub bucket_ns: u64,
    pub sums: Vec<f64>,
}

/// Span totals in virtual nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSummary {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Name-ordered snapshot of a [`MetricsRegistry`], ready for serialization.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSummary)>,
    pub series: Vec<(String, SeriesSummary)>,
    pub spans: Vec<(String, SpanSummary)>,
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.series.is_empty()
            && self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = MetricsRegistry::new();
        r.counter("fabric.read.bytes").add(4096);
        r.counter("fabric.read.bytes").incr();
        r.gauge("bpext.hit_ratio").set(0.75);
        assert_eq!(r.counter("fabric.read.bytes").get(), 4097);
        assert_eq!(r.gauge("bpext.hit_ratio").get(), 0.75);
    }

    #[test]
    #[should_panic(expected = "metric name collision")]
    fn name_collision_across_kinds_panics() {
        let r = MetricsRegistry::new();
        r.counter("fabric.bytes").incr();
        let _ = r.gauge("fabric.bytes");
    }

    #[test]
    fn snapshot_is_name_ordered_and_deterministic() {
        let build = || {
            let r = MetricsRegistry::new();
            r.counter("z.last").add(3);
            r.counter("a.first").add(1);
            r.histogram("m.lat").record(SimDuration::from_micros(10));
            r.histogram("m.lat").record(SimDuration::from_micros(30));
            r.gauge("g").set(1.5);
            let t = r.span_enter("outer", SimTime(0));
            r.span_exit(t, SimTime(500));
            r.snapshot()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "identical runs must snapshot identically");
        assert_eq!(
            a.counters
                .iter()
                .map(|(k, _)| k.as_str())
                .collect::<Vec<_>>(),
            vec!["a.first", "z.last"]
        );
        assert_eq!(a.histograms[0].1.count, 2);
        assert_eq!(a.histograms[0].1.mean_ns, 20_000);
    }

    #[test]
    fn spans_nest_and_attribute_self_time() {
        let r = MetricsRegistry::new();
        let outer = r.span_enter("rfile.read", SimTime(0));
        let inner = r.span_enter("net.read", SimTime(100));
        r.span_exit(inner, SimTime(700));
        r.span_exit(outer, SimTime(1000));
        let o = r.span_stats("rfile.read");
        let i = r.span_stats("net.read");
        assert_eq!(o.count, 1);
        assert_eq!(o.total, SimDuration(1000));
        assert_eq!(
            o.self_time,
            SimDuration(400),
            "1000 total - 600 in net.read"
        );
        assert_eq!(i.total, SimDuration(600));
        assert_eq!(i.self_time, SimDuration(600));
    }

    #[test]
    #[should_panic(expected = "span_exit out of order")]
    fn out_of_order_span_exit_panics() {
        let r = MetricsRegistry::new();
        let a = r.span_enter("a", SimTime(0));
        let _b = r.span_enter("b", SimTime(1));
        r.span_exit(a, SimTime(2));
    }
}
