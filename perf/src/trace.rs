//! Span tracing on both clocks, kept in the benchmark's own files.
//!
//! A span is opened at each layer boundary the harness can see: around one
//! operation (`op.*`, `tpcc.*`), around each public `Database` / `RemoteFile`
//! call the harness makes (`engine.*`, `rfile.*`), and — through
//! [`crate::timed_device::TimedDevice`] — around every device call the engine
//! makes (`storage.<role>.<verb>`). Spans nest LIFO because one operation
//! runs to completion on its logical client before the next starts.
//!
//! A span's *self* time is its duration minus the part its child spans
//! cover, so the self times of one operation sum to the operation's time by
//! construction, on the simulated clock and on the host clock alike.
//!
//! The engine runs some device calls on a clock forked from the operation's
//! (the buffer pool's lazy writer): the device is busy, the operation does
//! not wait. A span whose [`Clock`] is not its parent's is *detached*: on the
//! simulated clock it covers none of its parent, and its own self time (and
//! that of anything below it) is kept apart as `sim_detached_ns`. On the
//! host clock nothing is ever detached — the benchmark is one thread.
//!
//! Per-name totals are kept for every operation; full span records only for
//! every [`SAMPLE_EVERY`]th operation, in a buffer allocated up front, and
//! written out after the timed phase.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use remem_sim::Clock;

/// Full span records are kept for every this-many-th operation.
pub const SAMPLE_EVERY: u64 = 1000;
/// Capacity of the span-record buffer; records past it are counted, not kept.
const RECORD_CAPACITY: usize = 1 << 17;

/// Interned span name, resolved once at set-up so the per-span enter does
/// no string work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Name(u32);

/// Per-name totals over every operation of the traced phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub sim_total_ns: u64,
    /// Self time on the operation's own clock; sums to the operations' time.
    pub sim_self_ns: u64,
    /// Self time on a clock forked off the operation's (background work).
    pub sim_detached_ns: u64,
    pub host_total_ns: u64,
    pub host_self_ns: u64,
}

struct Open {
    name: Name,
    id: u32,
    /// Which `Clock` the span runs on (its address: the operation's clock
    /// outlives the operation, a forked one is a different object).
    clock: usize,
    /// This span or one above it runs on a forked clock.
    detached: bool,
    sim_start: u64,
    host_start: u64,
    child_sim: u64,
    child_host: u64,
}

struct Record {
    id: u32,
    parent: Option<u32>,
    op: u64,
    name: Name,
    detached: bool,
    sim_start: u64,
    sim_end: u64,
    host_start: u64,
    host_end: u64,
}

struct State {
    epoch: Instant,
    names: Vec<String>,
    totals: Vec<Totals>,
    stack: Vec<Open>,
    records: Vec<Record>,
    dropped_records: u64,
    ops: u64,
    sampling: bool,
    next_id: u32,
}

/// The span recorder. Disabled (every call a single relaxed load) until
/// [`Tracer::set_enabled`], so the untraced pass and the set-up phase of the
/// traced pass record nothing.
pub struct Tracer {
    enabled: AtomicBool,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            state: Mutex::new(State {
                epoch: Instant::now(),
                names: Vec::new(),
                totals: Vec::new(),
                stack: Vec::with_capacity(16),
                records: Vec::new(),
                dropped_records: 0,
                ops: 0,
                sampling: false,
                next_id: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer mutex poisoned: a span panicked")
    }

    /// Resolve `name`, registering it on first use.
    pub fn name(&self, name: &str) -> Name {
        let mut s = self.lock();
        if let Some(i) = s.names.iter().position(|n| n == name) {
            return Name(i as u32);
        }
        s.names.push(name.to_string());
        s.totals.push(Totals::default());
        Name((s.names.len() - 1) as u32)
    }

    /// Switch recording on or off. Only between operations: no span may be
    /// open.
    pub fn set_enabled(&self, on: bool) {
        let mut s = self.lock();
        assert!(s.stack.is_empty(), "toggle only between ops");
        if on {
            // the record buffer is allocated here, up front, and only by a
            // tracer that is used
            s.records.reserve_exact(RECORD_CAPACITY);
        }
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Open a span at `clock`'s instant. A span opened on an empty stack is
    /// the root of a new operation.
    pub fn enter(&self, name: Name, clock: &Clock) {
        if !self.enabled() {
            return;
        }
        let clock_id = clock as *const Clock as usize;
        let mut s = self.lock();
        if s.stack.is_empty() {
            s.sampling = s.ops.is_multiple_of(SAMPLE_EVERY);
            s.ops += 1;
        }
        let detached = s
            .stack
            .last()
            .is_some_and(|p| p.detached || p.clock != clock_id);
        let id = s.next_id;
        s.next_id = s.next_id.wrapping_add(1);
        let host_start = s.epoch.elapsed().as_nanos() as u64;
        s.stack.push(Open {
            name,
            id,
            clock: clock_id,
            detached,
            sim_start: clock.now().as_nanos(),
            host_start,
            child_sim: 0,
            child_host: 0,
        });
    }

    /// Close the innermost open span at `clock`'s instant (the clock it was
    /// opened on).
    pub fn exit(&self, clock: &Clock) {
        if !self.enabled() {
            return;
        }
        let sim = clock.now();
        let mut s = self.lock();
        let host_end = s.epoch.elapsed().as_nanos() as u64;
        let open = s.stack.pop().expect("exit without a matching enter");
        let sim_total = sim.as_nanos() - open.sim_start;
        let host_total = host_end - open.host_start;
        let parent = s.stack.last_mut().map(|p| {
            if p.clock == open.clock {
                p.child_sim += sim_total;
            }
            p.child_host += host_total;
            p.id
        });
        let t = &mut s.totals[open.name.0 as usize];
        t.count += 1;
        t.sim_total_ns += sim_total;
        if open.detached {
            t.sim_detached_ns += sim_total - open.child_sim;
        } else {
            t.sim_self_ns += sim_total - open.child_sim;
        }
        t.host_total_ns += host_total;
        t.host_self_ns += host_total.saturating_sub(open.child_host);
        if s.sampling {
            if s.records.len() < RECORD_CAPACITY {
                let op = s.ops - 1;
                s.records.push(Record {
                    id: open.id,
                    parent,
                    op,
                    name: open.name,
                    detached: open.detached,
                    sim_start: open.sim_start,
                    sim_end: sim.as_nanos(),
                    host_start: open.host_start,
                    host_end,
                });
            } else {
                s.dropped_records += 1;
            }
        }
    }

    /// Run `f` under the span `name`.
    pub fn span<R>(&self, name: Name, clock: &mut Clock, f: impl FnOnce(&mut Clock) -> R) -> R {
        self.enter(name, clock);
        let r = f(clock);
        self.exit(clock);
        r
    }

    /// Totals of one span name (zero if it never closed).
    pub fn totals(&self, name: &str) -> Totals {
        let s = self.lock();
        s.names
            .iter()
            .position(|n| n == name)
            .map(|i| s.totals[i])
            .unwrap_or_default()
    }

    /// `(name, totals)` of every span that closed at least once, by name.
    pub fn all_totals(&self) -> Vec<(String, Totals)> {
        let s = self.lock();
        let mut v: Vec<(String, Totals)> = s
            .names
            .iter()
            .cloned()
            .zip(s.totals.iter().copied())
            .filter(|(_, t)| t.count > 0)
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Serialise totals and sampled span records as one JSON document.
    /// `header` is a list of already-encoded `"key": value` members placed
    /// first (workload, seed, phase totals).
    pub fn to_json(&self, header: &[String]) -> String {
        let s = self.lock();
        let mut out = String::with_capacity(256 + s.records.len() * 96);
        out.push_str("{\n");
        for h in header {
            let _ = writeln!(out, "  {h},");
        }
        let _ = writeln!(out, "  \"ops\": {},", s.ops);
        let _ = writeln!(out, "  \"sample_every\": {SAMPLE_EVERY},");
        let _ = writeln!(out, "  \"dropped_records\": {},", s.dropped_records);
        out.push_str("  \"totals\": {\n");
        let mut order: Vec<usize> = (0..s.names.len())
            .filter(|&i| s.totals[i].count > 0)
            .collect();
        order.sort_by(|&a, &b| s.names[a].cmp(&s.names[b]));
        for (k, &i) in order.iter().enumerate() {
            let t = &s.totals[i];
            let _ = write!(
                out,
                "    \"{}\": {{\"count\": {}, \"sim_total_ns\": {}, \"sim_self_ns\": {}, \"sim_detached_ns\": {}, \"host_total_ns\": {}, \"host_self_ns\": {}}}",
                s.names[i],
                t.count,
                t.sim_total_ns,
                t.sim_self_ns,
                t.sim_detached_ns,
                t.host_total_ns,
                t.host_self_ns
            );
            out.push_str(if k + 1 < order.len() { ",\n" } else { "\n" });
        }
        out.push_str("  },\n  \"spans\": [\n");
        for (k, r) in s.records.iter().enumerate() {
            let parent = match r.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "    {{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"detached\": {}, \"sim_start_ns\": {}, \"sim_end_ns\": {}, \"host_start_ns\": {}, \"host_end_ns\": {}}}",
                r.id,
                parent,
                r.op,
                s.names[r.name.0 as usize],
                r.detached,
                r.sim_start,
                r.sim_end,
                r.host_start,
                r.host_end
            );
            out.push_str(if k + 1 < s.records.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remem_sim::SimDuration;

    #[test]
    fn self_times_sum_to_the_op_time_on_both_clocks() {
        let tr = Tracer::new();
        let (op, a, b) = (tr.name("op.q"), tr.name("engine.a"), tr.name("storage.b"));
        tr.set_enabled(true);
        let mut clock = Clock::new();
        for _ in 0..3 {
            tr.span(op, &mut clock, |c| {
                c.advance(SimDuration::from_nanos(5));
                tr.span(a, c, |c| {
                    c.advance(SimDuration::from_nanos(7));
                    tr.span(b, c, |c| c.advance(SimDuration::from_nanos(11)));
                    tr.span(b, c, |c| c.advance(SimDuration::from_nanos(13)));
                });
            });
        }
        let (o, ta, tb) = (
            tr.totals("op.q"),
            tr.totals("engine.a"),
            tr.totals("storage.b"),
        );
        assert_eq!((o.count, ta.count, tb.count), (3, 3, 6));
        assert_eq!(o.sim_total_ns, 3 * 36);
        assert_eq!(
            (o.sim_self_ns, ta.sim_self_ns, tb.sim_self_ns),
            (15, 21, 72)
        );
        assert_eq!(
            o.sim_self_ns + ta.sim_self_ns + tb.sim_self_ns,
            o.sim_total_ns
        );
        assert_eq!(
            o.host_self_ns + ta.host_self_ns + tb.host_self_ns,
            o.host_total_ns
        );
    }

    #[test]
    fn a_span_on_a_forked_clock_covers_none_of_its_parent() {
        let tr = Tracer::new();
        let (op, dev) = (tr.name("op.q"), tr.name("storage.data.write"));
        tr.set_enabled(true);
        let mut clock = Clock::new();
        tr.span(op, &mut clock, |c| {
            c.advance(SimDuration::from_nanos(10));
            // the lazy writer: device time passes, the operation does not wait
            let mut lazy = Clock::starting_at(c.now());
            tr.span(dev, &mut lazy, |l| {
                l.advance(SimDuration::from_nanos(1_000))
            });
            tr.span(dev, c, |c| c.advance(SimDuration::from_nanos(5)));
        });
        let (o, d) = (tr.totals("op.q"), tr.totals("storage.data.write"));
        assert_eq!((o.sim_total_ns, o.sim_self_ns), (15, 10));
        assert_eq!(
            (d.sim_total_ns, d.sim_self_ns, d.sim_detached_ns),
            (1_005, 5, 1_000)
        );
        assert_eq!(o.sim_self_ns + d.sim_self_ns, o.sim_total_ns);
        assert_eq!(o.host_self_ns + d.host_self_ns, o.host_total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_samples_every_nth_op() {
        let tr = Tracer::new();
        let op = tr.name("op.q");
        let mut clock = Clock::new();
        tr.span(op, &mut clock, |c| c.advance(SimDuration::from_nanos(1)));
        assert_eq!(tr.totals("op.q").count, 0);
        tr.set_enabled(true);
        for _ in 0..(2 * SAMPLE_EVERY + 1) {
            tr.span(op, &mut clock, |c| c.advance(SimDuration::from_nanos(1)));
        }
        let json = tr.to_json(&["\"workload\": \"t\"".to_string()]);
        assert_eq!(json.matches("\"id\":").count(), 3, "ops 0, 1000 and 2000");
        assert!(json.contains("\"parent\": null"));
    }
}
