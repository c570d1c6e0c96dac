//! Fault bookkeeping shared by every layer of the chaos framework.
//!
//! The injector (in `remem-net`) *schedules* faults; the file shim, broker
//! and buffer pool *observe* them and *recover* from them. All three record
//! into one [`FaultLog`] so a chaos run can be audited end-to-end: every
//! observed failure correlates with an injected window, and every recovery
//! action (retry, re-lease, migration, re-attach) is visible next to the
//! fault that caused it.
//!
//! Because every timestamp is virtual and every random decision is seeded,
//! two runs with the same fault seed must produce byte-identical logs —
//! [`FaultLog::fingerprint`] makes that assertion one comparison.

use std::collections::BTreeMap;

use parking_lot::Mutex;

use crate::time::SimTime;

/// Which side of the chaos loop produced an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultOrigin {
    /// Scheduled by the fault injector (the ground truth).
    Injected,
    /// A component hit the fault (failed verb, lost lease, dead stripe).
    Observed,
    /// A component healed (retry succeeded, stripe re-leased, ext re-attached).
    Recovery,
}

impl FaultOrigin {
    pub fn label(self) -> &'static str {
        match self {
            FaultOrigin::Injected => "inject",
            FaultOrigin::Observed => "observe",
            FaultOrigin::Recovery => "recover",
        }
    }
}

/// One entry in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    pub at: SimTime,
    pub origin: FaultOrigin,
    /// Stable machine-readable kind ("net.flaky", "rfile.retry", ...).
    pub kind: &'static str,
    pub detail: String,
}

/// Append-only, internally synchronized fault journal.
///
/// Keeps the first [`FaultLog::capacity`] events verbatim plus an unbounded
/// per-kind count, so hot windows (thousands of flaky verbs) stay cheap
/// while the determinism fingerprint still covers everything.
#[derive(Debug)]
pub struct FaultLog {
    state: Mutex<LogState>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct LogState {
    events: Vec<FaultEvent>,
    counts: BTreeMap<(&'static str, FaultOrigin), u64>,
}

impl Default for FaultLog {
    fn default() -> FaultLog {
        FaultLog::new()
    }
}

impl FaultLog {
    pub fn new() -> FaultLog {
        FaultLog::with_capacity(10_000)
    }

    pub fn with_capacity(capacity: usize) -> FaultLog {
        FaultLog {
            state: Mutex::new(LogState::default()),
            capacity,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn record(
        &self,
        at: SimTime,
        origin: FaultOrigin,
        kind: &'static str,
        detail: impl Into<String>,
    ) {
        let mut s = self.state.lock();
        *s.counts.entry((kind, origin)).or_insert(0) += 1;
        if s.events.len() < self.capacity {
            s.events.push(FaultEvent {
                at,
                origin,
                kind,
                detail: detail.into(),
            });
        }
    }

    /// Snapshot of the retained events, in record order.
    pub fn events(&self) -> Vec<FaultEvent> {
        let s = self.state.lock();
        s.events.clone()
    }

    /// Total events of `kind` with `origin`, including any past the cap.
    pub fn count(&self, kind: &'static str, origin: FaultOrigin) -> u64 {
        let s = self.state.lock();
        s.counts.get(&(kind, origin)).copied().unwrap_or(0)
    }

    /// Total events of `kind` across every origin, including any past the
    /// cap. Useful for kinds recorded under more than one origin (e.g.
    /// `wal.failover` is Recovery during an append but Observed during
    /// replay).
    pub fn count_kind(&self, kind: &str) -> u64 {
        let s = self.state.lock();
        s.counts
            .iter()
            .filter(|((k, _), _)| *k == kind)
            .map(|(_, n)| *n)
            .sum()
    }

    /// Total events recorded with `origin`, across all kinds.
    #[cfg(test)]
    pub(crate) fn count_origin(&self, origin: FaultOrigin) -> u64 {
        let s = self.state.lock();
        s.counts
            .iter()
            .filter(|((_, o), _)| *o == origin)
            .map(|(_, n)| *n)
            .sum()
    }

    /// FNV-1a over every retained event plus every count — equal across two
    /// runs iff the runs produced the same faults in the same virtual order.
    pub fn fingerprint(&self) -> u64 {
        let s = self.state.lock();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for e in s.events.iter() {
            eat(&e.at.0.to_le_bytes());
            eat(e.origin.label().as_bytes());
            eat(e.kind.as_bytes());
            eat(e.detail.as_bytes());
        }
        for ((kind, origin), n) in s.counts.iter() {
            eat(kind.as_bytes());
            eat(origin.label().as_bytes());
            eat(&n.to_le_bytes());
        }
        h
    }

    /// Human-readable per-kind totals, one line per `(kind, origin)`.
    pub fn summary(&self) -> String {
        let s = self.state.lock();
        let mut out = String::new();
        for ((kind, origin), n) in s.counts.iter() {
            out.push_str(&format!("{:<8} {:<24} {n}\n", origin.label(), kind));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let log = FaultLog::new();
        log.record(SimTime(10), FaultOrigin::Injected, "net.flaky", "M1 window");
        log.record(
            SimTime(20),
            FaultOrigin::Observed,
            "net.flaky",
            "read failed",
        );
        log.record(
            SimTime(30),
            FaultOrigin::Observed,
            "net.flaky",
            "read failed",
        );
        log.record(
            SimTime(40),
            FaultOrigin::Recovery,
            "rfile.retry",
            "attempt 1 ok",
        );
        assert_eq!(log.events().len(), 4);
        assert_eq!(log.count("net.flaky", FaultOrigin::Observed), 2);
        assert_eq!(log.count("net.flaky", FaultOrigin::Injected), 1);
        assert_eq!(log.count_origin(FaultOrigin::Observed), 2);
        assert!(log.summary().contains("rfile.retry"));
    }

    #[test]
    fn capacity_caps_events_not_counts() {
        let log = FaultLog::with_capacity(2);
        for i in 0..5 {
            log.record(SimTime(i), FaultOrigin::Observed, "x", "");
        }
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.count("x", FaultOrigin::Observed), 5);
    }

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let a = FaultLog::new();
        let b = FaultLog::new();
        for log in [&a, &b] {
            log.record(SimTime(1), FaultOrigin::Injected, "k", "d");
            log.record(SimTime(2), FaultOrigin::Observed, "k", "e");
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.record(SimTime(3), FaultOrigin::Recovery, "k", "f");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
