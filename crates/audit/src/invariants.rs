//! Runtime invariant auditing.
//!
//! An [`Auditor`] is attached (in debug/test builds, or whenever a test
//! opts in) to the broker, the NICs, and the buffer pool. After every
//! mutation those components hand it a snapshot of their accounting and it
//! cross-checks the conservation laws the paper's lease protocol relies on:
//!
//! * **MR conservation (broker)** — every byte ever donated is exactly one
//!   of: free in a donor pool, granted to an active lease, stranded on a
//!   failed server (degraded lease), or wiped (deregistered / lost with its
//!   server). Nothing appears, nothing leaks.
//! * **Slot conservation (buffer pool)** — extension slots are resident or
//!   free, never both, never lost; base frames and the page map agree.
//! * **Registration conservation (NIC)** — live MR count/bytes equal
//!   registrations minus deregistrations and respect the device limits.
//! * **Clock monotonicity** — per component, observed virtual time never
//!   runs backwards.
//!
//! On violation the auditor either panics with a structured diff (the
//! default, [`Auditor::new`]) or records it for inspection
//! ([`Auditor::recording`], used by the auditor's own tests).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use remem_sim::SimTime;

/// One named quantity inside a conservation equation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub name: &'static str,
    pub value: i128,
}

/// A broken invariant, with enough structure to see *which* term drifted.
#[derive(Debug, Clone)]
pub struct AuditViolation {
    /// Virtual time of the mutation that exposed the drift (ZERO when the
    /// mutating call site has no clock in scope, e.g. `broker.offer`).
    pub at: SimTime,
    pub component: &'static str,
    pub invariant: &'static str,
    /// Left-hand side of the equation (the conserved total).
    pub lhs: Field,
    /// Right-hand side terms; their sum must equal `lhs.value`.
    pub rhs: Vec<Field>,
    /// Free-form context (ids, states) for non-balance checks.
    pub note: String,
}

impl AuditViolation {
    pub(crate) fn delta(&self) -> i128 {
        self.lhs.value - self.rhs.iter().map(|f| f.value).sum::<i128>()
    }
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit[{}] invariant `{}` broken at t={}ns:",
            self.component, self.invariant, self.at.0
        )?;
        if self.rhs.is_empty() {
            write!(f, " {}", self.note)?;
        } else {
            let sum: i128 = self.rhs.iter().map(|x| x.value).sum();
            write!(f, "\n  {} = {}", self.lhs.name, self.lhs.value)?;
            write!(f, "\n  but")?;
            for t in &self.rhs {
                write!(f, " {}={}", t.name, t.value)?;
            }
            write!(f, " sum to {} (delta {:+})", sum, self.delta())?;
            if !self.note.is_empty() {
                write!(f, "\n  note: {}", self.note)?;
            }
        }
        Ok(())
    }
}

/// Cross-checks component accounting after every mutation.
///
/// Cheap when detached: components hold an `Option<Arc<Auditor>>` and skip
/// all snapshotting when it is `None`. All methods take `&self`; the
/// auditor is freely shared across the simulated cluster.
#[derive(Debug)]
pub struct Auditor {
    panic_on_violation: bool,
    checks: AtomicU64,
    violations: Mutex<Vec<AuditViolation>>,
    /// last observed virtual time per component, for monotonicity
    last_seen: Mutex<Vec<(&'static str, SimTime)>>,
}

impl Default for Auditor {
    fn default() -> Self {
        Self::new()
    }
}

impl Auditor {
    /// Panic with a structured diff on the first violation (test default).
    pub fn new() -> Auditor {
        Auditor {
            panic_on_violation: true,
            checks: AtomicU64::new(0),
            violations: Mutex::new(Vec::new()),
            last_seen: Mutex::new(Vec::new()),
        }
    }

    /// Record violations instead of panicking (for asserting on them).
    pub fn recording() -> Auditor {
        Auditor {
            panic_on_violation: false,
            ..Auditor::new()
        }
    }

    /// Number of invariant checks performed so far.
    pub fn checks(&self) -> u64 {
        self.checks.load(Ordering::Relaxed)
    }

    pub fn violation_count(&self) -> usize {
        self.violations.lock().len()
    }

    pub fn violations(&self) -> Vec<AuditViolation> {
        self.violations.lock().clone()
    }

    /// Human-readable digest of everything recorded.
    pub fn report(&self) -> String {
        let v = self.violations.lock();
        if v.is_empty() {
            return format!("audit: {} checks, 0 violations", self.checks());
        }
        let mut s = format!("audit: {} checks, {} violations\n", self.checks(), v.len());
        for viol in v.iter() {
            s.push_str(&viol.to_string());
            s.push('\n');
        }
        s
    }

    fn record(&self, v: AuditViolation) {
        if self.panic_on_violation {
            panic!("{v}");
        }
        self.violations.lock().push(v);
    }

    /// Check a conservation equation: `lhs == Σ rhs`.
    pub fn check_balance(
        &self,
        at: SimTime,
        component: &'static str,
        invariant: &'static str,
        lhs: (&'static str, i128),
        rhs: &[(&'static str, i128)],
    ) {
        self.checks.fetch_add(1, Ordering::Relaxed);
        let sum: i128 = rhs.iter().map(|&(_, v)| v).sum();
        if lhs.1 != sum {
            self.record(AuditViolation {
                at,
                component,
                invariant,
                lhs: Field {
                    name: lhs.0,
                    value: lhs.1,
                },
                rhs: rhs
                    .iter()
                    .map(|&(n, v)| Field { name: n, value: v })
                    .collect(),
                note: String::new(),
            });
        }
    }

    /// Check an arbitrary predicate; `detail` is only rendered on failure.
    pub fn check_that(
        &self,
        at: SimTime,
        component: &'static str,
        invariant: &'static str,
        ok: bool,
        detail: impl FnOnce() -> String,
    ) {
        self.checks.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.record(AuditViolation {
                at,
                component,
                invariant,
                lhs: Field {
                    name: "predicate",
                    value: 0,
                },
                rhs: Vec::new(),
                note: detail(),
            });
        }
    }

    /// Per-component virtual-clock monotonicity.
    pub fn observe_clock(&self, component: &'static str, at: SimTime) {
        self.checks.fetch_add(1, Ordering::Relaxed);
        let mut seen = self.last_seen.lock();
        match seen.iter_mut().find(|(c, _)| *c == component) {
            Some((_, last)) => {
                if at < *last {
                    let prev = *last;
                    drop(seen);
                    self.record(AuditViolation {
                        at,
                        component,
                        invariant: "clock-monotonic",
                        lhs: Field {
                            name: "now",
                            value: at.0 as i128,
                        },
                        rhs: vec![Field {
                            name: "previously-observed",
                            value: prev.0 as i128,
                        }],
                        note: "virtual time ran backwards".to_string(),
                    });
                } else {
                    *last = at;
                }
            }
            None => seen.push((component, at)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_passes_and_counts() {
        let a = Auditor::recording();
        a.check_balance(
            SimTime(5),
            "broker",
            "mr-conservation",
            ("donated", 100),
            &[
                ("available", 60),
                ("leased", 30),
                ("lost", 0),
                ("wiped", 10),
            ],
        );
        assert_eq!(a.violation_count(), 0);
        assert_eq!(a.checks(), 1);
    }

    #[test]
    fn balance_violation_carries_structured_diff() {
        let a = Auditor::recording();
        a.check_balance(
            SimTime(7),
            "broker",
            "mr-conservation",
            ("donated", 100),
            &[("available", 60), ("leased", 30)],
        );
        let v = a.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].delta(), 10);
        let shown = v[0].to_string();
        assert!(shown.contains("mr-conservation"), "{shown}");
        assert!(shown.contains("available=60"), "{shown}");
        assert!(shown.contains("delta +10"), "{shown}");
    }

    #[test]
    #[should_panic(expected = "mr-conservation")]
    fn panicking_mode_panics() {
        let a = Auditor::new();
        a.check_balance(SimTime(1), "broker", "mr-conservation", ("donated", 1), &[]);
    }

    #[test]
    fn clock_monotonicity() {
        let a = Auditor::recording();
        a.observe_clock("bp", SimTime(10));
        a.observe_clock("bp", SimTime(10)); // equal is fine
        a.observe_clock("bp", SimTime(20));
        a.observe_clock("broker", SimTime(5)); // other component, own timeline
        assert_eq!(a.violation_count(), 0);
        a.observe_clock("bp", SimTime(19));
        assert_eq!(a.violation_count(), 1);
        assert_eq!(a.violations()[0].invariant, "clock-monotonic");
    }

    #[test]
    fn check_that_records_detail() {
        let a = Auditor::recording();
        a.check_that(SimTime(3), "nic", "mr-limit", false, || {
            "9 > 8 MRs".to_string()
        });
        assert!(a.report().contains("9 > 8 MRs"));
    }
}
