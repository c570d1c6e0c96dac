//! The one [`Device`] decorator: [`Observed`] forwards every call to the
//! device it wraps and shows each I/O to an [`IoObserver`].
//!
//! Remote memory reaches the engine through the same file interface as a
//! disk, so anything stacked on a [`Device`] must leave the I/O path exactly
//! as it found it. The trait defaults four methods, and each default is
//! right for a leaf device and wrong for a wrapper: the vectored pair replays
//! a batch one request at a time (a pipelined remote file turns serial and
//! virtual time moves), `force` is free (a log commit loses its durability
//! charge) and `drain_lost_ranges` answers empty (a cache keeps serving pages
//! a self-heal zeroed). Forwarding is therefore written once, here; a
//! recorder is an observer and cannot forget a method.

use std::slice;
use std::sync::Arc;

use remem_sim::{Clock, SimTime, SpanToken};

use crate::device::Device;
use crate::error::StorageError;

type IoResult = Result<(), StorageError>;

/// Which way a forwarded call moved data. Scalar and vectored calls share a
/// kind; `capacity`, `label` and `drain_lost_ranges` are not I/O and are
/// forwarded unobserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    Read,
    Write,
    Force,
}

/// One forwarded call, as an [`IoObserver`] sees it once the inner device
/// has returned.
pub struct Io<'a> {
    pub kind: IoKind,
    /// Virtual instant the call was issued.
    pub issued: SimTime,
    /// Virtual instant the inner device returned.
    pub done: SimTime,
    lens: Lens<'a>,
    results: &'a [IoResult],
}

/// Where a call's request lengths live, so reporting them allocates nothing.
enum Lens<'a> {
    One(usize),
    Reads(&'a [(u64, &'a mut [u8])]),
    Writes(&'a [(u64, &'a [u8])]),
}

impl Io<'_> {
    /// Each request's length with its result, in request order. A scalar
    /// call is one request; `force` is one request of length 0.
    pub fn requests(&self) -> impl Iterator<Item = (usize, &IoResult)> + '_ {
        self.results.iter().enumerate().map(|(i, res)| {
            let len = match self.lens {
                Lens::One(len) => len,
                Lens::Reads(reqs) => reqs.get(i).map_or(0, |(_, buf)| buf.len()),
                Lens::Writes(reqs) => reqs.get(i).map_or(0, |(_, data)| data.len()),
            };
            (len, res)
        })
    }
}

/// Sees every I/O call an [`Observed`] device forwards. Observing never
/// charges a clock: both hooks get instants, not the clock.
pub trait IoObserver: Send + Sync {
    /// Called at the issue instant, before the inner call. A registry span
    /// opened here parents the spans the inner device opens (`rfile.*`,
    /// `net.*`); it comes back to [`IoObserver::after`] to be closed.
    fn before(&self, _kind: IoKind, _at: SimTime) -> Option<SpanToken> {
        None
    }

    /// Called once the inner call has returned, with the span `before`
    /// opened.
    fn after(&self, span: Option<SpanToken>, io: &Io<'_>);
}

/// A device that forwards every [`Device`] method to `inner`, one inner
/// call per outer call, and reports each I/O to its observer.
pub struct Observed<O> {
    inner: Arc<dyn Device>,
    observer: O,
}

impl<O: IoObserver> Observed<O> {
    pub fn new(inner: Arc<dyn Device>, observer: O) -> Observed<O> {
        Observed { inner, observer }
    }

    pub fn observer(&self) -> &O {
        &self.observer
    }

    fn issue(&self, kind: IoKind, at: SimTime) -> Issued {
        let span = self.observer.before(kind, at);
        Issued { kind, at, span }
    }

    fn complete(&self, call: Issued, done: SimTime, lens: Lens<'_>, results: &[IoResult]) {
        let io = Io {
            kind: call.kind,
            issued: call.at,
            done,
            lens,
            results,
        };
        self.observer.after(call.span, &io);
    }
}

/// A call in flight: its kind, issue instant and the span `before` opened.
struct Issued {
    kind: IoKind,
    at: SimTime,
    span: Option<SpanToken>,
}

impl<O: IoObserver> Device for Observed<O> {
    fn read(&self, clock: &mut Clock, offset: u64, buf: &mut [u8]) -> IoResult {
        let call = self.issue(IoKind::Read, clock.now());
        let res = self.inner.read(clock, offset, buf);
        let lens = Lens::One(buf.len());
        self.complete(call, clock.now(), lens, slice::from_ref(&res));
        res
    }

    fn write(&self, clock: &mut Clock, offset: u64, data: &[u8]) -> IoResult {
        let call = self.issue(IoKind::Write, clock.now());
        let res = self.inner.write(clock, offset, data);
        let lens = Lens::One(data.len());
        self.complete(call, clock.now(), lens, slice::from_ref(&res));
        res
    }

    fn read_vectored(&self, clock: &mut Clock, reqs: &mut [(u64, &mut [u8])]) -> Vec<IoResult> {
        let call = self.issue(IoKind::Read, clock.now());
        let results = self.inner.read_vectored(clock, reqs);
        self.complete(call, clock.now(), Lens::Reads(reqs), &results);
        results
    }

    fn write_vectored(&self, clock: &mut Clock, reqs: &[(u64, &[u8])]) -> Vec<IoResult> {
        let call = self.issue(IoKind::Write, clock.now());
        let results = self.inner.write_vectored(clock, reqs);
        self.complete(call, clock.now(), Lens::Writes(reqs), &results);
        results
    }

    fn force(&self, clock: &mut Clock) -> IoResult {
        let call = self.issue(IoKind::Force, clock.now());
        let res = self.inner.force(clock);
        self.complete(call, clock.now(), Lens::One(0), slice::from_ref(&res));
        res
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn drain_lost_ranges(&self) -> Vec<(u64, u64)> {
        self.inner.drain_lost_ranges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use remem_sim::SimDuration;

    const STEP: SimDuration = SimDuration::from_micros(10);

    /// Logs which inner method each outer call reached. Every I/O call costs
    /// one step, a vectored one whatever its size: the remote file's
    /// pipelining, reduced to what a wrapper can break.
    #[derive(Default)]
    struct CallLog(Mutex<Vec<&'static str>>);

    impl CallLog {
        fn io(&self, clock: &mut Clock, method: &'static str) -> IoResult {
            clock.advance(STEP);
            self.0.lock().push(method);
            Ok(())
        }
    }

    impl Device for CallLog {
        fn read(&self, clock: &mut Clock, _: u64, _: &mut [u8]) -> IoResult {
            self.io(clock, "read")
        }

        fn write(&self, clock: &mut Clock, _: u64, _: &[u8]) -> IoResult {
            self.io(clock, "write")
        }

        fn read_vectored(&self, clock: &mut Clock, reqs: &mut [(u64, &mut [u8])]) -> Vec<IoResult> {
            vec![self.io(clock, "read_vectored"); reqs.len()]
        }

        // the second request fails, so results must pair with their lengths
        fn write_vectored(&self, clock: &mut Clock, reqs: &[(u64, &[u8])]) -> Vec<IoResult> {
            let mut results = vec![self.io(clock, "write_vectored"); reqs.len()];
            results[1] = Err(StorageError::Unavailable("second request".into()));
            results
        }

        fn force(&self, clock: &mut Clock) -> IoResult {
            self.io(clock, "force")
        }

        fn capacity(&self) -> u64 {
            self.0.lock().push("capacity");
            1 << 20
        }

        fn label(&self) -> String {
            self.0.lock().push("label");
            "CallLog".into()
        }

        fn drain_lost_ranges(&self) -> Vec<(u64, u64)> {
            self.0.lock().push("drain_lost_ranges");
            vec![(0, 8192)]
        }
    }

    /// One call as `(kind, issued, done, (length, ok) per request)`.
    type Call = (IoKind, SimTime, SimTime, Vec<(usize, bool)>);

    /// Keeps every call it is shown.
    #[derive(Default)]
    struct Seen(Mutex<Vec<Call>>);

    impl IoObserver for Seen {
        fn after(&self, _: Option<SpanToken>, io: &Io<'_>) {
            let reqs = io.requests().map(|(len, r)| (len, r.is_ok())).collect();
            self.0.lock().push((io.kind, io.issued, io.done, reqs));
        }
    }

    #[test]
    fn forwards_every_device_method_once() {
        let inner = Arc::new(CallLog::default());
        let dev = Observed::new(Arc::clone(&inner) as Arc<dyn Device>, Seen::default());
        let mut clock = Clock::new();
        let (mut a, mut b) = ([0u8; 64], [0u8; 128]);
        dev.read(&mut clock, 0, &mut a).unwrap();
        dev.write(&mut clock, 0, &a).unwrap();
        dev.read_vectored(&mut clock, &mut [(0, &mut a[..]), (64, &mut b[..])]);
        dev.write_vectored(&mut clock, &[(0, &a[..]), (64, &b[..])]);
        dev.force(&mut clock).unwrap();
        assert_eq!(dev.capacity(), 1 << 20);
        assert_eq!(dev.label(), "CallLog");
        assert_eq!(dev.drain_lost_ranges(), [(0, 8192)]);

        // one inner call each: a vectored call does not decay into scalar
        // ones, and `force` / `drain_lost_ranges` reach the inner device
        // instead of the trait's free defaults
        assert_eq!(
            *inner.0.lock(),
            [
                "read",
                "write",
                "read_vectored",
                "write_vectored",
                "force",
                "capacity",
                "label",
                "drain_lost_ranges"
            ]
        );
        // so the wrapper charges what the bare device does, a step per call
        assert_eq!(clock.now(), SimTime::ZERO + STEP * 5);

        // the observer saw the five I/O calls with their instants, and
        // each request's length and result
        let at = |steps: u64| SimTime::ZERO + STEP * steps;
        assert_eq!(
            *dev.observer().0.lock(),
            [
                (IoKind::Read, at(0), at(1), vec![(64, true)]),
                (IoKind::Write, at(1), at(2), vec![(64, true)]),
                (IoKind::Read, at(2), at(3), vec![(64, true), (128, true)]),
                (IoKind::Write, at(3), at(4), vec![(64, true), (128, false)]),
                (IoKind::Force, at(4), at(5), vec![(0, true)]),
            ]
        );
    }
}
