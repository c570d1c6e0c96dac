//! The registry observer: per-operation device telemetry published into a
//! [`MetricsRegistry`].
//!
//! The engine wraps each device role (data file, buffer-pool extension,
//! TempDB, log) in an [`Observed`](crate::Observed)`<`[`Metered`]`>` when
//! telemetry is attached, so the bench harness can attribute virtual time
//! between the storage tier and the network tier. Metric names are derived
//! from the role prefix: `storage.bpext.read.lat`,
//! `storage.tempdb.write.bytes`, and so on, and each read or write call runs
//! under a `<prefix>.read` / `<prefix>.write` span so nested costs (an
//! rfile-backed device issuing network verbs) show up as child time rather
//! than self time.

use std::sync::Arc;

use remem_sim::{Counter, Histogram, MetricsRegistry, SimTime, SpanId, SpanToken};

use crate::observed::{Io, IoKind, IoObserver};

/// One direction's metrics, resolved once so the per-op span enter is a
/// string-free index.
struct Direction {
    span: SpanId,
    ops: Arc<Counter>,
    bytes: Arc<Counter>,
    errors: Arc<Counter>,
    lat: Arc<Histogram>,
}

impl Direction {
    fn new(registry: &MetricsRegistry, prefix: &str) -> Direction {
        Direction {
            span: registry.span(prefix),
            ops: registry.counter(&format!("{prefix}.ops")),
            bytes: registry.counter(&format!("{prefix}.bytes")),
            errors: registry.counter(&format!("{prefix}.errors")),
            lat: registry.histogram(&format!("{prefix}.lat")),
        }
    }
}

/// Records latency / byte / op / error telemetry under a caller-chosen name
/// prefix. Per call: one span and one latency sample (only if a request
/// succeeded). Per request: one op and its bytes on success, one error on
/// failure. A successful `force` counts `<prefix>.force.ops`.
pub struct Metered {
    registry: Arc<MetricsRegistry>,
    read: Direction,
    write: Direction,
    force_ops: Arc<Counter>,
}

impl Metered {
    /// Publish metrics under `prefix` (e.g. `storage.data`).
    pub fn new(registry: Arc<MetricsRegistry>, prefix: &str) -> Metered {
        Metered {
            read: Direction::new(&registry, &format!("{prefix}.read")),
            write: Direction::new(&registry, &format!("{prefix}.write")),
            force_ops: registry.counter(&format!("{prefix}.force.ops")),
            registry,
        }
    }

    fn direction(&self, kind: IoKind) -> Option<&Direction> {
        match kind {
            IoKind::Read => Some(&self.read),
            IoKind::Write => Some(&self.write),
            IoKind::Force => None,
        }
    }
}

impl IoObserver for Metered {
    fn before(&self, kind: IoKind, at: SimTime) -> Option<SpanToken> {
        let dir = self.direction(kind)?;
        Some(self.registry.span_enter_id(dir.span, at))
    }

    fn after(&self, span: Option<SpanToken>, io: &Io<'_>) {
        if let Some(span) = span {
            self.registry.span_exit(span, io.done);
        }
        let Some(dir) = self.direction(io.kind) else {
            if io.requests().any(|(_, res)| res.is_ok()) {
                self.force_ops.incr();
            }
            return;
        };
        let mut any_ok = false;
        for (len, res) in io.requests() {
            if res.is_ok() {
                dir.ops.incr();
                dir.bytes.add(len as u64);
                any_ok = true;
            } else {
                dir.errors.incr();
            }
        }
        if any_ok {
            dir.lat.record(io.done.since(io.issued));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::error::StorageError;
    use crate::observed::Observed;
    use crate::ramdisk::RamDisk;
    use remem_sim::Clock;

    fn metered(capacity: u64, registry: &Arc<MetricsRegistry>, prefix: &str) -> Observed<Metered> {
        let disk: Arc<dyn Device> = Arc::new(RamDisk::new(capacity));
        Observed::new(disk, Metered::new(Arc::clone(registry), prefix))
    }

    #[test]
    fn records_ops_bytes_latency_and_spans() {
        let registry = MetricsRegistry::shared();
        let dev = metered(1 << 20, &registry, "storage.data");
        let mut clock = Clock::new();
        let data = vec![7u8; 4096];
        dev.write(&mut clock, 0, &data).unwrap();
        let mut out = vec![0u8; 4096];
        dev.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data);
        dev.force(&mut clock).unwrap();

        assert_eq!(registry.counter("storage.data.read.ops").get(), 1);
        assert_eq!(registry.counter("storage.data.write.ops").get(), 1);
        assert_eq!(registry.counter("storage.data.read.bytes").get(), 4096);
        assert_eq!(registry.counter("storage.data.write.bytes").get(), 4096);
        assert_eq!(registry.counter("storage.data.force.ops").get(), 1);
        assert_eq!(registry.histogram("storage.data.read.lat").len(), 1);
        assert_eq!(registry.span_stats("storage.data.read").count, 1);
        assert_eq!(registry.span_stats("storage.data.write").count, 1);
    }

    /// A device whose vectored calls cost one fixed step whatever the batch
    /// size, while its scalar calls cost one step each — the remote file's
    /// pipelining, reduced to what a wrapper can break.
    struct Pipelined(RamDisk);

    const STEP: remem_sim::SimDuration = remem_sim::SimDuration::from_micros(10);

    impl Device for Pipelined {
        fn read(&self, clock: &mut Clock, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
            clock.advance(STEP);
            self.0.read(clock, offset, buf)
        }

        fn write(&self, clock: &mut Clock, offset: u64, data: &[u8]) -> Result<(), StorageError> {
            clock.advance(STEP);
            self.0.write(clock, offset, data)
        }

        fn read_vectored(
            &self,
            clock: &mut Clock,
            reqs: &mut [(u64, &mut [u8])],
        ) -> Vec<Result<(), StorageError>> {
            clock.advance(STEP);
            reqs.iter_mut()
                .map(|(offset, buf)| self.0.read(clock, *offset, buf))
                .collect()
        }

        fn write_vectored(
            &self,
            clock: &mut Clock,
            reqs: &[(u64, &[u8])],
        ) -> Vec<Result<(), StorageError>> {
            clock.advance(STEP);
            reqs.iter()
                .map(|(offset, data)| self.0.write(clock, *offset, data))
                .collect()
        }

        fn capacity(&self) -> u64 {
            self.0.capacity()
        }

        fn label(&self) -> String {
            "Pipelined".into()
        }
    }

    #[test]
    fn vectored_calls_stay_vectored_under_telemetry() {
        let registry = MetricsRegistry::shared();
        let bare = Pipelined(RamDisk::new(1 << 20));
        let dev = Observed::new(
            Arc::new(Pipelined(RamDisk::new(1 << 20))),
            Metered::new(Arc::clone(&registry), "storage.tempdb"),
        );
        let a = vec![1u8; 4096];
        let b = vec![2u8; 8192];
        // the third request runs off the end of the device
        let writes: [(u64, &[u8]); 3] = [(0, &a), (4096, &b), ((1 << 20) - 16, &a)];
        let (mut t_bare, mut t_dev) = (Clock::new(), Clock::new());
        let want = bare.write_vectored(&mut t_bare, &writes);
        assert_eq!(dev.write_vectored(&mut t_dev, &writes), want);
        assert!(want[0].is_ok() && want[1].is_ok() && want[2].is_err());

        let (mut ra, mut rb) = (vec![0u8; 4096], vec![0u8; 8192]);
        let mut reads: [(u64, &mut [u8]); 2] = [(0, &mut ra), (4096, &mut rb)];
        bare.read_vectored(&mut t_bare, &mut reads);
        let (mut ra, mut rb) = (vec![0u8; 4096], vec![0u8; 8192]);
        let mut reads: [(u64, &mut [u8]); 2] = [(0, &mut ra), (4096, &mut rb)];
        assert!(dev
            .read_vectored(&mut t_dev, &mut reads)
            .iter()
            .all(Result::is_ok));
        assert_eq!((&ra, &rb), (&a, &b));

        // same virtual time as the bare device, which the request-by-request
        // default would exceed by a step per extra request
        assert_eq!(t_dev.now(), t_bare.now());
        let mut t_serial = Clock::new();
        for (offset, data) in &writes[..2] {
            bare.write(&mut t_serial, *offset, data).unwrap();
        }
        for (offset, len) in [(0, 4096), (4096, 8192)] {
            bare.read(&mut t_serial, offset, &mut vec![0u8; len])
                .unwrap();
        }
        assert!(t_serial.now() >= t_bare.now() + STEP * 2);
        // requests are counted one by one, the call once
        assert_eq!(registry.counter("storage.tempdb.write.ops").get(), 2);
        assert_eq!(registry.counter("storage.tempdb.write.bytes").get(), 12288);
        assert_eq!(registry.counter("storage.tempdb.write.errors").get(), 1);
        assert_eq!(registry.histogram("storage.tempdb.write.lat").len(), 1);
        assert_eq!(registry.counter("storage.tempdb.read.ops").get(), 2);
        assert_eq!(registry.counter("storage.tempdb.read.bytes").get(), 12288);
        assert_eq!(registry.span_stats("storage.tempdb.write").count, 1);
        assert_eq!(registry.span_stats("storage.tempdb.read").count, 1);
    }

    #[test]
    fn errors_count_without_polluting_latency() {
        let registry = MetricsRegistry::shared();
        let dev = metered(1024, &registry, "storage.log");
        let mut clock = Clock::new();
        let mut buf = vec![0u8; 64];
        assert!(dev.read(&mut clock, 1000, &mut buf).is_err());
        assert_eq!(registry.counter("storage.log.read.errors").get(), 1);
        assert_eq!(registry.counter("storage.log.read.ops").get(), 0);
        assert_eq!(registry.histogram("storage.log.read.lat").len(), 0);
    }

    #[test]
    fn forwards_capacity_and_label() {
        let registry = MetricsRegistry::shared();
        let dev = metered(2048, &registry, "storage.bpext");
        assert_eq!(dev.capacity(), 2048);
        assert_eq!(dev.label(), "RamDisk");
    }
}
