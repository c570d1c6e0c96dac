//! A [`Device`] decorator that opens a `storage.<role>.<verb>` span, on both
//! clocks, around every call the engine makes into a device role.
//!
//! Unlike the repository's `MeteredDevice` and `InstrumentedDevice`, it
//! forwards *every* trait method. Those two fall back to the trait's default
//! `read_vectored` / `write_vectored`, which loop over the scalar calls, so a
//! database built with `DbConfig.metrics` set serialises TempDB's vectored
//! spill and its simulated time drifts (`storage.metered.sim_drift_ppm`).
//! Wrapping with this type must leave bytes and simulated time untouched.

use std::sync::Arc;

use remem_sim::Clock;
use remem_storage::{Device, StorageError};

use crate::trace::{Name, Tracer};

/// The device roles of a `DeviceSet`.
pub const ROLES: [&str; 4] = ["data", "log", "tempdb", "bpext"];
/// The device verbs a span is opened for.
pub const VERBS: [&str; 5] = ["read", "write", "read_vectored", "write_vectored", "force"];

pub struct TimedDevice {
    inner: Arc<dyn Device>,
    tracer: Arc<Tracer>,
    read: Name,
    write: Name,
    read_vectored: Name,
    write_vectored: Name,
    force: Name,
}

impl TimedDevice {
    /// Wrap `inner` as the device of `role` (one of [`ROLES`]).
    pub fn wrap(inner: Arc<dyn Device>, tracer: &Arc<Tracer>, role: &str) -> Arc<dyn Device> {
        let name = |verb: &str| tracer.name(&format!("storage.{role}.{verb}"));
        Arc::new(TimedDevice {
            read: name("read"),
            write: name("write"),
            read_vectored: name("read_vectored"),
            write_vectored: name("write_vectored"),
            force: name("force"),
            inner,
            tracer: Arc::clone(tracer),
        })
    }
}

impl Device for TimedDevice {
    fn read(&self, clock: &mut Clock, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        self.tracer
            .span(self.read, clock, |c| self.inner.read(c, offset, buf))
    }

    fn write(&self, clock: &mut Clock, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        self.tracer
            .span(self.write, clock, |c| self.inner.write(c, offset, data))
    }

    fn read_vectored(
        &self,
        clock: &mut Clock,
        reqs: &mut [(u64, &mut [u8])],
    ) -> Vec<Result<(), StorageError>> {
        self.tracer.span(self.read_vectored, clock, |c| {
            self.inner.read_vectored(c, reqs)
        })
    }

    fn write_vectored(
        &self,
        clock: &mut Clock,
        reqs: &[(u64, &[u8])],
    ) -> Vec<Result<(), StorageError>> {
        self.tracer.span(self.write_vectored, clock, |c| {
            self.inner.write_vectored(c, reqs)
        })
    }

    fn force(&self, clock: &mut Clock) -> Result<(), StorageError> {
        self.tracer.span(self.force, clock, |c| self.inner.force(c))
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
    use remem::{Cluster, RFileConfig};
    use remem_storage::{HddArray, HddConfig};

    const PAGE: usize = 8192;

    /// Drive every `Device` method; return what was read and the clock.
    fn drive(dev: &dyn Device) -> (Vec<u8>, u64, Vec<(u64, u64)>) {
        let mut clock = Clock::new();
        let mut seen = Vec::new();
        let page = |b: u8| vec![b; PAGE];
        dev.write(&mut clock, 0, &page(1)).unwrap();
        let (p2, p3, p4) = (page(2), page(3), page(4));
        let writes: Vec<(u64, &[u8])> = vec![
            (PAGE as u64, &p2),
            (40 * PAGE as u64, &p3),
            (200 * PAGE as u64, &p4),
        ];
        for r in dev.write_vectored(&mut clock, &writes) {
            r.unwrap();
        }
        dev.force(&mut clock).unwrap();
        let mut one = page(0);
        dev.read(&mut clock, 0, &mut one).unwrap();
        seen.extend_from_slice(&one);
        let mut bufs = vec![page(0), page(0), page(0)];
        let mut reqs: Vec<(u64, &mut [u8])> = bufs
            .iter_mut()
            .zip([200u64, 1, 40])
            .map(|(b, p)| (p * PAGE as u64, b.as_mut_slice()))
            .collect();
        for r in dev.read_vectored(&mut clock, &mut reqs) {
            r.unwrap();
        }
        for b in &bufs {
            seen.extend_from_slice(b);
        }
        assert!(dev.check_bounds(dev.capacity(), 1).is_err());
        (seen, clock.now().as_nanos(), dev.drain_lost_ranges())
    }

    fn remote_file() -> Arc<dyn Device> {
        let cluster = Cluster::builder()
            .memory_servers(2)
            .memory_per_server(8 << 20)
            .build();
        let mut clock = Clock::new();
        cluster
            .remote_file(
                &mut clock,
                cluster.db_server,
                4 << 20,
                RFileConfig::custom(),
            )
            .unwrap()
    }

    #[test]
    fn wrapped_remote_file_gives_the_same_bytes_and_simulated_time() {
        let bare = drive(remote_file().as_ref());
        let tracer = Arc::new(Tracer::new());
        let wrapped_dev = TimedDevice::wrap(remote_file(), &tracer, "tempdb");
        tracer.set_enabled(true);
        let wrapped = drive(wrapped_dev.as_ref());
        assert_eq!(bare, wrapped);
        assert_eq!(&bare.0[..PAGE], &[1u8; PAGE][..]);
        assert_eq!(&bare.0[PAGE..2 * PAGE], &[4u8; PAGE][..]);
        for verb in VERBS {
            let t = tracer.totals(&format!("storage.tempdb.{verb}"));
            assert_eq!(t.count, 1, "{verb} must be forwarded under its own span");
        }
        assert_eq!(wrapped_dev.capacity(), 4 << 20);
        assert_eq!(wrapped_dev.label(), remote_file().label());
    }

    #[test]
    fn force_reaches_a_device_that_charges_for_it() {
        let hdd =
            || -> Arc<dyn Device> { Arc::new(HddArray::new(HddConfig::with_spindles(4, 4 << 20))) };
        let bare = drive(hdd().as_ref());
        let tracer = Arc::new(Tracer::new());
        let wrapped = drive(TimedDevice::wrap(hdd(), &tracer, "log").as_ref());
        assert_eq!(bare, wrapped);
    }
}
