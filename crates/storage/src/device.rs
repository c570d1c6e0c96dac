//! The device abstraction every storage tier implements.

use remem_sim::Clock;

use crate::error::StorageError;

/// A block device with virtual-time costs and real byte storage.
///
/// Implemented by [`crate::HddArray`], [`crate::Ssd`], [`crate::RamDisk`]
/// and — the paper's contribution — the remote-memory file shim in
/// `remem-rfile`. The database engine is written against this trait, so
/// swapping local disks for remote memory is a configuration change, which
/// mirrors how little of SQL Server the authors had to touch.
///
/// Implement it only for a device that owns its bytes. To watch another
/// device's I/O, wrap it in [`crate::Observed`] with an
/// [`crate::IoObserver`]: the defaulted methods below are right for a leaf
/// and wrong for a wrapper, and `Observed` is the one place that forwards
/// all of them.
pub trait Device: Send + Sync {
    /// Read `buf.len()` bytes at `offset`, charging the device time to
    /// `clock`.
    fn read(&self, clock: &mut Clock, offset: u64, buf: &mut [u8]) -> Result<(), StorageError>;

    /// Write `data` at `offset`, charging the device time to `clock`.
    fn write(&self, clock: &mut Clock, offset: u64, data: &[u8]) -> Result<(), StorageError>;

    /// Read a batch of `(offset, buf)` requests, returning one result per
    /// request in order.
    ///
    /// The default runs the scalar path serially — local devices (disk
    /// arms, an SSD channel) gain nothing from request fan-out, so their
    /// timing is unchanged. Devices with internal parallelism (the
    /// remote-memory file) override this with a pipelined implementation;
    /// either way the bytes delivered are identical to the equivalent
    /// scalar sequence. A failed request leaves its buffer unspecified and
    /// does not stop later requests.
    fn read_vectored(
        &self,
        clock: &mut Clock,
        reqs: &mut [(u64, &mut [u8])],
    ) -> Vec<Result<(), StorageError>> {
        reqs.iter_mut()
            .map(|(offset, buf)| self.read(clock, *offset, buf))
            .collect()
    }

    /// Write a batch of `(offset, data)` requests, returning one result per
    /// request in order. Same contract as [`Device::read_vectored`].
    fn write_vectored(
        &self,
        clock: &mut Clock,
        reqs: &[(u64, &[u8])],
    ) -> Vec<Result<(), StorageError>> {
        reqs.iter()
            .map(|(offset, data)| self.write(clock, *offset, data))
            .collect()
    }

    /// Durability barrier: everything previously acknowledged by
    /// [`Device::write`] must be on stable media before this returns.
    ///
    /// Devices whose writes are already durable on acknowledge (RAM disk,
    /// the replicated remote file — its quorum ack *is* the durability
    /// point) keep the free default. Devices that acknowledge writes from
    /// a volatile or battery-backed cache override this and charge the
    /// flush cost — a commit-group force on the log cannot be absorbed by
    /// a write-back cache the way ordinary data-page writes can.
    fn force(&self, _clock: &mut Clock) -> Result<(), StorageError> {
        Ok(())
    }

    /// Device capacity in bytes.
    fn capacity(&self) -> u64;

    /// Human-readable label for benchmark tables ("HDD(20)", "SSD", ...).
    fn label(&self) -> String;

    /// Take-and-clear the byte ranges this device lost and then repaired
    /// with zeroed storage (a self-healed remote file re-leasing a dead
    /// stripe). Callers holding caches over this device must treat the
    /// returned ranges as invalid. Devices that never lose data keep the
    /// default empty answer.
    fn drain_lost_ranges(&self) -> Vec<(u64, u64)> {
        Vec::new()
    }

    /// Bounds-check helper shared by implementations. A range whose end
    /// overflows `u64` is out of bounds like any other, never a panic or a
    /// wrap back into the device.
    fn check_bounds(&self, offset: u64, len: u64) -> Result<(), StorageError> {
        match offset.checked_add(len) {
            Some(end) if end <= self.capacity() => Ok(()),
            _ => Err(StorageError::OutOfBounds {
                offset,
                len,
                capacity: self.capacity(),
            }),
        }
    }
}

/// Shared backing store: a real byte array behind a lock.
///
/// Kept as a plain `Vec<u8>`; workloads in this reproduction are scaled to
/// hundreds of megabytes, for which eager allocation is simplest and fast.
#[derive(Debug)]
pub(crate) struct Backing {
    data: parking_lot::RwLock<Vec<u8>>,
}

impl Backing {
    pub fn new(capacity: u64) -> Backing {
        Backing {
            data: parking_lot::RwLock::new(vec![0u8; capacity as usize]),
        }
    }

    pub fn read(&self, offset: u64, buf: &mut [u8]) {
        let d = self.data.read();
        let o = offset as usize;
        buf.copy_from_slice(&d[o..o + buf.len()]);
    }

    pub fn write(&self, offset: u64, data: &[u8]) {
        let mut d = self.data.write();
        let o = offset as usize;
        d[o..o + data.len()].copy_from_slice(data);
    }
}
