//! RAM disk: memory mounted as a device (ramfs / Windows RamDrive, §4.1.1).

use parking_lot::Mutex;
use remem_sim::{Clock, SimDuration};

use crate::device::{Backing, Device};
use crate::error::StorageError;

/// Local memory exposed through the device interface.
///
/// Used for the "Local Memory" upper bound in Table 5 and as the substrate
/// the off-the-shelf RamDrive designs mount on the memory server. Cost is a
/// memcpy at DRAM bandwidth plus a small fixed access time. A RAM disk can
/// also be [`RamDisk::fail`]ed, modelling the remote server disappearing
/// under the best-effort contract.
pub struct RamDisk {
    capacity: u64,
    /// DRAM copy bandwidth, bytes/sec.
    bandwidth: u64,
    fixed: SimDuration,
    backing: Backing,
    failed: Mutex<bool>,
}

impl RamDisk {
    /// A RAM disk with default DRAM characteristics (~4 GB/s copies, 100 ns
    /// fixed cost per access — §6's "local memory is ~0.1 µs").
    pub fn new(capacity: u64) -> RamDisk {
        RamDisk::with_speeds(capacity, 4_000_000_000, SimDuration::from_nanos(100))
    }

    pub(crate) fn with_speeds(capacity: u64, bandwidth: u64, fixed: SimDuration) -> RamDisk {
        RamDisk {
            capacity,
            bandwidth,
            fixed,
            backing: Backing::new(capacity),
            failed: Mutex::new(false),
        }
    }

    /// Simulate the hosting server failing: contents are lost and accesses
    /// error until [`RamDisk::restore`].
    pub fn fail(&self) {
        *self.failed.lock() = true;
    }

    /// Bring the device back (empty — memory contents did not survive).
    pub fn restore(&self) {
        *self.failed.lock() = false;
        // wipe: a restarted server has fresh memory
        self.backing.write(0, &vec![0u8; self.capacity as usize]);
    }

    fn check_alive(&self) -> Result<(), StorageError> {
        if *self.failed.lock() {
            Err(StorageError::Unavailable("ram disk host failed".into()))
        } else {
            Ok(())
        }
    }
}

impl Device for RamDisk {
    fn read(&self, clock: &mut Clock, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        self.check_alive()?;
        self.check_bounds(offset, buf.len() as u64)?;
        clock.advance(self.fixed + SimDuration::for_transfer(buf.len() as u64, self.bandwidth));
        self.backing.read(offset, buf);
        Ok(())
    }

    fn write(&self, clock: &mut Clock, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        self.check_alive()?;
        self.check_bounds(offset, data.len() as u64)?;
        clock.advance(self.fixed + SimDuration::for_transfer(data.len() as u64, self.bandwidth));
        self.backing.write(offset, data);
        Ok(())
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn label(&self) -> String {
        "RamDisk".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_cost() {
        let d = RamDisk::new(1 << 20);
        let mut clock = Clock::new();
        d.write(&mut clock, 0, &[1, 2, 3]).unwrap();
        let mut out = [0u8; 3];
        d.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3]);
        // two tiny accesses cost well under a microsecond each
        assert!(clock.now().as_micros_f64() < 2.0);
    }

    #[test]
    fn much_faster_than_ssd_page_read() {
        let ram = RamDisk::new(1 << 20);
        let ssd = crate::Ssd::new(crate::SsdConfig::with_capacity(1 << 20));
        let mut cr = Clock::new();
        let mut cs = Clock::new();
        let mut buf = vec![0u8; 8192];
        ram.read(&mut cr, 0, &mut buf).unwrap();
        ssd.read(&mut cs, 0, &mut buf).unwrap();
        assert!(cs.now().as_nanos() > 50 * cr.now().as_nanos());
    }

    #[test]
    fn failure_loses_contents() {
        let d = RamDisk::new(4096);
        let mut clock = Clock::new();
        d.write(&mut clock, 0, &[9; 16]).unwrap();
        d.fail();
        let mut out = [0u8; 16];
        assert!(matches!(
            d.read(&mut clock, 0, &mut out),
            Err(StorageError::Unavailable(_))
        ));
        d.restore();
        d.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, [0u8; 16], "contents must not survive a host failure");
    }
}
