//! Property-based tests for the device models: byte fidelity and sane
//! virtual-time behaviour on arbitrary access patterns.

use proptest::prelude::*;
use remem_sim::Clock;
use remem_storage::{Device, HddArray, HddConfig, RamDisk, Ssd, SsdConfig, StorageError};

const CAP: u64 = 4 << 20;

fn devices() -> Vec<Box<dyn Device>> {
    vec![
        Box::new(HddArray::new(HddConfig::with_spindles(4, CAP))),
        Box::new(HddArray::new(HddConfig::with_spindles(20, CAP))),
        Box::new(Ssd::new(SsdConfig::with_capacity(CAP))),
        Box::new(RamDisk::new(CAP)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// All devices store bytes faithfully under arbitrary write/read
    /// sequences (a Vec<u8> is the reference model).
    #[test]
    fn devices_equal_byte_array(ops in prop::collection::vec(
        (any::<bool>(), 0u64..CAP, 1usize..10_000, any::<u8>()), 1..30)) {
        for dev in devices() {
            let mut clock = Clock::new();
            let mut model = vec![0u8; CAP as usize];
            for &(is_write, offset, len, fill) in &ops {
                let len = len.min((CAP - offset) as usize).max(1);
                if is_write {
                    let data = vec![fill; len];
                    dev.write(&mut clock, offset, &data).unwrap();
                    model[offset as usize..offset as usize + len].copy_from_slice(&data);
                } else {
                    let mut buf = vec![0u8; len];
                    dev.read(&mut clock, offset, &mut buf).unwrap();
                    prop_assert_eq!(
                        &buf,
                        &model[offset as usize..offset as usize + len],
                        "device {} corrupted data",
                        dev.label()
                    );
                }
            }
        }
    }

    /// Every access advances virtual time, and out-of-bounds accesses are
    /// rejected without advancing it.
    #[test]
    fn time_advances_and_bounds_hold(offset in 0u64..CAP, len in 1usize..8192) {
        for dev in devices() {
            let mut clock = Clock::new();
            let mut buf = vec![0u8; len];
            if offset + len as u64 <= CAP {
                let before = clock.now();
                dev.read(&mut clock, offset, &mut buf).unwrap();
                prop_assert!(clock.now() > before, "{} charged no time", dev.label());
            }
            let before = clock.now();
            let r = dev.read(&mut clock, CAP - (len as u64).min(CAP) + 1, &mut buf);
            if r.is_err() {
                prop_assert_eq!(clock.now(), before, "failed I/O must not charge time");
            }
        }
    }

    /// HDD: re-reading a just-read location sequentially is never slower
    /// than the first (seeking) access to it.
    #[test]
    fn hdd_sequential_follow_up_is_cheaper(start in 0u64..(CAP / 2)) {
        let hdd = HddArray::new(HddConfig::with_spindles(8, CAP));
        let start = (start / 8192) * 8192;
        let mut clock = Clock::new();
        let mut buf = vec![0u8; 8192];
        let t0 = clock.now();
        hdd.read(&mut clock, start, &mut buf).unwrap();
        let first = clock.now().since(t0);
        let t1 = clock.now();
        hdd.read(&mut clock, start + 8192, &mut buf).unwrap();
        let second = clock.now().since(t1);
        prop_assert!(second <= first, "sequential {second:?} > seek {first:?}");
    }
}

/// A range whose end overflows `u64` is out of bounds on every device, for
/// reads and writes, scalar and vectored — a typed error that charges no
/// time, not an overflow panic (debug) or a wrap back into the device
/// (release).
#[test]
fn offsets_near_u64_max_are_out_of_bounds_on_every_device() {
    let mut buf = vec![0u8; 8192];
    for dev in devices() {
        for offset in [u64::MAX, u64::MAX - 1, u64::MAX - 8191, u64::MAX - CAP / 2] {
            let mut clock = Clock::new();
            let oob = |r: Result<(), StorageError>| matches!(r, Err(StorageError::OutOfBounds { offset: o, len: 8192, capacity: CAP }) if o == offset);
            assert!(
                oob(dev.read(&mut clock, offset, &mut buf)),
                "{} read at {offset}",
                dev.label()
            );
            assert!(
                oob(dev.write(&mut clock, offset, &buf)),
                "{} write at {offset}",
                dev.label()
            );
            let mut reqs = [(offset, &mut buf[..])];
            assert!(dev
                .read_vectored(&mut clock, &mut reqs)
                .into_iter()
                .all(oob));
            assert!(dev
                .write_vectored(&mut clock, &[(offset, &buf[..])])
                .into_iter()
                .all(oob));
            assert_eq!(
                clock.now(),
                Clock::new().now(),
                "failed I/O must not charge time"
            );
        }
    }
}
