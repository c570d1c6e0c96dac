//! # remem-storage — local storage device models
//!
//! The paper's baselines keep data on locally-attached disks: a hardware
//! RAID-0 array of 4/8/20 HDD spindles and an enterprise SLC SAS SSD
//! (Table 3). This crate models both, plus a RAM disk, behind one [`Device`]
//! trait that the database engine uses for its data files, buffer-pool
//! extension and TempDB. The remote-memory file shim in `remem-rfile`
//! implements the same trait, which is exactly the paper's point: remote
//! memory slots into the storage hierarchy through a file API.
//! [`Observed`] is the one decorator over that trait: it forwards every
//! method and shows each I/O to an [`IoObserver`] such as [`Metered`].
//!
//! It also owns the two formats every tier stores: the 8 KiB slotted
//! [`page`] and the [`row`] encoding. The engine builds on them, and the
//! memory servers' pushdown kernels ([`eval`]) scan the same bytes through
//! the same code.
//!
//! Devices store *real bytes* — reads return what was written — while their
//! time costs are charged to virtual clocks. Default constants reproduce the
//! paper's Figures 3/4: HDD(20) ≈ 1.8 GB/s sequential but ~8 ms random
//! seeks; SSD ≈ 0.24 GB/s random (624 µs) and 0.39 GB/s sequential — which
//! is why the paper stores analytics BPExt/TempDB on HDD-striped arrays but
//! OLTP BPExt on SSD (Table 5 discussion).

pub mod config;
pub mod device;
pub mod error;
pub mod eval;
pub mod hdd;
pub mod metered;
pub mod observed;
pub mod page;
pub mod ramdisk;
pub mod row;
pub mod ssd;

pub use config::{HddConfig, SsdConfig};
pub use device::Device;
pub use error::StorageError;
pub use eval::{
    eval_pages, Aggregate, CmpOp, EvalError, EvalStats, PartialAgg, Predicate, PushdownProgram,
    PARTIAL_AGG_BYTES,
};
pub use hdd::HddArray;
pub use metered::Metered;
pub use observed::{Io, IoKind, IoObserver, Observed};
pub use page::{Page, PAGE_SIZE};
pub use ramdisk::RamDisk;
pub use row::{Row, Value};
pub use ssd::Ssd;
