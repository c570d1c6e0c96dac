//! # remem-rfile — remote memory behind a lightweight file API
//!
//! The paper's central contribution (§4.1.1, Table 2): remote memory is
//! exposed to the RDBMS as **in-memory blocks with a file API shim**. A
//! [`RemoteFile`] is created by leasing memory regions from the broker,
//! opened by connecting queue pairs to each donor server, and then read and
//! written at `(offset, size)` granularity — each operation translated to an
//! RDMA read/write against the backing MR.
//!
//! Implemented design choices (Table 1):
//! * **Synchronous accesses** ([`AccessMode::SyncSpin`]) — the issuing
//!   scheduler spins a few microseconds instead of yielding; the
//!   asynchronous alternative ([`AccessMode::Async`]) charges the context
//!   switch + re-schedule penalty and exists for the ablation benchmark.
//! * **Pre-registered staging buffers** ([`RegistrationMode::Staged`]) —
//!   pages are memcpy'd (2 µs) into a pinned per-scheduler MR rather than
//!   registering buffer-pool pages on demand (50 µs each);
//!   [`RegistrationMode::Dynamic`] exists for the ablation.
//! * **Best-effort fault tolerance** — donor failure or lease loss surfaces
//!   as [`remem_storage::StorageError::Unavailable`]; the engine falls back
//!   to disk and correctness is never affected.
//!
//! Every verb — `read`, `write`, `write_tracked`, `read_vectored`,
//! `write_vectored`, `read_pushdown` — is a thin wrapper over one chunk
//! engine (`engine.rs`): check the batch, carve ready chunks at extent
//! boundaries, let the verb issue them (one fabric call per chunk for the
//! serial verbs, one doorbell per wave for the vectored ones), and settle
//! each outcome in one place — retry with backoff, fail over to a replica,
//! repair, or give up with a typed error. `lease.rs` keeps the lease alive
//! and heals it; `replica.rs` owns k-way replication.
//!
//! `RemoteFile` implements [`remem_storage::Device`], so the engine can
//! mount remote memory anywhere it would mount an SSD — buffer-pool
//! extension, TempDB, or semantic-cache storage — with no other changes.
//! That is the paper's integration story in one trait impl.

pub mod config;
mod engine;
pub mod file;
mod lease;
mod replica;
pub mod ring;
pub mod staging;

pub use config::{AccessMode, RFileConfig, RegistrationMode};
pub use file::{PushdownScan, QuorumAppend, RemoteFile};
pub use ring::RemoteRing;
pub use staging::StagingBuffers;
