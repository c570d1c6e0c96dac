//! # remem-net — cluster fabric: RDMA NIC model, TCP model, SMB layers
//!
//! Models the networking substrate of the paper's 10-server cluster:
//!
//! * [`Server`] — a machine with CPU cores, a NIC, and registrable memory.
//! * [`Nic`] — Mellanox-ConnectX-3-like NIC: a 56 Gbps port modelled as a
//!   bandwidth pipe, memory-region registration with the paper's measured
//!   costs (50 µs per registration, 2 GB/MR, ~130 K MRs), and queue pairs.
//! * [`MemoryRegion`] — registered memory holding *real bytes*; RDMA verbs
//!   actually move data so correctness is testable end-to-end.
//! * [`Fabric`] — the cluster: owns servers and implements the three
//!   protocols of Table 5 as [`Protocol`]: `Custom` (NDSPI-style one-sided
//!   RDMA, synchronous spin completion), `SmbDirect` (RDMA but behind a
//!   RamDrive + SMB file protocol treated as asynchronous I/O), and `SmbTcp`
//!   (the same file protocol over TCP/IP, which consumes the *remote* CPU).
//!
//! All costs are charged to virtual time (see `remem-sim`). The default
//! constants in [`NetConfig`] are calibrated so that the SQLIO-style
//! micro-benchmark reproduces the paper's Figures 3 and 4: Custom ≈ 4 GB/s
//! random / 5.3 GB/s sequential, SMBDirect ≈ 1.4 GB/s random, SMB+TCP ≈
//! 0.7 GB/s random, with the corresponding latency ordering.

pub mod config;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod mr;
pub mod nic;
pub mod server;
pub mod verbs;

pub use config::NetConfig;
pub use error::NetError;
pub use fabric::{BatchCompletion, Fabric, Protocol, PushdownReply, PushdownRequest, QuorumWrite};
pub use fault::FaultInjector;
pub use mr::{MemoryRegion, MrHandle, MrId};
pub use nic::Nic;
pub use server::{Server, ServerId};
pub use verbs::{ReadSge, WorkRequest, WriteSge};
