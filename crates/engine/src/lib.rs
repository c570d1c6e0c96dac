//! # remem-engine — an SMP relational database engine
//!
//! The "SQL Server" of this reproduction: a single-node (SMP) relational
//! engine whose storage hierarchy is built from pluggable [`remem_storage::Device`]s,
//! so remote memory (via `remem-rfile`) mounts anywhere a disk would. The
//! engine implements everything the paper's scenarios exercise:
//!
//! * **Storage engine** — 8 KiB slotted pages ([`page`], owned by
//!   `remem-storage` with the row format), paged files over
//!   devices ([`pagestore`]), a buffer pool with clock-sweep eviction and a
//!   pluggable **buffer-pool extension** tier ([`bufferpool`], scenario §3.1),
//!   and a paged B+tree used for clustered and non-clustered indexes
//!   ([`btree`]).
//! * **Query processing** — external merge sort and Grace hash join that
//!   **spill to TempDB** under memory-grant pressure ([`sort`], [`hashjoin`],
//!   [`tempdb`], scenario §3.2), index-nested-loop join, aggregation and
//!   Top-N ([`exec`]), and memory-grant admission control ([`grant`]).
//! * **Semantic cache** — materialized views and redundant non-clustered
//!   indexes pinned in remote memory, matched at query time and recovered
//!   from the WAL after donor failure ([`semantic`], [`wal`], scenario §3.3).
//! * **Cost-based plan choice** — a calibrated optimizer that prices
//!   index-nested-loop vs. hash join per storage tier; its crossover moves
//!   when an index sits in remote memory instead of SSD ([`optimizer`],
//!   Fig. 15b).
//! * **Buffer-pool priming** — serializing the warm buffer pool into an
//!   in-memory file and loading it into a newly-elected primary over RDMA
//!   ([`priming`], scenario §3.4).
//!
//! All CPU work is charged to the host server's core pool and all I/O to the
//! mounted devices, in virtual time — so the same code reports both correct
//! query answers and the paper's performance shapes.

pub mod btree;
pub mod bufferpool;
pub mod config;
pub mod db;
pub mod exec;
pub mod grant;
pub mod hashjoin;
pub mod optimizer;
pub mod pagestore;
pub mod priming;
pub mod row;
pub mod semantic;
pub mod sort;
pub mod tempdb;
pub mod wal;

pub use remem_storage::page;

pub use config::{CpuCosts, DbConfig};
pub use db::{BulkLoader, Database, DbError, DeviceSet, TableId};
pub use exec::{remote_scan, ExecCtx, ScanResult};
pub use optimizer::{choose_scan, crossover_selectivity, ScanChoice, ScanEstimate, ScanPlan};
pub use row::{ColType, Row, Schema, Value};
pub use wal::{Lsn, Wal, WalEntry, WalOp, WalRecord, WalStats};
