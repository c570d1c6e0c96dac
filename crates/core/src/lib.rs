//! # remem — remote memory for relational databases over RDMA
//!
//! A from-scratch Rust reproduction of *"Accelerating Relational Databases
//! by Leveraging Remote Memory and RDMA"* (Li, Das, Syamala, Narasayya —
//! SIGMOD 2016): an SMP relational engine whose buffer-pool extension,
//! TempDB, semantic cache and priming path can all be mounted on **remote
//! memory leased from other servers and accessed via RDMA**, exposed
//! through a lightweight file API.
//!
//! ## Quickstart
//!
//! ```
//! use remem::{Cluster, Design, DbOptions};
//! use remem_sim::Clock;
//!
//! // a cluster with one DB server and two 64 MiB memory donors
//! let cluster = Cluster::builder()
//!     .memory_servers(2)
//!     .memory_per_server(64 << 20)
//!     .build();
//! // mount a database in the paper's Custom design: BPExt and TempDB in
//! // remote memory over NDSPI-style RDMA
//! let mut clock = Clock::new();
//! let opts = DbOptions::small();
//! let db = Design::Custom.build(&cluster, &mut clock, &opts).unwrap();
//! let t = db
//!     .create_table(
//!         &mut clock,
//!         remem::Schema::new(vec![("k", remem::ColType::Int), ("v", remem::ColType::Int)]),
//!         0,
//!     )
//!     .unwrap();
//! db.insert(&mut clock, t, remem_engine::exec::int_row(&[1, 42])).unwrap();
//! assert_eq!(db.get(&mut clock, t, 1).unwrap().unwrap().int(1), 42);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | `remem-sim` | deterministic virtual-time kernel |
//! | `remem-net` | RDMA NIC / TCP / SMB fabric models |
//! | `remem-storage` | HDD RAID-0, SSD, RAM-disk device models; owner of the page and row formats |
//! | `remem-broker` | cluster memory broker with timed leases |
//! | `remem-rfile` | **the contribution**: remote memory behind a file API |
//! | `remem-engine` | the SMP RDBMS (buffer pool, B+trees, operators, WAL…) |
//! | `remem-workloads` | SQLIO, RangeScan, Hash+Sort, TPC-H/DS/C-like |
//! | `remem` (this crate) | cluster builder + the Table 5 design alternatives |

pub mod cluster;
pub mod design;

pub use cluster::{Cluster, ClusterBuilder};
pub use design::{DbOptions, Design};

pub use remem_audit::{AuditViolation, Auditor};
pub use remem_broker::{BrokerConfig, Lease, MemoryBroker, PlacementPolicy};
pub use remem_engine::row::ColType;
pub use remem_engine::{Database, DbConfig, Row, Schema, TableId, Value};
pub use remem_net::{Fabric, FaultInjector, NetConfig, Protocol, ServerId};
pub use remem_rfile::{AccessMode, RFileConfig, RegistrationMode, RemoteFile};
pub use remem_sim::{Clock, FaultLog, FaultOrigin, SimDuration, SimTime};
pub use remem_storage::{Device, HddArray, HddConfig, RamDisk, Ssd, SsdConfig, StorageError};
