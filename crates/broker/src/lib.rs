//! # remem-broker — brokering unutilized memory in the cluster
//!
//! Implements the paper's memory broker (§4.2, Fig. 1): each memory server
//! runs a *proxy* that pins its unused memory into fixed-size memory regions
//! (MRs), registers them with the NIC, and reports them to a central broker.
//! A database server with unmet memory demand requests a **timed lease** on
//! MRs; the broker picks donor servers, records the mapping, and steps out
//! of the data path — transfers then go server-to-server over RDMA.
//!
//! Faithful to the paper:
//! * leases are timed and must be renewed; an expired or revoked lease
//!   forces the database to release the MRs and fall back to disk —
//!   correctness is never compromised (best-effort contract);
//! * the proxy listens for local memory-pressure notifications and asks the
//!   broker to deregister MRs so the OS never pages local applications;
//! * broker metadata lives in a replicated [`MetaStore`] (the stand-in for
//!   Zookeeper), so a broker crash is survived by electing a new broker over
//!   the same store.

pub mod broker;
pub mod lease;
pub mod meta;
pub mod proxy;

pub use broker::{
    BrokerConfig, BrokerError, ComputeAccount, LeaseHealth, MemoryBroker, PlacementPolicy,
    ReplicaRepair,
};
pub use lease::{Lease, LeaseId, LeaseState, ReplicaSet};
pub use meta::MetaStore;
pub use proxy::MemoryProxy;
