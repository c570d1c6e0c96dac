//! The broker's replicated metadata store (the Zookeeper stand-in).
//!
//! The paper stores all broker state — the MR availability pool and the
//! lease lookup table — in Zookeeper so that a broker failure is survived by
//! electing a new broker over the same metadata. We model that as shared,
//! internally-synchronized state: any number of broker front-ends can be
//! constructed over one `MetaStore`, and killing one loses nothing.
//!
//! All maps are ordered (`BTreeMap`/`BTreeSet`): broker decisions iterate
//! this state, and hash-map iteration order would leak into lease placement
//! and break seeded replay.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use parking_lot::Mutex;
use remem_net::{MrHandle, ServerId};
use remem_sim::SimTime;

use crate::lease::{Lease, LeaseId, LeaseState, ReplicaSet};

#[derive(Debug, Default)]
pub(crate) struct MetaState {
    /// MRs registered by proxies and not currently leased, per donor server.
    pub available: BTreeMap<ServerId, Vec<MrHandle>>,
    /// All leases ever granted, with their current state.
    pub leases: BTreeMap<LeaseId, (Lease, LeaseState)>,
    /// Donors known to be down; excluded from grants until
    /// `server_recovered`.
    pub failed_servers: BTreeSet<ServerId>,
    /// MRs a lease lost to a donor crash, awaiting `repair_lease` (or, for
    /// a replicated lease, the last copy of a slot, awaiting
    /// `re_replicate`). The lease itself stays Active (degraded).
    pub lost_mrs: BTreeMap<LeaseId, Vec<MrHandle>>,
    /// Two-phase reclaim: leases notified of memory pressure on a donor,
    /// with the deadline after which the broker revokes unilaterally.
    pub pending_revocations: BTreeMap<LeaseId, (ServerId, SimTime)>,
    /// Replica metadata for k-way replicated leases. The physical MRs in
    /// every group also appear in the lease's `mrs`, so the MR conservation
    /// equation is unchanged; replica-set conservation is checked on top.
    pub replicas: BTreeMap<LeaseId, ReplicaSet>,
    pub next_lease: u64,
    /// Running total of bytes proxies have ever donated. Together with
    /// `wiped_bytes` this closes the MR conservation equation the runtime
    /// auditor checks: donated = available + active-leased + lost + wiped.
    pub donated_bytes: u64,
    /// Bytes permanently gone from broker management: deregistered under
    /// reclaim/surrender, or destroyed with a crashed donor.
    pub wiped_bytes: u64,
}

impl MetaState {
    /// A lease just left `Active`: drop its auxiliary bookkeeping so the
    /// maps never accumulate entries for dead leases. MRs still parked in
    /// `lost_mrs` died with their donor and will never be repaired now, so
    /// they count as wiped.
    pub(crate) fn lease_terminal(&mut self, id: LeaseId) {
        self.pending_revocations.remove(&id);
        self.replicas.remove(&id);
        if let Some(lost) = self.lost_mrs.remove(&id) {
            self.wiped_bytes += lost.iter().map(|m| m.len).sum::<u64>();
        }
    }

    /// Push `mrs` back onto the tail of their donors' pools, in order.
    pub(crate) fn return_to_pools(&mut self, mrs: impl IntoIterator<Item = MrHandle>) {
        for mr in mrs {
            self.available.entry(mr.server).or_default().push(mr);
        }
    }

    /// Unleased bytes on one donor.
    pub(crate) fn free_on(&self, server: ServerId) -> u64 {
        self.available
            .get(&server)
            .map_or(0, |v| v.iter().map(|m| m.len).sum())
    }
}

/// Fault-tolerant shared broker metadata.
#[derive(Debug, Clone, Default)]
pub struct MetaStore {
    pub(crate) state: Arc<Mutex<MetaState>>,
}

impl MetaStore {
    pub fn new() -> MetaStore {
        MetaStore::default()
    }

    /// Bytes currently available (unleased) cluster-wide.
    pub fn available_bytes(&self) -> u64 {
        self.state
            .lock()
            .available
            .values()
            .flatten()
            .map(|m| m.len)
            .sum()
    }

    /// Bytes currently available on one donor.
    pub fn available_bytes_on(&self, server: ServerId) -> u64 {
        self.state.lock().free_on(server)
    }

    /// Number of active leases.
    pub fn active_leases(&self) -> usize {
        self.state
            .lock()
            .leases
            .values()
            .filter(|(_, s)| *s == LeaseState::Active)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = MetaStore::new();
        let b = a.clone();
        a.state.lock().available.insert(
            ServerId(3),
            vec![MrHandle {
                server: ServerId(3),
                mr: 1,
                len: 4096,
            }],
        );
        assert_eq!(b.available_bytes(), 4096);
        assert_eq!(b.available_bytes_on(ServerId(3)), 4096);
        assert_eq!(b.available_bytes_on(ServerId(9)), 0);
    }

    #[test]
    fn lease_terminal_clears_aux_state_and_wipes_lost() {
        let store = MetaStore::new();
        let mut st = store.state.lock();
        let id = LeaseId(7);
        st.pending_revocations
            .insert(id, (ServerId(1), SimTime(10)));
        st.lost_mrs.insert(
            id,
            vec![MrHandle {
                server: ServerId(1),
                mr: 2,
                len: 4096,
            }],
        );
        st.lease_terminal(id);
        assert!(st.pending_revocations.is_empty());
        assert!(st.lost_mrs.is_empty());
        assert_eq!(st.wiped_bytes, 4096);
    }
}
