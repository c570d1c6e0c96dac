//! Lease types: exclusive, timed grants of remote MRs.

use std::collections::BTreeMap;

use remem_net::{MrHandle, ServerId};
use remem_sim::SimTime;

/// Identifier of a lease in the broker's metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LeaseId(pub u64);

/// Lifecycle of a lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseState {
    /// Held and unexpired — holder has exclusive read/write access.
    Active,
    /// Holder failed to renew in time; MRs returned to the pool.
    Expired,
    /// Broker revoked it (memory pressure on the donor, or donor failure).
    Revoked,
    /// Holder voluntarily released it.
    Released,
}

/// An exclusive timed grant of one or more remote memory regions.
///
/// The lease carries the MR mapping (which region on which server) that the
/// file shim stripes over; the broker is not involved in any transfer.
#[derive(Debug, Clone)]
pub struct Lease {
    pub id: LeaseId,
    pub holder: ServerId,
    pub mrs: Vec<MrHandle>,
    pub expires_at: SimTime,
}

impl Lease {
    /// Total leased bytes across all MRs.
    pub fn bytes(&self) -> u64 {
        self.mrs.iter().map(|m| m.len).sum()
    }

    /// Distinct donor servers backing this lease.
    pub fn servers(&self) -> Vec<ServerId> {
        let mut s: Vec<ServerId> = self.mrs.iter().map(|m| m.server).collect();
        s.sort_unstable();
        s.dedup();
        s
    }
}

/// Replica metadata for a k-way replicated lease.
///
/// Each *logical* MR slot of the lease is backed by a group of physical MRs
/// on `k` distinct donors (anti-affinity). `groups()[slot][0]` is the
/// preferred replica that one-sided reads target; writes fan out to the
/// whole group through the quorum path. The epoch increments on every
/// membership change (prune, promotion, re-replication, surrender) so
/// holders can fence extent maps built against a stale view.
///
/// Membership changes only through the methods below, each of which keeps
/// the replication deficit current — holders poll it on every I/O.
#[derive(Debug, Clone)]
pub struct ReplicaSet {
    /// Target replication factor (>= 2).
    k: usize,
    /// Fencing epoch: bumped on every membership change.
    epoch: u64,
    /// `groups[slot]` lists the physical MRs backing logical slot `slot`,
    /// in preference order. A group shorter than `k` is healing; an empty
    /// group lost every replica (its last dead handle is parked in
    /// `lost_slots`).
    groups: Vec<Vec<MrHandle>>,
    /// Slots whose every replica died, keyed to the last dead handle so
    /// re-replication can size the replacement and the `lost` byte bucket
    /// stays balanced.
    lost_slots: BTreeMap<usize, MrHandle>,
    /// `deficit_bytes()` of the current membership.
    deficit: u64,
}

impl ReplicaSet {
    /// A fresh set at epoch 0 with no slot lost.
    pub fn new(k: usize, groups: Vec<Vec<MrHandle>>) -> ReplicaSet {
        let mut rs = ReplicaSet {
            k,
            epoch: 0,
            groups,
            lost_slots: BTreeMap::new(),
            deficit: 0,
        };
        rs.deficit = rs.deficit_bytes();
        rs
    }

    pub fn k(&self) -> usize {
        self.k
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn groups(&self) -> &[Vec<MrHandle>] {
        &self.groups
    }

    pub fn lost_slots(&self) -> &BTreeMap<usize, MrHandle> {
        &self.lost_slots
    }

    /// Bytes one replica of `slot` holds: its first live member's length,
    /// else the parked dead handle's.
    fn slot_len(&self, slot: usize) -> u64 {
        let live = self.groups[slot].first();
        live.or_else(|| self.lost_slots.get(&slot))
            .map_or(0, |m| m.len)
    }

    fn slot_deficit(&self, slot: usize) -> u64 {
        self.slot_len(slot) * self.k.saturating_sub(self.groups[slot].len()) as u64
    }

    /// Logical bytes covered (one replica per slot).
    pub fn logical_bytes(&self) -> u64 {
        (0..self.groups.len()).map(|slot| self.slot_len(slot)).sum()
    }

    /// Bytes of physical memory missing to restore every group to `k`
    /// live members (zero when the set is fully replicated), summed afresh
    /// from the groups.
    pub fn deficit_bytes(&self) -> u64 {
        (0..self.groups.len())
            .map(|slot| self.slot_deficit(slot))
            .sum()
    }

    /// The same figure, kept current by every membership change.
    pub fn deficit(&self) -> u64 {
        self.deficit
    }

    /// Change one slot's membership, carrying its share of the deficit over.
    fn edit_slot<R>(&mut self, slot: usize, edit: impl FnOnce(&mut ReplicaSet) -> R) -> R {
        self.deficit -= self.slot_deficit(slot);
        let out = edit(self);
        self.deficit += self.slot_deficit(slot);
        out
    }

    /// Fence holders' extent maps after a membership change.
    pub(crate) fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Drop the members hosted on `server` from their groups (anti-affinity:
    /// at most one per group). Returns each dropped handle with its slot.
    pub(crate) fn drop_server(&mut self, server: ServerId) -> Vec<(usize, MrHandle)> {
        let mut dropped = Vec::new();
        for slot in 0..self.groups.len() {
            let Some(pos) = self.groups[slot].iter().position(|m| m.server == server) else {
                continue;
            };
            let dead = self.edit_slot(slot, |rs| rs.groups[slot].remove(pos));
            dropped.push((slot, dead));
        }
        dropped
    }

    /// Record that `slot` lost its last replica, `dead`.
    pub(crate) fn park_lost(&mut self, slot: usize, dead: MrHandle) {
        self.edit_slot(slot, |rs| rs.lost_slots.insert(slot, dead));
    }

    /// Append re-replicated members to `slot`'s group. Returns the dead
    /// handle that was parked for it, if the whole group had been lost.
    pub(crate) fn grow(&mut self, slot: usize, added: &[MrHandle]) -> Option<MrHandle> {
        self.edit_slot(slot, |rs| {
            rs.groups[slot].extend_from_slice(added);
            rs.lost_slots.remove(&slot)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_and_servers_aggregate() {
        let lease = Lease {
            id: LeaseId(1),
            holder: ServerId(0),
            mrs: vec![
                MrHandle {
                    server: ServerId(1),
                    mr: 1,
                    len: 100,
                },
                MrHandle {
                    server: ServerId(2),
                    mr: 2,
                    len: 50,
                },
                MrHandle {
                    server: ServerId(1),
                    mr: 3,
                    len: 25,
                },
            ],
            expires_at: SimTime(1000),
        };
        assert_eq!(lease.bytes(), 175);
        assert_eq!(lease.servers(), vec![ServerId(1), ServerId(2)]);
    }

    #[test]
    fn a_stale_maintained_deficit_is_an_audit_violation() {
        use crate::{BrokerConfig, MemoryBroker, MemoryProxy, MetaStore};
        use remem_net::{Fabric, NetConfig};
        use remem_sim::Clock;
        use std::sync::Arc;

        let fabric = Fabric::new(NetConfig::default());
        let db = fabric.add_server("DB1", 20);
        let broker = MemoryBroker::new(BrokerConfig::default(), MetaStore::new());
        let aud = Arc::new(remem_audit::Auditor::recording());
        broker.set_auditor(Some(Arc::clone(&aud)));
        let mut clock = Clock::new();
        for i in 0..2 {
            let m = fabric.add_server(format!("M{i}"), 20);
            MemoryProxy::new(m, 4096)
                .donate(&mut clock, &fabric, &broker, 2 * 4096)
                .unwrap();
        }
        let lease = broker
            .request_replicated_lease(&mut clock, db, 4096, 2)
            .unwrap();
        assert_eq!(aud.violation_count(), 0);
        // a membership change that forgot its bookkeeping
        let mut st = broker.store().state.lock();
        st.replicas.get_mut(&lease.id).unwrap().deficit += 4096;
        drop(st);
        broker.renew(&mut clock, lease.id).unwrap();
        let seen = aud.violations();
        assert!(
            seen.iter().any(|v| v.invariant == "replica-conservation"
                && v.note.contains("maintained deficit 4096 != recomputed 0")),
            "{}",
            aud.report()
        );
    }

    #[test]
    fn replica_set_counts_logical_and_deficit_bytes() {
        let mr = |s: usize, id: u64| MrHandle {
            server: ServerId(s),
            mr: id,
            len: 100,
        };
        let mut rs = ReplicaSet::new(
            2,
            vec![
                vec![mr(1, 1), mr(2, 2)], // healthy
                vec![mr(1, 3), mr(4, 4)], // about to lose a member
                vec![mr(3, 9)],           // about to be lost outright
            ],
        );
        assert_eq!((rs.deficit(), rs.deficit_bytes()), (100, 100));
        assert_eq!(rs.drop_server(ServerId(4)), [(1, mr(4, 4))]);
        assert_eq!(rs.drop_server(ServerId(3)), [(2, mr(3, 9))]);
        // an unrecorded loss cannot be sized; parking the dead handle can
        assert_eq!((rs.deficit(), rs.deficit_bytes()), (100, 100));
        rs.park_lost(2, mr(3, 9));
        assert_eq!(rs.logical_bytes(), 300);
        // one missing member for slot 1, two for the lost slot 2
        assert_eq!((rs.deficit(), rs.deficit_bytes()), (300, 300));
        assert_eq!(rs.grow(2, &[mr(5, 10), mr(6, 11)]), Some(mr(3, 9)));
        assert_eq!(rs.grow(1, &[mr(5, 12)]), None);
        assert_eq!((rs.deficit(), rs.deficit_bytes()), (0, 0));
        assert!(rs.lost_slots().is_empty());
    }
}
