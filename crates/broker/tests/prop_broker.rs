//! Random lease lifecycles on one broker.
//!
//! Each case runs up to 40 operations over 3-5 donors, drawn at random
//! virtual times from every lifecycle call: Pack, Spread and replicated
//! grants, release, hard `reclaim`, two-phase `request_reclaim` and
//! `finalize_revocations`, migration (`request_extra`, `surrender_mrs`),
//! donor crash and recovery with re-donation, `repair_lease` and
//! `re_replicate`. An `Auditor` that panics on the first violation watches
//! every mutation, so MR conservation, aux-state hygiene and replica-set
//! conservation hold after each call. Every refusal must be a typed error
//! that names a real reason: `LeaseNotActive` names an ended state, and
//! `Internal` only ever flags a call the caller got wrong (healing or
//! migrating a lease with the other lease kind's call), never a broken
//! book.

use std::sync::Arc;

use proptest::prelude::*;
use remem_audit::Auditor;
use remem_broker::{
    BrokerConfig, BrokerError, LeaseId, LeaseState, MemoryBroker, MemoryProxy, MetaStore,
    PlacementPolicy,
};
use remem_net::{Fabric, NetConfig, ServerId};
use remem_sim::{Clock, SimDuration};

const MR: u64 = 4096;

struct Rig {
    fabric: Fabric,
    pack: MemoryBroker,
    spread: MemoryBroker,
    db: ServerId,
    donors: Vec<ServerId>,
    clock: Clock,
    leases: Vec<LeaseId>,
}

impl Rig {
    fn new(donors: usize, mrs_each: u64) -> Rig {
        let fabric = Fabric::new(NetConfig::default());
        let db = fabric.add_server("DB", 8);
        let donors: Vec<ServerId> = (0..donors)
            .map(|i| fabric.add_server(format!("M{i}"), 8))
            .collect();
        let store = MetaStore::new();
        let auditor = Arc::new(Auditor::new());
        let front = |placement| {
            let cfg = BrokerConfig {
                placement,
                ..Default::default()
            };
            let b = MemoryBroker::new(cfg, store.clone());
            b.set_auditor(Some(Arc::clone(&auditor)));
            b
        };
        let rig = Rig {
            pack: front(PlacementPolicy::Pack),
            spread: front(PlacementPolicy::Spread),
            fabric,
            db,
            donors,
            clock: Clock::new(),
            leases: Vec::new(),
        };
        for &d in &rig.donors {
            rig.donate(d, mrs_each);
        }
        rig
    }

    fn donate(&self, donor: ServerId, mrs: u64) {
        MemoryProxy::new(donor, MR)
            .donate(&mut Clock::new(), &self.fabric, &self.pack, mrs * MR)
            .unwrap();
    }

    /// A lease id the broker has granted (any state), or one it never has.
    fn lease(&self, pick: u64) -> LeaseId {
        match self.leases.len() as u64 {
            0 => LeaseId(pick % 3),
            n => self.leases[(pick % n) as usize],
        }
    }

    fn donor(&self, pick: u64) -> ServerId {
        self.donors[(pick % self.donors.len() as u64) as usize]
    }

    /// Run one operation; `Err` carries the broker's refusal.
    fn step(&mut self, op: u8, pick: u64, size: u64) -> Result<(), BrokerError> {
        let (id, donor, bytes) = (self.lease(pick), self.donor(pick), size * MR);
        let (clock, fabric) = (&mut self.clock, &self.fabric);
        match op {
            0 | 1 => {
                let b = if op == 0 { &self.pack } else { &self.spread };
                let lease = b.request_lease(clock, self.db, bytes)?;
                self.leases.push(lease.id);
            }
            2 => {
                let k = 2 + (pick % 2) as usize;
                let lease = self
                    .pack
                    .request_replicated_lease(clock, self.db, bytes, k)?;
                self.leases.push(lease.id);
            }
            3 => self.spread.release(clock, id)?,
            4 => {
                self.pack.reclaim(fabric, donor, bytes);
            }
            5 => {
                self.pack.request_reclaim(clock.now(), fabric, donor, bytes);
            }
            6 => {
                self.spread.finalize_revocations(fabric, clock.now());
            }
            7 => {
                self.pack.request_extra(clock, id, bytes, donor)?;
            }
            8 => {
                self.pack.surrender_mrs(clock, id, donor, fabric)?;
            }
            9 => {
                // crash: memory wiped, broker told, server back up empty
                let srv = fabric.server(donor).unwrap();
                srv.fail();
                srv.nic().deregister_all();
                self.spread.server_failed(donor);
                srv.restart();
            }
            10 => {
                self.pack.server_recovered(donor);
                self.donate(donor, size);
            }
            11 => {
                self.pack.repair_lease(clock, id)?;
            }
            _ => {
                self.spread.re_replicate(clock, id)?;
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_lifecycles_keep_the_books(
        donors in 3usize..6,
        mrs_each in 2u64..12,
        ops in prop::collection::vec((0u8..13, any::<u64>(), 1u64..4, 0u64..120_000), 1..41),
    ) {
        let mut rig = Rig::new(donors, mrs_each);
        for (op, pick, size, wait_us) in ops {
            rig.clock.advance(SimDuration::from_micros(wait_us));
            match rig.step(op, pick, size) {
                Ok(()) | Err(BrokerError::InsufficientMemory { .. }) => {}
                Err(BrokerError::UnknownLease(id)) => prop_assert!(!rig.leases.contains(&id)),
                Err(BrokerError::LeaseNotActive(_, state)) => {
                    prop_assert_ne!(state, LeaseState::Active)
                }
                Err(BrokerError::Internal(what)) => prop_assert!(
                    matches!(
                        what,
                        "re_replicate called on an unreplicated lease"
                            | "replicated leases heal via re_replicate"
                            | "replicated leases migrate by surrendering a replica"
                            | "surrender would drop a slot's last replica"
                    ),
                    "op {op}: {what}"
                ),
            }
        }
        // the per-I/O health check agrees with the lease's state: exactly
        // the leases it calls valid can still be released
        for id in rig.leases.clone() {
            let valid = rig.pack.lease_health(id).valid;
            match rig.spread.release(&mut rig.clock, id) {
                Ok(()) => prop_assert!(valid, "{id:?} released but reported invalid"),
                Err(e) => prop_assert!(!valid, "{id:?} reported valid but refused: {e}"),
            }
        }
        prop_assert_eq!(rig.pack.store().active_leases(), 0);
    }
}
