//! The broker front-end: lease grant / release / revoke, and the repair of
//! leases a donor crash degraded.

use std::collections::btree_map::Entry;
use std::sync::Arc;

use parking_lot::Mutex;
use remem_audit::Auditor;
use remem_net::{Fabric, MrHandle, ServerId};
use remem_sim::{Clock, MetricsRegistry, SimDuration, SimTime};

use crate::lease::{Lease, LeaseId, LeaseState, ReplicaSet};
use crate::meta::{MetaState, MetaStore};

/// Upper bound on leases simultaneously parked in the two-phase reclaim
/// queue. A holder that never re-attaches would otherwise grow
/// `pending_revocations` without bound; past the cap the broker
/// force-finalizes the oldest notices early and counts them in
/// `broker.revocations_expired`.
const MAX_PENDING_REVOCATIONS: usize = 64;

/// One slot's re-replication work order from [`MemoryBroker::re_replicate`].
///
/// The broker has already committed the new group membership; the holder
/// must connect to and seed every `added` MR (copy from `source`, or
/// zero-fill and report the range lost when every replica died) before
/// serving reads from it.
#[derive(Debug, Clone)]
pub struct ReplicaRepair {
    /// Logical slot index within the lease's replica set.
    pub slot: usize,
    /// Surviving replica to copy the slot's bytes from; `None` when the
    /// whole group died and the slot's content is gone.
    pub source: Option<MrHandle>,
    /// Fresh members appended to the group.
    pub added: Vec<MrHandle>,
}

/// What a holder needs to know about its lease before an I/O, read in one
/// visit to the metadata ([`MemoryBroker::lease_health`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseHealth {
    /// A pending two-phase reclaim notice: the pressured donor and the
    /// deadline after which the broker revokes unilaterally.
    pub notice: Option<(ServerId, SimTime)>,
    /// The lease is Active: neither released nor revoked.
    pub valid: bool,
    /// Fencing epoch of the replica groups; `None` for an unreplicated lease.
    pub epoch: Option<u64>,
    /// Bytes missing to bring every replica group back to `k` members.
    pub deficit: u64,
}

/// How the broker places a multi-MR lease across donor servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Fill one donor before moving to the next (fewest connections).
    Pack,
    /// Round-robin MRs across all donors with availability (pools memory
    /// from many servers — the Fig. 5 / Fig. 12b configuration).
    Spread,
}

/// Broker tunables.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Virtual time for a broker round trip (lease RPCs go through the
    /// metadata store, not the RDMA fast path).
    pub rpc_time: SimDuration,
    pub placement: PlacementPolicy,
    /// Two-phase reclaim window: a lessee notified of donor memory pressure
    /// has this long to flush/migrate/surrender before the broker revokes
    /// the lease unilaterally.
    pub grace_period: SimDuration,
}

impl Default for BrokerConfig {
    fn default() -> BrokerConfig {
        BrokerConfig {
            rpc_time: SimDuration::from_micros(200),
            placement: PlacementPolicy::Pack,
            grace_period: SimDuration::from_millis(50),
        }
    }
}

/// Errors from broker operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerError {
    /// Not enough unleased memory in the cluster to satisfy the request.
    InsufficientMemory {
        requested: u64,
        available: u64,
    },
    /// The lease does not exist or is no longer active.
    LeaseNotActive(LeaseId, LeaseState),
    UnknownLease(LeaseId),
    /// Broker metadata lost an entry mid-operation. Indicates a broker bug,
    /// surfaced as a typed error instead of a panic so a simulated cluster
    /// keeps running (and the auditor can flag the drift).
    Internal(&'static str),
}

impl std::fmt::Display for BrokerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrokerError::InsufficientMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "requested {requested} B but only {available} B available"
                )
            }
            BrokerError::LeaseNotActive(id, st) => write!(f, "lease {id:?} is {st:?}"),
            BrokerError::UnknownLease(id) => write!(f, "unknown lease {id:?}"),
            BrokerError::Internal(what) => write!(f, "broker metadata inconsistent: {what}"),
        }
    }
}

impl std::error::Error for BrokerError {}

/// Cached handles into an attached [`MetricsRegistry`] covering the lease
/// lifecycle (§4.2): grants, terminal transitions, repairs, and
/// the byte flows behind them.
struct BrokerMetrics {
    granted: Arc<remem_sim::Counter>,
    released: Arc<remem_sim::Counter>,
    revoked: Arc<remem_sim::Counter>,
    degraded: Arc<remem_sim::Counter>,
    repaired: Arc<remem_sim::Counter>,
    leased_bytes: Arc<remem_sim::Counter>,
    donated_bytes: Arc<remem_sim::Counter>,
    reclaimed_bytes: Arc<remem_sim::Counter>,
    revocations_expired: Arc<remem_sim::Counter>,
    leases_active: Arc<remem_sim::Gauge>,
    pushdown_ops: Arc<remem_sim::Counter>,
    pushdown_rows: Arc<remem_sim::Counter>,
    /// Server CPU debited to pushdown eval, in nanoseconds.
    pushdown_cpu_ns: Arc<remem_sim::Counter>,
    /// Replicated leases marked as WAL ring backing (lifetime count).
    wal_rings: Arc<remem_sim::Counter>,
    /// Physical bytes (all replicas) currently pinned under WAL rings.
    wal_ring_bytes: Arc<remem_sim::Gauge>,
}

impl BrokerMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> BrokerMetrics {
        BrokerMetrics {
            granted: registry.counter("broker.leases.granted"),
            released: registry.counter("broker.leases.released"),
            revoked: registry.counter("broker.leases.revoked"),
            degraded: registry.counter("broker.leases.degraded"),
            repaired: registry.counter("broker.leases.repaired"),
            leased_bytes: registry.counter("broker.leased.bytes"),
            donated_bytes: registry.counter("broker.donated.bytes"),
            reclaimed_bytes: registry.counter("broker.reclaimed.bytes"),
            revocations_expired: registry.counter("broker.revocations_expired"),
            leases_active: registry.gauge("broker.leases.active"),
            pushdown_ops: registry.counter("broker.pushdown.ops"),
            pushdown_rows: registry.counter("broker.pushdown.rows"),
            pushdown_cpu_ns: registry.counter("broker.pushdown.cpu_ns"),
            wal_rings: registry.counter("broker.wal.rings"),
            wal_ring_bytes: registry.gauge("broker.wal.ring_bytes"),
        }
    }
}

/// A broker front-end over shared [`MetaStore`] state.
///
/// Cheap to construct: electing a replacement broker after a crash is
/// `MemoryBroker::new(cfg, store.clone())`.
pub struct MemoryBroker {
    cfg: BrokerConfig,
    store: MetaStore,
    auditor: Mutex<Option<Arc<Auditor>>>,
    metrics: Mutex<Option<Arc<BrokerMetrics>>>,
    /// Leases pinned as remote-WAL ring backing: the broker reports their
    /// physical footprint separately (`broker.wal.ring_bytes`) because ring
    /// space is durability-critical — pressure shedding must prefer cache
    /// leases over it. Ordered set: reports iterate it.
    wal_rings: Mutex<std::collections::BTreeSet<LeaseId>>,
}

impl MemoryBroker {
    pub fn new(cfg: BrokerConfig, store: MetaStore) -> MemoryBroker {
        MemoryBroker {
            cfg,
            store,
            auditor: Mutex::new(None),
            metrics: Mutex::new(None),
            wal_rings: Mutex::new(std::collections::BTreeSet::new()),
        }
    }

    pub fn config(&self) -> &BrokerConfig {
        &self.cfg
    }

    pub fn store(&self) -> &MetaStore {
        &self.store
    }

    /// Publish one pushdown eval a donor ran for a tenant: the
    /// `server_cpu` the fabric charged and the rows it visited.
    pub fn note_pushdown(&self, cpu: SimDuration, rows: u64) {
        if let Some(m) = self.metrics.lock().as_ref() {
            m.pushdown_ops.incr();
            m.pushdown_rows.add(rows);
            m.pushdown_cpu_ns.add(cpu.as_nanos());
        }
    }

    /// Attach (or detach) a runtime invariant auditor. When attached, every
    /// mutation re-checks MR conservation and aux-state hygiene.
    pub fn set_auditor(&self, auditor: Option<Arc<Auditor>>) {
        *self.auditor.lock() = auditor;
    }

    /// Attach (or detach) a telemetry registry. Lease lifecycle transitions
    /// and byte flows then publish under `broker.*`, and the count of Active
    /// leases is kept in the `broker.leases.active` gauge.
    pub fn set_metrics(&self, registry: Option<Arc<MetricsRegistry>>) {
        *self.metrics.lock() = registry.map(|r| Arc::new(BrokerMetrics::new(r)));
    }

    /// Run `f` against the cached metric handles if telemetry is attached,
    /// then refresh the active-lease gauge from `st`.
    fn meter(&self, st: &MetaState, f: impl FnOnce(&BrokerMetrics)) {
        let guard = self.metrics.lock();
        let Some(m) = guard.as_ref() else { return };
        f(m);
        let active = st
            .leases
            .values()
            .filter(|(_, s)| *s == LeaseState::Active)
            .count();
        m.leases_active.set(active as f64);
    }

    /// Cross-check broker accounting against the conservation laws.
    /// `at` is `None` when the mutating call site has no clock in scope
    /// (e.g. `offer`), in which case monotonicity is not observed.
    fn verify(&self, st: &MetaState, at: Option<SimTime>) {
        let guard = self.auditor.lock();
        let Some(a) = guard.as_ref() else { return };
        let when = at.unwrap_or(SimTime::ZERO);
        let available: u64 = st.available.values().flatten().map(|m| m.len).sum();
        let leased: u64 = st
            .leases
            .values()
            .filter(|(_, s)| *s == LeaseState::Active)
            .map(|(l, _)| l.bytes())
            .sum();
        let lost: u64 = st.lost_mrs.values().flatten().map(|m| m.len).sum();
        a.check_balance(
            when,
            "broker",
            "mr-conservation",
            ("donated", st.donated_bytes as i128),
            &[
                ("available", available as i128),
                ("leased", leased as i128),
                ("lost", lost as i128),
                ("wiped", st.wiped_bytes as i128),
            ],
        );
        // auxiliary per-lease maps may only reference Active leases;
        // anything else is a leak from a missed terminal transition
        let mut stale: Vec<String> = Vec::new();
        let active = |id: &LeaseId| matches!(st.leases.get(id), Some((_, LeaseState::Active)));
        for id in st.lost_mrs.keys() {
            if !active(id) {
                stale.push(format!("lost_mrs holds non-active {id:?}"));
            }
        }
        for id in st.pending_revocations.keys() {
            if !active(id) {
                stale.push(format!("pending_revocations holds non-active {id:?}"));
            }
        }
        for id in st.replicas.keys() {
            if !active(id) {
                stale.push(format!("replicas holds non-active {id:?}"));
            }
        }
        a.check_that(
            when,
            "broker",
            "aux-state-active-only",
            stale.is_empty(),
            || stale.join("; "),
        );
        // replica-set conservation: every logical slot of a replicated lease
        // has between 1 and k live physicals on distinct donors (0 only when
        // the loss is recorded in lost_slots), and the groups partition
        // exactly the lease's physical MRs
        let mut bad: Vec<String> = Vec::new();
        for (id, rs) in &st.replicas {
            let Some((lease, LeaseState::Active)) = st.leases.get(id) else {
                continue; // already reported as stale above
            };
            if rs.k() < 2 {
                bad.push(format!("{id:?} replicated with k={}", rs.k()));
            }
            if rs.deficit() != rs.deficit_bytes() {
                bad.push(format!(
                    "{id:?} maintained deficit {} != recomputed {}",
                    rs.deficit(),
                    rs.deficit_bytes()
                ));
            }
            let mut group_mrs: Vec<(ServerId, u64)> = Vec::new();
            for (slot, group) in rs.groups().iter().enumerate() {
                if group.len() > rs.k() {
                    bad.push(format!(
                        "{id:?} slot {slot} has {} > k members",
                        group.len()
                    ));
                }
                if group.is_empty() && !rs.lost_slots().contains_key(&slot) {
                    bad.push(format!("{id:?} slot {slot} empty but not recorded lost"));
                }
                let mut servers: Vec<ServerId> = group.iter().map(|m| m.server).collect();
                servers.sort_unstable();
                servers.dedup();
                if servers.len() != group.len() {
                    bad.push(format!("{id:?} slot {slot} violates anti-affinity"));
                }
                group_mrs.extend(group.iter().map(|m| (m.server, m.mr)));
            }
            let mut lease_mrs: Vec<(ServerId, u64)> =
                lease.mrs.iter().map(|m| (m.server, m.mr)).collect();
            group_mrs.sort_unstable();
            lease_mrs.sort_unstable();
            if group_mrs != lease_mrs {
                bad.push(format!("{id:?} groups and lease MRs diverge"));
            }
            for (slot, dead) in rs.lost_slots() {
                let parked = st
                    .lost_mrs
                    .get(id)
                    .is_some_and(|v| v.iter().any(|m| m.server == dead.server && m.mr == dead.mr));
                if !parked {
                    bad.push(format!("{id:?} lost slot {slot} not parked in lost_mrs"));
                }
            }
        }
        a.check_that(
            when,
            "broker",
            "replica-conservation",
            bad.is_empty(),
            || bad.join("; "),
        );
        a.check_that(
            when,
            "broker",
            "wiped-within-donated",
            st.wiped_bytes <= st.donated_bytes,
            || format!("wiped {} > donated {}", st.wiped_bytes, st.donated_bytes),
        );
        if let Some(t) = at {
            a.observe_clock("broker", t);
        }
    }

    /// Called by a proxy: make MRs available for leasing.
    pub(crate) fn offer(&self, server: ServerId, mrs: Vec<MrHandle>) {
        let mut st = self.store.state.lock();
        let total = mrs.iter().map(|m| m.len).sum::<u64>();
        st.donated_bytes += total;
        st.available.entry(server).or_default().extend(mrs);
        self.meter(&st, |m| m.donated_bytes.add(total));
        self.verify(&st, None);
    }

    /// Grant a lease of at least `bytes`, placed per policy. The clock pays
    /// one broker RPC. Returns the lease with its MR mapping.
    pub fn request_lease(
        &self,
        clock: &mut Clock,
        holder: ServerId,
        bytes: u64,
    ) -> Result<Lease, BrokerError> {
        clock.advance(self.cfg.rpc_time);
        let mut st = self.store.state.lock();
        let available: u64 = st.available.values().flatten().map(|m| m.len).sum();
        if available < bytes {
            return Err(BrokerError::InsufficientMemory {
                requested: bytes,
                available,
            });
        }
        // Never lease a server its own memory; if only the holder has spare
        // memory the request fails (it should just use it locally).
        let donors = Self::donors(&st, &[holder]);
        if donors.is_empty() {
            let avail_other: u64 = st
                .available
                .iter()
                .filter(|(s, _)| **s != holder)
                .flat_map(|(_, v)| v)
                .map(|m| m.len)
                .sum();
            return Err(BrokerError::InsufficientMemory {
                requested: bytes,
                available: avail_other,
            });
        }
        let picked = match self.cfg.placement {
            PlacementPolicy::Pack => Self::pick_from_pool(&mut st, bytes, &[holder]).ok(),
            PlacementPolicy::Spread => Self::spread(&mut st, &donors, bytes),
        };
        let Some(picked) = picked else {
            let available: u64 = st.available.values().flatten().map(|m| m.len).sum();
            return Err(BrokerError::InsufficientMemory {
                requested: bytes,
                available,
            });
        };
        let id = LeaseId(st.next_lease);
        st.next_lease += 1;
        let lease = Lease {
            id,
            holder,
            mrs: picked,
        };
        let granted = lease.bytes();
        st.leases.insert(id, (lease.clone(), LeaseState::Active));
        self.meter(&st, |m| {
            m.granted.incr();
            m.leased_bytes.add(granted);
        });
        self.verify(&st, Some(clock.now()));
        Ok(lease)
    }

    /// Pop MRs round-robin across `donors` (one per donor per turn) until
    /// they total at least `bytes`. All-or-nothing.
    fn spread(st: &mut MetaState, donors: &[ServerId], bytes: u64) -> Option<Vec<MrHandle>> {
        let mut picked: Vec<MrHandle> = Vec::new();
        let mut got = 0u64;
        let mut i = 0;
        while got < bytes {
            let mut progressed = false;
            for _ in 0..donors.len() {
                let donor = donors[i % donors.len()];
                i += 1;
                if let Some(mr) = st.available.get_mut(&donor).and_then(Vec::pop) {
                    got += mr.len;
                    picked.push(mr);
                    progressed = true;
                    break;
                }
            }
            if !progressed {
                st.return_to_pools(picked);
                return None;
            }
        }
        Some(picked)
    }

    /// Grant a k-way replicated lease of at least `bytes` *logical*
    /// capacity. Placement is capacity-aware and anti-affine: each logical
    /// slot takes one equal-sized MR from each of the `k` donors with the
    /// most spare memory (stable id tie-break), so no two replicas of a
    /// slot share a server. All-or-nothing; the clock pays one broker RPC.
    ///
    /// The returned lease's `mrs` hold all `k` physicals per slot; the
    /// group structure and fencing epoch are read via
    /// [`Self::replica_view`].
    pub fn request_replicated_lease(
        &self,
        clock: &mut Clock,
        holder: ServerId,
        bytes: u64,
        k: usize,
    ) -> Result<Lease, BrokerError> {
        assert!(k >= 2, "a replicated lease needs k >= 2; use request_lease");
        clock.advance(self.cfg.rpc_time);
        let mut st = self.store.state.lock();
        let mut groups: Vec<Vec<MrHandle>> = Vec::new();
        let mut logical = 0u64;
        let mut short = false;
        while logical < bytes {
            let ranked = Self::ranked_donors(&st, &[holder]);
            if ranked.len() < k {
                short = true;
                break;
            }
            let Some(primary) = st.available.get_mut(&ranked[0]).and_then(|p| p.pop()) else {
                short = true;
                break;
            };
            let len = primary.len;
            let mut group = vec![primary];
            for donor in &ranked[1..] {
                if group.len() == k {
                    break;
                }
                if let Some(mr) = Self::pop_mr_of_len(&mut st, *donor, len) {
                    group.push(mr);
                }
            }
            let full = group.len() == k;
            groups.push(group);
            if !full {
                short = true;
                break;
            }
            logical += len;
        }
        if short {
            st.return_to_pools(groups.into_iter().flatten());
            let available: u64 = st.available.values().flatten().map(|m| m.len).sum();
            return Err(BrokerError::InsufficientMemory {
                requested: bytes.saturating_mul(k as u64),
                available,
            });
        }
        let id = LeaseId(st.next_lease);
        st.next_lease += 1;
        let mrs: Vec<MrHandle> = groups.iter().flatten().copied().collect();
        let lease = Lease { id, holder, mrs };
        let granted = lease.bytes();
        st.leases.insert(id, (lease.clone(), LeaseState::Active));
        st.replicas.insert(id, ReplicaSet::new(k, groups));
        self.meter(&st, |m| {
            m.granted.incr();
            m.leased_bytes.add(granted);
        });
        self.verify(&st, Some(clock.now()));
        Ok(lease)
    }

    /// The current fencing epoch and group membership of a replicated
    /// lease. Holders re-pull this after a failed one-sided verb to promote
    /// a surviving replica without touching the backing device.
    pub fn replica_view(&self, id: LeaseId) -> Option<(u64, Vec<Vec<MrHandle>>)> {
        self.store
            .state
            .lock()
            .replicas
            .get(&id)
            .map(|rs| (rs.epoch(), rs.groups().to_vec()))
    }

    /// The current fencing epoch of a replicated lease.
    pub fn replica_epoch(&self, id: LeaseId) -> Option<u64> {
        self.store
            .state
            .lock()
            .replicas
            .get(&id)
            .map(ReplicaSet::epoch)
    }

    /// Bytes of physical memory a replicated lease is missing to get every
    /// group back to `k` live members; zero for healthy or unreplicated
    /// leases.
    pub fn replication_deficit(&self, id: LeaseId) -> u64 {
        let st = self.store.state.lock();
        st.replicas.get(&id).map_or(0, ReplicaSet::deficit)
    }

    /// Restore every degraded group of a replicated lease to `k` members,
    /// drawing donors that do not already host the group (anti-affinity,
    /// capacity-aware). All-or-nothing: on insufficient memory nothing
    /// changes. On success the epoch is bumped and the holder receives one
    /// work order per repaired slot — it must seed each `added` MR (copy
    /// from `source`, or zero-fill when the whole group died) before
    /// serving from it. Returns an empty vec when nothing needs healing.
    pub fn re_replicate(
        &self,
        clock: &mut Clock,
        id: LeaseId,
    ) -> Result<Vec<ReplicaRepair>, BrokerError> {
        clock.advance(self.cfg.rpc_time);
        let mut st = self.store.state.lock();
        let holder = Self::active_holder(&st, id)?;
        let Some(rs) = st.replicas.get(&id).cloned() else {
            return Err(BrokerError::Internal(
                "re_replicate called on an unreplicated lease",
            ));
        };
        let mut repairs: Vec<ReplicaRepair> = Vec::new();
        let mut picked_all: Vec<MrHandle> = Vec::new();
        for (slot, group) in rs.groups().iter().enumerate() {
            if group.len() >= rs.k() {
                continue;
            }
            let (len, source) = match group.first() {
                Some(first) => (first.len, Some(*first)),
                None => match rs.lost_slots().get(&slot) {
                    Some(dead) => (dead.len, None),
                    // an empty group with no lost record cannot be sized;
                    // the conservation check flags it, skip here
                    None => continue,
                },
            };
            let mut exclude: Vec<ServerId> = vec![holder];
            exclude.extend(group.iter().map(|m| m.server));
            let mut added: Vec<MrHandle> = Vec::new();
            for _ in group.len()..rs.k() {
                let ranked = Self::ranked_donors(&st, &exclude);
                let mut got = None;
                for donor in ranked {
                    if let Some(mr) = Self::pop_mr_of_len(&mut st, donor, len) {
                        got = Some(mr);
                        break;
                    }
                }
                match got {
                    Some(mr) => {
                        exclude.push(mr.server);
                        added.push(mr);
                    }
                    None => {
                        st.return_to_pools(added.into_iter().chain(picked_all));
                        let available: u64 = st.available.values().flatten().map(|m| m.len).sum();
                        return Err(BrokerError::InsufficientMemory {
                            requested: rs.deficit(),
                            available,
                        });
                    }
                }
            }
            picked_all.extend(added.iter().copied());
            repairs.push(ReplicaRepair {
                slot,
                source,
                added,
            });
        }
        if repairs.is_empty() {
            return Ok(Vec::new());
        }
        // commit: groups grow, lost slots are healed (their dead handles'
        // bytes leave the `lost` bucket for `wiped`), epoch fences stale
        // extent maps
        let Some(rs_mut) = st.replicas.get_mut(&id) else {
            return Err(BrokerError::Internal("replica set vanished mid-repair"));
        };
        let dead_handles: Vec<MrHandle> = repairs
            .iter()
            .filter_map(|r| rs_mut.grow(r.slot, &r.added))
            .collect();
        rs_mut.bump_epoch();
        for dead in dead_handles {
            let mut unpark = 0u64;
            if let Some(list) = st.lost_mrs.get_mut(&id) {
                if let Some(pos) = list
                    .iter()
                    .position(|m| m.server == dead.server && m.mr == dead.mr)
                {
                    unpark = list.remove(pos).len;
                }
                if list.is_empty() {
                    st.lost_mrs.remove(&id);
                }
            }
            st.wiped_bytes += unpark;
        }
        let Some((lease, _)) = st.leases.get_mut(&id) else {
            return Err(BrokerError::Internal("lease vanished during re_replicate"));
        };
        lease.mrs.extend(picked_all.iter().copied());
        self.meter(&st, |m| m.repaired.incr());
        self.verify(&st, Some(clock.now()));
        Ok(repairs)
    }

    /// Donors with spare capacity in stable id order, excluding `exclude`
    /// and failed servers. Failed servers keep no pool, but a recovered
    /// server's pool may be re-donated before `server_recovered` is called.
    fn donors(st: &MetaState, exclude: &[ServerId]) -> Vec<ServerId> {
        st.available
            .iter()
            .filter(|(s, v)| {
                !exclude.contains(s) && !v.is_empty() && !st.failed_servers.contains(s)
            })
            .map(|(s, _)| *s)
            .collect()
    }

    /// [`Self::donors`] ranked most-free-bytes first (stable id tie-break).
    fn ranked_donors(st: &MetaState, exclude: &[ServerId]) -> Vec<ServerId> {
        let mut donors = Self::donors(st, exclude);
        donors.sort_by_cached_key(|s| std::cmp::Reverse(st.free_on(*s)));
        donors
    }

    /// The holder of Active lease `id`.
    fn active_holder(st: &MetaState, id: LeaseId) -> Result<ServerId, BrokerError> {
        match st.leases.get(&id) {
            Some((lease, LeaseState::Active)) => Ok(lease.holder),
            Some((_, state)) => Err(BrokerError::LeaseNotActive(id, *state)),
            None => Err(BrokerError::UnknownLease(id)),
        }
    }

    /// Active leases holding an MR on `server`, in id order.
    fn active_on(st: &MetaState, server: ServerId) -> Vec<LeaseId> {
        st.leases
            .iter()
            .filter(|(_, (l, s))| {
                *s == LeaseState::Active && l.mrs.iter().any(|m| m.server == server)
            })
            .map(|(id, _)| *id)
            .collect()
    }

    /// Pop one MR of exactly `len` bytes from `donor`'s pool, preferring
    /// the most recently donated (pool tail) for stable replay order.
    fn pop_mr_of_len(st: &mut MetaState, donor: ServerId, len: u64) -> Option<MrHandle> {
        let pool = st.available.get_mut(&donor)?;
        let idx = pool.iter().rposition(|m| m.len == len)?;
        Some(pool.remove(idx))
    }

    /// Voluntarily release a lease (Delete in Table 2).
    pub fn release(&self, clock: &mut Clock, id: LeaseId) -> Result<(), BrokerError> {
        clock.advance(self.cfg.rpc_time);
        let mut st = self.store.state.lock();
        Self::end_lease(&mut st, id, LeaseState::Released, None)?;
        let was_ring = self.wal_rings.lock().remove(&id);
        self.meter(&st, |m| {
            m.released.incr();
            if was_ring {
                let bytes = Self::ring_bytes(&st, &self.wal_rings.lock());
                m.wal_ring_bytes.set(bytes as f64);
            }
        });
        self.verify(&st, Some(clock.now()));
        Ok(())
    }

    /// The one way a lease leaves `Active`: set its terminal `end` state,
    /// walk its MRs in lease order — those on the `pressured` donor are
    /// deregistered from its NIC and count as wiped, every other MR goes
    /// back to its donor's pool — and drop its auxiliary state. Returns the
    /// bytes wiped.
    fn end_lease(
        st: &mut MetaState,
        id: LeaseId,
        end: LeaseState,
        pressured: Option<(&Fabric, ServerId)>,
    ) -> Result<u64, BrokerError> {
        let (lease, state) = st
            .leases
            .get_mut(&id)
            .ok_or(BrokerError::UnknownLease(id))?;
        if *state != LeaseState::Active {
            return Err(BrokerError::LeaseNotActive(id, *state));
        }
        *state = end;
        let mut wiped = 0;
        for mr in std::mem::take(&mut lease.mrs) {
            match pressured {
                Some((fabric, server)) if mr.server == server => {
                    wiped += mr.len;
                    let _ = fabric.deregister_mr(mr);
                }
                _ => st.available.entry(mr.server).or_default().push(mr),
            }
        }
        st.wiped_bytes += wiped;
        st.lease_terminal(id);
        Ok(wiped)
    }

    /// Deregister up to `bytes` of `server`'s unleased MRs, newest first;
    /// they count as wiped. Returns the bytes reclaimed.
    fn drain_pool(st: &mut MetaState, fabric: &Fabric, server: ServerId, bytes: u64) -> u64 {
        let mut reclaimed = 0u64;
        if let Some(pool) = st.available.get_mut(&server) {
            while reclaimed < bytes {
                let Some(mr) = pool.pop() else { break };
                reclaimed += mr.len;
                let _ = fabric.deregister_mr(mr);
            }
        }
        st.wiped_bytes += reclaimed;
        reclaimed
    }

    /// Physical bytes (every replica copy) pinned under Active leases in
    /// `rings`.
    fn ring_bytes(st: &MetaState, rings: &std::collections::BTreeSet<LeaseId>) -> u64 {
        rings
            .iter()
            .filter_map(|id| st.leases.get(id))
            .filter(|(_, s)| *s == LeaseState::Active)
            .map(|(l, _)| l.bytes())
            .sum()
    }

    /// Mark an Active lease as the backing of a remote WAL ring.
    ///
    /// Ring space is durability-critical — a committed transaction exists
    /// *only* in the ring until the archiver drains it — so the broker
    /// accounts it separately from cache leases (`broker.wal.rings` /
    /// `broker.wal.ring_bytes`); operators watching donor pressure can see
    /// how much of the pool is not safely sheddable. Unmarked automatically
    /// when the lease is released.
    pub fn mark_wal_ring(&self, id: LeaseId) -> Result<(), BrokerError> {
        let st = self.store.state.lock();
        match st.leases.get(&id) {
            Some((_, LeaseState::Active)) => {}
            Some((_, s)) => return Err(BrokerError::LeaseNotActive(id, *s)),
            None => return Err(BrokerError::UnknownLease(id)),
        }
        let fresh = self.wal_rings.lock().insert(id);
        self.meter(&st, |m| {
            if fresh {
                m.wal_rings.incr();
            }
            let bytes = Self::ring_bytes(&st, &self.wal_rings.lock());
            m.wal_ring_bytes.set(bytes as f64);
        });
        Ok(())
    }

    /// Physical bytes (all replica copies) currently pinned under marked,
    /// still-Active WAL ring leases.
    pub fn wal_ring_bytes(&self) -> u64 {
        let st = self.store.state.lock();
        Self::ring_bytes(&st, &self.wal_rings.lock())
    }

    /// The per-I/O health check: reclaim notice, validity, replica epoch and
    /// replication deficit under one lock, changing nothing.
    pub fn lease_health(&self, id: LeaseId) -> LeaseHealth {
        let st = self.store.state.lock();
        let replicas = st.replicas.get(&id);
        LeaseHealth {
            notice: st.pending_revocations.get(&id).copied(),
            valid: matches!(st.leases.get(&id), Some((_, LeaseState::Active))),
            epoch: replicas.map(ReplicaSet::epoch),
            deficit: replicas.map_or(0, ReplicaSet::deficit),
        }
    }

    #[cfg(test)]
    pub(crate) fn lease_state(&self, id: LeaseId) -> Option<LeaseState> {
        self.store.state.lock().leases.get(&id).map(|(_, s)| *s)
    }

    /// Memory pressure on `server` (the proxy's
    /// `QueryMemoryResourceNotification` path): reclaim up to `bytes`,
    /// preferring unleased MRs, force-revoking active leases only if needed.
    /// Reclaimed MRs are deregistered from the donor NIC and freed to its OS.
    /// Returns the bytes reclaimed.
    pub fn reclaim(&self, fabric: &Fabric, server: ServerId, bytes: u64) -> u64 {
        let mut st = self.store.state.lock();
        let mut reclaimed = Self::drain_pool(&mut st, fabric, server, bytes);
        let mut revoked = 0u64;
        for id in Self::active_on(&st, server) {
            if reclaimed >= bytes {
                break;
            }
            let pressured = Some((fabric, server));
            if let Ok(wiped) = Self::end_lease(&mut st, id, LeaseState::Revoked, pressured) {
                reclaimed += wiped;
                revoked += 1;
            }
        }
        self.meter(&st, |m| {
            m.reclaimed_bytes.add(reclaimed);
            m.revoked.add(revoked);
        });
        self.verify(&st, None);
        reclaimed
    }

    /// A donor server died: drop its pool and degrade every Active lease
    /// touching it. The lease stays Active so its holder keeps using what
    /// survives. A replicated lease drops the dead members from their
    /// groups; a member with surviving peers lost no data (its bytes are
    /// wiped with the donor), and only a group's *last* member parks in
    /// `lost_mrs` / `lost_slots`, for [`Self::re_replicate`]. A single-copy
    /// lease moves its dead MRs to `lost_mrs`, for [`Self::repair_lease`].
    pub fn server_failed(&self, server: ServerId) {
        let mut guard = self.store.state.lock();
        let st = &mut *guard;
        // the donor's unleased pool died with it
        if let Some(pool) = st.available.remove(&server) {
            st.wiped_bytes += pool.iter().map(|m| m.len).sum::<u64>();
        }
        st.failed_servers.insert(server);
        st.pending_revocations.retain(|_, (s, _)| *s != server);
        let victims = Self::active_on(st, server);
        for &id in &victims {
            let Some((lease, _)) = st.leases.get_mut(&id) else {
                continue;
            };
            let on_dead = |m: &MrHandle| m.server == server;
            let lost = match st.replicas.get_mut(&id) {
                Some(rs) => {
                    let mut lost = Vec::new();
                    for (slot, dead) in rs.drop_server(server) {
                        if rs.groups()[slot].is_empty() {
                            rs.park_lost(slot, dead);
                            lost.push(dead);
                        } else {
                            st.wiped_bytes += dead.len;
                        }
                    }
                    rs.bump_epoch();
                    lost
                }
                None => lease.mrs.iter().copied().filter(on_dead).collect(),
            };
            lease.mrs.retain(|m| !on_dead(m));
            if !lost.is_empty() {
                st.lost_mrs.entry(id).or_default().extend(lost);
            }
        }
        self.meter(st, |m| m.degraded.add(victims.len() as u64));
        self.verify(st, None);
    }

    /// A crashed donor came back (its proxy will re-donate fresh MRs).
    pub fn server_recovered(&self, server: ServerId) {
        self.store.state.lock().failed_servers.remove(&server);
    }

    /// Two-phase memory pressure on `server`: reclaim unleased MRs
    /// immediately, then — if short — *notify* the Active leases touching
    /// the server instead of revoking them, giving their holders
    /// `grace_period` to flush, migrate or surrender. Past the deadline,
    /// [`Self::finalize_revocations`] collects what remains.
    ///
    /// Returns `(bytes reclaimed now, leases put on notice)`.
    pub fn request_reclaim(
        &self,
        now: SimTime,
        fabric: &Fabric,
        server: ServerId,
        bytes: u64,
    ) -> (u64, Vec<LeaseId>) {
        let mut st = self.store.state.lock();
        let mut reclaimed = Self::drain_pool(&mut st, fabric, server, bytes);
        let mut notified = Vec::new();
        if reclaimed < bytes {
            let deadline = now + self.cfg.grace_period;
            for id in Self::active_on(&st, server) {
                if let Entry::Vacant(notice) = st.pending_revocations.entry(id) {
                    notice.insert((server, deadline));
                    notified.push(id);
                }
            }
        }
        // bound the grace-window queue: a holder that never re-attaches
        // would grow it without limit. Past the cap, force-finalize the
        // oldest notices (earliest deadline, stable id tie-break) early.
        let mut expired = 0u64;
        while st.pending_revocations.len() > MAX_PENDING_REVOCATIONS {
            let Some((id, srv)) = st
                .pending_revocations
                .iter()
                .min_by_key(|(id, (_, deadline))| (*deadline, **id))
                .map(|(id, (srv, _))| (*id, *srv))
            else {
                break;
            };
            st.pending_revocations.remove(&id);
            expired += 1;
            let pressured = Some((fabric, srv));
            if let Ok(wiped) = Self::end_lease(&mut st, id, LeaseState::Revoked, pressured) {
                reclaimed += wiped;
            }
        }
        self.meter(&st, |m| {
            m.reclaimed_bytes.add(reclaimed);
            if expired > 0 {
                m.revocations_expired.add(expired);
                m.revoked.add(expired);
            }
        });
        self.verify(&st, Some(now));
        (reclaimed, notified)
    }

    /// Collect pending revocations whose grace window has passed: leases
    /// still holding MRs on the pressured server are revoked, the pressured
    /// MRs deregistered, the rest returned to the pool. Returns the bytes
    /// reclaimed for the pressured donors.
    pub fn finalize_revocations(&self, fabric: &Fabric, now: SimTime) -> u64 {
        let mut st = self.store.state.lock();
        // id order, so the pool's MR order is replay-deterministic
        let due: Vec<(LeaseId, ServerId)> = st
            .pending_revocations
            .iter()
            .filter(|(_, (_, deadline))| now >= *deadline)
            .map(|(id, (server, _))| (*id, *server))
            .collect();
        let mut reclaimed = 0u64;
        let mut revoked = 0u64;
        for (id, server) in due {
            st.pending_revocations.remove(&id);
            let pressured = Some((fabric, server));
            if let Ok(wiped) = Self::end_lease(&mut st, id, LeaseState::Revoked, pressured) {
                reclaimed += wiped;
                revoked += 1;
            }
        }
        self.meter(&st, |m| {
            m.reclaimed_bytes.add(reclaimed);
            m.revoked.add(revoked);
        });
        self.verify(&st, Some(now));
        reclaimed
    }

    /// Grant extra MRs to an Active lease — the migration path: a holder on
    /// notice asks for replacement capacity *while its old MRs are still
    /// readable*, copies the data over, then surrenders the old MRs.
    /// `avoid` (typically the pressured or failing donor) is excluded. A
    /// replicated lease is refused: MRs outside its replica groups would
    /// break replica conservation, and it sheds the pressured copy with
    /// [`Self::surrender_mrs`] instead.
    pub fn request_extra(
        &self,
        clock: &mut Clock,
        id: LeaseId,
        bytes: u64,
        avoid: ServerId,
    ) -> Result<Vec<MrHandle>, BrokerError> {
        clock.advance(self.cfg.rpc_time);
        let mut st = self.store.state.lock();
        let holder = Self::active_holder(&st, id)?;
        if st.replicas.contains_key(&id) {
            return Err(BrokerError::Internal(
                "replicated leases migrate by surrendering a replica",
            ));
        }
        let picked = Self::extend_lease(&mut st, id, bytes, &[holder, avoid])?;
        self.verify(&st, Some(clock.now()));
        Ok(picked)
    }

    /// Remove and deregister a lease's MRs on `server` (the tail end of a
    /// migration, or a voluntary partial give-back under pressure). Clears
    /// any pending revocation notice for the lease. The lease stays Active.
    /// A replicated lease may not surrender a slot's last copy. Returns the
    /// bytes surrendered.
    pub fn surrender_mrs(
        &self,
        clock: &mut Clock,
        id: LeaseId,
        server: ServerId,
        fabric: &Fabric,
    ) -> Result<u64, BrokerError> {
        clock.advance(self.cfg.rpc_time);
        let mut guard = self.store.state.lock();
        let st = &mut *guard;
        let (lease, state) = st
            .leases
            .get_mut(&id)
            .ok_or(BrokerError::UnknownLease(id))?;
        if *state != LeaseState::Active {
            return Err(BrokerError::LeaseNotActive(id, *state));
        }
        let sole = |g: &Vec<MrHandle>| matches!(g[..], [only] if only.server == server);
        if st
            .replicas
            .get(&id)
            .is_some_and(|rs| rs.groups().iter().any(sole))
        {
            return Err(BrokerError::Internal(
                "surrender would drop a slot's last replica",
            ));
        }
        let gone: Vec<MrHandle> = lease
            .mrs
            .iter()
            .filter(|m| m.server == server)
            .copied()
            .collect();
        lease.mrs.retain(|m| m.server != server);
        st.pending_revocations.remove(&id);
        if let Some(rs) = st.replicas.get_mut(&id) {
            // shed the surrendered members from their groups; anti-affinity
            // means each group loses at most one, so survivors keep serving
            if !rs.drop_server(server).is_empty() {
                rs.bump_epoch();
            }
        }
        let mut freed = 0;
        for mr in gone {
            freed += mr.len;
            let _ = fabric.deregister_mr(mr);
        }
        st.wiped_bytes += freed;
        self.meter(st, |m| m.reclaimed_bytes.add(freed));
        self.verify(st, Some(clock.now()));
        Ok(freed)
    }

    /// Re-lease replacement capacity for the MRs a degraded lease lost to a
    /// donor crash. All-or-nothing: on success the replacements (fresh,
    /// zero-content pool MRs) are appended to the lease and the lost set is
    /// cleared; on insufficient memory nothing changes and the caller may
    /// retry later. Returns `(lost, replacements)` so the holder can map
    /// dead stripes onto the new MRs.
    pub fn repair_lease(
        &self,
        clock: &mut Clock,
        id: LeaseId,
    ) -> Result<(Vec<MrHandle>, Vec<MrHandle>), BrokerError> {
        clock.advance(self.cfg.rpc_time);
        let mut st = self.store.state.lock();
        let holder = Self::active_holder(&st, id)?;
        if st.replicas.contains_key(&id) {
            // replacements here would bypass the group bookkeeping and
            // break replica conservation
            return Err(BrokerError::Internal(
                "replicated leases heal via re_replicate",
            ));
        }
        let lost = st.lost_mrs.remove(&id).unwrap_or_default();
        if lost.is_empty() {
            return Ok((Vec::new(), Vec::new()));
        }
        let need: u64 = lost.iter().map(|m| m.len).sum();
        let picked = match Self::extend_lease(&mut st, id, need, &[holder]) {
            Ok(p) => p,
            Err(e) => {
                st.lost_mrs.insert(id, lost);
                return Err(e);
            }
        };
        // the dead stripes' bytes leave the `lost` bucket: replacements are
        // now leased, the originals died with their donor
        st.wiped_bytes += need;
        self.meter(&st, |m| m.repaired.incr());
        self.verify(&st, Some(clock.now()));
        Ok((lost, picked))
    }

    /// Pick MRs totalling at least `bytes` from the pools (skipping
    /// `exclude`) and append them to lease `id`. All-or-nothing.
    fn extend_lease(
        st: &mut MetaState,
        id: LeaseId,
        bytes: u64,
        exclude: &[ServerId],
    ) -> Result<Vec<MrHandle>, BrokerError> {
        let picked = Self::pick_from_pool(st, bytes, exclude)?;
        let Some((lease, _)) = st.leases.get_mut(&id) else {
            // can't happen while the caller holds the lock; undo the pool
            // pops and surface the inconsistency instead of panicking
            st.return_to_pools(picked);
            return Err(BrokerError::Internal("lease vanished mid-grant"));
        };
        lease.mrs.extend(picked.iter().copied());
        Ok(picked)
    }

    /// Pop MRs totalling at least `bytes` from the pool, skipping `exclude`
    /// and failed servers: drain each donor's pool from the tail, in stable
    /// donor order, before moving to the next (Pack placement).
    /// All-or-nothing.
    fn pick_from_pool(
        st: &mut MetaState,
        bytes: u64,
        exclude: &[ServerId],
    ) -> Result<Vec<MrHandle>, BrokerError> {
        let mut picked = Vec::new();
        let mut got = 0u64;
        for donor in Self::donors(st, exclude) {
            let Some(pool) = st.available.get_mut(&donor) else {
                continue;
            };
            while got < bytes {
                let Some(mr) = pool.pop() else { break };
                got += mr.len;
                picked.push(mr);
            }
            if got >= bytes {
                return Ok(picked);
            }
        }
        st.return_to_pools(picked);
        Err(BrokerError::InsufficientMemory {
            requested: bytes,
            available: got,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::MemoryProxy;
    use remem_net::NetConfig;

    const MR: u64 = 1 << 20; // 1 MiB regions in tests

    fn cluster(donors: usize, mrs_each: usize) -> (Fabric, MemoryBroker, ServerId) {
        let fabric = Fabric::new(NetConfig::default());
        let db = fabric.add_server("DB1", 20);
        let broker = MemoryBroker::new(BrokerConfig::default(), MetaStore::new());
        for i in 0..donors {
            let m = fabric.add_server(format!("M{i}"), 20);
            let mut proxy_clock = Clock::new();
            let proxy = MemoryProxy::new(m, MR);
            proxy
                .donate(&mut proxy_clock, &fabric, &broker, mrs_each as u64 * MR)
                .unwrap();
        }
        (fabric, broker, db)
    }

    #[test]
    fn note_pushdown_publishes_ops_rows_and_cpu() {
        let broker = MemoryBroker::new(BrokerConfig::default(), MetaStore::new());
        let registry = MetricsRegistry::shared();
        broker.set_metrics(Some(Arc::clone(&registry)));
        broker.note_pushdown(SimDuration::from_micros(5), 100);
        broker.note_pushdown(SimDuration::from_micros(5), 50);
        let counter = |name: &str| registry.counter(name).get();
        assert_eq!(counter("broker.pushdown.ops"), 2);
        assert_eq!(counter("broker.pushdown.rows"), 150);
        assert_eq!(counter("broker.pushdown.cpu_ns"), 10_000);
    }

    #[test]
    fn grant_renew_release_cycle() {
        let (_fabric, broker, db) = cluster(1, 4);
        let mut clock = Clock::new();
        assert_eq!(broker.store().available_bytes(), 4 * MR);
        let lease = broker.request_lease(&mut clock, db, 2 * MR).unwrap();
        assert_eq!(lease.bytes(), 2 * MR);
        assert_eq!(broker.store().available_bytes(), 2 * MR);
        assert!(broker.lease_health(lease.id).valid);
        // the lease holds, as a renewing holder's would, until it is released
        clock.advance(SimDuration::from_secs(60));
        assert!(broker.lease_health(lease.id).valid);
        broker.release(&mut clock, lease.id).unwrap();
        assert_eq!(broker.store().available_bytes(), 4 * MR);
        assert_eq!(broker.lease_state(lease.id), Some(LeaseState::Released));
        assert!(!broker.lease_health(lease.id).valid);
        // operations on a released lease fail
        assert_eq!(
            broker.release(&mut clock, lease.id),
            Err(BrokerError::LeaseNotActive(lease.id, LeaseState::Released))
        );
    }

    #[test]
    fn insufficient_memory_is_all_or_nothing() {
        let (_fabric, broker, db) = cluster(1, 2);
        let mut clock = Clock::new();
        let err = broker.request_lease(&mut clock, db, 3 * MR).unwrap_err();
        assert!(matches!(err, BrokerError::InsufficientMemory { .. }));
        // nothing was consumed by the failed request
        assert_eq!(broker.store().available_bytes(), 2 * MR);
    }

    #[test]
    fn spread_policy_uses_all_donors() {
        let fabric = Fabric::new(NetConfig::default());
        let db = fabric.add_server("DB1", 20);
        let cfg = BrokerConfig {
            placement: PlacementPolicy::Spread,
            ..Default::default()
        };
        let broker = MemoryBroker::new(cfg, MetaStore::new());
        for i in 0..4 {
            let m = fabric.add_server(format!("M{i}"), 20);
            let mut pc = Clock::new();
            MemoryProxy::new(m, MR)
                .donate(&mut pc, &fabric, &broker, 2 * MR)
                .unwrap();
        }
        let mut clock = Clock::new();
        let lease = broker.request_lease(&mut clock, db, 4 * MR).unwrap();
        assert_eq!(lease.servers().len(), 4, "spread should touch all 4 donors");
    }

    #[test]
    fn pack_policy_prefers_one_donor() {
        let (_fabric, broker2, db2) = cluster(3, 4);
        let mut clock = Clock::new();
        let lease = broker2.request_lease(&mut clock, db2, 3 * MR).unwrap();
        assert_eq!(lease.servers().len(), 1, "pack should stay on one donor");
    }

    #[test]
    fn reclaim_prefers_unleased_then_revokes() {
        let (fabric, broker, db) = cluster(1, 4);
        let donor = ServerId(1);
        let mut clock = Clock::new();
        let lease = broker.request_lease(&mut clock, db, 2 * MR).unwrap();
        // 2 MR unleased: pressure for 1 MR touches no lease
        let got = broker.reclaim(&fabric, donor, MR);
        assert_eq!(got, MR);
        assert!(broker.lease_health(lease.id).valid);
        // pressure for 2 more MR: 1 unleased + revoke the lease
        let got = broker.reclaim(&fabric, donor, 2 * MR);
        assert!(got >= 2 * MR);
        assert_eq!(broker.lease_state(lease.id), Some(LeaseState::Revoked));
    }

    #[test]
    fn broker_failover_preserves_leases() {
        let (_fabric, broker, db) = cluster(1, 2);
        let mut clock = Clock::new();
        let lease = broker.request_lease(&mut clock, db, MR).unwrap();
        // the broker process dies; a new one is elected over the same store
        let store = broker.store().clone();
        drop(broker);
        let broker2 = MemoryBroker::new(BrokerConfig::default(), store);
        assert_eq!(broker2.lease_state(lease.id), Some(LeaseState::Active));
        assert_eq!(broker2.store().available_bytes(), MR);
        broker2.release(&mut clock, lease.id).unwrap();
        assert_eq!(broker2.store().available_bytes(), 2 * MR);
    }

    #[test]
    fn graceful_reclaim_spares_a_lease_that_surrenders_in_time() {
        let (fabric, broker, db) = cluster(1, 4);
        let donor = ServerId(1);
        let mut clock = Clock::new();
        let lease = broker.request_lease(&mut clock, db, 2 * MR).unwrap();
        // pressure for all 4 MR: 2 unleased reclaimed now, lease put on notice
        let (got, notified) = broker.request_reclaim(clock.now(), &fabric, donor, 4 * MR);
        assert_eq!(got, 2 * MR);
        assert_eq!(notified, vec![lease.id]);
        let (srv, deadline) = broker.lease_health(lease.id).notice.unwrap();
        assert_eq!(srv, donor);
        assert!(deadline > clock.now());
        // holder gives the memory back inside the window
        let freed = broker
            .surrender_mrs(&mut clock, lease.id, donor, &fabric)
            .unwrap();
        assert_eq!(freed, 2 * MR);
        assert_eq!(broker.lease_health(lease.id).notice, None);
        // the deadline passes: nothing left to take, lease still Active
        clock.advance_to(deadline + SimDuration::from_micros(1));
        assert_eq!(broker.finalize_revocations(&fabric, clock.now()), 0);
        assert_eq!(broker.lease_state(lease.id), Some(LeaseState::Active));
    }

    #[test]
    fn missed_grace_window_forces_revocation() {
        let (fabric, broker, db) = cluster(1, 2);
        let donor = ServerId(1);
        let mut clock = Clock::new();
        let lease = broker.request_lease(&mut clock, db, 2 * MR).unwrap();
        let (got, notified) = broker.request_reclaim(clock.now(), &fabric, donor, 2 * MR);
        assert_eq!(got, 0);
        assert_eq!(notified, vec![lease.id]);
        let (_, deadline) = broker.lease_health(lease.id).notice.unwrap();
        // before the deadline nothing happens
        assert_eq!(broker.finalize_revocations(&fabric, clock.now()), 0);
        assert_eq!(broker.lease_state(lease.id), Some(LeaseState::Active));
        // the holder ignores the notice; past the deadline the broker takes it
        assert_eq!(broker.finalize_revocations(&fabric, deadline), 2 * MR);
        assert_eq!(broker.lease_state(lease.id), Some(LeaseState::Revoked));
    }

    #[test]
    fn request_extra_enables_migration_off_a_pressured_donor() {
        let fabric = Fabric::new(NetConfig::default());
        let db = fabric.add_server("DB1", 20);
        let broker = MemoryBroker::new(BrokerConfig::default(), MetaStore::new());
        for i in 0..2 {
            let m = fabric.add_server(format!("M{i}"), 20);
            let mut pc = Clock::new();
            MemoryProxy::new(m, MR)
                .donate(&mut pc, &fabric, &broker, 2 * MR)
                .unwrap();
        }
        let mut clock = Clock::new();
        // Pack fills M0 (ServerId(1)) first
        let lease = broker.request_lease(&mut clock, db, 2 * MR).unwrap();
        let pressured = lease.mrs[0].server;
        let extra = broker
            .request_extra(&mut clock, lease.id, 2 * MR, pressured)
            .unwrap();
        assert!(extra
            .iter()
            .all(|m| m.server != pressured && m.server != db));
        broker
            .surrender_mrs(&mut clock, lease.id, pressured, &fabric)
            .unwrap();
        let st = broker.store().state.lock().leases[&lease.id].0.clone();
        assert_eq!(st.bytes(), 2 * MR);
        assert!(st.mrs.iter().all(|m| m.server != pressured));
    }

    #[test]
    fn donor_failure_degrades_auto_renewed_leases_and_repair_restores() {
        let fabric = Fabric::new(NetConfig::default());
        let db = fabric.add_server("DB1", 20);
        let cfg = BrokerConfig {
            placement: PlacementPolicy::Spread,
            ..Default::default()
        };
        let broker = MemoryBroker::new(cfg, MetaStore::new());
        for i in 0..3 {
            let m = fabric.add_server(format!("M{i}"), 20);
            let mut pc = Clock::new();
            MemoryProxy::new(m, MR)
                .donate(&mut pc, &fabric, &broker, 2 * MR)
                .unwrap();
        }
        let mut clock = Clock::new();
        let lease = broker.request_lease(&mut clock, db, 3 * MR).unwrap();
        let dead = lease.mrs[0].server;
        let lost_bytes: u64 = lease
            .mrs
            .iter()
            .filter(|m| m.server == dead)
            .map(|m| m.len)
            .sum();
        broker.server_failed(dead);
        // degraded, not revoked
        assert_eq!(broker.lease_state(lease.id), Some(LeaseState::Active));
        let (lost, replacements) = broker.repair_lease(&mut clock, lease.id).unwrap();
        assert_eq!(lost.iter().map(|m| m.len).sum::<u64>(), lost_bytes);
        assert_eq!(replacements.iter().map(|m| m.len).sum::<u64>(), lost_bytes);
        assert!(replacements
            .iter()
            .all(|m| m.server != dead && m.server != db));
        // second repair is a no-op
        assert_eq!(
            broker.repair_lease(&mut clock, lease.id).unwrap(),
            (vec![], vec![])
        );
    }

    #[test]
    fn repair_waits_for_capacity_and_recovered_donors_serve_again() {
        let fabric = Fabric::new(NetConfig::default());
        let db = fabric.add_server("DB1", 20);
        let broker = MemoryBroker::new(BrokerConfig::default(), MetaStore::new());
        let m = fabric.add_server("M0", 20);
        let mut pc = Clock::new();
        MemoryProxy::new(m, MR)
            .donate(&mut pc, &fabric, &broker, 2 * MR)
            .unwrap();
        let mut clock = Clock::new();
        let lease = broker.request_lease(&mut clock, db, 2 * MR).unwrap();
        broker.server_failed(m);
        // only donor is gone: repair must fail without corrupting state
        assert!(matches!(
            broker.repair_lease(&mut clock, lease.id),
            Err(BrokerError::InsufficientMemory { .. })
        ));
        assert_eq!(broker.lease_state(lease.id), Some(LeaseState::Active));
        // and fresh leases can't be placed anywhere either
        assert!(broker.request_lease(&mut clock, db, MR).is_err());
        // donor restarts and re-donates
        fabric.server(m).unwrap().restart();
        broker.server_recovered(m);
        MemoryProxy::new(m, MR)
            .donate(&mut pc, &fabric, &broker, 2 * MR)
            .unwrap();
        let (lost, replacements) = broker.repair_lease(&mut clock, lease.id).unwrap();
        assert_eq!(lost.len(), 2);
        assert_eq!(replacements.len(), 2);
        assert!(
            broker.request_lease(&mut clock, db, MR).is_err(),
            "pool fully re-leased"
        );
    }

    #[test]
    fn metrics_track_lease_lifecycle() {
        let registry = MetricsRegistry::shared();
        let fabric = Fabric::new(NetConfig::default());
        let db = fabric.add_server("DB1", 20);
        let broker = MemoryBroker::new(BrokerConfig::default(), MetaStore::new());
        broker.set_metrics(Some(Arc::clone(&registry)));
        let m = fabric.add_server("M0", 20);
        let mut pc = Clock::new();
        MemoryProxy::new(m, MR)
            .donate(&mut pc, &fabric, &broker, 4 * MR)
            .unwrap();
        assert_eq!(registry.counter("broker.donated.bytes").get(), 4 * MR);

        let mut clock = Clock::new();
        let lease = broker.request_lease(&mut clock, db, 2 * MR).unwrap();
        assert_eq!(registry.counter("broker.leases.granted").get(), 1);
        assert_eq!(registry.counter("broker.leased.bytes").get(), 2 * MR);
        assert_eq!(registry.gauge("broker.leases.active").get(), 1.0);

        broker.release(&mut clock, lease.id).unwrap();
        assert_eq!(registry.counter("broker.leases.released").get(), 1);
        assert_eq!(registry.gauge("broker.leases.active").get(), 0.0);

        // a second lease revoked by donor pressure
        let lease2 = broker.request_lease(&mut clock, db, 4 * MR).unwrap();
        broker.reclaim(&fabric, m, 4 * MR);
        assert_eq!(broker.lease_state(lease2.id), Some(LeaseState::Revoked));
        assert_eq!(registry.counter("broker.leases.revoked").get(), 1);
        assert_eq!(registry.counter("broker.reclaimed.bytes").get(), 4 * MR);
    }

    #[test]
    fn replicated_lease_is_anti_affine_and_capacity_aware() {
        let (_fabric, broker, db) = cluster(3, 4);
        let mut clock = Clock::new();
        let lease = broker
            .request_replicated_lease(&mut clock, db, 2 * MR, 2)
            .unwrap();
        // 2 logical MRs, each replicated twice
        assert_eq!(lease.bytes(), 4 * MR);
        let (epoch, groups) = broker.replica_view(lease.id).unwrap();
        assert_eq!(epoch, 0);
        assert_eq!(groups.len(), 2);
        for g in &groups {
            assert_eq!(g.len(), 2);
            assert_ne!(g[0].server, g[1].server, "replicas must not share a donor");
        }
        assert_eq!(broker.replication_deficit(lease.id), 0);
    }

    #[test]
    fn replicated_lease_needs_k_donors() {
        let (_fabric, broker, db) = cluster(1, 8);
        let mut clock = Clock::new();
        let err = broker
            .request_replicated_lease(&mut clock, db, MR, 2)
            .unwrap_err();
        assert!(matches!(err, BrokerError::InsufficientMemory { .. }));
        // all-or-nothing: nothing consumed
        assert_eq!(broker.store().available_bytes(), 8 * MR);
    }

    #[test]
    fn replica_failover_prunes_group_and_re_replicate_heals() {
        let (_fabric, broker, db) = cluster(3, 4);
        let mut clock = Clock::new();
        let lease = broker
            .request_replicated_lease(&mut clock, db, 2 * MR, 2)
            .unwrap();
        let (_, groups) = broker.replica_view(lease.id).unwrap();
        let dead = groups[0][0].server;
        broker.server_failed(dead);
        // still Active, epoch bumped, dead members pruned
        assert_eq!(broker.lease_state(lease.id), Some(LeaseState::Active));
        let (epoch, groups) = broker.replica_view(lease.id).unwrap();
        assert_eq!(epoch, 1);
        assert!(groups.iter().all(|g| !g.is_empty()));
        assert!(groups.iter().flatten().all(|m| m.server != dead));
        assert!(broker.replication_deficit(lease.id) > 0);
        // the holder was not degraded into lost_mrs: surviving replicas
        // still hold every byte
        assert!(broker.store().state.lock().lost_mrs.is_empty());
        let repairs = broker.re_replicate(&mut clock, lease.id).unwrap();
        assert!(!repairs.is_empty());
        for r in &repairs {
            assert!(r.source.is_some(), "survivor must seed the new member");
            assert_eq!(r.added.len(), 1);
            assert_ne!(r.added[0].server, r.source.unwrap().server);
            assert_ne!(r.added[0].server, dead);
        }
        assert_eq!(broker.replication_deficit(lease.id), 0);
        let (epoch, _) = broker.replica_view(lease.id).unwrap();
        assert_eq!(epoch, 2);
        // nothing further to heal
        assert!(broker
            .re_replicate(&mut clock, lease.id)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn losing_every_replica_parks_the_slot_and_heals_by_zero_fill() {
        let (_fabric, broker, db) = cluster(4, 2);
        let mut clock = Clock::new();
        let lease = broker
            .request_replicated_lease(&mut clock, db, MR, 2)
            .unwrap();
        let (_, groups) = broker.replica_view(lease.id).unwrap();
        let (a, b) = (groups[0][0].server, groups[0][1].server);
        broker.server_failed(a);
        broker.server_failed(b);
        assert_eq!(broker.lease_state(lease.id), Some(LeaseState::Active));
        let (_, groups) = broker.replica_view(lease.id).unwrap();
        assert!(groups[0].is_empty());
        let repairs = broker.re_replicate(&mut clock, lease.id).unwrap();
        assert_eq!(repairs.len(), 1);
        assert!(repairs[0].source.is_none(), "content is gone: zero-fill");
        assert_eq!(repairs[0].added.len(), 2);
        assert_eq!(broker.replication_deficit(lease.id), 0);
        assert!(broker.store().state.lock().lost_mrs.is_empty());
    }

    #[test]
    fn surrender_prunes_replica_groups_and_bumps_epoch() {
        let (fabric, broker, db) = cluster(3, 2);
        let mut clock = Clock::new();
        let lease = broker
            .request_replicated_lease(&mut clock, db, MR, 2)
            .unwrap();
        let (_, groups) = broker.replica_view(lease.id).unwrap();
        let shed = groups[0][1].server;
        let freed = broker
            .surrender_mrs(&mut clock, lease.id, shed, &fabric)
            .unwrap();
        assert_eq!(freed, MR);
        let (epoch, groups) = broker.replica_view(lease.id).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(groups[0].len(), 1);
        assert!(broker.replication_deficit(lease.id) > 0);
    }

    #[test]
    fn maintained_deficit_is_audited_through_every_membership_change() {
        let (fabric, broker, db) = cluster(6, 4);
        let aud = Arc::new(Auditor::new()); // panics on the first violation
        broker.set_auditor(Some(Arc::clone(&aud)));
        let mut clock = Clock::new();
        let lease = broker
            .request_replicated_lease(&mut clock, db, 2 * MR, 2)
            .unwrap();
        // every group member is one MR, so the deficit is countable by hand
        let by_hand = |broker: &MemoryBroker| {
            let (_, groups) = broker.replica_view(lease.id).unwrap();
            groups
                .iter()
                .map(|g| (2 - g.len()) as u64 * MR)
                .sum::<u64>()
        };
        let check = |broker: &MemoryBroker, want_degraded: bool| {
            let deficit = broker.replication_deficit(lease.id);
            assert_eq!(deficit, by_hand(broker));
            assert_eq!(deficit > 0, want_degraded);
            assert_eq!(broker.lease_health(lease.id).deficit, deficit);
        };
        check(&broker, false);
        let (_, groups) = broker.replica_view(lease.id).unwrap();
        // prune (one member), heal, then lose a whole group, heal, then shed
        broker.server_failed(groups[0][0].server);
        check(&broker, true);
        broker.re_replicate(&mut clock, lease.id).unwrap();
        check(&broker, false);
        let (_, groups) = broker.replica_view(lease.id).unwrap();
        broker.server_failed(groups[1][0].server);
        broker.server_failed(groups[1][1].server);
        check(&broker, true);
        broker.re_replicate(&mut clock, lease.id).unwrap();
        check(&broker, false);
        let (_, groups) = broker.replica_view(lease.id).unwrap();
        let shed = groups[0][1].server;
        broker
            .surrender_mrs(&mut clock, lease.id, shed, &fabric)
            .unwrap();
        check(&broker, true);
        assert!(aud.checks() > 0, "the auditor was consulted");
    }

    #[test]
    fn repair_lease_refuses_replicated_leases() {
        let (_fabric, broker, db) = cluster(2, 2);
        let mut clock = Clock::new();
        let lease = broker
            .request_replicated_lease(&mut clock, db, MR, 2)
            .unwrap();
        assert!(matches!(
            broker.repair_lease(&mut clock, lease.id),
            Err(BrokerError::Internal(_))
        ));
    }

    #[test]
    fn pending_revocations_are_bounded_with_expiry_counter() {
        let registry = MetricsRegistry::shared();
        let fabric = Fabric::new(NetConfig::default());
        let db = fabric.add_server("DB1", 20);
        let broker = MemoryBroker::new(BrokerConfig::default(), MetaStore::new());
        broker.set_metrics(Some(Arc::clone(&registry)));
        const SMALL: u64 = 4096;
        let m = fabric.add_server("M0", 20);
        let mut pc = Clock::new();
        let n = MAX_PENDING_REVOCATIONS + 16;
        MemoryProxy::new(m, SMALL)
            .donate(&mut pc, &fabric, &broker, n as u64 * SMALL)
            .unwrap();
        let mut clock = Clock::new();
        let mut ids = Vec::new();
        for _ in 0..n {
            ids.push(broker.request_lease(&mut clock, db, SMALL).unwrap().id);
        }
        // pressure the donor for everything: every lease goes on notice,
        // but the queue stays capped and the overflow is force-revoked
        let (_, notified) = broker.request_reclaim(clock.now(), &fabric, m, n as u64 * SMALL);
        assert_eq!(notified.len(), n);
        let queued = broker.store().state.lock().pending_revocations.len();
        assert_eq!(queued, MAX_PENDING_REVOCATIONS);
        assert_eq!(
            registry.counter("broker.revocations_expired").get(),
            16,
            "overflow notices are force-finalized and counted"
        );
        let revoked = ids
            .iter()
            .filter(|id| broker.lease_state(**id) == Some(LeaseState::Revoked))
            .count();
        assert_eq!(revoked, 16);
    }

    #[test]
    fn never_leases_own_memory_back() {
        let fabric = Fabric::new(NetConfig::default());
        let broker = MemoryBroker::new(BrokerConfig::default(), MetaStore::new());
        let only = fabric.add_server("S", 20);
        let mut pc = Clock::new();
        MemoryProxy::new(only, MR)
            .donate(&mut pc, &fabric, &broker, 2 * MR)
            .unwrap();
        let mut clock = Clock::new();
        let err = broker.request_lease(&mut clock, only, MR).unwrap_err();
        assert!(matches!(err, BrokerError::InsufficientMemory { .. }));
    }
}
