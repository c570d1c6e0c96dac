//! Lease upkeep: validity and self-heal — stripe re-lease after a donor
//! crash, full re-acquisition after a revocation.

use std::collections::BTreeSet;

use remem_broker::{BrokerError, MemoryBroker};
use remem_net::{MrHandle, NetError, ServerId};
use remem_sim::{Clock, FaultOrigin, SimDuration, SimTime};
use remem_storage::StorageError;

use crate::config::RFileConfig;
use crate::file::{unavailable, Extent, FileState, RemoteFile};

/// Base backoff between self-heal (re-lease) attempts; doubles per failed
/// attempt up to [`REPAIR_BACKOFF_CAP`] so a dead cluster isn't hammered
/// with broker RPCs on every access.
const REPAIR_BACKOFF_BASE: SimDuration = SimDuration::from_millis(1);
const REPAIR_BACKOFF_CAP: SimDuration = SimDuration::from_secs(5);
/// Attempts to zero a freshly re-leased stripe before giving up (the range
/// is reported lost either way, so caches above discard it).
pub(crate) const ZERO_ATTEMPTS: u32 = 16;

/// Word a broker refusal during `what`, naming a capacity shortfall as such.
pub(crate) fn short_of_memory(what: &'static str) -> impl Fn(BrokerError) -> StorageError {
    move |e| match e {
        BrokerError::InsufficientMemory { .. } => {
            unavailable(format!("{what} short of memory: {e}"))
        }
        other => unavailable(other),
    }
}

impl FileState {
    /// Lease MRs covering `size` bytes — every stripe from `cfg.replicas`
    /// distinct donors when replicated — and map the file onto them in
    /// lease order. `refused` words the broker's refusal for the caller.
    pub(crate) fn acquire(
        clock: &mut Clock,
        broker: &MemoryBroker,
        local: ServerId,
        size: u64,
        cfg: &RFileConfig,
        refused: impl FnOnce(BrokerError) -> StorageError,
    ) -> Result<FileState, StorageError> {
        let replicated = cfg.replicas > 1;
        let lease = if replicated {
            broker.request_replicated_lease(clock, local, size, cfg.replicas)
        } else {
            broker.request_lease(clock, local, size)
        }
        .map_err(refused)?;
        // Replicated extent map: strictly one extent per replica group, in
        // slot order, backed by the group's preferred (first) member at
        // `mr_off = 0`. All members of a group have equal length, so a file
        // offset maps to the same MR offset on every replica — failover is
        // a handle swap, never a re-carve.
        let (epoch, groups, backing) = if replicated {
            let view = broker.replica_view(lease.id);
            let (epoch, groups) = view.ok_or_else(|| unavailable("replica set missing"))?;
            let preferred = groups.iter().filter_map(|g| g.first().copied()).collect();
            (epoch, groups, preferred)
        } else {
            (0, Vec::new(), lease.mrs.clone())
        };
        let mut extents = Vec::with_capacity(backing.len());
        let mut start = 0u64;
        for mr in backing {
            extents.push(Extent {
                start,
                len: mr.len,
                mr,
                mr_off: 0,
            });
            start += mr.len;
        }
        Ok(FileState {
            extents,
            lease,
            groups,
            epoch,
            lost_ranges: Vec::new(),
            pending_heal: BTreeSet::new(),
            next_repair: SimTime::ZERO,
            repair_backoff: REPAIR_BACKOFF_BASE,
            targets: Vec::new(),
        })
    }

    /// Swap the `dead` MRs out of the lease for `replacements`, and the
    /// extents they backed for `fresh` ones covering the same file ranges.
    fn rebase(
        &mut self,
        dead: impl Fn(&MrHandle) -> bool,
        fresh: &[Extent],
        replacements: &[MrHandle],
    ) {
        self.extents.retain(|e| !dead(&e.mr));
        self.extents.extend_from_slice(fresh);
        self.extents.sort_by_key(|e| e.start);
        self.lease.mrs.retain(|m| !dead(m));
        self.lease.mrs.extend_from_slice(replacements);
    }
}

impl RemoteFile {
    /// Check lease validity: a lease holds until released or revoked.
    /// Self-healing files re-acquire a revoked lease from scratch; others
    /// fail with `Unavailable`.
    pub(crate) fn ensure_lease(&self, clock: &mut Clock) -> Result<(), StorageError> {
        let id = self.state.lock().lease.id;
        let health = self.broker.lease_health(id);
        if let Some(epoch) = health.epoch {
            self.adopt_epoch(id, epoch);
        }
        if !health.valid {
            if self.cfg.self_heal {
                return self.try_repair(clock);
            }
            return Err(unavailable("remote memory lease lost"));
        }
        if health.deficit > 0 {
            // best effort: reads still serve from the survivors, so a heal
            // that can't find donors yet must not fail the access
            let _ = self.try_repair(clock);
        }
        Ok(())
    }

    /// Re-back the file ranges in `needs` with the `replacements` MRs,
    /// splitting ranges across MR boundaries as needed. Returns the new
    /// extents grouped per need, in order. The broker is supposed to hand
    /// back at least as many bytes as were lost; if it short-changes us
    /// that is a metadata bug this layer surfaces as an error rather than
    /// a panic mid-repair.
    fn carve(
        replacements: &[MrHandle],
        needs: &[Extent],
    ) -> Result<Vec<Vec<Extent>>, StorageError> {
        let mut out = Vec::with_capacity(needs.len());
        let mut ri = 0usize;
        let mut roff = 0u64;
        for need in needs {
            let mut parts = Vec::new();
            let mut start = need.start;
            let mut rem = need.len;
            while rem > 0 {
                let Some(&mr) = replacements.get(ri) else {
                    return Err(unavailable(
                        "replacement MRs cover fewer bytes than the lost ranges",
                    ));
                };
                let take = rem.min(mr.len - roff);
                parts.push(Extent {
                    start,
                    len: take,
                    mr,
                    mr_off: roff,
                });
                start += take;
                rem -= take;
                roff += take;
                if roff == mr.len {
                    ri += 1;
                    roff = 0;
                }
            }
            out.push(parts);
        }
        Ok(out)
    }

    /// Self-heal after a fatal fault, gated by exponential backoff:
    /// re-lease dead stripes (donor crash) or re-acquire the whole lease
    /// (revocation). Repaired ranges come back zeroed and are
    /// reported through [`Device::drain_lost_ranges`].
    pub(crate) fn try_repair(&self, clock: &mut Clock) -> Result<(), StorageError> {
        let id = {
            let st = self.state.lock();
            if clock.now() < st.next_repair {
                return Err(unavailable("remote file awaiting repair"));
            }
            st.lease.id
        };
        let outcome = if self.broker.lease_health(id).valid {
            if self.replicated() {
                self.heal_replicas(clock)
            } else {
                self.repair_stripes(clock, id)
            }
        } else {
            self.relearn_lease(clock)
        };
        let mut st = self.state.lock();
        if outcome.is_ok() {
            st.next_repair = clock.now();
            st.repair_backoff = REPAIR_BACKOFF_BASE;
        } else {
            st.next_repair = clock.now() + st.repair_backoff;
            st.repair_backoff = (st.repair_backoff * 2).min(REPAIR_BACKOFF_CAP);
        }
        outcome
    }

    /// Replace the stripes the broker recorded as lost (donor crash) with
    /// fresh MRs from surviving donors, zeroing them and recording the file
    /// ranges as lost.
    fn repair_stripes(
        &self,
        clock: &mut Clock,
        id: remem_broker::LeaseId,
    ) -> Result<(), StorageError> {
        let (lost, replacements) = self
            .broker
            .repair_lease(clock, id)
            .map_err(short_of_memory("stripe repair"))?;
        if lost.is_empty() {
            return Ok(());
        }
        self.connect_all(clock, replacements.iter().map(|mr| mr.server))?;
        let (needs, fresh) = {
            let mut st = self.state.lock();
            let dead = |m: &MrHandle| lost.iter().any(|l| l.server == m.server && l.mr == m.mr);
            let needs: Vec<Extent> = st.extents.iter().filter(|e| dead(&e.mr)).copied().collect();
            let fresh: Vec<Extent> = Self::carve(&replacements, &needs)?
                .into_iter()
                .flatten()
                .collect();
            st.rebase(dead, &fresh, &replacements);
            for need in &needs {
                st.report_lost(need.start, need.len, self.size);
            }
            (needs, fresh)
        };
        // Pool MRs carry whatever bytes the previous lessee left; zero them
        // so unwritten space still reads as zero after repair.
        self.zero_extents(clock, &fresh);
        let bytes: u64 = needs.iter().map(|e| e.len).sum();
        self.repairs.incr();
        self.note(
            clock.now(),
            FaultOrigin::Recovery,
            "rfile.repair",
            format!("{bytes} B re-leased across {} stripes", needs.len()),
        );
        Ok(())
    }

    /// The lease itself is gone (revoked): acquire a fresh one
    /// covering the whole file. All contents are lost.
    fn relearn_lease(&self, clock: &mut Clock) -> Result<(), StorageError> {
        let refused = |e| unavailable(format!("re-lease failed: {e}"));
        let (broker, cfg) = (&self.broker, &self.cfg);
        let mut fresh = FileState::acquire(clock, broker, self.local, self.size, cfg, refused)?;
        self.connect_all(clock, fresh.lease.servers())?;
        // every member of every group starts with pool garbage: zero the
        // preferred extents below, plus the non-preferred members here
        let spares: Vec<Extent> = fresh
            .groups
            .iter()
            .zip(&fresh.extents)
            .flat_map(|(g, e)| g.iter().skip(1).map(|&mr| Extent { mr, ..*e }))
            .collect();
        fresh.report_lost(0, self.size, self.size);
        let extents = fresh.extents.clone();
        *self.state.lock() = fresh;
        self.zero_extents(clock, &extents);
        self.zero_extents(clock, &spares);
        self.repairs.incr();
        self.note(
            clock.now(),
            FaultOrigin::Recovery,
            "rfile.repair",
            format!("full re-lease of {} B", self.size),
        );
        Ok(())
    }

    /// Zero freshly (re-)leased extents, retrying through transient faults.
    /// Persistent failure is recorded but not fatal: the covering ranges are
    /// already in `lost_ranges`, so caches above discard them regardless.
    fn zero_extents(&self, clock: &mut Clock, extents: &[Extent]) {
        // one scratch buffer sized for the largest extent, reused across the
        // loop — repair must not allocate per stripe
        let max = extents.iter().map(|e| e.len).max().unwrap_or(0) as usize;
        let zeros = vec![0u8; max];
        for e in extents {
            let zeros = &zeros[..e.len as usize];
            // stops at the first success (`true`) or fatal fault (`false`)
            let zeroed = (0..ZERO_ATTEMPTS).find_map(|attempt| {
                match self
                    .fabric
                    // audit: allow(quorum-write, zeroing one freshly leased stripe before it serves I/O)
                    .write(clock, self.cfg.protocol, self.local, e.mr, e.mr_off, zeros)
                {
                    Ok(()) => Some(true),
                    Err(NetError::Transient { .. }) => {
                        clock.advance(self.cfg.retry_backoff * (1 << attempt.min(6)));
                        None
                    }
                    Err(_) => Some(false),
                }
            });
            if zeroed != Some(true) {
                self.note(
                    clock.now(),
                    FaultOrigin::Observed,
                    "rfile.zero_failed",
                    format!("stripe at {} ({} B) left unzeroed", e.start, e.len),
                );
            }
        }
    }
}
