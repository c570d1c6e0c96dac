//! Replication (`cfg.replicas ≥ 2`): the epoch fence, local failover,
//! quorum-write targets, and re-replication.

use remem_net::{Fabric, MrHandle, NetError, QuorumWrite};
use remem_sim::{Clock, FaultOrigin};
use remem_storage::StorageError;

use crate::engine::same_mr;
use crate::file::{unavailable, FileState, RemoteFile};
use crate::lease::{short_of_memory, ZERO_ATTEMPTS};

impl RemoteFile {
    /// Epoch fence: if the broker's replica epoch for this lease has moved
    /// past the one the extent map was built against, adopt it (see
    /// [`Self::adopt_epoch`]). Returns whether anything changed. Free of
    /// virtual-time cost: the fence piggybacks on lease-validity traffic the
    /// holder already pays for.
    pub(crate) fn refresh_replicas(&self) -> bool {
        let id = self.state.lock().lease.id;
        let fenced = self.broker.replica_epoch(id);
        fenced.is_some_and(|epoch| self.adopt_epoch(id, epoch))
    }

    /// Given the broker's current `epoch` for lease `id`: when it differs
    /// from the file's, pull the group table, re-point every extent at its
    /// group's current preferred member and adopt the new epoch. The table
    /// is only copied when membership actually changed.
    pub(crate) fn adopt_epoch(&self, id: remem_broker::LeaseId, epoch: u64) -> bool {
        if epoch == self.state.lock().epoch {
            return false;
        }
        let Some((epoch, groups)) = self.broker.replica_view(id) else {
            return false;
        };
        let mut st = self.state.lock();
        for (e, g) in st.extents.iter_mut().zip(&groups) {
            // an empty group is a wholly lost slot; its extent keeps the
            // stale handle until heal_replicas re-seeds it
            if let Some(&first) = g.first() {
                e.mr = first;
                e.mr_off = 0;
            }
        }
        st.lease.mrs = groups.iter().flatten().copied().collect();
        st.groups = groups;
        st.epoch = epoch;
        true
    }

    /// Local read failover without broker traffic: the failed member moves
    /// to the back of its group and the extent re-points at the next
    /// candidate. Used when a replica stops answering *before* the broker
    /// has fenced a new epoch (e.g. a network blackout the broker never
    /// sees). Returns whether the preferred member actually changed — a
    /// rotation that leaves the head in place would just retry the same
    /// failing target.
    pub(crate) fn rotate_preferred(&self, failed: MrHandle) -> bool {
        let mut st = self.state.lock();
        let found = st.groups.iter().enumerate().find_map(|(gi, g)| {
            let pos = g.iter().position(|&m| same_mr(m, failed))?;
            Some((gi, pos))
        });
        let Some((gi, pos)) = found else {
            return false;
        };
        let group = &mut st.groups[gi];
        if group.len() < 2 {
            return false;
        }
        let mr = group.remove(pos);
        group.push(mr);
        if pos != 0 {
            // a spare moved to the back: the preferred member is unchanged
            return false;
        }
        let preferred = group[0];
        if let Some(e) = st.extents.get_mut(gi) {
            e.mr = preferred;
            e.mr_off = 0;
        }
        true
    }

    /// Quorum-write `data` to every live replica of the stripe in extent
    /// slot `slot`, which `preferred` serves. Replica groups are carved 1:1
    /// from equal-length MRs at `mr_off = 0`, so the one offset `within`
    /// addresses the same bytes on every member. The target list is built in
    /// the file's reusable scratch, under the state lock.
    pub(crate) fn write_replicas(
        &self,
        clock: &mut Clock,
        slot: usize,
        preferred: MrHandle,
        within: u64,
        data: &[u8],
    ) -> Result<QuorumWrite, NetError> {
        let mut st = self.state.lock();
        let FileState {
            groups, targets, ..
        } = &mut *st;
        targets.clear();
        match groups.get(slot) {
            Some(g) if g.iter().any(|&m| same_mr(m, preferred)) => {
                targets.extend(g.iter().map(|&m| (m, within)));
            }
            // a wholly lost slot: only the stale handle is left to try
            _ => targets.push((preferred, within)),
        }
        self.fabric
            .write_quorum(clock, self.cfg.protocol, self.local, targets, data)
    }

    /// Restore every degraded replica group to `k` members: ask the broker
    /// for replacement MRs on donors that don't already host the group,
    /// connect, seed each new member (copy from a surviving replica, or —
    /// when the whole group died — zero-fill and report the range lost),
    /// then adopt the bumped epoch. All-or-nothing on the broker side, so a
    /// failed heal leaves the file serving from the survivors it had.
    pub(crate) fn heal_replicas(&self, clock: &mut Clock) -> Result<(), StorageError> {
        let id = self.state.lock().lease.id;
        if !self.cfg.self_heal {
            // spill semantics: a slot with every copy dead is unrecoverable
            // data, and must fail loudly *before* the broker hands out
            // fresh MRs that would silently read as garbage
            let lost_slot = self
                .broker
                .replica_view(id)
                .is_some_and(|(_, gs)| gs.iter().any(|g| g.is_empty()));
            if lost_slot {
                return Err(unavailable(
                    "replica group lost every copy; spill contents unrecoverable",
                ));
            }
        }
        let repairs = self
            .broker
            .re_replicate(clock, id)
            .map_err(short_of_memory("re-replication"))?;
        if repairs.is_empty() {
            self.refresh_replicas();
            return Ok(());
        }
        let added = repairs.iter().flat_map(|r| &r.added);
        self.connect_all(clock, added.map(|mr| mr.server))?;
        let mut healed_bytes = 0u64;
        for r in &repairs {
            // the slot's file range, from the fixed extent map
            let (start, len) = {
                let st = self.state.lock();
                let e = &st.extents[r.slot.min(st.extents.len() - 1)];
                (e.start, e.len)
            };
            let seed = match r.source {
                Some(src) => {
                    // survivor → new member copy; the source stays live and
                    // readable, so only transient faults are retried here
                    let mut buf = vec![0u8; src.len as usize];
                    self.seed_io(clock, |clock, fab| {
                        fab.read(clock, self.cfg.protocol, self.local, src, 0, &mut buf)
                    })?;
                    buf
                }
                // the whole group died: contents are gone. self_heal was
                // checked up front, so zero-fill and report the range.
                None => vec![0u8; len as usize],
            };
            for mr in &r.added {
                self.seed_io(clock, |clock, fab| {
                    // audit: allow(quorum-write, seeding a new replica writes that one member by design)
                    fab.write(clock, self.cfg.protocol, self.local, *mr, 0, &seed)
                })?;
            }
            if r.source.is_none() {
                self.state.lock().report_lost(start, len, self.size);
            }
            healed_bytes += len * r.added.len() as u64;
        }
        self.refresh_replicas();
        self.repairs.incr();
        self.note(
            clock.now(),
            FaultOrigin::Recovery,
            "rfile.re_replicate",
            format!(
                "{healed_bytes} B re-replicated across {} slots",
                repairs.len()
            ),
        );
        Ok(())
    }

    /// One replica-seeding transfer with transient-fault retries (same
    /// budget as stripe zeroing). A fatal fault aborts the heal — the
    /// backoff machinery of `try_repair` schedules the next attempt.
    fn seed_io(
        &self,
        clock: &mut Clock,
        mut op: impl FnMut(&mut Clock, &Fabric) -> Result<(), NetError>,
    ) -> Result<(), StorageError> {
        let mut attempt = 0;
        loop {
            match op(clock, &self.fabric) {
                Ok(()) => return Ok(()),
                Err(NetError::Transient { .. }) if attempt + 1 < ZERO_ATTEMPTS => {
                    clock.advance(self.cfg.retry_backoff * (1 << attempt.min(6)));
                    attempt += 1;
                }
                Err(e) => return Err(unavailable(format!("replica seed: {e}"))),
            }
        }
    }
}
