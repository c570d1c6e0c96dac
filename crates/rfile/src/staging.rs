//! Pre-registered staging buffers ("Pinned MR" in Figure 1).
//!
//! SQL Server's buffer pool is not contiguous and interleaves with other
//! memory consumers, so pages cannot be pre-registered in place. Instead
//! each CPU scheduler owns a small pinned staging MR: an evicted page is
//! memcpy'd into the staging buffer (≈2 µs, vs ≈50 µs to register the page)
//! and the RDMA write is issued from there; the buffer-pool frame frees
//! immediately after the memcpy. The staging buffer bounds in-flight
//! transfers: 1 MiB holds 128 pending 8 K pages per scheduler.

use remem_sim::{Clock, PoolResource, SimTime};

/// CPU schedulers issuing I/O to a remote file, each with its own staging
/// buffer.
pub(crate) const SCHEDULERS: usize = 8;

/// Per-scheduler staging buffer size: 1 MiB sustains 128 in-flight 8 K
/// transfers per scheduler (§4.2).
pub(crate) const STAGING_BYTES: u64 = 1 << 20;

/// The pool of staging slots across all schedulers.
///
/// Modelled as `schedulers * slots_per_scheduler` servers, each occupied for
/// the duration of one transfer (memcpy + RDMA). When every slot is pending
/// the next transfer queues — which is how the 1 MiB sizing trade-off of
/// §4.2 manifests.
pub struct StagingBuffers {
    slots: PoolResource,
}

impl StagingBuffers {
    /// `staging_bytes` per scheduler, divided into `page_bytes` slots.
    pub fn new(schedulers: usize, staging_bytes: u64, page_bytes: u64) -> StagingBuffers {
        assert!(page_bytes > 0 && staging_bytes >= page_bytes);
        let per_sched = (staging_bytes / page_bytes) as usize;
        StagingBuffers {
            slots: PoolResource::new(schedulers.max(1) * per_sched.max(1)),
        }
    }

    pub fn total_slots(&self) -> usize {
        self.slots.servers()
    }

    /// Occupy one staging slot from `clock.now()` until `transfer_end`
    /// (computed by the caller once the RDMA completes), charging any wait
    /// for a free slot to the clock first. Returns the instant the slot
    /// became available (the transfer may begin then).
    pub(crate) fn acquire_slot(
        &self,
        clock: &mut Clock,
        transfer_duration: remem_sim::SimDuration,
    ) -> SimTime {
        let g = self.slots.acquire(clock.now(), transfer_duration);
        clock.advance_to(g.start);
        g.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remem_sim::SimDuration;

    #[test]
    fn paper_sizing_gives_128_slots_per_scheduler() {
        let s = StagingBuffers::new(1, 1 << 20, 8192);
        assert_eq!(s.total_slots(), 128);
        let s8 = StagingBuffers::new(8, 1 << 20, 8192);
        assert_eq!(s8.total_slots(), 1024);
    }

    #[test]
    fn exhausted_slots_queue_the_caller() {
        let s = StagingBuffers::new(1, 16384, 8192); // 2 slots
        let d = SimDuration::from_micros(100);
        let mut c = Clock::new();
        let t1 = s.acquire_slot(&mut c, d);
        let t2 = s.acquire_slot(&mut c, d);
        assert_eq!(t1, SimTime::ZERO);
        assert_eq!(t2, SimTime::ZERO);
        // third must wait for a slot to free at 100us
        let t3 = s.acquire_slot(&mut c, d);
        assert_eq!(t3.as_nanos(), 100_000);
        assert_eq!(c.now().as_nanos(), 100_000, "wait charged to the caller");
    }
}
