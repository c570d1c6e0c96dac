//! Cost constants for the fabric, calibrated against the paper.
//!
//! Sources for each constant:
//! * RDMA read latency "~10 µs", NIC "56 Gbps" — paper §1 and Table 3.
//! * MR registration "50 µs for an 8K page", memcpy "2 µs" — §4.1.4 / §4.2.
//! * MR limits "2 GB per MR, ~130 K MRs" — Appendix A.
//! * Protocol throughput/latency targets — Figures 3 and 4.

use remem_sim::SimDuration;

/// All tunable fabric constants. `NetConfig::default()` is the paper's
/// hardware (Table 3); tests construct variants to probe edge cases.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Effective NIC data bandwidth, bytes/sec. FDR Infiniband is 56 Gbps on
    /// the wire; after protocol overheads the paper observes ~5.1-5.5 GB/s.
    pub nic_bandwidth: u64,
    /// One-way propagation + switch latency.
    pub propagation: SimDuration,
    /// Fixed per-operation time on the NIC pipe (doorbell, DMA setup, WQE
    /// processing). Dominates small-transfer throughput.
    pub rdma_op_overhead: SimDuration,
    /// Completion cost for a *synchronous* (spin) RDMA op: the paper's Custom
    /// design spins a few microseconds instead of yielding.
    pub sync_completion: SimDuration,
    /// Extra latency when an RDMA op is treated as an *asynchronous I/O*:
    /// context switch out + I/O completion processing + re-schedule delay.
    /// §6.2.1 measures 272 µs for SMBDirect vs 13 µs for Custom on the same
    /// hardware path; most of the gap is this penalty plus SMB overheads.
    pub async_completion: SimDuration,
    /// Fixed per-op cost added by the SMB Direct file protocol + RamDrive
    /// filesystem on the remote side (charged on the pipe: request
    /// processing serializes on the NIC's message path).
    pub smbdirect_op_overhead: SimDuration,
    /// Effective TCP bandwidth (kernel stack, copies): ~3.5 GB/s on this
    /// hardware (Fig. 3: SMB+RamDrive sequential = 3.36 GB/s).
    pub tcp_bandwidth: u64,
    /// Fixed per-op pipe cost of the TCP/SMB path (syscalls, interrupts,
    /// SMB framing).
    pub tcp_op_overhead: SimDuration,
    /// Fixed per-op latency of the TCP round trip (not occupying the pipe).
    pub tcp_fixed_latency: SimDuration,
    /// Remote CPU time consumed per TCP operation (kernel receive path,
    /// interrupt handling, SMB server, and the cache pollution the paper
    /// calls out). RDMA consumes none — that is Fig. 13's entire story.
    pub tcp_remote_cpu_per_op: SimDuration,
    /// Remote CPU time per KiB transferred over TCP (copy costs).
    pub tcp_remote_cpu_per_kib: SimDuration,
    /// Cost to register a memory region with the NIC (pin + page-table
    /// update), independent of size for the sizes we use.
    pub mr_register: SimDuration,
    /// Additional registration cost per 8 KiB page pinned (page-table entry
    /// writes). Makes registering large regions proportionally expensive.
    pub mr_register_per_page: SimDuration,
    /// Largest single MR the NIC supports (2 GB on ConnectX-3).
    pub max_mr_size: u64,
    /// Maximum number of registered MRs (~130 K on ConnectX-3).
    pub max_mr_count: usize,
    /// Local memcpy bandwidth (staging-buffer copies): 8 KiB in 2 µs = 4 GB/s.
    pub memcpy_bandwidth: u64,
    /// Queue-pair connection setup time (Open in Table 2).
    pub connect_time: SimDuration,
    /// Local DRAM access for one 8 KiB page (0.1 µs, §6 takeaways).
    pub local_memory_8k: SimDuration,
    /// Fixed server-side CPU cost to dispatch one pushdown RPC (request
    /// parse + program setup + reply post). Farview-style near-memory
    /// operators are cheap to start but not free.
    pub pushdown_cpu_per_op: SimDuration,
    /// Server CPU per row evaluated by a pushdown program (predicate eval +
    /// projection/aggregate update on decoded fields).
    pub pushdown_cpu_per_row: SimDuration,
    /// Server CPU per KiB of page bytes scanned by a pushdown program
    /// (sequential DRAM streaming at ~20 GB/s per core).
    pub pushdown_cpu_per_kib: SimDuration,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            nic_bandwidth: 5_500_000_000,
            propagation: SimDuration::from_micros(2),
            rdma_op_overhead: SimDuration::from_nanos(600),
            sync_completion: SimDuration::from_micros(5),
            async_completion: SimDuration::from_micros(60),
            smbdirect_op_overhead: SimDuration::from_micros(4),
            tcp_bandwidth: 3_500_000_000,
            tcp_op_overhead: SimDuration::from_micros(9),
            tcp_fixed_latency: SimDuration::from_micros(50),
            tcp_remote_cpu_per_op: SimDuration::from_micros(20),
            tcp_remote_cpu_per_kib: SimDuration::from_nanos(250),
            mr_register: SimDuration::from_micros(50),
            mr_register_per_page: SimDuration::from_nanos(200),
            max_mr_size: 2 << 30,
            max_mr_count: 130_000,
            memcpy_bandwidth: 4_000_000_000,
            connect_time: SimDuration::from_micros(500),
            local_memory_8k: SimDuration::from_nanos(100),
            pushdown_cpu_per_op: SimDuration::from_micros(1),
            pushdown_cpu_per_row: SimDuration::from_nanos(30),
            pushdown_cpu_per_kib: SimDuration::from_nanos(50),
        }
    }
}

impl NetConfig {
    /// Duration of a local memcpy of `bytes` (staging-buffer copies).
    pub fn memcpy(&self, bytes: u64) -> SimDuration {
        SimDuration::for_transfer(bytes, self.memcpy_bandwidth)
    }

    /// Cost of registering an MR of `bytes` with the NIC.
    pub fn registration_cost(&self, bytes: u64) -> SimDuration {
        let pages = bytes.div_ceil(8192);
        self.mr_register + self.mr_register_per_page * pages
    }

    /// Local DRAM access time for `bytes` (linear in 8 KiB pages).
    #[cfg(test)]
    pub(crate) fn local_memory_access(&self, bytes: u64) -> SimDuration {
        let pages = bytes.div_ceil(8192).max(1);
        SimDuration::from_nanos(self.local_memory_8k.as_nanos() * pages)
    }

    /// Server CPU consumed by one pushdown eval: fixed dispatch plus per-row
    /// and per-KiB-scanned charges. Used by the fabric to charge the memory
    /// server's cores and by the engine's planner to price pushdown.
    pub fn pushdown_eval_cost(&self, rows_scanned: u64, bytes_scanned: u64) -> SimDuration {
        self.pushdown_cpu_per_op
            + self.pushdown_cpu_per_row * rows_scanned
            + self.pushdown_cpu_per_kib * bytes_scanned.div_ceil(1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = NetConfig::default();
        // 8 KiB page memcpy ≈ 2 µs (§4.2)
        let m = c.memcpy(8192).as_micros_f64();
        assert!((1.9..=2.2).contains(&m), "memcpy {m}us");
        // registration of one page ≈ 50 µs (§4.1.4)
        let r = c.registration_cost(8192).as_micros_f64();
        assert!((49.0..=52.0).contains(&r), "register {r}us");
        // memcpy is ~25x cheaper than registration — the staging-buffer
        // design decision in Table 1 only makes sense if this holds.
        assert!(r / m > 10.0);
    }

    #[test]
    fn registration_scales_with_pages() {
        let c = NetConfig::default();
        let small = c.registration_cost(8192);
        let big = c.registration_cost(1 << 20); // 128 pages
        assert!(big > small);
        assert!(
            big < SimDuration::from_micros(200),
            "big registration {big}"
        );
    }

    #[test]
    fn pushdown_eval_cost_scales_with_rows_and_bytes() {
        let c = NetConfig::default();
        let base = c.pushdown_eval_cost(0, 0);
        assert_eq!(base, c.pushdown_cpu_per_op);
        // one 8 KiB page of ~32 rows ≈ 1 µs dispatch + ~1 µs of eval
        let page = c.pushdown_eval_cost(32, 8192);
        assert!(page > base);
        assert!(page < SimDuration::from_micros(5), "page eval {page}");
        // eval CPU for a page is the same order as shipping the page over
        // the wire — pushdown wins on *bytes*, not on raw single-op time.
        let wire = SimDuration::for_transfer(8192, c.nic_bandwidth);
        assert!(page.as_nanos() < wire.as_nanos() * 4);
    }

    #[test]
    fn local_memory_is_two_orders_faster_than_rdma() {
        let c = NetConfig::default();
        let local = c.local_memory_access(8192);
        // an unloaded RDMA page read ≈ overhead + ser + prop + spin ≈ 9 µs
        let rdma_est = c.rdma_op_overhead
            + SimDuration::for_transfer(8192, c.nic_bandwidth)
            + c.propagation
            + c.sync_completion;
        assert!(rdma_est.as_nanos() / local.as_nanos() > 50);
    }
}
