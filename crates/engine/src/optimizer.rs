//! Cost-based plan choice, re-calibrated for remote memory (Fig. 15b).
//!
//! The optimizer prices an index-nested-loop join (random seeks into the
//! inner index) against a hash join (sequential scan of the inner) using a
//! per-tier [`DeviceProfile`]. Because a seek into remote memory costs tens
//! of microseconds instead of an SSD's hundreds, the INLJ/HJ crossover moves
//! to much lower selectivity when the index is pinned in remote memory —
//! which is exactly what §3.3 argues the cost model must be re-calibrated
//! for.

use remem_net::NetConfig;
use remem_sim::SimDuration;

use crate::config::CpuCosts;

/// Where an access path's pages live, priced per 8 KiB page.
#[derive(Debug, Clone, Copy)]
pub struct DeviceProfile {
    pub label: &'static str,
    /// Cost of one random page access.
    pub random_page: SimDuration,
    /// Cost of one page within a sequential scan.
    pub seq_page: SimDuration,
}

impl DeviceProfile {
    /// Local DRAM (buffer-pool hit).
    #[cfg(test)]
    pub(crate) fn local_memory() -> DeviceProfile {
        DeviceProfile {
            label: "LocalMemory",
            random_page: SimDuration::from_nanos(100),
            seq_page: SimDuration::from_nanos(100),
        }
    }

    /// Remote memory over RDMA (Custom): ~10 µs random, wire-speed scans.
    pub fn remote_memory() -> DeviceProfile {
        DeviceProfile {
            label: "RemoteMemory",
            random_page: SimDuration::from_micros(10),
            seq_page: SimDuration::from_nanos(1_600),
        }
    }

    /// The SAS SSD of Table 3: ~250 µs random service, ~21 µs/page at its
    /// 0.39 GB/s sequential ceiling.
    pub fn ssd() -> DeviceProfile {
        DeviceProfile {
            label: "SSD",
            random_page: SimDuration::from_micros(250),
            seq_page: SimDuration::from_micros(21),
        }
    }

    /// The RAID-0 HDD array with `spindles` members: seeks cost ~6 ms, but
    /// aggregate sequential bandwidth is `spindles × 90 MB/s`.
    pub fn hdd(spindles: u64) -> DeviceProfile {
        DeviceProfile {
            label: "HDD",
            random_page: SimDuration::from_micros(6_000),
            seq_page: SimDuration::for_transfer(8192, 90_000_000 * spindles.max(1)),
        }
    }
}

/// The two join strategies the optimizer chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPlan {
    IndexNestedLoop,
    HashJoin,
}

/// Inputs to the join-costing decision.
#[derive(Debug, Clone, Copy)]
pub struct JoinEstimate {
    /// Rows surviving the outer predicate (selectivity × outer cardinality).
    pub outer_rows: u64,
    /// Inner table cardinality.
    pub inner_rows: u64,
    /// Pages in the inner access path (index leaf pages for a scan).
    pub inner_pages: u64,
    /// Levels in the inner index (pages touched per seek).
    pub index_height: u64,
}

/// The priced alternatives and the chosen plan.
#[derive(Debug, Clone, Copy)]
pub struct PlanChoice {
    pub plan: JoinPlan,
    pub inlj_cost: SimDuration,
    pub hash_cost: SimDuration,
}

/// Price INLJ vs. hash join given where the inner index lives.
pub fn choose_join(est: JoinEstimate, index_tier: DeviceProfile, costs: &CpuCosts) -> PlanChoice {
    // INLJ: each outer row descends the index — `height` page accesses, of
    // which the upper levels are usually cached; charge one uncached random
    // access plus CPU for the cached descent.
    let seek_cpu = SimDuration::from_nanos(
        costs.compare.as_nanos() * 9 * est.index_height
            + costs.page_fix.as_nanos() * est.index_height,
    );
    let per_seek = index_tier.random_page + seek_cpu;
    let inlj_cost = SimDuration::from_nanos(per_seek.as_nanos() * est.outer_rows)
        + SimDuration::from_nanos(costs.row_output.as_nanos() * est.outer_rows);

    // Hash join: sequentially scan the inner, hash both sides.
    let scan = SimDuration::from_nanos(index_tier.seq_page.as_nanos() * est.inner_pages);
    let build = SimDuration::from_nanos(costs.row_hash.as_nanos() * est.inner_rows);
    let probe = SimDuration::from_nanos(costs.row_hash.as_nanos() * est.outer_rows);
    let hash_cost = scan + build + probe;

    let plan = if inlj_cost <= hash_cost {
        JoinPlan::IndexNestedLoop
    } else {
        JoinPlan::HashJoin
    };
    PlanChoice {
        plan,
        inlj_cost,
        hash_cost,
    }
}

/// The outer-row count at which the plans cost the same (the crossover the
/// Fig. 15b experiment sweeps across). Found by binary search over the
/// monotone cost difference.
pub fn crossover_outer_rows(
    inner_rows: u64,
    inner_pages: u64,
    index_height: u64,
    index_tier: DeviceProfile,
    costs: &CpuCosts,
) -> u64 {
    let mut lo = 0u64;
    let mut hi = inner_rows.max(2) * 4;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let est = JoinEstimate {
            outer_rows: mid,
            inner_rows,
            inner_pages,
            index_height,
        };
        match choose_join(est, index_tier, costs).plan {
            JoinPlan::IndexNestedLoop => lo = mid + 1,
            JoinPlan::HashJoin => hi = mid,
        }
    }
    lo
}

/// The two ways to run a remote scan: ship every page over the fabric and
/// filter on the engine, or push the program to the memory servers and
/// fetch only the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanPlan {
    /// One-sided vectored reads of the whole span, predicate evaluated on
    /// the engine's cores.
    FullFetch,
    /// Pushdown RPC per extent: server-side eval, compacted replies.
    Pushdown,
}

/// Inputs to the fetch-vs-pushdown decision.
#[derive(Debug, Clone, Copy)]
pub struct ScanEstimate {
    /// 8 KiB pages in the scanned span.
    pub pages: u64,
    /// Average rows per page.
    pub rows_per_page: u64,
    /// Expected fraction of rows surviving the predicates (0.0 ..= 1.0).
    pub selectivity: f64,
    /// Average encoded bytes of one delivered row (post-projection).
    pub reply_row_bytes: u64,
    /// Encoded size of the pushdown program (request bytes per RPC).
    pub program_bytes: u64,
    /// Extent chunks the span fans out to (one RPC each).
    pub chunks: u64,
    /// Partial-aggregate scan: the reply is one fixed-size partial per
    /// chunk instead of row payloads.
    pub aggregate: bool,
}

impl ScanEstimate {
    /// Expected delivered rows.
    pub(crate) fn matched_rows(&self) -> u64 {
        let rows = (self.pages * self.rows_per_page) as f64;
        (rows * self.selectivity.clamp(0.0, 1.0)).round() as u64
    }
}

/// The priced alternatives and the chosen scan plan.
#[derive(Debug, Clone, Copy)]
pub struct ScanChoice {
    pub plan: ScanPlan,
    pub full_cost: SimDuration,
    pub pushdown_cost: SimDuration,
}

/// Price a one-sided full fetch against a pushdown RPC scan.
///
/// Full fetch pays wire time for every page plus engine CPU for every row
/// (`row_scan` covers predicate eval + copy-out); pushdown pays the
/// server-side eval charge ([`NetConfig::pushdown_eval_cost`]) plus wire
/// time for the compacted reply, and the engine only touches rows that
/// matched. Both sides pay `row_output` per delivered row, so the decision
/// turns on selectivity × row width — the Farview/REMOP crossover.
pub fn choose_scan(
    est: ScanEstimate,
    span_tier: DeviceProfile,
    net: &NetConfig,
    costs: &CpuCosts,
) -> ScanChoice {
    let rows = est.pages * est.rows_per_page;
    let matched = est.matched_rows();
    let span_bytes = est.pages * 8192;

    // Full fetch: every page over the wire, every row through the engine.
    let wire_full = SimDuration::from_nanos(span_tier.seq_page.as_nanos() * est.pages);
    let filter_cpu = SimDuration::from_nanos(costs.row_scan.as_nanos() * rows);
    let out_full = SimDuration::from_nanos(costs.row_output.as_nanos() * matched);
    let full_cost = wire_full + filter_cpu + out_full;

    // Pushdown: tiny requests out, server eval, compacted replies back.
    let reply_bytes = if est.aggregate {
        // one fixed-width partial per chunk
        est.chunks * remem_storage::PARTIAL_AGG_BYTES as u64
    } else {
        matched * est.reply_row_bytes
    };
    let wire_push = SimDuration::for_transfer(
        est.chunks * est.program_bytes + reply_bytes,
        net.nic_bandwidth,
    ) + net.rdma_op_overhead * (2 * est.chunks)
        + (net.propagation + net.sync_completion) * est.chunks;
    let eval_cpu = net.pushdown_eval_cost(rows, span_bytes)
        + net.pushdown_cpu_per_op * est.chunks.saturating_sub(1);
    let consumed = if est.aggregate { est.chunks } else { matched };
    let consume_cpu = SimDuration::from_nanos(costs.row_scan.as_nanos() * consumed);
    let out_push = SimDuration::from_nanos(costs.row_output.as_nanos() * matched);
    let pushdown_cost = wire_push + eval_cpu + consume_cpu + out_push;

    let plan = if pushdown_cost < full_cost {
        ScanPlan::Pushdown
    } else {
        ScanPlan::FullFetch
    };
    ScanChoice {
        plan,
        full_cost,
        pushdown_cost,
    }
}

/// The selectivity at which full fetch starts beating pushdown, found by
/// binary search over parts-per-million (the cost difference is monotone in
/// selectivity, mirroring [`crossover_outer_rows`]). Returns 1.0 when
/// pushdown wins everywhere (e.g. aggregates, whose reply never grows).
pub fn crossover_selectivity(
    template: ScanEstimate,
    span_tier: DeviceProfile,
    net: &NetConfig,
    costs: &CpuCosts,
) -> f64 {
    let mut lo = 0u64;
    let mut hi = 1_000_000u64;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let est = ScanEstimate {
            selectivity: mid as f64 / 1e6,
            ..template
        };
        match choose_scan(est, span_tier, net, costs).plan {
            ScanPlan::Pushdown => lo = mid + 1,
            ScanPlan::FullFetch => hi = mid,
        }
    }
    lo as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(outer: u64) -> JoinEstimate {
        JoinEstimate {
            outer_rows: outer,
            inner_rows: 1_000_000,
            inner_pages: 40_000,
            index_height: 3,
        }
    }

    #[test]
    fn tiny_outer_prefers_inlj_everywhere() {
        let costs = CpuCosts::default();
        for tier in [
            DeviceProfile::ssd(),
            DeviceProfile::remote_memory(),
            DeviceProfile::local_memory(),
        ] {
            let c = choose_join(est(10), tier, &costs);
            assert_eq!(c.plan, JoinPlan::IndexNestedLoop, "tier {}", tier.label);
        }
    }

    #[test]
    fn huge_outer_prefers_hash_everywhere() {
        let costs = CpuCosts::default();
        for tier in [
            DeviceProfile::ssd(),
            DeviceProfile::remote_memory(),
            DeviceProfile::hdd(20),
        ] {
            let c = choose_join(est(4_000_000), tier, &costs);
            assert_eq!(c.plan, JoinPlan::HashJoin, "tier {}", tier.label);
        }
    }

    /// The Fig. 15b claim: pinning the index in remote memory moves the
    /// INLJ→HJ crossover to much higher selectivity than on SSD.
    #[test]
    fn crossover_moves_with_the_tier() {
        let costs = CpuCosts::default();
        let ssd = crossover_outer_rows(1_000_000, 40_000, 3, DeviceProfile::ssd(), &costs);
        let remote =
            crossover_outer_rows(1_000_000, 40_000, 3, DeviceProfile::remote_memory(), &costs);
        let local =
            crossover_outer_rows(1_000_000, 40_000, 3, DeviceProfile::local_memory(), &costs);
        assert!(
            remote > ssd * 5,
            "remote-memory crossover ({remote}) should dwarf SSD's ({ssd})"
        );
        assert!(local >= remote, "local memory is at least as seek-friendly");
    }

    #[test]
    fn hdd_crossover_is_lowest() {
        let costs = CpuCosts::default();
        let hdd = crossover_outer_rows(1_000_000, 40_000, 3, DeviceProfile::hdd(20), &costs);
        let ssd = crossover_outer_rows(1_000_000, 40_000, 3, DeviceProfile::ssd(), &costs);
        assert!(hdd < ssd, "seek-hostile HDD should abandon INLJ soonest");
    }

    #[test]
    fn costs_are_reported_for_both_plans() {
        let c = choose_join(est(1000), DeviceProfile::ssd(), &CpuCosts::default());
        assert!(c.inlj_cost > SimDuration::ZERO);
        assert!(c.hash_cost > SimDuration::ZERO);
    }

    fn scan_est(selectivity: f64) -> ScanEstimate {
        ScanEstimate {
            pages: 64,
            rows_per_page: 26,
            selectivity,
            reply_row_bytes: 260,
            program_bytes: 16,
            chunks: 4,
            aggregate: false,
        }
    }

    #[test]
    fn low_selectivity_pushes_down_high_fetches() {
        let net = NetConfig::default();
        let costs = CpuCosts::default();
        let tier = DeviceProfile::remote_memory();
        let low = choose_scan(scan_est(0.001), tier, &net, &costs);
        assert_eq!(low.plan, ScanPlan::Pushdown);
        assert!(low.pushdown_cost < low.full_cost);
        let high = choose_scan(scan_est(1.0), tier, &net, &costs);
        assert_eq!(high.plan, ScanPlan::FullFetch);
        assert!(high.full_cost <= high.pushdown_cost);
    }

    #[test]
    fn scan_crossover_is_interior_and_monotone() {
        let net = NetConfig::default();
        let costs = CpuCosts::default();
        let tier = DeviceProfile::remote_memory();
        let x = crossover_selectivity(scan_est(0.0), tier, &net, &costs);
        assert!(x > 0.001 && x < 1.0, "crossover {x} should be interior");
        // plans agree with the crossover on both sides
        let below = choose_scan(scan_est(x * 0.5), tier, &net, &costs);
        let above = choose_scan(scan_est((x * 1.5).min(1.0)), tier, &net, &costs);
        assert_eq!(below.plan, ScanPlan::Pushdown);
        assert_eq!(above.plan, ScanPlan::FullFetch);
    }

    #[test]
    fn aggregates_push_down_everywhere() {
        let net = NetConfig::default();
        let costs = CpuCosts::default();
        let tier = DeviceProfile::remote_memory();
        let template = ScanEstimate {
            aggregate: true,
            ..scan_est(0.0)
        };
        let x = crossover_selectivity(template, tier, &net, &costs);
        assert_eq!(x, 1.0, "aggregate replies never grow with selectivity");
    }

    #[test]
    fn wide_projection_lowers_the_crossover() {
        let net = NetConfig::default();
        let costs = CpuCosts::default();
        let tier = DeviceProfile::remote_memory();
        let narrow = crossover_selectivity(
            ScanEstimate {
                reply_row_bytes: 20,
                ..scan_est(0.0)
            },
            tier,
            &net,
            &costs,
        );
        let wide = crossover_selectivity(
            ScanEstimate {
                reply_row_bytes: 2000,
                ..scan_est(0.0)
            },
            tier,
            &net,
            &costs,
        );
        assert!(
            wide <= narrow,
            "fatter replies ({wide}) must flip to fetch no later than thin ones ({narrow})"
        );
    }
}
