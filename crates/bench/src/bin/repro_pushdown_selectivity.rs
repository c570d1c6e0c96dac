//! Pushdown selectivity sweep: near-memory operator offload vs one-sided
//! full-page fetch as the predicate's selectivity grows.
//!
//! A 256-page table of slotted rows lives in remote memory; each point
//! scans the whole table in 16-page segments under a hashed-bucket
//! predicate whose selectivity is exact by construction. Three arms share
//! the query: forced full fetch (pull every page, filter on the engine's
//! cores), forced pushdown (offload predicate eval to the memory servers,
//! ship only matches), and the cost-based planner. At 0.1–1% selectivity
//! the pushdown reply is a sliver of the span, so it wins on both wire
//! bytes and scan time; at 100% the reply *is* the span and pushdown only
//! adds server CPU and per-RPC overhead, so full fetch wins — the planner
//! must track the measured winner on both sides of the crossover.

use remem_bench::Report;
use remem_engine::optimizer::DeviceProfile;
use remem_engine::{crossover_selectivity, CpuCosts, ScanPlan};
use remem_net::NetConfig;
use remem_sim::{Clock, CpuPool, SimDuration};
use remem_workloads::pushdown::{build_remote_table, one_scan, scan_estimate, ScanMode};

const PAGES: u64 = 256;
const SCAN_PAGES: u64 = 16;

/// One measured arm: scan the whole table once in `SCAN_PAGES` segments.
struct Arm {
    elapsed: SimDuration,
    wire_bytes: u64,
    matched: u64,
    /// The planner's pick on the first segment (planner arm only).
    plan: Option<ScanPlan>,
}

fn main() {
    let mut report = Report::new(
        "repro_pushdown_selectivity",
        "Pushdown sweep",
        "Near-memory pushdown vs one-sided fetch: wire bytes and scan time vs selectivity",
    );

    let registry = report.registry();
    let mut clock = Clock::new();
    let t = build_remote_table(&mut clock, PAGES, 2, NetConfig::default());
    // attach telemetry only after the load phase so the counters hold
    // nothing but the sweep's own traffic
    t.fabric.set_metrics(Some(registry.clone()));
    let cpu = CpuPool::new(8);
    let costs = CpuCosts::default();

    // every fabric byte a scan can move: one-sided page reads + pushdown
    // request/reply wire traffic
    let wire_bytes = || {
        registry.counter("fabric.read.bytes").get()
            + registry.counter("fabric.pushdown.bytes").get()
    };

    let measure = |clock: &mut Clock, sel: f64, mode: ScanMode| -> Arm {
        let b0 = wire_bytes();
        let mut matched = 0u64;
        let mut plan = None;
        let t0 = clock.now();
        for seg in 0..PAGES / SCAN_PAGES {
            let r = one_scan(
                clock,
                &cpu,
                &costs,
                &t,
                seg * SCAN_PAGES,
                SCAN_PAGES,
                sel,
                mode,
            );
            matched += r.rows.len() as u64;
            if plan.is_none() {
                plan = r.choice.map(|c| c.plan);
            }
        }
        let elapsed = clock.now().since(t0);
        clock.advance(SimDuration::from_millis(10)); // drain between arms
        Arm {
            elapsed,
            wire_bytes: wire_bytes() - b0,
            matched,
            plan,
        }
    };

    let selectivities = [0.001f64, 0.01, 0.05, 0.2, 0.5, 1.0];
    let label = |sel: f64| format!("{}%", sel * 100.0);
    let mut rows = Vec::new();
    let mut full_ms = Vec::new();
    let mut push_ms = Vec::new();
    let mut planner_ms = Vec::new();
    let mut full_mib = Vec::new();
    let mut push_mib = Vec::new();
    let mut points = Vec::new();
    for &sel in &selectivities {
        let full = measure(&mut clock, sel, ScanMode::FullFetch);
        let push = measure(&mut clock, sel, ScanMode::Pushdown);
        let plan = measure(&mut clock, sel, ScanMode::Planner);
        assert_eq!(full.matched, push.matched, "arms must agree on the answer");
        assert_eq!(full.matched, plan.matched, "arms must agree on the answer");
        let picked = plan.plan.expect("planner arm records its pick");
        rows.push(vec![
            label(sel),
            format!("{:.2}", full.elapsed.as_millis_f64()),
            format!("{:.2}", push.elapsed.as_millis_f64()),
            format!("{:.2}", plan.elapsed.as_millis_f64()),
            format!("{:.2}", full.wire_bytes as f64 / (1 << 20) as f64),
            format!("{:.2}", push.wire_bytes as f64 / (1 << 20) as f64),
            format!("{picked:?}"),
            full.matched.to_string(),
        ]);
        full_ms.push((label(sel), full.elapsed.as_millis_f64()));
        push_ms.push((label(sel), push.elapsed.as_millis_f64()));
        planner_ms.push((label(sel), plan.elapsed.as_millis_f64()));
        full_mib.push((label(sel), full.wire_bytes as f64 / (1 << 20) as f64));
        push_mib.push((label(sel), push.wire_bytes as f64 / (1 << 20) as f64));
        points.push((sel, full, push, plan));
    }
    report.table(
        "whole-table scan, 16-page segments",
        &[
            "sel", "full ms", "push ms", "plan ms", "full MiB", "push MiB", "planner", "matched",
        ],
        rows,
    );
    report.series("full_fetch_ms", &full_ms);
    report.series("pushdown_ms", &push_ms);
    report.series("planner_ms", &planner_ms);
    report.series("full_fetch_mib", &full_mib);
    report.series("pushdown_mib", &push_mib);

    // the cost model's predicted crossover for this table's shape
    let predicted = crossover_selectivity(
        scan_estimate(&t, SCAN_PAGES, 0.0),
        DeviceProfile::remote_memory(),
        t.fabric.config(),
        &costs,
    );
    report.note(format!(
        "cost-model crossover at {:.1}% selectivity (pushdown below, full fetch above)",
        predicted * 100.0
    ));

    // ISSUE acceptance: >= 3x fewer fabric bytes and >= 1.5x faster scans
    // at <= 1% selectivity; convergence to the one-sided plan above the
    // crossover; planner on the cheaper side at both ends.
    let low = &points[1]; // 1%
    let high = points.last().expect("sweep is non-empty"); // 100%
    report.blank();
    report.check_ratio_ge(
        "bytes_saved_at_1pct",
        "pushdown moves >= 3x fewer fabric bytes than full fetch at 1% selectivity",
        ("full fetch MiB", low.1.wire_bytes as f64),
        ("pushdown MiB", low.2.wire_bytes as f64),
        3.0,
    );
    report.check_ratio_ge(
        "faster_at_1pct",
        "pushdown scans >= 1.5x faster than full fetch at 1% selectivity",
        ("full fetch ms", low.1.elapsed.as_millis_f64()),
        ("pushdown ms", low.2.elapsed.as_millis_f64()),
        1.5,
    );
    report.check_assert(
        "planner_pushes_down_low",
        "planner picks pushdown at 0.1% and 1% selectivity",
        points[0].3.plan == Some(ScanPlan::Pushdown) && low.3.plan == Some(ScanPlan::Pushdown),
    );
    report.check_assert(
        "planner_fetches_high",
        "planner picks one-sided full fetch at 100% selectivity",
        high.3.plan == Some(ScanPlan::FullFetch),
    );
    report.check_flat(
        "planner_tracks_pushdown_low",
        "planner time matches the forced-pushdown arm at 1% selectivity",
        &[
            ("pushdown ms", low.2.elapsed.as_millis_f64()),
            ("planner ms", low.3.elapsed.as_millis_f64()),
        ],
        10.0,
    );
    report.check_flat(
        "planner_converges_high",
        "planner time converges to the forced full-fetch arm at 100% selectivity",
        &[
            ("full fetch ms", high.1.elapsed.as_millis_f64()),
            ("planner ms", high.3.elapsed.as_millis_f64()),
        ],
        10.0,
    );
    report.check_assert(
        "crossover_is_interior",
        "cost-model crossover sits strictly between 0.1% and 100%",
        predicted > 0.001 && predicted < 1.0,
    );
    report.check_assert(
        "full_table_matches_at_100pct",
        "every row survives a 100%-selectivity scan",
        high.1.matched == t.pages * t.rows_per_page,
    );
    report.gauge("full_fetch_1pct_ms", low.1.elapsed.as_millis_f64(), 25.0);
    report.gauge("pushdown_1pct_ms", low.2.elapsed.as_millis_f64(), 25.0);
    report.gauge(
        "bytes_ratio_1pct",
        low.1.wire_bytes as f64 / low.2.wire_bytes as f64,
        25.0,
    );
    report.gauge("crossover_sel", predicted, 25.0);
    report.finish();
}
