//! Queue-depth sweep: the pipelined vectored I/O path against the scalar
//! per-page path.
//!
//! The scalar path pays the full doorbell cost (op overhead + NIC fixed
//! latency) for every 8 K page, so its throughput flatlines at the per-op
//! ceiling no matter how much data is in flight. The vectored path fans a
//! batch of requests out at a configurable queue depth, paying one doorbell
//! per wave; as the depth grows, throughput climbs until the NIC's
//! fluid-queue bandwidth is the binding constraint and the curve goes flat.
//! §4.2 of the paper sizes the staging buffers for exactly this: up to 128
//! in-flight transfers per scheduler.

use std::sync::Arc;

use remem::{Cluster, Device, RFileConfig};
use remem_bench::Report;
use remem_sim::{Clock, MetricsRegistry};

const PAGE: usize = 8 << 10;
/// Pages transferred per measurement: 16 MiB total.
const PAGES: usize = 2048;
const CAPACITY: u64 = 64 << 20;

fn remote_device(queue_depth: usize, registry: Arc<MetricsRegistry>) -> (Arc<dyn Device>, Clock) {
    let cluster = Cluster::builder()
        .memory_servers(2)
        .memory_per_server(64 << 20)
        .metrics(registry)
        .build();
    let mut clock = Clock::new();
    let cfg = RFileConfig {
        queue_depth,
        ..RFileConfig::custom()
    };
    let file = cluster
        .remote_file(&mut clock, cluster.db_server, CAPACITY, cfg)
        .expect("remote file");
    (file, clock)
}

fn gbps(bytes: u64, elapsed_ns: u64) -> f64 {
    if elapsed_ns == 0 {
        return 0.0;
    }
    bytes as f64 / elapsed_ns as f64 // bytes/ns == GB/s
}

/// One vectored measurement: read `PAGES` pages in `read_vectored` calls of
/// `batch` requests each, on a file configured at `queue_depth`.
fn vectored_gbps(queue_depth: usize, batch: usize, registry: Arc<MetricsRegistry>) -> f64 {
    let (dev, mut clock) = remote_device(queue_depth, registry);
    let mut buf = vec![0u8; PAGES * PAGE];
    let t0 = clock.now();
    for (chunk_no, chunk) in buf.chunks_mut(batch * PAGE).enumerate() {
        let base = (chunk_no * batch * PAGE) as u64;
        let mut reqs: Vec<(u64, &mut [u8])> = chunk
            .chunks_mut(PAGE)
            .enumerate()
            .map(|(i, b)| (base + (i * PAGE) as u64, b))
            .collect();
        for r in dev.read_vectored(&mut clock, &mut reqs) {
            r.expect("fault-free read");
        }
    }
    gbps((PAGES * PAGE) as u64, clock.now().since(t0).as_nanos())
}

/// The scalar baseline: the same bytes, one `read` call per page.
fn scalar_gbps(registry: Arc<MetricsRegistry>) -> f64 {
    let (dev, mut clock) = remote_device(1, registry);
    let mut page = vec![0u8; PAGE];
    let t0 = clock.now();
    for i in 0..PAGES {
        dev.read(&mut clock, (i * PAGE) as u64, &mut page)
            .expect("fault-free read");
    }
    gbps((PAGES * PAGE) as u64, clock.now().since(t0).as_nanos())
}

fn main() {
    let mut report = Report::new(
        "repro_qd_sweep",
        "QD sweep",
        "Pipelined vectored I/O: throughput vs queue depth and batch size",
    );
    let scalar = scalar_gbps(report.registry());

    // Sweep 1: queue depth, whole 2048-page batches per call.
    let mut qd_points: Vec<(String, f64)> = Vec::new();
    let mut rows = Vec::new();
    for qd in [1usize, 2, 4, 8, 16, 32, 64] {
        let g = vectored_gbps(qd, PAGES, report.registry());
        rows.push(vec![
            format!("QD={qd}"),
            format!("{g:.3}"),
            format!("{:.1}x", if scalar > 0.0 { g / scalar } else { 0.0 }),
        ]);
        qd_points.push((format!("QD={qd}"), g));
    }
    rows.push(vec!["scalar".into(), format!("{scalar:.3}"), "1.0x".into()]);
    report.table("8K reads, GB/s", &["config", "GB/s", "vs scalar"], rows);
    report.series("qd_gbps", &qd_points);
    report.series("scalar_gbps", &[("scalar", scalar)]);

    // Sweep 2: batch size at a fixed deep queue — a batch of 1 degenerates
    // to the scalar doorbell-per-page pattern.
    let mut batch_points: Vec<(String, f64)> = Vec::new();
    for batch in [1usize, 4, 16, 64, 256, 1024] {
        let g = vectored_gbps(32, batch, report.registry());
        batch_points.push((format!("B={batch}"), g));
    }
    report.series("batch_gbps", &batch_points);

    report.blank();
    report.check_order_asc(
        "qd_throughput_rises",
        "throughput climbs with queue depth until the NIC saturates",
        &qd_points,
        2.0,
    );
    report.check_flat(
        "qd_saturates",
        "deep queues are NIC-bound: QD 16/32/64 within a few percent",
        &qd_points[4..],
        10.0,
    );
    report.check_ratio_ge(
        "pipelined_beats_scalar",
        "a deep pipeline beats the scalar per-op ceiling",
        ("QD=32", qd_points[5].1),
        ("scalar", scalar),
        2.0,
    );
    report.check_ratio_ge(
        "qd1_matches_scalar",
        "a depth-1 pipeline degenerates to (at most ~) the scalar path",
        ("scalar", scalar),
        ("QD=1", qd_points[0].1),
        0.8,
    );
    report.check_order_asc(
        "batch_throughput_rises",
        "bigger batches amortize the doorbell at fixed queue depth",
        &batch_points,
        2.0,
    );
    report.finish();
}
