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

use remem::RFileConfig;
use remem_bench::{Arm, Report};
use remem_sim::Clock;

const PAGE: usize = 8 << 10;
/// Pages transferred per measurement: 16 MiB total.
const PAGES: usize = 2048;
const CAPACITY: u64 = 64 << 20;

/// Read `PAGES` pages from a file configured at `queue_depth`, in
/// `read_vectored` calls of `batch` requests each or (`None`, the scalar
/// baseline) one `read` call per page. Returns GB/s.
fn read_gbps(queue_depth: usize, batch: Option<usize>, arm: &Arm) -> f64 {
    let cluster = arm
        .cluster()
        .memory_servers(2)
        .memory_per_server(64 << 20)
        .build();
    let mut clock = Clock::new();
    let cfg = RFileConfig {
        queue_depth,
        ..RFileConfig::custom()
    };
    let dev = cluster
        .remote_file(&mut clock, cluster.db_server, CAPACITY, cfg)
        .expect("remote file");
    let mut buf = vec![0u8; PAGES * PAGE];
    let t0 = clock.now();
    let offset = |i: usize| (i * PAGE) as u64;
    let Some(batch) = batch else {
        for (i, page) in buf.chunks_mut(PAGE).enumerate() {
            dev.read(&mut clock, offset(i), page)
                .expect("fault-free read");
        }
        return gbps((PAGES * PAGE) as u64, clock.now().since(t0).as_nanos());
    };
    for (chunk_no, chunk) in buf.chunks_mut(batch * PAGE).enumerate() {
        let mut reqs: Vec<(u64, &mut [u8])> = chunk
            .chunks_mut(PAGE)
            .enumerate()
            .map(|(i, b)| (offset(chunk_no * batch + i), b))
            .collect();
        for r in dev.read_vectored(&mut clock, &mut reqs) {
            r.expect("fault-free read");
        }
    }
    gbps((PAGES * PAGE) as u64, clock.now().since(t0).as_nanos())
}

fn gbps(bytes: u64, elapsed_ns: u64) -> f64 {
    if elapsed_ns == 0 {
        return 0.0;
    }
    bytes as f64 / elapsed_ns as f64 // bytes/ns == GB/s
}

fn main() {
    let mut report = Report::new(
        "repro_qd_sweep",
        "QD sweep",
        "Pipelined vectored I/O: throughput vs queue depth and batch size",
    );
    // Sweep 1: queue depth, whole 2048-page batches per call. Sweep 2: batch
    // size at a fixed deep queue — a batch of 1 degenerates to the scalar
    // doorbell-per-page pattern. `None` is the scalar baseline.
    let depths = [1usize, 2, 4, 8, 16, 32, 64];
    let batches = [1usize, 4, 16, 64, 256, 1024];
    let arms: Vec<(usize, Option<usize>)> = std::iter::once((1, None))
        .chain(depths.map(|qd| (qd, Some(PAGES))))
        .chain(batches.map(|b| (32, Some(b))))
        .collect();
    let runs = report.arms(
        &arms,
        |&(qd, batch)| batch.map_or("scalar".into(), |b| format!("QD={qd} B={b}")),
        |&(qd, batch), arm| read_gbps(qd, batch, arm),
    );
    let scalar = runs[0];
    let qd_points: Vec<(String, f64)> = depths
        .iter()
        .zip(&runs[1..])
        .map(|(qd, &g)| (format!("QD={qd}"), g))
        .collect();
    let batch_points: Vec<(String, f64)> = batches
        .iter()
        .zip(&runs[1 + depths.len()..])
        .map(|(b, &g)| (format!("B={b}"), g))
        .collect();
    let mut rows: Vec<Vec<String>> = qd_points
        .iter()
        .map(|(label, g)| {
            vec![
                label.clone(),
                format!("{g:.3}"),
                format!("{:.1}x", if scalar > 0.0 { g / scalar } else { 0.0 }),
            ]
        })
        .collect();
    rows.push(vec!["scalar".into(), format!("{scalar:.3}"), "1.0x".into()]);
    report.table("8K reads, GB/s", &["config", "GB/s", "vs scalar"], rows);
    report.series("qd_gbps", &qd_points);
    report.series("scalar_gbps", &[("scalar", scalar)]);

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
