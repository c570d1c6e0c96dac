//! Figure 5: one database server accessing remote memory pooled from 1-8
//! memory servers (constant total remote memory).
//!
//! Paper: throughput and latency are flat in the number of donors — the
//! DB server's NIC is the bottleneck either way.

use remem::{PlacementPolicy, RFileConfig};
use remem_bench::Report;
use remem_sim::rng::SimRng;
use remem_sim::{Clock, ClosedLoopDriver, Histogram, SimTime};

const TOTAL_REMOTE: u64 = 96 << 20;
const WINDOW: u64 = 100_000_000; // 100 ms

fn main() {
    let mut report = Report::new(
        "repro_fig5_multi_mem_servers",
        "Fig 5",
        "1 DB server <- N memory servers, constant total memory",
    );
    let mut rows = Vec::new();
    let mut rand_pts = Vec::new();
    let mut seq_pts = Vec::new();
    let mut rand_lat = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let cluster = remem::Cluster::builder()
            .memory_servers(n)
            .memory_per_server(TOTAL_REMOTE / n as u64)
            .placement(PlacementPolicy::Spread)
            .metrics(report.registry())
            .build();
        let mut clock = Clock::new();
        let file = cluster
            .remote_file(
                &mut clock,
                cluster.db_server,
                TOTAL_REMOTE / 2,
                RFileConfig::custom(),
            )
            .expect("file");
        assert_eq!(file.donors().len(), n, "file must stripe across all donors");
        let mut results = Vec::new();
        for (threads, block) in [(20usize, 8 * 1024u64), (5, 512 * 1024)] {
            let start = clock.now();
            let horizon = SimTime(start.as_nanos() + WINDOW);
            let lat = Histogram::new();
            let blocks = file.size() / block;
            let mut buf = vec![0u8; block as usize];
            let mut driver = ClosedLoopDriver::new(threads, horizon).starting_at(start);
            let mut rng = SimRng::seeded(n as u64);
            let ops = driver.run(&lat, |_, c| {
                let b = rng.uniform(0, blocks);
                file.read(c, b * block, &mut buf).expect("read");
            });
            results.push((
                ops as f64 * block as f64 / (WINDOW as f64 / 1e9) / 1e9,
                lat.mean().as_micros_f64(),
            ));
            clock.advance(remem_sim::SimDuration::from_millis(200)); // drain between runs
        }
        rows.push(vec![
            n.to_string(),
            format!("{:.2}", results[0].0),
            format!("{:.0}", results[0].1),
            format!("{:.2}", results[1].0),
            format!("{:.0}", results[1].1),
        ]);
        rand_pts.push((n.to_string(), results[0].0));
        seq_pts.push((n.to_string(), results[1].0));
        rand_lat.push((n.to_string(), results[0].1));
    }
    report.table(
        "",
        &[
            "mem servers",
            "8K-rand GB/s",
            "8K-rand us",
            "512K-seq GB/s",
            "512K-seq us",
        ],
        rows,
    );
    report.series("rand_8k_gbps", &rand_pts);
    report.series("seq_512k_gbps", &seq_pts);
    report.series("rand_8k_lat_us", &rand_lat);
    report.blank();
    report.note("shape check vs paper: flat throughput and latency across donor counts");
    report.note("(the DB server NIC saturates even with one donor).");
    report.check_flat(
        "rand_flat",
        "8K random throughput flat across donor counts",
        &rand_pts,
        10.0,
    );
    report.check_flat(
        "seq_flat",
        "512K sequential throughput flat across donor counts",
        &seq_pts,
        10.0,
    );
    report.check_flat(
        "lat_flat",
        "8K random latency flat across donor counts",
        &rand_lat,
        10.0,
    );
    report.gauge("rand_gbps_1donor", rand_pts[0].1, 10.0);
    report.gauge("seq_gbps_1donor", seq_pts[0].1, 10.0);
    report.finish();
}
