//! Figure 25: end-to-end RangeScan with 1-8 database servers all keeping
//! their BPExt in ONE memory server's RAM.
//!
//! Paper: aggregate throughput scales near-linearly with database servers
//! until the donor's NIC saturates, then latency climbs.

use remem::{Cluster, DbOptions, Design};
use remem_bench::Report;
use remem_sim::rng::SimRng;
use remem_sim::{Clock, ClosedLoopDriver, Histogram, SimDuration, SimTime};
use remem_workloads::rangescan::{load_customer, one_query};

const ROWS: u64 = 12_500; // "125 million rows" scaled /10,000 to fit one donor
const WORKERS_PER_DB: usize = 40;
const WINDOW: SimDuration = SimDuration::from_millis(300);

fn main() {
    let mut report = Report::new(
        "repro_fig25_multi_db_rangescan",
        "Fig 25",
        "N database servers with their BPExt on one memory server",
    );
    let mut rows = Vec::new();
    let mut agg_tput = Vec::new();
    let mut mean_lat = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let cluster = Cluster::builder()
            .memory_servers(1)
            .memory_per_server(512 << 20)
            .metrics(report.registry())
            .build();
        let opts = DbOptions {
            pool_bytes: 1 << 20, // ~7 GB scaled: small local memory
            bpext_bytes: 30 << 20,
            tempdb_bytes: 4 << 20,
            data_bytes: 128 << 20,
            spindles: 20,
            oltp: true,
            workspace_bytes: None,
            replicas: 1,
            fault_log: None,
            metrics: None,
            remote_wal: false,
            wal_ring_bytes: 8 << 20,
        };
        let mut clock = Clock::new();
        let mut dbs = Vec::new();
        for i in 0..n {
            let server = if i == 0 {
                cluster.db_server
            } else {
                cluster.add_db_server(format!("DB{}", i + 1), 20)
            };
            let db = Design::Custom
                .build_for(&cluster, &mut clock, server, &opts)
                .expect("db");
            let t = load_customer(&db, &mut clock, ROWS);
            dbs.push((db, t));
        }
        let start = clock.now();
        let horizon = SimTime(start.as_nanos() + WINDOW.as_nanos());
        let workers = n * WORKERS_PER_DB;
        let lat = Histogram::new();
        let mut driver = ClosedLoopDriver::new(workers, horizon).starting_at(start);
        let mut rng = SimRng::seeded(11);
        let ops = driver.run(&lat, |w, c| {
            let (db, t) = &dbs[w / WORKERS_PER_DB];
            let startk = rng.uniform(0, ROWS - 100) as i64;
            one_query(db, c, *t, startk, 100, false);
        });
        let tput = ops as f64 / WINDOW.as_secs_f64();
        let lat_ms = lat.mean().as_micros_f64() / 1000.0;
        rows.push(vec![
            n.to_string(),
            format!("{tput:.0}"),
            format!("{lat_ms:.2}"),
        ]);
        agg_tput.push((format!("{n}db"), tput));
        mean_lat.push((format!("{n}db"), lat_ms));
    }
    report.table(
        "aggregate RangeScan throughput vs database-server count:",
        &["DB servers", "aggregate queries/s", "mean latency ms"],
        rows,
    );
    report.series("aggregate_qps", &agg_tput);
    report.series("mean_latency_ms", &mean_lat);
    report.blank();
    report.check_order_asc(
        "aggregate_tput_monotone",
        "aggregate throughput never falls as database servers are added",
        &agg_tput,
        3.0,
    );
    report.check_ratio_ge(
        "near_linear_early_scaling",
        "2 database servers deliver >= 1.5x the single-server throughput",
        ("2db", agg_tput[1].1),
        ("1db", agg_tput[0].1),
        1.5,
    );
    report.check_assert(
        "latency_climbs_at_saturation",
        "mean latency at 8 DB servers exceeds the single-server latency",
        mean_lat[3].1 > mean_lat[0].1,
    );
    report.gauge("aggregate_qps_1db", agg_tput[0].1, 10.0);
    report.gauge("aggregate_qps_8db", agg_tput[3].1, 10.0);
    report.finish();
}
