//! Figure 13: impact on the *remote* server. A CPU-bound workload runs on
//! memory server SB while database server SA reads/writes its BPExt in SB's
//! memory — via RDMA or via TCP.
//!
//! Paper: RDMA leaves SB's throughput/latency untouched; TCP costs SB ~10 %
//! throughput and up to 20 % on p99 latency, because the kernel network
//! stack consumes SB's CPU.
//!
//! SA's BPExt traffic is driven page-by-page (each driver step is one
//! remote page access plus think time), so both workloads stay finely
//! interleaved in virtual time.

use remem::{DbOptions, Design, Protocol, RFileConfig};
use remem_bench::{Arm, Report};
use remem_sim::rng::SimRng;
use remem_sim::{Clock, ClosedLoopDriver, Histogram, SimDuration, SimTime};
use remem_workloads::rangescan::{load_customer, one_query};

const WINDOW: SimDuration = SimDuration::from_millis(400);
const SB_WORKERS: usize = 200; // saturate SB's 20 cores
const SA_WORKERS: usize = 80;
const SA_THINK: SimDuration = SimDuration::from_micros(10);

fn run_config(proto: Option<Protocol>, arm: &mut Arm) -> (f64, f64, f64) {
    let cluster = arm
        .cluster()
        .memory_servers(1)
        .memory_per_server(128 << 20)
        .build();
    let sb = cluster.memory_servers[0];
    let mut clock = Clock::new();

    // SB's CPU-bound workload: everything cached, long scans
    let sb_opts = DbOptions {
        pool_bytes: 64 << 20,
        bpext_bytes: 1 << 20,
        tempdb_bytes: 4 << 20,
        data_bytes: 128 << 20,
        ..DbOptions::small()
    };
    let sb_db = Design::LocalMemory
        .build_for(&cluster, &mut clock, sb, &sb_opts)
        .expect("SB");
    let sb_table = arm.load(|| load_customer(&sb_db, &mut clock, 40_000));

    // SA's BPExt: a remote file on SB, accessed page-by-page
    let sa_file = proto.map(|p| {
        let cfg = match p {
            Protocol::Custom => RFileConfig::custom(),
            Protocol::SmbDirect => RFileConfig::smb_direct(),
            Protocol::SmbTcp => RFileConfig::smb_tcp(),
        };
        cluster
            .remote_file(&mut clock, cluster.db_server, 24 << 20, cfg)
            .expect("SA BPExt")
    });

    let start = clock.now();
    let horizon = SimTime(start.as_nanos() + WINDOW.as_nanos());
    let workers = SB_WORKERS + if sa_file.is_some() { SA_WORKERS } else { 0 };
    let all = Histogram::new();
    let sb_lat = Histogram::new();
    let mut sb_rng = SimRng::seeded(3);
    let mut sa_rng = SimRng::seeded(4);
    let mut sb_ops = 0u64;
    let mut page = vec![0u8; 8192];
    let mut driver = ClosedLoopDriver::new(workers, horizon).starting_at(start);
    driver.run(&all, |w, c| {
        if w < SB_WORKERS {
            let t0 = c.now();
            let startk = sb_rng.uniform(0, 39_800) as i64;
            // short queries keep all worker clocks tightly interleaved
            one_query(&sb_db, c, sb_table, startk, 100, false);
            sb_lat.record(c.now().since(t0));
            sb_ops += 1;
        } else if let Some(file) = &sa_file {
            let b = sa_rng.uniform(0, file.size() / 8192);
            if sa_rng.chance(0.5) {
                file.read(c, b * 8192, &mut page).expect("SA read");
            } else {
                file.write(c, b * 8192, &page).expect("SA write");
            }
            c.advance(SA_THINK);
        }
    });
    (
        sb_ops as f64 / WINDOW.as_secs_f64(),
        sb_lat.mean().as_micros_f64() / 1000.0,
        sb_lat.percentile(99.0).as_micros_f64() / 1000.0,
    )
}

fn main() {
    let mut report = Report::new(
        "repro_fig13_remote_impact",
        "Fig 13",
        "impact of remote accesses on the memory server's own workload",
    );
    let configs = [
        ("Default (no remote use)", None),
        ("RDMA (Custom)", Some(Protocol::Custom)),
        ("TCP (SMB)", Some(Protocol::SmbTcp)),
    ];
    let runs = report.arms(
        &configs,
        |(label, _)| label.to_string(),
        |&(_, proto), arm| run_config(proto, arm),
    );
    let mut rows = Vec::new();
    let mut tput = Vec::new();
    let mut p99 = Vec::new();
    for ((label, _), (t, mean, p)) in configs.iter().zip(runs) {
        rows.push(vec![
            label.to_string(),
            format!("{t:.0}"),
            format!("{mean:.1}"),
            format!("{p:.1}"),
        ]);
        tput.push((label.to_string(), t));
        p99.push((label.to_string(), p));
    }
    report.table(
        "",
        &["SB accessed via", "SB queries/s", "SB mean ms", "SB p99 ms"],
        rows,
    );
    report.series("sb_tput_qps", &tput);
    report.series("sb_p99_ms", &p99);
    report.blank();
    let default_t = tput[0].1;
    let rdma_t = tput[1].1;
    let tcp_t = tput[2].1;
    report.check_ratio_ge(
        "rdma_free_for_donor",
        "RDMA leaves SB's throughput within 2% of the idle baseline",
        ("RDMA", rdma_t),
        ("Default * 0.98", default_t * 0.98),
        1.0,
    );
    report.check_assert(
        "tcp_costs_donor_tput",
        "TCP remote access costs SB at least 5% of its throughput",
        tcp_t <= default_t * 0.95,
    );
    report.check_assert(
        "tcp_costs_donor_tail",
        "TCP inflates SB's p99 latency over the RDMA case",
        p99[2].1 > p99[1].1,
    );
    report.gauge("sb_tput_default", default_t, 10.0);
    report.gauge("tcp_tput_cost_pct", (1.0 - tcp_t / default_t) * 100.0, 60.0);
    report.finish();
}
