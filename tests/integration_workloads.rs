//! Integration: paper workloads across design alternatives — the shapes the
//! evaluation section reports must hold end to end.

use remem::{Cluster, DbOptions, Design};
use remem_sim::{Clock, SimDuration};
use remem_workloads::hashsort::{load_tables, run_hash_sort, HashSortParams};
use remem_workloads::rangescan::{load_customer, run_rangescan, RangeScanParams};
use remem_workloads::tpcc;

fn cluster() -> Cluster {
    Cluster::builder()
        .memory_servers(2)
        .memory_per_server(96 << 20)
        .build()
}

/// Fig. 9/10 shape: RangeScan read-only throughput ordering
/// HDD < HDD+SSD < Custom ≈ Local Memory, with Custom within ~20 % of Local.
#[test]
fn rangescan_design_ordering() {
    let opts = DbOptions {
        pool_bytes: 2 << 20,
        bpext_bytes: 24 << 20,
        tempdb_bytes: 8 << 20,
        data_bytes: 128 << 20,
        ..DbOptions::small()
    };
    let params = RangeScanParams {
        workers: 20,
        duration: SimDuration::from_millis(500),
        ..Default::default()
    };
    let mut tput = std::collections::HashMap::new();
    for design in [
        Design::Hdd,
        Design::HddSsd,
        Design::Custom,
        Design::LocalMemory,
    ] {
        let c = cluster();
        let mut clock = Clock::new();
        let db = design.build(&c, &mut clock, &opts).unwrap();
        let t = load_customer(&db, &mut clock, 40_000);
        let s = run_rangescan(&db, t, &params, clock.now());
        tput.insert(design.label(), s.throughput_per_sec);
    }
    let (hdd, hddssd, custom, local) = (
        tput["HDD"],
        tput["HDD+SSD"],
        tput["Custom"],
        tput["Local Memory"],
    );
    assert!(
        hddssd > hdd,
        "SSD BPExt should beat bare HDD ({hddssd} vs {hdd})"
    );
    assert!(
        custom > 2.0 * hddssd,
        "Custom should be multiples of HDD+SSD ({custom} vs {hddssd})"
    );
    assert!(
        custom > 0.7 * local,
        "Custom should be within ~30% of Local Memory ({custom} vs {local})"
    );
}

/// Fig. 14 shape: Hash+Sort latency ordering HDD+SSD > HDD > Custom, with
/// SMBDirect ≈ Custom (sequential transfers amortize its per-op overheads).
#[test]
fn hashsort_design_ordering() {
    let opts = DbOptions {
        pool_bytes: 64 << 20,
        bpext_bytes: 8 << 20,
        tempdb_bytes: 96 << 20,
        oltp: false,
        workspace_bytes: Some(1 << 20),
        ..DbOptions::small()
    };
    let params = HashSortParams {
        orders: 8_000,
        lineitems_per_order: 4,
        top_n: 500,
        seed: 9,
    };
    let mut latency = std::collections::HashMap::new();
    for design in [
        Design::Hdd,
        Design::HddSsd,
        Design::SmbDirectRamDrive,
        Design::Custom,
    ] {
        let c = cluster();
        let mut clock = Clock::new();
        let db = design.build(&c, &mut clock, &opts).unwrap();
        let tables = load_tables(&db, &mut clock, &params);
        let r = run_hash_sort(&db, &mut clock, tables, params.top_n);
        assert!(r.tempdb_bytes > 0, "{} must spill", design.label());
        latency.insert(design.label(), r.total.as_secs_f64());
    }
    let (hdd, hddssd, smbd, custom) = (
        latency["HDD"],
        latency["HDD+SSD"],
        latency["SMBDirect+RamDrive"],
        latency["Custom"],
    );
    // Note: the paper's HDD-faster-than-SSD inversion needs paper-sized
    // (GB) spill runs to amortize seeks; it is reproduced at full scale by
    // the repro_fig14_hash_sort harness, not at this test's small scale.
    assert!(
        hdd > custom,
        "even HDD spills must be slower than remote memory"
    );
    assert!(
        hddssd > 2.0 * custom,
        "paper: HDD+SSD ~5x slower than Custom ({hddssd} vs {custom})"
    );
    assert!(
        smbd < custom * 1.5,
        "SMBDirect should be close to Custom here ({smbd} vs {custom})"
    );
}

/// Fig. 22 shape: the default TPC-C mix barely benefits from remote memory;
/// the engine still runs it correctly on every design.
#[test]
fn tpcc_runs_on_remote_and_local_designs() {
    let p = tpcc::TpccParams {
        warehouses: 2,
        districts_per_wh: 4,
        customers_per_district: 20,
        items: 300,
        seed: 6,
    };
    for design in [Design::HddSsd, Design::Custom] {
        let c = cluster();
        let mut clock = Clock::new();
        let db = design.build(&c, &mut clock, &DbOptions::small()).unwrap();
        let t = tpcc::load(&db, &mut clock, &p);
        let s = tpcc::run_mix(
            &db,
            &t,
            &tpcc::Mix::default_mix(),
            8,
            clock.now(),
            SimDuration::from_millis(200),
            2,
        );
        assert!(s.ops > 20, "{}: {s:?}", design.label());
    }
}

/// Whole-workload determinism: identical seeds → identical virtual results.
#[test]
fn end_to_end_runs_are_deterministic() {
    let run = || {
        let c = cluster();
        let mut clock = Clock::new();
        let db = Design::Custom
            .build(&c, &mut clock, &DbOptions::small())
            .unwrap();
        let t = load_customer(&db, &mut clock, 10_000);
        let s = run_rangescan(
            &db,
            t,
            &RangeScanParams {
                workers: 10,
                duration: SimDuration::from_millis(200),
                ..Default::default()
            },
            clock.now(),
        );
        (
            s.ops,
            s.mean_latency_us.to_bits(),
            s.p99_latency_us.to_bits(),
        )
    };
    assert_eq!(run(), run());
}
