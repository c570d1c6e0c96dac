//! Small direct timings of single layers, run in every traced pass: the
//! host cost of one driver event, one fabric verb, one evaluated row, one
//! remote-file create+open and one generated row. Each is the median of
//! [`REPEATS`] timings of a loop long enough to outlast timer noise.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use remem::{Cluster, RFileConfig};
use remem_engine::page::Page;
use remem_net::{Fabric, NetConfig, Protocol};
use remem_sim::{Clock, ClosedLoopDriver, Histogram, SimDuration, SimTime};
use remem_storage::eval_pages;
use remem_workloads::pushdown::{bucket_program, table_row};
use remem_workloads::rangescan::customer_row;

use crate::harness::median;
use crate::layers::Layers;

const REPEATS: usize = 5;

/// Median over `REPEATS` runs of `f`, which returns host nanoseconds per unit.
fn timed(mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..REPEATS).map(|_| f()).collect();
    median(&samples)
}

pub fn fill(layers: &mut Layers) {
    layers.set("sim.driver.host_ns_per_event", timed(driver_event_ns));
    layers.set("net.verb.host_ns", timed(fabric_read_ns));
    layers.set("storage.eval.host_ns_per_row", timed(eval_row_ns));
    layers.set("broker.create_open.host_us", timed(create_open_us));
    layers.set("workloads.gen.host_ns_per_row", timed(gen_row_ns));
}

/// 200 K-event `ClosedLoopDriver::run_outcome` whose body only advances the
/// clock, by a client-dependent step so the event queue reorders.
fn driver_event_ns() -> f64 {
    const CLIENTS: usize = 16;
    const EVENTS: u64 = 200_000;
    let horizon = SimTime(EVENTS / CLIENTS as u64 * 100);
    let mut driver = ClosedLoopDriver::new(CLIENTS, horizon);
    let sink = Histogram::new();
    let t = Instant::now();
    let out = driver.run_outcome(&sink, |client, clock| {
        clock.advance(SimDuration::from_nanos(97 + client as u64));
    });
    t.elapsed().as_nanos() as f64 / black_box(out.started) as f64
}

/// `Fabric::read` of 8 KiB from a registered MR, no file layer above it.
fn fabric_read_ns() -> f64 {
    const READS: u64 = 10_000;
    let fabric = Arc::new(Fabric::new(NetConfig::default()));
    let (db, donor) = (fabric.add_server("DB", 20), fabric.add_server("M", 20));
    let mut clock = Clock::new();
    let mr = fabric
        .register_mr(&mut clock, donor, 1 << 20)
        .expect("register MR");
    fabric.connect(&mut clock, db, donor).expect("connect");
    let mut buf = vec![0u8; 8192];
    let t = Instant::now();
    for i in 0..READS {
        fabric
            .read(
                &mut clock,
                Protocol::Custom,
                db,
                mr,
                (i % 128) * 8192,
                &mut buf,
            )
            .expect("fabric read");
    }
    black_box(&buf);
    t.elapsed().as_nanos() as f64 / READS as f64
}

/// `eval_pages` at 1 % selectivity over 128 slotted pages.
fn eval_row_ns() -> f64 {
    const PAGES: usize = 128;
    let mut data = Vec::with_capacity(PAGES * 8192);
    let mut key = 0i64;
    for _ in 0..PAGES {
        let mut page = Page::new();
        while page.insert(&table_row(key).to_bytes()).is_some() {
            key += 1;
        }
        data.extend_from_slice(page.as_bytes());
    }
    let program = bucket_program(0.01);
    let mut out = Vec::new();
    let t = Instant::now();
    let stats = eval_pages(black_box(&data), &program, &mut out).expect("whole pages");
    black_box(&out);
    t.elapsed().as_nanos() as f64 / stats.rows_scanned as f64
}

/// `Cluster::remote_file` (broker lease + connect + open) of 8 MiB.
fn create_open_us() -> f64 {
    let cluster = Cluster::builder()
        .memory_servers(2)
        .memory_per_server(16 << 20)
        .build();
    let mut clock = Clock::new();
    let t = Instant::now();
    let file = cluster
        .remote_file(
            &mut clock,
            cluster.db_server,
            8 << 20,
            RFileConfig::custom(),
        )
        .expect("create+open");
    let us = t.elapsed().as_nanos() as f64 / 1e3;
    black_box(file);
    us
}

/// Generating one RangeScan customer row, without loading it.
fn gen_row_ns() -> f64 {
    const ROWS: i64 = 20_000;
    let t = Instant::now();
    for k in 0..ROWS {
        black_box(customer_row(black_box(k)));
    }
    t.elapsed().as_nanos() as f64 / ROWS as f64
}
