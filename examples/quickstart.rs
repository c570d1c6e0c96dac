//! Quickstart: lease remote memory, mount it behind the lightweight file
//! API, and run a database whose BPExt and TempDB live on another server.
//!
//! Run with: `cargo run --release -p remem --example quickstart`

use remem::{Cluster, ColType, DbOptions, Design, RFileConfig, Schema, Value};
use remem_engine::Row;
use remem_sim::Clock;

fn main() {
    // A cluster: one database server under memory pressure, two donors with
    // 64 MiB of unused memory each (every donor's proxy has already pinned,
    // registered and offered its MRs to the broker).
    let cluster = Cluster::builder()
        .memory_servers(2)
        .memory_per_server(64 << 20)
        .build();
    println!(
        "cluster up: {} donors offering {} MiB of remote memory",
        cluster.memory_servers.len(),
        cluster.available_remote_bytes() >> 20
    );

    // --- The core abstraction: a remote file (Table 2) ------------------
    let mut clock = Clock::new();
    let file = cluster
        .remote_file(
            &mut clock,
            cluster.db_server,
            8 << 20,
            RFileConfig::custom(),
        )
        .expect("lease + open remote file");
    file.write(&mut clock, 4096, b"bytes that live on another server")
        .unwrap();
    let mut buf = vec![0u8; 33];
    file.read(&mut clock, 4096, &mut buf).unwrap();
    println!(
        "remote file round trip: {:?} (donors: {:?}, virtual time {})",
        String::from_utf8_lossy(&buf),
        file.donors(),
        clock.now()
    );
    file.delete(&mut clock).unwrap();

    // --- A full database in the paper's Custom design -------------------
    let db = Design::Custom
        .build(&cluster, &mut clock, &DbOptions::small())
        .expect("build Custom design");
    let t = db
        .create_table(
            &mut clock,
            Schema::new(vec![
                ("custkey", ColType::Int),
                ("name", ColType::Str),
                ("acctbal", ColType::Float),
            ]),
            0,
        )
        .unwrap();
    for k in 0..5_000i64 {
        db.insert(
            &mut clock,
            t,
            Row::new(vec![
                Value::Int(k),
                Value::Str(format!("Customer#{k:06}")),
                Value::Float(k as f64 / 3.0),
            ]),
        )
        .unwrap();
    }
    // a range query: sum(acctbal) over custkey in [100, 200)
    let rows = db.range(&mut clock, t, 100, 200).unwrap();
    let sum: f64 = rows.iter().map(|r| r.float(2)).sum();
    println!("range query: {} rows, sum(acctbal) = {sum:.2}", rows.len());

    let s = db.bp_stats();
    println!(
        "buffer pool: {} hits, {} misses ({} served by the remote-memory extension)",
        s.hits, s.misses, s.ext_hits
    );
    println!("total virtual time: {}", clock.now());
}
