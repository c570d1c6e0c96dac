//! Soak: TempDB space is leased, not consumed.
//!
//! A TempDB sized for two Hash+Sort queries runs forty of them back to back.
//! Every query must return the same rows in the same order, queries after the
//! first must cost the same virtual time (they land on the same pages), the
//! file must stop growing once the second query is done, and no page may stay
//! live between queries. With a bump allocator the third query ends in
//! `StorageError::OutOfBounds`.

use std::sync::Arc;

use remem_broker::{BrokerConfig, MemoryBroker, MemoryProxy, MetaStore, PlacementPolicy};
use remem_engine::exec::ExecCtx;
use remem_engine::hashjoin::hash_join;
use remem_engine::page::PAGE_SIZE;
use remem_engine::pagestore::{FileId, PagedFile};
use remem_engine::row::{Row, Value};
use remem_engine::sort::external_sort;
use remem_engine::tempdb::TempDb;
use remem_engine::CpuCosts;
use remem_net::{Fabric, NetConfig};
use remem_rfile::{RFileConfig, RemoteFile};
use remem_sim::rng::SimRng;
use remem_sim::{Clock, CpuPool};
use remem_storage::{Device, RamDisk, StorageError};

const MIB: u64 = 1 << 20;
const QUERIES: usize = 40;

/// `(key, price, pad)`, about 100 bytes.
fn row(rng: &mut SimRng, key: i64) -> Row {
    Row::new(vec![
        Value::Int(key),
        Value::Float(rng.uniform(0, 50_000) as f64 * 0.25),
        Value::Str("p".repeat(60 + rng.uniform(0, 21) as usize)),
    ])
}

struct Tables {
    orders: Vec<Row>,
    lineitems: Vec<Row>,
}

fn tables() -> Tables {
    let mut rng = SimRng::seeded(24);
    Tables {
        orders: (0..8_000).map(|k| row(&mut rng, k)).collect(),
        lineitems: (0..32_000).map(|i| row(&mut rng, i % 8_000)).collect(),
    }
}

/// Join lineitems to orders in eight grace partitions, then take the 200
/// cheapest of the joined rows through a sort that spills a run per 512 KiB.
fn hash_sort(
    ctx: &mut ExecCtx<'_>,
    tempdb: &TempDb,
    tables: &Tables,
) -> Result<Vec<Row>, StorageError> {
    let joined = hash_join(
        ctx,
        tempdb,
        tables.orders.clone(),
        tables.lineitems.clone(),
        |o| o.int(0),
        |l| l.int(0),
        256 << 10,
        |o, l| {
            let mut v = l.0.clone();
            v.push(o.0[1].clone());
            Row::new(v)
        },
    )?;
    external_sort(ctx, tempdb, joined, |r| r.float(1), 512 << 10, Some(200))
}

fn fnv(rows: &[Row]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = Vec::new();
    for r in rows {
        buf.clear();
        r.encode(&mut buf);
        for &b in &buf {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A single-copy remote file striped over three donors, as `Design::Custom`
/// mounts TempDB.
fn remote_file(clock: &mut Clock, bytes: u64) -> Arc<dyn Device> {
    let fabric = Arc::new(Fabric::new(NetConfig::default()));
    let db = fabric.add_server("DB", 8);
    let broker = Arc::new(MemoryBroker::new(
        BrokerConfig {
            placement: PlacementPolicy::Spread,
            ..Default::default()
        },
        MetaStore::new(),
    ));
    for i in 0..3 {
        let m = fabric.add_server(format!("M{i}"), 8);
        MemoryProxy::new(m, MIB)
            .donate(&mut Clock::new(), &fabric, &broker, bytes / 3 + 8 * MIB)
            .unwrap();
    }
    Arc::new(
        RemoteFile::create_open(clock, fabric, broker, db, bytes, RFileConfig::custom()).unwrap(),
    )
}

fn soak(device: impl FnOnce(&mut Clock, u64) -> Arc<dyn Device>) {
    let tables = tables();
    let cpu = CpuPool::new(4);
    let costs = CpuCosts::default();

    // what one query takes from a TempDB it has to itself
    let per_query = {
        let roomy = TempDb::new(Arc::new(PagedFile::new(
            FileId(9),
            Arc::new(RamDisk::new(256 * MIB)),
        )));
        let mut clock = Clock::new();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs).parallel();
        hash_sort(&mut ctx, &roomy, &tables).unwrap();
        assert!(roomy.bytes_spilled() > 6 * MIB, "join and sort both spill");
        roomy.high_water_bytes()
    };

    let mut clock = Clock::new();
    let device = device(&mut clock, 2 * per_query);
    let tempdb = TempDb::new(Arc::new(PagedFile::new(FileId(9), device)));
    let mut first = None;
    let mut second_cost = None;
    let mut pages_after_second = 0;
    for q in 1..=QUERIES {
        let t0 = clock.now();
        let rows = {
            let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs).parallel();
            hash_sort(&mut ctx, &tempdb, &tables)
                .unwrap_or_else(|e| panic!("query {q} of {QUERIES} failed: {e}"))
        };
        let cost = clock.now().since(t0);
        assert_eq!(rows.len(), 200);
        assert_eq!(
            *first.get_or_insert(fnv(&rows)),
            fnv(&rows),
            "query {q} returned other rows than query 1"
        );
        assert_eq!(tempdb.live_bytes(), 0, "query {q} left pages live");
        if q == 2 {
            second_cost = Some(cost);
            pages_after_second = tempdb.file().allocated_pages();
        }
        if q >= 2 {
            assert_eq!(Some(cost), second_cost, "query {q} cost other than query 2");
            assert_eq!(
                tempdb.file().allocated_pages(),
                pages_after_second,
                "query {q} grew TempDB"
            );
        }
    }
    assert!(tempdb.high_water_bytes() <= 2 * per_query);
    assert_eq!(
        tempdb.free_runs(),
        [(0, tempdb.high_water_bytes() / PAGE_SIZE as u64)],
        "everything returned, in one run"
    );
}

#[test]
fn forty_queries_in_a_tempdb_sized_for_two_ramdisk() {
    soak(|_, bytes| Arc::new(RamDisk::new(bytes)));
}

#[test]
fn forty_queries_in_a_tempdb_sized_for_two_remote() {
    soak(remote_file);
}
