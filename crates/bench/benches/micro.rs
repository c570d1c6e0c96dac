//! Criterion micro-benchmarks: wall-clock performance of the hot data
//! structures and code paths (the simulation kernel itself must be fast for
//! the figure harnesses to finish in seconds).
//!
//! Includes the ablations DESIGN.md calls out: sync-spin vs async access
//! and staged vs dynamic registration, measured end-to-end through the
//! cluster stack (the virtual-time deltas are asserted in tests; here we
//! track the real cost of simulating them).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use remem::{AccessMode, Cluster, RFileConfig, RegistrationMode};
use remem_engine::btree::{BTree, RightEdge};
use remem_engine::bufferpool::BufferPool;
use remem_engine::exec::{int_row, ExecCtx};
use remem_engine::page::{Page, PAGE_SIZE};
use remem_engine::pagestore::{FileId, PagedFile};
use remem_engine::row::{Row, Value};
use remem_engine::tempdb::TempDb;
use remem_engine::{CpuCosts, DbConfig};
use remem_sim::rng::SimRng;
use remem_sim::{
    Clock, ClosedLoopDriver, CpuPool, EventQueue, FifoResource, MetricsRegistry, PoolResource,
    SimDuration, SimTime,
};
use remem_storage::RamDisk;

fn bench_sim_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim");
    // one acquire is ~100 ns: a handful of iterations only times cold caches
    g.sample_size(1000);
    g.bench_function("fifo_acquire", |b| {
        let r = FifoResource::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 1000;
            r.acquire(SimTime(t), SimDuration::from_nanos(500))
        });
    });
    g.bench_function("cpu_pool_acquire_20c", |b| {
        let p = CpuPool::new(20);
        let mut t = 0u64;
        b.iter(|| {
            t += 1000;
            p.execute(SimTime(t), SimDuration::from_micros(50))
        });
    });
    // a RemoteFile's staging slots: 8 schedulers x 128 slots, kept a few
    // slots deep in transfers so both the idle and the busy side turn over
    g.bench_function("pool_acquire_1024", |b| {
        let p = PoolResource::new(1024);
        let mut t = 0u64;
        b.iter(|| {
            t += 1000;
            p.acquire(SimTime(t), SimDuration::from_micros(12))
        });
    });
    g.finish();
}

fn bench_arena_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("arena");
    // steady-state schedule churn: pop the minimum event, reschedule it
    // later — the exact pattern the closed-loop driver hot path performs
    g.bench_function("event_queue_pop_push_1024", |b| {
        let mut q = EventQueue::with_capacity(1024);
        let mut rng = SimRng::seeded(9);
        for w in 0..1024u32 {
            q.push(SimTime(rng.uniform(0, 1 << 20)), w);
        }
        b.iter(|| {
            let (t, w) = q.pop().unwrap();
            q.push(SimTime(t + 1000), w);
            (t, w)
        });
    });
    g.bench_function("std_binary_heap_pop_push_1024", |b| {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut q: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(1024);
        let mut rng = SimRng::seeded(9);
        for w in 0..1024u32 {
            q.push(Reverse((rng.uniform(0, 1 << 20), w)));
        }
        b.iter(|| {
            let Reverse((t, w)) = q.pop().unwrap();
            q.push(Reverse((t + 1000, w)));
            (t, w)
        });
    });
    g.finish();
}

fn bench_closed_loop_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel");
    g.sample_size(20);
    // one full 200us closed loop over 1024 workers: arena driver vs the
    // pre-arena linear min-scan (the repro_sim_throughput oracle)
    const WORKERS: usize = 1024;
    const HORIZON: SimTime = SimTime(200_000);
    g.bench_function("closed_loop_1024w", |b| {
        b.iter_batched(
            || {
                let rngs: Vec<SimRng> = (0..WORKERS)
                    .map(|w| SimRng::for_worker(11, w as u64))
                    .collect();
                (ClosedLoopDriver::new(WORKERS, HORIZON), rngs)
            },
            |(mut d, mut rngs)| {
                let h = remem_sim::Histogram::new();
                d.run(&h, |w, clock| {
                    clock.advance(SimDuration::from_nanos(rngs[w].uniform(200, 2_000)))
                })
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("min_scan_1024w", |b| {
        b.iter_batched(
            || {
                let rngs: Vec<SimRng> = (0..WORKERS)
                    .map(|w| SimRng::for_worker(11, w as u64))
                    .collect();
                (vec![Clock::new(); WORKERS], rngs)
            },
            |(mut clocks, mut rngs)| {
                let h = remem_sim::Histogram::new();
                let mut started = 0u64;
                loop {
                    let mut idx = 0usize;
                    let mut now = clocks[0].now();
                    for (i, cl) in clocks.iter().enumerate().skip(1) {
                        let t = cl.now();
                        if t < now {
                            idx = i;
                            now = t;
                        }
                    }
                    if now >= HORIZON {
                        break;
                    }
                    clocks[idx].advance(SimDuration::from_nanos(rngs[idx].uniform(200, 2_000)));
                    h.record(clocks[idx].now().since(now));
                    started += 1;
                }
                started
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

/// 64 synthetic slotted pages of 3-column rows `(Int key, Float, Str pad)`,
/// the layout the pushdown kernels run over on the memory server.
fn eval_span(npages: usize) -> Vec<u8> {
    let mut data = Vec::with_capacity(npages * PAGE_SIZE);
    let mut key = 0i64;
    for _ in 0..npages {
        let mut p = Page::new();
        loop {
            let row = Row::new(vec![
                Value::Int(key),
                Value::Float(key as f64 * 0.5),
                Value::Str("payload-pad-payload-pad".into()),
            ]);
            if p.insert(&row.to_bytes()).is_none() {
                break;
            }
            key += 1;
        }
        data.extend_from_slice(p.as_bytes());
    }
    data
}

fn bench_pushdown_eval(c: &mut Criterion) {
    use remem_storage::{eval_pages, Aggregate, CmpOp, Predicate, PushdownProgram};
    let mut g = c.benchmark_group("pushdown-eval");
    let data = eval_span(64);
    let pred = |v| Predicate {
        col: 0,
        op: CmpOp::Lt,
        value: Value::Int(v),
    };
    // predicate evaluation, ~1% selectivity: the kernel's filtering cost
    g.bench_function("predicate_64p_1pct", |b| {
        let prog = PushdownProgram {
            predicates: vec![pred(100)],
            projection: None,
            aggregate: None,
        };
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            eval_pages(&data, &prog, &mut out).unwrap()
        });
    });
    // projection re-encode of every row: the copy cost ceiling
    g.bench_function("projection_64p_all_rows", |b| {
        let prog = PushdownProgram {
            predicates: Vec::new(),
            projection: Some(vec![0, 1]),
            aggregate: None,
        };
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            eval_pages(&data, &prog, &mut out).unwrap()
        });
    });
    // partial-aggregate kernel: scan everything, emit one fixed-width record
    g.bench_function("sum_agg_64p", |b| {
        let prog = PushdownProgram {
            predicates: Vec::new(),
            projection: None,
            aggregate: Some(Aggregate::Sum(0)),
        };
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            eval_pages(&data, &prog, &mut out).unwrap()
        });
    });
    g.finish();
}

fn bench_interned_metrics(c: &mut Criterion) {
    let mut g = c.benchmark_group("interned");
    let r = MetricsRegistry::new();
    let id = r.span("bench.span");
    g.bench_function("span_enter_by_name", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 2;
            let tok = r.span_enter("bench.span", SimTime(t));
            r.span_exit(tok, SimTime(t + 1));
        });
    });
    g.bench_function("span_enter_by_id", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 2;
            let tok = r.span_enter_id(id, SimTime(t));
            r.span_exit(tok, SimTime(t + 1));
        });
    });
    g.finish();
}

fn bench_histogram_percentiles(c: &mut Criterion) {
    let mut g = c.benchmark_group("histogram");
    let h = remem_sim::Histogram::new();
    let mut rng = SimRng::seeded(6);
    for _ in 0..100_000 {
        h.record(SimDuration::from_nanos(rng.uniform(100, 1_000_000)));
    }
    // the batch API sorts the samples once; three scalar calls sort thrice
    g.bench_function("percentile_x3_scalar", |b| {
        b.iter(|| (h.percentile(50.0), h.percentile(99.0), h.percentile(99.9)));
    });
    g.bench_function("percentiles_x3_batch", |b| {
        b.iter(|| h.percentiles(&[50.0, 99.0, 99.9]));
    });
    g.finish();
}

/// The group-commit encode path: the naive shape (encode the body into a
/// fresh `Vec`, then copy it behind a length prefix — the double copy the
/// WAL used to do) vs `WalRecord::encode_into`'s reserve-and-backfill over
/// a reused scratch buffer.
fn bench_wal_encode(c: &mut Criterion) {
    use remem_engine::wal::{WalOp, WalRecord};
    let mut g = c.benchmark_group("wal-encode");
    let recs: Vec<WalRecord> = (0..64)
        .map(|i| WalRecord {
            lsn: i,
            table: 1,
            op: WalOp::Insert,
            key: i as i64,
            row: Some(int_row(&[i as i64, i as i64 * 3, 7])),
        })
        .collect();
    g.bench_function("group64_naive_double_copy", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            for r in &recs {
                let mut body = Vec::with_capacity(64);
                body.extend_from_slice(&r.lsn.to_le_bytes());
                body.extend_from_slice(&r.table.to_le_bytes());
                body.push(0);
                body.extend_from_slice(&r.key.to_le_bytes());
                match &r.row {
                    Some(row) => {
                        body.push(1);
                        body.extend_from_slice(&row.to_bytes());
                    }
                    None => body.push(0),
                }
                out.extend_from_slice(&(body.len() as u32).to_le_bytes());
                out.extend_from_slice(&body);
            }
            out.len()
        });
    });
    g.bench_function("group64_encode_into_scratch", |b| {
        let mut scratch = Vec::with_capacity(8 << 10);
        b.iter(|| {
            scratch.clear();
            for r in &recs {
                r.encode_into(&mut scratch);
            }
            scratch.len()
        });
    });
    g.finish();
}

fn bench_row_page(c: &mut Criterion) {
    let mut g = c.benchmark_group("row_page");
    let row = Row::new(vec![
        Value::Int(42),
        Value::Str("Customer#000000042".into()),
        Value::Float(1234.56),
        Value::Str("x".repeat(190)),
    ]);
    g.bench_function("row_encode", |b| {
        let mut buf = Vec::with_capacity(256);
        b.iter(|| {
            buf.clear();
            row.encode(&mut buf);
        });
    });
    let bytes = row.to_bytes();
    g.bench_function("row_decode", |b| b.iter(|| Row::decode(&bytes)));
    // the same bytes through one reused row, as the grace join's probe loop
    // reads a spilled partition
    g.bench_function("row_decode_into", |b| {
        let mut scratch = Row::default();
        b.iter(|| scratch.decode_into(&bytes));
    });
    g.bench_function("page_fill", |b| {
        b.iter_batched(
            Page::new,
            |mut p| {
                while p.insert(&bytes).is_some() {}
                p
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn engine_parts(pool_pages: u64) -> (BufferPool, Arc<PagedFile>, Clock) {
    let bp = BufferPool::new(pool_pages * PAGE_SIZE as u64);
    let file = Arc::new(PagedFile::new(FileId(0), Arc::new(RamDisk::new(512 << 20))));
    bp.register_file(Arc::clone(&file));
    (bp, file, Clock::new())
}

fn bench_btree(c: &mut Criterion) {
    let mut g = c.benchmark_group("btree");
    g.bench_function("insert_ascending", |b| {
        b.iter_batched(
            || engine_parts(4096),
            |(bp, file, mut clock)| {
                let t = BTree::create(&mut clock, &bp, file).unwrap();
                for k in 0..1_000i64 {
                    t.insert(&mut clock, &bp, k, &[0u8; 100]).unwrap();
                }
            },
            BatchSize::SmallInput,
        );
    });
    // the same tree built by the loaders' path: appends at the right edge
    g.bench_function("bulk_ascending", |b| {
        b.iter_batched(
            || engine_parts(4096),
            |(bp, file, mut clock)| {
                let t = BTree::create(&mut clock, &bp, file).unwrap();
                let mut edge = RightEdge::default();
                for k in 0..1_000i64 {
                    t.append(&mut clock, &bp, &mut edge, k, &[0u8; 100])
                        .unwrap();
                }
            },
            BatchSize::SmallInput,
        );
    });
    let (bp, file, mut clock) = engine_parts(8192);
    let tree = BTree::create(&mut clock, &bp, file).unwrap();
    for k in 0..50_000i64 {
        tree.insert(&mut clock, &bp, k, &[0u8; 100]).unwrap();
    }
    let mut rng = SimRng::seeded(1);
    g.bench_function("get_random_50k", |b| {
        b.iter(|| {
            let k = rng.uniform(0, 50_000) as i64;
            tree.get(&mut clock, &bp, k).unwrap()
        });
    });
    g.bench_function("range_100", |b| {
        b.iter(|| {
            let lo = rng.uniform(0, 49_900) as i64;
            let mut n = 0;
            tree.range(&mut clock, &bp, lo, lo + 100, |_, _| {
                n += 1;
                true
            })
            .unwrap();
            n
        });
    });
    // every leaf of the tree, as the TPC-H / TPC-DS and Fig 14 table scans
    // walk it; `get_random_50k` above is the control the read path leaves alone
    g.bench_function("scan_50k", |b| {
        b.iter(|| {
            let mut bytes = 0;
            tree.scan(&mut clock, &bp, |_, v| {
                bytes += v.len();
                true
            })
            .unwrap();
            bytes
        });
    });
    g.finish();
}

fn bench_operators(c: &mut Criterion) {
    let mut g = c.benchmark_group("operators");
    g.sample_size(20);
    let rows: Vec<Row> = {
        let mut rng = SimRng::seeded(2);
        let mut keys: Vec<i64> = (0..50_000).collect();
        rng.shuffle(&mut keys);
        keys.into_iter().map(|k| int_row(&[k, k % 97])).collect()
    };
    g.bench_function("external_sort_50k_in_memory", |b| {
        let tempdb = TempDb::new(Arc::new(PagedFile::new(
            FileId(9),
            Arc::new(RamDisk::new(256 << 20)),
        )));
        let cpu = CpuPool::new(8);
        let costs = CpuCosts::default();
        b.iter_batched(
            || rows.clone(),
            |rows| {
                let mut clock = Clock::new();
                let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
                remem_engine::sort::external_sort(
                    &mut ctx,
                    &tempdb,
                    rows,
                    |r| r.int(0) as f64,
                    1 << 30,
                    None,
                )
                .unwrap()
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("hash_join_20k_x_50k", |b| {
        let tempdb = TempDb::new(Arc::new(PagedFile::new(
            FileId(9),
            Arc::new(RamDisk::new(256 << 20)),
        )));
        let cpu = CpuPool::new(8);
        let costs = CpuCosts::default();
        let build: Vec<Row> = (0..20_000i64).map(|k| int_row(&[k % 97, k])).collect();
        b.iter_batched(
            || (build.clone(), rows.clone()),
            |(build, probe)| {
                let mut clock = Clock::new();
                let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
                remem_engine::hashjoin::hash_join(
                    &mut ctx,
                    &tempdb,
                    build,
                    probe,
                    |r| r.int(0),
                    |r| r.int(1),
                    1 << 30,
                    |a, b| Row::new(vec![a.0[1].clone(), b.0[0].clone()]),
                )
                .unwrap()
            },
            BatchSize::SmallInput,
        );
    });
    // the spilling arms: 100-byte rows, grants far below the input, a fresh
    // TempDB per iteration (`spill/hash_sort_x8_one_tempdb` is the arm that
    // sees space reused)
    let wide: Vec<Row> = rows.iter().map(|r| spill_row(r.int(0))).collect();
    g.bench_function("external_sort_50k_spill", |b| {
        let cpu = CpuPool::new(8);
        let costs = CpuCosts::default();
        b.iter_batched(
            || (spill_tempdb(), wide.clone()),
            |(tempdb, rows)| {
                let mut clock = Clock::new();
                let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
                remem_engine::sort::external_sort(
                    &mut ctx,
                    &tempdb,
                    rows,
                    |r| r.float(1),
                    1 << 20,
                    None,
                )
                .unwrap()
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("hash_join_grace_spill", |b| {
        let cpu = CpuPool::new(8);
        let costs = CpuCosts::default();
        let build: Vec<Row> = (0..20_000i64).map(|k| spill_row(k % 5_000)).collect();
        b.iter_batched(
            || (spill_tempdb(), build.clone(), wide.clone()),
            |(tempdb, build, probe)| {
                let mut clock = Clock::new();
                let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
                remem_engine::hashjoin::hash_join(
                    &mut ctx,
                    &tempdb,
                    build,
                    probe,
                    |r| r.int(0),
                    |r| r.int(0) % 5_000,
                    512 << 10,
                    |a, b| Row::new(vec![a.0[0].clone(), b.0[1].clone()]),
                )
                .unwrap()
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

/// A ~100-byte `(key, price, pad)` row, the shape the Hash+Sort query spills.
fn spill_row(key: i64) -> Row {
    Row::new(vec![
        Value::Int(key),
        Value::Float((key % 9_973) as f64 * 0.5),
        Value::Str("s".repeat(70)),
    ])
}

fn spill_tempdb() -> TempDb {
    TempDb::new(Arc::new(PagedFile::new(
        FileId(9),
        Arc::new(RamDisk::new(128 << 20)),
    )))
}

fn bench_spill(c: &mut Criterion) {
    let mut g = c.benchmark_group("spill");
    g.sample_size(20);
    let rows: Vec<Row> = (0..100_000i64).map(spill_row).collect();
    let cpu = CpuPool::new(8);
    let costs = CpuCosts::default();
    g.bench_function("writer_push_100k", |b| {
        b.iter_batched(
            spill_tempdb,
            |tempdb| {
                let mut clock = Clock::new();
                let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
                let mut w = tempdb.writer();
                for r in &rows {
                    w.push(&mut ctx, r).unwrap();
                }
                w.finish(&mut ctx).unwrap().pages()
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("reader_drain_100k", |b| {
        let tempdb = spill_tempdb();
        let mut clock = Clock::new();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let mut w = tempdb.writer();
        for r in &rows {
            w.push(&mut ctx, r).unwrap();
        }
        let spill = w.finish(&mut ctx).unwrap();
        b.iter(|| {
            let mut reader = tempdb.reader(&spill);
            let mut n = 0u64;
            while let Some(row) = reader.next(&mut ctx).unwrap() {
                n += row.len() as u64;
            }
            n
        });
    });
    // eight join + sort rounds on one TempDB: from the second round on every
    // spill lands on pages an earlier round has touched
    g.bench_function("hash_sort_x8_one_tempdb", |b| {
        let build: Vec<Row> = (0..10_000i64).map(spill_row).collect();
        let probe: Vec<Row> = (0..40_000i64).map(|k| spill_row(k % 10_000)).collect();
        b.iter_batched(
            || (spill_tempdb(), build.clone(), probe.clone()),
            |(tempdb, build, probe)| {
                let mut clock = Clock::new();
                let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
                let mut top = 0;
                for _ in 0..8 {
                    let joined = remem_engine::hashjoin::hash_join(
                        &mut ctx,
                        &tempdb,
                        build.clone(),
                        probe.clone(),
                        |r| r.int(0),
                        |r| r.int(0),
                        256 << 10,
                        |_, p| p.clone(),
                    )
                    .unwrap();
                    top += remem_engine::sort::external_sort(
                        &mut ctx,
                        &tempdb,
                        joined,
                        |r| r.float(1),
                        1 << 20,
                        Some(100),
                    )
                    .unwrap()
                    .len();
                }
                top
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_rfile_stack(c: &mut Criterion) {
    let mut g = c.benchmark_group("rfile");
    g.sample_size(30);
    // ablation: cost of simulating one remote 8K read per Table 1 choice
    for (name, cfg) in [
        ("read_8k_sync_staged", RFileConfig::custom()),
        (
            "read_8k_async_staged",
            RFileConfig {
                access: AccessMode::Async,
                ..RFileConfig::custom()
            },
        ),
        (
            "read_8k_sync_dynamic",
            RFileConfig {
                registration: RegistrationMode::Dynamic,
                ..RFileConfig::custom()
            },
        ),
    ] {
        let cluster = Cluster::builder()
            .memory_servers(1)
            .memory_per_server(64 << 20)
            .build();
        let mut setup = Clock::new();
        let file = cluster
            .remote_file(&mut setup, cluster.db_server, 32 << 20, cfg)
            .unwrap();
        let mut clock = setup;
        let mut rng = SimRng::seeded(3);
        let mut buf = vec![0u8; 8192];
        g.bench_function(name, |b| {
            b.iter(|| {
                let p = rng.uniform(0, 4000);
                file.read(&mut clock, p * 8192, &mut buf).unwrap();
            });
        });
    }

    // the pipelined vectored path vs 32 scalar reads of the same bytes:
    // tracks the real (host) cost of simulating one doorbell batch
    for (name, vectored) in [("read_32x8k_scalar", false), ("read_32x8k_vectored", true)] {
        let cluster = Cluster::builder()
            .memory_servers(2)
            .memory_per_server(64 << 20)
            .build();
        let mut setup = Clock::new();
        let file = cluster
            .remote_file(
                &mut setup,
                cluster.db_server,
                32 << 20,
                RFileConfig::custom(),
            )
            .unwrap();
        let mut clock = setup;
        let mut rng = SimRng::seeded(5);
        let mut bufs = vec![vec![0u8; 8192]; 32];
        g.bench_function(name, |b| {
            b.iter(|| {
                let base = rng.uniform(0, 3800) * 8192;
                if vectored {
                    let mut reqs: Vec<(u64, &mut [u8])> = bufs
                        .iter_mut()
                        .enumerate()
                        .map(|(i, b)| (base + (i as u64) * 8192, b.as_mut_slice()))
                        .collect();
                    for r in file.read_vectored(&mut clock, &mut reqs) {
                        r.unwrap();
                    }
                } else {
                    for (i, b) in bufs.iter_mut().enumerate() {
                        file.read(&mut clock, base + (i as u64) * 8192, b).unwrap();
                    }
                }
            });
        });
    }

    // the healthy path of a k = 2 file (a 64 MiB file is 64 replica groups):
    // every op asks the broker for the lease's health, and a write fans out
    // to its stripe's group through the quorum path
    let cluster = Cluster::builder()
        .memory_servers(3)
        .memory_per_server(64 << 20)
        .placement(remem::PlacementPolicy::Spread)
        .build();
    let mut clock = Clock::new();
    let cfg = RFileConfig {
        replicas: 2,
        ..RFileConfig::custom()
    };
    let file = cluster
        .remote_file(&mut clock, cluster.db_server, 64 << 20, cfg)
        .unwrap();
    let mut rng = SimRng::seeded(7);
    let mut bufs = vec![vec![0u8; 8192]; 64];
    g.bench_function("read_8k_k2", |b| {
        b.iter(|| {
            let p = rng.uniform(0, 8000);
            file.read(&mut clock, p * 8192, &mut bufs[0]).unwrap();
        });
    });
    g.bench_function("write_8k_k2", |b| {
        b.iter(|| {
            let p = rng.uniform(0, 8000);
            file.write(&mut clock, p * 8192, &bufs[0]).unwrap();
        });
    });
    g.bench_function("read_64x8k_vectored_k2", |b| {
        b.iter(|| {
            let base = rng.uniform(0, 8000 - 64) * 8192;
            let mut reqs: Vec<(u64, &mut [u8])> = bufs
                .iter_mut()
                .enumerate()
                .map(|(i, b)| (base + (i as u64) * 8192, b.as_mut_slice()))
                .collect();
            for r in file.read_vectored(&mut clock, &mut reqs) {
                r.unwrap();
            }
        });
    });
    g.finish();
}

fn bench_database(c: &mut Criterion) {
    let mut g = c.benchmark_group("database");
    g.sample_size(20);
    let db = remem_engine::Database::standalone(
        DbConfig::with_pool(64 << 20),
        8,
        remem_engine::DeviceSet {
            data: Arc::new(RamDisk::new(256 << 20)),
            log: Arc::new(RamDisk::new(64 << 20)),
            tempdb: Arc::new(RamDisk::new(64 << 20)),
            bpext: None,
            wal_ring: None,
        },
    );
    let mut clock = Clock::new();
    let mut table = || {
        let schema = remem_engine::Schema::new(vec![
            ("k", remem_engine::row::ColType::Int),
            ("v", remem_engine::row::ColType::Int),
        ]);
        db.create_table(&mut clock, schema, 0).unwrap()
    };
    let t = table();
    let loaded = table();
    let mut next = 0i64;
    g.bench_function("insert", |b| {
        b.iter(|| {
            db.insert(&mut clock, t, int_row(&[next, next * 2]))
                .unwrap();
            next += 1;
        });
    });
    // the same rows, one push each, into a table a bulk loader holds open
    let mut loader = db.bulk_loader(loaded).unwrap();
    let mut next_loaded = 0i64;
    g.bench_function("bulk_load", |b| {
        b.iter(|| {
            loader
                .push(&mut clock, int_row(&[next_loaded, next_loaded * 2]))
                .unwrap();
            next_loaded += 1;
        });
    });
    loader.finish(&mut clock).unwrap();
    let mut rng = SimRng::seeded(4);
    g.bench_function("point_get", |b| {
        b.iter(|| {
            let k = rng.uniform(0, next.max(1) as u64) as i64;
            db.get(&mut clock, t, k).unwrap()
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sim_kernel,
    bench_arena_queue,
    bench_closed_loop_kernel,
    bench_pushdown_eval,
    bench_interned_metrics,
    bench_histogram_percentiles,
    bench_wal_encode,
    bench_row_page,
    bench_btree,
    bench_operators,
    bench_spill,
    bench_rfile_stack,
    bench_database
);
criterion_main!(benches);
