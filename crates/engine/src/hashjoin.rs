//! Grace hash join with TempDB spilling.
//!
//! The Hash Join of Fig. 2: builds an in-memory table inside its memory
//! grant; when the build side exceeds the grant, both inputs are
//! hash-partitioned into TempDB spill files and each partition pair is
//! joined separately — the build-phase writes and probe-phase reads that
//! dominate the Hash+Sort drill-down (Fig. 14b).

use std::collections::HashMap;

use remem_storage::StorageError;

use crate::exec::ExecCtx;
use crate::row::Row;
use crate::tempdb::{SpillReader, TempDb};

fn row_footprint(r: &Row) -> u64 {
    r.encoded_len() as u64 + 32
}

/// Multiplicative hash spreading keys across partitions.
fn partition_of(key: i64, partitions: usize) -> usize {
    let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 33) as usize % partitions
}

/// Inner-join `build` and `probe` on integer keys. `emit` combines a build
/// row and a probe row into an output row.
#[allow(clippy::too_many_arguments)] // an operator's full physical context
pub fn hash_join(
    ctx: &mut ExecCtx<'_>,
    tempdb: &TempDb,
    build: Vec<Row>,
    probe: Vec<Row>,
    build_key: impl Fn(&Row) -> i64 + Copy,
    probe_key: impl Fn(&Row) -> i64 + Copy,
    grant_bytes: u64,
    emit: impl Fn(&Row, &Row) -> Row + Copy,
) -> Result<Vec<Row>, StorageError> {
    let mut out = Vec::new();
    let build_bytes: u64 = build.iter().map(row_footprint).sum();
    if build_bytes <= grant_bytes {
        let rows = probe.len() as u64;
        let probe = ProbeSide::Rows(probe.iter());
        join_pair(
            ctx, build, rows, probe, build_key, probe_key, emit, &mut out,
        )?;
        return Ok(out);
    }

    // Grace: partition both inputs so each build partition fits the grant.
    let partitions = (build_bytes.div_ceil((grant_bytes * 4 / 5).max(1)) as usize)
        .next_power_of_two()
        .max(2);
    let mut build_parts = Vec::with_capacity(partitions);
    let mut probe_parts = Vec::with_capacity(partitions);
    for _ in 0..partitions {
        build_parts.push(tempdb.writer());
        probe_parts.push(tempdb.writer());
    }
    for r in &build {
        ctx.charge(ctx.costs.row_hash);
        build_parts[partition_of(build_key(r), partitions)].push(ctx, r)?;
    }
    drop(build);
    for r in &probe {
        ctx.charge(ctx.costs.row_hash);
        probe_parts[partition_of(probe_key(r), partitions)].push(ctx, r)?;
    }
    drop(probe);
    let build_files: Vec<_> = build_parts
        .into_iter()
        .map(|w| w.finish(ctx))
        .collect::<Result<_, _>>()?;
    let probe_files: Vec<_> = probe_parts
        .into_iter()
        .map(|w| w.finish(ctx))
        .collect::<Result<_, _>>()?;

    // Each pair is joined as a stream: the build partition is read whole, the
    // probe partition passes through one scratch row. A pair's files are
    // dropped — their pages back in TempDB — before the next pair is read.
    let mut scratch = Row::default();
    for (bf, pf) in build_files.into_iter().zip(probe_files) {
        if bf.is_empty() || pf.is_empty() {
            continue;
        }
        let bpart = tempdb.read_all(ctx, &bf)?;
        let probe = ProbeSide::Spilled(tempdb.reader(&pf), &mut scratch);
        join_pair(
            ctx,
            bpart,
            pf.rows(),
            probe,
            build_key,
            probe_key,
            emit,
            &mut out,
        )?;
    }
    Ok(out)
}

/// The probe rows of one join: in memory, or a spilled partition decoded one
/// row at a time into a scratch row `hash_join` owns.
enum ProbeSide<'a> {
    Rows(std::slice::Iter<'a, Row>),
    Spilled(SpillReader<'a>, &'a mut Row),
}

impl ProbeSide<'_> {
    /// Lend the next probe row; it is valid until the next call.
    fn next(&mut self, ctx: &mut ExecCtx<'_>) -> Result<Option<&Row>, StorageError> {
        match self {
            ProbeSide::Rows(rows) => Ok(rows.next()),
            ProbeSide::Spilled(reader, scratch) => {
                Ok(reader.next_into(ctx, scratch)?.then_some(&**scratch))
            }
        }
    }
}

/// Join one build side that fits the grant against its `probe_rows` probe
/// rows, appending matches to `out` in probe order and, within a probe row,
/// build order.
#[allow(clippy::too_many_arguments)]
fn join_pair(
    ctx: &mut ExecCtx<'_>,
    build: Vec<Row>,
    probe_rows: u64,
    mut probe: ProbeSide<'_>,
    build_key: impl Fn(&Row) -> i64,
    probe_key: impl Fn(&Row) -> i64,
    emit: impl Fn(&Row, &Row) -> Row,
    out: &mut Vec<Row>,
) -> Result<(), StorageError> {
    ctx.charge_n(ctx.costs.row_hash, build.len() as u64);
    // Rows sharing a key are chained in build order: the table maps a key to
    // the `(first, last)` build rows carrying it and `next[i]` is the row
    // after `i` in its chain, so duplicates cost no allocation per key.
    const END: u32 = u32::MAX;
    assert!(build.len() < END as usize, "build side exceeds u32 rows");
    let mut next = vec![END; build.len()];
    // audit: allow(hash-iter, build table is probed by key only - never iterated - so hash order cannot reach the output)
    let mut table: HashMap<i64, (u32, u32)> = HashMap::with_capacity(build.len());
    for (i, r) in build.iter().enumerate() {
        let i = i as u32;
        table
            .entry(build_key(r))
            .and_modify(|(_, last)| {
                next[*last as usize] = i;
                *last = i;
            })
            .or_insert((i, i));
    }
    let matched_before = out.len();
    ctx.charge_n(ctx.costs.row_hash, probe_rows);
    while let Some(p) = probe.next(ctx)? {
        if let Some(&(first, _)) = table.get(&probe_key(p)) {
            let mut bi = first;
            while bi != END {
                out.push(emit(&build[bi as usize], p));
                bi = next[bi as usize];
            }
        }
    }
    ctx.charge_n(ctx.costs.row_output, (out.len() - matched_before) as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuCosts;
    use crate::exec::int_row;
    use crate::pagestore::{FileId, PagedFile};
    use crate::row::Value;
    use remem_sim::{Clock, CpuPool};
    use remem_storage::RamDisk;
    use std::sync::Arc;

    fn setup() -> (TempDb, Clock, CpuPool, CpuCosts) {
        let file = Arc::new(PagedFile::new(FileId(9), Arc::new(RamDisk::new(128 << 20))));
        (
            TempDb::new(file),
            Clock::new(),
            CpuPool::new(4),
            CpuCosts::default(),
        )
    }

    fn emit_pair(b: &Row, p: &Row) -> Row {
        let mut vals = b.0.clone();
        vals.extend(p.0.iter().cloned());
        Row::new(vals)
    }

    /// Reference nested-loop join for equivalence checking.
    fn nlj(build: &[Row], probe: &[Row], bk: usize, pk: usize) -> Vec<(i64, i64, i64, i64)> {
        let mut out = Vec::new();
        for b in build {
            for p in probe {
                if b.int(bk) == p.int(pk) {
                    out.push((b.int(0), b.int(1), p.int(0), p.int(1)));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn run_join(grant: u64, n_build: i64, n_probe: i64) -> (Vec<(i64, i64, i64, i64)>, u64) {
        let (tempdb, mut clock, cpu, costs) = setup();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        // build: (key, key*10); probe: (key%k, i) with duplicates on both sides
        let build: Vec<Row> = (0..n_build).map(|i| int_row(&[i % 97, i * 10])).collect();
        let probe: Vec<Row> = (0..n_probe).map(|i| int_row(&[i % 97, i])).collect();
        let joined = hash_join(
            &mut ctx,
            &tempdb,
            build.clone(),
            probe.clone(),
            |r| r.int(0),
            |r| r.int(0),
            grant,
            emit_pair,
        )
        .unwrap();
        let mut got: Vec<(i64, i64, i64, i64)> = joined
            .iter()
            .map(|r| (r.int(0), r.int(1), r.int(2), r.int(3)))
            .collect();
        got.sort_unstable();
        let expected = nlj(&build, &probe, 0, 0);
        assert_eq!(got, expected, "hash join must equal nested-loop reference");
        (got, tempdb.bytes_spilled())
    }

    #[test]
    fn in_memory_join_matches_reference() {
        let (_, spilled) = run_join(64 << 20, 500, 700);
        assert_eq!(spilled, 0);
    }

    #[test]
    fn grace_join_matches_reference_and_spills() {
        let (_, spilled) = run_join(16 << 10, 2000, 3000);
        assert!(spilled > 0, "small grant must force partitioning");
    }

    #[test]
    fn empty_sides() {
        let (tempdb, mut clock, cpu, costs) = setup();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let probe: Vec<Row> = (0..10).map(|i| int_row(&[i])).collect();
        let out = hash_join(
            &mut ctx,
            &tempdb,
            vec![],
            probe,
            |r| r.int(0),
            |r| r.int(0),
            1 << 20,
            emit_pair,
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn no_matches_yields_empty() {
        let (tempdb, mut clock, cpu, costs) = setup();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let build: Vec<Row> = (0..100).map(|i| int_row(&[i])).collect();
        let probe: Vec<Row> = (1000..1100).map(|i| int_row(&[i])).collect();
        let out = hash_join(
            &mut ctx,
            &tempdb,
            build,
            probe,
            |r| r.int(0),
            |r| r.int(0),
            1 << 10,
            emit_pair,
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn join_handles_string_payloads() {
        let (tempdb, mut clock, cpu, costs) = setup();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let build: Vec<Row> = (0..50)
            .map(|i| Row::new(vec![Value::Int(i), Value::Str(format!("name-{i}"))]))
            .collect();
        let probe: Vec<Row> = (0..50).map(|i| int_row(&[i % 50, i])).collect();
        let out = hash_join(
            &mut ctx,
            &tempdb,
            build,
            probe,
            |r| r.int(0),
            |r| r.int(0),
            1 << 10, // force spill with strings
            emit_pair,
        )
        .unwrap();
        assert_eq!(out.len(), 50);
        for r in &out {
            assert_eq!(r.str(1), format!("name-{}", r.int(0)));
        }
    }
}
