//! Crash-safe elastic restart: plan + snapshot + WAL round-trip.
//!
//! Builds a one-shard engine over a sparse graph, saves its
//! compiled plan (`.agqplan`) and state snapshot (`.agqsnap`), journals
//! a stream of update batches through the checksummed WAL
//! (`wal.agqlog`), then *drops the engine* — simulating a crash — and
//! recovers a fresh engine from the three files alone. The recovered
//! engine reproduces the live engine's answer stream byte for byte:
//! same count, same enumeration order, same `answer(k)` ranks.
//!
//! Run with `cargo run --release --example persist_restart`.

use sparse_agg::enumerate::GeneralShardedEngine;
use sparse_agg::graph::generators;
use sparse_agg::perm::SegTreePerm;
use sparse_agg::persist::{attach_sharded_file_wal, recover_sharded, save_sharded};
use sparse_agg::prelude::*;
use sparse_agg::semiring::F64;
use std::sync::Arc;
use std::time::Instant;

use sparse_agg::core_engine::TupleUpdate;

type Engine = GeneralShardedEngine<F64>;

fn main() {
    let n = 8_000;
    let g = generators::gnm(n, 2 * n, 7);
    let mut sig = Signature::new();
    let e = sig.add_relation("E", 2);
    let mut a = Structure::new(Arc::new(sig), n);
    for (u, v) in g.edges() {
        a.insert(e, &[u, v]);
        a.insert(e, &[v, u]);
    }
    let edges: Vec<Vec<u32>> = a
        .relation(e)
        .iter()
        .map(|t| t.as_slice().to_vec())
        .collect();
    let a = Arc::new(a);

    // φ(x,y,z) = E(x,y) ∧ E(y,z) ∧ x ≠ z — directed 2-paths.
    let (x, y, z) = (Var(0), Var(1), Var(2));
    let phi = Formula::Rel(e, vec![x, y])
        .and(Formula::Rel(e, vec![y, z]))
        .and(Formula::neq(x, z));

    let t0 = Instant::now();
    let live = Engine::build(&a, &phi, &CompileOptions::default(), 1).unwrap();
    let t_compile = t0.elapsed();
    println!(
        "compiled in {t_compile:?}: {} answers at LSN {}",
        live.count(),
        live.last_lsn()
    );

    // Persist the plan and a point-in-time snapshot.
    let dir = std::env::temp_dir().join(format!("agq_restart_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (plan, snap, wal) = (
        dir.join("q.agqplan"),
        dir.join("q.agqsnap"),
        dir.join("wal.agqlog"),
    );
    let stats = save_sharded(&live, &plan, &snap).unwrap();
    println!(
        "saved plan ({} B) + snapshot ({} B) at LSN {}",
        stats.plan_bytes,
        stats.snapshot_bytes,
        live.last_lsn()
    );

    // Journal 32 batches of deterministic edge flips through the WAL.
    attach_sharded_file_wal(&live, &wal).unwrap();
    let mut present = vec![true; edges.len()];
    let mut s = 0x9e3779b97f4a7c15u64;
    for _ in 0..32 {
        let batch: Vec<TupleUpdate> = (0..8)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let ei = (s % edges.len() as u64) as usize;
                present[ei] = !present[ei];
                TupleUpdate {
                    rel: e,
                    tuple: edges[ei].clone(),
                    present: present[ei],
                }
            })
            .collect();
        live.apply_batch(&batch).unwrap();
    }
    live.detach_wal();
    println!(
        "journaled 32 batches: {} answers at LSN {} ({} B of WAL)",
        live.count(),
        live.last_lsn(),
        std::fs::metadata(&wal).unwrap().len()
    );

    // "Crash": capture the expected stream, then drop the engine.
    let expected_count = live.count();
    let expected_lsn = live.last_lsn();
    let expected: Vec<Vec<u32>> = live.collect_answers();
    drop(live);

    // Restart from the three files alone.
    let t0 = Instant::now();
    let (rec, report) = recover_sharded::<F64, SegTreePerm<F64>>(&plan, &snap, &wal).unwrap();
    let t_recover = t0.elapsed();
    println!(
        "recovered in {t_recover:?} ({:.1}× faster than compiling): \
         snapshot LSN {}, {} batches replayed{}",
        t_compile.as_secs_f64() / t_recover.as_secs_f64(),
        report.snapshot_lsn,
        report.batches_replayed,
        if report.torn_tail || report.corrupt_tail {
            " (damaged tail truncated)"
        } else {
            ""
        }
    );

    assert_eq!(rec.count(), expected_count);
    assert_eq!(rec.last_lsn(), expected_lsn);
    rec.with_shard(0, |_, ix| {
        let mut it = ix.iter();
        for (k, want) in expected.iter().enumerate() {
            let got = it.next().expect("stream ends early");
            assert_eq!(&got, want, "answer {k} diverged");
        }
        assert!(it.next().is_none(), "stream runs long");
    });
    println!(
        "recovered stream is byte-identical: {} answers in the same order at LSN {}",
        expected_count, expected_lsn
    );

    std::fs::remove_dir_all(&dir).ok();
}
