//! Differential round-trip suite: an engine serialized to disk and
//! loaded back must be **byte-identical** to the live one — same
//! `count()`, same `answer(k)` stream, same enumeration order, and
//! point-query values whose canonical encodings match byte for byte
//! (`f64` compared through `to_bits`) — on all three maintenance
//! backends, including snapshots taken at random points *mid
//! update-stream* with the remaining updates flowing through the WAL.

use agq_circuit::{FiniteMaint, PermMaint, RingMaint};
use agq_core::{CompileOptions, TupleUpdate};
use agq_enumerate::ShardedEngine;
use agq_logic::{Formula, Var};
use agq_perm::SegTreePerm;
use agq_persist::codec::ByteWriter;
use agq_persist::{attach_sharded_file_wal, recover_sharded, save_sharded, PersistValue};
use agq_semiring::{Bool, Int, Semiring, F64};
use agq_structure::{Elem, RelId, Signature, Structure};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fresh scratch paths per invocation (proptest runs many cases; each
/// gets its own plan/snapshot/WAL triple).
fn scratch(label: &str) -> (PathBuf, PathBuf, PathBuf) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let id = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "agq_roundtrip_{}_{}_{}",
        std::process::id(),
        label,
        id
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    (
        dir.join("q.agqplan"),
        dir.join("q.agqsnap"),
        dir.join("wal.agqlog"),
    )
}

/// Canonical byte encoding of a semiring value — byte equality here is
/// the suite's definition of "identical answers".
fn value_bytes<S: PersistValue>(v: &S) -> Vec<u8> {
    let mut w = ByteWriter::new();
    v.write_value(&mut w);
    w.into_bytes()
}

struct World {
    shadow: Structure,
    e: RelId,
    s: RelId,
    phi: Formula,
    e_tuples: Vec<[u32; 2]>,
    n: u32,
}

fn world(n: usize, edges: &[(u32, u32)]) -> Option<World> {
    let mut sig = Signature::new();
    let e = sig.add_relation("E", 2);
    let s = sig.add_relation("S", 1);
    let mut a = Structure::new(Arc::new(sig), n);
    for &(u, v) in edges {
        let (u, v) = (u % n as u32, v % n as u32);
        if u != v {
            a.insert(e, &[u, v]);
        }
    }
    for v in 0..n as u32 / 2 {
        a.insert(s, &[v]);
    }
    let e_tuples: Vec<[u32; 2]> = a
        .relation(e)
        .iter()
        .map(|t| [t.as_slice()[0], t.as_slice()[1]])
        .collect();
    if e_tuples.is_empty() {
        return None;
    }
    let (x, y) = (Var(0), Var(1));
    let phi = Formula::Rel(e, vec![x, y]).and(Formula::Rel(s, vec![x]));
    Some(World {
        shadow: a,
        e,
        s,
        phi,
        e_tuples,
        n: n as u32,
    })
}

/// Resolve one random script step into a Gaifman-preserving update.
fn resolve_step(w: &World, kind: u32, pick: u32, present: bool) -> TupleUpdate {
    if kind.is_multiple_of(2) {
        TupleUpdate {
            rel: w.s,
            tuple: vec![pick % w.n],
            present,
        }
    } else {
        let t = w.e_tuples[pick as usize % w.e_tuples.len()];
        let t = if kind % 4 == 1 { t } else { [t[1], t[0]] };
        TupleUpdate {
            rel: w.e,
            tuple: t.to_vec(),
            present,
        }
    }
}

/// Enumerate a one-shard engine's cursor in engine order (NOT sorted:
/// the recovered engine must reproduce the exact iteration order, not
/// just the answer set).
fn enumeration_order<S: Semiring, P: PermMaint<S>>(e: &ShardedEngine<S, P>) -> Vec<Vec<Elem>> {
    e.with_shard(0, |_, ix| {
        let mut out = Vec::new();
        let mut it = ix.iter();
        while let Some(t) = it.next() {
            out.push(t);
        }
        out
    })
}

/// Drive one backend on one shard: build, apply the pre-snapshot
/// updates, save, journal the rest through the WAL, recover, and assert
/// byte-identity.
fn run_single<S, P>(w: World, steps: &[(u32, u32, bool)], split: usize, label: &str)
where
    S: Semiring + PersistValue,
    P: PermMaint<S> + Send + Sync,
{
    let opts = CompileOptions::default();
    let arc = Arc::new(w.shadow.clone());
    let live: ShardedEngine<S, P> =
        ShardedEngine::build(&arc, &w.phi, &opts, 1).expect("one-shard build");

    let split = split % (steps.len() + 1);
    for &(kind, pick, present) in &steps[..split] {
        live.apply_update(&resolve_step(&w, kind, pick, present))
            .expect("gaifman-preserving update");
    }

    let (plan_path, snap_path, wal_path) = scratch(label);
    save_sharded(&live, &plan_path, &snap_path).expect("save");
    let snapshot_lsn = live.last_lsn();

    attach_sharded_file_wal(&live, &wal_path).expect("attach wal");
    let tail: Vec<TupleUpdate> = steps[split..]
        .iter()
        .map(|&(kind, pick, present)| resolve_step(&w, kind, pick, present))
        .collect();
    let mut tail_batches = 0usize;
    for chunk in tail.chunks(3) {
        live.apply_batch(chunk).expect("batched updates");
        tail_batches += 1;
    }
    live.detach_wal();

    let (recovered, report) =
        recover_sharded::<S, P>(&plan_path, &snap_path, &wal_path).expect("recover");

    assert_eq!(report.snapshot_lsn, snapshot_lsn, "{label}: snapshot lsn");
    assert_eq!(
        report.batches_replayed, tail_batches,
        "{label}: replay count"
    );
    assert!(
        !report.torn_tail && !report.corrupt_tail,
        "{label}: clean log"
    );
    assert_eq!(
        recovered.last_lsn(),
        live.last_lsn(),
        "{label}: lsn continuity"
    );

    assert_eq!(recovered.count(), live.count(), "{label}: count");
    assert_eq!(
        enumeration_order(&recovered),
        enumeration_order(&live),
        "{label}: enumeration order"
    );
    for k in 0..live.count() {
        assert_eq!(recovered.answer(k), live.answer(k), "{label}: answer({k})");
    }
    for a in 0..w.n {
        for b in 0..w.n {
            let t = [a, b];
            assert_eq!(
                value_bytes(&recovered.query(&t)),
                value_bytes(&live.query(&t)),
                "{label}: query({t:?}) not byte-identical"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// serialize → load → answer/count/enumerate, byte-identical to the
    /// live engine, on all three backends, with the snapshot taken at a
    /// random point of the update stream.
    #[test]
    fn roundtrip_is_byte_identical_all_backends(
        n in 6usize..11,
        edges in pvec((0u32..16, 0u32..16), 6..20),
        steps in pvec((0u32..4, 0u32..64, any::<bool>()), 0..14),
        split in 0usize..16,
    ) {
        if world(n, &edges).is_none() { return; }
        run_single::<F64, SegTreePerm<F64>>(
            world(n, &edges).unwrap(), &steps, split, "general-f64");
        run_single::<Int, RingMaint<Int>>(
            world(n, &edges).unwrap(), &steps, split, "ring-int");
        run_single::<Bool, FiniteMaint<Bool>>(
            world(n, &edges).unwrap(), &steps, split, "finite-bool");
    }
}

/// Sharded engine: save under the whole-lockset snapshot, churn through
/// the WAL, recover, and assert the routed answers match byte for byte.
fn run_sharded<S, P>(w: World, steps: &[(u32, u32, bool)], split: usize, label: &str)
where
    S: Semiring + Send + Sync,
    S: PersistValue,
    P: PermMaint<S> + Send + Sync,
{
    let opts = CompileOptions::default();
    let arc = Arc::new(w.shadow.clone());
    let live: ShardedEngine<S, P> =
        ShardedEngine::build(&arc, &w.phi, &opts, 4).expect("sharded build");

    let split = split % (steps.len() + 1);
    for &(kind, pick, present) in &steps[..split] {
        live.apply_update(&resolve_step(&w, kind, pick, present))
            .expect("gaifman-preserving update");
    }

    let (plan_path, snap_path, wal_path) = scratch(label);
    save_sharded(&live, &plan_path, &snap_path).expect("save");
    attach_sharded_file_wal(&live, &wal_path).expect("attach wal");
    let tail: Vec<TupleUpdate> = steps[split..]
        .iter()
        .map(|&(kind, pick, present)| resolve_step(&w, kind, pick, present))
        .collect();
    for chunk in tail.chunks(3) {
        live.apply_batch(chunk).expect("batched updates");
    }
    live.detach_wal();

    let (recovered, report) =
        recover_sharded::<S, P>(&plan_path, &snap_path, &wal_path).expect("recover");
    assert!(
        !report.torn_tail && !report.corrupt_tail,
        "{label}: clean log"
    );
    assert_eq!(recovered.num_shards(), live.num_shards(), "{label}: shards");
    assert_eq!(
        recovered.last_lsn(),
        live.last_lsn(),
        "{label}: lsn continuity"
    );
    assert_eq!(recovered.count(), live.count(), "{label}: count");
    assert_eq!(
        recovered.collect_answers(),
        live.collect_answers(),
        "{label}: answer stream"
    );
    for k in 0..live.count() {
        assert_eq!(recovered.answer(k), live.answer(k), "{label}: answer({k})");
    }
    for a in 0..w.n {
        for b in 0..w.n {
            let t = [a, b];
            assert_eq!(
                value_bytes(&recovered.query(&t)),
                value_bytes(&live.query(&t)),
                "{label}: query({t:?}) not byte-identical"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sharded_roundtrip_is_byte_identical(
        n in 8usize..13,
        edges in pvec((0u32..16, 0u32..16), 6..18),
        steps in pvec((0u32..4, 0u32..64, any::<bool>()), 0..12),
        split in 0usize..16,
    ) {
        if world(n, &edges).is_none() { return; }
        run_sharded::<F64, SegTreePerm<F64>>(
            world(n, &edges).unwrap(), &steps, split, "sharded-general");
        run_sharded::<Int, RingMaint<Int>>(
            world(n, &edges).unwrap(), &steps, split, "sharded-ring");
        run_sharded::<Bool, FiniteMaint<Bool>>(
            world(n, &edges).unwrap(), &steps, split, "sharded-finite");
    }
}
