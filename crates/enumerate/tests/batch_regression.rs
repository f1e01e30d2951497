//! Batch-ingestion regression test over the E14-style service workload.
//!
//! Pins the two properties PR 6 bought:
//!
//! 1. `apply_batch` at batch size 64 beats the same updates applied
//!    one-by-one on a **hot-key churn** script (95% of updates repeatedly
//!    flip a handful of edges, as a service ingesting bursty upserts
//!    would see). The win is tuple-level coalescing plus the
//!    coalesce-once stack: duplicated flips cancel before any gate is
//!    touched, and the survivors pay one hash, one validation, and one
//!    dirty sweep per side for the whole batch. On *uniform random*
//!    updates the per-update cones are disjoint — batch and sequential
//!    do identical gate work there, so a uniform script would measure
//!    nothing but overhead. The budget (≥1.5×) is well under the ~3-4×
//!    measured in release mode, leaving room for CI noise.
//! 2. Enumeration delay does not regress after batched ingestion: the
//!    p99.9 / max per-answer budgets of `delay_regression.rs` must still
//!    hold on an index that absorbed its updates through `apply_batch`.
//!
//! Wall-clock budgets are only meaningful with optimizations on, so the
//! assertions are compiled under `not(debug_assertions)`: run via
//! `cargo test -p agq-enumerate --release` (CI does).

#![cfg(not(debug_assertions))]

use agq_core::{CompileOptions, TupleUpdate};
use agq_enumerate::ShardedEngine;
use agq_logic::{Formula, Var};
use agq_perm::SegTreePerm;
use agq_semiring::Nat;
use agq_structure::{RelId, Signature, Structure};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The E14 world: 64 sparse components of 250 vertices (random tree plus
/// chords, symmetrized) with a unary mark on even vertices, queried by
/// `E(x, y) ∧ S(x)`.
fn e14_world() -> (Structure, Formula, RelId) {
    let (comps, m) = (64usize, 250usize);
    let n = comps * m;
    let mut sig = Signature::new();
    let e = sig.add_relation("E", 2);
    let s = sig.add_relation("S", 1);
    let mut a = Structure::new(Arc::new(sig), n);
    let mut rng = SmallRng::seed_from_u64(14);
    for c in 0..comps {
        let base = (c * m) as u32;
        for i in 1..m as u32 {
            let u = base + i;
            let v = base + rng.gen_range(0..i);
            a.insert(e, &[u, v]);
            a.insert(e, &[v, u]);
        }
    }
    for v in 0..n as u32 {
        if v % 2 == 0 {
            a.insert(s, &[v]);
        }
    }
    let (x, y) = (Var(0), Var(1));
    let phi = Formula::Rel(e, vec![x, y]).and(Formula::Rel(s, vec![x]));
    (a, phi, e)
}

/// Hot-key churn script: `reps` membership flips, 95% of them over a hot
/// set of 4 edges, presence tracked so every update is a real flip at
/// generation time.
fn churn_script(a: &Structure, e: RelId, reps: usize, seed: u64) -> Vec<TupleUpdate> {
    let edges: Vec<Vec<u32>> = a
        .relation(e)
        .iter()
        .map(|t| t.as_slice().to_vec())
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut present = vec![true; edges.len()];
    let hot: Vec<usize> = (0..4).map(|_| rng.gen_range(0..edges.len())).collect();
    (0..reps)
        .map(|_| {
            let ei = if rng.gen_bool(0.95) {
                hot[rng.gen_range(0..hot.len())]
            } else {
                rng.gen_range(0..edges.len())
            };
            present[ei] = !present[ei];
            TupleUpdate {
                rel: e,
                tuple: edges[ei].clone(),
                present: present[ei],
            }
        })
        .collect()
}

#[test]
fn batch64_beats_sequential_and_delay_holds() {
    const BATCH: usize = 64;
    const P999_BUDGET: Duration = Duration::from_millis(1);
    const MAX_BUDGET: Duration = Duration::from_millis(50);

    let (a, phi, e) = e14_world();
    let script = churn_script(&a, e, 40_000, 99);

    let arc = Arc::new(a);
    let opts = CompileOptions::default();
    let batched: ShardedEngine<Nat, SegTreePerm<Nat>> =
        ShardedEngine::build(&arc, &phi, &opts, 1).unwrap();
    let sequential: ShardedEngine<Nat, SegTreePerm<Nat>> =
        ShardedEngine::build(&arc, &phi, &opts, 1).unwrap();

    // warm both engines (page in plans, fault in the hot cones) with a
    // full pass; the script toggles presence, so a second pass replays
    // cleanly from wherever the first one ended
    for u in &script {
        batched.apply_update(u).unwrap();
        sequential.apply_update(u).unwrap();
    }

    let t0 = Instant::now();
    for chunk in script.chunks(BATCH) {
        batched.apply_batch(chunk).unwrap();
    }
    let batch_time = t0.elapsed();

    let t0 = Instant::now();
    for u in &script {
        sequential.apply_update(u).unwrap();
    }
    let seq_time = t0.elapsed();

    // both engines replayed the same script: they must agree exactly
    assert_eq!(batched.count(), sequential.count());

    assert!(
        batch_time.as_nanos() * 3 < seq_time.as_nanos() * 2,
        "apply_batch({BATCH}) must beat sequential by ≥1.5× on hot-key churn: \
         batched {batch_time:?} vs sequential {seq_time:?} over {} updates",
        script.len()
    );

    // enumeration delay on the batch-updated index must still meet the
    // delay budgets
    let (count, mut delays) = batched.with_shard(0, |_, ix| {
        let mut it = ix.iter();
        let mut count = 0u64;
        let mut delays: Vec<Duration> = Vec::with_capacity(70_000);
        loop {
            let t = Instant::now();
            let step = it.next();
            let d = t.elapsed();
            if step.is_none() {
                break;
            }
            delays.push(d);
            count += 1;
        }
        (count, delays)
    });
    assert!(count > 5_000, "workload sanity: enough answers to measure");
    delays.sort();
    let p999 = delays[delays.len() - 1 - delays.len() / 1000];
    let max = *delays.last().unwrap();
    assert!(
        p999 < P999_BUDGET,
        "p99.9 per-answer delay {p999:?} over budget {P999_BUDGET:?} \
         across {count} answers after batched ingestion"
    );
    assert!(
        max < MAX_BUDGET,
        "max per-answer delay {max:?} over budget {MAX_BUDGET:?} \
         across {count} answers after batched ingestion"
    );
}
