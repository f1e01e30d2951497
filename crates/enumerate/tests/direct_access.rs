//! Differential suite for O(depth) direct access: `answer(k)` must be
//! indistinguishable from enumerating to rank `k`, on every backend,
//! on one shard ("flat") and sharded, before and after random update interleavings — and
//! it must get there *without* enumerating, which the instrumented
//! gate-visit counter pins down (visits independent of `k`).

use agq_circuit::{FiniteMaint, PermMaint, RingMaint};
use agq_core::{CompileOptions, TupleUpdate};
use agq_enumerate::{AnswerIndex, ShardedEngine};
use agq_logic::{Formula, Var};
use agq_perm::SegTreePerm;
use agq_semiring::{Bool, Int, Nat, Semiring};
use agq_structure::{Elem, RelId, Signature, Structure};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A clustered world: `num_comps` disjoint random components over a
/// binary `E` (symmetrized) and a unary `S`.
fn clustered_world(
    num_comps: usize,
    comp_size: usize,
    seed: u64,
) -> (Arc<Structure>, RelId, RelId, Vec<[u32; 2]>) {
    let mut sig = Signature::new();
    let e = sig.add_relation("E", 2);
    let s = sig.add_relation("S", 1);
    let n = num_comps * comp_size;
    let mut a = Structure::new(Arc::new(sig), n);
    let mut rng = SmallRng::seed_from_u64(seed);
    for c in 0..num_comps {
        let base = (c * comp_size) as u32;
        for i in 1..comp_size as u32 {
            let u = base + i;
            let v = base + rng.gen_range(0..i);
            a.insert(e, &[u, v]);
            a.insert(e, &[v, u]);
        }
    }
    for v in 0..n as u32 {
        if rng.gen_bool(0.6) {
            a.insert(s, &[v]);
        }
    }
    let e_tuples: Vec<[u32; 2]> = a
        .relation(e)
        .iter()
        .map(|t| [t.as_slice()[0], t.as_slice()[1]])
        .collect();
    (Arc::new(a), e, s, e_tuples)
}

/// `iter().nth(k)` on a one-shard engine's cursor: enumerate to rank
/// `k` the slow way.
fn nth_by_walk<S: Semiring, P: PermMaint<S>>(
    eng: &ShardedEngine<S, P>,
    k: u64,
) -> Option<Vec<Elem>> {
    eng.with_shard(0, |_, ix| {
        let mut it = ix.iter();
        let mut cur = it.next();
        for _ in 0..k {
            cur = it.next();
            cur.as_ref()?;
        }
        cur
    })
}

/// The full direct-access contract at the current state of `flat` (one
/// shard) and `sharded` (both over the same formula/database).
fn check_ranks<S: Semiring + PartialEq, P: PermMaint<S> + Send + Sync>(
    flat: &ShardedEngine<S, P>,
    sharded: &ShardedEngine<S, P>,
    probe_ks: &[u64],
    ctx: &str,
) {
    // flat: answer(k) ≡ enumeration rank k, for every rank
    let all = flat.with_shard(0, |_, ix| {
        let mut all = Vec::new();
        let mut it = ix.iter();
        while let Some(t) = it.next() {
            all.push(t);
        }
        all
    });
    assert_eq!(flat.count(), all.len() as u64, "{ctx}: flat count");
    for (k, t) in all.iter().enumerate() {
        assert_eq!(
            flat.answer(k as u64).as_ref(),
            Some(t),
            "{ctx}: flat rank {k}"
        );
    }
    // the literal iter().nth(k) form at the probed ranks
    for &k in probe_ks {
        assert_eq!(flat.answer(k), nth_by_walk(flat, k), "{ctx}: nth at {k}");
    }
    // out-of-range ranks are None, not garbage
    assert_eq!(flat.answer(all.len() as u64), None, "{ctx}: one past end");
    assert_eq!(flat.answer(u64::MAX), None, "{ctx}: far out of range");
    // answer_range ≡ cursor walk from the sought position
    for &k in probe_ks {
        let k = (k as usize).min(all.len()) as u64;
        let len = 5usize;
        let end = ((k as usize) + len).min(all.len());
        assert_eq!(
            flat.answer_range(k, len),
            all[(k as usize).min(all.len())..end],
            "{ctx}: range at {k}"
        );
    }
    // sharded: global rank order = the engine's one answer stream
    let stream = sharded.collect_answers();
    assert_eq!(sharded.count(), stream.len() as u64, "{ctx}: sharded count");
    assert_eq!(stream.len(), all.len(), "{ctx}: same answer cardinality");
    for (k, t) in stream.iter().enumerate() {
        assert_eq!(
            sharded.answer(k as u64).as_ref(),
            Some(t),
            "{ctx}: sharded rank {k}"
        );
    }
    assert_eq!(
        sharded.answer(stream.len() as u64),
        None,
        "{ctx}: sharded end"
    );
    // sharded ranges cross shard boundaries transparently
    for &k in probe_ks {
        let k = (k as usize).min(stream.len()) as u64;
        let end = ((k as usize) + 7).min(stream.len());
        assert_eq!(
            sharded.answer_range(k, 7),
            stream[(k as usize).min(stream.len())..end],
            "{ctx}: sharded range at {k}"
        );
    }
    // sampling stays inside the answer set on both
    for seed in 0..8u64 {
        if let Some(t) = flat.sample(seed) {
            assert!(all.contains(&t), "{ctx}: flat sample member");
        } else {
            assert!(all.is_empty(), "{ctx}: sample None iff empty");
        }
        if let Some(t) = sharded.sample(seed) {
            assert!(stream.contains(&t), "{ctx}: sharded sample member");
        } else {
            assert!(stream.is_empty(), "{ctx}: sharded sample None iff empty");
        }
    }
}

/// One backend's end-to-end property: ranks correct initially, after
/// every single update, and after every batch of a random script.
fn direct_access_backend<S, P>(seed: u64)
where
    S: Semiring + PartialEq,
    P: PermMaint<S> + Send + Sync,
{
    let (a, e, s, e_tuples) = clustered_world(3, 5, seed);
    let (x, y) = (Var(0), Var(1));
    let phi = Formula::Rel(e, vec![x, y]).and(Formula::Rel(s, vec![x]));
    let opts = CompileOptions::default();
    let flat: ShardedEngine<S, P> = ShardedEngine::build(&a, &phi, &opts, 1).unwrap();
    let sharded: ShardedEngine<S, P> = ShardedEngine::build(&a, &phi, &opts, 0).unwrap();
    assert!(sharded.num_shards() > 1, "world must actually shard");

    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
    let total = flat.count();
    let probe_ks: Vec<u64> = (0..6).map(|_| rng.gen_range(0..total.max(1))).collect();
    check_ranks(&flat, &sharded, &probe_ks, "initial");

    for round in 0..6 {
        // a random Gaifman-preserving batch: toggle E tuples and S atoms
        let mut batch = Vec::new();
        for _ in 0..rng.gen_range(1..6) {
            if rng.gen_bool(0.5) {
                let t = e_tuples[rng.gen_range(0..e_tuples.len())];
                let t = if rng.gen_bool(0.5) { t } else { [t[1], t[0]] };
                batch.push(TupleUpdate {
                    rel: e,
                    tuple: t.to_vec(),
                    present: rng.gen_bool(0.5),
                });
            } else {
                batch.push(TupleUpdate {
                    rel: s,
                    tuple: vec![rng.gen_range(0..15u32)],
                    present: rng.gen_bool(0.5),
                });
            }
        }
        if round % 2 == 0 {
            flat.apply_batch(&batch).unwrap();
            sharded.apply_batch(&batch).unwrap();
        } else {
            // the same updates one by one (coalesce first so duplicated
            // tuples resolve the same way on both paths)
            let mut coalesced = Vec::new();
            agq_core::coalesce_updates(&batch, &mut coalesced);
            for u in coalesced {
                flat.apply_update(u).unwrap();
                sharded.apply_update(u).unwrap();
            }
        }
        let total = flat.count();
        let probe_ks: Vec<u64> = (0..4).map(|_| rng.gen_range(0..total.max(1))).collect();
        check_ranks(&flat, &sharded, &probe_ks, &format!("round {round}"));
    }
}

#[test]
fn direct_access_general() {
    for seed in 0..3 {
        direct_access_backend::<Nat, SegTreePerm<Nat>>(40 + seed);
    }
}

#[test]
fn direct_access_ring() {
    direct_access_backend::<Int, RingMaint<Int>>(50);
}

#[test]
fn direct_access_finite() {
    direct_access_backend::<Bool, FiniteMaint<Bool>>(60);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random graphs, random formulas, random ranks: `answer(k)` equals
    /// the k-th enumerated answer (or `None` past the end), and
    /// `answer_range` equals the corresponding cursor walk.
    #[test]
    fn answer_k_equals_enumeration_rank(
        n in 6usize..14,
        edges in pvec((0u32..16, 0u32..16), 4..28),
        which in 0u32..3,
        ks in pvec(0u64..4000, 6),
        range_len in 0usize..6,
    ) {
        let mut sig = Signature::new();
        let e = sig.add_relation("E", 2);
        let mut a = Structure::new(Arc::new(sig), n);
        for &(u, v) in &edges {
            let (u, v) = (u % n as u32, v % n as u32);
            if u != v {
                a.insert(e, &[u, v]);
            }
        }
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let phi = match which {
            0 => Formula::Rel(e, vec![x, y]),
            1 => Formula::Rel(e, vec![x, y])
                .and(Formula::Rel(e, vec![y, z]))
                .and(Formula::neq(x, z)),
            _ => Formula::Rel(e, vec![x, y])
                .and(Formula::Rel(e, vec![y, z]))
                .and(Formula::Rel(e, vec![z, x])),
        };
        let ix = AnswerIndex::build(&a, &phi, &CompileOptions::default()).unwrap();
        let mut all = Vec::new();
        let mut it = ix.iter();
        while let Some(t) = it.next() {
            all.push(t);
        }
        prop_assert_eq!(ix.count(), all.len() as u64);
        for &k in &ks {
            let expect = all.get(k as usize).cloned();
            prop_assert_eq!(ix.answer(k), expect, "rank {}", k);
            let end = ((k as usize) + range_len).min(all.len());
            let walk: Vec<Vec<Elem>> = if (k as usize) < all.len() {
                all[k as usize..end].to_vec()
            } else {
                Vec::new()
            };
            prop_assert_eq!(ix.answer_range(k, range_len), walk, "range at {}", k);
        }
    }
}

/// The tentpole's complexity contract: gate visits per `answer(k)` call
/// are bounded by circuit structure (depth × perm rows), **independent
/// of `k`** — direct access does not enumerate. On a graph with
/// thousands of answers, visits for the last rank must not exceed the
/// small structural bound that the first rank needs.
#[test]
fn gate_visits_independent_of_k() {
    let mut sig = Signature::new();
    let e = sig.add_relation("E", 2);
    let n = 600usize;
    let mut a = Structure::new(Arc::new(sig), n);
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..8 * n {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v {
            a.insert(e, &[u, v]);
        }
    }
    let (x, y, z) = (Var(0), Var(1), Var(2));
    let phi = Formula::Rel(e, vec![x, y])
        .and(Formula::Rel(e, vec![y, z]))
        .and(Formula::neq(x, z));
    let ix = AnswerIndex::build(&a, &phi, &CompileOptions::default()).unwrap();
    let total = ix.count();
    assert!(total > 10_000, "workload must dwarf any structural bound");
    let mut max_visits = 0u64;
    let mut min_visits = u64::MAX;
    for i in 0..=32u64 {
        let k = (total - 1) * i / 32; // ranks spread over the whole space
        let (t, visits) = ix.answer_counting(k);
        assert!(t.is_some(), "rank {k} in range");
        max_visits = max_visits.max(visits);
        min_visits = min_visits.min(visits);
    }
    // Independent of k: the spread between the cheapest and the most
    // expensive rank is structural noise (different path shapes), not
    // growth in k. And the bound is microscopic next to the rank space —
    // an enumeration loop would need ~`total` visits to reach the end.
    assert!(
        max_visits <= 4 * min_visits + 16,
        "visit counts must not grow with k: min {min_visits}, max {max_visits}"
    );
    assert!(
        max_visits * 100 < total,
        "no enumeration loop: {max_visits} visits vs {total} answers"
    );
}
