//! Update-interleaving suites: random sequences of input flips /
//! database updates interleaved with enumeration, asserting that the
//! *incremental* paths (support-shadow repair, `apply_update`) are
//! indistinguishable from a full rebuild after every step — on the
//! machine level and through a one-shard `ShardedEngine` for the General, Ring,
//! and Finite point-query backends.

use agq_circuit::{CircuitBuilder, FiniteMaint, PermMaint, RingMaint};
use agq_core::{CompileOptions, TupleUpdate};
use agq_enumerate::{AnswerIndex, EnumMachine, ShardedEngine};
use agq_logic::{Formula, Var};
use agq_perm::SegTreePerm;
use agq_semiring::{Bool, Gen, Int, Nat, Semiring};
use agq_structure::{Elem, RelId, Signature, Structure};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::sync::Arc;

type InputVal = Vec<Vec<Gen>>;

fn collect_machine(m: &EnumMachine) -> Vec<Vec<Gen>> {
    let mut out = Vec::new();
    let mut it = m.summands();
    while let Some(mut mono) = it.next() {
        mono.sort();
        out.push(mono);
    }
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Machine level: interleave `set_input` with enumeration; the
    /// incrementally-maintained support shadow must enumerate exactly
    /// what a machine built fresh from the current values does.
    #[test]
    fn set_input_interleaving_matches_rebuild(
        init in pvec(pvec(pvec(0u32..5, 0..2), 0..3), 6),
        steps in pvec((0u32..6, pvec(pvec(0u32..5, 0..2), 0..3)), 1..12),
    ) {
        // fixed circuit shape exercising add/mul/perm: (x0+x1)·perm2 + x5
        let mut b = CircuitBuilder::new();
        let xs: Vec<_> = (0..6).map(|i| b.input(i)).collect();
        let s = b.add(&[xs[0], xs[1]]);
        let p = b.perm_flat(2, vec![xs[1], xs[2], xs[3], xs[4]]);
        let m = b.mul(s, p);
        let out = b.add(&[m, xs[5]]);
        let circuit = Arc::new(b.finish(out));

        let to_val = |raw: &Vec<Vec<u32>>| -> InputVal {
            raw.iter()
                .map(|mono| mono.iter().map(|&g| Gen(g as u64)).collect())
                .collect()
        };
        let mut vals: Vec<InputVal> = init.iter().map(to_val).collect();
        let mut machine = EnumMachine::new(circuit.clone(), vals.clone());
        for (slot, raw) in &steps {
            let slot = slot % 6;
            let v = to_val(raw);
            vals[slot as usize] = v.clone();
            machine.set_input(slot, v);
            let fresh = EnumMachine::new(circuit.clone(), vals.clone());
            prop_assert_eq!(
                collect_machine(&machine),
                collect_machine(&fresh),
                "incremental support shadow diverged from rebuild"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Unified-engine interleaving across the three backends.
// ---------------------------------------------------------------------

struct World {
    shadow: Structure,
    e: RelId,
    s: RelId,
    phi: Formula,
    /// Gaifman-preserving binary candidates (edges and their reverses).
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
    // every element is S-eligible; seed a few members
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

/// One step of the random update script, resolved against the world.
fn resolve_step(w: &World, kind: u32, pick: u32, present: bool) -> TupleUpdate {
    if kind.is_multiple_of(2) {
        let v = pick % w.n;
        TupleUpdate {
            rel: w.s,
            tuple: vec![v],
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

fn collect_sorted_iter(mut it: agq_enumerate::AnswerIter<'_>) -> Vec<Vec<Elem>> {
    let mut out = Vec::new();
    while let Some(t) = it.next() {
        out.push(t);
    }
    out.sort();
    out
}

fn sorted_answers<S: Semiring, P: PermMaint<S>>(eng: &ShardedEngine<S, P>) -> Vec<Vec<Elem>> {
    eng.with_shard(0, |_, ix| collect_sorted_iter(ix.iter()))
}

/// A one-shard engine over `a`: the flat form every suite here drives.
fn one_shard<S: Semiring, P: PermMaint<S>>(a: &Structure, phi: &Formula) -> ShardedEngine<S, P> {
    ShardedEngine::build(&Arc::new(a.clone()), phi, &CompileOptions::default(), 1).expect("build")
}

/// Drive one backend through the script, asserting after every step that
/// incremental `apply_update` ≡ a full rebuild over the shadow database,
/// and that point queries agree with membership.
fn run_backend<S: Semiring, P: PermMaint<S> + Send + Sync>(
    mut w: World,
    steps: &[(u32, u32, bool)],
) {
    let opts = CompileOptions::default();
    let eng: ShardedEngine<S, P> = one_shard(&w.shadow, &w.phi);
    for (i, &(kind, pick, present)) in steps.iter().enumerate() {
        let u = resolve_step(&w, kind, pick, present);
        if present {
            w.shadow.insert(u.rel, &u.tuple);
        } else {
            w.shadow.remove(u.rel, &u.tuple);
        }
        eng.apply_update(&u).expect("gaifman-preserving");
        let got = sorted_answers(&eng);
        // full rebuild over the updated shadow database
        let rebuilt = AnswerIndex::build_dynamic(&w.shadow, &w.phi, &opts).expect("rebuild");
        let mut expect = Vec::new();
        let mut it = rebuilt.iter();
        while let Some(t) = it.next() {
            expect.push(t);
        }
        expect.sort();
        assert_eq!(&got, &expect, "step {i}: incremental ≠ rebuild");
        // point queries confirm enumeration on this backend
        for t in got.iter().take(8) {
            assert_eq!(eng.query(t), S::one(), "step {i}: answer {t:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn apply_update_matches_rebuild_all_backends(
        n in 6usize..12,
        edges in pvec((0u32..16, 0u32..16), 6..24),
        steps in pvec((0u32..4, 0u32..64, any::<bool>()), 1..10),
    ) {
        let Some(w) = world(n, &edges) else { return };
        run_backend::<Nat, SegTreePerm<Nat>>(world(n, &edges).expect("same world"), &steps);
        run_backend::<Int, RingMaint<Int>>(world(n, &edges).expect("same world"), &steps);
        run_backend::<Bool, FiniteMaint<Bool>>(w, &steps);
    }
}

// ---------------------------------------------------------------------
// Batch-ingestion differential: apply_batch ≡ one-by-one ≡ rebuild.
// ---------------------------------------------------------------------

/// Drive one backend through the script in chunks of `batch_size`,
/// asserting after every chunk that `apply_batch` on one engine agrees
/// with a one-by-one `apply_update` loop on a second engine and with a
/// full rebuild over the shadow database.
fn run_backend_batched<S: Semiring, P: PermMaint<S> + Send + Sync>(
    mut w: World,
    steps: &[(u32, u32, bool)],
    batch_size: usize,
) {
    let opts = CompileOptions::default();
    let batched: ShardedEngine<S, P> = one_shard(&w.shadow, &w.phi);
    let sequential: ShardedEngine<S, P> = one_shard(&w.shadow, &w.phi);
    for (bi, chunk) in steps.chunks(batch_size.max(1)).enumerate() {
        let batch: Vec<TupleUpdate> = chunk
            .iter()
            .map(|&(kind, pick, present)| resolve_step(&w, kind, pick, present))
            .collect();
        for u in &batch {
            if u.present {
                w.shadow.insert(u.rel, &u.tuple);
            } else {
                w.shadow.remove(u.rel, &u.tuple);
            }
        }
        batched.apply_batch(&batch).expect("gaifman-preserving");
        for u in &batch {
            sequential.apply_update(u).expect("gaifman-preserving");
        }
        let got = sorted_answers(&batched);
        let one_by_one = sorted_answers(&sequential);
        assert_eq!(
            &got, &one_by_one,
            "batch {bi}: apply_batch ≠ apply_update loop"
        );
        let rebuilt = AnswerIndex::build_dynamic(&w.shadow, &w.phi, &opts).expect("rebuild");
        let mut expect = Vec::new();
        let mut it = rebuilt.iter();
        while let Some(t) = it.next() {
            expect.push(t);
        }
        expect.sort();
        assert_eq!(&got, &expect, "batch {bi}: apply_batch ≠ rebuild");
        for t in got.iter().take(4) {
            assert_eq!(
                batched.query(t),
                S::one(),
                "batch {bi}: point query at {t:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batches of every size (including duplicates of one tuple within a
    /// batch — coalesced last-wins) agree with sequential application and
    /// a fresh rebuild, on all three backends.
    #[test]
    fn apply_batch_matches_sequential_all_backends(
        n in 6usize..12,
        edges in pvec((0u32..16, 0u32..16), 6..24),
        steps in pvec((0u32..4, 0u32..64, any::<bool>()), 4..24),
        batch_size in 1usize..9,
    ) {
        let Some(w) = world(n, &edges) else { return };
        run_backend_batched::<Nat, SegTreePerm<Nat>>(
            world(n, &edges).expect("same world"), &steps, batch_size);
        run_backend_batched::<Int, RingMaint<Int>>(
            world(n, &edges).expect("same world"), &steps, batch_size);
        run_backend_batched::<Bool, FiniteMaint<Bool>>(w, &steps, batch_size);
    }
}

/// Mutually-cancelling flips inside one batch: the last update per tuple
/// wins, and a batch that nets out to the current state applies nothing
/// (and does not invalidate outstanding iterators).
#[test]
fn cancelling_flips_coalesce() {
    let w = world(8, &[(0, 1), (1, 2), (2, 3), (3, 4)]).expect("world");
    let opts = CompileOptions::default();
    let eng: ShardedEngine<Nat, SegTreePerm<Nat>> = one_shard(&w.shadow, &w.phi);
    let t = w.e_tuples[0];
    let before = sorted_answers(&eng);
    // present tuple: remove-then-insert nets to no change at all
    let batch = vec![TupleUpdate::remove(w.e, &t), TupleUpdate::insert(w.e, &t)];
    let applied = eng.apply_batch(&batch).expect("gaifman-preserving");
    assert_eq!(applied, 0, "net no-op batch applies nothing");
    assert_eq!(sorted_answers(&eng), before);
    // insert-then-remove: the remove wins
    let batch = vec![TupleUpdate::insert(w.e, &t), TupleUpdate::remove(w.e, &t)];
    eng.apply_batch(&batch).expect("gaifman-preserving");
    let mut shadow = w.shadow.clone();
    shadow.remove(w.e, &t);
    let rebuilt = AnswerIndex::build_dynamic(&shadow, &w.phi, &opts).expect("rebuild");
    let mut expect = Vec::new();
    let mut it = rebuilt.iter();
    while let Some(x) = it.next() {
        expect.push(x);
    }
    expect.sort();
    assert_eq!(sorted_answers(&eng), expect);
}
