//! Property-test differential suite for the CSR enumeration machine.
//!
//! Three implementations must agree on every random instance:
//!
//! 1. the CSR [`EnumMachine`]/cursor enumeration (the system under
//!    test),
//! 2. a seed-style naive enumerator written here from the free-semiring
//!    definitions (eager bottom-up materialization, naive permanent
//!    expansion — no support shadow, no cursors),
//! 3. for query answers: `agq_baseline::all_answers` brute force and
//!    one-shard [`agq_enumerate::ShardedEngine`] point queries.
//!
//! Comparisons are on sorted answer/monomial lists, so they check the
//! *set* (and multiplicity) semantics rather than iteration order.

use agq_circuit::{Circuit, CircuitBuilder, ConstRef, GateDef, GateId};
use agq_core::CompileOptions;
use agq_enumerate::{AnswerIndex, EnumMachine, GeneralShardedEngine, ShardedEngine};
use agq_logic::{Formula, Var};
use agq_semiring::{Gen, Nat};
use agq_structure::{Elem, Signature, Structure};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::sync::Arc;

type InputVal = Vec<Vec<Gen>>;

// ---------------------------------------------------------------------
// Seed-style naive enumeration: eager bottom-up materialization.
// ---------------------------------------------------------------------

/// All summands of every gate, materialized eagerly (each monomial
/// sorted). Permanents expand by the textbook recursion over injective
/// column choices.
fn naive_gate_summands(c: &Circuit, vals: &[InputVal]) -> Vec<Vec<Vec<Gen>>> {
    let mut out: Vec<Vec<Vec<Gen>>> = Vec::with_capacity(c.len());
    for g in c.gates() {
        let summands: Vec<Vec<Gen>> = match g {
            GateDef::Input(slot) => vals[*slot as usize]
                .iter()
                .map(|m| {
                    let mut m = m.clone();
                    m.sort();
                    m
                })
                .collect(),
            GateDef::Const(ConstRef::Zero) => Vec::new(),
            GateDef::Const(ConstRef::One) => vec![Vec::new()],
            GateDef::Const(ConstRef::Lit(_)) => panic!("no lits in enumeration circuits"),
            GateDef::Add(r) => c
                .children(*r)
                .iter()
                .flat_map(|ch| out[ch.0 as usize].iter().cloned())
                .collect(),
            GateDef::Mul(a, b) => {
                let mut prod = Vec::new();
                for x in &out[a.0 as usize] {
                    for y in &out[b.0 as usize] {
                        let mut m = x.clone();
                        m.extend(y.iter().copied());
                        m.sort();
                        prod.push(m);
                    }
                }
                prod
            }
            GateDef::Perm { rows, cols } => {
                let k = *rows as usize;
                let cols: Vec<&[GateId]> = c.children(*cols).chunks_exact(k).collect();
                let mut acc = Vec::new();
                let mut used = vec![false; cols.len()];
                perm_expand(&out, &cols, k, 0, &mut used, &mut Vec::new(), &mut acc);
                acc
            }
        };
        out.push(summands);
    }
    out
}

/// `perm(M) = Σ over injective row→column assignments Π_r M[r, σ(r)]`.
fn perm_expand(
    gate_sums: &[Vec<Vec<Gen>>],
    cols: &[&[GateId]],
    k: usize,
    row: usize,
    used: &mut [bool],
    prefix: &mut Vec<Gen>,
    acc: &mut Vec<Vec<Gen>>,
) {
    if row == k {
        let mut m = prefix.clone();
        m.sort();
        acc.push(m);
        return;
    }
    for (ci, col) in cols.iter().enumerate() {
        if used[ci] {
            continue;
        }
        used[ci] = true;
        for summand in &gate_sums[col[row].0 as usize] {
            let len = prefix.len();
            prefix.extend(summand.iter().copied());
            perm_expand(gate_sums, cols, k, row + 1, used, prefix, acc);
            prefix.truncate(len);
        }
        used[ci] = false;
    }
}

/// Monomial count without materializing (skip guard for blown-up cases).
fn naive_count(c: &Circuit, vals: &[InputVal]) -> u64 {
    let slots: Vec<Nat> = vals.iter().map(|v| Nat(v.len() as u64)).collect();
    c.eval(&slots, &[]).0
}

// ---------------------------------------------------------------------
// Random circuits from flat op recipes.
// ---------------------------------------------------------------------

/// Build a circuit from a recipe: `vals.len()` inputs followed by one
/// gate per op. Ops index the already-built gate list modulo its length,
/// so every recipe is valid; the builder's peephole folding may alias
/// some ops to existing gates, which is part of what we want to test.
fn build_from_recipe(vals: &[InputVal], ops: &[(u32, u32, u32, u32)]) -> (Circuit, GateId) {
    let mut b = CircuitBuilder::new();
    let mut gates: Vec<GateId> = (0..vals.len()).map(|i| b.input(i as u32)).collect();
    for &(kind, p1, p2, shape) in ops {
        let pick = |p: u32, gates: &[GateId]| gates[p as usize % gates.len()];
        let g = match kind % 3 {
            0 => {
                let kids: Vec<GateId> = (0..2 + (shape % 2) as usize)
                    .map(|j| pick(p1.wrapping_add(j as u32 * p2), &gates))
                    .collect();
                b.add(&kids)
            }
            1 => {
                let (x, y) = (pick(p1, &gates), pick(p2, &gates));
                b.mul(x, y)
            }
            _ => {
                let rows = (shape % 3 + 1) as usize;
                let ncols = (p2 % 3 + 1) as usize;
                let flat: Vec<GateId> = (0..rows * ncols)
                    .map(|j| pick(p1.wrapping_add(j as u32), &gates))
                    .collect();
                b.perm_flat(rows, flat)
            }
        };
        gates.push(g);
    }
    let out = *gates.last().expect("at least one gate");
    (b.finish(out), out)
}

fn sorted_monomials(mut ms: Vec<Vec<Gen>>) -> Vec<Vec<Gen>> {
    for m in &mut ms {
        m.sort();
    }
    ms.sort();
    ms
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn csr_enumeration_matches_naive(
        vals in pvec(pvec(pvec(0u32..6, 0..3), 0..4), 1..5),
        ops in pvec((0u32..3, 0u32..10_000, 0u32..10_000, 0u32..6), 1..10),
    ) {
        let vals: Vec<InputVal> = vals
            .iter()
            .map(|slot| {
                slot.iter()
                    .map(|m| m.iter().map(|&g| Gen(g as u64)).collect())
                    .collect()
            })
            .collect();
        let (circuit, _) = build_from_recipe(&vals, &ops);
        let circuit = Arc::new(circuit);
        if naive_count(&circuit, &vals) > 3000 {
            return; // keep the eager oracle tractable
        }
        let expect = sorted_monomials(
            naive_gate_summands(&circuit, &vals)
                .swap_remove(circuit.output().0 as usize),
        );
        let machine = EnumMachine::new(circuit, vals);
        let mut got = Vec::new();
        let mut it = machine.summands();
        while let Some(m) = it.next() {
            got.push(m);
        }
        let got = sorted_monomials(got);
        prop_assert_eq!(&got, &expect, "CSR enumeration must equal naive expansion");
        // and the backward walk is the mirror image
        let mut back = Vec::new();
        let mut it = machine.summands();
        while it.next().is_some() {}
        while let Some(m) = it.prev() {
            back.push(m);
        }
        prop_assert_eq!(sorted_monomials(back), expect, "backward walk same multiset");
    }
}

// ---------------------------------------------------------------------
// Query answers: CSR index ≡ brute force ≡ point queries.
// ---------------------------------------------------------------------

fn graph_structure(n: usize, edges: &[(u32, u32)]) -> (Arc<Structure>, agq_structure::RelId) {
    let mut sig = Signature::new();
    let e = sig.add_relation("E", 2);
    let mut a = Structure::new(Arc::new(sig), n);
    for &(u, v) in edges {
        let (u, v) = (u % n as u32, v % n as u32);
        if u != v {
            a.insert(e, &[u, v]);
        }
    }
    (Arc::new(a), e)
}

fn phi_variant(which: u32, e: agq_structure::RelId) -> Formula {
    let (x, y, z) = (Var(0), Var(1), Var(2));
    match which % 4 {
        0 => Formula::Rel(e, vec![x, y]),
        1 => Formula::Rel(e, vec![x, y])
            .and(Formula::Rel(e, vec![y, z]))
            .and(Formula::neq(x, z)),
        2 => Formula::Rel(e, vec![x, y])
            .and(Formula::Rel(e, vec![y, z]))
            .and(Formula::Rel(e, vec![z, x])),
        _ => Formula::Rel(e, vec![x, y]).not().and(Formula::neq(x, y)),
    }
}

fn collect_sorted(ix: &AnswerIndex) -> Vec<Vec<Elem>> {
    let mut out = Vec::new();
    let mut it = ix.iter();
    while let Some(t) = it.next() {
        out.push(t);
    }
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn answers_match_baseline_and_point_queries(
        n in 5usize..13,
        edges in pvec((0u32..16, 0u32..16), 4..30),
        which in 0u32..4,
        probes in pvec((0u32..16, 0u32..16, 0u32..16), 8),
    ) {
        let (a, e) = graph_structure(n, &edges);
        let phi = phi_variant(which, e);
        let opts = CompileOptions::default();

        // CSR enumeration ≡ brute-force baseline, sorted and duplicate-free
        let ix = AnswerIndex::build(&a, &phi, &opts).unwrap();
        let got = collect_sorted(&ix);
        let mut expect = agq_baseline::all_answers(&phi, &a);
        expect.sort();
        prop_assert_eq!(&got, &expect, "answer sets must agree (sorted)");
        let mut dedup = got.clone();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), got.len(), "no duplicates");
        prop_assert_eq!(got.len() as u64, ix.count());

        // ≡ QueryEngine point queries through the unified engine
        let eng: GeneralShardedEngine<Nat> = ShardedEngine::build(&a, &phi, &opts, 1).unwrap();
        let mut eng_answers = eng.collect_answers();
        eng_answers.sort();
        prop_assert_eq!(&eng_answers, &expect, "unified engine enumerates the same set");
        for t in &eng_answers {
            prop_assert_eq!(eng.query(t), Nat(1), "point query confirms each answer");
        }
        let arity = eng.arity();
        for &(p0, p1, p2) in &probes {
            let probe: Vec<Elem> = [p0, p1, p2][..arity]
                .iter()
                .map(|&v| v % n as u32)
                .collect();
            let expected = Nat(u64::from(expect.binary_search(&probe).is_ok()));
            prop_assert_eq!(eng.query(&probe), expected, "probe {:?}", probe);
        }
    }
}
