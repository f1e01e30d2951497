//! Persistence performance regression test (PR 9) over the E9 workload
//! at n = 16 000.
//!
//! Pins the two properties that make the persistence layer worth its
//! bytes:
//!
//! 1. **Plan load beats recompile by ≥ 5×.** `.agqplan` stores the
//!    canonical flat circuit buffers; loading is a linear decode plus
//!    the linear `EvalPlan`/`EnumPlan` rebuilds, while recompiling
//!    re-runs tree-decomposition, circuit construction, and slot
//!    binding. Measured ≈ 20–80× at this size; the 5× gate leaves
//!    headroom for noisy CI while still catching a load path that
//!    accidentally re-enters the compiler.
//!
//! 2. **Snapshot + WAL restart beats a cold rebuild.** Recovering from
//!    a snapshot plus a 64-batch WAL tail must come in under the time a
//!    fresh `ShardedEngine::build` takes — otherwise crash recovery would be
//!    pointless — and under a generous absolute ceiling so a quadratic
//!    replay loop can't hide behind a slow baseline.
//!
//! Budgets are only meaningful with optimizations on, so the assertions
//! are compiled under `not(debug_assertions)`: run via
//! `cargo test -p agq-persist --release` (CI does).

#![cfg(not(debug_assertions))]

use agq_core::{CompileOptions, TupleUpdate};
use agq_enumerate::GeneralShardedEngine;
use agq_graph::generators;
use agq_logic::{Formula, Var};
use agq_perm::SegTreePerm;
use agq_persist::{attach_sharded_file_wal, load_sharded, recover_sharded, save_sharded};
use agq_semiring::F64;
use agq_structure::{RelId, Signature, Structure};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Engine = GeneralShardedEngine<F64>;

/// The E9 workload: symmetrized G(n, 2n), two-path query with x ≠ z.
fn e9_workload(n: usize) -> (Structure, Formula, RelId) {
    let g = generators::gnm(n, 2 * n, 7);
    let mut sig = Signature::new();
    let e = sig.add_relation("E", 2);
    let mut a = Structure::new(Arc::new(sig), n);
    for (u, v) in g.edges() {
        a.insert(e, &[u, v]);
        a.insert(e, &[v, u]);
    }
    let (x, y, z) = (Var(0), Var(1), Var(2));
    let phi = Formula::Rel(e, vec![x, y])
        .and(Formula::Rel(e, vec![y, z]))
        .and(Formula::neq(x, z));
    (a, phi, e)
}

fn scratch(label: &str) -> (PathBuf, PathBuf, PathBuf) {
    let mut dir = std::env::temp_dir();
    dir.push(format!("agq_persist_reg_{}_{}", std::process::id(), label));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    (
        dir.join("q.agqplan"),
        dir.join("q.agqsnap"),
        dir.join("wal.agqlog"),
    )
}

#[test]
fn plan_load_beats_recompile() {
    /// Loading a serialized plan must be at least this many times
    /// faster than compiling it from the formula.
    const SPEEDUP_FLOOR: f64 = 5.0;

    let n = 16_000;
    let (a, phi, _) = e9_workload(n);
    let a = Arc::new(a);
    let opts = CompileOptions::default();

    // Cold compile, timed. A second compile would be the honest
    // baseline for "restart without persistence" — the first already
    // paid page-faults for the structure, so time the second.
    let engine = Engine::build(&a, &phi, &opts, 1).expect("build");
    let t = Instant::now();
    let rebuilt = Engine::build(&a, &phi, &opts, 1).expect("rebuild");
    let t_compile = t.elapsed();
    assert_eq!(engine.count(), rebuilt.count());

    let (plan, snap, _wal) = scratch("planload");
    save_sharded(&engine, &plan, &snap).expect("save");

    // Warm the file cache with one load, then time the second.
    load_sharded::<F64, SegTreePerm<F64>>(&plan, &snap).expect("first load");
    let t = Instant::now();
    let loaded = load_sharded::<F64, SegTreePerm<F64>>(&plan, &snap).expect("second load");
    let t_load = t.elapsed();

    assert_eq!(
        loaded.count(),
        engine.count(),
        "loaded engine answers match"
    );
    let speedup = t_compile.as_secs_f64() / t_load.as_secs_f64();
    assert!(
        speedup >= SPEEDUP_FLOOR,
        "plan load {t_load:?} is only {speedup:.1}× faster than recompile \
         {t_compile:?}; floor is {SPEEDUP_FLOOR}× — the load path is doing \
         compiler work"
    );
}

#[test]
fn wal_recovery_beats_cold_rebuild() {
    /// Recovery (plan + snapshot load + 64-batch replay) must not cost
    /// more than this fraction of a cold compile — above 1.0 the WAL
    /// restart path would be slower than throwing the state away.
    const REBUILD_FRACTION: f64 = 1.0;
    /// Absolute ceiling so a slow baseline can't mask a quadratic
    /// replay loop; the measured recovery is tens of milliseconds.
    const ABSOLUTE_CEILING: Duration = Duration::from_secs(10);

    let n = 16_000;
    let (a, phi, e) = e9_workload(n);
    let a = Arc::new(a);
    let opts = CompileOptions::default();
    let edges: Vec<Vec<u32>> = a
        .relation(e)
        .iter()
        .map(|t| t.as_slice().to_vec())
        .collect();

    let live = Engine::build(&a, &phi, &opts, 1).expect("build");
    let (plan, snap, wal) = scratch("walrec");
    save_sharded(&live, &plan, &snap).expect("save");
    attach_sharded_file_wal(&live, &wal).expect("attach wal");

    // 64 batches of 16 deterministic edge flips through the WAL.
    let mut present = vec![true; edges.len()];
    let mut s = 0x9e3779b97f4a7c15u64;
    for _ in 0..64 {
        let batch: Vec<TupleUpdate> = (0..16)
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
        live.apply_batch(&batch).expect("batch");
    }
    live.detach_wal();

    // The cold-rebuild baseline recovery has to beat.
    let t = Instant::now();
    let _cold = Engine::build(&a, &phi, &opts, 1).expect("rebuild");
    let t_rebuild = t.elapsed();

    let t = Instant::now();
    let (rec, report) =
        recover_sharded::<F64, SegTreePerm<F64>>(&plan, &snap, &wal).expect("recover");
    let t_recover = t.elapsed();

    assert_eq!(report.batches_committed, 64);
    assert_eq!(report.batches_replayed, 64);
    assert!(!report.torn_tail && !report.corrupt_tail);
    assert_eq!(
        rec.count(),
        live.count(),
        "recovery reproduces the live state"
    );
    assert_eq!(rec.last_lsn(), live.last_lsn());

    assert!(
        t_recover < ABSOLUTE_CEILING,
        "64-batch recovery took {t_recover:?}; ceiling {ABSOLUTE_CEILING:?}"
    );
    let fraction = t_recover.as_secs_f64() / t_rebuild.as_secs_f64();
    assert!(
        fraction < REBUILD_FRACTION,
        "recovery {t_recover:?} is {:.0}% of a cold rebuild ({t_rebuild:?}); \
         past {:.0}% the restart path is slower than recompiling",
        fraction * 100.0,
        REBUILD_FRACTION * 100.0
    );
}
