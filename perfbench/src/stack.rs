//! The serving stack as the benchmark drives it: `ShardedEngine` and the
//! sharded persistence entry points, and — for the traced run — the same
//! work split into the public calls of each layer.

use crate::trace::{aside, layer, op};
use crate::world::World;
use sparse_agg::core_engine::{
    coalesce_updates, compile, eliminate_quantifiers, CompileOptions, GeneralEngine, TupleUpdate,
    WalSink,
};
use sparse_agg::enumerate::{AnswerIndex, GeneralShardedEngine};
use sparse_agg::logic::{normalize, Expr, Formula};
use sparse_agg::persist::{
    attach_sharded_file_wal, load_plan, load_sharded, recover_sharded, save_sharded,
    save_sharded_plan, save_sharded_snapshot, scan_wal, FileWal, PersistError,
};
use sparse_agg::semiring::Nat;
use sparse_agg::structure::gaifman::GaifmanComponents;
use sparse_agg::structure::{Elem, Structure, WeightedStructure};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub type Engine = GeneralShardedEngine<Nat>;
type Point = GeneralEngine<Nat>;

/// Fixed, not read from the core count: the shard layout is part of the
/// workload, not of the machine.
pub const MAX_SHARDS: usize = 2;

/// Layer statistics that are counts, not times.
#[derive(Default)]
pub struct Counts {
    pub gates: f64,
    pub shapes: f64,
    pub dense_coverage: f64,
    pub coalesce_in: u64,
    pub coalesce_out: u64,
    pub seeks: u64,
    pub seek_visits: u64,
    pub plan_bytes: u64,
    pub snapshot_bytes: u64,
    pub replay_updates: u64,
}

/// Build the engine and force the lazy count side, as a server would
/// before taking traffic.
pub fn build(a: &Arc<Structure>, phi: &Formula) -> Result<Engine, String> {
    let eng = Engine::build(a, phi, &CompileOptions::default(), MAX_SHARDS)
        .map_err(|e| format!("build: {e}"))?;
    eng.count();
    Ok(eng)
}

/// [`build`] split into its layers (the same calls, in the same order, as
/// `ShardedEngine::build`), assembled with `ShardedEngine::from_saved_parts`.
/// Also returns an unsharded [`Replica`] for attributing later operations,
/// and the seconds spent in set-up proper (without the replica).
pub fn build_traced(w: &World, counts: &mut Counts) -> Result<(Engine, Replica, f64), String> {
    let opts = CompileOptions::default();
    let start = Instant::now();
    let (eng, parts) = op("op.setup", || {
        let local = w.phi.answers_component_local();
        let shards = if local { MAX_SHARDS } else { 1 };
        let components = layer("structure.gaifman", || GaifmanComponents::new(&w.a, shards));
        let mut copts = opts.clone();
        copts.dynamic_atoms = true;
        let expr: Expr<Nat> = Expr::Bracket(w.phi.clone());
        let (expr, a2) = layer("core.qe", || eliminate_quantifiers(&expr, &w.a, &copts))
            .map_err(|e| format!("qe: {e}"))?;
        let nf = layer("logic.normalize", || normalize(&expr)).map_err(|e| format!("{e}"))?;
        let compiled = layer("core.compile", || compile(&a2, &nf, &copts))
            .map_err(|e| format!("compile: {e}"))?;
        let compiled = Arc::new(compiled);
        let plan = Arc::new(layer("circuit.plan_build", || Point::build_plan(&compiled)));
        let weights = WeightedStructure::<Nat>::new(a2);
        let base = layer("enumerate.index_build", || {
            AnswerIndex::build_dynamic(&w.a, &w.phi, &opts)
        })
        .map_err(|e| format!("index: {e}"))?;
        let mut states = Vec::new();
        for s in 0..components.num_shards() {
            let qe = layer("core.engine_init", || {
                Point::from_parts(compiled.clone(), plan.clone(), &weights)
            });
            let index = layer("enumerate.shard_split", || {
                base.shard_filtered(|e| components.shard_of(e) == s as u32)
            });
            layer("enumerate.count_build", || index.count());
            states.push((qe, index));
        }
        let arity = compiled.free_vars.len();
        let eng = Engine::from_saved_parts(components, local, arity, states, 0)?;
        Ok::<_, String>((eng, (compiled, plan, weights, base)))
    })?;
    let secs = start.elapsed().as_secs_f64();
    let (compiled, plan, weights, base) = parts;
    counts.gates = compiled.report.stats.num_gates as f64;
    counts.shapes = compiled.report.shapes_instantiated as f64;
    counts.dense_coverage = plan.dense_run_stats().coverage();
    let point = aside("replica.prep", || {
        base.count();
        Point::from_parts(compiled, plan, &weights)
    });
    Ok((eng, Replica { point, index: base }, secs))
}

/// Unsharded point and enumeration states over the engine's plans, kept
/// in step with the engine. They run the layer calls that
/// `ShardedEngine` makes internally, on the same inputs, so each layer
/// gets its own timed public call.
pub struct Replica {
    point: Point,
    index: AnswerIndex,
}

impl Replica {
    pub fn apply(&mut self, batch: &[TupleUpdate], counts: &mut Counts) {
        let mut kept = Vec::with_capacity(batch.len());
        layer("core.coalesce", || coalesce_updates(batch, &mut kept));
        counts.coalesce_in += batch.len() as u64;
        counts.coalesce_out += kept.len() as u64;
        let index = &mut self.index;
        layer("enumerate.index_apply", || {
            index.apply_batch_coalesced(&kept)
        })
        .expect("replica accepts what the engine accepted");
        let point = &mut self.point;
        layer("core.engine_apply", || point.apply_batch_coalesced(&kept));
    }

    /// The read after a write: the first count pays the rank repair.
    pub fn fresh_read(&self, k: u64, counts: &mut Counts) {
        let c = layer("enumerate.count_flush", || self.index.count());
        if c > 0 {
            self.seek(k % c, counts);
        }
    }

    pub fn seek(&self, k: u64, counts: &mut Counts) {
        let (_, visits) = layer("enumerate.seek", || self.index.answer_counting(k));
        counts.seeks += 1;
        counts.seek_visits += visits;
    }

    pub fn peek(&self, tuples: &[&[Elem]]) {
        layer("core.peek", || self.point.query_batch(tuples));
    }

    pub fn cursor_pass(&self) {
        layer("enumerate.cursor", || {
            let mut it = self.index.iter();
            while it.next().is_some() {}
        });
    }
}

/// Byte and update totals of a [`TimedWal`], readable after the sink has
/// been handed to the engine.
#[derive(Default)]
pub struct WalTotals {
    pub bytes: AtomicU64,
    pub updates: AtomicU64,
}

/// A `FileWal` that times each call. `append_batch` and `flush` are
/// forwarded unchanged — the flush still ends in `sync_data` — and bytes
/// are counted from the file length after each flush.
pub struct TimedWal {
    inner: FileWal,
    file: File,
    len: u64,
    totals: Arc<WalTotals>,
}

impl TimedWal {
    pub fn create(path: &Path, totals: Arc<WalTotals>) -> Result<TimedWal, PersistError> {
        let inner = FileWal::create(path)?;
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok(TimedWal {
            inner,
            file,
            len,
            totals,
        })
    }
}

impl WalSink for TimedWal {
    fn append_batch(&mut self, lsn: u64, updates: &[TupleUpdate]) -> std::io::Result<()> {
        self.totals
            .updates
            .fetch_add(updates.len() as u64, Ordering::Relaxed);
        let inner = &mut self.inner;
        layer("persist.wal_append", || inner.append_batch(lsn, updates))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let inner = &mut self.inner;
        layer("persist.wal_sync", || inner.flush())?;
        let len = self.file.metadata()?.len();
        self.totals
            .bytes
            .fetch_add(len.saturating_sub(self.len), Ordering::Relaxed);
        self.len = len;
        Ok(())
    }
}

/// Journal the engine's batches to a fresh log at `path`: the plain file
/// WAL, or the timed one when tracing. Either way the engine keeps its
/// default fail-stop durability policy.
pub fn attach_wal(eng: &Engine, path: &Path, totals: &Arc<WalTotals>) -> Result<(), PersistError> {
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    if crate::trace::enabled() {
        eng.attach_wal(Box::new(TimedWal::create(path, totals.clone())?));
    } else {
        attach_sharded_file_wal(eng, path)?;
    }
    Ok(())
}

/// Where a persistence cycle keeps its artifacts.
pub struct Files {
    pub plan: PathBuf,
    pub snap: PathBuf,
    pub wal: PathBuf,
}

impl Files {
    pub fn in_dir(dir: &Path) -> Files {
        Files {
            plan: dir.join("engine.agqplan"),
            snap: dir.join("engine.agqsnap"),
            wal: dir.join("wal.agqlog"),
        }
    }

    /// Flush the saved plan and snapshot to disk, so that their
    /// writeback does not land inside the next batches' WAL syncs.
    pub fn sync_saved(&self) -> std::io::Result<()> {
        for p in [&self.plan, &self.snap] {
            File::open(p)?.sync_all()?;
        }
        Ok(())
    }

    pub fn disk_bytes(&self) -> u64 {
        [&self.plan, &self.snap, &self.wal]
            .iter()
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .sum()
    }
}

/// `save_sharded`, or its two halves when tracing.
pub fn save(eng: &Engine, f: &Files, counts: &mut Counts) -> Result<(), PersistError> {
    let (plan_bytes, snapshot_bytes) = op("op.save", || {
        if crate::trace::enabled() {
            let plan = layer("persist.plan_save", || save_sharded_plan(eng, &f.plan))?;
            let snap = layer("persist.snapshot_save", || {
                save_sharded_snapshot(eng, &f.snap)
            })?;
            Ok::<_, PersistError>((plan, snap))
        } else {
            let stats = save_sharded(eng, &f.plan, &f.snap)?;
            Ok((stats.plan_bytes, stats.snapshot_bytes))
        }
    })?;
    counts.plan_bytes = plan_bytes;
    counts.snapshot_bytes = snapshot_bytes;
    Ok(())
}

/// `recover_sharded` (returning the engine and the batches it replayed),
/// or, when tracing, the same steps as its public parts: snapshot load,
/// WAL scan, replay.
pub fn recover(f: &Files, counts: &mut Counts) -> Result<(Engine, usize), PersistError> {
    if !crate::trace::enabled() {
        return op("op.recover", || recover_sharded(&f.plan, &f.snap, &f.wal))
            .map(|(eng, report)| (eng, report.batches_replayed));
    }
    let (eng, replayed, updates) = op("op.recover", || {
        let eng: Engine = layer("persist.load", || load_sharded(&f.plan, &f.snap))?;
        let snapshot_lsn = eng.last_lsn();
        let scan = layer("persist.wal_scan", || scan_wal(&f.wal))?;
        let (mut high, mut batches, mut updates) = (0u64, 0usize, 0u64);
        layer("persist.replay", || {
            for batch in &scan.batches {
                // Skip duplicated tail batches and batches the snapshot
                // already holds, exactly as recovery does.
                if batch.lsn <= high {
                    continue;
                }
                high = batch.lsn;
                if batch.lsn <= snapshot_lsn {
                    continue;
                }
                eng.apply_batch(&batch.updates)?;
                batches += 1;
                updates += batch.updates.len() as u64;
            }
            Ok::<_, PersistError>(())
        })?;
        eng.set_last_lsn(snapshot_lsn.max(scan.last_lsn));
        Ok::<_, PersistError>((eng, batches, updates))
    })?;
    counts.replay_updates += updates;
    Ok((eng, replayed))
}

/// Load the plan on its own: the snapshot load in [`recover`] includes
/// this step, and timing it apart shows how much of recovery the plan
/// accounts for.
pub fn plan_load_apart(f: &Files) -> Result<(), PersistError> {
    aside("persist.plan_load", || load_plan::<Nat>(&f.plan)).map(drop)
}
