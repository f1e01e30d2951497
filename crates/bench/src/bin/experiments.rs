//! The experiment harness: regenerates every table of `EXPERIMENTS.md`.
//!
//! The paper has no measurement tables — it is a theory paper — so each
//! experiment operationalizes one stated complexity claim (see the
//! per-experiment index in `DESIGN.md`). Run with
//!
//! ```text
//! cargo run -p agq-bench --bin experiments --release
//! ```

use agq_bench::{fill_weights, sparse_random, workload_from};
use agq_core::{compile, CompileOptions, GeneralEngine, RingEngine};
use agq_enumerate::AnswerIndex;
use agq_graph::generators;
use agq_logic::{normalize, Expr, Formula, Var};
use agq_perm::{perm_naive, perm_streaming, ColMatrix, FinitePerm, RingPerm, SegTreePerm};
use agq_semiring::{Bool, Int, MinPlus, Nat, Semiring};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

fn main() {
    // `… -- bench3` (resp. `bench4`, `bench5`) reruns only that PR's
    // experiments and rewrites its BENCH json, leaving earlier records
    // untouched.
    let bench3_only = std::env::args().any(|a| a == "bench3");
    let bench4_only = std::env::args().any(|a| a == "bench4");
    let bench5_only = std::env::args().any(|a| a == "bench5");
    let bench6_only = std::env::args().any(|a| a == "bench6");
    let bench7_only = std::env::args().any(|a| a == "bench7");
    let bench8_only = std::env::args().any(|a| a == "bench8");
    println!("# Experiment harness — sparse-agg");
    println!("(one section per experiment id of DESIGN.md §5)\n");
    if bench5_only {
        let mut record5 = Bench5Record::default();
        e16_direct_access(&mut record5);
        record5.write("BENCH_5.json");
        return;
    }
    if bench6_only {
        let mut record6 = Bench6Record::default();
        e17_vector_sweeps(&mut record6);
        record6.write("BENCH_6.json");
        return;
    }
    if bench7_only {
        let mut record7 = Bench7Record::default();
        e18_persist_restart(&mut record7);
        record7.write("BENCH_7.json");
        return;
    }
    if bench8_only {
        let mut record8 = Bench8Record::default();
        e19_failpoint_overhead(&mut record8);
        record8.write("BENCH_8.json");
        return;
    }
    if !bench3_only && !bench4_only {
        let mut record = BenchRecord::default();
        e1_perm_eval();
        e2_e4_perm_updates(&mut record);
        e5_compile_scaling(&mut record);
        e6_eval_query_update();
        e7_pagerank();
        e8_provenance_delay();
        e9_enum_delay();
        e9b_enum_dynamic();
        e10_nested();
        e11_local_search();
        e12_ablation_coloring();
        e13_throughput(&mut record);
        record.write("BENCH_1.json");
        let mut record2 = Bench2Record::default();
        e9v2_enum_csr(&mut record2);
        record2.write("BENCH_2.json");
    }
    if !bench4_only {
        let mut record3 = Bench3Record::default();
        e9v3_delay_tail(&mut record3);
        e14_sharded_service(&mut record3);
        record3.write("BENCH_3.json");
    }
    if !bench3_only {
        let mut record4 = Bench4Record::default();
        e15_batch_ingestion(&mut record4);
        e9v4_delay_tail(&mut record4);
        record4.write("BENCH_4.json");
    }
    if !bench3_only && !bench4_only {
        let mut record5 = Bench5Record::default();
        e16_direct_access(&mut record5);
        record5.write("BENCH_5.json");
        let mut record6 = Bench6Record::default();
        e17_vector_sweeps(&mut record6);
        record6.write("BENCH_6.json");
        let mut record7 = Bench7Record::default();
        e18_persist_restart(&mut record7);
        record7.write("BENCH_7.json");
        let mut record8 = Bench8Record::default();
        e19_failpoint_overhead(&mut record8);
        record8.write("BENCH_8.json");
    }
}

/// Hardware/build stamp embedded in every BENCH json: throughput records
/// are only comparable between runs with equal stamps (this container is
/// a 1-CPU cgroup; numbers move a lot on real hardware).
fn hardware_json() -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    format!(
        "\"hardware\": {{\"cpus\": {cpus}, \"debug_assertions\": {}}}",
        cfg!(debug_assertions)
    )
}

/// Headline numbers of PR 3 (Gaifman-component sharded engine, pooled
/// perm support arena, memoized point-query cones), persisted as
/// `BENCH_3.json`.
#[derive(Default)]
struct Bench3Record {
    // E9v3: E9v2's workload after the pooled arena removed the
    // enumeration path's last steady-state allocations.
    e9v3_n: usize,
    e9v3_answers: u64,
    e9v3_answers_per_sec: f64,
    /// Delay histogram buckets: <1µs, 1–10µs, 10–100µs, 100µs–1ms, ≥1ms.
    e9v3_delay_hist: [u64; 5],
    // E14: sharded update+query service mix, single-shard baseline vs
    // one shard per core.
    e14_n: usize,
    e14_components: usize,
    e14_shards: usize,
    build_ms_single: f64,
    build_ms_sharded: f64,
    query_qps_single: f64,
    query_qps_sharded: f64,
    update_ups_single: f64,
    update_ups_sharded: f64,
    mixed_ops_single: f64,
    mixed_ops_sharded: f64,
}

impl Bench3Record {
    fn write(&self, path: &str) {
        let json = format!(
            "{{\n  \"bench\": 3,\n  {},\n  \"e9v3_delay_tail\": {{\"n\": {}, \"answers\": {}, \"answers_per_sec\": {:.0}, \"delay_hist\": {{\"lt_1us\": {}, \"1_10us\": {}, \"10_100us\": {}, \"100us_1ms\": {}, \"ge_1ms\": {}}}}},\n  \"e14_sharded_service\": {{\"n\": {}, \"components\": {}, \"shards\": {}, \"build_ms\": {{\"single\": {:.1}, \"sharded\": {:.1}}}, \"query_batch_qps\": {{\"single\": {:.0}, \"sharded\": {:.0}}}, \"updates_per_sec\": {{\"single\": {:.0}, \"sharded\": {:.0}}}, \"concurrent_mixed_ops_per_sec\": {{\"single\": {:.0}, \"sharded\": {:.0}}}}}\n}}\n",
            hardware_json(),
            self.e9v3_n,
            self.e9v3_answers,
            self.e9v3_answers_per_sec,
            self.e9v3_delay_hist[0],
            self.e9v3_delay_hist[1],
            self.e9v3_delay_hist[2],
            self.e9v3_delay_hist[3],
            self.e9v3_delay_hist[4],
            self.e14_n,
            self.e14_components,
            self.e14_shards,
            self.build_ms_single,
            self.build_ms_sharded,
            self.query_qps_single,
            self.query_qps_sharded,
            self.update_ups_single,
            self.update_ups_sharded,
            self.mixed_ops_single,
            self.mixed_ops_sharded,
        );
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

/// E9v3 — the E9v2 delay-histogram workload, re-measured after the
/// pooled Lemma 39 arena: `candidate`'s per-call `counts` clone and
/// mask-range `Vec` (the only steady-state allocations on the
/// enumeration path) are gone, so a shrinking 10–100µs tail attributes
/// the tail to the allocator, not to perm candidate rebuilds.
fn e9v3_delay_tail(record: &mut Bench3Record) {
    println!("## E9v3  delay-tail attribution: E9v2 workload, allocation-free candidate scan");
    println!("2-path query | n | answers | ans/s | delay hist <1µs,<10µs,<100µs,<1ms,≥1ms");
    let n = 4000usize;
    let (count, aps, hist) = delay_tail(n);
    println!("    | {n:>5} | {count:>7} | {aps:>9.0} | {hist:?}");
    println!("  (compare delay_hist against BENCH_2.json's e9v2_enumerate)\n");
    record.e9v3_n = n;
    record.e9v3_answers = count;
    record.e9v3_answers_per_sec = aps;
    record.e9v3_delay_hist = hist;
}

/// Build the E9 two-path workload at size `n`, enumerate every answer,
/// and bucket the per-answer delays (<1µs, 1–10µs, 10–100µs, 100µs–1ms,
/// ≥1ms). Shared by E9v3 and E9v4.
fn delay_tail(n: usize) -> (u64, f64, [u64; 5]) {
    let wl = sparse_random(n, 7);
    let (x, y, z) = (Var(0), Var(1), Var(2));
    let phi = Formula::Rel(wl.e, vec![x, y])
        .and(Formula::Rel(wl.e, vec![y, z]))
        .and(Formula::neq(x, z));
    let ix = AnswerIndex::build(&wl.a, &phi, &CompileOptions::default()).unwrap();
    let mut hist = [0u64; 5];
    let mut count = 0u64;
    let t_enum = Instant::now();
    let mut it = ix.iter();
    loop {
        let t = Instant::now();
        let step = it.next();
        let d = t.elapsed();
        if step.is_none() {
            break;
        }
        hist[match d.as_nanos() {
            0..=999 => 0,
            1_000..=9_999 => 1,
            10_000..=99_999 => 2,
            100_000..=999_999 => 3,
            _ => 4,
        }] += 1;
        count += 1;
    }
    let total = t_enum.elapsed();
    (count, count as f64 / total.as_secs_f64(), hist)
}

/// The E14 world, shared by E14 and E15: `comps` sparse components of
/// `m` vertices each (random tree plus chords, symmetrized) with a unary
/// mark on even vertices, queried by `E(x, y) ∧ S(x)`.
struct E14World {
    a: std::sync::Arc<agq_structure::Structure>,
    phi: Formula,
    e: agq_structure::RelId,
    edges: Vec<[u32; 2]>,
    comps: usize,
    m: usize,
}

fn e14_world() -> E14World {
    use agq_structure::Signature;
    let comps = 64usize;
    let m = 250usize;
    let n = comps * m;
    let mut sig = Signature::new();
    let e = sig.add_relation("E", 2);
    let s = sig.add_relation("S", 1);
    let mut a = agq_structure::Structure::new(std::sync::Arc::new(sig), n);
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
        if v.is_multiple_of(2) {
            a.insert(s, &[v]);
        }
    }
    let edges: Vec<[u32; 2]> = a
        .relation(e)
        .iter()
        .map(|t| [t.as_slice()[0], t.as_slice()[1]])
        .collect();
    let (x, y) = (Var(0), Var(1));
    let phi = Formula::Rel(e, vec![x, y]).and(Formula::Rel(s, vec![x]));
    E14World {
        a: std::sync::Arc::new(a),
        phi,
        e,
        edges,
        comps,
        m,
    }
}

/// `reps` membership flips over `edges`, presence-tracked so every
/// update is a real flip at generation time. `hot = Some((k, frac))`
/// sends that fraction of the flips to a size-`k` hot set of edges (the
/// service-churn pattern: a handful of rows flapping under a trickle of
/// background edits); `None` flips uniformly at random.
fn flip_script(
    e: agq_structure::RelId,
    edges: &[[u32; 2]],
    reps: usize,
    seed: u64,
    hot: Option<(usize, f64)>,
) -> Vec<agq_core::TupleUpdate> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut present = vec![true; edges.len()];
    let hotset: Vec<usize> = hot
        .map(|(k, _)| (0..k).map(|_| rng.gen_range(0..edges.len())).collect())
        .unwrap_or_default();
    (0..reps)
        .map(|_| {
            let ei = match hot {
                Some((_, frac)) if rng.gen_bool(frac) => hotset[rng.gen_range(0..hotset.len())],
                _ => rng.gen_range(0..edges.len()),
            };
            present[ei] = !present[ei];
            agq_core::TupleUpdate {
                rel: e,
                tuple: edges[ei].to_vec(),
                present: present[ei],
            }
        })
        .collect()
}

/// Headline numbers of PR 6 (batched update ingestion with coalesced
/// dirty propagation), persisted as `BENCH_4.json`.
#[derive(Default)]
struct Bench4Record {
    n: usize,
    components: usize,
    uniform_seq_ups: f64,
    uniform_batch_ups: [f64; 4],
    churn_hot_keys: usize,
    churn_hot_fraction: f64,
    churn_seq_ups: f64,
    churn_batch_ups: [f64; 4],
    sharded_shards: usize,
    sharded_churn_seq_ups: f64,
    sharded_churn_batch64_ups: f64,
    // E9v4: the delay-tail workload re-measured after the batch plumbing.
    e9v4_n: usize,
    e9v4_answers: u64,
    e9v4_answers_per_sec: f64,
    e9v4_delay_hist: [u64; 5],
}

/// The batch sizes of the E15 sweep.
const E15_BATCH_SIZES: [usize; 4] = [1, 8, 64, 512];

impl Bench4Record {
    fn write(&self, path: &str) {
        let sweep = |ups: &[f64; 4]| {
            E15_BATCH_SIZES
                .iter()
                .zip(ups)
                .map(|(bs, u)| format!("\"{bs}\": {u:.0}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let ratio = |batch: f64, seq: f64| if seq > 0.0 { batch / seq } else { 0.0 };
        let json = format!(
            "{{\n  \"bench\": 4,\n  {},\n  \"e15_batch_ingestion\": {{\"n\": {}, \"components\": {}, \"updates\": 40000,\n    \"uniform\": {{\"sequential_ups\": {:.0}, \"batch_ups\": {{{}}}, \"batch64_speedup\": {:.2}}},\n    \"churn\": {{\"hot_keys\": {}, \"hot_fraction\": {:.2}, \"sequential_ups\": {:.0}, \"batch_ups\": {{{}}}, \"batch64_speedup\": {:.2}}},\n    \"sharded_churn\": {{\"shards\": {}, \"sequential_ups\": {:.0}, \"batch64_ups\": {:.0}, \"batch64_speedup\": {:.2}}}}},\n  \"e9v4_delay_tail\": {{\"n\": {}, \"answers\": {}, \"answers_per_sec\": {:.0}, \"delay_hist\": {{\"lt_1us\": {}, \"1_10us\": {}, \"10_100us\": {}, \"100us_1ms\": {}, \"ge_1ms\": {}}}}}\n}}\n",
            hardware_json(),
            self.n,
            self.components,
            self.uniform_seq_ups,
            sweep(&self.uniform_batch_ups),
            ratio(self.uniform_batch_ups[2], self.uniform_seq_ups),
            self.churn_hot_keys,
            self.churn_hot_fraction,
            self.churn_seq_ups,
            sweep(&self.churn_batch_ups),
            ratio(self.churn_batch_ups[2], self.churn_seq_ups),
            self.sharded_shards,
            self.sharded_churn_seq_ups,
            self.sharded_churn_batch64_ups,
            ratio(self.sharded_churn_batch64_ups, self.sharded_churn_seq_ups),
            self.e9v4_n,
            self.e9v4_answers,
            self.e9v4_answers_per_sec,
            self.e9v4_delay_hist[0],
            self.e9v4_delay_hist[1],
            self.e9v4_delay_hist[2],
            self.e9v4_delay_hist[3],
            self.e9v4_delay_hist[4],
        );
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

/// E15 — PR 6 headline: batched update ingestion. `apply_batch` vs
/// one-by-one `apply_update` on the E14 world, swept over batch sizes,
/// on two scripts:
///
/// * **uniform** random membership flips — the per-update cones are
///   disjoint, so batch and sequential do identical gate work and the
///   measured difference is pure ingestion overhead (per-call locks,
///   staging, dirty-heap bookkeeping);
/// * **hot-key churn** (95% of flips over 4 flapping edges) — repeated
///   flips of a tuple cancel inside a batch, so coalescing collapses the
///   per-incoming-update cost. This is where batching actually wins, and
///   the release-gated `batch_regression.rs` test pins it at ≥1.5×.
fn e15_batch_ingestion(record: &mut Bench4Record) {
    use agq_enumerate::{GeneralShardedEngine, ShardedEngine};
    println!("## E15  batched ingestion: apply_batch vs apply_update (E14 world)");
    let w = e14_world();
    record.n = w.comps * w.m;
    record.components = w.comps;
    let (hot_keys, hot_fraction) = (4usize, 0.95f64);
    record.churn_hot_keys = hot_keys;
    record.churn_hot_fraction = hot_fraction;
    let reps = 40_000usize;
    let opts = CompileOptions::default();
    println!("script | sequential ups | batch=1 | batch=8 | batch=64 | batch=512");
    for (label, script) in [
        ("uniform", flip_script(w.e, &w.edges, reps, 15, None)),
        (
            "churn",
            flip_script(w.e, &w.edges, reps, 99, Some((hot_keys, hot_fraction))),
        ),
    ] {
        let eng: GeneralShardedEngine<Nat> = ShardedEngine::build(&w.a, &w.phi, &opts, 1).unwrap();
        // warm: page in the plan and fault in the touched cones; the
        // script toggles presence, so it replays cleanly from any state
        for u in &script {
            eng.apply_update(u).unwrap();
        }
        let t_seq = time(|| {
            for u in &script {
                eng.apply_update(u).unwrap();
            }
        });
        let seq_ups = reps as f64 / t_seq.as_secs_f64();
        let mut batch_ups = [0f64; 4];
        for (i, &bs) in E15_BATCH_SIZES.iter().enumerate() {
            let t = time(|| {
                for chunk in script.chunks(bs) {
                    eng.apply_batch(chunk).unwrap();
                }
            });
            batch_ups[i] = reps as f64 / t.as_secs_f64();
        }
        println!(
            "    {label:>7} | {seq_ups:>12.0} | {:>9.0} | {:>9.0} | {:>9.0} | {:>9.0}",
            batch_ups[0], batch_ups[1], batch_ups[2], batch_ups[3]
        );
        if label == "uniform" {
            record.uniform_seq_ups = seq_ups;
            record.uniform_batch_ups = batch_ups;
        } else {
            record.churn_seq_ups = seq_ups;
            record.churn_batch_ups = batch_ups;
        }
    }
    // the same churn script through the sharded engine: one write lock
    // and one coalesced sweep per touched shard per batch
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let script = flip_script(w.e, &w.edges, reps, 99, Some((hot_keys, hot_fraction)));
    let eng: GeneralShardedEngine<Nat> =
        ShardedEngine::build(&w.a, &w.phi, &opts, cores.max(2)).unwrap();
    for u in &script {
        eng.apply_update(u).unwrap();
    }
    let t_seq = time(|| {
        for u in &script {
            eng.apply_update(u).unwrap();
        }
    });
    let t_b64 = time(|| {
        for chunk in script.chunks(64) {
            eng.apply_batch(chunk).unwrap();
        }
    });
    record.sharded_shards = eng.num_shards();
    record.sharded_churn_seq_ups = reps as f64 / t_seq.as_secs_f64();
    record.sharded_churn_batch64_ups = reps as f64 / t_b64.as_secs_f64();
    println!(
        "    churn via {} shards: sequential {:.0} ups, batch=64 {:.0} ups ({:.2}×)\n",
        eng.num_shards(),
        record.sharded_churn_seq_ups,
        record.sharded_churn_batch64_ups,
        record.sharded_churn_batch64_ups / record.sharded_churn_seq_ups
    );
}

/// E9v4 — the E9v3 delay-tail workload re-measured after the batch
/// ingestion plumbing: the enumeration path itself was not supposed to
/// change, so the histogram should match BENCH_3.json's within noise.
fn e9v4_delay_tail(record: &mut Bench4Record) {
    println!("## E9v4  delay-tail re-measure: enumeration after the batch-ingestion changes");
    let n = 4000usize;
    let (count, aps, hist) = delay_tail(n);
    println!("    | {n:>5} | {count:>7} | {aps:>9.0} | {hist:?}");
    println!("  (compare delay_hist against BENCH_3.json's e9v3_delay_tail)\n");
    record.e9v4_n = n;
    record.e9v4_answers = count;
    record.e9v4_answers_per_sec = aps;
    record.e9v4_delay_hist = hist;
}

/// Headline numbers of PR 7 (O(depth) direct access to the k-th
/// answer), persisted as `BENCH_5.json`.
#[derive(Default)]
struct Bench5Record {
    n: usize,
    answers: u64,
    seek_p50_ns: u64,
    seek_p99_ns: u64,
    seek_max_ns: u64,
    /// `iter().nth(count/2)` wall time — what direct access replaces.
    nth_walk_ms: f64,
    samples_per_sec: f64,
    ingest_base_ups: f64,
    ingest_ranks_live_ups: f64,
    ingest_with_reads_ups: f64,
    /// `(t_ranks_live - t_base) / t_base` — what rank maintenance adds
    /// to ingestion itself under the lazy design: count state live
    /// (pending patches accumulating) for the whole run plus the one
    /// flush that brings ranks current at the end.
    rank_repair_overhead_frac: f64,
    /// `(t_with_reads - t_base) / t_base` — the serving-side amortized
    /// cost when every batch is followed by a rank read: each read
    /// flushes that batch's whole update cone (no repair schedule
    /// avoids this — an eager piggyback would pay the same sweep).
    read_per_batch_overhead_frac: f64,
}

impl Bench5Record {
    fn write(&self, path: &str) {
        let json = format!(
            "{{\n  \"bench\": 5,\n  {},\n  \"e16_direct_access\": {{\"n\": {}, \"answers\": {},\n    \"seek_ns\": {{\"p50\": {}, \"p99\": {}, \"max\": {}}},\n    \"nth_walk_ms\": {:.2}, \"samples_per_sec\": {:.0},\n    \"ingestion\": {{\"batch64_base_ups\": {:.0}, \"batch64_ranks_live_ups\": {:.0}, \"batch64_with_rank_reads_ups\": {:.0},\n      \"rank_repair_overhead_frac\": {:.4}, \"read_per_batch_overhead_frac\": {:.4}}}}}\n}}\n",
            hardware_json(),
            self.n,
            self.answers,
            self.seek_p50_ns,
            self.seek_p99_ns,
            self.seek_max_ns,
            self.nth_walk_ms,
            self.samples_per_sec,
            self.ingest_base_ups,
            self.ingest_ranks_live_ups,
            self.ingest_with_reads_ups,
            self.rank_repair_overhead_frac,
            self.read_per_batch_overhead_frac,
        );
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

/// E16 — PR 7 headline: `answer(k)` direct access on the E9 two-path
/// workload at n = 16k. Three measurements:
///
/// * **seek latency** — `answer(k)` over 1000 ranks spread across the
///   full range, against the `iter().nth(count/2)` walk it replaces;
/// * **sampling throughput** — `sample(seed)` per second (one splitmix64
///   plus one descent each);
/// * **rank-repair ingestion overhead** — batch-64 flip ingestion on a
///   fresh index (counts never materialized, the pre-PR cost) vs an
///   index with count state live for the whole run and one flush at the
///   end (the lazy design's ingestion-side cost: pending appends are
///   O(1) per update, repair deferred to the first read) vs an index
///   serving one `answer(k)` after every batch (count flush +
///   prefix-table rebuild + descent each time — the serving-side
///   amortization, dominated by each batch's update cone).
fn e16_direct_access(record: &mut Bench5Record) {
    println!("## E16  direct access: answer(k) seek latency and rank-repair overhead");
    let n = 16_000usize;
    let wl = sparse_random(n, 7);
    let (x, y, z) = (Var(0), Var(1), Var(2));
    let phi = Formula::Rel(wl.e, vec![x, y])
        .and(Formula::Rel(wl.e, vec![y, z]))
        .and(Formula::neq(x, z));
    let opts = CompileOptions::default();
    let ix = AnswerIndex::build_dynamic(&wl.a, &phi, &opts).unwrap();
    let total = ix.count();
    record.n = n;
    record.answers = total;

    // seek latency: 1000 ranks spread over the whole range (first probe
    // pays the one-time count build, so warm it out of the measurement)
    ix.answer(0).unwrap();
    let probes: Vec<u64> = (0..1000).map(|i| (total - 1) * i / 999).collect();
    let mut seek_ns: Vec<u64> = probes
        .iter()
        .map(|&k| {
            let t = Instant::now();
            std::hint::black_box(ix.answer(k).unwrap());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    seek_ns.sort_unstable();
    record.seek_p50_ns = seek_ns[seek_ns.len() / 2];
    record.seek_p99_ns = seek_ns[seek_ns.len() - 1 - seek_ns.len() / 100];
    record.seek_max_ns = *seek_ns.last().unwrap();
    let t = Instant::now();
    let mut it = ix.iter();
    let mut mid = None;
    for _ in 0..=total / 2 {
        mid = it.next();
    }
    record.nth_walk_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(mid, ix.answer(total / 2));
    println!(
        "    n={n} answers={total}: seek p50 {}ns p99 {}ns max {}ns; iter().nth(n/2) {:.1}ms",
        record.seek_p50_ns, record.seek_p99_ns, record.seek_max_ns, record.nth_walk_ms
    );

    // uniform sampling throughput
    let reps = 20_000u64;
    let t = time(|| {
        for s in 0..reps {
            std::hint::black_box(ix.sample(s));
        }
    });
    record.samples_per_sec = reps as f64 / t.as_secs_f64();
    println!("    sample(seed): {:.0}/s", record.samples_per_sec);

    // rank-repair overhead: batch-64 flip ingestion, fresh index (counts
    // never built — no rank bookkeeping at all) vs one answer(k) per batch
    let edges: Vec<[u32; 2]> =
        wl.a.relation(wl.e)
            .iter()
            .map(|t| [t.as_slice()[0], t.as_slice()[1]])
            .collect();
    let reps = 20_000usize;
    let script = flip_script(wl.e, &edges, reps, 23, None);
    let mut base_ix = AnswerIndex::build_dynamic(&wl.a, &phi, &opts).unwrap();
    let t_base = time(|| {
        for chunk in script.chunks(64) {
            base_ix.apply_batch(chunk).unwrap();
        }
    });
    let mut live_ix = AnswerIndex::build_dynamic(&wl.a, &phi, &opts).unwrap();
    live_ix.answer(0).unwrap(); // materialize counts outside the timing
    let t_live = time(|| {
        for chunk in script.chunks(64) {
            live_ix.apply_batch(chunk).unwrap();
        }
        std::hint::black_box(live_ix.count()); // one flush brings ranks current
    });
    let mut read_ix = AnswerIndex::build_dynamic(&wl.a, &phi, &opts).unwrap();
    read_ix.answer(0).unwrap(); // materialize counts outside the timing
    let mut k = 1u64;
    let t_reads = time(|| {
        for chunk in script.chunks(64) {
            read_ix.apply_batch(chunk).unwrap();
            let c = read_ix.count();
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
            std::hint::black_box(read_ix.answer(k % c));
        }
    });
    record.ingest_base_ups = reps as f64 / t_base.as_secs_f64();
    record.ingest_ranks_live_ups = reps as f64 / t_live.as_secs_f64();
    record.ingest_with_reads_ups = reps as f64 / t_reads.as_secs_f64();
    record.rank_repair_overhead_frac =
        (t_live.as_secs_f64() - t_base.as_secs_f64()) / t_base.as_secs_f64();
    record.read_per_batch_overhead_frac =
        (t_reads.as_secs_f64() - t_base.as_secs_f64()) / t_base.as_secs_f64();
    println!(
        "    batch=64 ingestion: base {:.0} ups, ranks live {:.0} ups (repair overhead {:.1}%), read-per-batch {:.0} ups (+{:.1}%)\n",
        record.ingest_base_ups,
        record.ingest_ranks_live_ups,
        100.0 * record.rank_repair_overhead_frac,
        record.ingest_with_reads_ups,
        100.0 * record.read_per_batch_overhead_frac
    );
}

/// Headline numbers of PR 8 (vectorized sweeps: bulk semiring kernels +
/// dense-run add-gate evaluation), persisted as `BENCH_6.json`.
#[derive(Default)]
struct Bench6Record {
    n: usize,
    add_gates: usize,
    full_run_gates: usize,
    total_children: usize,
    dense_children: usize,
    coverage: f64,
    sweep_gather_us: f64,
    sweep_dense_us: f64,
    sweep_speedup: f64,
    dense_children_per_sec: f64,
    build_ms: f64,
    count_build_ms: f64,
    flush_batch64_ups: f64,
    churn_seq_ups: f64,
    churn_batch64_ups: f64,
}

impl Bench6Record {
    fn write(&self, path: &str) {
        let json = format!(
            "{{\n  \"bench\": 6,\n  {},\n  \"e17_vector_sweeps\": {{\"n\": {},\n    \"dense_run_coverage\": {{\"add_gates\": {}, \"full_run_gates\": {}, \"total_children\": {}, \"dense_children\": {}, \"coverage\": {:.4}}},\n    \"kernel_ab\": {{\"gather_us\": {:.1}, \"dense_us\": {:.1}, \"speedup\": {:.2}, \"dense_children_per_sec\": {:.0}}},\n    \"e9_count_index\": {{\"build_ms\": {:.1}, \"count_build_ms\": {:.1}, \"flush_batch64_ups\": {:.0}}},\n    \"e15_churn_remeasure\": {{\"seq_ups\": {:.0}, \"batch64_ups\": {:.0}}}}}\n}}\n",
            hardware_json(),
            self.n,
            self.add_gates,
            self.full_run_gates,
            self.total_children,
            self.dense_children,
            self.coverage,
            self.sweep_gather_us,
            self.sweep_dense_us,
            self.sweep_speedup,
            self.dense_children_per_sec,
            self.build_ms,
            self.count_build_ms,
            self.flush_batch64_ups,
            self.churn_seq_ups,
            self.churn_batch64_ups,
        );
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

/// E17 — PR 8 headline: the vectorized sweep layer, measured on the E9
/// count-side circuit (the `Nat`-typed rank-table evaluator of PR 7).
/// Four measurements:
///
/// * **dense-run coverage** — fraction of add-gate child mass lying in
///   contiguous id runs ≥ 4 after the compiler's `cluster_adds` relabel
///   (the mass eligible for the bulk `sum_slice` tier);
/// * **kernel A/B** — one full add-gate sweep over the dense-run mass,
///   bulk slice kernels (fed by the plan's precomputed runs) vs the
///   canonical 4-lane scalar gather, same circuit and same value
///   vector, min-of-7 timing;
/// * **E9 build/flush** — answer-index build, first count (rank-table)
///   materialization — a full `eval_gates` sweep, now on the dense
///   tier — and batch-64 flip ingestion with a count flush per batch
///   (the delta-repair path);
/// * **E15 churn re-measure** — the hot-key churn ingestion of BENCH_4
///   replayed on this PR's engine (the adds repaired there are now wide
///   and dense, so this guards against coalescing regressions).
fn e17_vector_sweeps(record: &mut Bench6Record) {
    use agq_circuit::{eval_gates, EvalPlan, GateDef, GateId};
    use agq_core::{eliminate_quantifiers, SlotKey};
    use agq_enumerate::{GeneralShardedEngine, ShardedEngine};

    println!("## E17  vectorized sweeps: dense-run kernels on the E9 count circuit");
    let n = 20_000usize;
    record.n = n;
    let wl = sparse_random(n, 7);
    let (x, y, z) = (Var(0), Var(1), Var(2));
    let phi = Formula::Rel(wl.e, vec![x, y])
        .and(Formula::Rel(wl.e, vec![y, z]))
        .and(Formula::neq(x, z));

    // The count-side circuit, exactly as the rank tables compile it:
    // Σ_{x,y,z} [φ] with dynamic atoms over the Nat carrier.
    let expr = Expr::<Nat>::Bracket(phi.clone()).sum_over([x, y, z]);
    let opts = CompileOptions {
        dynamic_atoms: true,
        ..CompileOptions::default()
    };
    let (cexpr, a2) = eliminate_quantifiers(&expr, &wl.a, &opts).unwrap();
    let nf = normalize(&cexpr).unwrap();
    let compiled = compile(&a2, &nf, &opts).unwrap();
    let slots: Vec<Nat> = compiled
        .slots
        .iter()
        .map(|(_, key)| match key {
            SlotKey::AtomPos(r, t) => Nat(u64::from(a2.holds(r, t.as_slice()))),
            SlotKey::AtomNeg(r, t) => Nat(u64::from(!a2.holds(r, t.as_slice()))),
            _ => unreachable!("count expression has no weights or free vars"),
        })
        .collect();
    let plan = EvalPlan::new(compiled.circuit.clone());
    let stats = plan.dense_run_stats();
    record.add_gates = stats.add_gates;
    record.full_run_gates = stats.full_run_gates;
    record.total_children = stats.total_children;
    record.dense_children = stats.dense_children;
    record.coverage = stats.coverage();
    println!(
        "    coverage: {} add gates ({} full-run), {}/{} children dense ({:.1}%)",
        stats.add_gates,
        stats.full_run_gates,
        stats.dense_children,
        stats.total_children,
        100.0 * record.coverage
    );

    // Kernel A/B over the dense-run mass (gates with a run ≥ 4): bulk
    // slice sweep vs the canonical 4-lane gather, same value vector.
    let values = eval_gates(&compiled.circuit, &slots, &compiled.lits);
    let circuit = &compiled.circuit;
    let dense_adds: Vec<&[GateId]> = circuit
        .gates()
        .iter()
        .enumerate()
        .filter_map(|(g, def)| match def {
            GateDef::Add(r)
                if plan
                    .add_runs(g as u32)
                    .iter()
                    .any(|&(_, len)| len as usize >= 4) =>
            {
                Some(circuit.children(*r))
            }
            _ => None,
        })
        .collect();
    let runs_flat: Vec<(u32, u32)> = circuit
        .gates()
        .iter()
        .enumerate()
        .filter(|(_, def)| matches!(def, GateDef::Add(_)))
        .filter(|(g, _)| {
            plan.add_runs(*g as u32)
                .iter()
                .any(|&(_, len)| len as usize >= 4)
        })
        .flat_map(|(g, _)| plan.add_runs(g as u32).iter().copied())
        .collect();
    let gather = || {
        let mut check = Nat(0);
        for kids in &dense_adds {
            const LANES: usize = 4;
            let s = if kids.len() < 2 * LANES {
                let mut acc = Nat(0);
                for c in *kids {
                    acc.add_assign(&values[c.0 as usize]);
                }
                acc
            } else {
                let mut lanes = [Nat(0); LANES];
                let chunks = kids.chunks_exact(LANES);
                let rest = chunks.remainder();
                for chunk in chunks {
                    for (lane, c) in lanes.iter_mut().zip(chunk) {
                        lane.add_assign(&values[c.0 as usize]);
                    }
                }
                let [a, b, c, d] = lanes;
                let mut acc = a.add(&b).add(&c.add(&d));
                for g in rest {
                    acc.add_assign(&values[g.0 as usize]);
                }
                acc
            };
            check.add_assign(&s);
        }
        check
    };
    let dense = || {
        let mut check = Nat(0);
        for &(lo, len) in &runs_flat {
            let seg = &values[lo as usize..(lo + len) as usize];
            if len >= 4 {
                check.add_assign(&Nat::sum_slice(seg));
            } else {
                for v in seg {
                    check.add_assign(v);
                }
            }
        }
        check
    };
    assert_eq!(gather().0, dense().0, "A/B sweeps must agree");
    let reps = 100u32;
    let timed = |f: &dyn Fn() -> Nat| -> Duration {
        let mut best = Duration::MAX;
        for _ in 0..7 {
            let t = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(f());
            }
            best = best.min(t.elapsed() / reps);
        }
        best
    };
    let t_gather = timed(&gather);
    let t_dense = timed(&dense);
    let mass: usize = dense_adds.iter().map(|k| k.len()).sum();
    record.sweep_gather_us = t_gather.as_secs_f64() * 1e6;
    record.sweep_dense_us = t_dense.as_secs_f64() * 1e6;
    record.sweep_speedup = t_gather.as_secs_f64() / t_dense.as_secs_f64();
    record.dense_children_per_sec = mass as f64 / t_dense.as_secs_f64();
    println!(
        "    sweep A/B ({} gates, {} children): gather {:.1}µs, dense {:.1}µs — {:.2}× ({:.0}M children/s)",
        dense_adds.len(),
        mass,
        record.sweep_gather_us,
        record.sweep_dense_us,
        record.sweep_speedup,
        record.dense_children_per_sec / 1e6
    );

    // E9 build / count-build / flush: the answer index whose rank
    // tables ride these kernels.
    let opts = CompileOptions::default();
    let t_build = time(|| {
        std::hint::black_box(AnswerIndex::build_dynamic(&wl.a, &phi, &opts).unwrap());
    });
    let mut ix = AnswerIndex::build_dynamic(&wl.a, &phi, &opts).unwrap();
    let t_count = time(|| {
        std::hint::black_box(ix.count());
    });
    let edges: Vec<[u32; 2]> =
        wl.a.relation(wl.e)
            .iter()
            .map(|t| [t.as_slice()[0], t.as_slice()[1]])
            .collect();
    let flips = 20_000usize;
    let script = flip_script(wl.e, &edges, flips, 23, None);
    let t_flush = time(|| {
        for chunk in script.chunks(64) {
            ix.apply_batch(chunk).unwrap();
            std::hint::black_box(ix.count());
        }
    });
    record.build_ms = t_build.as_secs_f64() * 1e3;
    record.count_build_ms = t_count.as_secs_f64() * 1e3;
    record.flush_batch64_ups = flips as f64 / t_flush.as_secs_f64();
    println!(
        "    E9 index: build {:.1}ms, count build {:.1}ms, batch=64 flip+flush {:.0} ups",
        record.build_ms, record.count_build_ms, record.flush_batch64_ups
    );

    // E15 churn re-measure: hot-key flip ingestion on the E14 world.
    let w = e14_world();
    let script = flip_script(w.e, &w.edges, 40_000, 99, Some((4, 0.95)));
    let eng: GeneralShardedEngine<Nat> = ShardedEngine::build(&w.a, &w.phi, &opts, 1).unwrap();
    for u in &script {
        eng.apply_update(u).unwrap();
    }
    let t_seq = time(|| {
        for u in &script {
            eng.apply_update(u).unwrap();
        }
    });
    let t_b64 = time(|| {
        for chunk in script.chunks(64) {
            eng.apply_batch(chunk).unwrap();
        }
    });
    record.churn_seq_ups = script.len() as f64 / t_seq.as_secs_f64();
    record.churn_batch64_ups = script.len() as f64 / t_b64.as_secs_f64();
    println!(
        "    E15 churn: sequential {:.0} ups, batch=64 {:.0} ups ({:.2}×)\n",
        record.churn_seq_ups,
        record.churn_batch64_ups,
        record.churn_batch64_ups / record.churn_seq_ups
    );
}

/// E14 — the sharded service: a multi-component database behind a
/// `ShardedEngine`, serving a mixed update+query workload, single-shard
/// baseline vs one shard per core. On a 1-CPU container the sharded
/// numbers show routing overhead, not speedup — re-measure on real
/// hardware (the concurrency itself is exercised by the release-mode
/// smoke test in CI).
fn e14_sharded_service(record: &mut Bench3Record) {
    use agq_enumerate::{GeneralShardedEngine, ShardedEngine};
    println!("## E14  sharded service: Gaifman-component shards, update+query mix");
    let w = e14_world();
    let (comps, m, n) = (w.comps, w.m, w.comps * w.m);
    let (a, phi, e, edges) = (w.a, w.phi, w.e, w.edges);
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let shard_target = cores.max(2);
    println!("shards | build | query_batch q/s | updates/s | concurrent mixed ops/s");
    for (label, max_shards) in [("single", 1usize), ("sharded", shard_target)] {
        let t0 = Instant::now();
        let eng: GeneralShardedEngine<Nat> =
            ShardedEngine::build(&a, &phi, &CompileOptions::default(), max_shards).unwrap();
        let build = t0.elapsed();
        // query batches
        let mut rng = SmallRng::seed_from_u64(15);
        let points: Vec<[u32; 2]> = (0..4096)
            .map(|_| {
                let c = rng.gen_range(0..comps as u32) * m as u32;
                [
                    c + rng.gen_range(0..m as u32),
                    c + rng.gen_range(0..m as u32),
                ]
            })
            .collect();
        let tuples: Vec<&[u32]> = points.iter().map(|p| p.as_slice()).collect();
        let t_q = time(|| {
            std::hint::black_box(eng.query_batch(&tuples));
        });
        let qps = tuples.len() as f64 / t_q.as_secs_f64();
        // routed updates (genuine membership flips)
        let reps = 20_000usize;
        let mut present = vec![true; edges.len()];
        let t_u = time(|| {
            for _ in 0..reps {
                let ei = rng.gen_range(0..edges.len());
                present[ei] = !present[ei];
                let u = agq_core::TupleUpdate {
                    rel: e,
                    tuple: edges[ei].to_vec(),
                    present: present[ei],
                };
                eng.apply_update(&u).unwrap();
            }
        });
        let ups = reps as f64 / t_u.as_secs_f64();
        // concurrent mixed load: one writer thread + one batch-reader
        // thread (each op counted once)
        let writer_edges = &edges;
        let eng_ref = &eng;
        let mixed_updates = 10_000usize;
        let mixed_batches = 16usize;
        let t_m = time(|| {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let mut rng = SmallRng::seed_from_u64(16);
                    let mut present = vec![true; writer_edges.len()];
                    for _ in 0..mixed_updates {
                        let ei = rng.gen_range(0..writer_edges.len());
                        present[ei] = !present[ei];
                        let u = agq_core::TupleUpdate {
                            rel: e,
                            tuple: writer_edges[ei].to_vec(),
                            present: present[ei],
                        };
                        eng_ref.apply_update(&u).unwrap();
                    }
                });
                scope.spawn(|| {
                    for _ in 0..mixed_batches {
                        std::hint::black_box(eng_ref.query_batch(&tuples));
                    }
                });
            });
        });
        let mixed_ops = (mixed_updates + mixed_batches * tuples.len()) as f64 / t_m.as_secs_f64();
        println!(
            "    {label:>7} ({:>3} shards) | {build:>9?} | {qps:>11.0} | {ups:>9.0} | {mixed_ops:>9.0}",
            eng.num_shards()
        );
        if max_shards == 1 {
            record.build_ms_single = build.as_secs_f64() * 1e3;
            record.query_qps_single = qps;
            record.update_ups_single = ups;
            record.mixed_ops_single = mixed_ops;
        } else {
            record.e14_n = n;
            record.e14_components = comps;
            record.e14_shards = eng.num_shards();
            record.build_ms_sharded = build.as_secs_f64() * 1e3;
            record.query_qps_sharded = qps;
            record.update_ups_sharded = ups;
            record.mixed_ops_sharded = mixed_ops;
        }
    }
    println!();
}

/// Headline numbers of PR 2 (CSR enumeration machine + compiler
/// instantiation caches), persisted as `BENCH_2.json`.
#[derive(Default)]
struct Bench2Record {
    n: usize,
    build_ms: f64,
    answers: u64,
    answers_per_sec: f64,
    /// Delay histogram buckets: <1µs, 1–10µs, 10–100µs, 100µs–1ms, ≥1ms.
    delay_hist: [u64; 5],
    apply_update_ns: f64,
    rebuild_ms: f64,
}

impl Bench2Record {
    /// `AnswerIndex::build` time for this workload as measured at the
    /// end of PR 1 on this hardware (the super-linear instantiation
    /// re-scan; the seed-era number in the issue was 14 s).
    const PR1_BUILD_MS: f64 = 11_415.0;

    fn write(&self, path: &str) {
        let update_speedup = if self.apply_update_ns > 0.0 {
            self.rebuild_ms * 1e6 / self.apply_update_ns
        } else {
            0.0
        };
        let json = format!(
            "{{\n  \"bench\": 2,\n  {},\n  \"e9v2_build\": {{\"n\": {}, \"build_ms\": {:.1}, \"pr1_build_ms\": {:.1}, \"build_speedup\": {:.2}}},\n  \"e9v2_enumerate\": {{\"answers\": {}, \"answers_per_sec\": {:.0}, \"delay_hist\": {{\"lt_1us\": {}, \"1_10us\": {}, \"10_100us\": {}, \"100us_1ms\": {}, \"ge_1ms\": {}}}}},\n  \"e9v2_update\": {{\"apply_update_ns\": {:.1}, \"full_rebuild_ms\": {:.1}, \"update_speedup\": {:.0}}}\n}}\n",
            hardware_json(),
            self.n,
            self.build_ms,
            Self::PR1_BUILD_MS,
            Self::PR1_BUILD_MS / self.build_ms,
            self.answers,
            self.answers_per_sec,
            self.delay_hist[0],
            self.delay_hist[1],
            self.delay_hist[2],
            self.delay_hist[3],
            self.delay_hist[4],
            self.apply_update_ns,
            self.rebuild_ms,
            update_speedup,
        );
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

/// E9v2 — PR 2 headline: CSR enumeration machine over the E9 workload.
/// Build time (the compiler re-scan fix), enumeration throughput with a
/// delay histogram, and incremental `apply_update` vs a full rebuild.
fn e9v2_enum_csr(record: &mut Bench2Record) {
    println!(
        "## E9v2  CSR enumeration: build / throughput / delay histogram / incremental updates"
    );
    println!("2-path query | n | build | answers | ans/s | delay hist <1µs,<10µs,<100µs,<1ms,≥1ms");
    for &n in &[1000usize, 2000, 4000] {
        let wl = sparse_random(n, 7);
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let phi = Formula::Rel(wl.e, vec![x, y])
            .and(Formula::Rel(wl.e, vec![y, z]))
            .and(Formula::neq(x, z));
        let t0 = Instant::now();
        let ix = AnswerIndex::build(&wl.a, &phi, &CompileOptions::default()).unwrap();
        let build = t0.elapsed();
        let mut hist = [0u64; 5];
        let mut count = 0u64;
        let t_enum = Instant::now();
        let mut it = ix.iter();
        loop {
            let t = Instant::now();
            let step = it.next();
            let d = t.elapsed();
            if step.is_none() {
                break; // the exhausted call is not an answer delay
            }
            hist[match d.as_nanos() {
                0..=999 => 0,
                1_000..=9_999 => 1,
                10_000..=99_999 => 2,
                100_000..=999_999 => 3,
                _ => 4,
            }] += 1;
            count += 1;
        }
        let total = t_enum.elapsed();
        let aps = count as f64 / total.as_secs_f64();
        println!(
            "    | {n:>5} | {build:>9?} | {count:>7} | {aps:>9.0} | {:?}",
            hist
        );
        if n == 4000 {
            record.n = n;
            record.build_ms = build.as_secs_f64() * 1e3;
            record.answers = count;
            record.answers_per_sec = aps;
            record.delay_hist = hist;
        }
    }

    // Incremental maintenance vs rebuild: dynamic edge query at n=4000.
    let n = 4000;
    let wl = sparse_random(n, 23);
    let (x, y) = (Var(0), Var(1));
    let phi = Formula::Rel(wl.e, vec![x, y]);
    let mut ix = AnswerIndex::build_dynamic(&wl.a, &phi, &CompileOptions::default()).unwrap();
    let edges: Vec<[u32; 2]> =
        wl.a.relation(wl.e)
            .iter()
            .map(|t| [t.as_slice()[0], t.as_slice()[1]])
            .collect();
    let mut rng = SmallRng::seed_from_u64(3);
    let reps = 5000u32;
    // Every timed update is a genuine membership flip (tracking current
    // state), so the per-update cost includes the cone repair.
    let mut present = vec![true; edges.len()];
    let t_upd = time(|| {
        for _ in 0..reps {
            let ei = rng.gen_range(0..edges.len());
            present[ei] = !present[ei];
            let u = agq_core::TupleUpdate {
                rel: wl.e,
                tuple: edges[ei].to_vec(),
                present: present[ei],
            };
            ix.apply_update(&u).unwrap();
        }
    }) / reps;
    let t_rebuild = time(|| {
        std::hint::black_box(
            AnswerIndex::build_dynamic(&wl.a, &phi, &CompileOptions::default()).unwrap(),
        );
    });
    record.apply_update_ns = t_upd.as_nanos() as f64;
    record.rebuild_ms = t_rebuild.as_secs_f64() * 1e3;
    println!(
        "    incremental apply_update: {t_upd:?}/update vs full rebuild {t_rebuild:?} \
         ({:.0}× faster per single-tuple update)\n",
        t_rebuild.as_secs_f64() / t_upd.as_secs_f64()
    );
}

/// Headline numbers of this PR, persisted as `BENCH_1.json` so future
/// PRs have a perf trajectory to compare against.
#[derive(Default)]
struct BenchRecord {
    compile_seq_ms: f64,
    compile_par_ms: f64,
    compile_n: usize,
    update_ns: f64,
    update_n: usize,
    qps_peek_with: f64,
    qps_update_restore: f64,
    qps_overlay: f64,
    qps_batch: f64,
    throughput_n: usize,
}

impl BenchRecord {
    fn write(&self, path: &str) {
        let ratio = |num: f64| {
            if self.qps_peek_with > 0.0 {
                num / self.qps_peek_with
            } else {
                0.0
            }
        };
        let json = format!(
            "{{\n  \"bench\": 1,\n  {},\n  \"e5_compile\": {{\"n\": {}, \"sequential_ms\": {:.3}, \"parallel_ms\": {:.3}}},\n  \"e2_update\": {{\"n\": {}, \"segtree_update_ns\": {:.1}}},\n  \"e10_throughput\": {{\"n\": {}, \"peek_with_qps\": {:.0}, \"update_restore_qps\": {:.0}, \"overlay_qps\": {:.0}, \"batch_qps\": {:.0}, \"overlay_speedup\": {:.2}, \"batch_speedup\": {:.2}}}\n}}\n",
            hardware_json(),
            self.compile_n,
            self.compile_seq_ms,
            self.compile_par_ms,
            self.update_n,
            self.update_ns,
            self.throughput_n,
            self.qps_peek_with,
            self.qps_update_restore,
            self.qps_overlay,
            self.qps_batch,
            ratio(self.qps_overlay),
            ratio(self.qps_batch),
        );
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

fn time<F: FnMut()>(mut f: F) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

fn random_matrix(k: usize, n: usize, seed: u64) -> ColMatrix<Nat> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut m = ColMatrix::new(k);
    for _ in 0..n {
        let col: Vec<Nat> = (0..k).map(|_| Nat(rng.gen_range(0..100))).collect();
        m.push_col(&col);
    }
    m
}

/// E1 — permanent evaluation: streaming O_k(n) vs naive O(n^k).
fn e1_perm_eval() {
    println!("## E1  permanent evaluation (§4): streaming is linear, naive is n^k");
    println!("k=3 | n | streaming | naive | speedup");
    for &n in &[8usize, 16, 32, 64, 128] {
        let m = random_matrix(3, n, n as u64);
        let mut out = Nat(0);
        let ts = time(|| {
            for _ in 0..10 {
                out = perm_streaming(&m);
            }
        }) / 10;
        let mut out2 = Nat(0);
        let tn = time(|| out2 = perm_naive(&m));
        assert_eq!(out, out2);
        println!(
            "    | {n:>4} | {ts:>12?} | {tn:>12?} | {:>8.1}×",
            tn.as_secs_f64() / ts.as_secs_f64()
        );
    }
    // linearity of streaming at larger n
    println!("streaming only (k=3): n vs time/n (flat ⇒ linear)");
    for &n in &[1 << 12, 1 << 14, 1 << 16] {
        let m = random_matrix(3, n, n as u64);
        let t = time(|| {
            let _ = perm_streaming(&m);
        });
        println!(
            "    n={n:>7}: {t:>10?}  ({:.2} ns/col)",
            t.as_nanos() as f64 / n as f64
        );
    }
    println!();
}

/// E2–E4 — permanent update costs: log (general) vs O(1) (ring, finite).
fn e2_e4_perm_updates(record: &mut BenchRecord) {
    println!("## E2–E4  permanent updates: segment tree O(log n) vs ring/finite O(1)");
    println!("k=3 | n | segtree(update) | ring(update+read) | finite-B(update+read)");
    for &n in &[1 << 10, 1 << 13, 1 << 16] {
        let m = random_matrix(3, n, 3);
        let mut seg = SegTreePerm::build(m.clone());
        let int_rows: Vec<Vec<Int>> = (0..3)
            .map(|r| (0..n).map(|c| Int(m.get(r, c).0 as i64)).collect())
            .collect();
        let mut ring = RingPerm::build(ColMatrix::from_rows(&int_rows));
        let bool_rows: Vec<Vec<Bool>> = (0..3)
            .map(|r| {
                (0..n)
                    .map(|c| Bool(m.get(r, c).0.is_multiple_of(2)))
                    .collect()
            })
            .collect();
        let mut fin = FinitePerm::build(ColMatrix::from_rows(&bool_rows));
        let mut rng = SmallRng::seed_from_u64(7);
        let reps = 2000;
        let t_seg = time(|| {
            for _ in 0..reps {
                seg.update(
                    rng.gen_range(0..3),
                    rng.gen_range(0..n),
                    Nat(rng.gen_range(0..100)),
                );
            }
        }) / reps;
        let t_ring = time(|| {
            for _ in 0..reps {
                ring.update(
                    rng.gen_range(0..3),
                    rng.gen_range(0..n),
                    Int(rng.gen_range(0..100)),
                );
                std::hint::black_box(ring.total());
            }
        }) / reps;
        let t_fin = time(|| {
            for _ in 0..reps {
                fin.update(
                    rng.gen_range(0..3),
                    rng.gen_range(0..n),
                    Bool(rng.gen_bool(0.5)),
                );
                std::hint::black_box(fin.total());
            }
        }) / reps;
        println!("    | {n:>7} | {t_seg:>12?} | {t_ring:>12?} | {t_fin:>12?}");
        record.update_ns = t_seg.as_nanos() as f64;
        record.update_n = n;
    }
    println!("  (segtree column should grow ~log n; ring/finite stay flat — Cor. 13/17/20)\n");
}

/// E5 — Theorem 6: compile time ~linear, circuit structure bounded;
/// sequential vs parallel (byte-identical output) on multi-core.
fn e5_compile_scaling(record: &mut BenchRecord) {
    println!("## E5  Theorem 6 compilation: time, size, structural bounds");
    println!("triangle-cost query on G(n,2n) | n | seq | par | speedup | gates/n | depth | perm-rows | colors | fdepth");
    let seq_opts = CompileOptions {
        threads: 1,
        ..Default::default()
    };
    let par_opts = CompileOptions::default(); // threads = 0: one per core
    for &n in &[1000usize, 2000, 4000, 8000] {
        let wl = sparse_random(n, 5);
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let phi = Formula::Rel(wl.e, vec![x, y])
            .and(Formula::Rel(wl.e, vec![y, z]))
            .and(Formula::Rel(wl.e, vec![z, x]));
        let expr: Expr<MinPlus> = Expr::Mul(vec![
            Expr::Bracket(phi),
            Expr::Weight(wl.c, vec![x, y]),
            Expr::Weight(wl.c, vec![y, z]),
            Expr::Weight(wl.c, vec![z, x]),
        ])
        .sum_over([x, y, z]);
        let nf = normalize(&expr).unwrap();
        let t0 = Instant::now();
        let compiled = compile(&wl.a, &nf, &seq_opts).unwrap();
        let t_seq = t0.elapsed();
        let t0 = Instant::now();
        let compiled_par = compile(&wl.a, &nf, &par_opts).unwrap();
        let t_par = t0.elapsed();
        assert_eq!(
            *compiled.circuit, *compiled_par.circuit,
            "parallel compile must be byte-identical"
        );
        let st = compiled.report.stats;
        println!(
            "    | {n:>5} | {t_seq:>9?} | {t_par:>9?} | {:>6.2}× | {:>7.1} | {:>5} | {:>9} | {:>6} | {:>6}",
            t_seq.as_secs_f64() / t_par.as_secs_f64(),
            st.num_gates as f64 / n as f64,
            st.depth,
            st.max_perm_rows,
            compiled.report.num_colors,
            compiled.report.max_forest_depth,
        );
        record.compile_seq_ms = t_seq.as_secs_f64() * 1e3;
        record.compile_par_ms = t_par.as_secs_f64() * 1e3;
        record.compile_n = n;
    }
    println!("  (gates/n and depth stay bounded; time grows ~linearly with a depth-dependent constant)\n");
}

/// E6 — Theorem 8: query/update latency vs naive re-evaluation.
fn e6_eval_query_update() {
    println!("## E6  Theorem 8 dynamic evaluation (min-cost neighbor sum)");
    println!(
        "f(x) = Σ_y [E(x,y)]·c(x,y)+w(y) in (min,+) | n | build | query | update | naive-scan"
    );
    for &n in &[2000usize, 8000, 32000] {
        let wl = sparse_random(n, 9);
        let (x, y) = (Var(0), Var(1));
        let expr: Expr<MinPlus> = Expr::Mul(vec![
            Expr::Bracket(Formula::Rel(wl.e, vec![x, y])),
            Expr::Weight(wl.c, vec![x, y]),
            Expr::Weight(wl.w, vec![y]),
        ])
        .sum_over([y]);
        let weights = fill_weights(
            &wl,
            3,
            |r| MinPlus(r.gen_range(1..50)),
            |r| MinPlus(r.gen_range(1..50)),
        );
        let nf = normalize(&expr).unwrap();
        let t0 = Instant::now();
        let compiled = compile(&wl.a, &nf, &CompileOptions::default()).unwrap();
        let mut engine: GeneralEngine<MinPlus> = GeneralEngine::new(compiled, &weights);
        let build = t0.elapsed();
        let mut rng = SmallRng::seed_from_u64(1);
        let reps = 2000u32;
        let tq = time(|| {
            for _ in 0..reps {
                std::hint::black_box(engine.query(&[rng.gen_range(0..n as u32)]));
            }
        }) / reps;
        let tu = time(|| {
            for _ in 0..reps {
                engine.set_weight(
                    wl.w,
                    &[rng.gen_range(0..n as u32)],
                    MinPlus(rng.gen_range(1..50)),
                );
            }
        }) / reps;
        // naive: re-scan the neighbor list per query (the "no index" baseline)
        let tn = time(|| {
            for _ in 0..reps {
                let v = rng.gen_range(0..n as u32);
                let mut best = MinPlus::INF;
                for &u in wl.graph.neighbors(v) {
                    let c = weights.get(wl.c, &[v, u]);
                    let w = weights.get(wl.w, &[u]);
                    best = best.add(&c.mul(&w));
                }
                std::hint::black_box(best);
            }
        }) / reps;
        println!("    | {n:>6} | {build:>9?} | {tq:>9?} | {tu:>9?} | {tn:>9?}");
    }
    println!("  (query/update ~O(log n): flat-ish; naive per-query scan is cheap here but cannot\n   maintain *global* aggregates — see E6b)\n");

    println!("## E6b  global aggregate under updates: engine O(log n) vs naive O(m) rescan");
    println!("total min-cost triangle | n | engine update+read | full recompute");
    for &n in &[1000usize, 4000] {
        let wl = sparse_random(n, 11);
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let phi = Formula::Rel(wl.e, vec![x, y])
            .and(Formula::Rel(wl.e, vec![y, z]))
            .and(Formula::Rel(wl.e, vec![z, x]));
        let expr: Expr<MinPlus> = Expr::Mul(vec![
            Expr::Bracket(phi),
            Expr::Weight(wl.c, vec![x, y]),
            Expr::Weight(wl.c, vec![y, z]),
            Expr::Weight(wl.c, vec![z, x]),
        ])
        .sum_over([x, y, z]);
        let weights = fill_weights(&wl, 5, |_| MinPlus(0), |r| MinPlus(r.gen_range(1..100)));
        let nf = normalize(&expr).unwrap();
        let compiled = compile(&wl.a, &nf, &CompileOptions::default()).unwrap();
        let mut engine: GeneralEngine<MinPlus> = GeneralEngine::new(compiled.clone(), &weights);
        let edges: Vec<_> = wl.a.relation(wl.e).iter().cloned().collect();
        let mut rng = SmallRng::seed_from_u64(2);
        let reps = 500u32;
        let tu = time(|| {
            for _ in 0..reps {
                let t = edges[rng.gen_range(0..edges.len())];
                engine.set_weight(wl.c, t.as_slice(), MinPlus(rng.gen_range(1..100)));
                std::hint::black_box(engine.value());
            }
        }) / reps;
        // naive: re-evaluate the whole circuit from scratch per update
        let slots: Vec<MinPlus> = compiled
            .slots
            .iter()
            .map(|(_, k)| match k {
                agq_core::SlotKey::Weight(w, t) => weights.get(w, t.as_slice()),
                _ => MinPlus::INF,
            })
            .collect();
        let tr = time(|| {
            for _ in 0..20 {
                std::hint::black_box(compiled.circuit.eval(&slots, &compiled.lits));
            }
        }) / 20;
        println!("    | {n:>5} | {tu:>12?} | {tr:>12?}");
    }
    println!();
}

/// E7 — Example 9: a PageRank round through the engine.
fn e7_pagerank() {
    println!("## E7  Example 9: PageRank round (f64 ring, O(1) query/update)");
    use agq_semiring::F64;
    for &n in &[5000usize, 20000] {
        let wl = sparse_random(n, 13);
        let (x, y) = (Var(0), Var(1));
        let expr: Expr<F64> = Expr::Mul(vec![
            Expr::Bracket(Formula::Rel(wl.e, vec![y, x])),
            Expr::Weight(wl.w, vec![y]),
        ])
        .sum_over([y]);
        let weights = fill_weights(&wl, 1, |_| F64(1.0 / n as f64), |_| F64(0.0));
        let nf = normalize(&expr).unwrap();
        let t0 = Instant::now();
        let compiled = compile(&wl.a, &nf, &CompileOptions::default()).unwrap();
        let mut engine: RingEngine<F64> = RingEngine::new(compiled, &weights);
        let build = t0.elapsed();
        let t0 = Instant::now();
        for v in 0..n as u32 {
            let s = engine.query(&[v]).0;
            engine.set_weight(wl.w, &[v], F64(0.15 / n as f64 + 0.85 * s));
        }
        let round = t0.elapsed();
        println!(
            "    n={n:>6}: build {build:>10?}, one full round {round:>10?} ({:.0} ns/node)",
            round.as_nanos() as f64 / n as f64
        );
    }
    println!();
}

/// E8 — Theorem 22: provenance enumeration delay.
fn e8_provenance_delay() {
    println!("## E8  Theorem 22 provenance enumerators: constant access time");
    use agq_enumerate::ProvenanceIndex;
    use agq_semiring::Gen;
    for &n in &[1000usize, 4000] {
        let wl = sparse_random(n, 17);
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let expr: Expr<Nat> = Expr::Mul(vec![
            Expr::Bracket(
                Formula::Rel(wl.e, vec![x, y])
                    .and(Formula::Rel(wl.e, vec![y, z]))
                    .and(Formula::Rel(wl.e, vec![z, x])),
            ),
            Expr::Weight(wl.c, vec![x, y]),
        ])
        .sum_over([x, y, z]);
        let t0 = Instant::now();
        let ix = ProvenanceIndex::build(&wl.a, &expr, &CompileOptions::default(), |_, t| {
            vec![vec![Gen(((t[0] as u64) << 32) | t[1] as u64)]]
        })
        .unwrap();
        let build = t0.elapsed();
        let mut it = ix.enumerate();
        let mut count = 0u64;
        let mut max_delay = Duration::ZERO;
        loop {
            let t = Instant::now();
            let step = it.next();
            max_delay = max_delay.max(t.elapsed());
            if step.is_none() {
                break;
            }
            count += 1;
        }
        println!("    n={n:>5}: build {build:>10?}, {count} monomials, max delay {max_delay:?}");
    }
    println!();
}

/// E9 — Theorem 24: enumeration delay vs n; materialization baseline.
fn e9_enum_delay() {
    println!("## E9  Theorem 24 answer enumeration: delay independent of n");
    println!("2-path query | n | build | answers | max delay | first-answer latency");
    for &n in &[1000usize, 2000, 4000] {
        let wl = sparse_random(n, 7);
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let phi = Formula::Rel(wl.e, vec![x, y])
            .and(Formula::Rel(wl.e, vec![y, z]))
            .and(Formula::neq(x, z));
        let t0 = Instant::now();
        let ix = AnswerIndex::build(&wl.a, &phi, &CompileOptions::default()).unwrap();
        let build = t0.elapsed();
        let t0 = Instant::now();
        let mut it = ix.iter();
        let first = it.next();
        let first_latency = t0.elapsed();
        assert!(first.is_some());
        let mut count = 1u64;
        let mut max_delay = Duration::ZERO;
        loop {
            let t = Instant::now();
            let step = it.next();
            max_delay = max_delay.max(t.elapsed());
            if step.is_none() {
                break;
            }
            count += 1;
        }
        println!(
            "    | {n:>5} | {build:>10?} | {count:>7} | {max_delay:>10?} | {first_latency:>10?}"
        );
    }
    println!(
        "  (max delay stays flat as n grows; the baseline must materialize all answers first)\n"
    );
}

/// E9b — dynamic maintenance cost of the answer index.
fn e9b_enum_dynamic() {
    println!("## E9b  Theorem 24 dynamic updates: O(1) maintenance");
    for &n in &[1000usize, 4000] {
        let wl = sparse_random(n, 23);
        let (x, y) = (Var(0), Var(1));
        let phi = Formula::Rel(wl.e, vec![x, y]);
        let mut ix = AnswerIndex::build_dynamic(&wl.a, &phi, &CompileOptions::default()).unwrap();
        let edges: Vec<[u32; 2]> =
            wl.a.relation(wl.e)
                .iter()
                .map(|t| [t.as_slice()[0], t.as_slice()[1]])
                .collect();
        let mut rng = SmallRng::seed_from_u64(3);
        let reps = 5000u32;
        let t = time(|| {
            for _ in 0..reps {
                let t = edges[rng.gen_range(0..edges.len())];
                ix.set_tuple(wl.e, &t, rng.gen_bool(0.5)).unwrap();
            }
        }) / reps;
        println!("    n={n:>5}: {t:?} per tuple toggle (flat across n ⇒ O(1))");
    }
    println!();
}

/// E10 — Theorem 26: nested query evaluation.
fn e10_nested() {
    println!("## E10  Theorem 26 FOG[C]: max average-neighbor-weight");
    use agq_nested::{
        Connective, MultiWeights, NestedEvaluator, NestedFormula, SemiringTag, Value,
    };
    for &n in &[1000usize, 4000] {
        // needs a universe guard
        let g = generators::gnm(n, 2 * n, 31);
        let mut sig = agq_structure::Signature::new();
        let e = sig.add_relation("E", 2);
        let u = sig.add_relation("U", 1);
        let w = sig.add_weight("w", 1);
        let mut a = agq_structure::Structure::new(std::sync::Arc::new(sig), n);
        for v in 0..n as u32 {
            a.insert(u, &[v]);
        }
        for (s, t) in g.edges() {
            a.insert(e, &[s, t]);
            a.insert(e, &[t, s]);
        }
        let mut mw = MultiWeights::new();
        let mut rng = SmallRng::seed_from_u64(4);
        for v in 0..n as u32 {
            mw.set(w, &[v], Value::N(Nat(rng.gen_range(1..100))));
        }
        let (x, y, y2) = (Var(0), Var(1), Var(2));
        let num = NestedFormula::Sum(
            vec![y],
            Box::new(NestedFormula::Mul(vec![
                NestedFormula::Bracket(Box::new(NestedFormula::Rel(e, vec![x, y])), SemiringTag::N),
                NestedFormula::SAtom {
                    weight: w,
                    tag: SemiringTag::N,
                    args: vec![y],
                },
            ])),
        );
        let den = NestedFormula::Sum(
            vec![y2],
            Box::new(NestedFormula::Bracket(
                Box::new(NestedFormula::Rel(e, vec![x, y2])),
                SemiringTag::N,
            )),
        );
        let div = Connective::new(
            "avg",
            vec![SemiringTag::N, SemiringTag::N],
            SemiringTag::MaxF,
            |vals| match (&vals[0], &vals[1]) {
                (Value::N(a), Value::N(b)) if b.0 > 0 => {
                    Value::MaxF(agq_semiring::MaxF(a.0 as f64 / b.0 as f64))
                }
                _ => Value::MaxF(agq_semiring::MaxF::NEG_INF),
            },
        );
        let avg = NestedFormula::Guarded {
            guard: u,
            guard_args: vec![x],
            connective: div,
            args: vec![num, den],
        };
        let query = NestedFormula::Sum(vec![x], Box::new(avg));
        let t0 = Instant::now();
        let ev = NestedEvaluator::build(&a, &mw, &query, &CompileOptions::default()).unwrap();
        let t = t0.elapsed();
        println!(
            "    n={n:>5}: evaluated in {t:>10?}, max avg = {}",
            ev.value()
        );
    }
    println!();
}

/// E11 — Example 25: local-search rounds at O(1) each.
fn e11_local_search() {
    println!("## E11  Example 25: local-search independent set via dynamic index");
    for &(w, h) in &[(40usize, 40usize), (80, 80)] {
        let g = generators::planar_like(w, h, 3);
        let wl = workload_from(g);
        let n = wl.a.domain_size();
        let (x, y) = (Var(0), Var(1));
        let mut sig = (**wl.a.signature()).clone();
        let s = sig.add_relation("S", 1);
        let mut a = agq_structure::Structure::new(std::sync::Arc::new(sig), n);
        for r in wl.a.signature().relation_ids() {
            for t in wl.a.relation(r).iter() {
                a.insert(r, t.as_slice());
            }
        }
        let phi = Formula::Rel(wl.e, vec![x, y]).and(Formula::Rel(s, vec![y]));
        let t0 = Instant::now();
        let mut ix = AnswerIndex::build_dynamic(&a, &phi, &CompileOptions::default()).unwrap();
        let build = t0.elapsed();
        let t0 = Instant::now();
        let mut in_s = vec![false; n];
        let mut blocked = vec![0u32; n];
        let mut size = 0;
        for v in 0..n as u32 {
            if !in_s[v as usize] && blocked[v as usize] == 0 {
                in_s[v as usize] = true;
                size += 1;
                ix.set_tuple(s, &[v], true).unwrap();
                for &u2 in wl.graph.neighbors(v) {
                    blocked[u2 as usize] += 1;
                }
            }
        }
        let search = t0.elapsed();
        println!(
            "    {w}×{h} planar-like (n={n}): build {build:?}, search {search:?}, |S|={size} ({:.0} ns/round)",
            search.as_nanos() as f64 / size as f64
        );
    }
    println!();
}

/// E13 — point-query throughput: the zero-restore overlay/batch path vs
/// the seed's `peek_with` update/restore path (E10_throughput in the
/// criterion suite; acceptance: ≥2× queries/sec on the n=16k workload).
///
/// The baseline is the preserved seed evaluator
/// ([`agq_bench::legacy::LegacyEngine`]) — per-gate parent `Vec`s, cloned
/// slot lists, allocating segment-tree updates, and `2|x̄|` full
/// update/restore cycles per query — exactly the "current peek_with
/// path" this PR replaces. The in-tree update/restore path
/// (`query_via_updates`, already sped up by the flat CSR layout and the
/// in-place segment tree) is reported alongside for honesty.
fn e13_throughput(record: &mut BenchRecord) {
    use agq_bench::legacy::LegacyEngine;
    println!("## E13  point-query throughput (n=16k E6 workload, MinPlus)");
    let n = 16_000usize;
    let wl = sparse_random(n, 9);
    let (x, y) = (Var(0), Var(1));
    let expr: Expr<MinPlus> = Expr::Mul(vec![
        Expr::Bracket(Formula::Rel(wl.e, vec![x, y])),
        Expr::Weight(wl.c, vec![x, y]),
        Expr::Weight(wl.w, vec![y]),
    ])
    .sum_over([y]);
    let weights = fill_weights(
        &wl,
        3,
        |r| MinPlus(r.gen_range(1..50)),
        |r| MinPlus(r.gen_range(1..50)),
    );
    let nf = normalize(&expr).unwrap();
    let compiled = compile(&wl.a, &nf, &CompileOptions::default()).unwrap();
    let mut legacy: LegacyEngine<MinPlus> = LegacyEngine::new(compiled.clone(), &weights);
    // A/B the per-slot cone memoization: an engine over a cone-less plan
    // takes the discovery-peek path (heap + hash-map per query), while
    // the default engine sweeps the memoized cones.
    let compiled_nocones = std::sync::Arc::new(compiled.clone());
    let mut engine_disc: GeneralEngine<MinPlus> = GeneralEngine::from_parts(
        compiled_nocones.clone(),
        std::sync::Arc::new(agq_circuit::EvalPlan::new(compiled_nocones.circuit.clone())),
        &weights,
    );
    let mut engine: GeneralEngine<MinPlus> = GeneralEngine::new(compiled, &weights);

    let mut rng = SmallRng::seed_from_u64(1);
    let points: Vec<[u32; 1]> = (0..4096).map(|_| [rng.gen_range(0..n as u32)]).collect();
    let tuples: Vec<&[u32]> = points.iter().map(|p| p.as_slice()).collect();

    // correctness guard: all paths agree on this workload
    for p in points.iter().take(64) {
        let a = legacy.query(p);
        let b = engine.query(p);
        let c = engine.query_via_updates(p);
        let d = engine_disc.query(p);
        assert_eq!(a, b, "memoized-cone overlay must match the seed path");
        assert_eq!(a, c, "update/restore must match the seed path");
        assert_eq!(a, d, "discovery overlay must match the seed path");
    }

    let reps = points.len() as u32;
    let t_legacy = time(|| {
        for p in &points {
            std::hint::black_box(legacy.query(p));
        }
    });
    let t_classic = time(|| {
        for p in &points {
            std::hint::black_box(engine.query_via_updates(p));
        }
    });
    let t_disc = time(|| {
        for p in &points {
            std::hint::black_box(engine_disc.query(p));
        }
    });
    let t_overlay = time(|| {
        for p in &points {
            std::hint::black_box(engine.query(p));
        }
    });
    let t_batch = time(|| {
        std::hint::black_box(engine.query_batch(&tuples));
    });
    let qps = |t: Duration| reps as f64 / t.as_secs_f64();
    let (q_legacy, q_classic, q_overlay, q_batch) =
        (qps(t_legacy), qps(t_classic), qps(t_overlay), qps(t_batch));
    println!(
        "    seed peek_with baseline:  {q_legacy:>10.0} q/s ({:?}/query)",
        t_legacy / reps
    );
    println!(
        "    update/restore (flat IR): {q_classic:>10.0} q/s ({:?}/query)",
        t_classic / reps
    );
    println!(
        "    overlay (discovery):      {:>10.0} q/s ({:?}/query)",
        qps(t_disc),
        t_disc / reps
    );
    println!(
        "    overlay (memoized cones): {q_overlay:>10.0} q/s ({:?}/query)",
        t_overlay / reps
    );
    println!(
        "    query_batch:              {q_batch:>10.0} q/s ({:?}/query)",
        t_batch / reps
    );
    println!(
        "    speedup (batch vs seed peek_with): {:.2}×\n",
        q_batch / q_legacy
    );
    record.qps_peek_with = q_legacy;
    record.qps_update_restore = q_classic;
    record.qps_overlay = q_overlay;
    record.qps_batch = q_batch;
    record.throughput_n = n;
}

/// E12 — ablation: how coloring quality drives the constants.
fn e12_ablation_coloring() {
    println!("## E12  ablation: per-class structure constants (same query, different classes)");
    println!("edge-count query | class | colors | fdepth | subsets | gates/n | compile");
    let n = 4000;
    let classes: Vec<(&str, agq_graph::Graph)> = vec![
        ("forest", generators::random_forest(n, 3)),
        ("grid", generators::grid(63, 63)),
        ("planar-like", generators::planar_like(63, 63, 4)),
        ("G(n,2n)", generators::gnm(n, 2 * n, 5)),
        ("bounded-deg-4", generators::bounded_degree(n, 4, 5)),
    ];
    for (name, g) in classes {
        let wl = workload_from(g);
        let nn = wl.a.domain_size();
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let phi = Formula::Rel(wl.e, vec![x, y]).and(Formula::Rel(wl.e, vec![y, z]));
        let expr: Expr<Nat> = Expr::Bracket(phi).sum_over([x, y, z]);
        let nf = normalize(&expr).unwrap();
        let t0 = Instant::now();
        let compiled = compile(&wl.a, &nf, &CompileOptions::default()).unwrap();
        let t = t0.elapsed();
        println!(
            "    | {name:>13} | {:>6} | {:>6} | {:>7} | {:>7.1} | {t:>9?}",
            compiled.report.num_colors,
            compiled.report.max_forest_depth,
            compiled.report.num_subsets,
            compiled.report.stats.num_gates as f64 / nn as f64,
        );
    }
    println!();
}

/// Headline numbers of PR 9 (agq-persist: plan serialization, state
/// snapshots, checksummed WAL), persisted as `BENCH_7.json`.
#[derive(Default)]
struct Bench7Record {
    n: usize,
    answers: u64,
    compile_ms: f64,
    plan_bytes: u64,
    snapshot_bytes: u64,
    save_ms: f64,
    load_ms: f64,
    load_speedup: f64,
    wal_batches: usize,
    wal_updates: usize,
    wal_bytes: u64,
    recover_ms: f64,
    wal_replay_ups: f64,
}

impl Bench7Record {
    fn write(&self, path: &str) {
        let json = format!(
            "{{\n  \"bench\": 7,\n  {},\n  \"e18_persist_restart\": {{\"n\": {}, \"answers\": {},\n    \"compile_ms\": {:.1},\n    \"artifacts\": {{\"plan_bytes\": {}, \"snapshot_bytes\": {}, \"save_ms\": {:.1}}},\n    \"plan_load\": {{\"load_ms\": {:.1}, \"speedup_vs_compile\": {:.1}}},\n    \"wal\": {{\"batches\": {}, \"updates\": {}, \"bytes\": {}, \"recover_ms\": {:.1}, \"replay_updates_per_sec\": {:.0}}}}}\n}}\n",
            hardware_json(),
            self.n,
            self.answers,
            self.compile_ms,
            self.plan_bytes,
            self.snapshot_bytes,
            self.save_ms,
            self.load_ms,
            self.load_speedup,
            self.wal_batches,
            self.wal_updates,
            self.wal_bytes,
            self.recover_ms,
            self.wal_replay_ups,
        );
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

/// E18 — PR 9 headline: persistence round-trip on the E9 workload.
/// Four measurements:
///
/// * **compile vs load** — a cold one-shard `ShardedEngine::build`
///   against decoding the saved `.agqplan` + `.agqsnap` pair (linear
///   decode + linear plan rebuild; no tree-decomposition, no circuit
///   construction);
/// * **artifact sizes** — bytes on disk for the plan and the snapshot,
///   and the wall time to write both under the snapshot locks;
/// * **WAL journal + recovery** — 64 batches of 16 edge flips appended
///   through the checksummed log, then a crash-restart:
///   plan + snapshot load, tail scan, and committed-batch replay;
/// * **replay throughput** — updates per second through the recovery
///   replay path alone (recover time minus a separately-timed load).
fn e18_persist_restart(record: &mut Bench7Record) {
    use agq_core::TupleUpdate;
    use agq_enumerate::GeneralShardedEngine;
    use agq_persist::{attach_sharded_file_wal, load_sharded, recover_sharded, save_sharded};
    use agq_semiring::F64;

    type Engine = GeneralShardedEngine<F64>;

    println!("## E18  persistence: plan/snapshot round-trip + WAL recovery on E9");
    let n = 16_000usize;
    record.n = n;
    let g = generators::gnm(n, 2 * n, 7);
    let mut sig = agq_structure::Signature::new();
    let e = sig.add_relation("E", 2);
    let mut a = agq_structure::Structure::new(std::sync::Arc::new(sig), n);
    for (u, v) in g.edges() {
        a.insert(e, &[u, v]);
        a.insert(e, &[v, u]);
    }
    let edges: Vec<Vec<u32>> = a
        .relation(e)
        .iter()
        .map(|t| t.as_slice().to_vec())
        .collect();
    let a = std::sync::Arc::new(a);
    let (x, y, z) = (Var(0), Var(1), Var(2));
    let phi = Formula::Rel(e, vec![x, y])
        .and(Formula::Rel(e, vec![y, z]))
        .and(Formula::neq(x, z));
    let opts = CompileOptions::default();

    let t0 = Instant::now();
    let live = Engine::build(&a, &phi, &opts, 1).unwrap();
    record.compile_ms = t0.elapsed().as_secs_f64() * 1e3;
    record.answers = live.count();
    println!(
        "    compile: {:.1} ms, {} answers",
        record.compile_ms, record.answers
    );

    let dir = std::env::temp_dir().join(format!("agq_bench7_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (plan, snap, wal) = (
        dir.join("q.agqplan"),
        dir.join("q.agqsnap"),
        dir.join("wal.agqlog"),
    );
    let t0 = Instant::now();
    let stats = save_sharded(&live, &plan, &snap).unwrap();
    record.save_ms = t0.elapsed().as_secs_f64() * 1e3;
    record.plan_bytes = stats.plan_bytes;
    record.snapshot_bytes = stats.snapshot_bytes;
    println!(
        "    save: plan {} B + snapshot {} B in {:.1} ms",
        record.plan_bytes, record.snapshot_bytes, record.save_ms
    );

    // Warm the file cache, then time the load proper.
    load_sharded::<F64, SegTreePerm<F64>>(&plan, &snap).unwrap();
    let t0 = Instant::now();
    let loaded = load_sharded::<F64, SegTreePerm<F64>>(&plan, &snap).unwrap();
    record.load_ms = t0.elapsed().as_secs_f64() * 1e3;
    record.load_speedup = record.compile_ms / record.load_ms;
    assert_eq!(loaded.count(), record.answers);
    println!(
        "    load: {:.1} ms ({:.1}× faster than compile)",
        record.load_ms, record.load_speedup
    );

    // Journal 64 batches of 16 deterministic edge flips, then recover.
    attach_sharded_file_wal(&live, &wal).unwrap();
    let (batches, per_batch) = (64usize, 16usize);
    let mut present = vec![true; edges.len()];
    let mut s = 0x9e3779b97f4a7c15u64;
    for _ in 0..batches {
        let batch: Vec<TupleUpdate> = (0..per_batch)
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
    record.wal_batches = batches;
    record.wal_updates = batches * per_batch;
    record.wal_bytes = std::fs::metadata(&wal).unwrap().len();

    let t0 = Instant::now();
    let (rec, report) = recover_sharded::<F64, SegTreePerm<F64>>(&plan, &snap, &wal).unwrap();
    record.recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(report.batches_replayed, batches);
    assert_eq!(rec.count(), live.count());
    let replay_ms = (record.recover_ms - record.load_ms).max(1e-3);
    record.wal_replay_ups = record.wal_updates as f64 / (replay_ms / 1e3);
    println!(
        "    recover: {:.1} ms for {} batches / {} updates ({} B of WAL); \
         replay ≈ {:.0} updates/s\n",
        record.recover_ms,
        record.wal_batches,
        record.wal_updates,
        record.wal_bytes,
        record.wal_replay_ups
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Headline numbers of PR 10 (fault-tolerant serving: fail-point
/// registry, shard quarantine, WAL durability policy), persisted as
/// `BENCH_8.json`.
#[derive(Default)]
struct Bench8Record {
    calls: u64,
    point_ns: f64,
    io_point_ns: f64,
    n: usize,
    shards: usize,
    updates: usize,
    churn_ups: f64,
    hook_overhead_pct: f64,
}

impl Bench8Record {
    fn write(&self, path: &str) {
        let json = format!(
            "{{\n  \"bench\": 8,\n  {},\n  \"e19_failpoint_overhead\": {{\n    \"hooks_disabled\": {{\"calls\": {}, \"point_ns_per_call\": {:.3}, \"io_point_ns_per_call\": {:.3}}},\n    \"sharded_churn\": {{\"n\": {}, \"shards\": {}, \"updates\": {}, \"updates_per_sec\": {:.0}, \"est_hook_overhead_pct\": {:.4}}}}}\n}}\n",
            hardware_json(),
            self.calls,
            self.point_ns,
            self.io_point_ns,
            self.n,
            self.shards,
            self.updates,
            self.churn_ups,
            self.hook_overhead_pct,
        );
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

/// E19 — PR 10 headline: disabled fail-point hooks cost nothing on the
/// hot update path. Two measurements:
///
/// * **hook microbench** — tight-loop `fault::point` / `fault::io_point`
///   with the `failpoints` feature off (this crate never enables it, so
///   this is the production configuration): both compile to inlined
///   no-ops, and the reported ns/call is loop overhead, not hook cost;
/// * **churn throughput** — the E15 hot-key churn script through the
///   sharded engine's `apply_batch`, which crosses the `wal.append`
///   (durability policy), `shard.apply`, and `batch.worker` sites on
///   every batch. The implied overhead percentage bounds what the
///   disabled hooks could possibly add per update.
fn e19_failpoint_overhead(record: &mut Bench8Record) {
    use agq_enumerate::{GeneralShardedEngine, ShardedEngine};
    use std::hint::black_box;
    println!("## E19  fail-point overhead: disabled hooks on the hot update path");

    let calls: u64 = 1 << 26;
    let t = time(|| {
        for _ in 0..calls {
            agq_core::fault::point(black_box("shard.apply"));
        }
    });
    record.point_ns = t.as_secs_f64() * 1e9 / calls as f64;
    let t = time(|| {
        let mut ok = 0u64;
        for _ in 0..calls {
            ok += u64::from(agq_core::fault::io_point(black_box("wal.append")).is_ok());
        }
        black_box(ok);
    });
    record.io_point_ns = t.as_secs_f64() * 1e9 / calls as f64;
    record.calls = calls;
    println!(
        "    {} calls each: point {:.3} ns/call, io_point {:.3} ns/call",
        record.calls, record.point_ns, record.io_point_ns
    );

    let w = e14_world();
    let reps = 40_000usize;
    let script = flip_script(w.e, &w.edges, reps, 99, Some((4, 0.95)));
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let eng: GeneralShardedEngine<Nat> =
        ShardedEngine::build(&w.a, &w.phi, &CompileOptions::default(), cores.max(2)).unwrap();
    for u in &script {
        eng.apply_update(u).unwrap();
    }
    let t = time(|| {
        for chunk in script.chunks(64) {
            eng.apply_batch(chunk).unwrap();
        }
    });
    record.n = w.comps * w.m;
    record.shards = eng.num_shards();
    record.updates = reps;
    record.churn_ups = reps as f64 / t.as_secs_f64();
    // ≈3 hook crossings per 64-update batch (journal + apply + worker)
    let per_update_ns = 1e9 / record.churn_ups;
    record.hook_overhead_pct =
        (record.point_ns + record.io_point_ns) * (3.0 / 64.0) / per_update_ns * 100.0;
    println!(
        "    churn via {} shards: batch=64 {:.0} updates/s; \
         implied hook overhead ≤ {:.4}% per update\n",
        record.shards, record.churn_ups, record.hook_overhead_pct
    );
}
