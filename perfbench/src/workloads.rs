//! The two workloads. Each runs the whole life of a server — set-up,
//! reads, writes, save and recovery — in the proportions its question
//! needs, so every end-to-end metric is measured on every workload.
//! Clients are closed loops: each sends its next call when the last one
//! returned.

use crate::phases::{
    enumerate, fresh_build_check, pair_batch, persist_cycle, queries, seeks, settle, write_round,
    Budget, Ctx, Write,
};
use crate::rng::Rng;
use crate::stack::{self, Engine, Replica, WalTotals};
use crate::tally::Tally;
use crate::world::{Db, World};
use std::collections::HashSet;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const NAMES: [&str; 2] = ["e9-serve", "churn-sharded"];

/// Vertices of the random graph of `e9-serve`.
const E9_N: usize = 8000;

pub struct Setting<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub dir: &'a Path,
}

/// What a run measured, and about what.
pub struct Outcome {
    pub tally: Tally,
    pub wal: Arc<WalTotals>,
    pub n: usize,
    pub answers: u64,
}

pub fn run(name: &str, s: &Setting) -> Result<Outcome, String> {
    match name {
        "e9-serve" => e9_serve(s),
        "churn-sharded" => churn(s),
        _ => Err(format!(
            "unknown workload {name:?}; expected one of {NAMES:?}"
        )),
    }
}

/// Build `times` engines (each dropped before the next, so peak memory
/// holds one), keep the last.
fn setups(
    w: &World,
    t: &mut Tally,
    s: &Setting,
    times: usize,
) -> Result<(Engine, Option<Mutex<Replica>>), String> {
    let mut kept = None;
    for _ in 0..times {
        drop(kept.take());
        let built = if s.traced {
            stack::build_traced(w, &mut t.counts).map(|(e, r, secs)| (e, Some(Mutex::new(r)), secs))
        } else {
            let start = Instant::now();
            stack::build(&w.a, &w.phi).map(|e| (e, None, start.elapsed().as_secs_f64()))
        };
        let (eng, replica, secs) = built?;
        t.setup_s.push(secs);
        t.op("setup", true, String::new);
        kept = Some((eng, replica));
    }
    kept.ok_or_else(|| "no setup".to_string())
}

/// Repeat `round` over the measuring window, so that every metric
/// samples all of it rather than one slice: until `--seconds` have passed
/// and at least `min` rounds ran, or exactly `traced` rounds when tracing.
fn rounds(s: &Setting, min: u64, traced: u64, mut round: impl FnMut()) {
    let budget = Budget::new(s.traced, s.seconds, min, traced);
    let mut done = 0;
    while budget.more(done) {
        round();
        done += 1;
    }
}

/// Serving a large non-local answer set, and restarting it. Each round
/// reads (enumeration, seeks, point queries), applies read-after-write
/// rounds of 64 uniform flips without a WAL, then saves the engine,
/// journals batches of 16 uniform flips through a file WAL and recovers
/// from the files alone.
fn e9_serve(s: &Setting) -> Result<Outcome, String> {
    let w = World::random_graph(E9_N, s.seed);
    let mut rng = Rng::new(s.seed, 3);
    let mut t = Tally::default();
    let (eng, replica) = setups(&w, &mut t, s, if s.traced { 1 } else { 3 })?;
    let wal = Arc::new(WalTotals::default());
    let cx = Ctx {
        w: &w,
        eng: &eng,
        replica: replica.as_ref(),
        batch: 64,
        hot: &[],
        hot_share: 0.0,
        dir: s.dir,
        wal: &wal,
    };
    let journaled = Ctx { batch: 16, ..cx };
    let answers0 = eng.count();
    let mut db = Db::new(&w);
    settle(&cx, &mut t, &mut rng, &mut db);
    let mut answers = Vec::new();
    // Seven rounds leave ten samples beyond every p99 of the stamp.
    rounds(s, 7, 2, || {
        // Reads and writes alternate in short bursts, so that each metric
        // samples several moments of the round.
        for _ in 0..3 {
            enumerate(&cx, &mut t, &mut answers);
            seeks(&cx, &mut t, &mut rng, &answers, 100);
            queries(&cx, &mut t, &mut rng, &answers, 50);
            for _ in 0..50 {
                write_round(&cx, &mut t, &mut rng, &mut db, Write::Both);
            }
        }
        persist_cycle(&journaled, &mut t, &mut rng, &mut db, 256, Write::Silent);
        t.end_round();
    });
    drop(answers);
    fresh_build_check(&cx, &mut t, &db, false);
    Ok(Outcome {
        tally: t,
        wal,
        n: w.n,
        answers: answers0,
    })
}

/// Hot-key churn on many small components with a file WAL. Each round
/// draws a new hot set; a writer and a reader thread contend for the
/// shard locks for a while, then reads, read-after-write rounds and a
/// restart follow at rest.
fn churn(s: &Setting) -> Result<Outcome, String> {
    const PAIRS: usize = 4096;
    const CONTEND_S: f64 = 1.2;
    const HOT: usize = 4;
    let w = World::forest(64, 250, s.seed);
    let mut t = Tally::default();
    let (eng, replica) = setups(&w, &mut t, s, if s.traced { 3 } else { 15 })?;
    let wal = Arc::new(WalTotals::default());
    let base = Ctx {
        w: &w,
        eng: &eng,
        replica: replica.as_ref(),
        batch: 64,
        hot: &[],
        hot_share: 0.95,
        dir: s.dir,
        wal: &wal,
    };
    let answers0 = eng.count();
    let mut db = Db::new(&w);
    let journal = s.dir.join("churn.agqlog");
    let edges: HashSet<[u32; 2]> = w.edges.iter().copied().collect();
    let (mut wrng, mut rrng, mut rng, mut hrng) = (
        Rng::new(s.seed, 4),
        Rng::new(s.seed, 5),
        Rng::new(s.seed, 6),
        Rng::new(s.seed, 8),
    );
    settle(&base, &mut t, &mut rng, &mut db);
    let mut answers = Vec::new();
    let mut failure = None;
    rounds(s, 6, 2, || {
        // Where the hot edges sit decides what a batch and the read after
        // it cost; a new set each round averages over many placements.
        let hot = w.draw_hot(&mut hrng, HOT);
        let cx = Ctx { hot: &hot, ..base };
        let attached = stack::attach_wal(&eng, &journal, &wal);
        t.op("attach_wal", attached.is_ok(), || format!("{attached:?}"));
        let (writer, reader) = std::thread::scope(|scope| {
            let (cx, db, edges, wrng, rrng) = (&cx, &mut db, &edges, &mut wrng, &mut rrng);
            let writer = scope.spawn(move || {
                let mut t = Tally::default();
                let budget = Budget::new(s.traced, CONTEND_S, 200, 1500);
                let mut done = 0;
                while budget.more(done) {
                    write_round(cx, &mut t, wrng, db, Write::Silent);
                    done += 1;
                }
                crate::trace::flush_thread();
                t
            });
            let reader = scope.spawn(move || {
                let mut t = Tally::default();
                let budget = Budget::new(s.traced, CONTEND_S, 170, 150);
                let mut done = 0;
                while budget.more(done) {
                    pair_batch(cx, &mut t, rrng, PAIRS, edges, None);
                    done += 1;
                }
                crate::trace::flush_thread();
                t
            });
            (writer.join(), reader.join())
        });
        match (writer, reader) {
            (Ok(wt), Ok(rt)) => {
                t.merge(wt);
                t.merge(rt);
            }
            _ => failure = Some("a client thread panicked".to_string()),
        }
        pair_batch(&cx, &mut t, &mut rng, PAIRS, &edges, Some(&db));
        for _ in 0..4 {
            for _ in 0..2 {
                enumerate(&cx, &mut t, &mut answers);
            }
            seeks(&cx, &mut t, &mut rng, &answers, 75);
            for _ in 0..150 {
                write_round(&cx, &mut t, &mut rng, &mut db, Write::Both);
            }
        }
        persist_cycle(&cx, &mut t, &mut rng, &mut db, 64, Write::Both);
        t.end_round();
    });
    if let Some(e) = failure {
        return Err(e);
    }
    fresh_build_check(&base, &mut t, &db, true);
    Ok(Outcome {
        tally: t,
        wal,
        n: w.n,
        answers: answers0,
    })
}
