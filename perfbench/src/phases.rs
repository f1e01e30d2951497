//! The client phases the workloads are made of. Each times the engine
//! call alone, checks its result against the oracle, and, when tracing,
//! repeats the hidden layer calls on the replica.

use crate::rng::Rng;
use crate::stack::{self, Engine, Files, Replica, WalTotals};
use crate::tally::Tally;
use crate::trace::op;
use crate::world::{Db, World};
use sparse_agg::semiring::Semiring;
use sparse_agg::structure::Elem;
use std::collections::HashSet;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What the phases run against.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    pub w: &'a World,
    pub eng: &'a Engine,
    /// Present only when tracing.
    pub replica: Option<&'a Mutex<Replica>>,
    /// Flips per update batch, the edges that are hot, and the share of
    /// the flips that lands on them.
    pub batch: usize,
    pub hot: &'a [usize],
    pub hot_share: f64,
    /// Where persistence cycles keep their files.
    pub dir: &'a Path,
    pub wal: &'a Arc<WalTotals>,
}

impl Ctx<'_> {
    fn replica(&self, f: impl FnOnce(&mut Replica)) {
        if let Some(r) = self.replica {
            f(&mut r.lock().expect("replica lock"));
        }
    }
}

/// How long a loop runs: untraced runs go on until a deadline (and at
/// least `min` iterations, so every tail has enough samples beyond it);
/// traced runs do a fixed number, so their layer totals compare.
#[derive(Clone, Copy)]
pub struct Budget {
    deadline: Option<Instant>,
    min: u64,
}

impl Budget {
    pub fn new(traced: bool, secs: f64, min: u64, traced_count: u64) -> Budget {
        match traced {
            true => Budget {
                deadline: None,
                min: traced_count,
            },
            false => Budget {
                deadline: Some(Instant::now() + Duration::from_secs_f64(secs)),
                min,
            },
        }
    }

    pub fn more(&self, done: u64) -> bool {
        done < self.min || self.deadline.is_some_and(|d| Instant::now() < d)
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One full `for_each_answer` pass, timing the gap before every answer;
/// the answers are left in `answers`, flattened.
pub fn enumerate(cx: &Ctx, t: &mut Tally, answers: &mut Vec<Elem>) {
    // Reserve up front so no reallocation lands inside a timed gap.
    let expect = cx.eng.count() as usize;
    let mut gaps: Vec<u32> = Vec::with_capacity(expect);
    answers.clear();
    answers.reserve(expect * cx.w.arity());
    let start = Instant::now();
    let mut last = start;
    op("op.enumerate", || {
        cx.eng.for_each_answer(|a| {
            let now = Instant::now();
            gaps.push((now - last).as_nanos().min(u32::MAX as u128) as u32);
            last = now;
            answers.extend_from_slice(a);
        })
    });
    let secs = start.elapsed().as_secs_f64();
    let got = gaps.len() as u64;
    t.enum_rate.push(got as f64 / secs);
    t.enum_answers += got;
    let gaps: Vec<f64> = gaps.iter().map(|&g| f64::from(g) * 1e-3).collect();
    t.enum_p999_us.push(crate::tally::percentile(&gaps, 0.999));
    t.op("enumerate", got as usize == expect, || {
        format!("{got} answers enumerated, count() = {expect}")
    });
    cx.replica(|r| r.cursor_pass());
}

/// `answer(k)` at `n` seeded ranks, each checked against the enumerated
/// answer of that rank.
pub fn seeks(cx: &Ctx, t: &mut Tally, rng: &mut Rng, answers: &[Elem], n: usize) {
    let ar = cx.w.arity();
    let total = (answers.len() / ar) as u64;
    for _ in 0..n {
        if total == 0 {
            break;
        }
        let k = rng.below(total);
        let start = Instant::now();
        let got = op("op.seek", || cx.eng.answer(k));
        t.seek_us.push(us(start.elapsed()));
        let want = &answers[k as usize * ar..(k as usize + 1) * ar];
        t.op("seek", got.as_deref() == Some(want), || {
            format!("answer({k}) = {got:?}, enumerated {want:?}")
        });
        cx.replica(|r| r.seek(k, &mut t.counts));
    }
}

/// `n` single `query` calls on tuples, alternately from `sample()` and
/// uniformly random; each must be nonzero exactly for enumerated tuples.
pub fn queries(cx: &Ctx, t: &mut Tally, rng: &mut Rng, answers: &[Elem], n: usize) {
    let ar = cx.w.arity();
    let set: HashSet<&[Elem]> = answers.chunks_exact(ar).collect();
    for i in 0..n {
        let tuple: Vec<Elem> = match i % 2 {
            0 => cx.eng.sample(rng.next_u64()).unwrap_or_default(),
            _ => (0..ar).map(|_| rng.below(cx.w.n as u64) as Elem).collect(),
        };
        if tuple.len() != ar {
            t.op("query", false, || "sample() returned no answer".into());
            continue;
        }
        let start = Instant::now();
        let got = op("op.query", || cx.eng.query(&tuple));
        t.query_us.push(us(start.elapsed()));
        let want = set.contains(&tuple[..]);
        t.op("query", got.is_zero() != want, || {
            format!("query({tuple:?}) = {got:?}, enumerated: {want}")
        });
        cx.replica(|r| r.peek(&[&tuple]));
    }
}

/// One `query_batch` of `size` pairs inside one seeded component. With
/// a writer racing (`oracle` = `None`) only what no flip can change is
/// checked: values are 0/1, and 0 wherever `x` is outside `S` or `(x,y)`
/// is no flippable edge; with the database at rest every value is.
pub fn pair_batch(
    cx: &Ctx,
    t: &mut Tally,
    rng: &mut Rng,
    size: usize,
    edges: &HashSet<[Elem; 2]>,
    oracle: Option<&Db>,
) {
    let w = cx.w;
    let base = rng.below(w.components as u64) as usize * w.block;
    let pairs: Vec<[Elem; 2]> = (0..size)
        .map(|_| {
            [
                (base + rng.below(w.block as u64) as usize) as Elem,
                (base + rng.below(w.block as u64) as usize) as Elem,
            ]
        })
        .collect();
    let refs: Vec<&[Elem]> = pairs.iter().map(|p| &p[..]).collect();
    let start = Instant::now();
    let got = op("op.query", || cx.eng.query_batch(&refs));
    t.query_us.push(us(start.elapsed()));
    let bad = pairs.iter().zip(&got).find(|(p, v)| match oracle {
        Some(db) => v.0 != u64::from(db.is_answer(&p[..])),
        None => v.0 > 1 || (v.0 != 0 && !(p[0].is_multiple_of(2) && edges.contains(*p))),
    });
    t.op("query", got.len() == size && bad.is_none(), || {
        format!("query_batch answered {bad:?}")
    });
    cx.replica(|r| r.peek(&refs));
}

/// What a write round measures: each update metric is taken from one
/// kind of batch per workload, so no percentile straddles two
/// populations.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Write {
    /// Apply and check; no samples, no read after the write.
    Silent,
    /// The batch latency and the read after the write.
    Both,
}

/// One `apply_batch` of the workload's flips, and the read after the
/// write if `what` asks for it; both are checked against the oracle.
pub fn write_round(cx: &Ctx, t: &mut Tally, rng: &mut Rng, db: &mut Db, what: Write) {
    let batch = db.flip_batch(rng, cx.batch, cx.hot, cx.hot_share);
    let start = Instant::now();
    let res = op("op.apply_batch", || cx.eng.apply_batch(&batch));
    if what == Write::Both {
        t.batch(batch.len(), start.elapsed().as_secs_f64());
    }
    t.op("apply_batch", res.is_ok(), || format!("{res:?}"));
    cx.replica(|r| r.apply(&batch, &mut t.counts));
    if what == Write::Silent {
        return;
    }
    let k = rng.next_u64();
    let start = Instant::now();
    let (count, got) = op("op.fresh_read", || {
        let c = cx.eng.count();
        (c, if c > 0 { cx.eng.answer(k % c) } else { None })
    });
    t.fresh_us.push(us(start.elapsed()));
    let ok = count == db.count() && got.as_deref().map_or(count == 0, |a| db.is_answer(a));
    t.op("fresh_read", ok, || {
        format!(
            "count() = {count} (oracle {}), answer = {got:?}",
            db.count()
        )
    });
    cx.replica(|r| r.fresh_read(k, &mut t.counts));
}

/// Uniform flips, applied and checked but not timed, until the database
/// has settled (see [`Db`]): the window then opens on the database it
/// closes on.
pub fn settle(cx: &Ctx, t: &mut Tally, rng: &mut Rng, db: &mut Db) {
    let uniform = Ctx { hot: &[], ..*cx };
    while !db.settled() {
        write_round(&uniform, t, rng, db, Write::Silent);
    }
}

/// Count and order-sensitive digest of the answer stream.
pub fn digest(eng: &Engine) -> (u64, u64) {
    let (mut n, mut h) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    eng.for_each_answer(|a| {
        n += 1;
        for &x in a.iter().chain([&u32::MAX]) {
            h = (h ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
    });
    (n, h)
}

/// Save, journal `batches` write rounds to a fresh WAL, recover from the
/// files alone, and check the recovered engine against the live one.
pub fn persist_cycle(
    cx: &Ctx,
    t: &mut Tally,
    rng: &mut Rng,
    db: &mut Db,
    batches: usize,
    what: Write,
) {
    let files = Files::in_dir(cx.dir);
    let start = Instant::now();
    let saved = stack::save(cx.eng, &files, &mut t.counts);
    t.save_s.push(start.elapsed().as_secs_f64());
    t.op("save", saved.is_ok(), || format!("{saved:?}"));
    let synced = files.sync_saved();
    t.op("sync_saved", synced.is_ok(), || format!("{synced:?}"));
    let attached = stack::attach_wal(cx.eng, &files.wal, cx.wal);
    t.op("attach_wal", attached.is_ok(), || format!("{attached:?}"));
    for _ in 0..batches {
        write_round(cx, t, rng, db, what);
    }
    cx.eng.detach_wal();
    t.disk_bytes = files.disk_bytes();

    let start = Instant::now();
    let recovered = stack::recover(&files, &mut t.counts);
    t.recover_s.push(start.elapsed().as_secs_f64());
    match recovered {
        Ok((rec, replayed)) => {
            let (live, back) = (digest(cx.eng), digest(&rec));
            t.op("recover", live == back && replayed == batches, || {
                format!("replayed {replayed}/{batches} batches; live {live:?}, recovered {back:?}")
            });
        }
        Err(e) => t.op("recover", false, || format!("{e:?}")),
    }
    if crate::trace::enabled() {
        let apart = stack::plan_load_apart(&files);
        t.op("plan_load", apart.is_ok(), || format!("{apart:?}"));
    }
}

/// Build an engine on the current database and compare its answers with
/// the live engine's: the count, and the sorted answers when `sorted`.
pub fn fresh_build_check(cx: &Ctx, t: &mut Tally, db: &Db, sorted: bool) {
    let a = std::sync::Arc::new(db.structure(cx.w.a.signature()));
    let fresh = stack::build(&a, &cx.w.phi);
    match fresh {
        Ok(fresh) => {
            let live = cx.eng.count();
            let mut ok = fresh.count() == live && live == db.count();
            if sorted && ok {
                let (mut x, mut y) = (cx.eng.collect_answers(), fresh.collect_answers());
                x.sort_unstable();
                y.sort_unstable();
                ok = x == y;
            }
            t.op("fresh_build", ok, || {
                format!(
                    "live {live}, fresh {}, oracle {}",
                    fresh.count(),
                    db.count()
                )
            });
        }
        Err(e) => t.op("fresh_build", false, || e),
    }
}
