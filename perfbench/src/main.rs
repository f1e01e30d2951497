//! End-to-end and per-layer benchmark of the sparse-agg serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <e9-serve|churn-sharded> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`; the program under test sees only
//! the generated structure, formula and update batches. Every operation
//! is checked; failures are counted, not fatal. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, and the
//! metrics — the end-to-end ones with `--trace 0`, the per-layer
//! breakdown (from spans, see `trace.rs`) with `--trace 1`. The line
//! before it stamps the run: machine, build, seed, sizes, op and sample
//! counts. Traced runs also write their spans to `out/`.

mod phases;
mod rng;
mod stack;
mod tally;
mod trace;
mod workloads;
mod world;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use tally::Metric;
use workloads::{Outcome, Setting};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1) as f64,
        traced: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            t => return Err(format!("--trace {t}: expected 0 or 1")),
        },
    })
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to record from a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let dir = out.join(format!("run-{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let span_cost = if args.traced {
        trace::enable();
        trace::calibrate()
    } else {
        0.0
    };
    let setting = Setting {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        dir: &dir,
    };
    let outcome = workloads::run(&args.workload, &setting);
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };

    let metrics = if args.traced {
        let spans = trace::collect();
        let path = out.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace::write(&path, &spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        per_layer(&outcome, &spans, span_cost)
    } else {
        outcome.tally.end_to_end()
    };
    println!("{}", stamp(&args, &outcome, &metrics));
    let t = &outcome.tally;
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        t.failed == 0 && finite,
        t.attempted,
        t.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    ExitCode::SUCCESS
}

/// The run's context: machine, build, inputs, and how many ops and
/// samples stand behind each number.
fn stamp(a: &Args, o: &Outcome, metrics: &[Metric]) -> String {
    let ungated: Vec<String> = o
        .tally
        .ungated()
        .iter()
        .map(|m| format!("\"{}\": {:?}", m.name, m.value))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ops: Vec<String> = o
        .tally
        .ops
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let samples: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {}", m.name, m.samples))
        .collect();
    format!(
        "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"debug_assertions\": {}, \"n\": {}, \"shards\": {}, \
         \"initial_answers\": {}, \"phase_ops\": {{{}}}, \"samples\": {{{}}}, \
         \"ungated\": {{{}}}}}}}",
        a.workload,
        a.seed,
        a.seconds,
        a.traced as u8,
        cfg!(debug_assertions),
        o.n,
        stack::MAX_SHARDS,
        o.answers,
        ops.join(", "),
        samples.join(", "),
        ungated.join(", ")
    )
}

/// The traced run's breakdown: each layer's self time summed over the
/// run (a fixed amount of work), the layers' counts, the time no layer
/// explains, the tracing cost, and the run's own end-to-end numbers.
fn per_layer(o: &Outcome, spans: &[trace::Span], span_cost: f64) -> Vec<Metric> {
    let b = trace::breakdown(spans);
    let c = &o.tally.counts;
    let secs = |layer: &str| b.self_s.get(layer).copied().unwrap_or(0.0);
    let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
    let wal_bytes = o.wal.bytes.load(std::sync::atomic::Ordering::Relaxed) as f64;
    let wal_updates = o.wal.updates.load(std::sync::atomic::Ordering::Relaxed) as f64;
    let mut m: Vec<Metric> = [
        "logic.normalize",
        "core.qe",
        "core.compile",
        "circuit.plan_build",
        "structure.gaifman",
        "core.engine_init",
        "enumerate.index_build",
        "enumerate.shard_split",
        "enumerate.count_build",
        "core.coalesce",
        "core.engine_apply",
        "enumerate.index_apply",
        "enumerate.count_flush",
        "enumerate.seek",
        "enumerate.cursor",
        "core.peek",
        "persist.wal_append",
        "persist.wal_sync",
        "persist.plan_save",
        "persist.snapshot_save",
        "persist.plan_load",
        "persist.load",
        "persist.wal_scan",
        "persist.replay",
    ]
    .iter()
    .map(|l| Metric::new(&format!("{l}_s"), secs(l), "s", 1))
    .collect();
    let replay = secs("persist.replay");
    let plan_load = secs("persist.plan_load");
    m.extend([
        Metric::new("core.gates", c.gates, "count", 1),
        Metric::new("core.shapes", c.shapes, "count", 1),
        Metric::new("circuit.dense_coverage", c.dense_coverage, "ratio", 1),
        Metric::new(
            "core.coalesce_keep",
            ratio(c.coalesce_out as f64, c.coalesce_in as f64),
            "ratio",
            c.coalesce_in as usize,
        ),
        Metric::new(
            "enumerate.seek_visits",
            ratio(c.seek_visits as f64, c.seeks as f64),
            "visits/seek",
            c.seeks as usize,
        ),
        Metric::new(
            "persist.wal_bytes_per_update",
            ratio(wal_bytes, wal_updates),
            "bytes",
            wal_updates as usize,
        ),
        Metric::new("persist.plan_bytes", c.plan_bytes as f64, "bytes", 1),
        Metric::new(
            "persist.snapshot_bytes",
            c.snapshot_bytes as f64,
            "bytes",
            1,
        ),
        Metric::new(
            "persist.replay_updates",
            c.replay_updates as f64,
            "count",
            1,
        ),
        Metric::new(
            "persist.plan_load_vs_replay",
            ratio(plan_load, replay),
            "ratio",
            1,
        ),
        Metric::new(
            "unattributed_s",
            b.end_to_end_s - b.attributed_s,
            "s",
            spans.len(),
        ),
        Metric::new("trace.spans", spans.len() as f64, "count", 1),
        Metric::new(
            "trace.span_cost_s",
            span_cost * spans.len() as f64,
            "s",
            spans.len(),
        ),
    ]);
    for e in o.tally.end_to_end().into_iter().chain(o.tally.ungated()) {
        if e.name != "peak_rss_mb" && e.name != "disk_bytes" {
            m.push(Metric::new(
                &format!("traced.{}", e.name),
                e.value,
                e.unit,
                e.samples,
            ));
        }
    }
    m
}
