//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, start, end, parent (the enclosing span on the same
//! thread) and an operation id shared by every span of one operation. An
//! operation opens with an `op.*` root span around the engine call whose
//! latency the end-to-end metrics report; layer spans either nest inside
//! it (where the benchmark drives the layers itself, or where the engine
//! calls back into benchmark code, like the WAL sink) or follow it as
//! roots of the same operation (a layer driven through its public type
//! on the same inputs, because the engine hides it).
//!
//! With tracing off every wrapper is a direct call.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_OP: AtomicU64 = AtomicU64::new(1);
static DONE: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

pub struct Span {
    pub id: u32,
    /// `0` for a root span.
    pub parent: u32,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Whether the span's self time is work of the operation it belongs
    /// to. Spans that repeat part of an already attributed call (a plan
    /// load that the snapshot load also performs) or only prepare the
    /// layer replicas are reported but not attributed.
    pub attributed: bool,
}

#[derive(Default)]
struct Local {
    stack: Vec<u32>,
    op: u64,
    spans: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

pub fn enable() {
    epoch();
    ON.store(true, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

fn record<R>(name: &'static str, attributed: bool, new_op: bool, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, op) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if new_op {
            l.op = NEXT_OP.fetch_add(1, Ordering::Relaxed);
        }
        let parent = l.stack.last().copied().unwrap_or(0);
        l.stack.push(id);
        (parent, l.op)
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.stack.pop();
        l.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
            attributed,
        });
    });
    out
}

/// Open a new operation: a root span around one end-to-end call.
pub fn op<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    record(name, true, true, f)
}

/// A layer call that is part of the current operation's work.
pub fn layer<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    record(name, true, false, f)
}

/// A layer call reported on its own but not attributed (see
/// [`Span::attributed`]).
pub fn aside<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    record(name, false, false, f)
}

/// Hand this thread's spans to the run; call before a thread ends.
pub fn flush_thread() {
    LOCAL.with(|l| {
        let spans = std::mem::take(&mut l.borrow_mut().spans);
        DONE.lock().expect("span sink lock").extend(spans);
    });
}

/// Mean cost of recording one span, measured on this thread; the
/// calibration spans are discarded.
pub fn calibrate() -> f64 {
    const N: u32 = 20_000;
    let t = Instant::now();
    for i in 0..N {
        layer("trace.calibrate", || std::hint::black_box(i));
    }
    let per_span = t.elapsed().as_secs_f64() / f64::from(N);
    LOCAL.with(|l| l.borrow_mut().spans.clear());
    per_span
}

/// Every span recorded so far (this thread's included).
pub fn collect() -> Vec<Span> {
    flush_thread();
    let mut spans = std::mem::take(&mut *DONE.lock().expect("span sink lock"));
    spans.sort_by_key(|s| s.id);
    spans
}

/// Self time of each span: its duration minus the part of it that its
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        kids.entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            let mut reach = s.start_ns;
            let mut iv = kids.remove(&s.id).unwrap_or_default();
            iv.sort_unstable();
            for (a, b) in iv {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// What the spans say about a run.
pub struct Breakdown {
    /// Self seconds per span name.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Seconds inside `op.*` root spans.
    pub end_to_end_s: f64,
    /// Seconds of attributed layer self time.
    pub attributed_s: f64,
}

pub fn breakdown(spans: &[Span]) -> Breakdown {
    let selfs = self_times(spans);
    let mut b = Breakdown {
        self_s: BTreeMap::new(),
        end_to_end_s: 0.0,
        attributed_s: 0.0,
    };
    for (s, &own) in spans.iter().zip(&selfs) {
        let own = own as f64 * 1e-9;
        if s.parent == 0 && s.name.starts_with("op.") {
            b.end_to_end_s += (s.end_ns - s.start_ns) as f64 * 1e-9;
            continue;
        }
        *b.self_s.entry(s.name).or_default() += own;
        if s.attributed {
            b.attributed_s += own;
        }
    }
    b
}

/// Write the spans as JSON lines.
pub fn write(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, own) in spans.iter().zip(selfs) {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"attributed\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, own, s.attributed
        )?;
    }
    out.flush()
}
