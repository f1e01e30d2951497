//! Samples, checks and op counts of one run, and the metrics made from
//! them.

use crate::stack::Counts;
use std::collections::BTreeMap;

/// What one thread measured. Threads keep their own and merge at the end.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Ops per phase.
    pub ops: BTreeMap<&'static str, u64>,
    pub setup_s: Vec<f64>,
    /// Answers per second of each enumeration pass.
    pub enum_rate: Vec<f64>,
    /// Tail of the gaps between answers, per pass.
    pub enum_p999_us: Vec<f64>,
    pub enum_answers: u64,
    pub seek_us: Vec<f64>,
    pub query_us: Vec<f64>,
    pub batch_us: Vec<f64>,
    pub batch_updates: u64,
    /// Updates and batch seconds of the current round, and the update
    /// rate of each finished round.
    round_updates: u64,
    round_secs: f64,
    pub round_rates: Vec<f64>,
    pub fresh_us: Vec<f64>,
    pub save_s: Vec<f64>,
    pub recover_s: Vec<f64>,
    pub disk_bytes: u64,
    pub counts: Counts,
}

impl Tally {
    /// Count one op of `phase`; a failed or wrong op is reported on
    /// stderr (the first few) and counted, and the run goes on.
    pub fn op(&mut self, phase: &'static str, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        *self.ops.entry(phase).or_default() += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: {phase} failed: {}", what());
            }
        }
    }

    /// Record one sampled batch.
    pub fn batch(&mut self, updates: usize, secs: f64) {
        self.batch_us.push(secs * 1e6);
        self.batch_updates += updates as u64;
        self.round_updates += updates as u64;
        self.round_secs += secs;
    }

    /// Close a round: its update rate becomes one sample of `update_per_s`.
    pub fn end_round(&mut self) {
        if self.round_updates > 0 {
            self.round_rates
                .push(self.round_updates as f64 / self.round_secs);
        }
        self.round_updates = 0;
        self.round_secs = 0.0;
    }

    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        for (k, v) in o.ops {
            *self.ops.entry(k).or_default() += v;
        }
        self.setup_s.extend(o.setup_s);
        self.enum_rate.extend(o.enum_rate);
        self.enum_p999_us.extend(o.enum_p999_us);
        self.enum_answers += o.enum_answers;
        self.seek_us.extend(o.seek_us);
        self.query_us.extend(o.query_us);
        self.batch_us.extend(o.batch_us);
        self.batch_updates += o.batch_updates;
        self.round_rates.extend(o.round_rates);
        self.fresh_us.extend(o.fresh_us);
        self.save_s.extend(o.save_s);
        self.recover_s.extend(o.recover_s);
        self.disk_bytes = self.disk_bytes.max(o.disk_bytes);
        let c = &mut self.counts;
        c.coalesce_in += o.counts.coalesce_in;
        c.coalesce_out += o.counts.coalesce_out;
        c.seeks += o.counts.seeks;
        c.seek_visits += o.counts.seek_visits;
        c.replay_updates += o.counts.replay_updates;
    }

    /// The end-to-end metrics, with the sample count behind each. All are
    /// medians: on a shared machine the figures in [`Tally::ungated`] moved
    /// by up to 4.5× between runs of one build, too far for any bound.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let med = |v: &[f64]| percentile(v, 0.5);
        vec![
            Metric::new("setup_s", med(&self.setup_s), "s", self.setup_s.len()),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1),
            Metric::new(
                "enum_answers_per_s",
                med(&self.enum_rate),
                "1/s",
                self.enum_rate.len(),
            ),
            Metric::new("seek_p50_us", med(&self.seek_us), "us", self.seek_us.len()),
            Metric::new(
                "query_p50_us",
                med(&self.query_us),
                "us",
                self.query_us.len(),
            ),
            Metric::new(
                "update_batch_p50_us",
                med(&self.batch_us),
                "us",
                self.batch_us.len(),
            ),
            Metric::new(
                "fresh_read_p50_us",
                med(&self.fresh_us),
                "us",
                self.fresh_us.len(),
            ),
            Metric::new("save_s", med(&self.save_s), "s", self.save_s.len()),
            Metric::new("recover_s", med(&self.recover_s), "s", self.recover_s.len()),
            Metric::new("disk_bytes", self.disk_bytes as f64, "bytes", 1),
        ]
    }

    /// Figures reported in the stamp and by the traced run but not gated:
    /// the update rate, a mean and so as tail-bound as the tails, and the
    /// tail of each latency, each the highest percentile with at least ten
    /// samples beyond it at the run's minimum op counts.
    pub fn ungated(&self) -> Vec<Metric> {
        let p99 = |v: &[f64]| percentile(v, 0.99);
        vec![
            Metric::new(
                "update_per_s",
                percentile(&self.round_rates, 0.5),
                "1/s",
                self.round_rates.len(),
            ),
            Metric::new(
                "enum_delay_p999_us",
                percentile(&self.enum_p999_us, 0.5),
                "us",
                self.enum_answers as usize,
            ),
            Metric::new("seek_p99_us", p99(&self.seek_us), "us", self.seek_us.len()),
            Metric::new(
                "query_p99_us",
                p99(&self.query_us),
                "us",
                self.query_us.len(),
            ),
            Metric::new(
                "update_batch_p99_us",
                p99(&self.batch_us),
                "us",
                self.batch_us.len(),
            ),
            Metric::new(
                "fresh_read_p99_us",
                p99(&self.fresh_us),
                "us",
                self.fresh_us.len(),
            ),
        ]
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// Nearest-rank percentile; NaN when there are no samples.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
