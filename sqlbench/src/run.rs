//! What every workload shares: statement timing and failure counting,
//! the end-to-end and per-layer metrics, and the result line.

use crate::trace::{median, Tracer};
use std::fmt::Write as _;
use std::time::Instant;

/// The statement shapes the workloads issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Whole-relation aggregate on the scan path (cold).
    Agg,
    /// Aggregate with a WHERE filter.
    Filter,
    /// `GROUP BY name`.
    Group,
    /// `GROUP BY SPAN n`.
    Span,
    Explain,
    Join,
    /// Whole-relation aggregate served from warm caches.
    ReadAll,
    /// `… OVER [a, b]`.
    Window,
    /// `TOP k BY … OVER [a, b] … GROUP BY name`.
    TopK,
    Insert,
    Delete,
    Update,
}

impl Kind {
    pub fn is_write(self) -> bool {
        matches!(self, Kind::Insert | Kind::Delete | Kind::Update)
    }

    /// The span (and `shape.*` metric) name of this statement shape.
    pub fn span(self) -> &'static str {
        match self {
            Kind::Agg => "shape.agg",
            Kind::Filter => "shape.filter",
            Kind::Group => "shape.group",
            Kind::Span => "shape.span",
            Kind::Explain => "shape.explain",
            Kind::Join => "shape.join",
            Kind::ReadAll => "shape.read_all",
            Kind::Window => "shape.window",
            Kind::TopK => "shape.topk",
            Kind::Insert => "shape.insert",
            Kind::Delete => "shape.delete",
            Kind::Update => "shape.update",
        }
    }
}

/// Spans that lie on the SQL path of a statement: their sum is
/// subtracted from the statement's time to give `sql.unattributed_ms`.
/// Kernel floors (`algo.sweep`, `algo.ktree`) are extra work the traced
/// run does for comparison and are not on the path.
const ON_PATH: &[&str] = &[
    "sql.parse",
    "pager.open",
    "pager.flush",
    "plan.stats",
    "plan.choose",
    "plan.execute",
    "algo.join",
    "store.cache_build",
    "store.snapshot",
    "store.insert",
    "store.delete",
    "store.update",
    "store.window_probe",
    "store.topk",
];

/// One benchmark run: statement latencies, failures and the tracer.
#[derive(Debug)]
pub struct Session {
    pub tracer: Tracer,
    /// `(shape, latency ms)` of every statement that completed.
    pub latencies: Vec<(Kind, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Statements whose output disagreed with the oracle.
    pub mismatches: Vec<String>,
    /// Statements per second of statement time, one entry per round.
    round_rates: Vec<f64>,
    /// Statements and statement time before the current round.
    round_mark: (usize, f64),
    /// Latency of the last statement, for the traced run's attribution.
    last_ms: f64,
    /// Whether the last statement completed (its latency is the last one).
    last_ok: bool,
    /// Index into `latencies` where the traced phase begins.
    traced_from: usize,
}

impl Session {
    pub fn new(trace: bool) -> Session {
        Session {
            tracer: Tracer::new(trace),
            latencies: Vec::new(),
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            round_rates: Vec::new(),
            round_mark: (0, 0.0),
            last_ms: 0.0,
            last_ok: false,
            traced_from: 0,
        }
    }

    /// Run one statement under the clock (and a statement span). An
    /// error counts as a failed statement and yields `None`.
    pub fn statement<T, E: std::fmt::Display>(
        &mut self,
        kind: Kind,
        sql: &str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        self.tracer.begin(kind.span());
        let started = Instant::now();
        let out = f();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.tracer.end();
        self.last_ms = ms;
        self.last_ok = out.is_ok();
        match out {
            Ok(v) => {
                self.latencies.push((kind, ms));
                Some(v)
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("sqlbench: statement failed: {sql}: {e}");
                None
            }
        }
    }

    /// Drop what the last statement produced (its output, a per-statement
    /// catalog) on the clock: releasing a result is part of its cost, and
    /// timing it here keeps that cost from landing on the next statement.
    pub fn release<T>(&mut self, value: T) {
        let started = Instant::now();
        drop(value);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.last_ms += ms;
        if self.last_ok {
            if let Some(last) = self.latencies.last_mut() {
                last.1 += ms;
            }
        }
    }

    /// Forget the timings so far (a warm-up round's); attempts and
    /// failures stay counted.
    pub fn discard_timings(&mut self) {
        self.latencies.clear();
        self.round_rates.clear();
        self.round_mark = (0, 0.0);
    }

    /// Turn tracing on for the rest of the run.
    pub fn start_traced_phase(&mut self) {
        self.tracer.set_on(true);
        self.traced_from = self.latencies.len();
    }

    /// Median latency of the traced phase's statements of one shape.
    fn traced_median(&self, kind: Kind) -> f64 {
        let traced = self.latencies.get(self.traced_from..).unwrap_or(&[]);
        median(
            traced
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, ms)| *ms)
                .collect(),
        )
        .unwrap_or(0.0)
    }

    /// Record the outcome of checking a statement's output: a mismatch
    /// counts the statement as failed and makes the run incorrect.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        if let Err(detail) = outcome {
            self.failed += 1;
            eprintln!("sqlbench: wrong result: {what}: {detail}");
            self.mismatches.push(format!("{what}: {detail}"));
        }
    }

    /// Traced runs: record the statement's time not covered by the layer
    /// calls replayed for it.
    pub fn attribute(&mut self) {
        if !self.tracer.on() {
            return;
        }
        let covered: f64 = ON_PATH.iter().map(|n| self.tracer.current_ms(n)).sum();
        self.tracer
            .value("sql.unattributed_ms", self.last_ms - covered);
    }

    /// Close a round of the workload's statement sequence.
    pub fn end_round(&mut self) {
        let (n, t) = (self.latencies.len(), self.timed_s());
        let (n0, t0) = self.round_mark;
        if t > t0 {
            self.round_rates.push((n - n0) as f64 / (t - t0));
        }
        self.round_mark = (n, t);
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Total statement time in seconds (checks and replays excluded).
    pub fn timed_s(&self) -> f64 {
        self.latencies.iter().map(|(_, ms)| ms).sum::<f64>() / 1e3
    }

    fn latencies_where(&self, pred: impl Fn(Kind) -> bool) -> Vec<f64> {
        self.latencies
            .iter()
            .filter(|(k, _)| pred(*k))
            .map(|(_, ms)| *ms)
            .collect()
    }
}

/// Metrics as `(name, value, unit)`.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// A workload's fixed statement sequence, played a round at a time.
pub trait Workload {
    /// Play round `index` (its parameters depend on the index alone, so a
    /// round can be played again). When the session traces, also replay
    /// each statement's layer calls.
    fn round(&mut self, session: &mut Session, index: usize);

    /// Called once before the traced rounds.
    fn start_tracing(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// The phases every workload runs. An optional untimed warm-up round
/// (the process's heap grows to its working size there, which a
/// long-lived process pays once, not per query); then whole rounds until
/// the statements have taken `--seconds` (with a wall-clock stop in case
/// statements fail without taking time). With `--trace 1` the same rounds
/// are played again traced, and the per-layer metrics are returned.
pub fn measure(
    workload: &mut impl Workload,
    session: &mut Session,
    args: &crate::Args,
    setup_s: f64,
    warm_up: bool,
) -> Result<Metrics, String> {
    let trace = session.tracer.on();
    session.tracer.set_on(false);
    if warm_up {
        workload.round(session, 0);
        session.discard_timings();
    }
    let started = Instant::now();
    let mut rounds = 0;
    while rounds == 0
        || (session.timed_s() < args.seconds && started.elapsed().as_secs_f64() < 120.0)
    {
        workload.round(session, rounds);
        session.end_round();
        rounds += 1;
    }
    let untraced_s = session.timed_s();
    let peak = peak_rss_mb();
    if !trace {
        return Ok(end_to_end(session, setup_s, peak));
    }
    workload.start_tracing()?;
    session.start_traced_phase();
    for index in 0..rounds {
        workload.round(session, index);
    }
    let traced_s = session.timed_s() - untraced_s;
    Ok(per_layer(
        session,
        (traced_s - untraced_s) / untraced_s * 100.0,
    ))
}

/// The highest of the usual percentiles that has at least ten samples
/// beyond it, as `(percentile, value)`; `None` below 40 samples.
pub fn tail(mut samples: Vec<f64>) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 40 {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let p = [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)?;
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some((p, samples[rank.clamp(1, n) - 1]))
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// End-to-end metrics of an untraced run.
pub fn end_to_end(s: &Session, setup_s: f64, peak_rss_mb: f64) -> Metrics {
    let reads = s.latencies_where(|k| !k.is_write());
    if let Some((p, v)) = tail(reads.clone()) {
        println!("query_tail_ms: p{p} = {v:.4} ms over {} reads", reads.len());
    } else {
        println!(
            "query_tail_ms: not reported ({} reads, fewer than 40)",
            reads.len()
        );
    }
    vec![
        ("setup_s", setup_s, "s"),
        (
            "statements_per_s",
            median(s.round_rates.clone()).unwrap_or(0.0),
            "1/s",
        ),
        ("query_p50_ms", median(reads).unwrap_or(0.0), "ms"),
        (
            "write_p50_ms",
            median(s.latencies_where(Kind::is_write)).unwrap_or(0.0),
            "ms",
        ),
        (
            "explain_ms",
            median(s.latencies_where(|k| k == Kind::Explain)).unwrap_or(0.0),
            "ms",
        ),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// Per-layer metrics of a traced run. `overhead_pct` compares the traced
/// statements with the same statements run untraced just before.
pub fn per_layer(s: &Session, overhead_pct: f64) -> Metrics {
    let t = &s.tracer;
    let ms = |name: &str| t.median_ms(name);
    let us = |name: &str| t.median_ms(name) * 1e3;
    let hits = t.total_value("store.windex_hits");
    let misses = t.total_value("store.windex_misses");
    let shape = |kind: Kind| s.traced_median(kind);
    let agg_ms = shape(Kind::Agg);
    vec![
        ("shape.agg_ms", agg_ms, "ms"),
        ("shape.filter_ms", shape(Kind::Filter), "ms"),
        ("shape.group_ms", shape(Kind::Group), "ms"),
        ("shape.span_ms", shape(Kind::Span), "ms"),
        ("shape.join_ms", shape(Kind::Join), "ms"),
        ("shape.read_all_ms", shape(Kind::ReadAll), "ms"),
        ("shape.window_ms", shape(Kind::Window), "ms"),
        ("shape.topk_ms", shape(Kind::TopK), "ms"),
        ("shape.insert_ms", shape(Kind::Insert), "ms"),
        ("shape.delete_ms", shape(Kind::Delete), "ms"),
        ("shape.update_ms", shape(Kind::Update), "ms"),
        ("sql.parse_us", us("sql.parse"), "us"),
        (
            "sql.unattributed_ms",
            t.median_value("sql.unattributed_ms"),
            "ms",
        ),
        ("pager.open_ms", ms("pager.open"), "ms"),
        (
            "pager.pages_read",
            t.median_value("pager.pages_read"),
            "count",
        ),
        ("pager.flush_ms", ms("pager.flush"), "ms"),
        (
            "pager.bytes_written",
            t.median_value("pager.bytes_written"),
            "bytes",
        ),
        ("plan.stats_ms", ms("plan.stats"), "ms"),
        ("plan.choose_us", us("plan.choose"), "us"),
        ("plan.execute_ms", ms("plan.execute"), "ms"),
        (
            "plan.result_rows",
            t.median_value("plan.result_rows"),
            "count",
        ),
        ("algo.sweep_ms", ms("algo.sweep"), "ms"),
        (
            "algo.kernel_share",
            if agg_ms > 0.0 {
                ms("algo.sweep") / agg_ms
            } else {
                0.0
            },
            "ratio",
        ),
        ("algo.ktree_ms", ms("algo.ktree"), "ms"),
        ("algo.join_ms", ms("algo.join"), "ms"),
        ("store.cache_build_ms", ms("store.cache_build"), "ms"),
        ("store.snapshot_ms", ms("store.snapshot"), "ms"),
        ("store.insert_us", us("store.insert"), "us"),
        ("store.delete_us", us("store.delete"), "us"),
        ("store.update_us", us("store.update"), "us"),
        (
            "store.patched_runs",
            t.median_value("store.patched_runs"),
            "count",
        ),
        (
            "store.recomputed_windows",
            t.median_value("store.recomputed_windows"),
            "count",
        ),
        ("store.window_probe_us", us("store.window_probe"), "us"),
        ("store.topk_ms", ms("store.topk"), "ms"),
        ("store.windex_hits", hits, "count"),
        ("store.windex_misses", misses, "count"),
        (
            "store.windex_probes",
            t.total_value("store.windex_probes"),
            "count",
        ),
        (
            "store.windex_hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            "ratio",
        ),
        ("setup.generate_ms", ms("setup.generate"), "ms"),
        ("setup.warm_ms", ms("setup.warm"), "ms"),
        ("trace.overhead_pct", overhead_pct, "%"),
    ]
}

/// The result line: one JSON object, last on standard output.
pub fn result_line(s: &Session, metrics: &[(&'static str, f64, &'static str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        s.correct(),
        s.attempted,
        s.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `+ 0.0` turns an empty sum's -0 into 0.
        let value = if value.is_finite() { *value + 0.0 } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Run `set_up` `reps` times, keeping the last result; returns it with
/// the median set-up time in seconds. Earlier results are dropped before
/// the next set-up starts, so only one copy is ever resident.
pub fn set_up<T>(
    session: &mut Session,
    reps: usize,
    mut set_up: impl FnMut(&mut Session) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        session.tracer.next_statement();
        let started = Instant::now();
        kept = Some(set_up(session)?);
        times.push(started.elapsed().as_secs_f64());
    }
    let setup_s = median(times).unwrap_or(0.0);
    Ok((kept.ok_or("no set-up ran")?, setup_s))
}

/// Statement parameters from an additive low-discrepancy sequence: the
/// n-th point is `(frac(n·α), frac(n·β))`. Successive rows and windows
/// cover their ranges evenly, so the positions a run's statements touch,
/// and the costs that depend on them, do not wander from run to run; the
/// seed varies the data alone.
#[derive(Clone, Debug)]
pub struct Params {
    n: u64,
    offset: f64,
}

/// `φ − 1` and `√2 − 1`: irrational steps for the two coordinates.
const ALPHA: f64 = 0.618_033_988_749_894_9;
const BETA: f64 = 0.414_213_562_373_095_1;

fn frac(x: f64) -> f64 {
    x - x.floor()
}

impl Params {
    /// A sequence per `stream`, so different parameter kinds do not
    /// share points.
    pub fn new(stream: u64) -> Params {
        Params {
            n: 0,
            offset: frac(stream as f64 * 0.754_877_666_246_693),
        }
    }

    /// The sequence of round `round` of a workload: successive rounds'
    /// sequences are offset along a third irrational step, so they cover
    /// the ranges evenly too.
    pub fn for_round(stream: u64, round: usize) -> Params {
        Params::new(stream.wrapping_mul(1_000_003).wrapping_add(round as u64))
    }

    fn next_point(&mut self) -> (f64, f64) {
        self.n += 1;
        let n = self.n as f64;
        (frac(self.offset + n * ALPHA), frac(self.offset + n * BETA))
    }

    /// A value in `[lo, hi]`.
    pub fn position(&mut self, lo: i64, hi: i64) -> i64 {
        let (x, _) = self.next_point();
        (lo + (x * (hi - lo + 1) as f64) as i64).min(hi)
    }

    /// A closed window `[a, b]` inside `[0, lifespan)` of width in
    /// `[min_width, max_width]`.
    pub fn window(&mut self, lifespan: i64, min_width: i64, max_width: i64) -> (i64, i64) {
        let (x, y) = self.next_point();
        let width = (min_width + (y * (max_width - min_width + 1) as f64) as i64).min(max_width);
        let a = ((x * (lifespan - width + 1) as f64) as i64).min(lifespan - width);
        (a, a + width - 1)
    }
}
