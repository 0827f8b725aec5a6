//! Spans recorded by the benchmark around each statement and around each
//! layer call it replays. Spans stay in memory and are written out when
//! the run ends; with tracing off every call is a no-op.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    stmt: u64,
}

/// The span recorder. Statement ids group the spans of one statement.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Counts and derived values per statement: `(stmt, name, value)`.
    values: Vec<(u64, &'static str, f64)>,
    stmt: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            values: Vec::new(),
            stmt: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Start a new statement id; spans and values recorded from here on
    /// belong to it.
    pub fn next_statement(&mut self) {
        self.stmt += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span (nested under the innermost open span).
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            stmt: self.stmt,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span; returns its length in milliseconds.
    pub fn end(&mut self) -> f64 {
        if !self.on {
            return 0.0;
        }
        let now = self.now_ns();
        let Some(i) = self.open.pop() else {
            return 0.0;
        };
        let span = &mut self.spans[i];
        span.end_ns = now;
        (span.end_ns - span.start_ns) as f64 / 1e6
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Record a count or derived value for the current statement.
    pub fn value(&mut self, name: &'static str, v: f64) {
        if self.on {
            self.values.push((self.stmt, name, v));
        }
    }

    /// Total span time per statement for spans named `name`, in ms.
    fn per_statement_ms(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.stmt).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        out
    }

    /// Span time of the current statement's spans named `name`, in ms.
    pub fn current_ms(&self, name: &str) -> f64 {
        // The current statement's spans are the newest ones.
        self.spans
            .iter()
            .rev()
            .take_while(|s| s.stmt == self.stmt)
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Median over statements of the per-statement total of span `name`
    /// (ms), or 0 when no statement recorded it.
    pub fn median_ms(&self, name: &str) -> f64 {
        median(self.per_statement_ms(name).into_values().collect()).unwrap_or(0.0)
    }

    /// Median over statements of the per-statement total of value `name`.
    pub fn median_value(&self, name: &str) -> f64 {
        let mut per: BTreeMap<u64, f64> = BTreeMap::new();
        for (stmt, n, v) in &self.values {
            if *n == name {
                *per.entry(*stmt).or_insert(0.0) += v;
            }
        }
        median(per.into_values().collect()).unwrap_or(0.0)
    }

    /// Sum of value `name` over the run.
    pub fn total_value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .filter(|(_, n, _)| *n == name)
            .map(|(_, _, v)| v)
            .sum()
    }

    /// Spans and values as JSON lines.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"stmt\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.stmt
            );
        }
        for (stmt, name, v) in &self.values {
            let _ = writeln!(out, "{{\"value\":\"{name}\",\"v\":{v},\"stmt\":{stmt}}}");
        }
        out
    }
}

/// Median of `v`, or `None` when empty.
pub fn median(mut v: Vec<f64>) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}
