//! `cold_sql`: open a persisted relation and ask one question.
//!
//! Every statement runs in a fresh `Catalog` that opens a `.tapg` file of
//! 250k arrival-ordered tuples through `CREATE TABLE … PERSIST TO`; the
//! file holds no persisted aggregate series, so every read is cold. The
//! timed latency covers the open, the statement and the close. The persisted INSERT
//! and the DELETE that removes the same row each run in their own session
//! and write the file through, so it returns to its first contents.

use crate::check::{self, digest_join, digest_rows, rows_of};
use crate::layers::{self, SelectList};
use crate::oracle::{self, Agg, Model, PairDigest, RowDigest};
use crate::run::{self, Kind, Params, Session};
use crate::Args;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use tempagg_agg::{AggKind, Max};
use tempagg_algo::{JoinPredicate, KOrderedAggregationTree, SweepJoinOperator, TemporalAggregator};
use tempagg_core::pager::PagedReader;
use tempagg_core::{Interval, TemporalRelation, Value};
use tempagg_plan::{plan_join, AlgorithmChoice, CostModel, PlannerConfig};
use tempagg_sql::{execute_statement, Catalog, StatementOutput};
use tempagg_store::TemporalStore;
use tempagg_workload::{generate, salary_stream, workload_schema, TupleOrder, WorkloadConfig};

/// A quarter of the paper-scale 1M: a round then takes a few seconds, so
/// a run holds several rounds and its medians are steady.
const TUPLES: usize = 250_000;
const LONG_LIVED_PCT: u8 = 10;
const LIFESPAN: i64 = 1_000_000;
/// Arrival lags start time by at most this many instants.
const MAX_DELAY: i64 = 1_000;
const FILTER_MIN: i64 = 60_000;
const SPAN: i64 = 10_000;
/// The join's small side: this many short intervals spread over the
/// lifespan, each meeting about a tenth of a percent of the large side
/// (about 0.2M result rows).
const JOIN_TUPLES: i64 = 20;
const JOIN_LENGTH: i64 = 100;
const SETUP_REPS: usize = 3;
/// Length of the inserted-then-deleted row.
const PROBE_LENGTH: i64 = 100;
/// Width range of the cold `OVER` window.
const WINDOW_MIN: i64 = 10_000;
const WINDOW_MAX: i64 = 100_000;

const AGG: &SelectList = &[
    (AggKind::CountStar, None),
    (AggKind::Sum, Some(1)),
    (AggKind::Avg, Some(1)),
];
const MIN_MAX: &SelectList = &[(AggKind::Min, Some(1)), (AggKind::Max, Some(1))];
const SUM: &SelectList = &[(AggKind::Sum, Some(1))];
const COUNT_SUM: &SelectList = &[(AggKind::CountStar, None), (AggKind::Sum, Some(1))];

/// What a statement's output is checked against once the run is over.
enum Recorded {
    Rows(RowDigest),
    Pairs(PairDigest),
}

struct Cold {
    path: PathBuf,
    replay: PathBuf,
    model: Model,
    file_digest: RowDigest,
    small: TemporalRelation,
    small_model: Model,
    statements: Vec<(Kind, String)>,
    /// The inserted (and deleted again) row: salary, valid start and end.
    probe_row: (i64, i64, i64),
    /// The cold `OVER` window.
    window: (i64, i64),
    recorded: Vec<(Kind, Recorded)>,
}

pub fn run(args: &Args, data: &Path, session: &mut Session) -> Result<run::Metrics, String> {
    let pid = std::process::id();
    let path = data.join(format!("cold_sql-{pid}.tapg"));
    let replay = data.join(format!("cold_sql-{pid}-replay.tapg"));
    let result = run_with(args, session, path.clone(), replay.clone());
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&replay);
    result
}

fn run_with(
    args: &Args,
    session: &mut Session,
    path: PathBuf,
    replay: PathBuf,
) -> Result<run::Metrics, String> {
    let seed = args.seed;
    let (store, setup_s) = run::set_up(session, SETUP_REPS, |s| {
        let mut config = WorkloadConfig::random(TUPLES)
            .with_long_lived_pct(LONG_LIVED_PCT)
            .with_seed(seed);
        config.order = TupleOrder::RetroactivelyBounded {
            max_delay: MAX_DELAY,
        };
        let relation = s.tracer.time("setup.generate", || generate(&config));
        s.tracer.time("setup.warm", || {
            let mut store = TemporalStore::new(relation);
            store.persist_to(&path).map_err(|e| e.to_string())?;
            Ok(store)
        })
    })?;
    let model = check::model_of(store.relation());
    let file_digest = check::relation_digest(store.relation());
    drop(store);

    let mut params = Params::new(1);
    let (small, small_model) = small_relation(&mut params);
    let salary = 100_001;
    let start = params.position(0, LIFESPAN - PROBE_LENGTH);
    let probe_row = (salary, start, start + PROBE_LENGTH - 1);
    let window = params.window(LIFESPAN, WINDOW_MIN, WINDOW_MAX);
    let statements = vec![
        (
            Kind::Agg,
            "SELECT COUNT(*), SUM(salary), AVG(salary) FROM r".to_owned(),
        ),
        (
            Kind::Filter,
            format!("SELECT MIN(salary), MAX(salary) FROM r WHERE salary >= {FILTER_MIN}"),
        ),
        (
            Kind::Group,
            "SELECT COUNT(*), SUM(salary) FROM r GROUP BY name".to_owned(),
        ),
        (
            Kind::Span,
            format!("SELECT COUNT(*), SUM(salary) FROM r GROUP BY SPAN {SPAN}"),
        ),
        (
            Kind::Explain,
            "EXPLAIN SELECT COUNT(*), SUM(salary), AVG(salary) FROM r".to_owned(),
        ),
        (Kind::Join, "SELECT * FROM r JOIN s ON OVERLAPS".to_owned()),
        (
            Kind::Window,
            format!(
                "SELECT SUM(salary) OVER [{}, {}] FROM r",
                window.0, window.1
            ),
        ),
        (
            Kind::Insert,
            format!(
                "INSERT INTO r VALUES ('Bench', {salary}) VALID [{}, {}]",
                probe_row.1, probe_row.2
            ),
        ),
        (
            Kind::Delete,
            format!("DELETE FROM r WHERE salary = {salary}"),
        ),
    ];
    let mut cold = Cold {
        path,
        replay,
        model,
        file_digest,
        small,
        small_model,
        statements,
        probe_row,
        window,
        recorded: Vec::new(),
    };

    let metrics = run::measure(&mut cold, session, args, setup_s, true)?;
    verify(&mut cold, session);
    Ok(metrics)
}

/// The join's small side: short intervals spread evenly over the
/// lifespan, each nudged within its stretch.
fn small_relation(params: &mut Params) -> (TemporalRelation, Model) {
    let mut rel = TemporalRelation::new(workload_schema(false));
    let step = LIFESPAN / JOIN_TUPLES;
    for i in 0..JOIN_TUPLES {
        let start = i * step + params.position(0, step - JOIN_LENGTH);
        let valid = Interval::at(start, start + JOIN_LENGTH - 1);
        let _ = rel.push(vec![Value::from(format!("s{i}")), Value::Int(i)], valid);
    }
    let model = check::model_of(&rel);
    (rel, model)
}

impl run::Workload for Cold {
    /// Every round issues the same statements.
    fn round(&mut self, session: &mut Session, _index: usize) {
        round(self, session);
    }
}

fn round(cold: &mut Cold, session: &mut Session) {
    let create = format!(
        "CREATE TABLE r (name STRING, salary INT) PERSIST TO '{}'",
        cold.path.display()
    );
    for i in 0..cold.statements.len() {
        let (kind, sql) = cold.statements[i].clone();
        session.tracer.next_statement();
        if session.tracer.on() {
            if let Err(e) = replay(cold, session, kind, &create, &sql) {
                eprintln!("sqlbench: replay of {sql} failed: {e}");
            }
        }
        let mut catalog = Catalog::new();
        if kind == Kind::Join {
            catalog.register("s", cold.small.clone());
        }
        let out = session.statement(kind, &sql, || {
            execute_statement(&mut catalog, &create)?;
            execute_statement(&mut catalog, &sql)
        });
        if let Some(out) = &out {
            record(cold, session, kind, &sql, out);
        }
        session.release((out, catalog));
        session.attribute();
    }
}

/// Check what can be checked at once; keep a digest of the rest.
fn record(cold: &mut Cold, session: &mut Session, kind: Kind, sql: &str, out: &StatementOutput) {
    match kind {
        Kind::Explain => session.check(sql, check::check_explain(out)),
        Kind::Insert | Kind::Delete => session.check(sql, check::check_one_written(out)),
        Kind::Window => {
            let outcome = rows_of(out).and_then(|q| {
                check::check_window(q, &cold.model, &[Agg::Sum], cold.window.0, cold.window.1)
            });
            session.check(sql, outcome);
        }
        Kind::Join => match digest_join(out) {
            Ok(d) => cold.recorded.push((kind, Recorded::Pairs(d))),
            Err(e) => session.check(sql, Err(e)),
        },
        _ => match rows_of(out) {
            Ok(q) => cold
                .recorded
                .push((kind, Recorded::Rows(digest_rows(&q.rows)))),
            Err(e) => session.check(sql, Err(e)),
        },
    }
}

/// Traced runs: call each layer's public functions on the statement's
/// inputs, before the statement runs, each inside its own span. Writes
/// go to a separate replay file so the statement's file is untouched.
fn replay(
    cold: &Cold,
    session: &mut Session,
    kind: Kind,
    create: &str,
    sql: &str,
) -> Result<(), String> {
    layers::parse(session, &[create, sql]);
    let pages = PagedReader::open(&cold.path)
        .map_err(|e| e.to_string())?
        .page_count();
    let mut store = session
        .tracer
        .time("pager.open", || TemporalStore::open(&cold.path))
        .map_err(|e| e.to_string())?;
    session.tracer.value("pager.pages_read", pages as f64);
    match kind {
        Kind::Agg => layers::cold_aggregate(session, &store, AGG)?,
        Kind::Filter => {
            let mut filtered = TemporalRelation::new(store.schema().clone());
            for t in store.relation() {
                if t.value(1).as_i64().is_some_and(|v| v >= FILTER_MIN) {
                    let _ = filtered.push(t.values().to_vec(), t.valid());
                }
            }
            let stats = layers::stats(session, &filtered);
            let plan = layers::choose(session, MIN_MAX, &stats)?;
            layers::execute_plan(session, &plan, MIN_MAX, &filtered)?;
            if let AlgorithmChoice::KOrderedTree { k, .. } = plan.choice {
                let pairs = salary_stream(&filtered);
                session.tracer.time("algo.ktree", || {
                    if let Ok(mut tree) = KOrderedAggregationTree::new(Max::<i64>::new(), k) {
                        for (iv, v) in pairs {
                            let _ = tree.push(iv, v);
                        }
                        black_box(tree.finish().len());
                    }
                });
            }
        }
        Kind::Group => {
            let mut groups: BTreeMap<Value, TemporalRelation> = BTreeMap::new();
            for t in store.relation() {
                let _ = groups
                    .entry(t.value(0).clone())
                    .or_insert_with(|| TemporalRelation::new(store.schema().clone()))
                    .push(t.values().to_vec(), t.valid());
            }
            let largest = groups.values().max_by_key(|r| r.len()).ok_or("no groups")?;
            let stats = layers::stats(session, largest);
            let plan = layers::choose(session, COUNT_SUM, &stats)?;
            for rel in groups.values() {
                layers::execute_plan(session, &plan, COUNT_SUM, rel)?;
            }
        }
        Kind::Explain => {
            let stats = layers::stats(session, store.relation());
            layers::choose(session, AGG, &stats)?;
        }
        Kind::Window => {
            let sum = layers::dyn_aggs(SUM)?;
            session.tracer.time("store.cache_build", || {
                for (agg, col) in &sum {
                    store.ensure_cache(*agg, *col);
                }
            });
            layers::window(
                session,
                &store,
                SUM,
                Interval::at(cold.window.0, cold.window.1),
            )?;
        }
        Kind::Join => {
            let left = layers::stats(session, store.relation());
            let right = layers::stats(session, &cold.small);
            let plan = session.tracer.time("plan.choose", || {
                plan_join(
                    &left,
                    &right,
                    &PlannerConfig::default(),
                    &CostModel::default(),
                )
            });
            let pairs = session.tracer.time("algo.join", || {
                let mut op = SweepJoinOperator::new(JoinPredicate::Overlaps)
                    .with_parallelism(plan.parallelism.max(1));
                for t in store.relation() {
                    let _ = op.push_left(t.valid());
                }
                for t in &cold.small {
                    let _ = op.push_right(t.valid());
                }
                op.finish().len()
            });
            session.tracer.value("plan.result_rows", pairs as f64);
        }
        Kind::Insert | Kind::Delete => {
            store.persist_to(&cold.replay).map_err(|e| e.to_string())?;
            let (salary, start, end) = cold.probe_row;
            if kind == Kind::Insert {
                session
                    .tracer
                    .time("store.insert", || {
                        store.insert(
                            vec![Value::from("Bench"), Value::Int(salary)],
                            Interval::at(start, end),
                        )
                    })
                    .map_err(|e| e.to_string())?;
            } else {
                session
                    .tracer
                    .time("store.delete", || {
                        store.delete_where(|t| t.value(1) == &Value::Int(salary))
                    })
                    .map_err(|e| e.to_string())?;
            }
            let written = session
                .tracer
                .time("pager.flush", || store.flush())
                .map_err(|e| e.to_string())?;
            let bytes = written.map_or(0, |w| w.file_bytes);
            session.tracer.value("pager.bytes_written", bytes as f64);
        }
        _ => {}
    }
    Ok(())
}

/// Checks made once the timed phase is over: every recorded output
/// against the oracle's answer for its statement, and the file against
/// its first contents.
fn verify(cold: &mut Cold, session: &mut Session) {
    let m = &cold.model;
    let all = || m.tuples.iter().map(|t| (t.start, t.end, t.salary));
    let mut expected: Vec<(Kind, Recorded)> = Vec::new();
    let kinds: Vec<Kind> = cold.recorded.iter().map(|(k, _)| *k).collect();
    let wanted = |k: Kind| kinds.contains(&k);
    if wanted(Kind::Agg) {
        let d = check::expected_instant(all(), &[Agg::CountStar, Agg::Sum, Agg::Avg]);
        expected.push((Kind::Agg, Recorded::Rows(d)));
    }
    if wanted(Kind::Filter) {
        let filtered = all().filter(|t| t.2 >= FILTER_MIN);
        expected.push((
            Kind::Filter,
            Recorded::Rows(check::expected_instant(filtered, &[Agg::Min, Agg::Max])),
        ));
    }
    if wanted(Kind::Group) {
        expected.push((
            Kind::Group,
            Recorded::Rows(check::expected_grouped(m, &[Agg::CountStar, Agg::Sum])),
        ));
    }
    if wanted(Kind::Span) {
        expected.push((
            Kind::Span,
            Recorded::Rows(check::expected_spans(m, &[Agg::CountStar, Agg::Sum], SPAN)),
        ));
    }
    if wanted(Kind::Join) {
        let d = oracle::join_digest(m, &cold.small_model);
        let left: Vec<(i64, i64)> = m.tuples.iter().map(|t| (t.start, t.end)).collect();
        let right: Vec<(i64, i64)> = cold
            .small_model
            .tuples
            .iter()
            .map(|t| (t.start, t.end))
            .collect();
        let count = oracle::join_pair_count(&left, &right);
        if count != d.rows {
            session.check(
                "join oracle",
                Err(format!("pair count {count} != enumerated {}", d.rows)),
            );
        }
        expected.push((Kind::Join, Recorded::Pairs(d)));
    }
    for (kind, got) in &cold.recorded {
        let sql = cold
            .statements
            .iter()
            .find(|(k, _)| k == kind)
            .map_or("", |(_, s)| s.as_str());
        let Some((_, want)) = expected.iter().find(|(k, _)| k == kind) else {
            continue;
        };
        let outcome = match (got, want) {
            (Recorded::Rows(g), Recorded::Rows(w)) if g == w => Ok(()),
            (Recorded::Pairs(g), Recorded::Pairs(w)) if g == w => Ok(()),
            (Recorded::Rows(g), Recorded::Rows(w)) => Err(format!(
                "{} rows (digest {:016x}), oracle {} rows (digest {:016x})",
                g.rows, g.hash, w.rows, w.hash
            )),
            (Recorded::Pairs(g), Recorded::Pairs(w)) => Err(format!(
                "{} pairs (digest {:016x}), oracle {} pairs (digest {:016x})",
                g.rows, g.hash, w.rows, w.hash
            )),
            _ => Err("output of the wrong form".to_owned()),
        };
        session.check(sql, outcome);
    }
    let reopened = TemporalStore::open(&cold.path).map(|s| check::relation_digest(s.relation()));
    session.check(
        "file contents after INSERT and DELETE",
        match reopened {
            Ok(d) if d == cold.file_digest => Ok(()),
            Ok(d) => Err(format!(
                "{} tuples, expected {}",
                d.rows, cold.file_digest.rows
            )),
            Err(e) => Err(e.to_string()),
        },
    );
}
