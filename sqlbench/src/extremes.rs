//! `extremes`: the paper's full select list — `COUNT, SUM, AVG, MIN,
//! MAX` — through the store, on a small random-order relation of 50k
//! short-lived tuples.
//!
//! Each round registers a fresh store and runs an `EXPLAIN` and the cold
//! cache-eligible five-aggregate query (which builds the ordered-multiset
//! `MIN`/`MAX` caches), `MIN, MAX OVER [a, b]` probes (the window index's
//! extremes mode), a `TOP 3 BY SUM(salary) OVER …` ranking, three writes
//! each followed by a warm five-aggregate read, and the ranking again.
//! `TOP k BY MAX` is left out: the grouped index breaks ties between an
//! exact value and an equal bound in favour of the higher group, so it
//! disagrees with the lower-group-first rule on some seeds.
//! The relation is small because building the `MIN`/`MAX` caches copies
//! the whole live multiset into every run: time and memory grow with
//! runs × live tuples. Every output is compared in full with the oracle
//! over a model of the relation updated on every write.

use crate::check::{self, rows_of};
use crate::layers::{self, SelectList, StoreCounters};
use crate::oracle::{Agg, Model, OTuple};
use crate::run::{self, Kind, Params, Session};
use crate::Args;
use tempagg_agg::AggKind;
use tempagg_core::{Interval, TemporalRelation, Value};
use tempagg_sql::{execute_statement, Catalog, StatementOutput};
use tempagg_store::TemporalStore;
use tempagg_workload::{generate, WorkloadConfig};

const TUPLES: usize = 50_000;
const LIFESPAN: i64 = 1_000_000;
const SETUP_REPS: usize = 15;
/// Length of the row the session inserts, updates and deletes.
const ROW_LENGTH: i64 = 500;
const TOP_K: usize = 3;
const WINDOWS: usize = 3;
/// Session rows carry salaries above the generator's 100k ceiling, so a
/// `WHERE salary = …` predicate touches only them.
const SESSION_SALARY: i64 = 100_001;

const FIVE: &SelectList = &[
    (AggKind::CountStar, None),
    (AggKind::Sum, Some(1)),
    (AggKind::Avg, Some(1)),
    (AggKind::Min, Some(1)),
    (AggKind::Max, Some(1)),
];
const FIVE_AGGS: &[Agg] = &[Agg::CountStar, Agg::Sum, Agg::Avg, Agg::Min, Agg::Max];
const FIVE_SQL: &str = "COUNT(*), SUM(salary), AVG(salary), MIN(salary), MAX(salary)";
const MIN_MAX: &SelectList = &[(AggKind::Min, Some(1)), (AggKind::Max, Some(1))];

#[derive(Clone, Debug)]
enum Op {
    Explain,
    Cold,
    Window {
        a: i64,
        b: i64,
    },
    TopK {
        a: i64,
        b: i64,
    },
    Insert {
        name: String,
        salary: i64,
        valid: Interval,
    },
    Update {
        from: i64,
        to: i64,
    },
    Delete {
        salary: i64,
    },
    Warm,
}

impl Op {
    fn kind(&self) -> Kind {
        match self {
            Op::Explain => Kind::Explain,
            Op::Cold => Kind::Agg,
            Op::Window { .. } => Kind::Window,
            Op::TopK { .. } => Kind::TopK,
            Op::Insert { .. } => Kind::Insert,
            Op::Update { .. } => Kind::Update,
            Op::Delete { .. } => Kind::Delete,
            Op::Warm => Kind::ReadAll,
        }
    }

    fn sql(&self) -> String {
        match self {
            Op::Explain => format!("EXPLAIN SELECT {FIVE_SQL} FROM r"),
            Op::Cold | Op::Warm => format!("SELECT {FIVE_SQL} FROM r"),
            Op::Window { a, b } => {
                format!("SELECT MIN(salary), MAX(salary) OVER [{a}, {b}] FROM r")
            }
            Op::TopK { a, b } => {
                format!("SELECT TOP {TOP_K} BY SUM(salary) OVER [{a}, {b}] FROM r GROUP BY name")
            }
            Op::Insert {
                name,
                salary,
                valid,
            } => format!(
                "INSERT INTO r VALUES ('{name}', {salary}) VALID [{}, {}]",
                valid.start().get(),
                valid.end().get()
            ),
            Op::Update { from, to } => format!("UPDATE r SET salary = {to} WHERE salary = {from}"),
            Op::Delete { salary } => format!("DELETE FROM r WHERE salary = {salary}"),
        }
    }
}

pub fn run(args: &Args, session: &mut Session) -> Result<run::Metrics, String> {
    let seed = args.seed;
    let (base, setup_s) = run::set_up(session, SETUP_REPS, |s| {
        let config = WorkloadConfig::random(TUPLES).with_seed(seed);
        Ok(s.tracer.time("setup.generate", || generate(&config)))
    })?;
    let base_model = check::model_of(&base);
    run::measure(
        &mut Extremes { base, base_model },
        session,
        args,
        setup_s,
        true,
    )
}

/// The relation every round starts a fresh store from.
struct Extremes {
    base: TemporalRelation,
    base_model: Model,
}

impl run::Workload for Extremes {
    fn round(&mut self, session: &mut Session, index: usize) {
        round(&self.base, &self.base_model, index, session);
    }
}

fn plan_round(model: &Model, round: usize) -> Vec<Op> {
    let params = &mut Params::for_round(3, round);
    let salary = SESSION_SALARY + 2 * round as i64;
    let name = model.names[round % model.names.len()].clone();
    let start = params.position(0, LIFESPAN - ROW_LENGTH);
    let valid = Interval::at(start, start + ROW_LENGTH - 1);
    let mut ops = vec![Op::Explain, Op::Cold];
    for _ in 0..WINDOWS {
        let (a, b) = params.window(LIFESPAN, 1_000, 100_000);
        ops.push(Op::Window { a, b });
    }
    let (a, b) = params.window(LIFESPAN, 50_000, 500_000);
    ops.push(Op::TopK { a, b });
    for write in [
        Op::Insert {
            name,
            salary,
            valid,
        },
        Op::Update {
            from: salary,
            to: salary + 1,
        },
        Op::Delete { salary: salary + 1 },
    ] {
        ops.push(write);
        ops.push(Op::Warm);
    }
    let (a, b) = params.window(LIFESPAN, 50_000, 500_000);
    ops.push(Op::TopK { a, b });
    ops
}

fn round(base: &TemporalRelation, base_model: &Model, index: usize, session: &mut Session) {
    let mut catalog = Catalog::new();
    catalog.register_store("r", TemporalStore::new(base.clone()));
    let mut shadow = session
        .tracer
        .on()
        .then(|| TemporalStore::new(base.clone()));
    let mut model = base_model.clone();
    for op in plan_round(&model, index) {
        let sql = op.sql();
        let kind = op.kind();
        session.tracer.next_statement();
        let before = catalog.store("r").ok().map(StoreCounters::read);
        let out = session.statement(kind, &sql, || execute_statement(&mut catalog, &sql));
        if let (Some(shadow), Some(before), Ok(store)) = (&mut shadow, before, catalog.store("r")) {
            before.record_since(session, store, kind.is_write());
            if let Err(e) = replay(shadow, session, &op, &sql) {
                eprintln!("sqlbench: replay of {sql} failed: {e}");
            }
        }
        apply(&mut model, &op);
        if let Some(out) = &out {
            session.check(&sql, check_output(&model, &op, out));
        }
        session.release(out);
        session.attribute();
    }
}

fn apply(model: &mut Model, op: &Op) {
    match op {
        Op::Insert {
            name,
            salary,
            valid,
        } => {
            let name = model.name_id(name);
            model.tuples.push(OTuple {
                start: valid.start().get(),
                end: valid.end().get(),
                salary: *salary,
                name,
            });
        }
        Op::Update { from, to } => {
            for t in model.tuples.iter_mut().filter(|t| t.salary == *from) {
                t.salary = *to;
            }
        }
        Op::Delete { salary } => model.tuples.retain(|t| t.salary != *salary),
        _ => {}
    }
}

fn check_output(model: &Model, op: &Op, out: &StatementOutput) -> Result<(), String> {
    match op {
        Op::Explain => check::check_explain(out),
        Op::Cold | Op::Warm => check::compare_instant(rows_of(out)?, model, FIVE_AGGS),
        Op::Window { a, b } => {
            check::check_window(rows_of(out)?, model, &[Agg::Min, Agg::Max], *a, *b)
        }
        Op::TopK { a, b } => check::check_top_k(rows_of(out)?, model, Agg::Sum, *a, *b, TOP_K),
        Op::Insert { .. } | Op::Update { .. } | Op::Delete { .. } => check::check_one_written(out),
    }
}

/// Traced runs: the same operation through the store's own API on a
/// shadow store that has seen every earlier operation of the round.
fn replay(
    shadow: &mut TemporalStore,
    session: &mut Session,
    op: &Op,
    sql: &str,
) -> Result<(), String> {
    layers::parse(session, &[sql]);
    let err = |e: tempagg_core::TempAggError| e.to_string();
    match op {
        Op::Explain => {
            let stats = layers::stats(session, shadow.relation());
            layers::choose(session, FIVE, &stats)?;
        }
        Op::Cold => layers::cold_aggregate(session, shadow, FIVE)?,
        Op::Window { a, b } => layers::window(session, shadow, MIN_MAX, Interval::at(*a, *b))?,
        Op::TopK { a, b } => layers::top_k(session, shadow, FIVE[1], Interval::at(*a, *b), TOP_K)?,
        Op::Insert {
            name,
            salary,
            valid,
        } => {
            let values = vec![Value::from(name.as_str()), Value::Int(*salary)];
            session
                .tracer
                .time("store.insert", || shadow.insert(values, *valid))
                .map_err(err)?;
        }
        Op::Update { from, to } => {
            let assignments = [(1, Value::Int(*to))];
            session
                .tracer
                .time("store.update", || {
                    shadow.update_where(|t| t.value(1) == &Value::Int(*from), &assignments)
                })
                .map_err(err)?;
        }
        Op::Delete { salary } => {
            session
                .tracer
                .time("store.delete", || {
                    shadow.delete_where(|t| t.value(1) == &Value::Int(*salary))
                })
                .map_err(err)?;
        }
        Op::Warm => layers::snapshots(session, shadow, FIVE),
    }
    Ok(())
}
