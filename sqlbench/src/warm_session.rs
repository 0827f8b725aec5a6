//! `warm_session`: one long session over an in-memory store of 250k
//! random-order tuples whose `COUNT`/`SUM` caches, window index and
//! grouped TOP-k index are warmed in set-up.
//!
//! Each round issues three segments, each one write followed by nine
//! reads (90% reads, 10% writes): four whole-relation `COUNT(*),
//! SUM(salary)` served from snapshots, two `… OVER [a, b]` probes, two
//! `TOP 3 BY SUM(salary) OVER …` rankings (the first rebuilds the index
//! the write dropped) and an `EXPLAIN` of the whole-relation read (which
//! plans from a fresh scan of the relation, caches or not). Snapshot
//! reads are the middle of the latency distribution, so `query_p50_ms`
//! sits inside one cluster of reads. The writes insert,
//! update and delete one row the session inserted itself, so every round
//! leaves the relation as it found it. Every output is checked against a
//! plain model of the relation updated on every write: window and TOP-k
//! answers exactly, whole-relation reads by the timeslice property at
//! sampled instants plus tiling and coalescing maximality.

use crate::check::{self, rows_of};
use crate::layers::{self, SelectList, StoreCounters};
use crate::oracle::{Agg, Model, OTuple};
use crate::run::{self, Kind, Params, Session};
use crate::Args;
use tempagg_agg::AggKind;
use tempagg_core::{Interval, Value};
use tempagg_sql::{execute_statement, Catalog, StatementOutput};
use tempagg_store::TemporalStore;
use tempagg_workload::{generate, WorkloadConfig};

/// A quarter of the paper-scale 1M: a round then takes about two
/// seconds, so a run holds several rounds and its medians are steady.
const TUPLES: usize = 250_000;
const LONG_LIVED_PCT: u8 = 10;
const LIFESPAN: i64 = 1_000_000;
const SETUP_REPS: usize = 3;
/// Length of the row the session inserts, updates and deletes.
const ROW_LENGTH: i64 = 1_000;
const TOP_K: usize = 3;
/// Sampled instants per whole-relation read check.
const SAMPLES: usize = 24;
/// Session rows carry salaries above the generator's 100k ceiling, so a
/// `WHERE salary = …` predicate touches only them.
const SESSION_SALARY: i64 = 100_001;

const COUNT_SUM: &SelectList = &[(AggKind::CountStar, None), (AggKind::Sum, Some(1))];
const SUM: &SelectList = &[(AggKind::Sum, Some(1))];

/// One statement of a round, with its parameters.
#[derive(Clone, Debug)]
enum Op {
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
    ReadAll,
    Window {
        list: &'static SelectList,
        a: i64,
        b: i64,
    },
    TopK {
        a: i64,
        b: i64,
    },
    Explain,
}

impl Op {
    fn kind(&self) -> Kind {
        match self {
            Op::Insert { .. } => Kind::Insert,
            Op::Update { .. } => Kind::Update,
            Op::Delete { .. } => Kind::Delete,
            Op::ReadAll => Kind::ReadAll,
            Op::Window { .. } => Kind::Window,
            Op::TopK { .. } => Kind::TopK,
            Op::Explain => Kind::Explain,
        }
    }

    fn sql(&self) -> String {
        match self {
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
            Op::ReadAll => "SELECT COUNT(*), SUM(salary) FROM r".to_owned(),
            Op::Window { list, a, b } if list.len() == 1 => {
                format!("SELECT SUM(salary) OVER [{a}, {b}] FROM r")
            }
            Op::Window { a, b, .. } => {
                format!("SELECT COUNT(*), SUM(salary) OVER [{a}, {b}] FROM r")
            }
            Op::TopK { a, b } => {
                format!("SELECT TOP {TOP_K} BY SUM(salary) OVER [{a}, {b}] FROM r GROUP BY name")
            }
            Op::Explain => "EXPLAIN SELECT COUNT(*), SUM(salary) FROM r".to_owned(),
        }
    }
}

struct Warm {
    catalog: Catalog,
    model: Model,
    /// Sampled instants of the whole-relation read checks.
    samples: Params,
    /// Traced runs: a copy of the store that receives the same operations
    /// through the store's own API, so each replay sees the statement's
    /// input state.
    shadow: Option<TemporalStore>,
}

pub fn run(args: &Args, session: &mut Session) -> Result<run::Metrics, String> {
    let seed = args.seed;
    let (catalog, setup_s) = run::set_up(session, SETUP_REPS, |s| {
        let config = WorkloadConfig::random(TUPLES)
            .with_long_lived_pct(LONG_LIVED_PCT)
            .with_seed(seed);
        let relation = s.tracer.time("setup.generate", || generate(&config));
        s.tracer.time("setup.warm", || {
            let store = TemporalStore::new(relation);
            for (agg, col) in layers::dyn_aggs(COUNT_SUM)? {
                store.ensure_cache(agg, col);
            }
            let mut catalog = Catalog::new();
            catalog.register_store("r", store);
            for sql in [
                "SELECT COUNT(*), SUM(salary) OVER [0, 999] FROM r".to_owned(),
                format!("SELECT TOP {TOP_K} BY SUM(salary) OVER [0, 999] FROM r GROUP BY name"),
            ] {
                execute_statement(&mut catalog, &sql).map_err(|e| e.to_string())?;
            }
            Ok(catalog)
        })
    })?;
    let model = check::model_of(catalog.store("r").map_err(|e| e.to_string())?.relation());
    let mut warm = Warm {
        catalog,
        model,
        samples: Params::new(4),
        shadow: None,
    };

    run::measure(&mut warm, session, args, setup_s, false)
}

impl run::Workload for Warm {
    fn round(&mut self, session: &mut Session, index: usize) {
        round(self, session, index);
    }

    /// Every round leaves the relation as it found it, so a copy taken
    /// now matches the store at the start of every traced round.
    fn start_tracing(&mut self) -> Result<(), String> {
        self.shadow = Some(self.catalog.store("r").map_err(|e| e.to_string())?.clone());
        Ok(())
    }
}

/// The round's statements: a write, then nine reads, three times.
fn plan_round(model: &Model, round: usize) -> Vec<Op> {
    let p = &mut Params::for_round(2, round);
    let salary = SESSION_SALARY + 2 * (round % 1_000_000) as i64;
    let name = model.names[round % model.names.len()].clone();
    let start = p.position(0, LIFESPAN - ROW_LENGTH);
    let valid = Interval::at(start, start + ROW_LENGTH - 1);
    let writes = [
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
    ];
    let mut ops = Vec::with_capacity(30);
    for write in writes {
        ops.push(write);
        for slot in 0..9 {
            ops.push(match slot {
                0 | 2 | 5 | 7 => Op::ReadAll,
                1 => {
                    let (a, b) = p.window(LIFESPAN, 1_000, 50_000);
                    Op::Window { list: SUM, a, b }
                }
                6 => {
                    let (a, b) = p.window(LIFESPAN, 1_000, 50_000);
                    Op::Window {
                        list: COUNT_SUM,
                        a,
                        b,
                    }
                }
                3 | 8 => {
                    let (a, b) = p.window(LIFESPAN, 10_000, 200_000);
                    Op::TopK { a, b }
                }
                _ => Op::Explain,
            });
        }
    }
    ops
}

fn round(warm: &mut Warm, session: &mut Session, index: usize) {
    for op in plan_round(&warm.model, index) {
        let sql = op.sql();
        let kind = op.kind();
        session.tracer.next_statement();
        let before = warm.catalog.store("r").ok().map(StoreCounters::read);
        let catalog = &mut warm.catalog;
        let out = session.statement(kind, &sql, || execute_statement(catalog, &sql));
        if session.tracer.on() {
            if let (Some(before), Ok(store)) = (before, warm.catalog.store("r")) {
                before.record_since(session, store, kind.is_write());
            }
            if let Some(shadow) = &mut warm.shadow {
                if let Err(e) = replay(shadow, session, &op, &sql) {
                    eprintln!("sqlbench: replay of {sql} failed: {e}");
                }
            }
        }
        apply(&mut warm.model, &op);
        if let Some(out) = &out {
            let outcome = check_output(&warm.model, &op, out, &mut warm.samples);
            session.check(&sql, outcome);
        }
        session.release(out);
        session.attribute();
    }
}

/// Keep the model in step with a write.
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

fn check_output(
    model: &Model,
    op: &Op,
    out: &StatementOutput,
    params: &mut Params,
) -> Result<(), String> {
    match op {
        Op::Insert { .. } | Op::Update { .. } | Op::Delete { .. } => check::check_one_written(out),
        Op::Explain => check::check_explain(out),
        Op::ReadAll => {
            let q = rows_of(out)?;
            check::check_tiling(q)?;
            let mut at: Vec<i64> = (0..SAMPLES).map(|_| params.position(0, LIFESPAN)).collect();
            // The session's own row, where the writes land.
            for t in model.tuples.iter().filter(|t| t.salary >= SESSION_SALARY) {
                at.extend([t.start, t.end, t.end + 1]);
            }
            at.sort_unstable();
            at.dedup();
            check::check_timeslices(q, &model.tuples, &at)
        }
        Op::Window { list, a, b } => {
            let aggs: Vec<Agg> = list
                .iter()
                .map(|(k, _)| {
                    if *k == AggKind::CountStar {
                        Agg::CountStar
                    } else {
                        Agg::Sum
                    }
                })
                .collect();
            check::check_window(rows_of(out)?, model, &aggs, *a, *b)
        }
        Op::TopK { a, b } => check::check_top_k(rows_of(out)?, model, Agg::Sum, *a, *b, TOP_K),
    }
}

/// Traced runs: the same operation through the store's own API on the
/// shadow store, each layer call inside a span.
fn replay(
    shadow: &mut TemporalStore,
    session: &mut Session,
    op: &Op,
    sql: &str,
) -> Result<(), String> {
    layers::parse(session, &[sql]);
    let err = |e: tempagg_core::TempAggError| e.to_string();
    match op {
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
        Op::ReadAll => layers::snapshots(session, shadow, COUNT_SUM),
        Op::Window { list, a, b } => layers::window(session, shadow, list, Interval::at(*a, *b))?,
        Op::TopK { a, b } => layers::top_k(session, shadow, SUM[0], Interval::at(*a, *b), TOP_K)?,
        Op::Explain => {
            let stats = layers::stats(session, shadow.relation());
            layers::choose(session, COUNT_SUM, &stats)?;
        }
    }
    Ok(())
}
