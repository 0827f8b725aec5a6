//! Traced runs: the public layer calls a statement's SQL path makes,
//! replayed on the statement's inputs, each inside its own span.

use crate::run::Session;
use std::hint::black_box;
use tempagg_agg::{AggKind, Aggregate, DynAggregate, MultiDyn, Sum, SweepAggregate};
use tempagg_algo::{SweepAggregator, TemporalAggregator};
use tempagg_core::{Interval, TemporalRelation, Tuple, Value, ValueType};
use tempagg_plan::{
    choose_algorithm, choose_window_algorithm, execute, CachedSeriesInfo, CostModel, Plan,
    PlannerConfig, RelationStats,
};
use tempagg_sql::parse_statement;
use tempagg_store::TemporalStore;
use tempagg_workload::salary_stream;

/// A select list: aggregate kind and input column (`None` for `COUNT(*)`).
pub type SelectList = [(AggKind, Option<usize>)];

pub fn dyn_aggs(list: &SelectList) -> Result<Vec<(DynAggregate, Option<usize>)>, String> {
    list.iter()
        .map(|(k, c)| {
            DynAggregate::new(*k, ValueType::Int)
                .map(|a| (a, *c))
                .map_err(|e| e.to_string())
        })
        .collect()
}

fn multi(aggs: &[(DynAggregate, Option<usize>)]) -> MultiDyn {
    MultiDyn::new(aggs.iter().map(|(a, _)| *a).collect())
}

/// The per-tuple extractor the SQL layer builds for a select list.
pub fn extractor(cols: Vec<Option<usize>>) -> impl Fn(&Tuple) -> Vec<Value> {
    move |t: &Tuple| {
        cols.iter()
            .map(|c| match c {
                Some(i) => t.value(*i).clone(),
                None => Value::Bool(true),
            })
            .collect()
    }
}

pub fn parse(session: &mut Session, sql: &[&str]) {
    session.tracer.time("sql.parse", || {
        for s in sql {
            black_box(parse_statement(s).is_ok());
        }
    });
}

pub fn stats(session: &mut Session, rel: &TemporalRelation) -> RelationStats {
    session
        .tracer
        .time("plan.stats", || RelationStats::analyze(rel))
}

/// `choose_algorithm` as the SQL layer calls it for a scan.
pub fn choose(
    session: &mut Session,
    list: &SelectList,
    stats: &RelationStats,
) -> Result<Plan, String> {
    let m = multi(&dyn_aggs(list)?);
    Ok(session.tracer.time("plan.choose", || {
        choose_algorithm(
            stats,
            m.sweep_class(),
            &PlannerConfig::default(),
            &CostModel::default(),
            m.state_model_bytes().max(4),
        )
    }))
}

/// `tempagg_plan::execute` with the select list's product aggregate over
/// the time-line.
pub fn execute_plan(
    session: &mut Session,
    plan: &Plan,
    list: &SelectList,
    rel: &TemporalRelation,
) -> Result<(), String> {
    let aggs = dyn_aggs(list)?;
    let extract = extractor(aggs.iter().map(|(_, c)| *c).collect());
    let m = multi(&aggs);
    let (series, _) = session
        .tracer
        .time("plan.execute", || {
            execute(plan, m, rel, extract, Interval::TIMELINE)
        })
        .map_err(|e| e.to_string())?;
    session
        .tracer
        .value("plan.result_rows", series.len() as f64);
    Ok(())
}

/// The kernel floor: a typed `SweepAggregator<Sum<i64>>` over the
/// relation's `(interval, salary)` pairs.
pub fn sweep_floor(session: &mut Session, rel: &TemporalRelation) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pairs = salary_stream(rel);
    session.tracer.time("algo.sweep", || {
        let mut sweep = SweepAggregator::new(Sum::<i64>::new()).with_parallelism(cores);
        for (iv, v) in pairs {
            let _ = sweep.push(iv, v);
        }
        black_box(sweep.finish().len());
    });
}

/// The cold whole-relation aggregate's path after parsing: stats, plan,
/// execute, the kernel floor beside it, and the cache warm-up the SQL
/// layer does after an eligible scan.
pub fn cold_aggregate(
    session: &mut Session,
    store: &TemporalStore,
    list: &SelectList,
) -> Result<(), String> {
    let rel = store.relation();
    let s = stats(session, rel);
    let plan = choose(session, list, &s)?;
    execute_plan(session, &plan, list, rel)?;
    sweep_floor(session, rel);
    let aggs = dyn_aggs(list)?;
    session.tracer.time("store.cache_build", || {
        for (agg, col) in &aggs {
            store.ensure_cache(*agg, *col);
        }
    });
    Ok(())
}

/// Snapshots of every cached aggregate of the select list, as a warm
/// whole-relation read takes them.
pub fn snapshots(session: &mut Session, store: &TemporalStore, list: &SelectList) {
    session.tracer.time("store.snapshot", || {
        for (kind, col) in list {
            black_box(store.snapshot(*kind, *col).map(|s| s.len()));
        }
    });
}

/// The window planner's inputs: the first aggregate's cached run count
/// (a snapshot, as the SQL layer takes it) and the choice itself.
pub fn choose_window(
    session: &mut Session,
    store: &TemporalStore,
    list: &SelectList,
    for_top_k: bool,
) -> Result<(), String> {
    let m = multi(&dyn_aggs(list)?);
    let runs = if for_top_k {
        store.len().max(1)
    } else {
        let (kind, col) = list[0];
        session
            .tracer
            .time("store.snapshot", || store.snapshot(kind, col))
            .map_or(store.len().max(1), |s| s.len())
    };
    let stats = RelationStats::unknown(store.len()).with_cached_series(CachedSeriesInfo {
        runs,
        epoch: store.epoch().get(),
    });
    session.tracer.time("plan.choose", || {
        black_box(choose_window_algorithm(
            &stats,
            m.sweep_class(),
            true,
            &PlannerConfig::default(),
            &CostModel::default(),
            m.state_model_bytes().max(4),
        ))
    });
    Ok(())
}

/// `… OVER [a, b]`: the planner step and one index probe per aggregate.
pub fn window(
    session: &mut Session,
    store: &TemporalStore,
    list: &SelectList,
    window: Interval,
) -> Result<(), String> {
    choose_window(session, store, list, false)?;
    for (kind, col) in list {
        session
            .tracer
            .time("store.window_probe", || {
                store.window_probe(*kind, *col, window)
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `TOP k BY agg OVER w … GROUP BY name`: the planner step and the
/// grouped index ranking.
pub fn top_k(
    session: &mut Session,
    store: &TemporalStore,
    (kind, col): (AggKind, Option<usize>),
    window: Interval,
    k: usize,
) -> Result<(), String> {
    choose_window(session, store, &[(kind, col)], true)?;
    session
        .tracer
        .time("store.topk", || {
            store.top_k_by_window(kind, col, 0, window, k)
        })
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// Count the real store's window-index and maintenance activity across
/// one statement (traced runs only).
#[derive(Clone, Copy, Debug)]
pub struct StoreCounters {
    hits: u64,
    misses: u64,
    probes: u64,
    patched: u64,
    recomputed: u64,
}

impl StoreCounters {
    pub fn read(store: &TemporalStore) -> StoreCounters {
        let w = store.windex_stats();
        let c = store.cache_stats();
        StoreCounters {
            hits: w.hits,
            misses: w.misses,
            probes: w.probes,
            patched: c.patched_runs,
            recomputed: c.recomputed_windows,
        }
    }

    pub fn record_since(self, session: &mut Session, store: &TemporalStore, write: bool) {
        let now = StoreCounters::read(store);
        let t = &mut session.tracer;
        t.value("store.windex_hits", (now.hits - self.hits) as f64);
        t.value("store.windex_misses", (now.misses - self.misses) as f64);
        t.value("store.windex_probes", (now.probes - self.probes) as f64);
        if write {
            t.value(
                "store.patched_runs",
                now.patched.saturating_sub(self.patched) as f64,
            );
            t.value(
                "store.recomputed_windows",
                now.recomputed.saturating_sub(self.recomputed) as f64,
            );
        }
    }
}
