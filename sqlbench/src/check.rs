//! Checks of the program's outputs against the oracle. Program values are
//! converted to the oracle's representation; nothing here computes an
//! expected answer itself.

use crate::oracle::{self, Agg, Model, OTuple, OVal, PairDigest, RowDigest, FOREVER};
use tempagg_core::{TemporalRelation, Value};
use tempagg_sql::{QueryResult, ResultRow, StatementOutput};

pub fn oval(v: &Value) -> OVal {
    match v {
        Value::Null => OVal::Null,
        Value::Int(i) => OVal::Int(i128::from(*i)),
        Value::Float(f) => OVal::Float(*f),
        // The benchmark's select lists never produce these.
        Value::Bool(b) => OVal::Int(i128::from(*b)),
        Value::Str(s) => OVal::Int(i128::from(oracle::Fnv::new().str(s).finish())),
    }
}

fn group_str(row: &ResultRow) -> Option<&str> {
    match &row.group {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// The model of a generated relation (`name`, `salary` columns).
pub fn model_of(relation: &TemporalRelation) -> Model {
    let mut model = Model::default();
    model.tuples.reserve(relation.len());
    for t in relation {
        let name = match t.value(0) {
            Value::Str(s) => model.name_id(s),
            _ => model.name_id(""),
        };
        let salary = t.value(1).as_i64().unwrap_or(0);
        model.tuples.push(OTuple {
            start: t.valid().start().get(),
            end: t.valid().end().get(),
            salary,
            name,
        });
    }
    model
}

/// Order-sensitive digest of a relation's tuples, for checking that a
/// file returns to its first contents.
pub fn relation_digest(relation: &TemporalRelation) -> RowDigest {
    let mut d = RowDigest::default();
    for t in relation {
        let name = match t.value(0) {
            Value::Str(s) => s.as_str(),
            _ => "",
        };
        d.push(
            Some(name),
            t.valid().start().get(),
            t.valid().end().get(),
            &[oval(t.value(1))],
        );
    }
    d
}

/// Digest of a query's result rows.
pub fn digest_rows(rows: &[ResultRow]) -> RowDigest {
    let mut d = RowDigest::default();
    let mut values = Vec::new();
    for row in rows {
        values.clear();
        values.extend(row.values.iter().map(oval));
        d.push(
            group_str(row),
            row.valid.start().get(),
            row.valid.end().get(),
            &values,
        );
    }
    d
}

/// Digest of a join's result tuples (`l.name, l.salary, r.name, r.salary`).
pub fn digest_join(output: &StatementOutput) -> Result<PairDigest, String> {
    let StatementOutput::Tuples(table) = output else {
        return Err(format!("expected join tuples, got {output:?}"));
    };
    let mut d = PairDigest::default();
    for (values, valid) in &table.rows {
        let [Value::Str(ln), Value::Int(ls), Value::Str(rn), Value::Int(rs)] = values.as_slice()
        else {
            return Err(format!("unexpected join row {values:?}"));
        };
        d.push((ln, *ls), (rn, *rs), valid.start().get(), valid.end().get());
    }
    Ok(d)
}

/// The query result inside a statement output.
pub fn rows_of(output: &StatementOutput) -> Result<&QueryResult, String> {
    match output {
        StatementOutput::Rows(q) => Ok(q),
        other => Err(format!("expected aggregate rows, got {other:?}")),
    }
}

/// The expected digest of instant-grouped aggregates over `tuples`.
pub fn expected_instant(
    tuples: impl IntoIterator<Item = (i64, i64, i64)>,
    aggs: &[Agg],
) -> RowDigest {
    let mut d = RowDigest::default();
    oracle::instant_rows(tuples, aggs, &mut |s, e, v| d.push(None, s, e, v));
    d
}

/// The expected digest of `GROUP BY name` instant-grouped aggregates.
pub fn expected_grouped(model: &Model, aggs: &[Agg]) -> RowDigest {
    let mut d = RowDigest::default();
    for g in model.names_in_order() {
        let name = model.names[g as usize].as_str();
        let members = model
            .tuples
            .iter()
            .filter(|t| t.name == g)
            .map(|t| (t.start, t.end, t.salary));
        oracle::instant_rows(members, aggs, &mut |s, e, v| d.push(Some(name), s, e, v));
    }
    d
}

/// The expected digest of `GROUP BY SPAN len` over the relation's
/// lifespan (the program's span window when no VALID clause is given).
pub fn expected_spans(model: &Model, aggs: &[Agg], len: i64) -> RowDigest {
    let lo = model.tuples.iter().map(|t| t.start).min().unwrap_or(0);
    let hi = model.tuples.iter().map(|t| t.end).max().unwrap_or(0);
    let mut d = RowDigest::default();
    let triples = model.tuples.iter().map(|t| (t.start, t.end, t.salary));
    oracle::span_rows(triples, aggs, lo, hi, len, &mut |s, e, v| {
        d.push(None, s, e, v)
    });
    d
}

/// Compare a result row by row with the oracle's instant rows over the
/// model: the full check, for relations small enough to sweep per
/// statement.
pub fn compare_instant(q: &QueryResult, model: &Model, aggs: &[Agg]) -> Result<(), String> {
    let mut at = 0usize;
    let mut first_err: Option<String> = None;
    let triples = model.tuples.iter().map(|t| (t.start, t.end, t.salary));
    oracle::instant_rows(triples, aggs, &mut |s, e, v| {
        if first_err.is_some() {
            return;
        }
        let Some(row) = q.rows.get(at) else {
            first_err = Some(format!("missing row {at} [{s}, {e}]"));
            return;
        };
        let got: Vec<OVal> = row.values.iter().map(oval).collect();
        if row.valid.start().get() != s || row.valid.end().get() != e || got != v {
            first_err = Some(format!(
                "row {at}: got {} {:?}, expected [{s}, {e}] {v:?}",
                row.valid, got
            ));
        }
        at += 1;
    });
    if let Some(e) = first_err {
        return Err(e);
    }
    if at != q.rows.len() {
        return Err(format!("{} rows, expected {at}", q.rows.len()));
    }
    Ok(())
}

/// Rows tile `[0, FOREVER]` and adjacent rows differ (coalescing is
/// maximal).
pub fn check_tiling(q: &QueryResult) -> Result<(), String> {
    let rows = &q.rows;
    let (Some(first), Some(last)) = (rows.first(), rows.last()) else {
        return Err("no rows".to_owned());
    };
    if first.valid.start().get() != 0 || last.valid.end().get() != FOREVER {
        return Err(format!(
            "rows span {} .. {}, not the time-line",
            first.valid, last.valid
        ));
    }
    for (i, w) in rows.windows(2).enumerate() {
        if w[0].valid.end().get() == FOREVER
            || w[0].valid.end().get() + 1 != w[1].valid.start().get()
        {
            return Err(format!(
                "rows {i} and {} do not meet: {} {}",
                i + 1,
                w[0].valid,
                w[1].valid
            ));
        }
        if w[0].values == w[1].values {
            return Err(format!(
                "rows {i} and {} carry equal values and were not merged",
                i + 1
            ));
        }
    }
    Ok(())
}

/// The timeslice property at sampled instants: the row holding `t`
/// carries `COUNT(*)` and `SUM(salary)` of the tuples valid at `t`.
pub fn check_timeslices(q: &QueryResult, tuples: &[OTuple], at: &[i64]) -> Result<(), String> {
    let expected = oracle::timeslice_count_sum(tuples, at);
    for (t, (count, sum)) in at.iter().zip(expected) {
        let i = q.rows.partition_point(|r| r.valid.end().get() < *t);
        let Some(row) = q.rows.get(i) else {
            return Err(format!("no row holds instant {t}"));
        };
        let got: Vec<OVal> = row.values.iter().map(oval).collect();
        let want = [
            OVal::Int(i128::from(count)),
            if count == 0 {
                OVal::Null
            } else {
                OVal::Int(sum)
            },
        ];
        if got != want {
            return Err(format!("at {t}: got {got:?}, expected {want:?}"));
        }
    }
    Ok(())
}

/// A single-row window result against the oracle's window values.
pub fn check_window(
    q: &QueryResult,
    model: &Model,
    aggs: &[Agg],
    a: i64,
    b: i64,
) -> Result<(), String> {
    let [row] = q.rows.as_slice() else {
        return Err(format!("{} rows, expected 1", q.rows.len()));
    };
    let got: Vec<OVal> = row.values.iter().map(oval).collect();
    let want: Vec<OVal> = aggs
        .iter()
        .map(|agg| oracle::window_value(&model.tuples, *agg, a, b))
        .collect();
    if got != want || row.valid.start().get() != a || row.valid.end().get() != b {
        return Err(format!(
            "OVER [{a}, {b}]: got {} {got:?}, expected {want:?}",
            row.valid
        ));
    }
    Ok(())
}

/// A TOP-k result against the oracle's ranking.
pub fn check_top_k(
    q: &QueryResult,
    model: &Model,
    agg: Agg,
    a: i64,
    b: i64,
    k: usize,
) -> Result<(), String> {
    let want: Vec<(Option<&str>, OVal)> = oracle::top_k(model, agg, a, b, k)
        .into_iter()
        .map(|(g, v)| (Some(model.names[g as usize].as_str()), v))
        .collect();
    let got: Vec<(Option<&str>, OVal)> = q
        .rows
        .iter()
        .map(|r| (group_str(r), r.values.first().map_or(OVal::Null, oval)))
        .collect();
    if got != want {
        return Err(format!(
            "TOP {k} OVER [{a}, {b}]: got {got:?}, expected {want:?}"
        ));
    }
    Ok(())
}

/// An EXPLAIN answers with a plan and no rows.
pub fn check_explain(output: &StatementOutput) -> Result<(), String> {
    let q = rows_of(output)?;
    if !q.explain_only || !q.rows.is_empty() || q.plan.is_none() {
        return Err(format!(
            "EXPLAIN returned {} rows, plan {:?}",
            q.rows.len(),
            q.plan
        ));
    }
    Ok(())
}

/// A write reports exactly one affected tuple.
pub fn check_one_written(output: &StatementOutput) -> Result<(), String> {
    match output {
        StatementOutput::Inserted { count: 1, .. }
        | StatementOutput::Deleted { count: 1, .. }
        | StatementOutput::Updated { count: 1, .. } => Ok(()),
        other => Err(format!("expected one tuple written, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Session;
    use tempagg_core::Interval;
    use tempagg_sql::{execute_statement, Catalog};
    use tempagg_store::TemporalStore;
    use tempagg_workload::{generate, WorkloadConfig};

    const FIVE: &[Agg] = &[Agg::CountStar, Agg::Sum, Agg::Avg, Agg::Min, Agg::Max];
    const FIVE_SQL: &str =
        "SELECT COUNT(*), SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM r";

    fn setup() -> (Catalog, Model) {
        let rel = generate(
            &WorkloadConfig::random(3_000)
                .with_long_lived_pct(10)
                .with_seed(5),
        );
        let model = model_of(&rel);
        let mut catalog = Catalog::new();
        catalog.register_store("r", TemporalStore::new(rel));
        (catalog, model)
    }

    fn query(catalog: &mut Catalog, sql: &str) -> QueryResult {
        match execute_statement(catalog, sql).unwrap() {
            StatementOutput::Rows(q) => q,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oracle_agrees_with_the_program_on_every_shape() {
        let (mut c, m) = setup();
        let all = || m.tuples.iter().map(|t| (t.start, t.end, t.salary));
        // Cold (scan), then warm (cache-served) five-aggregate reads.
        for _ in 0..2 {
            compare_instant(&query(&mut c, FIVE_SQL), &m, FIVE).unwrap();
        }
        let filtered = query(
            &mut c,
            "SELECT MIN(salary), MAX(salary) FROM r WHERE salary >= 60000",
        );
        let want = expected_instant(all().filter(|t| t.2 >= 60_000), &[Agg::Min, Agg::Max]);
        assert_eq!(digest_rows(&filtered.rows), want);
        let grouped = query(&mut c, "SELECT COUNT(*), SUM(salary) FROM r GROUP BY name");
        assert_eq!(
            digest_rows(&grouped.rows),
            expected_grouped(&m, &[Agg::CountStar, Agg::Sum])
        );
        let spans = query(
            &mut c,
            "SELECT COUNT(*), SUM(salary), MAX(salary) FROM r GROUP BY SPAN 7000",
        );
        assert_eq!(
            digest_rows(&spans.rows),
            expected_spans(&m, &[Agg::CountStar, Agg::Sum, Agg::Max], 7_000)
        );
        for (a, b) in [(0, 999), (12_345, 67_890), (500_000, 999_999)] {
            let q = query(
                &mut c,
                &format!("SELECT COUNT(*), SUM(salary) OVER [{a}, {b}] FROM r"),
            );
            check_window(&q, &m, &[Agg::CountStar, Agg::Sum], a, b).unwrap();
            let q = query(
                &mut c,
                &format!("SELECT MIN(salary), MAX(salary) OVER [{a}, {b}] FROM r"),
            );
            check_window(&q, &m, &[Agg::Min, Agg::Max], a, b).unwrap();
            let q = query(
                &mut c,
                &format!("SELECT TOP 3 BY SUM(salary) OVER [{a}, {b}] FROM r GROUP BY name"),
            );
            check_top_k(&q, &m, Agg::Sum, a, b, 3).unwrap();
        }
        let q = query(&mut c, "SELECT COUNT(*), SUM(salary) FROM r");
        check_tiling(&q).unwrap();
        check_timeslices(&q, &m.tuples, &[0, 1, 4_999, 500_000, 999_999]).unwrap();
    }

    #[test]
    fn join_digest_and_pair_count_agree_with_the_program() {
        let (mut c, m) = setup();
        let mut small = TemporalRelation::new(tempagg_workload::workload_schema(false));
        for i in 0..5i64 {
            let start = i * 200_000 + 777;
            small
                .push(
                    vec![Value::from(format!("s{i}")), Value::Int(i)],
                    Interval::at(start, start + 2_000),
                )
                .unwrap();
        }
        let small_model = model_of(&small);
        c.register("s", small);
        let out = execute_statement(&mut c, "SELECT * FROM r JOIN s ON OVERLAPS").unwrap();
        let got = digest_join(&out).unwrap();
        assert_eq!(got, oracle::join_digest(&m, &small_model));
        let left: Vec<(i64, i64)> = m.tuples.iter().map(|t| (t.start, t.end)).collect();
        let right: Vec<(i64, i64)> = small_model
            .tuples
            .iter()
            .map(|t| (t.start, t.end))
            .collect();
        assert_eq!(oracle::join_pair_count(&left, &right), got.rows);
        assert!(got.rows > 0);
    }

    #[test]
    fn a_single_perturbed_row_is_a_failed_statement() {
        let (mut c, m) = setup();
        let mut q = query(&mut c, FIVE_SQL);
        let mut session = Session::new(false);
        session.check(FIVE_SQL, compare_instant(&q, &m, FIVE));
        assert_eq!((session.failed, session.correct()), (0, true));

        let row = q.rows.len() / 2;
        let Value::Int(count) = q.rows[row].values[0] else {
            panic!("COUNT is an integer")
        };
        q.rows[row].values[0] = Value::Int(count + 1);
        session.check(FIVE_SQL, compare_instant(&q, &m, FIVE));
        assert_eq!((session.failed, session.correct()), (1, false));
        // The digest comparison used for large relations catches it too.
        let all = m.tuples.iter().map(|t| (t.start, t.end, t.salary));
        assert_ne!(digest_rows(&q.rows), expected_instant(all, FIVE));
        // So do the sampled checks of warm reads, at the perturbed row.
        let mut q2 = query(&mut c, "SELECT COUNT(*), SUM(salary) FROM r");
        let at = q2.rows[row].valid.start().get();
        let Value::Int(c2) = q2.rows[row].values[0] else {
            panic!("COUNT is an integer")
        };
        q2.rows[row].values[0] = Value::Int(c2 + 1);
        assert!(check_timeslices(&q2, &m.tuples, &[at]).is_err());
    }
}
