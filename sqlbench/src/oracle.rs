//! An oracle for temporal aggregates that shares no algorithm with the
//! program under test.
//!
//! Every function here works on plain `(start, end, salary, name)` tuples
//! with closed intervals (`end == FOREVER` for open-ended tuples) and
//! computes answers by the most direct method available: an endpoint-delta
//! sweep with `i128` sums and an ordered multiset for `MIN`/`MAX`, direct
//! bucket folds for span grouping, per-tuple overlap sums for windows, and
//! binary searches over sorted endpoints for join cardinalities. It never
//! calls into the workspace crates, so an agreement between the two is
//! evidence, not a tautology.

use std::collections::BTreeMap;

/// The open end of the time-line (`Timestamp::FOREVER`).
pub const FOREVER: i64 = i64::MAX;

/// One tuple of the benchmark's model of a relation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OTuple {
    pub start: i64,
    pub end: i64,
    pub salary: i64,
    /// Index into [`Model::names`].
    pub name: u32,
}

impl OTuple {
    fn overlap(&self, a: i64, b: i64) -> Option<(i64, i64)> {
        let lo = self.start.max(a);
        let hi = self.end.min(b);
        (lo <= hi).then_some((lo, hi))
    }
}

/// A relation as the oracle sees it: tuples plus the name table.
#[derive(Clone, Debug, Default)]
pub struct Model {
    pub tuples: Vec<OTuple>,
    pub names: Vec<String>,
}

impl Model {
    /// Index of `name`, appending it to the table when new.
    pub fn name_id(&mut self, name: &str) -> u32 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u32;
        }
        self.names.push(name.to_owned());
        (self.names.len() - 1) as u32
    }

    /// Name indexes in ascending name order (the order `GROUP BY` and
    /// TOP-k tie-breaking use).
    pub fn names_in_order(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.names.len() as u32).collect();
        ids.sort_by(|a, b| self.names[*a as usize].cmp(&self.names[*b as usize]));
        ids
    }
}

/// An aggregate of the paper's select list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Agg {
    CountStar,
    Sum,
    Avg,
    Min,
    Max,
}

/// A result value. Integers are exact (`i128`), floats compare by bits.
#[derive(Clone, Copy, Debug)]
pub enum OVal {
    Null,
    Int(i128),
    Float(f64),
}

impl PartialEq for OVal {
    fn eq(&self, other: &OVal) -> bool {
        match (self, other) {
            (OVal::Null, OVal::Null) => true,
            (OVal::Int(a), OVal::Int(b)) => a == b,
            (OVal::Float(a), OVal::Float(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

/// Per-instant aggregate state: count, exact sum, and the multiset of
/// live values (kept only when `MIN`/`MAX` are asked for).
struct State {
    count: i64,
    sum: i128,
    multiset: Option<BTreeMap<i64, u32>>,
}

impl State {
    fn new(aggs: &[Agg]) -> State {
        let ordered = aggs.iter().any(|a| matches!(a, Agg::Min | Agg::Max));
        State {
            count: 0,
            sum: 0,
            multiset: ordered.then(BTreeMap::new),
        }
    }

    fn add(&mut self, v: i64) {
        self.count += 1;
        self.sum += i128::from(v);
        if let Some(m) = &mut self.multiset {
            *m.entry(v).or_insert(0) += 1;
        }
    }

    fn remove(&mut self, v: i64) {
        self.count -= 1;
        self.sum -= i128::from(v);
        if let Some(m) = &mut self.multiset {
            let left = m.get_mut(&v).map(|c| {
                *c -= 1;
                *c
            });
            if left == Some(0) {
                m.remove(&v);
            }
        }
    }

    fn values(&self, aggs: &[Agg], out: &mut Vec<OVal>) {
        out.clear();
        for agg in aggs {
            out.push(match agg {
                Agg::CountStar => OVal::Int(i128::from(self.count)),
                _ if self.count == 0 => OVal::Null,
                Agg::Sum => OVal::Int(self.sum),
                Agg::Avg => OVal::Float(self.sum as f64 / self.count as f64),
                Agg::Min => extreme(self.multiset.as_ref().and_then(|m| m.keys().next())),
                Agg::Max => extreme(self.multiset.as_ref().and_then(|m| m.keys().next_back())),
            });
        }
    }
}

fn extreme(v: Option<&i64>) -> OVal {
    v.map_or(OVal::Null, |v| OVal::Int(i128::from(*v)))
}

/// Merges adjacent pieces with equal values into maximal rows before
/// handing them on.
struct Coalescer<'a> {
    pending: Option<(i64, i64, Vec<OVal>)>,
    out: &'a mut dyn FnMut(i64, i64, &[OVal]),
}

impl Coalescer<'_> {
    fn push(&mut self, start: i64, end: i64, values: &[OVal]) {
        if let Some((_, pend, pvals)) = &mut self.pending {
            if *pend != FOREVER && *pend + 1 == start && pvals.as_slice() == values {
                *pend = end;
                return;
            }
        }
        self.flush();
        self.pending = Some((start, end, values.to_vec()));
    }

    fn flush(&mut self) {
        if let Some((s, e, v)) = self.pending.take() {
            (self.out)(s, e, &v);
        }
    }
}

/// Instant-grouped aggregates over `[0, FOREVER]`: the endpoint-delta
/// sweep. Each tuple adds its value at `start` and removes it at
/// `end + 1`; the state between consecutive event times is one constant
/// piece. Rows tile the whole time-line (empty stretches carry `COUNT`
/// 0 and NULL elsewhere) and adjacent rows with equal values are merged,
/// so every emitted row is maximal.
pub fn instant_rows(
    tuples: impl IntoIterator<Item = (i64, i64, i64)>,
    aggs: &[Agg],
    out: &mut dyn FnMut(i64, i64, &[OVal]),
) {
    // (time, is_removal, value): removals and additions at one time are
    // applied together before the next piece starts, so their order
    // does not matter.
    let mut events: Vec<(i64, bool, i64)> = Vec::new();
    for (start, end, value) in tuples {
        events.push((start, false, value));
        if end != FOREVER {
            events.push((end + 1, true, value));
        }
    }
    events.sort_unstable_by_key(|e| e.0);

    let mut state = State::new(aggs);
    let mut values = Vec::with_capacity(aggs.len());
    let mut rows = Coalescer { pending: None, out };
    let mut cursor = 0i64;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].0;
        if t > cursor {
            state.values(aggs, &mut values);
            rows.push(cursor, t - 1, &values);
            cursor = t;
        }
        while i < events.len() && events[i].0 == t {
            let (_, removal, value) = events[i];
            if removal {
                state.remove(value);
            } else {
                state.add(value);
            }
            i += 1;
        }
    }
    state.values(aggs, &mut values);
    rows.push(cursor, FOREVER, &values);
    rows.flush();
}

/// Span-grouped aggregates: `[window_start, window_end]` cut into spans
/// of `len` instants (the last may be shorter), each aggregated over
/// every tuple overlapping it. One row per span, never merged.
pub fn span_rows(
    tuples: impl IntoIterator<Item = (i64, i64, i64)>,
    aggs: &[Agg],
    window_start: i64,
    window_end: i64,
    len: i64,
    out: &mut dyn FnMut(i64, i64, &[OVal]),
) {
    let spans = ((window_end - window_start) / len + 1) as usize;
    let mut count = vec![0i64; spans];
    let mut sum = vec![0i128; spans];
    let mut min = vec![None::<i64>; spans];
    let mut max = vec![None::<i64>; spans];
    for (start, end, value) in tuples {
        let lo = start.max(window_start);
        let hi = end.min(window_end);
        if lo > hi {
            continue;
        }
        for b in ((lo - window_start) / len) as usize..=((hi - window_start) / len) as usize {
            count[b] += 1;
            sum[b] += i128::from(value);
            min[b] = Some(min[b].map_or(value, |m| m.min(value)));
            max[b] = Some(max[b].map_or(value, |m| m.max(value)));
        }
    }
    let mut values = Vec::with_capacity(aggs.len());
    for b in 0..spans {
        let s = window_start + b as i64 * len;
        let e = (s + len - 1).min(window_end);
        values.clear();
        for agg in aggs {
            values.push(match agg {
                Agg::CountStar => OVal::Int(i128::from(count[b])),
                _ if count[b] == 0 => OVal::Null,
                Agg::Sum => OVal::Int(sum[b]),
                Agg::Avg => OVal::Float(sum[b] as f64 / count[b] as f64),
                Agg::Min => extreme(min[b].as_ref()),
                Agg::Max => extreme(max[b].as_ref()),
            });
        }
        out(s, e, &values);
    }
}

/// One aggregate collapsed over the closed window `[a, b]`: for `COUNT`
/// and `SUM` the integral `Σ value × overlap` (0 when nothing overlaps),
/// for `MIN`/`MAX` the extreme value among overlapping tuples (NULL when
/// nothing overlaps).
pub fn window_value<'a>(
    tuples: impl IntoIterator<Item = &'a OTuple>,
    agg: Agg,
    a: i64,
    b: i64,
) -> OVal {
    let mut integral = 0i128;
    let mut best: Option<i64> = None;
    for t in tuples {
        let Some((lo, hi)) = t.overlap(a, b) else {
            continue;
        };
        let instants = i128::from(hi - lo) + 1;
        match agg {
            Agg::CountStar => integral += instants,
            Agg::Sum => integral += i128::from(t.salary) * instants,
            Agg::Min => best = Some(best.map_or(t.salary, |m| m.min(t.salary))),
            Agg::Max => best = Some(best.map_or(t.salary, |m| m.max(t.salary))),
            Agg::Avg => unreachable!("AVG has no window form in the benchmark"),
        }
    }
    match agg {
        Agg::CountStar | Agg::Sum => OVal::Int(integral),
        _ => extreme(best.as_ref()),
    }
}

/// `TOP k BY agg OVER [a, b] … GROUP BY name`: every group's window
/// value, ranked descending; ties go to the lower group (ascending name).
/// `MIN`/`MAX` rank groups by their window maximum.
pub fn top_k(model: &Model, agg: Agg, a: i64, b: i64, k: usize) -> Vec<(u32, OVal)> {
    let key_agg = if agg == Agg::Min { Agg::Max } else { agg };
    let mut per_group: Vec<Vec<&OTuple>> = vec![Vec::new(); model.names.len()];
    for t in &model.tuples {
        per_group[t.name as usize].push(t);
    }
    let mut ranked: Vec<(u32, OVal)> = model
        .names_in_order()
        .into_iter()
        .filter(|g| !per_group[*g as usize].is_empty())
        .map(|g| {
            (
                g,
                window_value(per_group[g as usize].iter().copied(), key_agg, a, b),
            )
        })
        .collect();
    // Stable sort over name-ordered groups keeps the lower group first
    // among equal keys.
    ranked.sort_by_key(|x| std::cmp::Reverse(rank_key(&x.1)));
    ranked.truncate(k);
    ranked
}

fn rank_key(v: &OVal) -> Option<i128> {
    match v {
        OVal::Int(i) => Some(*i),
        _ => None,
    }
}

/// Number of `(left, right)` pairs whose closed intervals share an
/// instant, from binary searches over the left side's sorted starts and
/// ends: a right tuple `[a, b]` meets every left tuple that starts by `b`
/// except those that ended before `a`.
pub fn join_pair_count(left: &[(i64, i64)], right: &[(i64, i64)]) -> u64 {
    let mut starts: Vec<i64> = left.iter().map(|t| t.0).collect();
    let mut ends: Vec<i64> = left.iter().map(|t| t.1).collect();
    starts.sort_unstable();
    ends.sort_unstable();
    right
        .iter()
        .map(|&(a, b)| {
            let started = starts.partition_point(|s| *s <= b);
            let ended_before = ends.partition_point(|e| *e < a);
            (started - ended_before) as u64
        })
        .sum()
}

/// FNV-1a over a canonical byte encoding: the benchmark compares result
/// sets by digest so that neither side has to be kept in memory.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn int(&mut self, v: i128) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }

    pub fn str(&mut self, s: &str) -> &mut Fnv {
        self.int(s.len() as i128).bytes(s.as_bytes())
    }

    pub fn val(&mut self, v: &OVal) -> &mut Fnv {
        match v {
            OVal::Null => self.bytes(&[0]),
            OVal::Int(i) => self.bytes(&[1]).int(*i),
            OVal::Float(f) => self.bytes(&[2]).bytes(&f.to_bits().to_le_bytes()),
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// An order-sensitive digest of a row sequence, plus its length.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct RowDigest {
    pub rows: u64,
    pub hash: u64,
}

impl RowDigest {
    pub fn push(&mut self, group: Option<&str>, start: i64, end: i64, values: &[OVal]) {
        let mut h = Fnv::new();
        h.int(i128::from(self.hash));
        match group {
            Some(g) => h.bytes(&[1]).str(g),
            None => h.bytes(&[0]),
        };
        h.int(i128::from(start)).int(i128::from(end));
        for v in values {
            h.val(v);
        }
        self.hash = h.finish();
        self.rows += 1;
    }
}

/// An order-insensitive digest of join rows (`(left name, left salary,
/// right name, right salary, intersection)`), plus the row count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct PairDigest {
    pub rows: u64,
    pub hash: u64,
}

impl PairDigest {
    pub fn push(&mut self, left: (&str, i64), right: (&str, i64), start: i64, end: i64) {
        let mut h = Fnv::new();
        h.str(left.0)
            .int(i128::from(left.1))
            .str(right.0)
            .int(i128::from(right.1))
            .int(i128::from(start))
            .int(i128::from(end));
        self.hash = self.hash.wrapping_add(h.finish());
        self.rows += 1;
    }
}

/// The join's expected rows, digested: every overlapping pair, found by
/// testing each tuple of the (small) right side against every left tuple.
pub fn join_digest(left: &Model, right: &Model) -> PairDigest {
    let mut d = PairDigest::default();
    for r in &right.tuples {
        for l in &left.tuples {
            if let Some((lo, hi)) = l.overlap(r.start, r.end) {
                d.push(
                    (&left.names[l.name as usize], l.salary),
                    (&right.names[r.name as usize], r.salary),
                    lo,
                    hi,
                );
            }
        }
    }
    d
}

/// Timeslice values (`COUNT(*)`, `SUM`) at each of the sorted instants
/// `at`, from one pass over the tuples: at every instant a temporal
/// aggregate equals the plain aggregate over the tuples valid then.
pub fn timeslice_count_sum(tuples: &[OTuple], at: &[i64]) -> Vec<(i64, i128)> {
    let mut acc = vec![(0i64, 0i128); at.len()];
    for t in tuples {
        let mut i = at.partition_point(|x| *x < t.start);
        while i < at.len() && at[i] <= t.end {
            acc[i].0 += 1;
            acc[i].1 += i128::from(t.salary);
            i += 1;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempagg_workload::employed::{employed_tuples, table1_expected};

    fn employed() -> Model {
        let mut m = Model::default();
        for (name, salary, valid) in employed_tuples() {
            let name = m.name_id(name);
            m.tuples.push(OTuple {
                start: valid.start().get(),
                end: valid.end().get(),
                salary,
                name,
            });
        }
        m
    }

    fn triples(m: &Model) -> Vec<(i64, i64, i64)> {
        m.tuples
            .iter()
            .map(|t| (t.start, t.end, t.salary))
            .collect()
    }

    fn collect(f: impl FnOnce(&mut dyn FnMut(i64, i64, &[OVal]))) -> Vec<(i64, i64, Vec<OVal>)> {
        let mut rows = Vec::new();
        f(&mut |s, e, v| rows.push((s, e, v.to_vec())));
        rows
    }

    #[test]
    fn count_reproduces_table_1() {
        let m = employed();
        let rows = collect(|out| instant_rows(triples(&m), &[Agg::CountStar], out));
        let expected: Vec<(i64, i64, Vec<OVal>)> = table1_expected()
            .into_iter()
            .map(|(iv, c)| {
                (
                    iv.start().get(),
                    iv.end().get(),
                    vec![OVal::Int(i128::from(c))],
                )
            })
            .collect();
        assert_eq!(rows, expected);
    }

    #[test]
    fn empty_runs_carry_count_zero_and_nulls_and_rows_tile_the_timeline() {
        let m = employed();
        let aggs = [Agg::CountStar, Agg::Sum, Agg::Avg, Agg::Min, Agg::Max];
        let rows = collect(|out| instant_rows(triples(&m), &aggs, out));
        assert_eq!(rows[0].0, 0);
        assert_eq!(rows.last().map(|r| r.1), Some(FOREVER));
        for w in rows.windows(2) {
            assert_eq!(w[0].1 + 1, w[1].0, "rows tile the time-line");
        }
        assert_eq!(
            rows[0],
            (
                0,
                6,
                vec![OVal::Int(0), OVal::Null, OVal::Null, OVal::Null, OVal::Null]
            )
        );
        // [18, 20]: Richard 40K, Karen 45K, Nathan 37K.
        let r = rows.iter().find(|r| r.0 == 18).unwrap();
        assert_eq!(r.1, 20);
        assert_eq!(
            r.2,
            vec![
                OVal::Int(3),
                OVal::Int(122_000),
                OVal::Float(122_000.0 / 3.0),
                OVal::Int(37_000),
                OVal::Int(45_000)
            ]
        );
    }

    #[test]
    fn adjacent_equal_runs_merge() {
        // [0, 4] and [5, 9] with the same value: one row [0, 9] of count 1,
        // not two; a value change at 10 starts a new row.
        let rows = collect(|out| {
            instant_rows([(0, 4, 7), (5, 9, 7), (10, 12, 8)], &[Agg::CountStar], out)
        });
        assert_eq!(
            rows,
            vec![
                (0, 12, vec![OVal::Int(1)]),
                (13, FOREVER, vec![OVal::Int(0)]),
            ]
        );
        let sums =
            collect(|out| instant_rows([(0, 4, 7), (5, 9, 7), (10, 12, 8)], &[Agg::Sum], out));
        assert_eq!(sums.len(), 3, "{sums:?}");
        assert_eq!(sums[0], (0, 9, vec![OVal::Int(7)]));
    }

    #[test]
    fn sums_are_exact_beyond_i64() {
        let big = i64::MAX / 2 + 1;
        let rows = collect(|out| instant_rows([(0, 9, big), (0, 9, big)], &[Agg::Sum], out));
        assert_eq!(rows[0].2, vec![OVal::Int(2 * i128::from(big))]);
    }

    #[test]
    fn span_rows_aggregate_overlapping_tuples() {
        // Spans of 5 over [0, 11]: [0,4] [5,9] [10,11].
        let rows = collect(|out| {
            span_rows(
                [(3, 6, 10), (4, 4, 20)],
                &[Agg::CountStar, Agg::Sum, Agg::Max],
                0,
                11,
                5,
                out,
            )
        });
        assert_eq!(
            rows,
            vec![
                (0, 4, vec![OVal::Int(2), OVal::Int(30), OVal::Int(20)]),
                (5, 9, vec![OVal::Int(1), OVal::Int(10), OVal::Int(10)]),
                (10, 11, vec![OVal::Int(0), OVal::Null, OVal::Null]),
            ]
        );
    }

    #[test]
    fn window_integrals_and_extremes() {
        let m = employed();
        // [10, 19]: Richard [18,∞] 2 instants, Karen [8,20] 10, Nathan
        // [7,12] 3, Nathan [18,21] 2.
        assert_eq!(
            window_value(&m.tuples, Agg::CountStar, 10, 19),
            OVal::Int(17)
        );
        let sum = 40_000 * 2 + 45_000 * 10 + 35_000 * 3 + 37_000 * 2;
        assert_eq!(window_value(&m.tuples, Agg::Sum, 10, 19), OVal::Int(sum));
        assert_eq!(window_value(&m.tuples, Agg::Min, 10, 19), OVal::Int(35_000));
        assert_eq!(window_value(&m.tuples, Agg::Max, 10, 19), OVal::Int(45_000));
        assert_eq!(window_value(&m.tuples, Agg::Max, 0, 6), OVal::Null);
        assert_eq!(window_value(&m.tuples, Agg::Sum, 0, 6), OVal::Int(0));
    }

    #[test]
    fn top_k_ties_go_to_the_lower_group() {
        let mut m = Model::default();
        let b = m.name_id("b");
        let a = m.name_id("a");
        let c = m.name_id("c");
        for (name, salary) in [(b, 5), (a, 5), (c, 3)] {
            m.tuples.push(OTuple {
                start: 0,
                end: 9,
                salary,
                name,
            });
        }
        assert_eq!(
            top_k(&m, Agg::Max, 0, 9, 2),
            vec![(a, OVal::Int(5)), (b, OVal::Int(5))]
        );
        assert_eq!(top_k(&m, Agg::Sum, 0, 4, 1), vec![(a, OVal::Int(25))]);
    }

    #[test]
    fn join_count_matches_brute_force() {
        let left = [(0, 4), (3, 9), (10, 10), (2, FOREVER)];
        let right = [(4, 4), (10, 12), (20, 30)];
        let brute = right
            .iter()
            .map(|r| left.iter().filter(|l| l.0 <= r.1 && r.0 <= l.1).count() as u64)
            .sum::<u64>();
        assert_eq!(join_pair_count(&left, &right), brute);
        assert_eq!(brute, 3 + 2 + 1);
    }

    #[test]
    fn timeslices_count_live_tuples() {
        let m = employed();
        assert_eq!(
            timeslice_count_sum(&m.tuples, &[6, 8, 18, 22]),
            vec![(0, 0), (2, 80_000), (3, 122_000), (1, 40_000)]
        );
    }
}
