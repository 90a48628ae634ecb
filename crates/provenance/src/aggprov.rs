//! Provenance for aggregate queries (Section 5.2 of the paper, following
//! Amsterdamer, Deutch and Tannen's aggregate-provenance semiring).
//!
//! The paper's assumptions on aggregate queries (Section 5) are mirrored
//! here:
//!
//! 1. no aggregate values and no NULLs among the group-by attributes,
//! 2. HAVING predicates are simple comparisons over aggregate aliases and
//!    group-by columns,
//! 3. no difference operator above an aggregation.
//!
//! Concretely, an aggregate query is expected to have the shape
//! `π? ( σ? ( γ_{G; aggs; having}( Q' ) ) )` where `Q'` is an SPJUD query.
//! [`aggregate_provenance`] annotates `Q'` with Boolean how-provenance and
//! then builds, for every group, the structure the solver needs:
//!
//! * the group's **existence provenance** (`t1(t4 + t5)` in Table 2),
//! * per member tuple, its provenance and the values of each aggregate
//!   argument (`t4 ⊗ 100 +_AVG t5 ⊗ 75`), and
//! * the HAVING predicate, kept symbolic so that COUNT/SUM thresholds can be
//!   re-evaluated under a candidate sub-instance or a new parameter value
//!   (the `t4⊗1 +_SUM t5⊗1 ≥ 3` part).
//!
//! The groups, their members and their index depend only on `Q'`, the
//! group-by columns and the aggregate arguments; HAVING, the aggregate
//! functions, the outer selection and projection are the query's own, kept
//! once per query. [`pair_aggregate_provenance`] builds the groups of a
//! query pair once when both queries aggregate the same input the same way
//! (a wrong HAVING threshold, the error of the paper's Example 5): the
//! second query's provenance shares the first one's groups.
//!
//! The theory check evaluates groups into reused buffers ([`GroupRows`]):
//! per group it appends the aggregate values of the members live on the
//! candidate, reads HAVING over the group key followed by those values in
//! place, and compares the two outputs as sorted lists of row positions.

use crate::annotate::annotate_instrumented;
use crate::boolexpr::BoolExpr;
use crate::error::{ProvenanceError, Result};
use ratest_ra::ast::{AggCall, ProjectItem, Query};
use ratest_ra::eval::{compute_aggregate, ResultSet};
use ratest_ra::expr::{Expr, ParamMap};
use ratest_ra::interrupt::{Interrupt, Pacer};
use ratest_ra::plan::Scalar;
use ratest_ra::typecheck::output_schema;
use ratest_storage::{Database, Schema, TupleId, TupleSelection, Value};
use ratest_telemetry::MetricsHandle;
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

/// One member of a group: the provenance of the contributing input tuple and
/// the values of every aggregate argument for that tuple.
#[derive(Debug, Clone)]
pub struct GroupMember {
    /// How-provenance of the contributing (joined) input tuple.
    pub provenance: BoolExpr,
    /// One value per aggregate call, in the order of
    /// [`AggregateProvenance::aggregates`].
    pub agg_args: Vec<Value>,
}

/// The provenance of one group of an aggregate query.
#[derive(Debug, Clone)]
pub struct GroupProvenance {
    /// The group-by key values.
    pub key: Vec<Value>,
    /// Existence provenance of the group: disjunction of member provenance.
    pub exists: BoolExpr,
    /// Members contributing to this group.
    pub members: Vec<GroupMember>,
}

impl GroupProvenance {
    /// All tuple variables involved in this group.
    pub fn variables(&self) -> BTreeSet<TupleId> {
        let mut out = self.exists.variables();
        for m in &self.members {
            out.extend(m.provenance.variables());
        }
        out
    }
}

/// The groups of an aggregate query and what they are built from: `Q'`
/// annotated on the instance and grouped by the group-by columns, each
/// member with its aggregate arguments. Two queries that aggregate the same
/// `Q'` by the same columns over the same arguments share one.
#[derive(Debug)]
struct Grouping {
    inner: Query,
    group_by: Vec<String>,
    args: Vec<Expr>,
    inner_rows: Option<ResultSet>,
    groups: Vec<GroupProvenance>,
    index: GroupIndex,
}

impl Grouping {
    /// Whether a query aggregating `inner` by `group_by` over the arguments
    /// `aggregates` has exactly these groups.
    fn matches(&self, inner: &Query, group_by: &[String], aggregates: &[AggCall]) -> bool {
        self.group_by == group_by
            && self.args.len() == aggregates.len()
            && self
                .args
                .iter()
                .zip(aggregates)
                .all(|(a, agg)| *a == agg.arg)
            && self.inner == *inner
    }
}

/// Provenance of a full aggregate query.
#[derive(Debug, Clone)]
pub struct AggregateProvenance {
    /// Output schema of the group-by (group key columns then agg aliases).
    pub group_schema: Schema,
    /// Final output schema of the query (after the optional outer projection).
    pub output_schema: Schema,
    /// Column indices (into `group_schema`) kept by the outer projection;
    /// identity when there is no outer projection.
    pub projection: Vec<usize>,
    /// The aggregate calls (aliases + functions) computed for every group.
    pub aggregates: Vec<AggCall>,
    /// The HAVING predicate (over group key + aggregate aliases), if any.
    pub having: Option<Expr>,
    /// Additional selection applied *above* the aggregation (outer σ), if any.
    pub outer_having: Option<Expr>,
    /// The groups, possibly shared with the other query of a pair.
    grouping: Arc<Grouping>,
    /// `having` and `outer_having`, resolved against `group_schema` once.
    resolved_having: Option<Scalar>,
    resolved_outer: Option<Scalar>,
}

/// Lookups over the groups, built once so that neither the theory check
/// nor the candidate ordering rescans every group. Flat sorted arrays: no
/// per-group set, no per-tuple list.
#[derive(Debug)]
struct GroupIndex {
    /// Group positions, in ascending key order.
    by_key: Vec<u32>,
    /// Group `g`'s distinct variables, ascending, are
    /// `variables[starts[g]..starts[g + 1]]`.
    starts: Vec<u32>,
    variables: Vec<TupleId>,
    /// The (tuple, group) pairs a selected tuple looks its groups up by,
    /// ascending. A group whose every member's provenance has a tuple
    /// variable as a top-level conjunct is listed under that tuple only
    /// (the one in the fewest groups): no member of it is live unless that
    /// tuple is selected. Any other group is listed under each of its
    /// variables.
    by_tuple: Vec<(TupleId, u32)>,
    /// Groups with a member whose provenance holds on the empty
    /// sub-instance, ascending. Only a negation allows that: the
    /// annotator's provenance always needs some base tuple, but
    /// [`AggregateProvenance::with_groups`] accepts any group.
    live_when_empty: Vec<usize>,
}

impl GroupIndex {
    fn build(groups: &[GroupProvenance]) -> GroupIndex {
        let mut by_key: Vec<u32> = (0..groups.len() as u32).collect();
        by_key.sort_unstable_by(|&a, &b| groups[a as usize].key.cmp(&groups[b as usize].key));
        let mut starts = Vec::with_capacity(groups.len() + 1);
        let mut variables = Vec::new();
        let mut group_vars = Vec::new();
        starts.push(0);
        for g in groups {
            group_vars.clear();
            let mut push = |id| group_vars.push(id);
            g.exists.for_each_variable(&mut push);
            for m in &g.members {
                m.provenance.for_each_variable(&mut push);
            }
            group_vars.sort_unstable();
            group_vars.dedup();
            variables.extend_from_slice(&group_vars);
            starts.push(u32::try_from(variables.len()).expect("fewer than 2^32 group variables"));
        }
        let mut groups_of: HashMap<TupleId, u32> = HashMap::new();
        for &id in &variables {
            *groups_of.entry(id).or_default() += 1;
        }
        let mut by_tuple: Vec<(TupleId, u32)> = Vec::with_capacity(variables.len());
        for (gi, (g, window)) in groups.iter().zip(starts.windows(2)).enumerate() {
            match required_tuple(g, &groups_of) {
                Some(id) => by_tuple.push((id, gi as u32)),
                None => {
                    let vars = &variables[window[0] as usize..window[1] as usize];
                    by_tuple.extend(vars.iter().map(|&id| (id, gi as u32)));
                }
            }
        }
        by_tuple.sort_unstable();
        let nothing = |_: TupleId| false;
        let live_when_empty = groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.members.iter().any(|m| m.provenance.eval(&nothing)))
            .map(|(gi, _)| gi)
            .collect();
        GroupIndex {
            by_key,
            starts,
            variables,
            by_tuple,
            live_when_empty,
        }
    }

    fn variables_of(&self, gi: usize) -> &[TupleId] {
        &self.variables[self.starts[gi] as usize..self.starts[gi + 1] as usize]
    }
}

/// A tuple every member of `group` needs: a variable that is a top-level
/// conjunct of each member's provenance. Of several, the one in the fewest
/// groups (`groups_of`), then the lowest id; `None` for a group without
/// members.
fn required_tuple(group: &GroupProvenance, groups_of: &HashMap<TupleId, u32>) -> Option<TupleId> {
    let (first, rest) = group.members.split_first()?;
    let positive =
        |m: &GroupMember, id: TupleId| m.provenance.conjuncts().contains(&BoolExpr::Var(id));
    first
        .provenance
        .conjuncts()
        .iter()
        .filter_map(|c| match c {
            BoolExpr::Var(id) => Some(*id),
            _ => None,
        })
        .filter(|&id| rest.iter().all(|m| positive(m, id)))
        .min_by_key(|id| (groups_of[id], *id))
}

/// Rows of one query's groups, evaluated on a sub-instance into buffers a
/// caller reuses from check to check (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct GroupRows {
    /// Per row: its group, and where its aggregate values start in
    /// `values`.
    rows: Vec<(usize, usize)>,
    /// The rows' aggregate values, one after the other.
    values: Vec<Value>,
    /// Row positions in output order, without repeats (`sort_output`).
    order: Vec<usize>,
    /// The members of the group being evaluated that are live.
    live: Vec<usize>,
    /// One aggregate's arguments over `live`.
    args: Vec<Value>,
}

impl GroupRows {
    /// Drop the rows, keeping the buffers.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.values.clear();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there is no row.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The aggregate values of every row, one row after the other.
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

impl AggregateProvenance {
    /// The provenance of this query over different `groups` of its input
    /// (e.g. with some tuples made certain): the groups are indexed anew,
    /// the query's predicates, schemas and `Q'` are kept. `groups` must
    /// have pairwise distinct keys, and their members one argument per
    /// aggregate call.
    pub fn with_groups(&self, groups: Vec<GroupProvenance>) -> AggregateProvenance {
        let grouping = &self.grouping;
        let index = GroupIndex::build(&groups);
        AggregateProvenance {
            grouping: Arc::new(Grouping {
                inner: grouping.inner.clone(),
                group_by: grouping.group_by.clone(),
                args: grouping.args.clone(),
                inner_rows: grouping.inner_rows.clone(),
                groups,
                index,
            }),
            ..self.clone()
        }
    }

    /// The (inner) SPJUD query feeding the aggregation — `Q'` in
    /// Algorithm 3.
    pub fn inner(&self) -> &Query {
        &self.grouping.inner
    }

    /// `Q'` on the instance the provenance was built on, row for row as
    /// evaluation returns it: the annotated rows without their provenance,
    /// when `Q'` has no difference. (A difference keeps, annotated, the rows
    /// of its left side that its right side derives too; evaluation drops
    /// them, and a projection above may then meet a row first elsewhere.)
    pub fn inner_rows(&self) -> Option<&ResultSet> {
        self.grouping.inner_rows.as_ref()
    }

    /// Per-group provenance, in the order the groups first appear in the
    /// annotated aggregation input.
    pub fn groups(&self) -> &[GroupProvenance] {
        &self.grouping.groups
    }

    /// Whether this provenance and `other` share their groups (built once
    /// for a pair by [`pair_aggregate_provenance`]).
    pub fn shares_groups_with(&self, other: &AggregateProvenance) -> bool {
        Arc::ptr_eq(&self.grouping, &other.grouping)
    }

    /// The groups that can yield a row on the sub-instance `selection`, in
    /// ascending order: those whose provenance mentions a selected tuple,
    /// plus those live on the empty sub-instance, less those whose every
    /// member needs a tuple that is not selected. Any other group's member
    /// provenance evaluates as on the empty sub-instance, where none holds,
    /// and a group whose required tuple is missing has no live member, so
    /// the group is empty and yields nothing.
    pub fn groups_under(&self, selection: &TupleSelection) -> Vec<usize> {
        let mut out = Vec::new();
        self.groups_under_into(selection, &mut out);
        out
    }

    /// [`AggregateProvenance::groups_under`] into a reused `out`.
    pub fn groups_under_into(&self, selection: &TupleSelection, out: &mut Vec<usize>) {
        let index = &self.grouping.index;
        out.clear();
        out.extend_from_slice(&index.live_when_empty);
        for id in selection.iter() {
            let from = index.by_tuple.partition_point(|&(t, _)| t < id);
            out.extend(
                index.by_tuple[from..]
                    .iter()
                    .take_while(|&&(t, _)| t == id)
                    .map(|&(_, gi)| gi as usize),
            );
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Evaluate the aggregate query on the sub-instance `selection`,
    /// producing the set of final output rows, in group order, without
    /// duplicates. This is the "theory check" used by the lazy solving
    /// loop: it re-evaluates only [`AggregateProvenance::groups_under`] the
    /// selection, so its cost follows the candidate, not the instance.
    pub fn evaluate_selection(
        &self,
        selection: &TupleSelection,
        params: &ParamMap,
    ) -> Result<Vec<Vec<Value>>> {
        let mut rows = GroupRows::default();
        self.evaluate_groups_into(&self.groups_under(selection), selection, params, &mut rows)?;
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for r in 0..rows.len() {
            let projected: Vec<Value> = (0..self.projection.len())
                .map(|j| self.output_value(&rows, r, j).clone())
                .collect();
            if seen.insert(projected.clone()) {
                out.push(projected);
            }
        }
        Ok(out)
    }

    /// Evaluate `groups` (e.g. `groups_under(selection)`) on the
    /// sub-instance `selection` into reused buffers: `out` ends up holding
    /// the rows of the groups that are non-empty on `selection` and pass
    /// HAVING and the outer selection, in group order, repeats included.
    pub fn evaluate_groups_into(
        &self,
        groups: &[usize],
        selection: &TupleSelection,
        params: &ParamMap,
        out: &mut GroupRows,
    ) -> Result<()> {
        out.clear();
        let present = |id| selection.contains(id);
        for &gi in groups {
            if !self.push_group_row(gi, &present, params, out)? {
                continue;
            }
            let start = out.values.len() - self.aggregates.len();
            let key = &self.grouping.groups[gi].key;
            if !holds(
                self.resolved_outer.as_ref(),
                key,
                &out.values[start..],
                params,
            )? {
                out.rows.pop();
                out.values.truncate(start);
            }
        }
        Ok(())
    }

    /// Append the row of group `gi` under `present` to `out`, when the
    /// group has a live member and its row passes HAVING (not the outer
    /// selection); returns whether it did.
    pub fn push_group_row<F: Fn(TupleId) -> bool>(
        &self,
        gi: usize,
        present: &F,
        params: &ParamMap,
        out: &mut GroupRows,
    ) -> Result<bool> {
        let group = &self.grouping.groups[gi];
        out.live.clear();
        out.live.extend(
            group
                .members
                .iter()
                .enumerate()
                .filter(|(_, m)| m.provenance.eval(present))
                .map(|(i, _)| i),
        );
        if out.live.is_empty() {
            return Ok(false);
        }
        let start = out.values.len();
        for (a, agg) in self.aggregates.iter().enumerate() {
            out.args.clear();
            out.args.extend(
                out.live
                    .iter()
                    .map(|&i| group.members[i].agg_args[a].clone()),
            );
            match compute_aggregate(agg.func, &out.args) {
                Ok(value) => out.values.push(value),
                Err(e) => {
                    out.values.truncate(start);
                    return Err(ProvenanceError::Query(e));
                }
            }
        }
        let passes = holds(
            self.resolved_having.as_ref(),
            &group.key,
            &out.values[start..],
            params,
        );
        if !matches!(passes, Ok(true)) {
            out.values.truncate(start);
            return passes;
        }
        out.rows.push((gi, start));
        Ok(true)
    }

    /// Column `j` of the output row `r` of `rows`: a key value of its
    /// group or one of its aggregate values, as the projection picks.
    fn output_value<'r>(&'r self, rows: &'r GroupRows, r: usize, j: usize) -> &'r Value {
        let (gi, start) = rows.rows[r];
        let key = &self.grouping.groups[gi].key;
        match self.projection[j] {
            c if c < key.len() => &key[c],
            c => &rows.values[start + c - key.len()],
        }
    }

    /// Compare output rows `x` and `y` of `rows` column by column.
    fn cmp_output(&self, rows: &GroupRows, x: usize, y: usize) -> Ordering {
        (0..self.projection.len())
            .map(|j| {
                self.output_value(rows, x, j)
                    .cmp(self.output_value(rows, y, j))
            })
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// Fill `rows.order` with the positions of the distinct output rows,
    /// in ascending order.
    fn sort_output(&self, rows: &mut GroupRows) {
        let mut order = std::mem::take(&mut rows.order);
        order.clear();
        order.extend(0..rows.len());
        order.sort_unstable_by(|&x, &y| self.cmp_output(rows, x, y));
        order.dedup_by(|x, y| self.cmp_output(rows, *x, *y).is_eq());
        rows.order = order;
    }

    /// Whether the output rows of this query in `mine` and those of
    /// `other` in `theirs` (both from
    /// [`AggregateProvenance::evaluate_groups_into`]) are different sets.
    pub fn outputs_differ(
        &self,
        mine: &mut GroupRows,
        other: &AggregateProvenance,
        theirs: &mut GroupRows,
    ) -> bool {
        if mine.is_empty() || theirs.is_empty() {
            return mine.is_empty() != theirs.is_empty();
        }
        if self.projection.len() != other.projection.len() {
            return true;
        }
        self.sort_output(mine);
        other.sort_output(theirs);
        mine.order.len() != theirs.order.len()
            || mine.order.iter().zip(&theirs.order).any(|(&x, &y)| {
                (0..self.projection.len())
                    .any(|j| self.output_value(mine, x, j) != other.output_value(theirs, y, j))
            })
    }

    /// The row of `group` (one of this query's groups) under `present`:
    /// its key and aggregate values, or `None` when the group has no live
    /// member or fails HAVING. HAVING's columns are resolved by name here,
    /// each call: a reference for the resolved evaluation above.
    pub fn evaluate_under<F: Fn(TupleId) -> bool>(
        &self,
        group: &GroupProvenance,
        present: &F,
        params: &ParamMap,
    ) -> Result<Option<Vec<Value>>> {
        let live: Vec<&GroupMember> = group
            .members
            .iter()
            .filter(|m| m.provenance.eval(present))
            .collect();
        if live.is_empty() {
            return Ok(None);
        }
        let mut row = group.key.clone();
        for (i, agg) in self.aggregates.iter().enumerate() {
            let args: Vec<Value> = live.iter().map(|m| m.agg_args[i].clone()).collect();
            row.push(compute_aggregate(agg.func, &args).map_err(ProvenanceError::Query)?);
        }
        if let Some(h) = &self.having {
            if !h
                .eval_predicate(&self.group_schema, &row, params)
                .map_err(ProvenanceError::Query)?
            {
                return Ok(None);
            }
        }
        Ok(Some(row))
    }

    /// All tuple variables appearing anywhere in the provenance.
    pub fn variables(&self) -> BTreeSet<TupleId> {
        self.grouping.index.variables.iter().copied().collect()
    }

    /// The position in [`AggregateProvenance::groups`] of the group with
    /// the given key, if any.
    pub fn group_index(&self, key: &[Value]) -> Option<usize> {
        let Grouping { groups, index, .. } = &*self.grouping;
        index
            .by_key
            .binary_search_by(|&gi| groups[gi as usize].key.as_slice().cmp(key))
            .ok()
            .map(|at| index.by_key[at] as usize)
    }

    /// The group with the given key, if any.
    pub fn group_by_key(&self, key: &[Value]) -> Option<&GroupProvenance> {
        self.group_index(key).map(|gi| &self.grouping.groups[gi])
    }

    /// Number of tuple variables of the group with the given key (zero when
    /// there is no such group).
    pub fn group_var_count(&self, key: &[Value]) -> usize {
        self.group_index(key)
            .map_or(0, |gi| self.grouping.index.variables_of(gi).len())
    }
}

/// Whether the row `key ++ aggregates` passes an optional resolved
/// predicate.
fn holds(
    predicate: Option<&Scalar>,
    key: &[Value],
    aggregates: &[Value],
    params: &ParamMap,
) -> Result<bool> {
    match predicate {
        Some(p) => p
            .holds_joined(key, aggregates, params)
            .map_err(ProvenanceError::Query),
        None => Ok(true),
    }
}

/// Compute aggregate provenance for a query of the supported shape
/// `π? ( σ? ( γ( Q' ) ) )`.
pub fn aggregate_provenance(
    query: &Query,
    db: &Database,
    params: &ParamMap,
) -> Result<AggregateProvenance> {
    aggregate_provenance_interruptible(query, db, params, &Interrupt::none())
}

/// [`aggregate_provenance`] under a cooperative [`Interrupt`]: both the inner
/// SPJUD annotation and the group-building loop poll the hook at the
/// evaluator's stride, so an aggregate reference over a flooding input
/// respects `Budget` deadlines instead of running to completion first.
pub fn aggregate_provenance_interruptible(
    query: &Query,
    db: &Database,
    params: &ParamMap,
    interrupt: &Interrupt,
) -> Result<AggregateProvenance> {
    aggregate_provenance_instrumented(query, db, params, interrupt, &MetricsHandle::none())
}

/// [`aggregate_provenance_interruptible`] plus telemetry: records the group
/// structure (`provenance.aggprov.groups`, `.members`) alongside the inner
/// annotation's row counters.
pub fn aggregate_provenance_instrumented(
    query: &Query,
    db: &Database,
    params: &ParamMap,
    interrupt: &Interrupt,
    metrics: &MetricsHandle,
) -> Result<AggregateProvenance> {
    provenance_sharing(query, None, db, params, interrupt, metrics)
}

/// The aggregate provenance of both queries of a pair, under the same
/// `params`, with [`aggregate_provenance_instrumented`]'s interrupt and
/// telemetry. When the queries aggregate the same `Q'` by the same columns
/// over the same arguments, `Q'` is annotated and grouped once and the
/// second provenance shares the first one's groups
/// ([`AggregateProvenance::shares_groups_with`]; counted in
/// `provenance.aggprov.shared`); it keeps its own HAVING, aggregate
/// functions, outer selection, projection and schemas. Either way each
/// query's groups are counted into `provenance.aggprov.*`.
pub fn pair_aggregate_provenance(
    q1: &Query,
    q2: &Query,
    db: &Database,
    params: &ParamMap,
    interrupt: &Interrupt,
    metrics: &MetricsHandle,
) -> Result<(AggregateProvenance, AggregateProvenance)> {
    let p1 = provenance_sharing(q1, None, db, params, interrupt, metrics)?;
    let p2 = provenance_sharing(q2, Some(&p1.grouping), db, params, interrupt, metrics)?;
    Ok((p1, p2))
}

/// Build `query`'s aggregate provenance, taking its groups from `shared`
/// when they are the same.
fn provenance_sharing(
    query: &Query,
    shared: Option<&Arc<Grouping>>,
    db: &Database,
    params: &ParamMap,
    interrupt: &Interrupt,
    metrics: &MetricsHandle,
) -> Result<AggregateProvenance> {
    // Fail fast when the hook is already raised (e.g. an expired deadline):
    // the strided pacer below only polls after a full stride of work, which a
    // small input may never reach.
    interrupt.check()?;
    let shape = decompose(query)?;
    let output_schema_q = output_schema(query, db).map_err(ProvenanceError::Query)?;
    let group_schema = output_schema(&shape.groupby, db).map_err(ProvenanceError::Query)?;
    let Query::GroupBy {
        input,
        group_by,
        aggregates,
        having,
    } = &shape.groupby
    else {
        unreachable!("decompose returns a GroupBy")
    };

    let grouping = match shared.filter(|g| g.matches(input, group_by, aggregates)) {
        Some(shared) => {
            metrics.counter_inc("provenance.aggprov.shared");
            shared.clone()
        }
        None => Arc::new(group(
            input, group_by, aggregates, db, params, interrupt, metrics,
        )?),
    };

    // Resolve the outer projection onto group-schema indices.
    let projection = match &shape.projection {
        Some(items) => items
            .iter()
            .map(|it| match &it.expr {
                Expr::Column(name) => {
                    Expr::resolve_column(&group_schema, name).map_err(ProvenanceError::Query)
                }
                _ => Err(ProvenanceError::UnsupportedAggregateShape(
                    "outer projection over an aggregate must keep plain columns".into(),
                )),
            })
            .collect::<Result<Vec<usize>>>()?,
        None => (0..group_schema.arity()).collect(),
    };
    let resolve = |e: Option<&Expr>| {
        e.map(|e| Scalar::compile(e, &group_schema))
            .transpose()
            .map_err(ProvenanceError::Query)
    };
    let resolved_having = resolve(having.as_ref())?;
    let resolved_outer = resolve(shape.outer_select.as_ref())?;

    metrics.counter_inc("provenance.aggprov.calls");
    metrics.counter_add("provenance.aggprov.groups", grouping.groups.len() as u64);
    metrics.counter_add(
        "provenance.aggprov.members",
        grouping.groups.iter().map(|g| g.members.len() as u64).sum(),
    );

    Ok(AggregateProvenance {
        group_schema,
        output_schema: output_schema_q,
        projection,
        aggregates: aggregates.clone(),
        having: having.clone(),
        outer_having: shape.outer_select,
        grouping,
        resolved_having,
        resolved_outer,
    })
}

/// Annotate `input` and group its rows by `group_by`, evaluating each
/// aggregate's argument per member.
fn group(
    input: &Query,
    group_by: &[String],
    aggregates: &[AggCall],
    db: &Database,
    params: &ParamMap,
    interrupt: &Interrupt,
    metrics: &MetricsHandle,
) -> Result<Grouping> {
    // Annotate the SPJUD core (interruptibly: this is where a flooding join
    // spends its time).
    let annotated = annotate_instrumented(input, db, params, interrupt, metrics)?;
    let input_schema = annotated.schema().clone();
    let group_idx: Vec<usize> = group_by
        .iter()
        .map(|g| Expr::resolve_column(&input_schema, g).map_err(ProvenanceError::Query))
        .collect::<Result<_>>()?;
    let agg_args: Vec<Scalar> = aggregates
        .iter()
        .map(|agg| Scalar::compile(&agg.arg, &input_schema).map_err(ProvenanceError::Query))
        .collect::<Result<_>>()?;
    let (rows, provenance) = annotated.split();

    // Build the groups. The loop is paced as well: group assembly over a
    // huge annotated input is itself linear work that must honour deadlines.
    // Groups are found by the hash of their key columns, read in place; a
    // group with the same hash and another key follows in `next`.
    let pacer = Pacer::new(interrupt);
    let hasher = RandomState::new();
    let hash_key = |row: &[Value]| {
        let mut h = hasher.build_hasher();
        for &i in &group_idx {
            row[i].hash(&mut h);
        }
        h.finish()
    };
    let mut groups: Vec<GroupProvenance> = Vec::new();
    let mut first: HashMap<u64, usize> = HashMap::new();
    let mut next: Vec<Option<usize>> = Vec::new();
    for (row, provenance) in rows.rows().iter().zip(provenance) {
        pacer.tick()?;
        let member = GroupMember {
            agg_args: agg_args
                .iter()
                .map(|arg| arg.eval(row, params))
                .collect::<ratest_ra::Result<_>>()
                .map_err(ProvenanceError::Query)?,
            provenance,
        };
        let hash = hash_key(row);
        let same_key = |gi: usize| {
            let key = &groups[gi].key;
            group_idx.iter().zip(key).all(|(&i, v)| row[i] == *v)
        };
        let mut at = first.get(&hash).copied();
        while let Some(gi) = at.filter(|&gi| !same_key(gi)) {
            at = next[gi];
        }
        match at {
            Some(gi) => {
                let g = &mut groups[gi];
                g.exists.or_assign(member.provenance.clone());
                g.members.push(member);
            }
            None => {
                // Poll unconditionally at every group boundary: the strided
                // pacer above only fires after `Pacer::STRIDE` rows, so an
                // input with many small groups could blow past a mid-flight
                // deadline or quota without a single poll landing.
                interrupt.check()?;
                let gi = groups.len();
                next.push(first.insert(hash, gi));
                groups.push(GroupProvenance {
                    key: group_idx.iter().map(|&i| row[i].clone()).collect(),
                    exists: member.provenance.clone(),
                    members: vec![member],
                });
            }
        }
    }

    let index = GroupIndex::build(&groups);
    Ok(Grouping {
        inner: input.clone(),
        group_by: group_by.to_vec(),
        args: aggregates.iter().map(|agg| agg.arg.clone()).collect(),
        inner_rows: (!input.has_difference()).then_some(rows),
        groups,
        index,
    })
}

/// The decomposed shape of a supported aggregate query.
struct Shape {
    groupby: Query,
    projection: Option<Vec<ProjectItem>>,
    outer_select: Option<Expr>,
}

/// Peel optional `Project` and `Select` operators off the top of an
/// aggregate query until the `GroupBy` is reached.
fn decompose(query: &Query) -> Result<Shape> {
    let mut projection = None;
    let mut outer_select = None;
    let mut cur = query;
    loop {
        match cur {
            Query::Project { input, items } => {
                if projection.is_some() {
                    return Err(ProvenanceError::UnsupportedAggregateShape(
                        "multiple projections above the aggregation".into(),
                    ));
                }
                projection = Some(items.clone());
                cur = input;
            }
            Query::Select { input, predicate } => {
                outer_select = Some(match outer_select {
                    None => predicate.clone(),
                    Some(p) => Expr::and(p, predicate.clone()),
                });
                cur = input;
            }
            Query::GroupBy { .. } => {
                if cur.children()[0].has_aggregates() {
                    return Err(ProvenanceError::UnsupportedAggregateShape(
                        "nested aggregations are not supported by the aggregate annotator".into(),
                    ));
                }
                return Ok(Shape {
                    groupby: cur.clone(),
                    projection,
                    outer_select,
                });
            }
            Query::Difference { .. } => {
                return Err(ProvenanceError::UnsupportedAggregateShape(
                    "difference above an aggregation violates assumption (3) of Section 5".into(),
                ))
            }
            other => {
                return Err(ProvenanceError::UnsupportedAggregateShape(format!(
                    "expected an aggregation under the outer operators, found `{}`",
                    other.operator_name()
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratest_ra::testdata;
    use ratest_storage::TupleSelection;

    fn all_of(db: &Database) -> TupleSelection {
        TupleSelection::all(db)
    }

    #[test]
    fn example5_group_structure_matches_table_2() {
        let db = testdata::figure1_db();
        let prov = aggregate_provenance(&testdata::example5_q1(), &db, &ParamMap::new()).unwrap();
        // Three groups: Mary, John, Jesse.
        assert_eq!(prov.groups().len(), 3);
        let mary = prov.group_by_key(&[Value::from("Mary")]).unwrap();
        // Mary's CS group has two members (courses 216 and 230).
        assert_eq!(mary.members.len(), 2);
        assert_eq!(mary.variables().len(), 3); // t1, t4, t5
                                               // Full instance: Mary fails HAVING count >= 3, Jesse passes.
        let all = all_of(&db);
        let rows = prov.evaluate_selection(&all, &ParamMap::new()).unwrap();
        assert_eq!(rows, vec![vec![Value::from("Jesse"), Value::double(90.0)]]);
    }

    #[test]
    fn the_inner_rows_are_evaluations_rows_when_the_input_has_no_difference() {
        use ratest_ra::builder::rel;
        use ratest_ra::eval::evaluate;

        let db = testdata::figure1_db();
        for query in [
            testdata::example4_q1(),
            testdata::example4_q2(),
            testdata::example5_q2(),
        ] {
            let prov = aggregate_provenance(&query, &db, &ParamMap::new()).unwrap();
            let evaluated = evaluate(prov.inner(), &db).unwrap();
            let rows = prov.inner_rows().expect("a difference-free input");
            assert_eq!(rows.rows(), evaluated.rows());
            assert_eq!(rows.schema(), evaluated.schema());
        }
        // Student − Student keeps every row annotated `s ∧ ¬s`; evaluation
        // keeps none, so the provenance holds no rows for it.
        let q = rel("Student")
            .difference(rel("Student").build())
            .group_by(&["name"], vec![], None)
            .build();
        let prov = aggregate_provenance(&q, &db, &ParamMap::new()).unwrap();
        assert!(prov.inner_rows().is_none());
    }

    #[test]
    fn an_expired_interrupt_stops_aggregate_provenance() {
        use ratest_ra::interrupt::{InterruptHook, Interrupted};
        use std::sync::Arc;

        struct AlwaysExpired;
        impl InterruptHook for AlwaysExpired {
            fn interrupted(&self) -> Option<Interrupted> {
                Some(Interrupted::DeadlineExceeded)
            }
        }

        let db = testdata::figure1_db();
        let interrupt = ratest_ra::interrupt::Interrupt::hooked(Arc::new(AlwaysExpired));
        let err = aggregate_provenance_interruptible(
            &testdata::example5_q1(),
            &db,
            &ParamMap::new(),
            &interrupt,
        )
        .unwrap_err();
        match err {
            ProvenanceError::Query(ratest_ra::QueryError::Interrupted(reason)) => {
                assert_eq!(reason, Interrupted::DeadlineExceeded);
            }
            other => panic!("expected an interrupted error, got {other:?}"),
        }
    }

    #[test]
    fn a_quota_expiring_mid_groups_interrupts_group_assembly() {
        use ratest_ra::interrupt::{InterruptHook, Interrupted};
        use std::sync::atomic::{AtomicU64, Ordering};

        // A step quota counted in polls: the figure-1 instance is far below
        // `Pacer::STRIDE`, so the strided row-loop never polls and only the
        // unconditional per-group checks can observe the expiry. Budget the
        // quota to survive the up-front checks but not all three groups.
        struct ExpiresAfter {
            polls: AtomicU64,
            limit: u64,
        }
        impl InterruptHook for ExpiresAfter {
            fn interrupted(&self) -> Option<Interrupted> {
                if self.polls.fetch_add(1, Ordering::Relaxed) >= self.limit {
                    Some(Interrupted::StepQuotaExhausted)
                } else {
                    None
                }
            }
        }

        let db = testdata::figure1_db();
        let hook = Arc::new(ExpiresAfter {
            polls: AtomicU64::new(0),
            limit: 3,
        });
        let interrupt = ratest_ra::interrupt::Interrupt::hooked(hook.clone());
        let err = aggregate_provenance_interruptible(
            &testdata::example5_q1(),
            &db,
            &ParamMap::new(),
            &interrupt,
        )
        .unwrap_err();
        match err {
            ProvenanceError::Query(ratest_ra::QueryError::Interrupted(reason)) => {
                assert_eq!(reason, Interrupted::StepQuotaExhausted);
            }
            other => panic!("expected an interrupted error, got {other:?}"),
        }
        // The expiry was observed mid-assembly, not by the up-front check.
        assert!(hook.polls.load(Ordering::Relaxed) > 3);
    }

    #[test]
    fn aggprov_telemetry_counts_groups_and_members() {
        let db = testdata::figure1_db();
        let registry = Arc::new(ratest_telemetry::MetricsRegistry::new());
        let metrics = MetricsHandle::new(registry.clone());
        aggregate_provenance_instrumented(
            &testdata::example5_q1(),
            &db,
            &ParamMap::new(),
            &Interrupt::none(),
            &metrics,
        )
        .unwrap();
        let prov = aggregate_provenance(&testdata::example5_q1(), &db, &ParamMap::new()).unwrap();
        let expected_members: u64 = prov.groups().iter().map(|g| g.members.len() as u64).sum();
        assert_eq!(registry.counter("provenance.aggprov.calls"), 1);
        assert_eq!(registry.counter("provenance.aggprov.groups"), 3);
        assert_eq!(
            registry.counter("provenance.aggprov.members"),
            expected_members
        );
        assert!(registry.counter("provenance.annotate.rows") > 0);
    }

    use std::sync::Arc;

    #[test]
    fn example5_q2_returns_mary_and_jesse_on_full_instance() {
        let db = testdata::figure1_db();
        let prov = aggregate_provenance(&testdata::example5_q2(), &db, &ParamMap::new()).unwrap();
        let all = all_of(&db);
        let rows = prov.evaluate_selection(&all, &ParamMap::new()).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.contains(&vec![Value::from("Mary"), Value::double(90.0)]));
    }

    #[test]
    fn evaluation_under_subinstance_changes_aggregates() {
        // Example 4's challenge: removing Mary's ECON registration changes
        // Q2's average for Mary from 90 to 87.5.
        let db = testdata::figure1_db();
        let prov = aggregate_provenance(&testdata::example4_q2(), &db, &ParamMap::new()).unwrap();
        let econ = TupleId {
            relation: 1,
            row: 2,
        };
        let all = all_of(&db);
        let without_econ = TupleSelection::from_ids(all.iter().filter(|&id| id != econ));
        let rows = prov
            .evaluate_selection(&without_econ, &ParamMap::new())
            .unwrap();
        assert!(rows.contains(&vec![Value::from("Mary"), Value::double(87.5)]));
        // And keeping only the ECON registration yields 95 — the paper's
        // single-tuple counterexample C = {(Mary, 208D, ECON, 95)} plus Mary.
        let only_econ =
            TupleSelection::from_ids(all.iter().filter(|&id| id.relation == 0 || id == econ));
        let rows = prov
            .evaluate_selection(&only_econ, &ParamMap::new())
            .unwrap();
        assert!(rows.contains(&vec![Value::from("Mary"), Value::double(95.0)]));
    }

    #[test]
    fn parameterized_having_is_kept_symbolic() {
        let db = testdata::figure1_db();
        let prov = aggregate_provenance(&testdata::example6_q1(), &db, &ParamMap::new()).unwrap();
        let all = all_of(&db);
        let mut p = ParamMap::new();
        p.insert("numCS".into(), Value::Int(3));
        let rows = prov.evaluate_selection(&all, &p).unwrap();
        assert_eq!(rows.len(), 1);
        p.insert("numCS".into(), Value::Int(1));
        let rows = prov.evaluate_selection(&all, &p).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn consistency_with_plain_evaluation() {
        let db = testdata::figure1_db();
        let all = all_of(&db);
        for q in [
            testdata::example4_q1(),
            testdata::example4_q2(),
            testdata::example5_q1(),
            testdata::example5_q2(),
        ] {
            let prov = aggregate_provenance(&q, &db, &ParamMap::new()).unwrap();
            let via_prov = prov.evaluate_selection(&all, &ParamMap::new()).unwrap();
            let direct = ratest_ra::eval::evaluate(&q, &db).unwrap();
            assert_eq!(via_prov.len(), direct.len(), "query {q:?}");
            for row in &via_prov {
                assert!(direct.contains(row));
            }
        }
    }

    #[test]
    fn unsupported_shapes_are_rejected() {
        let db = testdata::figure1_db();
        // Difference above an aggregate.
        let q = Query::Difference {
            left: std::sync::Arc::new(testdata::example4_q1()),
            right: std::sync::Arc::new(testdata::example4_q2()),
        };
        assert!(matches!(
            aggregate_provenance(&q, &db, &ParamMap::new()),
            Err(ProvenanceError::UnsupportedAggregateShape(_))
        ));
        // No aggregation at all.
        assert!(aggregate_provenance(&testdata::example1_q1(), &db, &ParamMap::new()).is_err());
    }
}
