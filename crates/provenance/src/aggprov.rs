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

use crate::annotate::annotate_instrumented;
use crate::boolexpr::BoolExpr;
use crate::error::{ProvenanceError, Result};
use ratest_ra::ast::{AggCall, ProjectItem, Query};
use ratest_ra::eval::compute_aggregate;
use ratest_ra::expr::{Expr, ParamMap};
use ratest_ra::interrupt::{Interrupt, Pacer};
use ratest_ra::typecheck::output_schema;
use ratest_storage::{Database, Schema, TupleId, TupleSelection, Value};
use ratest_telemetry::MetricsHandle;
use std::collections::{BTreeSet, HashMap};

/// One member of a group: the provenance of the contributing input tuple and
/// the values of every aggregate argument for that tuple.
#[derive(Debug, Clone)]
pub struct GroupMember {
    /// How-provenance of the contributing (joined) input tuple.
    pub provenance: BoolExpr,
    /// One value per aggregate call, in the order of
    /// [`GroupProvenance::aggregates`].
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
    /// The aggregate calls (aliases + functions) computed for the group.
    pub aggregates: Vec<AggCall>,
    /// The HAVING predicate (over group key + aggregate aliases), if any.
    pub having: Option<Expr>,
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

    /// Recompute the aggregate output values of this group for the
    /// sub-instance described by `present`, returning `None` when the group
    /// is empty (does not exist) or fails its HAVING predicate.
    ///
    /// `schema` is the group-by output schema (key columns then aggregate
    /// aliases) and `params` supplies values for `@parameters` in HAVING.
    pub fn evaluate_under<F: Fn(TupleId) -> bool>(
        &self,
        schema: &Schema,
        present: &F,
        params: &ParamMap,
    ) -> Result<Option<Vec<Value>>> {
        let live: Vec<&GroupMember> = self
            .members
            .iter()
            .filter(|m| m.provenance.eval(present))
            .collect();
        if live.is_empty() {
            return Ok(None);
        }
        let mut row = self.key.clone();
        for (i, agg) in self.aggregates.iter().enumerate() {
            let args: Vec<Value> = live.iter().map(|m| m.agg_args[i].clone()).collect();
            row.push(compute_aggregate(agg.func, &args).map_err(ProvenanceError::Query)?);
        }
        if let Some(h) = &self.having {
            if !h
                .eval_predicate(schema, &row, params)
                .map_err(ProvenanceError::Query)?
            {
                return Ok(None);
            }
        }
        Ok(Some(row))
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
    /// The (inner) SPJUD query feeding the aggregation — `Q'` in Algorithm 3.
    pub inner: Query,
    /// Additional selection applied *above* the aggregation (outer σ), if any.
    pub outer_having: Option<Expr>,
    /// Per-group provenance (read-only: `index` is built from it).
    groups: Vec<GroupProvenance>,
    /// The group structure, indexed once when the provenance is built.
    index: GroupIndex,
}

/// Lookups over [`AggregateProvenance::groups`], built once so that neither
/// the theory check nor the candidate ordering rescans every group.
#[derive(Debug, Clone)]
struct GroupIndex {
    /// Group key → position in `groups`.
    by_key: HashMap<Vec<Value>, usize>,
    /// Per group, [`GroupProvenance::variables`].
    variables: Vec<BTreeSet<TupleId>>,
    /// Tuple → the groups whose provenance mentions it, ascending.
    by_tuple: HashMap<TupleId, Vec<usize>>,
    /// Groups with a member whose provenance holds on the empty
    /// sub-instance, ascending. Only a negation allows that: the
    /// annotator's provenance always needs some base tuple, but
    /// [`AggregateProvenance::new`] accepts any group.
    live_when_empty: Vec<usize>,
}

impl GroupIndex {
    fn build(groups: &[GroupProvenance]) -> GroupIndex {
        let by_key = groups
            .iter()
            .enumerate()
            .map(|(gi, g)| (g.key.clone(), gi))
            .collect();
        let variables: Vec<BTreeSet<TupleId>> =
            groups.iter().map(GroupProvenance::variables).collect();
        let mut by_tuple: HashMap<TupleId, Vec<usize>> = HashMap::new();
        for (gi, vars) in variables.iter().enumerate() {
            for &id in vars {
                by_tuple.entry(id).or_default().push(gi);
            }
        }
        let nothing = |_: TupleId| false;
        let live_when_empty = groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.members.iter().any(|m| m.provenance.eval(&nothing)))
            .map(|(gi, _)| gi)
            .collect();
        GroupIndex {
            by_key,
            variables,
            by_tuple,
            live_when_empty,
        }
    }
}

impl AggregateProvenance {
    /// Assemble the provenance of an aggregate query from its parts and
    /// index its groups. `groups` must have pairwise distinct keys.
    pub fn new(
        group_schema: Schema,
        output_schema: Schema,
        projection: Vec<usize>,
        groups: Vec<GroupProvenance>,
        inner: Query,
        outer_having: Option<Expr>,
    ) -> AggregateProvenance {
        let index = GroupIndex::build(&groups);
        AggregateProvenance {
            group_schema,
            output_schema,
            projection,
            inner,
            outer_having,
            groups,
            index,
        }
    }

    /// Per-group provenance, in the order the groups first appear in the
    /// annotated aggregation input.
    pub fn groups(&self) -> &[GroupProvenance] {
        &self.groups
    }

    /// The groups that can yield a row on the sub-instance `selection`, in
    /// ascending order: those whose provenance mentions a selected tuple,
    /// plus those live on the empty sub-instance. Any other group's member
    /// provenance evaluates as on the empty sub-instance, where none holds,
    /// so the group is empty and yields nothing.
    pub fn groups_under(&self, selection: &TupleSelection) -> Vec<usize> {
        let mut out = self.index.live_when_empty.clone();
        for id in selection.iter() {
            if let Some(groups) = self.index.by_tuple.get(&id) {
                out.extend_from_slice(groups);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Evaluate the aggregate query on the sub-instance `selection`,
    /// producing the set of final output rows. This is the "theory check"
    /// used by the lazy solving loop: it re-evaluates only
    /// [`AggregateProvenance::groups_under`] the selection, so its cost
    /// follows the candidate, not the instance.
    pub fn evaluate_selection(
        &self,
        selection: &TupleSelection,
        params: &ParamMap,
    ) -> Result<Vec<Vec<Value>>> {
        self.evaluate_groups(&self.groups_under(selection), selection, params)
    }

    /// [`AggregateProvenance::evaluate_selection`] for a caller that already
    /// holds `groups_under(selection)` (e.g. to try several parameter
    /// settings on one candidate). Rows come out in group order, without
    /// duplicates.
    pub fn evaluate_groups(
        &self,
        groups: &[usize],
        selection: &TupleSelection,
        params: &ParamMap,
    ) -> Result<Vec<Vec<Value>>> {
        let present = |id| selection.contains(id);
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &gi in groups {
            let g = &self.groups[gi];
            if let Some(row) = g.evaluate_under(&self.group_schema, &present, params)? {
                if let Some(h) = &self.outer_having {
                    if !h
                        .eval_predicate(&self.group_schema, &row, params)
                        .map_err(ProvenanceError::Query)?
                    {
                        continue;
                    }
                }
                let projected: Vec<Value> =
                    self.projection.iter().map(|&i| row[i].clone()).collect();
                if seen.insert(projected.clone()) {
                    out.push(projected);
                }
            }
        }
        Ok(out)
    }

    /// All tuple variables appearing anywhere in the provenance.
    pub fn variables(&self) -> BTreeSet<TupleId> {
        self.index.variables.iter().flatten().copied().collect()
    }

    /// The group with the given key, if any.
    pub fn group_by_key(&self, key: &[Value]) -> Option<&GroupProvenance> {
        self.index.by_key.get(key).map(|&gi| &self.groups[gi])
    }

    /// Number of tuple variables of the group with the given key (zero when
    /// there is no such group).
    pub fn group_var_count(&self, key: &[Value]) -> usize {
        self.index
            .by_key
            .get(key)
            .map_or(0, |&gi| self.index.variables[gi].len())
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
    // Fail fast when the hook is already raised (e.g. an expired deadline):
    // the strided pacer below only polls after a full stride of work, which a
    // small input may never reach.
    interrupt.check()?;
    let shape = decompose(query)?;
    let output_schema_q = output_schema(query, db).map_err(ProvenanceError::Query)?;
    let group_schema = output_schema(&shape.groupby, db).map_err(ProvenanceError::Query)?;

    let (input, group_by, aggregates, having) = match &shape.groupby {
        Query::GroupBy {
            input,
            group_by,
            aggregates,
            having,
        } => (
            input.as_ref().clone(),
            group_by.clone(),
            aggregates.clone(),
            having.clone(),
        ),
        _ => unreachable!("decompose returns a GroupBy"),
    };

    // Annotate the SPJUD core (interruptibly: this is where a flooding join
    // spends its time).
    let annotated = annotate_instrumented(&input, db, params, interrupt, metrics)?;
    let input_schema = annotated.schema().clone();
    let group_idx: Vec<usize> = group_by
        .iter()
        .map(|g| Expr::resolve_column(&input_schema, g).map_err(ProvenanceError::Query))
        .collect::<Result<_>>()?;

    // Build the groups. The loop is paced as well: group assembly over a
    // huge annotated input is itself linear work that must honour deadlines.
    let pacer = Pacer::new(interrupt);
    let mut groups: Vec<GroupProvenance> = Vec::new();
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    for (row, provenance) in annotated.iter() {
        pacer.tick()?;
        let key: Vec<Value> = group_idx.iter().map(|&i| row[i].clone()).collect();
        let mut agg_args = Vec::with_capacity(aggregates.len());
        for agg in &aggregates {
            agg_args.push(
                agg.arg
                    .eval(&input_schema, row, params)
                    .map_err(ProvenanceError::Query)?,
            );
        }
        let member = GroupMember {
            provenance: provenance.clone(),
            agg_args,
        };
        match index.get(&key) {
            Some(&gi) => {
                let g = &mut groups[gi];
                g.exists = BoolExpr::or2(g.exists.clone(), provenance.clone());
                g.members.push(member);
            }
            None => {
                // Poll unconditionally at every group boundary: the strided
                // pacer above only fires after `Pacer::STRIDE` rows, so an
                // input with many small groups could blow past a mid-flight
                // deadline or quota without a single poll landing.
                interrupt.check()?;
                index.insert(key.clone(), groups.len());
                groups.push(GroupProvenance {
                    key,
                    exists: provenance.clone(),
                    members: vec![member],
                    aggregates: aggregates.clone(),
                    having: having.clone(),
                });
            }
        }
    }

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

    metrics.counter_inc("provenance.aggprov.calls");
    metrics.counter_add("provenance.aggprov.groups", groups.len() as u64);
    metrics.counter_add(
        "provenance.aggprov.members",
        groups.iter().map(|g| g.members.len() as u64).sum(),
    );

    Ok(AggregateProvenance::new(
        group_schema,
        output_schema_q,
        projection,
        groups,
        input,
        shape.outer_select,
    ))
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
