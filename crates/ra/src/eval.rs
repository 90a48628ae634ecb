//! Set-semantics evaluation of compiled query [`Plan`]s over a
//! [`Database`], plain or annotated.
//!
//! One executor, [`execute`], runs a plan for both jobs. It is generic over
//! the [`Annotation`] each row carries: `()` for plain evaluation, and a
//! Boolean how-provenance formula (`ratest_provenance::BoolExpr`) for the
//! annotated evaluation that stands in for the provenance-rewritten queries
//! of Section 6 of the paper. The executor is deliberately simple — hash
//! joins for equality conjuncts, nested loops otherwise, hash-based
//! duplicate elimination and grouping — because RATest only needs correct
//! set-semantics answers and predictable relative costs; it is the substrate
//! replacing the SQL Server backend of the original prototype.
//!
//! Rows are read in place wherever an operator does not keep them:
//! selections, joins, projections and groupings over a scan read its base
//! tuples, a left-deep chain of joins streams each joined row into the next
//! join without copying it, and a selection or projection fused into a join
//! reads the joined row before anything of it is copied. The entry points
//! that take a [`Query`] compile it first ([`Plan::compile`]); a caller that
//! runs one query many times compiles it once and calls [`evaluate_plan`].

use crate::ast::{AggFunc, Query};
use crate::error::{QueryError, Result};
use crate::expr::ParamMap;
use crate::interrupt::{Interrupt, Pacer};
use crate::plan::{Node, Op, Plan, Row, View};
use ratest_storage::hash::RowHashBuilder;
use ratest_storage::{Database, RowIndex, Schema, Tuple, TupleId, Value};
use ratest_telemetry::MetricsHandle;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

/// Parameter bindings passed to [`evaluate_with_params`].
pub type Params = ParamMap;

/// What [`execute`] carries alongside every row: how the row was derived.
///
/// Scans give each base tuple its own annotation, joins combine two with
/// [`Annotation::and`], and a duplicate derivation of a row is merged in with
/// [`Annotation::or`]. A row whose annotation [`Annotation::is_false`] can
/// never be derived and is skipped.
pub trait Annotation: Clone {
    /// The annotation of a base tuple.
    fn base(id: TupleId) -> Self;
    /// The annotation of a row joined from rows annotated `self` and `other`.
    fn and(&self, other: &Self) -> Self;
    /// Merge in the annotation of another derivation of the same row.
    fn or(&mut self, other: Self);
    /// The annotation of a row of `R − S` annotated `self` in `R` that `S`
    /// derives as well, annotated `other`; `None` drops the row.
    fn minus(&self, other: &Self) -> Option<Self>;
    /// Whether the annotation says the row is never derived.
    fn is_false(&self) -> bool;
    /// The annotation of a `GroupBy` output row, or `None` when aggregate
    /// values have no meaning under this annotation: the executor then
    /// refuses the node with [`QueryError::AnnotatedGroupBy`].
    fn aggregate() -> Option<Self>;
}

/// Plain evaluation: every row present is derived, and a difference drops
/// every row its right side has.
impl Annotation for () {
    fn base(_: TupleId) {}
    fn and(&self, _: &()) {}
    fn or(&mut self, _: ()) {}
    fn minus(&self, _: &()) -> Option<()> {
        None
    }
    fn is_false(&self) -> bool {
        false
    }
    fn aggregate() -> Option<()> {
        Some(())
    }
}

/// The output of [`execute`]: an output schema plus a *set* of value rows
/// (no duplicates, insertion order preserved for readability), each with
/// its annotation. The annotations sit in a parallel vector, which for `()`
/// takes no memory. Lookups go through a [`RowIndex`] of row positions,
/// built on first use, so each row is stored once and a result that is only
/// iterated never hashes its rows.
#[derive(Debug, Clone)]
pub struct Annotated<A> {
    schema: Schema,
    rows: Vec<Vec<Value>>,
    annotations: Vec<A>,
    index: OnceLock<RowIndex>,
}

/// The result of evaluating a query.
pub type ResultSet = Annotated<()>;

/// Equal schemas and equal rows with equal annotations, in the same order.
impl<A: PartialEq> PartialEq for Annotated<A> {
    fn eq(&self, other: &Annotated<A>) -> bool {
        self.schema == other.schema
            && self.rows == other.rows
            && self.annotations == other.annotations
    }
}

impl<A: Annotation> Annotated<A> {
    /// An empty result with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Annotated {
            schema,
            rows: Vec::new(),
            annotations: Vec::new(),
            index: OnceLock::new(),
        }
    }

    /// Add a derivation of `row`. A new row is appended; the annotation of a
    /// row already present is merged with [`Annotation::or`]. A derivation
    /// whose annotation [`Annotation::is_false`] is skipped. Returns whether
    /// the row was appended.
    pub fn add(&mut self, row: Vec<Value>, annotation: A) -> bool {
        if annotation.is_false() {
            return false;
        }
        self.index();
        let rows = &self.rows;
        let pos = u32::try_from(rows.len()).expect("a result set holds fewer than 2^32 rows");
        let index = self.index.get_mut().expect("built above");
        match index.insert(&row, pos, |i| &rows[i as usize]) {
            Ok(()) => {
                self.rows.push(row);
                self.annotations.push(annotation);
                true
            }
            Err(equal) => {
                self.annotations[equal as usize].or(annotation);
                false
            }
        }
    }

    /// Append a row the caller knows is not present yet (e.g. a row of a
    /// join of two sets), skipping it when its annotation is false.
    fn push_new(&mut self, row: Vec<Value>, annotation: A) {
        if annotation.is_false() {
            return;
        }
        self.index.take();
        self.rows.push(row);
        self.annotations.push(annotation);
    }

    /// Release spare capacity, and the lookup index until the next lookup:
    /// for results kept long after they are computed.
    pub fn shrink_to_fit(&mut self) {
        for row in &mut self.rows {
            row.shrink_to_fit();
        }
        self.rows.shrink_to_fit();
        self.annotations.shrink_to_fit();
        self.index.take();
    }

    /// The output schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The rows, in first-derivation order.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// The rows with their annotations, in first-derivation order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Value], &A)> {
        self.rows.iter().map(Vec::as_slice).zip(&self.annotations)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether the result contains a row.
    pub fn contains(&self, row: &[Value]) -> bool {
        self.provenance_of(row).is_some()
    }

    /// The annotation of a row — its provenance — if the row is present.
    pub fn provenance_of(&self, row: &[Value]) -> Option<&A> {
        let pos = self.index().find(row, |i| &self.rows[i as usize])?;
        Some(&self.annotations[pos as usize])
    }

    /// The index of the rows' positions, built on first use.
    fn index(&self) -> &RowIndex {
        self.index
            .get_or_init(|| RowIndex::build(self.rows.len(), |i| &self.rows[i as usize]))
    }

    /// The rows without their annotations, as [`evaluate`] would return
    /// them: [`execute`] derives the same rows in the same order whatever
    /// the annotation.
    pub fn into_result_set(self) -> ResultSet {
        self.split().0
    }

    /// The rows without their annotations ([`Annotated::into_result_set`]),
    /// and the annotations, by value, in row order.
    pub fn split(self) -> (ResultSet, Vec<A>) {
        let rows = Annotated {
            schema: self.schema,
            annotations: vec![(); self.rows.len()],
            rows: self.rows,
            index: self.index,
        };
        (rows, self.annotations)
    }

    /// The rows with their annotations, by value.
    fn into_parts(self) -> impl Iterator<Item = (Vec<Value>, A)> {
        self.rows.into_iter().zip(self.annotations)
    }
}

impl ResultSet {
    /// Create a result set from rows, removing duplicates.
    pub fn from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Self {
        let mut rs = ResultSet::empty(schema);
        for r in rows {
            rs.push(r);
        }
        rs
    }

    /// Insert a row if not already present. Returns true if inserted.
    pub fn push(&mut self, row: Vec<Value>) -> bool {
        self.add(row, ())
    }

    /// Rows present in `self` but not in `other` (set difference by value).
    pub fn difference(&self, other: &ResultSet) -> Vec<Vec<Value>> {
        self.rows
            .iter()
            .filter(|r| !other.contains(r))
            .cloned()
            .collect()
    }

    /// Whether two results are equal *as sets* (schema names ignored).
    pub fn set_eq(&self, other: &ResultSet) -> bool {
        self.len() == other.len() && self.rows.iter().all(|r| other.contains(r))
    }

    /// Symmetric difference size — used by experiment harnesses as a quick
    /// "how different are these two answers" measure.
    pub fn symmetric_difference_size(&self, other: &ResultSet) -> usize {
        self.difference(other).len() + other.difference(self).len()
    }
}

/// Evaluate a parameter-free query.
pub fn evaluate(query: &Query, db: &Database) -> Result<ResultSet> {
    evaluate_with_params(query, db, &Params::new())
}

/// Evaluate a query with parameter bindings.
pub fn evaluate_with_params(query: &Query, db: &Database, params: &Params) -> Result<ResultSet> {
    evaluate_interruptible(query, db, params, &Interrupt::none())
}

/// Evaluate a query with parameter bindings under a cooperative
/// [`Interrupt`]: the inner row loops poll the hook every
/// [`Pacer::STRIDE`] rows, so a single long evaluation (a flooding join, a
/// huge grouping) stops within a bounded amount of work of the hook being
/// raised instead of running to completion. A hookless interrupt costs one
/// decrement per row.
pub fn evaluate_interruptible(
    query: &Query,
    db: &Database,
    params: &Params,
    interrupt: &Interrupt,
) -> Result<ResultSet> {
    evaluate_instrumented(query, db, params, interrupt, &MetricsHandle::none())
}

/// [`evaluate_interruptible`] plus telemetry: after the run (successful or
/// not) the pacer's work counters are folded into `metrics` as
/// `ra.eval.rows_scanned`, `ra.eval.batches` and `ra.eval.interrupt_polls`.
/// An inert handle records nothing and costs nothing on the row path.
pub fn evaluate_instrumented(
    query: &Query,
    db: &Database,
    params: &Params,
    interrupt: &Interrupt,
    metrics: &MetricsHandle,
) -> Result<ResultSet> {
    paced(interrupt, metrics, |pacer| {
        execute(&Plan::compile(query, db)?, db, params, pacer)
    })
}

/// [`evaluate_instrumented`] for a query compiled once, e.g. against the
/// instance whose sub-instances it is run on.
pub fn evaluate_plan(
    plan: &Plan,
    db: &Database,
    params: &Params,
    interrupt: &Interrupt,
    metrics: &MetricsHandle,
) -> Result<ResultSet> {
    paced(interrupt, metrics, |pacer| execute(plan, db, params, pacer))
}

/// Run `run` on one pacer for the whole tree (the stride counts global
/// work), then fold its counters into `metrics`.
fn paced(
    interrupt: &Interrupt,
    metrics: &MetricsHandle,
    run: impl FnOnce(&Pacer) -> Result<ResultSet>,
) -> Result<ResultSet> {
    let pacer = Pacer::new(interrupt);
    let result = run(&pacer);
    metrics.counter_inc("ra.eval.calls");
    metrics.counter_add("ra.eval.rows_scanned", pacer.work());
    metrics.counter_add("ra.eval.batches", pacer.batches());
    metrics.counter_add("ra.eval.interrupt_polls", pacer.polls());
    result
}

/// Run `plan` over `db` with every row annotated by `A`. The pacer counts
/// one batch per operator and one tick per row an operator loop visits
/// (scans and renames visit none), and polls its interrupt every
/// [`Pacer::STRIDE`] ticks.
pub fn execute<A: Annotation>(
    plan: &Plan,
    db: &Database,
    params: &Params,
    pacer: &Pacer,
) -> Result<Annotated<A>> {
    let root = plan.root();
    Ok(run(root, db, params, pacer)?.into_annotated(&root.schema))
}

/// What an operator hands its parent: base tuples read in place, or rows of
/// its own.
enum Rows<'d, A> {
    /// Tuples of a base relation (a scan, possibly renamed or filtered),
    /// each annotated [`Annotation::base`].
    Base(Vec<&'d Tuple>),
    Owned(Annotated<A>),
}

impl<'d, A: Annotation> Rows<'d, A> {
    fn len(&self) -> usize {
        match self {
            Rows::Base(tuples) => tuples.len(),
            Rows::Owned(out) => out.len(),
        }
    }

    fn row(&self, i: usize) -> &[Value] {
        match self {
            Rows::Base(tuples) => &tuples[i].values,
            Rows::Owned(out) => &out.rows[i],
        }
    }

    fn annotation(&self, i: usize) -> Cow<'_, A> {
        match self {
            Rows::Base(tuples) => Cow::Owned(base_annotation(tuples[i])),
            Rows::Owned(out) => Cow::Borrowed(&out.annotations[i]),
        }
    }

    /// The rows with their annotations, by value; base rows stay borrowed.
    fn into_rows(self) -> impl Iterator<Item = (Cow<'d, [Value]>, A)> {
        let (base, owned) = match self {
            Rows::Base(tuples) => (Some(tuples), None),
            Rows::Owned(out) => (None, Some(out)),
        };
        let base = base
            .into_iter()
            .flatten()
            .map(|t| (Cow::Borrowed(&t.values[..]), base_annotation(t)));
        let owned = owned
            .into_iter()
            .flat_map(Annotated::into_parts)
            .map(|(row, a)| (Cow::Owned(row), a));
        base.chain(owned)
    }

    /// A result with `schema`, copying base rows.
    fn into_annotated(self, schema: &Schema) -> Annotated<A> {
        match self {
            Rows::Owned(out) => out,
            Rows::Base(tuples) => Annotated {
                schema: schema.clone(),
                rows: tuples.iter().map(|t| t.values.to_vec()).collect(),
                annotations: tuples.iter().map(|t| base_annotation(t)).collect(),
                index: OnceLock::new(),
            },
        }
    }
}

fn base_annotation<A: Annotation>(t: &Tuple) -> A {
    A::base(t.id.expect("base tuples carry ids"))
}

/// The hash of a row's values in the `keys` slots.
fn key_hash(row: &View<'_>, keys: &[usize]) -> u64 {
    let mut hasher = RowHashBuilder::default().build_hasher();
    for &k in keys {
        row.at(k).hash(&mut hasher);
    }
    hasher.finish()
}

/// Whether `left`'s values in `left_keys` equal `right`'s in `right_keys`.
fn keys_equal(left: &View<'_>, left_keys: &[usize], right: &[Value], right_keys: &[usize]) -> bool {
    left_keys
        .iter()
        .zip(right_keys)
        .all(|(&a, &b)| *left.at(a) == right[b])
}

/// Run one plan node. Every operator's output is a set, so only projections
/// and unions need a duplicate check.
fn run<'d, A: Annotation>(
    node: &Node,
    db: &'d Database,
    params: &Params,
    pacer: &Pacer,
) -> Result<Rows<'d, A>> {
    pacer.note_batch();
    let mut out = Annotated::empty(node.schema.clone());
    match &node.op {
        Op::Scan { relation } => {
            let rel = db.relation(relation)?;
            if rel.schema() != &node.schema {
                return Err(QueryError::PlanMismatch {
                    relation: relation.to_string(),
                });
            }
            return Ok(Rows::Base(rel.iter().collect()));
        }
        Op::Select { input, predicate } => match run::<A>(input, db, params, pacer)? {
            Rows::Base(tuples) => {
                let mut kept = Vec::new();
                for t in tuples {
                    pacer.tick()?;
                    if predicate.holds(&t.values, params)? {
                        kept.push(t);
                    }
                }
                return Ok(Rows::Base(kept));
            }
            Rows::Owned(rows) => {
                for (row, annotation) in rows.into_parts() {
                    pacer.tick()?;
                    if predicate.holds(&row, params)? {
                        out.push_new(row, annotation);
                    }
                }
            }
        },
        Op::Project { input, items } => {
            for (row, annotation) in run::<A>(input, db, params, pacer)?.into_rows() {
                pacer.tick()?;
                let mut projected = Vec::with_capacity(items.len());
                for item in items {
                    projected.push(item.eval(&row, params)?);
                }
                out.add(projected, annotation);
            }
        }
        Op::Join { project, .. } => {
            join::<A>(node, db, params, pacer, &mut |row, annotation| {
                match project {
                    None => out.push_new(row.to_vec(), annotation),
                    Some(items) => {
                        pacer.tick()?;
                        let mut projected = Vec::with_capacity(items.len());
                        for item in items {
                            projected.push(item.eval_in(row, params)?.into_owned());
                        }
                        out.add(projected, annotation);
                    }
                }
                Ok(())
            })?;
        }
        Op::Union { left, right } => {
            let l = run::<A>(left, db, params, pacer)?;
            let r = run::<A>(right, db, params, pacer)?;
            for (row, annotation) in l.into_rows().chain(r.into_rows()) {
                pacer.tick()?;
                out.add(row.into_owned(), annotation);
            }
        }
        Op::Difference { left, right } => {
            let l = run::<A>(left, db, params, pacer)?;
            let r = run::<A>(right, db, params, pacer)?.into_annotated(&right.schema);
            for (row, annotation) in l.into_rows() {
                pacer.tick()?;
                if let Some(kept) = subtract(&row, annotation, &r) {
                    out.push_new(row.into_owned(), kept);
                }
            }
        }
        Op::Rename { input } => {
            return Ok(match run::<A>(input, db, params, pacer)? {
                Rows::Base(tuples) => Rows::Base(tuples),
                Rows::Owned(renamed) => Rows::Owned(Annotated {
                    schema: node.schema.clone(),
                    ..renamed
                }),
            });
        }
        Op::GroupBy {
            input,
            keys,
            aggregates,
            having,
        } => {
            let Some(annotation) = A::aggregate() else {
                return Err(QueryError::AnnotatedGroupBy);
            };
            let inp = run::<A>(input, db, params, pacer)?;
            // Group rows, in order of first appearance.
            let mut positions: HashMap<Vec<&Value>, usize, RowHashBuilder> = HashMap::default();
            let mut groups: Vec<(Vec<&Value>, Vec<usize>)> = Vec::new();
            let mut key: Vec<&Value> = Vec::with_capacity(keys.len());
            for i in 0..inp.len() {
                pacer.tick()?;
                let row = inp.row(i);
                key.clear();
                key.extend(keys.iter().map(|&k| &row[k]));
                match positions.get(key.as_slice()) {
                    Some(&g) => groups[g].1.push(i),
                    None => {
                        positions.insert(key.clone(), groups.len());
                        groups.push((key.clone(), vec![i]));
                    }
                }
            }
            // A global aggregate over an empty input still produces no row
            // under set/RA semantics used by the paper's interpreter.
            for (key, members) in groups {
                let mut output_row: Vec<Value> = key.into_iter().cloned().collect();
                for (func, arg) in aggregates {
                    let mut args = Vec::with_capacity(members.len());
                    for &i in &members {
                        pacer.tick()?;
                        args.push(arg.eval(inp.row(i), params)?);
                    }
                    output_row.push(compute_aggregate(*func, &args)?);
                }
                let keep = match having {
                    Some(h) => h.holds(&output_row, params)?,
                    None => true,
                };
                if keep {
                    out.push_new(output_row, annotation.clone());
                }
            }
        }
    }
    Ok(Rows::Owned(out))
}

/// Run the join `node`, passing each joined row that passes its predicate
/// and fused selection, with its annotation, to `emit` (its fused
/// projection is the caller's). A left input that is itself a join without
/// a projection streams its rows into this one as it makes them, so a
/// left-deep chain of joins copies no row before its last one: the right
/// input is run first, to build the hash table the left rows probe.
fn join<'d, A: Annotation>(
    node: &Node,
    db: &'d Database,
    params: &Params,
    pacer: &Pacer,
    emit: &mut dyn FnMut(&View<'_>, A) -> Result<()>,
) -> Result<()> {
    let Op::Join {
        left,
        right,
        keys,
        predicate,
        select,
        project,
    } = &node.op
    else {
        unreachable!("only joins stream their rows")
    };
    // The fused selection and projection are operators of their own.
    if select.is_some() {
        pacer.note_batch();
    }
    if project.is_some() {
        pacer.note_batch();
    }
    let chained = matches!(left.op, Op::Join { project: None, .. });
    let l = if chained {
        None
    } else {
        Some(run::<A>(left, db, params, pacer)?)
    };
    let r = run::<A>(right, db, params, pacer)?;
    // For a hash join, the right rows by key hash, each hash chaining its
    // rows in ascending order.
    let mut heads: HashMap<u64, usize, RowHashBuilder> = HashMap::default();
    let mut next = vec![usize::MAX; if keys.is_some() { r.len() } else { 0 }];
    if let Some(keys) = keys {
        for j in (0..r.len()).rev() {
            let hash = key_hash(&View::of(r.row(j)), &keys.right);
            next[j] = heads.insert(hash, j).unwrap_or(usize::MAX);
        }
    }
    // One right row joined to the left row `lrow`.
    let mut pair = |lrow: &View<'_>, la: &A, j: usize| -> Result<()> {
        let row = lrow.then(r.row(j));
        if let Some(predicate) = predicate {
            if !predicate.holds_in(&row, params)? {
                return Ok(());
            }
        }
        if let Some(select) = select {
            pacer.tick()?;
            if !select.holds_in(&row, params)? {
                return Ok(());
            }
        }
        emit(&row, la.and(&r.annotation(j)))
    };
    let mut probe = |lrow: &View<'_>, la: &A| -> Result<()> {
        match keys {
            Some(keys) => {
                pacer.tick()?;
                let mut chain = match heads.get(&key_hash(lrow, &keys.left)) {
                    Some(&head) => head,
                    None => usize::MAX,
                };
                while chain != usize::MAX {
                    let j = chain;
                    chain = next[j];
                    if keys_equal(lrow, &keys.left, r.row(j), &keys.right) {
                        pacer.tick()?;
                        pair(lrow, la, j)?;
                    }
                }
            }
            None => {
                for j in 0..r.len() {
                    pacer.tick()?;
                    pair(lrow, la, j)?;
                }
            }
        }
        Ok(())
    };
    match l {
        Some(l) => {
            for i in 0..l.len() {
                probe(&View::of(l.row(i)), &l.annotation(i))?;
            }
        }
        None => {
            pacer.note_batch();
            join::<A>(left, db, params, pacer, &mut |lrow, la| probe(lrow, &la))?;
        }
    }
    Ok(())
}

/// The annotation a row of `R − S` keeps, given its annotation in `R` and
/// the rows of `S`; `None` drops it.
fn subtract<A: Annotation>(row: &[Value], annotation: A, right: &Annotated<A>) -> Option<A> {
    match right.provenance_of(row) {
        Some(other) => annotation.minus(other),
        None => Some(annotation),
    }
}

/// The `Difference` arm of [`execute`]: each row of `left` that `right`
/// lacks keeps its annotation, and each row both derive is annotated by
/// [`Annotation::minus`] (or dropped). Batch grading calls it directly to
/// combine two annotations computed once each. The inputs must be union
/// compatible; rows are matched by value, position by position.
pub fn difference_of<A: Annotation>(
    left: &Annotated<A>,
    right: &Annotated<A>,
    pacer: &Pacer,
) -> Result<Annotated<A>> {
    check_union_compat(left.schema(), right.schema())?;
    let mut out = Annotated::empty(left.schema().clone());
    for (row, annotation) in left.iter() {
        pacer.tick()?;
        if let Some(kept) = subtract(row, annotation.clone(), right) {
            out.push_new(row.to_vec(), kept);
        }
    }
    Ok(out)
}

/// Compute an aggregate over the argument values of one group.
pub fn compute_aggregate(func: AggFunc, args: &[Value]) -> Result<Value> {
    match func {
        AggFunc::Count => Ok(Value::Int(
            args.iter().filter(|v| !v.is_null()).count() as i64
        )),
        AggFunc::Sum => {
            let mut acc_int: i64 = 0;
            let mut acc_f: f64 = 0.0;
            let mut any_float = false;
            let mut any = false;
            for v in args.iter().filter(|v| !v.is_null()) {
                any = true;
                match v {
                    Value::Int(i) => {
                        acc_int += i;
                        acc_f += *i as f64;
                    }
                    Value::Double(f) => {
                        any_float = true;
                        acc_f += f;
                    }
                    other => {
                        return Err(QueryError::TypeError(format!("SUM over {other}")));
                    }
                }
            }
            if !any {
                return Ok(Value::Null);
            }
            Ok(if any_float {
                Value::double(acc_f)
            } else {
                Value::Int(acc_int)
            })
        }
        AggFunc::Avg => {
            let non_null: Vec<f64> = args
                .iter()
                .filter(|v| !v.is_null())
                .map(|v| {
                    v.as_double()
                        .ok_or_else(|| QueryError::TypeError(format!("AVG over {v}")))
                })
                .collect::<Result<_>>()?;
            if non_null.is_empty() {
                Ok(Value::Null)
            } else {
                Ok(Value::double(
                    non_null.iter().sum::<f64>() / non_null.len() as f64,
                ))
            }
        }
        AggFunc::Min => Ok(args
            .iter()
            .filter(|v| !v.is_null())
            .min()
            .cloned()
            .unwrap_or(Value::Null)),
        AggFunc::Max => Ok(args
            .iter()
            .filter(|v| !v.is_null())
            .max()
            .cloned()
            .unwrap_or(Value::Null)),
    }
}

fn check_union_compat(l: &Schema, r: &Schema) -> Result<()> {
    if !l.union_compatible(r) {
        return Err(QueryError::NotUnionCompatible {
            left: l.to_string(),
            right: r.to_string(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AggCall;
    use crate::builder::{col, lit, rel};
    use ratest_storage::{DataType, Relation};

    /// The toy instance from Figure 1 of the paper.
    pub fn figure1_db() -> Database {
        let mut student = Relation::new(
            "Student",
            Schema::new(vec![("name", DataType::Text), ("major", DataType::Text)]),
        );
        student
            .insert_all(vec![
                vec![Value::from("Mary"), Value::from("CS")],
                vec![Value::from("John"), Value::from("ECON")],
                vec![Value::from("Jesse"), Value::from("CS")],
            ])
            .unwrap();
        let mut reg = Relation::new(
            "Registration",
            Schema::new(vec![
                ("name", DataType::Text),
                ("course", DataType::Text),
                ("dept", DataType::Text),
                ("grade", DataType::Int),
            ]),
        );
        reg.insert_all(vec![
            vec![
                Value::from("Mary"),
                Value::from("216"),
                Value::from("CS"),
                Value::Int(100),
            ],
            vec![
                Value::from("Mary"),
                Value::from("230"),
                Value::from("CS"),
                Value::Int(75),
            ],
            vec![
                Value::from("Mary"),
                Value::from("208D"),
                Value::from("ECON"),
                Value::Int(95),
            ],
            vec![
                Value::from("John"),
                Value::from("316"),
                Value::from("CS"),
                Value::Int(90),
            ],
            vec![
                Value::from("John"),
                Value::from("208D"),
                Value::from("ECON"),
                Value::Int(88),
            ],
            vec![
                Value::from("Jesse"),
                Value::from("216"),
                Value::from("CS"),
                Value::Int(95),
            ],
            vec![
                Value::from("Jesse"),
                Value::from("316"),
                Value::from("CS"),
                Value::Int(90),
            ],
            vec![
                Value::from("Jesse"),
                Value::from("330"),
                Value::from("CS"),
                Value::Int(85),
            ],
        ])
        .unwrap();
        let mut db = Database::new("figure1");
        db.add_relation(student).unwrap();
        db.add_relation(reg).unwrap();
        db.constraints_mut()
            .add_foreign_key("Registration", &["name"], "Student", &["name"]);
        db
    }

    /// Q2 from Example 1: students with at least one CS registration.
    pub fn example1_q2() -> Query {
        rel("Student")
            .rename("s")
            .join_on(
                rel("Registration").rename("r").build(),
                col("s.name")
                    .eq(col("r.name"))
                    .and(col("r.dept").eq(lit("CS"))),
            )
            .project(&["s.name", "s.major"])
            .build()
    }

    /// Q1 from Example 1: students with exactly one CS registration.
    pub fn example1_q1() -> Query {
        let q3 = rel("Student")
            .rename("s")
            .join_on(
                rel("Registration").rename("r1").build(),
                col("s.name").eq(col("r1.name")),
            )
            .join_on(
                rel("Registration").rename("r2").build(),
                col("s.name")
                    .eq(col("r2.name"))
                    .and(col("r1.course").ne(col("r2.course")))
                    .and(col("r1.dept").eq(lit("CS")))
                    .and(col("r2.dept").eq(lit("CS"))),
            )
            .project(&["s.name", "s.major"])
            .build();
        crate::builder::QueryBuilder::from_query(example1_q2())
            .difference(q3)
            .build()
    }

    #[test]
    fn scan_select_project() {
        let db = figure1_db();
        let q = rel("Registration")
            .select(col("dept").eq(lit("CS")))
            .project(&["name"])
            .build();
        let out = evaluate(&q, &db).unwrap();
        // Mary, John, Jesse each have CS registrations; projection dedups.
        assert_eq!(out.len(), 3);
        assert!(out.contains(&[Value::from("Jesse")]));
    }

    #[test]
    fn example1_results_match_figure2() {
        let db = figure1_db();
        let q2 = example1_q2();
        let out2 = evaluate(&q2, &db).unwrap();
        assert_eq!(out2.len(), 3, "Q2 returns Mary, John, Jesse");

        let q1 = example1_q1();
        let out1 = evaluate(&q1, &db).unwrap();
        assert_eq!(out1.len(), 1, "Q1 returns only John");
        assert!(out1.contains(&[Value::from("John"), Value::from("ECON")]));

        // The difference Q2 - Q1 contains Mary and Jesse (the wrong answers).
        let diff = out2.difference(&out1);
        assert_eq!(diff.len(), 2);
    }

    #[test]
    fn join_falls_back_to_nested_loops_for_inequalities() {
        let db = figure1_db();
        // Self-join on course inequality only (no equality conjunct).
        let q = rel("Registration")
            .rename("r1")
            .join_on(
                rel("Registration").rename("r2").build(),
                col("r1.course").ne(col("r2.course")),
            )
            .build();
        let out = evaluate(&q, &db).unwrap();
        assert!(out.len() > 8);
    }

    #[test]
    fn union_and_difference() {
        let db = figure1_db();
        let cs = rel("Student")
            .select(col("major").eq(lit("CS")))
            .project(&["name"])
            .build();
        let econ = rel("Student")
            .select(col("major").eq(lit("ECON")))
            .project(&["name"])
            .build();
        let all = crate::builder::QueryBuilder::from_query(cs.clone())
            .union(econ.clone())
            .build();
        assert_eq!(evaluate(&all, &db).unwrap().len(), 3);
        let none = crate::builder::QueryBuilder::from_query(cs)
            .difference(rel("Student").project(&["name"]).build())
            .build();
        assert!(evaluate(&none, &db).unwrap().is_empty());
    }

    #[test]
    fn groupby_avg_matches_example4() {
        let db = figure1_db();
        // Q1 of Example 4: average CS grade per student.
        let q1 = rel("Student")
            .rename("s")
            .join_on(
                rel("Registration").rename("r").build(),
                col("s.name")
                    .eq(col("r.name"))
                    .and(col("r.dept").eq(lit("CS"))),
            )
            .group_by(
                &["s.name"],
                vec![AggCall::new(AggFunc::Avg, col("r.grade"), "avg_grade")],
                None,
            )
            .build();
        let out = evaluate(&q1, &db).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.contains(&[Value::from("Mary"), Value::double(87.5)]));
        assert!(out.contains(&[Value::from("John"), Value::double(90.0)]));
        assert!(out.contains(&[Value::from("Jesse"), Value::double(90.0)]));
    }

    #[test]
    fn groupby_having_matches_example5() {
        let db = figure1_db();
        // Q1 of Example 5: students with >= 3 CS courses and their average.
        let q1 = rel("Student")
            .rename("s")
            .join_on(
                rel("Registration").rename("r").build(),
                col("s.name")
                    .eq(col("r.name"))
                    .and(col("r.dept").eq(lit("CS"))),
            )
            .group_by(
                &["s.name"],
                vec![
                    AggCall::new(AggFunc::Avg, col("r.grade"), "avg_grade"),
                    AggCall::new(AggFunc::Count, col("r.course"), "n"),
                ],
                Some(col("n").ge(lit(3i64))),
            )
            .project(&["name", "avg_grade"])
            .build();
        let out = evaluate(&q1, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&[Value::from("Jesse"), Value::double(90.0)]));
    }

    #[test]
    fn parameterized_having() {
        let db = figure1_db();
        let q = rel("Registration")
            .select(col("dept").eq(lit("CS")))
            .group_by(
                &["name"],
                vec![AggCall::count_star("n")],
                Some(col("n").ge(crate::builder::param("numCS"))),
            )
            .project(&["name"])
            .build();
        let mut p = Params::new();
        p.insert("numCS".into(), Value::Int(3));
        assert_eq!(evaluate_with_params(&q, &db, &p).unwrap().len(), 1);
        p.insert("numCS".into(), Value::Int(1));
        assert_eq!(evaluate_with_params(&q, &db, &p).unwrap().len(), 3);
        assert!(matches!(
            evaluate(&q, &db),
            Err(QueryError::MissingParameter(_))
        ));
    }

    #[test]
    fn aggregate_functions_compute_correctly() {
        let vals = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
        assert_eq!(
            compute_aggregate(AggFunc::Count, &vals).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            compute_aggregate(AggFunc::Sum, &vals).unwrap(),
            Value::Int(6)
        );
        assert_eq!(
            compute_aggregate(AggFunc::Avg, &vals).unwrap(),
            Value::double(2.0)
        );
        assert_eq!(
            compute_aggregate(AggFunc::Min, &vals).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            compute_aggregate(AggFunc::Max, &vals).unwrap(),
            Value::Int(3)
        );
        assert_eq!(compute_aggregate(AggFunc::Sum, &[]).unwrap(), Value::Null);
        assert_eq!(
            compute_aggregate(AggFunc::Sum, &[Value::Int(1), Value::double(0.5)]).unwrap(),
            Value::double(1.5)
        );
    }

    #[test]
    fn evaluation_is_interruptible_mid_query() {
        use crate::interrupt::{Interrupt, InterruptHook, Interrupted};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        // Fires on its first poll — which the pacer only reaches after a
        // full stride of inner-loop row work, i.e. strictly mid-evaluation
        // for the ~500-pair nested-loop self-join below. Counts polls so the
        // test can assert the stride actually amortized them.
        #[derive(Debug)]
        struct Quota(AtomicU64);
        impl InterruptHook for Quota {
            fn interrupted(&self) -> Option<Interrupted> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Some(Interrupted::StepQuotaExhausted)
            }
        }

        let db = figure1_db();
        let q = rel("Registration")
            .rename("r1")
            .join_on(
                rel("Registration").rename("r2").build(),
                col("r1.course").ne(col("r2.course")),
            )
            .join_on(
                rel("Registration").rename("r3").build(),
                col("r1.course").ne(col("r3.course")),
            )
            .build();
        let polls = Arc::new(Quota(AtomicU64::new(0)));
        let interrupt = Interrupt::hooked(polls.clone());
        let err = evaluate_interruptible(&q, &db, &Params::new(), &interrupt)
            .expect_err("the quota fires mid-join");
        assert_eq!(
            err,
            QueryError::Interrupted(Interrupted::StepQuotaExhausted)
        );
        assert_eq!(polls.0.load(Ordering::Relaxed), 1, "one poll per stride");
        // The hookless paths are unaffected.
        assert!(evaluate(&q, &db).is_ok());
    }

    #[test]
    fn result_set_operations() {
        let s = Schema::new(vec![("x", DataType::Int)]);
        let mut a = ResultSet::empty(s.clone());
        a.push(vec![Value::Int(1)]);
        a.push(vec![Value::Int(2)]);
        assert!(!a.push(vec![Value::Int(1)]), "duplicates rejected");
        let b = ResultSet::from_rows(s, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
        assert_eq!(a.difference(&b), vec![vec![Value::Int(1)]]);
        assert_eq!(a.symmetric_difference_size(&b), 2);
        assert!(!a.set_eq(&b));
        assert!(a.set_eq(&a.clone()));
    }
}
