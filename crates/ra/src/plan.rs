//! Compiled query plans: a [`Query`] resolved once against the schemas of a
//! database.
//!
//! [`Plan::compile`] type-checks a query (the checks of
//! [`crate::typecheck::output_schema`], which is defined through it) and
//! resolves everything the executor would otherwise look up per row:
//!
//! * every column reference becomes a slot index ([`Scalar`]);
//! * a join's equality conjuncts become hash-join key slots, with the rest
//!   of its predicate kept as a resolved residual, and a selection and a
//!   projection directly above a join run on each joined row before it is
//!   copied. The column equalities across the inputs of a selection fused
//!   into a keyless join (a comma join's `WHERE`) become keys too;
//! * filters are pushed down by column slot, in one place (`push_filter`):
//!   a conjunct of a join's residual or of its fused selection whose
//!   columns all resolve in one input, and in that input only, filters that
//!   input instead; a selection filters its input; and
//!   [`Plan::compile_selecting`] filters a query to one output row. A
//!   filter moves through renames, selections, projections onto columns and
//!   literals, unions, differences (into both inputs) and a join's fused
//!   selection (into the input it reads), and stops as a selection above a
//!   scan, a grouping, or an operator that evaluates something that can
//!   fail. A conjunct moves only when neither it nor any conjunct beside it
//!   can fail (comparisons of columns and literals under `AND`, `OR` and
//!   `NOT` cannot), so filtering first raises no error the query would not,
//!   and hides none. Every row that survives is derived in the same order
//!   with the same annotation: only the rows the executor visits change;
//! * every node's output schema is computed once, so a `Rename` only swaps
//!   schemas and every result set shares its node's schema;
//! * group-by keys, aggregate arguments and `HAVING` are resolved as well.
//!
//! A plan names its base relations and checks their schemas when it runs,
//! so a plan compiled against `D` runs unchanged on every sub-instance
//! `D' ⊆ D` (they share `D`'s schemas). Parameters stay run-time inputs:
//! one plan runs under many parameter bindings. [`crate::eval::execute`]
//! runs plans, plain or annotated.

use crate::ast::{AggFunc, Query};
use crate::error::{QueryError, Result};
use crate::expr::{eval_binary, eval_unary, truth, BinaryOp, Expr, ParamMap, UnaryOp};
use crate::typecheck::{aggregate_type, rename_schema};
use ratest_storage::{Column, DataType, Database, Schema, Value};
use std::borrow::Cow;
use std::sync::Arc;

/// A query compiled against a database's schemas; cheap to clone.
#[derive(Debug, Clone)]
pub struct Plan {
    root: Arc<Node>,
}

/// One operator of a plan with its output schema.
#[derive(Debug)]
pub(crate) struct Node {
    pub(crate) schema: Schema,
    pub(crate) op: Op,
}

/// The resolved operators.
#[derive(Debug)]
pub(crate) enum Op {
    /// The tuples of a base relation.
    Scan {
        relation: Box<str>,
    },
    Select {
        input: Box<Node>,
        predicate: Scalar,
    },
    Project {
        input: Box<Node>,
        items: Vec<Scalar>,
    },
    /// A theta join or cross product, with the selection and projection
    /// directly above it fused in: they read each joined row in place, so
    /// only the rows (and, under a projection, the values) they keep are
    /// copied.
    Join {
        left: Box<Node>,
        right: Box<Node>,
        /// The equal key slots of a hash join; `None` joins by nested loops.
        keys: Option<JoinKeys>,
        /// A hash join's residual, or a nested-loop join's predicate.
        predicate: Option<Scalar>,
        /// A selection over the joined rows.
        select: Option<Scalar>,
        /// A projection of the (selected) joined rows.
        project: Option<Vec<Scalar>>,
    },
    Union {
        left: Box<Node>,
        right: Box<Node>,
    },
    Difference {
        left: Box<Node>,
        right: Box<Node>,
    },
    /// Schema-only: the rows are the input's.
    Rename {
        input: Box<Node>,
    },
    GroupBy {
        input: Box<Node>,
        keys: Vec<usize>,
        aggregates: Vec<(AggFunc, Scalar)>,
        having: Option<Scalar>,
    },
}

/// Key slots of a hash join: left row slot `left[k]` must equal right row
/// slot `right[k]`.
#[derive(Debug)]
pub(crate) struct JoinKeys {
    pub(crate) left: Vec<usize>,
    pub(crate) right: Vec<usize>,
}

impl Plan {
    /// Type-check `query` against `db`'s schemas and resolve it. Fails with
    /// the error [`crate::typecheck::output_schema`] reports, whatever data
    /// the relations hold.
    pub fn compile(query: &Query, db: &Database) -> Result<Plan> {
        Ok(Plan {
            root: Arc::new(compile(query, db)?),
        })
    }

    /// [`Plan::compile`], keeping only the output rows equal to `row`: each
    /// conjunct `slotᵢ = rowᵢ` filters the plan as far down as it goes, so
    /// only what can derive `row` is evaluated (how `Optσ` computes one
    /// tuple's provenance). A row whose arity is not the query's is an
    /// error.
    pub fn compile_selecting(query: &Query, db: &Database, row: &[Value]) -> Result<Plan> {
        let mut root = compile(query, db)?;
        if row.len() != root.schema.arity() {
            return Err(QueryError::TypeError(format!(
                "a row of {} values selected from a query with {} columns",
                row.len(),
                root.schema.arity()
            )));
        }
        for (slot, value) in row.iter().enumerate() {
            let equal = Scalar::Binary {
                op: BinaryOp::Eq,
                left: Box::new(Scalar::Column(slot)),
                right: Box::new(Scalar::Literal(value.clone())),
            };
            push_filter(&mut root, equal);
        }
        Ok(Plan {
            root: Arc::new(root),
        })
    }

    /// The output schema of the query.
    pub fn schema(&self) -> &Schema {
        &self.root.schema
    }

    /// Output `schema`'s columns when they equal the plan's own, so the
    /// results of two plans share one copy of them. A plan whose root is
    /// shared with a clone keeps its own.
    pub fn share_schema(&mut self, schema: &Schema) {
        if let Some(root) = Arc::get_mut(&mut self.root) {
            if root.schema == *schema {
                root.schema = schema.clone();
            }
        }
    }

    pub(crate) fn root(&self) -> &Node {
        &self.root
    }
}

fn compile(query: &Query, db: &Database) -> Result<Node> {
    let (schema, op) = match query {
        Query::Relation(name) => (
            db.relation(name)?.schema().clone(),
            Op::Scan {
                relation: name.as_str().into(),
            },
        ),
        Query::Select { input, predicate } => {
            let mut input = compile(input, db)?;
            check_predicate(predicate, &input.schema, "selection")?;
            let conjuncts = predicate
                .conjuncts()
                .into_iter()
                .map(|c| Scalar::compile(c, &input.schema))
                .collect::<Result<Vec<_>>>()?;
            let safe = conjuncts.iter().all(Scalar::cannot_fail);
            if let Op::Join {
                left,
                right,
                keys,
                predicate: residual,
                select: select @ None,
                project: None,
            } = &mut input.op
            {
                // Pushing a selection conjunct below the join, or making it a
                // key, spares the residual its rows too, so the residual must
                // not fail.
                let sinks = residual.iter().all(Scalar::cannot_fail);
                // So must every conjunct beside one that becomes a key. A
                // column equality across the inputs (a comma join's
                // `WHERE s.name = r.name`) then joins the keys: a hash chain
                // visits a left row's partners in ascending order, as the
                // nested loop does, so the joined rows come out the same.
                let mut predicate = Cow::Borrowed(predicate);
                if sinks && safe {
                    if let Some((more_left, more_right, rest)) =
                        hash_join_keys(&predicate, &left.schema, &right.schema)
                    {
                        let keys = keys.get_or_insert(JoinKeys {
                            left: Vec::new(),
                            right: Vec::new(),
                        });
                        keys.left.extend(more_left);
                        keys.right.extend(more_right);
                        match rest {
                            Some(rest) => predicate = Cow::Owned(rest),
                            None => return Ok(input),
                        }
                    }
                }
                *select = split_conjuncts(&predicate, left, right, &input.schema, sinks)?;
                return Ok(input);
            }
            if safe {
                for conjunct in conjuncts {
                    push_filter(&mut input, conjunct);
                }
                return Ok(input);
            }
            let predicate = Scalar::compile(predicate, &input.schema)?;
            (
                input.schema.clone(),
                Op::Select {
                    predicate,
                    input: Box::new(input),
                },
            )
        }
        Query::Project { input, items } => {
            let mut input = compile(input, db)?;
            let mut columns = Vec::with_capacity(items.len());
            let mut resolved = Vec::with_capacity(items.len());
            for item in items {
                check_columns(&item.expr, &input.schema)?;
                let dt = item.expr.infer_type(&input.schema)?;
                columns.push(Column::new(item.alias.clone(), dt));
                resolved.push(Scalar::compile(&item.expr, &input.schema)?);
            }
            let schema = Schema::from_columns(columns);
            if let Op::Join {
                project: project @ None,
                ..
            } = &mut input.op
            {
                *project = Some(resolved);
                input.schema = schema;
                return Ok(input);
            }
            (
                schema,
                Op::Project {
                    input: Box::new(input),
                    items: resolved,
                },
            )
        }
        Query::Join {
            left,
            right,
            predicate,
        } => {
            let mut left = compile(left, db)?;
            let mut right = compile(right, db)?;
            let joined = left.schema.concat(&right.schema);
            let (keys, predicate) = match predicate {
                None => (None, None),
                Some(p) => {
                    check_predicate(p, &joined, "join")?;
                    let (keys, residual) = match hash_join_keys(p, &left.schema, &right.schema) {
                        Some((left_keys, right_keys, residual)) => (
                            Some(JoinKeys {
                                left: left_keys,
                                right: right_keys,
                            }),
                            residual,
                        ),
                        None => (None, Some(p.clone())),
                    };
                    let residual = match residual {
                        Some(r) => split_conjuncts(&r, &mut left, &mut right, &joined, true)?,
                        None => None,
                    };
                    (keys, residual)
                }
            };
            let op = Op::Join {
                left: Box::new(left),
                right: Box::new(right),
                keys,
                predicate,
                select: None,
                project: None,
            };
            (joined, op)
        }
        Query::Union { left, right } | Query::Difference { left, right } => {
            let left = Box::new(compile(left, db)?);
            let right = Box::new(compile(right, db)?);
            if !left.schema.union_compatible(&right.schema) {
                return Err(QueryError::NotUnionCompatible {
                    left: left.schema.to_string(),
                    right: right.schema.to_string(),
                });
            }
            // The left schema's names win (SQL convention).
            let schema = left.schema.clone();
            let op = if matches!(query, Query::Union { .. }) {
                Op::Union { left, right }
            } else {
                Op::Difference { left, right }
            };
            (schema, op)
        }
        Query::Rename { input, prefix } => {
            let input = compile(input, db)?;
            (
                rename_schema(&input.schema, prefix),
                Op::Rename {
                    input: Box::new(input),
                },
            )
        }
        Query::GroupBy {
            input,
            group_by,
            aggregates,
            having,
        } => {
            let input = compile(input, db)?;
            let mut columns = Vec::new();
            let mut keys = Vec::with_capacity(group_by.len());
            for g in group_by {
                let idx = Expr::resolve_column(&input.schema, g)?;
                // Strip qualifiers in the output, mirroring SQL result naming.
                let alias = g
                    .rsplit_once('.')
                    .map(|(_, last)| last.to_owned())
                    .unwrap_or_else(|| g.clone());
                columns.push(Column::new(alias, input.schema.column(idx).data_type));
                keys.push(idx);
            }
            let mut calls = Vec::with_capacity(aggregates.len());
            for a in aggregates {
                check_columns(&a.arg, &input.schema)?;
                let dt = aggregate_type(a.func, &a.arg, &input.schema)?;
                columns.push(Column::new(a.alias.clone(), dt));
                calls.push((a.func, Scalar::compile(&a.arg, &input.schema)?));
            }
            let schema = Schema::from_columns(columns);
            let having = match having {
                Some(h) => {
                    check_predicate(h, &schema, "HAVING")?;
                    Some(Scalar::compile(h, &schema)?)
                }
                None => None,
            };
            (
                schema,
                Op::GroupBy {
                    input: Box::new(input),
                    keys,
                    aggregates: calls,
                    having,
                },
            )
        }
    };
    Ok(Node { schema, op })
}

/// Every column `expr` references resolves against `schema`.
fn check_columns(expr: &Expr, schema: &Schema) -> Result<()> {
    for c in expr.columns() {
        Expr::resolve_column(schema, &c)?;
    }
    Ok(())
}

/// `expr` resolves against `schema` and is Boolean-typed.
fn check_predicate(expr: &Expr, schema: &Schema, what: &str) -> Result<()> {
    check_columns(expr, schema)?;
    let t = expr.infer_type(schema)?;
    if t != DataType::Bool {
        return Err(QueryError::TypeError(format!(
            "{what} predicate has type {t}, expected BOOL"
        )));
    }
    Ok(())
}

/// Extract hash-join keys from a predicate: returns `(left key columns,
/// right key columns, residual predicate)` when the predicate contains at
/// least one top-level equality between a left column and a right column.
fn hash_join_keys(
    pred: &Expr,
    left: &Schema,
    right: &Schema,
) -> Option<(Vec<usize>, Vec<usize>, Option<Expr>)> {
    let mut lk = Vec::new();
    let mut rk = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    for conj in pred.conjuncts() {
        if let Expr::Binary {
            op: BinaryOp::Eq,
            left: a,
            right: b,
        } = conj
        {
            if let (Expr::Column(ca), Expr::Column(cb)) = (a.as_ref(), b.as_ref()) {
                let (a_left, b_right) = (
                    resolves_only(ca, left, right),
                    resolves_only(cb, right, left),
                );
                if let (Some(i), Some(j)) = (a_left, b_right) {
                    lk.push(i);
                    rk.push(j);
                    continue;
                }
                let (a_right, b_left) = (
                    resolves_only(ca, right, left),
                    resolves_only(cb, left, right),
                );
                if let (Some(j), Some(i)) = (a_right, b_left) {
                    lk.push(i);
                    rk.push(j);
                    continue;
                }
            }
        }
        residual.push(conj.clone());
    }
    if lk.is_empty() {
        None
    } else {
        Some((lk, rk, Expr::conjunction(residual)))
    }
}

/// The slot `name` resolves to in `this`, when it does not also resolve in
/// `other`: a name both inputs of a join resolve is ambiguous to the
/// join's key extraction and predicate split alike.
fn resolves_only(name: &str, this: &Schema, other: &Schema) -> Option<usize> {
    let slot = Expr::resolve_column(this, name).ok()?;
    Expr::resolve_column(other, name).is_err().then_some(slot)
}

/// Split `predicate`, written over the rows of a join of `left` and
/// `right` (schema `joined`), into its conjuncts. With `sink` set and every
/// conjunct unable to fail, a conjunct whose columns all resolve in one
/// input, and in that input only, filters that input instead
/// ([`push_filter`]). The remaining conjuncts are returned, compiled against
/// `joined`.
///
/// Filtering an input first keeps every joined row the conjunct passes, in
/// the same order and with the same annotation. A conjunct that can fail
/// stays, as does every other one beside it: evaluated below the join it
/// could fail on a row with no join partner, and the ones beside it would
/// be spared the rows it filters out.
fn split_conjuncts(
    predicate: &Expr,
    left: &mut Node,
    right: &mut Node,
    joined: &Schema,
    sink: bool,
) -> Result<Option<Scalar>> {
    let conjuncts = predicate.conjuncts();
    let compiled = conjuncts
        .iter()
        .map(|c| Scalar::compile(c, joined))
        .collect::<Result<Vec<_>>>()?;
    let sink = sink && compiled.iter().all(Scalar::cannot_fail);
    let width = left.schema.arity();
    let mut rest: Option<Scalar> = None;
    for (conjunct, scalar) in conjuncts.into_iter().zip(compiled) {
        let only_in = |this: &Schema, other: &Schema| {
            conjunct
                .columns()
                .iter()
                .all(|c| resolves_only(c, this, other).is_some())
        };
        match scalar.slot_range() {
            Some((_, last)) if sink && last < width && only_in(&left.schema, &right.schema) => {
                push_filter(left, scalar)
            }
            Some((first, _)) if sink && first >= width && only_in(&right.schema, &left.schema) => {
                push_filter(right, scalar.shifted(width))
            }
            _ => rest = Some(conjoin(rest, scalar)),
        }
    }
    Ok(rest)
}

/// Filter `node`'s rows by `filter`, a conjunct that cannot fail, as far
/// down as it goes without sparing an operator that can fail any row:
///
/// * through a `Rename` (its slots are its input's);
/// * through a `Select` whose own predicate cannot fail, when the node
///   below takes the filter in ([`sinks`]); otherwise it joins that
///   predicate;
/// * through a `Project`, or a join's fused projection, whose items are all
///   columns or literals ([`pure`]): its slots become the items';
/// * into both inputs of a `Union` or `Difference`, whose inputs share the
///   output's slots;
/// * into a join's fused selection, and from there into the one input it
///   reads, when the join's residual and selection cannot fail.
///
/// It stops as a selection above a `Scan`, a `GroupBy` or a projection
/// that evaluates anything else. Every surviving row is derived in the same
/// order with the same annotation: a projection or union keeps the first
/// appearance of each row it still outputs, and a difference looks a
/// surviving left row up among right rows that survive too.
fn push_filter(node: &mut Node, filter: Scalar) {
    match &mut node.op {
        Op::Rename { input } => return push_filter(input, filter),
        Op::Select { input, predicate } => {
            if predicate.cannot_fail() && sinks(input) {
                return push_filter(input, filter);
            }
            *predicate = conjoin(Some(predicate.clone()), filter);
            return;
        }
        Op::Project { input, items } if pure(items) => {
            return push_filter(input, filter.substituted(items));
        }
        Op::Union { left, right } | Op::Difference { left, right } => {
            push_filter(left, filter.clone());
            return push_filter(right, filter);
        }
        Op::Join {
            left,
            right,
            predicate,
            select,
            project,
            ..
        } if project.as_deref().is_none_or(pure) => {
            let filter = match project {
                Some(items) => filter.substituted(items),
                None => filter,
            };
            let sinks = predicate
                .iter()
                .chain(select.iter())
                .all(Scalar::cannot_fail);
            let width = left.schema.arity();
            match filter.slot_range() {
                Some((_, last)) if sinks && last < width => push_filter(left, filter),
                Some((first, _)) if sinks && first >= width => {
                    push_filter(right, filter.shifted(width))
                }
                _ => *select = Some(conjoin(select.take(), filter)),
            }
            return;
        }
        _ => {}
    }
    let op = std::mem::replace(
        &mut node.op,
        Op::Scan {
            relation: "".into(),
        },
    );
    node.op = Op::Select {
        input: Box::new(Node {
            schema: node.schema.clone(),
            op,
        }),
        predicate: filter,
    };
}

/// Whether [`push_filter`] takes a filter into `node` rather than putting a
/// selection above it.
fn sinks(node: &Node) -> bool {
    match &node.op {
        Op::Rename { input } => sinks(input),
        Op::Select { .. } | Op::Union { .. } | Op::Difference { .. } => true,
        Op::Project { items, .. } => pure(items),
        Op::Join { project, .. } => project.as_deref().is_none_or(pure),
        Op::Scan { .. } | Op::GroupBy { .. } => false,
    }
}

/// Whether every projection item is a column or a literal, so a filter on
/// the projected rows reads the same values below the projection.
fn pure(items: &[Scalar]) -> bool {
    items
        .iter()
        .all(|item| matches!(item, Scalar::Column(_) | Scalar::Literal(_)))
}

/// `conjunction ∧ conjunct`, or `conjunct` alone.
fn conjoin(conjunction: Option<Scalar>, conjunct: Scalar) -> Scalar {
    match conjunction {
        Some(c) => Scalar::Binary {
            op: BinaryOp::And,
            left: Box::new(c),
            right: Box::new(conjunct),
        },
        None => conjunct,
    }
}

/// A scalar [`Expr`] with its column references resolved to slots. It
/// evaluates exactly like the expression it was compiled from.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// The value in a slot of the row.
    Column(usize),
    /// A literal value.
    Literal(Value),
    /// A query parameter, looked up when the scalar is evaluated.
    Param(String),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Scalar>,
    },
    /// Binary operation; both operands are always evaluated.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Scalar>,
        /// Right operand.
        right: Box<Scalar>,
    },
}

/// Read access to the values of a row, stored contiguously or not.
pub(crate) trait Row {
    /// The value in slot `i`.
    fn at(&self, i: usize) -> &Value;
}

impl Row for [Value] {
    fn at(&self, i: usize) -> &Value {
        &self[i]
    }
}

/// A row read in place from the rows it is joined from: the values of
/// `row` follow those of `prefix`, itself a view. Joins build views on the
/// stack, so matching, filtering and projecting a joined row copies
/// nothing.
#[derive(Debug)]
pub(crate) struct View<'a> {
    prefix: Option<&'a View<'a>>,
    /// The number of slots before `row`: the length of `prefix`.
    offset: usize,
    row: &'a [Value],
}

impl<'a> View<'a> {
    /// A view of one stored row.
    pub(crate) fn of(row: &'a [Value]) -> View<'a> {
        View {
            prefix: None,
            offset: 0,
            row,
        }
    }

    /// This row joined with `row`.
    pub(crate) fn then(&'a self, row: &'a [Value]) -> View<'a> {
        View {
            prefix: Some(self),
            offset: self.offset + self.row.len(),
            row,
        }
    }

    /// The values, copied into one row.
    pub(crate) fn to_vec(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.offset + self.row.len());
        self.copy_into(&mut out);
        out
    }

    fn copy_into(&self, out: &mut Vec<Value>) {
        if let Some(prefix) = self.prefix {
            prefix.copy_into(out);
        }
        out.extend_from_slice(self.row);
    }
}

impl Row for View<'_> {
    fn at(&self, i: usize) -> &Value {
        let mut view = self;
        while i < view.offset {
            view = view.prefix.expect("slots before `row` are the prefix's");
        }
        &view.row[i - view.offset]
    }
}

impl Scalar {
    /// Resolve every column `expr` references against `schema`, with the
    /// name rules of [`Expr::resolve_column`].
    pub fn compile(expr: &Expr, schema: &Schema) -> Result<Scalar> {
        Ok(match expr {
            Expr::Column(name) => Scalar::Column(Expr::resolve_column(schema, name)?),
            Expr::Literal(v) => Scalar::Literal(v.clone()),
            Expr::Param(p) => Scalar::Param(p.clone()),
            Expr::Unary { op, expr } => Scalar::Unary {
                op: *op,
                expr: Box::new(Scalar::compile(expr, schema)?),
            },
            Expr::Binary { op, left, right } => Scalar::Binary {
                op: *op,
                left: Box::new(Scalar::compile(left, schema)?),
                right: Box::new(Scalar::compile(right, schema)?),
            },
        })
    }

    /// Whether evaluating the scalar as a predicate ([`Scalar::holds`])
    /// cannot fail on any row: it compares columns and literals, and
    /// combines comparisons with `AND`, `OR` and `NOT`. Arithmetic (a
    /// division by zero), parameters (a missing binding) and a bare column
    /// (a non-Boolean value) can fail.
    pub(crate) fn cannot_fail(&self) -> bool {
        match self {
            Scalar::Literal(v) => matches!(v, Value::Bool(_) | Value::Null),
            Scalar::Unary {
                op: UnaryOp::Not,
                expr,
            } => expr.cannot_fail(),
            Scalar::Binary { op, left, right } if op.is_comparison() || op.is_logical() => {
                let operand = |s: &Scalar| {
                    matches!(s, Scalar::Column(_) | Scalar::Literal(_)) || s.cannot_fail()
                };
                operand(left) && operand(right)
            }
            _ => false,
        }
    }

    /// The lowest and highest slot the scalar reads, if it reads any.
    fn slot_range(&self) -> Option<(usize, usize)> {
        match self {
            Scalar::Column(i) => Some((*i, *i)),
            Scalar::Literal(_) | Scalar::Param(_) => None,
            Scalar::Unary { expr, .. } => expr.slot_range(),
            Scalar::Binary { left, right, .. } => match (left.slot_range(), right.slot_range()) {
                (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
                (one, other) => one.or(other),
            },
        }
    }

    /// The scalar over the rows of the right input of a join whose left
    /// input has `width` slots: every slot moves down by `width`.
    fn shifted(self, width: usize) -> Scalar {
        self.map_columns(&|i| Scalar::Column(i - width))
    }

    /// The scalar over the input rows of a projection by `items` (all
    /// columns or literals): each slot reads its item instead.
    fn substituted(self, items: &[Scalar]) -> Scalar {
        self.map_columns(&|i| items[i].clone())
    }

    /// The scalar with every column `i` replaced by `column(i)`.
    fn map_columns(self, column: &impl Fn(usize) -> Scalar) -> Scalar {
        match self {
            Scalar::Column(i) => column(i),
            Scalar::Unary { op, expr } => Scalar::Unary {
                op,
                expr: Box::new(expr.map_columns(column)),
            },
            Scalar::Binary { op, left, right } => Scalar::Binary {
                op,
                left: Box::new(left.map_columns(column)),
                right: Box::new(right.map_columns(column)),
            },
            other => other,
        }
    }

    /// Evaluate against a row laid out like the schema it was compiled
    /// against ([`Expr::eval`]).
    pub fn eval(&self, row: &[Value], params: &ParamMap) -> Result<Value> {
        self.eval_in(row, params).map(Cow::into_owned)
    }

    /// Evaluate as a predicate ([`Expr::eval_predicate`]).
    pub fn holds(&self, row: &[Value], params: &ParamMap) -> Result<bool> {
        self.holds_in(row, params)
    }

    /// [`Scalar::holds`] against the row `head ++ tail`, read in place
    /// (e.g. a group key followed by its aggregate values).
    pub fn holds_joined(&self, head: &[Value], tail: &[Value], params: &ParamMap) -> Result<bool> {
        self.holds_in(&View::of(head).then(tail), params)
    }

    pub(crate) fn holds_in<R: Row + ?Sized>(&self, row: &R, params: &ParamMap) -> Result<bool> {
        truth(self.eval_in(row, params)?.as_ref())
    }

    /// Evaluate, borrowing the row's values and the literals instead of
    /// copying them.
    pub(crate) fn eval_in<'a, R: Row + ?Sized>(
        &'a self,
        row: &'a R,
        params: &'a ParamMap,
    ) -> Result<Cow<'a, Value>> {
        match self {
            Scalar::Column(i) => Ok(Cow::Borrowed(row.at(*i))),
            Scalar::Literal(v) => Ok(Cow::Borrowed(v)),
            Scalar::Param(p) => params
                .get(p)
                .map(Cow::Borrowed)
                .ok_or_else(|| QueryError::MissingParameter(p.clone())),
            Scalar::Unary { op, expr } => {
                eval_unary(*op, expr.eval_in(row, params)?.into_owned()).map(Cow::Owned)
            }
            Scalar::Binary { op, left, right } => {
                let l = left.eval_in(row, params)?;
                let r = right.eval_in(row, params)?;
                eval_binary(*op, &l, &r).map(Cow::Owned)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{col, lit, rel, QueryBuilder};
    use crate::eval::evaluate;
    use crate::testdata;
    use ratest_storage::Relation;

    /// `r.dept = 'CS'` (`dept` is slot 2 of `Registration`).
    fn dept_is_cs() -> Scalar {
        Scalar::Binary {
            op: BinaryOp::Eq,
            left: Box::new(Scalar::Column(2)),
            right: Box::new(Scalar::Literal(Value::from("CS"))),
        }
    }

    /// The node under `node`'s renames.
    fn unrenamed(mut node: &Node) -> &Node {
        while let Op::Rename { input } = &node.op {
            node = input;
        }
        node
    }

    #[test]
    fn joins_resolve_keys_and_take_in_the_projection_above() {
        let db = testdata::figure1_db();
        let plan = Plan::compile(&testdata::example1_q2(), &db).unwrap();
        let Op::Join {
            left,
            right,
            keys: Some(keys),
            predicate: None,
            select: None,
            project: Some(items),
        } = &plan.root().op
        else {
            panic!("a projected equi-join: {:?}", plan.root().op);
        };
        assert_eq!(
            (keys.left.as_slice(), keys.right.as_slice()),
            (&[0][..], &[0][..])
        );
        assert_eq!(items, &[Scalar::Column(0), Scalar::Column(1)]);
        assert_eq!(plan.schema().column(0).name, "name");
        assert_eq!(left.schema.column(0).name, "s.name");
        assert!(matches!(left.op, Op::Rename { .. }));
        // The single-side conjunct `r.dept = 'CS'` of the join predicate
        // filters `Registration` below its rename, on the scan.
        let Op::Select { input, predicate } = &unrenamed(right).op else {
            panic!("a selection under `ρ_r`: {:?}", right.op);
        };
        assert!(matches!(input.op, Op::Scan { .. }));
        assert_eq!(predicate, &dept_is_cs());
    }

    #[test]
    fn a_conjunct_resolving_in_both_inputs_stays_above_the_join() {
        // `name` resolves in `Student` and in `Registration`: it stays in
        // the fused selection, while `dept = 'CS'` moves onto its scan.
        let db = testdata::figure1_db();
        let q = rel("Student")
            .cross(Query::relation("Registration"))
            .select(col("name").eq(lit("Mary")).and(col("dept").eq(lit("CS"))))
            .build();
        let plan = Plan::compile(&q, &db).unwrap();
        let Op::Join {
            left,
            right,
            keys: None,
            predicate: None,
            select: Some(select),
            project: None,
        } = &plan.root().op
        else {
            panic!("a selected cross product: {:?}", plan.root().op);
        };
        assert_eq!(
            select,
            &Scalar::Binary {
                op: BinaryOp::Eq,
                left: Box::new(Scalar::Column(0)),
                right: Box::new(Scalar::Literal(Value::from("Mary"))),
            }
        );
        assert!(matches!(left.op, Op::Scan { .. }));
        let Op::Select { predicate, .. } = &right.op else {
            panic!("a filtered scan: {:?}", right.op);
        };
        assert_eq!(predicate, &dept_is_cs());
        // `name` reads `Student`'s column: Mary with every CS registration.
        let cs = rel("Registration")
            .select(col("dept").eq(lit("CS")))
            .build();
        assert_eq!(
            evaluate(&q, &db).unwrap().len(),
            evaluate(&cs, &db).unwrap().len()
        );
    }

    #[test]
    fn pushed_conjuncts_reach_through_an_inner_join() {
        // Example 1's Q1 minus the name key of its second join: `r2.dept`
        // still filters the second registration scan, and `r1.dept`, once
        // moved into the inner join, filters the first.
        let db = testdata::figure1_db();
        let q = rel("Student")
            .rename("s")
            .join_on(
                rel("Registration").rename("r1").build(),
                col("s.name").eq(col("r1.name")),
            )
            .join_on(
                rel("Registration").rename("r2").build(),
                col("r1.course")
                    .ne(col("r2.course"))
                    .and(col("r1.dept").eq(lit("CS")))
                    .and(col("r2.dept").eq(lit("CS"))),
            )
            .build();
        let plan = Plan::compile(&q, &db).unwrap();
        let Op::Join {
            left: inner,
            right,
            keys: None,
            predicate: Some(_),
            select: None,
            ..
        } = &plan.root().op
        else {
            panic!("a nested-loop join: {:?}", plan.root().op);
        };
        let Op::Join {
            right: r1,
            select: None,
            ..
        } = &inner.op
        else {
            panic!("an inner join: {:?}", inner.op);
        };
        for scan in [r1, right] {
            let Op::Select { predicate, .. } = &unrenamed(scan).op else {
                panic!("a filtered scan: {:?}", scan.op);
            };
            assert_eq!(predicate, &dept_is_cs());
        }
    }

    /// `R(a, b)` holds `(1, 0)` and `(2, 1)`; `S(c)` holds `2`.
    fn division_db() -> Database {
        let mut r = Relation::new(
            "R",
            Schema::new(vec![("a", DataType::Int), ("b", DataType::Int)]),
        );
        r.insert_all([
            vec![Value::Int(1), Value::Int(0)],
            vec![Value::Int(2), Value::Int(1)],
        ])
        .unwrap();
        let mut s = Relation::new("S", Schema::new(vec![("c", DataType::Int)]));
        s.insert_all([vec![Value::Int(2)]]).unwrap();
        let mut db = Database::new("division");
        db.add_relation(r).unwrap();
        db.add_relation(s).unwrap();
        db
    }

    #[test]
    fn a_conjunct_that_can_fail_stays_above_the_join() {
        let db = division_db();
        let ten_over_b = Expr::binary(BinaryOp::Div, lit(10i64), col("b")).gt(lit(1i64));
        // `(1, 0)` has no join partner: below the join, `10 / b` would
        // divide by zero on it.
        for q in [
            rel("R")
                .join_on(
                    Query::relation("S"),
                    col("a").eq(col("c")).and(ten_over_b.clone()),
                )
                .build(),
            rel("R")
                .join_on(Query::relation("S"), col("a").eq(col("c")))
                .select(ten_over_b.clone())
                .build(),
        ] {
            let plan = Plan::compile(&q, &db).unwrap();
            let Op::Join { left, .. } = &plan.root().op else {
                panic!("a join: {:?}", plan.root().op);
            };
            assert!(matches!(left.op, Op::Scan { .. }), "{:?}", left.op);
            assert_eq!(evaluate(&q, &db).unwrap().len(), 1);
        }
        // A conjunct that cannot fail stays beside one that can: below the
        // join it would spare `10 / b` the row `(1, 0, 2)` it fails on.
        let q = rel("R")
            .cross(Query::relation("S"))
            .select(col("b").gt(lit(0i64)).and(ten_over_b))
            .build();
        assert_eq!(evaluate(&q, &db), Err(QueryError::DivisionByZero));
    }

    /// `R(a, b)` holds `a` = 0..20 with `b` its parity; `S(c, d)` holds
    /// `c` = 10..30 with `d = 'x'`.
    fn overlapping_db() -> Database {
        let mut r = Relation::new(
            "R",
            Schema::new(vec![("a", DataType::Int), ("b", DataType::Text)]),
        );
        r.insert_all((0..20).map(|i| {
            vec![
                Value::Int(i),
                Value::from(if i % 2 == 0 { "even" } else { "odd" }),
            ]
        }))
        .unwrap();
        let mut s = Relation::new(
            "S",
            Schema::new(vec![("c", DataType::Int), ("d", DataType::Text)]),
        );
        s.insert_all((10..30).map(|i| vec![Value::Int(i), Value::from("x")]))
            .unwrap();
        let mut db = Database::new("overlapping");
        db.add_relation(r).unwrap();
        db.add_relation(s).unwrap();
        db
    }

    /// The name of `node`'s operator.
    fn kind(node: &Node) -> &'static str {
        match node.op {
            Op::Scan { .. } => "scan",
            Op::Select { .. } => "select",
            Op::Project { .. } => "project",
            Op::Join { .. } => "join",
            Op::Union { .. } => "union",
            Op::Difference { .. } => "difference",
            Op::Rename { .. } => "rename",
            Op::GroupBy { .. } => "group",
        }
    }

    /// What each selection in `node`'s plan filters, in plan order.
    fn selected(node: &Node) -> Vec<&'static str> {
        let inputs: Vec<&Node> = match &node.op {
            Op::Scan { .. } => vec![],
            Op::Select { input, .. }
            | Op::Project { input, .. }
            | Op::Rename { input }
            | Op::GroupBy { input, .. } => vec![input],
            Op::Join { left, right, .. }
            | Op::Union { left, right }
            | Op::Difference { left, right } => vec![left, right],
        };
        let mut out = match &node.op {
            Op::Select { input, .. } => vec![kind(input)],
            _ => vec![],
        };
        for input in inputs {
            out.extend(selected(input));
        }
        out
    }

    /// `σ_predicate(input)` evaluates to `input`'s rows that satisfy
    /// `predicate`, in order.
    fn assert_filters(input: QueryBuilder, predicate: Expr, db: &Database) {
        let all = evaluate(&input.clone().build(), db).unwrap();
        let expected: Vec<_> = all
            .rows()
            .iter()
            .filter(|row| {
                predicate
                    .eval_predicate(all.schema(), row, &ParamMap::new())
                    .unwrap()
            })
            .cloned()
            .collect();
        let selected = evaluate(&input.select(predicate).build(), db).unwrap();
        assert_eq!(selected.rows(), &expected[..]);
    }

    #[test]
    fn a_selection_moves_through_projections_unions_differences_and_renames_onto_the_scans() {
        let db = overlapping_db();
        let cases = [
            (rel("R").project(&["a"]), col("a").eq(lit(4i64)), 1),
            (
                rel("R")
                    .project(&["a"])
                    .difference(rel("S").project(&["c"]).build()),
                col("a").lt(lit(15i64)),
                2,
            ),
            (
                rel("R")
                    .project(&["a"])
                    .union(rel("S").project(&["c"]).build()),
                col("a").ge(lit(18i64)),
                2,
            ),
            (rel("R").rename("r"), col("r.a").eq(lit(3i64)), 1),
            (
                rel("R").select(col("a").ge(lit(2i64))),
                col("a").le(lit(10i64)),
                1,
            ),
            (
                rel("R").join_on(Query::relation("S"), col("a").eq(col("c"))),
                col("b").eq(lit("even")).and(col("d").eq(lit("x"))),
                2,
            ),
        ];
        for (input, predicate, scans) in cases {
            let q = input.clone().select(predicate.clone()).build();
            let plan = Plan::compile(&q, &db).unwrap();
            assert_eq!(selected(plan.root()), vec!["scan"; scans], "{q:?}");
            assert_filters(input, predicate, &db);
        }
        // A projected join takes the filter into the input it reads.
        let q = rel("R")
            .join_on(Query::relation("S"), col("a").eq(col("c")))
            .project(&["a", "d"])
            .select(col("a").lt(lit(15i64)))
            .build();
        let plan = Plan::compile(&q, &db).unwrap();
        let Op::Join { left, .. } = &plan.root().op else {
            panic!("a projected join: {:?}", plan.root().op);
        };
        assert_eq!(kind(left), "select");
    }

    #[test]
    fn a_computed_projection_or_a_grouping_stops_a_selection() {
        let db = overlapping_db();
        let plus_one = rel("R").project_items(vec![crate::ast::ProjectItem::expr(
            Expr::binary(BinaryOp::Add, col("a"), lit(1i64)),
            "a1",
        )]);
        let grouped = rel("R").group_by(&["b"], vec![crate::ast::AggCall::count_star("n")], None);
        for (input, predicate) in [
            (plus_one, col("a1").lt(lit(5i64))),
            (grouped, col("b").eq(lit("even"))),
        ] {
            let q = input.clone().select(predicate.clone()).build();
            let plan = Plan::compile(&q, &db).unwrap();
            assert_eq!(kind(plan.root()), "select", "{q:?}");
            assert_eq!(selected(plan.root()).len(), 1);
            assert_filters(input, predicate, &db);
        }
    }

    #[test]
    fn a_selected_row_is_filtered_down_both_sides_of_a_difference() {
        let db = testdata::figure1_db();
        let q = QueryBuilder::from_query(testdata::example1_q2())
            .difference(testdata::example1_q1())
            .build();
        let all = evaluate(&q, &db).unwrap();
        let row = all.rows()[0].clone();
        let plan = Plan::compile_selecting(&q, &db, &row).unwrap();
        let kept = crate::eval::evaluate_plan(
            &plan,
            &db,
            &ParamMap::new(),
            &crate::interrupt::Interrupt::none(),
            &ratest_telemetry::MetricsHandle::none(),
        )
        .unwrap();
        assert_eq!(kept.rows(), std::slice::from_ref(&row));
        // The name and major each filter a `Student` scan on both sides.
        assert!(selected(plan.root()).iter().all(|&under| under == "scan"));
        assert!(matches!(
            Plan::compile_selecting(&q, &db, &row[..1]),
            Err(QueryError::TypeError(_))
        ));
    }

    #[test]
    fn a_comma_join_keys_on_its_cross_input_equalities() {
        let db = testdata::figure1_db();
        let comma = |extra: Option<Expr>| {
            let mut predicate = col("s.name")
                .eq(col("r.name"))
                .and(col("r.dept").eq(lit("CS")));
            if let Some(extra) = extra {
                predicate = predicate.and(extra);
            }
            rel("Student")
                .rename("s")
                .cross(rel("Registration").rename("r").build())
                .select(predicate)
                .build()
        };
        let q = comma(None);
        let plan = Plan::compile(&q, &db).unwrap();
        let Op::Join {
            keys: Some(keys),
            predicate: None,
            select: None,
            ..
        } = &plan.root().op
        else {
            panic!("a hash join: {:?}", plan.root().op);
        };
        assert_eq!(
            (keys.left.as_slice(), keys.right.as_slice()),
            (&[0][..], &[0][..])
        );
        let on = rel("Student")
            .rename("s")
            .join_on(
                rel("Registration").rename("r").build(),
                col("s.name").eq(col("r.name")),
            )
            .select(col("r.dept").eq(lit("CS")))
            .build();
        assert_eq!(
            evaluate(&q, &db).unwrap().rows(),
            evaluate(&on, &db).unwrap().rows()
        );
        // Beside a conjunct that can fail, the equality stays a selection.
        let failing = Expr::binary(BinaryOp::Div, lit(1i64), col("r.grade")).gt(lit(0i64));
        let plan = Plan::compile(&comma(Some(failing)), &db).unwrap();
        assert!(matches!(
            plan.root().op,
            Op::Join {
                keys: None,
                select: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn compiling_reports_what_typechecking_reports() {
        let db = testdata::figure1_db();
        let unknown = rel("Student").select(col("nope").eq(lit(1i64))).build();
        assert!(matches!(
            Plan::compile(&unknown, &db),
            Err(QueryError::UnknownColumn { .. })
        ));
        let not_bool = rel("Student").select(col("name")).build();
        assert!(matches!(
            Plan::compile(&not_bool, &db),
            Err(QueryError::TypeError(_))
        ));
    }

    #[test]
    fn views_read_across_the_rows_they_join() {
        let (l, m, r) = ([Value::Int(1)], [Value::Int(2)], [Value::Int(3)]);
        let (first, second);
        first = View::of(&l);
        second = first.then(&m);
        let row = second.then(&r);
        assert_eq!(row.at(0), &Value::Int(1));
        assert_eq!(row.at(2), &Value::Int(3));
        assert_eq!(row.to_vec(), [l.clone(), m.clone(), r.clone()].concat());
        let sum = Scalar::Binary {
            op: BinaryOp::Add,
            left: Box::new(Scalar::Column(0)),
            right: Box::new(Scalar::Column(2)),
        };
        assert_eq!(
            sum.eval_in(&row, &ParamMap::new()).unwrap().into_owned(),
            Value::Int(4)
        );
    }
}
