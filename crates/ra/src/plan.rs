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
//!   copied;
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
            let predicate = Scalar::compile(predicate, &input.schema)?;
            if let Op::Join {
                select: select @ None,
                project: None,
                ..
            } = &mut input.op
            {
                *select = Some(predicate);
                return Ok(input);
            }
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
            let left = compile(left, db)?;
            let right = compile(right, db)?;
            let joined = left.schema.concat(&right.schema);
            let (keys, predicate) = match predicate {
                None => (None, None),
                Some(p) => {
                    check_predicate(p, &joined, "join")?;
                    match hash_join_keys(p, &left.schema, &right.schema) {
                        Some((left_keys, right_keys, residual)) => (
                            Some(JoinKeys {
                                left: left_keys,
                                right: right_keys,
                            }),
                            residual,
                        ),
                        None => (None, Some(p.clone())),
                    }
                }
            };
            let op = Op::Join {
                left: Box::new(left),
                right: Box::new(right),
                keys,
                predicate: predicate
                    .map(|p| Scalar::compile(&p, &joined))
                    .transpose()?,
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
                let a_left = Expr::resolve_column(left, ca).ok();
                let b_right = Expr::resolve_column(right, cb).ok();
                if let (Some(i), Some(j)) = (a_left, b_right) {
                    // Guard against ambiguous resolution: `ca` must not also
                    // resolve on the right side and vice versa.
                    if Expr::resolve_column(right, ca).is_err()
                        && Expr::resolve_column(left, cb).is_err()
                    {
                        lk.push(i);
                        rk.push(j);
                        continue;
                    }
                }
                let a_right = Expr::resolve_column(right, ca).ok();
                let b_left = Expr::resolve_column(left, cb).ok();
                if let (Some(j), Some(i)) = (a_right, b_left) {
                    if Expr::resolve_column(left, ca).is_err()
                        && Expr::resolve_column(right, cb).is_err()
                    {
                        lk.push(i);
                        rk.push(j);
                        continue;
                    }
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

    /// Evaluate against a row laid out like the schema it was compiled
    /// against ([`Expr::eval`]).
    pub fn eval(&self, row: &[Value], params: &ParamMap) -> Result<Value> {
        self.eval_in(row, params).map(Cow::into_owned)
    }

    /// Evaluate as a predicate ([`Expr::eval_predicate`]).
    pub fn holds(&self, row: &[Value], params: &ParamMap) -> Result<bool> {
        self.holds_in(row, params)
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
    use crate::builder::{col, lit, rel};
    use crate::testdata;

    #[test]
    fn joins_resolve_keys_and_take_in_the_projection_above() {
        let db = testdata::figure1_db();
        let plan = Plan::compile(&testdata::example1_q2(), &db).unwrap();
        let Op::Join {
            left,
            keys: Some(keys),
            predicate,
            select: None,
            project: Some(items),
            ..
        } = &plan.root().op
        else {
            panic!("a projected equi-join: {:?}", plan.root().op);
        };
        assert_eq!(
            (keys.left.as_slice(), keys.right.as_slice()),
            (&[0][..], &[0][..])
        );
        // `r.dept = 'CS'` over `s.name, s.major, r.name, r.course, r.dept, …`
        assert_eq!(
            predicate,
            &Some(Scalar::Binary {
                op: BinaryOp::Eq,
                left: Box::new(Scalar::Column(4)),
                right: Box::new(Scalar::Literal(Value::from("CS"))),
            })
        );
        assert_eq!(items, &[Scalar::Column(0), Scalar::Column(1)]);
        assert_eq!(plan.schema().column(0).name, "name");
        assert_eq!(left.schema.column(0).name, "s.name");
        assert!(matches!(left.op, Op::Rename { .. }));
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
