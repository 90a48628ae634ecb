//! Scalar expressions used in selection predicates, generalized projections
//! and HAVING clauses.
//!
//! Expressions evaluate to a [`Value`] in the context of a tuple and its
//! schema. Column references are resolved by name, with the same suffix rule
//! SQL uses for unqualified names: `name` matches `s.name` when there is
//! exactly one such column. Parameters (`@numCS`) are looked up in a
//! parameter map at evaluation time; they are the handle the parameterized
//! counterexample algorithm (Definition 3 of the paper) uses to let the
//! solver pick new constants.

use crate::error::{QueryError, Result};
use ratest_storage::{DataType, Schema, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnaryOp {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Binary operators (arithmetic, comparison, logical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Logical conjunction.
    And,
    /// Logical disjunction.
    Or,
}

impl BinaryOp {
    /// Whether the operator produces a Boolean from two comparable values.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        )
    }

    /// Whether the operator is a logical connective.
    pub fn is_logical(self) -> bool {
        matches!(self, BinaryOp::And | BinaryOp::Or)
    }

    /// Whether the operator is arithmetic.
    pub fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div
        )
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Eq => "=",
            BinaryOp::Ne => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::And => "and",
            BinaryOp::Or => "or",
        };
        write!(f, "{s}")
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Reference to a column by (possibly qualified) name.
    Column(String),
    /// A literal value.
    Literal(Value),
    /// A query parameter, e.g. `@numCS`.
    Param(String),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
}

/// Parameter bindings for parameterized queries, by name (an ordered map:
/// the empty binding most queries carry takes no heap and little inline
/// space in every counterexample that keeps it).
pub type ParamMap = BTreeMap<String, Value>;

impl Expr {
    /// Build a binary expression.
    pub fn binary(op: BinaryOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// `self = other`
    pub fn eq(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Eq, self, other)
    }
    /// `self <> other`
    pub fn ne(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Ne, self, other)
    }
    /// `self < other`
    pub fn lt(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Lt, self, other)
    }
    /// `self <= other`
    pub fn le(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Le, self, other)
    }
    /// `self > other`
    pub fn gt(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Gt, self, other)
    }
    /// `self >= other`
    pub fn ge(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Ge, self, other)
    }
    /// `self AND other`
    pub fn and(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::And, self, other)
    }
    /// `self OR other`
    pub fn or(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Or, self, other)
    }
    /// `NOT self`
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(self),
        }
    }
    /// `self + other`
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Add, self, other)
    }
    /// `self - other`
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Sub, self, other)
    }

    /// Conjoin many expressions; `None` when the slice is empty.
    pub fn conjunction(exprs: Vec<Expr>) -> Option<Expr> {
        exprs.into_iter().reduce(|a, b| a.and(b))
    }

    /// Split a predicate into its top-level conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary {
                op: BinaryOp::And,
                left,
                right,
            } => {
                let mut v = left.conjuncts();
                v.extend(right.conjuncts());
                v
            }
            other => vec![other],
        }
    }

    /// The set of column names referenced by the expression.
    pub fn columns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Column(c) => {
                out.insert(c.clone());
            }
            Expr::Literal(_) | Expr::Param(_) => {}
            Expr::Unary { expr, .. } => expr.collect_columns(out),
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
        }
    }

    /// The set of parameter names referenced by the expression.
    pub fn params(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_params(&mut out);
        out
    }

    fn collect_params(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Param(p) => {
                out.insert(p.clone());
            }
            Expr::Column(_) | Expr::Literal(_) => {}
            Expr::Unary { expr, .. } => expr.collect_params(out),
            Expr::Binary { left, right, .. } => {
                left.collect_params(out);
                right.collect_params(out);
            }
        }
    }

    /// Resolve a column reference against a schema using the SQL suffix rule.
    pub fn resolve_column(schema: &Schema, name: &str) -> Result<usize> {
        if let Some(i) = schema.index_of(name) {
            return Ok(i);
        }
        // Unqualified name may match a qualified column `prefix.name`.
        let suffix_matches: Vec<usize> = schema
            .names()
            .enumerate()
            .filter(|(_, n)| {
                n.rsplit_once('.')
                    .map(|(_, last)| last == name)
                    .unwrap_or(false)
            })
            .map(|(i, _)| i)
            .collect();
        match suffix_matches.len() {
            1 => Ok(suffix_matches[0]),
            0 => {
                // A qualified name may also match an unqualified column by its
                // suffix (e.g. `r1.course` against schema column `course` after
                // a projection dropped the qualifier).
                if let Some((_, last)) = name.rsplit_once('.') {
                    if let Some(i) = schema.index_of(last) {
                        return Ok(i);
                    }
                }
                Err(QueryError::UnknownColumn {
                    name: name.to_owned(),
                    available: schema.names().map(|s| s.to_owned()).collect(),
                })
            }
            _ => Err(QueryError::AmbiguousColumn {
                name: name.to_owned(),
                candidates: suffix_matches
                    .into_iter()
                    .map(|i| schema.column(i).name.clone())
                    .collect(),
            }),
        }
    }

    /// Evaluate the expression against a tuple.
    pub fn eval(&self, schema: &Schema, values: &[Value], params: &ParamMap) -> Result<Value> {
        match self {
            Expr::Column(name) => {
                let idx = Self::resolve_column(schema, name)?;
                Ok(values[idx].clone())
            }
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Param(p) => params
                .get(p)
                .cloned()
                .ok_or_else(|| QueryError::MissingParameter(p.clone())),
            Expr::Unary { op, expr } => eval_unary(*op, expr.eval(schema, values, params)?),
            Expr::Binary { op, left, right } => {
                let l = left.eval(schema, values, params)?;
                let r = right.eval(schema, values, params)?;
                eval_binary(*op, &l, &r)
            }
        }
    }

    /// Evaluate the expression as a predicate. Nulls and type mismatches in
    /// comparisons yield `false` (the paper's instances are null-free; this
    /// keeps predicate semantics total without three-valued logic).
    pub fn eval_predicate(
        &self,
        schema: &Schema,
        values: &[Value],
        params: &ParamMap,
    ) -> Result<bool> {
        truth(&self.eval(schema, values, params)?)
    }

    /// Infer the output type of the expression against a schema.
    pub fn infer_type(&self, schema: &Schema) -> Result<DataType> {
        match self {
            Expr::Column(name) => {
                let idx = Self::resolve_column(schema, name)?;
                Ok(schema.column(idx).data_type)
            }
            Expr::Literal(v) => v
                .data_type()
                .ok_or_else(|| QueryError::TypeError("NULL literal has no type".into())),
            Expr::Param(_) => Ok(DataType::Int),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => Ok(DataType::Bool),
                UnaryOp::Neg => expr.infer_type(schema),
            },
            Expr::Binary { op, left, right } => {
                if op.is_comparison() || op.is_logical() {
                    Ok(DataType::Bool)
                } else {
                    let lt = left.infer_type(schema)?;
                    let rt = right.infer_type(schema)?;
                    if lt == DataType::Double || rt == DataType::Double {
                        Ok(DataType::Double)
                    } else {
                        Ok(lt)
                    }
                }
            }
        }
    }

    /// Substitute parameters with literal values (used after the solver picks
    /// a parameter setting λ').
    pub fn bind_params(&self, params: &ParamMap) -> Expr {
        match self {
            Expr::Param(p) => match params.get(p) {
                Some(v) => Expr::Literal(v.clone()),
                None => self.clone(),
            },
            Expr::Column(_) | Expr::Literal(_) => self.clone(),
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(expr.bind_params(params)),
            },
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.bind_params(params)),
                right: Box::new(right.bind_params(params)),
            },
        }
    }
}

/// The truth of a predicate's value: nulls are false, and a non-Boolean is a
/// type error.
pub(crate) fn truth(v: &Value) -> Result<bool> {
    match v {
        Value::Bool(b) => Ok(*b),
        Value::Null => Ok(false),
        other => Err(QueryError::TypeError(format!(
            "predicate evaluated to non-Boolean value {other}"
        ))),
    }
}

pub(crate) fn eval_unary(op: UnaryOp, v: Value) -> Result<Value> {
    match op {
        UnaryOp::Not => match v {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            Value::Null => Ok(Value::Bool(false)),
            other => Err(QueryError::TypeError(format!("NOT applied to {other}"))),
        },
        UnaryOp::Neg => match v {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Double(f) => Ok(Value::double(-f)),
            other => Err(QueryError::TypeError(format!("negation of {other}"))),
        },
    }
}

pub(crate) fn eval_binary(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    if op.is_logical() {
        let lb = matches!(l, Value::Bool(true));
        let rb = matches!(r, Value::Bool(true));
        return Ok(Value::Bool(match op {
            BinaryOp::And => lb && rb,
            BinaryOp::Or => lb || rb,
            _ => unreachable!(),
        }));
    }
    if op.is_comparison() {
        if l.is_null() || r.is_null() {
            return Ok(Value::Bool(false));
        }
        use std::cmp::Ordering;
        let ord = l.cmp(r);
        let b = match op {
            BinaryOp::Eq => l == r,
            BinaryOp::Ne => l != r,
            BinaryOp::Lt => ord == Ordering::Less,
            BinaryOp::Le => ord != Ordering::Greater,
            BinaryOp::Gt => ord == Ordering::Greater,
            BinaryOp::Ge => ord != Ordering::Less,
            _ => unreachable!(),
        };
        return Ok(Value::Bool(b));
    }
    // Arithmetic.
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(match op {
            BinaryOp::Add => Value::Int(a + b),
            BinaryOp::Sub => Value::Int(a - b),
            BinaryOp::Mul => Value::Int(a * b),
            BinaryOp::Div => {
                if *b == 0 {
                    return Err(QueryError::DivisionByZero);
                }
                Value::Int(a / b)
            }
            _ => unreachable!(),
        }),
        (Value::Date(a), Value::Int(b)) => Ok(match op {
            BinaryOp::Add => Value::Date(a + *b as i32),
            BinaryOp::Sub => Value::Date(a - *b as i32),
            _ => {
                return Err(QueryError::TypeError(format!(
                    "unsupported date arithmetic {op}"
                )))
            }
        }),
        _ => {
            let (Some(a), Some(b)) = (l.as_double(), r.as_double()) else {
                return Err(QueryError::TypeError(format!(
                    "arithmetic {op} on {l} and {r}"
                )));
            };
            Ok(match op {
                BinaryOp::Add => Value::double(a + b),
                BinaryOp::Sub => Value::double(a - b),
                BinaryOp::Mul => Value::double(a * b),
                BinaryOp::Div => {
                    if b == 0.0 {
                        return Err(QueryError::DivisionByZero);
                    }
                    Value::double(a / b)
                }
                _ => unreachable!(),
            })
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            // `''` escaping keeps the rendering re-parseable by the surface
            // syntax parser.
            Expr::Literal(Value::Text(s)) => write!(f, "'{}'", s.replace('\'', "''")),
            // Rendered in the `date 'YYYY-MM-DD'` literal syntax the parser
            // accepts, rather than as bare `YYYY-MM-DD` (which would re-parse
            // as subtraction).
            Expr::Literal(v @ Value::Date(_)) => write!(f, "date '{v}'"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Param(p) => write!(f, "@{p}"),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => write!(f, "not ({expr})"),
                UnaryOp::Neg => write!(f, "-({expr})"),
            },
            Expr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            ("name", DataType::Text),
            ("dept", DataType::Text),
            ("grade", DataType::Int),
        ])
    }

    fn tuple() -> Vec<Value> {
        vec![Value::from("Mary"), Value::from("CS"), Value::Int(95)]
    }

    fn no_params() -> ParamMap {
        ParamMap::new()
    }

    #[test]
    fn column_and_literal_evaluation() {
        let s = schema();
        let e = Expr::Column("dept".into()).eq(Expr::Literal(Value::from("CS")));
        assert!(e.eval_predicate(&s, &tuple(), &no_params()).unwrap());
        let e = Expr::Column("grade".into()).ge(Expr::Literal(Value::Int(100)));
        assert!(!e.eval_predicate(&s, &tuple(), &no_params()).unwrap());
    }

    #[test]
    fn suffix_resolution_of_qualified_columns() {
        let s = Schema::new(vec![
            ("s.name", DataType::Text),
            ("r.course", DataType::Text),
        ]);
        assert_eq!(Expr::resolve_column(&s, "name").unwrap(), 0);
        assert_eq!(Expr::resolve_column(&s, "r.course").unwrap(), 1);
        assert_eq!(Expr::resolve_column(&s, "course").unwrap(), 1);
        assert!(Expr::resolve_column(&s, "missing").is_err());

        let amb = Schema::new(vec![("s.name", DataType::Text), ("r.name", DataType::Text)]);
        assert!(matches!(
            Expr::resolve_column(&amb, "name"),
            Err(QueryError::AmbiguousColumn { .. })
        ));
    }

    #[test]
    fn qualified_reference_falls_back_to_bare_column() {
        let s = Schema::new(vec![("course", DataType::Text)]);
        assert_eq!(Expr::resolve_column(&s, "r1.course").unwrap(), 0);
    }

    #[test]
    fn arithmetic_and_division() {
        let s = schema();
        let e = Expr::Column("grade".into()).add(Expr::Literal(Value::Int(5)));
        assert_eq!(e.eval(&s, &tuple(), &no_params()).unwrap(), Value::Int(100));
        let e = Expr::Literal(Value::Int(1)).sub(Expr::Literal(Value::double(0.5)));
        assert_eq!(
            e.eval(&s, &tuple(), &no_params()).unwrap(),
            Value::double(0.5)
        );
        let e = Expr::binary(
            BinaryOp::Div,
            Expr::Literal(Value::Int(1)),
            Expr::Literal(Value::Int(0)),
        );
        assert_eq!(
            e.eval(&s, &tuple(), &no_params()),
            Err(QueryError::DivisionByZero)
        );
    }

    #[test]
    fn logic_and_negation() {
        let s = schema();
        let p = Expr::Column("dept".into())
            .eq(Expr::Literal(Value::from("CS")))
            .and(Expr::Column("grade".into()).gt(Expr::Literal(Value::Int(90))));
        assert!(p.eval_predicate(&s, &tuple(), &no_params()).unwrap());
        assert!(!p
            .clone()
            .not()
            .eval_predicate(&s, &tuple(), &no_params())
            .unwrap());
        let q = Expr::Column("dept".into())
            .eq(Expr::Literal(Value::from("ECON")))
            .or(Expr::Column("grade".into()).lt(Expr::Literal(Value::Int(100))));
        assert!(q.eval_predicate(&s, &tuple(), &no_params()).unwrap());
    }

    #[test]
    fn params_are_looked_up_and_bindable() {
        let s = schema();
        let e = Expr::Column("grade".into()).ge(Expr::Param("cutoff".into()));
        assert_eq!(
            e.eval_predicate(&s, &tuple(), &no_params()),
            Err(QueryError::MissingParameter("cutoff".into()))
        );
        let mut params = ParamMap::new();
        params.insert("cutoff".into(), Value::Int(90));
        assert!(e.eval_predicate(&s, &tuple(), &params).unwrap());
        assert_eq!(e.params().len(), 1);

        let bound = e.bind_params(&params);
        assert!(bound.params().is_empty());
        assert!(bound.eval_predicate(&s, &tuple(), &no_params()).unwrap());
    }

    #[test]
    fn conjuncts_and_columns() {
        let p = Expr::Column("a".into())
            .eq(Expr::Literal(Value::Int(1)))
            .and(Expr::Column("b".into()).eq(Expr::Column("c".into())))
            .and(Expr::Column("a".into()).lt(Expr::Literal(Value::Int(5))));
        assert_eq!(p.conjuncts().len(), 3);
        let cols = p.columns();
        assert_eq!(
            cols.into_iter().collect::<Vec<_>>(),
            vec!["a".to_string(), "b".to_string(), "c".to_string()]
        );
        assert!(Expr::conjunction(vec![]).is_none());
    }

    #[test]
    fn null_comparisons_are_false() {
        let s = Schema::from_columns(vec![ratest_storage::Column::nullable("x", DataType::Int)]);
        let e = Expr::Column("x".into()).eq(Expr::Literal(Value::Int(1)));
        assert!(!e.eval_predicate(&s, &[Value::Null], &no_params()).unwrap());
    }

    #[test]
    fn type_inference() {
        let s = schema();
        assert_eq!(
            Expr::Column("grade".into()).infer_type(&s).unwrap(),
            DataType::Int
        );
        assert_eq!(
            Expr::Column("grade".into())
                .gt(Expr::Literal(Value::Int(3)))
                .infer_type(&s)
                .unwrap(),
            DataType::Bool
        );
        assert_eq!(
            Expr::Column("grade".into())
                .add(Expr::Literal(Value::double(0.5)))
                .infer_type(&s)
                .unwrap(),
            DataType::Double
        );
        assert!(Expr::Column("zzz".into()).infer_type(&s).is_err());
    }

    #[test]
    fn display_round_trips_reasonably() {
        let e = Expr::Column("dept".into())
            .eq(Expr::Literal(Value::from("CS")))
            .and(Expr::Column("grade".into()).ge(Expr::Param("cutoff".into())));
        assert_eq!(e.to_string(), "((dept = 'CS') and (grade >= @cutoff))");
    }

    #[test]
    fn date_arithmetic() {
        let s = Schema::new(vec![("d", DataType::Date)]);
        let t = vec![Value::date(1995, 1, 1)];
        let e = Expr::Column("d".into()).add(Expr::Literal(Value::Int(31)));
        assert_eq!(
            e.eval(&s, &t, &no_params()).unwrap(),
            Value::date(1995, 2, 1)
        );
    }
}
