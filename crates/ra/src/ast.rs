//! The relational-algebra query AST.
//!
//! Queries are trees of SPJUDA operators over named base relations. This is
//! the representation every other layer works on: the evaluator interprets
//! it, the provenance engine annotates it, the classifier analyses it, and
//! the RATest algorithms build on it (e.g. `Optσ` forms `Q1 − Q2`, which
//! [`crate::plan::Plan::compile_selecting`] filters to one tuple).

use crate::expr::Expr;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Aggregate functions supported by the γ (group-by) operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    /// COUNT of tuples in the group (argument ignored).
    Count,
    /// SUM of the argument.
    Sum,
    /// Arithmetic mean of the argument.
    Avg,
    /// Minimum of the argument.
    Min,
    /// Maximum of the argument.
    Max,
}

impl AggFunc {
    /// SQL-ish name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// One aggregate call inside a group-by: `alias := func(arg)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggCall {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument expression evaluated per input tuple (ignored for COUNT).
    pub arg: Expr,
    /// Name of the output column.
    pub alias: String,
}

impl AggCall {
    /// Construct an aggregate call.
    pub fn new(func: AggFunc, arg: Expr, alias: impl Into<String>) -> Self {
        AggCall {
            func,
            arg,
            alias: alias.into(),
        }
    }

    /// `COUNT(*) AS alias`
    pub fn count_star(alias: impl Into<String>) -> Self {
        AggCall {
            func: AggFunc::Count,
            arg: Expr::Literal(ratest_storage::Value::Int(1)),
            alias: alias.into(),
        }
    }
}

/// A projection item: an expression plus its output column name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProjectItem {
    /// The expression to compute.
    pub expr: Expr,
    /// The output column name.
    pub alias: String,
}

impl ProjectItem {
    /// A projection item that simply keeps a column (alias = column name,
    /// with any qualifier stripped).
    pub fn column(name: impl Into<String>) -> Self {
        let name = name.into();
        let alias = name
            .rsplit_once('.')
            .map(|(_, last)| last.to_owned())
            .unwrap_or_else(|| name.clone());
        ProjectItem {
            expr: Expr::Column(name),
            alias,
        }
    }

    /// A computed projection item.
    pub fn expr(expr: Expr, alias: impl Into<String>) -> Self {
        ProjectItem {
            expr,
            alias: alias.into(),
        }
    }
}

/// A relational-algebra query.
///
/// Sub-queries are reference-counted so that query rewrites (which share
/// large sub-trees, e.g. `Q1 − Q2` built from the two original queries) are
/// cheap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Query {
    /// A base relation scan.
    Relation(String),
    /// σ_pred (input)
    Select {
        /// Input query.
        input: Arc<Query>,
        /// Selection predicate.
        predicate: Expr,
    },
    /// π_items (input) — with set-semantics duplicate elimination.
    Project {
        /// Input query.
        input: Arc<Query>,
        /// Projection list.
        items: Vec<ProjectItem>,
    },
    /// Theta join (or cross product when `predicate` is `None`).
    Join {
        /// Left input.
        left: Arc<Query>,
        /// Right input.
        right: Arc<Query>,
        /// Join predicate; `None` means cross product.
        predicate: Option<Expr>,
    },
    /// Set union (requires union-compatible inputs).
    Union {
        /// Left input.
        left: Arc<Query>,
        /// Right input.
        right: Arc<Query>,
    },
    /// Set difference `left − right` (requires union-compatible inputs).
    Difference {
        /// Left input.
        left: Arc<Query>,
        /// Right input.
        right: Arc<Query>,
    },
    /// ρ: prefix every column of the input with `prefix.` — used to
    /// disambiguate self joins (`Registration r1`, `Registration r2`).
    Rename {
        /// Input query.
        input: Arc<Query>,
        /// Prefix to apply to every column name.
        prefix: String,
    },
    /// γ_{group_by; aggregates} with an optional HAVING predicate evaluated
    /// over the group-by columns and aggregate aliases.
    GroupBy {
        /// Input query.
        input: Arc<Query>,
        /// Group-by column names (possibly empty for a global aggregate).
        group_by: Vec<String>,
        /// Aggregate calls.
        aggregates: Vec<AggCall>,
        /// Optional HAVING predicate.
        having: Option<Expr>,
    },
}

impl Query {
    /// Scan a base relation.
    pub fn relation(name: impl Into<String>) -> Query {
        Query::Relation(name.into())
    }

    /// Children of this node (0, 1 or 2).
    pub fn children(&self) -> Vec<&Query> {
        match self {
            Query::Relation(_) => vec![],
            Query::Select { input, .. }
            | Query::Project { input, .. }
            | Query::Rename { input, .. }
            | Query::GroupBy { input, .. } => vec![input],
            Query::Join { left, right, .. }
            | Query::Union { left, right }
            | Query::Difference { left, right } => vec![left, right],
        }
    }

    /// Short operator name, for metrics and display.
    pub fn operator_name(&self) -> &'static str {
        match self {
            Query::Relation(_) => "relation",
            Query::Select { .. } => "select",
            Query::Project { .. } => "project",
            Query::Join { .. } => "join",
            Query::Union { .. } => "union",
            Query::Difference { .. } => "difference",
            Query::Rename { .. } => "rename",
            Query::GroupBy { .. } => "groupby",
        }
    }

    /// All base relation names referenced by the query (with duplicates for
    /// repeated scans, in left-to-right order).
    pub fn base_relations(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_base_relations(&mut out);
        out
    }

    fn collect_base_relations(&self, out: &mut Vec<String>) {
        if let Query::Relation(name) = self {
            out.push(name.clone());
        }
        for c in self.children() {
            c.collect_base_relations(out);
        }
    }

    /// Whether the query contains any group-by/aggregation operator.
    pub fn has_aggregates(&self) -> bool {
        matches!(self, Query::GroupBy { .. }) || self.children().iter().any(|c| c.has_aggregates())
    }

    /// Whether the query contains any difference operator.
    pub fn has_difference(&self) -> bool {
        matches!(self, Query::Difference { .. })
            || self.children().iter().any(|c| c.has_difference())
    }

    /// The set of parameter names (`@p`) used anywhere in the query.
    pub fn params(&self) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        self.collect_params(&mut out);
        out
    }

    fn collect_params(&self, out: &mut std::collections::BTreeSet<String>) {
        match self {
            Query::Select { predicate, .. } => out.extend(predicate.params()),
            Query::Project { items, .. } => {
                for it in items {
                    out.extend(it.expr.params());
                }
            }
            Query::Join {
                predicate: Some(p), ..
            } => out.extend(p.params()),
            Query::GroupBy {
                aggregates, having, ..
            } => {
                for a in aggregates {
                    out.extend(a.arg.params());
                }
                if let Some(h) = having {
                    out.extend(h.params());
                }
            }
            _ => {}
        }
        for c in self.children() {
            c.collect_params(out);
        }
    }

    /// Replace every parameter with its bound value, producing a
    /// parameter-free query (used once the solver has chosen λ').
    pub fn bind_params(&self, params: &crate::expr::ParamMap) -> Query {
        match self {
            Query::Relation(n) => Query::Relation(n.clone()),
            Query::Select { input, predicate } => Query::Select {
                input: Arc::new(input.bind_params(params)),
                predicate: predicate.bind_params(params),
            },
            Query::Project { input, items } => Query::Project {
                input: Arc::new(input.bind_params(params)),
                items: items
                    .iter()
                    .map(|it| ProjectItem {
                        expr: it.expr.bind_params(params),
                        alias: it.alias.clone(),
                    })
                    .collect(),
            },
            Query::Join {
                left,
                right,
                predicate,
            } => Query::Join {
                left: Arc::new(left.bind_params(params)),
                right: Arc::new(right.bind_params(params)),
                predicate: predicate.as_ref().map(|p| p.bind_params(params)),
            },
            Query::Union { left, right } => Query::Union {
                left: Arc::new(left.bind_params(params)),
                right: Arc::new(right.bind_params(params)),
            },
            Query::Difference { left, right } => Query::Difference {
                left: Arc::new(left.bind_params(params)),
                right: Arc::new(right.bind_params(params)),
            },
            Query::Rename { input, prefix } => Query::Rename {
                input: Arc::new(input.bind_params(params)),
                prefix: prefix.clone(),
            },
            Query::GroupBy {
                input,
                group_by,
                aggregates,
                having,
            } => Query::GroupBy {
                input: Arc::new(input.bind_params(params)),
                group_by: group_by.clone(),
                aggregates: aggregates
                    .iter()
                    .map(|a| AggCall {
                        func: a.func,
                        arg: a.arg.bind_params(params),
                        alias: a.alias.clone(),
                    })
                    .collect(),
                having: having.as_ref().map(|h| h.bind_params(params)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{col, lit, param, rel};
    use ratest_storage::Value;

    #[test]
    fn children_and_operator_names() {
        let q = rel("Student")
            .select(col("major").eq(lit("CS")))
            .project(&["name"])
            .build();
        assert_eq!(q.operator_name(), "project");
        assert_eq!(q.children().len(), 1);
        assert_eq!(q.children()[0].operator_name(), "select");
        assert_eq!(Query::relation("R").children().len(), 0);
    }

    #[test]
    fn base_relations_in_order_with_duplicates() {
        let q = rel("Student")
            .join_on(
                rel("Registration").rename("r1").build(),
                col("name").eq(col("r1.name")),
            )
            .join_on(
                rel("Registration").rename("r2").build(),
                col("name").eq(col("r2.name")),
            )
            .build();
        assert_eq!(
            q.base_relations(),
            vec!["Student", "Registration", "Registration"]
        );
    }

    #[test]
    fn feature_detection() {
        let plain = rel("R").select(col("x").eq(lit(1i64))).build();
        assert!(!plain.has_aggregates());
        assert!(!plain.has_difference());

        let diff = rel("R").difference(rel("S").build()).build();
        assert!(diff.has_difference());

        let agg = rel("R")
            .group_by(&["x"], vec![AggCall::count_star("n")], None)
            .build();
        assert!(agg.has_aggregates());
    }

    #[test]
    fn params_are_collected_and_bindable() {
        let q = rel("R")
            .group_by(
                &["x"],
                vec![AggCall::count_star("n")],
                Some(col("n").ge(param("cutoff"))),
            )
            .build();
        assert_eq!(q.params().into_iter().collect::<Vec<_>>(), vec!["cutoff"]);

        let mut params = crate::expr::ParamMap::new();
        params.insert("cutoff".into(), Value::Int(3));
        let bound = q.bind_params(&params);
        assert!(bound.params().is_empty());
    }

    #[test]
    fn project_item_strips_qualifier_for_alias() {
        let p = ProjectItem::column("s.name");
        assert_eq!(p.alias, "name");
        let p = ProjectItem::column("grade");
        assert_eq!(p.alias, "grade");
    }

    #[test]
    fn agg_func_names() {
        assert_eq!(AggFunc::Count.name(), "count");
        assert_eq!(AggFunc::Avg.name(), "avg");
    }
}
