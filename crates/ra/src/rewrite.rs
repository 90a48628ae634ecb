//! Query rewrites, chiefly **selection push-down**.
//!
//! The `Optσ` algorithm (Algorithm 2 of the paper) adds a tuple-equality
//! selection on top of `Q1 − Q2` and relies on the query optimizer to push it
//! down so that provenance is only computed for the single output tuple of
//! interest. Our evaluator is the substrate standing in for the DBMS, so the
//! push-down lives in two places: [`push_selections_down`] moves a selection
//! through differences, unions, projections, renames and groupings down to
//! the join it filters, and [`crate::plan::Plan::compile`], which pushes
//! every join's single-side conjuncts into its inputs anyway, splits it
//! there. [`push_selections_down`] is the difference between the `prov-all`
//! and `prov-sp` series of Figure 4.

use crate::ast::{ProjectItem, Query};
use crate::error::Result;
use crate::expr::Expr;
use crate::typecheck::output_schema;
use ratest_storage::Database;
use std::sync::Arc;

/// Push selection predicates as far down the tree as possible.
///
/// Supported moves (all standard algebraic equivalences under set semantics):
/// * `σ_p(σ_q(E))`             → merge into `σ_{p∧q}(E)` and keep pushing,
/// * `σ_p(π_items(E))`         → `π_items(σ_{p'}(E))` where `p'` substitutes
///   each alias with its defining expression,
/// * `σ_p(E₁ ∪ E₂)`            → `σ_p(E₁) ∪ σ_{p''}(E₂)`,
/// * `σ_p(E₁ − E₂)`            → `σ_p(E₁) − σ_{p''}(E₂)` (`p''` maps columns
///   by position onto E₂'s names),
/// * `σ_p(E₁ ⋈ E₂)`            → stays above the join, whose inputs are
///   rewritten: [`crate::plan::Plan::compile`] fuses it into the join and
///   moves each conjunct that reads one input only into that input,
/// * `σ_p(ρ_x(E))`             → `ρ_x(σ_{p'}(E))` with names mapped by
///   position,
/// * `σ_p(γ(E))`               → conjuncts referencing only group-by columns
///   are pushed below the aggregation.
pub fn push_selections_down(query: &Query, db: &Database) -> Result<Query> {
    match query {
        Query::Select { input, predicate } => {
            let inner = push_selections_down(input, db)?;
            push_predicate(predicate.clone(), &inner, db)
        }
        Query::Project { input, items } => Ok(Query::Project {
            input: Arc::new(push_selections_down(input, db)?),
            items: items.clone(),
        }),
        Query::Join {
            left,
            right,
            predicate,
        } => Ok(Query::Join {
            left: Arc::new(push_selections_down(left, db)?),
            right: Arc::new(push_selections_down(right, db)?),
            predicate: predicate.clone(),
        }),
        Query::Union { left, right } => Ok(Query::Union {
            left: Arc::new(push_selections_down(left, db)?),
            right: Arc::new(push_selections_down(right, db)?),
        }),
        Query::Difference { left, right } => Ok(Query::Difference {
            left: Arc::new(push_selections_down(left, db)?),
            right: Arc::new(push_selections_down(right, db)?),
        }),
        Query::Rename { input, prefix } => Ok(Query::Rename {
            input: Arc::new(push_selections_down(input, db)?),
            prefix: prefix.clone(),
        }),
        Query::GroupBy {
            input,
            group_by,
            aggregates,
            having,
        } => Ok(Query::GroupBy {
            input: Arc::new(push_selections_down(input, db)?),
            group_by: group_by.clone(),
            aggregates: aggregates.clone(),
            having: having.clone(),
        }),
        Query::Relation(_) => Ok(query.clone()),
    }
}

/// Push one selection predicate into `input` as deep as possible; wraps the
/// remainder (or everything, if nothing could be pushed) in a `Select`.
fn push_predicate(predicate: Expr, input: &Query, db: &Database) -> Result<Query> {
    match input {
        Query::Select {
            input: inner,
            predicate: q,
        } => {
            // Merge σ_p(σ_q(E)) = σ_{p ∧ q}(E) and keep pushing.
            push_predicate(predicate.and(q.clone()), inner, db)
        }
        Query::Project {
            input: inner,
            items,
        } => {
            // Only push when every referenced alias maps to a pure column or
            // literal expression (substitution is then exact).
            let rewritten = substitute_aliases(&predicate, items);
            match rewritten {
                Some(p) => Ok(Query::Project {
                    input: Arc::new(push_predicate(p, inner, db)?),
                    items: items.clone(),
                }),
                None => Ok(wrap(predicate, input)),
            }
        }
        Query::Union { left, right } => {
            let p_right = remap_by_position(&predicate, left, right, db)?;
            Ok(Query::Union {
                left: Arc::new(push_predicate(predicate, left, db)?),
                right: Arc::new(push_predicate(p_right, right, db)?),
            })
        }
        Query::Difference { left, right } => {
            let p_right = remap_by_position(&predicate, left, right, db)?;
            Ok(Query::Difference {
                left: Arc::new(push_predicate(predicate, left, db)?),
                right: Arc::new(push_predicate(p_right, right, db)?),
            })
        }
        // `Plan::compile` splits a selection fused above a join between
        // its inputs, with the schemas it resolves anyway.
        Query::Join { .. } => Ok(wrap(predicate, &push_selections_down(input, db)?)),
        Query::Rename {
            input: inner,
            prefix,
        } => {
            let outer = output_schema(input, db)?;
            let inner_schema = output_schema(inner, db)?;
            let mapped = remap_columns(&predicate, |name| {
                Expr::resolve_column(&outer, name)
                    .ok()
                    .map(|i| inner_schema.column(i).name.clone())
            });
            match mapped {
                Some(p) => Ok(Query::Rename {
                    input: Arc::new(push_predicate(p, inner, db)?),
                    prefix: prefix.clone(),
                }),
                None => Ok(wrap(predicate, input)),
            }
        }
        Query::GroupBy {
            input: inner,
            group_by,
            aggregates,
            having,
        } => {
            let out = output_schema(input, db)?;
            let group_aliases: Vec<String> = out
                .names()
                .take(group_by.len())
                .map(|s| s.to_owned())
                .collect();
            let mut push = Vec::new();
            let mut stay = Vec::new();
            for conj in predicate.conjuncts() {
                let cols = conj.columns();
                let only_groups = cols.iter().all(|c| {
                    group_aliases
                        .iter()
                        .any(|g| g == c || c.ends_with(&format!(".{g}")))
                });
                if only_groups {
                    push.push(conj.clone());
                } else {
                    stay.push(conj.clone());
                }
            }
            // Rewrite pushed conjuncts onto the input's column names.
            let pushed_input = match Expr::conjunction(push) {
                Some(p) => {
                    let mapped = remap_columns(&p, |name| {
                        // The i-th output column corresponds to group_by[i].
                        out.index_of(name)
                            .filter(|&i| i < group_by.len())
                            .map(|i| group_by[i].clone())
                            .or_else(|| Some(name.to_owned()))
                    });
                    match mapped {
                        Some(p) => push_predicate(p, inner, db)?,
                        None => push_selections_down(inner, db)?,
                    }
                }
                None => push_selections_down(inner, db)?,
            };
            let grouped = Query::GroupBy {
                input: Arc::new(pushed_input),
                group_by: group_by.clone(),
                aggregates: aggregates.clone(),
                having: having.clone(),
            };
            Ok(match Expr::conjunction(stay) {
                Some(p) => wrap(p, &grouped),
                None => grouped,
            })
        }
        Query::Relation(_) => Ok(wrap(predicate, input)),
    }
}

fn wrap(predicate: Expr, input: &Query) -> Query {
    Query::Select {
        input: Arc::new(input.clone()),
        predicate,
    }
}

/// Substitute projection aliases by their defining expressions; `None` if any
/// referenced column is not an output of the projection.
fn substitute_aliases(predicate: &Expr, items: &[ProjectItem]) -> Option<Expr> {
    remap_expr(predicate, &|name: &str| {
        items
            .iter()
            .find(|it| it.alias == name || name.ends_with(&format!(".{}", it.alias)))
            .map(|it| it.expr.clone())
    })
}

/// Rewrite column references using a name→name mapping; `None` when any
/// reference fails to map.
fn remap_columns<F: Fn(&str) -> Option<String>>(predicate: &Expr, map: F) -> Option<Expr> {
    remap_expr(predicate, &|name: &str| map(name).map(Expr::Column))
}

fn remap_expr<F: Fn(&str) -> Option<Expr>>(e: &Expr, map: &F) -> Option<Expr> {
    match e {
        Expr::Column(name) => map(name),
        Expr::Literal(_) | Expr::Param(_) => Some(e.clone()),
        Expr::Unary { op, expr } => Some(Expr::Unary {
            op: *op,
            expr: Box::new(remap_expr(expr, map)?),
        }),
        Expr::Binary { op, left, right } => Some(Expr::Binary {
            op: *op,
            left: Box::new(remap_expr(left, map)?),
            right: Box::new(remap_expr(right, map)?),
        }),
    }
}

/// Remap a predicate written against `left`'s schema onto `right`'s schema by
/// column position (used to push through ∪ and −, whose inputs are union
/// compatible but may use different column names).
fn remap_by_position(predicate: &Expr, left: &Query, right: &Query, db: &Database) -> Result<Expr> {
    let ls = output_schema(left, db)?;
    let rs = output_schema(right, db)?;
    Ok(remap_columns(predicate, |name| {
        Expr::resolve_column(&ls, name)
            .ok()
            .map(|i| rs.column(i).name.clone())
    })
    .unwrap_or_else(|| predicate.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{col, lit, rel};
    use crate::eval::evaluate;
    use crate::plan::{Op, Plan};
    use ratest_storage::{DataType, Relation, Schema, Value};

    fn db() -> Database {
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
        let mut db = Database::new("t");
        db.add_relation(r).unwrap();
        db.add_relation(s).unwrap();
        db
    }

    /// Push-down must preserve query semantics.
    fn assert_equivalent(q: &Query, db: &Database) {
        let pushed = push_selections_down(q, db).unwrap();
        let a = evaluate(q, db).unwrap();
        let b = evaluate(&pushed, db).unwrap();
        assert!(a.set_eq(&b), "push-down changed the result of {q:?}");
    }

    #[test]
    fn pushes_through_projection() {
        let db = db();
        let q = rel("R")
            .project(&["a"])
            .select(col("a").eq(lit(4i64)))
            .build();
        let pushed = push_selections_down(&q, &db).unwrap();
        // The top operator should now be the projection.
        assert_eq!(pushed.operator_name(), "project");
        assert_equivalent(&q, &db);
    }

    #[test]
    fn leaves_a_selection_above_a_join_for_compile_to_split() {
        let db = db();
        let q = rel("R")
            .join_on(rel("S").build(), col("a").eq(col("c")))
            .select(col("b").eq(lit("even")).and(col("d").eq(lit("x"))))
            .project(&["a"])
            .select(col("a").lt(lit(15i64)))
            .build();
        let pushed = push_selections_down(&q, &db).unwrap();
        assert_eq!(pushed.operator_name(), "project");
        assert_equivalent(&q, &db);
        // Under the projection, the merged selection sits on the join, and
        // compiling moves each of its conjuncts into the input it reads.
        let Query::Project { input, .. } = &pushed else {
            unreachable!("checked above")
        };
        assert_eq!(input.operator_name(), "select");
        let plan = Plan::compile(input, &db).unwrap();
        let Op::Join {
            left,
            right,
            select: None,
            ..
        } = &plan.root().op
        else {
            panic!("every conjunct reads one input: {:?}", plan.root().op);
        };
        assert!(matches!(left.op, Op::Select { .. }));
        assert!(matches!(right.op, Op::Select { .. }));
    }

    #[test]
    fn pushes_through_difference_and_union() {
        let db = db();
        let q = rel("R")
            .project(&["a"])
            .difference(rel("S").project(&["c"]).build())
            .select(col("a").lt(lit(5i64)))
            .build();
        let pushed = push_selections_down(&q, &db).unwrap();
        assert_eq!(pushed.operator_name(), "difference");
        assert_equivalent(&q, &db);

        let q = rel("R")
            .project(&["a"])
            .union(rel("S").project(&["c"]).build())
            .select(col("a").ge(lit(25i64)))
            .build();
        assert_equivalent(&q, &db);
    }

    #[test]
    fn pushes_through_rename() {
        let db = db();
        let q = rel("R")
            .rename("r")
            .select(col("r.a").eq(lit(3i64)))
            .build();
        let pushed = push_selections_down(&q, &db).unwrap();
        assert_eq!(pushed.operator_name(), "rename");
        assert_equivalent(&q, &db);
    }

    #[test]
    fn groupby_pushes_group_column_predicates_only() {
        let db = db();
        let q = rel("R")
            .group_by(&["b"], vec![crate::ast::AggCall::count_star("n")], None)
            .select(col("b").eq(lit("even")).and(col("n").ge(lit(1i64))))
            .build();
        let pushed = push_selections_down(&q, &db).unwrap();
        // The aggregate-alias conjunct must remain above the group-by.
        assert_eq!(pushed.operator_name(), "select");
        assert_equivalent(&q, &db);
    }

    #[test]
    fn merges_stacked_selections() {
        let db = db();
        let q = rel("R")
            .select(col("a").ge(lit(2i64)))
            .select(col("a").le(lit(10i64)))
            .build();
        assert_equivalent(&q, &db);
    }
}
