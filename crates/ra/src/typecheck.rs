//! Static analysis: compute the output schema of a query against a database
//! catalog, checking column references and union compatibility along the way.

use crate::ast::{AggFunc, Query};
use crate::error::{QueryError, Result};
use crate::expr::Expr;
use crate::plan::Plan;
use ratest_storage::{Column, DataType, Database, Schema};

/// Compute the output schema of `query` when evaluated against `db`.
///
/// This is the schema of the query's compiled [`Plan`], so it performs all
/// the static checks the evaluator relies on:
/// * base relations exist,
/// * every column reference resolves (unambiguously) against its input,
/// * union/difference inputs are union compatible,
/// * group-by columns exist and HAVING only references group-by columns and
///   aggregate aliases.
pub fn output_schema(query: &Query, db: &Database) -> Result<Schema> {
    Ok(Plan::compile(query, db)?.schema().clone())
}

/// The output type of an aggregate call.
pub fn aggregate_type(func: AggFunc, arg: &Expr, input: &Schema) -> Result<DataType> {
    Ok(match func {
        AggFunc::Count => DataType::Int,
        AggFunc::Avg => DataType::Double,
        AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
            let t = arg.infer_type(input)?;
            if func == AggFunc::Sum && !t.is_numeric() {
                return Err(QueryError::TypeError(format!(
                    "SUM over non-numeric type {t}"
                )));
            }
            t
        }
    })
}

/// Prefix every column of a schema with `prefix.` (stripping any existing
/// qualifier first, so `ρ_{r2}(ρ_{r1}(R))` yields `r2.*` not `r2.r1.*`).
pub fn rename_schema(schema: &Schema, prefix: &str) -> Schema {
    Schema::from_columns(
        schema
            .columns()
            .iter()
            .map(|c| {
                let base = c
                    .name
                    .rsplit_once('.')
                    .map(|(_, last)| last.to_owned())
                    .unwrap_or_else(|| c.name.clone());
                Column {
                    name: format!("{prefix}.{base}"),
                    data_type: c.data_type,
                    nullable: c.nullable,
                }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AggCall;
    use crate::builder::{col, lit, rel};
    use ratest_storage::{Relation, Value};

    fn db() -> Database {
        let mut student = Relation::new(
            "Student",
            Schema::new(vec![("name", DataType::Text), ("major", DataType::Text)]),
        );
        student
            .insert(vec![Value::from("Mary"), Value::from("CS")])
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
        reg.insert(vec![
            Value::from("Mary"),
            Value::from("216"),
            Value::from("CS"),
            Value::Int(100),
        ])
        .unwrap();
        let mut db = Database::new("toy");
        db.add_relation(student).unwrap();
        db.add_relation(reg).unwrap();
        db
    }

    #[test]
    fn relation_and_select_schemas() {
        let db = db();
        let q = rel("Student").select(col("major").eq(lit("CS"))).build();
        let s = output_schema(&q, &db).unwrap();
        assert_eq!(s.names().collect::<Vec<_>>(), vec!["name", "major"]);

        let bad = rel("Student").select(col("zzz").eq(lit(1i64))).build();
        assert!(output_schema(&bad, &db).is_err());

        let nonbool = rel("Student").select(col("name")).build();
        assert!(matches!(
            output_schema(&nonbool, &db),
            Err(QueryError::TypeError(_))
        ));
    }

    #[test]
    fn join_concats_and_rename_qualifies() {
        let db = db();
        let q = rel("Student")
            .rename("s")
            .join_on(
                rel("Registration").rename("r").build(),
                col("s.name").eq(col("r.name")),
            )
            .build();
        let s = output_schema(&q, &db).unwrap();
        assert_eq!(s.arity(), 6);
        assert_eq!(s.column(0).name, "s.name");
        assert_eq!(s.column(2).name, "r.name");
    }

    #[test]
    fn double_rename_does_not_stack_prefixes() {
        let db = db();
        let q = rel("Registration").rename("r1").rename("r2").build();
        let s = output_schema(&q, &db).unwrap();
        assert_eq!(s.column(0).name, "r2.name");
    }

    #[test]
    fn union_compatibility_is_enforced() {
        let db = db();
        let ok = rel("Student")
            .project(&["name"])
            .union(rel("Registration").project(&["course"]).build())
            .build();
        assert!(output_schema(&ok, &db).is_ok());

        let bad = rel("Student").union(rel("Registration").build()).build();
        assert!(matches!(
            output_schema(&bad, &db),
            Err(QueryError::NotUnionCompatible { .. })
        ));
    }

    #[test]
    fn groupby_schema_and_having_checks() {
        let db = db();
        let q = rel("Registration")
            .group_by(
                &["name"],
                vec![
                    AggCall::new(AggFunc::Avg, col("grade"), "avg_grade"),
                    AggCall::count_star("n"),
                ],
                Some(col("n").ge(lit(3i64))),
            )
            .build();
        let s = output_schema(&q, &db).unwrap();
        assert_eq!(
            s.names().collect::<Vec<_>>(),
            vec!["name", "avg_grade", "n"]
        );
        assert_eq!(s.column(1).data_type, DataType::Double);
        assert_eq!(s.column(2).data_type, DataType::Int);

        // HAVING referencing a non-output column fails.
        let bad = rel("Registration")
            .group_by(
                &["name"],
                vec![AggCall::count_star("n")],
                Some(col("grade").ge(lit(3i64))),
            )
            .build();
        assert!(output_schema(&bad, &db).is_err());
    }

    #[test]
    fn sum_over_text_is_a_type_error() {
        let db = db();
        let q = rel("Registration")
            .group_by(
                &["name"],
                vec![AggCall::new(AggFunc::Sum, col("course"), "s")],
                None,
            )
            .build();
        assert!(matches!(
            output_schema(&q, &db),
            Err(QueryError::TypeError(_))
        ));
    }

    #[test]
    fn unknown_relation_is_reported() {
        let db = db();
        assert!(output_schema(&Query::relation("Nope"), &db).is_err());
    }

    #[test]
    fn projection_computes_types() {
        let db = db();
        let q = rel("Registration")
            .project_items(vec![
                crate::ast::ProjectItem::column("name"),
                crate::ast::ProjectItem::expr(col("grade").add(lit(5i64)), "bumped"),
            ])
            .build();
        let s = output_schema(&q, &db).unwrap();
        assert_eq!(s.column(1).name, "bumped");
        assert_eq!(s.column(1).data_type, DataType::Int);
    }
}
