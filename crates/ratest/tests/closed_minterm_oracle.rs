//! Oracle for Basic's candidate skip: wherever the closed-minterm minimum
//! of a candidate's provenance is defined, it must equal what the min-ones
//! solver finds for the candidate's encoding (`Prv ∧ FK`), or both must be
//! infeasible. Every candidate Basic's scan sees is checked: each annotated
//! row of both difference directions, for all 76 course mutations, on the
//! 100- and 200-tuple course instances.

use ratest_core::basic::closed_minterm_minimum;
use ratest_core::encode::{encode_provenance, foreign_key_clauses, VarMap};
use ratest_datagen::{university_database, UniversityConfig};
use ratest_provenance::annotate::{annotate_plan, difference_of};
use ratest_provenance::BoolExpr;
use ratest_queries::course::course_questions;
use ratest_queries::mutations::mutate;
use ratest_ra::eval::Params;
use ratest_ra::plan::Plan;
use ratest_ra::Interrupt;
use ratest_solver::minones::{minimize_ones, MinOnesOptions};
use ratest_solver::{Formula, SolverError};
use ratest_storage::Database;
use ratest_telemetry::MetricsHandle;

/// The solver's answer for one candidate: `Some(k)` for a minimum of `k`
/// tuples, `None` when infeasible.
fn solver_minimum(prv: &BoolExpr, db: &Database) -> Option<usize> {
    let mut vars = VarMap::new();
    let mut parts = vec![encode_provenance(prv, &mut vars)];
    parts.extend(foreign_key_clauses(db, &mut vars).unwrap());
    match minimize_ones(
        &Formula::and(parts),
        &vars.all_vars(),
        &MinOnesOptions::default(),
    ) {
        Ok(solution) => Some(solution.cost),
        Err(SolverError::Unsatisfiable) => None,
        Err(e) => panic!("solver failed: {e}"),
    }
}

#[test]
fn the_closed_minterm_minimum_is_the_solvers_minimum_on_every_course_candidate() {
    let (mut defined, mut undefined, mut infeasible, mut mutations) = (0, 0, 0, 0);
    for tuples in [100, 200] {
        let db = university_database(&UniversityConfig::with_total(tuples));
        let foreign_keys = db.foreign_key_index().unwrap();
        let annotate = |plan: &Plan| {
            annotate_plan(
                plan,
                &db,
                &Params::new(),
                &Interrupt::none(),
                &MetricsHandle::none(),
            )
        };
        for question in course_questions() {
            let reference = annotate(&Plan::compile(&question.reference, &db).unwrap()).unwrap();
            for mutation in mutate(&question.reference) {
                mutations += 1;
                let Ok(plan) = Plan::compile(&mutation.query, &db) else {
                    continue;
                };
                let submission = annotate(&plan).unwrap();
                for (left, right) in [(&reference, &submission), (&submission, &reference)] {
                    let Ok(difference) = difference_of(left, right) else {
                        continue;
                    };
                    for (row, prv) in difference.iter() {
                        let Some(minimum) = closed_minterm_minimum(prv, foreign_keys) else {
                            undefined += 1;
                            continue;
                        };
                        defined += 1;
                        infeasible += usize::from(minimum.is_none());
                        assert_eq!(
                            minimum,
                            solver_minimum(prv, &db),
                            "{tuples} tuples, {}: row {row:?}, provenance {prv}",
                            mutation.description
                        );
                    }
                }
            }
        }
    }
    assert_eq!(mutations, 2 * 76);
    eprintln!("{defined} defined ({infeasible} infeasible), {undefined} left to the solver");
    assert!(defined > 1_000 && infeasible > 0 && undefined > 0);
}
