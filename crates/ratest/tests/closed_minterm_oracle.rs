//! Oracle for the closed-minterm engine as Basic uses it: wherever the
//! engine settles a candidate's provenance within Basic's caps, its
//! selection must satisfy the provenance, be closed under foreign keys and
//! have the size the min-ones solver finds for the candidate's encoding
//! (`Prv ∧ FK`), or both must be infeasible. Every candidate Basic's scan
//! sees is checked: each annotated row of both difference directions, for
//! all 76 course mutations, on the 100- and 200-tuple course instances.

use ratest_core::basic::EXPANSION_CAPS;
use ratest_core::encode::{encode_provenance, foreign_key_clauses, VarMap};
use ratest_datagen::{university_database, UniversityConfig};
use ratest_provenance::annotate::{annotate_plan, difference_of};
use ratest_provenance::{BoolExpr, ClosedMinterms};
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
fn the_closed_minterm_selection_is_a_smallest_witness_on_every_course_candidate() {
    let (mut defined, mut undefined, mut infeasible, mut mutations) = (0, 0, 0, 0);
    for tuples in [100, 200] {
        let db = university_database(&UniversityConfig::with_total(tuples));
        let foreign_keys = db.foreign_key_index().unwrap();
        let mut engine = ClosedMinterms::new(foreign_keys);
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
                        let Ok(selection) = engine.smallest(prv, usize::MAX, EXPANSION_CAPS) else {
                            undefined += 1;
                            continue;
                        };
                        defined += 1;
                        infeasible += usize::from(selection.is_none());
                        let context = format!(
                            "{tuples} tuples, {}: row {row:?}, provenance {prv}",
                            mutation.description
                        );
                        if let Some(selection) = &selection {
                            assert!(prv.eval(&|id| selection.contains(id)), "{context}");
                            let mut closed = selection.clone();
                            assert_eq!(closed.close_under(foreign_keys), 0, "{context}");
                        }
                        assert_eq!(
                            selection.map(|s| s.len()),
                            solver_minimum(prv, &db),
                            "{context}"
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
