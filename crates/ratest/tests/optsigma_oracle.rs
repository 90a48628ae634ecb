//! Oracle for Optσ's single-tuple provenance: filtering `Q1 − Q2` down to
//! one tuple must not change that tuple's how-provenance. For every course
//! mutation on the 100-tuple instance, every tuple in the symmetric
//! difference of the two results and both directions of the difference,
//! `provenance_for_tuple` must print exactly what annotating the whole
//! difference gives that tuple (`False` when the difference lacks it).

use ratest_core::optsigma::provenance_for_tuple;
use ratest_core::problem::{difference_query, differing_tuples};
use ratest_core::RatestOptions;
use ratest_datagen::{university_database, UniversityConfig};
use ratest_provenance::annotate::annotate;
use ratest_provenance::BoolExpr;
use ratest_queries::course::course_questions;
use ratest_queries::mutations::mutate;
use ratest_ra::eval::{evaluate, Params};

#[test]
fn single_tuple_provenance_equals_the_whole_difference_on_every_course_tuple() {
    let db = university_database(&UniversityConfig::with_total(100));
    let options = RatestOptions::default();
    let (mut pairs, mut checked) = (0, 0);
    for question in course_questions() {
        let q1 = &question.reference;
        let r1 = evaluate(q1, &db).unwrap();
        for mutation in mutate(q1) {
            let q2 = &mutation.query;
            let Ok(r2) = evaluate(q2, &db) else { continue };
            let diffs = differing_tuples(&r1, &r2);
            if diffs.is_empty() {
                continue;
            }
            pairs += 1;
            for from_q1 in [true, false] {
                let whole = annotate(&difference_query(q1, q2, from_q1), &db).unwrap();
                for (tuple, _) in &diffs {
                    let expected = whole.provenance_of(tuple).cloned();
                    let got =
                        provenance_for_tuple(q1, q2, &db, &Params::new(), tuple, from_q1, &options)
                            .unwrap();
                    assert_eq!(
                        got.to_string(),
                        expected.unwrap_or(BoolExpr::False).to_string(),
                        "q{} [{}], tuple {tuple:?}, from_q1 = {from_q1}",
                        question.number,
                        mutation.description,
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(pairs >= 60, "only {pairs} course pairs differ");
    assert!(checked > pairs * 2, "{checked} tuples checked");
}
