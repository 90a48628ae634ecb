//! The course answers of the SPJUD algorithms, pinned.
//!
//! Every single-site mutation of the eight course questions
//! (`mutations::mutate`, 76 pairs) is explained on the 100-tuple university
//! instance by each of the four SPJUD algorithms run alone
//! (`pipeline::run_algorithm`, no fallback) — `Basic`, `Optσ`, the monotone
//! poly-time algorithm and the SPJUD\* poly-time algorithm — and through a
//! prepared [`Session`] under `Auto` and forced to `Basic`. Each answer is
//! recorded as one line in the format of the aggregate golden: the chosen
//! tuple ids, the size and both query results on the counterexample (and,
//! for a session, the algorithm that answered), or the kind of error the run
//! ended with.
//!
//! A change that is meant to keep every answer must keep
//! `golden/course_answers.txt` byte for byte. Re-bless with `BLESS=1` only
//! for an intended change of answers.

use crate::aggregate_golden::{check_golden, describe, explain_in, run_alone};
use ratest_core::pipeline::Algorithm;
use ratest_core::session::Session;
use ratest_datagen::{university_database, UniversityConfig};
use ratest_queries::course::course_questions;
use ratest_queries::mutations::mutate;
use ratest_ra::eval::Params;
use std::fmt::Write;

const GOLDEN: &str = "golden/course_answers.txt";

fn answers() -> String {
    let db = university_database(&UniversityConfig::with_total(100));
    let mut out = String::new();
    let sessions = [Algorithm::Auto, Algorithm::Basic]
        .map(|algorithm| Session::builder(db.clone()).algorithm(algorithm).build());
    for question in course_questions() {
        let reference = &question.reference;
        for (index, mutation) in mutate(reference).into_iter().enumerate() {
            let wrong = &mutation.query;
            for algorithm in [
                Algorithm::Basic,
                Algorithm::OptSigma,
                Algorithm::PolytimeMonotone,
                Algorithm::PolytimeSpjudStar,
            ] {
                let result = run_alone(algorithm, reference, wrong, &db, Params::new());
                writeln!(
                    out,
                    "course n=100 q{}#{index} {algorithm:?} [{}]: {}",
                    question.number,
                    mutation.description,
                    describe(result.as_ref().map(|(cex, _)| cex))
                )
                .unwrap();
            }
            for session in &sessions {
                writeln!(
                    out,
                    "course n=100 q{}#{index} Session {:?} [{}]: {}",
                    question.number,
                    session.options().algorithm,
                    mutation.description,
                    explain_in(session, reference, wrong)
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn course_answers_match_the_golden() {
    check_golden(GOLDEN, &answers());
}
