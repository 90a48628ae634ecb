//! Human-readable explanation reports — the command-line stand-in for the
//! RATest web UI, which showed students the small counterexample instance
//! together with the results of both queries on it.

use crate::pipeline::ExplainOutcome;
use crate::problem::Counterexample;
use ratest_ra::eval::ResultSet;
use ratest_storage::display::{render_database, render_table};

/// Render a full explanation: the counterexample instance, both query
/// results on it, and (when present) the differing tuple and chosen
/// parameters.
pub fn render_explanation(outcome: &ExplainOutcome) -> String {
    let mut out = String::new();
    match &outcome.counterexample {
        None => {
            out.push_str("The two queries return the same result on the test instance.\n");
            out.push_str("No counterexample exists within this instance.\n");
        }
        Some(cex) => {
            out.push_str(&format!(
                "The queries are NOT equivalent. Counterexample with {} tuple(s) (query class {}, algorithm {:?}):\n\n",
                cex.size(),
                outcome.class,
                outcome.algorithm_used
            ));
            out.push_str(&render_counterexample(cex));
        }
    }
    out
}

/// Render just the counterexample (instance + both results).
pub fn render_counterexample(cex: &Counterexample) -> String {
    let mut out = String::new();
    out.push_str(&render_database(cex.database()));
    if !cex.parameters.is_empty() {
        let mut params: Vec<String> = cex
            .parameters
            .iter()
            .map(|(k, v)| format!("@{k} = {v}"))
            .collect();
        params.sort();
        out.push_str(&format!("Chosen parameters: {}\n\n", params.join(", ")));
    }
    if let Some(w) = &cex.witness {
        let side = if w.from_q1 {
            "Q1 but not Q2"
        } else {
            "Q2 but not Q1"
        };
        let rendered: Vec<String> = w.tuple.iter().map(|v| v.to_string()).collect();
        out.push_str(&format!(
            "On this instance the tuple ({}) appears in {}.\n\n",
            rendered.join(", "),
            side
        ));
    }
    out.push_str(&render_result(
        "Result of Q1 on the counterexample",
        &cex.q1_result,
    ));
    out.push('\n');
    out.push_str(&render_result(
        "Result of Q2 on the counterexample",
        &cex.q2_result,
    ));
    out
}

/// Render a query result as a table.
pub fn render_result(caption: &str, result: &ResultSet) -> String {
    let headers: Vec<String> = result.schema().names().map(|s| s.to_owned()).collect();
    let rows: Vec<Vec<String>> = result
        .rows()
        .iter()
        .map(|r| r.iter().map(|v| v.to_string()).collect())
        .collect();
    if rows.is_empty() {
        format!("{caption}\n(empty result)\n")
    } else {
        render_table(caption, &headers, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Result;
    use crate::pipeline::ExplainOutcome;
    use crate::session::Session;
    use ratest_ra::ast::Query;
    use ratest_ra::testdata;
    use ratest_storage::Database;

    /// Explain a pair through a fresh session.
    fn explain(q1: &Query, q2: &Query, db: &Database) -> Result<ExplainOutcome> {
        Session::builder(db.clone()).build().explain_pair(q1, q2)
    }

    #[test]
    fn explanation_contains_instance_and_results() {
        let db = testdata::figure1_db();
        let outcome = explain(&testdata::example1_q1(), &testdata::example1_q2(), &db).unwrap();
        let text = render_explanation(&outcome);
        assert!(text.contains("NOT equivalent"));
        assert!(text.contains("Student"));
        assert!(text.contains("Registration"));
        assert!(text.contains("Result of Q1"));
        assert!(text.contains("Result of Q2"));
        assert!(text.contains("but not"));
    }

    #[test]
    fn agreeing_queries_render_a_pass_message() {
        let db = testdata::figure1_db();
        let q = testdata::example1_q1();
        let outcome = explain(&q, &q, &db).unwrap();
        let text = render_explanation(&outcome);
        assert!(text.contains("same result"));
    }

    #[test]
    fn empty_results_render_gracefully() {
        let db = testdata::figure1_db();
        let outcome = explain(&testdata::example1_q1(), &testdata::example1_q2(), &db).unwrap();
        let cex = outcome.counterexample.unwrap();
        // Q1 on the 3-tuple counterexample is empty.
        let text = render_result("caption", &cex.q1_result);
        assert!(text.contains("(empty result)"));
    }

    #[test]
    fn parameters_are_rendered_when_present() {
        let outcome = Session::builder(testdata::figure1_db())
            .param("numCS", 3)
            .build()
            .explain_pair(&testdata::example6_q1(), &testdata::example6_q2())
            .unwrap();
        let text = render_explanation(&outcome);
        assert!(text.contains("Chosen parameters"));
        assert!(text.contains("@numCS"));
    }
}
