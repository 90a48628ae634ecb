//! Bridging the typed [`ExplainEvent`] stream into hierarchical trace spans.
//!
//! [`TracingSink`] is an [`EventSink`] that folds the flat event stream into
//! the span taxonomy `explain > phase > candidate > solver_call`: each
//! explain run opens a root `explain` span, every [`ExplainEvent::PhaseStarted`]
//! opens a `phase` child, candidates nest under their phase, and each solver
//! invocation is a leaf `solver_call`. The final
//! [`ExplainEvent::Verdict`] closes the tree, stamping the verdict onto the
//! root, so several runs through one sink produce a forest of independent
//! trees.
//!
//! Like the events themselves, the spans carry only deterministic facts — no
//! timestamps — so an NDJSON export ([`TracingSink::to_ndjson`]) is
//! byte-identical across identical runs.

use crate::session::{EventSink, ExplainEvent};
use ratest_telemetry::span::{SpanCollector, SpanRecord};

/// Span nesting depths of the explain taxonomy.
const DEPTH_ROOT: usize = 1;
const DEPTH_PHASE: usize = 2;

/// An [`EventSink`] recording the explain-span tree.
#[derive(Debug, Default)]
pub struct TracingSink {
    collector: SpanCollector,
}

impl TracingSink {
    /// A fresh sink with no recorded spans.
    pub fn new() -> TracingSink {
        TracingSink::default()
    }

    fn ensure_root(&self) {
        if self.collector.depth() == 0 {
            self.collector.open("explain", "");
        }
    }

    /// Close any open spans and return the recorded forest.
    pub fn finish(&self) -> Vec<SpanRecord> {
        self.collector.finish()
    }

    /// Export every recorded span as NDJSON (one object per line, open
    /// order, no timestamps).
    pub fn to_ndjson(&self) -> String {
        self.collector.to_ndjson()
    }
}

impl EventSink for TracingSink {
    fn emit(&self, event: &ExplainEvent) {
        match event {
            ExplainEvent::PhaseStarted { phase } => {
                self.ensure_root();
                self.collector.close_to_depth(DEPTH_ROOT);
                self.collector.open("phase", phase.name());
            }
            ExplainEvent::CandidateChecked { index, best_size } => {
                self.ensure_root();
                // Candidates nest directly under the current phase; a stray
                // candidate without a phase hangs off the root.
                if self.collector.depth() > DEPTH_PHASE {
                    self.collector.close_to_depth(DEPTH_PHASE);
                }
                self.collector.open("candidate", &index.to_string());
                self.collector.set_attr("index", *index as i64);
                if let Some(best) = best_size {
                    self.collector.set_attr("best_size", *best as i64);
                }
            }
            ExplainEvent::SolverStats {
                variables,
                solution_size,
            } => {
                self.ensure_root();
                self.collector.open("solver_call", "");
                self.collector.set_attr("variables", *variables as i64);
                self.collector.set_attr(
                    "solution_size",
                    solution_size.map(|s| s as i64).unwrap_or(-1),
                );
                self.collector.close();
            }
            ExplainEvent::Verdict {
                agrees,
                counterexample_size,
                ..
            } => {
                self.ensure_root();
                self.collector.close_to_depth(DEPTH_ROOT);
                self.collector.set_attr("agrees", i64::from(*agrees));
                if let Some(size) = counterexample_size {
                    self.collector.set_attr("counterexample_size", *size as i64);
                }
                self.collector.close();
            }
            ExplainEvent::RepairStarted { candidates } => {
                self.ensure_root();
                self.collector.close_to_depth(DEPTH_ROOT);
                self.collector.open("phase", "repair");
                self.collector.set_attr("candidates", *candidates as i64);
            }
            ExplainEvent::RepairCandidateChecked { index, confirmed } => {
                self.ensure_root();
                if self.collector.depth() > DEPTH_PHASE {
                    self.collector.close_to_depth(DEPTH_PHASE);
                }
                self.collector.open("candidate", &index.to_string());
                self.collector.set_attr("index", *index as i64);
                self.collector.set_attr("confirmed", i64::from(*confirmed));
                self.collector.close();
            }
            ExplainEvent::RepairFinished { suggestions, tried } => {
                self.ensure_root();
                self.collector.close_to_depth(DEPTH_ROOT);
                self.collector
                    .set_attr("repair_suggestions", *suggestions as i64);
                self.collector.set_attr("repair_tried", *tried as i64);
                self.collector.close();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use ratest_ra::testdata;
    use std::sync::Arc;

    #[test]
    fn an_explain_run_produces_the_span_taxonomy() {
        let sink = Arc::new(TracingSink::new());
        // A nested difference whose candidates reach the solver, so every
        // level of the taxonomy appears.
        let (db, q1, q2) = crate::session::tests::nested_difference_pair();
        let session = Session::builder(db).event_sink(sink.clone()).build();
        session.explain_pair(&q1, &q2).unwrap();

        let spans = sink.finish();
        assert!(!spans.is_empty());
        // Exactly one root, carrying the verdict.
        let roots: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "explain");
        assert!(roots[0].attrs.iter().any(|(k, _)| k == "agrees"));
        assert!(roots[0]
            .attrs
            .iter()
            .any(|(k, v)| k == "counterexample_size" && *v == 3));
        // Every taxonomy level appears, correctly nested.
        for name in ["phase", "candidate", "solver_call"] {
            assert!(spans.iter().any(|s| s.name == name), "missing {name}");
        }
        for span in &spans {
            match span.name.as_str() {
                "explain" => assert_eq!(span.depth, 0),
                "phase" => assert_eq!(span.depth, 1),
                "candidate" => assert_eq!(span.depth, 2),
                "solver_call" => assert!(span.depth >= 1),
                other => panic!("unexpected span kind {other}"),
            }
        }
    }

    #[test]
    fn two_identical_runs_export_identical_ndjson() {
        let run = || {
            let sink = Arc::new(TracingSink::new());
            let session = Session::builder(testdata::figure1_db())
                .event_sink(sink.clone())
                .build();
            session
                .explain_pair(&testdata::example1_q1(), &testdata::example1_q2())
                .unwrap();
            sink.to_ndjson()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.lines().all(|l| l.starts_with("{\"span\":\"")));
    }

    #[test]
    fn consecutive_runs_form_a_forest() {
        let sink = Arc::new(TracingSink::new());
        let session = Session::builder(testdata::figure1_db())
            .event_sink(sink.clone())
            .build();
        session
            .explain_pair(&testdata::example1_q1(), &testdata::example1_q2())
            .unwrap();
        session
            .explain_pair(&testdata::example1_q1(), &testdata::example1_q2())
            .unwrap();
        let spans = sink.finish();
        assert_eq!(spans.iter().filter(|s| s.parent.is_none()).count(), 2);
    }
}
