//! Class-level reports: per-submission verdict table, aggregate statistics,
//! and a JSON rendering for downstream tooling (LMS upload, dashboards).

use crate::json::Json;
use crate::verdict::{GradedSubmission, Verdict};
use ratest_core::report::render_counterexample;
use ratest_repair::RepairSuggestion;
use std::fmt::Write as _;
use std::time::Duration;

/// Aggregate statistics for one graded batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// Total submissions in the batch.
    pub submissions: usize,
    /// Distinct canonical fingerprints among them.
    pub distinct_groups: usize,
    /// Submissions whose verdict was shared from another member of their
    /// fingerprint group (`submissions − distinct_groups`).
    pub dedup_hits: usize,
    /// Distinct groups answered from the cross-batch verdict cache.
    pub cache_hits: usize,
    /// Explanation pipeline runs actually executed
    /// (`distinct_groups − cache_hits`).
    pub pipeline_runs: usize,
    /// Worker threads configured.
    pub workers: usize,
    /// Submissions that agree with the reference.
    pub correct: usize,
    /// Submissions with a counterexample.
    pub wrong: usize,
    /// Submissions that could not be graded.
    pub errors: usize,
    /// Submissions whose grading timed out.
    pub timeouts: usize,
    /// Submissions rejected by the SQL/RA frontend before grading.
    pub rejected: usize,
    /// Wall-clock time for the whole batch.
    pub wall_time: Duration,
    /// Sum of per-job grading times (≥ `wall_time` when workers > 1 and the
    /// pool is busy — the parallel speedup is `total_grading_time /
    /// wall_time`).
    pub total_grading_time: Duration,
    /// Mean counterexample size over wrong submissions (0 when none).
    pub mean_counterexample_size: f64,
}

impl BatchStats {
    /// Aggregate from per-submission outcomes.
    pub fn collect(
        graded: &[GradedSubmission],
        distinct_groups: usize,
        cache_hits: usize,
        pipeline_runs: usize,
        workers: usize,
        wall_time: Duration,
    ) -> BatchStats {
        let mut correct = 0;
        let mut wrong = 0;
        let mut errors = 0;
        let mut timeouts = 0;
        let mut rejected = 0;
        let mut cex_sizes: Vec<usize> = Vec::new();
        for g in graded {
            match &g.verdict {
                Verdict::Correct => correct += 1,
                Verdict::Wrong { counterexample, .. } => {
                    wrong += 1;
                    cex_sizes.push(counterexample.size());
                }
                Verdict::Error { .. } => errors += 1,
                Verdict::Timeout { .. } => timeouts += 1,
                Verdict::Rejected { .. } => rejected += 1,
            }
        }
        // Each group's grading time is counted once (not per member).
        let mut seen = std::collections::HashSet::new();
        let total_grading_time = graded
            .iter()
            .filter(|g| seen.insert(g.fingerprint))
            .map(|g| g.grading_time)
            .sum();
        let mean_counterexample_size = if cex_sizes.is_empty() {
            0.0
        } else {
            cex_sizes.iter().sum::<usize>() as f64 / cex_sizes.len() as f64
        };
        BatchStats {
            submissions: graded.len(),
            distinct_groups,
            // Rejected submissions never enter a fingerprint group.
            dedup_hits: graded
                .len()
                .saturating_sub(rejected)
                .saturating_sub(distinct_groups),
            cache_hits,
            pipeline_runs,
            workers,
            correct,
            wrong,
            errors,
            timeouts,
            rejected,
            wall_time,
            total_grading_time,
            mean_counterexample_size,
        }
    }

    /// Fraction of submissions answered without a pipeline run in this batch
    /// (group dedup + cross-batch cache).
    pub fn reuse_rate(&self) -> f64 {
        if self.submissions == 0 {
            return 0.0;
        }
        1.0 - self.pipeline_runs as f64 / self.submissions as f64
    }
}

/// The full outcome of grading one batch.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Batch label (e.g. the question prompt).
    pub label: String,
    /// Whether the reference's provenance annotation was shared across
    /// workers. `false` exactly when the reference is an aggregate query
    /// ([`ratest_core::pipeline::PreparedReference`] has no annotation for
    /// those — the ROADMAP `aggprov` gap) and every pair paid for its own
    /// reference annotation.
    pub shared_annotation: bool,
    /// Per-submission verdicts, in submission order.
    pub graded: Vec<GradedSubmission>,
    /// Aggregate statistics.
    pub stats: BatchStats,
}

/// The deterministic slice of [`BatchStats`] that goes into the JSON report:
/// pure functions of the verdict rows, independent of workers, caches and
/// wall clocks. This is what makes a warm re-grade render byte-identically
/// to the cold run, and what lets `grade merge` recompute the class totals
/// from shard rows alone.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReportCounts {
    pub submissions: usize,
    pub distinct_groups: usize,
    pub dedup_hits: usize,
    pub correct: usize,
    pub wrong: usize,
    pub errors: usize,
    pub timeouts: usize,
    pub rejected: usize,
    pub mean_counterexample_size: f64,
}

impl ReportCounts {
    pub(crate) fn from_stats(s: &BatchStats) -> ReportCounts {
        ReportCounts {
            submissions: s.submissions,
            distinct_groups: s.distinct_groups,
            dedup_hits: s.dedup_hits,
            correct: s.correct,
            wrong: s.wrong,
            errors: s.errors,
            timeouts: s.timeouts,
            rejected: s.rejected,
            mean_counterexample_size: s.mean_counterexample_size,
        }
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("submissions", Json::Int(self.submissions as i64)),
            ("distinct_groups", Json::Int(self.distinct_groups as i64)),
            ("dedup_hits", Json::Int(self.dedup_hits as i64)),
            ("correct", Json::Int(self.correct as i64)),
            ("wrong", Json::Int(self.wrong as i64)),
            ("errors", Json::Int(self.errors as i64)),
            ("timeouts", Json::Int(self.timeouts as i64)),
            ("rejected", Json::Int(self.rejected as i64)),
            (
                "mean_counterexample_size",
                Json::Float(self.mean_counterexample_size),
            ),
        ])
    }
}

/// Assemble the canonical report document. Shared by [`BatchReport::to_json`]
/// and the shard merger so the two construction paths cannot drift.
pub(crate) fn report_document(
    label: &str,
    shared_annotation: bool,
    counts: &ReportCounts,
    rows: Vec<Json>,
) -> Json {
    Json::obj(vec![
        ("label", Json::str(label)),
        ("shared_annotation", Json::Bool(shared_annotation)),
        ("stats", counts.to_json()),
        ("submissions", Json::Arr(rows)),
    ])
}

/// Repair suggestions as the JSON array reports and `grade serve` responses
/// embed, one object per suggestion with a fixed key order.
pub(crate) fn suggestions_json(suggestions: &[RepairSuggestion]) -> Json {
    let suggestion = |s: &RepairSuggestion| {
        Json::obj(vec![
            ("kind", Json::str(ratest_repair::kind_tag(s.kind))),
            ("description", Json::str(&s.description)),
            (
                "span",
                Json::Arr(vec![Json::Int(s.span.0 as i64), Json::Int(s.span.1 as i64)]),
            ),
            ("before", Json::str(&s.before)),
            ("after", Json::str(&s.after)),
            ("repaired", Json::str(&s.repaired)),
            ("fingerprint", Json::str(format!("{:016x}", s.fingerprint))),
            ("verified", Json::str(s.verified.name())),
        ])
    };
    Json::Arr(suggestions.iter().map(suggestion).collect())
}

/// Render one graded submission as its canonical JSON row (deterministic
/// fields only — cache provenance and timings are run-level facts reported
/// by the text output, not part of the verdict).
pub(crate) fn row_to_json(g: &GradedSubmission) -> Json {
    let mut pairs = vec![
        ("id", Json::str(&g.submission_id)),
        ("author", Json::str(&g.author)),
        ("fingerprint", Json::str(format!("{:016x}", g.fingerprint))),
        ("verdict", Json::str(g.verdict.tag())),
    ];
    match &g.verdict {
        Verdict::Wrong {
            counterexample,
            class,
            algorithm,
            suggestions,
            ..
        } => {
            pairs.push((
                "counterexample_size",
                Json::Int(counterexample.size() as i64),
            ));
            pairs.push(("class", Json::str(class.to_string())));
            pairs.push(("algorithm", Json::str(format!("{algorithm:?}"))));
            // Present only when repair ran and confirmed a fix, so
            // suggestion-free reports render byte-identically to before.
            if !suggestions.is_empty() {
                pairs.push(("suggestions", suggestions_json(suggestions)));
            }
        }
        Verdict::Error { message } => {
            pairs.push(("message", Json::str(message)));
        }
        Verdict::Timeout { budget } => {
            pairs.push(("timeout_ms", Json::Float(budget.as_secs_f64() * 1e3)));
        }
        Verdict::Rejected {
            message,
            phase,
            kind,
            span,
        } => {
            pairs.push(("message", Json::str(message)));
            pairs.push(("phase", Json::str(phase)));
            pairs.push(("kind", Json::str(kind)));
            if let Some((start, end)) = span {
                pairs.push((
                    "span",
                    Json::Arr(vec![Json::Int(*start as i64), Json::Int(*end as i64)]),
                ));
            }
        }
        Verdict::Correct => {}
    }
    Json::obj(pairs)
}

impl BatchReport {
    /// Render a human-readable summary: one line per submission plus the
    /// batch statistics (the CLI's default output).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== batch: {}", self.label);
        for g in &self.graded {
            let detail = match &g.verdict {
                Verdict::Correct => "agrees with the reference".to_owned(),
                Verdict::Wrong {
                    counterexample,
                    suggestions,
                    ..
                } => match suggestions.first() {
                    Some(s) => format!(
                        "counterexample with {} tuple(s); suggested fix: {}",
                        counterexample.size(),
                        s.description
                    ),
                    None => format!("counterexample with {} tuple(s)", counterexample.size()),
                },
                Verdict::Error { message } => format!("error: {message}"),
                Verdict::Timeout { budget } if budget.is_zero() => {
                    // No per-job timeout was configured; the session-level
                    // budget (deadline/quota/cancel) stopped the run.
                    "timed out (session budget exhausted)".to_owned()
                }
                Verdict::Timeout { budget } => format!("timed out after {budget:?}"),
                Verdict::Rejected { message, phase, .. } => {
                    format!("rejected by the {phase} phase: {message}")
                }
            };
            let cached = if g.from_cache { " [cached]" } else { "" };
            let _ = writeln!(
                out,
                "{:<6} {:<22} {:<8} {}{}",
                g.submission_id,
                g.author,
                g.verdict.tag(),
                detail,
                cached
            );
        }
        let s = &self.stats;
        let _ = writeln!(
            out,
            "-- {} submissions, {} distinct ({} dedup hits, {} cache hits), {} pipeline runs on {} workers",
            s.submissions, s.distinct_groups, s.dedup_hits, s.cache_hits, s.pipeline_runs, s.workers
        );
        let _ = writeln!(
            out,
            "-- verdicts: {} correct / {} wrong / {} rejected / {} error / {} timeout; mean counterexample {:.1} tuples",
            s.correct, s.wrong, s.rejected, s.errors, s.timeouts, s.mean_counterexample_size
        );
        let _ = writeln!(
            out,
            "-- wall {:?}, cumulative grading {:?} (reuse rate {:.0}%)",
            s.wall_time,
            s.total_grading_time,
            s.reuse_rate() * 100.0
        );
        if !self.shared_annotation {
            let _ = writeln!(
                out,
                "-- reference annotation not shared (aggregate reference): each pair annotated separately"
            );
        }
        out
    }

    /// Render the counterexample shown to one student, if their submission
    /// was wrong.
    pub fn explanation_for(&self, submission_id: &str) -> Option<String> {
        self.graded
            .iter()
            .find(|g| g.submission_id == submission_id)
            .and_then(|g| g.verdict.counterexample())
            .map(render_counterexample)
    }

    /// Render the class-level JSON report.
    ///
    /// The document is **deterministic**: it contains only facts derivable
    /// from the verdict rows (no wall-clock times, worker counts or cache
    /// provenance), so a warm re-grade from a populated verdict cache
    /// renders byte-identically to the cold run, and merging shard reports
    /// reproduces the unsharded document exactly. The run-level facts remain
    /// available on [`BatchReport::stats`] and in [`BatchReport::render_text`].
    pub fn to_json(&self) -> String {
        let rows: Vec<Json> = self.graded.iter().map(row_to_json).collect();
        report_document(
            &self.label,
            self.shared_annotation,
            &ReportCounts::from_stats(&self.stats),
            rows,
        )
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Grader, GraderConfig};
    use crate::submission::Submission;
    use ratest_ra::testdata;

    fn toy_report() -> BatchReport {
        let db = testdata::figure1_db();
        let reference = testdata::example1_q1();
        let subs = vec![
            Submission::new("s0", "Ada", reference.clone()),
            Submission::new("s1", "Ben", testdata::example1_q2()),
            Submission::new("s2", "Cyd", testdata::example1_q2()),
        ];
        Grader::new(GraderConfig::default())
            .grade("exactly one CS", &reference, &db, &subs)
            .unwrap()
    }

    #[test]
    fn text_report_mentions_verdicts_and_stats() {
        let report = toy_report();
        let text = report.render_text();
        assert!(text.contains("s0"));
        assert!(text.contains("correct"));
        assert!(text.contains("wrong"));
        assert!(text.contains("pipeline runs"));
        assert!(text.contains("dedup"));
    }

    #[test]
    fn json_report_is_well_formed_and_complete() {
        let report = toy_report();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"submissions\":3"));
        assert!(json.contains("\"distinct_groups\":2"));
        assert!(json.contains("\"verdict\":\"wrong\""));
        assert!(json.contains("\"counterexample_size\":3"));
        assert!(json.contains("\"fingerprint\""));
        assert!(json.contains("\"shared_annotation\":true"));
    }

    #[test]
    fn json_report_is_deterministic_no_volatile_fields() {
        let report = toy_report();
        let json = report.to_json();
        // Wall clocks, worker counts and cache provenance are run-level
        // facts; their presence would break cold/warm byte-parity.
        for volatile in [
            "wall_ms",
            "grading_ms",
            "from_cache",
            "workers",
            "cache_hits",
            "pipeline_runs",
            "reuse_rate",
        ] {
            assert!(!json.contains(volatile), "volatile field `{volatile}`");
        }
        // Two renders of the same grading are byte-identical.
        assert_eq!(json, report.to_json());
    }

    #[test]
    fn aggregate_references_report_unshared_annotation() {
        // Regression for the ROADMAP `aggprov` gap: the missing shared
        // annotation used to be silent (`PreparedReference.annotation` is
        // `None` for group-by references); the report now states it.
        let db = testdata::figure1_db();
        let reference = testdata::example4_q1();
        let subs = vec![Submission::new("s0", "Ada", testdata::example4_q2())];
        let report = Grader::new(GraderConfig::default())
            .grade("avg grade per dept", &reference, &db, &subs)
            .unwrap();
        assert!(!report.shared_annotation);
        assert!(report.to_json().contains("\"shared_annotation\":false"));
        assert!(report.render_text().contains("annotation not shared"));

        // A SPJUD reference, by contrast, shares its annotation.
        assert!(toy_report().shared_annotation);
    }

    #[test]
    fn per_student_explanations_render_for_wrong_submissions() {
        let report = toy_report();
        assert!(
            report.explanation_for("s0").is_none(),
            "correct: no counterexample"
        );
        let text = report
            .explanation_for("s1")
            .expect("wrong: has explanation");
        assert!(!text.is_empty());
    }

    #[test]
    fn reuse_rate_reflects_dedup() {
        let report = toy_report();
        // 3 submissions, 2 distinct → 1/3 reuse.
        assert!((report.stats.reuse_rate() - 1.0 / 3.0).abs() < 1e-9);
    }
}
