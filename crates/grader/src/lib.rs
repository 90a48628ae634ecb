//! # ratest-grader
//!
//! The batch grading engine: the class-scale workload the paper's Section 6
//! deployment (the RATest course tool) served. Given **one** reference query,
//! a hidden test instance and *N* student submissions, the engine produces a
//! per-submission verdict — *agrees*, *counterexample* (with the small
//! distinguishing sub-instance), *error* or *timeout* — plus a class-level
//! report with dedup/cache/timing statistics.
//!
//! Three batch-level optimizations make this much cheaper than explaining
//! each submission on a fresh [`ratest_core::Session`]
//! ([`ratest_core::Session::explain_pair`]) in a loop:
//!
//! 1. **Dedup by canonical fingerprint** ([`submission`]): submissions are
//!    grouped by [`ratest_ra::canonical::fingerprint`], so syntactically
//!    different but equivalent-after-normalization queries are explained
//!    once and the verdict is reused for every member of the group. Across
//!    batches, a fingerprint → verdict cache gives the same effect for
//!    resubmissions.
//! 2. **Shared reference preparation**
//!    ([`ratest_core::pipeline::PreparedReference`]): the reference query is
//!    evaluated and provenance-annotated once per batch; workers combine the
//!    shared annotation with each submission's own annotation via
//!    [`ratest_provenance::difference_of`] instead of re-annotating the
//!    reference per pair.
//! 3. **A bounded worker pool** ([`engine`]): distinct submissions are graded
//!    concurrently by `workers` threads with a per-job wall-clock timeout, so
//!    one pathological submission cannot stall the whole class.
//!
//! Two more layers take the engine beyond one process:
//!
//! 4. **A persistent verdict store** ([`store`]): the cross-batch cache
//!    serializes to an on-disk, versioned, append-only file keyed by the
//!    platform-stable FNV-1a canonical fingerprints. A warm re-grade from a
//!    populated cache performs zero counterexample searches and renders a
//!    byte-identical JSON report.
//! 5. **Cohort sharding** ([`shard`]): `grade --shard i/N` grades a
//!    deterministic slice of the cohort in its own process; `grade merge`
//!    fuses the shard reports and caches into exactly the unsharded
//!    artifacts, and `grade --spawn N` drives all N shards (as sequential
//!    subprocesses) plus the merge from one invocation.
//! 6. **Warm sessions + a wire API** ([`api`]): the engine is built on
//!    [`ratest_core::session::Session`] — one prepared session per grading
//!    context survives across batches — and every consumer speaks
//!    [`ExplainRequest`]/[`ExplainResponse`] values that serialize via
//!    `ratest_storage::codec`.
//! 7. **A persistent daemon** ([`serve`]): `grade serve` speaks the
//!    versioned `ratest-serve` NDJSON protocol over stdio with warm
//!    per-reference state, streaming typed progress events; a served
//!    re-grade performs zero counterexample searches.
//!
//! Real-world cohorts come from the [`ingest`] module: a directory of
//! `.sql` / `.ra` submission files is dispatched by extension through the
//! `ratest_sql` frontend or the RA surface-syntax parser, with frontend
//! rejections surfacing as first-class [`Verdict::Rejected`] rows (spanned
//! diagnostics, "did you mean" hints) in the same report. The [`cohort`]
//! module can still *generate* synthetic workloads (reference questions from
//! `ratest_queries::course`, student errors from `ratest_queries::mutations`,
//! ability/adoption from `ratest_userstudy::sample_class`, hidden instances
//! from `ratest_datagen`) for benchmarks and load tests; the `grade` binary
//! wires both into a CLI, with directory ingestion as the primary mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cohort;
pub mod engine;
pub mod ingest;
pub mod json;
pub mod report;
pub mod serve;
pub mod shard;
pub mod store;
pub mod submission;
pub mod verdict;

pub use api::{ExplainRequest, ExplainResponse};
pub use cohort::{generate_cohort, CohortConfig, GeneratedCohort};
pub use engine::{GradeContext, Grader, GraderConfig, GraderError};
pub use ingest::{
    compile_submission, ingest_dir, IngestEntry, IngestedCohort, RejectedSubmission, SourceLang,
};
pub use report::{BatchReport, BatchStats};
pub use serve::{serve, serve_with, ServeConfig};
pub use shard::{merge_reports, shard_cohort, shard_of, ShardSpec};
pub use store::{CacheEntry, LoadedCache, SkippedRecord, StoreError};
pub use submission::{group_by_fingerprint, Submission, SubmissionGroup};
pub use verdict::{GradedSubmission, Verdict};
