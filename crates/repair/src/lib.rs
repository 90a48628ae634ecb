//! # ratest-repair
//!
//! Provenance-directed query repair: from counterexamples to suggested
//! fixes.
//!
//! The paper stops at "here is a small database where your query disagrees
//! with the reference"; this crate goes one step further and tells the
//! student *what to change*. Given a wrong submission, the reference it was
//! graded against, and the counterexample the grader found, it:
//!
//! 1. **Enumerates** candidate edits of the submission via
//!    [`ratest_queries::mutations::repairs`] — the inverse direction of the
//!    mutation space, so every single-site error class the simulator can
//!    inject has a recovering edit in the pool;
//! 2. **Ranks** the candidates by *provenance locality*: the Boolean
//!    how-provenance of the first offending tuple
//!    ([`ratest_provenance::annotate::provenance_of_tuple_in_difference`])
//!    names the base tuples implicated in the disagreement, and candidates
//!    whose edit points at that evidence — by direction (an extra tuple
//!    wants a *restricting* edit, a missing tuple a *generalizing* one) and
//!    by the constants those implicated rows carry — are tried first;
//! 3. **Validates** cheaply, in escalating stages: re-evaluate on the
//!    counterexample database (the candidate must now agree there), then an
//!    `ra::canonical` fingerprint match against the reference, and only
//!    failing that a bounded counterexample search through the existing
//!    [`Session`] API under a per-candidate step-quota [`Budget`] —
//!    clock-free, so the whole pipeline is deterministic.
//!
//! Confirmed candidates become [`RepairSuggestion`]s: codec-serializable
//! records ("you probably meant `>=`, not `>`") whose edit span is a
//! surface diff of [`ratest_ra::display::to_surface_string`] renderings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ratest_core::problem::{differing_tuples, Counterexample};
use ratest_core::session::{Budget, EventHandle, ExplainEvent, ReferenceHandle, Session};
use ratest_provenance::annotate::provenance_of_tuple_in_difference;
use ratest_queries::mutations::{repairs, Mutation, MutationKind};
use ratest_ra::ast::Query;
use ratest_ra::canonical::fingerprint;
use ratest_ra::display::to_surface_string;
use ratest_ra::eval::{evaluate_with_params, ResultSet};
use ratest_ra::expr::{Expr, ParamMap};
use ratest_storage::codec::{CodecError, DecodeResult, Decoder, Encoder};
use ratest_storage::Value;
use ratest_telemetry::MetricsHandle;
use std::collections::BTreeSet;

/// Knobs for one repair run. Everything is a plain value, so two engines
/// given the same options produce byte-identical suggestions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairOptions {
    /// Stop after this many confirmed suggestions.
    pub max_suggestions: usize,
    /// Validate at most this many candidates (the ranked queue is
    /// truncated to this length).
    pub max_candidates: usize,
    /// Rank candidates by provenance locality (`false` = brute-force
    /// enumeration order, the baseline the telemetry counters compare
    /// against).
    pub directed: bool,
    /// Step quota for the bounded per-candidate counterexample search
    /// (stage 3). Steps, not wall-clock: repair stays deterministic.
    pub per_candidate_steps: u64,
}

impl Default for RepairOptions {
    fn default() -> RepairOptions {
        RepairOptions {
            max_suggestions: 3,
            max_candidates: 64,
            directed: true,
            per_candidate_steps: 50_000,
        }
    }
}

/// How a suggestion was confirmed equivalent to the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verification {
    /// The repaired query's canonical fingerprint equals the reference's.
    Fingerprint,
    /// A bounded counterexample search found no distinguishing
    /// sub-instance within the per-candidate step quota.
    SearchAgreement,
}

impl Verification {
    fn tag(self) -> &'static str {
        match self {
            Verification::Fingerprint => "fp",
            Verification::SearchAgreement => "search",
        }
    }

    /// The name reports and the serve protocol show (`fingerprint`,
    /// `search`).
    pub fn name(self) -> &'static str {
        match self {
            Verification::Fingerprint => "fingerprint",
            Verification::SearchAgreement => "search",
        }
    }
}

/// One confirmed fix: "you probably meant this".
#[derive(Debug, Clone, PartialEq)]
pub struct RepairSuggestion {
    /// The error class the edit undoes.
    pub kind: MutationKind,
    /// Human-readable account of the edit.
    pub description: String,
    /// Byte span of the replaced fragment in the submission's surface
    /// string (`to_surface_string`), as a minimal prefix/suffix diff.
    pub span: (usize, usize),
    /// The replaced fragment (`submission_surface[span.0..span.1]`).
    pub before: String,
    /// The replacement fragment.
    pub after: String,
    /// Full surface string of the repaired query (reparseable).
    pub repaired: String,
    /// Canonical fingerprint of the repaired query.
    pub fingerprint: u64,
    /// How equivalence with the reference was established.
    pub verified: Verification,
}

/// The stable name of an error class (`drop_conjunct`, ...), as reports,
/// the serve protocol and the verdict store write it.
pub fn kind_tag(kind: MutationKind) -> &'static str {
    match kind {
        MutationKind::DropConjunct => "drop_conjunct",
        MutationKind::WrongConstant => "wrong_constant",
        MutationKind::FlipComparison => "flip_comparison",
        MutationKind::DropDifference => "drop_difference",
        MutationKind::SwapDifference => "swap_difference",
        MutationKind::DropUnionBranch => "drop_union_branch",
    }
}

fn kind_from_tag(tag: &str) -> Option<MutationKind> {
    Some(match tag {
        "drop_conjunct" => MutationKind::DropConjunct,
        "wrong_constant" => MutationKind::WrongConstant,
        "flip_comparison" => MutationKind::FlipComparison,
        "drop_difference" => MutationKind::DropDifference,
        "swap_difference" => MutationKind::SwapDifference,
        "drop_union_branch" => MutationKind::DropUnionBranch,
        _ => return None,
    })
}

/// Serialize a suggestion into a token stream (the verdict cache and wire
/// formats embed this).
pub fn encode_suggestion(s: &RepairSuggestion, e: &mut Encoder) {
    e.tag("sg")
        .tag(kind_tag(s.kind))
        .s(&s.description)
        .u(s.span.0 as u64)
        .u(s.span.1 as u64)
        .s(&s.before)
        .s(&s.after)
        .s(&s.repaired)
        .u(s.fingerprint)
        .tag(s.verified.tag());
}

/// Inverse of [`encode_suggestion`].
pub fn decode_suggestion(d: &mut Decoder) -> DecodeResult<RepairSuggestion> {
    d.expect("sg")?;
    let kind_word = d.tag()?.to_owned();
    let kind = kind_from_tag(&kind_word).ok_or_else(|| CodecError {
        expected: format!("a mutation kind tag, not `{kind_word}`"),
        offset: 0,
    })?;
    let description = d.s()?;
    let start = d.usize()?;
    let end = d.usize()?;
    let before = d.s()?;
    let after = d.s()?;
    let repaired = d.s()?;
    let fingerprint = d.u()?;
    let verified = match d.tag()? {
        "fp" => Verification::Fingerprint,
        "search" => Verification::SearchAgreement,
        other => {
            return Err(CodecError {
                expected: format!("a verification tag, not `{other}`"),
                offset: 0,
            })
        }
    };
    Ok(RepairSuggestion {
        kind,
        description,
        span: (start, end),
        before,
        after,
        repaired,
        fingerprint,
        verified,
    })
}

/// The provenance evidence a ranked repair run is directed by.
struct Evidence {
    /// `Some(true)` when the submission produces a tuple the reference
    /// does not (picky); `Some(false)` when it misses one (missing);
    /// `None` when no direction could be established.
    picky: Option<bool>,
    /// Rendered values of the base tuples implicated by the offending
    /// tuple's how-provenance.
    implicated_values: BTreeSet<String>,
}

impl Evidence {
    fn none() -> Evidence {
        Evidence {
            picky: None,
            implicated_values: BTreeSet::new(),
        }
    }
}

/// Whether an edit restricts the result (can only remove tuples),
/// generalizes it (can only add), or neither in general.
#[derive(Clone, Copy, PartialEq, Eq)]
enum EditDirection {
    Restricting,
    Generalizing,
    Neutral,
}

fn edit_direction(kind: MutationKind) -> EditDirection {
    match kind {
        // Re-adding a conjunct or the subtracted side of a difference
        // filters tuples out.
        MutationKind::DropConjunct | MutationKind::DropDifference => EditDirection::Restricting,
        // Restoring a union branch adds tuples.
        MutationKind::DropUnionBranch => EditDirection::Generalizing,
        MutationKind::WrongConstant
        | MutationKind::FlipComparison
        | MutationKind::SwapDifference => EditDirection::Neutral,
    }
}

/// Gather the provenance evidence for the first differing tuple on the
/// counterexample instance. Falls back to [`Evidence::none`] (enumeration
/// order) when anything is unavailable — e.g. aggregate queries, whose
/// Boolean how-provenance is out of scope.
fn gather_evidence(
    submission: &Query,
    reference: &Query,
    cex: &Counterexample,
    params: &ParamMap,
    reference_on_cex: Option<&ResultSet>,
) -> Evidence {
    let db = cex.database();
    let Ok(sub_res) = evaluate_with_params(submission, db, params) else {
        return Evidence::none();
    };
    // The reference side is usually already evaluated by the caller; only
    // evaluate it here when the caller has no result.
    let ref_res = match reference_on_cex {
        Some(r) => r.clone(),
        None => match evaluate_with_params(reference, db, params) {
            Ok(r) => r,
            Err(_) => return Evidence::none(),
        },
    };
    let diffs = differing_tuples(&sub_res, &ref_res);
    let Some((tuple, from_submission)) = diffs.first() else {
        return Evidence::none();
    };
    let prov = if *from_submission {
        provenance_of_tuple_in_difference(submission, reference, db, tuple, params)
    } else {
        provenance_of_tuple_in_difference(reference, submission, db, tuple, params)
    };
    let mut implicated_values = BTreeSet::new();
    if let Ok(prov) = prov {
        let relations: Vec<_> = db.relations().collect();
        for id in prov.variables() {
            if let Some(rel) = relations.get(id.relation as usize) {
                if let Ok(row) = rel.tuple(id.row as usize) {
                    for v in row.values.iter() {
                        implicated_values.insert(v.to_string());
                    }
                }
            }
        }
    }
    Evidence {
        picky: Some(*from_submission),
        implicated_values,
    }
}

/// Literals appearing anywhere in a query's predicates, rendered.
fn query_literals(q: &Query) -> BTreeSet<String> {
    fn from_expr(e: &Expr, out: &mut BTreeSet<String>) {
        match e {
            Expr::Literal(v) => {
                if !matches!(v, Value::Bool(_)) {
                    out.insert(v.to_string());
                }
            }
            Expr::Unary { expr, .. } => from_expr(expr, out),
            Expr::Binary { left, right, .. } => {
                from_expr(left, out);
                from_expr(right, out);
            }
            Expr::Column(_) | Expr::Param(_) => {}
        }
    }
    fn walk(q: &Query, out: &mut BTreeSet<String>) {
        match q {
            Query::Select { predicate, .. } => from_expr(predicate, out),
            Query::Join {
                predicate: Some(p), ..
            } => from_expr(p, out),
            Query::GroupBy {
                having: Some(h), ..
            } => from_expr(h, out),
            _ => {}
        }
        for c in q.children() {
            walk(c, out);
        }
    }
    let mut out = BTreeSet::new();
    walk(q, &mut out);
    out
}

/// The node of `root` at a child-index path.
fn node_at<'a>(root: &'a Query, path: &[usize]) -> Option<&'a Query> {
    let mut node = root;
    for &i in path {
        node = *node.children().get(i)?;
    }
    Some(node)
}

/// The conjuncts of a node's own predicate (selection, join, having).
fn node_conjuncts(node: &Query) -> Vec<&Expr> {
    match node {
        Query::Select { predicate, .. } => predicate.conjuncts(),
        Query::Join {
            predicate: Some(p), ..
        } => p.conjuncts(),
        Query::GroupBy {
            having: Some(h), ..
        } => h.conjuncts(),
        _ => Vec::new(),
    }
}

/// Does re-adding donor conjunct `added` clash with a conjunct already at
/// the site — same left-hand side, different comparison? Such a candidate
/// usually produces a contradiction (`dept = 'CS' AND dept = 'ECON'`) and
/// is demoted, which is precisely what separates a *forgotten* condition
/// (nothing on that column remains) from a *wrong* one.
fn clashes_with_site(added: &Expr, site: &[&Expr]) -> bool {
    let Expr::Binary { left, .. } = added else {
        return false;
    };
    site.iter().any(|c| match c {
        Expr::Binary { left: l, .. } => *c != added && l == left,
        _ => false,
    })
}

/// Rank key for one candidate — `(direction, clash, value_overlap,
/// enumeration index)`; lower sorts earlier.
type LocalityKey = (u8, u8, u8, usize);

/// Rank key for one candidate; lower sorts earlier.
fn locality_key(
    m: &Mutation,
    index: usize,
    submission: &Query,
    evidence: &Evidence,
) -> LocalityKey {
    // 1. Direction: an extra tuple wants a restricting edit, a missing one
    //    a generalizing edit; unknown direction ranks everything alike.
    let dir = edit_direction(m.kind);
    let direction_rank = match evidence.picky {
        Some(true) => match dir {
            EditDirection::Restricting => 0,
            EditDirection::Neutral => 1,
            EditDirection::Generalizing => 2,
        },
        Some(false) => match dir {
            EditDirection::Generalizing => 0,
            EditDirection::Neutral => 1,
            EditDirection::Restricting => 2,
        },
        None => 1,
    };
    // 2. Clash demotion for re-added conjuncts.
    let clash = if m.kind == MutationKind::DropConjunct {
        match (node_at(submission, &m.path), node_at(&m.query, &m.path)) {
            (Some(orig), Some(rep)) => {
                let original_site = node_conjuncts(orig);
                let added: Vec<&Expr> = node_conjuncts(rep)
                    .into_iter()
                    .filter(|c| !original_site.contains(c))
                    .collect();
                u8::from(added.iter().any(|a| clashes_with_site(a, &original_site)))
            }
            _ => 0,
        }
    } else {
        0
    };
    // 3. Constant locality: the edit introduces or removes a literal that
    //    the implicated base tuples actually carry.
    let changed: Vec<String> = {
        let before = query_literals(submission);
        let after = query_literals(&m.query);
        after.symmetric_difference(&before).cloned().collect()
    };
    let value_overlap = if changed.is_empty() {
        1
    } else {
        u8::from(
            !changed
                .iter()
                .any(|v| evidence.implicated_values.contains(v)),
        )
    };
    (direction_rank, clash, value_overlap, index)
}

/// Suggest repairs for a wrong submission.
///
/// `session` must hold the grading instance (the full database the
/// counterexample was cut from) and `reference_handle` a prepared handle
/// for `reference` in that session — the stage-3 bounded search reuses the
/// warm annotation. Every stage is deterministic: candidate order is a
/// stable sort, and the per-candidate budget is a step quota, never a
/// clock.
#[allow(clippy::too_many_arguments)] // the full grading context, spelled out
pub fn suggest_repairs(
    submission: &Query,
    reference: &Query,
    cex: &Counterexample,
    session: &Session,
    reference_handle: ReferenceHandle,
    options: &RepairOptions,
    events: &EventHandle,
    metrics: &MetricsHandle,
) -> Vec<RepairSuggestion> {
    metrics.counter_inc("repair.requests");
    let params = &cex.parameters;
    let submission_fp = fingerprint(submission);
    let reference_fp = fingerprint(reference);

    // Enumerate and dedup candidates by canonical fingerprint.
    let mut seen = BTreeSet::new();
    seen.insert(submission_fp);
    let mut candidates: Vec<(Mutation, u64)> = Vec::new();
    for m in repairs(submission, reference) {
        let fp = fingerprint(&m.query);
        if seen.insert(fp) {
            candidates.push((m, fp));
        }
    }

    // Reference result on the counterexample instance, for evidence
    // gathering and stage 1.
    let cex_db = cex.database();
    let reference_on_cex = evaluate_with_params(reference, cex_db, params).ok();

    // Rank by provenance locality (stable, so enumeration order breaks
    // ties) and truncate to the validation budget.
    if options.directed {
        let evidence = gather_evidence(
            submission,
            reference,
            cex,
            params,
            reference_on_cex.as_ref(),
        );
        let mut keyed: Vec<(Mutation, u64, LocalityKey)> = candidates
            .into_iter()
            .enumerate()
            .map(|(i, (m, fp))| {
                let key = locality_key(&m, i, submission, &evidence);
                (m, fp, key)
            })
            .collect();
        keyed.sort_by_key(|c| c.2);
        candidates = keyed.into_iter().map(|(m, fp, _)| (m, fp)).collect();
    }
    candidates.truncate(options.max_candidates);
    events.emit(ExplainEvent::RepairStarted {
        candidates: candidates.len(),
    });

    let submission_surface = to_surface_string(submission);
    let mut suggestions: Vec<RepairSuggestion> = Vec::new();
    let mut tried = 0usize;
    for (index, (m, fp)) in candidates.iter().enumerate() {
        if suggestions.len() >= options.max_suggestions {
            break;
        }
        tried += 1;
        // Stage 1: the repaired query must agree with the reference on the
        // counterexample instance (also filters candidates that do not
        // type-check — evaluation errors reject).
        let agrees_on_cex = match (
            &reference_on_cex,
            evaluate_with_params(&m.query, cex_db, params),
        ) {
            (Some(r), Ok(c)) => c.set_eq(r),
            _ => false,
        };
        if !agrees_on_cex {
            events.emit(ExplainEvent::RepairCandidateChecked {
                index,
                confirmed: false,
            });
            continue;
        }
        // Stage 2: canonical fingerprint match proves equivalence.
        let verified = if *fp == reference_fp {
            Some(Verification::Fingerprint)
        } else {
            // Stage 3: bounded counterexample search on the full instance,
            // under a quota of its own (clones of a budget share their step
            // counter, so one budget would let earlier candidates spend
            // later ones' steps).
            let budget = Budget::unlimited().with_step_quota(options.per_candidate_steps);
            match session.explain_with(reference_handle, &m.query, &budget, EventHandle::none()) {
                Ok(outcome) if outcome.counterexample.is_none() => {
                    Some(Verification::SearchAgreement)
                }
                _ => None,
            }
        };
        let confirmed = verified.is_some();
        events.emit(ExplainEvent::RepairCandidateChecked { index, confirmed });
        let Some(verified) = verified else { continue };
        let repaired_surface = to_surface_string(&m.query);
        let (start, end, after) = surface_diff(&submission_surface, &repaired_surface);
        suggestions.push(RepairSuggestion {
            kind: m.kind,
            description: m.description.clone(),
            span: (start, end),
            before: submission_surface[start..end].to_owned(),
            after,
            repaired: repaired_surface,
            fingerprint: *fp,
            verified,
        });
    }
    // Fingerprint-proved equivalence outranks search agreement; the sort is
    // stable, so within a class the locality order is preserved.
    suggestions.sort_by_key(|s| match s.verified {
        Verification::Fingerprint => 0u8,
        Verification::SearchAgreement => 1,
    });

    metrics.counter_add("repair.candidates_tried", tried as u64);
    metrics.counter_add("repair.suggestions_found", suggestions.len() as u64);
    metrics.observe("repair.candidates_per_request", tried as u64);
    events.emit(ExplainEvent::RepairFinished {
        suggestions: suggestions.len(),
        tried,
    });
    suggestions
}

/// Convenience wrapper: build a throwaway session on `db` and repair
/// against it. Tests and the benchmark use this; the grading engine calls
/// [`suggest_repairs`] with its warm session instead.
pub fn suggest_repairs_on(
    submission: &Query,
    reference: &Query,
    cex: &Counterexample,
    db: &ratest_storage::Database,
    options: &RepairOptions,
    metrics: &MetricsHandle,
) -> Vec<RepairSuggestion> {
    let session_options = ratest_core::pipeline::RatestOptions {
        parameters: cex.parameters.clone(),
        ..Default::default()
    };
    let session = Session::builder(db.clone())
        .options(session_options)
        .build();
    let Ok(handle) = session.prepare(reference) else {
        return Vec::new();
    };
    suggest_repairs(
        submission,
        reference,
        cex,
        &session,
        handle,
        options,
        &EventHandle::none(),
        metrics,
    )
}

/// Minimal prefix/suffix surface diff: byte span in `before` plus the
/// replacement text from `after`, snapped to char boundaries.
fn surface_diff(before: &str, after: &str) -> (usize, usize, String) {
    let b = before.as_bytes();
    let a = after.as_bytes();
    let mut p = 0;
    while p < b.len() && p < a.len() && b[p] == a[p] {
        p += 1;
    }
    while p > 0 && !(before.is_char_boundary(p) && after.is_char_boundary(p)) {
        p -= 1;
    }
    let mut s = 0;
    while s < b.len() - p && s < a.len() - p && b[b.len() - 1 - s] == a[a.len() - 1 - s] {
        s += 1;
    }
    while s > 0
        && !(before.is_char_boundary(before.len() - s) && after.is_char_boundary(after.len() - s))
    {
        s -= 1;
    }
    (p, before.len() - s, after[p..after.len() - s].to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratest_queries::course::course_questions;
    use ratest_queries::mutations::mutate;
    use ratest_ra::testdata::figure1_db;
    use ratest_telemetry::MetricsRegistry;
    use std::sync::Arc;

    fn wrong_with_cex(
        reference: &Query,
        wrong: &Query,
        db: &ratest_storage::Database,
    ) -> Option<Counterexample> {
        let session = Session::builder(db.clone()).build();
        let handle = session.prepare(reference).ok()?;
        session
            .explain(handle, wrong)
            .ok()
            .and_then(|o| o.counterexample.map(|c| *c))
    }

    #[test]
    fn a_flipped_comparison_is_repaired_with_a_fingerprint_proof() {
        let db = figure1_db();
        let q3 = ratest_queries::course::q3_exactly_one_cs();
        let (wrong, cex) = mutate(&q3)
            .into_iter()
            .filter(|m| m.kind == MutationKind::FlipComparison)
            .find_map(|m| wrong_with_cex(&q3, &m.query, &db).map(|cex| (m.query, cex)))
            .expect("some flipped comparison is distinguishable on figure 1");
        let suggestions = suggest_repairs_on(
            &wrong,
            &q3,
            &cex,
            &db,
            &RepairOptions::default(),
            &MetricsHandle::none(),
        );
        assert!(!suggestions.is_empty());
        let top = &suggestions[0];
        assert_eq!(top.fingerprint, fingerprint(&q3));
        assert_eq!(top.verified, Verification::Fingerprint);
        assert!(top.span.0 <= top.span.1);
        assert!(!top.after.is_empty() || !top.before.is_empty());
    }

    #[test]
    fn suggestions_serialize_round_trip_byte_identically() {
        let db = figure1_db();
        for q in course_questions().into_iter().take(3) {
            for m in mutate(&q.reference).into_iter().take(4) {
                let Some(cex) = wrong_with_cex(&q.reference, &m.query, &db) else {
                    continue;
                };
                for s in suggest_repairs_on(
                    &m.query,
                    &q.reference,
                    &cex,
                    &db,
                    &RepairOptions::default(),
                    &MetricsHandle::none(),
                ) {
                    let mut e = Encoder::new();
                    encode_suggestion(&s, &mut e);
                    let encoded = e.finish();
                    let mut d = Decoder::new(&encoded);
                    let decoded = decode_suggestion(&mut d).unwrap();
                    d.done().unwrap();
                    assert_eq!(decoded, s);
                    let mut e2 = Encoder::new();
                    encode_suggestion(&decoded, &mut e2);
                    assert_eq!(e2.finish(), encoded, "re-encode is byte-identical");
                    // The surface diff applies: splicing `after` over the
                    // span reproduces the repaired surface string.
                    let sub_surface = to_surface_string(&m.query);
                    let spliced = format!(
                        "{}{}{}",
                        &sub_surface[..s.span.0],
                        s.after,
                        &sub_surface[s.span.1..]
                    );
                    assert_eq!(spliced, s.repaired);
                }
            }
        }
    }

    #[test]
    fn directed_ranking_tries_no_more_candidates_than_brute_force() {
        let db = figure1_db();
        let directed = Arc::new(MetricsRegistry::new());
        let brute = Arc::new(MetricsRegistry::new());
        for q in course_questions() {
            for m in mutate(&q.reference) {
                let Some(cex) = wrong_with_cex(&q.reference, &m.query, &db) else {
                    continue;
                };
                for (registry, flag) in [(&directed, true), (&brute, false)] {
                    let options = RepairOptions {
                        directed: flag,
                        max_suggestions: 1,
                        ..RepairOptions::default()
                    };
                    suggest_repairs_on(
                        &m.query,
                        &q.reference,
                        &cex,
                        &db,
                        &options,
                        &MetricsHandle::new(Arc::clone(registry)),
                    );
                }
            }
        }
        let tried_directed = directed.counter("repair.candidates_tried");
        let tried_brute = brute.counter("repair.candidates_tried");
        assert!(
            tried_directed < tried_brute,
            "directed ({tried_directed}) must beat brute force ({tried_brute})"
        );
    }

    #[test]
    fn each_searched_candidate_gets_the_whole_step_quota() {
        // Three of this submission's repairs are confirmed by search. Each
        // search fits in 6 steps, the three together do not.
        let db = figure1_db();
        let q4 = ratest_queries::course::q4_cs_and_econ();
        let wrong = mutate(&q4)
            .into_iter()
            .find(|m| m.description == "join: replaced constant `ECON` with `CS`")
            .unwrap()
            .query;
        let cex = wrong_with_cex(&q4, &wrong, &db).unwrap();
        let repair = |per_candidate_steps| {
            let options = RepairOptions {
                max_suggestions: 64,
                per_candidate_steps,
                ..RepairOptions::default()
            };
            suggest_repairs_on(&wrong, &q4, &cex, &db, &options, &MetricsHandle::none())
        };
        let unbounded = repair(RepairOptions::default().per_candidate_steps);
        let searched = unbounded
            .iter()
            .filter(|s| s.verified == Verification::SearchAgreement)
            .count();
        assert_eq!(searched, 3);
        assert_eq!(repair(6), unbounded);
    }

    #[test]
    fn repair_output_is_deterministic_across_runs() {
        let db = figure1_db();
        let q3 = ratest_queries::course::q3_exactly_one_cs();
        let wrong = mutate(&q3)
            .into_iter()
            .find(|m| m.kind == MutationKind::DropDifference)
            .unwrap()
            .query;
        let cex = wrong_with_cex(&q3, &wrong, &db).unwrap();
        let run = || {
            suggest_repairs_on(
                &wrong,
                &q3,
                &cex,
                &db,
                &RepairOptions::default(),
                &MetricsHandle::none(),
            )
        };
        assert_eq!(run(), run());
    }
}
