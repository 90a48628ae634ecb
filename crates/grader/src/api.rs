//! The request/response values of the grading API.
//!
//! Every layer above the core pipeline — the batch engine, the persistent
//! verdict store, cohort sharding and the `grade serve` daemon — speaks
//! [`ExplainRequest`] / [`ExplainResponse`] pairs: *grade this query against
//! the prepared reference* / *here is the verdict, its fingerprint, and
//! whether warm state answered it*.
//!
//! Both values are **codec-serializable** via [`ratest_storage::codec`]:
//! queries travel as their parseable RA surface syntax
//! ([`ratest_ra::display::to_surface_string`], round-trip pinned by the
//! `ra` crate's property tests), verdicts as the same token stream the
//! verdict store uses — with the two store-unpersistable kinds (timeout,
//! rejected) encoded here, because a *wire* response has no persistence
//! policy. Round-tripping a response re-encodes byte-identically, which is
//! what lets shard drivers and the daemon exchange values through files and
//! pipes without a second serialization scheme.

use crate::store;
use crate::verdict::Verdict;
use ratest_ra::ast::Query;
use ratest_ra::display::to_surface_string;
use ratest_storage::codec::{Decoder, Encoder};
use std::sync::Arc;
use std::time::Duration;

/// A single grading request: one submission to explain against the
/// requester's prepared reference, with the query's canonical fingerprint.
///
/// The fields are private and set only by the constructors, so the stored
/// fingerprint is always the query's: every layer that needs it reads it
/// instead of rebuilding the canonical form.
#[derive(Debug, Clone)]
pub struct ExplainRequest {
    id: String,
    author: String,
    query: Arc<Query>,
    fingerprint: u64,
}

impl ExplainRequest {
    /// Build a request, fingerprinting `query`.
    pub fn new(id: impl Into<String>, author: impl Into<String>, query: Query) -> ExplainRequest {
        ExplainRequest {
            id: id.into(),
            author: author.into(),
            fingerprint: ratest_ra::canonical::fingerprint(&query),
            query: Arc::new(query),
        }
    }

    /// Build a request for a query fingerprinted earlier (the `grade serve`
    /// ingestion memo keeps each distinct source's query and fingerprint).
    /// `fingerprint` must be [`ratest_ra::canonical::fingerprint`] of
    /// `query`.
    pub(crate) fn with_fingerprint(
        id: impl Into<String>,
        author: impl Into<String>,
        query: Arc<Query>,
        fingerprint: u64,
    ) -> ExplainRequest {
        debug_assert_eq!(fingerprint, ratest_ra::canonical::fingerprint(&query));
        ExplainRequest {
            id: id.into(),
            author: author.into(),
            query,
            fingerprint,
        }
    }

    /// Submission id (file path, LMS id, ...).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Author display name.
    pub fn author(&self) -> &str {
        &self.author
    }

    /// The submitted query (already parsed by a frontend).
    pub fn query(&self) -> &Arc<Query> {
        &self.query
    }

    /// The request's canonical fingerprint (what dedup and caches key on).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// The answer to one [`ExplainRequest`].
#[derive(Debug, Clone)]
pub struct ExplainResponse {
    /// The request's submission id, echoed back.
    pub id: String,
    /// The request's author, echoed back.
    pub author: String,
    /// Canonical fingerprint of the submitted query.
    pub fingerprint: u64,
    /// The verdict.
    pub verdict: Verdict,
    /// Whether warm state (the cross-batch verdict cache) answered the
    /// request without a counterexample search.
    pub from_cache: bool,
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// Encode a request to its canonical token stream.
pub fn encode_request(req: &ExplainRequest, e: &mut Encoder) {
    e.tag("xreq").s(&req.id).s(&req.author);
    e.s(&to_surface_string(&req.query));
}

/// Decode a request.
pub fn decode_request(d: &mut Decoder) -> Result<ExplainRequest, String> {
    d.expect("xreq").map_err(|e| e.to_string())?;
    let id = d.s().map_err(|e| e.to_string())?;
    let author = d.s().map_err(|e| e.to_string())?;
    let surface = d.s().map_err(|e| e.to_string())?;
    let query = ratest_ra::parser::parse_query(&surface)
        .map_err(|e| format!("request query does not parse: {e}"))?;
    Ok(ExplainRequest::new(id, author, query))
}

/// Encode any verdict kind — the wire codec has no persistence policy, so
/// timeouts and rejections (which [`store::encode_verdict`] refuses) are
/// first-class here.
pub fn encode_verdict_wire(v: &Verdict, e: &mut Encoder) {
    match v {
        Verdict::Timeout { budget } => {
            e.tag("timeout").u(budget.as_millis() as u64);
        }
        Verdict::Rejected {
            message,
            phase,
            kind,
            span,
        } => {
            e.tag("rejected").s(message).s(phase).s(kind);
            match span {
                Some((start, end)) => {
                    e.u(1).u(*start as u64).u(*end as u64);
                }
                None => {
                    e.u(0);
                }
            }
        }
        persistable => store::encode_verdict_into(persistable, e)
            .expect("correct/wrong/error verdicts always encode"),
    }
}

/// Decode any verdict kind.
pub fn decode_verdict_wire(d: &mut Decoder) -> Result<Verdict, String> {
    let tag = d.tag().map_err(|e| e.to_string())?;
    match tag {
        "timeout" => Ok(Verdict::Timeout {
            budget: Duration::from_millis(d.u().map_err(|e| e.to_string())?),
        }),
        "rejected" => {
            let message = d.s().map_err(|e| e.to_string())?;
            let phase = d.s().map_err(|e| e.to_string())?;
            let kind = d.s().map_err(|e| e.to_string())?;
            let span = match d.u().map_err(|e| e.to_string())? {
                0 => None,
                _ => {
                    let start = d.usize().map_err(|e| e.to_string())?;
                    let end = d.usize().map_err(|e| e.to_string())?;
                    Some((start, end))
                }
            };
            Ok(Verdict::Rejected {
                message,
                phase,
                kind,
                span,
            })
        }
        other => store::decode_verdict_tagged(other, d),
    }
}

/// Encode a response to its canonical token stream.
pub fn encode_response(resp: &ExplainResponse, e: &mut Encoder) {
    e.tag("xresp")
        .s(&resp.id)
        .s(&resp.author)
        .u(resp.fingerprint)
        .u(resp.from_cache as u64);
    encode_verdict_wire(&resp.verdict, e);
}

/// Decode a response.
pub fn decode_response(d: &mut Decoder) -> Result<ExplainResponse, String> {
    d.expect("xresp").map_err(|e| e.to_string())?;
    let id = d.s().map_err(|e| e.to_string())?;
    let author = d.s().map_err(|e| e.to_string())?;
    let fingerprint = d.u().map_err(|e| e.to_string())?;
    let from_cache = d.u().map_err(|e| e.to_string())? != 0;
    let verdict = decode_verdict_wire(d)?;
    Ok(ExplainResponse {
        id,
        author,
        fingerprint,
        verdict,
        from_cache,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Grader, GraderConfig};
    use ratest_core::session::EventHandle;
    use ratest_ra::testdata;

    fn roundtrip_response(resp: &ExplainResponse) -> ExplainResponse {
        let mut e = Encoder::new();
        encode_response(resp, &mut e);
        let payload = e.finish();
        let mut d = Decoder::new(&payload);
        let back = decode_response(&mut d).unwrap();
        d.done().unwrap();
        // Canonical: re-encoding is byte-identical.
        let mut e2 = Encoder::new();
        encode_response(&back, &mut e2);
        assert_eq!(e2.finish(), payload);
        back
    }

    #[test]
    fn requests_roundtrip_through_the_codec() {
        let req = ExplainRequest::new("s1.ra", "Ada", testdata::example1_q1());
        let mut e = Encoder::new();
        encode_request(&req, &mut e);
        let payload = e.finish();
        let mut d = Decoder::new(&payload);
        let back = decode_request(&mut d).unwrap();
        d.done().unwrap();
        assert_eq!(back.id, "s1.ra");
        assert_eq!(back.author, "Ada");
        // Surface-syntax round trip preserves the canonical fingerprint.
        assert_eq!(back.fingerprint(), req.fingerprint());
    }

    #[test]
    fn all_verdict_kinds_roundtrip_on_the_wire() {
        // Real correct/wrong verdicts from grading the running example.
        let db = testdata::figure1_db();
        let reference = testdata::example1_q1();
        let grader = Grader::new(GraderConfig::default());
        let context = grader.prepare_context(&reference, &db).unwrap();
        let responses: Vec<ExplainResponse> = [
            ExplainRequest::new("s0", "Ada", reference.clone()),
            ExplainRequest::new("s1", "Ben", testdata::example1_q2()),
        ]
        .iter()
        .map(|r| {
            grader
                .respond(context, r, EventHandle::none(), None)
                .unwrap()
        })
        .collect();
        for resp in &responses {
            let back = roundtrip_response(resp);
            assert_eq!(back.verdict.tag(), resp.verdict.tag());
            assert_eq!(back.fingerprint, resp.fingerprint);
        }

        // The two store-unpersistable kinds are first-class on the wire.
        let timeout = ExplainResponse {
            id: "s2".into(),
            author: "Cyd".into(),
            fingerprint: 7,
            verdict: Verdict::Timeout {
                budget: Duration::from_millis(1500),
            },
            from_cache: false,
        };
        assert!(matches!(
            roundtrip_response(&timeout).verdict,
            Verdict::Timeout { budget } if budget == Duration::from_millis(1500)
        ));
        let rejected = ExplainResponse {
            id: "s3.sql".into(),
            author: "Dee".into(),
            fingerprint: 0,
            verdict: Verdict::Rejected {
                message: "unknown column `nme`".into(),
                phase: "resolve".into(),
                kind: "unknown_column".into(),
                span: Some((7, 10)),
            },
            from_cache: false,
        };
        match roundtrip_response(&rejected).verdict {
            Verdict::Rejected { span, kind, .. } => {
                assert_eq!(span, Some((7, 10)));
                assert_eq!(kind, "unknown_column");
            }
            other => panic!("expected rejected, got {}", other.tag()),
        }
    }
}
