//! The traced run's instrument: an [`EventSink`] that stamps each
//! [`ExplainEvent`] on arrival, and the spans rebuilt from those stamps.
//!
//! Spans are kept in memory and written once, when the run ends. A span's
//! self time is its duration minus the part of it that its children cover;
//! summing self time by layer says where a request's time went.

use ratest_core::session::{EventSink, ExplainEvent, Phase};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The crate a span's own work belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Dispatch, candidate verification, delta evaluation and encoding.
    Ratest,
    /// Raw query evaluation.
    Ra,
    Provenance,
    Solver,
    Repair,
    /// Request intake, fingerprinting, the verdict cache and the protocol.
    Grader,
    /// The verdict store on disk.
    Storage,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Ratest,
        Layer::Ra,
        Layer::Provenance,
        Layer::Solver,
        Layer::Repair,
        Layer::Grader,
        Layer::Storage,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Ratest => "ratest",
            Layer::Ra => "ra",
            Layer::Provenance => "provenance",
            Layer::Solver => "solver",
            Layer::Repair => "repair",
            Layer::Grader => "grader",
            Layer::Storage => "storage",
        }
    }
}

/// Records every event with the instant it arrived.
#[derive(Default)]
pub struct StampSink(Mutex<Vec<(Instant, ExplainEvent)>>);

impl StampSink {
    pub fn new() -> Arc<StampSink> {
        Arc::new(StampSink::default())
    }

    pub fn take(&self) -> Vec<(Instant, ExplainEvent)> {
        std::mem::take(&mut self.0.lock().expect("stamp sink poisoned"))
    }
}

impl EventSink for StampSink {
    fn emit(&self, event: &ExplainEvent) {
        let now = Instant::now();
        self.0
            .lock()
            .expect("stamp sink poisoned")
            .push((now, event.clone()));
    }
}

/// One timed interval of one request.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub request: u32,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

/// A phase-level event in the form `Trace::request` needs. The serve leg
/// reads the same facts back from the `"events":true` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    Phase(Phase),
    Candidate,
    SolverDone,
    RepairStarted,
    RepairFinished,
}

impl Mark {
    pub fn of(event: &ExplainEvent) -> Option<Mark> {
        Some(match event {
            ExplainEvent::PhaseStarted { phase } => Mark::Phase(*phase),
            ExplainEvent::CandidateChecked { .. } => Mark::Candidate,
            ExplainEvent::SolverStats { .. } => Mark::SolverDone,
            ExplainEvent::RepairStarted { .. } => Mark::RepairStarted,
            ExplainEvent::RepairFinished { .. } => Mark::RepairFinished,
            ExplainEvent::Verdict { .. } | ExplainEvent::RepairCandidateChecked { .. } => {
                return None
            }
        })
    }
}

fn phase_layer(phase: Phase) -> Layer {
    match phase {
        Phase::RawEval => Layer::Ra,
        Phase::Provenance => Layer::Provenance,
        Phase::Solve => Layer::Ratest,
    }
}

/// Every span of a run, in creation order.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn span(
        &mut self,
        name: &'static str,
        layer: Layer,
        request: u32,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            layer,
            request,
            parent,
            start,
            end: end.max(start),
        });
        self.spans.len() - 1
    }

    /// Rebuild `phase > candidate > solver_call` under a request span from
    /// the stamped marks that fall inside it.
    ///
    /// A phase lasts until the next phase starts, the repair starts, or the
    /// request ends. A candidate lasts until the next candidate or the end
    /// of its phase, and sits under the phase it started in. A solver call
    /// ends at its statistics event and starts at the latest phase or
    /// candidate boundary before it. Repair is a sibling of the phases.
    pub fn request(&mut self, root: usize, marks: &[(Instant, Mark)]) {
        let (request, end) = (self.spans[root].request, self.spans[root].end);
        let repair_start = marks
            .iter()
            .find(|(_, m)| *m == Mark::RepairStarted)
            .map(|(t, _)| *t);
        let search_end = repair_start.unwrap_or(end);
        let phases: Vec<(Instant, Phase)> = marks
            .iter()
            .filter_map(|(t, m)| match m {
                Mark::Phase(p) if *t <= search_end => Some((*t, *p)),
                _ => None,
            })
            .collect();
        for (i, &(start, phase)) in phases.iter().enumerate() {
            let phase_end = phases.get(i + 1).map_or(search_end, |next| next.0);
            let phase_span = self.span(
                phase.name(),
                phase_layer(phase),
                request,
                Some(root),
                start,
                phase_end,
            );
            let inside: Vec<(Instant, Mark)> = marks
                .iter()
                .filter(|(t, _)| *t >= start && *t <= phase_end)
                .copied()
                .collect();
            let candidates: Vec<Instant> = inside
                .iter()
                .filter(|(_, m)| *m == Mark::Candidate)
                .map(|(t, _)| *t)
                .collect();
            let mut candidate_spans = Vec::new();
            for (k, &c) in candidates.iter().enumerate() {
                let c_end = candidates.get(k + 1).copied().unwrap_or(phase_end);
                candidate_spans.push((
                    c,
                    c_end,
                    self.span(
                        "candidate",
                        Layer::Ratest,
                        request,
                        Some(phase_span),
                        c,
                        c_end,
                    ),
                ));
            }
            let mut boundary = start;
            for &(t, m) in &inside {
                match m {
                    Mark::Candidate => boundary = t,
                    Mark::SolverDone => {
                        let parent = candidate_spans
                            .iter()
                            .rev()
                            .find(|(c, c_end, _)| *c <= t && t <= *c_end)
                            .map_or(phase_span, |(_, _, s)| *s);
                        self.span(
                            "solver_call",
                            Layer::Solver,
                            request,
                            Some(parent),
                            boundary,
                            t,
                        );
                        boundary = t;
                    }
                    _ => {}
                }
            }
        }
        if let Some(start) = repair_start {
            let finish = marks
                .iter()
                .find(|(_, m)| *m == Mark::RepairFinished)
                .map_or(end, |(t, _)| *t);
            self.span("repair", Layer::Repair, request, Some(root), start, finish);
        }
    }

    /// Phase spans laid end to end from the program's own phase clocks, for
    /// explains whose algorithm announces no provenance or solve phase on
    /// the event stream (the poly-time monotone path, the aggregate
    /// algorithms): from the stamps alone their whole search would read as
    /// raw evaluation.
    pub fn phases_from_clocks(&mut self, root: usize, phases: [(Phase, Duration); 3]) {
        let (request, mut at) = (self.spans[root].request, self.spans[root].start);
        for (phase, took) in phases {
            // The solve clock times the solver alone.
            let layer = match phase {
                Phase::Solve => Layer::Solver,
                other => phase_layer(other),
            };
            if !took.is_zero() {
                self.span(phase.name(), layer, request, Some(root), at, at + took);
                at += took;
            }
        }
    }

    /// Self time per layer in milliseconds: each span's duration minus the
    /// union of its children's intervals.
    pub fn self_ms(&self) -> BTreeMap<Layer, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<Layer, f64> = Layer::ALL.iter().map(|l| (*l, 0.0)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            let mut covered: Vec<(Instant, Instant)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start.max(s.start), c.end.min(s.end))
                })
                .filter(|(a, b)| a < b)
                .collect();
            covered.sort();
            let mut union = 0.0;
            let mut cursor: Option<Instant> = None;
            for (a, b) in covered {
                let from = cursor.map_or(a, |c| c.max(a));
                if b > from {
                    union += (b - from).as_secs_f64();
                }
                cursor = Some(cursor.map_or(b, |c| c.max(b)));
            }
            let own = (s.end - s.start).as_secs_f64() - union;
            *out.entry(s.layer).or_default() += own.max(0.0) * 1e3;
        }
        out
    }

    /// Summed duration of all spans with this name, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time per layer of one request's spans (the slowest-request
    /// report's phase split).
    pub fn request_split(&self, request: u32) -> BTreeMap<Layer, f64> {
        let mut sub = Trace::new(self.origin);
        let mut remap = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.request == request {
                remap.insert(i, sub.spans.len());
                let mut s = s.clone();
                s.parent = s.parent.and_then(|p| remap.get(&p).copied());
                sub.spans.push(s);
            }
        }
        sub.self_ms()
    }

    /// All spans as JSON lines (offsets in microseconds from the run start).
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| t.saturating_duration_since(self.origin).as_micros();
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                s.request,
                s.name,
                s.layer.name(),
                us(s.start),
                us(s.end)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut trace = Trace::new(t0);
        let root = trace.span("explain", Layer::Ratest, 0, None, at(0), at(100));
        trace.request(
            root,
            &[
                (at(0), Mark::Phase(Phase::RawEval)),
                (at(10), Mark::Phase(Phase::Provenance)),
                (at(60), Mark::Phase(Phase::Solve)),
                (at(62), Mark::Candidate),
                (at(80), Mark::SolverDone),
                (at(90), Mark::Candidate),
                (at(95), Mark::SolverDone),
            ],
        );
        let split = trace.self_ms();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
        assert!(close(split[&Layer::Ra], 10.0));
        assert!(close(split[&Layer::Provenance], 50.0));
        assert!(close(split[&Layer::Solver], 18.0 + 5.0));
        // Solve-phase gaps, candidate remainders and nothing of the root.
        assert!(close(split[&Layer::Ratest], 2.0 + 0.0 + 10.0 + 5.0));
        assert_eq!(trace.count("candidate"), 2);
        assert_eq!(trace.count("solver_call"), 2);
    }
}
