//! Cooperative interruption of long-running query evaluation.
//!
//! The executor, evaluating or annotating, sits at the bottom of every
//! RATest run: a single pathological submission can join millions of rows
//! before any algorithm-level loop boundary is reached. The types here let a
//! higher layer (the `ratest-core` `Budget`, the grading engine's per-job
//! timeout) reach *into* those inner loops without this crate depending on
//! it: the caller supplies an [`InterruptHook`], the evaluation polls it at a
//! fixed stride via a [`Pacer`], and a raised hook surfaces as
//! [`crate::QueryError::Interrupted`].
//!
//! The hook is deliberately a trait object rather than a concrete budget
//! type so the dependency points downward only — `ra` knows nothing about
//! deadlines, cancel flags or step quotas; it only knows "someone may ask me
//! to stop, and why".

use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

/// Why an evaluation was interrupted. Carried inside
/// [`crate::QueryError::Interrupted`] so callers can translate the stop into
/// their own typed error (cancellation vs. deadline vs. quota).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupted {
    /// The caller cancelled the run (e.g. a grading job timed out and asked
    /// its pipeline to stop consuming CPU).
    Cancelled,
    /// A wall-clock deadline passed.
    DeadlineExceeded,
    /// A step quota was exhausted (a deterministic, clock-free bound used by
    /// tests and fairness throttling).
    StepQuotaExhausted,
}

impl fmt::Display for Interrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupted::Cancelled => write!(f, "cancelled"),
            Interrupted::DeadlineExceeded => write!(f, "deadline exceeded"),
            Interrupted::StepQuotaExhausted => write!(f, "step quota exhausted"),
        }
    }
}

/// The polling contract: return `Some(reason)` when the evaluation should
/// stop. Implementations must be cheap — the evaluator calls this every
/// [`Pacer::STRIDE`] rows — and must be monotone (once raised, stay raised).
pub trait InterruptHook: Send + Sync {
    /// Whether the evaluation should stop, and why.
    fn interrupted(&self) -> Option<Interrupted>;
}

/// A shareable, possibly-absent interrupt hook. [`Interrupt::none`] (the
/// default) never fires and costs one branch per poll, so the
/// uninterruptible fast paths keep their old cost profile.
#[derive(Clone, Default)]
pub struct Interrupt(Option<Arc<dyn InterruptHook>>);

impl Interrupt {
    /// An interrupt that never fires.
    pub fn none() -> Interrupt {
        Interrupt(None)
    }

    /// Wrap a hook.
    pub fn hooked(hook: Arc<dyn InterruptHook>) -> Interrupt {
        Interrupt(Some(hook))
    }

    /// Whether a hook is attached at all.
    pub fn is_hooked(&self) -> bool {
        self.0.is_some()
    }

    /// Poll the hook directly (no pacing).
    pub fn poll(&self) -> Option<Interrupted> {
        self.0.as_ref().and_then(|h| h.interrupted())
    }

    /// Poll and convert to the query-layer error.
    pub fn check(&self) -> crate::error::Result<()> {
        match self.poll() {
            Some(reason) => Err(crate::error::QueryError::Interrupted(reason)),
            None => Ok(()),
        }
    }
}

impl fmt::Debug for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "Interrupt(hooked)"
        } else {
            "Interrupt(none)"
        })
    }
}

/// Strided poller: amortizes the cost of the hook (which may read a clock)
/// over [`Pacer::STRIDE`] inner-loop iterations. One pacer is created per
/// top-level evaluation and threaded by reference through the recursion, so
/// the stride counts *global* work, not per-operator work.
pub struct Pacer {
    interrupt: Interrupt,
    countdown: Cell<u32>,
    work: Cell<u64>,
    polls: Cell<u64>,
    batches: Cell<u64>,
}

impl Pacer {
    /// Rows processed between two hook polls. Small enough that a deadline
    /// is honoured within microseconds of real work, large enough that
    /// `Instant::now` never shows up in profiles.
    pub const STRIDE: u32 = 256;

    /// A pacer over the given interrupt.
    pub fn new(interrupt: &Interrupt) -> Pacer {
        Pacer {
            interrupt: interrupt.clone(),
            countdown: Cell::new(Self::STRIDE),
            work: Cell::new(0),
            polls: Cell::new(0),
            batches: Cell::new(0),
        }
    }

    /// Count one unit of work; every [`Pacer::STRIDE`]-th call polls the
    /// hook. Hookless pacers only pay the decrement.
    pub fn tick(&self) -> crate::error::Result<()> {
        self.work.set(self.work.get() + 1);
        let left = self.countdown.get();
        if left > 1 {
            self.countdown.set(left - 1);
            return Ok(());
        }
        self.countdown.set(Self::STRIDE);
        self.polls.set(self.polls.get() + 1);
        self.interrupt.check()
    }

    /// Note one operator-level batch (a materialized intermediate result).
    /// Recorded for telemetry only; never polls the hook.
    pub fn note_batch(&self) {
        self.batches.set(self.batches.get() + 1);
    }

    /// Units of work ticked so far (rows processed by inner loops).
    pub fn work(&self) -> u64 {
        self.work.get()
    }

    /// How many times the hook was actually polled.
    pub fn polls(&self) -> u64 {
        self.polls.get()
    }

    /// Operator batches noted via [`Pacer::note_batch`].
    pub fn batches(&self) -> u64 {
        self.batches.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[derive(Debug)]
    struct FireAfter(AtomicU32);

    impl InterruptHook for FireAfter {
        fn interrupted(&self) -> Option<Interrupted> {
            if self.0.fetch_sub(1, Ordering::Relaxed) <= 1 {
                Some(Interrupted::StepQuotaExhausted)
            } else {
                None
            }
        }
    }

    #[test]
    fn a_hookless_interrupt_never_fires() {
        let pacer = Pacer::new(&Interrupt::none());
        for _ in 0..10_000 {
            pacer.tick().unwrap();
        }
        assert!(!Interrupt::none().is_hooked());
        assert_eq!(Interrupt::none().poll(), None);
    }

    #[test]
    fn the_pacer_polls_once_per_stride() {
        let hook = Arc::new(FireAfter(AtomicU32::new(3)));
        let interrupt = Interrupt::hooked(hook);
        let pacer = Pacer::new(&interrupt);
        let mut ticks = 0u32;
        let err = loop {
            match pacer.tick() {
                Ok(()) => ticks += 1,
                Err(e) => break e,
            }
        };
        // The hook fires on its 3rd poll = the 3rd stride boundary.
        assert_eq!(ticks, 3 * Pacer::STRIDE - 1);
        assert_eq!(
            err,
            crate::error::QueryError::Interrupted(Interrupted::StepQuotaExhausted)
        );
    }

    #[test]
    fn the_pacer_counts_work_polls_and_batches() {
        let pacer = Pacer::new(&Interrupt::none());
        for _ in 0..(2 * Pacer::STRIDE as u64 + 5) {
            pacer.tick().unwrap();
        }
        pacer.note_batch();
        pacer.note_batch();
        assert_eq!(pacer.work(), 2 * Pacer::STRIDE as u64 + 5);
        assert_eq!(pacer.polls(), 2);
        assert_eq!(pacer.batches(), 2);
    }

    #[test]
    fn reasons_render() {
        assert_eq!(Interrupted::Cancelled.to_string(), "cancelled");
        assert!(Interrupted::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        assert!(Interrupted::StepQuotaExhausted
            .to_string()
            .contains("quota"));
    }
}
