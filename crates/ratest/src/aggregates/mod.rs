//! Counterexample algorithms for aggregate queries (Section 5 of the paper).
//!
//! Witnesses are too strict for aggregates — removing *any* tuple of a group
//! changes the aggregate value — so these algorithms search directly for a
//! sub-instance on which the two queries return different results:
//!
//! * [`agg_basic`] — encode the group-existence provenance of both queries
//!   for a candidate group and minimize with the solver, using a lazy
//!   arithmetic check ("do the two queries really disagree on this
//!   sub-instance?") in place of Z3's symbolic arithmetic (`Agg-Basic`),
//! * [`agg_param`] — the parameterized variant (Definition 3): constants
//!   compared against aggregate values become free parameters the search may
//!   re-choose, yielding much smaller counterexamples (`Agg-Param`),
//! * [`agg_opt`] — the heuristic of Algorithm 3: strip the aggregations,
//!   find a counterexample for the underlying SPJUD queries with `Optσ`,
//!   re-choose parameters from the candidate, and verify against the
//!   original queries, repeating with a different model if the check fails
//!   (`Agg-Opt`).
//!
//! The public entry points evaluate both queries and build their aggregate
//! provenance themselves. The pipeline instead does that once per explain
//! and hands the provenance to the crate-internal cores (`agg_*_core`), so a
//! declined `Agg-Opt` and the `Agg-Basic` fallback share it. A pair whose
//! queries aggregate the same input the same way (a wrong HAVING threshold)
//! builds its groups once ([`pair_aggregate_provenance`]).

pub mod agg_basic;
pub mod agg_opt;
pub mod agg_param;
#[cfg(test)]
mod sharing_oracle;
#[cfg(test)]
mod stop_oracle;

pub use agg_basic::smallest_counterexample_agg_basic;
pub use agg_opt::smallest_counterexample_agg_opt;
pub use agg_param::smallest_counterexample_agg_param;

use crate::error::{RatestError, Result};
use crate::pipeline::Timings;
use crate::problem::{Counterexample, PairPlans};
use crate::session::Budget;
use ratest_provenance::aggprov::{pair_aggregate_provenance, AggregateProvenance, GroupRows};
use ratest_ra::ast::Query;
use ratest_ra::eval::Params;
use ratest_ra::interrupt::Interrupt;
use ratest_storage::{Database, TupleSelection, Value};
use ratest_telemetry::MetricsHandle;
use std::cell::{Cell, RefCell, RefMut};
use std::collections::BTreeSet;
use std::time::Instant;

/// Compute aggregate provenance for both queries of a pair, sharing the
/// groups when both aggregate the same input the same way
/// ([`pair_aggregate_provenance`]). The annotation runs under the caller's
/// `interrupt` (so aggregate references honour `Budget` deadlines inside
/// the provenance loops) and folds its row/group counters into `metrics`.
pub(crate) fn pair_provenance(
    q1: &Query,
    q2: &Query,
    db: &Database,
    params: &Params,
    interrupt: &Interrupt,
    metrics: &MetricsHandle,
) -> Result<(AggregateProvenance, AggregateProvenance)> {
    Ok(pair_aggregate_provenance(
        q1, q2, db, params, interrupt, metrics,
    )?)
}

/// A standalone entry point: check that the queries disagree on `db`, build
/// the pair's aggregate provenance, then run `search` over it, timing each
/// phase.
fn run_standalone(
    q1: &Query,
    q2: &Query,
    db: &Database,
    params: &Params,
    budget: &Budget,
    metrics: &MetricsHandle,
    search: impl FnOnce(
        &PairPlans,
        &AggregateProvenance,
        &AggregateProvenance,
    ) -> Result<(Counterexample, Timings)>,
) -> Result<(Counterexample, Timings)> {
    let mut timings = Timings::default();
    let start = Instant::now();
    let plans = PairPlans::compile(q1, q2, db)?;
    let (r1, r2) = plans.distinguish(db, params, budget, metrics)?;
    timings.raw_eval = start.elapsed();
    if r1.set_eq(&r2) {
        return Err(RatestError::QueriesAgreeOnInstance);
    }
    let start = Instant::now();
    let (p1, p2) = pair_provenance(q1, q2, db, params, &budget.interrupt(), metrics)?;
    timings.provenance = start.elapsed();
    let (cex, searched) = search(&plans, &p1, &p2)?;
    timings.accumulate(&searched);
    timings.total = timings.raw_eval + timings.provenance + timings.solver;
    Ok((cex, timings))
}

/// The lazy theory check of the aggregate algorithms: do the two queries
/// produce different output sets on a candidate sub-instance? Each check
/// evaluates only the groups the candidate can make non-empty
/// ([`AggregateProvenance::groups_under`]), into buffers reused from check
/// to check, and the work is counted into `agg.theory.checks` and
/// `agg.theory.groups_evaluated`.
pub(crate) struct TheoryCheck<'a> {
    p1: &'a AggregateProvenance,
    p2: &'a AggregateProvenance,
    checks: Cell<u64>,
    groups_evaluated: Cell<u64>,
    buffers: RefCell<Buffers>,
}

/// A candidate's groups in each query and their rows.
#[derive(Default)]
struct Buffers {
    groups1: Vec<usize>,
    groups2: Vec<usize>,
    rows1: GroupRows,
    rows2: GroupRows,
}

impl<'a> TheoryCheck<'a> {
    pub(crate) fn new(p1: &'a AggregateProvenance, p2: &'a AggregateProvenance) -> Self {
        TheoryCheck {
            p1,
            p2,
            checks: Cell::new(0),
            groups_evaluated: Cell::new(0),
            buffers: RefCell::new(Buffers::default()),
        }
    }

    /// The first parameter setting under which the queries disagree on
    /// `selection`: λ itself (`original`) when no parameter is `free`, else
    /// the first of [`TheoryCheck::param_settings`]. `None` when there is
    /// none; a setting whose evaluation fails counts as agreeing.
    pub(crate) fn differing_setting(
        &self,
        selection: &TupleSelection,
        free: &BTreeSet<String>,
        original: &Params,
        extra: &[i64],
    ) -> Option<Params> {
        let mut buffers = self.candidate(selection);
        if free.is_empty() {
            let differs = self.differ_on(&mut buffers, selection, original);
            return differs.unwrap_or(false).then(|| original.clone());
        }
        self.param_settings(&buffers, selection, free, original, extra)
            .into_iter()
            .find(|setting| {
                self.differ_on(&mut buffers, selection, setting)
                    .unwrap_or(false)
            })
    }

    /// Whether the queries disagree on `selection` under `params`.
    #[cfg(test)]
    pub(crate) fn differ(&self, selection: &TupleSelection, params: &Params) -> Result<bool> {
        self.differ_on(&mut self.candidate(selection), selection, params)
    }

    /// The buffers, holding the groups of each query that `selection` can
    /// make non-empty.
    fn candidate(&self, selection: &TupleSelection) -> RefMut<'_, Buffers> {
        let mut buffers = self.buffers.borrow_mut();
        let Buffers {
            groups1, groups2, ..
        } = &mut *buffers;
        self.p1.groups_under_into(selection, groups1);
        self.p2.groups_under_into(selection, groups2);
        buffers
    }

    /// [`TheoryCheck::differ`] with the candidate's groups in `buffers`.
    fn differ_on(
        &self,
        buffers: &mut Buffers,
        selection: &TupleSelection,
        params: &Params,
    ) -> Result<bool> {
        let Buffers {
            groups1,
            groups2,
            rows1,
            rows2,
        } = buffers;
        self.checks.set(self.checks.get() + 1);
        self.groups_evaluated
            .set(self.groups_evaluated.get() + (groups1.len() + groups2.len()) as u64);
        self.p1
            .evaluate_groups_into(groups1, selection, params, rows1)?;
        self.p2
            .evaluate_groups_into(groups2, selection, params, rows2)?;
        Ok(self.p1.outputs_differ(rows1, self.p2, rows2))
    }

    /// Candidate parameter settings λ' for the candidate `selection`, whose
    /// groups are in `buffers` (paper: COUNT → a live member count, so
    /// thresholds can be met exactly), plus the original values and the
    /// `extra` constants. The counts come from the candidate's groups only:
    /// every other group has no live member. The settings are the Cartesian
    /// product over `param_names`, capped at 256 (the paper's workloads
    /// have a single parameter).
    fn param_settings(
        &self,
        buffers: &Buffers,
        selection: &TupleSelection,
        param_names: &BTreeSet<String>,
        original: &Params,
        extra: &[i64],
    ) -> Vec<Params> {
        let mut values: BTreeSet<i64> = extra.iter().copied().collect();
        for (name, v) in original.iter() {
            if param_names.contains(name) {
                if let Some(i) = v.as_int() {
                    values.insert(i);
                }
            }
        }
        let present = |id| selection.contains(id);
        for (p, groups) in [(self.p1, &buffers.groups1), (self.p2, &buffers.groups2)] {
            for &gi in groups {
                let live = p.groups()[gi]
                    .members
                    .iter()
                    .filter(|m| m.provenance.eval(&present))
                    .count() as i64;
                if live > 0 {
                    values.insert(live);
                }
            }
        }
        let mut settings: Vec<Params> = vec![Params::new()];
        for name in param_names {
            let mut next = Vec::new();
            for setting in &settings {
                for v in &values {
                    let mut s = setting.clone();
                    s.insert(name.clone(), Value::Int(*v));
                    next.push(s);
                }
            }
            settings = next;
            if settings.len() > 256 {
                settings.truncate(256);
            }
        }
        settings
    }

    /// Fold the checks made so far into `metrics` and reset the tallies.
    pub(crate) fn record(&self, metrics: &MetricsHandle) {
        metrics.counter_add("agg.theory.checks", self.checks.take());
        metrics.counter_add("agg.theory.groups_evaluated", self.groups_evaluated.take());
    }
}
