//! Solver statistics reported by the experiment harness.

use ratest_telemetry::MetricsHandle;
use serde::{Deserialize, Serialize};

/// Counters accumulated while solving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverStats {
    /// Number of branching decisions.
    pub decisions: u64,
    /// Number of unit propagations.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of learned clauses added.
    pub learned_clauses: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// High-water mark of the clause database size across the solves these
    /// stats cover. Merged with `max`, observed as a histogram sample by
    /// [`SolverStats::record`].
    pub clause_db_size: u64,
}

impl SolverStats {
    /// Merge counters from another run (used when the min-ones optimizer
    /// builds several solvers for successive cardinality bounds).
    pub fn merge(&mut self, other: &SolverStats) {
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.learned_clauses += other.learned_clauses;
        self.restarts += other.restarts;
        self.clause_db_size = self.clause_db_size.max(other.clause_db_size);
    }

    /// Fold these counters into a metrics registry under the `solver.*`
    /// namespace, and count one solver call. This is how per-search SAT
    /// statistics — previously dropped at the call sites — reach the
    /// telemetry layer.
    pub fn record(&self, metrics: &MetricsHandle) {
        metrics.counter_inc("solver.calls");
        metrics.counter_add("solver.decisions", self.decisions);
        metrics.counter_add("solver.propagations", self.propagations);
        metrics.counter_add("solver.conflicts", self.conflicts);
        metrics.counter_add("solver.learned_clauses", self.learned_clauses);
        metrics.counter_add("solver.restarts", self.restarts);
        metrics.observe("solver.clause_db_size", self.clause_db_size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters() {
        let mut a = SolverStats {
            decisions: 1,
            propagations: 2,
            conflicts: 3,
            learned_clauses: 4,
            restarts: 5,
            ..Default::default()
        };
        a.merge(&a.clone());
        assert_eq!(a.decisions, 2);
        assert_eq!(a.restarts, 10);
    }

    #[test]
    fn merge_takes_the_max_clause_db_size() {
        let mut a = SolverStats {
            clause_db_size: 10,
            ..Default::default()
        };
        a.merge(&SolverStats {
            clause_db_size: 7,
            ..Default::default()
        });
        assert_eq!(a.clause_db_size, 10);
        a.merge(&SolverStats {
            clause_db_size: 12,
            ..Default::default()
        });
        assert_eq!(a.clause_db_size, 12);
    }

    #[test]
    fn record_folds_into_the_registry() {
        use std::sync::Arc;
        let registry = Arc::new(ratest_telemetry::MetricsRegistry::new());
        let metrics = MetricsHandle::new(registry.clone());
        let stats = SolverStats {
            decisions: 1,
            propagations: 2,
            conflicts: 3,
            learned_clauses: 4,
            restarts: 5,
            clause_db_size: 9,
        };
        stats.record(&metrics);
        stats.record(&metrics);
        assert_eq!(registry.counter("solver.calls"), 2);
        assert_eq!(registry.counter("solver.decisions"), 2);
        assert_eq!(registry.counter("solver.conflicts"), 6);
        assert_eq!(registry.counter("solver.restarts"), 10);
    }
}
