//! Text rendering of experiment results into paper-style tables.

use crate::experiments::*;
use std::time::Duration;

fn ms(d: Duration) -> String {
    format!("{:.2} ms", d.as_secs_f64() * 1e3)
}

/// Render Table 3.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut s = String::from(
        "Table 3: |D| vs. number of wrong queries discovered\n# tuples  # wrong queries  # discovered\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:>8}  {:>15}  {:>12}\n",
            r.tuples, r.total_wrong_queries, r.discovered
        ));
    }
    s
}

/// Render Table 4.
pub fn render_table4(rows: &[Table4Row]) -> String {
    let mut s = String::from(
        "Table 4: SCP (Basic) vs SWP (Optσ)\nalgorithm     mean runtime    mean counterexample size   pairs\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<12}  {:>12}  {:>25.2}  {:>6}\n",
            r.algorithm,
            ms(r.mean_runtime),
            r.mean_size,
            r.pairs
        ));
    }
    s
}

/// Render Figure 3.
pub fn render_fig3(rows: &[Fig3Row]) -> String {
    let mut s = String::from(
        "Figure 3: query complexity vs Optσ component time\nQ#  ops  diffs  height       raw   prov-sp    solver     total\n",
    );
    let mut sorted = rows.to_vec();
    sorted.sort_by_key(|r| (r.operators, r.differences, r.height));
    for r in sorted {
        s.push_str(&format!(
            "{:>2}  {:>3}  {:>5}  {:>6}  {:>9} {:>9} {:>9} {:>9}\n",
            r.question,
            r.operators,
            r.differences,
            r.height,
            ms(r.raw),
            ms(r.prov_sp),
            ms(r.solver),
            ms(r.total)
        ));
    }
    s
}

/// Render Figure 4.
pub fn render_fig4(rows: &[Fig4Row]) -> String {
    let mut s = String::from(
        "Figure 4: mean running time of each component vs |D|\n# tuples        raw   prov-all    prov-sp  naive-128 solver-opt    opt-all\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:>8}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}\n",
            r.tuples,
            ms(r.raw),
            ms(r.prov_all),
            ms(r.prov_sp),
            ms(r.solver_naive_128),
            ms(r.solver_opt),
            ms(r.solver_opt_all)
        ));
    }
    s
}

/// Render Figure 5.
pub fn render_fig5(rows: &[Fig5Row]) -> String {
    let mut s = String::from(
        "Figure 5: witness size vs solver strategy\nstrategy    mean size   mean solver time\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<10}  {:>9.2}  {:>16}\n",
            r.strategy,
            r.mean_size,
            ms(r.mean_solver_time)
        ));
    }
    s
}

/// Render Figure 6, with each run's theory checks and solver decisions.
pub fn render_fig6(rows: &[Fig6Row]) -> String {
    let mut s = String::from(
        "Figure 6: TPC-H computation time (per wrong variant)\nquery  var  algorithm        raw       prov     solver   |C|   checks  decisions\n",
    );
    for r in rows {
        for (name, run) in [("Agg-Basic", &r.agg_basic), ("Agg-Opt", &r.agg_opt)] {
            let (raw, prov, solver, size) = match &run.result {
                Ok((raw, prov, solver, size)) => {
                    (ms(*raw), ms(*prov), ms(*solver), size.to_string())
                }
                Err(e) => (e.kind().to_string(), "-".into(), "-".into(), "-".into()),
            };
            s.push_str(&format!(
                "{:<5}  {:>3}  {:<9}  {:>9}  {:>9}  {:>9}  {:>4}  {:>7}  {:>9}\n",
                r.query,
                r.variant,
                name,
                raw,
                prov,
                solver,
                size,
                run.theory_checks,
                run.solver_decisions
            ));
        }
    }
    s
}

/// Render Figure 7, with each algorithm's mean theory checks and solver
/// decisions.
pub fn render_fig7(r: &Fig7Result) -> String {
    format!(
        "Figure 7: effectiveness of parameterization on Q18 ({} pairs)\n\
         algorithm   solver runtime   counterexample size    checks   decisions\n\
         Agg-Basic   {:>14}   {:>19.2}  {:>8.1}  {:>10.1}\n\
         Agg-Param   {:>14}   {:>19.2}  {:>8.1}  {:>10.1}\n",
        r.pairs,
        ms(r.basic_solver_time),
        r.basic_size,
        r.basic_checks,
        r.basic_decisions,
        ms(r.param_solver_time),
        r.param_size,
        r.param_checks,
        r.param_decisions,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratest_core::RatestError;

    #[test]
    fn renderings_are_nonempty_and_well_formed() {
        let t3 = render_table3(&[Table3Row {
            tuples: 100,
            total_wrong_queries: 10,
            discovered: 7,
        }]);
        assert!(t3.contains("100"));
        let t4 = render_table4(&[Table4Row {
            algorithm: "SWP — Optσ".into(),
            mean_runtime: Duration::from_millis(3),
            mean_size: 3.5,
            pairs: 4,
        }]);
        assert!(t4.contains("Optσ"));
        let f7 = render_fig7(&Fig7Result {
            basic_solver_time: Duration::from_millis(1),
            basic_size: 25.3,
            basic_checks: 40.0,
            basic_decisions: 1200.0,
            param_solver_time: Duration::from_millis(2),
            param_size: 7.5,
            param_checks: 12.5,
            param_decisions: 300.0,
            pairs: 1,
        });
        assert!(f7.contains("Agg-Param"));
    }

    fn run(
        result: std::result::Result<(Duration, Duration, Duration, usize), RatestError>,
    ) -> AggRun {
        AggRun {
            result,
            theory_checks: 451,
            solver_decisions: 2983,
        }
    }

    #[test]
    fn fig6_names_the_kind_of_each_error() {
        let f6 = render_fig6(&[Fig6Row {
            query: "Q21-S".into(),
            variant: 0,
            agg_basic: run(Err(RatestError::Unsupported("no candidate group".into()))),
            agg_opt: run(Err(RatestError::DeadlineExceeded)),
        }]);
        let line = |algorithm: &str| f6.lines().find(|l| l.contains(algorithm)).unwrap();
        assert!(line("Agg-Basic").contains("unsupported"), "{f6}");
        assert!(line("Agg-Opt").contains("deadline"), "{f6}");
    }

    #[test]
    fn fig6_and_fig7_print_each_rows_checks_and_decisions() {
        let ms = Duration::from_millis;
        let f6 = render_fig6(&[Fig6Row {
            query: "Q18".into(),
            variant: 1,
            agg_basic: run(Ok((ms(1), ms(2), ms(3), 11))),
            agg_opt: run(Err(RatestError::Unsupported("inputs agree".into()))),
        }]);
        let header = f6.lines().nth(1).unwrap();
        assert!(header.ends_with("checks  decisions"), "{f6}");
        for algorithm in ["Agg-Basic", "Agg-Opt"] {
            let line = f6.lines().find(|l| l.contains(algorithm)).unwrap();
            let tail: Vec<&str> = line.split_whitespace().rev().take(2).collect();
            assert_eq!(tail, ["2983", "451"], "{f6}");
        }
        let f7 = render_fig7(&Fig7Result {
            basic_solver_time: ms(1),
            basic_size: 25.3,
            basic_checks: 40.0,
            basic_decisions: 1200.0,
            param_solver_time: ms(2),
            param_size: 7.5,
            param_checks: 12.5,
            param_decisions: 300.0,
            pairs: 1,
        });
        let line = |algorithm: &str| f7.lines().find(|l| l.starts_with(algorithm)).unwrap();
        assert!(line("Agg-Basic").ends_with("40.0      1200.0"), "{f7}");
        assert!(line("Agg-Param").ends_with("12.5       300.0"), "{f7}");
    }
}
