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

/// Render Figure 6.
pub fn render_fig6(rows: &[Fig6Row]) -> String {
    let mut s = String::from(
        "Figure 6: TPC-H computation time (per wrong variant)\nquery  var  algorithm        raw       prov     solver   |C|\n",
    );
    for r in rows {
        for (name, data) in [("Agg-Basic", &r.agg_basic), ("Agg-Opt", &r.agg_opt)] {
            match data {
                Ok((raw, prov, solver, size)) => s.push_str(&format!(
                    "{:<5}  {:>3}  {:<9}  {:>9}  {:>9}  {:>9}  {:>4}\n",
                    r.query,
                    r.variant,
                    name,
                    ms(*raw),
                    ms(*prov),
                    ms(*solver),
                    size
                )),
                Err(e) => s.push_str(&format!(
                    "{:<5}  {:>3}  {:<9}  {:>9}  {:>9}  {:>9}  {:>4}\n",
                    r.query,
                    r.variant,
                    name,
                    e.kind(),
                    "-",
                    "-",
                    "-"
                )),
            }
        }
    }
    s
}

/// Render Figure 7.
pub fn render_fig7(r: &Fig7Result) -> String {
    format!(
        "Figure 7: effectiveness of parameterization on Q18 ({} pairs)\n\
         algorithm   solver runtime   counterexample size\n\
         Agg-Basic   {:>14}   {:>19.2}\n\
         Agg-Param   {:>14}   {:>19.2}\n",
        r.pairs,
        ms(r.basic_solver_time),
        r.basic_size,
        ms(r.param_solver_time),
        r.param_size,
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
            param_solver_time: Duration::from_millis(2),
            param_size: 7.5,
            pairs: 1,
        });
        assert!(f7.contains("Agg-Param"));
    }

    #[test]
    fn fig6_names_the_kind_of_each_error() {
        let f6 = render_fig6(&[Fig6Row {
            query: "Q21-S".into(),
            variant: 0,
            agg_basic: Err(RatestError::Unsupported("no candidate group".into())),
            agg_opt: Err(RatestError::DeadlineExceeded),
        }]);
        let line = |algorithm: &str| f6.lines().find(|l| l.contains(algorithm)).unwrap();
        assert!(line("Agg-Basic").contains("unsupported"), "{f6}");
        assert!(line("Agg-Opt").contains("deadline"), "{f6}");
    }
}
