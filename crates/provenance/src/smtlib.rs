//! Rendering provenance constraints in SMT-LIB 2 syntax.
//!
//! The original RATest passed its constraints to Z3 in SMT-LIB format
//! (Listings 1 and 2 of the paper). Our solver consumes structured formulas
//! directly, but the SMT-LIB rendering remains useful for debugging, for the
//! documentation examples, and as an escape hatch for users who want to feed
//! the constraints to an external solver.

use crate::aggprov::{AggregateProvenance, GroupProvenance};
use crate::boolexpr::BoolExpr;
use ratest_ra::ast::AggFunc;
use ratest_storage::{TupleId, Value};
use std::collections::BTreeSet;
use std::fmt::Write;

/// Render a tuple variable name (`t<relation>_<row>`).
pub fn tuple_var(id: TupleId) -> String {
    format!("t{}_{}", id.relation, id.row)
}

/// Render a Boolean provenance expression as an SMT-LIB term.
pub fn bool_term(expr: &BoolExpr) -> String {
    match expr {
        BoolExpr::True => "true".into(),
        BoolExpr::False => "false".into(),
        BoolExpr::Var(id) => tuple_var(*id),
        BoolExpr::And(parts) => nary("and", parts),
        BoolExpr::Or(parts) => nary("or", parts),
        BoolExpr::Not(inner) => format!("(not {})", bool_term(inner)),
    }
}

fn nary(op: &str, parts: &[BoolExpr]) -> String {
    let mut s = format!("({op}");
    for p in parts {
        s.push(' ');
        s.push_str(&bool_term(p));
    }
    s.push(')');
    s
}

/// Render the complete min-ones problem for an SPJUD witness (Listing 1 of
/// the paper): declare one Boolean per tuple, define `b2i`, assert the
/// provenance, and minimize the number of true variables.
pub fn render_min_ones(provenance: &BoolExpr, foreign_keys: &[(TupleId, TupleId)]) -> String {
    let mut vars: BTreeSet<TupleId> = provenance.variables();
    for (c, p) in foreign_keys {
        vars.insert(*c);
        vars.insert(*p);
    }
    let mut out = String::new();
    for v in &vars {
        let _ = writeln!(out, "(declare-const {} Bool)", tuple_var(*v));
    }
    let _ = writeln!(out, "(define-fun b2i ((x Bool)) Int (ite x 1 0))");
    let _ = writeln!(out, "(assert {})", bool_term(provenance));
    for (child, parent) in foreign_keys {
        let _ = writeln!(
            out,
            "(assert (=> {} {}))",
            tuple_var(*child),
            tuple_var(*parent)
        );
    }
    let objective: Vec<String> = vars
        .iter()
        .map(|v| format!("(b2i {})", tuple_var(*v)))
        .collect();
    let _ = writeln!(out, "(minimize (+ {}))", objective.join(" "));
    let _ = writeln!(out, "(check-sat)");
    let _ = writeln!(out, "(get-model)");
    out
}

fn value_term(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Double(f) => format!("{f}"),
        Value::Bool(b) => b.to_string(),
        other => format!("\"{other}\""),
    }
}

/// Render the symbolic aggregate value of a group for one aggregate call as
/// an SMT-LIB arithmetic term over `b2i(t)` indicators (the
/// `t4 ⊗ 100 +_AVG t5 ⊗ 75` terms of Table 2). `func` is the aggregate
/// function of that call ([`AggregateProvenance::aggregates`]).
pub fn aggregate_term(func: AggFunc, group: &GroupProvenance, agg_index: usize) -> String {
    let weighted: Vec<String> = group
        .members
        .iter()
        .map(|m| {
            format!(
                "(* (b2i {}) {})",
                guard_term(&m.provenance),
                value_term(&m.agg_args[agg_index])
            )
        })
        .collect();
    let indicator: Vec<String> = group
        .members
        .iter()
        .map(|m| format!("(b2i {})", guard_term(&m.provenance)))
        .collect();
    match func {
        AggFunc::Count => format!("(+ {})", indicator.join(" ")),
        AggFunc::Sum => format!("(+ {})", weighted.join(" ")),
        AggFunc::Avg => format!("(/ (+ {}) (+ {}))", weighted.join(" "), indicator.join(" ")),
        // MIN/MAX have no compact linear encoding; render an uninterpreted
        // marker that documents the intent (the solver layer handles these
        // lazily by evaluation, not symbolically).
        AggFunc::Min => format!("(min {})", weighted.join(" ")),
        AggFunc::Max => format!("(max {})", weighted.join(" ")),
    }
}

/// Render the group's existence provenance as a guard usable inside `b2i`.
fn guard_term(p: &BoolExpr) -> String {
    bool_term(p)
}

/// Render the "these two aggregate queries differ on this group" constraint
/// in the style of Listing 2: either exactly one group exists (and passes its
/// HAVING), or both exist with different values of the `agg_index`-th
/// aggregate. The group is the one with `key` in each query's provenance.
pub fn render_aggregate_difference(
    p1: &AggregateProvenance,
    p2: &AggregateProvenance,
    key: &[Value],
    agg_index: usize,
    params: &[(&str, i64)],
) -> String {
    let (g1, g2) = (p1.group_by_key(key), p2.group_by_key(key));
    let mut vars: BTreeSet<TupleId> = BTreeSet::new();
    if let Some(g) = g1 {
        vars.extend(g.variables());
    }
    if let Some(g) = g2 {
        vars.extend(g.variables());
    }
    let mut out = String::new();
    for v in &vars {
        let _ = writeln!(out, "(declare-const {} Bool)", tuple_var(*v));
    }
    for (p, _) in params {
        let _ = writeln!(out, "(declare-const {p} Int)");
    }
    let _ = writeln!(out, "(define-fun b2i ((x Bool)) Int (ite x 1 0))");
    let exists = |g: Option<&GroupProvenance>| -> String {
        match g {
            Some(g) => bool_term(&g.exists),
            None => "false".into(),
        }
    };
    let value = |p: &AggregateProvenance, g: Option<&GroupProvenance>| -> String {
        match g {
            Some(g) => aggregate_term(p.aggregates[agg_index].func, g, agg_index),
            None => "0".into(),
        }
    };
    let _ = writeln!(
        out,
        "(assert (or (distinct {} {}) (not (= {} {}))))",
        exists(g1),
        exists(g2),
        value(p1, g1),
        value(p2, g2)
    );
    let objective: Vec<String> = vars
        .iter()
        .map(|v| format!("(b2i {})", tuple_var(*v)))
        .collect();
    let _ = writeln!(out, "(minimize (+ {}))", objective.join(" "));
    let _ = writeln!(out, "(check-sat)");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggprov::aggregate_provenance;
    use ratest_ra::expr::ParamMap;
    use ratest_ra::testdata;

    fn t(rel: u32, row: u32) -> TupleId {
        TupleId::new(rel, row)
    }

    #[test]
    fn listing1_shape() {
        // Mary's witness provenance from Example 3 / Listing 1.
        let prv = BoolExpr::and2(
            BoolExpr::or2(BoolExpr::var(t(1, 0)), BoolExpr::var(t(1, 1))),
            BoolExpr::and2(
                BoolExpr::var(t(0, 0)),
                BoolExpr::or2(BoolExpr::var(t(1, 0)), BoolExpr::var(t(1, 1))),
            )
            .negate()
            .negate(),
        );
        let text = render_min_ones(&prv, &[(t(1, 0), t(0, 0))]);
        assert!(text.contains("(declare-const t0_0 Bool)"));
        assert!(text.contains("(define-fun b2i ((x Bool)) Int (ite x 1 0))"));
        assert!(text.contains("(assert"));
        assert!(text.contains("(=> t1_0 t0_0)"));
        assert!(text.contains("(minimize (+"));
        assert!(text.contains("(check-sat)"));
    }

    #[test]
    fn bool_terms_render_connectives() {
        let e = BoolExpr::and2(BoolExpr::var(t(0, 1)), BoolExpr::var(t(0, 2)).negate());
        assert_eq!(bool_term(&e), "(and t0_1 (not t0_2))");
        assert_eq!(bool_term(&BoolExpr::True), "true");
    }

    #[test]
    fn listing2_shape_for_example6() {
        let db = testdata::figure1_db();
        let p1 = aggregate_provenance(&testdata::example6_q1(), &db, &ParamMap::new()).unwrap();
        let p2 = aggregate_provenance(&testdata::example6_q2(), &db, &ParamMap::new()).unwrap();
        let mary = vec![Value::from("Mary")];
        let text = render_aggregate_difference(&p1, &p2, &mary, 0, &[("num_CS", 3)]);
        assert!(text.contains("(declare-const num_CS Int)"));
        assert!(text.contains("(assert (or (distinct"));
        assert!(text.contains("(/ (+"), "AVG renders as a quotient: {text}");
        assert!(text.contains("(minimize"));
    }

    #[test]
    fn count_and_sum_terms() {
        let db = testdata::figure1_db();
        let p1 = aggregate_provenance(&testdata::example5_q1(), &db, &ParamMap::new()).unwrap();
        let mary = p1.group_by_key(&[Value::from("Mary")]).unwrap();
        // aggregate 1 is COUNT(course)
        let term = aggregate_term(p1.aggregates[1].func, mary, 1);
        assert!(term.starts_with("(+"));
        assert!(!term.contains('*'), "COUNT uses bare indicators: {term}");
    }
}
