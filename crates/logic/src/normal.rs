//! Normalisation passes shared by the verification-condition generator and
//! the provers.
//!
//! * [`eliminate_old`] — replaces `old e` by `e` with free variables renamed
//!   to their pre-state incarnations (used by the lowering in `ipl-lang`).
//! * [`expand_sets`] — beta-reduces comprehension membership and rewrites set
//!   algebra (`union`, `inter`, `minus`, `subseteq`, set equality) into
//!   membership-level first-order formulas, which the SMT-lite provers handle
//!   via quantifier instantiation.
//! * [`nnf`] — negation normal form (eliminates `-->`, `<->`, pushes `~`).
//! * [`skolemize`] — replaces existential quantifiers in a formula assumed to
//!   be in NNF by skolem constants/functions.

use crate::form::{Binding, Form};
use crate::sort::Sort;
use crate::sorts::SortEnv;
use crate::subst::{substitute, FreshNames};
use std::collections::HashMap;
use std::sync::Arc;

/// Replaces every `old e` sub-term by `e` with its free variables renamed
/// through `rename` (typically `v ↦ v_old`).  Nested `old` is idempotent.
pub fn eliminate_old(form: &Form, rename: &mut dyn FnMut(&str) -> String) -> Form {
    match form {
        Form::Old(inner) => {
            let inner = eliminate_old(inner, rename);
            let mut map = HashMap::new();
            for v in crate::subst::free_vars(&inner) {
                map.insert(v.clone(), Form::Var(rename(&v)));
            }
            substitute(&inner, &map)
        }
        other => other.map_children(|c| eliminate_old(c, rename)),
    }
}

/// Returns `true` if the formula contains an `old` sub-term.
pub fn contains_old(form: &Form) -> bool {
    let mut found = false;
    fn rec(form: &Form, found: &mut bool) {
        if *found {
            return;
        }
        if matches!(form, Form::Old(_)) {
            *found = true;
            return;
        }
        form.for_each_child(|c| rec(c, found));
    }
    rec(form, &mut found);
    found
}

/// Expands set algebra into membership-level first-order logic.
///
/// The environment is used to determine element sorts for extensionality
/// expansion of `subseteq` and set equality.  Cardinality (`card`) terms are
/// left untouched — they are handled by the BAPA prover.
pub fn expand_sets(form: &Form, env: &SortEnv) -> Form {
    let mut fresh = FreshNames::new();
    fresh.reserve_all(form);
    expand_rec(form, env, &mut fresh)
}

fn expand_rec(form: &Form, env: &SortEnv, fresh: &mut FreshNames) -> Form {
    // First expand children so membership pushes through nested operations.
    let form = form.map_children(|c| expand_rec(c, env, fresh));
    match &form {
        Form::Elem(elem, set) => expand_membership(elem, set, env, fresh),
        Form::Subseteq(a, b) => {
            let elem_sort = env.sort_of(a).set_elem().cloned().unwrap_or(Sort::Unknown);
            let (pattern, bindings) = element_pattern(&elem_sort, fresh);
            let lhs = expand_membership(&pattern, a, env, fresh);
            let rhs = expand_membership(&pattern, b, env, fresh);
            Form::forall(bindings, Form::implies(lhs, rhs))
        }
        Form::Eq(a, b) => {
            let sa = env.sort_of(a);
            let sb = env.sort_of(b);
            if sa.is_set() || sb.is_set() {
                let elem_sort = sa
                    .set_elem()
                    .or_else(|| sb.set_elem())
                    .cloned()
                    .unwrap_or(Sort::Unknown);
                let (pattern, bindings) = element_pattern(&elem_sort, fresh);
                let lhs = expand_membership(&pattern, a, env, fresh);
                let rhs = expand_membership(&pattern, b, env, fresh);
                Form::forall(bindings, Form::iff(lhs, rhs))
            } else if matches!((&sa, &sb), (Sort::Tuple(_), _) | (_, Sort::Tuple(_))) {
                // Tuple equality: compare componentwise when both are literal tuples.
                if let (Form::Tuple(xs), Form::Tuple(ys)) = (a.as_ref(), b.as_ref()) {
                    if xs.len() == ys.len() {
                        return Form::and(
                            xs.iter()
                                .zip(ys.iter())
                                .map(|(x, y)| Form::eq(x.clone(), y.clone())),
                        );
                    }
                }
                form.clone()
            } else {
                form.clone()
            }
        }
        _ => form,
    }
}

/// Builds a fresh "generic element" pattern of the given sort: a variable for
/// scalar sorts, a tuple of variables for tuple sorts.
fn element_pattern(sort: &Sort, fresh: &mut FreshNames) -> (Form, Vec<Binding>) {
    match sort {
        Sort::Tuple(parts) => {
            let mut vars = Vec::with_capacity(parts.len());
            let mut bindings = Vec::with_capacity(parts.len());
            for part in parts {
                let name = fresh.fresh("el");
                vars.push(Form::Var(name.clone()));
                bindings.push((name, part.clone()));
            }
            (Form::Tuple(vars), bindings)
        }
        other => {
            let name = fresh.fresh("el");
            (Form::Var(name.clone()), vec![(name, other.clone())])
        }
    }
}

/// Expands a single membership `elem in set` as far as the structure of `set`
/// allows.
fn expand_membership(elem: &Form, set: &Form, env: &SortEnv, fresh: &mut FreshNames) -> Form {
    match set {
        Form::EmptySet => Form::FALSE,
        Form::FiniteSet(items) => Form::or(
            items
                .iter()
                .map(|item| tuple_aware_eq(elem.clone(), item.clone()))
                .collect::<Vec<_>>(),
        ),
        Form::Union(a, b) => Form::or(vec![
            expand_membership(elem, a, env, fresh),
            expand_membership(elem, b, env, fresh),
        ]),
        Form::Inter(a, b) => Form::and(vec![
            expand_membership(elem, a, env, fresh),
            expand_membership(elem, b, env, fresh),
        ]),
        Form::Diff(a, b) => Form::and(vec![
            expand_membership(elem, a, env, fresh),
            Form::not(expand_membership(elem, b, env, fresh)),
        ]),
        Form::Compr(bindings, body) => {
            let components: Option<Vec<Form>> = match elem {
                Form::Tuple(parts) if parts.len() == bindings.len() => Some(parts.clone()),
                _ if bindings.len() == 1 => Some(vec![elem.clone()]),
                _ => None,
            };
            match components {
                Some(parts) => {
                    let mut map = HashMap::new();
                    for ((name, _), value) in bindings.iter().zip(parts) {
                        map.insert(name.clone(), value);
                    }
                    let body = substitute(body, &map);
                    expand_rec(&body, env, fresh)
                }
                None => Form::elem(elem.clone(), set.clone()),
            }
        }
        Form::Ite(c, t, e) => Form::Ite(
            c.clone(),
            Arc::new(expand_membership(elem, t, env, fresh)),
            Arc::new(expand_membership(elem, e, env, fresh)),
        ),
        _ => Form::elem(elem.clone(), set.clone()),
    }
}

/// Equality that decomposes tuple literals componentwise.
fn tuple_aware_eq(lhs: Form, rhs: Form) -> Form {
    match (&lhs, &rhs) {
        (Form::Tuple(xs), Form::Tuple(ys)) if xs.len() == ys.len() => Form::and(
            xs.iter()
                .zip(ys.iter())
                .map(|(x, y)| tuple_aware_eq(x.clone(), y.clone()))
                .collect::<Vec<_>>(),
        ),
        _ => Form::eq(lhs, rhs),
    }
}

/// Converts a formula to negation normal form: `-->` and `<->` are
/// eliminated, negation is pushed to the atoms, and `ite` on formulas is
/// expanded.
pub fn nnf(form: &Form) -> Form {
    nnf_pos(form)
}

fn nnf_pos(form: &Form) -> Form {
    match form {
        Form::Not(inner) => nnf_neg(inner),
        Form::And(parts) => Form::and(parts.iter().map(nnf_pos).collect::<Vec<_>>()),
        Form::Or(parts) => Form::or(parts.iter().map(nnf_pos).collect::<Vec<_>>()),
        Form::Implies(a, b) => Form::or(vec![nnf_neg(a), nnf_pos(b)]),
        Form::Iff(a, b) => Form::and(vec![
            Form::or(vec![nnf_neg(a), nnf_pos(b)]),
            Form::or(vec![nnf_neg(b), nnf_pos(a)]),
        ]),
        Form::Ite(c, t, e) => {
            // Only expand when the branches are formulas; term-level ite is kept.
            Form::and(vec![
                Form::or(vec![nnf_neg(c), nnf_pos(t)]),
                Form::or(vec![nnf_pos(c), nnf_pos(e)]),
            ])
        }
        Form::Forall(bs, body) => Form::forall(bs.clone(), nnf_pos(body)),
        Form::Exists(bs, body) => Form::exists(bs.clone(), nnf_pos(body)),
        other => other.clone(),
    }
}

fn nnf_neg(form: &Form) -> Form {
    match form {
        Form::Not(inner) => nnf_pos(inner),
        Form::Bool(b) => Form::Bool(!b),
        Form::And(parts) => Form::or(parts.iter().map(nnf_neg).collect::<Vec<_>>()),
        Form::Or(parts) => Form::and(parts.iter().map(nnf_neg).collect::<Vec<_>>()),
        Form::Implies(a, b) => Form::and(vec![nnf_pos(a), nnf_neg(b)]),
        Form::Iff(a, b) => Form::or(vec![
            Form::and(vec![nnf_pos(a), nnf_neg(b)]),
            Form::and(vec![nnf_pos(b), nnf_neg(a)]),
        ]),
        Form::Ite(c, t, e) => Form::and(vec![
            Form::or(vec![nnf_neg(c), nnf_neg(t)]),
            Form::or(vec![nnf_pos(c), nnf_neg(e)]),
        ]),
        Form::Forall(bs, body) => Form::exists(bs.clone(), nnf_neg(body)),
        Form::Exists(bs, body) => Form::forall(bs.clone(), nnf_neg(body)),
        other => Form::not(other.clone()),
    }
}

/// Skolemizes a formula in NNF: existential quantifiers are replaced by
/// applications of fresh skolem symbols to the universally quantified
/// variables in scope.  Returns the skolemized formula and the list of
/// introduced skolem symbols with their result sorts.
pub fn skolemize(form: &Form, fresh: &mut FreshNames) -> (Form, Vec<(String, Sort)>) {
    let mut skolems = Vec::new();
    let out = sk_rec(form, &mut Vec::new(), fresh, &mut skolems);
    (out, skolems)
}

fn sk_rec(
    form: &Form,
    universals: &mut Vec<Binding>,
    fresh: &mut FreshNames,
    skolems: &mut Vec<(String, Sort)>,
) -> Form {
    match form {
        Form::Exists(bs, body) => {
            let mut map = HashMap::new();
            for (name, sort) in bs {
                let sk_name = fresh.fresh(&format!("sk_{name}"));
                skolems.push((sk_name.clone(), sort.clone()));
                let replacement = if universals.is_empty() {
                    Form::Var(sk_name)
                } else {
                    Form::App(
                        sk_name,
                        universals
                            .iter()
                            .map(|(v, _)| Form::Var(v.clone()))
                            .collect(),
                    )
                };
                map.insert(name.clone(), replacement);
            }
            let body = substitute(body, &map);
            sk_rec(&body, universals, fresh, skolems)
        }
        Form::Forall(bs, body) => {
            let n = universals.len();
            universals.extend(bs.iter().cloned());
            let body = sk_rec(body, universals, fresh, skolems);
            universals.truncate(n);
            Form::forall(bs.clone(), body)
        }
        Form::And(parts) => Form::and(
            parts
                .iter()
                .map(|p| sk_rec(p, universals, fresh, skolems))
                .collect::<Vec<_>>(),
        ),
        Form::Or(parts) => Form::or(
            parts
                .iter()
                .map(|p| sk_rec(p, universals, fresh, skolems))
                .collect::<Vec<_>>(),
        ),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_form;

    fn env() -> SortEnv {
        let mut e = SortEnv::new();
        e.declare_var("size", Sort::Int);
        e.declare_var("content", Sort::int_obj_set());
        e.declare_var("old_content", Sort::int_obj_set());
        e.declare_var("nodes", Sort::obj_set());
        e.declare_var("x", Sort::Obj);
        e.declare_var("elements", Sort::Obj);
        e.declare_var("arrayState", Sort::obj_array_state());
        e
    }

    #[test]
    fn old_elimination_renames_free_variables() {
        let f = parse_form("old(size) = size + 1").unwrap();
        let g = eliminate_old(&f, &mut |v| format!("{v}_old"));
        assert_eq!(g.to_string(), "size_old = size + 1");
        assert!(!contains_old(&g));
        assert!(contains_old(&f));
    }

    #[test]
    fn old_elimination_handles_compound_expressions() {
        let f = parse_form("old(elements[i]) = elements[i]").unwrap();
        let g = eliminate_old(&f, &mut |v| format!("{v}_pre"));
        let s = g.to_string();
        assert!(s.contains("elements_pre"));
        assert!(
            s.contains("i_pre"),
            "index inside old() is also pre-state: {s}"
        );
    }

    #[test]
    fn membership_in_comprehension_beta_reduces() {
        let e = env();
        let f = parse_form("(a, b) in {(i, n) : int * obj | 0 <= i & n ~= null}").unwrap();
        let g = expand_sets(&f, &e);
        assert_eq!(g.to_string(), "0 <= a & b ~= null");
    }

    #[test]
    fn membership_in_union_and_difference() {
        let e = env();
        let f = parse_form("x in (nodes union {y}) & x in (nodes minus {z})").unwrap();
        let g = expand_sets(&f, &e);
        let s = g.to_string();
        assert!(s.contains("x in nodes"));
        assert!(s.contains("x = y"));
        assert!(s.contains("~"));
    }

    #[test]
    fn set_equality_becomes_extensionality() {
        let e = env();
        let f = parse_form("content = old_content").unwrap();
        let g = expand_sets(&f, &e);
        match &g {
            Form::Forall(bs, body) => {
                assert_eq!(bs.len(), 2, "pair sets bind two element variables");
                assert!(matches!(**body, Form::Iff(..)));
            }
            other => panic!("expected forall, got {other}"),
        }
    }

    #[test]
    fn subseteq_expands_to_implication() {
        let e = env();
        let f = parse_form("nodes subseteq (nodes union {x})").unwrap();
        let g = expand_sets(&f, &e);
        assert!(matches!(g, Form::Forall(..)));
    }

    #[test]
    fn nnf_eliminates_implication_and_pushes_negation() {
        let f = parse_form("~(a --> b)").unwrap();
        let g = nnf(&f);
        assert_eq!(
            g,
            Form::and(vec![Form::var("a"), Form::not(Form::var("b"))])
        );
        let f = parse_form("~(forall x:int. p(x))").unwrap();
        let g = nnf(&f);
        assert!(matches!(g, Form::Exists(..)));
    }

    #[test]
    fn nnf_keeps_atoms() {
        let f = parse_form("~(x = y)").unwrap();
        assert_eq!(nnf(&f), Form::not(Form::eq(Form::var("x"), Form::var("y"))));
    }

    #[test]
    fn skolemize_top_level_existential() {
        let f = nnf(&parse_form("exists w:obj. w in nodes").unwrap());
        let mut fresh = FreshNames::new();
        let (g, sks) = skolemize(&f, &mut fresh);
        assert_eq!(sks.len(), 1);
        assert!(matches!(g, Form::Elem(..)));
    }

    #[test]
    fn skolemize_under_universal_introduces_function() {
        let f = nnf(&parse_form("forall x:obj. exists y:obj. edge(x, y)").unwrap());
        let mut fresh = FreshNames::new();
        let (g, sks) = skolemize(&f, &mut fresh);
        assert_eq!(sks.len(), 1);
        let s = g.to_string();
        assert!(s.contains("sk_y"), "skolem function applied to x: {s}");
        assert!(s.contains("(x)"), "skolem function applied to x: {s}");
    }
}
