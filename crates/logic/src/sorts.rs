//! Sort environments and sort inference for terms.
//!
//! The provers need to know the sort of ground terms (for quantifier
//! instantiation) and of set expressions (to expand set equalities by
//! extensionality).  A [`SortEnv`] records the sorts of free variables and the
//! signatures of named function symbols; [`SortEnv::sort_of`] computes the
//! sort of a term, returning [`Sort::Unknown`] when it cannot tell.

use crate::form::Form;
use crate::sort::Sort;
use std::collections::HashMap;
use std::sync::Arc;

/// A sort environment: sorts of variables and signatures of named symbols.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SortEnv {
    vars: HashMap<String, Sort>,
    funs: HashMap<String, (Vec<Sort>, Sort)>,
}

impl SortEnv {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares (or re-declares) a variable.
    pub fn declare_var(&mut self, name: impl Into<String>, sort: Sort) {
        self.vars.insert(name.into(), sort);
    }

    /// Declares a named function or predicate symbol.
    pub fn declare_fun(&mut self, name: impl Into<String>, args: Vec<Sort>, ret: Sort) {
        self.funs.insert(name.into(), (args, ret));
    }

    /// Looks up a variable's sort.
    ///
    /// Splitting renames havocked and universally quantified variables to
    /// fresh incarnations (`x#3` from `Vc::ForallVars`, `x$7` from goal
    /// quantifiers); an incarnation shares the sort of its base variable, so
    /// lookup falls back to stripping those numeric suffixes.
    pub fn var_sort(&self, name: &str) -> Option<&Sort> {
        if let Some(sort) = self.vars.get(name) {
            return Some(sort);
        }
        let mut base = name;
        while let Some(split_at) = base.rfind(['#', '$']) {
            let (stem, suffix) = base.split_at(split_at);
            if suffix.len() < 2 || !suffix[1..].bytes().all(|b| b.is_ascii_digit()) {
                break;
            }
            if let Some(sort) = self.vars.get(stem) {
                return Some(sort);
            }
            base = stem;
        }
        None
    }

    /// Looks up a function signature.
    pub fn fun_sig(&self, name: &str) -> Option<&(Vec<Sort>, Sort)> {
        self.funs.get(name)
    }

    /// Iterates over all declared variables.
    pub fn vars(&self) -> impl Iterator<Item = (&String, &Sort)> {
        self.vars.iter()
    }

    /// Computes the sort of a term, with extra local bindings for bound
    /// variables.  Unknown pieces yield [`Sort::Unknown`] rather than errors.
    pub fn sort_of_with(&self, form: &Form, locals: &HashMap<String, Sort>) -> Sort {
        match form {
            Form::Var(name) => locals
                .get(name)
                .cloned()
                .or_else(|| self.var_sort(name).cloned())
                .unwrap_or(Sort::Unknown),
            Form::Int(_)
            | Form::Add(..)
            | Form::Sub(..)
            | Form::Mul(..)
            | Form::Neg(_)
            | Form::Card(_) => Sort::Int,
            Form::Bool(_)
            | Form::Not(_)
            | Form::And(_)
            | Form::Or(_)
            | Form::Implies(..)
            | Form::Iff(..)
            | Form::Eq(..)
            | Form::Lt(..)
            | Form::Le(..)
            | Form::Elem(..)
            | Form::Subseteq(..)
            | Form::Forall(..)
            | Form::Exists(..) => Sort::Bool,
            Form::Null => Sort::Obj,
            Form::EmptySet => Sort::Set(Box::new(Sort::Unknown)),
            Form::Ite(_, t, e) => {
                let ts = self.sort_of_with(t, locals);
                if ts.is_known() {
                    ts
                } else {
                    self.sort_of_with(e, locals)
                }
            }
            Form::App(name, _) => self
                .funs
                .get(name)
                .map(|(_, ret)| ret.clone())
                .unwrap_or(Sort::Unknown),
            Form::FieldRead(field, _) => match self.sort_of_with(field, locals) {
                Sort::Fn(_, ret) => *ret,
                _ => Sort::Unknown,
            },
            Form::FieldWrite(field, _, _) => self.sort_of_with(field, locals),
            Form::ArrayRead(state, _, _) => match self.sort_of_with(state, locals) {
                Sort::Fn(_, ret) => *ret,
                _ => Sort::Obj,
            },
            Form::ArrayWrite(state, _, _, _) => self.sort_of_with(state, locals),
            Form::FiniteSet(elems) => {
                let elem = elems
                    .first()
                    .map(|e| self.sort_of_with(e, locals))
                    .unwrap_or(Sort::Unknown);
                Sort::Set(Box::new(elem))
            }
            Form::Union(a, b) | Form::Inter(a, b) | Form::Diff(a, b) => {
                let sa = self.sort_of_with(a, locals);
                if sa.is_known() {
                    sa
                } else {
                    self.sort_of_with(b, locals)
                }
            }
            Form::Compr(bindings, _) => {
                let elem = if bindings.len() == 1 {
                    bindings[0].1.clone()
                } else {
                    Sort::Tuple(bindings.iter().map(|(_, s)| s.clone()).collect())
                };
                Sort::Set(Box::new(elem))
            }
            Form::Tuple(elems) => {
                Sort::Tuple(elems.iter().map(|e| self.sort_of_with(e, locals)).collect())
            }
            Form::Old(inner) => self.sort_of_with(inner, locals),
        }
    }

    /// Computes the sort of a closed term (no extra local bindings).
    pub fn sort_of(&self, form: &Form) -> Sort {
        self.sort_of_with(form, &HashMap::new())
    }

    /// Returns `true` if the term has a set sort under this environment.
    pub fn is_set_sorted(&self, form: &Form) -> bool {
        self.sort_of(form).is_set()
    }

    /// Fills in [`Sort::Unknown`] binder annotations inside quantifiers and
    /// comprehensions by inspecting how each bound variable is used in the
    /// body (arithmetic / comparison with integers implies `int`; field reads,
    /// comparison with `null`, or use as a field-read object implies `obj`).
    pub fn annotate_binders(&self, form: &Form) -> Form {
        match form {
            Form::Forall(bs, body) => {
                let body2 = self.annotate_binders(body);
                let bs2 = self.resolve_bindings(bs, &body2);
                Form::Forall(bs2, Arc::new(body2))
            }
            Form::Exists(bs, body) => {
                let body2 = self.annotate_binders(body);
                let bs2 = self.resolve_bindings(bs, &body2);
                Form::Exists(bs2, Arc::new(body2))
            }
            Form::Compr(bs, body) => {
                let body2 = self.annotate_binders(body);
                let bs2 = self.resolve_bindings(bs, &body2);
                Form::Compr(bs2, Arc::new(body2))
            }
            other => other.map_children(|c| self.annotate_binders(c)),
        }
    }

    fn resolve_bindings(&self, bindings: &[(String, Sort)], body: &Form) -> Vec<(String, Sort)> {
        bindings
            .iter()
            .map(|(name, sort)| {
                if sort.is_known() {
                    (name.clone(), sort.clone())
                } else {
                    (
                        name.clone(),
                        infer_usage_sort(name, body).unwrap_or(Sort::Unknown),
                    )
                }
            })
            .collect()
    }
}

/// Infers the sort of `name` from its uses in `body`, if a use determines it.
fn infer_usage_sort(name: &str, body: &Form) -> Option<Sort> {
    let mut found: Option<Sort> = None;
    infer_rec(name, body, &mut found);
    found
}

fn is_var(name: &str, form: &Form) -> bool {
    matches!(form, Form::Var(v) if v == name)
}

fn infer_rec(name: &str, form: &Form, found: &mut Option<Sort>) {
    if found.is_some() {
        return;
    }
    match form {
        Form::Lt(a, b) | Form::Le(a, b) | Form::Add(a, b) | Form::Sub(a, b) | Form::Mul(a, b)
            if is_var(name, a) || is_var(name, b) =>
        {
            *found = Some(Sort::Int);
            return;
        }
        Form::Eq(a, b) => {
            if (is_var(name, a) && matches!(**b, Form::Null))
                || (is_var(name, b) && matches!(**a, Form::Null))
            {
                *found = Some(Sort::Obj);
                return;
            }
            if (is_var(name, a) && matches!(**b, Form::Int(_)))
                || (is_var(name, b) && matches!(**a, Form::Int(_)))
            {
                *found = Some(Sort::Int);
                return;
            }
        }
        Form::FieldRead(_, obj) if is_var(name, obj) => {
            *found = Some(Sort::Obj);
            return;
        }
        Form::ArrayRead(_, obj, idx) => {
            if is_var(name, obj) {
                *found = Some(Sort::Obj);
                return;
            }
            if is_var(name, idx) {
                *found = Some(Sort::Int);
                return;
            }
        }
        Form::Forall(bs, _) | Form::Exists(bs, _) | Form::Compr(bs, _)
            if bs.iter().any(|(b, _)| b == name) =>
        {
            return; // shadowed
        }
        _ => {}
    }
    form.for_each_child(|c| infer_rec(name, c, found));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_form;

    fn env() -> SortEnv {
        let mut e = SortEnv::new();
        e.declare_var("size", Sort::Int);
        e.declare_var("content", Sort::int_obj_set());
        e.declare_var("nodes", Sort::obj_set());
        e.declare_var("first", Sort::Obj);
        e.declare_var("next", Sort::obj_field());
        e.declare_var("elements", Sort::Obj);
        e.declare_var("arrayState", Sort::obj_array_state());
        e.declare_fun(
            "reach",
            vec![Sort::obj_field(), Sort::Obj, Sort::Obj],
            Sort::Bool,
        );
        e
    }

    #[test]
    fn sort_of_basic_terms() {
        let e = env();
        assert_eq!(e.sort_of(&parse_form("size + 1").unwrap()), Sort::Int);
        assert_eq!(e.sort_of(&parse_form("first.next").unwrap()), Sort::Obj);
        assert_eq!(e.sort_of(&parse_form("elements[3]").unwrap()), Sort::Obj);
        assert_eq!(
            e.sort_of(&parse_form("content").unwrap()),
            Sort::int_obj_set()
        );
        assert_eq!(e.sort_of(&parse_form("card(content)").unwrap()), Sort::Int);
        assert_eq!(e.sort_of(&parse_form("size < 3").unwrap()), Sort::Bool);
        assert_eq!(
            e.sort_of(&parse_form("reach(next, first, first)").unwrap()),
            Sort::Bool
        );
    }

    #[test]
    fn sort_of_set_expressions() {
        let e = env();
        assert!(e.is_set_sorted(&parse_form("nodes union {first}").unwrap()));
        assert!(e.is_set_sorted(&parse_form("content").unwrap()));
        assert!(!e.is_set_sorted(&parse_form("size").unwrap()));
        let compr = parse_form("{(i, n) : int * obj | n = elements[i]}").unwrap();
        assert_eq!(e.sort_of(&compr), Sort::int_obj_set());
    }

    #[test]
    fn annotate_binders_from_usage() {
        let e = env();
        let f = parse_form("forall x. x < size").unwrap();
        let g = e.annotate_binders(&f);
        match g {
            Form::Forall(bs, _) => assert_eq!(bs[0].1, Sort::Int),
            other => panic!("expected forall, got {other:?}"),
        }
        let f = parse_form("forall x. x.next = null").unwrap();
        let g = e.annotate_binders(&f);
        match g {
            Form::Forall(bs, _) => assert_eq!(bs[0].1, Sort::Obj),
            other => panic!("expected forall, got {other:?}"),
        }
    }

    #[test]
    fn unknown_variables_have_unknown_sort() {
        let e = env();
        assert_eq!(e.sort_of(&Form::var("mystery")), Sort::Unknown);
    }

    #[test]
    fn tuple_sort() {
        let e = env();
        let f = parse_form("(size, first)").unwrap();
        assert_eq!(e.sort_of(&f), Sort::Tuple(vec![Sort::Int, Sort::Obj]));
    }
}
