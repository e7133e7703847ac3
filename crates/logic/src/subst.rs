//! Free variables, capture-avoiding substitution and fresh name generation.

use crate::form::{Binding, Form};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Returns the set of free variable names of a formula.
pub fn free_vars(form: &Form) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for_each_free_var(form, &mut |name| {
        out.insert(name.to_string());
    });
    out
}

/// Calls `f` on every free occurrence of a variable in `form`, without
/// allocating.
pub fn for_each_free_var<'f>(form: &'f Form, f: &mut impl FnMut(&'f str)) {
    visit_free(form, &mut Vec::new(), f);
}

fn visit_free<'f>(form: &'f Form, bound: &mut Vec<&'f str>, f: &mut impl FnMut(&'f str)) {
    match form {
        Form::Var(name) => {
            if !bound.contains(&name.as_str()) {
                f(name);
            }
        }
        Form::Forall(bs, body) | Form::Exists(bs, body) | Form::Compr(bs, body) => {
            let n = bound.len();
            bound.extend(bs.iter().map(|(v, _)| v.as_str()));
            visit_free(body, bound, f);
            bound.truncate(n);
        }
        other => other.for_each_child(|c| visit_free(c, bound, f)),
    }
}

/// A generator of fresh names, guaranteed distinct from all names it has seen.
#[derive(Debug, Default, Clone)]
pub struct FreshNames {
    counter: u64,
    issued: usize,
    used: BTreeSet<String>,
}

impl FreshNames {
    /// Creates an empty generator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a name as used so it is never generated.
    pub fn reserve(&mut self, name: &str) {
        self.used.insert(name.to_string());
    }

    /// Marks every free variable of `form` as used.
    pub fn reserve_all(&mut self, form: &Form) {
        for v in free_vars(form) {
            self.used.insert(v);
        }
    }

    /// Produces a fresh name based on the given stem.
    pub fn fresh(&mut self, stem: &str) -> String {
        loop {
            self.counter += 1;
            let candidate = format!("{stem}_{}", self.counter);
            if !self.used.contains(&candidate) {
                self.used.insert(candidate.clone());
                self.issued += 1;
                return candidate;
            }
        }
    }

    /// How many names [`fresh`](Self::fresh) has produced.  A pass whose
    /// count did not move drew no name, so its result does not depend on
    /// this generator's state.
    pub fn issued(&self) -> usize {
        self.issued
    }
}

/// Capture-avoiding substitution of variables by terms.
///
/// Every free occurrence of a key of `map` in `form` is replaced by the
/// corresponding term; bound variables are renamed as necessary to avoid
/// capturing free variables of the replacement terms.
///
/// Substitution results are memoised per shared subtree (keyed by node
/// address) for the duration of one call: on hash-consed formulas (see
/// [`crate::intern`]) a subtree that occurs many times is rewritten once and
/// the result's `Arc`s are reused, making the pass linear in the DAG size
/// rather than the tree unfolding.
pub fn substitute(form: &Form, map: &HashMap<String, Form>) -> Form {
    if map.is_empty() {
        return form.clone();
    }
    // Variables that must not be captured by binders.
    let mut avoid: BTreeSet<String> = BTreeSet::new();
    for v in map.values() {
        avoid.extend(free_vars(v));
    }
    avoid.extend(map.keys().cloned());
    subst_rec(form, map, &avoid, &mut HashMap::new())
}

/// Per-call memo: node address → substituted form.  Only valid for one
/// (`map`, `avoid`) pair; binder cases that change the map recurse with a
/// fresh memo.
type SubstMemo = HashMap<usize, Form>;

fn subst_rec(
    form: &Form,
    map: &HashMap<String, Form>,
    avoid: &BTreeSet<String>,
    memo: &mut SubstMemo,
) -> Form {
    let key = form as *const Form as usize;
    if let Some(hit) = memo.get(&key) {
        return hit.clone();
    }
    let out = match form {
        Form::Var(name) => match map.get(name) {
            Some(replacement) => replacement.clone(),
            None => form.clone(),
        },
        Form::Forall(bs, body) => {
            let (bs2, body2) = binder_body(bs, body, map, avoid, memo);
            Form::Forall(bs2, Arc::new(body2))
        }
        Form::Exists(bs, body) => {
            let (bs2, body2) = binder_body(bs, body, map, avoid, memo);
            Form::Exists(bs2, Arc::new(body2))
        }
        Form::Compr(bs, body) => {
            let (bs2, body2) = binder_body(bs, body, map, avoid, memo);
            Form::Compr(bs2, Arc::new(body2))
        }
        other => other.map_children(|c| subst_rec(c, map, avoid, memo)),
    };
    memo.insert(key, out.clone());
    out
}

/// Substitutes under a binder.  The shared memo may only ever key nodes
/// reachable from the original root (their addresses are stable for the whole
/// call): when the binder renames or shadows anything, the recursion works on
/// a temporary body and a different map, so it runs with its own short-lived
/// memo that is dropped before the temporary is.
fn binder_body(
    bindings: &[Binding],
    body: &Form,
    map: &HashMap<String, Form>,
    avoid: &BTreeSet<String>,
    memo: &mut SubstMemo,
) -> (Vec<Binding>, Form) {
    let (bs2, body2, map2) = rebind(bindings, body, map, avoid);
    let substituted = match body2 {
        // No binder was renamed and no key shadowed: recurse on the original
        // (stable) body with the unchanged map and the shared memo.
        None if map2.len() == map.len() => subst_rec(body, map, avoid, memo),
        // Keys were shadowed: same stable body, but a different map — the
        // shared memo entries do not apply.
        None => subst_rec(body, &map2, avoid, &mut HashMap::new()),
        // Binders were renamed: the body is a fresh temporary tree; its
        // addresses must not outlive this scope inside any memo.
        Some(renamed) => subst_rec(&renamed, &map2, avoid, &mut HashMap::new()),
    };
    (bs2, substituted)
}

/// Renames binders that clash with `avoid`, and removes shadowed keys from the
/// substitution map for the scope of the binder.  Returns `None` as the body
/// when no binder had to be renamed (the original body applies unchanged).
fn rebind(
    bindings: &[Binding],
    body: &Form,
    map: &HashMap<String, Form>,
    avoid: &BTreeSet<String>,
) -> (Vec<Binding>, Option<Form>, HashMap<String, Form>) {
    let mut fresh = FreshNames::new();
    for a in avoid {
        fresh.reserve(a);
    }
    for v in free_vars(body) {
        fresh.reserve(&v);
    }
    // Only the substitutions that survive under this binder can capture, so
    // compute the set of their free variables after removing shadowed keys.
    let mut scoped_map = map.clone();
    for (name, _) in bindings {
        scoped_map.remove(name);
    }
    let mut capturable: BTreeSet<String> = BTreeSet::new();
    for value in scoped_map.values() {
        capturable.extend(free_vars(value));
    }
    let mut new_bindings = Vec::with_capacity(bindings.len());
    let mut rename: HashMap<String, Form> = HashMap::new();
    for (name, sort) in bindings {
        if capturable.contains(name) {
            let new_name = fresh.fresh(name);
            rename.insert(name.clone(), Form::Var(new_name.clone()));
            new_bindings.push((new_name, sort.clone()));
        } else {
            new_bindings.push((name.clone(), sort.clone()));
        }
    }
    let new_body = if rename.is_empty() {
        None
    } else {
        Some(substitute(body, &rename))
    };
    (new_bindings, new_body, scoped_map)
}

/// Substitutes a single variable.
pub fn substitute_one(form: &Form, name: &str, value: &Form) -> Form {
    let mut map = HashMap::new();
    map.insert(name.to_string(), value.clone());
    substitute(form, &map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    fn v(n: &str) -> Form {
        Form::var(n)
    }

    #[test]
    fn free_vars_respects_binders() {
        let f = Form::forall(
            vec![("i".into(), Sort::Int)],
            Form::implies(Form::le(Form::int(0), v("i")), Form::lt(v("i"), v("size"))),
        );
        let fv = free_vars(&f);
        assert!(fv.contains("size"));
        assert!(!fv.contains("i"));
    }

    #[test]
    fn simple_substitution() {
        let f = Form::lt(v("i"), v("size"));
        let g = substitute_one(&f, "i", &Form::int(3));
        assert_eq!(g, Form::lt(Form::int(3), v("size")));
    }

    #[test]
    fn substitution_does_not_touch_bound_occurrences() {
        let f = Form::forall(vec![("i".into(), Sort::Int)], Form::lt(v("i"), v("n")));
        let g = substitute_one(&f, "i", &Form::int(3));
        assert_eq!(g, f);
    }

    #[test]
    fn substitution_avoids_capture() {
        // (forall i. i < n)[n := i]  must rename the bound i.
        let f = Form::forall(vec![("i".into(), Sort::Int)], Form::lt(v("i"), v("n")));
        let g = substitute_one(&f, "n", &v("i"));
        if let Form::Forall(bs, body) = &g {
            assert_ne!(bs[0].0, "i", "bound variable must be renamed");
            let fv = free_vars(body);
            assert!(fv.contains("i"), "the substituted free i must remain free");
        } else {
            panic!("expected a forall, got {g:?}");
        }
    }

    #[test]
    fn fresh_names_never_repeat() {
        let mut gen = FreshNames::new();
        gen.reserve("x_1");
        let a = gen.fresh("x");
        let b = gen.fresh("x");
        assert_ne!(a, b);
        assert_ne!(a, "x_1");
        assert_ne!(b, "x_1");
        // Skipping the reserved `x_1` is not an issued name.
        assert_eq!(gen.issued(), 2);
    }

    #[test]
    fn simultaneous_substitution_swaps_without_chaining() {
        // {x := y, y := x} applied to x < y must swap, not chain x -> y -> x.
        let form = Form::lt(v("x"), v("y"));
        let mut map = HashMap::new();
        map.insert("x".to_string(), v("y"));
        map.insert("y".to_string(), v("x"));
        assert_eq!(substitute(&form, &map), Form::lt(v("y"), v("x")));
    }

    #[test]
    fn capture_avoidance_renames_nested_binders() {
        // (forall i. exists j. i < n & j < n)[n := i + j] must rename both
        // bound variables; the substituted i and j must stay free.
        let inner = Form::exists(
            vec![("j".into(), Sort::Int)],
            Form::and(vec![Form::lt(v("i"), v("n")), Form::lt(v("j"), v("n"))]),
        );
        let form = Form::forall(vec![("i".into(), Sort::Int)], inner);
        let g = substitute_one(&form, "n", &Form::add(v("i"), v("j")));
        let fv = free_vars(&g);
        assert!(fv.contains("i"), "substituted i must stay free in {g:?}");
        assert!(fv.contains("j"), "substituted j must stay free in {g:?}");
        let Form::Forall(outer, body) = &g else {
            panic!("expected a forall, got {g:?}");
        };
        assert_ne!(outer[0].0, "i", "outer binder must be renamed");
        let Form::Exists(inner, _) = body.as_ref() else {
            panic!("expected an exists, got {body:?}");
        };
        assert_ne!(inner[0].0, "j", "inner binder must be renamed");
    }

    #[test]
    fn capture_avoidance_in_comprehension_binders() {
        // {e | e = x}[x := e] must rename the comprehension's binder.
        let compr = Form::Compr(
            vec![("e".into(), Sort::Obj)],
            Arc::new(Form::eq(v("e"), v("x"))),
        );
        let g = substitute_one(&compr, "x", &v("e"));
        let Form::Compr(bindings, body) = &g else {
            panic!("expected comprehension, got {g:?}");
        };
        assert_ne!(bindings[0].0, "e", "comprehension binder must be renamed");
        assert_eq!(**body, Form::eq(v(&bindings[0].0), v("e")));
    }

    #[test]
    fn substitution_into_comprehension() {
        // {(i, n) | n = x}[x := y]
        let compr = Form::Compr(
            vec![("i".into(), Sort::Int), ("n".into(), Sort::Obj)],
            Arc::new(Form::eq(v("n"), v("x"))),
        );
        let g = substitute_one(&compr, "x", &v("y"));
        if let Form::Compr(_, body) = g {
            assert_eq!(*body, Form::eq(v("n"), v("y")));
        } else {
            panic!("expected comprehension");
        }
    }
}
