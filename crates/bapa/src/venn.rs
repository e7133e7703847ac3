//! Venn-region reduction from BAPA to Presburger arithmetic.
//!
//! Every set variable (including the implicit singleton sets of element
//! variables) partitions the universe; with `n` set variables there are `2^n`
//! Venn regions.  Introducing one non-negative integer variable per region
//! cardinality turns every set-algebra and cardinality atom into linear
//! arithmetic, which [`crate::presburger::unsatisfiable`] then refutes by
//! Fourier–Motzkin elimination.
//!
//! The translation emits [`IdLinExpr`] directly.  Region `r` is variable
//! `r - 1`, since region 0 (outside every set) never counts; integer
//! variables are numbered after the regions, in the order the translation
//! meets them.  Negations are pushed to the atoms as the translation goes,
//! so its output is already in negation normal form.

use crate::extract::{BapaForm, IntTerm, SetTerm};
use crate::presburger::{IdLinExpr, PForm};
use std::collections::BTreeSet;
use std::time::Instant;

/// Maximum number of set variables of one component (the Venn construction
/// is exponential in this number).
const MAX_SET_VARS: usize = 6;

/// Name of the implicit singleton set for an element variable.
fn singleton_set(elem: &str) -> String {
    format!("single${elem}")
}

/// Context for the translation: the ordered set variables, and the integer
/// variables met so far.
struct VennCtx {
    sets: Vec<String>,
    ints: Vec<String>,
}

impl VennCtx {
    fn region_count(&self) -> usize {
        1usize << self.sets.len()
    }

    /// Returns `true` if the given region lies inside the denotation of the
    /// set term (regions are identified by the bitmask of set memberships).
    fn region_in(&self, region: usize, term: &SetTerm) -> bool {
        match term {
            SetTerm::Var(name) => {
                let idx = self
                    .sets
                    .iter()
                    .position(|s| s == name)
                    .expect("set variable registered during collection");
                region & (1 << idx) != 0
            }
            SetTerm::Empty => false,
            SetTerm::Singleton(elem) => {
                let name = singleton_set(elem);
                let idx = self
                    .sets
                    .iter()
                    .position(|s| s == &name)
                    .expect("singleton set registered during collection");
                region & (1 << idx) != 0
            }
            SetTerm::Union(a, b) => self.region_in(region, a) || self.region_in(region, b),
            SetTerm::Inter(a, b) => self.region_in(region, a) && self.region_in(region, b),
            SetTerm::Diff(a, b) => self.region_in(region, a) && !self.region_in(region, b),
        }
    }

    /// The cardinality of a set term as a linear expression over region vars
    /// (canonical as built: each region is pushed once, in id order).
    fn card(&self, term: &SetTerm) -> IdLinExpr {
        let mut expr = IdLinExpr::default();
        for region in 1..self.region_count() {
            if self.region_in(region, term) {
                expr.push_term(region - 1, 1);
            }
        }
        expr
    }

    /// The variable of an integer variable name, numbered on first meeting.
    fn int_var(&mut self, name: &str) -> usize {
        let index = match self.ints.iter().position(|n| n == name) {
            Some(index) => index,
            None => {
                self.ints.push(name.to_string());
                self.ints.len() - 1
            }
        };
        self.region_count() - 1 + index
    }

    fn int_term(&mut self, term: &IntTerm) -> IdLinExpr {
        match term {
            IntTerm::Const(value) => IdLinExpr::constant(*value),
            IntTerm::Var(name) => {
                let mut expr = IdLinExpr::default();
                expr.push_term(self.int_var(name), 1);
                expr
            }
            IntTerm::Card(set) => self.card(set),
            IntTerm::Add(a, b) => self.combination(a, b, 1),
            IntTerm::Sub(a, b) => self.combination(a, b, -1),
            IntTerm::MulConst(k, a) => {
                let mut expr = self.int_term(a);
                expr.scale(*k);
                expr
            }
        }
    }

    /// `a + kb * b`.
    fn combination(&mut self, a: &IntTerm, b: &IntTerm, kb: i64) -> IdLinExpr {
        let (a, b) = (self.int_term(a), self.int_term(b));
        let mut out = IdLinExpr::default();
        IdLinExpr::combine_into(&mut out, &a, 1, &b, kb);
        out
    }

    /// Translates `form` if `positive`, and its negation otherwise.
    fn form(&mut self, form: &BapaForm, positive: bool) -> PForm {
        match form {
            BapaForm::True | BapaForm::False => {
                if matches!(form, BapaForm::True) == positive {
                    PForm::True
                } else {
                    PForm::False
                }
            }
            BapaForm::Not(inner) => self.form(inner, !positive),
            BapaForm::And(parts) | BapaForm::Or(parts) => {
                let parts = parts.iter().map(|p| self.form(p, positive)).collect();
                if matches!(form, BapaForm::And(_)) == positive {
                    PForm::and(parts)
                } else {
                    PForm::or(parts)
                }
            }
            // a <= b  <=>  a - b <= 0
            BapaForm::IntLe(a, b) => literal(self.combination(a, b, -1), positive),
            // a < b  <=>  a - b + 1 <= 0 (integers)
            BapaForm::IntLt(a, b) => {
                let mut diff = self.combination(a, b, -1);
                diff.shift(1);
                literal(diff, positive)
            }
            BapaForm::IntEq(a, b) => zero(self.combination(a, b, -1), positive),
            // A = B  <=>  |A \ B| + |B \ A| = 0
            BapaForm::SetEq(a, b) => {
                let sym_diff = SetTerm::Union(
                    Box::new(SetTerm::Diff(Box::new(a.clone()), Box::new(b.clone()))),
                    Box::new(SetTerm::Diff(Box::new(b.clone()), Box::new(a.clone()))),
                );
                zero(self.card(&sym_diff), positive)
            }
            // A subseteq B  <=>  |A \ B| = 0
            BapaForm::Subset(a, b) => {
                let diff = SetTerm::Diff(Box::new(a.clone()), Box::new(b.clone()));
                zero(self.card(&diff), positive)
            }
            // x in S  <=>  |single$x \ S| = 0 (with the global |single$x| = 1)
            BapaForm::Member(elem, set) => {
                let diff = SetTerm::Diff(
                    Box::new(SetTerm::Singleton(elem.clone())),
                    Box::new(set.clone()),
                );
                zero(self.card(&diff), positive)
            }
            // x = y  <=>  single$x = single$y
            BapaForm::ElemEq(a, b) => self.form(
                &BapaForm::SetEq(SetTerm::Singleton(a.clone()), SetTerm::Singleton(b.clone())),
                positive,
            ),
        }
    }
}

/// `expr <= 0` if `positive`, and otherwise its integer negation
/// `-expr + 1 <= 0`.
fn literal(mut expr: IdLinExpr, positive: bool) -> PForm {
    if !positive {
        expr.scale(-1);
        expr.shift(1);
    }
    PForm::le(expr)
}

/// `expr = 0`, as `expr <= 0 /\ -expr <= 0`, if `positive`, and otherwise
/// its negation.
fn zero(expr: IdLinExpr, positive: bool) -> PForm {
    let mut neg = expr.clone();
    neg.scale(-1);
    let both = vec![literal(expr, positive), literal(neg, positive)];
    if positive {
        PForm::and(both)
    } else {
        PForm::or(both)
    }
}

/// Splits the conjuncts of a BAPA conjunction into connected components of
/// the variable-sharing graph: two conjuncts land in the same component when
/// they share a set variable, an element variable or an integer variable.
///
/// The Venn construction is exponential in the number of set variables of the
/// formula it is given, so solving each component separately is the
/// difference between `2^(m+n)` regions and `2^m + 2^n` — and because the
/// fragment has no universe complement, a conjunction is satisfiable exactly
/// when every component is satisfiable on its own universe.  Returned indices
/// partition `parts`.
pub fn components(parts: &[BapaForm]) -> Vec<Vec<usize>> {
    use std::collections::BTreeMap;
    // Union-find over conjunct indices.
    let mut parent: Vec<usize> = (0..parts.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    // First conjunct seen for every variable, namespaced by kind (set /
    // element / integer — extraction classifies every name into one kind, and
    // the translation never links same-named variables of different kinds).
    let mut owner: BTreeMap<(u8, String), usize> = BTreeMap::new();
    for (i, part) in parts.iter().enumerate() {
        let mut sets = BTreeSet::new();
        let mut elems = BTreeSet::new();
        let mut ints = BTreeSet::new();
        part.set_vars(&mut sets);
        part.element_vars(&mut elems);
        part.int_vars(&mut ints);
        let tagged = sets
            .into_iter()
            .map(|v| (0u8, v))
            .chain(elems.into_iter().map(|v| (1u8, v)))
            .chain(ints.into_iter().map(|v| (2u8, v)));
        for key in tagged {
            match owner.get(&key) {
                Some(&j) => {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
                None => {
                    owner.insert(key, i);
                }
            }
        }
    }
    let mut grouped: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..parts.len() {
        let root = find(&mut parent, i);
        grouped.entry(root).or_default().push(i);
    }
    grouped.into_values().collect()
}

/// Flattens a BAPA formula into its top-level conjuncts.
pub fn conjuncts(form: &BapaForm) -> Vec<BapaForm> {
    match form {
        BapaForm::And(parts) => parts.clone(),
        BapaForm::True => Vec::new(),
        other => vec![other.clone()],
    }
}

/// Checks unsatisfiability of a conjunction of BAPA formulas by refuting
/// each shared-variable connected component independently.
///
/// A component over more set variables than the Venn construction allows is
/// skipped (it can neither prove nor disprove unsatisfiability on its own),
/// and the check gives up, answering `false`, once `deadline` passes.
pub fn conjunction_unsatisfiable(parts: &[BapaForm], deadline: Option<Instant>) -> bool {
    for component in components(parts) {
        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            return false;
        }
        let formula = BapaForm::and(component.iter().map(|&i| parts[i].clone()).collect());
        if let Some(form) = to_presburger(&formula) {
            if crate::presburger::unsatisfiable(&form) {
                return true;
            }
        }
    }
    false
}

/// Translates a BAPA formula into a quantifier-free Presburger formula whose
/// satisfiability coincides with the satisfiability of the input.
///
/// Returns `None` when the number of set variables exceeds the limit (the
/// Venn construction is exponential in that number).
pub fn to_presburger(form: &BapaForm) -> Option<PForm> {
    let mut set_names: BTreeSet<String> = BTreeSet::new();
    form.set_vars(&mut set_names);
    let mut elem_names: BTreeSet<String> = BTreeSet::new();
    form.element_vars(&mut elem_names);
    for elem in &elem_names {
        set_names.insert(singleton_set(elem));
    }
    if set_names.len() > MAX_SET_VARS {
        return None;
    }
    let mut ctx = VennCtx {
        sets: set_names.into_iter().collect(),
        ints: Vec::new(),
    };

    let mut conjuncts = Vec::new();
    // Region cardinalities are non-negative.
    for region in 1..ctx.region_count() {
        let mut neg_card = IdLinExpr::default();
        neg_card.push_term(region - 1, -1);
        conjuncts.push(PForm::le(neg_card));
    }
    // Every element variable denotes exactly one element: |single$x| = 1.
    for elem in &elem_names {
        let mut card = ctx.card(&SetTerm::Singleton(elem.clone()));
        card.shift(-1);
        conjuncts.push(zero(card, true));
    }
    conjuncts.push(ctx.form(form, true));
    Some(PForm::and(conjuncts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract;
    use crate::presburger::unsatisfiable;
    use ipl_logic::parser::parse_form;

    fn unsat(input: &str) -> bool {
        let form = parse_form(input).unwrap();
        let bapa = extract(&form).expect("formula in fragment");
        unsatisfiable(&to_presburger(&bapa).expect("within limits"))
    }

    #[test]
    fn union_cardinality_upper_bound_is_valid() {
        // Negation of a valid fact must be unsatisfiable.
        assert!(unsat("~(card(a union b) <= card(a) + card(b))"));
    }

    #[test]
    fn intersection_bound() {
        assert!(unsat("~(card(a inter b) <= card(a))"));
    }

    #[test]
    fn singleton_membership_forces_cardinality() {
        assert!(unsat("x in s & card(s) = 0"));
        assert!(!unsat("x in s & card(s) = 1"));
    }

    #[test]
    fn too_many_set_variables_bails_out() {
        let form =
            parse_form("card(a union b union c union d union e union f union g union h) = 0")
                .unwrap();
        let bapa = extract(&form).unwrap();
        assert!(to_presburger(&bapa).is_none());
    }

    #[test]
    fn negated_atoms_tighten_for_integers() {
        // ~(x <= 0) translates to x >= 1, so it contradicts x <= 0.
        assert!(unsat("x <= 0 & ~(x <= 0)"));
        assert!(unsat("~(x < y | y <= x)"));
        assert!(!unsat("~(x <= 0) & x <= 1"));
    }

    #[test]
    fn satisfiable_formulas_stay_satisfiable() {
        assert!(!unsat(
            "card(a) = 3 & card(b) = 2 & a subseteq b | card(a) = 0"
        ));
        assert!(!unsat("card(a) = 2 & x in a"));
    }
}
