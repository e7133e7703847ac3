//! Venn-region reduction from BAPA to Presburger arithmetic.
//!
//! Every set variable (including the implicit singleton sets of element
//! variables) partitions the universe; with `n` set variables there are `2^n`
//! Venn regions.  Introducing one non-negative integer variable per region
//! cardinality turns every set-algebra and cardinality atom into linear
//! arithmetic, after which the sentence is decided by [`crate::presburger`].
//!
//! This translator is the remaining client of the *string-keyed* [`LinExpr`]
//! API: region variables are synthesised names (`venn$r`, `single$e`), not
//! interned term ids, and the translation runs once per query rather than
//! in a hot incremental loop.  The ground solver's incremental arithmetic
//! uses the integer-keyed [`crate::presburger::IdLinExpr`] entry points
//! instead.

use crate::extract::{BapaForm, IntTerm, SetTerm};
use crate::presburger::{LinExpr, PForm};
use crate::BapaLimits;
use std::collections::BTreeSet;

/// Name of the implicit singleton set for an element variable.
fn singleton_set(elem: &str) -> String {
    format!("single${elem}")
}

/// Name of the cardinality variable of a Venn region.
fn region_var(region: usize) -> String {
    format!("venn${region}")
}

/// Context for the translation: the ordered list of set variables.
struct VennCtx {
    sets: Vec<String>,
    // Precomputed `venn$r` names: `card` walks every region per set term,
    // so formatting these on demand dominated the translation.
    region_names: Vec<String>,
}

impl VennCtx {
    fn new(sets: Vec<String>) -> VennCtx {
        let region_names = (0..1usize << sets.len()).map(region_var).collect();
        VennCtx { sets, region_names }
    }

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

    /// The cardinality of a set term as a linear expression over region vars.
    fn card(&self, term: &SetTerm) -> LinExpr {
        let mut expr = LinExpr::constant(0);
        for region in 1..self.region_count() {
            // Region 0 (outside every set) never contributes to any card.
            if self.region_in(region, term) {
                expr.add_var(&self.region_names[region], 1);
            }
        }
        expr
    }

    fn int_term(&self, term: &IntTerm) -> LinExpr {
        match term {
            IntTerm::Const(value) => LinExpr::constant(*value),
            IntTerm::Var(name) => LinExpr::variable(name, 1),
            IntTerm::Card(set) => self.card(set),
            IntTerm::Add(a, b) => self.int_term(a).plus(&self.int_term(b)),
            IntTerm::Sub(a, b) => self.int_term(a).plus(&self.int_term(b).scaled(-1)),
            IntTerm::MulConst(k, a) => self.int_term(a).scaled(*k),
        }
    }

    fn form(&self, form: &BapaForm) -> PForm {
        match form {
            BapaForm::True => PForm::True,
            BapaForm::False => PForm::False,
            BapaForm::Not(inner) => PForm::not(self.form(inner)),
            BapaForm::And(parts) => PForm::and(parts.iter().map(|p| self.form(p)).collect()),
            BapaForm::Or(parts) => PForm::or(parts.iter().map(|p| self.form(p)).collect()),
            // a <= b  <=>  a - b <= 0
            BapaForm::IntLe(a, b) => PForm::le(self.int_term(a).plus(&self.int_term(b).scaled(-1))),
            // a < b  <=>  a - b + 1 <= 0 (integers)
            BapaForm::IntLt(a, b) => PForm::le(
                self.int_term(a)
                    .plus(&self.int_term(b).scaled(-1))
                    .shifted(1),
            ),
            BapaForm::IntEq(a, b) => {
                let diff = self.int_term(a).plus(&self.int_term(b).scaled(-1));
                PForm::and(vec![PForm::le(diff.clone()), PForm::le(diff.scaled(-1))])
            }
            // A = B  <=>  |A \ B| + |B \ A| = 0
            BapaForm::SetEq(a, b) => {
                let sym_diff = SetTerm::Union(
                    Box::new(SetTerm::Diff(Box::new(a.clone()), Box::new(b.clone()))),
                    Box::new(SetTerm::Diff(Box::new(b.clone()), Box::new(a.clone()))),
                );
                let card = self.card(&sym_diff);
                PForm::and(vec![PForm::le(card.clone()), PForm::le(card.scaled(-1))])
            }
            // A subseteq B  <=>  |A \ B| = 0
            BapaForm::Subset(a, b) => {
                let diff = SetTerm::Diff(Box::new(a.clone()), Box::new(b.clone()));
                let card = self.card(&diff);
                PForm::and(vec![PForm::le(card.clone()), PForm::le(card.scaled(-1))])
            }
            // x in S  <=>  |single$x \ S| = 0 (with the global |single$x| = 1)
            BapaForm::Member(elem, set) => {
                let diff = SetTerm::Diff(
                    Box::new(SetTerm::Singleton(elem.clone())),
                    Box::new(set.clone()),
                );
                let card = self.card(&diff);
                PForm::and(vec![PForm::le(card.clone()), PForm::le(card.scaled(-1))])
            }
            // x = y  <=>  single$x = single$y
            BapaForm::ElemEq(a, b) => self.form(&BapaForm::SetEq(
                SetTerm::Singleton(a.clone()),
                SetTerm::Singleton(b.clone()),
            )),
        }
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

/// Checks unsatisfiability of a conjunction of BAPA formulas by solving each
/// shared-variable connected component independently.
///
/// A component whose set-variable count exceeds the limit is skipped (it can
/// neither prove nor disprove unsatisfiability on its own), so the check
/// degrades gracefully instead of giving up on the whole conjunction the way
/// the monolithic translation did.
pub fn conjunction_unsatisfiable(parts: &[BapaForm], limits: &BapaLimits) -> bool {
    for component in components(parts) {
        if limits.expired() {
            return false;
        }
        let formula = BapaForm::and(component.iter().map(|&i| parts[i].clone()).collect());
        if let Some(sentence) = to_presburger(&formula, limits) {
            if crate::presburger::unsatisfiable(&sentence, limits) {
                return true;
            }
        }
    }
    false
}

/// Translates a BAPA formula into an existentially closed Presburger sentence
/// whose satisfiability coincides with the satisfiability of the input.
///
/// Returns `None` when the number of set variables exceeds the configured
/// limit (the Venn construction is exponential in that number).
pub fn to_presburger(form: &BapaForm, limits: &BapaLimits) -> Option<PForm> {
    let mut set_names: BTreeSet<String> = BTreeSet::new();
    form.set_vars(&mut set_names);
    let mut elem_names: BTreeSet<String> = BTreeSet::new();
    form.element_vars(&mut elem_names);
    for elem in &elem_names {
        set_names.insert(singleton_set(elem));
    }
    if set_names.len() > limits.max_set_vars {
        return None;
    }
    let ctx = VennCtx::new(set_names.into_iter().collect());

    let mut conjuncts = Vec::new();
    // Region cardinalities are non-negative.
    for region in 1..ctx.region_count() {
        conjuncts.push(PForm::le(LinExpr::variable(&ctx.region_names[region], -1)));
    }
    // Every element variable denotes exactly one element: |single$x| = 1.
    for elem in &elem_names {
        let card = ctx.card(&SetTerm::Singleton(elem.clone()));
        conjuncts.push(PForm::le(card.clone().shifted(-1)));
        conjuncts.push(PForm::le(card.scaled(-1).shifted(1)));
    }
    conjuncts.push(ctx.form(form));
    let body = PForm::and(conjuncts);

    // Existentially close over every variable (region vars and free int vars).
    let mut vars: BTreeSet<String> = BTreeSet::new();
    body.collect_vars(&mut vars);
    let mut sentence = body;
    for var in vars {
        sentence = PForm::Exists(var, Box::new(sentence));
    }
    Some(sentence)
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
        let sentence = to_presburger(&bapa, &BapaLimits::default()).expect("within limits");
        unsatisfiable(&sentence, &BapaLimits::default())
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
        assert!(to_presburger(&bapa, &BapaLimits::default()).is_none());
    }

    #[test]
    fn satisfiable_formulas_stay_satisfiable() {
        assert!(!unsat(
            "card(a) = 3 & card(b) = 2 & a subseteq b | card(a) = 0"
        ));
        assert!(!unsat("card(a) = 2 & x in a"));
    }
}
