//! # `ipl-bapa` — Boolean Algebra with Presburger Arithmetic
//!
//! A from-scratch stand-in for the BAPA decision procedure used by Jahob
//! (Kuncak, Nguyen, Rinard — "Deciding Boolean Algebra with Presburger
//! Arithmetic") as one of the specialised reasoners in the prover cascade of
//! *"An Integrated Proof Language for Imperative Programs"*.  It keeps the
//! procedure's Venn-region reduction but refutes the resulting arithmetic
//! rather than deciding it (step 3 below).
//!
//! The procedure proves validity of formulas that combine:
//!
//! * set algebra over set variables (union, intersection, difference, subset,
//!   equality, emptiness, finite literals of element variables), and
//! * linear integer arithmetic over integer variables and set cardinalities.
//!
//! ## Pipeline
//!
//! 1. [`extract`] maps an `ipl-logic` formula into the BAPA abstract syntax
//!    ([`BapaForm`]), rejecting anything outside the fragment.
//! 2. [`venn`] splits the conjunction into connected components of shared
//!    variables and, for each component alone, introduces one non-negative
//!    integer variable per Venn region of its set variables and rewrites
//!    every cardinality and set-algebra atom into linear arithmetic over
//!    those variables.
//! 3. [`presburger`] refutes the resulting linear arithmetic by
//!    Fourier–Motzkin elimination with integer tightening.  Refutation is
//!    sound but incomplete over the integers, so a parity argument, for
//!    one, stays unproved.
//!
//! The top-level entry point is [`prove_valid`], which checks validity of
//! `assumptions --> goal` and errs on the side of returning
//! [`BapaOutcome::Unknown`] whenever the formula leaves the fragment or the
//! problem exceeds the size limits.  As in Jahob, the procedure is one stage
//! of the prover cascade (the `bapa` stage of `ipl-provers`), called once
//! per sequent, not a theory inside the ground solver.

pub mod extract;
pub mod presburger;
pub mod venn;

pub use presburger::{id_conjunction_infeasible, IdLinExpr};

use ipl_logic::Form;
use std::time::Instant;

/// The result of a BAPA validity query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BapaOutcome {
    /// The implication is valid.
    Valid,
    /// The procedure could not establish validity (outside the fragment, size
    /// limits exceeded, or genuinely invalid).
    Unknown,
}

/// Checks validity of `(/\ assumptions) --> goal` within the BAPA fragment.
///
/// Returns [`BapaOutcome::Unknown`] (never an error) when any part of the
/// input is outside the fragment, or once the cooperative `deadline` passes;
/// the caller simply moves on to the next prover in the cascade.
pub fn prove_valid(assumptions: &[Form], goal: &Form, deadline: Option<Instant>) -> BapaOutcome {
    // Classify variables by scanning the whole problem (assumptions and goal
    // together), so that e.g. an element variable used in a membership in one
    // assumption is recognised as an element in a disequality elsewhere.
    let mut scan_targets: Vec<&Form> = assumptions.iter().collect();
    scan_targets.push(goal);
    let extractor = extract::Extractor::scan(&scan_targets);
    let mut translated = Vec::with_capacity(assumptions.len() + 1);
    for assumption in assumptions {
        match extractor.extract(assumption) {
            Some(b) => translated.push(b),
            None => continue, // irrelevant assumption: dropping it is sound for validity
        }
    }
    let goal = match extractor.extract(goal) {
        Some(g) => g,
        None => return BapaOutcome::Unknown,
    };
    // Validity of A --> G  <=>  unsatisfiability of A /\ ~G.  The conjunction
    // is refuted component-wise so that unrelated assumptions (with their own
    // set variables) cannot push the Venn construction over its size limit.
    let mut parts: Vec<extract::BapaForm> = Vec::new();
    for t in translated {
        parts.extend(venn::conjuncts(&t));
    }
    parts.push(extract::BapaForm::Not(Box::new(goal)));
    if venn::conjunction_unsatisfiable(&parts, deadline) {
        BapaOutcome::Valid
    } else {
        BapaOutcome::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipl_logic::parser::parse_form;

    fn valid(assumptions: &[&str], goal: &str) -> bool {
        let assumptions: Vec<Form> = assumptions.iter().map(|s| parse_form(s).unwrap()).collect();
        let goal = parse_form(goal).unwrap();
        prove_valid(&assumptions, &goal, None) == BapaOutcome::Valid
    }

    #[test]
    fn cardinality_of_disjoint_union() {
        assert!(valid(
            &["card(a inter b) = 0", "c = a union b"],
            "card(c) = card(a) + card(b)"
        ));
    }

    #[test]
    fn insertion_increments_cardinality() {
        assert!(valid(
            &["~(x in content)", "newcontent = content union {x}"],
            "card(newcontent) = card(content) + 1"
        ));
    }

    #[test]
    fn removal_decrements_cardinality() {
        assert!(valid(
            &["x in content", "newcontent = content minus {x}"],
            "card(newcontent) = card(content) - 1"
        ));
    }

    #[test]
    fn subset_implies_cardinality_order() {
        assert!(valid(&["a subseteq b"], "card(a) <= card(b)"));
    }

    #[test]
    fn empty_set_has_zero_cardinality() {
        assert!(valid(&["s = emptyset"], "card(s) = 0"));
        assert!(valid(&["card(s) = 0"], "s = emptyset"));
    }

    #[test]
    fn invalid_statements_are_not_proved() {
        assert!(!valid(&["a subseteq b"], "card(b) <= card(a)"));
        assert!(!valid(&[], "card(a) = 0"));
        assert!(!valid(
            &["c = a union b"],
            "card(c) = card(a) + card(b)" // wrong without disjointness
        ));
    }

    #[test]
    fn pure_presburger_facts() {
        assert!(valid(&["x = y + 1", "y >= 0"], "x >= 1"));
        assert!(!valid(&["x = y + 1"], "x >= 1"));
    }

    #[test]
    fn membership_and_cardinality() {
        assert!(valid(&["x in s"], "card(s) >= 1"));
        assert!(valid(&["x in s", "y in s", "~(x = y)"], "card(s) >= 2"));
    }

    #[test]
    fn unrelated_components_do_not_blow_the_set_limit() {
        // Seven sets in total — beyond the monolithic limit of six — but the
        // contradictory component only involves two.
        assert!(valid(
            &[
                "a subseteq b",
                "c = d union e",
                "f subseteq g",
                "card(b) < card(a)"
            ],
            "false"
        ));
    }

    #[test]
    fn out_of_fragment_returns_unknown() {
        // Field reads are not part of the BAPA fragment.
        let assumptions = vec![parse_form("x.next = y").unwrap()];
        let goal = parse_form("card(s) >= 0").unwrap();
        // The out-of-fragment assumption is dropped (soundly); the goal itself
        // is provable because cardinalities are non-negative.
        assert_eq!(prove_valid(&assumptions, &goal, None), BapaOutcome::Valid);
        let goal = parse_form("y.next = x").unwrap();
        assert_eq!(prove_valid(&assumptions, &goal, None), BapaOutcome::Unknown);
    }
}
