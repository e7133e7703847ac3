//! Executable soundness obligations for the proof language (Section 5 and
//! Appendix A of the paper).
//!
//! The paper proves each proof construct `p` *stronger than `skip`*:
//! `wlp(⟦p⟧, H) → H` for every postcondition `H`.  This module builds that
//! obligation symbolically, over an uninterpreted postcondition variable `H`
//! and uninterpreted atoms for the formulas appearing in the construct.  The
//! integration tests discharge each obligation with the in-tree provers.
//!
//! One obligation is special: `induct` is justified by mathematical induction
//! over the integers, which is valid in the standard model but not derivable
//! in pure first-order logic.  Its catalog entry is therefore marked with
//! [`SoundnessCase::requires_induction`], and callers check the structural
//! properties of the translation instead of discharging the formula with a
//! first-order prover (exactly the argument made in Figure 11 of the paper).

use crate::cmd::Proof;
use crate::translate::translate_proof;
use crate::wlp::{wlp, Vc};
use ipl_logic::parser::parse_form;
use ipl_logic::{Form, Sort};

/// One soundness obligation: a proof construct together with the formula
/// `wlp(⟦p⟧, H) → H`.
#[derive(Debug, Clone)]
pub struct SoundnessCase {
    /// Name of the construct (e.g. `"assuming"`).
    pub name: &'static str,
    /// A representative instance of the construct.
    pub construct: Proof,
    /// The obligation `wlp(⟦p⟧, H) → H`.
    pub obligation: Form,
    /// Whether the obligation needs induction over the naturals (only the
    /// `induct` construct).
    pub requires_induction: bool,
}

/// The postcondition variable used in the obligations.
pub const POST_VAR: &str = "H_post";

/// Builds the obligation `wlp(⟦p⟧, H) → H` for a single construct.
pub fn soundness_obligation(proof: &Proof) -> Form {
    let simple = translate_proof(proof);
    let post = Vc::Goal {
        form: Form::var(POST_VAR),
        label: POST_VAR.to_string(),
        from: None,
    };
    let wlp_form = wlp(&simple, post).to_form();
    Form::implies(wlp_form, Form::var(POST_VAR))
}

fn f(s: &str) -> Form {
    parse_form(s).expect("soundness catalog formulas are well-formed")
}

/// A catalog containing one representative instance of every proof construct,
/// mirroring Figures 10 and 11 of the paper.
pub fn catalog() -> Vec<SoundnessCase> {
    let mut cases: Vec<(&'static str, Proof, bool)> = Vec::new();

    cases.push((
        "assert",
        Proof::Assert {
            label: "A".into(),
            form: f("p0"),
            from: None,
        },
        false,
    ));
    cases.push(("note", Proof::note("N", f("p0")), false));
    cases.push((
        "localize",
        Proof::Localize {
            body: Box::new(Proof::note("Lemma", f("q0"))),
            label: "L".into(),
            form: f("p0"),
        },
        false,
    ));
    cases.push((
        "mp",
        Proof::Mp {
            label: "M".into(),
            hyp: f("p0"),
            concl: f("q0"),
        },
        false,
    ));
    cases.push((
        "assuming",
        Proof::Assuming {
            hyp_label: "Hyp".into(),
            hyp: f("p0"),
            body: Box::new(Proof::Seq(vec![])),
            concl_label: "Concl".into(),
            concl: f("q0"),
        },
        false,
    ));
    cases.push((
        "cases",
        Proof::Cases {
            cases: vec![f("p0"), f("q0")],
            label: "C".into(),
            goal: f("r0"),
        },
        false,
    ));
    cases.push((
        "showedCase",
        Proof::ShowedCase {
            index: 1,
            label: "S".into(),
            disjuncts: vec![f("p0"), f("q0")],
        },
        false,
    ));
    cases.push((
        "byContradiction",
        Proof::ByContradiction {
            label: "B".into(),
            form: f("p0"),
            body: Box::new(Proof::Seq(vec![])),
        },
        false,
    ));
    cases.push((
        "contradiction",
        Proof::Contradiction {
            label: "K".into(),
            form: f("p0"),
        },
        false,
    ));
    cases.push((
        "instantiate",
        Proof::Instantiate {
            label: "I".into(),
            forall: f("forall x:obj. member(x)"),
            terms: vec![f("t0")],
        },
        false,
    ));
    cases.push((
        "witness",
        Proof::Witness {
            terms: vec![f("t0")],
            label: "W".into(),
            exists: f("exists x:obj. member(x)"),
        },
        false,
    ));
    cases.push((
        "pickWitness",
        Proof::PickWitness {
            vars: vec![("w".into(), Sort::Obj)],
            hyp_label: "Hyp".into(),
            hyp: f("member(w)"),
            body: Box::new(Proof::Seq(vec![])),
            concl_label: "Concl".into(),
            concl: f("q0"),
        },
        false,
    ));
    cases.push((
        "pickAny",
        Proof::PickAny {
            vars: vec![("a".into(), Sort::Obj)],
            body: Box::new(Proof::Seq(vec![])),
            label: "All".into(),
            goal: f("member(a)"),
        },
        false,
    ));
    cases.push((
        "induct",
        Proof::Induct {
            label: "Ind".into(),
            form: f("holds(n)"),
            var: "n".into(),
            body: Box::new(Proof::Seq(vec![])),
        },
        true,
    ));
    cases.push((
        "seq",
        Proof::seq(vec![Proof::note("N1", f("p0")), Proof::note("N2", f("q0"))]),
        false,
    ));

    cases
        .into_iter()
        .map(|(name, construct, requires_induction)| {
            let obligation = soundness_obligation(&construct);
            SoundnessCase {
                name,
                construct,
                obligation,
                requires_induction,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipl_logic::subst::free_vars;

    #[test]
    fn catalog_covers_every_construct() {
        let names: Vec<&str> = catalog().iter().map(|c| c.name).collect();
        for expected in [
            "assert",
            "note",
            "localize",
            "mp",
            "assuming",
            "cases",
            "showedCase",
            "byContradiction",
            "contradiction",
            "instantiate",
            "witness",
            "pickWitness",
            "pickAny",
            "induct",
            "seq",
        ] {
            assert!(
                names.contains(&expected),
                "missing soundness case {expected}"
            );
        }
    }

    #[test]
    fn obligations_mention_the_postcondition() {
        for case in catalog() {
            let fv = free_vars(&case.obligation);
            assert!(
                fv.contains(POST_VAR),
                "{}: obligation must constrain the postcondition: {}",
                case.name,
                case.obligation
            );
        }
    }

    #[test]
    fn only_induct_requires_induction() {
        for case in catalog() {
            assert_eq!(case.requires_induction, case.name == "induct");
        }
    }

    #[test]
    fn assuming_obligation_matches_the_paper() {
        // wlp(⟦assuming F in (ε ; note G)⟧, H) = ((F --> G) --> H) /\ (F --> G)
        // (with an empty nested proof) and the obligation is that this implies H.
        let case = catalog()
            .into_iter()
            .find(|c| c.name == "assuming")
            .unwrap();
        let text = case.obligation.to_string();
        assert!(
            text.contains("p0 --> q0"),
            "translated implication present: {text}"
        );
        assert!(
            text.ends_with("--> H_post"),
            "obligation concludes H: {text}"
        );
    }

    #[test]
    fn note_obligation_is_f_and_f_implies_h() {
        let case = catalog().into_iter().find(|c| c.name == "note").unwrap();
        // wlp(assert F; assume F, H) = F /\ (F --> H); obligation: ... --> H
        let text = case.obligation.to_string();
        assert!(
            text.contains("p0 & (p0 --> H_post)") || text.contains("p0 & (p0 --> H_post)"),
            "unexpected obligation {text}"
        );
    }
}
