//! Discharges the Section 5 / Appendix A soundness obligations of the proof
//! language with the in-tree provers: for every construct `p`,
//! `wlp(⟦p⟧, H) → H` over an uninterpreted postcondition `H`.
//!
//! The `induct` construct is justified by mathematical induction (valid in
//! the standard model of the integers but not first-order derivable); for it
//! the test checks the structural properties of the translation instead,
//! exactly as the paper's Figure 11 argues.

use ipl::gcl::soundness::{catalog, POST_VAR};
use ipl::gcl::translate::translate_proof;
use ipl::logic::{Sort, SortEnv};
use ipl::provers::{Cascade, Outcome, ProverConfig, Query};

fn obligation_env() -> SortEnv {
    let mut env = SortEnv::new();
    env.declare_var(POST_VAR, Sort::Bool);
    env.declare_var("p0", Sort::Bool);
    env.declare_var("q0", Sort::Bool);
    env.declare_var("r0", Sort::Bool);
    env.declare_var("t0", Sort::Obj);
    env.declare_var("n", Sort::Int);
    env.declare_fun("member", vec![Sort::Obj], Sort::Bool);
    env.declare_fun("holds", vec![Sort::Int], Sort::Bool);
    env
}

#[test]
fn every_proof_construct_is_stronger_than_skip() {
    let cascade = Cascade::standard(ProverConfig::default());
    for case in catalog() {
        if case.requires_induction {
            continue;
        }
        let query = Query::new(Vec::new(), case.obligation.clone(), obligation_env());
        let answer = cascade.prove(&query);
        assert_eq!(
            answer.outcome,
            Outcome::Proved,
            "soundness obligation for `{}` not discharged: {}",
            case.name,
            case.obligation
        );
    }
}

#[test]
fn induct_translation_emits_base_and_step_obligations() {
    let case = catalog().into_iter().find(|c| c.name == "induct").unwrap();
    let simple = translate_proof(&case.construct);
    assert_eq!(
        simple.assert_count(),
        2,
        "base case and inductive step obligations"
    );
    let text = format!("{simple:?}");
    assert!(
        text.contains("holds"),
        "the induction formula appears in the obligations"
    );
}

#[test]
fn pick_witness_side_condition_is_enforced() {
    // The catalog instance respects the side condition; verify that the
    // exported fact is the goal itself (not weakened to true).
    let case = catalog()
        .into_iter()
        .find(|c| c.name == "pickWitness")
        .unwrap();
    let text = format!("{:?}", case.obligation);
    assert!(text.contains("q0"), "the goal is exported: {text}");
}
