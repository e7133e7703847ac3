//! Differential and regression tests for the CDCL ground core:
//!
//! * proptest: the CDCL engine agrees with the retained naive-DPLL reference
//!   on random ground sequents — exactly on propositional inputs (both
//!   searches are complete there), and refutation-monotonically on mixed
//!   EUF/arithmetic inputs (whatever the naive tableau refutes, the CDCL
//!   engine must refute too);
//! * a crafted pigeonhole sequent that the naive reference cannot refute
//!   within the branch budget but the CDCL engine refutes comfortably (the
//!   pin for the learned-clause pruning);
//! * theory propagation keeps reports identical across worker counts.

use ipl::logic::parser::parse_form;
use ipl::logic::{Form, Sort, SortEnv};
use ipl::provers::ground::{reference, refute, stats_snapshot, GroundResult};
use ipl::provers::{Cancel, ProverConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn env() -> SortEnv {
    let mut e = SortEnv::new();
    for v in ["i", "j", "k"] {
        e.declare_var(v, Sort::Int);
    }
    for v in ["a", "b", "c", "d"] {
        e.declare_var(v, Sort::Obj);
    }
    e
}

// ---------------------------------------------------------------------------
// Random-formula strategies
// ---------------------------------------------------------------------------

/// Random propositional formulas over four boolean variables.
fn propositional() -> impl Strategy<Value = Form> {
    let atom = prop_oneof![
        Just(Form::var("p")),
        Just(Form::var("q")),
        Just(Form::var("r")),
        Just(Form::var("s")),
        Just(Form::TRUE),
        Just(Form::FALSE),
    ];
    atom.prop_recursive(3, 32, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| Form::Not(Arc::new(f))),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Form::And),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Form::Or),
            (inner.clone(), inner).prop_map(|(x, y)| Form::Implies(Arc::new(x), Arc::new(y))),
        ]
    })
}

/// Random ground formulas mixing propositional structure, object equalities
/// (with one function symbol for congruence) and small integer comparisons.
fn obj_term() -> impl Strategy<Value = Form> {
    prop_oneof![
        Just(Form::var("a")),
        Just(Form::var("b")),
        Just(Form::var("c")),
        (0usize..3).prop_map(|i| Form::App("g".to_string(), vec![Form::var(["a", "b", "c"][i])])),
    ]
}

fn int_term() -> impl Strategy<Value = Form> {
    prop_oneof![
        (-3i64..4).prop_map(Form::Int),
        Just(Form::var("i")),
        Just(Form::var("j")),
    ]
}

fn mixed_ground() -> impl Strategy<Value = Form> {
    let atom = prop_oneof![
        Just(Form::var("p")),
        Just(Form::var("q")),
        (obj_term(), obj_term()).prop_map(|(x, y)| Form::Eq(Arc::new(x), Arc::new(y))),
        (int_term(), int_term()).prop_map(|(x, y)| Form::Le(Arc::new(x), Arc::new(y))),
        (int_term(), int_term()).prop_map(|(x, y)| Form::Lt(Arc::new(x), Arc::new(y))),
    ];
    atom.prop_recursive(3, 32, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| Form::Not(Arc::new(f))),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Form::And),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Form::Or),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn cdcl_matches_naive_on_propositional_sequents(forms in prop::collection::vec(propositional(), 1..5)) {
        let env = env();
        let naive = reference::refute_naive(&forms, &env, 500_000);
        // Both searches are complete on propositional inputs, so the CDCL
        // engine must agree with the reference exactly — learning and
        // theory propagation change the search order, never the verdict.
        let cdcl = refute(&forms, &env, &ProverConfig::default(), &Cancel::never());
        prop_assert!(cdcl == naive, "CDCL disagrees with the reference: {:?} vs {:?}", cdcl, naive);
    }

    #[test]
    fn cdcl_refutes_whatever_the_naive_reference_refutes(forms in prop::collection::vec(mixed_ground(), 1..5)) {
        let env = env();
        // The CDCL engine is the stronger of the two (it also asserts the
        // negations forced by propagation), so agreement is one-way: a naive
        // refutation must never be lost.
        if reference::refute_naive(&forms, &env, 500_000) == GroundResult::Unsat {
            let cdcl = refute(&forms, &env, &ProverConfig::default(), &Cancel::never());
            prop_assert!(cdcl == GroundResult::Unsat, "CDCL loses a naive refutation");
        }
    }
}

// ---------------------------------------------------------------------------
// The learned-clause pruning pin
// ---------------------------------------------------------------------------

#[test]
fn learned_clauses_refute_the_pigeonhole_within_budget() {
    let env = SortEnv::new();
    let budget = 3_000;
    let config = ProverConfig {
        max_branch_nodes: budget,
        ..ProverConfig::default()
    };
    let forms = reference::pigeonhole(7);
    let before = stats_snapshot();
    assert_eq!(
        refute(&forms, &env, &config, &Cancel::never()),
        GroundResult::Unsat,
        "8 pigeons in 7 holes refutes with clause learning"
    );
    let delta = stats_snapshot().since(&before);
    assert!(
        delta.learned_clauses > 0,
        "the refutation must come from learned clauses: {delta:?}"
    );
    assert_eq!(
        reference::refute_naive(&forms, &env, budget),
        GroundResult::Unknown,
        "the naive tableau's chronological backtracking exhausts the same budget"
    );
}

#[test]
fn theory_propagation_is_deterministic_across_worker_counts() {
    // Theory propagation must not introduce scheduling-dependent behaviour:
    // the normalized report (verdicts and attribution, no timings) is
    // byte-identical between one worker and four with propagation enabled.
    let benchmark = ipl::suite::by_name("Linked List").unwrap();
    let report_with_jobs = |jobs: usize| {
        let options = ipl::core::VerifyOptions::default()
            .with_config(ProverConfig {
                use_cache: false,
                ..ProverConfig::default()
            })
            .with_jobs(jobs);
        ipl::core::Session::new(options)
            .verify(&ipl::core::Request::new(benchmark.source))
            .unwrap()
            .report
            .normalized()
    };
    assert_eq!(
        report_with_jobs(1),
        report_with_jobs(4),
        "jobs=1 and jobs=4 must produce byte-identical normalized reports"
    );
}

#[test]
fn cdcl_and_naive_agree_on_handwritten_theory_sequents() {
    let env = env();
    for (forms, expected) in [
        (vec!["a = b", "b = c", "~(a = c)"], GroundResult::Unsat),
        (vec!["a = b", "~(g(a) = g(b))"], GroundResult::Unsat),
        (vec!["i <= j", "j < i"], GroundResult::Unsat),
        (
            vec!["a = b | a = c", "~(a = b)", "~(a = c)"],
            GroundResult::Unsat,
        ),
        (vec!["a = b | a = c", "~(a = b)"], GroundResult::Unknown),
    ] {
        let forms: Vec<Form> = forms.iter().map(|s| parse_form(s).unwrap()).collect();
        let naive = reference::refute_naive(&forms, &env, 500_000);
        let cdcl = refute(&forms, &env, &ProverConfig::default(), &Cancel::never());
        assert_eq!(naive, expected, "naive on {forms:?}");
        assert_eq!(cdcl, expected, "cdcl on {forms:?}");
    }
}
