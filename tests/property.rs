//! Property-based tests (proptest) over the core data structures and
//! invariants of the reproduction:
//!
//! * printing followed by parsing is the identity on formulas,
//! * `simplify` and `nnf` preserve the meaning of ground formulas (checked
//!   against a reference evaluator under random assignments),
//! * substitution of a variable that does not occur free is the identity,
//! * splitting produces exactly one sequent per non-trivial goal leaf,
//! * stripping proof constructs really removes every proof construct,
//! * Fourier–Motzkin never refutes a linear conjunction that has an integer
//!   model in a small box,
//! * BAPA's component-wise refutation never refutes a conjunction that has
//!   a model over a small universe.

use ipl::gcl::cmd::{Ext, Proof, Simple};
use ipl::gcl::split::split_all;
use ipl::gcl::wlp::vc_of;
use ipl::logic::normal::nnf;
use ipl::logic::parser::parse_form;
use ipl::logic::simplify::simplify;
use ipl::logic::subst::{free_vars, substitute_one};
use ipl::logic::Form;
use ipl_bapa::presburger::{unsatisfiable, IdLinExpr, PForm};
use ipl_bapa::{prove_valid, BapaOutcome};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const VARS: [&str; 4] = ["a", "b", "c", "d"];

/// Strategy for ground integer terms over a small variable pool.
fn int_term() -> impl Strategy<Value = Form> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(Form::Int),
        (0usize..VARS.len()).prop_map(|i| Form::var(VARS[i])),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Form::Add(Arc::new(x), Arc::new(y))),
            (inner.clone(), inner).prop_map(|(x, y)| Form::Sub(Arc::new(x), Arc::new(y))),
        ]
    })
}

/// Strategy for ground formulas over those terms.
fn formula() -> impl Strategy<Value = Form> {
    let atom = prop_oneof![
        Just(Form::TRUE),
        Just(Form::FALSE),
        (int_term(), int_term()).prop_map(|(x, y)| Form::Lt(Arc::new(x), Arc::new(y))),
        (int_term(), int_term()).prop_map(|(x, y)| Form::Le(Arc::new(x), Arc::new(y))),
        (int_term(), int_term()).prop_map(|(x, y)| Form::Eq(Arc::new(x), Arc::new(y))),
    ];
    atom.prop_recursive(3, 48, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| Form::Not(Arc::new(f))),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Form::And),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Form::Or),
            (inner.clone(), inner).prop_map(|(x, y)| Form::Implies(Arc::new(x), Arc::new(y))),
        ]
    })
}

const SET_VARS: [&str; 3] = ["s", "t", "u"];
const ELEM_VARS: [&str; 2] = ["x", "y"];

/// Strategy for set terms of the BAPA fragment.
fn set_term() -> impl Strategy<Value = Form> {
    let leaf = prop_oneof![
        (0usize..SET_VARS.len()).prop_map(|i| Form::var(SET_VARS[i])),
        Just(Form::EmptySet),
        (0usize..ELEM_VARS.len()).prop_map(|i| Form::FiniteSet(vec![Form::var(ELEM_VARS[i])])),
    ];
    leaf.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::Union(Arc::new(a), Arc::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::Inter(Arc::new(a), Arc::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Form::Diff(Arc::new(a), Arc::new(b))),
        ]
    })
}

/// Strategy for (possibly negated) atoms of the BAPA fragment.
fn bapa_atom() -> impl Strategy<Value = Form> {
    let positive = prop_oneof![
        (set_term(), -3i64..4).prop_map(|(s, k)| Form::eq(Form::Card(Arc::new(s)), Form::int(k))),
        (set_term(), set_term())
            .prop_map(|(a, b)| Form::le(Form::Card(Arc::new(a)), Form::Card(Arc::new(b)))),
        (set_term(), set_term()).prop_map(|(a, b)| Form::eq(a, b)),
        (set_term(), set_term()).prop_map(|(a, b)| Form::Subseteq(Arc::new(a), Arc::new(b))),
        (0usize..ELEM_VARS.len(), set_term())
            .prop_map(|(i, s)| Form::elem(Form::var(ELEM_VARS[i]), s)),
    ];
    (positive, 0usize..2)
        .prop_map(|(atom, negate)| if negate == 1 { Form::not(atom) } else { atom })
}

/// An interpretation of the BAPA pools over the universe `{0, 1, 2}`: each
/// set variable of [`SET_VARS`] is a bitmask, each element variable of
/// [`ELEM_VARS`] one element.
#[derive(Debug)]
struct SetModel {
    sets: [u8; SET_VARS.len()],
    elems: [u8; ELEM_VARS.len()],
}

const UNIVERSE: u8 = 3;

fn eval_set(form: &Form, m: &SetModel) -> u8 {
    match form {
        Form::Var(name) => {
            m.sets[SET_VARS
                .iter()
                .position(|v| v == name)
                .expect("set variable")]
        }
        Form::EmptySet => 0,
        Form::FiniteSet(items) => items.iter().fold(0, |acc, e| acc | 1 << eval_elem(e, m)),
        Form::Union(a, b) => eval_set(a, m) | eval_set(b, m),
        Form::Inter(a, b) => eval_set(a, m) & eval_set(b, m),
        Form::Diff(a, b) => eval_set(a, m) & !eval_set(b, m),
        other => panic!("not a set term: {other}"),
    }
}

fn eval_elem(form: &Form, m: &SetModel) -> u8 {
    match form {
        Form::Var(name) => m.elems[ELEM_VARS.iter().position(|v| v == name).expect("element")],
        other => panic!("not an element term: {other}"),
    }
}

fn eval_card(form: &Form, m: &SetModel) -> i64 {
    match form {
        Form::Int(k) => *k,
        Form::Card(set) => i64::from(eval_set(set, m).count_ones()),
        other => panic!("not a cardinality term: {other}"),
    }
}

/// Does the interpretation satisfy one (possibly negated) [`bapa_atom`]?
fn satisfies(atom: &Form, m: &SetModel) -> bool {
    match atom {
        Form::Bool(b) => *b,
        Form::Not(inner) => !satisfies(inner, m),
        Form::Eq(a, b) if matches!(a.as_ref(), Form::Card(_)) => eval_card(a, m) == eval_card(b, m),
        Form::Eq(a, b) => eval_set(a, m) == eval_set(b, m),
        Form::Le(a, b) => eval_card(a, m) <= eval_card(b, m),
        Form::Subseteq(a, b) => eval_set(a, m) & !eval_set(b, m) == 0,
        Form::Elem(e, set) => eval_set(set, m) >> eval_elem(e, m) & 1 == 1,
        other => panic!("not a BAPA atom: {other}"),
    }
}

/// Searches every interpretation over the small universe for a model of
/// the conjunction.
fn small_model(atoms: &[Form]) -> Option<SetModel> {
    let (subsets, elements) = (1u32 << UNIVERSE, u32::from(UNIVERSE));
    let count = subsets.pow(SET_VARS.len() as u32) * elements.pow(ELEM_VARS.len() as u32);
    // Decode each index as mixed-radix digits: one subset per set variable,
    // one element per element variable.
    (0..count)
        .map(|mut code| {
            let mut digit = |base: u32| {
                let d = code % base;
                code /= base;
                d as u8
            };
            SetModel {
                sets: std::array::from_fn(|_| digit(subsets)),
                elems: std::array::from_fn(|_| digit(elements)),
            }
        })
        .find(|m| atoms.iter().all(|atom| satisfies(atom, m)))
}

/// Half the side of the integer box [`box_model`] searches.
const BOX: i64 = 12;

/// Conjunctions `cx*x + cy*y + k <= 0` of one to four constraints.
fn linear_conjunction() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    prop::collection::vec((-3i64..4, -3i64..4, -6i64..7), 1..5)
}

/// Searches every integer point of `[-BOX, BOX]^2` for a model of the
/// conjunction.
fn box_model(constraints: &[(i64, i64, i64)]) -> Option<(i64, i64)> {
    (-BOX..=BOX)
        .flat_map(|x| (-BOX..=BOX).map(move |y| (x, y)))
        .find(|&(x, y)| {
            constraints
                .iter()
                .all(|&(cx, cy, k)| cx * x + cy * y + k <= 0)
        })
}

/// Reference evaluator for the ground fragment used by the strategies.
fn eval_int(form: &Form, env: &HashMap<String, i64>) -> i64 {
    match form {
        Form::Int(v) => *v,
        Form::Var(name) => *env.get(name).unwrap_or(&0),
        Form::Add(a, b) => eval_int(a, env) + eval_int(b, env),
        Form::Sub(a, b) => eval_int(a, env) - eval_int(b, env),
        Form::Mul(a, b) => eval_int(a, env) * eval_int(b, env),
        Form::Neg(a) => -eval_int(a, env),
        other => panic!("not an integer term: {other}"),
    }
}

fn eval_bool(form: &Form, env: &HashMap<String, i64>) -> bool {
    match form {
        Form::Bool(b) => *b,
        Form::Not(f) => !eval_bool(f, env),
        Form::And(fs) => fs.iter().all(|f| eval_bool(f, env)),
        Form::Or(fs) => fs.iter().any(|f| eval_bool(f, env)),
        Form::Implies(a, b) => !eval_bool(a, env) || eval_bool(b, env),
        Form::Iff(a, b) => eval_bool(a, env) == eval_bool(b, env),
        Form::Lt(a, b) => eval_int(a, env) < eval_int(b, env),
        Form::Le(a, b) => eval_int(a, env) <= eval_int(b, env),
        Form::Eq(a, b) => eval_int(a, env) == eval_int(b, env),
        other => panic!("not a ground boolean formula: {other}"),
    }
}

fn assignment() -> impl Strategy<Value = HashMap<String, i64>> {
    prop::collection::vec(-10i64..10, VARS.len())
        .prop_map(|values| VARS.iter().map(|v| v.to_string()).zip(values).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn printing_then_parsing_preserves_the_formula(form in formula(), env in assignment()) {
        let printed = form.to_string();
        let reparsed = parse_form(&printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
        // The parser applies the smart constructors (constant folding, unit
        // laws), so compare modulo simplification and check the meaning is
        // untouched under a random assignment.
        prop_assert_eq!(simplify(&reparsed), simplify(&form));
        prop_assert_eq!(eval_bool(&reparsed, &env), eval_bool(&form, &env));
    }

    #[test]
    fn simplify_preserves_meaning(form in formula(), env in assignment()) {
        let simplified = simplify(&form);
        prop_assert_eq!(eval_bool(&form, &env), eval_bool(&simplified, &env));
    }

    #[test]
    fn nnf_preserves_meaning(form in formula(), env in assignment()) {
        let converted = nnf(&form);
        prop_assert_eq!(eval_bool(&form, &env), eval_bool(&converted, &env));
    }

    #[test]
    fn interning_preserves_equality_and_meaning(form in formula(), env in assignment()) {
        let shared = ipl::logic::share(&form);
        prop_assert_eq!(&shared, &form);
        prop_assert_eq!(eval_bool(&shared, &env), eval_bool(&form, &env));
        // Interning twice is stable (canonical allocations are reused).
        prop_assert_eq!(ipl::logic::share(&shared), shared);
    }

    #[test]
    fn interning_commutes_with_substitution(form in formula(), env in assignment()) {
        // Substituting into the hash-consed formula (exercising the
        // pointer-keyed memo over shared subtrees) must agree with
        // substituting into the plain tree.
        let shared = ipl::logic::share(&form);
        let plain = substitute_one(&form, "a", &Form::int(7));
        let memoised = substitute_one(&shared, "a", &Form::int(7));
        prop_assert_eq!(&memoised, &plain);
        let mut env = env.clone();
        env.insert("a".to_string(), 7);
        prop_assert_eq!(eval_bool(&memoised, &env), eval_bool(&plain, &env));
    }

    #[test]
    fn interning_commutes_with_normalisation(form in formula()) {
        let shared = ipl::logic::share(&form);
        prop_assert_eq!(nnf(&shared), nnf(&form));
        prop_assert_eq!(simplify(&shared), simplify(&form));
    }

    #[test]
    fn subst_nnf_round_trip_on_shared_terms(form in formula(), env in assignment()) {
        // share -> substitute -> nnf -> share: every pass preserves both
        // structure-level equality with the unshared pipeline and meaning.
        let substituted = substitute_one(&ipl::logic::share(&form), "b", &Form::var("c"));
        let normalised = nnf(&substituted);
        let reshared = ipl::logic::share(&normalised);
        prop_assert_eq!(&reshared, &normalised);
        let mut env2 = env.clone();
        let c = *env2.get("c").unwrap_or(&0);
        env2.insert("b".to_string(), c);
        prop_assert_eq!(eval_bool(&reshared, &env2), eval_bool(&form, &env2));
    }

    #[test]
    fn substituting_an_absent_variable_is_identity(form in formula()) {
        prop_assert!(!free_vars(&form).contains("zz_missing"));
        let substituted = substitute_one(&form, "zz_missing", &Form::int(42));
        prop_assert_eq!(substituted, form);
    }

    #[test]
    fn splitting_covers_every_goal(goals in prop::collection::vec(formula(), 1..5)) {
        // Build assert G1; ...; assert Gn and check every non-conjunction goal
        // produces at least one sequent (conjunction goals split further).
        let cmd = Simple::seq(
            goals
                .iter()
                .enumerate()
                .map(|(i, g)| Simple::assert(format!("G{i}"), g.clone()))
                .collect::<Vec<_>>(),
        );
        let vc = vc_of(&cmd);
        prop_assert_eq!(vc.goal_count(), goals.len());
        let sequents = split_all(&vc);
        // Splitting never invents obligations out of thin air (it is bounded
        // by the total size of the goals) and every sequent traces back to
        // one of the asserted goals.
        let size_bound: usize = goals.iter().map(Form::size).sum();
        prop_assert!(sequents.len() <= size_bound);
        for sequent in &sequents {
            prop_assert!(sequent.goal_label.starts_with('G'));
        }
    }

    #[test]
    fn stripping_removes_every_proof_construct(form in formula(), label in "[A-Z][a-z]{1,6}") {
        let cmd = Ext::seq(vec![
            Ext::Assign("x".into(), Form::int(1)),
            Ext::Proof(Proof::note(label.clone(), form.clone())),
            Ext::Proof(Proof::Assert { label, form, from: None }),
            Ext::assert("Post", Form::eq(Form::var("x"), Form::int(1))),
        ]);
        let stripped = cmd.strip_proofs();
        prop_assert_eq!(stripped.count_constructs().total_proof_statements(), 0);
        // The executable part is untouched.
        prop_assert_eq!(stripped.modified_vars(), cmd.modified_vars());
    }

    #[test]
    fn component_refutations_have_no_small_model(
        batch in prop::collection::vec(prop::collection::vec(bapa_atom(), 1..4), 16)
    ) {
        // `assumptions |- false` is valid exactly when BAPA refutes the
        // conjunction, which it does one shared-variable component at a time
        // (`venn::conjunction_unsatisfiable`).  Evaluating the original atoms
        // in every interpretation over a small universe shares no code with
        // the split, the extraction or the Venn translation: whenever the
        // split refutes, no interpretation may satisfy the atoms.
        let mut refuted = 0usize;
        let mut modelled = 0usize;
        for atoms in &batch {
            let model = small_model(atoms);
            if prove_valid(atoms, &Form::FALSE, None) == BapaOutcome::Valid {
                refuted += 1;
                prop_assert!(
                    model.is_none(),
                    "the split refutes {:?}, but {:?} satisfies it",
                    atoms,
                    model
                );
            } else if model.is_some() {
                modelled += 1;
            }
        }
        // The check is only as good as the oracle's reach: the search must
        // model most of what the split leaves open, or a universe too small
        // to hold any model would pass every refutation.
        let open = batch.len() - refuted;
        prop_assert!(refuted > 0, "the split refuted nothing in {:?}", batch);
        prop_assert!(
            modelled * 4 >= open * 3,
            "the search modelled only {}/{} conjunctions the split left open",
            modelled,
            open
        );
    }

    #[test]
    fn fm_refutations_have_no_model_in_a_box(
        batch in prop::collection::vec(linear_conjunction(), 64)
    ) {
        // Fourier–Motzkin with integer tightening is sound for refutation but
        // incomplete over the integers.  Evaluating the constraints at every
        // integer point of a box shares no code with the elimination:
        // whenever it refutes a conjunction, no point may satisfy it.
        let mut refuted = 0usize;
        let mut modelled = 0usize;
        for constraints in &batch {
            let model = box_model(constraints);
            let conjunction = PForm::and(
                constraints
                    .iter()
                    .map(|&(cx, cy, k)| {
                        let mut le = IdLinExpr::constant(k);
                        le.push_term(0, cx);
                        le.push_term(1, cy);
                        le.canonicalize();
                        PForm::le(le)
                    })
                    .collect(),
            );
            if unsatisfiable(&conjunction) {
                refuted += 1;
                prop_assert!(
                    model.is_none(),
                    "FM refutes {:?}, but {:?} satisfies it",
                    constraints,
                    model
                );
            } else if model.is_some() {
                modelled += 1;
            }
        }
        // The check is only as good as the search's reach: the box must
        // model most of what FM leaves open, or a box too small to hold any
        // model would pass every refutation.
        let open = batch.len() - refuted;
        prop_assert!(refuted > 0, "FM refuted nothing in {:?}", batch);
        prop_assert!(
            modelled * 4 >= open * 3,
            "the box modelled only {}/{} conjunctions FM left open",
            modelled,
            open
        );
    }
}
