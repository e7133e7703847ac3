//! The normal-form memo is exact.  The queries of one method share a
//! `NormalForms` memo, and a query builds its refutation problem through it.
//! For every non-trivial sequent of the eight Table 1 modules, with and
//! without proof constructs, that problem must equal the one
//! `build_problem` builds on its own: the same ground formulas and
//! quantified formulas, in the same order, and the same sort environment
//! with the same skolems declared.  Otherwise the ground solver would see
//! different input and prover attribution could move.
//!
//! A skolem constant or a renamed binder takes its name from a per-problem
//! counter, so an assumption whose normalisation draws a fresh name must
//! not be remembered.  The `Fresh` module below carries both kinds of
//! assumption: an existential, which skolemisation names, and a `∀` under a
//! disjunction, whose binder the hoisting renames.

use ipl::gcl::split::split_all;
use ipl::gcl::translate::{translate_ext, TranslateCtx};
use ipl::gcl::wlp::vc_of;
use ipl::lang::LoweredMethod;
use ipl::logic::{Form, Sort};
use ipl::provers::preprocess::{build_problem, NormalForms, Problem};
use ipl::provers::Query;
use std::collections::HashSet;
use std::sync::Arc;

/// The queries of one method's non-trivial sequents, built as the driver
/// builds them, all sharing one fresh memo.
fn method_queries(
    method: &LoweredMethod,
    use_proof_constructs: bool,
) -> (Arc<NormalForms>, Vec<Query>) {
    let command = if use_proof_constructs {
        method.command.clone()
    } else {
        method.command.strip_proofs()
    };
    let simple = translate_ext(&command, &mut TranslateCtx::new());
    let memo = Arc::new(NormalForms::new(method.env.clone()));
    let queries = split_all(&vc_of(&simple))
        .into_iter()
        .filter(|sequent| !sequent.is_trivially_valid())
        .map(|sequent| {
            let assumptions = sequent.selected_assumptions().into_iter().cloned();
            Query::in_method(assumptions.collect(), sequent.goal.clone(), &memo)
        })
        .collect();
    (memo, queries)
}

/// The problem `build_problem` builds for a query, without any memo.
fn unshared_problem(query: &Query) -> Problem {
    build_problem(&query.assumption_forms(), &query.goal, &query.env)
}

/// What checking one module saw.
#[derive(Default)]
struct Seen {
    queries: usize,
    /// Assumptions normalised or taken from a memo, over all queries.
    assumptions: usize,
    /// Distinct assumptions per method, summed over methods.
    distinct: usize,
    /// Entries the methods' memos hold at the end.
    remembered: usize,
}

/// Checks every method of `source` in both configurations: each query's
/// problem equals the unshared one, whether the method's queries are built
/// in sequent order or in reverse.
fn check_module(name: &str, source: &str) -> Seen {
    let module = ipl::lang::parse_module(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let lowered = ipl::lang::lower_module(&module).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut seen = Seen::default();
    for method in &lowered.methods {
        for use_proof_constructs in [true, false] {
            let (memo, queries) = method_queries(method, use_proof_constructs);
            let (_, reversed) = method_queries(method, use_proof_constructs);
            let in_order = queries.iter().enumerate();
            for (index, query) in in_order.chain(reversed.iter().enumerate().rev()) {
                assert_eq!(
                    *query.problem(),
                    unshared_problem(query),
                    "{name} {} sequent {index} (proof constructs {use_proof_constructs}): \
                     the memo changed the problem",
                    method.name
                );
                // A problem copies the query's environment only to declare
                // a skolem in it.
                let env = &query.problem().env;
                assert_eq!(Arc::ptr_eq(env, &query.env), **env == *query.env);
            }
            let distinct: HashSet<&Form> = queries
                .iter()
                .flat_map(|q| q.assumptions.iter().map(|a| &a.form))
                .collect();
            seen.queries += queries.len();
            seen.assumptions += queries.iter().map(|q| q.assumptions.len()).sum::<usize>();
            seen.distinct += distinct.len();
            seen.remembered += memo.len();
            assert!(memo.len() <= distinct.len());
        }
    }
    seen
}

#[test]
fn table1_problems_through_the_memo_equal_the_unshared_ones() {
    let mut total = Seen::default();
    for benchmark in ipl::suite::benchmarks::all() {
        let seen = check_module(benchmark.name, benchmark.source);
        assert!(
            seen.queries > 0,
            "{} has non-trivial sequents",
            benchmark.name
        );
        total.queries += seen.queries;
        total.assumptions += seen.assumptions;
        total.distinct += seen.distinct;
        total.remembered += seen.remembered;
    }
    // The memo answers: a method's sequents share most of their
    // assumptions, so far fewer are normalised than are used.
    assert!(
        total.distinct * 4 < total.assumptions,
        "{} distinct assumptions among {} uses",
        total.distinct,
        total.assumptions
    );
    assert!(total.remembered > 0 && total.remembered <= total.distinct);
}

/// A method whose every sequent assumes an existential and a `∀` under a
/// disjunction (in one assumption: lowering conjoins the `requires`).
const FRESH: &str = r#"
module Fresh {
  var s: int;
  var t: int;

  method bump()
    requires "exists j:int. s = j + 1"
    requires "t = 0 | (forall i:int. 0 <= i --> s <= i + t)"
    modifies s
    ensures "s = old(s) + 1 & 0 < t + s"
  {
    s := s + 1;
  }
}
"#;

#[test]
fn assumptions_that_draw_fresh_names_are_normalised_in_every_problem() {
    let seen = check_module("Fresh", FRESH);
    assert!(seen.queries >= 2, "the memo is shared by several queries");

    let module = ipl::lang::parse_module(FRESH).unwrap();
    let lowered = ipl::lang::lower_module(&module).unwrap();
    let (memo, queries) = method_queries(&lowered.methods[0], true);
    let drawing = |form: &Form| {
        let text = form.to_string();
        text.contains("exists") || text.contains("forall")
    };
    for query in &queries {
        let problem = query.problem();
        // The existential assumption was skolemised, and the skolem declared
        // in the problem's environment, not in the query's...
        let skolem = problem
            .env
            .vars()
            .find(|(name, _)| name.starts_with("sk_j_"));
        let (skolem, sort) = skolem.unwrap_or_else(|| panic!("{:?}", problem.env));
        assert_eq!(*sort, Sort::Int);
        assert_eq!(query.env.var_sort(skolem), None);
        // ...and the universal under the disjunction hoisted with its
        // binder renamed apart.
        assert!(
            problem.quantified.iter().any(
                |q| matches!(q, Form::Forall(bs, _) if bs.iter().any(|(n, _)| n.starts_with("i_")))
            ),
            "{:?}",
            problem.quantified
        );
    }
    // The precondition that drew the names (lowering conjoins the two
    // `requires`) was not remembered; every other assumption was.
    let distinct: HashSet<&Form> = queries
        .iter()
        .flat_map(|q| q.assumptions.iter().map(|a| &a.form))
        .collect();
    let drawn = distinct.iter().filter(|f| drawing(f)).count();
    assert_eq!(drawn, 1, "{distinct:?}");
    assert_eq!(memo.len(), distinct.len() - drawn);
}
