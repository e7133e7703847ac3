//! Allocation pins for the CDCL ground core, the front end and the prover
//! cascade.  A counting global allocator measures deterministic facts:
//!
//! * the clause database allocates less than the retained naive tableau,
//!   which clones the remaining disjunction list at every branch point;
//! * the Hash Table `put` refutations stay under an allocation ceiling, so a
//!   regression back to string-keyed Fourier–Motzkin re-checks trips it;
//! * the front end of Array List, up to the cache lookup, stays under an
//!   allocation ceiling, so a regression back to copying the assumption
//!   list per `assume`, re-interning every inherited hypothesis or
//!   allocating a string per fingerprinted symbol trips it;
//! * a warm session answers an unchanged Array List from its front-end
//!   memo, so the request allocates little beyond parsing and the report;
//! * a failing mutant, verified with the proof cache off, stays under an
//!   allocation ceiling, so a regression back to instantiating a triggered
//!   quantifier from the sort pool while its triggers match nothing trips
//!   it;
//! * Priority Queue, verified with the proof cache off, stays under an
//!   allocation ceiling, so a regression back to normalising each
//!   assumption once per sequent instead of once per method trips it;
//! * the cascade's stages share each query's refutation problem, so
//!   proving queries whose problems are built allocates for the search
//!   alone, and a stage that builds a problem of its own trips a ceiling;
//! * the instantiating stage answers a built problem with no quantified
//!   formula without allocating, instead of repeating the ground stage's
//!   refutation.
//!
//! The count is per thread, so tests running in parallel in this binary do
//! not pollute each other's numbers.

use ipl::core::{Request, Session, VerifyOptions};
use ipl::gcl::split::split_all;
use ipl::gcl::translate::{translate_ext, TranslateCtx};
use ipl::gcl::wlp::vc_of;
use ipl::lang::LoweredModule;
use ipl::logic::{Form, SortEnv};
use ipl::provers::cache::ProofCache;
use ipl::provers::cascade::InstSmt;
use ipl::provers::ground::{reference, refute, GroundResult};
use ipl::provers::preprocess::build_problem;
use ipl::provers::{Cancel, Cascade, Outcome, Prover, ProverConfig, Query};
use ipl::suite::benchmarks::Benchmark;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// A pass-through allocator that counts the allocations of each thread.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees are exactly the ones `System` requires.  Counting
// touches only a `const`-initialised thread-local `Cell`, which never
// allocates, so the allocator does not re-enter itself.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` fails only while the thread is being torn down.
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: `layout` comes from our caller, who upholds `alloc`'s
        // contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through `alloc` above with
        // this `layout`, as our caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its value with the allocations it made on this
/// thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// The preprocessed ground refutation problems of Hash Table `put`, with the
/// `from`-clause assumption selection applied as the pipeline does.
fn hash_table_put_problems() -> Vec<(Vec<Form>, SortEnv)> {
    let benchmark = ipl::suite::by_name("Hash Table").expect("benchmark exists");
    let module = ipl::lang::parse_module(benchmark.source).expect("parses");
    let lowered = ipl::lang::lower_module(&module).expect("lowers");
    let method = lowered
        .methods
        .iter()
        .find(|m| m.name == "put")
        .expect("Hash Table has a put method");
    let simple = translate_ext(&method.command, &mut TranslateCtx::new());
    split_all(&vc_of(&simple))
        .into_iter()
        .filter(|s| !s.is_trivially_valid())
        .map(|sequent| {
            let assumptions: Vec<Form> = sequent
                .selected_assumptions()
                .into_iter()
                .map(|l| l.form.clone())
                .collect();
            let problem = build_problem(&assumptions, &sequent.goal, &method.env);
            (problem.ground, method.env.clone())
        })
        .collect()
}

#[test]
fn clause_database_allocates_less_than_the_cloning_tableau() {
    let env = SortEnv::new();
    let forms = reference::pigeonhole(4);
    let config = ProverConfig::default();
    let (result, cdcl) = allocations(|| refute(&forms, &env, &config, &Cancel::never()));
    assert_eq!(result, GroundResult::Unsat);
    let (result, naive) = allocations(|| reference::refute_naive(&forms, &env, 1_000_000));
    assert_eq!(result, GroundResult::Unsat);
    assert!(
        cdcl < naive,
        "the clause database must allocate less than the cloning tableau \
         (cdcl {cdcl} vs naive {naive})"
    );
}

#[test]
fn hash_table_put_refutations_stay_under_the_allocation_ceiling() {
    // Measured: 5,358 allocations in both the debug and the release profile.
    // The string-keyed re-check this pin guards against spent far more.
    const CEILING: u64 = 9_000;
    let problems = hash_table_put_problems();
    assert!(!problems.is_empty(), "put has non-trivial sequents");
    let config = ProverConfig::default();
    let cancel = Cancel::never();
    // Warm-up pass, so lazily initialised globals do not count.
    for (forms, env) in &problems {
        refute(forms, env, &config, &cancel);
    }
    let ((), count) = allocations(|| {
        for (forms, env) in &problems {
            std::hint::black_box(refute(forms, env, &config, &cancel));
        }
    });
    assert!(
        count <= CEILING,
        "the arithmetic re-check must stay string-free \
         ({} put refutations allocated {count}, ceiling {CEILING})",
        problems.len()
    );
}

/// The front end of every method of `lowered` up to the cache lookup, as
/// the driver runs it: translate, `wlp`, split, then the query and the
/// fingerprint of each non-trivial sequent.  Returns the sequent count.
fn front_end_to_lookup(lowered: &LoweredModule, config: &ProverConfig, line_up: &[&str]) -> usize {
    let mut sequents = 0;
    for method in &lowered.methods {
        let simple = translate_ext(&method.command, &mut TranslateCtx::new());
        let env = Arc::new(method.env.clone());
        for sequent in split_all(&vc_of(&simple)) {
            if sequent.is_trivially_valid() {
                continue;
            }
            let assumptions = sequent.selected_assumptions().into_iter().cloned();
            let query = Query::new(
                assumptions.collect(),
                sequent.goal.clone(),
                Arc::clone(&env),
            );
            std::hint::black_box(ProofCache::fingerprint(&query, config, line_up));
            sequents += 1;
        }
    }
    sequents
}

#[test]
fn array_list_front_end_stays_under_the_allocation_ceiling() {
    // Measured: 5,971 allocations in both the debug and the release
    // profile, interning included.  Copying the assumption list at every
    // `assume`, cloning the sort environment per query and allocating a
    // string per fingerprinted symbol spent 13,109 on this path, and 20,016
    // once every inherited hypothesis was interned again per sequent.
    const CEILING: u64 = 8_000;
    let benchmark = ipl::suite::by_name("Array List").expect("benchmark exists");
    let module = ipl::lang::parse_module(benchmark.source).expect("parses");
    let lowered = ipl::lang::lower_module(&module).expect("lowers");
    let config = ProverConfig::default();
    let line_up = Cascade::standard(config).prover_names();
    // Warm-up pass, so the intern table already holds the method's
    // formulas, as it does on a warm daemon.
    let sequents = front_end_to_lookup(&lowered, &config, &line_up);
    assert!(sequents > 0, "Array List has non-trivial sequents");
    let (again, count) = allocations(|| front_end_to_lookup(&lowered, &config, &line_up));
    assert_eq!(again, sequents);
    assert!(
        count <= CEILING,
        "the front end must split, intern and fingerprint each formula once \
         ({sequents} Array List sequents allocated {count}, ceiling {CEILING})"
    );
}

#[test]
fn a_warm_unchanged_array_list_request_stays_under_the_allocation_ceiling() {
    // Measured: 837 allocations in both the debug and the release profile,
    // 604 of them parsing.  Running the front end of every method again, as
    // `Session::verify` did before the memo, spent 8,992.
    const CEILING: u64 = 2_500;
    let benchmark = ipl::suite::by_name("Array List").expect("benchmark exists");
    let session = Session::new(VerifyOptions::default().with_jobs(1));
    let request = Request::new(benchmark.source);
    // The first request proves and fills the memo; the second warms the
    // lazily initialised globals on the memo's path.
    assert!(session.verify(&request).unwrap().report.fully_proved());
    session.verify(&request).unwrap();
    let (response, count) = allocations(|| session.verify(&request).unwrap());
    assert!(response.report.fully_proved());
    assert!(
        count <= CEILING,
        "an unchanged module must be answered from the memo \
         (a warm Array List request allocated {count}, ceiling {CEILING})"
    );
}

/// The allocations of one `Session::verify` of `source` with the proof
/// cache off, on one worker, after a warm-up request of the same source,
/// so every sequent is searched and the lazily initialised globals and the
/// intern table are warm.  Returns the failing methods with the count.
fn uncached_verify_allocations(source: &str) -> (Vec<String>, u64) {
    let options = VerifyOptions::default()
        .with_jobs(1)
        .with_config(ProverConfig::without_cache());
    let session = Session::new(options);
    let request = Request::new(source);
    session.verify(&request).unwrap();
    let (response, count) = allocations(|| session.verify(&request).unwrap());
    let failing = response.report.methods.iter().filter(|m| !m.fully_proved());
    (failing.map(|m| m.name.clone()).collect(), count)
}

fn benchmark(name: &str) -> Benchmark {
    ipl::suite::by_name(name).expect("benchmark exists")
}

#[test]
fn a_failing_mutant_searched_to_budget_stays_under_the_allocation_ceiling() {
    // Association List `put` with its postcondition negated: the search runs
    // to budget in the instantiating stage.  Measured: 17,772 allocations in
    // both the debug and the release profile; 172,691 when a quantifier
    // whose triggers have matched nothing yet is instantiated from the sort
    // pool.
    const CEILING: u64 = 21_000;
    let source = benchmark("Association List").source;
    let ensures = "ensures \"contents = old(contents) union {(k, v)} & count = old(count) + 1\"";
    assert_eq!(source.matches(ensures).count(), 1, "put's postcondition");
    let mutant = source.replace(
        ensures,
        "ensures \"~(contents = old(contents) union {(k, v)} & count = old(count) + 1)\"",
    );
    let (failing, count) = uncached_verify_allocations(&mutant);
    assert_eq!(failing, ["put"], "exactly the mutated method fails");
    assert!(
        count <= CEILING,
        "only a quantifier without triggers may be instantiated from the sort \
         pool (the put mutant allocated {count}, ceiling {CEILING})"
    );
}

#[test]
fn an_uncached_priority_queue_stays_under_the_allocation_ceiling() {
    // Measured: 43,647 allocations in both the debug and the release
    // profile; 60,459 when each query normalises every assumption itself.
    const CEILING: u64 = 52_000;
    let (failing, count) = uncached_verify_allocations(benchmark("Priority Queue").source);
    assert!(failing.is_empty(), "{failing:?}");
    assert!(
        count <= CEILING,
        "each method must normalise an assumption once for all its queries \
         (Priority Queue allocated {count}, ceiling {CEILING})"
    );
}

/// The queries of a benchmark's non-trivial sequents, each with its own
/// refutation problem still unbuilt.
fn queries_of(name: &str) -> Vec<Query> {
    let module = ipl::lang::parse_module(benchmark(name).source).expect("parses");
    let lowered = ipl::lang::lower_module(&module).expect("lowers");
    let mut queries = Vec::new();
    for method in &lowered.methods {
        let simple = translate_ext(&method.command, &mut TranslateCtx::new());
        let env = Arc::new(method.env.clone());
        for sequent in split_all(&vc_of(&simple)) {
            if !sequent.is_trivially_valid() {
                let assumptions = sequent.selected_assumptions().into_iter().cloned();
                let query = Query::new(assumptions.collect(), sequent.goal, Arc::clone(&env));
                queries.push(query);
            }
        }
    }
    queries
}

#[test]
fn the_stages_share_each_querys_refutation_problem() {
    // Every non-trivial Priority Queue sequent reaches the ground stage and
    // 19 of its 35 the instantiating stage.  The warm-up proof builds each
    // query's problem, so the measured one builds none.  Measured: 27,211
    // allocations in both the debug and the release profile; 52,965 when
    // the ground stage builds a problem of its own.
    const CEILING: u64 = 33_000;
    let cascade = Cascade::standard(ProverConfig::without_cache());
    let queries = queries_of("Priority Queue");
    let prove_all = || {
        for query in &queries {
            assert!(cascade.prove(query).outcome.is_proved());
        }
    };
    prove_all();
    let ((), count) = allocations(prove_all);
    assert!(
        count <= CEILING,
        "the stages must share one problem per query (proving Priority Queue's \
         {} queries again allocated {count}, ceiling {CEILING})",
        queries.len()
    );
}

#[test]
fn the_instantiating_stage_answers_quantifier_free_problems_without_allocating() {
    // 13 of Hash Table's 27 problems have no quantified formula.  Selecting
    // them builds their problems, as the ground stage does before the
    // instantiating stage runs.
    let queries: Vec<Query> = queries_of("Hash Table")
        .into_iter()
        .filter(|query| query.problem().quantified.is_empty())
        .collect();
    assert!(
        !queries.is_empty(),
        "Hash Table has quantifier-free problems"
    );
    let config = ProverConfig::without_cache();
    let cancel = Cancel::never();
    let unknown = |query: &Query| InstSmt.prove(query, &config, &cancel) == Outcome::Unknown;
    let (unknown, count) = allocations(|| queries.iter().filter(|&query| unknown(query)).count());
    assert_eq!(
        count,
        0,
        "with nothing to instantiate, the instantiating stage must not refute \
         the ground set again ({} quantifier-free problems allocated {count})",
        queries.len()
    );
    assert_eq!(unknown, queries.len());
}
