//! Allocation pins for the CDCL ground core and the front end.  A counting
//! global allocator measures three deterministic facts:
//!
//! * the clause database allocates less than the retained naive tableau,
//!   which clones the remaining disjunction list at every branch point;
//! * the Hash Table `put` refutations stay under an allocation ceiling, so a
//!   regression back to string-keyed Fourier–Motzkin re-checks trips it;
//! * the front end of Array List, up to the cache lookup, stays under an
//!   allocation ceiling, so a regression back to copying the assumption
//!   list per `assume`, re-interning every inherited hypothesis or
//!   allocating a string per fingerprinted symbol trips it.
//!
//! The count is per thread, so tests running in parallel in this binary do
//! not pollute each other's numbers.

use ipl::gcl::split::split_all;
use ipl::gcl::translate::{translate_ext, TranslateCtx};
use ipl::gcl::wlp::vc_of;
use ipl::lang::LoweredModule;
use ipl::logic::{Form, SortEnv};
use ipl::provers::cache::ProofCache;
use ipl::provers::ground::{reference, refute, GroundResult};
use ipl::provers::preprocess::build_problem;
use ipl::provers::{Cancel, Cascade, ProverConfig, Query};
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
    // Measured: 5,866 allocations in both the debug and the release profile.
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
