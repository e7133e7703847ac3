//! End-to-end lifecycle of the persistent proof store over the full
//! eight-structure benchmark suite, driven through `Session` alone:
//!
//! 1. a cold run against an empty store proves everything and persists it;
//! 2. a warm run from a new session (a simulated new process) answers ≥ 90%
//!    of the previously proved non-trivial sequents from the store, with a
//!    byte-identical normalised report;
//! 3. disk store on and off produce byte-identical normalised reports;
//! 4. after a one-method edit, only that method's changed sequents are
//!    proved again; every other sequent is answered from the store.
//!
//! One `#[test]` drives all of that on purpose: the in-memory proof cache is
//! process-global and is reset at several points below, so a sibling test
//! verifying on another thread would race it.  (The per-prover timeout is
//! raised as in `parallel.rs`: wall-clock deadlines are the one
//! machine-dependent budget, and this test compares reports byte-for-byte.)
//! The other test, a store written by one `ipl verify` process answering in
//! the next, verifies only in the processes it spawns.

use ipl::core::{ModuleReport, Request, Session, VerifyOptions};
use ipl::provers::cache::ProofCache;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The benchmark sources, in suite order.
fn suite_sources() -> Vec<(&'static str, String)> {
    ipl::suite::all()
        .iter()
        .map(|b| (b.name, b.source.to_string()))
        .collect()
}

/// The suite with one edited method body: `LinkedList.sizeOf` computes its
/// result in two steps instead of one.  Semantically equivalent (it still
/// verifies), but every sequent of `sizeOf` changes its fingerprint — the
/// smallest realistic "developer edited one method" workload.
fn edited_suite_sources() -> Vec<(&'static str, String)> {
    let mut sources = suite_sources();
    for (name, source) in &mut sources {
        if *name == "Linked List" {
            let edited = source.replace("n := size;", "n := 0;\n    n := n + size;");
            assert_ne!(&edited, source, "the sizeOf body must be present to edit");
            *source = edited;
        }
    }
    sources
}

fn options(cache_dir: Option<PathBuf>, use_cache: bool) -> VerifyOptions {
    let mut options = VerifyOptions::default()
        .with_config(ipl::provers::ProverConfig {
            use_cache,
            per_prover_timeout_ms: 600_000,
            ..ipl::provers::ProverConfig::default()
        })
        .with_jobs(1);
    options.cache_dir = cache_dir;
    options
}

/// Verifies the suite through one new session, as a fresh process would:
/// the in-memory cache is wiped first, so any warmth comes from the store.
fn verify_all(sources: &[(&str, String)], options: &VerifyOptions) -> Vec<ModuleReport> {
    ProofCache::global().reset();
    let session = Session::new(options.clone());
    sources
        .iter()
        .map(|(name, source)| {
            session
                .verify(&Request::new(source.clone()))
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .report
        })
        .collect()
}

fn hits(reports: &[ModuleReport]) -> usize {
    reports.iter().map(ModuleReport::cache_hits).sum()
}

fn nontrivial_proved(reports: &[ModuleReport]) -> usize {
    let proved: usize = reports.iter().map(ModuleReport::proved_sequents).sum();
    let trivial: usize = reports
        .iter()
        .flat_map(|r| &r.methods)
        .map(|m| m.trivial_sequents)
        .sum();
    proved - trivial
}

fn assert_parity(left: &[ModuleReport], right: &[ModuleReport], what: &str) {
    for (l, r) in left.iter().zip(right) {
        assert_eq!(
            l.normalized(),
            r.normalized(),
            "{}: {what} must be byte-identical",
            l.module_name
        );
    }
}

#[test]
fn store_lifecycle_cold_warm_incremental_and_edit() {
    let dir = std::env::temp_dir().join(format!("ipl-incremental-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sources = suite_sources();
    let stored = options(Some(dir.clone()), true);

    // Cold: empty store, everything proved fresh and persisted.
    let cold = verify_all(&sources, &stored);
    let methods: usize = cold.iter().map(|r| r.method_count).sum();
    let verified: usize = cold.iter().map(ModuleReport::methods_verified).sum();
    assert_eq!(methods, 46, "the suite has 46 methods");
    assert_eq!(verified, 46, "cold run verifies all 46 methods");
    let population = nontrivial_proved(&cold);
    assert!(population > 0);

    // Warm: a new session with the same store directory.  The disk store
    // must carry ≥ 90% of the proved non-trivial sequents, and the
    // normalised report must not change at all.
    let warm = verify_all(&sources, &stored);
    assert_parity(&cold, &warm, "cold and warm reports");
    assert!(
        hits(&warm) * 100 >= population * 90,
        "warm run answered {} of {} non-trivial proved sequents from the store (< 90%)",
        hits(&warm),
        population
    );

    // Store off entirely: byte-identical normalised reports (the disk cache
    // is an accelerator, never an input to the verdict).
    let uncached = verify_all(&sources, &options(None, false));
    assert_parity(&cold, &uncached, "stored and store-free reports");
    assert_eq!(hits(&uncached), 0);

    // Edit one method body (LinkedList.sizeOf): only its sequents change
    // their fingerprints, so only they are proved again; the rest of the
    // suite is answered from the store, and the edited suite still fully
    // verifies.
    let edited = verify_all(&edited_suite_sources(), &stored);
    let edited_verified: usize = edited.iter().map(ModuleReport::methods_verified).sum();
    assert_eq!(edited_verified, 46, "the edited suite still verifies 46/46");
    let mut reproved = 0;
    for ((bench, _), report) in sources.iter().zip(&edited) {
        for method in &report.methods {
            let fresh = method.proved_sequents - method.trivial_sequents - method.cache_hits;
            if *bench == "Linked List" && method.name.ends_with("sizeOf") {
                reproved += fresh;
            } else {
                assert_eq!(
                    fresh, 0,
                    "{bench}: {} is unchanged but proved {fresh} sequents again",
                    method.name
                );
            }
        }
    }
    assert!(reproved > 0, "the edited method must actually be re-proved");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `ipl verify --quiet --cache-dir DIR FILE` in a new process and reads
/// its summary line, `FILE: 6/6 methods verified, 19/19 sequents proved
/// (15 from cache)`, as (proved, from cache).
fn verify_in_new_process(file: &Path, dir: &Path) -> (usize, usize) {
    let output = Command::new(env!("CARGO_BIN_EXE_ipl"))
        .args(["verify", "--quiet", "--cache-dir"])
        .arg(dir)
        .arg(file)
        .output()
        .expect("ipl verify runs");
    let line = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "ipl verify failed: {output:?}");
    let words: Vec<&str> = line.split_whitespace().collect();
    let before = |word: &str| {
        let at = words
            .iter()
            .position(|w| *w == word)
            .unwrap_or_else(|| panic!("no `{word}` in {line:?}"));
        words[at - 1]
    };
    let proved = before("sequents").split('/').next().unwrap_or_default();
    let from_cache = before("from").trim_start_matches('(');
    match (proved.parse(), from_cache.parse()) {
        (Ok(proved), Ok(from_cache)) => (proved, from_cache),
        _ => panic!("unexpected summary line {line:?}"),
    }
}

/// Sequents that splitting discharges and no prover (or store) ever sees,
/// counted from the front end alone as `Session::verify` counts them.
fn trivial_sequents(source: &str) -> usize {
    let module = ipl::lang::parse_module(source).expect("parses");
    let lowered = ipl::lang::lower_module(&module).expect("lowers");
    lowered
        .methods
        .iter()
        .map(|method| {
            let simple = ipl::gcl::translate::translate_ext(
                &method.command,
                &mut ipl::gcl::translate::TranslateCtx::new(),
            );
            ipl::gcl::split::split_all(&ipl::gcl::wlp::vc_of(&simple))
                .iter()
                .filter(|s| s.is_trivially_valid())
                .count()
        })
        .sum()
}

#[test]
fn a_store_written_by_one_process_answers_in_the_next() {
    let dir = std::env::temp_dir().join(format!("ipl-store-processes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let linked_list = ipl::suite::by_name("Linked List").expect("benchmark exists");
    let file = dir.join("linked_list.ipl");
    std::fs::write(&file, linked_list.source).unwrap();
    let store = dir.join("store");

    let (proved, cold_hits) = verify_in_new_process(&file, &store);
    assert_eq!(cold_hits, 0, "an empty store answers nothing");
    let population = proved - trivial_sequents(linked_list.source);
    assert!(population > 0);

    let (warm_proved, warm_hits) = verify_in_new_process(&file, &store);
    assert_eq!(warm_proved, proved);
    assert!(
        warm_hits * 100 >= population * 90,
        "the second process answered {warm_hits} of {population} non-trivial proved \
         sequents from the store (< 90%)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
