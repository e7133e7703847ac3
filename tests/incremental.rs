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
//! A single `#[test]` on purpose: the in-memory proof cache is process-global
//! and is reset at several points below, so a sibling test on another thread
//! would race it.  (The per-prover timeout is raised as in `parallel.rs`:
//! wall-clock deadlines are the one machine-dependent budget, and this test
//! compares reports byte-for-byte.)

use ipl::core::{ModuleReport, Request, Session, VerifyOptions};
use ipl::provers::cache::ProofCache;
use ipl::suite::throughput::{edited_suite_sources, suite_sources};
use std::path::PathBuf;

fn options(cache_dir: Option<PathBuf>, use_cache: bool) -> VerifyOptions {
    let mut options = VerifyOptions::default()
        .with_config(ipl::provers::ProverConfig {
            use_cache,
            per_prover_timeout_ms: 600_000,
            ..ipl::suite::suite_config()
        })
        .with_record_sequents(true)
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
