//! Pins the fix for the process-global cache statistics: `Session::verify`
//! resets the hit/miss counters at the start of every request, so a
//! report's `cache_hits()` and the global `stats()` describe *that* run, not
//! the whole process lifetime.
//!
//! This file deliberately holds a single `#[test]`: the counters under test
//! are process-global, so a sibling test running on another thread would
//! perturb them.

use ipl::core::{ModuleReport, Request, Session, VerifyError, VerifyOptions};
use ipl::provers::cache::ProofCache;
use ipl::provers::ProverConfig;

/// One request through a new session, as a new `ipl verify` process makes.
fn verify(source: &str, options: &VerifyOptions) -> Result<ModuleReport, VerifyError> {
    Session::new(options.clone())
        .verify(&Request::new(source))
        .map(|response| response.report)
}

const SOURCE: &str = r#"
module Counter {
  var value: int;

  method bump(amount: int) returns (out: int)
    requires "amount >= 0"
    modifies value
    ensures "out >= amount"
  {
    value := amount + 1;
    out := value;
  }
}
"#;

#[test]
fn verify_module_resets_global_cache_stats_between_runs() {
    let options = VerifyOptions::default()
        .with_config(ProverConfig {
            use_cache: true,
            ..ProverConfig::default()
        })
        .with_record_sequents(true)
        .with_jobs(1);

    // First run: populates the in-memory cache; a fresh process sees no hits.
    let first = verify(SOURCE, &options).expect("first verify");
    assert_eq!(first.methods_verified(), 1, "the module verifies");

    // Second run: every dispatched sequent is answered by the in-memory
    // cache, so the *global* stats show hits.
    let second = verify(SOURCE, &options).expect("second verify");
    let after_second = ProofCache::global().stats();
    assert!(
        second.cache_hits() > 0,
        "second run re-proves from the in-memory cache"
    );
    assert_eq!(
        after_second.hits,
        second.cache_hits() as u64,
        "global stats describe the second run only, not the process lifetime"
    );

    // Third run with the cache disabled: the reset happens even when no
    // lookups follow, so stale counts from run two cannot leak into reports
    // or tooling that reads `stats()` afterwards.
    let no_cache_options = options.clone().with_config(ProverConfig {
        use_cache: false,
        ..ProverConfig::default()
    });
    let third = verify(SOURCE, &no_cache_options).expect("third verify");
    let after_third = ProofCache::global().stats();
    assert_eq!(third.cache_hits(), 0);
    assert_eq!(
        (after_third.hits, after_third.misses),
        (0, 0),
        "a cache-free run leaves zeroed stats, not run two's leftovers"
    );
}
