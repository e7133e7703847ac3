//! Determinism of the parallel verification driver: `--jobs 1` and
//! `--jobs N` must produce identical reports (timings aside) across the full
//! benchmark suite, and the hand-rolled worker pool itself must preserve
//! input order.

use ipl::core::VerifyOptions;

fn options(jobs: usize) -> VerifyOptions {
    // The proof cache is disabled so the second run actually exercises
    // the provers concurrently instead of replaying the first run's
    // answers — otherwise this comparison could not catch a scheduling
    // bug that corrupts outcomes only under real parallel execution.
    // The per-prover timeout is raised far beyond any stage's budgeted
    // search: every other budget (branch nodes, rounds, instances) is a
    // deterministic count, but a wall-clock deadline fires differently
    // under debug builds and core contention, which is exactly the
    // machine-dependent noise this byte-identity comparison must not see.
    VerifyOptions::default()
        .with_config(ipl::provers::ProverConfig {
            use_cache: false,
            per_prover_timeout_ms: 600_000,
            ..ipl::provers::ProverConfig::default()
        })
        .with_jobs(jobs)
}

#[test]
fn jobs_do_not_change_any_benchmark_report() {
    for benchmark in ipl::suite::all() {
        let sequential = ipl::suite::verify_benchmark(&benchmark, &options(1))
            .unwrap_or_else(|e| panic!("{}: {e}", benchmark.name));
        let parallel = ipl::suite::verify_benchmark(&benchmark, &options(4))
            .unwrap_or_else(|e| panic!("{}: {e}", benchmark.name));
        assert_eq!(
            sequential.normalized(),
            parallel.normalized(),
            "{}: sequential and 4-thread runs must be byte-identical",
            benchmark.name
        );
    }
}

#[test]
fn default_jobs_matches_available_parallelism() {
    let defaults = options(0);
    assert!(defaults.effective_jobs() >= 1);
    assert_eq!(options(3).effective_jobs(), 3);
}

#[test]
fn module_report_records_worker_count() {
    let benchmark = ipl::suite::by_name("Linked List").unwrap();
    let report = ipl::suite::verify_benchmark(&benchmark, &options(2)).unwrap();
    assert_eq!(report.jobs, 2);
}
