//! Chaos tests for the fault-isolated verification core: under a
//! deterministic injected-fault plan (stage panics, delays, spurious
//! Unknowns), `Session::verify` must never let a panic escape, must never
//! *fabricate* a proof — the faulted Proved set is always a subset of the
//! fault-free Proved set — and a zero-probability plan must be
//! indistinguishable from no plan at all.  A plan travels on its `Request`,
//! so the tests run side by side, and a chaos request never touches a clean
//! request running beside it on the same session.
//!
//! Wall-clock prover deadlines are effectively disabled (as in
//! `module_fuzz.rs`): injected delays plus a machine-dependent budget would
//! make outcomes timing-dependent, and these tests argue about determinism.

use ipl::core::{ModuleReport, Request, Session, VerifyError, VerifyOptions};
use ipl::provers::fault::{self, FaultPlan};
use ipl::provers::{Outcome, ProverConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn options() -> VerifyOptions {
    VerifyOptions::default()
        .with_config(ProverConfig {
            // The in-memory proof cache is process-global; disable it so a
            // fault-free baseline can never answer for a faulted run (or
            // vice versa) and every case sees the same world.
            use_cache: false,
            per_prover_timeout_ms: 600_000,
            ..ProverConfig::default()
        })
        .with_jobs(2)
}

fn verify(
    source: &str,
    options: &VerifyOptions,
    plan: Option<FaultPlan>,
) -> Result<ModuleReport, VerifyError> {
    let mut request = Request::new(source);
    request.fault_plan = plan;
    Session::new(options.clone())
        .verify(&request)
        .map(|response| response.report)
}

/// The set of `(method, sequent)` names that were proved.
fn proved_set(report: &ModuleReport) -> BTreeSet<(String, String)> {
    report
        .methods
        .iter()
        .flat_map(|m| {
            m.sequents
                .iter()
                .filter(|s| s.proved)
                .map(|s| (m.name.clone(), s.name.clone()))
        })
        .collect()
}

/// Asserts the load-bearing invariant of the whole harness: faults may
/// degrade outcomes (Unknown, Crashed, Skipped) but never fabricate a
/// Proved the fault-free run did not produce.
fn assert_subset(faulted: &ModuleReport, baseline: &ModuleReport, context: &str) {
    let faulted_proved = proved_set(faulted);
    let baseline_proved = proved_set(baseline);
    let fabricated: Vec<_> = faulted_proved.difference(&baseline_proved).collect();
    assert!(
        fabricated.is_empty(),
        "{context}: faulted run proved sequents the fault-free run did not: {fabricated:?}"
    );
    // Faults quarantine sequents, they don't invent or drop them.
    assert_eq!(
        faulted.total_sequents(),
        baseline.total_sequents(),
        "{context}: sequent population changed under faults"
    );
}

/// Per-report bookkeeping consistency: the aggregate fault counters match
/// the recorded per-sequent outcomes, and `proved` tracks the outcome.
fn assert_consistent(report: &ModuleReport, context: &str) {
    let mut crashed = 0;
    let mut skipped = 0;
    for method in &report.methods {
        for sequent in &method.sequents {
            assert_eq!(
                sequent.proved,
                sequent.outcome.is_proved(),
                "{context}: proved flag out of sync on {}",
                sequent.name
            );
            match &sequent.outcome {
                Outcome::Crashed { .. } => crashed += 1,
                Outcome::Skipped(_) => skipped += 1,
                _ => {}
            }
        }
    }
    assert_eq!(
        report.crashed_sequents(),
        crashed,
        "{context}: crashed count"
    );
    assert_eq!(
        report.skipped_sequents(),
        skipped,
        "{context}: skipped count"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random plans over random benchmarks: no escaped panic, no fabricated
    /// proof, consistent bookkeeping.  Rates go well past `default_chaos`
    /// (up to 30% stage panics) to force plenty of quarantines.
    #[test]
    fn random_fault_plans_only_degrade_outcomes(
        seed in 0u64..1 << 32,
        panic_bp in 0u32..3_000,
        spurious_bp in 0u32..3_000,
        delay_bp in 0u32..500,
        pick in 0usize..8,
    ) {
        let benchmark = ipl::suite::all()[pick % ipl::suite::all().len()];
        let plan = FaultPlan {
            seed,
            stage_panic_bp: panic_bp,
            spurious_unknown_bp: spurious_bp,
            delay_bp,
            delay_ms: 1,
            ..FaultPlan::default()
        };

        let baseline = verify(benchmark.source, &options(), None)
            .unwrap_or_else(|e| panic!("{} fault-free: {e}", benchmark.name));
        let faulted = verify(benchmark.source, &options(), Some(plan))
            .unwrap_or_else(|e| panic!("{} faulted: {e}", benchmark.name));

        assert_subset(&faulted, &baseline, benchmark.name);
        assert_consistent(&faulted, benchmark.name);
    }
}

/// A plan with every probability at zero must not perturb anything: the
/// normalized report is byte-identical to a run with no plan installed.
#[test]
fn zero_fault_plan_is_indistinguishable_from_no_plan() {
    let zero = FaultPlan {
        seed: 9,
        ..FaultPlan::default()
    };
    for benchmark in ipl::suite::all() {
        let plain = verify(benchmark.source, &options(), None)
            .unwrap_or_else(|e| panic!("{}: {e}", benchmark.name));
        let zeroed = verify(benchmark.source, &options(), Some(zero))
            .unwrap_or_else(|e| panic!("{}: {e}", benchmark.name));
        assert_eq!(
            plain.normalized(),
            zeroed.normalized(),
            "{}: zero plan changed the report",
            benchmark.name
        );
    }
}

/// The whole Table 1 suite survives the documented `default_chaos` preset:
/// every benchmark completes, nothing is fabricated, and the faulted runs
/// are themselves deterministic (two runs under the same plan agree
/// byte-for-byte — fault decisions are content-keyed, not scheduling-keyed).
#[test]
fn full_suite_survives_default_chaos_deterministically() {
    let plan = fault::default_chaos(7);
    for benchmark in ipl::suite::all() {
        let baseline = verify(benchmark.source, &options(), None)
            .unwrap_or_else(|e| panic!("{} fault-free: {e}", benchmark.name));
        let run = |jobs: usize| {
            verify(benchmark.source, &options().with_jobs(jobs), Some(plan))
                .unwrap_or_else(|e| panic!("{} chaos: {e}", benchmark.name))
        };
        let first = run(1);
        let second = run(4);
        assert_subset(&first, &baseline, benchmark.name);
        assert_consistent(&first, benchmark.name);
        assert_eq!(
            first.normalized(),
            second.normalized(),
            "{}: same plan, different verdicts across --jobs",
            benchmark.name
        );
    }
}

/// Requests share one session while a chaos request that panics every
/// stage runs beside them: each clean request answers exactly as it does
/// alone.
#[test]
fn a_chaos_request_leaves_a_concurrent_clean_request_untouched() {
    let source = |name| ipl::suite::by_name(name).expect("benchmark exists").source;
    let solo = verify(source("Cursor List"), &options(), None).expect("solo run");
    let plan = FaultPlan::parse("seed=1,panic=100,delay=100,delay_ms=20").unwrap();
    let session = Session::new(options());
    std::thread::scope(|scope| {
        let chaos = scope.spawn(|| {
            let request = Request::new(source("Linked List")).with_fault_plan(plan);
            session
                .verify(&request.with_jobs(1))
                .expect("chaos run")
                .report
        });
        let mut overlapped = 0;
        while !chaos.is_finished() {
            let clean = session.verify(&Request::new(source("Cursor List")));
            overlapped += usize::from(!chaos.is_finished());
            assert_eq!(
                clean.expect("clean run").report.normalized(),
                solo.normalized()
            );
        }
        assert!(overlapped > 0, "no clean request ran inside the chaos one");
        let chaos = chaos.join().unwrap();
        assert!(
            chaos.crashed_sequents() > 0,
            "the plan fired on its own request"
        );
    });
}
