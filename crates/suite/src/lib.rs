//! # `ipl-suite` — the benchmark suite and the paper's tables
//!
//! This crate contains the eight linked data structures of the paper's
//! evaluation ([`benchmarks`]) written in the annotated surface language, and
//! the harnesses that regenerate the two tables of Section 6:
//!
//! * [`table1`] — Table 1: per-structure method/statement/specification and
//!   proof-construct counts together with verification time;
//! * [`table2`] — Table 2: methods and sequents verified *without* the
//!   integrated proof language constructs versus *with* them;
//! * [`baseline`] — the gate that compares fresh Table 1 and Table 2
//!   documents with the committed `BENCH_table1.json` and
//!   `BENCH_table2.json`, field by field and never on wall-clock, and the
//!   writer of both documents.
//!
//! How fast the running system is gets measured elsewhere, end to end on the
//! `ipl` binary, by `perfbench/` (see `BENCHMARK.json`).

pub mod baseline;
pub mod benchmarks;
pub mod table1;
pub mod table2;

pub use benchmarks::{all, by_name, Benchmark};

/// Verifies one benchmark and returns its report.
pub fn verify_benchmark(
    benchmark: &Benchmark,
    options: &ipl_core::VerifyOptions,
) -> Result<ipl_core::ModuleReport, String> {
    ipl_core::Session::new(options.clone())
        .verify(&ipl_core::Request::new(benchmark.source))
        .map(|response| response.report)
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linked_list_fully_verifies() {
        let benchmark = by_name("Linked List").unwrap();
        let report = verify_benchmark(&benchmark, &ipl_core::VerifyOptions::default()).unwrap();
        assert!(
            report.fully_proved(),
            "linked list should fully verify:\n{}",
            report.render()
        );
    }

    #[test]
    fn association_list_fully_verifies_with_ematching() {
        // Regression pin for the trigger-driven E-matching engine: before it
        // landed the suite verified only 2 of 5 Association List methods
        // (`put` among the failures, defeated by the blind sort-pool
        // cross-product).  All five must now prove with the default config.
        let benchmark = by_name("Association List").unwrap();
        let report = verify_benchmark(&benchmark, &ipl_core::VerifyOptions::default()).unwrap();
        assert!(
            report.fully_proved(),
            "association list should fully verify:\n{}",
            report.render()
        );
    }

    #[test]
    fn priority_queue_findmax_verifies_with_ematching() {
        // Regression pin: Priority Queue verified 0 of 6 methods before the
        // incremental congruence closure + E-matching rework.
        let benchmark = by_name("Priority Queue").unwrap();
        let report = verify_benchmark(&benchmark, &ipl_core::VerifyOptions::default()).unwrap();
        for method in ["findMax", "sizeOf", "clear"] {
            let m = report.methods.iter().find(|m| m.name == method).unwrap();
            assert!(
                m.fully_proved(),
                "{method} should fully verify:\n{}",
                report.render()
            );
        }
    }

    #[test]
    fn priority_queue_induction_needs_the_induct_construct() {
        let benchmark = by_name("Priority Queue").unwrap();
        let proved_post = |options: ipl_core::VerifyOptions| {
            let report = verify_benchmark(&benchmark, &options).unwrap();
            let check_level = report.methods.iter().find(|m| m.name == "checkLevel");
            let sequents = &check_level.expect("checkLevel is verified").sequents;
            sequents
                .iter()
                .filter(|s| s.goal_label == "Postcondition")
                .all(|s| s.proved)
        };
        assert!(
            proved_post(ipl_core::VerifyOptions::default()),
            "with induct the levelOk(k) postcondition is proved"
        );
        assert!(
            !proved_post(ipl_core::VerifyOptions::without_proof_constructs()),
            "without induct the postcondition requires mathematical induction and must fail"
        );
    }
}
