//! # `ipl-bench` — micro-benchmarks and ablations
//!
//! Criterion benchmarks of the pieces inside the cascade:
//!
//! * `benches/ablations.rs` — ablations over the design choices called out in
//!   DESIGN.md: assumption-base control (`from` clauses), instantiation
//!   budgets and the CDCL(T) ground-core features;
//! * `benches/provers.rs` — micro-benchmarks of the individual reasoners
//!   (ground SMT-lite, quantifier instantiation, BAPA, shape);
//! * `benches/ground.rs` — the CDCL ground core on the Hash Table sequents,
//!   with its allocation pins;
//! * `benches/terms.rs` — the shared, hash-consed term representation.
//!
//! The paper's two tables are regenerated by `examples/table1.rs` and
//! `examples/table2.rs`; the end-to-end speed of the `ipl` binary is
//! measured by `perfbench/` (see `BENCHMARK.json`).

use ipl_core::VerifyOptions;

/// The verification options used by the benchmark harnesses.  The proof
/// cache is disabled: criterion repeats each verification many times, and a
/// cache hit on iteration two would measure replay instead of prover work.
pub fn bench_options() -> VerifyOptions {
    VerifyOptions::default()
        .with_config(ipl_provers::ProverConfig {
            use_cache: false,
            ..ipl_suite::suite_config()
        })
        .with_record_sequents(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_disable_sequent_recording() {
        assert!(!bench_options().record_sequents);
    }
}
