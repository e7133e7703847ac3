//! The generator's known answers hold: every no-op-local edit of each of the
//! 46 Table 1 methods keeps its module fully verified (with the same
//! sequents), and every negated-postcondition mutant leaves exactly its own
//! method unverified.  The benchmark checks `ipl`'s answers against these,
//! so they must never be taken from `ipl` on faith.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use ipl::core::{ModuleReport, Request, Session, VerifyOptions};
use ipl_perfbench::gen::{self, Kind, Stream, Workload};

fn verify(session: &Session, source: &str) -> ModuleReport {
    session
        .verify(&Request::new(source))
        .unwrap_or_else(|e| panic!("{e}\n{source}"))
        .report
}

fn trivial(report: &ModuleReport) -> usize {
    report.methods.iter().map(|m| m.trivial_sequents).sum()
}

#[test]
fn the_corpus_has_46_methods_and_49_mutants() {
    let corpus = gen::corpus();
    assert_eq!(corpus.len(), 8);
    assert_eq!(corpus.iter().map(|m| m.methods.len()).sum::<usize>(), 46);
    assert_eq!(gen::all_mutants().len(), 49);
    for exclusion in gen::EXCLUDED {
        assert!(
            gen::all_mutants().into_iter().any(|id| {
                id.names() == (exclusion.module, exclusion.method)
                    && id.ensures == exclusion.ensures
            }),
            "{exclusion:?} names no mutant"
        );
    }
    assert_eq!(gen::failing_mutants().len(), 49 - gen::EXCLUDED.len());
}

#[test]
fn every_no_op_local_edit_keeps_every_method_verified() {
    let session = Session::new(VerifyOptions::default());
    for (module, m) in gen::corpus().iter().enumerate() {
        let base = verify(&session, m.source);
        assert!(base.fully_proved(), "{} as written", m.name);
        for method in 0..m.methods.len() {
            let source = gen::with_locals(module, &[(method, 7_000 + method as u64)]);
            let edited = verify(&session, &source);
            assert_eq!(
                edited.methods_verified(),
                m.methods.len(),
                "{} with a local in {}",
                m.name,
                m.methods[method].name
            );
            assert_eq!(edited.total_sequents(), base.total_sequents());
            assert_eq!(trivial(&edited), trivial(&base));
        }
    }
}

#[test]
fn every_mutant_fails_exactly_its_own_method() {
    let session = Session::new(VerifyOptions::default());
    for id in gen::all_mutants() {
        let input = id.input();
        let report = verify(&session, &input.source);
        let verified: Vec<bool> = report.methods.iter().map(|m| m.fully_proved()).collect();
        assert_eq!(verified, input.expected(), "{}", input.label());
    }
}

#[test]
fn streams_repeat_per_seed_and_keep_their_mix_across_seeds() {
    for workload in Workload::ALL {
        let cycle = |seed| {
            let mut stream = Stream::new(workload, seed, 0);
            stream.cycle()
        };
        let sources = |seed| -> Vec<String> { cycle(seed).into_iter().map(|i| i.source).collect() };
        assert_eq!(sources(1), sources(1), "{}", workload.name());
        assert_ne!(sources(1), sources(2), "{}", workload.name());
        let mix = |seed| {
            let mut mix: Vec<(usize, bool)> = cycle(seed)
                .iter()
                .map(|i| (i.module, i.kind == Kind::Unchanged))
                .collect();
            mix.sort_unstable();
            mix
        };
        assert_eq!(mix(1), mix(2), "{}", workload.name());
    }
    let edits = Stream::new(Workload::ServeEdit, 1, 0).cycle();
    assert_eq!(edits.len(), 2 * 46);
    assert_eq!(edits.iter().filter(|i| i.kind == Kind::Edit).count(), 46);
}
