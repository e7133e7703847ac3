//! Diagnostic: list the unproved sequents of every benchmark, with their
//! goals and (with `--dump`) the assumptions the provers actually saw.
//!
//! ```bash
//! cargo run --release --example failing [-- [--dump] [--all] [name...]]
//! ```
//!
//! * `--dump` re-proves each failing method sequent by sequent and prints
//!   the selected assumption base and goal of every unproved sequent;
//! * `--all` makes the dump use the *full* assumption base instead of the
//!   `from`-clause selection (useful for telling "assumption missing from
//!   the selection" apart from "provers too weak");
//! * `--show-proved` includes proved sequents in the dump;
//! * any other argument filters benchmarks by substring match.
//!
//! With every Table-1 method verifying, the default run prints nothing —
//! this exists for diagnosing the next regression.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dump = args.iter().any(|a| a == "--dump");
    let names: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let options = ipl::core::VerifyOptions::default();
    for benchmark in ipl::suite::all() {
        if !names.is_empty() && !names.iter().any(|n| benchmark.name.contains(n.as_str())) {
            continue;
        }
        let report = ipl::suite::verify_benchmark(&benchmark, &options).unwrap();
        for method in &report.methods {
            if method.fully_proved() {
                continue;
            }
            println!(
                "{} :: {} ({}/{})",
                benchmark.name, method.name, method.proved_sequents, method.total_sequents
            );
            for sequent in method.failed_sequents() {
                println!("  UNPROVED {} [{}]", sequent.name, sequent.goal_label);
            }
            if dump {
                dump_method(&benchmark, &method.name);
            }
        }
    }
}

fn dump_method(benchmark: &ipl::suite::Benchmark, method_name: &str) {
    use ipl::gcl::split::split_all;
    use ipl::gcl::translate::{translate_ext, TranslateCtx};
    use ipl::gcl::wlp::vc_of;
    let module = ipl::lang::parse_module(benchmark.source).unwrap();
    let lowered = ipl::lang::lower_module(&module).unwrap();
    let cascade = ipl::provers::Cascade::standard(ipl::provers::ProverConfig::default());
    for method in &lowered.methods {
        if method.name != method_name {
            continue;
        }
        let mut ctx = TranslateCtx::new();
        let simple = translate_ext(&method.command, &mut ctx);
        let vc = vc_of(&simple);
        for sequent in split_all(&vc) {
            if sequent.is_trivially_valid() {
                continue;
            }
            let assumptions: Vec<ipl::logic::Labeled> = if std::env::args().any(|a| a == "--all") {
                sequent.assumptions.clone()
            } else {
                sequent
                    .selected_assumptions()
                    .into_iter()
                    .cloned()
                    .collect()
            };
            let query =
                ipl::provers::Query::new(assumptions, sequent.goal.clone(), method.env.clone());
            let answer = cascade.prove(&query);
            if answer.outcome == ipl::provers::Outcome::Proved
                && !std::env::args().any(|a| a == "--show-proved")
            {
                continue;
            }
            println!("  ---- sequent {} [{}]", sequent.name, sequent.goal_label);
            for a in &query.assumptions {
                println!("    [{}] {}", a.label, a.form);
            }
            println!("    |- {}", sequent.goal);
        }
    }
}
