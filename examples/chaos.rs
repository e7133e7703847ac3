//! The chaos-smoke driver: verifies the benchmark suite twice — once
//! fault-free, once under a deterministic injected-fault plan — and checks
//! the harness's load-bearing invariant: **faults only degrade**.  Every
//! sequent the chaos run proves must also be proved by the fault-free run;
//! injected panics surface as quarantined `CRASHED` sequents, never as
//! aborts and never as verdicts.
//!
//! Run with `cargo run --release --example chaos`.  Flags:
//!
//! * `--quick` — three-benchmark subset (the CI smoke configuration).
//! * `--seed N` — seed for the `default_chaos` plan (default 7).
//! * `--plan SPEC` — full plan spec (same grammar as `ipl verify
//!   --fault-plan`, e.g. `seed=42,panic=5,delay=10`); overrides `--seed`.
//! * `--jobs N` — worker threads (default 0 = available parallelism).
//!
//! Exits non-zero when the subset invariant is violated (a fabricated
//! proof) or when the chaos run fails outright.  When `GITHUB_STEP_SUMMARY`
//! is set, a per-benchmark markdown table of proved/crashed/skipped counts
//! is appended to the job summary.

use ipl::core::{ModuleReport, VerifyOptions};
use ipl::provers::{fault, ProverConfig};
use std::collections::BTreeSet;
use std::io::Write;

fn options(jobs: usize) -> VerifyOptions {
    VerifyOptions::default()
        .with_config(ProverConfig {
            // No in-memory/persistent cache: a cached Proved would bypass
            // fault injection and weaken the invariant being smoked.
            use_cache: false,
            // Generous prover deadlines so injected 1 ms delays can never
            // tip a real timeout and make the comparison machine-dependent.
            per_prover_timeout_ms: 600_000,
            ..ProverConfig::default()
        })
        .with_record_sequents(true)
        .with_jobs(jobs)
}

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let arg_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            })
        })
    };
    let seed = arg_value("--seed")
        .map(|v| {
            v.parse::<u64>().unwrap_or_else(|_| {
                eprintln!("--seed requires a number");
                std::process::exit(2);
            })
        })
        .unwrap_or(7);
    let jobs = arg_value("--jobs")
        .map(|v| {
            v.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("--jobs requires a number");
                std::process::exit(2);
            })
        })
        .unwrap_or(0);
    let plan = match arg_value("--plan") {
        Some(spec) => fault::FaultPlan::parse(&spec).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
        None => fault::default_chaos(seed),
    };

    let benchmarks: Vec<_> = if quick {
        ["Linked List", "Cursor List", "Association List"]
            .iter()
            .map(|name| ipl::suite::by_name(name).expect("benchmark exists"))
            .collect()
    } else {
        ipl::suite::all().to_vec()
    };

    println!("chaos plan: {plan:?}\n");
    let session = ipl::core::Session::new(options(jobs));
    let mut rows = Vec::new();
    let mut violations = 0usize;
    for benchmark in &benchmarks {
        let verify = |context: &str| {
            session
                .verify(&ipl::core::Request::new(benchmark.source))
                .unwrap_or_else(|e| panic!("{} {context}: {e}", benchmark.name))
                .report
        };
        let clean = verify("fault-free");
        let chaos = fault::with_plan(Some(plan), || verify("under chaos"));

        let fabricated: Vec<_> = proved_set(&chaos)
            .difference(&proved_set(&clean))
            .cloned()
            .collect();
        if !fabricated.is_empty() {
            eprintln!(
                "INVARIANT VIOLATION: {} proved under faults but not fault-free: {fabricated:?}",
                benchmark.name
            );
            violations += 1;
        }
        println!(
            "{:<19} proved {}/{} (fault-free {}/{}), {} crashed, {} skipped",
            benchmark.name,
            chaos.proved_sequents(),
            chaos.total_sequents(),
            clean.proved_sequents(),
            clean.total_sequents(),
            chaos.crashed_sequents(),
            chaos.skipped_sequents(),
        );
        rows.push((benchmark.name, clean, chaos));
    }

    let total = |f: &dyn Fn(&ModuleReport) -> usize| -> usize {
        rows.iter().map(|(_, _, chaos)| f(chaos)).sum()
    };
    let crashed = total(&ModuleReport::crashed_sequents);
    let skipped = total(&ModuleReport::skipped_sequents);
    println!(
        "\ntotals: {}/{} sequents proved under chaos, {crashed} crashed, {skipped} skipped",
        total(&ModuleReport::proved_sequents),
        total(&ModuleReport::total_sequents),
    );

    if let Ok(summary_path) = std::env::var("GITHUB_STEP_SUMMARY") {
        let mut md = String::from("## Chaos smoke (fault injection)\n\n");
        md.push_str(&format!("Plan: `{plan:?}`\n\n"));
        md.push_str("| Benchmark | Proved (chaos) | Proved (clean) | Crashed | Skipped |\n");
        md.push_str("|---|---|---|---|---|\n");
        for (name, clean, chaos) in &rows {
            md.push_str(&format!(
                "| {name} | {}/{} | {}/{} | {} | {} |\n",
                chaos.proved_sequents(),
                chaos.total_sequents(),
                clean.proved_sequents(),
                clean.total_sequents(),
                chaos.crashed_sequents(),
                chaos.skipped_sequents(),
            ));
        }
        md.push_str(&format!(
            "\n**Subset invariant {}** — every chaos-proved sequent was also proved \
             fault-free; {crashed} crash(es) quarantined, {skipped} skip(s).\n",
            if violations == 0 { "held" } else { "VIOLATED" },
        ));
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&summary_path)
        {
            Ok(mut file) => {
                if let Err(e) = file.write_all(md.as_bytes()) {
                    eprintln!("could not append job summary: {e}");
                }
            }
            Err(e) => eprintln!("could not open {summary_path}: {e}"),
        }
    }

    if violations > 0 {
        std::process::exit(1);
    }
    println!("subset invariant held: faults only degrade, never fabricate");
}
