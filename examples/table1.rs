//! Regenerates **Table 1** of the paper: construct counts and verification
//! time for every benchmark data structure.
//!
//! Run with `cargo run --release --example table1`.  Flags:
//!
//! * `--quick` — regenerate only a three-structure subset (the CI smoke
//!   configuration).
//! * `--jobs N` — worker threads for the parallel verification driver
//!   (default `0` = the machine's available parallelism; `1` forces the
//!   sequential path).
//! * `--check-baseline <path>` — turn the run into the CI regression gate:
//!   the fresh results are compared against the committed baseline document
//!   and the process exits 1 when any benchmark is missing, verifies fewer
//!   methods than the baseline, or has a different prover attribution
//!   (sequents discharged per cascade stage) or different ground-core
//!   counters.  The gate runs at `--jobs 1`: with two workers, both can miss
//!   the cache on one fingerprint and both count its search.  Combined with
//!   `--quick` or with `--jobs N` for N ≠ 1 it exits 2.  Wall-clock is
//!   reported, never gated: `perfbench/` measures speed.
//!
//! Besides the human-readable table, the run writes `BENCH_table1.json`
//! (override the path with the `BENCH_TABLE1_OUT` environment variable):
//! per-benchmark methods proved, sequent counts, wall-clock milliseconds,
//! prover attribution, per-cascade-stage cost, ground-core counters and
//! proof-cache hits, plus the worker-thread count.
//!
//! When `GITHUB_STEP_SUMMARY` is set (as it is inside GitHub Actions), a
//! markdown summary table — methods, sequents, wall-clock, prover
//! attribution, threads used and cache hits — is appended to it so
//! reviewers see the Table-1 delta without downloading the artifact.

use std::io::Write;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = ipl::suite::baseline::TableArgs::parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    // Read the committed baseline *before* this run overwrites the file.
    let baseline = args.baseline.as_deref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        ipl::suite::baseline::parse_baseline(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse baseline {path}: {e}");
            std::process::exit(2);
        })
    });

    let options = ipl::core::VerifyOptions::default()
        .with_config(ipl::suite::suite_config())
        .with_jobs(args.jobs);
    let start = Instant::now();
    let rows: Vec<ipl::suite::table1::Table1Row> = if args.quick {
        // One session for the whole subset: the cascade and the store
        // handle stay warm across the three benchmarks.
        let session = ipl::core::Session::new(options.clone());
        ["Linked List", "Cursor List", "Association List"]
            .iter()
            .map(|name| {
                let benchmark = ipl::suite::by_name(name).expect("benchmark exists");
                ipl::suite::table1::row_in(&session, &benchmark)
            })
            .collect()
    } else {
        ipl::suite::table1::generate(&options)
    };
    let total_wall_ms = start.elapsed().as_millis();

    println!("{}", ipl::suite::table1::render(&rows));
    for row in &rows {
        println!(
            "  {:<19} {} of {} methods fully verified",
            row.name, row.methods_verified, row.methods
        );
    }
    let meta = ipl::suite::table1::BenchMeta {
        total_wall_ms,
        jobs: options.effective_jobs(),
        cache_hits: rows.iter().map(|r| r.cache_hits).sum(),
    };
    println!("\n  total wall-clock: {total_wall_ms} ms");
    println!(
        "  threads: {}, proof-cache hits: {}",
        meta.jobs, meta.cache_hits
    );
    let ground_total = |key: &str| -> u64 {
        rows.iter()
            .map(|r| r.ground_stats.get(key).copied().unwrap_or(0))
            .sum()
    };
    println!(
        "  ground CDCL: {} decisions, {} bool propagations, {} theory propagations, \
         {} conflicts, {} learned clauses",
        ground_total("decisions"),
        ground_total("bool_propagations"),
        ground_total("theory_propagations"),
        ground_total("conflicts"),
        ground_total("learned_clauses"),
    );

    let json = ipl::suite::table1::to_bench_json(&rows, &meta);
    let out_path = std::env::var("BENCH_TABLE1_OUT").unwrap_or_else(|_| "BENCH_table1.json".into());
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("  wrote {out_path}"),
        Err(e) => eprintln!("  could not write {out_path}: {e}"),
    }

    // CI job summary.
    if let Ok(summary_path) = std::env::var("GITHUB_STEP_SUMMARY") {
        let markdown = ipl::suite::table1::render_markdown(&rows, &meta);
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&summary_path)
        {
            Ok(mut file) => {
                if let Err(e) = file.write_all(markdown.as_bytes()) {
                    eprintln!("  could not append job summary: {e}");
                }
            }
            Err(e) => eprintln!("  could not open {summary_path}: {e}"),
        }
    }

    // Regression gate.
    if let Some(baseline) = baseline {
        let violations = ipl::suite::baseline::check_baseline(&rows, &baseline);
        if violations.is_empty() {
            println!(
                "  baseline check passed: no benchmark lost methods, \
                 prover attribution and ground counters unchanged"
            );
        } else {
            eprintln!("  BASELINE REGRESSION:");
            for violation in &violations {
                eprintln!("    - {violation}");
            }
            std::process::exit(1);
        }
    }
}
