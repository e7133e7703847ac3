//! Regenerates **Table 2** of the paper: methods and sequents verified
//! without versus with the integrated proof language constructs.
//!
//! Run with `cargo run --release --example table2`.  Flags:
//!
//! * `--quick` — only the three-structure CI smoke subset;
//! * `--jobs N` — worker threads (default: available parallelism);
//! * `--check-baseline <path>` — turn the run into the CI regression gate:
//!   the process exits 1 when any benchmark of the committed baseline is
//!   missing or any of its method and sequent counts, with or without proof
//!   constructs, differs.  Cache hits are not compared.  The gate runs at
//!   `--jobs 1`; combined with `--quick` or with `--jobs N` for N ≠ 1 it
//!   exits 2.
//!
//! The run writes `BENCH_table2.json` (override with `BENCH_TABLE2_OUT`),
//! including how many of the double run's sequents were answered by the
//! content-addressed proof cache: every obligation the "with" configuration
//! shares with the "without" configuration is re-proved for free.

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
        ipl::suite::baseline::parse_table2_baseline(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse baseline {path}: {e}");
            std::process::exit(2);
        })
    });
    let options = ipl::core::VerifyOptions::default()
        .with_config(ipl::suite::suite_config())
        .with_jobs(args.jobs);
    let start = Instant::now();
    let rows: Vec<ipl::suite::table2::Table2Row> = if args.quick {
        ["Linked List", "Cursor List", "Association List"]
            .iter()
            .map(|name| {
                let benchmark = ipl::suite::by_name(name).expect("benchmark exists");
                ipl::suite::table2::row(&benchmark, &options)
            })
            .collect()
    } else {
        ipl::suite::table2::generate(&options)
    };
    let total_wall_ms = start.elapsed().as_millis();
    // Summed from the per-row reports, which count each answer's `cached`
    // flag; the process-global cache counters also count every other
    // session in the process.
    let cache_hits: usize = rows.iter().map(|r| r.cache_hits).sum();

    println!("{}", ipl::suite::table2::render(&rows));
    println!("  total wall-clock: {total_wall_ms} ms");
    println!(
        "  threads: {}, proof-cache hits across the double run: {cache_hits}",
        options.effective_jobs()
    );

    let json = ipl::suite::table2::to_bench_json(
        &rows,
        total_wall_ms,
        options.effective_jobs(),
        cache_hits,
    );
    let out_path = std::env::var("BENCH_TABLE2_OUT").unwrap_or_else(|_| "BENCH_table2.json".into());
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("  wrote {out_path}"),
        Err(e) => eprintln!("  could not write {out_path}: {e}"),
    }

    // Regression gate.
    if let Some(baseline) = baseline {
        let violations = ipl::suite::baseline::check_table2_baseline(&rows, &baseline);
        if violations.is_empty() {
            println!("  baseline check passed: method and sequent counts unchanged");
        } else {
            eprintln!("  BASELINE REGRESSION:");
            for violation in &violations {
                eprintln!("    - {violation}");
            }
            std::process::exit(1);
        }
    }
}
