//! Regenerates **Table 2** of the paper: methods and sequents verified
//! without versus with the integrated proof language constructs.
//!
//! Run with `cargo run --release --example table2`.  Flags:
//!
//! * `--quick` — only the three-structure CI smoke subset;
//! * `--jobs N` — worker threads (default: available parallelism).
//!
//! The run writes `BENCH_table2.json` (override with `BENCH_TABLE2_OUT`),
//! including how many of the double run's sequents were answered by the
//! content-addressed proof cache: every obligation the "with" configuration
//! shares with the "without" configuration is re-proved for free.

use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| {
                    eprintln!("--jobs requires a number");
                    std::process::exit(2);
                })
        })
        .unwrap_or(0);
    let options = ipl::core::VerifyOptions::default()
        .with_config(ipl::suite::suite_config())
        .with_jobs(jobs);
    let start = Instant::now();
    let rows: Vec<ipl::suite::table2::Table2Row> = if quick {
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
}
