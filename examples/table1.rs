//! Regenerates **Table 1** of the paper: construct counts and verification
//! time for every benchmark data structure.
//!
//! Run with `cargo run --release --example table1` from the repository
//! root.  Besides the human-readable table, the run writes
//! `BENCH_table1.json`: per-benchmark methods proved, sequent counts,
//! wall-clock milliseconds, prover attribution, per-cascade-stage cost,
//! ground-core counters and proof-cache hits.  `cargo test --test tables`
//! checks the committed file against a fresh run; rerun this example to
//! accept an intended change.
//!
//! When `GITHUB_STEP_SUMMARY` is set (as it is inside GitHub Actions), a
//! markdown summary table — methods, sequents, wall-clock, prover
//! attribution and cache hits — is appended to it so reviewers see the
//! Table-1 delta without downloading the artifact.

use ipl::suite::{baseline, table1};
use std::io::Write;
use std::time::Instant;

fn main() -> std::io::Result<()> {
    let start = Instant::now();
    let rows = table1::generate();
    let total_wall_ms = start.elapsed().as_millis();

    println!("{}", table1::render(&rows));
    for row in &rows {
        println!(
            "  {:<19} {} of {} methods fully verified",
            row.name, row.methods_verified, row.methods
        );
    }
    println!("\n  total wall-clock: {total_wall_ms} ms");
    println!(
        "  proof-cache hits: {}",
        rows.iter().map(|r| r.cache_hits).sum::<usize>()
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

    let document = table1::document(&rows, total_wall_ms);
    std::fs::write("BENCH_table1.json", baseline::format_document(&document))?;
    println!("  wrote BENCH_table1.json");

    // CI job summary.
    if let Ok(summary_path) = std::env::var("GITHUB_STEP_SUMMARY") {
        let markdown = table1::render_markdown(&rows, total_wall_ms);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(summary_path)?
            .write_all(markdown.as_bytes())?;
    }
    Ok(())
}
