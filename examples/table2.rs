//! Regenerates **Table 2** of the paper: methods and sequents verified
//! without versus with the integrated proof language constructs.
//!
//! Run with `cargo run --release --example table2` from the repository
//! root.  The run writes `BENCH_table2.json`: per data structure, the
//! methods and sequents verified in each configuration, the columns of the
//! paper's table.  `cargo test --test tables` checks the committed file
//! against a fresh run; rerun this example to accept an intended change.

use ipl::suite::{baseline, table2};
use std::time::Instant;

fn main() -> std::io::Result<()> {
    let start = Instant::now();
    let rows = table2::generate();
    let total_wall_ms = start.elapsed().as_millis();

    println!("{}", table2::render(&rows));
    println!("  total wall-clock: {total_wall_ms} ms");

    let document = table2::document(&rows, total_wall_ms);
    std::fs::write("BENCH_table2.json", baseline::format_document(&document))?;
    println!("  wrote BENCH_table2.json");
    Ok(())
}
