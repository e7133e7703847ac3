//! The table gate: Table 1 and Table 2, run afresh and compared field by
//! field with the committed `BENCH_table1.json` and `BENCH_table2.json` by
//! `ipl::suite::baseline::compare`.  When a change shifts a count on
//! purpose, regenerate the files with `cargo run --release --example table1`
//! and `--example table2`.
//!
//! This file holds one test, so nothing else verifies in its process: Table
//! 1's ground counters are the growth of process-global counters, and Table
//! 1 must start from an empty proof cache, or cached answers would skip the
//! searches it counts.  That is also why it runs before Table 2.

use ipl::suite::baseline::{compare, parse_json, Json};
use ipl::suite::{table1, table2};
use std::path::Path;

#[test]
fn both_tables_match_the_committed_documents() {
    // The run-level fields, wall-clock among them, are not compared.
    let table1 = table1::document(&table1::generate(), 0);
    let table2 = table2::document(&table2::generate(), 0);
    let mut violations = Vec::new();
    for (file, fresh) in [("BENCH_table1.json", table1), ("BENCH_table2.json", table2)] {
        violations.extend(
            compare(&committed(file), &fresh)
                .into_iter()
                .map(|violation| format!("{file}: {violation}")),
        );
    }
    assert!(
        violations.is_empty(),
        "the tables differ from the committed documents (regenerate them with \
         the table1 and table2 examples if the change is intended):\n  {}",
        violations.join("\n  ")
    );
}

fn committed(file: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    parse_json(&text).unwrap_or_else(|e| panic!("cannot parse {file}: {e}"))
}
