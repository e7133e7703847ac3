//! Reproduction of **Table 2** of the paper: the effect of the integrated
//! proof language constructs — methods and sequents verified without the
//! constructs versus with them.

use crate::baseline::object;
use crate::benchmarks::{all, Benchmark};
use ipl_core::json::Json;
use ipl_core::{Session, VerifyOptions};
use serde::{Deserialize, Serialize};

/// One row of Table 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// Data structure name.
    pub name: String,
    /// Methods fully verified without proof constructs.
    pub methods_without: usize,
    /// Sequents proved without proof constructs.
    pub sequents_without: usize,
    /// Total sequents without proof constructs.
    pub sequents_total_without: usize,
    /// Methods fully verified with proof constructs.
    pub methods_with: usize,
    /// Total number of methods.
    pub methods_total: usize,
    /// Sequents proved with proof constructs.
    pub sequents_with: usize,
    /// Total sequents with proof constructs.
    pub sequents_total_with: usize,
    /// Sequents of the double run answered from the proof cache (the "with"
    /// pass re-proves every obligation it shares with the "without" pass for
    /// free).  Counted from the two reports' answers rather than from the
    /// process-global cache counters, which every session in the process
    /// adds to and verification never resets.
    pub cache_hits: usize,
}

/// Generates Table 2 by running each benchmark twice, on one worker: one
/// session per configuration (the session owns the cascade and store
/// handle, so the eight benchmarks of each pass share them).
pub fn generate() -> Vec<Table2Row> {
    let options = VerifyOptions::default().with_jobs(1);
    let without = Session::new(options.clone().with_proof_constructs(false));
    let with = Session::new(options);
    all().iter().map(|b| row(&without, &with, b)).collect()
}

fn row(without_session: &Session, with_session: &Session, benchmark: &Benchmark) -> Table2Row {
    let verify = |session: &Session| {
        session
            .verify(&ipl_core::Request::new(benchmark.source))
            .map(|response| response.report)
            .unwrap_or_else(|e| panic!("{}: {e}", benchmark.name))
    };
    let without = verify(without_session);
    let with = verify(with_session);
    Table2Row {
        name: benchmark.name.to_string(),
        methods_without: without.methods_verified(),
        sequents_without: without.proved_sequents(),
        sequents_total_without: without.total_sequents(),
        methods_with: with.methods_verified(),
        methods_total: with.method_count,
        sequents_with: with.proved_sequents(),
        sequents_total_with: with.total_sequents(),
        cache_hits: without.cache_hits() + with.cache_hits(),
    }
}

/// The `BENCH_table2.json` document: per benchmark, methods and sequents
/// verified with and without proof constructs and the double run's
/// proof-cache hits; for the run, its wall-clock and cache hits.  The
/// "with" pass re-proves every obligation it shares with the "without" pass
/// for free, which is the cache's headline win on this table.
pub fn document(rows: &[Table2Row], total_wall_ms: u128) -> Json {
    let count = |n: usize| Json::Number(n as f64);
    let benchmarks = rows.iter().map(|row| {
        object([
            ("name", Json::String(row.name.clone())),
            ("methods_total", count(row.methods_total)),
            ("methods_without", count(row.methods_without)),
            ("sequents_without", count(row.sequents_without)),
            ("sequents_total_without", count(row.sequents_total_without)),
            ("methods_with", count(row.methods_with)),
            ("sequents_with", count(row.sequents_with)),
            ("sequents_total_with", count(row.sequents_total_with)),
            ("cache_hits", count(row.cache_hits)),
        ])
    });
    object([
        ("total_wall_ms", Json::Number(total_wall_ms as f64)),
        ("cache_hits", count(rows.iter().map(|r| r.cache_hits).sum())),
        ("benchmarks", Json::Array(benchmarks.collect())),
    ])
}

/// Renders the table in the layout of the paper.
pub fn render(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "                         Without Proof Constructs        With Proof Constructs\n",
    );
    out.push_str("Data Structure      Methods Verified  Sequents Verified   Methods Verified  Sequents Verified\n");
    for r in rows {
        out.push_str(&format!(
            "{:<19} {:>7} of {:<6} {:>7} of {:<8} {:>9} of {:<6} {:>7} of {:<6}\n",
            r.name,
            r.methods_without,
            r.methods_total,
            r.sequents_without,
            r.sequents_total_without,
            r.methods_with,
            r.methods_total,
            r.sequents_with,
            r.sequents_total_with,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_layout() {
        let rows = vec![Table2Row {
            name: "Linked List".into(),
            methods_without: 6,
            sequents_without: 40,
            sequents_total_without: 40,
            methods_with: 6,
            methods_total: 6,
            sequents_with: 44,
            sequents_total_with: 44,
            cache_hits: 0,
        }];
        let text = render(&rows);
        assert!(text.contains("Linked List"));
        assert!(text.contains("6 of 6"));
    }

    #[test]
    fn document_prints_every_field_one_benchmark_per_line() {
        let row = Table2Row {
            name: "Linked List".into(),
            methods_without: 5,
            sequents_without: 40,
            sequents_total_without: 44,
            methods_with: 6,
            methods_total: 6,
            sequents_with: 48,
            sequents_total_with: 48,
            cache_hits: 17,
        };
        let text = crate::baseline::format_document(&document(&[row], 777));
        assert_eq!(
            text,
            "{\n  \"benchmarks\": [\n    {\"cache_hits\": 17, \"methods_total\": 6, \
             \"methods_with\": 6, \"methods_without\": 5, \"name\": \"Linked List\", \
             \"sequents_total_with\": 48, \"sequents_total_without\": 44, \
             \"sequents_with\": 48, \"sequents_without\": 40}\n  ],\n  \
             \"cache_hits\": 17,\n  \"total_wall_ms\": 777\n}\n"
        );
    }
}
