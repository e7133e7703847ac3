//! Reproduction of **Table 2** of the paper: the effect of the integrated
//! proof language constructs — methods and sequents verified without the
//! constructs versus with them.

use crate::benchmarks::{all, Benchmark};
use ipl_core::json;
use ipl_core::VerifyOptions;
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
    /// free).  Derived from the two reports rather than the process-global
    /// counters, which are reset at the start of every `Session::verify` call.
    pub cache_hits: usize,
}

/// Generates Table 2 by running each benchmark twice: one session per
/// configuration (the session owns the cascade and store handle, so the
/// eight benchmarks of each pass share them).
pub fn generate(options: &VerifyOptions) -> Vec<Table2Row> {
    let (without, with) = sessions(options);
    all().iter().map(|b| row_in(&without, &with, b)).collect()
}

/// Generates one row with throwaway sessions.
pub fn row(benchmark: &Benchmark, options: &VerifyOptions) -> Table2Row {
    let (without, with) = sessions(options);
    row_in(&without, &with, benchmark)
}

/// The two sessions of the double run: without proof constructs, and with.
fn sessions(options: &VerifyOptions) -> (ipl_core::Session, ipl_core::Session) {
    let without = ipl_core::Session::new(options.clone().with_proof_constructs(false));
    let with = ipl_core::Session::new(options.clone());
    (without, with)
}

fn row_in(
    without_session: &ipl_core::Session,
    with_session: &ipl_core::Session,
    benchmark: &Benchmark,
) -> Table2Row {
    let verify = |session: &ipl_core::Session| {
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

/// Serialises the rows as the machine-readable `BENCH_table2.json` document
/// (CI artifact; hand-rolled JSON — the vendored `serde` is a no-op stub).
/// `cache_hits` records how many sequents of the double run were answered
/// from the proof cache: the "with" pass re-proves every obligation it
/// shares with the "without" pass for free, which is the cache's headline
/// win on this table.
pub fn to_bench_json(
    rows: &[Table2Row],
    total_wall_ms: u128,
    jobs: usize,
    cache_hits: usize,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"total_wall_ms\": {total_wall_ms},\n"));
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!("  \"cache_hits\": {cache_hits},\n"));
    out.push_str("  \"benchmarks\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"methods_total\": {}, \
             \"methods_without\": {}, \"sequents_without\": {}, \"sequents_total_without\": {}, \
             \"methods_with\": {}, \"sequents_with\": {}, \"sequents_total_with\": {}, \
             \"cache_hits\": {}}}{}\n",
            json::string(&row.name),
            row.methods_total,
            row.methods_without,
            row.sequents_without,
            row.sequents_total_without,
            row.methods_with,
            row.sequents_with,
            row.sequents_total_with,
            row.cache_hits,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
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
    fn bench_json_is_well_formed() {
        let rows = vec![Table2Row {
            name: "Linked List".into(),
            methods_without: 5,
            sequents_without: 40,
            sequents_total_without: 44,
            methods_with: 6,
            methods_total: 6,
            sequents_with: 48,
            sequents_total_with: 48,
            cache_hits: 17,
        }];
        let json = to_bench_json(&rows, 777, 4, 31);
        assert!(json.contains("\"total_wall_ms\": 777"));
        assert!(json.contains("\"jobs\": 4"));
        assert!(json.contains("\"cache_hits\": 31"));
        assert!(json.contains("\"cache_hits\": 17"));
        assert!(json.contains("\"methods_with\": 6"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(ipl_core::json::parse_json(&json).is_ok());
    }
}
