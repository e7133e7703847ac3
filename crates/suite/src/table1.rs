//! Reproduction of **Table 1** of the paper: method, statement, specification
//! and integrated-proof-language construct counts for the verified data
//! structures, together with verification time.

use crate::baseline::object;
use crate::benchmarks::{all, Benchmark};
use ipl_core::json::Json;
use ipl_core::VerifyOptions;
use ipl_gcl::cmd::ConstructCounts;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// One row of Table 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Data structure name.
    pub name: String,
    /// Number of methods.
    pub methods: usize,
    /// Number of executable statements.
    pub statements: usize,
    /// Verification time.
    pub time: Duration,
    /// Number of specification variables.
    pub specvars: usize,
    /// Number of data structure invariants.
    pub invariants: usize,
    /// Aggregated proof-construct counts.
    pub counts: ConstructCounts,
    /// Methods fully verified / total (for the honesty column of the
    /// reproduction — the paper verifies everything).
    pub methods_verified: usize,
    /// Total sequents dispatched to the cascade.
    pub sequents_total: usize,
    /// Sequents proved.
    pub sequents_proved: usize,
    /// Sequents quarantined by a contained prover/driver crash (0 in a
    /// healthy run; nonzero under chaos injection).
    pub sequents_crashed: usize,
    /// Sequents never dispatched because the module deadline passed.
    pub sequents_skipped: usize,
    /// Sequents discharged per cascade stage (prover name -> count;
    /// `"trivial"` counts the sequents eliminated during splitting).
    pub prover_counts: BTreeMap<String, usize>,
    /// Wall-clock spent per cascade stage, milliseconds (includes stages
    /// that were attempted and failed).
    pub stage_ms: BTreeMap<String, u128>,
    /// Sequents answered from the content-addressed proof cache.
    pub cache_hits: usize,
    /// CDCL ground-core search counters accumulated while verifying this
    /// benchmark (decisions, bool_propagations, theory_propagations,
    /// conflicts, learned_clauses).
    pub ground_stats: BTreeMap<String, u64>,
}

/// Generates Table 1 by verifying every benchmark with its proof constructs,
/// one after another through one long-lived [`ipl_core::Session`] on one
/// worker.  A row's ground counters are the growth of the process-global
/// counters across its benchmark, so they count its search alone only while
/// nothing else in the process verifies; and two workers can both miss the
/// cache on one fingerprint and both count its search.
pub fn generate() -> Vec<Table1Row> {
    let session = ipl_core::Session::new(VerifyOptions::default().with_jobs(1));
    all().iter().map(|b| row(&session, b)).collect()
}

fn row(session: &ipl_core::Session, benchmark: &Benchmark) -> Table1Row {
    let ground_before = ipl_provers::ground::stats_snapshot();
    let report = session
        .verify(&ipl_core::Request::new(benchmark.source))
        .map(|response| response.report)
        .unwrap_or_else(|e| panic!("{}: {e}", benchmark.name));
    let ground = ipl_provers::ground::stats_snapshot().since(&ground_before);
    Table1Row {
        name: benchmark.name.to_string(),
        methods: report.method_count,
        statements: report.statement_count,
        time: report.total_duration(),
        specvars: report.specvar_count,
        invariants: report.invariant_count,
        counts: report.total_counts(),
        methods_verified: report.methods_verified(),
        sequents_total: report.total_sequents(),
        sequents_proved: report.proved_sequents(),
        sequents_crashed: report.crashed_sequents(),
        sequents_skipped: report.skipped_sequents(),
        prover_counts: report.prover_counts(),
        cache_hits: report.cache_hits(),
        stage_ms: report
            .stage_durations()
            .into_iter()
            .map(|(stage, duration)| (stage, duration.as_millis()))
            .collect(),
        ground_stats: [
            ("decisions".to_string(), ground.decisions),
            ("bool_propagations".to_string(), ground.bool_propagations),
            (
                "theory_propagations".to_string(),
                ground.theory_propagations,
            ),
            ("conflicts".to_string(), ground.conflicts),
            ("learned_clauses".to_string(), ground.learned_clauses),
        ]
        .into_iter()
        .collect(),
    }
}

/// The `BENCH_table1.json` document: per benchmark, methods and sequents
/// verified, wall-clock, proof-cache hits, prover attribution, per-stage
/// cost and ground-core counters; for the run, its wall-clock and cache
/// hits.
pub fn document(rows: &[Table1Row], total_wall_ms: u128) -> Json {
    let benchmarks = rows.iter().map(|row| {
        let count = |n: usize| Json::Number(n as f64);
        object([
            ("name", Json::String(row.name.clone())),
            ("methods", count(row.methods)),
            ("methods_verified", count(row.methods_verified)),
            ("sequents_total", count(row.sequents_total)),
            ("sequents_proved", count(row.sequents_proved)),
            ("sequents_crashed", count(row.sequents_crashed)),
            ("sequents_skipped", count(row.sequents_skipped)),
            ("wall_ms", Json::Number(row.time.as_millis() as f64)),
            ("cache_hits", count(row.cache_hits)),
            (
                "provers",
                object(row.prover_counts.iter().map(|(k, &n)| (k, count(n)))),
            ),
            (
                "stage_ms",
                object(
                    row.stage_ms
                        .iter()
                        .map(|(k, &ms)| (k, Json::Number(ms as f64))),
                ),
            ),
            (
                "ground_stats",
                object(
                    row.ground_stats
                        .iter()
                        .map(|(k, &n)| (k, Json::Number(n as f64))),
                ),
            ),
        ])
    });
    object([
        ("total_wall_ms", Json::Number(total_wall_ms as f64)),
        ("cache_hits", Json::Number(cache_hits(rows) as f64)),
        ("benchmarks", Json::Array(benchmarks.collect())),
    ])
}

/// Proof-cache hits across the rows.
fn cache_hits(rows: &[Table1Row]) -> usize {
    rows.iter().map(|r| r.cache_hits).sum()
}

/// Renders the rows as a GitHub-flavoured markdown table (the CI job
/// summary), including the prover that discharged each sequent and the
/// per-stage cost, so reviewers see the Table-1 delta without downloading
/// the artifact.
pub fn render_markdown(rows: &[Table1Row], total_wall_ms: u128) -> String {
    let mut out = String::from("## Table 1 benchmark results\n\n");
    out.push_str(
        "| Benchmark | Methods | Sequents | Crashed/Skipped | Wall (ms) | Discharged by | \
         Stage cost (ms) | Ground dec/bprop/tprop/conf/learn |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    let fmt_map = |entries: Vec<String>| {
        if entries.is_empty() {
            "—".to_string()
        } else {
            entries.join(", ")
        }
    };
    for row in rows {
        let provers = fmt_map(
            row.prover_counts
                .iter()
                .map(|(prover, count)| format!("{prover} {count}"))
                .collect(),
        );
        let stages = fmt_map(
            row.stage_ms
                .iter()
                .filter(|(_, ms)| **ms > 0)
                .map(|(stage, ms)| format!("{stage} {ms}"))
                .collect(),
        );
        let stat = |key: &str| row.ground_stats.get(key).copied().unwrap_or(0);
        out.push_str(&format!(
            "| {} | {}/{} | {}/{} | {}/{} | {} | {} | {} | {}/{}/{}/{}/{} |\n",
            row.name,
            row.methods_verified,
            row.methods,
            row.sequents_proved,
            row.sequents_total,
            row.sequents_crashed,
            row.sequents_skipped,
            row.time.as_millis(),
            provers,
            stages,
            stat("decisions"),
            stat("bool_propagations"),
            stat("theory_propagations"),
            stat("conflicts"),
            stat("learned_clauses"),
        ));
    }
    let methods_verified: usize = rows.iter().map(|r| r.methods_verified).sum();
    let methods: usize = rows.iter().map(|r| r.methods).sum();
    out.push_str(&format!(
        "\n**{methods_verified}/{methods} methods verified, total wall-clock {total_wall_ms} ms**\n"
    ));
    let crashed: usize = rows.iter().map(|r| r.sequents_crashed).sum();
    let skipped: usize = rows.iter().map(|r| r.sequents_skipped).sum();
    if crashed + skipped > 0 {
        out.push_str(&format!(
            "\n**Faults: {crashed} sequent(s) crashed, {skipped} deadline-skipped** \
             (quarantined, not verdicts)\n"
        ));
    }
    let total_stat = |key: &str| -> u64 {
        rows.iter()
            .map(|r| r.ground_stats.get(key).copied().unwrap_or(0))
            .sum()
    };
    out.push_str(&format!(
        "\nGround CDCL core: {} decisions, {} bool propagations, {} theory propagations, \
         {} conflicts, {} learned clauses\n",
        total_stat("decisions"),
        total_stat("bool_propagations"),
        total_stat("theory_propagations"),
        total_stat("conflicts"),
        total_stat("learned_clauses"),
    ));
    let hits = cache_hits(rows);
    out.push_str(&format!(
        "\nOne worker thread, {hits} proof-cache hit{}\n",
        if hits == 1 { "" } else { "s" },
    ));
    out
}

/// Renders the table in the layout of the paper.
pub fn render(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "Data Structure      Meth  Stmt  Time(s)  Spec  Inv  LoopInv  note(from)  loc  assm  mp  pAny  inst  wit  pWit  case  ind\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<19} {:>4} {:>5} {:>8.2} {:>5} {:>4} {:>8} {:>6}({:<3}) {:>4} {:>5} {:>3} {:>5} {:>5} {:>4} {:>5} {:>5} {:>4}\n",
            r.name,
            r.methods,
            r.statements,
            r.time.as_secs_f64(),
            r.specvars,
            r.invariants,
            r.counts.loop_invariants,
            r.counts.note,
            r.counts.note_with_from,
            r.counts.localize,
            r.counts.assuming,
            r.counts.mp,
            r.counts.pick_any,
            r.counts.instantiate,
            r.counts.witness,
            r.counts.pick_witness,
            r.counts.cases,
            r.counts.induct,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_counts_do_not_require_running_the_provers() {
        // Structure statistics (everything except time and verification
        // status) are available from lowering alone; check a couple of rows.
        let arraylist = crate::by_name("Array List").unwrap();
        let module = ipl_lang::parse_module(arraylist.source).unwrap();
        let lowered = ipl_lang::lower_module(&module).unwrap();
        let mut counts = ConstructCounts::default();
        for m in &lowered.methods {
            counts.add(&m.counts);
        }
        assert!(counts.note >= 3, "array list uses note statements");
        assert!(counts.witness >= 1, "array list uses a witness statement");

        let hash = crate::by_name("Hash Table").unwrap();
        let module = ipl_lang::parse_module(hash.source).unwrap();
        let lowered = ipl_lang::lower_module(&module).unwrap();
        let mut hash_counts = ConstructCounts::default();
        for m in &lowered.methods {
            hash_counts.add(&m.counts);
        }
        assert!(hash_counts.localize >= 1);
        assert!(hash_counts.instantiate >= 1);
        assert!(hash_counts.mp >= 1);
        assert!(hash_counts.cases >= 1);
        assert!(
            hash_counts.total_proof_statements() > counts.total_proof_statements() / 2,
            "hash table is proof-heavy"
        );
    }

    #[test]
    fn render_produces_one_line_per_structure() {
        let rows: Vec<Table1Row> = crate::all()
            .iter()
            .map(|b| {
                let module = ipl_lang::parse_module(b.source).unwrap();
                let lowered = ipl_lang::lower_module(&module).unwrap();
                let mut counts = ConstructCounts::default();
                for m in &lowered.methods {
                    counts.add(&m.counts);
                }
                Table1Row {
                    name: b.name.to_string(),
                    methods: module.methods.len(),
                    statements: module.statement_count(),
                    time: Duration::from_secs(0),
                    specvars: module.specvars.len(),
                    invariants: module.invariants.len(),
                    counts,
                    methods_verified: 0,
                    sequents_total: 0,
                    sequents_proved: 0,
                    sequents_crashed: 0,
                    sequents_skipped: 0,
                    prover_counts: Default::default(),
                    stage_ms: Default::default(),
                    cache_hits: 0,
                    ground_stats: Default::default(),
                }
            })
            .collect();
        let text = render(&rows);
        assert_eq!(text.lines().count(), 9, "header plus eight rows");
        assert!(text.contains("Hash Table"));
        assert!(text.contains("Linked List"));
    }

    #[test]
    fn document_prints_every_field_one_benchmark_per_line() {
        let row = Table1Row {
            name: "Linked List".to_string(),
            methods: 6,
            statements: 14,
            time: Duration::from_millis(12),
            specvars: 2,
            invariants: 1,
            counts: ConstructCounts::default(),
            methods_verified: 6,
            sequents_total: 40,
            sequents_proved: 40,
            sequents_crashed: 1,
            sequents_skipped: 2,
            prover_counts: [("smt-ground".to_string(), 30), ("trivial".to_string(), 10)]
                .into_iter()
                .collect(),
            stage_ms: [
                ("smt-ground".to_string(), 9u128),
                ("bapa".to_string(), 2u128),
            ]
            .into_iter()
            .collect(),
            cache_hits: 7,
            ground_stats: [
                ("decisions".to_string(), 63u64),
                ("bool_propagations".to_string(), 540u64),
                ("theory_propagations".to_string(), 26u64),
                ("conflicts".to_string(), 73u64),
                ("learned_clauses".to_string(), 18u64),
            ]
            .into_iter()
            .collect(),
        };
        let text = crate::baseline::format_document(&document(&[row.clone(), row], 1234));
        let line = "{\"cache_hits\": 7, \"ground_stats\": {\"bool_propagations\": 540, \
                    \"conflicts\": 73, \"decisions\": 63, \"learned_clauses\": 18, \
                    \"theory_propagations\": 26}, \"methods\": 6, \"methods_verified\": 6, \
                    \"name\": \"Linked List\", \"provers\": {\"smt-ground\": 30, \"trivial\": 10}, \
                    \"sequents_crashed\": 1, \"sequents_proved\": 40, \"sequents_skipped\": 2, \
                    \"sequents_total\": 40, \"stage_ms\": {\"bapa\": 2, \"smt-ground\": 9}, \
                    \"wall_ms\": 12}";
        assert_eq!(
            text,
            format!(
                "{{\n  \"benchmarks\": [\n    {line},\n    {line}\n  ],\n  \
                 \"cache_hits\": 14,\n  \"total_wall_ms\": 1234\n}}\n"
            )
        );
    }
}
