//! The CI Table 1 and Table 2 gates.
//!
//! [`check_baseline`] compares a fresh set of [`Table1Row`]s against the
//! committed `BENCH_table1.json` and reports every violation: a benchmark
//! disappearing, a benchmark verifying *fewer methods*, or a benchmark whose
//! prover attribution (how many sequents each cascade stage discharged) or
//! ground-core counters (decisions, propagations, conflicts, learned
//! clauses) changed at all.  These are facts that do not depend on the
//! machine, provided the run uses one worker: two workers can both miss the
//! cache on one fingerprint and then both count its search.  Wall-clock is
//! reported in Table 1 but never gated here.  An intended shift is accepted
//! by regenerating the committed file.
//!
//! [`check_table2_baseline`] does the same for Table 2 against the
//! committed `BENCH_table2.json`: every benchmark's methods and sequents
//! verified, with and without proof constructs, and their totals must equal
//! the committed counts exactly.  Its cache hits are not compared.

use crate::table1::Table1Row;
use crate::table2::Table2Row;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;

pub use ipl_core::json::{parse_json, Json};

/// The command line of the Table 1 and Table 2 examples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableArgs {
    /// `--quick`: only the three-structure smoke subset.
    pub quick: bool,
    /// `--jobs N`: worker threads, `0` for the available parallelism.
    pub jobs: usize,
    /// `--check-baseline PATH`: the committed document to gate against.
    pub baseline: Option<String>,
}

impl TableArgs {
    /// Parses the flags.  A gate runs the full table at `--jobs 1`: the
    /// quick subset would report every other benchmark as missing, and two
    /// workers can both miss the cache on one fingerprint and both count
    /// its search.
    ///
    /// # Errors
    ///
    /// Returns the message for a flag without its value, `--check-baseline`
    /// with `--quick`, or `--check-baseline` with `--jobs` other than 1.
    pub fn parse(args: &[String]) -> Result<TableArgs, String> {
        let value = |flag: &str, what: &str| match args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => args
                .get(i + 1)
                .map(Some)
                .ok_or_else(|| format!("{flag} requires {what}")),
        };
        let quick = args.iter().any(|a| a == "--quick");
        let jobs = value("--jobs", "a number")?
            .map(|v| v.parse::<usize>().map_err(|_| "--jobs requires a number"))
            .transpose()?;
        let baseline = value("--check-baseline", "a path argument")?.cloned();
        if baseline.is_some() {
            if quick {
                return Err("--check-baseline requires the full run; drop --quick".into());
            }
            if let Some(jobs) = jobs.filter(|&jobs| jobs != 1) {
                return Err(format!(
                    "--check-baseline runs at --jobs 1; drop --jobs {jobs}"
                ));
            }
        }
        let jobs = jobs.unwrap_or(if baseline.is_some() { 1 } else { 0 });
        Ok(TableArgs {
            quick,
            jobs,
            baseline,
        })
    }
}

/// The per-benchmark facts the gate compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineBenchmark {
    /// Benchmark name.
    pub name: String,
    /// Methods fully verified in the committed run.
    pub methods_verified: usize,
    /// Sequents discharged per cascade stage in the committed run.
    pub provers: BTreeMap<String, usize>,
    /// Ground-core search counters in the committed run.
    pub ground_stats: BTreeMap<String, u64>,
}

/// The committed baseline document, reduced to what the gate needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// Per-benchmark baselines.
    pub benchmarks: Vec<BaselineBenchmark>,
}

/// Parses a committed `BENCH_table1.json` document.
///
/// # Errors
///
/// Returns a description of the first structural problem (bad JSON, missing
/// field, wrong type).
pub fn parse_baseline(input: &str) -> Result<Baseline, String> {
    let doc = parse_json(input)?;
    let mut benchmarks = Vec::new();
    for (name, entry) in benchmark_entries(&doc)? {
        let methods_verified = entry
            .get("methods_verified")
            .and_then(Json::as_u128)
            .ok_or_else(|| format!("benchmark {name} without methods_verified"))?
            as usize;
        let provers = count_map(entry, &name, "provers")?;
        let ground_stats = count_map(entry, &name, "ground_stats")?;
        benchmarks.push(BaselineBenchmark {
            name,
            methods_verified,
            provers,
            ground_stats,
        });
    }
    Ok(Baseline { benchmarks })
}

/// The `benchmarks` array of a bench document, each entry with its name.
fn benchmark_entries(doc: &Json) -> Result<Vec<(String, &Json)>, String> {
    doc.get("benchmarks")
        .and_then(Json::as_array)
        .ok_or("missing benchmarks array")?
        .iter()
        .map(|entry| {
            let name = entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or("benchmark entry without name")?;
            Ok((name.to_string(), entry))
        })
        .collect()
}

/// Reads the integer-valued object `field` of benchmark `name`'s entry.
fn count_map<T: TryFrom<u128>>(
    entry: &Json,
    name: &str,
    field: &str,
) -> Result<BTreeMap<String, T>, String> {
    let Some(Json::Object(counts)) = entry.get(field) else {
        return Err(format!("benchmark {name} without a {field} map"));
    };
    counts
        .iter()
        .map(|(key, count)| {
            let count = count
                .as_u128()
                .and_then(|count| T::try_from(count).ok())
                .ok_or_else(|| format!("benchmark {name}: {field}.{key} is not a count"))?;
            Ok((key.clone(), count))
        })
        .collect()
}

/// Every key whose count differs between the two maps, as
/// `key before -> after`; a key missing from one map counts 0 there.
fn changed_counts<T: Copy + Default + PartialEq + Display>(
    before: &BTreeMap<String, T>,
    after: &BTreeMap<String, T>,
) -> Vec<String> {
    let keys: BTreeSet<&String> = before.keys().chain(after.keys()).collect();
    keys.into_iter()
        .filter_map(|key| {
            let was = before.get(key).copied().unwrap_or_default();
            let now = after.get(key).copied().unwrap_or_default();
            (was != now).then(|| format!("{key} {was} -> {now}"))
        })
        .collect()
}

/// Compares a fresh run against the committed baseline.  Returns the list of
/// violations (empty when the gate passes): any baseline benchmark missing
/// from the run, any benchmark verifying fewer methods than the baseline,
/// and any benchmark whose `provers` or `ground_stats` map differs from the
/// baseline's.
pub fn check_baseline(rows: &[Table1Row], baseline: &Baseline) -> Vec<String> {
    let mut violations = Vec::new();
    for expected in &baseline.benchmarks {
        let Some(row) = rows.iter().find(|r| r.name == expected.name) else {
            violations.push(format!(
                "benchmark \"{}\" is in the baseline but missing from this run",
                expected.name
            ));
            continue;
        };
        if row.methods_verified < expected.methods_verified {
            violations.push(format!(
                "benchmark \"{}\" verifies {} methods, baseline verifies {}",
                row.name, row.methods_verified, expected.methods_verified
            ));
        }
        for (what, changes) in [
            (
                "prover attribution",
                changed_counts(&expected.provers, &row.prover_counts),
            ),
            (
                "ground counters",
                changed_counts(&expected.ground_stats, &row.ground_stats),
            ),
        ] {
            if !changes.is_empty() {
                violations.push(format!(
                    "benchmark \"{}\" {what} changed: {} \
                     (regenerate BENCH_table1.json if the change is intended)",
                    row.name,
                    changes.join(", ")
                ));
            }
        }
    }
    violations
}

/// The fields of a `BENCH_table2.json` benchmark entry that the Table 2
/// gate compares: every count except the cache hits.
const TABLE2_FIELDS: [&str; 7] = [
    "methods_total",
    "methods_without",
    "sequents_without",
    "sequents_total_without",
    "methods_with",
    "sequents_with",
    "sequents_total_with",
];

/// A row's counts under their [`TABLE2_FIELDS`] names.
fn table2_counts(row: &Table2Row) -> BTreeMap<String, usize> {
    let counts = [
        row.methods_total,
        row.methods_without,
        row.sequents_without,
        row.sequents_total_without,
        row.methods_with,
        row.sequents_with,
        row.sequents_total_with,
    ];
    TABLE2_FIELDS
        .iter()
        .map(|field| field.to_string())
        .zip(counts)
        .collect()
}

/// A committed `BENCH_table2.json`, reduced to each benchmark's counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Baseline {
    /// Benchmark name and its counts, by field name.
    pub benchmarks: Vec<(String, BTreeMap<String, usize>)>,
}

/// Parses a committed `BENCH_table2.json` document.
///
/// # Errors
///
/// Returns a description of the first structural problem (bad JSON, missing
/// field, wrong type).
pub fn parse_table2_baseline(input: &str) -> Result<Table2Baseline, String> {
    let doc = parse_json(input)?;
    let mut benchmarks = Vec::new();
    for (name, entry) in benchmark_entries(&doc)? {
        let counts = TABLE2_FIELDS
            .iter()
            .map(|field| {
                let count = entry
                    .get(field)
                    .and_then(Json::as_u128)
                    .and_then(|count| usize::try_from(count).ok())
                    .ok_or_else(|| format!("benchmark {name} without a count {field}"))?;
                Ok((field.to_string(), count))
            })
            .collect::<Result<_, String>>()?;
        benchmarks.push((name, counts));
    }
    Ok(Table2Baseline { benchmarks })
}

/// Compares a fresh Table 2 against the committed baseline.  Returns the
/// list of violations (empty when the gate passes): any baseline benchmark
/// missing from the run, and any benchmark with a count that differs.
pub fn check_table2_baseline(rows: &[Table2Row], baseline: &Table2Baseline) -> Vec<String> {
    let mut violations = Vec::new();
    for (name, expected) in &baseline.benchmarks {
        let Some(row) = rows.iter().find(|r| &r.name == name) else {
            violations.push(format!(
                "benchmark \"{name}\" is in the baseline but missing from this run"
            ));
            continue;
        };
        let changes = changed_counts(expected, &table2_counts(row));
        if !changes.is_empty() {
            violations.push(format!(
                "benchmark \"{name}\" Table 2 counts changed: {} \
                 (regenerate BENCH_table2.json if the change is intended)",
                changes.join(", ")
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipl_gcl::cmd::ConstructCounts;
    use std::time::Duration;

    fn attribution() -> BTreeMap<String, usize> {
        [("smt-ground".to_string(), 14), ("trivial".to_string(), 4)]
            .into_iter()
            .collect()
    }

    fn row(name: &str, methods_verified: usize) -> Table1Row {
        Table1Row {
            name: name.to_string(),
            methods: 6,
            statements: 10,
            time: Duration::from_millis(5),
            specvars: 1,
            invariants: 1,
            counts: ConstructCounts::default(),
            methods_verified,
            sequents_total: 20,
            sequents_proved: 20,
            sequents_crashed: 0,
            sequents_skipped: 0,
            prover_counts: attribution(),
            stage_ms: Default::default(),
            cache_hits: 0,
            ground_stats: counters(),
        }
    }

    fn counters() -> BTreeMap<String, u64> {
        [
            ("decisions".to_string(), 12),
            ("bool_propagations".to_string(), 12),
            ("theory_propagations".to_string(), 3),
        ]
        .into_iter()
        .collect()
    }

    fn baseline() -> Baseline {
        Baseline {
            benchmarks: vec![
                BaselineBenchmark {
                    name: "Linked List".into(),
                    methods_verified: 6,
                    provers: attribution(),
                    ground_stats: counters(),
                },
                BaselineBenchmark {
                    name: "Hash Table".into(),
                    methods_verified: 5,
                    provers: attribution(),
                    ground_stats: counters(),
                },
            ],
        }
    }

    #[test]
    fn parser_round_trips_the_bench_document() {
        let json = crate::table1::to_bench_json(
            &[row("Linked List", 6), row("Hash Table", 5)],
            &crate::table1::BenchMeta {
                total_wall_ms: 900,
                jobs: 8,
                cache_hits: 123,
            },
        );
        // The gate consumes the per-benchmark method counts, prover
        // attribution and ground counters; the timing and telemetry fields
        // beside them must parse cleanly and be ignored.
        let parsed = parse_baseline(&json).unwrap();
        assert_eq!(parsed.benchmarks.len(), 2);
        assert_eq!(parsed.benchmarks[0].name, "Linked List");
        assert_eq!(parsed.benchmarks[0].methods_verified, 6);
        assert_eq!(parsed.benchmarks[0].provers, attribution());
        assert_eq!(parsed.benchmarks[0].ground_stats, counters());
        assert_eq!(parsed, baseline());
    }

    #[test]
    fn gate_passes_when_nothing_regressed() {
        let rows = vec![row("Linked List", 6), row("Hash Table", 6)];
        assert!(check_baseline(&rows, &baseline()).is_empty());
    }

    #[test]
    fn gate_trips_on_fewer_methods_verified() {
        let rows = vec![row("Linked List", 5), row("Hash Table", 5)];
        let violations = check_baseline(&rows, &baseline());
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("Linked List"), "{violations:?}");
    }

    #[test]
    fn gate_trips_on_missing_benchmark() {
        let rows = vec![row("Linked List", 6)];
        let violations = check_baseline(&rows, &baseline());
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("missing"), "{violations:?}");
    }

    #[test]
    fn gate_trips_on_attribution_shift() {
        // One sequent moves from the ground stage to E-matching: the same
        // methods verify, but the cascade now answers differently.
        let mut shifted = row("Hash Table", 5);
        *shifted.prover_counts.get_mut("smt-ground").unwrap() -= 1;
        shifted.prover_counts.insert("smt-inst".to_string(), 1);
        let violations = check_baseline(&[row("Linked List", 6), shifted], &baseline());
        assert_eq!(violations.len(), 1, "{violations:?}");
        for needle in ["Hash Table", "smt-ground 14 -> 13", "smt-inst 0 -> 1"] {
            assert!(violations[0].contains(needle), "{violations:?}");
        }
    }

    fn args(line: &str) -> Result<TableArgs, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        TableArgs::parse(&args)
    }

    #[test]
    fn gates_run_the_full_table_on_one_worker() {
        let plain = args("").unwrap();
        assert_eq!((plain.quick, plain.jobs, plain.baseline), (false, 0, None));
        let gate = args("--check-baseline BENCH.json").unwrap();
        assert_eq!(
            (gate.jobs, gate.baseline.as_deref()),
            (1, Some("BENCH.json"))
        );
        assert_eq!(args("--quick --jobs 3").unwrap().jobs, 3);
        assert_eq!(args("--check-baseline B --jobs 1").unwrap().jobs, 1);
        for refused in [
            "--check-baseline B --quick",
            "--check-baseline B --jobs 2",
            "--check-baseline",
            "--jobs many",
        ] {
            assert!(args(refused).is_err(), "{refused}");
        }
    }

    fn table2_row(name: &str) -> Table2Row {
        Table2Row {
            name: name.to_string(),
            methods_without: 5,
            sequents_without: 25,
            sequents_total_without: 26,
            methods_with: 6,
            methods_total: 6,
            sequents_with: 50,
            sequents_total_with: 50,
            cache_hits: 7,
        }
    }

    fn table2_baseline() -> Table2Baseline {
        let rows = [table2_row("Hash Table"), table2_row("Linked List")];
        parse_table2_baseline(&crate::table2::to_bench_json(&rows, 188, 1, 14)).unwrap()
    }

    #[test]
    fn table2_parser_reads_every_count_but_the_cache_hits() {
        let baseline = table2_baseline();
        assert_eq!(baseline.benchmarks.len(), 2);
        let (name, counts) = &baseline.benchmarks[0];
        assert_eq!(name, "Hash Table");
        assert_eq!(counts, &table2_counts(&table2_row("Hash Table")));
        assert_eq!(counts["sequents_total_without"], 26);
        assert!(!counts.contains_key("cache_hits"));
    }

    #[test]
    fn table2_gate_passes_on_equal_counts_whatever_the_cache_hits() {
        let mut rows = vec![table2_row("Hash Table"), table2_row("Linked List")];
        rows[0].cache_hits = 0;
        assert!(check_table2_baseline(&rows, &table2_baseline()).is_empty());
    }

    #[test]
    fn table2_gate_trips_on_a_shifted_count() {
        // One sequent more without proof constructs, say from a split bug
        // that only stripped commands expose.
        let mut shifted = table2_row("Hash Table");
        shifted.sequents_total_without += 1;
        let violations =
            check_table2_baseline(&[shifted, table2_row("Linked List")], &table2_baseline());
        assert_eq!(violations.len(), 1, "{violations:?}");
        for needle in ["Hash Table", "sequents_total_without 26 -> 27"] {
            assert!(violations[0].contains(needle), "{violations:?}");
        }
        let violations = check_table2_baseline(&[table2_row("Hash Table")], &table2_baseline());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("missing"), "{violations:?}");
    }

    #[test]
    fn gate_trips_on_counter_shift() {
        // The same sequents go to the same stages, but the ground search
        // took a different path.
        let mut shifted = row("Hash Table", 5);
        *shifted.ground_stats.get_mut("decisions").unwrap() -= 1;
        shifted.ground_stats.insert("conflicts".to_string(), 2);
        let violations = check_baseline(&[row("Linked List", 6), shifted], &baseline());
        assert_eq!(violations.len(), 1, "{violations:?}");
        for needle in [
            "benchmark \"Hash Table\" ground counters changed",
            "decisions 12 -> 11",
            "conflicts 0 -> 2",
        ] {
            assert!(violations[0].contains(needle), "{violations:?}");
        }
    }
}
