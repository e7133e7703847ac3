//! The one gate for both committed tables, and the one writer of their
//! documents.
//!
//! `BENCH_table1.json` and `BENCH_table2.json` each hold a `benchmarks`
//! array with one object per data structure.  [`compare`] matches the
//! committed entries with a fresh run's by `name` and reports every field
//! that differs, nested count maps key by key, except the fields in
//! [`VOLATILE`]: wall-clock, per-stage time and proof-cache hits change from
//! run to run.  Everything else (methods and sequents verified, prover
//! attribution, ground-core counters) does not depend on the machine, as
//! long as one worker runs the table from an empty proof cache: two workers
//! can both miss the cache on one fingerprint and both count its search.
//! `tests/tables.rs` runs the gate; an intended shift is accepted by
//! regenerating the committed file.
//!
//! [`format_document`] prints either document with one benchmark per line,
//! so a shift shows up in review as a one-line diff.

use ipl_core::json;
use std::collections::{BTreeMap, BTreeSet};

pub use ipl_core::json::{parse_json, Json};

/// Benchmark fields that change from run to run; [`compare`] skips them
/// wherever they appear.
const VOLATILE: [&str; 3] = ["wall_ms", "stage_ms", "cache_hits"];

/// What a count missing on one side reads as.
static ZERO: Json = Json::Number(0.0);

/// Compares a fresh bench document with the committed one.  Returns one
/// message per difference, empty when the gate passes: a committed
/// benchmark missing from the fresh run, a fresh benchmark the committed
/// document lacks, and every other field whose value differs, as
/// `"Hash Table" ground_stats.conflicts 27 -> 28`.  Objects are compared
/// key by key, and a key missing on one side reads as 0.  Document-level
/// fields are not compared.
pub fn compare(committed: &Json, fresh: &Json) -> Vec<String> {
    let (committed, fresh) = (benchmarks(committed), benchmarks(fresh));
    let mut violations = Vec::new();
    for (name, before) in &committed {
        let name_json = json::string(name);
        match fresh.get(name) {
            Some(after) => diff(&format!("{name_json} "), before, after, &mut violations),
            None => violations.push(format!("{name_json} is missing from the fresh run")),
        }
    }
    for name in fresh.keys().filter(|name| !committed.contains_key(*name)) {
        violations.push(format!(
            "{} is not in the committed document",
            json::string(name)
        ));
    }
    violations
}

/// The `benchmarks` entries of a document by name.  An entry without a
/// name is dropped, so its counterpart reads as missing or extra.
fn benchmarks(doc: &Json) -> BTreeMap<&str, &BTreeMap<String, Json>> {
    let entries = doc.get("benchmarks").and_then(Json::as_array);
    entries
        .unwrap_or_default()
        .iter()
        .filter_map(|entry| match entry {
            Json::Object(fields) => Some((entry.get("name")?.as_str()?, fields)),
            _ => None,
        })
        .collect()
}

/// Appends `{path}{key} before -> after` for every key whose value differs,
/// descending into objects present on both sides.
fn diff(
    path: &str,
    before: &BTreeMap<String, Json>,
    after: &BTreeMap<String, Json>,
    out: &mut Vec<String>,
) {
    let keys: BTreeSet<&String> = before.keys().chain(after.keys()).collect();
    for key in keys {
        if VOLATILE.contains(&key.as_str()) {
            continue;
        }
        let was = before.get(key).unwrap_or(&ZERO);
        let now = after.get(key).unwrap_or(&ZERO);
        match (was, now) {
            (Json::Object(was), Json::Object(now)) => {
                diff(&format!("{path}{key}."), was, now, out);
            }
            _ if was != now => out.push(format!("{path}{key} {was} -> {now}")),
            _ => {}
        }
    }
}

/// Prints a bench document: one top-level field per line, and each element
/// of an array field on a line of its own.
pub fn format_document(doc: &Json) -> String {
    let Json::Object(fields) = doc else {
        return format!("{doc}\n");
    };
    let fields: Vec<String> = fields
        .iter()
        .map(|(key, value)| match value {
            Json::Array(items) => {
                let items: Vec<String> = items.iter().map(|item| format!("    {item}")).collect();
                format!("  {}: [\n{}\n  ]", json::string(key), items.join(",\n"))
            }
            value => format!("  {}: {value}", json::string(key)),
        })
        .collect();
    format!("{{\n{}\n}}\n", fields.join(",\n"))
}

/// A JSON object from its fields.
pub(crate) fn object<K: ToString>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1::{self, Table1Row};
    use crate::table2::{self, Table2Row};
    use ipl_gcl::cmd::ConstructCounts;
    use std::time::Duration;

    fn counts<T: Copy>(entries: &[(&str, T)]) -> BTreeMap<String, T> {
        entries.iter().map(|&(k, n)| (k.to_string(), n)).collect()
    }

    fn row(name: &str) -> Table1Row {
        Table1Row {
            name: name.to_string(),
            methods: 6,
            statements: 10,
            time: Duration::from_millis(5),
            specvars: 1,
            invariants: 1,
            counts: ConstructCounts::default(),
            methods_verified: 6,
            sequents_total: 20,
            sequents_proved: 20,
            sequents_crashed: 0,
            sequents_skipped: 0,
            prover_counts: counts(&[("smt-ground", 14), ("trivial", 4)]),
            stage_ms: counts(&[("smt-ground", 3)]),
            cache_hits: 0,
            ground_stats: counts(&[("decisions", 12), ("conflicts", 27)]),
        }
    }

    fn table1_rows() -> Vec<Table1Row> {
        vec![row("Linked List"), row("Hash Table")]
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
        }
    }

    fn table2_rows() -> Vec<Table2Row> {
        vec![table2_row("Hash Table"), table2_row("Linked List")]
    }

    fn gate1(fresh: &[Table1Row]) -> Vec<String> {
        compare(
            &table1::document(&table1_rows(), 90),
            &table1::document(fresh, 90),
        )
    }

    fn gate2(fresh: &[Table2Row]) -> Vec<String> {
        compare(
            &table2::document(&table2_rows(), 190),
            &table2::document(fresh, 190),
        )
    }

    #[test]
    fn both_documents_round_trip_and_pass_against_themselves() {
        for doc in [
            table1::document(&table1_rows(), 90),
            table2::document(&table2_rows(), 190),
        ] {
            let text = format_document(&doc);
            let read = parse_json(&text).unwrap();
            assert_eq!(read, doc, "{text}");
            assert_eq!(compare(&read, &doc), Vec::<String>::new());
        }
    }

    #[test]
    fn run_to_run_measurements_are_not_compared() {
        let mut fresh = table1_rows();
        fresh[0].time = Duration::from_millis(500);
        fresh[0].stage_ms.insert("smt-inst".to_string(), 40);
        fresh[1].cache_hits = 9;
        let committed = table1::document(&table1_rows(), 90);
        assert!(compare(&committed, &table1::document(&fresh, 9_000)).is_empty());
    }

    #[test]
    fn each_shifted_field_is_one_violation_naming_its_key() {
        type Shift = fn(&mut Table1Row);
        let shifts: [(Shift, &str); 5] = [
            (
                |row| row.methods_verified = 5,
                "\"Hash Table\" methods_verified 6 -> 5",
            ),
            (
                |row| *row.prover_counts.get_mut("smt-ground").unwrap() = 13,
                "\"Hash Table\" provers.smt-ground 14 -> 13",
            ),
            (
                |row| *row.ground_stats.get_mut("conflicts").unwrap() = 28,
                "\"Hash Table\" ground_stats.conflicts 27 -> 28",
            ),
            // A count missing on one side reads as 0.
            (
                |row| {
                    row.prover_counts.insert("smt-inst".to_string(), 1);
                },
                "\"Hash Table\" provers.smt-inst 0 -> 1",
            ),
            (
                |row| {
                    row.ground_stats.remove("decisions");
                },
                "\"Hash Table\" ground_stats.decisions 12 -> 0",
            ),
        ];
        for (shift, message) in shifts {
            let mut fresh = table1_rows();
            shift(&mut fresh[1]);
            assert_eq!(gate1(&fresh), [message]);
        }

        let mut fresh = table2_rows();
        fresh[0].sequents_total_without += 1;
        assert_eq!(
            gate2(&fresh),
            ["\"Hash Table\" sequents_total_without 26 -> 27"]
        );
    }

    #[test]
    fn a_missing_and_an_extra_benchmark_are_one_violation_each() {
        assert_eq!(
            gate1(&[row("Linked List")]),
            ["\"Hash Table\" is missing from the fresh run"]
        );
        let mut fresh = table2_rows();
        fresh.push(table2_row("Skip List"));
        assert_eq!(
            gate2(&fresh),
            ["\"Skip List\" is not in the committed document"]
        );
    }
}
