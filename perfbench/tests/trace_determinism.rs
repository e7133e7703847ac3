//! The fidelity guard's determinism half: two traced runs on one seed give
//! identical counters, and each answers every request as `Session::verify`
//! does.  Its own test binary, because the runs reset the process-wide
//! proof cache and intern table.

use ipl_perfbench::gen::Workload;
use ipl_perfbench::trace;
use std::collections::BTreeMap;

/// The counters of a traced run (times and time shares vary by nature).
fn counters(workload: Workload, seed: u64, tag: &str) -> (BTreeMap<String, f64>, Vec<String>) {
    let dir = std::env::temp_dir().join(format!(
        "ipl-perfbench-{}-{tag}-{}",
        workload.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let summary = trace::run_traced(workload, seed, &dir, &dir.join("spans.tsv"))
        .unwrap()
        .unwrap_or_else(|trip| panic!("soundness trip: {}", trip.0));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(summary.failed, 0, "{}", workload.name());
    let counters = summary
        .metrics
        .into_iter()
        .filter(|(name, _)| !name.ends_with("ms") && !name.ends_with("share"))
        .collect();
    (counters, summary.answers)
}

#[test]
fn traced_runs_repeat_their_counters_and_match_the_session() {
    for workload in Workload::ALL {
        let (first, answers) = counters(workload, 7, "a");
        let (second, _) = counters(workload, 7, "b");
        assert_eq!(first, second, "{}", workload.name());
        assert_eq!(first["cascade.timeouts"], 0.0, "{}", workload.name());

        let dir = std::env::temp_dir().join(format!(
            "ipl-perfbench-{}-plain-{}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let plain = trace::run_plain(workload, 7, &dir).unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(answers, plain.answers, "{}", workload.name());
    }
}
