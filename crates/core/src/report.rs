//! Verification reports: the per-sequent, per-method and per-module
//! statistics from which the paper's tables are regenerated.

use ipl_gcl::cmd::ConstructCounts;
use ipl_lang::Module;
use ipl_provers::Outcome;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// Outcome of one sequent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SequentReport {
    /// Unique sequent name.
    pub name: String,
    /// Label of the originating obligation (e.g. `Postcondition`).
    pub goal_label: String,
    /// Whether some prover discharged it.
    pub proved: bool,
    /// Full outcome, distinguishing an honest `Unknown` from a quarantined
    /// crash or a deadline skip (`proved` stays in sync with
    /// `outcome.is_proved()`).
    pub outcome: Outcome,
    /// Which prover discharged it.
    pub prover: Option<String>,
    /// Time spent on this sequent across the cascade.
    pub duration: Duration,
}

/// Outcome of one method.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MethodReport {
    /// Method name.
    pub name: String,
    /// Number of non-trivial plus trivial sequents.
    pub total_sequents: usize,
    /// Number of sequents discharged.
    pub proved_sequents: usize,
    /// Number of sequents discharged syntactically during splitting.
    pub trivial_sequents: usize,
    /// Proof-construct counts (Table 1 columns).
    pub counts: ConstructCounts,
    /// Wall-clock verification time for the method.
    pub duration: Duration,
    /// Sequents discharged per cascade stage (prover name -> count).
    pub prover_counts: BTreeMap<String, usize>,
    /// Wall-clock spent per cascade stage across all sequents of the method
    /// (prover name -> total), including stages that failed to prove.
    pub stage_durations: BTreeMap<String, Duration>,
    /// Sequents answered from the content-addressed proof cache instead of a
    /// prover run (each still counts toward `proved_sequents`, attributed to
    /// the prover that originally discharged it).
    pub cache_hits: usize,
    /// Sequents quarantined because a prover stage (or the driver) panicked;
    /// counted in `total_sequents` but never in `proved_sequents`.
    pub crashed_sequents: usize,
    /// Sequents never dispatched because the module deadline had passed.
    pub skipped_sequents: usize,
    /// Per-sequent details (when recording is enabled).
    pub sequents: Vec<SequentReport>,
}

impl MethodReport {
    /// Creates an empty report for the named method.
    pub fn new(name: &str) -> Self {
        MethodReport {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// `true` when every sequent of the method was proved.
    pub fn fully_proved(&self) -> bool {
        self.proved_sequents == self.total_sequents
    }

    /// The sequents that failed (empty unless recording was enabled).
    pub fn failed_sequents(&self) -> Vec<&SequentReport> {
        self.sequents.iter().filter(|s| !s.proved).collect()
    }
}

/// Outcome of a whole module.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModuleReport {
    /// Module name.
    pub module_name: String,
    /// Number of methods in the module.
    pub method_count: usize,
    /// Number of executable statements in the module (Table 1).
    pub statement_count: usize,
    /// Number of specification variables (Table 1).
    pub specvar_count: usize,
    /// Number of class invariants (Table 1).
    pub invariant_count: usize,
    /// Worker threads the verification driver used.
    pub jobs: usize,
    /// Per-method reports.
    pub methods: Vec<MethodReport>,
}

impl ModuleReport {
    /// Creates a report shell with the module-level statistics filled in.
    pub fn new(name: &str, module: &Module) -> Self {
        ModuleReport {
            module_name: name.to_string(),
            method_count: module.methods.len(),
            statement_count: module.statement_count(),
            specvar_count: module.specvars.len(),
            invariant_count: module.invariants.len(),
            jobs: 1,
            methods: Vec::new(),
        }
    }

    /// `true` when every method verified completely.
    pub fn fully_proved(&self) -> bool {
        self.methods.iter().all(MethodReport::fully_proved)
    }

    /// Number of methods whose every sequent was proved.
    pub fn methods_verified(&self) -> usize {
        self.methods.iter().filter(|m| m.fully_proved()).count()
    }

    /// Total number of sequents across all methods.
    pub fn total_sequents(&self) -> usize {
        self.methods.iter().map(|m| m.total_sequents).sum()
    }

    /// Total number of proved sequents across all methods.
    pub fn proved_sequents(&self) -> usize {
        self.methods.iter().map(|m| m.proved_sequents).sum()
    }

    /// Total verification time.
    pub fn total_duration(&self) -> Duration {
        self.methods.iter().map(|m| m.duration).sum()
    }

    /// Total proof-cache hits across all methods.
    pub fn cache_hits(&self) -> usize {
        self.methods.iter().map(|m| m.cache_hits).sum()
    }

    /// Total sequents quarantined by a contained crash.
    pub fn crashed_sequents(&self) -> usize {
        self.methods.iter().map(|m| m.crashed_sequents).sum()
    }

    /// Total sequents skipped because the module deadline passed.
    pub fn skipped_sequents(&self) -> usize {
        self.methods.iter().map(|m| m.skipped_sequents).sum()
    }

    /// A canonical rendering of everything *semantic* in the report — module
    /// statistics, per-method sequent outcomes, per-sequent prover
    /// attribution — excluding wall-clock timings and cache-hit counters
    /// (which legitimately vary between runs and worker counts).  Two runs of
    /// the same module under the same budgets must produce byte-identical
    /// normalized reports regardless of `jobs`; the determinism suite
    /// asserts exactly that.
    pub fn normalized(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "module {} methods={} statements={} specvars={} invariants={}\n",
            self.module_name,
            self.method_count,
            self.statement_count,
            self.specvar_count,
            self.invariant_count,
        ));
        for method in &self.methods {
            out.push_str(&format!(
                "method {} total={} proved={} trivial={} counts={:?}\n",
                method.name,
                method.total_sequents,
                method.proved_sequents,
                method.trivial_sequents,
                method.counts,
            ));
            for (prover, count) in &method.prover_counts {
                out.push_str(&format!("  prover {prover} {count}\n"));
            }
            for sequent in &method.sequents {
                out.push_str(&format!(
                    "  sequent {} [{}] proved={} by={} outcome={}\n",
                    sequent.name,
                    sequent.goal_label,
                    sequent.proved,
                    sequent.prover.as_deref().unwrap_or("-"),
                    sequent.outcome.tag(),
                ));
            }
        }
        out
    }

    /// Sequents discharged per cascade stage, aggregated over all methods.
    pub fn prover_counts(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for method in &self.methods {
            for (prover, count) in &method.prover_counts {
                *out.entry(prover.clone()).or_insert(0) += count;
            }
        }
        out
    }

    /// Wall-clock per cascade stage, aggregated over all methods.
    pub fn stage_durations(&self) -> BTreeMap<String, Duration> {
        let mut out = BTreeMap::new();
        for method in &self.methods {
            for (stage, duration) in &method.stage_durations {
                *out.entry(stage.clone()).or_insert(Duration::ZERO) += *duration;
            }
        }
        out
    }

    /// Aggregated proof-construct counts (Table 1 row for this module).
    pub fn total_counts(&self) -> ConstructCounts {
        let mut counts = ConstructCounts::default();
        for m in &self.methods {
            counts.add(&m.counts);
        }
        counts
    }

    /// A plain-text summary of the verification run.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "module {}: {}/{} methods verified, {}/{} sequents proved in {:.2?}\n",
            self.module_name,
            self.methods_verified(),
            self.method_count,
            self.proved_sequents(),
            self.total_sequents(),
            self.total_duration(),
        ));
        for method in &self.methods {
            out.push_str(&format!(
                "  {:<24} {:>3}/{:<3} sequents  {:>5} trivial  {:.2?}\n",
                method.name,
                method.proved_sequents,
                method.total_sequents,
                method.trivial_sequents,
                method.duration,
            ));
            for failed in method.failed_sequents() {
                match &failed.outcome {
                    Outcome::Crashed { stage, message } => out.push_str(&format!(
                        "    CRASHED: {} [{}] in {stage}: {message}\n",
                        failed.name, failed.goal_label
                    )),
                    Outcome::Skipped(reason) => out.push_str(&format!(
                        "    SKIPPED: {} [{}] ({reason:?})\n",
                        failed.name, failed.goal_label
                    )),
                    _ => out.push_str(&format!(
                        "    UNPROVED: {} [{}]\n",
                        failed.name, failed.goal_label
                    )),
                }
            }
        }
        let crashed = self.crashed_sequents();
        let skipped = self.skipped_sequents();
        if crashed + skipped > 0 {
            out.push_str(&format!(
                "  faults: {crashed} crashed, {skipped} deadline-skipped (quarantined, not verdicts)\n",
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_report_counts() {
        let mut report = MethodReport::new("m");
        report.total_sequents = 3;
        report.proved_sequents = 2;
        assert!(!report.fully_proved());
        report.proved_sequents = 3;
        assert!(report.fully_proved());
    }

    #[test]
    fn module_report_aggregation() {
        let module = ipl_lang::parse_module(
            "module M { var x: int; method a() { x := 1; } method b() { x := 2; } }",
        )
        .unwrap();
        let mut report = ModuleReport::new("M", &module);
        assert_eq!(report.method_count, 2);
        assert_eq!(report.statement_count, 2);
        let mut a = MethodReport::new("a");
        a.total_sequents = 2;
        a.proved_sequents = 2;
        let mut b = MethodReport::new("b");
        b.total_sequents = 4;
        b.proved_sequents = 3;
        report.methods = vec![a, b];
        assert_eq!(report.methods_verified(), 1);
        assert_eq!(report.total_sequents(), 6);
        assert_eq!(report.proved_sequents(), 5);
        assert!(!report.fully_proved());
        assert!(report.render().contains("1/2 methods"));
    }
}
