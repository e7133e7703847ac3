//! Cold/warm throughput curves for the persistent proof store.
//!
//! Table 1 measures one batch run from scratch; this harness measures what
//! the persistent store ([`ipl_provers::cache_store`]) is *for* — the cost of
//! re-verification.  A run produces one [`PhaseResult`] per phase:
//!
//! * `cold-j1` / `cold-jN` — the full suite against an empty store;
//! * `warm-j1` / `warm-jN` — the same suite again in a "new process" (the
//!   in-memory cache is wiped between phases, so the disk store is the only
//!   carried warmth);
//! * `edit-one-method` — the steady-state case: one method body edited, the
//!   rest of the suite answered from the store;
//! * `shared-store` (optional) — a run against a caller-provided directory,
//!   the shape of a CI job reusing a store across workflow runs;
//! * `serve-cold` / `serve-warm` / `serve-compacted` ([`run_serve_phases`])
//!   — the suite three times through **one** long-lived [`ipl_core::Session`],
//!   the daemon shape: the warm pass answers from the in-memory cache and
//!   intern table kept hot across requests with zero additional store scans,
//!   and the third pass re-measures that warmth after an in-session store
//!   compaction (the daemon's periodic `--compact-every`).
//!
//! The `BENCH_throughput.json` document written by `examples/throughput.rs`
//! reuses the `BENCH_table1.json` layout (`total_wall_ms` + a `benchmarks`
//! array with `name`/`methods_verified`/`wall_ms`), so the existing baseline
//! parser reads it unchanged and [`crate::baseline::check_throughput_baseline`]
//! gates the cold and warm curves in CI.

use crate::benchmarks::all;
use ipl_core::{ModuleReport, Request, Session, VerifyOptions};
use ipl_provers::cache::ProofCache;
use std::path::Path;
use std::time::Instant;

/// Aggregated outcome of verifying the whole suite once under one phase
/// configuration.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Phase name (`cold-j1`, `warm-jN`, `edit-one-method`, ...).
    pub name: String,
    /// Worker threads used.
    pub jobs: usize,
    /// Modules verified (the eight benchmark structures).
    pub modules: usize,
    /// Methods across all modules.
    pub methods: usize,
    /// Methods fully verified.
    pub methods_verified: usize,
    /// Sequents dispatched (including trivial).
    pub sequents_total: usize,
    /// Sequents proved.
    pub sequents_proved: usize,
    /// Sequents discharged syntactically during splitting — these are never
    /// dispatched to a prover, so they are not answerable from the store
    /// (subtract them when judging warm-store coverage).
    pub sequents_trivial: usize,
    /// Sequents answered from the cache or store instead of a prover run.
    pub cache_hits: usize,
    /// Wall-clock of the phase, milliseconds.
    pub wall_ms: u128,
}

impl PhaseResult {
    /// Modules verified per second, scaled by 1000 (integer-friendly for the
    /// hand-rolled JSON; 8 modules in 125 ms → 64_000).
    pub fn modules_per_sec_x1000(&self) -> u128 {
        (self.modules as u128 * 1_000_000) / self.wall_ms.max(1)
    }

    /// Sequents proved by an actual prover dispatch (or its cached replay) —
    /// the population a warm store can answer.
    pub fn sequents_proved_nontrivial(&self) -> usize {
        self.sequents_proved.saturating_sub(self.sequents_trivial)
    }
}

/// The benchmark sources a phase verifies, in suite order.
pub fn suite_sources() -> Vec<(&'static str, String)> {
    all()
        .iter()
        .map(|b| (b.name, b.source.to_string()))
        .collect()
}

/// The suite with one edited method body: `LinkedList.sizeOf` computes its
/// result in two steps instead of one.  Semantically equivalent (it still
/// verifies), but every sequent of `sizeOf` changes its fingerprint — the
/// smallest realistic "developer edited one method" workload.
pub fn edited_suite_sources() -> Vec<(&'static str, String)> {
    let mut sources = suite_sources();
    for (name, source) in &mut sources {
        if *name == "Linked List" {
            let edited = source.replace("n := size;", "n := 0;\n    n := n + size;");
            assert_ne!(&edited, source, "the sizeOf body must be present to edit");
            *source = edited;
        }
    }
    sources
}

/// Verifies every module in `sources` once and aggregates the phase result.
///
/// The in-memory proof cache is **fully wiped first**, so the phase starts as
/// a fresh process would: any warmth must come from the store in `cache_dir`.
///
/// # Errors
///
/// Returns the first verification error (parse/lowering).
pub fn run_phase(
    name: &str,
    jobs: usize,
    cache_dir: Option<&Path>,
    sources: &[(&str, String)],
) -> Result<PhaseResult, String> {
    ProofCache::global().reset();
    let session = Session::new(phase_options(jobs, cache_dir));
    verify_pass(&session, name, sources)
}

/// The serve-shaped phases measured by [`run_serve_phases`]: one long-lived
/// session, three passes over the suite, a store compaction between the
/// second and the third.
#[derive(Debug, Clone)]
pub struct ServePhases {
    /// First pass: empty store, everything proved fresh.
    pub cold: PhaseResult,
    /// Second pass: answered from warm in-process state.
    pub warm: PhaseResult,
    /// Third pass, after an in-session `compact_store()`: the compaction
    /// swaps the store file and bumps its generation, and the warm index
    /// must carry over without a rescan or any lost answers.
    pub compacted: PhaseResult,
    /// Store log scans across *all three* passes — at most 1.
    pub store_preloads: usize,
    /// Stats of the mid-session compaction (`None` without a cache dir).
    pub compaction: Option<ipl_provers::cache_store::CompactStats>,
}

/// Runs the suite three times through **one** long-lived [`Session`] — the
/// `ipl serve` cost model in-process.  The in-memory cache is wiped first;
/// the second pass's warmth comes entirely from state the session kept hot
/// (intern table, in-memory cache, store handle).  Between the second and
/// third passes the store is compacted in-session, the shape of the
/// daemon's periodic `--compact-every`: the third pass must stay as warm as
/// the second, with the store log still scanned at most once overall.
///
/// # Errors
///
/// Returns the first verification error (parse/lowering) or a compaction
/// I/O error.
pub fn run_serve_phases(
    jobs: usize,
    cache_dir: Option<&Path>,
    sources: &[(&str, String)],
) -> Result<ServePhases, String> {
    ProofCache::global().reset();
    let session = Session::new(phase_options(jobs, cache_dir));
    let pass = |name: &str| verify_pass(&session, name, sources);
    let cold = pass("serve-cold")?;
    let warm = pass("serve-warm")?;
    let compaction = session
        .compact_store()
        .map_err(|e| format!("mid-session store compaction: {e}"))?;
    let compacted = pass("serve-compacted")?;
    Ok(ServePhases {
        cold,
        warm,
        compacted,
        store_preloads: session.stats().store_preloads,
        compaction,
    })
}

/// Verifies every module in `sources` once through `session` and aggregates
/// the phase result.
fn verify_pass(
    session: &Session,
    name: &str,
    sources: &[(&str, String)],
) -> Result<PhaseResult, String> {
    let start = Instant::now();
    let mut reports = Vec::with_capacity(sources.len());
    for (bench, source) in sources {
        let response = session
            .verify(&Request::new(source.clone()))
            .map_err(|e| format!("{bench}: {e}"))?;
        reports.push(response.report);
    }
    let wall_ms = start.elapsed().as_millis();
    Ok(aggregate(name, session.options(), wall_ms, &reports))
}

fn phase_options(jobs: usize, cache_dir: Option<&Path>) -> VerifyOptions {
    let options = VerifyOptions::default()
        .with_config(crate::suite_config())
        .with_record_sequents(true)
        .with_jobs(jobs);
    match cache_dir {
        Some(dir) => options.with_cache_dir(dir),
        None => options,
    }
}

fn aggregate(
    name: &str,
    options: &VerifyOptions,
    wall_ms: u128,
    reports: &[ModuleReport],
) -> PhaseResult {
    PhaseResult {
        name: name.to_string(),
        jobs: options.effective_jobs(),
        modules: reports.len(),
        methods: reports.iter().map(|r| r.method_count).sum(),
        methods_verified: reports.iter().map(ModuleReport::methods_verified).sum(),
        sequents_total: reports.iter().map(ModuleReport::total_sequents).sum(),
        sequents_proved: reports.iter().map(ModuleReport::proved_sequents).sum(),
        sequents_trivial: reports
            .iter()
            .flat_map(|r| &r.methods)
            .map(|m| m.trivial_sequents)
            .sum(),
        cache_hits: reports.iter().map(ModuleReport::cache_hits).sum(),
        wall_ms,
    }
}

/// Serialises the phases as `BENCH_throughput.json`, structurally compatible
/// with `BENCH_table1.json` (each phase plays the role of one "benchmark"
/// row) so [`crate::baseline::parse_baseline`] reads it unchanged.
pub fn to_bench_json(phases: &[PhaseResult], total_wall_ms: u128, jobs: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"total_wall_ms\": {total_wall_ms},\n"));
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    let warm_hits: usize = phases
        .iter()
        .filter(|p| p.name.starts_with("warm"))
        .map(|p| p.cache_hits)
        .sum();
    out.push_str(&format!("  \"cache_hits\": {warm_hits},\n"));
    out.push_str("  \"benchmarks\": [\n");
    for (i, phase) in phases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"jobs\": {}, \"modules\": {}, \"methods\": {}, \
             \"methods_verified\": {}, \"sequents_total\": {}, \"sequents_proved\": {}, \
             \"sequents_trivial\": {}, \"wall_ms\": {}, \"cache_hits\": {}, \
             \"modules_per_sec_x1000\": {}}}{}\n",
            phase.name,
            phase.jobs,
            phase.modules,
            phase.methods,
            phase.methods_verified,
            phase.sequents_total,
            phase.sequents_proved,
            phase.sequents_trivial,
            phase.wall_ms,
            phase.cache_hits,
            phase.modules_per_sec_x1000(),
            if i + 1 < phases.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the cold/warm table for the CI job summary.
pub fn render_markdown(phases: &[PhaseResult], total_wall_ms: u128) -> String {
    let mut out = String::from("## Persistent-store throughput (cold vs warm)\n\n");
    out.push_str(
        "| Phase | Jobs | Methods | Sequents proved | Store hits | Wall (ms) | \
         Modules/sec |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|\n");
    for phase in phases {
        out.push_str(&format!(
            "| {} | {} | {}/{} | {}/{} | {} | {} | {}.{:03} |\n",
            phase.name,
            phase.jobs,
            phase.methods_verified,
            phase.methods,
            phase.sequents_proved,
            phase.sequents_total,
            phase.cache_hits,
            phase.wall_ms,
            phase.modules_per_sec_x1000() / 1000,
            phase.modules_per_sec_x1000() % 1000,
        ));
    }
    let find = |name: &str| phases.iter().find(|p| p.name == name);
    if let (Some(cold), Some(warm)) = (find("cold-j1"), find("warm-j1")) {
        out.push_str(&format!(
            "\n**Warm store answers {} of {} previously proved (non-trivial) sequents; \
             warm wall-clock {} ms vs cold {} ms ({:.2}x)**\n",
            warm.cache_hits,
            cold.sequents_proved_nontrivial(),
            warm.wall_ms,
            cold.wall_ms,
            cold.wall_ms as f64 / warm.wall_ms.max(1) as f64,
        ));
    }
    out.push_str(&format!("\nTotal wall-clock: {total_wall_ms} ms\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(name: &str, wall_ms: u128, cache_hits: usize) -> PhaseResult {
        PhaseResult {
            name: name.to_string(),
            jobs: 1,
            modules: 8,
            methods: 46,
            methods_verified: 46,
            sequents_total: 700,
            sequents_proved: 690,
            sequents_trivial: 80,
            cache_hits,
            wall_ms,
        }
    }

    #[test]
    fn nontrivial_population_excludes_split_discharges() {
        assert_eq!(phase("p", 10, 0).sequents_proved_nontrivial(), 610);
    }

    #[test]
    fn edited_suite_changes_only_the_linked_list() {
        let original = suite_sources();
        let edited = edited_suite_sources();
        assert_eq!(original.len(), edited.len());
        for ((name, before), (_, after)) in original.iter().zip(&edited) {
            if *name == "Linked List" {
                assert_ne!(before, after);
                assert!(after.contains("n := 0;"));
            } else {
                assert_eq!(before, after, "{name} must be untouched");
            }
        }
    }

    #[test]
    fn bench_json_round_trips_through_the_baseline_parser() {
        let phases = vec![phase("cold-j1", 150, 0), phase("warm-j1", 30, 690)];
        let json = to_bench_json(&phases, 180, 4);
        let parsed = crate::baseline::parse_baseline(&json).unwrap();
        assert_eq!(parsed.total_wall_ms, 180);
        assert_eq!(parsed.benchmarks.len(), 2);
        assert_eq!(parsed.benchmarks[0].name, "cold-j1");
        assert_eq!(parsed.benchmarks[0].methods_verified, 46);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"cache_hits\": 690"));
    }

    #[test]
    fn markdown_reports_the_warm_speedup() {
        let phases = vec![phase("cold-j1", 150, 0), phase("warm-j1", 30, 690)];
        let markdown = render_markdown(&phases, 180);
        assert!(markdown.contains("| cold-j1 | 1 | 46/46 |"));
        assert!(markdown.contains("warm wall-clock 30 ms vs cold 150 ms"));
    }

    #[test]
    fn modules_per_sec_is_scaled_and_division_safe() {
        assert_eq!(phase("p", 1000, 0).modules_per_sec_x1000(), 8_000);
        assert_eq!(phase("p", 0, 0).modules_per_sec_x1000(), 8_000_000);
    }
}
