//! Measures the cold/warm re-verification throughput curves of the
//! persistent proof store and writes `BENCH_throughput.json`.
//!
//! Run with `cargo run --release --example throughput`.  Flags:
//!
//! * `--jobs N` — worker threads for the `jN` phases (default `0` = the
//!   machine's available parallelism).
//! * `--cache-dir DIR` — also run a `shared-store` phase against DIR
//!   (defaults to `$IPL_CACHE_DIR` when set): the CI shape where a store
//!   directory is restored by `actions/cache` and reused across workflow
//!   runs.  The measured cold/warm phases always use fresh throwaway
//!   directories, so a pre-populated shared store never skews them.
//! * `--assert-warm` — exit non-zero unless the warm run answered sequents
//!   from the store (`cache_hits > 0`, covering ≥ 90% of the cold run's
//!   proved sequents) and its wall-clock beat the cold run; also gates the
//!   `serve-warm` and `serve-compacted` phases (≥ 90% answered from warm
//!   session state, store scanned exactly once across all three serve
//!   passes, generation bumped by the mid-session compaction).
//! * `--require-shared-hits` — exit non-zero unless the `shared-store` phase
//!   had cache hits (CI uses this on the second invocation against the same
//!   directory).
//! * `--check-baseline <path>` — gate the `cold-j1`, `warm-j1`, `serve-warm`
//!   and `serve-compacted` wall-clocks against a committed
//!   `BENCH_throughput.json` (>25% + 5 s regression fails), like the
//!   Table 1 gate.
//!
//! Output goes to `BENCH_throughput.json` (override with
//! `BENCH_THROUGHPUT_OUT`); with `GITHUB_STEP_SUMMARY` set, the cold/warm
//! markdown table is appended to the job summary.

use ipl::suite::throughput::{
    edited_suite_sources, render_markdown, run_phase, suite_sources, to_bench_json, PhaseResult,
};
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let assert_warm = args.iter().any(|a| a == "--assert-warm");
    let require_shared_hits = args.iter().any(|a| a == "--require-shared-hits");
    let jobs = flag_value(&args, "--jobs")
        .map(|v| {
            v.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("--jobs requires a number");
                std::process::exit(2);
            })
        })
        .unwrap_or(0);
    let shared_dir = flag_value(&args, "--cache-dir")
        .map(PathBuf::from)
        .or_else(|| std::env::var_os("IPL_CACHE_DIR").map(PathBuf::from));
    // Read the committed baseline *before* this run overwrites the file.
    let baseline = flag_value(&args, "--check-baseline").map(|path| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        ipl::suite::baseline::parse_throughput_baseline(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse baseline {path}: {e}");
            std::process::exit(2);
        })
    });

    let scratch = std::env::temp_dir().join(format!("ipl-throughput-{}", std::process::id()));
    let store_j1 = scratch.join("store-j1");
    let store_jn = scratch.join("store-jn");
    let sources = suite_sources();
    let edited = edited_suite_sources();

    let run = |name: &str, jobs: usize, dir: &PathBuf, sources| {
        let phase = run_phase(name, jobs, Some(dir.as_path()), sources).unwrap_or_else(|e| {
            eprintln!("phase {name}: {e}");
            std::process::exit(1);
        });
        println!(
            "  {:<16} jobs={} wall={} ms, {}/{} methods, {}/{} sequents, {} store hits",
            phase.name,
            phase.jobs,
            phase.wall_ms,
            phase.methods_verified,
            phase.methods,
            phase.sequents_proved,
            phase.sequents_total,
            phase.cache_hits,
        );
        phase
    };

    println!("persistent-store throughput curves\n");
    let start = Instant::now();

    // The j1 curve: cold against an empty store, then warm in a simulated new
    // process (the in-memory cache is wiped inside run_phase; the disk store
    // carries all warmth).
    let cold_j1 = run("cold-j1", 1, &store_j1, &sources);
    let warm_j1 = run("warm-j1", 1, &store_j1, &sources);

    // The jN curve, against its own store.  Skipped when N would be 1 (a
    // single-core machine): the phases would duplicate the j1 curve under
    // the same names, and phase names key the baseline gate.
    let jn_label_jobs = ipl::core::VerifyOptions::default()
        .with_jobs(jobs)
        .effective_jobs();
    let jn_curve = (jn_label_jobs > 1).then(|| {
        let cold_jn = run(&format!("cold-j{jn_label_jobs}"), jobs, &store_jn, &sources);
        let warm_jn = run(&format!("warm-j{jn_label_jobs}"), jobs, &store_jn, &sources);
        (cold_jn, warm_jn)
    });

    // Steady state: one method body edited, everything else answered from
    // the store.
    let edit_phase = run("edit-one-method", 1, &store_j1, &edited);

    // The daemon shape: one long-lived `Session` serves the whole suite
    // three times, with an in-session store compaction between the second
    // and third passes (the daemon's periodic `--compact-every`).  The
    // second and third passes answer from warm in-process state (intern
    // table, in-memory proof cache, preloaded store index); the store is
    // scanned exactly once across all three.
    let store_serve = scratch.join("store-serve");
    let serve = ipl::suite::throughput::run_serve_phases(1, Some(store_serve.as_path()), &sources)
        .unwrap_or_else(|e| {
            eprintln!("serve phases: {e}");
            std::process::exit(1);
        });
    let (serve_cold, serve_warm, serve_compacted, serve_preloads) = (
        serve.cold,
        serve.warm,
        serve.compacted,
        serve.store_preloads,
    );
    for phase in [&serve_cold, &serve_warm, &serve_compacted] {
        println!(
            "  {:<16} jobs={} wall={} ms, {}/{} methods, {}/{} sequents, {} store hits",
            phase.name,
            phase.jobs,
            phase.wall_ms,
            phase.methods_verified,
            phase.methods,
            phase.sequents_proved,
            phase.sequents_total,
            phase.cache_hits,
        );
    }
    println!("  serve session store preloads: {serve_preloads}");
    if let Some(stats) = &serve.compaction {
        println!(
            "  mid-session compaction: {} -> {} entries, {} -> {} bytes, generation {}",
            stats.entries_before,
            stats.entries_after,
            stats.bytes_before,
            stats.bytes_after,
            stats.generation,
        );
    }

    let mut phases: Vec<PhaseResult> = vec![cold_j1.clone(), warm_j1.clone()];
    if let Some((cold_jn, warm_jn)) = jn_curve {
        phases.push(cold_jn);
        phases.push(warm_jn);
    }
    phases.push(edit_phase);
    phases.push(serve_cold.clone());
    phases.push(serve_warm.clone());
    phases.push(serve_compacted.clone());

    // The CI reuse shape: a caller-provided directory that persists across
    // invocations (actions/cache).  Cold on the first run ever, warm after.
    let shared_phase = shared_dir.as_ref().map(|dir| {
        let phase = run("shared-store", jobs, dir, &sources);
        phases.push(phase.clone());
        phase
    });
    let total_wall_ms = start.elapsed().as_millis();

    let _ = std::fs::remove_dir_all(&scratch);

    let json = to_bench_json(&phases, total_wall_ms, jn_label_jobs);
    let out_path =
        std::env::var("BENCH_THROUGHPUT_OUT").unwrap_or_else(|_| "BENCH_throughput.json".into());
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\n  wrote {out_path}"),
        Err(e) => eprintln!("\n  could not write {out_path}: {e}"),
    }

    if let Ok(summary_path) = std::env::var("GITHUB_STEP_SUMMARY") {
        let markdown = render_markdown(&phases, total_wall_ms);
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&summary_path)
        {
            Ok(mut file) => {
                if let Err(e) = file.write_all(markdown.as_bytes()) {
                    eprintln!("  could not append job summary: {e}");
                }
            }
            Err(e) => eprintln!("  could not open {summary_path}: {e}"),
        }
    }

    let mut failures: Vec<String> = Vec::new();
    if assert_warm {
        if warm_j1.cache_hits == 0 {
            failures.push("warm-j1 answered no sequents from the store".to_string());
        }
        if warm_j1.cache_hits * 100 < cold_j1.sequents_proved_nontrivial() * 90 {
            failures.push(format!(
                "warm-j1 answered {} of {} previously proved non-trivial sequents \
                 from the store (< 90%)",
                warm_j1.cache_hits,
                cold_j1.sequents_proved_nontrivial()
            ));
        }
        if warm_j1.wall_ms >= cold_j1.wall_ms {
            failures.push(format!(
                "warm-j1 wall-clock {} ms did not beat cold-j1 {} ms",
                warm_j1.wall_ms, cold_j1.wall_ms
            ));
        }
        if serve_warm.cache_hits * 100 < serve_cold.sequents_proved_nontrivial() * 90 {
            failures.push(format!(
                "serve-warm answered {} of {} previously proved non-trivial sequents \
                 from warm session state (< 90%)",
                serve_warm.cache_hits,
                serve_cold.sequents_proved_nontrivial()
            ));
        }
        if serve_preloads > 1 {
            failures.push(format!(
                "the serve session scanned its store {serve_preloads} times (expected once)"
            ));
        }
        if serve_compacted.cache_hits * 100 < serve_cold.sequents_proved_nontrivial() * 90 {
            failures.push(format!(
                "serve-compacted answered {} of {} previously proved non-trivial sequents \
                 after the mid-session compaction (< 90%)",
                serve_compacted.cache_hits,
                serve_cold.sequents_proved_nontrivial()
            ));
        }
        match &serve.compaction {
            Some(stats) if stats.generation == 0 => failures
                .push("the mid-session compaction did not bump the store generation".to_string()),
            Some(_) => {}
            None => failures
                .push("the serve session had no store to compact (cache dir lost?)".to_string()),
        }
    }
    if require_shared_hits {
        match &shared_phase {
            Some(phase) if phase.cache_hits > 0 => {}
            Some(phase) => failures.push(format!(
                "shared-store phase had no cache hits ({} sequents proved fresh)",
                phase.sequents_proved
            )),
            None => failures
                .push("--require-shared-hits needs --cache-dir or $IPL_CACHE_DIR".to_string()),
        }
    }
    if let Some(baseline) = baseline {
        let fresh: Vec<(String, u128)> =
            phases.iter().map(|p| (p.name.clone(), p.wall_ms)).collect();
        let violations = ipl::suite::baseline::check_throughput_baseline(&fresh, &baseline);
        if violations.is_empty() {
            println!(
                "  baseline check passed: cold/warm wall-clock within {:.0}% (+{} ms slack)",
                ipl::suite::baseline::WALL_CLOCK_TOLERANCE * 100.0,
                ipl::suite::baseline::WALL_CLOCK_SLACK_MS
            );
        } else {
            failures.extend(violations);
        }
    }
    if !failures.is_empty() {
        eprintln!("  THROUGHPUT GATE FAILED:");
        for failure in &failures {
            eprintln!("    - {failure}");
        }
        std::process::exit(1);
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("{flag} requires an argument");
            std::process::exit(2);
        })
    })
}
