//! `ipl-perfbench --workload NAME --seed N --seconds S --trace 0|1 --ipl PATH`
//!
//! Runs one workload and prints, as the last line of stdout, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
//! metrics are the end-to-end ones, measured on the real `ipl` binary; with
//! `--trace 1` they are the per-layer ones, from a traced in-process run and
//! its untraced twin (each in a child process of its own).  A mutated method
//! reported verified aborts the run with exit code 3 and no result.
//!
//! `ipl-perfbench --list-mutants` traces every negated-postcondition mutant
//! and prints which ones the clock-cut rule excludes (see `gen::EXCLUDED`).

use ipl_perfbench::drive::{self, E2e};
use ipl_perfbench::gen::{self, Workload};
use ipl_perfbench::trace::{self, RunSummary, SoundnessTrip};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Exit code of a run stopped by the soundness tripwire.
const SOUNDNESS_TRIP: u8 = 3;
/// Latency percentiles need at least this many samples (ten beyond p90).
const MIN_SAMPLES: usize = 100;
/// Share of `--seconds` the traced mode spends on its end-to-end part.
const TRACE_E2E_SHARE: f64 = 0.3;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    ipl: PathBuf,
    inproc: Option<String>,
    work: Option<PathBuf>,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    list_mutants: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        ipl: PathBuf::from("ipl"),
        inproc: None,
        work: None,
        out: None,
        spans: None,
        list_mutants: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        if flag == "--list-mutants" {
            args.list_mutants = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<f64>()
                .map_err(|_| format!("{flag}: `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or_else(|| format!("no workload `{value}`"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("--seed: `{value}`"))?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0.0,
            "--ipl" => args.ipl = PathBuf::from(value),
            "--inproc" => args.inproc = Some(value),
            "--work" => args.work = Some(PathBuf::from(value)),
            "--out" => args.out = Some(PathBuf::from(value)),
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ipl-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.list_mutants {
        list_mutants()
    } else if let Some(mode) = &args.inproc {
        inproc(&args, mode)
    } else {
        benchmark(&args)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ipl-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A fresh scratch directory inside the checkout.
fn scratch(name: &str) -> Result<PathBuf, String> {
    let dir = Path::new(".bench_work").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn benchmark(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload.ok_or("--workload is required")?;
    let work = scratch(&format!(
        "{}-s{}-p{}",
        workload.name(),
        args.seed,
        std::process::id()
    ))?;
    let result = if args.trace {
        traced(args, workload, &work)
    } else {
        end_to_end(args, workload, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let report = match result? {
        Ok(report) => report,
        Err(trip) => {
            eprintln!("SOUNDNESS TRIPWIRE: {}; run aborted", trip.0);
            return Ok(ExitCode::from(SOUNDNESS_TRIP));
        }
    };
    println!("{}", report.json());
    Ok(ExitCode::SUCCESS)
}

/// The result line.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<String, f64>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, &value)| {
                let value = if value.is_finite() { value } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    unit(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn unit(metric: &str) -> &'static str {
    if metric.ends_with("_ms") || metric.ends_with(".ms") {
        "ms"
    } else if metric.ends_with("_per_s") {
        "1/s"
    } else if metric.ends_with("_s") {
        "s"
    } else if metric.ends_with("_mb") {
        "MB"
    } else if metric.ends_with("ratio") || metric.ends_with("share") || metric.ends_with("yield") {
        "ratio"
    } else {
        "count"
    }
}

/// The `p`-th percentile (nearest rank) of `values`.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn end_to_end(
    args: &Args,
    workload: Workload,
    work: &Path,
) -> Result<Result<Report, SoundnessTrip>, String> {
    let e2e = drive::run(
        workload,
        &args.ipl,
        work,
        args.seed,
        args.seconds,
        MIN_SAMPLES,
    )?;
    if let Some(trip) = e2e.soundness_trip {
        return Ok(Err(SoundnessTrip(trip)));
    }
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s".into(), percentile(&e2e.setup_s, 50.0));
    metrics.insert("verdict_p50_ms".into(), percentile(&e2e.latency_ms, 50.0));
    metrics.insert("verdict_p90_ms".into(), percentile(&e2e.latency_ms, 90.0));
    metrics.insert("requests_per_s".into(), e2e.requests_per_s);
    metrics.insert("sequents_per_s".into(), e2e.sequents_per_s);
    metrics.insert("peak_rss_mb".into(), e2e.peak_rss_kb as f64 / 1024.0);
    describe(workload, args.seed, &e2e);
    Ok(Ok(Report {
        correct: e2e.failed == 0 && e2e.attempted >= MIN_SAMPLES,
        attempted: e2e.attempted,
        failed: e2e.failed,
        metrics,
    }))
}

/// A human-readable line on stderr, with the sample count and the highest
/// percentile that has ten samples beyond it.
fn describe(workload: Workload, seed: u64, e2e: &E2e) {
    let n = e2e.latency_ms.len();
    let mut line = format!(
        "{} seed {seed}: {n} requests in {:.2} s, {} failed, p50 {:.2} ms",
        workload.name(),
        e2e.elapsed.as_secs_f64(),
        e2e.failed,
        percentile(&e2e.latency_ms, 50.0)
    );
    for (p, needed) in [(90.0, 100), (99.0, 1000)] {
        if n >= needed {
            line.push_str(&format!(", p{p} {:.2} ms", percentile(&e2e.latency_ms, p)));
        }
    }
    line.push_str(&format!(
        ", max {:.2} ms",
        percentile(&e2e.latency_ms, 100.0)
    ));
    eprintln!("{line}");
}

fn traced(
    args: &Args,
    workload: Workload,
    work: &Path,
) -> Result<Result<Report, SoundnessTrip>, String> {
    let seconds = (args.seconds * TRACE_E2E_SHARE).max(1.0);
    let e2e = drive::run(workload, &args.ipl, work, args.seed, seconds, 0)?;
    if let Some(trip) = e2e.soundness_trip {
        return Ok(Err(SoundnessTrip(trip)));
    }
    let spans = Path::new(".bench_work").join("spans");
    std::fs::create_dir_all(&spans).map_err(|e| format!("{}: {e}", spans.display()))?;
    let spans = spans.join(format!("{}-s{}.tsv", workload.name(), args.seed));
    let traced = match child(args, workload, work, "traced", Some(&spans))? {
        Ok(summary) => summary,
        Err(trip) => return Ok(Err(trip)),
    };
    let plain = match child(args, workload, work, "plain", None)? {
        Ok(summary) => summary,
        Err(trip) => return Ok(Err(trip)),
    };

    // Fidelity guard: the traced pipeline must answer exactly as the
    // session does, request by request.
    let mismatches = traced
        .answers
        .iter()
        .zip(&plain.answers)
        .filter(|(a, b)| a != b)
        .count()
        + traced.answers.len().abs_diff(plain.answers.len());
    if mismatches > 0 {
        eprintln!("fidelity guard: {mismatches} request(s) answered differently when traced");
    }
    let mut metrics = traced.metrics.clone();
    let timeouts = metrics.get("cascade.timeouts").copied().unwrap_or(0.0);
    if timeouts > 0.0 {
        eprintln!("flagged: {timeouts} stage call(s) reached the per-prover timeout");
    }
    let plain_wall = plain.metrics.get("wall_ms").copied().unwrap_or(0.0);
    let traced_wall = metrics.get("trace.wall_ms").copied().unwrap_or(0.0);
    metrics.insert("trace.plain_wall_ms".into(), plain_wall);
    metrics.insert("trace.overhead_ms".into(), traced_wall - plain_wall);
    let overhead = match workload {
        // What a cold process costs around its verification: spawn,
        // session, store open and exit, on a module with nothing to prove.
        Workload::CliCold => percentile(&e2e.setup_s, 50.0) * 1e3,
        Workload::ServeEdit | Workload::ServeFailing => percentile(&e2e.overhead_ms, 50.0),
    };
    metrics.insert("serve.overhead_ms".into(), overhead);
    metrics.insert("serve.refused".into(), e2e.refused as f64);
    let failed = e2e.failed + traced.failed + plain.failed;
    Ok(Ok(Report {
        correct: failed == 0 && mismatches == 0,
        attempted: e2e.attempted + traced.attempted + plain.attempted,
        failed,
        metrics,
    }))
}

/// Runs one in-process run in a child process of its own and reads back
/// its summary.
fn child(
    args: &Args,
    workload: Workload,
    work: &Path,
    mode: &str,
    spans: Option<&Path>,
) -> Result<Result<RunSummary, SoundnessTrip>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = work.join(format!("{mode}.summary"));
    let mut command = Command::new(exe);
    command
        .args(["--inproc", mode, "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .arg("--work")
        .arg(work)
        .arg("--out")
        .arg(&out);
    if let Some(spans) = spans {
        command.arg("--spans").arg(spans);
    }
    let status = command.status().map_err(|e| format!("{mode} run: {e}"))?;
    if status.code() == Some(i32::from(SOUNDNESS_TRIP)) {
        return Ok(Err(SoundnessTrip(format!("in the {mode} run"))));
    }
    if !status.success() {
        return Err(format!("{mode} run failed: {status}"));
    }
    trace::read_summary(&out).map(Ok)
}

/// The child side of [`child`].
fn inproc(args: &Args, mode: &str) -> Result<ExitCode, String> {
    let workload = args.workload.ok_or("--workload is required")?;
    let work = args.work.as_deref().ok_or("--work is required")?;
    let out = args.out.as_deref().ok_or("--out is required")?;
    let summary = match mode {
        "traced" => {
            let spans = args.spans.as_deref().ok_or("--spans is required")?;
            trace::run_traced(workload, args.seed, work, spans)?
        }
        "plain" => trace::run_plain(workload, args.seed, work)?,
        _ => return Err(format!("no in-process mode `{mode}`")),
    };
    match summary {
        Ok(summary) => {
            trace::write_summary(&summary, out).map_err(|e| format!("{}: {e}", out.display()))?;
            Ok(ExitCode::SUCCESS)
        }
        Err(trip) => {
            eprintln!("SOUNDNESS TRIPWIRE: {}", trip.0);
            Ok(ExitCode::from(SOUNDNESS_TRIP))
        }
    }
}

fn list_mutants() -> Result<ExitCode, String> {
    let work = scratch(&format!("survey-p{}", std::process::id()))?;
    let costs = trace::survey_mutants(&work);
    let _ = std::fs::remove_dir_all(&work);
    let mut disagreements = 0;
    println!("module\tmethod\tensures\tlongest_stage_ms\ttotal_ms\tclock_cut\texcluded\tverdict");
    for cost in costs? {
        let (module, method) = cost.id.names();
        let excluded = gen::is_excluded(cost.id);
        if excluded != cost.clock_cut() {
            disagreements += 1;
        }
        println!(
            "{module}\t{method}\t{}\t{:.1}\t{:.1}\t{}\t{excluded}\t{}",
            cost.id.ensures,
            cost.longest_stage_ms,
            cost.total_ms,
            cost.clock_cut(),
            if cost.verdict_ok { "ok" } else { "WRONG" }
        );
    }
    if disagreements > 0 {
        eprintln!("{disagreements} mutant(s) where gen::EXCLUDED and the clock-cut rule disagree");
    }
    Ok(ExitCode::SUCCESS)
}
