//! `ipl` — the command-line verifier.
//!
//! ```text
//! ipl verify FILE...       verify annotated modules (with optional persistent
//!                          proof store, jobs)
//! ipl cache DIR            inspect the proof-store files in a cache directory
//! ```
//!
//! Pointed at a cache directory (`--cache-dir` or `$IPL_CACHE_DIR`),
//! `ipl verify` preloads every previously proved fingerprint before dispatch
//! and persists every fresh proof after, so the second run over an unchanged
//! module costs one hash lookup per sequent — across processes and, with a
//! shared directory, across machines.

use ipl::core::{ModuleReport, Request, SequentReport, Session, VerifyOptions};
use ipl::provers::{cache_store, fault};
use ipl::serve::{Daemon, ServeConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: ipl verify [options] FILE...
       ipl serve [options]
       ipl cache DIR

verify options:
  --cache-dir DIR    persistent proof store directory (default: $IPL_CACHE_DIR)
  --no-cache         disable the proof cache (and the store) entirely
  --jobs N           worker threads (0 = available parallelism)
  --quiet            print only the per-module summary line
  --module-deadline-ms N
                     wall-clock budget per module; sequents dispatched after
                     it passes are reported SKIPPED and the report is partial
  --fault-plan SPEC  run every module under a deterministic chaos-injection
                     plan (also read from $IPL_FAULT_PLAN; the flag wins):
                     prover-stage and store-append faults.  SPEC is
                     comma-separated key=value with percentages, e.g.
                     'seed=42,panic=1,delay=5' or 'default,seed=7'

exit codes: 0 all proved; 1 unproved sequents or I/O/parse error; 2 usage;
3 at least one sequent crashed (quarantined prover/driver panic); 4 at least
one sequent skipped on the module deadline.  Crashed > skipped > unproved
when several apply.

`ipl serve` runs a long-lived verification daemon: one JSON request per
line on stdin, one JSON response per line on stdout (see the `ipl::serve`
module docs for the schema).  The prover cascade, the in-memory proof cache
and the persistent store index stay warm across requests — the store log is
scanned once per process, not once per request.  A request that panics is
quarantined and answered with an error frame; the daemon keeps serving.

serve options:
  --cache-dir DIR    persistent proof store directory (default: $IPL_CACHE_DIR)
  --no-cache         disable the proof cache (and the store) entirely
  --jobs N           default worker threads (requests may override with
                     `jobs`, up to the machine's available parallelism)
  --module-deadline-ms N
                     default wall-clock budget per request (requests may
                     override with `deadline_ms`, in milliseconds)
  --listen PATH      accept connections on a Unix socket at PATH instead of
                     serving stdin (one protocol stream per connection; a
                     `shutdown` request stops the whole daemon)
  --max-inflight N   verify requests allowed to run concurrently
                     (0 = available parallelism, the default)
  --queue N          verify requests allowed to wait for a slot; anything
                     past pool + queue answers an immediate overloaded frame
                     with a retry_after_ms hint (default: 2 x max-inflight)
  --read-timeout-ms N / --write-timeout-ms N
                     shed a connection that sends/accepts no byte for this
                     long (default 10000); a mid-frame disconnect tears down
                     only that connection, never the daemon
  --drain-deadline-ms N
                     how long a drain (SIGTERM or shutdown {\"drain\": true})
                     lets in-flight requests finish before they answer
                     Skipped(DeadlineExceeded) partial reports (default 5000)
  --fault-plan SPEC  daemon-level chaos plan (also $IPL_FAULT_PLAN) for every
                     request that carries no `fault_plan` of its own; adds
                     connection-level kinds conn_drop/stall/stall_ms/overload
                     on top of the verify-level ones

serve signals and exit codes: SIGTERM begins a graceful drain (stop
accepting, finish in-flight under the drain deadline, flush store appends).
Exit 0 = clean shutdown or drain that finished in time; 4 = the drain
deadline cut at least one answered request down to a partial report (or,
with --listen, connections were still open 5 s past it); 1 = I/O failure;
2 = usage.

`ipl cache DIR` lists every store file in DIR with its schema version,
generation, entry count and any corrupt bytes a load would skip.
`ipl cache DIR --compact` rewrites each store dropping duplicate
fingerprints and corrupt ranges (write-to-temp + atomic rename, generation
bumped); a file with a foreign header is moved to DIR/quarantine/ instead
of being touched.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("verify") => cmd_verify(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("cache") => cmd_cache(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("ipl: unknown command `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// The options `ipl verify` and `ipl serve` share.  `$IPL_CACHE_DIR` and
/// `$IPL_FAULT_PLAN` give the defaults, and a flag beats its variable.
struct SharedOptions {
    options: VerifyOptions,
    fault_spec: Option<String>,
}

impl SharedOptions {
    fn from_env() -> SharedOptions {
        let mut options = VerifyOptions::default();
        options.cache_dir = std::env::var_os("IPL_CACHE_DIR").map(PathBuf::from);
        SharedOptions {
            options,
            fault_spec: std::env::var("IPL_FAULT_PLAN").ok(),
        }
    }

    /// Takes `arg`, and its value from `rest`, when it is a shared option.
    /// Returns whether it was one, or the usage error for a missing or
    /// malformed value.
    fn parse(&mut self, arg: &str, rest: &mut std::slice::Iter<String>) -> Result<bool, ExitCode> {
        match arg {
            "--cache-dir" => match rest.next() {
                Some(dir) => self.options.cache_dir = Some(PathBuf::from(dir)),
                None => return Err(usage_error("--cache-dir needs a directory")),
            },
            "--no-cache" => {
                self.options.config.use_cache = false;
                self.options.cache_dir = None;
            }
            "--jobs" => match rest.next().and_then(|n| n.parse().ok()) {
                Some(jobs) => self.options.jobs = jobs,
                None => return Err(usage_error("--jobs needs a number")),
            },
            "--module-deadline-ms" => match rest.next().and_then(|n| n.parse().ok()) {
                Some(ms) => self.options.module_deadline = Some(Duration::from_millis(ms)),
                None => return Err(usage_error("--module-deadline-ms needs a number")),
            },
            "--fault-plan" => match rest.next() {
                Some(spec) => self.fault_spec = Some(spec.clone()),
                None => return Err(usage_error("--fault-plan needs a plan spec")),
            },
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The verify options and the fault plan, or the usage error for a
    /// malformed plan.
    fn finish(self) -> Result<(VerifyOptions, Option<fault::FaultPlan>), ExitCode> {
        let plan = self.fault_spec.as_deref().map(fault::FaultPlan::parse);
        match plan.transpose() {
            Ok(plan) => Ok((self.options, plan)),
            Err(e) => Err(usage_error(&e)),
        }
    }
}

fn cmd_verify(args: &[String]) -> ExitCode {
    let mut shared = SharedOptions::from_env();
    let mut quiet = false;
    let mut files: Vec<PathBuf> = Vec::new();

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match shared.parse(arg, &mut iter) {
            Err(code) => return code,
            Ok(true) => continue,
            Ok(false) => {}
        }
        match arg.as_str() {
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--") => {
                return usage_error(&format!("unknown flag `{flag}`"));
            }
            file => files.push(PathBuf::from(file)),
        }
    }
    if files.is_empty() {
        return usage_error("no input files");
    }
    let (options, plan) = match shared.finish() {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };

    // One session for every file on the command line: the cascade is built
    // once and the store log is scanned once, no matter how many modules
    // follow.
    let session = Session::new(options);
    let mut all_proved = true;
    let mut any_crashed = false;
    let mut any_skipped = false;
    for file in &files {
        let source = match std::fs::read_to_string(file) {
            Ok(source) => source,
            Err(e) => {
                eprintln!("ipl: cannot read {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
        };
        let mut request = Request::new(source);
        request.fault_plan = plan;
        let report = match session.verify(&request) {
            Ok(response) => response.report,
            Err(e) => {
                eprintln!("ipl: {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
        };
        print_report(file, &report, quiet);
        all_proved &= report.fully_proved();
        any_crashed |= report.crashed_sequents() > 0;
        any_skipped |= report.skipped_sequents() > 0;
    }
    // Distinct codes so scripts and CI can gate: a crash is an
    // infrastructure fault (retry/alert), a deadline skip is a budget
    // problem (raise it), an unproved sequent is a proof problem (add
    // proof-language guidance).
    if any_crashed {
        ExitCode::from(3)
    } else if any_skipped {
        ExitCode::from(4)
    } else if all_proved {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Set by the SIGTERM handler; the drain watcher thread turns it into a
/// `Daemon::begin_drain` (a signal handler must not take locks itself).
static SIGTERM_RECEIVED: AtomicBool = AtomicBool::new(false);

/// Installs a minimal SIGTERM handler (a relaxed flag store — nothing else
/// is async-signal-safe).  `std` links libc but does not re-export
/// `signal`, so declare it directly.
#[cfg(unix)]
fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    extern "C" fn on_sigterm(_signum: i32) {
        SIGTERM_RECEIVED.store(true, Ordering::Relaxed);
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut shared = SharedOptions::from_env();
    let mut listen: Option<PathBuf> = None;
    let mut max_inflight = 0usize;
    let mut queue_depth: Option<usize> = None;
    let mut serve_config = ServeConfig::default();

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match shared.parse(arg, &mut iter) {
            Err(code) => return code,
            Ok(true) => continue,
            Ok(false) => {}
        }
        match arg.as_str() {
            "--listen" => match iter.next() {
                Some(path) => listen = Some(PathBuf::from(path)),
                None => return usage_error("--listen needs a socket path"),
            },
            "--max-inflight" => match iter.next().and_then(|n| n.parse().ok()) {
                Some(n) => max_inflight = n,
                None => return usage_error("--max-inflight needs a number"),
            },
            "--queue" => match iter.next().and_then(|n| n.parse().ok()) {
                Some(n) => queue_depth = Some(n),
                None => return usage_error("--queue needs a number"),
            },
            "--read-timeout-ms" => match iter.next().and_then(|n| n.parse().ok()) {
                Some(ms) => serve_config.read_timeout = Duration::from_millis(ms),
                None => return usage_error("--read-timeout-ms needs a number"),
            },
            "--write-timeout-ms" => match iter.next().and_then(|n| n.parse().ok()) {
                Some(ms) => serve_config.write_timeout = Duration::from_millis(ms),
                None => return usage_error("--write-timeout-ms needs a number"),
            },
            "--drain-deadline-ms" => match iter.next().and_then(|n| n.parse().ok()) {
                Some(ms) => serve_config.drain_deadline = Duration::from_millis(ms),
                None => return usage_error("--drain-deadline-ms needs a number"),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown serve argument `{other}`")),
        }
    }
    if max_inflight > 0 {
        serve_config.max_inflight = max_inflight;
        serve_config.queue_depth = 2 * max_inflight;
    }
    if let Some(depth) = queue_depth {
        serve_config.queue_depth = depth;
    }
    let (options, plan) = match shared.finish() {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    serve_config.fault_plan = plan;

    install_sigterm_handler();
    let daemon = Arc::new(Daemon::new(Arc::new(Session::new(options)), serve_config));
    spawn_drain_watcher(Arc::clone(&daemon));

    ExitCode::from(match listen {
        None => daemon.serve_stdin(),
        Some(path) => daemon.serve_socket(&path),
    })
}

/// Polls the SIGTERM flag and turns it into a graceful drain.  The watcher
/// is detached; it dies with the process.
fn spawn_drain_watcher(daemon: Arc<Daemon>) {
    std::thread::spawn(move || loop {
        if SIGTERM_RECEIVED.load(Ordering::Relaxed) && !daemon.draining() {
            let deadline = daemon.begin_drain();
            eprintln!(
                "ipl serve: SIGTERM, draining (deadline in {} ms)",
                deadline
                    .saturating_duration_since(Instant::now())
                    .as_millis()
            );
        }
        std::thread::sleep(Duration::from_millis(25));
    });
}

fn print_report(file: &std::path::Path, report: &ModuleReport, quiet: bool) {
    if quiet {
        let faults = if report.crashed_sequents() + report.skipped_sequents() > 0 {
            format!(
                ", {} crashed, {} skipped",
                report.crashed_sequents(),
                report.skipped_sequents()
            )
        } else {
            String::new()
        };
        println!(
            "{}: {}/{} methods verified, {}/{} sequents proved ({} from cache){faults}",
            file.display(),
            report.methods_verified(),
            report.method_count,
            report.proved_sequents(),
            report.total_sequents(),
            report.cache_hits(),
        );
    } else {
        print!("{}", report.render());
        let unproved: Vec<&SequentReport> = report
            .methods
            .iter()
            .flat_map(|m| m.failed_sequents())
            .filter(|s| s.outcome == ipl::provers::Outcome::Unknown)
            .collect();
        if !unproved.is_empty() {
            println!(
                "{} unproved sequent(s) — consider adding proof-language guidance",
                unproved.len()
            );
        }
    }
}

fn cmd_cache(args: &[String]) -> ExitCode {
    let (dir, compact) = match args {
        [dir] => (dir, false),
        [dir, flag] | [flag, dir] if flag == "--compact" => (dir, true),
        _ => return usage_error("ipl cache takes one directory and optionally --compact"),
    };
    if compact {
        let results = match cache_store::compact_dir(&PathBuf::from(dir)) {
            Ok(results) => results,
            Err(e) => {
                eprintln!("ipl: cannot compact {dir}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if results.is_empty() {
            println!("{dir}: no proof-store files");
            return ExitCode::SUCCESS;
        }
        for (path, outcome) in results {
            match outcome {
                cache_store::FileCompaction::Compacted(stats) => println!(
                    "{}: compacted {} -> {} entries ({} duplicates, {} corrupt bytes dropped), \
                     {} -> {} bytes, generation {}",
                    path.display(),
                    stats.entries_before,
                    stats.entries_after,
                    stats.duplicates_dropped,
                    stats.corrupt_bytes_dropped,
                    stats.bytes_before,
                    stats.bytes_after,
                    stats.generation
                ),
                cache_store::FileCompaction::Quarantined { to, reason } => println!(
                    "{}: quarantined to {} ({reason})",
                    path.display(),
                    to.display()
                ),
            }
        }
        return ExitCode::SUCCESS;
    }
    let infos = match cache_store::scan_dir(&PathBuf::from(dir)) {
        Ok(infos) => infos,
        Err(e) => {
            eprintln!("ipl: cannot scan {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if infos.is_empty() {
        println!("{dir}: no proof-store files");
        return ExitCode::SUCCESS;
    }
    for info in infos {
        let schema = info
            .schema_version
            .map_or("foreign".to_string(), |v| format!("v{v}"));
        let generation = info
            .generation
            .map_or(String::new(), |g| format!(" generation {g},"));
        let tail = if info.corrupt_tail_bytes > 0 {
            format!(
                ", {} corrupt bytes (skipped on load, dropped by --compact)",
                info.corrupt_tail_bytes
            )
        } else {
            String::new()
        };
        println!(
            "{}: schema {schema},{generation} {} entries{tail}",
            info.path.display(),
            info.entries
        );
    }
    ExitCode::SUCCESS
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("ipl: {message}\n{USAGE}");
    ExitCode::from(2)
}
