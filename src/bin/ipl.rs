//! `ipl` — the command-line verifier.
//!
//! ```text
//! ipl verify FILE...       verify annotated modules (with optional persistent
//!                          proof store, jobs)
//! ipl cache DIR            inspect the proof-store files in a cache directory
//! ```
//!
//! `ipl verify` is the serving entry point the ROADMAP's
//! "verification-as-a-service" item asks for: pointed at a cache directory
//! (`--cache-dir` or `$IPL_CACHE_DIR`), it preloads every previously proved
//! fingerprint before dispatch and persists every fresh proof after, so the
//! second run over an unchanged module costs one hash lookup per sequent —
//! across processes and, with a shared directory, across machines.

use ipl::core::{ModuleReport, Request, SequentReport, Session, VerifyOptions};
use ipl::provers::{cache_store, fault};
use ipl::serve::{Daemon, ServeConfig, ShutdownKind};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
  --fault-plan SPEC  install a deterministic chaos-injection plan (also read
                     from $IPL_FAULT_PLAN; the flag wins).  SPEC is
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
  --jobs N           default worker threads (requests may override)
  --module-deadline-ms N
                     default wall-clock budget per request (requests may
                     override with `deadline_ms`)
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
  --compact-every N  compact the proof store after every N verified requests
                     (0 = never; duplicates dropped, generation bumped, warm
                     index kept — no rescan)
  --fault-plan SPEC  daemon-level chaos plan (also $IPL_FAULT_PLAN); adds
                     connection-level kinds conn_drop/stall/stall_ms/overload
                     on top of the verify-level ones

serve signals and exit codes: SIGTERM begins a graceful drain (stop
accepting, finish in-flight under the drain deadline, flush store appends).
Exit 0 = clean shutdown or drain that finished in time; 4 = the drain
deadline cut at least one in-flight request down to a partial report;
1 = I/O failure; 2 = usage.

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

fn cmd_verify(args: &[String]) -> ExitCode {
    let mut options = VerifyOptions::default();
    let mut cache_dir = std::env::var_os("IPL_CACHE_DIR").map(PathBuf::from);
    let mut fault_spec = std::env::var("IPL_FAULT_PLAN").ok();
    let mut quiet = false;
    let mut files: Vec<PathBuf> = Vec::new();

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--cache-dir" => match iter.next() {
                Some(dir) => cache_dir = Some(PathBuf::from(dir)),
                None => return usage_error("--cache-dir needs a directory"),
            },
            "--no-cache" => {
                options.config.use_cache = false;
                cache_dir = None;
            }
            "--jobs" => match iter.next().and_then(|n| n.parse().ok()) {
                Some(jobs) => options.jobs = jobs,
                None => return usage_error("--jobs needs a number"),
            },
            "--module-deadline-ms" => match iter.next().and_then(|n| n.parse().ok()) {
                Some(ms) => options.module_deadline = Some(Duration::from_millis(ms)),
                None => return usage_error("--module-deadline-ms needs a number"),
            },
            "--fault-plan" => match iter.next() {
                Some(spec) => fault_spec = Some(spec.clone()),
                None => return usage_error("--fault-plan needs a plan spec"),
            },
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
    options.cache_dir = cache_dir;
    if let Some(spec) = fault_spec.as_deref() {
        match fault::FaultPlan::parse(spec) {
            Ok(plan) => fault::set_plan(Some(plan)),
            Err(e) => return usage_error(&e),
        }
    }

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
        let report = match session.verify(&Request::new(source)) {
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
/// Set when an immediate (non-drain) `shutdown` op asks the daemon to stop.
static SHUTDOWN_NOW: AtomicBool = AtomicBool::new(false);

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
    let mut options = VerifyOptions::default();
    let mut cache_dir = std::env::var_os("IPL_CACHE_DIR").map(PathBuf::from);
    let mut fault_spec = std::env::var("IPL_FAULT_PLAN").ok();
    let mut listen: Option<PathBuf> = None;
    let mut max_inflight = 0usize;
    let mut queue_depth: Option<usize> = None;
    let mut serve_config = ServeConfig::default();

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--cache-dir" => match iter.next() {
                Some(dir) => cache_dir = Some(PathBuf::from(dir)),
                None => return usage_error("--cache-dir needs a directory"),
            },
            "--no-cache" => {
                options.config.use_cache = false;
                cache_dir = None;
            }
            "--jobs" => match iter.next().and_then(|n| n.parse().ok()) {
                Some(jobs) => options.jobs = jobs,
                None => return usage_error("--jobs needs a number"),
            },
            "--module-deadline-ms" => match iter.next().and_then(|n| n.parse().ok()) {
                Some(ms) => options.module_deadline = Some(Duration::from_millis(ms)),
                None => return usage_error("--module-deadline-ms needs a number"),
            },
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
            "--compact-every" => match iter.next().and_then(|n| n.parse().ok()) {
                Some(n) => serve_config.compact_every = n,
                None => return usage_error("--compact-every needs a number"),
            },
            "--fault-plan" => match iter.next() {
                Some(spec) => fault_spec = Some(spec.clone()),
                None => return usage_error("--fault-plan needs a plan spec"),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown serve argument `{other}`")),
        }
    }
    options.cache_dir = cache_dir;
    if max_inflight > 0 {
        serve_config.max_inflight = max_inflight;
        serve_config.queue_depth = 2 * max_inflight;
    }
    if let Some(depth) = queue_depth {
        serve_config.queue_depth = depth;
    }
    if let Some(spec) = fault_spec.as_deref() {
        match fault::FaultPlan::parse(spec) {
            Ok(plan) => {
                // The plan drives both the verify-level faults (panics,
                // delays, store I/O — via the process-global slot every
                // request consults) and the connection-level ones the
                // daemon evaluates explicitly.
                fault::set_plan(Some(plan));
                serve_config.fault_plan = Some(plan);
            }
            Err(e) => return usage_error(&e),
        }
    }

    install_sigterm_handler();
    let daemon = Arc::new(Daemon::new(Arc::new(Session::new(options)), serve_config));
    spawn_drain_watcher(Arc::clone(&daemon));

    match listen {
        None => serve_stdin(&daemon),
        Some(path) => serve_socket(&daemon, &path),
    }
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

/// Serves the protocol on stdin/stdout.  Stdin has no per-connection
/// identity, so connection-level fault injections that sever a transport
/// (`drop_mid_frame`) are ignored; stalls and overloads apply.
fn serve_stdin(daemon: &Arc<Daemon>) -> ExitCode {
    eprintln!("ipl serve: ready (stdin)");
    let mut stdin = std::io::stdin().lock();
    let mut stdout = std::io::stdout().lock();
    let mut drained = false;
    let mut raw = Vec::new();
    loop {
        raw.clear();
        match stdin.read_until(b'\n', &mut raw) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("ipl serve: stdin error: {e}");
                return ExitCode::FAILURE;
            }
        }
        let line = raw.strip_suffix(b"\n").unwrap_or(&raw);
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Some(served) = daemon.handle_bytes(line) else {
            continue;
        };
        if let Some(stall) = served.stall {
            std::thread::sleep(stall);
        }
        if writeln!(stdout, "{}", served.frame)
            .and_then(|()| stdout.flush())
            .is_err()
        {
            return ExitCode::FAILURE;
        }
        match served.shutdown {
            Some(ShutdownKind::Immediate) => break,
            Some(ShutdownKind::Drain) => {
                daemon.begin_drain();
                drained = true;
                break;
            }
            None => {}
        }
        if daemon.draining() {
            // SIGTERM arrived (possibly mid-request: the cascade wound the
            // request down to a partial report, already answered above).
            drained = true;
            break;
        }
    }
    // Requests are answered synchronously here, so by this point every
    // store append has been flushed; a drain that had to cut the last
    // request past its deadline reports exit code 4.
    if (drained || daemon.draining()) && ipl::provers::drain::deadline_passed() {
        return ExitCode::from(4);
    }
    ExitCode::SUCCESS
}

/// Serves the protocol on a Unix socket: one thread (and one protocol
/// stream) per connection, all sharing the one warm daemon.  The accept
/// loop is non-blocking so it can notice SIGTERM drains and immediate
/// shutdowns promptly.
#[cfg(unix)]
fn serve_socket(daemon: &Arc<Daemon>, path: &std::path::Path) -> ExitCode {
    use std::os::unix::net::UnixListener;

    // A previous daemon's socket file would make bind fail with AddrInUse.
    let _ = std::fs::remove_file(path);
    let listener = match UnixListener::bind(path) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("ipl serve: cannot bind {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if listener.set_nonblocking(true).is_err() {
        eprintln!("ipl serve: cannot poll the listener");
        return ExitCode::FAILURE;
    }
    eprintln!("ipl serve: ready ({})", path.display());
    let connections = Arc::new(AtomicUsize::new(0));
    loop {
        if SHUTDOWN_NOW.load(Ordering::Relaxed) {
            let _ = std::fs::remove_file(path);
            return ExitCode::SUCCESS;
        }
        if daemon.draining() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let daemon = Arc::clone(daemon);
                let connections = Arc::clone(&connections);
                connections.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    // Decrement on every exit path, panics included: the
                    // drain accounting below waits on this counter.
                    struct Open(Arc<AtomicUsize>);
                    impl Drop for Open {
                        fn drop(&mut self) {
                            self.0.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                    let _open = Open(Arc::clone(&connections));
                    serve_connection(&daemon, stream);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                eprintln!("ipl serve: accept error: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    // Draining: stop accepting, let in-flight connections finish under the
    // drain deadline (their cascades answer Skipped partials once it
    // passes), then exit with the documented code.
    let deadline = ipl::provers::drain::deadline().unwrap_or_else(Instant::now);
    // Idle connections notice the drain on their next read poll; the hard
    // stop covers a wedged client that keeps a request running past the
    // deadline anyway.
    let hard_stop = deadline + Duration::from_secs(5);
    let mut cut = false;
    loop {
        if connections.load(Ordering::SeqCst) == 0 {
            break;
        }
        let now = Instant::now();
        if now >= hard_stop {
            cut = true;
            eprintln!("ipl serve: drain hard-stop with connections still open");
            break;
        }
        if now >= deadline {
            // Someone is still in flight past the deadline: its report is
            // being cut to Skipped partials.
            cut = true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = std::fs::remove_file(path);
    eprintln!("ipl serve: drained");
    if cut {
        ExitCode::from(4)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(not(unix))]
fn serve_socket(_daemon: &Arc<Daemon>, _path: &std::path::Path) -> ExitCode {
    eprintln!("ipl serve: --listen requires Unix domain sockets; use stdin mode");
    ExitCode::from(2)
}

/// Serves one accepted connection until it closes, times out, or the
/// daemon stops.  A mid-frame disconnect (EOF with an unterminated line
/// pending) tears down only this connection — the partial frame is never
/// processed and no response is written for it.
#[cfg(unix)]
fn serve_connection(daemon: &Arc<Daemon>, mut stream: std::os::unix::net::UnixStream) {
    use std::io::Read;

    // Short poll ticks (not the full read timeout) so an idle connection
    // notices a drain promptly; idleness is tracked across ticks.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(Some(daemon.config().write_timeout));
    let read_timeout = daemon.config().read_timeout;
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut last_byte = Instant::now();
    loop {
        // Serve every complete line already buffered.
        while let Some(end) = pending.iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = pending.drain(..=end).collect();
            let Some(served) = daemon.handle_bytes(&raw[..end]) else {
                continue;
            };
            if let Some(stall) = served.stall {
                std::thread::sleep(stall);
            }
            if served.drop_mid_frame {
                // Injected connection drop: half a frame, then sever.  The
                // client sees a torn response and a closed socket; the
                // daemon is unaffected.
                let frame = served.frame.as_bytes();
                let _ = stream.write_all(&frame[..frame.len() / 2]);
                let _ = stream.flush();
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return;
            }
            if writeln!(stream, "{}", served.frame)
                .and_then(|()| stream.flush())
                .is_err()
            {
                // Half-open or gone: shed this connection; never write a
                // further frame onto a stream that failed mid-response.
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return;
            }
            match served.shutdown {
                Some(ShutdownKind::Immediate) => {
                    SHUTDOWN_NOW.store(true, Ordering::Relaxed);
                    return;
                }
                Some(ShutdownKind::Drain) => {
                    daemon.begin_drain();
                    return;
                }
                None => {}
            }
        }
        if SHUTDOWN_NOW.load(Ordering::Relaxed) {
            return;
        }
        match stream.read(&mut chunk) {
            // EOF.  Anything left in `pending` is an unterminated frame
            // from a client that died mid-send: drop it unprocessed.
            Ok(0) => return,
            Ok(n) => {
                pending.extend_from_slice(&chunk[..n]);
                last_byte = Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if daemon.draining() {
                    // No new requests during a drain; close idle streams.
                    return;
                }
                if last_byte.elapsed() >= read_timeout {
                    // Slow or half-open client (possibly wedged mid-frame):
                    // shed it so it cannot pin this worker forever.
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
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
