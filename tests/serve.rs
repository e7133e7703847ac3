//! End-to-end protocol tests for the `ipl serve` daemon: each test spawns
//! the real binary, speaks newline-delimited JSON over its stdin/stdout, and
//! asserts on the response frames.
//!
//! The headline guarantees pinned here:
//!
//! 1. a second identical verify request is answered from warm session state
//!    (≥ 90% of the previously proved non-trivial sequents come from the
//!    cache) without re-scanning the on-disk store log;
//! 2. a request with an expired deadline comes back as a *partial* report
//!    (skipped sequents), not an error, and the daemon keeps serving;
//! 3. a chaos request whose provers panic is quarantined — the daemon
//!    answers it and then serves the next request normally;
//! 4. a chaos request's plan governs that request alone — a clean request
//!    on another connection answers as it would on a fault-free daemon;
//! 5. frames are standard JSON: a source sent with CRLF line endings or with
//!    `\u` escapes verifies exactly like the plain one.

use ipl::core::json::{self, parse_json, Json};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};

/// One `ipl serve` daemon on stdin/stdout pipes.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ipl"))
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("ipl serve spawns");
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Daemon {
            child,
            stdin,
            stdout,
        }
    }

    /// Sends one request line and reads the one response frame it produces.
    fn request(&mut self, line: &str) -> Json {
        writeln!(self.stdin, "{line}").expect("daemon accepts the request");
        let mut frame = String::new();
        self.stdout
            .read_line(&mut frame)
            .expect("daemon answers the request");
        assert!(!frame.is_empty(), "daemon closed the stream early");
        parse_json(&frame).unwrap_or_else(|e| panic!("bad frame {frame:?}: {e}"))
    }

    /// Sends `shutdown` and waits for a clean exit.
    fn shutdown(mut self) {
        let frame = self.request("{\"op\": \"shutdown\"}");
        assert_eq!(frame.get("shutdown"), Some(&Json::Bool(true)));
        let status = self.child.wait().expect("daemon exits");
        assert!(status.success(), "daemon exit status: {status:?}");
    }
}

fn u(frame: &Json, key: &str) -> u128 {
    frame
        .get(key)
        .and_then(Json::as_u128)
        .unwrap_or_else(|| panic!("frame has no numeric `{key}`: {frame:?}"))
}

fn verify_frame(extra: &str) -> String {
    let benchmark = ipl::suite::by_name("Linked List").expect("benchmark exists");
    format!(
        "{{\"op\": \"verify\", \"source\": {}{extra}}}",
        json::string(benchmark.source)
    )
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ipl-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_requests_are_answered_from_session_state() {
    let dir = temp_dir("warm");
    let mut daemon = Daemon::spawn(&["--cache-dir", dir.to_str().unwrap(), "--jobs", "1"]);

    let cold = daemon.request(&verify_frame(""));
    assert_eq!(cold.get("ok"), Some(&Json::Bool(true)), "{cold:?}");
    assert_eq!(cold.get("fully_proved"), Some(&Json::Bool(true)));
    let nontrivial = u(&cold, "sequents_proved_nontrivial");
    assert!(nontrivial > 0, "the benchmark has non-trivial obligations");
    assert!(u(&cold, "store_preloads") <= 1);
    assert!(u(&cold, "store_appended") > 0, "cold run persists proofs");

    let warm = daemon.request(&verify_frame(""));
    assert_eq!(warm.get("fully_proved"), Some(&Json::Bool(true)));
    assert!(
        u(&warm, "cache_hits") * 100 >= nontrivial * 90,
        "warm request answered {} of {nontrivial} non-trivial sequents from warm state",
        u(&warm, "cache_hits")
    );
    assert!(
        u(&warm, "store_preloads") <= 1,
        "the store log was re-scanned: {warm:?}"
    );
    assert_eq!(
        u(&warm, "store_appended"),
        0,
        "nothing new to persist on the warm request"
    );

    let stats = daemon.request("{\"id\": \"s\", \"op\": \"stats\"}");
    assert_eq!(stats.get("id").and_then(Json::as_str), Some("s"));
    assert_eq!(u(&stats, "requests"), 2);
    assert!(u(&stats, "store_preloads") <= 1);

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same module, with a non-ASCII comment, sent three ways a standard
/// JSON encoder may write it: LF line endings, CRLF line endings (`\r`
/// escapes), and every non-ASCII character as a `\u` escape, the emoji as a
/// surrogate pair (Python's `json.dumps` default).  All three verify alike.
#[test]
fn crlf_and_unicode_escaped_sources_verify_like_plain_ones() {
    let linked_list = ipl::suite::by_name("Linked List").expect("benchmark exists");
    let source = format!("// café ☕ 😀\n{}", linked_list.source);
    let ascii_only: String = json::string(&source)
        .chars()
        .map(|c| match c {
            c if c.is_ascii() => c.to_string(),
            c => c
                .encode_utf16(&mut [0; 2])
                .iter()
                .map(|unit| format!("\\u{unit:04x}"))
                .collect(),
        })
        .collect();
    let literals = [
        json::string(&source),
        json::string(&source.replace('\n', "\r\n")),
        ascii_only,
    ];
    assert!(literals[1].contains("\\r\\n") && literals[2].contains("\\ud83d\\ude00"));

    let mut daemon = Daemon::spawn(&["--no-cache", "--jobs", "1"]);
    let verified: Vec<u128> = literals
        .iter()
        .map(|literal| {
            let frame = daemon.request(&format!("{{\"op\": \"verify\", \"source\": {literal}}}"));
            assert_eq!(frame.get("ok"), Some(&Json::Bool(true)), "{frame:?}");
            u(&frame, "methods_verified")
        })
        .collect();
    assert_eq!(verified, [6, 6, 6]);
    daemon.shutdown();
}

#[test]
fn deadline_requests_return_partial_reports() {
    // No cache: previously proved sequents would otherwise be answered from
    // the in-memory cache even under an expired deadline.
    let mut daemon = Daemon::spawn(&["--no-cache", "--jobs", "1"]);

    let partial = daemon.request(&verify_frame(", \"deadline_ms\": 0"));
    assert_eq!(partial.get("ok"), Some(&Json::Bool(true)), "{partial:?}");
    assert_eq!(partial.get("fully_proved"), Some(&Json::Bool(false)));
    assert!(
        u(&partial, "skipped") > 0,
        "an expired deadline skips dispatch: {partial:?}"
    );

    // The daemon is still healthy: the same module without a deadline fully
    // verifies.
    let full = daemon.request(&verify_frame(""));
    assert_eq!(full.get("fully_proved"), Some(&Json::Bool(true)));
    assert_eq!(u(&full, "skipped"), 0);

    daemon.shutdown();
}

#[test]
fn crashing_requests_are_quarantined() {
    let mut daemon = Daemon::spawn(&["--no-cache", "--jobs", "1"]);

    // Every prover stage panics: the request's sequents all crash, but the
    // frame still arrives and the daemon stays up.
    let chaos = daemon.request(&verify_frame(", \"fault_plan\": \"seed=1,panic=100\""));
    assert_eq!(chaos.get("ok"), Some(&Json::Bool(true)), "{chaos:?}");
    assert_eq!(chaos.get("fully_proved"), Some(&Json::Bool(false)));
    assert!(
        u(&chaos, "crashed") > 0,
        "injected panics are quarantined as crashed sequents: {chaos:?}"
    );

    // The next request sees no leftover fault plan and fully verifies.
    let clean = daemon.request(&verify_frame(""));
    assert_eq!(
        clean.get("fully_proved"),
        Some(&Json::Bool(true)),
        "{clean:?}"
    );
    assert_eq!(u(&clean, "crashed"), 0);

    daemon.shutdown();
}

#[test]
fn parse_errors_answer_typed_frames_with_spans() {
    let mut daemon = Daemon::spawn(&["--no-cache"]);

    let frame = daemon
        .request("{\"id\": 4, \"op\": \"verify\", \"source\": \"module Broken {\\n  @\\n}\"}");
    assert_eq!(frame.get("id").and_then(Json::as_u128), Some(4));
    assert_eq!(frame.get("ok"), Some(&Json::Bool(false)));
    let error = frame.get("error").expect("error object");
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("parse"));
    assert_eq!(error.get("line").and_then(Json::as_u128), Some(2));
    let span = error.get("span").and_then(Json::as_array).expect("span");
    assert_eq!(span.len(), 2, "byte-offset [start, end]");

    // A malformed frame is a protocol error, not a dead daemon.
    let bad = daemon.request("this is not json");
    assert_eq!(
        bad.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("protocol")
    );

    daemon.shutdown();
}

/// The two frames a daemon owes for a line of undecodable bytes followed by
/// a `stats` request: a `protocol` error, then the stats answer.
fn assert_bad_encoding_then_stats(mut read_frame: impl FnMut() -> Json) {
    let bad = read_frame();
    assert_eq!(bad.get("ok"), Some(&Json::Bool(false)), "{bad:?}");
    assert_eq!(
        bad.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("protocol"),
        "{bad:?}"
    );
    let stats = read_frame();
    assert_eq!(
        stats.get("id").and_then(Json::as_u128),
        Some(2),
        "{stats:?}"
    );
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{stats:?}");
}

const BAD_ENCODING_THEN_STATS: &[u8] = b"\xff\xfe\n{\"id\": 2, \"op\": \"stats\"}\n";

/// A request line that is not valid UTF-8 gets a `protocol` error frame on
/// stdin, and the daemon keeps serving the lines after it.
#[test]
fn non_utf8_lines_answer_protocol_frames_on_stdin() {
    let mut daemon = Daemon::spawn(&["--no-cache"]);
    daemon.stdin.write_all(BAD_ENCODING_THEN_STATS).unwrap();
    daemon.stdin.flush().unwrap();
    assert_bad_encoding_then_stats(|| {
        let mut frame = String::new();
        daemon.stdout.read_line(&mut frame).unwrap();
        assert!(!frame.is_empty(), "daemon closed the stream early");
        parse_json(&frame).unwrap_or_else(|e| panic!("bad frame {frame:?}: {e}"))
    });
    daemon.shutdown();
}

/// The same over a Unix socket: the undecodable line is answered, not
/// silently dropped, so each request still gets exactly one frame.
#[cfg(unix)]
#[test]
fn non_utf8_lines_answer_protocol_frames_on_sockets() {
    let dir = temp_dir("non-utf8");
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("ipl.sock");
    let (mut child, stream) = spawn_socket_daemon(&socket, &[]);
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(BAD_ENCODING_THEN_STATS).unwrap();
    assert_bad_encoding_then_stats(|| {
        let mut frame = String::new();
        reader.read_line(&mut frame).unwrap();
        parse_json(&frame).unwrap_or_else(|e| panic!("bad frame {frame:?}: {e}"))
    });
    writeln!(writer, "{{\"op\": \"shutdown\"}}").unwrap();
    let mut bye = String::new();
    reader.read_line(&mut bye).unwrap();
    assert_eq!(wait_with_deadline(&mut child, 10), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns a socket-mode daemon and waits for the socket to accept.
#[cfg(unix)]
fn spawn_socket_daemon(
    socket: &std::path::Path,
    extra: &[&str],
) -> (Child, std::os::unix::net::UnixStream) {
    let child = Command::new(env!("CARGO_BIN_EXE_ipl"))
        .args(["serve", "--no-cache", "--listen"])
        .arg(socket)
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("ipl serve --listen spawns");
    let stream = connect(socket);
    (child, stream)
}

#[cfg(unix)]
fn connect(socket: &std::path::Path) -> std::os::unix::net::UnixStream {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        match std::os::unix::net::UnixStream::connect(socket) {
            Ok(stream) => return stream,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Err(e) => panic!("daemon socket never came up: {e}"),
        }
    }
}

/// Waits for the daemon to exit on its own and returns the exit code.
fn wait_with_deadline(child: &mut Child, secs: u64) -> i32 {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(secs);
    loop {
        if let Some(status) = child.try_wait().expect("daemon wait") {
            return status.code().expect("daemon exit code");
        }
        if std::time::Instant::now() >= deadline {
            let _ = child.kill();
            panic!("daemon still running after {secs}s");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// Regression for the mid-frame disconnect bug: a client that dies after
/// sending *half* a request line must not have that partial frame processed,
/// must get no response bytes for it, and must not take the daemon (or any
/// other connection) down with it.
#[cfg(unix)]
#[test]
fn mid_frame_disconnect_tears_down_only_that_connection() {
    use std::io::Read;

    let dir = temp_dir("midframe");
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("ipl.sock");
    let (mut child, dying) = spawn_socket_daemon(&socket, &["--jobs", "1"]);

    // Half a frame, no newline, then EOF on the write half.
    let mut dying_writer = dying.try_clone().unwrap();
    dying_writer
        .write_all(b"{\"id\": 99, \"op\": \"verify\", \"sour")
        .unwrap();
    dying_writer.flush().unwrap();
    dying
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close the dying connection");

    // The daemon must answer the torn frame with silence: EOF, zero bytes.
    let mut dying_reader = dying;
    let mut leftovers = Vec::new();
    dying_reader
        .read_to_end(&mut leftovers)
        .expect("daemon closes the torn connection");
    assert!(
        leftovers.is_empty(),
        "a partial frame must never be processed or answered: {leftovers:?}"
    );

    // A second connection is entirely unaffected.
    let healthy = connect(&socket);
    let mut writer = healthy.try_clone().unwrap();
    let mut reader = BufReader::new(healthy);
    writeln!(writer, "{{\"id\": 1, \"op\": \"health\"}}").unwrap();
    let mut frame = String::new();
    reader.read_line(&mut frame).unwrap();
    let frame = parse_json(&frame).unwrap();
    assert_eq!(frame.get("ok"), Some(&Json::Bool(true)), "{frame:?}");
    assert_eq!(frame.get("draining"), Some(&Json::Bool(false)));

    writeln!(writer, "{{\"op\": \"shutdown\"}}").unwrap();
    let mut bye = String::new();
    reader.read_line(&mut bye).unwrap();
    assert_eq!(wait_with_deadline(&mut child, 10), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control answers load it cannot take with a typed `overloaded`
/// frame — immediately, without queueing the work — both for injected
/// overloads (daemon-level chaos plan) and for a genuinely full pool.
#[cfg(unix)]
#[test]
fn overloaded_daemons_answer_typed_refusal_frames() {
    let dir = temp_dir("overload");
    std::fs::create_dir_all(&dir).unwrap();

    // Injected: every verify refused, control ops still served.
    {
        let socket = dir.join("injected.sock");
        let (mut child, stream) =
            spawn_socket_daemon(&socket, &["--fault-plan", "seed=3,overload=100"]);
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writeln!(writer, "{}", verify_frame("")).unwrap();
        let mut frame = String::new();
        reader.read_line(&mut frame).unwrap();
        let frame = parse_json(&frame).unwrap();
        assert_eq!(frame.get("ok"), Some(&Json::Bool(false)), "{frame:?}");
        assert_eq!(frame.get("overloaded"), Some(&Json::Bool(true)));
        assert_eq!(frame.get("reason").and_then(Json::as_str), Some("injected"));
        assert!(u(&frame, "retry_after_ms") > 0);

        writeln!(writer, "{{\"op\": \"health\"}}").unwrap();
        let mut health = String::new();
        reader.read_line(&mut health).unwrap();
        assert_eq!(
            parse_json(&health).unwrap().get("ok"),
            Some(&Json::Bool(true)),
            "control ops bypass admission"
        );
        writeln!(writer, "{{\"op\": \"shutdown\"}}").unwrap();
        let mut bye = String::new();
        reader.read_line(&mut bye).unwrap();
        assert_eq!(wait_with_deadline(&mut child, 10), 0);
    }

    // Real capacity: a one-slot, zero-queue pool with a slow request in
    // flight refuses the second request with reason "capacity".
    {
        let socket = dir.join("capacity.sock");
        let (mut child, slow) = spawn_socket_daemon(
            &socket,
            &["--jobs", "1", "--max-inflight", "1", "--queue", "0"],
        );
        let mut slow_writer = slow.try_clone().unwrap();
        let mut slow_reader = BufReader::new(slow);
        // 100% injected stage delays keep this request in flight long
        // enough for the refusal below to be deterministic in practice.
        writeln!(
            slow_writer,
            "{}",
            verify_frame(", \"fault_plan\": \"seed=5,delay=100,delay_ms=40\"")
        )
        .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(300));

        let second = connect(&socket);
        let mut writer = second.try_clone().unwrap();
        let mut reader = BufReader::new(second);
        writeln!(writer, "{}", verify_frame("")).unwrap();
        let mut refusal = String::new();
        reader.read_line(&mut refusal).unwrap();
        let refusal = parse_json(&refusal).unwrap();
        assert_eq!(
            refusal.get("overloaded"),
            Some(&Json::Bool(true)),
            "{refusal:?}"
        );
        assert_eq!(
            refusal.get("reason").and_then(Json::as_str),
            Some("capacity")
        );
        assert!(u(&refusal, "retry_after_ms") > 0);

        // The slow request itself still completes with a real report.
        let mut slow_frame = String::new();
        slow_reader.read_line(&mut slow_frame).unwrap();
        let slow_frame = parse_json(&slow_frame).unwrap();
        assert_eq!(
            slow_frame.get("ok"),
            Some(&Json::Bool(true)),
            "{slow_frame:?}"
        );

        writeln!(writer, "{{\"op\": \"shutdown\"}}").unwrap();
        let mut bye = String::new();
        reader.read_line(&mut bye).unwrap();
        assert_eq!(wait_with_deadline(&mut child, 10), 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGTERM begins a graceful drain: the daemon stops accepting, lets the
/// idle state wind down, removes its socket and exits 0 — well within the
/// drain deadline.
#[cfg(unix)]
#[test]
fn sigterm_drains_the_daemon_cleanly() {
    let dir = temp_dir("sigterm");
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("ipl.sock");
    let (mut child, stream) =
        spawn_socket_daemon(&socket, &["--jobs", "1", "--drain-deadline-ms", "10000"]);

    // One completed request so the daemon has warm state to flush.
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{}", verify_frame("")).unwrap();
    let mut frame = String::new();
    reader.read_line(&mut frame).unwrap();
    assert_eq!(
        parse_json(&frame).unwrap().get("ok"),
        Some(&Json::Bool(true))
    );

    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill -TERM runs");
    assert!(term.success());
    // Nothing is in flight, so the drain must finish far inside the 10s
    // deadline and report a clean exit.
    assert_eq!(wait_with_deadline(&mut child, 8), 0);
    assert!(!socket.exists(), "the drained daemon removes its socket");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A drain whose deadline cuts an in-flight request still answers that
/// request (as a partial report, never a fabricated success) and then exits
/// with code 4 per the contract.
#[cfg(unix)]
#[test]
fn drain_deadline_cuts_inflight_requests_to_partials_and_exits_4() {
    let dir = temp_dir("drain-cut");
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("ipl.sock");
    let (mut child, stream) =
        spawn_socket_daemon(&socket, &["--jobs", "1", "--drain-deadline-ms", "100"]);

    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    // Injected 50ms delays on every stage keep this request running well
    // past the 100ms drain deadline started below.
    writeln!(
        writer,
        "{}",
        verify_frame(", \"fault_plan\": \"seed=5,delay=100,delay_ms=50\"")
    )
    .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(250));
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill -TERM runs");
    assert!(term.success());

    // The cut request is still answered — one well-formed frame, partial.
    let mut frame = String::new();
    reader.read_line(&mut frame).unwrap();
    let frame = parse_json(&frame).unwrap();
    assert_eq!(frame.get("ok"), Some(&Json::Bool(true)), "{frame:?}");
    assert_eq!(
        frame.get("fully_proved"),
        Some(&Json::Bool(false)),
        "a drain-cut report must not claim success: {frame:?}"
    );
    assert!(
        u(&frame, "skipped") > 0,
        "the deadline cut skips remaining dispatch: {frame:?}"
    );
    assert_eq!(wait_with_deadline(&mut child, 15), 4, "drain-cut exit code");
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGTERM stops a stdin daemon that sits idle with its input still open:
/// nothing was in flight, so it exits 0 promptly.
#[cfg(unix)]
#[test]
fn sigterm_stops_an_idle_stdin_daemon_with_exit_0() {
    let mut daemon = Daemon::spawn(&["--no-cache", "--drain-deadline-ms", "200"]);
    // An answered request shows the daemon and its SIGTERM handler are up.
    let health = daemon.request("{\"op\": \"health\"}");
    assert_eq!(health.get("ok"), Some(&Json::Bool(true)), "{health:?}");
    let term = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("kill -TERM runs");
    assert!(term.success());
    // Stdin stays open: the daemon must notice the drain while idle.
    assert_eq!(wait_with_deadline(&mut daemon.child, 5), 0);
}

/// While a chaos request runs on one `--listen` connection, a clean request
/// on a second connection answers exactly as a fault-free daemon does.
#[cfg(unix)]
#[test]
fn a_chaos_connection_leaves_a_clean_connection_untouched() {
    let cursor_list = ipl::suite::by_name("Cursor List").expect("benchmark exists");
    let clean_line = format!(
        "{{\"id\": 2, \"op\": \"verify\", \"source\": {}}}",
        json::string(cursor_list.source)
    );
    let without_wall = |frame: Json| match frame {
        Json::Object(mut fields) => {
            fields.remove("wall_ms");
            fields
        }
        other => panic!("not an object: {other:?}"),
    };
    let mut fault_free = Daemon::spawn(&["--no-cache", "--jobs", "1"]);
    let expected = without_wall(fault_free.request(&clean_line));
    fault_free.shutdown();

    let dir = temp_dir("isolation");
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("ipl.sock");
    let (mut child, chaos) = spawn_socket_daemon(&socket, &["--jobs", "1", "--max-inflight", "2"]);
    // Every stage of this request sleeps 20 ms and then panics.
    writeln!(
        chaos.try_clone().unwrap(),
        "{}",
        verify_frame(", \"id\": 1, \"fault_plan\": \"seed=1,panic=100,delay=100,delay_ms=20\"")
    )
    .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(200));

    let clean = connect(&socket);
    let mut writer = clean.try_clone().unwrap();
    let mut reader = BufReader::new(clean);
    writeln!(writer, "{clean_line}").unwrap();
    let mut frame = String::new();
    reader.read_line(&mut frame).unwrap();
    assert_eq!(without_wall(parse_json(&frame).unwrap()), expected);

    let mut chaos_frame = String::new();
    BufReader::new(chaos).read_line(&mut chaos_frame).unwrap();
    let chaos_frame = parse_json(&chaos_frame).unwrap();
    assert!(u(&chaos_frame, "crashed") > 0, "{chaos_frame:?}");

    writeln!(writer, "{{\"op\": \"shutdown\"}}").unwrap();
    let mut bye = String::new();
    reader.read_line(&mut bye).unwrap();
    assert_eq!(wait_with_deadline(&mut child, 10), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Soak: 200 sequential requests against one daemon under a periodic chaos
/// plan (stalls, injected overloads, 1% stage panics, store faults cleared).
/// Every accepted request gets exactly one well-formed frame with its own
/// id, no frame ever claims full success alongside crashes or skips, and
/// the store counts stay stable — the log is scanned once, duplicates never
/// accumulate, and periodic in-daemon compaction keeps warm answers intact.
#[test]
fn soak_chaos_requests_each_get_exactly_one_wellformed_frame() {
    let dir = temp_dir("soak");
    let mut daemon = Daemon::spawn(&[
        "--cache-dir",
        dir.to_str().unwrap(),
        "--jobs",
        "1",
        "--compact-every",
        "50",
        "--fault-plan",
        "seed=9,stall=5,stall_ms=1,overload=2,conn_drop=3,panic=1,delay=1,delay_ms=1",
    ]);

    let mut overloaded = 0u128;
    let mut served = 0u128;
    let mut entries_after_warmup = None;
    for i in 0..200u128 {
        let frame = daemon.request(&format!(
            "{{\"id\": {i}, \"op\": \"verify\", \"source\": {}}}",
            json::string(
                ipl::suite::by_name("Linked List")
                    .expect("benchmark exists")
                    .source
            )
        ));
        // Exactly one frame, and it is *this* request's frame.
        assert_eq!(
            frame.get("id").and_then(Json::as_u128),
            Some(i),
            "request {i} got someone else's frame: {frame:?}"
        );
        if frame.get("overloaded") == Some(&Json::Bool(true)) {
            assert_eq!(frame.get("ok"), Some(&Json::Bool(false)));
            assert!(u(&frame, "retry_after_ms") > 0);
            overloaded += 1;
            continue;
        }
        served += 1;
        assert_eq!(frame.get("ok"), Some(&Json::Bool(true)), "{frame:?}");
        // Chaos only ever degrades an answer; it never fabricates success.
        if frame.get("fully_proved") == Some(&Json::Bool(true)) {
            assert_eq!(u(&frame, "crashed"), 0, "{frame:?}");
            assert_eq!(u(&frame, "skipped"), 0, "{frame:?}");
        }
        assert!(
            u(&frame, "store_preloads") <= 1,
            "the store log was re-scanned mid-soak: {frame:?}"
        );
        // Store growth stops once the provable sequents are all persisted:
        // fault decisions are content-keyed, so run 10 proves exactly what
        // run 2 proved and appends nothing new.
        let entries = u(&frame, "store_entries");
        if i >= 10 {
            match entries_after_warmup {
                None => entries_after_warmup = Some(entries),
                Some(stable) => assert_eq!(
                    entries, stable,
                    "store entry count drifted during the soak at request {i}"
                ),
            }
        }
    }
    assert_eq!(served + overloaded, 200);
    assert!(served > 0, "the soak must actually verify");

    let stats = daemon.request("{\"id\": 777, \"op\": \"stats\"}");
    assert_eq!(u(&stats, "requests"), served);
    assert!(u(&stats, "store_preloads") <= 1);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_connections() {
    let dir = temp_dir("socket");
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("ipl.sock");
    let mut child = Command::new(env!("CARGO_BIN_EXE_ipl"))
        .args(["serve", "--no-cache", "--listen"])
        .arg(&socket)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("ipl serve --listen spawns");

    // Wait for the socket to appear.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let stream = loop {
        match std::os::unix::net::UnixStream::connect(&socket) {
            Ok(stream) => break stream,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Err(e) => panic!("daemon socket never came up: {e}"),
        }
    };
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    writeln!(writer, "{}", verify_frame("")).unwrap();
    let mut frame = String::new();
    reader.read_line(&mut frame).unwrap();
    let frame = parse_json(&frame).unwrap();
    assert_eq!(frame.get("fully_proved"), Some(&Json::Bool(true)));

    writeln!(writer, "{{\"op\": \"shutdown\"}}").unwrap();
    let mut bye = String::new();
    reader.read_line(&mut bye).unwrap();
    assert_eq!(
        parse_json(&bye).unwrap().get("shutdown"),
        Some(&Json::Bool(true))
    );
    let status = child.wait().expect("daemon exits after shutdown");
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&dir);
}
