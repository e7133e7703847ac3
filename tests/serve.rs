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
//!    `\u` escapes verifies exactly like the plain one;
//! 6. a frame, source or formula nested past the readers' cap of 64 levels
//!    gets one error frame on its connection, which goes on serving, and
//!    input at the cap verifies on a connection thread's stack.

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
        read_frame(&mut self.stdout)
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

/// Reads one response frame.
fn read_frame(reader: &mut impl BufRead) -> Json {
    let mut frame = String::new();
    reader.read_line(&mut frame).expect("daemon answers");
    assert!(!frame.is_empty(), "daemon closed the stream early");
    parse_json(&frame).unwrap_or_else(|e| panic!("bad frame {frame:?}: {e}"))
}

/// The `kind` of an error frame.
fn error_kind(frame: &Json) -> Option<&str> {
    frame.get("error")?.get("kind")?.as_str()
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
    assert_eq!(error_kind(&bad), Some("protocol"));

    daemon.shutdown();
}

/// The two frames a daemon owes for a line of undecodable bytes followed by
/// a `stats` request: a `protocol` error, then the stats answer.
fn assert_bad_encoding_then_stats(mut read_frame: impl FnMut() -> Json) {
    let bad = read_frame();
    assert_eq!(bad.get("ok"), Some(&Json::Bool(false)), "{bad:?}");
    assert_eq!(error_kind(&bad), Some("protocol"), "{bad:?}");
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
    assert_bad_encoding_then_stats(|| read_frame(&mut daemon.stdout));
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
    let (child, stream) = spawn_socket_daemon(&socket, &[]);
    let mut client = Client::new(stream);
    client.writer.write_all(BAD_ENCODING_THEN_STATS).unwrap();
    assert_bad_encoding_then_stats(|| client.recv());
    client.shutdown(child);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-method module that nests `n` levels one way: a parenthesised
/// program expression, a parenthesised postcondition, `if`s, or a sum of `n`
/// terms, which the parser builds left-nested.
fn nested_module(shape: &str, n: usize) -> String {
    let (open, close) = ("(".repeat(n), ")".repeat(n));
    let (body, ensures) = match shape {
        "parentheses" => (format!("x := {open}y{close};"), "x = y".to_string()),
        "formula" => ("x := y;".to_string(), format!("{open}x = y{close}")),
        "ifs" => {
            let body = format!("{}x := y;{}", "if (y > 0) { ".repeat(n), " }".repeat(n));
            (body, "y > 0 --> x = y".to_string())
        }
        _ => (
            format!("x := {};", vec!["y"; n].join(" + ")),
            format!("x = {n} * y"),
        ),
    };
    format!("module Deep {{\n  var x: int;\n  var y: int;\n  method m()\n    modifies x\n    ensures \"{ensures}\"\n  {{\n    {body}\n  }}\n}}")
}

/// Each reader recursed once per level without a bound, so one request line
/// nested a few thousand deep overflowed its connection thread's stack and
/// aborted the whole daemon.  Input past the cap of 64 levels now gets one
/// error frame and the connection goes on; input at the cap verifies.
#[cfg(unix)]
#[test]
fn deeply_nested_input_is_refused_and_input_at_the_cap_verifies() {
    let dir = temp_dir("deep");
    std::fs::create_dir_all(&dir).unwrap();
    // One worker, so every request runs on its connection thread.
    let (child, stream) = spawn_socket_daemon(&dir.join("ipl.sock"), &["--jobs", "1"]);
    let mut client = Client::new(stream);
    let mut verify = |shape: &str, n: usize| {
        let source = json::string(&nested_module(shape, n));
        client.request(&format!("{{\"op\": \"verify\", \"source\": {source}}}"))
    };
    for (shape, n) in [
        ("parentheses", 1_500),
        ("formula", 1_000),
        ("ifs", 1_500),
        ("sum", 3_000),
    ] {
        let frame = verify(shape, n);
        assert_eq!(error_kind(&frame), Some("parse"), "{shape}: {frame:?}");
        let error = frame.get("error").unwrap();
        assert!(
            error.get("line").is_some() && error.get("span").is_some(),
            "{shape}"
        );
    }
    // At the cap: 63 levels inside a method body, which is one; a quoted
    // formula counts from zero.
    for (shape, n) in [
        ("parentheses", 63),
        ("formula", 64),
        ("ifs", 63),
        ("sum", 64),
    ] {
        let frame = verify(shape, n);
        assert_eq!(
            frame.get("fully_proved"),
            Some(&Json::Bool(true)),
            "{shape}: {frame:?}"
        );
    }
    let frame = client.request(&"[".repeat(20_000));
    assert_eq!(error_kind(&frame), Some("protocol"), "{frame:?}");
    // 63 arrays inside the frame's object are 64 levels.
    let stats = format!(
        "{{\"op\": \"stats\", \"id\": {}{}}}",
        "[".repeat(63),
        "]".repeat(63)
    );
    assert_eq!(client.request(&stats).get("ok"), Some(&Json::Bool(true)));
    let frame = client.request(&verify_frame(""));
    assert_eq!(
        frame.get("fully_proved"),
        Some(&Json::Bool(true)),
        "{frame:?}"
    );
    client.shutdown(child);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One connection to a `--listen` daemon.
#[cfg(unix)]
struct Client {
    writer: std::os::unix::net::UnixStream,
    reader: BufReader<std::os::unix::net::UnixStream>,
}

#[cfg(unix)]
impl Client {
    fn new(stream: std::os::unix::net::UnixStream) -> Client {
        let writer = stream.try_clone().expect("the stream clones");
        Client {
            writer,
            reader: BufReader::new(stream),
        }
    }

    /// Sends one request line.
    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("daemon accepts the request");
    }

    fn recv(&mut self) -> Json {
        read_frame(&mut self.reader)
    }

    fn request(&mut self, line: &str) -> Json {
        self.send(line);
        self.recv()
    }

    /// Sends `shutdown` and waits for the daemon to exit 0.
    fn shutdown(mut self, mut child: Child) {
        let bye = self.request("{\"op\": \"shutdown\"}");
        assert_eq!(bye.get("shutdown"), Some(&Json::Bool(true)), "{bye:?}");
        assert_eq!(wait_with_deadline(&mut child, 10), 0);
    }
}

/// Sends SIGTERM to the daemon.
#[cfg(unix)]
fn sigterm(child: &Child) {
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill -TERM runs");
    assert!(term.success());
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
    let (child, dying) = spawn_socket_daemon(&socket, &["--jobs", "1"]);

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
    let mut healthy = Client::new(connect(&socket));
    let frame = healthy.request("{\"id\": 1, \"op\": \"health\"}");
    assert_eq!(frame.get("ok"), Some(&Json::Bool(true)), "{frame:?}");
    assert_eq!(frame.get("draining"), Some(&Json::Bool(false)));
    healthy.shutdown(child);
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
        let (child, stream) =
            spawn_socket_daemon(&socket, &["--fault-plan", "seed=3,overload=100"]);
        let mut client = Client::new(stream);
        let frame = client.request(&verify_frame(""));
        assert_eq!(frame.get("ok"), Some(&Json::Bool(false)), "{frame:?}");
        assert_eq!(frame.get("overloaded"), Some(&Json::Bool(true)));
        assert_eq!(frame.get("reason").and_then(Json::as_str), Some("injected"));
        assert!(u(&frame, "retry_after_ms") > 0);
        assert_eq!(
            client.request("{\"op\": \"health\"}").get("ok"),
            Some(&Json::Bool(true)),
            "control ops bypass admission"
        );
        client.shutdown(child);
    }

    // Real capacity: a one-slot, zero-queue pool with a slow request in
    // flight refuses the second request with reason "capacity".
    {
        let socket = dir.join("capacity.sock");
        let (child, slow) = spawn_socket_daemon(
            &socket,
            &["--jobs", "1", "--max-inflight", "1", "--queue", "0"],
        );
        let mut slow = Client::new(slow);
        // 100% injected stage delays keep this request in flight long
        // enough for the refusal below to be deterministic in practice.
        slow.send(&verify_frame(
            ", \"fault_plan\": \"seed=5,delay=100,delay_ms=40\"",
        ));
        std::thread::sleep(std::time::Duration::from_millis(300));

        let mut second = Client::new(connect(&socket));
        let refusal = second.request(&verify_frame(""));
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
        let slow_frame = slow.recv();
        assert_eq!(
            slow_frame.get("ok"),
            Some(&Json::Bool(true)),
            "{slow_frame:?}"
        );
        second.shutdown(child);
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
    // The connection stays open and idle through the drain.
    let mut client = Client::new(stream);
    let frame = client.request(&verify_frame(""));
    assert_eq!(frame.get("ok"), Some(&Json::Bool(true)));

    sigterm(&child);
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

    let mut client = Client::new(stream);
    // Injected 50ms delays on every stage keep this request running well
    // past the 100ms drain deadline started below.
    client.send(&verify_frame(
        ", \"fault_plan\": \"seed=5,delay=100,delay_ms=50\"",
    ));
    std::thread::sleep(std::time::Duration::from_millis(250));
    sigterm(&child);

    // The cut request is still answered — one well-formed frame, partial.
    let frame = client.recv();
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
    sigterm(&daemon.child);
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
    let (child, chaos) = spawn_socket_daemon(&socket, &["--jobs", "1", "--max-inflight", "2"]);
    let mut chaos = Client::new(chaos);
    // Every stage of this request sleeps 20 ms and then panics.
    chaos.send(&verify_frame(
        ", \"id\": 1, \"fault_plan\": \"seed=1,panic=100,delay=100,delay_ms=20\"",
    ));
    std::thread::sleep(std::time::Duration::from_millis(200));

    let mut clean = Client::new(connect(&socket));
    assert_eq!(without_wall(clean.request(&clean_line)), expected);
    let chaos_frame = chaos.recv();
    assert!(u(&chaos_frame, "crashed") > 0, "{chaos_frame:?}");
    clean.shutdown(child);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Soak: 200 sequential requests against one daemon under a periodic chaos
/// plan (stalls, injected overloads, 1% stage panics, store faults cleared).
/// Every accepted request gets exactly one well-formed frame with its own
/// id, no frame ever claims full success alongside crashes or skips, and
/// the store counts stay stable — the log is scanned once, duplicates never
/// accumulate, and a `compact` op every 50 requests keeps warm answers
/// intact.
#[test]
fn soak_chaos_requests_each_get_exactly_one_wellformed_frame() {
    let dir = temp_dir("soak");
    let mut daemon = Daemon::spawn(&[
        "--cache-dir",
        dir.to_str().unwrap(),
        "--jobs",
        "1",
        "--fault-plan",
        "seed=9,stall=5,stall_ms=1,overload=2,conn_drop=3,panic=1,delay=1,delay_ms=1",
    ]);

    let mut overloaded = 0u128;
    let mut served = 0u128;
    let mut entries_after_warmup = None;
    for i in 0..200u128 {
        if i % 50 == 49 {
            let compacted = daemon.request("{\"id\": \"compact\", \"op\": \"compact\"}");
            assert_eq!(
                compacted.get("compacted"),
                Some(&Json::Bool(true)),
                "{compacted:?}"
            );
            assert_eq!(u(&compacted, "generation"), (i + 1) / 50);
        }
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
    let (child, stream) = spawn_socket_daemon(&dir.join("ipl.sock"), &[]);
    let mut client = Client::new(stream);
    let frame = client.request(&verify_frame(""));
    assert_eq!(frame.get("fully_proved"), Some(&Json::Bool(true)));
    client.shutdown(child);
    let _ = std::fs::remove_dir_all(&dir);
}
