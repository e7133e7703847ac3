//! The newline-delimited JSON protocol behind `ipl serve`.
//!
//! A daemon holds ONE long-lived [`ipl_core::Session`] and answers one JSON
//! request per line: the hash-cons intern table, the in-memory proof cache
//! and the preloaded store index all stay warm across requests, so the
//! second verification of an unchanged module costs a hash lookup per
//! sequent instead of a prover run — and the on-disk store log is scanned
//! once per *process*, not once per request.
//!
//! ## Requests
//!
//! One JSON object per line.  `op` selects the operation (default
//! `"verify"`); `id` is echoed verbatim in the answer so clients can
//! pipeline:
//!
//! ```json
//! {"id": 1, "op": "verify", "source": "module M { ... }", "deadline_ms": 500,
//!  "jobs": 2}
//! {"id": 2, "op": "stats"}
//! {"id": 3, "op": "shutdown"}
//! ```
//!
//! * `source` (required for `verify`) — the annotated module text;
//! * `deadline_ms` — wall-clock budget for this request; sequents dispatched
//!   after it passes come back `skipped` and the report is partial;
//! * `jobs` — worker threads for this request;
//! * `fault_plan` — a deterministic chaos-injection spec (as accepted by
//!   `ipl verify --fault-plan`), installed for this request only.
//!
//! Unknown keys are ignored.
//!
//! ## Responses
//!
//! Exactly one JSON object per request, in request order:
//!
//! ```json
//! {"id": 1, "ok": true, "module": "M", "fully_proved": true,
//!  "methods_verified": 3, "methods": 3, "sequents_proved": 17,
//!  "sequents_total": 17, "sequents_proved_nontrivial": 11, "cache_hits": 0,
//!  "crashed": 0, "skipped": 0, "wall_ms": 12, "store_entries": 11,
//!  "store_preloads": 1, "store_appended": 11}
//! {"id": 1, "ok": false, "error": {"kind": "parse", "message": "line 2: ...",
//!  "line": 2, "span": [14, 21]}}
//! ```
//!
//! Error kinds: `parse` / `lower` / `io` (typed [`ipl_core::VerifyError`]
//! variants — `parse` carries the 1-based line and, when known, the byte-
//! offset `span`), `crashed` (the request panicked; it was quarantined and
//! the session keeps serving), and `protocol` (malformed frame, including a
//! line that is not valid UTF-8).  A
//! `shutdown` request answers `{"id": ..., "ok": true, "shutdown": true}`
//! and closes the stream.
//!
//! ## Operations beyond `verify`
//!
//! * `stats` — cumulative session telemetry;
//! * `health` — liveness plus admission state: `{"ok": true, "health": "ok",
//!   "inflight": 1, "queued": 0, "max_inflight": 4, "draining": false,
//!   "requests": 17, "store_entries": 120, "store_generation": 2}`;
//! * `compact` — compacts the persistent store in place (duplicates and
//!   corrupt ranges dropped, generation bumped) and reports the stats;
//! * `shutdown` — `{"op": "shutdown"}` stops immediately;
//!   `{"op": "shutdown", "drain": true}` stops accepting, finishes in-flight
//!   requests under the drain deadline (late ones answer
//!   `Skipped(DeadlineExceeded)` partial reports), then exits.
//!
//! ## Admission control
//!
//! A [`Daemon`] wraps the session with a bounded worker pool
//! (`--max-inflight`) and a bounded wait queue.  A `verify` that finds both
//! full is answered *immediately* with a typed overloaded frame instead of
//! silently queueing:
//!
//! ```json
//! {"id": 4, "ok": false, "overloaded": true, "retry_after_ms": 250,
//!  "reason": "capacity"}
//! ```
//!
//! `reason` is `capacity` (pool and queue full), `draining` (the daemon is
//! shutting down), or `injected` (a chaos plan fired).  Cheap control ops
//! (`stats`, `health`, `shutdown`) bypass admission so operators can always
//! see in.

use crate::core::{Request, Session, VerifyError};
use crate::provers::{containment, drain, fault};
use crate::suite::baseline::{parse_json, Json};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn handle_verify(session: &Session, frame: &Json, id: Option<&Json>) -> String {
    let Some(source) = frame.get("source").and_then(Json::as_str) else {
        return error_frame(id, "protocol", "verify needs a string `source`", None);
    };
    let mut request = Request::new(source);
    if let Some(ms) = frame.get("deadline_ms").and_then(Json::as_u128) {
        request = request.with_deadline(std::time::Duration::from_millis(ms as u64));
    }
    if let Some(jobs) = frame.get("jobs").and_then(Json::as_u128) {
        request = request.with_jobs(jobs as usize);
    }
    let plan = match frame.get("fault_plan").and_then(Json::as_str) {
        Some(spec) => match fault::FaultPlan::parse(spec) {
            Ok(plan) => Some(plan),
            Err(e) => return error_frame(id, "protocol", &e, None),
        },
        None => None,
    };

    // The whole request runs inside a containment boundary: an injected (or
    // real) panic anywhere in the driver becomes a `crashed` error frame and
    // the daemon keeps serving.  A fault plan is process-global state, so a
    // chaos request additionally serialises against every other chaos run.
    let outcome = match plan {
        Some(plan) => {
            let _guard = fault::serial_guard();
            fault::with_plan(Some(plan), || {
                containment::contain(|| session.verify(&request))
            })
        }
        None => containment::contain(|| session.verify(&request)),
    };
    match outcome {
        Err(panic_message) => error_frame(
            id,
            "crashed",
            &format!("request panicked (quarantined): {panic_message}"),
            None,
        ),
        Ok(Err(error)) => error_frame(id, error.kind(), &error.to_string(), Some(&error)),
        Ok(Ok(response)) => {
            let report = &response.report;
            let nontrivial: usize = report
                .methods
                .iter()
                .map(|m| m.proved_sequents - m.trivial_sequents)
                .sum();
            format!(
                "{{{}\"ok\": true, \"module\": {}, \"fully_proved\": {}, \
                 \"methods_verified\": {}, \"methods\": {}, \
                 \"sequents_proved\": {}, \"sequents_total\": {}, \
                 \"sequents_proved_nontrivial\": {nontrivial}, \
                 \"cache_hits\": {}, \"crashed\": {}, \"skipped\": {}, \
                 \"wall_ms\": {}, \"store_entries\": {}, \
                 \"store_preloads\": {}, \"store_appended\": {}}}",
                id_field(id),
                json_string(&report.module_name),
                report.fully_proved(),
                report.methods_verified(),
                report.method_count,
                report.proved_sequents(),
                report.total_sequents(),
                report.cache_hits(),
                report.crashed_sequents(),
                report.skipped_sequents(),
                response.wall.as_millis(),
                response.store_entries,
                response.store_preloads,
                response.store_appended,
            )
        }
    }
}

fn stats_frame(session: &Session, id: Option<&Json>) -> String {
    let stats = session.stats();
    format!(
        "{{{}\"ok\": true, \"requests\": {}, \"store_entries\": {}, \
         \"store_preloads\": {}, \"store_appended\": {}}}",
        id_field(id),
        stats.requests,
        stats.store_entries,
        stats.store_preloads,
        stats.store_appended,
    )
}

fn error_frame(
    id: Option<&Json>,
    kind: &str,
    message: &str,
    error: Option<&VerifyError>,
) -> String {
    let mut detail = String::new();
    if let Some(line) = error.and_then(VerifyError::line) {
        detail.push_str(&format!(", \"line\": {line}"));
    }
    if let Some(span) = error.and_then(VerifyError::span) {
        detail.push_str(&format!(", \"span\": [{}, {}]", span.start, span.end));
    }
    format!(
        "{{{}\"ok\": false, \"error\": {{\"kind\": {}, \"message\": {}{detail}}}}}",
        id_field(id),
        json_string(kind),
        json_string(message),
    )
}

/// Renders the echoed `"id": ...,` prefix (empty when the request had none).
fn id_field(id: Option<&Json>) -> String {
    match id {
        Some(json) => format!("\"id\": {}, ", encode(json)),
        None => String::new(),
    }
}

/// Re-encodes the subset of JSON values a client may use as an `id`.
fn encode(json: &Json) -> String {
    match json {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Number(n) if n.fract() == 0.0 => format!("{}", *n as i64),
        Json::Number(n) => format!("{n}"),
        Json::String(s) => json_string(s),
        // Composite ids are legal JSON; answer with something recognisable
        // rather than rejecting the whole frame.
        Json::Array(_) | Json::Object(_) => json_string("composite-id"),
    }
}

/// Tuning for a [`Daemon`]: admission bounds, timeouts, maintenance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Verify requests allowed to run concurrently.
    pub max_inflight: usize,
    /// Verify requests allowed to *wait* for a slot; one more is answered
    /// with an overloaded frame instead.
    pub queue_depth: usize,
    /// Base back-off hint carried by overloaded frames; scaled by how many
    /// requests are already waiting.
    pub retry_after_ms: u64,
    /// How long a drain lets in-flight requests run before they start
    /// answering `Skipped(DeadlineExceeded)` partial reports.
    pub drain_deadline: Duration,
    /// A connection that sends no byte for this long is shed.
    pub read_timeout: Duration,
    /// A connection that accepts no byte for this long is shed.
    pub write_timeout: Duration,
    /// Compact the store after every N verified requests (0 = never).
    pub compact_every: usize,
    /// Daemon-level chaos plan governing *connection-level* faults
    /// (overload, stalls, mid-frame drops); a request's own `fault_plan`
    /// overrides it for that request.
    pub fault_plan: Option<fault::FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        let cores = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        ServeConfig {
            max_inflight: cores,
            queue_depth: 2 * cores,
            retry_after_ms: 250,
            drain_deadline: Duration::from_secs(5),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            compact_every: 0,
            fault_plan: None,
        }
    }
}

/// Why a `verify` was turned away at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadReason {
    /// Worker pool and wait queue both full.
    Capacity,
    /// The daemon is draining and accepts no new work.
    Draining,
    /// A chaos plan injected the overload.
    Injected,
}

impl OverloadReason {
    fn as_str(self) -> &'static str {
        match self {
            OverloadReason::Capacity => "capacity",
            OverloadReason::Draining => "draining",
            OverloadReason::Injected => "injected",
        }
    }
}

/// Bounded admission: `max_inflight` permits plus a bounded wait queue.
/// Everything past both bounds is turned away immediately — the caller
/// answers an overloaded frame rather than holding the connection hostage.
struct Admission {
    max_inflight: usize,
    queue_depth: usize,
    state: Mutex<AdmissionState>,
    freed: Condvar,
}

#[derive(Debug, Default)]
struct AdmissionState {
    inflight: usize,
    waiting: usize,
    draining: bool,
}

enum Ticket<'a> {
    Admitted(Permit<'a>),
    Refused {
        reason: OverloadReason,
        waiting: usize,
    },
}

struct Permit<'a> {
    admission: &'a Admission,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self
            .admission
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        state.inflight -= 1;
        drop(state);
        self.admission.freed.notify_all();
    }
}

impl Admission {
    fn new(max_inflight: usize, queue_depth: usize) -> Admission {
        Admission {
            max_inflight: max_inflight.max(1),
            queue_depth,
            state: Mutex::new(AdmissionState::default()),
            freed: Condvar::new(),
        }
    }

    /// Takes a permit, waiting in the bounded queue if the pool is full.
    /// Returns immediately with a refusal when the queue is full too, or
    /// when the daemon is draining.
    fn acquire(&self) -> Ticket<'_> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.draining {
            return Ticket::Refused {
                reason: OverloadReason::Draining,
                waiting: state.waiting,
            };
        }
        if state.inflight < self.max_inflight {
            state.inflight += 1;
            return Ticket::Admitted(Permit { admission: self });
        }
        if state.waiting >= self.queue_depth {
            return Ticket::Refused {
                reason: OverloadReason::Capacity,
                waiting: state.waiting,
            };
        }
        state.waiting += 1;
        loop {
            state = self.freed.wait(state).unwrap_or_else(|e| e.into_inner());
            if state.draining {
                state.waiting -= 1;
                return Ticket::Refused {
                    reason: OverloadReason::Draining,
                    waiting: state.waiting,
                };
            }
            if state.inflight < self.max_inflight {
                state.waiting -= 1;
                state.inflight += 1;
                return Ticket::Admitted(Permit { admission: self });
            }
        }
    }

    fn begin_drain(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.draining = true;
        drop(state);
        // Wake every queued waiter so it answers a draining frame instead
        // of waiting for a slot that will never be granted.
        self.freed.notify_all();
    }

    fn snapshot(&self) -> (usize, usize, bool) {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (state.inflight, state.waiting, state.draining)
    }
}

/// What a connection loop should do with one handled request: write the
/// frame (possibly after an injected stall, possibly only half of it), then
/// keep serving, close, or shut the daemon down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Served {
    /// The response frame (always exactly one well-formed JSON object).
    pub frame: String,
    /// Injected fault: sleep this long before writing the frame.
    pub stall: Option<Duration>,
    /// Injected fault: write only a prefix of the frame, then sever the
    /// connection (stream transports only; stdin mode ignores it).
    pub drop_mid_frame: bool,
    /// `Some` when this request shuts the daemon down after its frame.
    pub shutdown: Option<ShutdownKind>,
}

/// How a `shutdown` op wants the daemon to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownKind {
    /// Stop now; in-flight work on other connections is abandoned.
    Immediate,
    /// Stop accepting, finish in-flight under the drain deadline, then exit.
    Drain,
}

/// A long-lived serving wrapper around one warm [`Session`]: bounded
/// admission, drain orchestration, connection-level chaos, periodic store
/// compaction.  Transport loops (stdin, Unix socket) call
/// [`Daemon::handle`] once per complete request line and act on the
/// returned [`Served`].
pub struct Daemon {
    session: Arc<Session>,
    config: ServeConfig,
    admission: Admission,
    verified: AtomicUsize,
}

impl Daemon {
    /// Wraps `session` for serving under `config`.
    pub fn new(session: Arc<Session>, config: ServeConfig) -> Daemon {
        let admission = Admission::new(config.max_inflight, config.queue_depth);
        Daemon {
            session,
            config,
            admission,
            verified: AtomicUsize::new(0),
        }
    }

    /// The session being served.
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Serves one request line exactly as a transport read it, without its
    /// terminating newline.  A blank line is no request and gets no answer
    /// (`None`); a line that is not valid UTF-8 is answered with a `protocol`
    /// error frame like any other malformed frame, and the stream goes on.
    pub fn handle_bytes(&self, raw: &[u8]) -> Option<Served> {
        match std::str::from_utf8(raw) {
            Ok(line) if line.trim().is_empty() => None,
            Ok(line) => Some(self.handle(line)),
            Err(e) => Some(Served {
                frame: error_frame(None, "protocol", &format!("bad frame: {e}"), None),
                stall: None,
                drop_mid_frame: false,
                shutdown: None,
            }),
        }
    }

    /// Serves one complete request line.  Never panics, never returns an
    /// unanswerable line; connection-level faults come back as instructions
    /// in the [`Served`], decided by the governing chaos plan (the
    /// request's own `fault_plan` if it parses, else the daemon's).
    pub fn handle(&self, line: &str) -> Served {
        let key = line_key(line);
        let parsed = parse_json(line);
        // Serve faults are evaluated from an explicit plan, never from the
        // ambient process-global one: another connection's `with_plan`
        // window must not leak connection-level chaos into this request.
        let request_plan = parsed
            .as_ref()
            .ok()
            .and_then(|frame| frame.get("fault_plan"))
            .and_then(Json::as_str)
            .and_then(|spec| fault::FaultPlan::parse(spec).ok());
        let plan = request_plan.as_ref().or(self.config.fault_plan.as_ref());
        let faults = plan
            .map(|p| p.serve_faults(key))
            .unwrap_or(fault::ServeFaults {
                overload: false,
                stall: None,
                drop_mid_frame: false,
            });
        let mut served = Served {
            frame: String::new(),
            stall: faults.stall,
            drop_mid_frame: faults.drop_mid_frame,
            shutdown: None,
        };

        let frame = match parsed {
            Ok(frame) => frame,
            Err(e) => {
                served.frame = error_frame(None, "protocol", &format!("bad frame: {e}"), None);
                return served;
            }
        };
        let id = frame.get("id").cloned();
        let id = id.as_ref();
        match frame.get("op").and_then(Json::as_str).unwrap_or("verify") {
            "verify" => {
                if faults.overload {
                    served.frame = self.overloaded_frame(id, OverloadReason::Injected, 0);
                    return served;
                }
                match self.admission.acquire() {
                    Ticket::Refused { reason, waiting } => {
                        served.frame = self.overloaded_frame(id, reason, waiting);
                    }
                    Ticket::Admitted(permit) => {
                        served.frame = handle_verify(&self.session, &frame, id);
                        drop(permit);
                        self.maybe_compact();
                    }
                }
            }
            "stats" => served.frame = stats_frame(&self.session, id),
            "health" => served.frame = self.health_frame(id),
            "compact" => served.frame = self.compact_frame(id),
            "shutdown" => {
                let drain = matches!(frame.get("drain"), Some(Json::Bool(true)));
                served.shutdown = Some(if drain {
                    ShutdownKind::Drain
                } else {
                    ShutdownKind::Immediate
                });
                served.frame = format!(
                    "{{{}\"ok\": true, \"shutdown\": true, \"drain\": {drain}}}",
                    id_field(id)
                );
            }
            other => {
                served.frame = error_frame(id, "protocol", &format!("unknown op `{other}`"), None);
            }
        }
        served
    }

    /// Starts (or tightens) a drain: admission refuses new verifies, queued
    /// waiters are woken with draining frames, and in-flight cascades begin
    /// answering `Skipped(DeadlineExceeded)` once the deadline passes.
    /// Returns the drain deadline.  Idempotent — a second call keeps the
    /// earlier deadline.
    pub fn begin_drain(&self) -> Instant {
        let deadline = Instant::now() + self.config.drain_deadline;
        self.admission.begin_drain();
        drain::begin(deadline);
        drain::deadline().unwrap_or(deadline)
    }

    /// Whether a drain has begun.
    pub fn draining(&self) -> bool {
        self.admission.snapshot().2
    }

    /// Verify requests currently holding a permit.
    pub fn inflight(&self) -> usize {
        self.admission.snapshot().0
    }

    /// Compacts the session's store on the in-daemon trigger, logging (not
    /// failing) on error — compaction is maintenance, not a request.
    fn maybe_compact(&self) {
        let done = self.verified.fetch_add(1, Ordering::Relaxed) + 1;
        let every = self.config.compact_every;
        if every == 0 || !done.is_multiple_of(every) {
            return;
        }
        match self.session.compact_store() {
            Ok(Some(stats)) => eprintln!(
                "ipl serve: compacted store (generation {}, {} -> {} entries, {} -> {} bytes)",
                stats.generation,
                stats.entries_before,
                stats.entries_after,
                stats.bytes_before,
                stats.bytes_after
            ),
            Ok(None) => {}
            Err(e) => eprintln!("ipl serve: store compaction failed: {e}"),
        }
    }

    fn overloaded_frame(
        &self,
        id: Option<&Json>,
        reason: OverloadReason,
        waiting: usize,
    ) -> String {
        let retry_after = self.config.retry_after_ms * (waiting as u64 + 1);
        format!(
            "{{{}\"ok\": false, \"overloaded\": true, \"retry_after_ms\": {retry_after}, \
             \"reason\": {}}}",
            id_field(id),
            json_string(reason.as_str()),
        )
    }

    fn health_frame(&self, id: Option<&Json>) -> String {
        let (inflight, waiting, draining) = self.admission.snapshot();
        let stats = self.session.stats();
        format!(
            "{{{}\"ok\": true, \"health\": \"ok\", \"inflight\": {inflight}, \
             \"queued\": {waiting}, \"max_inflight\": {}, \"queue_depth\": {}, \
             \"draining\": {draining}, \"requests\": {}, \"store_entries\": {}, \
             \"store_preloads\": {}}}",
            id_field(id),
            self.admission.max_inflight,
            self.admission.queue_depth,
            stats.requests,
            stats.store_entries,
            stats.store_preloads,
        )
    }

    fn compact_frame(&self, id: Option<&Json>) -> String {
        match self.session.compact_store() {
            Ok(Some(stats)) => format!(
                "{{{}\"ok\": true, \"compacted\": true, \"generation\": {}, \
                 \"entries_before\": {}, \"entries_after\": {}, \
                 \"duplicates_dropped\": {}, \"corrupt_bytes_dropped\": {}, \
                 \"bytes_before\": {}, \"bytes_after\": {}}}",
                id_field(id),
                stats.generation,
                stats.entries_before,
                stats.entries_after,
                stats.duplicates_dropped,
                stats.corrupt_bytes_dropped,
                stats.bytes_before,
                stats.bytes_after,
            ),
            Ok(None) => format!(
                "{{{}\"ok\": true, \"compacted\": false, \
                 \"message\": \"no persistent store configured\"}}",
                id_field(id)
            ),
            Err(e) => error_frame(id, "io", &format!("store compaction failed: {e}"), None),
        }
    }
}

/// Content key for connection-level fault decisions: a hash of the raw
/// request line, so the same plan trips the same requests regardless of
/// arrival order or transport.
fn line_key(line: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    0x5e7_fa017u64.hash(&mut hasher);
    line.hash(&mut hasher);
    hasher.finish()
}

/// Encodes a string with the same escape repertoire `parse_json` accepts
/// (`\"`, `\\`, `\n`, `\t`); other control characters degrade to spaces.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::VerifyOptions;

    const COUNTER: &str = r#"
        module Counter {
          var value: int;
          invariant NonNeg: "0 <= value";

          method increment() returns (result: int)
            modifies value
            ensures "value = old(value) + 1 & result = value"
          {
            value := value + 1;
            result := value;
          }
        }
    "#;

    fn frame(daemon: &Daemon, line: &str) -> Json {
        parse_json(&daemon.handle(line).frame).expect("every frame is valid JSON")
    }

    fn verify_line(id: usize, source: &str) -> String {
        format!(
            "{{\"id\": {id}, \"op\": \"verify\", \"source\": {}}}",
            json_string(source)
        )
    }

    #[test]
    fn verify_frames_round_trip() {
        let answer = frame(&daemon(ServeConfig::default()), &verify_line(7, COUNTER));
        assert_eq!(answer.get("id").and_then(Json::as_u128), Some(7));
        assert_eq!(answer.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(answer.get("module").and_then(Json::as_str), Some("Counter"));
        assert_eq!(answer.get("fully_proved"), Some(&Json::Bool(true)));
    }

    #[test]
    fn parse_errors_carry_line_and_span() {
        let daemon = daemon(ServeConfig::default());
        let answer = frame(&daemon, &verify_line(1, "module Broken {\n  @\n}"));
        assert_eq!(answer.get("ok"), Some(&Json::Bool(false)));
        let error = answer.get("error").expect("error object");
        assert_eq!(error.get("kind").and_then(Json::as_str), Some("parse"));
        assert_eq!(error.get("line").and_then(Json::as_u128), Some(2));
        let span = error.get("span").and_then(Json::as_array).expect("span");
        assert_eq!(span.len(), 2);
    }

    #[test]
    fn malformed_frames_answer_protocol_errors() {
        let daemon = daemon(ServeConfig::default());
        for bad in [
            "not json at all",
            "{\"op\": \"verify\"}",
            "{\"op\": \"launch\"}",
        ] {
            let answer = frame(&daemon, bad);
            assert_eq!(answer.get("ok"), Some(&Json::Bool(false)), "{bad}");
            assert_eq!(
                answer
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str),
                Some("protocol"),
                "{bad}"
            );
        }
        // Undecodable bytes are one more malformed frame; blank lines are no
        // request at all.
        let served = daemon.handle_bytes(b"\xff\xfe").expect("answered");
        let answer = parse_json(&served.frame).unwrap();
        assert_eq!(
            answer
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("protocol")
        );
        assert!(daemon.handle_bytes(b"  \r").is_none());
    }

    #[test]
    fn retired_incremental_and_path_keys_are_ignored() {
        // Cache off, so the second request is not answered from the first
        // one's proofs and every field but the wall-clock must agree.
        let options =
            VerifyOptions::default().with_config(crate::provers::ProverConfig::without_cache());
        let session = Session::new(options);
        let daemon = Daemon::new(Arc::new(session), ServeConfig::default());
        let plain = verify_line(3, COUNTER);
        let extra = plain.replacen("{", "{\"incremental\": true, \"path\": \"x\", ", 1);
        let strip = |line: &str| match frame(&daemon, line) {
            Json::Object(mut fields) => {
                fields.remove("wall_ms");
                fields
            }
            other => panic!("not an object: {other:?}"),
        };
        let with_keys = strip(&extra);
        assert_eq!(with_keys.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(with_keys, strip(&plain));
    }

    #[test]
    fn shutdown_closes_the_stream() {
        let served = daemon(ServeConfig::default()).handle("{\"id\": 9, \"op\": \"shutdown\"}");
        assert!(served.shutdown.is_some());
        let answer = parse_json(&served.frame).unwrap();
        assert_eq!(answer.get("shutdown"), Some(&Json::Bool(true)));
    }

    #[test]
    fn strings_escape_cleanly() {
        assert_eq!(json_string("a\"b\\c\nd\te"), "\"a\\\"b\\\\c\\nd\\te\"");
        let round = parse_json(&json_string("quote \" slash \\ nl \n tab \t"));
        assert!(round.is_ok());
    }

    fn daemon(config: ServeConfig) -> Daemon {
        Daemon::new(Arc::new(Session::new(VerifyOptions::default())), config)
    }

    #[test]
    fn injected_overload_answers_a_typed_frame_without_verifying() {
        let plan = fault::FaultPlan {
            seed: 3,
            serve_overload_bp: 10_000,
            ..fault::FaultPlan::default()
        };
        let daemon = daemon(ServeConfig {
            fault_plan: Some(plan),
            retry_after_ms: 40,
            ..ServeConfig::default()
        });
        let served = daemon.handle(&verify_line(5, COUNTER));
        let answer = parse_json(&served.frame).unwrap();
        assert_eq!(answer.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(answer.get("overloaded"), Some(&Json::Bool(true)));
        assert_eq!(
            answer.get("retry_after_ms").and_then(Json::as_u128),
            Some(40)
        );
        assert_eq!(
            answer.get("reason").and_then(Json::as_str),
            Some("injected")
        );
        assert_eq!(answer.get("id").and_then(Json::as_u128), Some(5));
        assert_eq!(
            daemon.session().stats().requests,
            0,
            "an overloaded request must never reach the session"
        );
        // Deterministic: the same line trips the same decision.
        assert_eq!(daemon.handle(&verify_line(5, COUNTER)), served);
        // Control ops bypass the chaos... and the admission gate.
        let health = daemon.handle("{\"op\": \"health\"}");
        let answer = parse_json(&health.frame).unwrap();
        assert_eq!(answer.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn capacity_refusals_scale_the_retry_hint() {
        // No permits at all once one request holds the pool: simulate by
        // grabbing the only permit directly.
        let daemon = daemon(ServeConfig {
            max_inflight: 1,
            queue_depth: 0,
            retry_after_ms: 100,
            ..ServeConfig::default()
        });
        let held = match daemon.admission.acquire() {
            Ticket::Admitted(permit) => permit,
            Ticket::Refused { .. } => panic!("first permit must be granted"),
        };
        let served = daemon.handle(&verify_line(1, COUNTER));
        let answer = parse_json(&served.frame).unwrap();
        assert_eq!(answer.get("overloaded"), Some(&Json::Bool(true)));
        assert_eq!(
            answer.get("reason").and_then(Json::as_str),
            Some("capacity")
        );
        assert_eq!(
            answer.get("retry_after_ms").and_then(Json::as_u128),
            Some(100)
        );
        drop(held);
        let served = daemon.handle(&verify_line(1, COUNTER));
        let answer = parse_json(&served.frame).unwrap();
        assert_eq!(answer.get("ok"), Some(&Json::Bool(true)), "pool freed");
    }

    #[test]
    fn draining_daemons_refuse_new_verifies_but_answer_control_ops() {
        let _serial = fault::serial_guard();
        let daemon = daemon(ServeConfig {
            // Long deadline: concurrent tests must never see it pass.
            drain_deadline: Duration::from_secs(120),
            ..ServeConfig::default()
        });
        let served = daemon.handle("{\"id\": 1, \"op\": \"shutdown\", \"drain\": true}");
        assert_eq!(served.shutdown, Some(ShutdownKind::Drain));
        let answer = parse_json(&served.frame).unwrap();
        assert_eq!(answer.get("drain"), Some(&Json::Bool(true)));
        daemon.begin_drain();
        assert!(daemon.draining());

        let served = daemon.handle(&verify_line(2, COUNTER));
        let answer = parse_json(&served.frame).unwrap();
        assert_eq!(answer.get("overloaded"), Some(&Json::Bool(true)));
        assert_eq!(
            answer.get("reason").and_then(Json::as_str),
            Some("draining")
        );
        let health = parse_json(&daemon.handle("{\"op\": \"health\"}").frame).unwrap();
        assert_eq!(health.get("draining"), Some(&Json::Bool(true)));
        drain::clear();
    }

    #[test]
    fn immediate_shutdown_is_flagged() {
        let daemon = daemon(ServeConfig::default());
        let served = daemon.handle("{\"id\": 1, \"op\": \"shutdown\"}");
        assert_eq!(served.shutdown, Some(ShutdownKind::Immediate));
        let answer = parse_json(&served.frame).unwrap();
        assert_eq!(answer.get("drain"), Some(&Json::Bool(false)));
    }

    #[test]
    fn stall_and_drop_instructions_come_from_the_governing_plan() {
        let plan = fault::FaultPlan {
            seed: 9,
            serve_stall_bp: 10_000,
            serve_stall_ms: 7,
            serve_conn_drop_bp: 10_000,
            ..fault::FaultPlan::default()
        };
        let daemon = daemon(ServeConfig {
            fault_plan: Some(plan),
            ..ServeConfig::default()
        });
        let served = daemon.handle("{\"op\": \"stats\"}");
        assert_eq!(served.stall, Some(Duration::from_millis(7)));
        assert!(served.drop_mid_frame);
        // A request whose own plan is zero overrides the daemon's chaos.
        let served = daemon.handle("{\"op\": \"stats\", \"fault_plan\": \"seed=1\"}");
        assert_eq!(served.stall, None);
        assert!(!served.drop_mid_frame);
    }

    #[test]
    fn compact_op_reports_store_lifecycle() {
        let dir = std::env::temp_dir().join(format!(
            "ipl-serve-compact-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Arc::new(Session::new(VerifyOptions::default().with_cache_dir(&dir)));
        let daemon = Daemon::new(session, ServeConfig::default());
        let first = parse_json(&daemon.handle(&verify_line(1, COUNTER)).frame).unwrap();
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
        let compacted =
            parse_json(&daemon.handle("{\"id\": 2, \"op\": \"compact\"}").frame).unwrap();
        assert_eq!(compacted.get("compacted"), Some(&Json::Bool(true)));
        assert_eq!(compacted.get("generation").and_then(Json::as_u128), Some(1));
        // Warm answers are identical after compaction, with no rescan.
        let second = parse_json(&daemon.handle(&verify_line(3, COUNTER)).frame).unwrap();
        assert_eq!(second.get("fully_proved"), first.get("fully_proved"));
        assert_eq!(second.get("sequents_proved"), first.get("sequents_proved"));
        assert_eq!(
            second.get("store_preloads").and_then(Json::as_u128),
            Some(1)
        );
        assert_eq!(
            second.get("store_appended").and_then(Json::as_u128),
            Some(0)
        );
        // Store-less daemons answer gracefully.
        let bare = daemon_default_for_compat();
        let answer = parse_json(&bare.handle("{\"op\": \"compact\"}").frame).unwrap();
        assert_eq!(answer.get("compacted"), Some(&Json::Bool(false)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn daemon_default_for_compat() -> Daemon {
        daemon(ServeConfig::default())
    }

    #[test]
    fn in_daemon_compaction_triggers_every_n_verifies() {
        let dir = std::env::temp_dir().join(format!(
            "ipl-serve-autocompact-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Arc::new(Session::new(VerifyOptions::default().with_cache_dir(&dir)));
        let daemon = Daemon::new(
            session,
            ServeConfig {
                compact_every: 2,
                ..ServeConfig::default()
            },
        );
        for id in 0..4 {
            let answer = parse_json(&daemon.handle(&verify_line(id, COUNTER)).frame).unwrap();
            assert_eq!(answer.get("ok"), Some(&Json::Bool(true)));
        }
        let health = parse_json(&daemon.handle("{\"op\": \"health\"}").frame).unwrap();
        assert_eq!(health.get("requests").and_then(Json::as_u128), Some(4));
        // 4 verifies at compact_every=2: two compactions, generation 2.
        let info = crate::provers::cache_store::scan_dir(&dir).unwrap();
        assert_eq!(info.len(), 1);
        assert_eq!(info[0].generation, Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
