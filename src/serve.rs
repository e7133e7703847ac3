//! The newline-delimited JSON protocol behind `ipl serve`.
//!
//! A daemon holds ONE long-lived [`ipl_core::Session`] and answers one JSON
//! request per line.  The session's front-end memo, the process-wide proof
//! cache and intern table, and the preloaded store index all stay warm
//! across requests: a method the memo knows, whose proofs the proof cache
//! still holds, costs one structural comparison of its key plus one cache
//! lookup per sequent, with no lowering, `wlp`, split or fingerprinting;
//! after an edit, only the edited method and its callers run the front end
//! again.  The on-disk store log is scanned once per *process*, not once per
//! request.  All three tables are bounded, so a long-running daemon's memory
//! does not grow with the number of distinct edits it has seen.
//!
//! ## Requests
//!
//! One JSON object per line.  `op` selects the operation (default
//! `"verify"`); `id`, any JSON value, is echoed as sent in the answer so
//! clients can pipeline:
//!
//! ```json
//! {"id": 1, "op": "verify", "source": "module M { ... }", "deadline_ms": 500,
//!  "jobs": 2}
//! {"id": 2, "op": "stats"}
//! {"id": 3, "op": "shutdown"}
//! ```
//!
//! * `source` (required for `verify`) — the annotated module text;
//! * `deadline_ms` — wall-clock budget for this request, a non-negative
//!   integer below 2^64; sequents dispatched after it passes come back
//!   `skipped` and the report is partial;
//! * `jobs` — worker threads for this request, a non-negative integer (`0`
//!   means the machine's available parallelism); a larger count is cut to
//!   the available parallelism;
//! * `fault_plan` — a deterministic chaos-injection spec (as accepted by
//!   `ipl verify --fault-plan`) that governs this request alone: its prover
//!   stages, its store append and its connection-level faults.  A request
//!   without one runs under the daemon's `--fault-plan`, if any.
//!
//! Unknown keys are ignored; a `deadline_ms` or `jobs` of any other shape is
//! answered with a `protocol` error frame.  Frames are standard JSON
//! ([`crate::core::json`]): a string may use every RFC 8259 escape (`\r`,
//! `\u00e9`, surrogate pairs), and answers escape control characters the
//! same way.  A frame may be at most 4 MiB: a longer one is answered with one
//! `protocol` error frame, the rest of it up to the next newline is
//! discarded, and the stream goes on.  Nesting is bounded too, since the
//! readers recurse once per level: a frame whose arrays and objects nest more
//! than 64 deep gets a `protocol` frame, and a source or quoted formula that
//! nests more than 64 levels (blocks, parentheses, binders, unary operators,
//! operator chains) gets a `parse` frame with its line and span.
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
//! * `stats` — cumulative session telemetry and the sizes of the warm
//!   tables: `{"ok": true, "requests": 17, "store_entries": 120,
//!   "store_preloads": 1, "store_appended": 120, "memo_entries": 46,
//!   "proof_cache_entries": 201, "intern_entries": 5120}` —
//!   `memo_entries` counts the methods the session's memo remembers (at
//!   most 128), `proof_cache_entries` the proofs the process-wide proof
//!   cache holds (at most 16,384) and `intern_entries` the formulas the
//!   process-wide intern table holds (at most 16,384);
//! * `health` — liveness plus admission state: `{"ok": true, "health": "ok",
//!   "inflight": 1, "queued": 0, "max_inflight": 4, "queue_depth": 8,
//!   "draining": false, "requests": 17, "store_entries": 120,
//!   "store_preloads": 1, "memo_entries": 46, "proof_cache_entries": 201,
//!   "intern_entries": 5120}`;
//! * `compact` — compacts the persistent store in place (duplicates and
//!   corrupt ranges dropped, generation bumped) and reports the stats; the
//!   daemon compacts only when asked, by this op or by
//!   `ipl cache DIR --compact`;
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
//!
//! ## Transports and exit codes
//!
//! [`Daemon::serve_stdin`] and [`Daemon::serve_socket`] (one thread per
//! connection) run one frame loop: read, split lines, answer each with
//! [`Daemon::handle_bytes`], act on `shutdown`.  Every stream waits for
//! input in short ticks, so an idle one notices a drain promptly.  Both
//! exit 4 exactly when the drain deadline cut an answered request to a
//! partial report (a socket daemon also when connections are still open
//! 5 s past the deadline), 0 after any other shutdown or drain, and 1 on
//! an I/O failure.

use crate::core::json::{self, parse_json, Json};
use crate::core::{Request, Session, SessionStats, VerifyError};
use crate::logic::intern;
use crate::provers::cache::ProofCache;
use crate::provers::{containment, fault};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a stream waits for input before the frame loop looks up: an
/// idle stream notices a drain or a shutdown within one tick.
const POLL_TICK: Duration = Duration::from_millis(100);

/// How long a socket daemon waits for open connections past the drain
/// deadline before it stops anyway (and exits 4).
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Base back-off hint carried by overloaded frames, scaled by how many
/// requests are already waiting.
const RETRY_AFTER_MS: u64 = 250;

/// The longest request line a stream buffers.  The largest Table 1 module
/// is about 3 KB of source.
const MAX_FRAME_BYTES: usize = 4 << 20;

/// The most bytes one read of a stream takes.
const CHUNK_BYTES: usize = 4096;

/// The [`Request`] a verify frame asks for, or the message of the `protocol`
/// frame that answers it.  `jobs` is the request's worker-thread count, so
/// it is cut to the machine's available parallelism.
fn verify_request(
    frame: &Json,
    plan: Result<Option<fault::FaultPlan>, String>,
) -> Result<Request, String> {
    let source = frame
        .get("source")
        .and_then(Json::as_str)
        .ok_or("verify needs a string `source`")?;
    let mut request = Request::new(source);
    if let Some(plan) = plan? {
        request = request.with_fault_plan(plan);
    }
    if let Some(ms) = count_field(frame, "deadline_ms")? {
        request = request.with_deadline(Duration::from_millis(ms));
    }
    if let Some(jobs) = count_field(frame, "jobs")? {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        request = request.with_jobs(usize::try_from(jobs).map_or(cores, |jobs| jobs.min(cores)));
    }
    Ok(request)
}

/// An optional key that must hold a non-negative integer below 2^64.
fn count_field(frame: &Json, key: &str) -> Result<Option<u64>, String> {
    let Some(value) = frame.get(key) else {
        return Ok(None);
    };
    match value.as_u128().map(u64::try_from) {
        Some(Ok(count)) => Ok(Some(count)),
        _ => Err(format!(
            "`{key}` must be a non-negative integer below 2^64, not {value}"
        )),
    }
}

fn handle_verify(
    session: &Session,
    frame: &Json,
    id: Option<&Json>,
    plan: Result<Option<fault::FaultPlan>, String>,
) -> String {
    let request = match verify_request(frame, plan) {
        Ok(request) => request,
        Err(e) => return error_frame(id, "protocol", &e, None),
    };

    // The whole request runs inside a containment boundary: an injected (or
    // real) panic anywhere in the driver becomes a `crashed` error frame and
    // the daemon keeps serving.
    match containment::contain(|| session.verify(&request)) {
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
                json::string(&report.module_name),
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
         \"store_preloads\": {}, \"store_appended\": {}, {}}}",
        id_field(id),
        stats.requests,
        stats.store_entries,
        stats.store_preloads,
        stats.store_appended,
        table_fields(&stats),
    )
}

/// The entry counts of the warm tables, for the `stats` and `health`
/// frames: the session's memo, and the process-wide proof cache and intern
/// table.
fn table_fields(stats: &SessionStats) -> String {
    format!(
        "\"memo_entries\": {}, \"proof_cache_entries\": {}, \"intern_entries\": {}",
        stats.memo_entries,
        ProofCache::global().stats().entries,
        intern::stats().entries,
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
        json::string(kind),
        json::string(message),
    )
}

/// Renders the echoed `"id": ...,` prefix (empty when the request had none).
fn id_field(id: Option<&Json>) -> String {
    match id {
        Some(id) => format!("\"id\": {id}, "),
        None => String::new(),
    }
}

/// Tuning for a [`Daemon`]: admission bounds, timeouts and chaos.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Verify requests allowed to run concurrently.
    pub max_inflight: usize,
    /// Verify requests allowed to *wait* for a slot; one more is answered
    /// with an overloaded frame instead.
    pub queue_depth: usize,
    /// How long a drain lets in-flight requests run before they start
    /// answering `Skipped(DeadlineExceeded)` partial reports.
    pub drain_deadline: Duration,
    /// A connection that sends no byte for this long is shed.
    pub read_timeout: Duration,
    /// A connection that accepts no byte for this long is shed.
    pub write_timeout: Duration,
    /// Daemon-level chaos plan for every request that carries no
    /// `fault_plan` of its own: its connection-level faults (overload,
    /// stalls, mid-frame drops), its prover stages and its store append.
    pub fault_plan: Option<fault::FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        let cores = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        ServeConfig {
            max_inflight: cores,
            queue_depth: 2 * cores,
            drain_deadline: Duration::from_secs(5),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
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
/// admission, drain orchestration, connection-level chaos, and the
/// transports ([`Daemon::serve_stdin`],
/// [`Daemon::serve_socket`]) that call [`Daemon::handle`] once per complete
/// request line and act on the returned [`Served`].
pub struct Daemon {
    session: Arc<Session>,
    config: ServeConfig,
    admission: Admission,
    /// Set by an immediate `shutdown`: every stream and the accept loop stop.
    stopping: AtomicBool,
    /// Socket connections being served; a drain waits for them.
    connections: AtomicUsize,
}

impl Daemon {
    /// Wraps `session` for serving under `config`.
    pub fn new(session: Arc<Session>, config: ServeConfig) -> Daemon {
        let admission = Admission::new(config.max_inflight, config.queue_depth);
        Daemon {
            session,
            config,
            admission,
            stopping: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
        }
    }

    /// The session being served.
    pub fn session(&self) -> &Arc<Session> {
        &self.session
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
        // The governing plan decides this request's connection-level faults
        // here and travels on its `Request` to the prover stages and the
        // store.  A malformed plan governs nothing; a verify answers it with
        // a protocol frame.
        let plan = match parsed
            .as_ref()
            .ok()
            .and_then(|frame| frame.get("fault_plan"))
            .and_then(Json::as_str)
        {
            Some(spec) => fault::FaultPlan::parse(spec).map(Some),
            None => Ok(self.config.fault_plan),
        };
        let faults = plan
            .as_ref()
            .map_or(self.config.fault_plan, |plan| *plan)
            .map(|plan| plan.serve_faults(key))
            .unwrap_or_default();
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
                        served.frame = handle_verify(&self.session, &frame, id, plan);
                        drop(permit);
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
    /// waiters are woken with draining frames, and the session's in-flight
    /// cascades begin answering `Skipped(DeadlineExceeded)` once the
    /// deadline passes.  Returns the drain deadline.  Idempotent — a second
    /// call keeps the earlier deadline.
    pub fn begin_drain(&self) -> Instant {
        self.admission.begin_drain();
        self.session
            .begin_drain(Instant::now() + self.config.drain_deadline)
    }

    /// Whether a drain has begun.
    pub fn draining(&self) -> bool {
        self.session.drain_deadline().is_some()
    }

    fn overloaded_frame(
        &self,
        id: Option<&Json>,
        reason: OverloadReason,
        waiting: usize,
    ) -> String {
        let retry_after = RETRY_AFTER_MS * (waiting as u64 + 1);
        format!(
            "{{{}\"ok\": false, \"overloaded\": true, \"retry_after_ms\": {retry_after}, \
             \"reason\": {}}}",
            id_field(id),
            json::string(reason.as_str()),
        )
    }

    fn health_frame(&self, id: Option<&Json>) -> String {
        let (inflight, waiting, draining) = self.admission.snapshot();
        let stats = self.session.stats();
        format!(
            "{{{}\"ok\": true, \"health\": \"ok\", \"inflight\": {inflight}, \
             \"queued\": {waiting}, \"max_inflight\": {}, \"queue_depth\": {}, \
             \"draining\": {draining}, \"requests\": {}, \"store_entries\": {}, \
             \"store_preloads\": {}, {}}}",
            id_field(id),
            self.admission.max_inflight,
            self.admission.queue_depth,
            stats.requests,
            stats.store_entries,
            stats.store_preloads,
            table_fields(&stats),
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

    /// Serves the protocol on the daemon's own stdin and stdout until end
    /// of input, a `shutdown`, or a drain, and returns the exit code.
    /// Stdin is never severed, and its last line needs no newline.
    pub fn serve_stdin(&self) -> u8 {
        eprintln!("ipl serve: ready (stdin)");
        let chunks = read_stdin_in_background();
        let fill = |pending: &mut Vec<u8>| match chunks.recv_timeout(POLL_TICK) {
            Ok(chunk) => {
                let chunk = chunk?;
                pending.extend_from_slice(&chunk);
                Ok(chunk.len())
            }
            Err(mpsc::RecvTimeoutError::Timeout) => Err(io::ErrorKind::TimedOut.into()),
            Err(mpsc::RecvTimeoutError::Disconnected) => Ok(0),
        };
        match self.frame_loop(fill, &mut io::stdout().lock(), false) {
            Ok(()) => self.drain_exit_code(),
            Err(e) => {
                eprintln!("ipl serve: stdio error: {e}");
                1
            }
        }
    }

    /// Serves the protocol on a Unix socket at `path`, one thread (and one
    /// frame loop) per connection, all sharing this daemon, and returns the
    /// exit code.  The accept loop polls, so it notices drains and
    /// immediate shutdowns promptly.
    #[cfg(unix)]
    pub fn serve_socket(self: &Arc<Self>, path: &Path) -> u8 {
        use std::os::unix::net::UnixListener;

        // A previous daemon's socket file would make bind fail with AddrInUse.
        let _ = std::fs::remove_file(path);
        let listener = match UnixListener::bind(path) {
            Ok(listener) => listener,
            Err(e) => {
                eprintln!("ipl serve: cannot bind {}: {e}", path.display());
                return 1;
            }
        };
        if listener.set_nonblocking(true).is_err() {
            eprintln!("ipl serve: cannot poll the listener");
            return 1;
        }
        eprintln!("ipl serve: ready ({})", path.display());
        while !self.stopping.load(Ordering::Relaxed) && !self.draining() {
            match listener.accept() {
                Ok((stream, _)) => self.spawn_connection(stream),
                Err(e) => {
                    if e.kind() != io::ErrorKind::WouldBlock {
                        eprintln!("ipl serve: accept error: {e}");
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        let code = if self.stopping.load(Ordering::Relaxed) {
            0
        } else {
            self.wait_for_connections()
        };
        let _ = std::fs::remove_file(path);
        code
    }

    /// Without Unix sockets there is only stdin mode.
    #[cfg(not(unix))]
    pub fn serve_socket(self: &Arc<Self>, _path: &Path) -> u8 {
        eprintln!("ipl serve: --listen requires Unix domain sockets; use stdin mode");
        2
    }

    /// Serves one accepted connection on its own thread.  A connection
    /// silent past the read timeout — a slow or half-open client, possibly
    /// wedged mid-frame — is shed so it cannot pin its thread, and an
    /// unterminated line at its end is dropped unanswered.
    #[cfg(unix)]
    fn spawn_connection(self: &Arc<Self>, stream: std::os::unix::net::UnixStream) {
        // Short read ticks (not the full read timeout) so an idle
        // connection notices a drain promptly.
        let _ = stream.set_read_timeout(Some(POLL_TICK));
        let _ = stream.set_write_timeout(Some(self.config.write_timeout));
        let daemon = Arc::clone(self);
        self.connections.fetch_add(1, Ordering::SeqCst);
        std::thread::spawn(move || {
            // Count down on every exit path, panics included: the drain
            // waits on this counter.
            struct Open<'a>(&'a AtomicUsize);
            impl Drop for Open<'_> {
                fn drop(&mut self) {
                    self.0.fetch_sub(1, Ordering::SeqCst);
                }
            }
            let _open = Open(&daemon.connections);
            let mut chunk = [0u8; CHUNK_BYTES];
            let mut last_byte = Instant::now();
            let fill = |pending: &mut Vec<u8>| match (&stream).read(&mut chunk) {
                Ok(n) => {
                    pending.extend_from_slice(&chunk[..n]);
                    last_byte = Instant::now();
                    Ok(n)
                }
                Err(e) if idle(&e) && last_byte.elapsed() >= daemon.config.read_timeout => Ok(0),
                Err(e) => Err(e),
            };
            // A broken stream ends only its own connection, which closes
            // when `stream` drops.
            let _ = daemon.frame_loop(fill, &mut &stream, true);
        });
    }

    /// Lets the open connections finish under the drain deadline (their
    /// cascades answer `Skipped` partials once it passes) and returns the
    /// exit code.  Idle connections close on their next tick; the grace
    /// period covers a wedged client that keeps a request running anyway.
    fn wait_for_connections(&self) -> u8 {
        let deadline = self.session.drain_deadline().unwrap_or_else(Instant::now);
        while self.connections.load(Ordering::SeqCst) > 0 {
            if Instant::now() >= deadline + DRAIN_GRACE {
                eprintln!("ipl serve: drain hard-stop with connections still open");
                return 4;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        eprintln!("ipl serve: drained");
        self.drain_exit_code()
    }

    /// 4 when the drain deadline cut an answered request to a partial
    /// report, else 0.
    fn drain_exit_code(&self) -> u8 {
        if self.session.drain_cuts() > 0 {
            4
        } else {
            0
        }
    }

    /// The one frame loop both transports run: read, answer every complete
    /// line, act on `shutdown`.  `fill` appends what arrives within about one
    /// [`POLL_TICK`], at most [`CHUNK_BYTES`], and returns its length, 0 at
    /// the end of the stream.  A line longer than [`MAX_FRAME_BYTES`] is
    /// answered with one `protocol` error frame as soon as it passes the
    /// cap, and the rest of it is discarded as it arrives, so the buffer
    /// never holds more than the cap plus one chunk.  On a `severable`
    /// stream an injected mid-frame drop writes half the frame and ends the
    /// loop, and the caller closes the stream.
    fn frame_loop(
        &self,
        mut fill: impl FnMut(&mut Vec<u8>) -> io::Result<usize>,
        out: &mut impl Write,
        severable: bool,
    ) -> io::Result<()> {
        let mut pending = Vec::new();
        // `pending[..scanned]` holds no newline: only fresh bytes are searched.
        let mut scanned = 0;
        // Set while the rest of an oversized line is being discarded.
        let mut oversized = false;
        loop {
            let mut start = 0;
            while let Some(offset) = pending[scanned..].iter().position(|&b| b == b'\n') {
                let end = scanned + offset;
                let line = &pending[start..end];
                let line = line.strip_suffix(b"\r").unwrap_or(line);
                start = end + 1;
                scanned = start;
                if std::mem::take(&mut oversized) {
                    continue;
                }
                let Some(mut served) = self.handle_bytes(line) else {
                    continue;
                };
                if let Some(stall) = served.stall {
                    std::thread::sleep(stall);
                }
                if served.drop_mid_frame && severable {
                    let half = &served.frame.as_bytes()[..served.frame.len() / 2];
                    return out.write_all(half).and_then(|()| out.flush());
                }
                served.frame.push('\n');
                out.write_all(served.frame.as_bytes())?;
                out.flush()?;
                match served.shutdown {
                    Some(ShutdownKind::Immediate) => {
                        self.stopping.store(true, Ordering::Relaxed);
                        return Ok(());
                    }
                    Some(ShutdownKind::Drain) => {
                        self.begin_drain();
                        return Ok(());
                    }
                    None => {}
                }
            }
            pending.drain(..start);
            if pending.len() > MAX_FRAME_BYTES && !oversized {
                let message = format!("bad frame: longer than {MAX_FRAME_BYTES} bytes");
                let mut frame = error_frame(None, "protocol", &message, None);
                frame.push('\n');
                out.write_all(frame.as_bytes())?;
                out.flush()?;
                oversized = true;
            }
            if oversized {
                pending.clear();
            }
            scanned = pending.len();
            // No new requests during a drain: a stream closes once it has
            // answered what it holds.
            if self.stopping.load(Ordering::Relaxed) || self.draining() {
                return Ok(());
            }
            match fill(&mut pending) {
                Ok(0) => return Ok(()),
                Err(e) if !idle(&e) => return Err(e),
                _ => {}
            }
        }
    }
}

/// A read error that only means nothing arrived yet: an idle tick or an
/// interrupted call.
fn idle(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// Reads stdin in chunks of at most [`CHUNK_BYTES`] on its own thread, as
/// a socket is read, so the frame loop can wait for input one tick at a time
/// and bounds every line it buffers.  At the end of input it sends one
/// newline, which ends an unterminated last line, and hangs up.  The channel
/// holds at most a few chunks, so a client that writes faster than the
/// daemon answers is held back.  The thread is not joined: it may sit in
/// `read` until the process exits.
fn read_stdin_in_background() -> mpsc::Receiver<io::Result<Vec<u8>>> {
    let (sender, receiver) = mpsc::sync_channel(4);
    std::thread::spawn(move || {
        let mut stdin = io::stdin().lock();
        let mut chunk = [0u8; CHUNK_BYTES];
        loop {
            let (read, last) = match stdin.read(&mut chunk) {
                Ok(0) => (Ok(b"\n".to_vec()), true),
                Ok(n) => (Ok(chunk[..n].to_vec()), false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => (Err(e), true),
            };
            if sender.send(read).is_err() || last {
                return;
            }
        }
    });
    receiver
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

    fn error_kind(answer: &Json) -> Option<&str> {
        answer.get("error")?.get("kind")?.as_str()
    }

    #[test]
    fn deadlines_and_jobs_must_be_counts_in_range() {
        let build = |keys: &str| {
            let line = format!("{{\"source\": \"module M {{}}\"{keys}}}");
            verify_request(&parse_json(&line).unwrap(), Ok(None))
        };
        let request = build(", \"deadline_ms\": 18446744073709549568, \"jobs\": 1").unwrap();
        assert_eq!(
            request.deadline,
            Some(Duration::from_millis(u64::MAX - 2047))
        );
        assert_eq!(request.jobs, Some(1));
        assert_eq!(build("").map(|r| (r.deadline, r.jobs)), Ok((None, None)));
        // 2^64 does not fit; the rest are no count at all.
        for bad in ["18446744073709551616", "-1", "2.5", "\"500\"", "null"] {
            for key in ["deadline_ms", "jobs"] {
                let error = build(&format!(", \"{key}\": {bad}")).unwrap_err();
                assert!(error.starts_with(&format!("`{key}` must be")), "{error}");
            }
        }
        // `jobs` is a thread count, so it is cut to the available
        // parallelism; 0 still means "the available parallelism".
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        for (asked, granted) in [(1_000_000, cores), (0, 0)] {
            let jobs = build(&format!(", \"jobs\": {asked}")).unwrap().jobs;
            assert_eq!(jobs, Some(granted), "jobs {asked}");
        }
    }

    fn verify_line(id: usize, source: &str) -> String {
        format!(
            "{{\"id\": {id}, \"op\": \"verify\", \"source\": {}}}",
            json::string(source)
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
            "{\"source\": \"module M {}\", \"deadline_ms\": -5}",
            "{\"source\": \"module M {}\", \"jobs\": 1.5}",
        ] {
            let answer = frame(&daemon, bad);
            assert_eq!(answer.get("ok"), Some(&Json::Bool(false)), "{bad}");
            assert_eq!(error_kind(&answer), Some("protocol"), "{bad}");
        }
        // Undecodable bytes are one more malformed frame; blank lines are no
        // request at all.
        let served = daemon.handle_bytes(b"\xff\xfe").expect("answered");
        let answer = parse_json(&served.frame).unwrap();
        assert_eq!(error_kind(&answer), Some("protocol"));
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
        assert_eq!(json::string("a\"b\\c\nd\te"), "\"a\\\"b\\\\c\\nd\\te\"");
        let round = parse_json(&json::string("quote \" slash \\ nl \n tab \t"));
        assert!(round.is_ok());
    }

    #[test]
    fn composite_ids_are_echoed_as_sent() {
        let served = daemon(ServeConfig::default())
            .handle("{\"id\": [1, {\"tag\": \"caf\\u00e9\\r\"}], \"op\": \"stats\"}");
        assert!(
            served
                .frame
                .starts_with("{\"id\": [1, {\"tag\": \"café\\r\"}], \"ok\": true, "),
            "{}",
            served.frame
        );
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
            ..ServeConfig::default()
        });
        let served = daemon.handle(&verify_line(5, COUNTER));
        let answer = parse_json(&served.frame).unwrap();
        assert_eq!(answer.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(answer.get("overloaded"), Some(&Json::Bool(true)));
        assert_eq!(
            answer.get("retry_after_ms").and_then(Json::as_u128),
            Some(250)
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
            Some(250)
        );
        drop(held);
        let served = daemon.handle(&verify_line(1, COUNTER));
        let answer = parse_json(&served.frame).unwrap();
        assert_eq!(answer.get("ok"), Some(&Json::Bool(true)), "pool freed");
    }

    #[test]
    fn draining_daemons_refuse_new_verifies_but_answer_control_ops() {
        let daemon = daemon(ServeConfig::default());
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
        let bare = Daemon::new(
            Arc::new(Session::new(VerifyOptions::default())),
            ServeConfig::default(),
        );
        let answer = parse_json(&bare.handle("{\"op\": \"compact\"}").frame).unwrap();
        assert_eq!(answer.get("compacted"), Some(&Json::Bool(false)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_oversized_frame_is_refused_once_and_the_stream_goes_on() {
        static FILLER: [u8; CHUNK_BYTES] = [b'x'; CHUNK_BYTES];
        let daemon = daemon(ServeConfig::default());
        let mut unsent = 3 * MAX_FRAME_BYTES;
        let mut tail = Some(&b"\n{\"id\": 2, \"op\": \"stats\"}\n"[..]);
        let mut largest = 0;
        let fill = |pending: &mut Vec<u8>| {
            let chunk = if unsent > 0 {
                let n = unsent.min(CHUNK_BYTES);
                unsent -= n;
                &FILLER[..n]
            } else {
                tail.take().unwrap_or_default()
            };
            pending.extend_from_slice(chunk);
            largest = largest.max(pending.len());
            Ok(chunk.len())
        };
        let mut sent = Vec::new();
        daemon.frame_loop(fill, &mut sent, false).unwrap();
        let frames: Vec<Json> = String::from_utf8(sent)
            .unwrap()
            .lines()
            .map(|line| parse_json(line).unwrap())
            .collect();
        assert_eq!(frames.len(), 2, "{frames:?}");
        assert_eq!(error_kind(&frames[0]), Some("protocol"));
        assert_eq!(frames[1].get("id").and_then(Json::as_u128), Some(2));
        assert_eq!(frames[1].get("ok"), Some(&Json::Bool(true)));
        assert!(
            largest <= MAX_FRAME_BYTES + CHUNK_BYTES,
            "the buffer grew to {largest} bytes"
        );
    }

    #[test]
    fn stats_frames_count_the_warm_tables() {
        let daemon = daemon(ServeConfig::default());
        frame(&daemon, &verify_line(1, COUNTER));
        for op in ["stats", "health"] {
            let answer = frame(&daemon, &format!("{{\"op\": \"{op}\"}}"));
            let count = |field| answer.get(field).and_then(Json::as_u128);
            assert_eq!(count("memo_entries"), Some(1), "{op}");
            assert!(count("proof_cache_entries").is_some_and(|n| n >= 1), "{op}");
            assert!(count("intern_entries").is_some_and(|n| n >= 1), "{op}");
        }
    }

    #[test]
    fn the_frame_loop_answers_each_line_once_however_reads_split_it() {
        let daemon = daemon(ServeConfig::default());
        let mut chunks = [
            &b"{\"id\": 1, \"op\": \"st"[..],
            b"ats\"}\r\n\n{\"id\": 2, \"op\": \"shutdown\"}\n{\"id\": 3, \"op\": \"stats\"}\n",
        ]
        .into_iter();
        let fill = |pending: &mut Vec<u8>| {
            let chunk = chunks.next().unwrap_or_default();
            pending.extend_from_slice(chunk);
            Ok(chunk.len())
        };
        let mut sent = Vec::new();
        daemon.frame_loop(fill, &mut sent, false).unwrap();
        let ids: Vec<_> = String::from_utf8(sent)
            .unwrap()
            .lines()
            .map(|line| parse_json(line).unwrap().get("id").and_then(Json::as_u128))
            .collect();
        assert_eq!(ids, [Some(1), Some(2)], "nothing after a shutdown is read");
        assert!(daemon.stopping.load(Ordering::Relaxed));
    }
}
