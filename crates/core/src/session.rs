//! Long-lived verification sessions.
//!
//! A [`Session`] owns everything worth keeping warm between verification
//! requests: the prover cascade built for one [`VerifyOptions`]
//! (crate::VerifyOptions) and the persistent proof store handle (opened and
//! scanned **once**, not per call).  It also owns the drain that winds its
//! in-flight requests down at shutdown.  `ipl serve` holds one `Session` for
//! its whole lifetime; `ipl verify` holds one for all the files it is given.
//!
//! Requests are plain values ([`Request`]) and answers carry the report plus
//! session-level telemetry ([`Response`]), so the same surface serves the
//! CLI, the daemon protocol, and future LSP/WASM adapters.  Everything that
//! belongs to one request — its deadline, worker count and fault plan —
//! travels on the `Request`, so concurrent requests never see each other's.

use crate::{drive, ModuleReport, VerifyError, VerifyOptions};
use ipl_provers::cache::ProofCache;
use ipl_provers::cache_store::{CompactStats, StoreHandle};
use ipl_provers::drain::Drain;
use ipl_provers::fault::FaultPlan;
use ipl_provers::Cascade;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One verification request against a [`Session`].
///
/// Construct with [`Request::new`] and refine with the builder methods; the
/// struct is `#[non_exhaustive]` so new knobs can be added without breaking
/// callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Request {
    /// The annotated module source text.
    pub source: String,
    /// Wall-clock budget for this request, overriding
    /// [`VerifyOptions::module_deadline`] (crate::VerifyOptions).
    pub deadline: Option<Duration>,
    /// Worker threads for this request, overriding `VerifyOptions::jobs`.
    pub jobs: Option<usize>,
    /// Deterministic faults to inject into this request's prover stages
    /// and store append (see [`ipl_provers::fault`]); `None` runs it
    /// fault-free.
    pub fault_plan: Option<FaultPlan>,
}

impl Request {
    /// A request to verify `source` under the session's defaults.
    pub fn new(source: impl Into<String>) -> Request {
        Request {
            source: source.into(),
            deadline: None,
            jobs: None,
            fault_plan: None,
        }
    }

    /// Runs this request under a chaos plan.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Request {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets a wall-clock budget for this request.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Request {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the worker count for this request.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Request {
        self.jobs = Some(jobs);
        self
    }
}

/// A successful answer to one [`Request`]: the report plus the session-level
/// telemetry the daemon protocol exposes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Response {
    /// The verification report (partial when the deadline expired; prover
    /// crashes are quarantined inside it, never surfaced as errors).
    pub report: ModuleReport,
    /// Wall-clock for this request (parse through report assembly).
    pub wall: Duration,
    /// Times the on-disk store log has been scanned over the session's whole
    /// life.  Stays at most 1 — the warm-request guarantee.
    pub store_preloads: usize,
    /// Distinct fingerprints the store knows to be on disk.
    pub store_entries: usize,
    /// Entries this request appended to the store.
    pub store_appended: usize,
}

/// Cumulative session telemetry (the daemon's `stats` frame).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SessionStats {
    /// Requests verified (successfully) so far.
    pub requests: usize,
    /// Distinct fingerprints the store knows to be on disk.
    pub store_entries: usize,
    /// Times the on-disk log was scanned into the in-memory cache (0 or 1).
    pub store_preloads: usize,
    /// Total entries appended to the store by this session.
    pub store_appended: usize,
}

/// Long-lived verification state: one cascade, one store handle and one
/// drain.  Shared across threads (`&Session` is enough to verify), so a
/// daemon can serve concurrent connections from one session.
pub struct Session {
    options: VerifyOptions,
    cascade: Cascade,
    /// The persistent store, opened (and its log scanned) once at session
    /// construction.  `None` when no cache dir is configured, the in-memory
    /// cache is off, or the store could not be opened (degraded with a
    /// warning — persistence is an accelerator, not a dependency).
    store: Mutex<Option<StoreHandle>>,
    requests: AtomicUsize,
    drain: Drain,
    /// Answered requests that the drain deadline cut to partial reports.
    drain_cuts: AtomicUsize,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("options", &self.options)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Session {
    /// Builds a session for `options`, constructing the cascade and opening
    /// (but not yet replaying) the persistent store.
    pub fn new(options: VerifyOptions) -> Session {
        let cascade = Cascade::standard(options.config);
        let store = open_store(&options, &cascade.prover_names());
        Session {
            options,
            cascade,
            store: Mutex::new(store),
            requests: AtomicUsize::new(0),
            drain: Drain::default(),
            drain_cuts: AtomicUsize::new(0),
        }
    }

    /// The options this session was built with.
    pub fn options(&self) -> &VerifyOptions {
        &self.options
    }

    /// Verifies one request: parse, warm the in-memory cache from the store
    /// (first request only), prove, persist the freshly proved fingerprints.
    /// The request's fault plan governs its prover stages and its store
    /// append, and nothing else.
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] when parsing or lowering fails.  Prover
    /// failures (unproved, crashed, deadline-skipped sequents) are *not*
    /// errors; they are recorded inside the report.
    pub fn verify(&self, request: &Request) -> Result<Response, VerifyError> {
        let start = Instant::now();
        let module = ipl_lang::parse_module(&request.source)?;
        let mut options = self.options.clone();
        if let Some(jobs) = request.jobs {
            options.jobs = jobs;
        }
        if let Some(deadline) = request.deadline {
            options.module_deadline = Some(deadline);
        }
        {
            let mut store = self.store.lock().expect("store handle poisoned");
            if let Some(handle) = store.as_mut() {
                handle.ensure_preloaded(ProofCache::global());
            }
        }
        let faults = request.fault_plan.as_ref();
        let (report, proved) = drive(&module, &options, &self.cascade, &self.drain, faults)?;
        if report.skipped_sequents() > 0 && self.drain.passed() {
            self.drain_cuts.fetch_add(1, Ordering::Relaxed);
        }
        let mut appended = 0;
        if !proved.is_empty() {
            let mut store = self.store.lock().expect("store handle poisoned");
            if let Some(handle) = store.as_mut() {
                match handle.append_with(&proved, faults) {
                    Ok(count) => appended = count,
                    Err(e) => eprintln!(
                        "warning: could not persist proofs to {}: {e}",
                        handle.store().path().display()
                    ),
                }
            }
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        let stats = self.stats();
        Ok(Response {
            report,
            wall: start.elapsed(),
            store_preloads: stats.store_preloads,
            store_entries: stats.store_entries,
            store_appended: appended,
        })
    }

    /// Compacts the session's persistent store in place: duplicates and
    /// corrupt ranges are dropped via write-to-temp + atomic rename and the
    /// generation stamp is bumped (see
    /// [`CacheStore::compact`](ipl_provers::cache_store::CacheStore::compact)).
    /// The warm index swaps over without a rescan — `store_preloads` stays
    /// at most 1 — and the set of answerable fingerprints is unchanged.
    /// Returns `None` when the session has no store.
    ///
    /// # Errors
    ///
    /// Propagates locking and I/O errors; on error the original log is
    /// untouched.
    pub fn compact_store(&self) -> std::io::Result<Option<CompactStats>> {
        let mut store = self.store.lock().expect("store handle poisoned");
        match store.as_mut() {
            Some(handle) => handle.compact().map(Some),
            None => Ok(None),
        }
    }

    /// Starts (or tightens) a drain: once `deadline` passes, this session's
    /// in-flight requests answer `Skipped(DeadlineExceeded)` partial reports
    /// instead of running on.  A second call keeps the earlier deadline.
    /// Returns the deadline in force.
    pub fn begin_drain(&self, deadline: Instant) -> Instant {
        self.drain.begin(deadline)
    }

    /// The drain deadline, once a drain has begun.
    pub fn drain_deadline(&self) -> Option<Instant> {
        self.drain.deadline()
    }

    /// How many answered requests the drain deadline cut to partial reports
    /// (the daemon exits 4 when this is not zero).
    pub fn drain_cuts(&self) -> usize {
        self.drain_cuts.load(Ordering::Relaxed)
    }

    /// Cumulative session telemetry.
    pub fn stats(&self) -> SessionStats {
        let store = self.store.lock().expect("store handle poisoned");
        let mut stats = SessionStats {
            requests: self.requests.load(Ordering::Relaxed),
            ..SessionStats::default()
        };
        if let Some(handle) = store.as_ref() {
            stats.store_entries = handle.store().len();
            stats.store_preloads = handle.preload_count();
            stats.store_appended = handle.appended();
        }
        stats
    }
}

/// Opens the persistent store when `cache_dir` is configured and the
/// in-memory cache is on.  A store that cannot be opened (permissions, disk)
/// degrades to cache-only verification with a warning.
fn open_store(options: &VerifyOptions, prover_names: &[&'static str]) -> Option<StoreHandle> {
    let dir = options.cache_dir.as_ref()?;
    if !options.config.use_cache {
        return None;
    }
    match StoreHandle::open(dir, &options.config, prover_names) {
        Ok(handle) => Some(handle),
        Err(e) => {
            eprintln!("warning: proof store in {} unavailable: {e}", dir.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VerifyError;

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

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ipl-session-test-{}-{tag}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_session_verifies_requests() {
        let session = Session::new(VerifyOptions::default());
        let response = session.verify(&Request::new(COUNTER)).unwrap();
        assert!(response.report.fully_proved());
        assert_eq!(response.report.module_name, "Counter");
        assert_eq!(session.stats().requests, 1);
        // No cache dir: the store never preloads or appends.
        assert_eq!(response.store_preloads, 0);
        assert_eq!(response.store_appended, 0);
    }

    #[test]
    fn parse_errors_come_back_typed() {
        let session = Session::new(VerifyOptions::default());
        let err = session.verify(&Request::new("module {")).unwrap_err();
        assert!(matches!(err, VerifyError::Parse { .. }));
        assert_eq!(err.kind(), "parse");
    }

    #[test]
    fn the_store_is_scanned_once_per_session() {
        let dir = temp_dir("scan-once");
        let session = Session::new(VerifyOptions::default().with_cache_dir(&dir));
        let first = session.verify(&Request::new(COUNTER)).unwrap();
        assert_eq!(first.store_preloads, 1);
        let second = session.verify(&Request::new(COUNTER)).unwrap();
        assert_eq!(second.store_preloads, 1, "no second scan of the log");
        assert_eq!(second.store_appended, 0, "nothing new to persist");
        assert!(second.store_entries >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn request_overrides_take_effect() {
        // Cache off, or previously proved sequents answer from the global
        // cache even under an expired deadline.
        let uncached = ipl_provers::ProverConfig {
            use_cache: false,
            ..ipl_provers::ProverConfig::default()
        };
        let session = Session::new(VerifyOptions::default().with_config(uncached));
        let response = session
            .verify(
                &Request::new(COUNTER)
                    .with_jobs(1)
                    .with_deadline(Duration::ZERO),
            )
            .unwrap();
        assert_eq!(response.report.jobs, 1);
        assert!(!response.report.fully_proved());
        assert!(response.report.skipped_sequents() > 0);
    }

    #[test]
    fn a_drain_cuts_only_its_own_sessions_requests() {
        let uncached =
            VerifyOptions::default().with_config(ipl_provers::ProverConfig::without_cache());
        let drained = Session::new(uncached.clone());
        let bystander = Session::new(uncached);
        assert_eq!(drained.drain_deadline(), None);
        let deadline = drained.begin_drain(Instant::now());
        assert_eq!(drained.drain_deadline(), Some(deadline));
        let cut = drained.verify(&Request::new(COUNTER)).unwrap();
        assert!(
            cut.report.skipped_sequents() > 0,
            "the drain cut the request"
        );
        assert_eq!(drained.drain_cuts(), 1);
        let whole = bystander.verify(&Request::new(COUNTER)).unwrap();
        assert!(whole.report.fully_proved(), "another session never drains");
        assert_eq!(bystander.drain_cuts(), 0);
    }

    #[test]
    fn compaction_keeps_warm_answers_identical() {
        let dir = temp_dir("compact");
        let session = Session::new(VerifyOptions::default().with_cache_dir(&dir));
        let before = session.verify(&Request::new(COUNTER)).unwrap();
        let stats = session
            .compact_store()
            .unwrap()
            .expect("session has a store");
        assert_eq!(stats.generation, 1);
        assert_eq!(stats.entries_after, before.store_entries);
        let after = session.verify(&Request::new(COUNTER)).unwrap();
        assert_eq!(
            before.report.normalized(),
            after.report.normalized(),
            "compaction must not change any answer"
        );
        assert_eq!(after.store_preloads, 1, "no rescan after compaction");
        assert_eq!(after.store_appended, 0);
        assert_eq!(after.store_entries, before.store_entries);
        // A store-less session reports None instead of erroring.
        let bare = Session::new(VerifyOptions::default());
        assert!(bare.compact_store().unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
