//! The in-process runs behind `--trace 1`.
//!
//! The *traced* run re-drives the verification pipeline at `--jobs 1`
//! through each layer's public functions and records a span around every
//! call: parse and lower (`lang`), translate, `wlp` and split (`gcl`),
//! interning (`logic`), assumption selection, fingerprint, lookup and record
//! (`cache`), store open, preload and append (`cache_store`), and each
//! cascade stage as a public `Prover`.  Spans are kept in memory and written
//! out when the run ends.
//!
//! The *plain* twin sends the same inputs, in the same order, through
//! `Session::verify` untraced.  The difference between the two walls is the
//! tracing overhead, and the twin is the fidelity reference: per request,
//! the traced stage attribution and Unknown count must equal the session's.
//!
//! Each run is its own process (see `main.rs`), so both start from the same
//! empty proof cache, intern table and store that a fresh `ipl` has.

use crate::gen::{all_mutants, Input, Kind, MutantId, Stream, Workload};
use ipl::core::{Request, Session, VerifyOptions};
use ipl::gcl::split::split_all;
use ipl::gcl::translate::{translate_ext, TranslateCtx};
use ipl::gcl::wlp::vc_of;
use ipl::logic::intern;
use ipl::provers::cache::{Fingerprint, ProofCache};
use ipl::provers::cache_store::StoreHandle;
use ipl::provers::cascade::{BapaProver, GroundSmt, InstSmt, ShapeProver};
use ipl::provers::ground::{self, GroundStats};
use ipl::provers::syntactic::Syntactic;
use ipl::provers::{Cancel, Cascade, Outcome, Prover, ProverConfig, Query};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Stream cycles in one in-process run: 24 cold modules for cli-cold, 276
/// requests for serve-edit, and every mutant once for serve-failing.
fn cycles(workload: Workload) -> usize {
    match workload {
        Workload::CliCold | Workload::ServeEdit => 3,
        Workload::ServeFailing => 1,
    }
}

/// The cascade stages, by the layer names the metrics use.
const STAGES: [&str; 5] = ["syntactic", "ground", "bapa", "shape", "inst"];

/// One timed call.  Spans nest strictly (one thread), so a span's self time
/// is its duration minus its direct children's durations.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: usize,
}

/// Records spans in memory.
#[derive(Debug)]
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: usize,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = self.now_ns();
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let result = f();
        self.exit(id);
        result
    }

    /// Self time and call count per span name, over the requests `keep`
    /// accepts.
    fn self_times(&self, keep: impl Fn(usize) -> bool) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            if keep(span.request) {
                let entry = out.entry(span.name).or_default();
                entry.0 += (span.end_ns - span.start_ns) - children;
                entry.1 += 1;
            }
        }
        out
    }

    /// Writes every span as one tab-separated line.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("request\tname\tstart_ns\tend_ns\tparent\n");
        for span in &self.spans {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{parent}",
                span.request, span.name, span.start_ns, span.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// What one request answered, in the form both runs can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Answer {
    verified: Vec<bool>,
    /// Sequents per answering stage (`trivial` for those split away).
    prover_counts: BTreeMap<String, usize>,
    unknown: usize,
}

impl Answer {
    /// One line that two runs must agree on.
    fn line(&self) -> String {
        let verified: String = self
            .verified
            .iter()
            .map(|&v| if v { '1' } else { '0' })
            .collect();
        let counts: Vec<String> = self
            .prover_counts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{verified} {} unknown={}", counts.join(","), self.unknown)
    }
}

/// Per-stage counters of the traced run.
#[derive(Debug, Clone, Copy, Default)]
struct StageCount {
    calls: u64,
    proved: u64,
}

/// The traced stand-in for a `Session`: the same cascade line-up and store.
struct TracedSession {
    config: ProverConfig,
    /// Span name and prover of each stage, in cascade order.
    stages: Vec<(&'static str, Box<dyn Prover>)>,
    names: Vec<&'static str>,
    store: Option<StoreHandle>,
}

/// Counters the traced run keeps besides its spans.
#[derive(Debug, Default)]
struct Counters {
    stages: [StageCount; 5],
    ground: GroundStats,
    sequents: u64,
    lookups: u64,
    hits: u64,
    unknown: u64,
    unknown_ns: u64,
    timeouts: u64,
    appended: u64,
    intern_entries: usize,
}

impl TracedSession {
    fn new(tracer: &mut Tracer, options: &VerifyOptions) -> Result<TracedSession, String> {
        let id = tracer.enter("core.session_new");
        let cascade = Cascade::standard(options.config);
        let names = cascade.prover_names();
        let stages: Vec<(&'static str, Box<dyn Prover>)> = vec![
            ("stage.syntactic", Box::new(Syntactic)),
            ("stage.ground", Box::new(GroundSmt)),
            ("stage.bapa", Box::new(BapaProver)),
            ("stage.shape", Box::new(ShapeProver)),
            ("stage.inst", Box::new(InstSmt)),
        ];
        let store = match &options.cache_dir {
            Some(dir) => Some(
                tracer
                    .timed("cache_store.open", || {
                        StoreHandle::open(dir, &options.config, &names)
                    })
                    .map_err(|e| format!("store in {}: {e}", dir.display()))?,
            ),
            None => None,
        };
        tracer.exit(id);
        let traced: Vec<&str> = stages.iter().map(|(_, p)| p.name()).collect();
        if traced != names {
            return Err(format!(
                "the traced stages {traced:?} no longer match Cascade::standard {names:?}"
            ));
        }
        Ok(TracedSession {
            config: options.config,
            stages,
            names,
            store,
        })
    }

    /// `Session::verify` at `--jobs 1`, one span per public call.
    fn verify(
        &mut self,
        tracer: &mut Tracer,
        counters: &mut Counters,
        source: &str,
    ) -> Result<Answer, String> {
        let root = tracer.enter("core.verify");
        let module = tracer
            .timed("lang.parse", || ipl::lang::parse_module(source))
            .map_err(|e| e.to_string())?;
        let lowered = tracer
            .timed("lang.lower", || ipl::lang::lower_module(&module))
            .map_err(|e| e.to_string())?;
        let cache = ProofCache::global();
        cache.reset_stats();
        if let Some(store) = self.store.as_mut() {
            tracer.timed("cache_store.preload", || store.ensure_preloaded(cache));
        }
        let mut prepared = Vec::with_capacity(lowered.methods.len());
        for method in &lowered.methods {
            let simple = tracer.timed("gcl.translate", || {
                let command = method.command.clone();
                translate_ext(&command, &mut TranslateCtx::new())
            });
            let vc = tracer.timed("gcl.wlp", || vc_of(&simple));
            let mut sequents = tracer.timed("gcl.split", || split_all(&vc));
            tracer.timed("logic.intern", || {
                for sequent in &mut sequents {
                    sequent.goal = intern::share(&sequent.goal);
                    for assumption in &mut sequent.assumptions {
                        assumption.form = intern::share(&assumption.form);
                    }
                }
            });
            prepared.push(sequents);
        }

        let timeout = Duration::from_millis(self.config.per_prover_timeout_ms);
        let mut answer = Answer {
            verified: Vec::new(),
            prover_counts: BTreeMap::new(),
            unknown: 0,
        };
        let mut proved: Vec<(Fingerprint, String)> = Vec::new();
        for (method, sequents) in lowered.methods.iter().zip(&prepared) {
            let mut all_proved = true;
            for sequent in sequents {
                counters.sequents += 1;
                if sequent.is_trivially_valid() {
                    *answer.prover_counts.entry("trivial".into()).or_default() += 1;
                    continue;
                }
                let query = tracer.timed("cache.select", || {
                    let assumptions = sequent.selected_assumptions().into_iter().cloned();
                    Query::new(
                        assumptions.collect(),
                        sequent.goal.clone(),
                        method.env.clone(),
                    )
                });
                let start = tracer.now_ns();
                let fingerprint = tracer.timed("cache.fingerprint", || {
                    ProofCache::fingerprint(&query, &self.config, &self.names)
                });
                counters.lookups += 1;
                let mut by = tracer.timed("cache.lookup", || cache.lookup(fingerprint));
                if by.is_some() {
                    counters.hits += 1;
                }
                for (index, (span, prover)) in self.stages.iter().enumerate() {
                    if by.is_some() {
                        break;
                    }
                    let cancel = Cancel::with_timeout(timeout);
                    let before = ground::stats_snapshot();
                    let stage_start = Instant::now();
                    let outcome =
                        tracer.timed(span, || prover.prove(&query, &self.config, &cancel));
                    if stage_start.elapsed() >= timeout {
                        counters.timeouts += 1;
                    }
                    if *span == "stage.ground" {
                        let delta = ground::stats_snapshot().since(&before);
                        add_ground(&mut counters.ground, &delta);
                    }
                    counters.stages[index].calls += 1;
                    if outcome == Outcome::Proved {
                        counters.stages[index].proved += 1;
                        let name = prover.name();
                        tracer.timed("cache.record", || cache.record(fingerprint, name));
                        proved.push((fingerprint, name.to_string()));
                        by = Some(name.to_string());
                    }
                }
                match by {
                    Some(name) => *answer.prover_counts.entry(name).or_default() += 1,
                    None => {
                        all_proved = false;
                        answer.unknown += 1;
                        counters.unknown += 1;
                        counters.unknown_ns += tracer.now_ns() - start;
                    }
                }
            }
            answer.verified.push(all_proved);
        }
        if !proved.is_empty() {
            if let Some(store) = self.store.as_mut() {
                let appended = tracer
                    .timed("cache_store.append", || store.append_new(&proved))
                    .map_err(|e| format!("store append: {e}"))?;
                counters.appended += appended as u64;
            }
        }
        tracer.exit(root);
        counters.intern_entries = counters.intern_entries.max(intern::stats().entries);
        Ok(answer)
    }
}

fn add_ground(total: &mut GroundStats, delta: &GroundStats) {
    total.decisions += delta.decisions;
    total.bool_propagations += delta.bool_propagations;
    total.theory_propagations += delta.theory_propagations;
    total.conflicts += delta.conflicts;
    total.learned_clauses += delta.learned_clauses;
}

/// The inputs of one in-process run: per session, the requests it serves.
/// cli-cold gives every request its own cold session, as `ipl verify` does;
/// the serve workloads prime one session and send client 0's first cycles.
pub fn sessions(workload: Workload, seed: u64) -> Vec<Vec<Input>> {
    let mut stream = Stream::new(workload, seed, 0);
    let inputs = (0..cycles(workload)).flat_map(|_| stream.cycle());
    match workload {
        Workload::CliCold => inputs.map(|input| vec![input]).collect(),
        Workload::ServeEdit | Workload::ServeFailing => {
            vec![crate::gen::priming().into_iter().chain(inputs).collect()]
        }
    }
}

/// What one in-process run hands back to the parent.
#[derive(Debug, Default)]
pub struct RunSummary {
    pub metrics: BTreeMap<String, f64>,
    /// One line per request, in order (see [`Answer::line`]).
    pub answers: Vec<String>,
    /// Requests whose verdicts differed from the known answer.
    pub failed: usize,
    pub attempted: usize,
}

/// A mutated method was reported verified: a soundness bug, never a
/// measurement.
#[derive(Debug)]
pub struct SoundnessTrip(pub String);

fn check(input: &Input, verified: &[bool]) -> Result<bool, SoundnessTrip> {
    if let Some(m) = input.failing {
        if verified.get(m) == Some(&true) {
            return Err(SoundnessTrip(format!(
                "{} was reported verified",
                input.label()
            )));
        }
    }
    Ok(verified == input.expected())
}

/// Removes and re-creates a directory for one session's store.
fn fresh_dir(dir: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}

/// Empties the process-wide state a fresh `ipl` process starts without.
fn cold_process_state() {
    ProofCache::global().reset();
    intern::clear();
}

/// The untraced twin: the same sessions through `Session::verify`.
pub fn run_plain(
    workload: Workload,
    seed: u64,
    work: &Path,
) -> Result<Result<RunSummary, SoundnessTrip>, String> {
    let mut summary = RunSummary::default();
    let wall = Instant::now();
    for (index, inputs) in sessions(workload, seed).iter().enumerate() {
        cold_process_state();
        let dir = fresh_dir(&work.join(format!("plain-store-{index}")))?;
        let session = Session::new(VerifyOptions::default().with_jobs(1).with_cache_dir(&dir));
        for input in inputs {
            let response = session
                .verify(&Request::new(input.source.clone()))
                .map_err(|e| format!("{}: {e}", input.label()))?;
            let report = &response.report;
            let answer = Answer {
                verified: report.methods.iter().map(|m| m.fully_proved()).collect(),
                prover_counts: report.prover_counts(),
                unknown: report
                    .methods
                    .iter()
                    .flat_map(|m| &m.sequents)
                    .filter(|s| s.outcome == Outcome::Unknown)
                    .count(),
            };
            summary.attempted += 1;
            match check(input, &answer.verified) {
                Err(trip) => return Ok(Err(trip)),
                Ok(false) => summary.failed += 1,
                Ok(true) => {}
            }
            summary.answers.push(answer.line());
        }
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    }
    summary.metrics.insert("wall_ms".into(), ms(wall.elapsed()));
    Ok(Ok(summary))
}

/// The traced run: the same sessions through [`TracedSession`].
pub fn run_traced(
    workload: Workload,
    seed: u64,
    work: &Path,
    spans_out: &Path,
) -> Result<Result<RunSummary, SoundnessTrip>, String> {
    let mut summary = RunSummary::default();
    let mut tracer = Tracer::new();
    let mut counters = Counters::default();
    let mut kinds: Vec<Kind> = Vec::new();
    let mut intern_hits = 0u64;
    let mut intern_misses = 0u64;
    let wall = Instant::now();
    for (index, inputs) in sessions(workload, seed).iter().enumerate() {
        // A cold process starts with empty tables; count the interning done
        // so far before they are emptied.
        let before = intern::stats();
        cold_process_state();
        let dir = fresh_dir(&work.join(format!("traced-store-{index}")))?;
        tracer.request = kinds.len();
        let options = VerifyOptions::default().with_jobs(1).with_cache_dir(&dir);
        let mut session = TracedSession::new(&mut tracer, &options)?;
        for input in inputs {
            tracer.request = kinds.len();
            kinds.push(input.kind);
            let answer = session
                .verify(&mut tracer, &mut counters, &input.source)
                .map_err(|e| format!("{}: {e}", input.label()))?;
            summary.attempted += 1;
            match check(input, &answer.verified) {
                Err(trip) => return Ok(Err(trip)),
                Ok(false) => summary.failed += 1,
                Ok(true) => {}
            }
            summary.answers.push(answer.line());
        }
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
        let after = intern::stats();
        intern_hits += after.hits - before.hits;
        intern_misses += after.misses - before.misses;
    }
    let wall_ms = ms(wall.elapsed());
    tracer
        .write(spans_out)
        .map_err(|e| format!("{}: {e}", spans_out.display()))?;

    let all = tracer.self_times(|_| true);
    let self_ms = |times: &BTreeMap<&'static str, (u64, u64)>, name: &str| {
        times.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e6)
    };
    let m = &mut summary.metrics;
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    put("core.session_new_ms", {
        let nested = self_ms(&all, "cache_store.open");
        self_ms(&all, "core.session_new") + nested
    });
    put("core.residual_ms", self_ms(&all, "core.verify"));
    put("lang.parse_ms", self_ms(&all, "lang.parse"));
    put("lang.lower_ms", self_ms(&all, "lang.lower"));
    put("gcl.translate_ms", self_ms(&all, "gcl.translate"));
    put("gcl.wlp_ms", self_ms(&all, "gcl.wlp"));
    put("gcl.split_ms", self_ms(&all, "gcl.split"));
    put("gcl.sequents", counters.sequents as f64);
    put("logic.intern_ms", self_ms(&all, "logic.intern"));
    put(
        "logic.intern_hit_ratio",
        ratio(intern_hits as f64, (intern_hits + intern_misses) as f64),
    );
    put("logic.intern_entries", counters.intern_entries as f64);
    put("cache.select_ms", self_ms(&all, "cache.select"));
    put("cache.fingerprint_ms", self_ms(&all, "cache.fingerprint"));
    put(
        "cache.lookup_ms",
        self_ms(&all, "cache.lookup") + self_ms(&all, "cache.record"),
    );
    put(
        "cache.hit_ratio",
        ratio(counters.hits as f64, counters.lookups as f64),
    );
    put("cache_store.open_ms", self_ms(&all, "cache_store.open"));
    put(
        "cache_store.preload_ms",
        self_ms(&all, "cache_store.preload"),
    );
    put("cache_store.append_ms", self_ms(&all, "cache_store.append"));
    put("cache_store.appended", counters.appended as f64);
    for (index, stage) in STAGES.iter().enumerate() {
        let span = format!("stage.{stage}");
        let count = counters.stages[index];
        put(&format!("{stage}.ms"), self_ms(&all, &span));
        put(&format!("{stage}.calls"), count.calls as f64);
        put(&format!("{stage}.proved"), count.proved as f64);
        put(
            &format!("{stage}.yield"),
            ratio(count.proved as f64, count.calls as f64),
        );
    }
    let g = counters.ground;
    put("ground.decisions", g.decisions as f64);
    put("ground.bool_propagations", g.bool_propagations as f64);
    put("ground.theory_propagations", g.theory_propagations as f64);
    put("ground.conflicts", g.conflicts as f64);
    put("ground.learned_clauses", g.learned_clauses as f64);
    put("cascade.unknown", counters.unknown as f64);
    put("cascade.timeouts", counters.timeouts as f64);

    // Where the traced wall went: the layers' self times sum to the root
    // spans; what lies outside them is the run's own bookkeeping.
    let traced_ms: f64 = all.values().map(|&(ns, _)| ns as f64 / 1e6).sum();
    put("trace.wall_ms", wall_ms);
    put("trace.residual_ms", wall_ms - traced_ms);
    put(
        "trace.solver_share",
        ratio(
            self_ms(&all, "stage.ground") + self_ms(&all, "stage.inst"),
            wall_ms,
        ),
    );
    // Time spent on sequents that ended Unknown, as a share of the wall (a
    // time would read exactly 0 on the workloads that prove everything).
    put(
        "cascade.unknown_share",
        ratio(counters.unknown_ns as f64 / 1e6, wall_ms),
    );
    let unchanged = tracer.self_times(|request| kinds[request] == Kind::Unchanged);
    let front_end: f64 = [
        "lang.parse",
        "lang.lower",
        "gcl.translate",
        "gcl.wlp",
        "gcl.split",
        "logic.intern",
        "cache.select",
        "cache.fingerprint",
        "cache.lookup",
    ]
    .iter()
    .map(|name| self_ms(&unchanged, name))
    .sum();
    let unchanged_ms: f64 = unchanged.values().map(|&(ns, _)| ns as f64 / 1e6).sum();
    put(
        "trace.unchanged_front_end_share",
        ratio(front_end, unchanged_ms),
    );
    Ok(Ok(summary))
}

/// One mutant's traced cost, for the clock-cut rule in [`crate::gen`].
#[derive(Debug, Clone)]
pub struct MutantCost {
    pub id: MutantId,
    pub longest_stage_ms: f64,
    pub total_ms: f64,
    pub verdict_ok: bool,
}

impl MutantCost {
    /// The clock-cut rule: a stage call used more than half the timeout.
    pub fn clock_cut(&self) -> bool {
        self.longest_stage_ms > ProverConfig::default().per_prover_timeout_ms as f64 / 2.0
    }
}

/// Traces every mutant, one after the other, on one primed session.
pub fn survey_mutants(work: &Path) -> Result<Vec<MutantCost>, String> {
    cold_process_state();
    let dir = fresh_dir(&work.join("survey-store"))?;
    let options = VerifyOptions::default().with_jobs(1).with_cache_dir(&dir);
    let mut tracer = Tracer::new();
    let mut counters = Counters::default();
    let mut session = TracedSession::new(&mut tracer, &options)?;
    for input in crate::gen::priming() {
        session.verify(&mut tracer, &mut counters, &input.source)?;
    }
    let mut costs = Vec::new();
    for id in all_mutants() {
        let input = id.input();
        let first = tracer.spans.len();
        let started = Instant::now();
        let answer = session.verify(&mut tracer, &mut counters, &input.source)?;
        let longest = tracer.spans[first..]
            .iter()
            .filter(|span| span.name.starts_with("stage."))
            .map(|span| span.end_ns - span.start_ns)
            .max()
            .unwrap_or(0);
        costs.push(MutantCost {
            id,
            longest_stage_ms: longest as f64 / 1e6,
            total_ms: ms(started.elapsed()),
            verdict_ok: answer.verified == input.expected(),
        });
    }
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(costs)
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Writes a summary as `key\tvalue` lines for the parent process.
pub fn write_summary(summary: &RunSummary, path: &Path) -> std::io::Result<()> {
    let mut out = String::new();
    for (name, value) in &summary.metrics {
        let _ = writeln!(out, "metric\t{name}\t{value}");
    }
    for line in &summary.answers {
        let _ = writeln!(out, "answer\t{line}");
    }
    let _ = writeln!(out, "failed\t{}", summary.failed);
    let _ = writeln!(out, "attempted\t{}", summary.attempted);
    std::fs::write(path, out)
}

/// Reads what [`write_summary`] wrote.
pub fn read_summary(path: &Path) -> Result<RunSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut summary = RunSummary::default();
    for line in text.lines() {
        let mut fields = line.splitn(3, '\t');
        let bad = || format!("{}: bad line `{line}`", path.display());
        match (fields.next(), fields.next(), fields.next()) {
            (Some("metric"), Some(name), Some(value)) => {
                let value = value.parse().map_err(|_| bad())?;
                summary.metrics.insert(name.to_string(), value);
            }
            (Some("answer"), Some(answer), None) => summary.answers.push(answer.to_string()),
            (Some("failed"), Some(n), None) => summary.failed = n.parse().map_err(|_| bad())?,
            (Some("attempted"), Some(n), None) => {
                summary.attempted = n.parse().map_err(|_| bad())?
            }
            _ => return Err(bad()),
        }
    }
    Ok(summary)
}
