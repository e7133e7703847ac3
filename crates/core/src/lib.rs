//! # `ipl-core` — the verification driver
//!
//! This crate ties the pipeline of the paper together:
//!
//! 1. parse an annotated module (`ipl-lang`),
//! 2. lower each method to extended guarded commands,
//! 3. translate to simple guarded commands (Figures 6 and 8 via `ipl-gcl`),
//! 4. generate the verification condition by weakest liberal preconditions
//!    (Figure 5) and split it into labelled sequents (Figure 7),
//! 5. dispatch every sequent to the integrated prover cascade
//!    (`ipl-provers`), honouring `from`-clause assumption selection,
//! 6. collect the per-method and per-module statistics reported in
//!    Tables 1 and 2 of the paper.
//!
//! The public entry point is [`session::Session`]: build one from a
//! [`VerifyOptions`], then call [`Session::verify`](session::Session::verify)
//! with a [`session::Request`].  The session owns the long-lived state — the
//! prover cascade, the per-method front-end memo and the persistent store
//! handle (scanned once, not per call) — which is what `ipl serve` keeps
//! warm across requests.
//! [`VerifyOptions::without_proof_constructs`] reproduces the "Without Proof
//! Language Constructs" configuration of Table 2 by stripping every proof
//! statement before verification.
//!
//! ## The memo and the parallel scheduler
//!
//! First the session's front-end memo answers every method it remembers
//! whose proofs the proof cache still holds: a structural comparison of the
//! method's key plus one cache lookup per sequent, exactly the answers the
//! cascade's own cache lookup would give (see the `memo` module).  The
//! other methods are lowered, in order.
//!
//! Sequent proving is embarrassingly parallel: every sequent is an
//! independent query against a `Send + Sync` cascade over `Arc`-shared terms.
//! [`Session::verify`] therefore runs a small hand-rolled worker pool
//! ([`VerifyOptions::jobs`] threads, default = available parallelism) in two
//! waves over the methods the memo did not answer: first the per-method
//! pipeline front-end (translate → wlp → split, which hash-conses the sequent
//! terms, then each query and its fingerprint), then one flat work list of
//! every query left in the module.  Workers pull indices from a shared
//! atomic cursor and write results into per-slot cells, so reports are
//! assembled **in input order and deterministically** regardless of thread
//! count — `jobs = 1` and `jobs = N` produce identical reports (timings
//! aside; see [`ModuleReport::normalized`]).
//!
//! [`json`] is the workspace's one JSON reader and writer, shared by the
//! `ipl serve` frames and the benchmark documents.

pub mod error;
pub mod json;
mod memo;
pub mod report;
pub mod session;

pub use error::{Span, VerifyError};
use ipl_gcl::cmd::ConstructCounts;
use ipl_gcl::split::{split_all, Sequent};
use ipl_gcl::translate::{translate_ext, TranslateCtx};
use ipl_gcl::wlp::vc_of;
use ipl_lang::lower::{lower_method, module_env, LoweredMethod};
use ipl_lang::Module;
use ipl_logic::Labeled;
use ipl_provers::cache::Fingerprint;
pub use ipl_provers::cache_store::CompactStats;
use ipl_provers::drain::Drain;
use ipl_provers::fault::FaultPlan;
use ipl_provers::preprocess::NormalForms;
use ipl_provers::{containment, Cascade, Outcome, ProverAnswer, ProverConfig, Query, RequestScope};
use memo::{Keys, Memo, Obligation, Obligations};
pub use report::{MethodReport, ModuleReport, SequentReport};
pub use session::{Request, Response, Session, SessionStats};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Options controlling a verification run.
///
/// `#[non_exhaustive]`: construct via [`VerifyOptions::default`] (or the
/// named presets) and refine with the builder methods — new knobs can then be
/// added without breaking callers.  The fields stay public for reading and
/// in-place mutation.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct VerifyOptions {
    /// Prover budgets.
    pub config: ProverConfig,
    /// When `false`, every integrated proof language construct is stripped
    /// before verification (the Table 2 baseline configuration).
    pub use_proof_constructs: bool,
    /// Worker threads proving sequents concurrently; `0` (the default) uses
    /// the machine's available parallelism, `1` forces the sequential path.
    pub jobs: usize,
    /// Directory of the persistent proof store (see
    /// [`ipl_provers::cache_store`]).  When set (and the in-memory cache is
    /// enabled), previously persisted proofs are preloaded before dispatch
    /// and every freshly proved sequent is appended after — so re-verifying
    /// an unchanged module in a *new process* costs one fingerprint lookup
    /// per sequent.  `None` (the default) keeps the cache process-local.
    pub cache_dir: Option<PathBuf>,
    /// Module-level wall-clock budget.  When set, the deadline flows down
    /// through every prover's cooperative [`ipl_provers::Cancel`] token;
    /// sequents dispatched after it passes are reported as
    /// `Skipped(DeadlineExceeded)` and the run returns a *partial* report
    /// instead of hanging or aborting.  `None` (the default) leaves only the
    /// per-prover timeouts in force.
    pub module_deadline: Option<Duration>,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            config: ProverConfig::default(),
            use_proof_constructs: true,
            jobs: 0,
            cache_dir: None,
            module_deadline: None,
        }
    }
}

impl VerifyOptions {
    /// The Table 2 baseline: all proof language constructs removed.
    pub fn without_proof_constructs() -> Self {
        VerifyOptions {
            use_proof_constructs: false,
            ..Self::default()
        }
    }

    /// The worker count actually used: `jobs`, or the machine's available
    /// parallelism when `jobs` is `0`.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.jobs
        }
    }

    /// Sets the prover budgets.
    #[must_use]
    pub fn with_config(mut self, config: ProverConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the worker count (`0` = available parallelism).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Enables the persistent proof store in `dir`.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Controls whether integrated proof constructs are kept (`false` is the
    /// Table 2 baseline).
    #[must_use]
    pub fn with_proof_constructs(mut self, use_proof_constructs: bool) -> Self {
        self.use_proof_constructs = use_proof_constructs;
        self
    }
}

/// What [`Session::verify`] runs: the memo answers the methods it
/// knows, then two prover waves run the rest (lower and prepare every other
/// method; dispatch its non-trivial sequents under the session's `drain`
/// and the request's `faults`), and the report is assembled
/// deterministically.  The store is the caller's business (the session
/// preloads before and appends after); this function only *collects* the
/// provable `(fingerprint, prover)` pairs and returns them alongside the
/// report.
pub(crate) fn drive(
    module: &Module,
    options: &VerifyOptions,
    cascade: &Cascade,
    memo: &Memo,
    drain: &Drain,
    faults: Option<&FaultPlan>,
) -> Result<(ModuleReport, Vec<(Fingerprint, String)>), VerifyError> {
    let jobs = options.effective_jobs();
    let mut report = ModuleReport::new(&module.name, module);
    report.jobs = jobs;

    // The module deadline starts counting now: front-end and dispatch share
    // one wall-clock budget.
    let scope = RequestScope {
        deadline: options
            .module_deadline
            .map(|budget| Instant::now() + budget),
        drain: Some(drain),
        faults,
    };

    // The memo answers each method it knows whose every proof the proof
    // cache still holds.  With the cache off there are no fingerprints, and
    // the memo is bypassed.
    let keys = cascade
        .config()
        .use_cache
        .then(|| Keys::new(module, options.use_proof_constructs));
    let remembered: Vec<Option<Prepared<'_>>> = (0..module.methods.len())
        .map(|index| {
            let start = Instant::now();
            let obligations = memo.get(keys.as_ref()?, index)?;
            let replayed = replay(&obligations, cascade)?;
            Some(Prepared {
                name: &module.methods[index].name,
                obligations,
                queries: Vec::new(),
                replayed,
                remembered: true,
                front_end: start.elapsed(),
                crashed: None,
            })
        })
        .collect();

    // Lower every other method, in order, so the first lowering error fails
    // the request before anything is proved, as it would without the memo.
    let mut env = None;
    let mut lowered = Vec::new();
    for (method, slot) in module.methods.iter().zip(&remembered) {
        if slot.is_none() {
            let env = env.get_or_insert_with(|| module_env(module));
            lowered.push(lower_method(module, method, env)?);
        }
    }

    // Wave 1: the pipeline front-end, one work item per method.  A panicking
    // front-end quarantines that one method (the recovery closure marks it
    // crashed) and the other methods proceed.
    let mut fresh = parallel_map(
        jobs,
        &lowered,
        |method| prepare(method, options, cascade),
        |method, message| Prepared::crashed(&method.name, message),
    )
    .into_iter();
    let mut prepared: Vec<Prepared<'_>> = remembered
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| fresh.next().expect("one per lowered method")))
        .collect();

    // Wave 2: one flat work list of every query left, across the module, so
    // a single proof-heavy method cannot serialise the pool.  The worker that
    // proves a query takes it and drops it once answered, and with it its
    // refutation problem and, after the method's last query, the method's
    // normal-form memo.
    let work: Vec<(usize, usize, Mutex<Option<Query>>)> = prepared
        .iter_mut()
        .enumerate()
        .flat_map(|(method_index, p)| {
            std::mem::take(&mut p.queries)
                .into_iter()
                .map(move |(sequent_index, query)| {
                    (method_index, sequent_index, Mutex::new(Some(query)))
                })
        })
        .collect();
    let answers = parallel_map(
        jobs,
        &work,
        |(method_index, sequent_index, query)| {
            let query = query.lock().expect("work slot poisoned").take();
            let query = query.expect("each query is proved once");
            let fingerprint =
                prepared[*method_index].obligations.sequents[*sequent_index].fingerprint;
            cascade.prove_under(&query, fingerprint, &scope)
        },
        // A panic that escapes even the cascade's own stage containment (a
        // bug outside the provers) still only quarantines its one sequent;
        // the worker thread survives and keeps claiming work, so `--jobs N`
        // never degrades to N-1.
        |_, message| crashed_answer("driver", message),
    );
    let mut per_method: Vec<Vec<(usize, ProverAnswer)>> = prepared
        .iter_mut()
        .map(|p| std::mem::take(&mut p.replayed))
        .collect();
    for ((method_index, sequent_index, _), answer) in work.iter().zip(answers) {
        per_method[*method_index].push((*sequent_index, answer));
    }

    // Deterministic assembly in input order.  The proved fingerprints, cache
    // hits included, go to the caller to persist (`StoreHandle::append_new`
    // skips everything already on disk).
    let mut proved: Vec<(Fingerprint, String)> = Vec::new();
    for (index, (p, mut answers)) in prepared.iter().zip(per_method).enumerate() {
        answers.sort_by_key(|(sequent_index, _)| *sequent_index);
        proved.extend(
            answers
                .iter()
                .filter(|(_, answer)| answer.outcome == Outcome::Proved)
                .filter_map(|(_, answer)| Some((answer.fingerprint?, answer.prover.clone()?))),
        );
        let method = assemble(p, answers);
        if let Some(keys) = &keys {
            if !p.remembered && method.fully_proved() {
                memo.insert(keys, index, Arc::clone(&p.obligations));
            }
        }
        report.methods.push(method);
    }
    Ok((report, proved))
}

/// The proof cache's answer for every non-trivial sequent of `obligations`,
/// by sequent index, or `None` when one of them is missing.
fn replay(obligations: &Obligations, cascade: &Cascade) -> Option<Vec<(usize, ProverAnswer)>> {
    obligations
        .sequents
        .iter()
        .enumerate()
        .filter(|(_, sequent)| !sequent.trivial)
        .map(|(index, sequent)| Some((index, cascade.replay(sequent.fingerprint?)?)))
        .collect()
}

/// The answer recorded for a sequent whose dispatch (not any prover stage)
/// panicked: quarantined, never a verdict.
fn crashed_answer(stage: &str, message: String) -> ProverAnswer {
    ProverAnswer {
        outcome: Outcome::Crashed {
            stage: stage.to_string(),
            message,
        },
        prover: None,
        duration: Duration::ZERO,
        stage_durations: Vec::new(),
        cached: false,
        fingerprint: None,
    }
}

/// One method ready for the prover wave: its obligations, the query of each
/// sequent still to dispatch, and the answers the memo already gave.
struct Prepared<'a> {
    name: &'a str,
    obligations: Arc<Obligations>,
    /// The query of each non-trivial sequent, by sequent index (empty when
    /// the memo answered).
    queries: Vec<(usize, Query)>,
    /// The proof cache's answers, by sequent index, when the memo answered.
    replayed: Vec<(usize, ProverAnswer)>,
    /// The memo answered, so there is nothing new to remember.
    remembered: bool,
    /// Front-end wall-clock (the memo lookup, when it answered).
    front_end: Duration,
    /// Panic message when the front-end itself crashed; the method is then
    /// reported as one quarantined sequent instead of poisoning the run.
    crashed: Option<String>,
}

impl<'a> Prepared<'a> {
    fn crashed(name: &'a str, message: String) -> Prepared<'a> {
        Prepared {
            name,
            obligations: Arc::new(Obligations {
                counts: ConstructCounts::default(),
                sequents: Vec::new(),
            }),
            queries: Vec::new(),
            replayed: Vec::new(),
            remembered: false,
            front_end: Duration::ZERO,
            crashed: Some(message),
        }
    }
}

/// Runs translate → wlp → split for one method, then builds the query of
/// each non-trivial sequent and its fingerprint, the one the cascade and the
/// memo use.  Split interns every sequent formula as it builds it, so
/// structurally equal subterms — within the method, across methods and
/// across modules — share one allocation (pointer-equality fast paths,
/// memoised substitution, deduplicated memory).  The method's queries share
/// one normal-form memo, so an assumption many sequents carry is normalised
/// once; it goes with the method's last query.
fn prepare<'a>(
    method: &'a LoweredMethod,
    options: &VerifyOptions,
    cascade: &Cascade,
) -> Prepared<'a> {
    let start = Instant::now();
    let command = if options.use_proof_constructs {
        method.command.clone()
    } else {
        method.command.strip_proofs()
    };
    let counts = if options.use_proof_constructs {
        method.counts
    } else {
        command.count_constructs()
    };
    let mut ctx = TranslateCtx::new();
    let simple = translate_ext(&command, &mut ctx);
    let normal_forms = Arc::new(NormalForms::new(method.env.clone()));
    let mut sequents = Vec::new();
    let mut queries = Vec::new();
    for sequent in split_all(&vc_of(&simple)) {
        let trivial = sequent.is_trivially_valid();
        let mut fingerprint = None;
        if !trivial {
            let query = sequent_query(&sequent, &normal_forms);
            fingerprint = cascade.fingerprint(&query);
            queries.push((sequents.len(), query));
        }
        sequents.push(Obligation {
            name: sequent.name,
            goal_label: sequent.goal_label,
            trivial,
            fingerprint,
        });
    }
    Prepared {
        name: &method.name,
        obligations: Arc::new(Obligations { counts, sequents }),
        queries,
        replayed: Vec::new(),
        remembered: false,
        front_end: start.elapsed(),
        crashed: None,
    }
}

/// Folds the per-sequent answers (sorted by sequent index) into the method
/// report, in sequent order.
fn assemble(prepared: &Prepared<'_>, answers: Vec<(usize, ProverAnswer)>) -> MethodReport {
    let mut answers = answers.into_iter();
    let mut report = MethodReport::new(prepared.name);
    report.counts = prepared.obligations.counts;
    if let Some(message) = &prepared.crashed {
        // The front-end never produced sequents; report the method as one
        // quarantined obligation so it can never count as verified.
        report.total_sequents = 1;
        report.crashed_sequents = 1;
        report.sequents.push(SequentReport {
            name: format!("{}::front-end", prepared.name),
            goal_label: "FrontEnd".to_string(),
            proved: false,
            outcome: Outcome::Crashed {
                stage: "front-end".to_string(),
                message: message.clone(),
            },
            prover: None,
            duration: Duration::ZERO,
        });
        return report;
    }
    let mut duration = prepared.front_end;
    for (sequent_index, sequent) in prepared.obligations.sequents.iter().enumerate() {
        report.total_sequents += 1;
        if sequent.trivial {
            report.trivial_sequents += 1;
            report.proved_sequents += 1;
            *report
                .prover_counts
                .entry("trivial".to_string())
                .or_insert(0) += 1;
            continue;
        }
        let answer = match answers.next() {
            Some((index, answer)) if index == sequent_index => answer,
            _ => unreachable!("every non-trivial sequent has exactly one answer"),
        };
        match &answer.outcome {
            Outcome::Proved => {
                report.proved_sequents += 1;
                if let Some(prover) = &answer.prover {
                    *report.prover_counts.entry(prover.clone()).or_insert(0) += 1;
                }
            }
            Outcome::Crashed { .. } => report.crashed_sequents += 1,
            Outcome::Skipped(_) => report.skipped_sequents += 1,
            Outcome::Unknown => {}
        }
        if answer.cached {
            report.cache_hits += 1;
        }
        for (stage, stage_duration) in &answer.stage_durations {
            *report
                .stage_durations
                .entry(stage.clone())
                .or_insert(Duration::ZERO) += *stage_duration;
        }
        duration += answer.duration;
        report.sequents.push(SequentReport {
            name: sequent.name.clone(),
            goal_label: sequent.goal_label.clone(),
            proved: answer.outcome.is_proved(),
            outcome: answer.outcome,
            prover: answer.prover,
            duration: answer.duration,
        });
    }
    // With sequents proved concurrently, per-method wall-clock is not well
    // defined; the report carries front-end time plus summed prover time,
    // which is comparable across worker counts.
    report.duration = duration;
    report
}

/// Builds the prover query for one sequent of a method, applying the
/// `from`-clause assumption selection.
fn sequent_query(sequent: &Sequent, normal_forms: &Arc<NormalForms>) -> Query {
    let assumptions: Vec<Labeled> = sequent
        .selected_assumptions()
        .into_iter()
        .cloned()
        .collect();
    Query::in_method(assumptions, sequent.goal.clone(), normal_forms)
}

/// Maps `f` over `items` on a scoped worker pool of at most `jobs` threads.
///
/// Workers claim indices from a shared atomic cursor and write each result
/// into its own slot, so the output order equals the input order no matter
/// how the items were scheduled.  `jobs <= 1` (or a single item) runs inline
/// without spawning.
///
/// Every `f` call runs inside a panic-containment boundary
/// ([`ipl_provers::containment`]): a panicking item resolves to
/// `recover(item, message)` instead of unwinding, so the worker thread
/// survives and keeps claiming work — a crash degrades one slot's result,
/// never the pool's parallelism.  (`recover` itself must not panic.)
fn parallel_map<'a, T: Sync, R: Send>(
    jobs: usize,
    items: &'a [T],
    f: impl Fn(&'a T) -> R + Sync,
    recover: impl Fn(&'a T, String) -> R + Sync,
) -> Vec<R> {
    let run = |item: &'a T| match containment::contain(|| f(item)) {
        Ok(result) => result,
        Err(message) => recover(item, message),
    };
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(run).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(items.len()) {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else {
                    break;
                };
                let result = run(item);
                *slots[index].lock().expect("worker slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker slot poisoned")
                .expect("every slot filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verify(source: &str, options: &VerifyOptions) -> Result<ModuleReport, VerifyError> {
        Session::new(options.clone())
            .verify(&Request::new(source))
            .map(|response| response.report)
    }

    const COUNTER: &str = r#"
        module Counter {
          var value: int;
          specvar positive: bool;
          vardef positive = "0 < value";
          invariant NonNeg: "0 <= value";

          method increment() returns (result: int)
            modifies value, positive
            ensures "value = old(value) + 1 & result = value"
          {
            value := value + 1;
            result := value;
          }

          method add(amount: int)
            requires "0 <= amount"
            modifies value, positive
            ensures "value = old(value) + amount"
          {
            var i: int := 0;
            while (i < amount)
              invariant "0 <= i & i <= amount & value = old(value) + i"
            {
              call increment();
              i := i + 1;
            }
          }
        }
    "#;

    #[test]
    fn verifies_a_simple_module() {
        let report = verify(COUNTER, &VerifyOptions::default()).unwrap();
        assert_eq!(report.module_name, "Counter");
        assert_eq!(report.methods.len(), 2);
        for method in &report.methods {
            assert!(
                method.fully_proved(),
                "{} left {} of {} sequents unproved",
                method.name,
                method.total_sequents - method.proved_sequents,
                method.total_sequents
            );
        }
        assert!(report.fully_proved());
        assert!(report.total_sequents() >= report.methods.len());
        assert!(report.jobs >= 1);
    }

    #[test]
    fn failing_postcondition_is_reported() {
        let source = r#"
            module Broken {
              var value: int;
              method bad()
                modifies value
                ensures "value = 1"
              {
                value := 2;
              }
            }
        "#;
        let report = verify(source, &VerifyOptions::default()).unwrap();
        assert!(!report.fully_proved());
        let method = &report.methods[0];
        assert!(method.proved_sequents < method.total_sequents);
    }

    #[test]
    fn parse_errors_are_propagated() {
        assert!(verify("module {", &VerifyOptions::default()).is_err());
    }

    #[test]
    fn proof_constructs_can_be_stripped() {
        let source = r#"
            module Notes {
              var x: int;
              method m()
                modifies x
                ensures "x = 1"
              {
                x := 1;
                note Obvious: "x = 1";
              }
            }
        "#;
        let with = verify(source, &VerifyOptions::default()).unwrap();
        let without = verify(source, &VerifyOptions::without_proof_constructs()).unwrap();
        assert!(with.methods[0].counts.note == 1);
        assert!(without.methods[0].counts.note == 0);
        assert!(with.methods[0].total_sequents > without.methods[0].total_sequents);
        assert!(without.fully_proved());
    }

    #[test]
    fn job_counts_do_not_change_results() {
        // Cache off so the 4-thread run drives the provers concurrently
        // rather than replaying the sequential run's cached answers.
        let uncached = ProverConfig {
            use_cache: false,
            ..ProverConfig::default()
        };
        let sequential = verify(
            COUNTER,
            &VerifyOptions {
                config: uncached,
                jobs: 1,
                ..VerifyOptions::default()
            },
        )
        .unwrap();
        let parallel = verify(
            COUNTER,
            &VerifyOptions {
                config: uncached,
                jobs: 4,
                ..VerifyOptions::default()
            },
        )
        .unwrap();
        assert_eq!(sequential.normalized(), parallel.normalized());
    }

    #[test]
    fn parallel_map_preserves_order() {
        let no_crash =
            |_: &usize, message: String| -> usize { unreachable!("unexpected crash: {message}") };
        let items: Vec<usize> = (0..100).collect();
        let doubled = parallel_map(7, &items, |&x| x * 2, no_crash);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        let inline = parallel_map(1, &items, |&x| x * 2, no_crash);
        assert_eq!(doubled, inline);
    }

    #[test]
    fn parallel_map_contains_worker_panics_and_keeps_the_pool_alive() {
        let items: Vec<usize> = (0..64).collect();
        let results = parallel_map(
            4,
            &items,
            |&x| {
                if x % 7 == 0 {
                    panic!("poison item {x}");
                }
                x * 2
            },
            |&x, message| {
                assert_eq!(message, format!("poison item {x}"));
                usize::MAX
            },
        );
        // Every slot is filled: the crashing items resolved to the recovery
        // value and every other item was still processed.
        for (x, result) in items.iter().zip(&results) {
            if x % 7 == 0 {
                assert_eq!(*result, usize::MAX);
            } else {
                assert_eq!(*result, x * 2);
            }
        }
    }

    #[test]
    fn expired_module_deadline_returns_a_partial_report() {
        let options = VerifyOptions {
            module_deadline: Some(Duration::ZERO),
            config: ProverConfig {
                use_cache: false,
                ..ProverConfig::default()
            },
            ..VerifyOptions::default()
        };
        let report = verify(COUNTER, &options).unwrap();
        assert!(!report.fully_proved());
        assert_eq!(
            report.skipped_sequents(),
            report.total_sequents()
                - report
                    .methods
                    .iter()
                    .map(|m| m.trivial_sequents)
                    .sum::<usize>(),
            "every dispatched sequent must be deadline-skipped"
        );
        assert_eq!(report.crashed_sequents(), 0);
        for method in &report.methods {
            for sequent in &method.sequents {
                assert!(matches!(
                    sequent.outcome,
                    Outcome::Skipped(ipl_provers::SkipReason::DeadlineExceeded)
                ));
            }
        }
    }

    #[test]
    fn generous_module_deadline_changes_nothing() {
        let config = ProverConfig {
            use_cache: false,
            ..ProverConfig::default()
        };
        let plain = verify(
            COUNTER,
            &VerifyOptions {
                config,
                ..VerifyOptions::default()
            },
        )
        .unwrap();
        let budgeted = verify(
            COUNTER,
            &VerifyOptions {
                config,
                module_deadline: Some(Duration::from_secs(3600)),
                ..VerifyOptions::default()
            },
        )
        .unwrap();
        assert_eq!(plain.normalized(), budgeted.normalized());
    }
}
