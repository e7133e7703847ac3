//! The prover cascade: the integrated-reasoning dispatcher.
//!
//! Each sequent is handed to a sequence of reasoning systems in increasing
//! order of cost, each with its own budget and wall-clock timeout, exactly as
//! Jahob runs SPASS/E/CVC3/Z3/MONA/BAPA in turn.  The first prover that
//! succeeds wins; if all fail the sequent is reported unproved (in the paper
//! this is the signal for the developer to add proof-language guidance).

use crate::cache::{Fingerprint, ProofCache};
use crate::containment;
use crate::drain::Drain;
use crate::fault::FaultPlan;
use crate::ground::{refute, GroundResult};
use crate::inst::refute_with_instantiation;
use crate::syntactic::Syntactic;
use crate::{Cancel, Outcome, Prover, ProverConfig, Query, SkipReason};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The answer produced by the cascade for one query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProverAnswer {
    /// Overall outcome.
    pub outcome: Outcome,
    /// Name of the prover that discharged the query (when proved).  A proof
    /// replayed from the cache reports the prover that originally found it.
    pub prover: Option<String>,
    /// Total time spent across the cascade.
    pub duration: Duration,
    /// Wall-clock spent in each attempted cascade stage, in dispatch order
    /// (the stage that proved the query is last).
    pub stage_durations: Vec<(String, Duration)>,
    /// `true` when the answer was replayed from the proof cache without
    /// running any prover.
    pub cached: bool,
    /// Content fingerprint of the query (present when the cache was
    /// consulted, i.e. [`ProverConfig::use_cache`]).  The verification driver
    /// uses it to persist freshly proved sequents to the on-disk store.
    pub fingerprint: Option<Fingerprint>,
}

impl ProverAnswer {
    fn settled(outcome: Outcome, fingerprint: Option<Fingerprint>, start: Instant) -> ProverAnswer {
        ProverAnswer {
            outcome,
            prover: None,
            duration: start.elapsed(),
            stage_durations: Vec::new(),
            cached: false,
            fingerprint,
        }
    }
}

/// The ground SMT-lite prover (no quantifier instantiation).
#[derive(Debug, Default, Clone, Copy)]
pub struct GroundSmt;

impl Prover for GroundSmt {
    fn name(&self) -> &'static str {
        "smt-ground"
    }

    fn prove(&self, query: &Query, config: &ProverConfig, cancel: &Cancel) -> Outcome {
        match refute(&query.problem().ground, &query.env, config, cancel) {
            GroundResult::Unsat => Outcome::Proved,
            GroundResult::Unknown => Outcome::Unknown,
        }
    }
}

/// The instantiating SMT-lite / first-order prover: trigger-driven
/// E-matching over the ground term index, with sort-pool enumeration as the
/// fallback for trigger-less quantifiers (see [`crate::inst`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct InstSmt;

impl Prover for InstSmt {
    fn name(&self) -> &'static str {
        "smt-inst"
    }

    fn prove(&self, query: &Query, config: &ProverConfig, cancel: &Cancel) -> Outcome {
        match refute_with_instantiation(
            query.problem(),
            &query.env,
            config,
            query.assumptions.len(),
            cancel,
        ) {
            GroundResult::Unsat => Outcome::Proved,
            GroundResult::Unknown => Outcome::Unknown,
        }
    }
}

/// Adapter for the BAPA cardinality decision procedure.
#[derive(Debug, Default, Clone, Copy)]
pub struct BapaProver;

impl Prover for BapaProver {
    fn name(&self) -> &'static str {
        "bapa"
    }

    fn prove(&self, query: &Query, _config: &ProverConfig, cancel: &Cancel) -> Outcome {
        // BAPA is only worth invoking when the goal involves cardinalities or
        // set algebra; other goals are left to the general provers.
        if !mentions_cardinality(&query.goal) {
            return Outcome::Unknown;
        }
        match ipl_bapa::prove_valid(&query.assumption_forms(), &query.goal, cancel.deadline()) {
            ipl_bapa::BapaOutcome::Valid => Outcome::Proved,
            ipl_bapa::BapaOutcome::Unknown => Outcome::Unknown,
        }
    }
}

fn mentions_cardinality(form: &ipl_logic::Form) -> bool {
    let mut found = false;
    fn rec(form: &ipl_logic::Form, found: &mut bool) {
        if *found {
            return;
        }
        if matches!(form, ipl_logic::Form::Card(_)) {
            *found = true;
            return;
        }
        form.for_each_child(|c| rec(c, found));
    }
    rec(form, &mut found);
    found
}

/// Adapter for the reachability (shape) prover.
#[derive(Debug, Default, Clone, Copy)]
pub struct ShapeProver;

impl Prover for ShapeProver {
    fn name(&self) -> &'static str {
        "shape"
    }

    fn prove(&self, query: &Query, _config: &ProverConfig, cancel: &Cancel) -> Outcome {
        if cancel.is_cancelled()
            || (!mentions_reach(&query.goal)
                && !query.assumptions.iter().any(|a| mentions_reach(&a.form)))
        {
            return Outcome::Unknown;
        }
        match ipl_shape::prove_valid(&query.assumption_forms(), &query.goal, cancel.deadline()) {
            ipl_shape::ShapeOutcome::Valid => Outcome::Proved,
            ipl_shape::ShapeOutcome::Unknown => Outcome::Unknown,
        }
    }
}

fn mentions_reach(form: &ipl_logic::Form) -> bool {
    let mut found = false;
    fn rec(form: &ipl_logic::Form, found: &mut bool) {
        if *found {
            return;
        }
        if matches!(form, ipl_logic::Form::App(name, _) if name == "reach") {
            *found = true;
            return;
        }
        form.for_each_child(|c| rec(c, found));
    }
    rec(form, &mut found);
    found
}

/// What one request adds to the cascade's own budgets: the module deadline,
/// the drain of the session serving it, and its fault plan.  The default is
/// an unbounded, fault-free request.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestScope<'a> {
    /// Wall-clock deadline of the whole module.
    pub deadline: Option<Instant>,
    /// The serving session's drain: once its deadline passes, the request
    /// winds down as if its own deadline had passed.
    pub drain: Option<&'a Drain>,
    /// The request's fault-injection plan (see [`crate::fault`]).
    pub faults: Option<&'a FaultPlan>,
}

impl RequestScope<'_> {
    /// The deadline in force now: the module deadline, clamped to the
    /// drain's once a drain has begun.
    fn deadline(&self) -> Option<Instant> {
        match (self.deadline, self.drain.and_then(Drain::deadline)) {
            (Some(module), Some(drain)) => Some(module.min(drain)),
            (module, drain) => module.or(drain),
        }
    }

    fn expired(&self) -> bool {
        self.deadline().is_some_and(|d| Instant::now() >= d)
    }
}

/// The cascade of provers with per-prover timeouts.
pub struct Cascade {
    provers: Vec<Arc<dyn Prover>>,
    /// The provers' names in dispatch order, which every fingerprint hashes.
    line_up: Vec<&'static str>,
    config: ProverConfig,
}

impl std::fmt::Debug for Cascade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cascade")
            .field("provers", &self.line_up)
            .field("config", &self.config)
            .finish()
    }
}

impl Default for Cascade {
    fn default() -> Self {
        Cascade::standard(ProverConfig::default())
    }
}

impl Cascade {
    /// The standard prover order: syntactic checks, the ground SMT-lite
    /// solver, the BAPA and shape decision procedures, and finally the
    /// instantiating prover.
    pub fn standard(config: ProverConfig) -> Cascade {
        Cascade::with_provers(
            vec![
                Arc::new(Syntactic),
                Arc::new(GroundSmt),
                Arc::new(BapaProver),
                Arc::new(ShapeProver),
                Arc::new(InstSmt),
            ],
            config,
        )
    }

    /// A cascade with a custom prover list (tests use it to substitute fake
    /// provers).
    pub fn with_provers(provers: Vec<Arc<dyn Prover>>, config: ProverConfig) -> Cascade {
        let line_up = provers.iter().map(|p| p.name()).collect();
        Cascade {
            provers,
            line_up,
            config,
        }
    }

    /// The configured budgets.
    pub fn config(&self) -> &ProverConfig {
        &self.config
    }

    /// Names of the provers in dispatch order.
    pub fn prover_names(&self) -> Vec<&'static str> {
        self.line_up.clone()
    }

    /// The content fingerprint of `query` under this cascade's budgets and
    /// line-up, or `None` when the proof cache is off
    /// ([`ProverConfig::use_cache`]).
    pub fn fingerprint(&self, query: &Query) -> Option<Fingerprint> {
        self.config
            .use_cache
            .then(|| ProofCache::fingerprint(query, &self.config, &self.line_up))
    }

    /// The proof cache's answer for a fingerprint: the recorded `Proved`
    /// outcome, attributed to the prover that originally found it, or
    /// `None` when the cache holds no proof.
    pub fn replay(&self, fingerprint: Fingerprint) -> Option<ProverAnswer> {
        let start = Instant::now();
        let prover = ProofCache::global().lookup(fingerprint)?;
        Some(ProverAnswer {
            outcome: Outcome::Proved,
            prover: Some(prover),
            duration: start.elapsed(),
            stage_durations: Vec::new(),
            cached: true,
            fingerprint: Some(fingerprint),
        })
    }

    /// Runs the cascade on a query.
    ///
    /// When the proof cache is enabled ([`ProverConfig::use_cache`]) the
    /// query's content fingerprint is consulted first: a hit
    /// [replays](Self::replay) the proof without running any stage.
    pub fn prove(&self, query: &Query) -> ProverAnswer {
        self.prove_under(query, self.fingerprint(query), &RequestScope::default())
    }

    /// Runs the cascade for one request: under its module deadline and its
    /// session's drain, injecting its plan's faults.  `fingerprint` is the
    /// query's [`fingerprint`](Self::fingerprint), which the caller computes
    /// once; a hit in the proof cache answers without running any stage.
    ///
    /// Every stage's cooperative [`Cancel`] deadline is clamped to the
    /// scope's deadline, so one sequent can never spend past the module
    /// budget; once the deadline has passed the query is not dispatched at
    /// all and the answer is `Skipped(DeadlineExceeded)`.  A stage that
    /// panics is contained ([`crate::containment`]) and quarantines the
    /// query as `Crashed` — later stages are not attempted for a crashed
    /// query, so a fault never launders into a verdict.
    pub fn prove_under(
        &self,
        query: &Query,
        fingerprint: Option<Fingerprint>,
        scope: &RequestScope<'_>,
    ) -> ProverAnswer {
        let start = Instant::now();
        if let Some(answer) = fingerprint.and_then(|fp| self.replay(fp)) {
            return answer;
        }
        if scope.expired() {
            return ProverAnswer::settled(
                Outcome::Skipped(SkipReason::DeadlineExceeded),
                fingerprint,
                start,
            );
        }
        // Fault-injection decisions are keyed on the query's *content* (its
        // fingerprint when the cache computed one, its structural goal hash
        // otherwise), never on dispatch order — the same plan faults the same
        // sequents at `--jobs 1` and `--jobs N`.
        let fault_key = fingerprint.map_or_else(
            || {
                let mut hasher = DefaultHasher::new();
                query.goal.hash(&mut hasher);
                hasher.finish()
            },
            |fp| fp.as_u128() as u64,
        );
        let mut stage_durations = Vec::with_capacity(self.provers.len());
        let (outcome, prover) = self.run_stages(query, scope, fault_key, &mut stage_durations);
        if let (Some(fp), Some(name)) = (fingerprint, prover) {
            ProofCache::global().record(fp, name);
        }
        ProverAnswer {
            outcome,
            prover: prover.map(str::to_string),
            duration: start.elapsed(),
            stage_durations,
            cached: false,
            fingerprint,
        }
    }

    /// One pass over the prover list, returning the outcome and, when
    /// proved, the stage that proved it.  Injected faults fire here: a delay
    /// sleeps before dispatch, a spurious Unknown skips the stage, and an
    /// injected panic is raised *inside* the containment boundary — the same
    /// boundary that catches organic prover panics.
    fn run_stages(
        &self,
        query: &Query,
        scope: &RequestScope<'_>,
        fault_key: u64,
        stage_durations: &mut Vec<(String, Duration)>,
    ) -> (Outcome, Option<&'static str>) {
        let timeout = Duration::from_millis(self.config.per_prover_timeout_ms);
        for prover in &self.provers {
            if scope.expired() {
                return (Outcome::Skipped(SkipReason::DeadlineExceeded), None);
            }
            let name = prover.name();
            let stage_start = Instant::now();
            let mut inject_panic = false;
            if let Some(plan) = scope.faults {
                let faults = plan.stage_faults(name, fault_key);
                if let Some(delay) = faults.delay {
                    std::thread::sleep(delay);
                }
                if faults.spurious_unknown {
                    stage_durations.push((name.to_string(), stage_start.elapsed()));
                    continue;
                }
                inject_panic = faults.panic;
            }
            let result = containment::contain(|| {
                if inject_panic {
                    panic!("injected fault: {name} stage panicked");
                }
                // A drain that began mid-request clamps this stage too, not
                // just the next dispatch.
                run_with_timeout(
                    prover.as_ref(),
                    query,
                    &self.config,
                    timeout,
                    scope.deadline(),
                )
            });
            stage_durations.push((name.to_string(), stage_start.elapsed()));
            match result {
                Ok(Outcome::Proved) => return (Outcome::Proved, Some(name)),
                Ok(_) => {}
                Err(message) => {
                    let stage = name.to_string();
                    return (Outcome::Crashed { stage, message }, None);
                }
            }
        }
        (Outcome::Unknown, None)
    }
}

/// Number of prover invocations currently executing.  With cooperative
/// cancellation every prover runs on its caller's thread, so this is `0`
/// whenever no `Cascade::prove` call is in flight — the regression test for
/// the abandoned-worker leak asserts exactly that after a timed-out cascade.
pub fn live_workers() -> usize {
    LIVE_WORKERS.load(Ordering::Relaxed)
}

static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Runs one prover *on the calling thread* under a cooperative deadline
/// (mirroring the paper's "each prover runs with a timeout — if the prover
/// fails to prove the sequent within the timeout, Jahob terminates it and
/// moves on to the next prover").  The previous implementation spawned a
/// worker thread and abandoned it on timeout; the worker kept consuming CPU
/// until its search ran dry, which leaked threads under parallel load.
/// Provers now poll the [`Cancel`] token inside their loops and return
/// promptly once the deadline passes.
fn run_with_timeout(
    prover: &dyn Prover,
    query: &Query,
    config: &ProverConfig,
    timeout: Duration,
    outer_deadline: Option<Instant>,
) -> Outcome {
    // Drop guard rather than a straight-line decrement: a panicking prover
    // unwinds through here toward the containment boundary, and the counter
    // must not stay pinned (the live-worker regression test would hang).
    struct Live;
    impl Drop for Live {
        fn drop(&mut self) {
            LIVE_WORKERS.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let cancel = Cancel::with_timeout_under(timeout, outer_deadline);
    LIVE_WORKERS.fetch_add(1, Ordering::Relaxed);
    let _live = Live;
    prover.prove(query, config, &cancel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipl_logic::parser::parse_form;
    use ipl_logic::{Labeled, Sort, SortEnv};

    fn env() -> SortEnv {
        let mut e = SortEnv::new();
        for v in ["i", "j", "size", "csize", "x"] {
            e.declare_var(v, Sort::Int);
        }
        for v in ["o", "a", "b", "first"] {
            e.declare_var(v, Sort::Obj);
        }
        e.declare_var("next", Sort::obj_field());
        e.declare_var("content", Sort::int_obj_set());
        e.declare_var("newcontent", Sort::int_obj_set());
        e
    }

    fn query(assumptions: &[&str], goal: &str) -> Query {
        Query::new(
            assumptions
                .iter()
                .enumerate()
                .map(|(i, s)| Labeled::new(format!("A{i}"), parse_form(s).unwrap()))
                .collect(),
            parse_form(goal).unwrap(),
            env(),
        )
    }

    #[test]
    fn cascade_dispatches_to_the_cheapest_sufficient_prover() {
        let cascade = Cascade::default();
        let answer = cascade.prove(&query(&["p"], "p"));
        assert_eq!(answer.outcome, Outcome::Proved);
        assert_eq!(answer.prover.as_deref(), Some("syntactic"));

        let answer = cascade.prove(&query(&["a = b", "b = first"], "a = first"));
        assert_eq!(answer.outcome, Outcome::Proved);
        assert_eq!(answer.prover.as_deref(), Some("smt-ground"));
    }

    #[test]
    fn cascade_uses_instantiation_for_quantified_assumptions() {
        let cascade = Cascade::default();
        let answer = cascade.prove(&query(
            &["forall n:int. 0 <= n --> interesting(n)", "0 <= x"],
            "interesting(x)",
        ));
        assert_eq!(answer.outcome, Outcome::Proved);
        assert_eq!(answer.prover.as_deref(), Some("smt-inst"));
    }

    #[test]
    fn cascade_uses_bapa_for_cardinality_goals() {
        // The ground stage saturates without closing the cardinality goal;
        // the standalone BAPA stage behind it proves it.
        let cascade = Cascade::default();
        let answer = cascade.prove(&query(
            &[
                "~((i, o) in content)",
                "newcontent = content union {(i, o)}",
            ],
            "card(newcontent) = card(content) + 1",
        ));
        assert_eq!(answer.outcome, Outcome::Proved);
        assert_eq!(answer.prover.as_deref(), Some("bapa"));
    }

    #[test]
    fn cascade_uses_shape_prover_for_reachability() {
        let cascade = Cascade::default();
        let answer = cascade.prove(&query(
            &["reach(next, first, a)", "a.next = b"],
            "reach(next, first, b)",
        ));
        assert_eq!(answer.outcome, Outcome::Proved);
        assert_eq!(answer.prover.as_deref(), Some("shape"));
    }

    #[test]
    fn unprovable_queries_report_unknown() {
        let cascade = Cascade::standard(ProverConfig::quick());
        let answer = cascade.prove(&query(&["0 <= x"], "x < 0"));
        assert_eq!(answer.outcome, Outcome::Unknown);
        assert_eq!(answer.prover, None);
    }

    /// A prover that would spin forever if cancellation never fired: the
    /// regression scenario for the abandoned-worker leak.
    #[derive(Debug)]
    struct Spinner {
        observed_cancel: Arc<std::sync::atomic::AtomicBool>,
    }

    impl Prover for Spinner {
        fn name(&self) -> &'static str {
            "spinner"
        }

        fn prove(&self, _query: &Query, _config: &ProverConfig, cancel: &Cancel) -> Outcome {
            while !cancel.is_cancelled() {
                std::hint::spin_loop();
            }
            self.observed_cancel
                .store(true, std::sync::atomic::Ordering::SeqCst);
            Outcome::Unknown
        }
    }

    #[test]
    fn timed_out_cascade_leaves_no_live_workers() {
        let observed_cancel = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let cascade = Cascade::with_provers(
            vec![Arc::new(Spinner {
                observed_cancel: Arc::clone(&observed_cancel),
            })],
            ProverConfig {
                per_prover_timeout_ms: 30,
                use_cache: false,
                ..ProverConfig::default()
            },
        );
        let start = Instant::now();
        let answer = cascade.prove(&query(&["0 <= x"], "x < 0"));
        assert_eq!(answer.outcome, Outcome::Unknown);
        assert!(
            observed_cancel.load(std::sync::atomic::Ordering::SeqCst),
            "the spinner must observe cooperative cancellation"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "cancellation must fire near the 30 ms deadline"
        );
        // Other tests in this binary may be mid-cascade on their own threads,
        // so poll instead of asserting an instantaneous zero; an *abandoned*
        // worker never finishes and would keep the counter pinned.
        let deadline = Instant::now() + Duration::from_secs(30);
        while live_workers() != 0 {
            assert!(
                Instant::now() < deadline,
                "prover execution outlived the cascade call"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn proved_outcomes_are_replayed_from_the_cache() {
        let cascade = Cascade::default();
        let mut env = env();
        for v in ["zz_cache_a", "zz_cache_b", "zz_cache_c"] {
            env.declare_var(v, Sort::Obj);
        }
        let q = Query::new(
            vec![
                Labeled::new("A", parse_form("zz_cache_a = zz_cache_b").unwrap()),
                Labeled::new("B", parse_form("zz_cache_b = zz_cache_c").unwrap()),
            ],
            parse_form("zz_cache_a = zz_cache_c").unwrap(),
            env,
        );
        let first = cascade.prove(&q);
        assert_eq!(first.outcome, Outcome::Proved);
        assert!(!first.cached);
        let second = cascade.prove(&q);
        assert_eq!(second.outcome, Outcome::Proved);
        assert!(second.cached, "identical query must hit the proof cache");
        assert_eq!(
            second.prover, first.prover,
            "hit reports the original prover"
        );
    }

    #[test]
    fn cache_respects_differing_budgets() {
        let q = query(&["p"], "p");
        let default_answer = Cascade::default().prove(&q);
        assert_eq!(default_answer.outcome, Outcome::Proved);
        // A different configuration fingerprint must not see the entry.
        let quick = Cascade::standard(ProverConfig::quick());
        let quick_answer = quick.prove(&q);
        assert_eq!(quick_answer.outcome, Outcome::Proved);
        assert!(
            !quick_answer.cached,
            "budgets are part of the fingerprint; quick() must re-prove"
        );
    }

    #[test]
    fn prover_names_in_order() {
        assert_eq!(
            Cascade::default().prover_names(),
            vec!["syntactic", "smt-ground", "bapa", "shape", "smt-inst"]
        );
    }

    /// A prover that panics on every call: the organic-crash scenario.
    #[derive(Debug)]
    struct Exploder;

    impl Prover for Exploder {
        fn name(&self) -> &'static str {
            "exploder"
        }

        fn prove(&self, _query: &Query, _config: &ProverConfig, _cancel: &Cancel) -> Outcome {
            panic!("index out of bounds: simulated prover bug");
        }
    }

    #[test]
    fn panicking_stage_is_contained_as_crashed() {
        let cascade = Cascade::with_provers(
            vec![Arc::new(Exploder), Arc::new(Syntactic)],
            ProverConfig {
                use_cache: false,
                ..ProverConfig::default()
            },
        );
        let answer = cascade.prove(&query(&["p"], "p"));
        // The crash quarantines the query: the syntactic stage that would
        // have proved it is never consulted, so a fault can only degrade.
        assert_eq!(
            answer.outcome,
            Outcome::Crashed {
                stage: "exploder".to_string(),
                message: "index out of bounds: simulated prover bug".to_string(),
            }
        );
        assert_eq!(answer.prover, None);
        // The live-worker counter must survive the unwind (drop guard).
        let deadline = Instant::now() + Duration::from_secs(30);
        while live_workers() != 0 {
            assert!(Instant::now() < deadline, "panic leaked a live worker");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn expired_module_deadline_skips_without_dispatch() {
        let cascade = Cascade::standard(ProverConfig {
            use_cache: false,
            ..ProverConfig::default()
        });
        let past = RequestScope {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..RequestScope::default()
        };
        let answer = cascade.prove_under(&query(&["p"], "p"), None, &past);
        assert_eq!(
            answer.outcome,
            Outcome::Skipped(crate::SkipReason::DeadlineExceeded)
        );
        assert!(
            answer.stage_durations.is_empty(),
            "no stage may run past the module deadline"
        );
    }

    #[test]
    fn a_drain_clamps_the_module_deadline() {
        let drain = Drain::default();
        let tighter = Instant::now() + Duration::from_millis(10);
        let looser = Instant::now() + Duration::from_secs(60);
        let scope = |deadline| RequestScope {
            deadline,
            drain: Some(&drain),
            faults: None,
        };
        assert_eq!(scope(Some(looser)).deadline(), Some(looser));
        assert_eq!(scope(None).deadline(), None);
        let drain_at = drain.begin(Instant::now() + Duration::from_secs(1));
        assert_eq!(scope(Some(tighter)).deadline(), Some(tighter));
        assert_eq!(scope(Some(looser)).deadline(), Some(drain_at));
        assert_eq!(scope(None).deadline(), Some(drain_at));
    }
}
