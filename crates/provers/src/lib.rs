//! # `ipl-provers` — the integrated-reasoning prover cascade
//!
//! Jahob dispatches every sequent to a cascade of reasoning systems
//! (first-order provers, SMT solvers, MONA, BAPA), each with a timeout.  This
//! crate reproduces that architecture with from-scratch reasoners:
//!
//! * [`syntactic`] — the cheap syntactic checks performed during splitting
//!   (goal among assumptions, `false` among assumptions, reflexive goals);
//! * [`ground`] — an SMT-lite solver for ground formulas: a CDCL(T) search
//!   with clause learning over the boolean structure, threading one
//!   incremental, backtrackable congruence-closure engine ([`cc`]) through
//!   the trail, combined with linear integer arithmetic (a Fourier–Motzkin
//!   refutation shared with `ipl-bapa`);
//! * [`inst`] — trigger-driven E-matching instantiation on top of the ground
//!   solver (the stand-in for the E-matching SMT solvers and the first-order
//!   provers of the paper): triggers are selected per quantifier and matched
//!   against a term index of the ground set, with a bounded sort-pool
//!   enumeration as the fallback for trigger-less quantifiers;
//! * [`preprocess`] — the refutation problem of a query (normal form,
//!   skolems, read-over-write axioms), built once per query and shared by
//!   the ground and instantiating stages, with the normal forms of the
//!   assumptions shared by the queries of one method;
//! * adapters for the `ipl-bapa` cardinality prover and the `ipl-shape`
//!   reachability prover;
//! * [`cascade`] — the dispatcher that runs the provers in order with per-
//!   prover budgets and records which prover discharged each sequent.
//!
//! The deliberate *incompleteness* of the bounded search is what gives the
//! integrated proof language its purpose: `note`/`witness`/`instantiate`
//! statements and `from` clauses shrink the search space so that these
//! bounded provers succeed, exactly as described in the paper.

pub mod cache;
pub mod cache_store;
pub mod cascade;
pub mod cc;
pub mod containment;
pub mod drain;
pub mod fault;
pub mod ground;
pub mod inst;
pub mod preprocess;
pub mod syntactic;

use ipl_logic::{Form, Labeled, SortEnv};
use preprocess::{NormalForms, Problem};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

pub use cascade::{Cascade, ProverAnswer, RequestScope};

/// Cooperative cancellation token handed to every prover.
///
/// The cascade used to run each prover on a freshly spawned worker thread and
/// *abandon* it when the per-prover timeout expired — the worker kept burning
/// CPU (and memory) in the background, which under the parallel verification
/// driver multiplied into a stampede of zombie searches.  Provers now run on
/// the calling thread and poll this token inside their main loops (tableau
/// node expansion, instantiation rounds, Venn region enumeration); when the
/// deadline passes they unwind promptly and report [`Outcome::Unknown`].
#[derive(Debug, Clone, Default)]
pub struct Cancel {
    deadline: Option<Instant>,
}

impl Cancel {
    /// A token that never cancels (tests and one-shot callers).
    pub fn never() -> Self {
        Cancel::default()
    }

    /// A token that cancels once `timeout` has elapsed from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Cancel {
            deadline: Instant::now().checked_add(timeout),
        }
    }

    /// A token that cancels at `timeout` from now or at the outer `deadline`,
    /// whichever comes first.  This is how the deadline hierarchy flows down:
    /// a module-level wall-clock budget clamps every per-prover timeout
    /// beneath it, so an over-budget run unwinds instead of letting each
    /// stage spend its full allowance.
    pub fn with_timeout_under(timeout: Duration, outer: Option<Instant>) -> Self {
        let local = Instant::now().checked_add(timeout);
        Cancel {
            deadline: match (local, outer) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        }
    }

    /// The deadline of this token, for handing down to sub-solvers that
    /// poll a plain deadline (the `bapa` and `shape` stages).
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Returns `true` once the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }
}

/// A proof query: prove `goal` from `assumptions` under the sort environment
/// `env`.
///
/// The refutation [`Problem`] is built from these fields on first use and
/// kept, so every stage that needs it shares one; change no field after a
/// stage has run.
#[derive(Debug, Clone)]
pub struct Query {
    /// Labelled assumptions (already filtered by any `from` clause).
    pub assumptions: Vec<Labeled>,
    /// The goal.
    pub goal: Form,
    /// Sorts of the free variables and signatures of the named symbols,
    /// shared by the queries of one method.
    pub env: Arc<SortEnv>,
    /// The normal-form memo of the query's method, if it has one.
    normal_forms: Option<Arc<NormalForms>>,
    problem: OnceLock<Problem>,
}

impl Query {
    /// Creates a query.  `env` is a [`SortEnv`] or an `Arc` of one that
    /// other queries share.
    pub fn new(assumptions: Vec<Labeled>, goal: Form, env: impl Into<Arc<SortEnv>>) -> Self {
        Query {
            assumptions,
            goal,
            env: env.into(),
            normal_forms: None,
            problem: OnceLock::new(),
        }
    }

    /// Creates a query of a method whose queries share `normal_forms`, and
    /// with it the method's sort environment: an assumption the method's
    /// queries share is normalised once for all of them.
    pub fn in_method(
        assumptions: Vec<Labeled>,
        goal: Form,
        normal_forms: &Arc<NormalForms>,
    ) -> Self {
        Query {
            normal_forms: Some(Arc::clone(normal_forms)),
            ..Query::new(assumptions, goal, Arc::clone(normal_forms.env()))
        }
    }

    /// The assumption formulas without their labels.
    pub fn assumption_forms(&self) -> Vec<Form> {
        self.assumptions.iter().map(|a| a.form.clone()).collect()
    }

    /// The refutation problem of this query, built on the first call
    /// (through the method's normal-form memo when the query has one) and
    /// shared by every later one.  It equals [`preprocess::build_problem`]'s.
    pub fn problem(&self) -> &Problem {
        self.problem.get_or_init(|| {
            // The memo's entries hold under its own env only, so a query
            // whose `env` was replaced builds without it.
            let memo = self
                .normal_forms
                .as_deref()
                .filter(|memo| Arc::ptr_eq(memo.env(), &self.env));
            let assumptions = self.assumptions.iter().map(|a| &a.form);
            preprocess::build(assumptions, &self.goal, &self.env, memo)
        })
    }
}

/// The outcome of a query: what a prover (or the cascade) established, or —
/// for the `Crashed` / `Skipped` variants — why nothing was established.
///
/// Individual [`Prover`] implementations only ever return `Proved` or
/// `Unknown`; the two diagnostic variants are produced by the fault-isolation
/// layer (the cascade's panic containment and the driver's deadline
/// hierarchy).  **Neither diagnostic is a verdict**: an infrastructure fault
/// must never masquerade as `Proved`, and the chaos suite enforces exactly
/// that (a faulted run's proved set is a subset of the fault-free run's).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// The implication was proved valid.
    Proved,
    /// The prover could not establish validity within its budget.
    Unknown,
    /// A prover stage panicked; the panic was contained at the dispatch
    /// boundary and the sequent quarantined (no later stage ran).
    Crashed {
        /// The cascade stage whose dispatch panicked.
        stage: String,
        /// The panic payload, when it carried a message.
        message: String,
    },
    /// The sequent was never dispatched.
    Skipped(SkipReason),
}

impl Outcome {
    /// `true` only for [`Outcome::Proved`].
    pub fn is_proved(&self) -> bool {
        *self == Outcome::Proved
    }

    /// Short machine-readable tag (`proved`, `unknown`, `crashed`,
    /// `skipped`), used by reports and exit-code mapping.
    pub fn tag(&self) -> &'static str {
        match self {
            Outcome::Proved => "proved",
            Outcome::Unknown => "unknown",
            Outcome::Crashed { .. } => "crashed",
            Outcome::Skipped(_) => "skipped",
        }
    }
}

/// Why a sequent was skipped without dispatching any prover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SkipReason {
    /// The module-level wall-clock budget (`module_deadline` in the
    /// verification driver's options) was exhausted before this sequent's
    /// turn came; the run degrades to a partial report instead of hanging.
    DeadlineExceeded,
}

/// Resource budgets controlling the bounded search.  The search itself is
/// fixed — clause learning, theory propagation, trigger selection and the
/// sort-pool fallback always run — so only its bounds are settable.
///
/// The whole configuration hashes into the proof-cache fingerprint (see
/// [`cache`]), so runs under different budgets never share cached proofs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProverConfig {
    /// Maximum number of iterations of the ground solver's CDCL(T) loop;
    /// each one ends in a conflict or a decision.
    pub max_branch_nodes: usize,
    /// Number of quantifier-instantiation rounds.
    pub instantiation_rounds: usize,
    /// Maximum instances generated per quantifier per round.
    pub max_instances_per_quantifier: usize,
    /// Hard cap on the total number of generated instances.
    pub max_total_instances: usize,
    /// Wall-clock timeout per prover per sequent, in milliseconds.
    pub per_prover_timeout_ms: u64,
    /// Penalty factor applied to the instantiation budget as the assumption
    /// base grows (models the paper's observation that large assumption bases
    /// degrade the provers).
    pub assumption_penalty_threshold: usize,
    /// When `true`, the cascade consults the content-addressed proof cache
    /// before dispatching and records every `Proved` outcome (see [`cache`]).
    pub use_cache: bool,
}

impl Default for ProverConfig {
    fn default() -> Self {
        ProverConfig {
            max_branch_nodes: 60_000,
            instantiation_rounds: 3,
            max_instances_per_quantifier: 48,
            max_total_instances: 1_500,
            per_prover_timeout_ms: 2_000,
            assumption_penalty_threshold: 28,
            use_cache: true,
        }
    }
}

impl ProverConfig {
    /// A configuration with a much smaller search budget.  Tests use it as a
    /// second configuration whose proofs must not be shared with the
    /// default's.
    pub fn quick() -> Self {
        ProverConfig {
            max_branch_nodes: 8_000,
            instantiation_rounds: 1,
            max_instances_per_quantifier: 16,
            max_total_instances: 200,
            per_prover_timeout_ms: 500,
            assumption_penalty_threshold: 20,
            use_cache: true,
        }
    }

    /// The default budgets with the proof cache disabled (benchmarks that
    /// must measure raw prover time).
    pub fn without_cache() -> Self {
        ProverConfig {
            use_cache: false,
            ..Self::default()
        }
    }

    /// The effective instantiation budget for a query, reduced when the
    /// assumption base is large (the phenomenon the `from` clause exists to
    /// counteract).
    pub fn effective_instances(&self, assumption_count: usize) -> usize {
        if assumption_count > self.assumption_penalty_threshold {
            (self.max_total_instances / 4).max(8)
        } else {
            self.max_total_instances
        }
    }
}

/// A single reasoning system in the cascade.
pub trait Prover: Send + Sync {
    /// Short name used in reports (e.g. `"smt-lite"`, `"bapa"`).
    fn name(&self) -> &'static str;

    /// Attempts to prove the query within the given budgets, polling
    /// `cancel` cooperatively (a cancelled prover returns
    /// [`Outcome::Unknown`] promptly instead of running to completion).
    fn prove(&self, query: &Query, config: &ProverConfig, cancel: &Cancel) -> Outcome;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipl_logic::parser::parse_form;

    #[test]
    fn query_holds_assumptions_and_goal() {
        let q = Query::new(
            vec![Labeled::new("A", parse_form("x = 1").unwrap())],
            parse_form("x = 1").unwrap(),
            SortEnv::new(),
        );
        assert_eq!(q.assumption_forms().len(), 1);
    }

    #[test]
    fn config_penalises_large_assumption_bases() {
        let config = ProverConfig::default();
        assert_eq!(config.effective_instances(5), config.max_total_instances);
        assert!(config.effective_instances(100) < config.max_total_instances);
    }

    #[test]
    fn quick_config_is_smaller() {
        assert!(
            ProverConfig::quick().max_total_instances < ProverConfig::default().max_total_instances
        );
    }
}
