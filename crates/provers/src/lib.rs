//! # `ipl-provers` — the integrated-reasoning prover cascade
//!
//! Jahob dispatches every sequent to a cascade of reasoning systems
//! (first-order provers, SMT solvers, MONA, BAPA), each with a timeout.  This
//! crate reproduces that architecture with from-scratch reasoners:
//!
//! * [`syntactic`] — the cheap syntactic checks performed during splitting
//!   (goal among assumptions, `false` among assumptions, reflexive goals);
//! * [`ground`] — an SMT-lite solver for ground formulas: a tableau search
//!   over the boolean structure threading one incremental, backtrackable
//!   congruence-closure engine ([`cc`]) through the branches, combined with
//!   linear integer arithmetic (a Fourier–Motzkin refutation shared with
//!   `ipl-bapa`);
//! * [`inst`] — trigger-driven E-matching instantiation on top of the ground
//!   solver (the stand-in for the E-matching SMT solvers and the first-order
//!   provers of the paper): triggers are selected per quantifier and matched
//!   against a term index of the ground set, with a bounded sort-pool
//!   enumeration as the fallback for trigger-less quantifiers
//!   ([`TriggerConfig`] holds the knobs);
//! * adapters for the [`ipl-bapa`] cardinality decision procedure and the
//!   [`ipl-shape`] reachability prover;
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
pub mod exchange;
pub mod fault;
pub mod ground;
pub mod inst;
pub mod preprocess;
pub mod syntactic;

use ipl_logic::{Form, Labeled, SortEnv};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use cascade::{Cascade, ProverAnswer};

/// Cooperative cancellation token handed to every prover.
///
/// The cascade used to run each prover on a freshly spawned worker thread and
/// *abandon* it when the per-prover timeout expired — the worker kept burning
/// CPU (and memory) in the background, which under the parallel verification
/// driver multiplied into a stampede of zombie searches.  Provers now run on
/// the calling thread and poll this token inside their main loops (tableau
/// node expansion, instantiation rounds, Venn region enumeration); when the
/// deadline passes or the flag is raised they unwind promptly and report
/// [`Outcome::Unknown`].
#[derive(Debug, Clone, Default)]
pub struct Cancel {
    deadline: Option<Instant>,
    flag: Option<Arc<AtomicBool>>,
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
            flag: None,
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
            flag: None,
        }
    }

    /// A token cancelled externally through the shared flag (and optionally
    /// by deadline as well).
    pub fn with_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.flag = Some(flag);
        self
    }

    /// The deadline of this token, for handing down to sub-solvers with
    /// their own limit structures (e.g. `BapaLimits::deadline`).
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Returns `true` once the deadline has passed or the flag was raised.
    pub fn is_cancelled(&self) -> bool {
        if let Some(flag) = &self.flag {
            if flag.load(Ordering::Relaxed) {
                return true;
            }
        }
        match self.deadline {
            Some(deadline) => Instant::now() >= deadline,
            None => false,
        }
    }
}

/// A proof query: prove `goal` from `assumptions` under the sort environment
/// `env`.
#[derive(Debug, Clone)]
pub struct Query {
    /// Labelled assumptions (already filtered by any `from` clause).
    pub assumptions: Vec<Labeled>,
    /// The goal.
    pub goal: Form,
    /// Sorts of the free variables and signatures of the named symbols.
    pub env: SortEnv,
}

impl Query {
    /// Creates a query.
    pub fn new(assumptions: Vec<Labeled>, goal: Form, env: SortEnv) -> Self {
        Query {
            assumptions,
            goal,
            env,
        }
    }

    /// The assumption formulas without their labels.
    pub fn assumption_forms(&self) -> Vec<Form> {
        self.assumptions.iter().map(|a| a.form.clone()).collect()
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

/// Knobs of the trigger-driven E-matching instantiation engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TriggerConfig {
    /// Master switch: when `false`, every quantifier falls back to the
    /// sort-pool cross-product instantiator (the pre-E-matching behaviour,
    /// kept for the ablation benchmarks).
    pub enabled: bool,
    /// Maximum number of (multi-)patterns selected per quantifier.
    pub max_triggers_per_quantifier: usize,
    /// Maximum AST size of a single pattern term.
    pub max_pattern_size: usize,
    /// Maximum matches accepted per quantifier per round.
    pub max_matches_per_quantifier: usize,
    /// When `true`, a quantifier whose triggers never produced a single match
    /// retries with the sort pool (covers bodies whose relevant terms exist
    /// only at other sorts).
    pub pool_fallback: bool,
}

impl Default for TriggerConfig {
    fn default() -> Self {
        TriggerConfig {
            enabled: true,
            max_triggers_per_quantifier: 4,
            max_pattern_size: 12,
            max_matches_per_quantifier: 96,
            pool_fallback: true,
        }
    }
}

impl TriggerConfig {
    /// The configuration of the pre-E-matching engine: triggers off, every
    /// quantifier instantiated from the sort pool.
    pub fn disabled() -> Self {
        TriggerConfig {
            enabled: false,
            ..Self::default()
        }
    }
}

/// Knobs of the CDCL ground core (see [`ground`]): the iterative
/// conflict-driven engine that replaced the recursive DPLL tableau.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GroundConfig {
    /// Master switch for conflict-driven clause learning.  When `false` the
    /// engine still propagates with watched literals and backtracks
    /// chronologically, but records no learned clauses (the pre-CDCL search
    /// shape, kept for the ablation benchmarks).
    pub learning: bool,
    /// Hard cap on the number of learned clauses kept per search; conflicts
    /// past the cap still backjump but are not recorded.
    pub max_learned_clauses: usize,
    /// Conflicts between two halvings of the variable activities (the
    /// integer stand-in for VSIDS decay; smaller = more aggressive focus on
    /// recent conflicts).
    pub activity_decay_interval: usize,
    /// Eager theory propagation: after each boolean propagation fixpoint the
    /// congruence closure is asked which registered equality atoms it now
    /// entails, and those literals enter the trail with proof-forest
    /// explanations instead of being rediscovered at conflicts.  `false`
    /// restores the conflict-driven-only behaviour for the ablations.
    pub theory_propagation: bool,
    /// Luby-sequence restarts: on schedule the search backjumps to the root,
    /// keeping learned clauses and activities.  `false` disables restarts for
    /// the ablations.
    pub restarts: bool,
    /// Conflicts between two activity-based learned-clause reduction sweeps;
    /// each sweep deletes the lower-activity half of the unlocked learned
    /// clauses.  `max_learned_clauses` additionally forces a sweep whenever
    /// the database reaches the cap.
    pub deletion_interval: usize,
}

impl Default for GroundConfig {
    fn default() -> Self {
        GroundConfig {
            learning: true,
            max_learned_clauses: 10_000,
            activity_decay_interval: 128,
            theory_propagation: true,
            restarts: true,
            deletion_interval: 2_000,
        }
    }
}

impl GroundConfig {
    /// The configuration with clause learning turned off (chronological
    /// backtracking only); used by the ablation benchmarks.
    pub fn without_learning() -> Self {
        GroundConfig {
            learning: false,
            ..Self::default()
        }
    }

    /// The configuration with eager theory propagation turned off (theory
    /// facts discovered only at conflicts); used by the ablation benchmarks.
    pub fn without_theory_propagation() -> Self {
        GroundConfig {
            theory_propagation: false,
            ..Self::default()
        }
    }

    /// The configuration with Luby restarts turned off; used by the ablation
    /// benchmarks.
    pub fn without_restarts() -> Self {
        GroundConfig {
            restarts: false,
            ..Self::default()
        }
    }
}

/// Knobs of the Nelson–Oppen equality-exchange loop that runs the BAPA
/// cardinality procedure (and future theories) inside the ground tableau
/// (see [`exchange`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExchangeConfig {
    /// Master switch: when `false`, theories run only as standalone cascade
    /// stages (the pre-combination behaviour, kept for ablations).
    pub enabled: bool,
    /// Fixpoint iterations of the exchange loop per saturated leaf.
    pub max_rounds: usize,
    /// Saturated leaves allowed to run the loop, per tableau search.
    pub max_leaf_checks: usize,
    /// Entailment queries (Presburger refutations) allowed, per search.
    pub max_entailment_queries: usize,
}

impl Default for ExchangeConfig {
    fn default() -> Self {
        ExchangeConfig {
            enabled: true,
            max_rounds: 3,
            max_leaf_checks: 64,
            max_entailment_queries: 12,
        }
    }
}

impl ExchangeConfig {
    /// The configuration with the in-tableau combination turned off.
    pub fn disabled() -> Self {
        ExchangeConfig {
            enabled: false,
            ..Self::default()
        }
    }
}

/// Resource budgets controlling the bounded search.  These are the knobs the
/// Table 2 experiment and the ablation benchmarks turn.
///
/// The whole configuration hashes into the proof-cache fingerprint (see
/// [`cache`]), so runs under different budgets never share cached proofs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProverConfig {
    /// Maximum number of branch nodes explored by the ground tableau.
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
    /// E-matching trigger selection and matching budgets.
    pub triggers: TriggerConfig,
    /// Theory-combination (BAPA⇄ground exchange) budgets.
    pub exchange: ExchangeConfig,
    /// CDCL ground-core knobs (clause learning, learned-clause cap).
    pub ground: GroundConfig,
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
            triggers: TriggerConfig::default(),
            exchange: ExchangeConfig::default(),
            ground: GroundConfig::default(),
            use_cache: true,
        }
    }
}

impl ProverConfig {
    /// A configuration with a much smaller search budget; useful in tests and
    /// for the "fast" cascade stage.
    pub fn quick() -> Self {
        ProverConfig {
            max_branch_nodes: 8_000,
            instantiation_rounds: 1,
            max_instances_per_quantifier: 16,
            max_total_instances: 200,
            per_prover_timeout_ms: 500,
            assumption_penalty_threshold: 20,
            triggers: TriggerConfig::default(),
            exchange: ExchangeConfig::default(),
            ground: GroundConfig::default(),
            use_cache: true,
        }
    }

    /// The default budgets with conflict-driven clause learning disabled in
    /// the ground core (chronological backtracking only); used by the
    /// ablation benchmarks.
    pub fn without_learning() -> Self {
        ProverConfig {
            ground: GroundConfig::without_learning(),
            ..Self::default()
        }
    }

    /// The default budgets with the in-tableau theory combination disabled
    /// (theories as standalone cascade stages only); used by the ablations.
    pub fn without_exchange() -> Self {
        ProverConfig {
            exchange: ExchangeConfig::disabled(),
            ..Self::default()
        }
    }

    /// The default budgets with eager theory propagation disabled in the
    /// ground core (theory facts discovered only at conflicts); used by the
    /// ablation benchmarks.
    pub fn without_theory_propagation() -> Self {
        ProverConfig {
            ground: GroundConfig::without_theory_propagation(),
            ..Self::default()
        }
    }

    /// The default budgets with Luby restarts disabled in the ground core;
    /// used by the ablation benchmarks.
    pub fn without_restarts() -> Self {
        ProverConfig {
            ground: GroundConfig::without_restarts(),
            ..Self::default()
        }
    }

    /// The default budgets with E-matching disabled (the sort-pool
    /// cross-product instantiator); used by the ablation benchmarks.
    pub fn without_triggers() -> Self {
        ProverConfig {
            triggers: TriggerConfig::disabled(),
            ..Self::default()
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
