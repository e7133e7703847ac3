//! The ground SMT-lite solver: an iterative CDCL(T) engine over the boolean
//! structure with a combined congruence-closure + linear-integer-arithmetic
//! theory check.  A saturated, consistent leaf answers "unknown": sequents
//! that need cardinality or reachability reasoning go on to the standalone
//! `bapa` and `shape` stages of the cascade.
//!
//! The solver works by refutation on a set of ground formulas in NNF.  The
//! boolean structure is compiled once into a clause database over small
//! integer literal ids (atoms are interned; nested conjunctions and
//! disjunctions get Plaisted–Greenbaum proxy variables, so no formula is ever
//! re-scanned or cloned during the search).  The search itself is a modern
//! conflict-driven loop:
//!
//! * **two-watched-literal propagation** replaces the per-branch rescan of
//!   every disjunction (and the deep `rest.clone()` the recursive tableau
//!   paid at each branch point);
//! * an explicit **trail with decision levels**, kept in lockstep with
//!   [`Congruence::push`]/[`Congruence::pop`], enables non-chronological
//!   backjumping;
//! * **conflict-driven clause learning**: propositional conflicts resolve to
//!   a first-UIP clause, and congruence conflicts are turned into clauses
//!   through the proof-forest explanations of [`crate::cc`]
//!   ([`Congruence::explain_conflict`]) — a closed branch prunes every other
//!   branch that would fail for the same reason, instead of being a bare
//!   boolean;
//! * **incremental arithmetic**: each literal is linearised once when it is
//!   asserted (over interned term ids, not congruence classes, so later
//!   merges are picked up by a cheap re-keying), the constraint stack unwinds
//!   with the trail, and the Fourier–Motzkin refutation re-runs only when the
//!   stack or the congruence generation changed.
//!
//! Arithmetic conflicts carry no explanation, so they fall back to learning
//! the negation of the current decisions, which still prunes re-exploration
//! and backjumps soundly.
//!
//! The search is deliberately budgeted: when the number of decisions and
//! conflicts exceeds the configured limit it gives up and reports "unknown",
//! which is how the paper's observation that large assumption bases defeat
//! the provers is reproduced.

use crate::cc::{Congruence, Implied, TermId};
use crate::{Cancel, ProverConfig};
use ipl_bapa::presburger::{id_conjunction_infeasible, IdLinExpr};
use ipl_logic::hashed::Hashed;
use ipl_logic::normal::nnf;
use ipl_logic::{Form, Sort, SortEnv};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Base interval (in conflicts) of the Luby restart sequence.
const RESTART_BASE: u64 = 64;

/// Hard cap on the number of live learned clauses per search; a conflict
/// past the cap still backjumps, but its clause is recorded only if a
/// reduction sweep frees room.
const MAX_LEARNED_CLAUSES: usize = 10_000;

/// Conflicts between two halvings of the variable and clause activities
/// (the integer stand-in for VSIDS decay).
const ACTIVITY_DECAY_INTERVAL: u64 = 128;

/// Conflicts between two learned-clause reduction sweeps, each of which
/// deletes the lower-activity half of the unlocked learned clauses.
const DELETION_INTERVAL: u64 = 2_000;

/// Result of a refutation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroundResult {
    /// The formula set is unsatisfiable (the original sequent is valid).
    Unsat,
    /// Could not refute within budget (possibly satisfiable).
    Unknown,
}

// ---------------------------------------------------------------------------
// Search statistics
// ---------------------------------------------------------------------------

static DECISIONS: AtomicU64 = AtomicU64::new(0);
static BOOL_PROPAGATIONS: AtomicU64 = AtomicU64::new(0);
static THEORY_PROPAGATIONS: AtomicU64 = AtomicU64::new(0);
static CONFLICTS: AtomicU64 = AtomicU64::new(0);
static LEARNED: AtomicU64 = AtomicU64::new(0);
/// Cumulative CDCL search counters, process-global (flushed once per
/// [`refute`] call, so they are cheap to keep and safe under the parallel
/// verification driver).  Benchmark harnesses snapshot them around a run and
/// report the delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroundStats {
    /// Branching decisions taken.
    pub decisions: u64,
    /// Literals propagated by boolean unit propagation.
    pub bool_propagations: u64,
    /// Literals propagated eagerly by the congruence closure (cc-implied
    /// watched equality atoms entering the trail with proof-forest reasons).
    pub theory_propagations: u64,
    /// Conflicts analysed (propositional, congruence, arithmetic).
    pub conflicts: u64,
    /// Clauses learned and recorded in the clause database.
    pub learned_clauses: u64,
}

impl GroundStats {
    /// The counters accumulated since an earlier snapshot.
    pub fn since(&self, earlier: &GroundStats) -> GroundStats {
        GroundStats {
            decisions: self.decisions.saturating_sub(earlier.decisions),
            bool_propagations: self
                .bool_propagations
                .saturating_sub(earlier.bool_propagations),
            theory_propagations: self
                .theory_propagations
                .saturating_sub(earlier.theory_propagations),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            learned_clauses: self.learned_clauses.saturating_sub(earlier.learned_clauses),
        }
    }

    /// All propagations, boolean and theory.
    pub fn propagations(&self) -> u64 {
        self.bool_propagations + self.theory_propagations
    }
}

/// The current process-global counters.
pub fn stats_snapshot() -> GroundStats {
    GroundStats {
        decisions: DECISIONS.load(Ordering::Relaxed),
        bool_propagations: BOOL_PROPAGATIONS.load(Ordering::Relaxed),
        theory_propagations: THEORY_PROPAGATIONS.load(Ordering::Relaxed),
        conflicts: CONFLICTS.load(Ordering::Relaxed),
        learned_clauses: LEARNED.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Attempts to refute the conjunction of the given ground formulas.
pub fn refute(
    forms: &[Form],
    env: &SortEnv,
    config: &ProverConfig,
    cancel: &Cancel,
) -> GroundResult {
    let mut solver = Solver::new(env, config, cancel);
    for form in forms {
        solver.add_form(form);
    }
    let result = solver.solve();
    DECISIONS.fetch_add(solver.n_decisions, Ordering::Relaxed);
    BOOL_PROPAGATIONS.fetch_add(solver.n_bool_propagations, Ordering::Relaxed);
    THEORY_PROPAGATIONS.fetch_add(solver.n_theory_propagations, Ordering::Relaxed);
    CONFLICTS.fetch_add(solver.n_conflicts, Ordering::Relaxed);
    LEARNED.fetch_add(solver.n_learned, Ordering::Relaxed);
    result
}

// ---------------------------------------------------------------------------
// The CDCL(T) solver
// ---------------------------------------------------------------------------

/// A literal: variable index shifted left, low bit set when negated.
type Lit = u32;

/// Truth value of a literal under the current assignment (`0` = unassigned).
fn lit_val(value: &[i8], lit: Lit) -> i8 {
    let v = value[(lit >> 1) as usize];
    if lit & 1 == 1 {
        -v
    } else {
        v
    }
}

/// The encoding of a subformula: a constant, or a literal.
enum ELit {
    True,
    False,
    L(Lit),
}

/// Why a variable is assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    /// Unassigned (or a root-level unit, which is never resolved).
    Undef,
    /// A branching decision.
    Decision,
    /// Propagated by this clause (its first literal is the propagated one).
    Clause(u32),
    /// Asserted with no clause to resolve on: a learned unit or a learned
    /// clause dropped at the cap.  Conflict analysis crossing it falls back
    /// to the decision clause.
    Theory,
    /// Theory-propagated: the congruence closure entailed the watched
    /// equality `a = b`.  Conflict analysis resolves through the lazy
    /// proof-forest explanation ([`Congruence::explain_terms`]), which is
    /// stable until the literal itself is popped (the explaining path was in
    /// place when the literal entered the trail, and the forest never
    /// re-routes a connected pair).
    CcEq { a: TermId, b: TermId },
    /// Theory-propagated: the watched equality `a = b` is refuted because
    /// `a ~ via_a`, `b ~ via_b` and `via_a ≠ via_b` — either an asserted
    /// disequality (`tag` is its literal) or distinct integer constants
    /// (`tag` is `None`).  The witnesses are captured at propagation time so
    /// a disequality asserted *later* between the same classes can never
    /// sneak into the explanation.
    CcNeq {
        a: TermId,
        b: TermId,
        via_a: TermId,
        via_b: TermId,
        tag: Option<Lit>,
    },
}

/// A conflict to analyse.
enum Conflict {
    /// A clause of the database is falsified.
    Clause(u32),
    /// A theory conflict explained as a set of (currently false) literals.
    Lits(Vec<Lit>),
    /// A theory conflict without an explanation: learn the decision clause.
    Opaque,
}

/// What the theory layer knows about an atom variable (proxies carry `None`).
#[derive(Debug)]
struct AtomInfo {
    /// The positive atom.
    form: Form,
    /// Arithmetic shape, decided once at interning time.
    kind: AtomKind,
}

/// Arithmetic classification of an atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AtomKind {
    /// `a <= b`.
    Le,
    /// `a < b`.
    Lt,
    /// An equality with at least one integer-sorted or arithmetic side.
    IntEq,
    /// No arithmetic content.
    Plain,
}

/// A clause over literals; `lits[0]` and `lits[1]` are watched.
#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    /// For a Plaisted–Greenbaum definition clause `[~p, e1, ..]`: the proxy
    /// `p`.  The branch/leaf test considers the clause only while `p` is
    /// assigned true — otherwise the subformula was not chosen and the
    /// clause is vacuously satisfiable, exactly like a disjunct the
    /// recursive tableau never expanded.  `None` for top-level clauses.
    relevance: Option<Lit>,
    /// Tombstone set by the learned-clause reduction sweep.  The literals are
    /// kept (an in-flight conflict may still reference them) but the clause
    /// stops watching: `bool_propagate` drops its watch entries lazily.
    deleted: bool,
}

/// One entry of the arithmetic constraint stack, unwound with the trail:
/// `(trail position of the contributing literal, end index of its constraints
/// in the pooled `arith_exprs` storage)`.  The expressions themselves live in
/// the pool so a backjump truncates a length instead of freeing buffers.
type ArithEntry = (usize, usize);

struct Solver<'a> {
    env: &'a SortEnv,
    cancel: &'a Cancel,
    /// Remaining decisions + conflicts before the search gives up.
    budget: usize,

    // ----- the SAT core -----
    /// Atom form -> variable.
    atoms: HashMap<Hashed, usize>,
    /// Encoded non-literal subformulas -> their proxy literal.
    proxy_cache: HashMap<Hashed, Lit>,
    /// Per-variable atom data (`None` for Plaisted–Greenbaum proxies).
    infos: Vec<Option<AtomInfo>>,
    /// Assignment: `0` unassigned, `1` true, `-1` false.
    value: Vec<i8>,
    /// Decision level of the assignment.
    level: Vec<u32>,
    /// Reason of the assignment.
    reason: Vec<Reason>,
    /// VSIDS-style activity (integer: bumped on conflict, halved periodically).
    activity: Vec<u64>,
    /// Scratch marks for conflict analysis.
    seen: Vec<bool>,
    /// The clause database (input first, then learned).
    clauses: Vec<Clause>,
    /// Per-clause activity (bumped when a clause participates in conflict
    /// analysis, halved with the variable activities); drives the
    /// lowest-activity-half deletion sweeps.
    clause_activity: Vec<u64>,
    /// Number of input clauses (the prefix of `clauses`); the branch/leaf
    /// test ranges over these only — learned clauses are implied and never
    /// need satisfying.
    input_clauses: usize,
    /// Number of live (non-tombstoned) learned clauses; kept under
    /// [`MAX_LEARNED_CLAUSES`] by the reduction sweeps.
    learned_count: usize,
    /// Watch lists, indexed by literal code.
    watches: Vec<Vec<u32>>,
    /// The assignment trail.
    trail: Vec<Lit>,
    /// Trail marks at each decision.
    trail_lim: Vec<usize>,
    /// Boolean propagation cursor into the trail.
    bool_qhead: usize,
    /// Theory assertion cursor into the trail.
    theory_qhead: usize,
    /// A contradiction among the root units / clauses.
    root_conflict: bool,

    // ----- the theory layer -----
    cc: Congruence,
    /// The incremental arithmetic constraint stack (indices into the pool).
    arith: Vec<ArithEntry>,
    /// Pooled constraint storage: slots past `arith_exprs_len` are retired
    /// but keep their buffers, so re-use is a `clear()`, not an allocation.
    arith_exprs: Vec<IdLinExpr>,
    /// Logical length of `arith_exprs` (the live constraints).
    arith_exprs_len: usize,
    /// Pooled scratch for the class-rep re-keyed constraints of an FM check.
    rekey_buf: Vec<IdLinExpr>,
    /// `(stack length, congruence generation)` of the last clean FM check.
    arith_memo: Option<(usize, u64)>,
    /// Whether any equality atoms are registered in the congruence watch
    /// index (theory propagation is a no-op otherwise).
    tp_active: bool,
    /// `(generation, diseq stamp)` of the last theory-propagation scan; the
    /// candidate index is re-scanned only when one of them moved.
    tp_memo: Option<(u64, u64)>,
    /// Pooled scratch for [`Congruence::implied_literals`].
    implied_scratch: Vec<Implied>,
    /// Conflicts since the last restart, and the Luby-scheduled limit that
    /// triggers the next one.
    conflicts_since_restart: u64,
    restart_count: u64,
    restart_limit: u64,

    // ----- statistics -----
    n_decisions: u64,
    n_bool_propagations: u64,
    n_theory_propagations: u64,
    n_conflicts: u64,
    n_learned: u64,
}

impl<'a> Solver<'a> {
    fn new(env: &'a SortEnv, config: &ProverConfig, cancel: &'a Cancel) -> Self {
        Solver {
            env,
            cancel,
            budget: config.max_branch_nodes,
            atoms: HashMap::new(),
            proxy_cache: HashMap::new(),
            infos: Vec::new(),
            value: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            activity: Vec::new(),
            seen: Vec::new(),
            clauses: Vec::new(),
            clause_activity: Vec::new(),
            input_clauses: 0,
            learned_count: 0,
            watches: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            bool_qhead: 0,
            theory_qhead: 0,
            root_conflict: false,
            cc: Congruence::new(),
            arith: Vec::new(),
            arith_exprs: Vec::new(),
            arith_exprs_len: 0,
            rekey_buf: Vec::new(),
            arith_memo: None,
            tp_active: false,
            tp_memo: None,
            implied_scratch: Vec::new(),
            conflicts_since_restart: 0,
            restart_count: 0,
            restart_limit: RESTART_BASE,
            n_decisions: 0,
            n_bool_propagations: 0,
            n_theory_propagations: 0,
            n_conflicts: 0,
            n_learned: 0,
        }
    }

    // ----- variables and encoding -----

    fn new_var(&mut self, info: Option<AtomInfo>) -> usize {
        let v = self.value.len();
        self.infos.push(info);
        self.value.push(0);
        self.level.push(0);
        self.reason.push(Reason::Undef);
        self.activity.push(0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// The positive literal of an atom, interning it on first sight.
    fn atom_lit(&mut self, form: &Form) -> Lit {
        debug_assert!(!matches!(form, Form::Bool(_) | Form::Not(_)));
        let key = Hashed::new(form.clone());
        if let Some(&v) = self.atoms.get(&key) {
            return (v as Lit) << 1;
        }
        let kind = match form {
            Form::Le(..) => AtomKind::Le,
            Form::Lt(..) => AtomKind::Lt,
            Form::Eq(a, b)
                if self.env.sort_of(a) == Sort::Int
                    || self.env.sort_of(b) == Sort::Int
                    || is_arith(a)
                    || is_arith(b) =>
            {
                AtomKind::IntEq
            }
            _ => AtomKind::Plain,
        };
        let info = AtomInfo {
            form: form.clone(),
            kind,
        };
        let v = self.new_var(Some(info));
        self.atoms.insert(key, v);
        (v as Lit) << 1
    }

    /// Compiles a subformula (in positive polarity) into a literal, creating
    /// Plaisted–Greenbaum proxies for nested boolean structure.
    fn encode(&mut self, form: &Form) -> ELit {
        match form {
            Form::Bool(b) => {
                if *b {
                    ELit::True
                } else {
                    ELit::False
                }
            }
            Form::Not(inner) => match inner.as_ref() {
                Form::Bool(b) => {
                    if *b {
                        ELit::False
                    } else {
                        ELit::True
                    }
                }
                atom if atom.is_atom() => ELit::L(self.atom_lit(atom) ^ 1),
                _ => self.encode(&nnf(form)),
            },
            Form::And(parts) => self.encode_junction(form, parts, true),
            Form::Or(parts) => self.encode_junction(form, parts, false),
            Form::Implies(..) | Form::Iff(..) => self.encode(&nnf(form)),
            atom => ELit::L(self.atom_lit(atom)),
        }
    }

    /// Encodes an `And`/`Or` node: one proxy variable defined (in the
    /// polarity that occurs) by clauses over the encoded children.  Shared
    /// subtrees reuse their proxy through the cache.
    fn encode_junction(&mut self, whole: &Form, parts: &[Form], conj: bool) -> ELit {
        let key = Hashed::new(whole.clone());
        if let Some(&lit) = self.proxy_cache.get(&key) {
            return ELit::L(lit);
        }
        let mut lits: Vec<Lit> = Vec::with_capacity(parts.len());
        for part in parts {
            match self.encode(part) {
                ELit::True => {
                    if !conj {
                        return ELit::True;
                    }
                }
                ELit::False => {
                    if conj {
                        return ELit::False;
                    }
                }
                ELit::L(l) => lits.push(l),
            }
        }
        match lits.len() {
            0 => {
                if conj {
                    ELit::True
                } else {
                    ELit::False
                }
            }
            1 => ELit::L(lits[0]),
            _ => {
                let p = (self.new_var(None) as Lit) << 1;
                if conj {
                    for &l in &lits {
                        self.add_clause_guarded(vec![p ^ 1, l], Some(p));
                    }
                } else {
                    let mut clause = Vec::with_capacity(lits.len() + 1);
                    clause.push(p ^ 1);
                    clause.extend(lits);
                    self.add_clause_guarded(clause, Some(p));
                }
                self.proxy_cache.insert(key, p);
                ELit::L(p)
            }
        }
    }

    /// Adds one input formula: conjunctions split into units, top-level
    /// disjunctions become clauses directly, everything else encodes.
    fn add_form(&mut self, form: &Form) {
        match form {
            Form::Bool(true) => {}
            Form::Bool(false) => self.root_conflict = true,
            Form::And(parts) => {
                for part in parts {
                    self.add_form(part);
                }
            }
            Form::Or(parts) => {
                let mut clause: Vec<Lit> = Vec::with_capacity(parts.len());
                for part in parts {
                    match self.encode(part) {
                        ELit::True => return, // satisfied clause
                        ELit::False => {}
                        ELit::L(l) => {
                            if clause.contains(&(l ^ 1)) {
                                return; // tautology
                            }
                            if !clause.contains(&l) {
                                clause.push(l);
                            }
                        }
                    }
                }
                match clause.len() {
                    0 => self.root_conflict = true,
                    1 => {
                        if !self.enqueue(clause[0], Reason::Undef) {
                            self.root_conflict = true;
                        }
                    }
                    _ => self.add_clause(clause),
                }
            }
            Form::Implies(..) | Form::Iff(..) => self.add_form(&nnf(form)),
            Form::Not(inner) if !inner.is_atom() => self.add_form(&nnf(form)),
            literal => match self.encode(literal) {
                ELit::True => {}
                ELit::False => self.root_conflict = true,
                ELit::L(l) => {
                    if !self.enqueue(l, Reason::Undef) {
                        self.root_conflict = true;
                    }
                }
            },
        }
    }

    fn add_clause(&mut self, lits: Vec<Lit>) {
        self.add_clause_guarded(lits, None);
    }

    fn add_clause_guarded(&mut self, lits: Vec<Lit>, relevance: Option<Lit>) {
        debug_assert!(lits.len() >= 2);
        let ci = self.clauses.len() as u32;
        self.watches[lits[0] as usize].push(ci);
        self.watches[lits[1] as usize].push(ci);
        self.clauses.push(Clause {
            lits,
            relevance,
            deleted: false,
        });
        self.clause_activity.push(0);
    }

    // ----- assignment and propagation -----

    fn current_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Assigns a literal true.  Returns `false` when it is already false.
    fn enqueue(&mut self, lit: Lit, reason: Reason) -> bool {
        match lit_val(&self.value, lit) {
            1 => true,
            -1 => false,
            _ => {
                let v = (lit >> 1) as usize;
                self.value[v] = if lit & 1 == 0 { 1 } else { -1 };
                self.level[v] = self.current_level();
                self.reason[v] = reason;
                self.trail.push(lit);
                true
            }
        }
    }

    /// Boolean and theory propagation to a fixpoint: watched-literal unit
    /// propagation, theory assertion of each new trail literal, and — once
    /// both are quiescent — the eager congruence scan that enqueues watched
    /// equality atoms the current classes already decide.
    fn propagate(&mut self) -> Option<Conflict> {
        loop {
            if let Some(conflict) = self.bool_propagate() {
                return Some(conflict);
            }
            if self.theory_qhead < self.trail.len() {
                let lit = self.trail[self.theory_qhead];
                let pos = self.theory_qhead;
                self.theory_qhead += 1;
                if let Some(conflict) = self.theory_assert(lit, pos) {
                    return Some(conflict);
                }
                continue;
            }
            if self.theory_propagate() {
                continue;
            }
            return None;
        }
    }

    /// Eager theory propagation: asks the congruence closure which watched
    /// equality atoms its classes now entail and enqueues them with
    /// proof-forest reasons, so first-UIP learning resolves through them like
    /// clause propagations instead of rediscovering the equalities at
    /// conflicts.  Returns `true` when any literal entered the trail.
    fn theory_propagate(&mut self) -> bool {
        if !self.tp_active {
            return false;
        }
        let stamp = (self.cc.generation(), self.cc.diseq_stamp());
        if self.tp_memo == Some(stamp) {
            return false;
        }
        self.tp_memo = Some(stamp);
        let mut implied = std::mem::take(&mut self.implied_scratch);
        implied.clear();
        self.cc.implied_literals(&mut implied);
        let mut progress = false;
        for imp in &implied {
            let lit = if imp.equal { imp.tag } else { imp.tag ^ 1 };
            if lit_val(&self.value, lit) != 0 {
                continue; // already assigned (either way: a false one is a
                          // conflict the theory assertion path will raise)
            }
            let reason = if imp.equal {
                Reason::CcEq { a: imp.a, b: imp.b }
            } else {
                let (via_a, via_b, tag) = imp.via.expect("disequal implications carry witnesses");
                Reason::CcNeq {
                    a: imp.a,
                    b: imp.b,
                    via_a,
                    via_b,
                    tag,
                }
            };
            self.enqueue(lit, reason);
            self.n_theory_propagations += 1;
            progress = true;
        }
        self.implied_scratch = implied;
        progress
    }

    /// Two-watched-literal unit propagation.
    fn bool_propagate(&mut self) -> Option<Conflict> {
        while self.bool_qhead < self.trail.len() {
            let lit = self.trail[self.bool_qhead];
            self.bool_qhead += 1;
            let false_lit = lit ^ 1;
            let mut ws = std::mem::take(&mut self.watches[false_lit as usize]);
            let mut i = 0;
            'clauses: while i < ws.len() {
                let ci = ws[i] as usize;
                if self.clauses[ci].deleted {
                    ws.swap_remove(i); // lazy watch removal of a tombstone
                    continue;
                }
                // Make sure the false literal sits at index 1.
                if self.clauses[ci].lits[0] == false_lit {
                    self.clauses[ci].lits.swap(0, 1);
                }
                let first = self.clauses[ci].lits[0];
                if lit_val(&self.value, first) == 1 {
                    i += 1; // satisfied: keep watching
                    continue;
                }
                // Look for a non-false replacement watch.
                for k in 2..self.clauses[ci].lits.len() {
                    if lit_val(&self.value, self.clauses[ci].lits[k]) != -1 {
                        self.clauses[ci].lits.swap(1, k);
                        let new_watch = self.clauses[ci].lits[1];
                        self.watches[new_watch as usize].push(ci as u32);
                        ws.swap_remove(i);
                        continue 'clauses;
                    }
                }
                // Unit or conflict.
                if lit_val(&self.value, first) == -1 {
                    self.watches[false_lit as usize] = ws;
                    return Some(Conflict::Clause(ci as u32));
                }
                self.enqueue(first, Reason::Clause(ci as u32));
                self.n_bool_propagations += 1;
                i += 1;
            }
            self.watches[false_lit as usize] = ws;
        }
        None
    }

    /// Feeds one newly assigned literal to the theory layer: the congruence
    /// engine (tagged for explanations) and the arithmetic stack.
    fn theory_assert(&mut self, lit: Lit, trail_pos: usize) -> Option<Conflict> {
        let v = (lit >> 1) as usize;
        let Some(info) = &self.infos[v] else {
            return None; // proxy: no theory content
        };
        let positive = lit & 1 == 0;
        let form = info.form.clone();
        let kind = info.kind;
        // Congruence: equalities merge, negated equalities become
        // disequalities, and remaining atoms are equated with the boolean
        // constants so that congruent occurrences conflict.  A literal the
        // congruence closure itself propagated is *not* re-asserted: the fact
        // is already entailed, and re-asserting a propagated disequality
        // would record a disequality entry tagged with the literal's own id —
        // a self-explanation a later lazy scan could pick up.
        let cc_propagated = matches!(self.reason[v], Reason::CcEq { .. } | Reason::CcNeq { .. });
        if !cc_propagated {
            match (&form, positive) {
                (Form::Eq(a, b), true) => self.cc.assert_eq_tagged(a, b, lit),
                (Form::Eq(a, b), false) => self.cc.assert_neq_tagged(a, b, lit),
                (_, true) => self.cc.assert_eq_tagged(&form, &Form::TRUE, lit),
                (_, false) => self.cc.assert_eq_tagged(&form, &Form::FALSE, lit),
            }
        }
        // Arithmetic: linearise once, now, into the pooled constraint
        // storage; the stack unwinds with the trail by truncating lengths.
        let exprs_start = self.arith_exprs_len;
        self.push_arith_exprs(&form, kind, positive);
        if self.arith_exprs_len > exprs_start {
            self.arith.push((trail_pos, self.arith_exprs_len));
        }
        if self.cc.has_conflict() {
            return Some(match self.cc.explain_conflict() {
                Some(tags) => Conflict::Lits(tags.into_iter().map(|t| t ^ 1).collect()),
                None => Conflict::Opaque,
            });
        }
        None
    }

    // ----- arithmetic -----

    /// Claims the next pooled constraint slot (cleared, allocation reused)
    /// and returns its index.
    fn arith_slot(&mut self) -> usize {
        let i = self.arith_exprs_len;
        if i == self.arith_exprs.len() {
            self.arith_exprs.push(IdLinExpr::default());
        } else {
            self.arith_exprs[i].clear();
        }
        self.arith_exprs_len = i + 1;
        i
    }

    /// Fills a fresh pooled slot with the canonicalised `x - y + shift`, over
    /// the interned ids of its opaque subterms.
    fn arith_diff_into(&mut self, x: &Form, y: &Form, shift: i64) -> usize {
        let slot = self.arith_slot();
        let cc = &mut self.cc;
        linear_diff_into(x, y, shift, &mut self.arith_exprs[slot], &mut |t| {
            cc.intern(t)
        });
        slot
    }

    /// Appends the `expr <= 0` constraints an atom contributes at a polarity
    /// to the pooled storage.
    fn push_arith_exprs(&mut self, form: &Form, kind: AtomKind, positive: bool) {
        let (a, b) = match form {
            Form::Le(a, b) | Form::Lt(a, b) | Form::Eq(a, b) => (a.clone(), b.clone()),
            _ => return,
        };
        match (kind, positive) {
            (AtomKind::Le, true) => {
                self.arith_diff_into(&a, &b, 0);
            }
            (AtomKind::Le, false) => {
                self.arith_diff_into(&b, &a, 1);
            }
            (AtomKind::Lt, true) => {
                self.arith_diff_into(&a, &b, 1);
            }
            (AtomKind::Lt, false) => {
                self.arith_diff_into(&b, &a, 0);
            }
            (AtomKind::IntEq, true) => {
                let first = self.arith_diff_into(&a, &b, 0);
                let second = self.arith_slot(); // always > first
                let (head, tail) = self.arith_exprs.split_at_mut(second);
                tail[0].clone_from(&head[first]);
                tail[0].scale(-1);
            }
            _ => {}
        }
    }

    /// Checks the asserted arithmetic constraints for a linear-integer
    /// conflict over the current congruence classes.  Re-runs only when the
    /// constraint stack or the class structure changed since the last check.
    /// Re-keying an assert-time id onto its class representative is a
    /// `find` + integer push into a pooled buffer — no strings, no hashing,
    /// no allocation once the pools are warm.
    fn arith_conflict(&mut self) -> bool {
        if self.arith.is_empty() {
            return false;
        }
        self.cc.close();
        let state = (self.arith.len(), self.cc.generation());
        if self.arith_memo == Some(state) {
            return false;
        }
        let n = self.arith_exprs_len;
        while self.rekey_buf.len() < n {
            self.rekey_buf.push(IdLinExpr::default());
        }
        for i in 0..n {
            self.rekey_buf[i].clone_from(&self.arith_exprs[i]);
            self.rekey_buf[i].rename(|id| self.cc.find(id));
        }
        if id_conjunction_infeasible(&self.rekey_buf[..n]) {
            true
        } else {
            self.arith_memo = Some(state);
            false
        }
    }

    // ----- branching, backjumping, learning -----

    /// Picks the next decision: the highest-activity unassigned literal of
    /// the first input clause no current literal satisfies.  When every
    /// input clause is satisfied the partial assignment is a saturated
    /// branch in the old tableau's sense — the remaining atoms are don't-
    /// cares and are *not* forced onto the theories.
    fn pick_branch(&self) -> Option<Lit> {
        // The most constrained clause first (the recursive tableau branched
        // on the smallest simplified disjunction — the ordering matters for
        // tree size), then its highest-activity unassigned literal.
        let mut best: Option<(usize, Lit)> = None;
        for clause in &self.clauses[..self.input_clauses] {
            if let Some(p) = clause.relevance {
                if lit_val(&self.value, p) != 1 {
                    continue; // unchosen subformula: vacuously satisfiable
                }
            }
            let mut open = 0usize;
            let mut candidate: Option<Lit> = None;
            let mut satisfied = false;
            for &l in &clause.lits {
                match lit_val(&self.value, l) {
                    1 => {
                        satisfied = true;
                        break;
                    }
                    -1 => {}
                    _ => {
                        open += 1;
                        match candidate {
                            Some(b)
                                if self.activity[(l >> 1) as usize]
                                    <= self.activity[(b >> 1) as usize] => {}
                            _ => candidate = Some(l),
                        }
                    }
                }
            }
            if satisfied {
                continue;
            }
            debug_assert!(
                candidate.is_some(),
                "an all-false clause survived propagation"
            );
            if best.is_none_or(|(width, _)| open < width) {
                let lit = candidate.expect("non-false literal present");
                if open == 2 {
                    return Some(lit); // no unsatisfied clause can be smaller
                }
                best = Some((open, lit));
            }
        }
        best.map(|(_, lit)| lit)
    }

    fn decide(&mut self, lit: Lit) {
        self.n_decisions += 1;
        self.trail_lim.push(self.trail.len());
        self.cc.push();
        let ok = self.enqueue(lit, Reason::Decision);
        debug_assert!(ok, "decision literals are unassigned");
    }

    /// Unassigns everything above the given decision level, restoring the
    /// congruence and arithmetic state in lockstep.
    fn backtrack(&mut self, target: u32) {
        let target = target as usize;
        if self.trail_lim.len() <= target {
            return;
        }
        let mark = self.trail_lim[target];
        for &lit in &self.trail[mark..] {
            let v = (lit >> 1) as usize;
            self.value[v] = 0;
            self.reason[v] = Reason::Undef;
        }
        self.trail.truncate(mark);
        self.trail_lim.truncate(target);
        self.bool_qhead = mark;
        self.theory_qhead = mark;
        while self.arith.last().is_some_and(|&(pos, _)| pos >= mark) {
            self.arith.pop();
        }
        // Retire the popped entries' constraints: the pool keeps the buffers,
        // only the logical length rewinds.
        self.arith_exprs_len = self.arith.last().map_or(0, |&(_, end)| end);
        self.cc.pop_to(target);
    }

    /// Learns from a conflict and backjumps.  Returns `false` when the
    /// contradiction holds at the root (the refutation succeeded).
    fn resolve_conflict(&mut self, conflict: Conflict) -> bool {
        self.n_conflicts += 1;
        self.conflicts_since_restart += 1;
        if self.n_conflicts.is_multiple_of(ACTIVITY_DECAY_INTERVAL) {
            for a in &mut self.activity {
                *a >>= 1;
            }
            for a in &mut self.clause_activity {
                *a >>= 1;
            }
        }
        if self.n_conflicts.is_multiple_of(DELETION_INTERVAL) {
            self.reduce_learned();
        }
        if self.current_level() == 0 {
            return false;
        }
        match self.analyze(conflict) {
            Analyzed::Root => return false,
            Analyzed::Learned(learnt, backjump) => {
                self.backtrack(backjump);
                let reason = self.record_learnt(&learnt);
                let ok = self.enqueue(learnt[0], reason);
                debug_assert!(ok, "the asserting literal is unassigned after backjump");
                return true;
            }
            Analyzed::Fallback => {}
        }
        // Decision-negation fallback: under d1 .. d_{L-1} the decision d_L is
        // contradictory, so flip it.
        let decisions: Vec<Lit> = self.trail_lim.iter().map(|&pos| self.trail[pos]).collect();
        let mut learnt = Vec::with_capacity(decisions.len());
        learnt.push(decisions[decisions.len() - 1] ^ 1);
        for &d in decisions[..decisions.len() - 1].iter().rev() {
            learnt.push(d ^ 1);
        }
        self.backtrack(self.current_level() - 1);
        let reason = self.record_learnt(&learnt);
        let ok = self.enqueue(learnt[0], reason);
        debug_assert!(ok, "the flipped decision is unassigned after backtracking");
        true
    }

    /// Records a learned clause and returns the reason to attach to its
    /// asserting literal.  The clause cap is live: reaching it triggers a
    /// reduction sweep, and only if the sweep frees nothing (everything
    /// locked) is the clause dropped.
    fn record_learnt(&mut self, learnt: &[Lit]) -> Reason {
        if learnt.len() < 2 {
            return Reason::Theory;
        }
        if self.learned_count >= MAX_LEARNED_CLAUSES {
            self.reduce_learned();
            if self.learned_count >= MAX_LEARNED_CLAUSES {
                return Reason::Theory;
            }
        }
        let ci = self.clauses.len() as u32;
        self.watches[learnt[0] as usize].push(ci);
        self.watches[learnt[1] as usize].push(ci);
        self.clauses.push(Clause {
            lits: learnt.to_vec(),
            relevance: None,
            deleted: false,
        });
        // A fresh clause starts at the current maximum so it survives the
        // next sweep long enough to prove itself.
        let start = self
            .clause_activity
            .iter()
            .skip(self.input_clauses)
            .copied()
            .max()
            .unwrap_or(0);
        self.clause_activity.push(start);
        self.learned_count += 1;
        self.n_learned += 1;
        Reason::Clause(ci)
    }

    /// Activity-based learned-clause deletion: tombstones the lower-activity
    /// half of the unlocked learned clauses.  Locked clauses (the reason of a
    /// trail literal) are untouchable — analysis may still resolve through
    /// them.  Watch entries of tombstones are dropped lazily by
    /// `bool_propagate`; the literals stay so an in-flight conflict reference
    /// remains readable.
    fn reduce_learned(&mut self) {
        let mut candidates: Vec<u32> = (self.input_clauses..self.clauses.len())
            .filter(|&ci| !self.clauses[ci].deleted)
            .map(|ci| ci as u32)
            .collect();
        if candidates.len() < 2 {
            return;
        }
        let locked: std::collections::HashSet<u32> = self
            .trail
            .iter()
            .filter_map(|&lit| match self.reason[(lit >> 1) as usize] {
                Reason::Clause(ci) if ci as usize >= self.input_clauses => Some(ci),
                _ => None,
            })
            .collect();
        candidates.retain(|ci| !locked.contains(ci));
        candidates.sort_by_key(|&ci| self.clause_activity[ci as usize]);
        for &ci in &candidates[..candidates.len() / 2] {
            self.clauses[ci as usize].deleted = true;
            self.learned_count -= 1;
        }
    }

    /// First-UIP conflict analysis.  Theory-propagated literals resolve
    /// through their lazy congruence explanations exactly like clause
    /// reasons: the explaining literals were all on the trail before the
    /// propagated one, so the backwards walk stays well-founded.
    fn analyze(&mut self, conflict: Conflict) -> Analyzed {
        let mut src: Vec<Lit> = match conflict {
            Conflict::Clause(ci) => {
                self.clause_activity[ci as usize] += 1;
                self.clauses[ci as usize].lits.clone()
            }
            Conflict::Lits(lits) => lits,
            Conflict::Opaque => return Analyzed::Fallback,
        };
        // A theory conflict may live entirely below the current level (e.g. a
        // congruence discovered while interning): move down to its level
        // first — the clause is still falsified there.
        let conflict_level = src
            .iter()
            .map(|&l| self.level[(l >> 1) as usize])
            .max()
            .unwrap_or(0);
        if conflict_level == 0 {
            return Analyzed::Root;
        }
        if conflict_level < self.current_level() {
            self.backtrack(conflict_level);
        }
        let current = self.current_level();
        let mut learnt: Vec<Lit> = vec![0];
        let mut to_clear: Vec<usize> = Vec::new();
        let mut counter = 0usize;
        let mut idx = self.trail.len();
        let mut aborted = false;
        loop {
            for &q in &src {
                let v = (q >> 1) as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    to_clear.push(v);
                    self.activity[v] += 1;
                    if self.level[v] == current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk back to the next marked literal of the current level.
            loop {
                idx -= 1;
                if self.seen[(self.trail[idx] >> 1) as usize] {
                    break;
                }
            }
            let p = self.trail[idx];
            let pv = (p >> 1) as usize;
            self.seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = p ^ 1;
                break;
            }
            match self.reason[pv] {
                Reason::Clause(ci) => {
                    // The propagated literal is lits[0]; resolve on the rest.
                    self.clause_activity[ci as usize] += 1;
                    src = self.clauses[ci as usize].lits[1..].to_vec();
                }
                Reason::CcEq { a, b } => match self.cc.explain_terms(a, b) {
                    // The explanation is the set of asserted literals whose
                    // merges connected the pair; they are false in the
                    // implicit clause `tags -> p`, i.e. negated in `src`.
                    Some(tags) => src = tags.into_iter().map(|t| t ^ 1).collect(),
                    None => {
                        aborted = true;
                        break;
                    }
                },
                Reason::CcNeq {
                    a,
                    b,
                    via_a,
                    via_b,
                    tag,
                } => {
                    let mut explained = false;
                    if let Some(mut tags) = self.cc.explain_terms(a, via_a) {
                        if let Some(more) = self.cc.explain_terms(b, via_b) {
                            tags.extend(more);
                            if let Some(t) = tag {
                                if !tags.contains(&t) {
                                    tags.push(t);
                                }
                            }
                            src = tags.into_iter().map(|t| t ^ 1).collect();
                            explained = true;
                        }
                    }
                    if !explained {
                        aborted = true;
                        break;
                    }
                }
                _ => {
                    // A `Reason::Theory` literal (or a decision, which
                    // cannot happen while counter > 0): no clause to
                    // resolve on.
                    aborted = true;
                    break;
                }
            }
        }
        for v in to_clear {
            self.seen[v] = false;
        }
        if aborted {
            return Analyzed::Fallback;
        }
        // Backjump to the deepest level among the remaining literals, which
        // must sit at index 1 to satisfy the watch invariant.
        let mut backjump = 0u32;
        let mut pos = 1usize;
        for (i, &l) in learnt.iter().enumerate().skip(1) {
            let lv = self.level[(l >> 1) as usize];
            if lv > backjump {
                backjump = lv;
                pos = i;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, pos);
        }
        Analyzed::Learned(learnt, backjump)
    }

    // ----- the main loop -----

    fn solve(&mut self) -> GroundResult {
        self.input_clauses = self.clauses.len();
        // Register every equality atom in the congruence watch index, at
        // depth 0 so the interned ids outlive every backjump.  The search
        // creates no atoms, so this covers every equality it will assign.
        for v in 0..self.infos.len() {
            if let Some(info) = &self.infos[v] {
                if let Form::Eq(a, b) = &info.form {
                    let (a, b) = (a.clone(), b.clone());
                    self.cc.watch_pair(&a, &b, (v as Lit) << 1);
                    self.tp_active = true;
                }
            }
        }
        loop {
            if self.budget == 0 {
                return GroundResult::Unknown;
            }
            self.budget -= 1;
            // Poll the deadline once every 64 steps: cheap enough to leave
            // the loop unaffected, frequent enough that a timed-out search
            // unwinds within microseconds.
            if self.budget.is_multiple_of(64) && self.cancel.is_cancelled() {
                return GroundResult::Unknown;
            }
            if self.root_conflict {
                return GroundResult::Unsat;
            }
            if let Some(conflict) = self.propagate() {
                if !self.resolve_conflict(conflict) {
                    return GroundResult::Unsat;
                }
                continue;
            }
            // Eager arithmetic at every quiescent point (the recursive
            // tableau ran Fourier–Motzkin at every branch node); the memo
            // makes unchanged re-checks free.
            if self.arith_conflict() {
                if !self.resolve_conflict(Conflict::Opaque) {
                    return GroundResult::Unsat;
                }
                continue;
            }
            // Luby-scheduled restart: back to the root, keeping the learned
            // clauses and activities (checked only at quiescent points, so a
            // restart never abandons an in-flight propagation).
            if self.conflicts_since_restart >= self.restart_limit && self.current_level() > 0 {
                self.conflicts_since_restart = 0;
                self.restart_count += 1;
                self.restart_limit = RESTART_BASE * luby(self.restart_count);
                self.backtrack(0);
                continue;
            }
            match self.pick_branch() {
                Some(lit) => self.decide(lit),
                // Every input clause is satisfied and the theories agree:
                // the saturated leaf is an open branch.
                None => return GroundResult::Unknown,
            }
        }
    }
}

/// Outcome of first-UIP analysis.
enum Analyzed {
    /// The learned clause and the level to backjump to.
    Learned(Vec<Lit>, u32),
    /// The conflict holds at the root: the refutation succeeded.
    Root,
    /// No clause derivable (an unexplained theory step): learn the decision
    /// clause instead.
    Fallback,
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...): the value at
/// 0-based index `x`, computed the classic MiniSat way.
fn luby(mut x: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

// ---------------------------------------------------------------------------
// Shared literal-level helpers (also used by the standalone checker)
// ---------------------------------------------------------------------------

/// Returns `true` if the form is a literal (an atom or a negated atom).
fn is_literal(form: &Form) -> bool {
    match form {
        Form::Not(inner) => inner.is_atom(),
        other => other.is_atom(),
    }
}

/// Feeds one literal to the congruence engine: equalities merge, negated
/// equalities become disequalities, and remaining atoms are equated with the
/// boolean constants so that congruent occurrences conflict.
fn assert_into_cc(cc: &mut Congruence, literal: &Form) {
    match literal {
        Form::Eq(a, b) => cc.assert_eq(a, b),
        Form::Not(inner) => {
            if let Form::Eq(a, b) = inner.as_ref() {
                cc.assert_neq(a, b);
            } else {
                // Negative atom: equate it with false.
                cc.assert_eq(inner, &Form::FALSE);
            }
        }
        Form::Lt(..) | Form::Le(..) => {
            // Arithmetic is handled by the linear pass; also record the atom
            // as true so that p < q together with ~(p < q) conflicts via
            // congruence.
            cc.assert_eq(literal, &Form::TRUE);
        }
        other => cc.assert_eq(other, &Form::TRUE),
    }
}

/// Extracts the linear-arithmetic constraints (`expr <= 0` each) of a
/// literal set over the congruence classes of `cc`, keyed by class id.
fn arith_constraints(literals: &[Form], env: &SortEnv, cc: &mut Congruence) -> Vec<IdLinExpr> {
    let mut constraints: Vec<IdLinExpr> = Vec::new();
    for literal in literals {
        match literal {
            Form::Le(a, b) => constraints.push(linear_diff(a, b, 0, cc)),
            Form::Lt(a, b) => constraints.push(linear_diff(a, b, 1, cc)),
            Form::Eq(a, b)
                if env.sort_of(a) == Sort::Int
                    || env.sort_of(b) == Sort::Int
                    || is_arith(a)
                    || is_arith(b) =>
            {
                let expr = linear_diff(a, b, 0, cc);
                let mut neg = expr.clone();
                neg.scale(-1);
                constraints.push(expr);
                constraints.push(neg);
            }
            Form::Not(inner) => match inner.as_ref() {
                Form::Le(a, b) => constraints.push(linear_diff(b, a, 1, cc)),
                Form::Lt(a, b) => constraints.push(linear_diff(b, a, 0, cc)),
                _ => {}
            },
            _ => {}
        }
    }
    constraints
}

/// Checks whether a conjunction of ground literals is inconsistent in the
/// combined theory of equality with uninterpreted functions, the free theory
/// of field/array updates (via the eagerly added axioms), and linear integer
/// arithmetic.  Standalone entry point used by tests, diagnostics and the
/// naive reference solver; the CDCL engine asserts literals incrementally
/// instead.
pub fn theory_conflict(literals: &[Form], env: &SortEnv) -> bool {
    let mut cc = Congruence::new();
    for literal in literals {
        assert_into_cc(&mut cc, literal);
    }
    if cc.has_conflict() {
        return true;
    }
    let constraints = arith_constraints(literals, env, &mut cc);
    if constraints.is_empty() {
        return false;
    }
    id_conjunction_infeasible(&constraints)
}

/// Linearises `a - b + shift` into a canonical id-keyed expression, mapping
/// non-arithmetic sub-terms to their congruence class ids (no string names,
/// no per-coefficient allocation).
fn linear_diff(a: &Form, b: &Form, shift: i64, cc: &mut Congruence) -> IdLinExpr {
    let mut out = IdLinExpr::default();
    linear_diff_into(a, b, shift, &mut out, &mut |t| cc.class_of(t));
    out
}

/// Writes the canonical `a - b + shift` into `out`, abstracting every opaque
/// subterm by the id `term_id` gives it.
fn linear_diff_into(
    a: &Form,
    b: &Form,
    shift: i64,
    out: &mut IdLinExpr,
    term_id: &mut impl FnMut(&Form) -> TermId,
) {
    out.clear();
    linearise(a, 1, out, term_id);
    linearise(b, -1, out, term_id);
    out.canonicalize();
    out.shift(shift);
}

fn is_arith(form: &Form) -> bool {
    matches!(
        form,
        Form::Add(..) | Form::Sub(..) | Form::Mul(..) | Form::Neg(_) | Form::Int(_)
    )
}

/// Accumulates `k * form` into `out` (the caller canonicalises once at the
/// end).  Total: a subterm that is not linear arithmetic, a non-linear
/// product, and a subterm whose coefficient or constant would overflow
/// `i64` are each abstracted as one opaque term by `term_id`, so
/// linearisation cannot fail and never wraps.
fn linearise(form: &Form, k: i64, out: &mut IdLinExpr, term_id: &mut impl FnMut(&Form) -> TermId) {
    match form {
        Form::Int(value) => {
            if let Some(kv) = k.checked_mul(*value) {
                return out.shift(kv);
            }
        }
        Form::Add(a, b) => {
            linearise(a, k, out, term_id);
            return linearise(b, k, out, term_id);
        }
        Form::Sub(a, b) => {
            if let Some(neg) = k.checked_neg() {
                linearise(a, k, out, term_id);
                return linearise(b, neg, out, term_id);
            }
        }
        Form::Neg(a) => {
            if let Some(neg) = k.checked_neg() {
                return linearise(a, neg, out, term_id);
            }
        }
        Form::Mul(a, b) => {
            if let (Form::Int(c), other) | (other, Form::Int(c)) = (a.as_ref(), b.as_ref()) {
                if let Some(kc) = k.checked_mul(*c) {
                    return linearise(other, kc, out, term_id);
                }
            }
        }
        _ => {}
    }
    out.push_term(term_id(form), k);
}

// ---------------------------------------------------------------------------
// The retained naive DPLL reference
// ---------------------------------------------------------------------------

/// The retained naive recursive DPLL: the pre-CDCL tableau search (minus the
/// incremental theory engines), kept as the differential-testing oracle for
/// the CDCL engine (see `tests/cdcl.rs`) and as the "before" side of the
/// allocation pin (see `tests/alloc.rs`).  Note the per-disjunct `rest.clone()` and `Form::Or`
/// re-wrap at every branch point, and the whole-branch theory re-check at
/// every node — exactly the costs the clause database and the incremental
/// constraint stack removed.
pub mod reference {
    use super::{is_literal, theory_conflict, GroundResult};
    use ipl_logic::normal::nnf;
    use ipl_logic::{Form, SortEnv};
    use std::collections::HashSet;

    /// Attempts to refute the conjunction of the given ground formulas with
    /// the naive search, within `max_nodes` branch nodes.
    pub fn refute_naive(forms: &[Form], env: &SortEnv, max_nodes: usize) -> GroundResult {
        let mut state = Naive {
            env,
            nodes: max_nodes,
            literals: Vec::new(),
            literal_set: HashSet::new(),
        };
        if state.search(forms.to_vec()) {
            GroundResult::Unsat
        } else {
            GroundResult::Unknown
        }
    }

    /// The pigeonhole principle with `holes + 1` pigeons as a ground
    /// formula set: every pigeon sits in some hole, no two pigeons share a
    /// hole.  The classic hard instance for chronological backtracking —
    /// the learning pin in `tests/cdcl.rs` and the allocation pin in
    /// `tests/alloc.rs` both import it from here, so the two pins cannot
    /// drift apart.
    pub fn pigeonhole(holes: usize) -> Vec<Form> {
        let pigeons = holes + 1;
        let p = |i: usize, j: usize| Form::var(format!("p_{i}_{j}"));
        let mut forms = Vec::new();
        for i in 0..pigeons {
            forms.push(Form::Or((0..holes).map(|j| p(i, j)).collect()));
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in i1 + 1..pigeons {
                    forms.push(Form::Or(vec![Form::not(p(i1, j)), Form::not(p(i2, j))]));
                }
            }
        }
        forms
    }

    struct Naive<'a> {
        env: &'a SortEnv,
        nodes: usize,
        literals: Vec<Form>,
        literal_set: HashSet<Form>,
    }

    impl Naive<'_> {
        fn search(&mut self, mut pending: Vec<Form>) -> bool {
            if self.nodes == 0 {
                return false;
            }
            self.nodes -= 1;
            let mut disjunctions: Vec<Vec<Form>> = Vec::new();
            while let Some(form) = pending.pop() {
                match form {
                    Form::Bool(true) => {}
                    Form::Bool(false) => return true,
                    Form::And(parts) => pending.extend(parts),
                    Form::Or(parts) => disjunctions.push(parts),
                    Form::Implies(..) | Form::Iff(..) | Form::Not(_) if !is_literal(&form) => {
                        pending.push(nnf(&form));
                    }
                    other => {
                        if self.literal_set.contains(&Form::not(other.clone())) {
                            return true;
                        }
                        if self.literal_set.insert(other.clone()) {
                            self.literals.push(other);
                        }
                    }
                }
            }

            // Simplify disjunctions against the current literal set.
            let mut simplified: Vec<Vec<Form>> = Vec::new();
            let mut units: Vec<Form> = Vec::new();
            for disjunction in disjunctions {
                let mut remaining = Vec::new();
                let mut satisfied = false;
                for disjunct in disjunction {
                    if self.literal_set.contains(&disjunct) {
                        satisfied = true;
                        break;
                    }
                    if self.literal_set.contains(&Form::not(disjunct.clone())) {
                        continue; // this disjunct is already false
                    }
                    remaining.push(disjunct);
                }
                if satisfied {
                    continue;
                }
                match remaining.len() {
                    0 => return true, // empty clause
                    1 => units.push(remaining.pop().expect("len checked")),
                    _ => simplified.push(remaining),
                }
            }
            if !units.is_empty() {
                let mut pending: Vec<Form> = simplified.into_iter().map(Form::Or).collect();
                pending.extend(units);
                return self.search(pending);
            }

            if theory_conflict(&self.literals, self.env) {
                return true;
            }
            if simplified.is_empty() {
                return false; // saturated, consistent branch
            }

            // Branch on the smallest disjunction, cloning the rest each time.
            simplified.sort_by_key(Vec::len);
            let chosen = simplified.remove(0);
            let rest: Vec<Form> = simplified.into_iter().map(Form::Or).collect();
            let mark = self.literals.len();
            for disjunct in chosen {
                let mut pending = rest.clone();
                pending.push(disjunct);
                let closed = self.search(pending);
                for literal in self.literals.drain(mark..) {
                    self.literal_set.remove(&literal);
                }
                if !closed {
                    return false;
                }
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::build_problem;
    use ipl_logic::parser::parse_form;

    fn env() -> SortEnv {
        let mut e = SortEnv::new();
        for v in ["i", "j", "k", "size", "index", "csize", "x", "y", "z"] {
            e.declare_var(v, Sort::Int);
        }
        for v in ["o", "p", "q", "a", "b", "c", "first", "elements"] {
            e.declare_var(v, Sort::Obj);
        }
        e.declare_var("next", Sort::obj_field());
        e.declare_var("content", Sort::int_obj_set());
        e.declare_var("nodes", Sort::obj_set());
        for v in ["s", "t"] {
            e.declare_var(v, Sort::obj_set());
        }
        e.declare_var("arrayState", Sort::obj_array_state());
        e
    }

    /// Convenience: does `assumptions |- goal` hold for the ground solver?
    fn proves(assumptions: &[&str], goal: &str) -> bool {
        let env = env();
        let assumptions: Vec<Form> = assumptions.iter().map(|s| parse_form(s).unwrap()).collect();
        let goal = parse_form(goal).unwrap();
        let problem = build_problem(&assumptions, &goal, &env);
        // Ground solver only: ignore quantified assumptions.
        refute(
            &problem.ground,
            &env,
            &ProverConfig::default(),
            &Cancel::never(),
        ) == GroundResult::Unsat
    }

    #[test]
    fn propositional_reasoning() {
        assert!(proves(&["p", "p --> q"], "q"));
        assert!(proves(&["p | q", "~p"], "q"));
        assert!(!proves(&["p | q"], "p"));
        assert!(proves(&["p <-> q", "q"], "p"));
    }

    #[test]
    fn equality_reasoning() {
        assert!(proves(&["a = b", "b = c"], "a = c"));
        assert!(proves(&["a = b"], "g(a) = g(b)"));
        assert!(!proves(&["a = b"], "a = c"));
        assert!(proves(&["a = b", "~(a = c)"], "~(b = c)"));
    }

    #[test]
    fn arithmetic_reasoning() {
        assert!(proves(&["0 <= i", "i < size"], "0 <= i + 1"));
        assert!(proves(&["i < size", "size <= j"], "i < j"));
        assert!(proves(&["x = y + 1"], "y < x"));
        assert!(!proves(&["x <= y"], "x < y"));
        assert!(proves(&["index < size", "~(index < size)"], "false"));
    }

    #[test]
    fn combined_euf_and_arithmetic() {
        // x = f(a), f(a) = 3 |- x >= 3
        assert!(proves(&["x = g(a)", "g(a) = 3"], "3 <= x"));
        // field reads participate: o.next = p, p = q |- o.next = q
        assert!(proves(&["o.next = p", "p = q"], "o.next = q"));
    }

    #[test]
    fn integer_disequality_case_split() {
        assert!(proves(&["0 <= i", "i <= 1", "~(i = 0)"], "i = 1"));
    }

    #[test]
    fn late_equality_reaches_earlier_arithmetic() {
        // The arithmetic facts are asserted before the equality that makes
        // their abstracted terms congruent; the id-based re-keying must still
        // find the conflict (the assert-time linearisation is over term ids,
        // not over class representatives frozen at assert time).
        assert!(proves(&["g(a) <= 3", "5 <= g(b)", "a = b"], "false"));
    }

    #[test]
    fn field_update_reasoning() {
        // newnext = next[a := v], b != a |- b.newnext = b.next
        assert!(proves(
            &["newnext = next[a := v]", "~(b = a)"],
            "b.newnext = b.next"
        ));
        // and the written cell reads back the new value
        assert!(proves(&["newnext = next[a := v]"], "a.newnext = v"));
        // but without the disequality the frame fact must not be provable
        assert!(!proves(&["newnext = next[a := v]"], "b.newnext = b.next"));
    }

    #[test]
    fn array_update_reasoning() {
        let env = env();
        let state2 = Form::array_write(
            Form::var("arrayState"),
            Form::var("elements"),
            Form::var("i"),
            Form::var("v"),
        );
        let assumption = Form::eq(Form::var("arrayState2"), state2);
        // arrayState2 = arrayState[(elements,i) := v], j != i |-
        //     arrayState2(elements, j) = arrayState(elements, j)
        let goal = Form::eq(
            Form::array_read(
                Form::var("arrayState2"),
                Form::var("elements"),
                Form::var("j"),
            ),
            Form::array_read(
                Form::var("arrayState"),
                Form::var("elements"),
                Form::var("j"),
            ),
        );
        let problem = build_problem(
            &[assumption.clone(), parse_form("~(j = i)").unwrap()],
            &goal,
            &env,
        );
        assert_eq!(
            refute(
                &problem.ground,
                &env,
                &ProverConfig::default(),
                &Cancel::never()
            ),
            GroundResult::Unsat
        );
        // Hit case.
        let goal_hit = Form::eq(
            Form::array_read(
                Form::var("arrayState2"),
                Form::var("elements"),
                Form::var("i"),
            ),
            Form::var("v"),
        );
        let problem = build_problem(&[assumption], &goal_hit, &env);
        assert_eq!(
            refute(
                &problem.ground,
                &env,
                &ProverConfig::default(),
                &Cancel::never()
            ),
            GroundResult::Unsat
        );
    }

    #[test]
    fn membership_after_set_expansion() {
        // (i, o) in {(j, e) | 0 <= j & j < size & e = q} should follow from the
        // component facts.
        assert!(proves(
            &["0 <= i", "i < size", "o = q"],
            "(i, o) in {(j, e) : int * obj | 0 <= j & j < size & e = q}"
        ));
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let env = env();
        // A zero budget refuses to search at all (the CDCL engine charges
        // its budget per decision/conflict/propagation round, so a trivially
        // refutable set needs at least one unit of budget).
        let config = ProverConfig {
            max_branch_nodes: 0,
            ..ProverConfig::default()
        };
        let assumptions = vec![parse_form("p | q").unwrap(), parse_form("~p | r").unwrap()];
        let goal = parse_form("q | r").unwrap();
        let problem = build_problem(&assumptions, &goal, &env);
        assert_eq!(
            refute(&problem.ground, &env, &config, &Cancel::never()),
            GroundResult::Unknown
        );
    }

    #[test]
    fn theory_conflict_detects_plain_contradictions() {
        let env = env();
        let literals = vec![parse_form("i < 3").unwrap(), parse_form("3 < i").unwrap()];
        assert!(theory_conflict(&literals, &env));
        let literals = vec![parse_form("i < 3").unwrap(), parse_form("i < 5").unwrap()];
        assert!(!theory_conflict(&literals, &env));
    }

    #[test]
    fn search_statistics_are_recorded() {
        let before = stats_snapshot();
        assert_eq!(
            refute(
                &reference::pigeonhole(2),
                &env(),
                &ProverConfig::default(),
                &Cancel::never(),
            ),
            GroundResult::Unsat
        );
        let delta = stats_snapshot().since(&before);
        assert!(delta.decisions > 0, "branching must happen: {delta:?}");
        assert!(
            delta.bool_propagations > 0,
            "unit propagation must run: {delta:?}"
        );
        assert!(delta.conflicts > 0, "conflicts must be analysed: {delta:?}");
    }

    /// Refutes raw ground literals (bypassing preprocessing, so the literal
    /// set is exactly what the tableau sees).
    fn refute_literals(literals: &[&str]) -> GroundResult {
        let forms: Vec<Form> = literals.iter().map(|s| parse_form(s).unwrap()).collect();
        refute(&forms, &env(), &ProverConfig::default(), &Cancel::never())
    }

    #[test]
    fn branch_state_is_restored_after_backtracking() {
        // A disjunction whose first branch closes by theory conflict and whose
        // second closes by a different equality: the congruence state of the
        // first branch must not leak into the second.
        assert!(proves(&["a = b | a = c", "~(a = b)", "~(a = c)"], "false"));
        // And a non-theorem exercising the same machinery must still fail.
        assert!(!proves(&["a = b | a = c"], "a = b"));
    }

    // ----- the learning machinery -----

    #[test]
    fn congruence_conflicts_produce_learned_clauses() {
        // Each disjunct of the case split re-derives the same congruence
        // conflict; with learning the second branch is pruned by the clause
        // learned in the first.
        let before = stats_snapshot();
        assert_eq!(
            refute_literals(&[
                "p | q",
                "a = b | a = c",
                "g(a) = x",
                "g(b) = y",
                "g(c) = y",
                "~(x = y)"
            ]),
            GroundResult::Unsat
        );
        let delta = stats_snapshot().since(&before);
        assert!(delta.conflicts > 0, "{delta:?}");
    }

    #[test]
    fn naive_reference_agrees_on_simple_sequents() {
        let env = env();
        for (assumptions, goal, expected) in [
            (vec!["p", "p --> q"], "q", true),
            (vec!["p | q", "~p"], "q", true),
            (vec!["p | q"], "p", false),
            (vec!["a = b", "b = c"], "a = c", true),
            (vec!["0 <= i", "i < size"], "0 <= i + 1", true),
        ] {
            let assumptions: Vec<Form> =
                assumptions.iter().map(|s| parse_form(s).unwrap()).collect();
            let goal = parse_form(goal).unwrap();
            let problem = build_problem(&assumptions, &goal, &env);
            let naive = reference::refute_naive(&problem.ground, &env, 100_000);
            assert_eq!(
                naive == GroundResult::Unsat,
                expected,
                "naive on {problem:?}"
            );
            let cdcl = refute(
                &problem.ground,
                &env,
                &ProverConfig::default(),
                &Cancel::never(),
            );
            assert_eq!(cdcl, naive, "CDCL and naive disagree on {problem:?}");
        }
    }
}
