//! Trigger-driven quantifier instantiation (E-matching) on top of the ground
//! solver.
//!
//! Universally quantified assumptions are instantiated in rounds, each
//! followed by a ground refutation attempt.  The cascade runs this stage
//! after the ground stage has failed on the same problem under the same
//! environment and budget, so it starts by instantiating, and a problem with
//! no quantified formula gets `Unknown` at once.
//!
//! For each quantifier the engine selects *triggers* — multi-patterns of
//! uninterpreted applications, field reads, array reads and membership atoms
//! that together cover every binder — and matches them against a term index
//! built from the congruence classes of the current ground set (`Matcher`).
//! Instances are therefore generated only for terms that actually occur in
//! the problem, in the style of Simplify's E-matching: a quantifier whose
//! triggers match nothing is not instantiated.  Only a quantifier for which
//! no trigger can be selected (a purely arithmetic body, say) is enumerated
//! over a bounded pool of the problem's terms, sorted by size (`TermPool`).
//!
//! Rounds keep an *instance frontier*: after the first round a quantifier is
//! only matched against candidate terms added since it was last processed,
//! so the engine never rescans the full (growing) ground set.  The frontier
//! rewinds when completeness demands it: a match scan truncated by the
//! per-quantifier budget keeps its watermark, and newly learned unit
//! equalities (which can make old terms match) rewind every quantifier.  An
//! instance a rewound match or the pool builds again is already in the
//! ground set and is not added twice.
//!
//! The search remains budgeted — rounds, matches per quantifier and total
//! instances are all capped.  This mirrors the behaviour of the paper's
//! automated provers: powerful, but defeated by large assumption bases and by
//! existential goals whose witness term does not already occur in the
//! problem.  The integrated proof language exists precisely to remove those
//! obstacles (`from` clauses shrink the assumption base,
//! `witness`/`instantiate` supply the terms).

use crate::cc::Congruence;
use crate::ground::{refute, GroundResult};
use crate::preprocess::{axioms_for, Accesses, Problem};
use crate::{Cancel, ProverConfig};
use ipl_logic::simplify::simplify;
use ipl_logic::subst::substitute;
use ipl_logic::{free_vars, Form, Sort, SortEnv};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Maximum number of (multi-)patterns selected per quantifier.
const MAX_TRIGGERS_PER_QUANTIFIER: usize = 4;

/// Maximum AST size of a single pattern term.
const MAX_PATTERN_SIZE: usize = 12;

/// Maximum matches accepted per quantifier per round.
const MAX_MATCHES_PER_QUANTIFIER: usize = 96;

/// Attempts to refute the problem by trigger-driven quantifier
/// instantiation: each round instantiates, then refutes the grown ground
/// set under the problem's environment.  The ground set alone is the one the
/// ground stage has already failed to refute.
pub fn refute_with_instantiation(
    problem: &Problem,
    config: &ProverConfig,
    assumption_count: usize,
    cancel: &Cancel,
) -> GroundResult {
    if problem.quantified.is_empty() {
        return GroundResult::Unknown;
    }
    let env = &*problem.env;
    let mut ground: Vec<Form> = problem.ground.clone();
    let mut quantifiers: Vec<Quantifier> = problem
        .quantified
        .iter()
        .map(|q| Quantifier::new(q, env))
        .collect();
    // Seeded with the initial ground set so that neither re-derived axioms
    // nor instances duplicating an existing formula are added twice.
    let mut seen_instances: HashSet<Form> = ground.iter().cloned().collect();
    let instance_budget = config.effective_instances(assumption_count);
    let mut total_instances = 0usize;

    let mut matcher = Matcher::default();
    matcher.index_forms(&ground, 0);

    // Accesses of the problem and its instances (the initial ground set
    // already carries its axioms from `build_problem`), plus every equality
    // occurring *anywhere* in the ground set — including under disjunctions,
    // where a write equality is only branch-locally satisfiable and thus
    // invisible to the matcher's unit-equality congruence.
    let mut accesses = Accesses::default();
    let mut ground_equalities: HashSet<Form> = HashSet::new();
    for form in problem.all_forms() {
        accesses.collect(form);
    }
    for form in &ground {
        collect_equalities(form, &mut ground_equalities);
    }
    let mut ground_scanned = ground.len();

    for round in 0..config.instantiation_rounds {
        if cancel.is_cancelled() {
            break;
        }
        // Only a quantifier without triggers draws on the pool.
        let pool = if quantifiers.iter().any(|q| q.triggers.is_empty()) {
            let forms = ground.iter().chain(quantifiers.iter().map(|q| &q.form));
            term_pool(forms, env)
        } else {
            TermPool::default()
        };

        let mut new_ground = Vec::new();
        let mut new_quantified = Vec::new();
        'quantifiers: for quantifier in &mut quantifiers {
            let instances = if quantifier.triggers.is_empty() {
                instantiate_from_pool(quantifier, &pool, config)
            } else {
                let assignments = matcher.match_quantifier(
                    &quantifier.triggers,
                    &quantifier.binder_names,
                    quantifier.frontier,
                    MAX_MATCHES_PER_QUANTIFIER,
                );
                // Advance the frontier only when this round's matching was
                // exhaustive: a truncated scan must be allowed to revisit old
                // candidates next round.
                if assignments.len() < MAX_MATCHES_PER_QUANTIFIER {
                    quantifier.frontier = round + 1;
                }
                let instantiate = |assignment| quantifier.instantiate(assignment);
                assignments.iter().filter_map(instantiate).collect()
            };
            if cancel.is_cancelled() {
                break 'quantifiers;
            }
            for instance in instances {
                if total_instances >= instance_budget {
                    break 'quantifiers; // budget is global: stop all quantifiers
                }
                if seen_instances.insert(instance.clone()) {
                    total_instances += 1;
                    match instance {
                        Form::Forall(..) => new_quantified.push(instance),
                        other => new_ground.push(other),
                    }
                }
            }
        }
        if new_ground.is_empty() && new_quantified.is_empty() {
            break; // nothing new to try
        }
        // New unit equalities can merge old congruence classes and thereby
        // enable matches among terms indexed in earlier rounds; the frontier
        // would suppress those forever, so rewind it for every quantifier.
        let learned_equalities = new_ground.iter().any(|f| matches!(f, Form::Eq(..)));
        if learned_equalities {
            for quantifier in &mut quantifiers {
                quantifier.frontier = 0;
            }
        }
        matcher.index_forms(&new_ground, round + 1);
        ground.extend(new_ground);
        for form in new_quantified {
            quantifiers.push(Quantifier::new(&form, env));
        }
        // Instances can introduce field/array reads that did not exist when
        // the read-over-write axioms were first generated; re-derive the
        // axiom set over the grown access set so those reads get their
        // select/store semantics too.  Accesses are collected from the
        // problem and its instances only — never from generated axioms,
        // whose miss branches mention base-state reads that would otherwise
        // breed further axioms each round.
        let accesses_before = accesses.len();
        for form in &ground[ground_scanned..] {
            accesses.collect(form);
            collect_equalities(form, &mut ground_equalities);
        }
        ground_scanned = ground.len();
        // Re-derive when the access set grew — and also when equalities were
        // learned, which can entail the guard of a previously skipped axiom
        // (the filter below) without introducing any new access.
        if accesses.len() > accesses_before || learned_equalities {
            let mut new_axioms = Vec::new();
            for axiom in axioms_for(&accesses) {
                // Keep a *guarded* axiom only when its guard equality is
                // entailed by the asserted unit equalities or at least
                // occurs somewhere in the ground set (possibly under a
                // disjunction, where it is branch-locally assertable): a
                // guard no branch can ever satisfy would still double the
                // tableau's branching for nothing.  (The initial axiom set
                // from `build_problem` is not filtered — only the per-round
                // additions, which exist purely to give instance-introduced
                // reads their select/store semantics.)
                if let Form::Implies(guard, _) = &axiom {
                    if let Form::Eq(a, b) = guard.as_ref() {
                        if !ground_equalities.contains(guard.as_ref()) && !matcher.knows_equal(a, b)
                        {
                            continue;
                        }
                    }
                }
                if seen_instances.insert(axiom.clone()) {
                    new_axioms.push(axiom);
                }
            }
            if !new_axioms.is_empty() {
                matcher.index_forms(&new_axioms, round + 1);
                ground.extend(new_axioms);
                ground_scanned = ground.len(); // axioms are not re-scanned
            }
        }
        if refute(&ground, env, config, cancel) == GroundResult::Unsat {
            return GroundResult::Unsat;
        }
    }
    GroundResult::Unknown
}

/// Collects the equality subformulas a tableau branch could assert
/// *positively* (for the per-round axiom guard filter): equalities under
/// conjunctions and disjunctions count, equalities under negation or in an
/// implication antecedent do not — in particular the guards of existing
/// read-over-write axioms, which only ever occur negated in a branch, must
/// not readmit themselves.
fn collect_equalities(form: &Form, out: &mut HashSet<Form>) {
    fn rec(form: &Form, positive: bool, out: &mut HashSet<Form>) {
        match form {
            Form::Eq(..) => {
                if positive {
                    out.insert(form.clone());
                }
            }
            Form::Not(inner) => rec(inner, !positive, out),
            Form::Implies(antecedent, consequent) => {
                rec(antecedent, !positive, out);
                rec(consequent, positive, out);
            }
            Form::Iff(a, b) => {
                for side in [a, b] {
                    rec(side, true, out);
                    rec(side, false, out);
                }
            }
            other => other.for_each_child(|c| rec(c, positive, out)),
        }
    }
    rec(form, true, out);
}

/// A universally quantified assumption prepared for matching.
#[derive(Debug)]
struct Quantifier {
    /// The original formula (used when seeding the sort pool).
    form: Form,
    /// Binder names, for fast membership tests during matching.
    binder_names: HashSet<String>,
    /// Binders with sorts resolved from usage.
    bindings: Vec<(String, Sort)>,
    /// The quantifier body.
    body: Form,
    /// Selected triggers; each trigger is a multi-pattern whose patterns
    /// together cover every binder.
    triggers: Vec<Vec<Form>>,
    /// Candidate-stamp watermark: only candidates stamped at or after this
    /// value produce new matches (the instance frontier).
    frontier: usize,
}

impl Quantifier {
    fn new(form: &Form, env: &SortEnv) -> Self {
        // Resolve unknown binder sorts from usage before anything else.
        let resolved = env.annotate_binders(form);
        let (bindings, body) = match &resolved {
            Form::Forall(bs, body) => (bs.clone(), (**body).clone()),
            other => (Vec::new(), other.clone()),
        };
        let binder_names: HashSet<String> = bindings.iter().map(|(n, _)| n.clone()).collect();
        let triggers = select_triggers(&bindings, &body);
        Quantifier {
            form: form.clone(),
            binder_names,
            bindings,
            body,
            triggers,
            frontier: 0,
        }
    }

    /// The body instantiated at `assignment`, which maps every binder to a
    /// term, or `None` when the instance simplifies to `true`.
    fn instantiate(&self, assignment: &HashMap<String, Form>) -> Option<Form> {
        let instance = simplify(&substitute(&self.body, assignment));
        (!instance.is_true()).then_some(instance)
    }
}

// ---------------------------------------------------------------------------
// Trigger selection
// ---------------------------------------------------------------------------

/// Selects triggers for a quantifier body: multi-patterns of indexable terms
/// (uninterpreted applications, field/array reads, membership atoms) that
/// together mention every binder.
///
/// Preference order: single patterns covering all binders (up to
/// [`MAX_TRIGGERS_PER_QUANTIFIER`], smallest first), then one greedily
/// assembled multi-pattern.  Returns an empty list when the binders cannot be
/// covered — the quantifier is then instantiated from the sort pool.
fn select_triggers(bindings: &[(String, Sort)], body: &Form) -> Vec<Vec<Form>> {
    let binders: HashSet<String> = bindings.iter().map(|(n, _)| n.clone()).collect();
    if binders.is_empty() {
        return Vec::new();
    }
    let mut candidates: Vec<PatternCandidate> = Vec::new();
    let mut seen: HashSet<Form> = HashSet::new();
    collect_patterns(body, &binders, &mut Vec::new(), &mut seen, &mut candidates);

    // Single patterns covering every binder, smallest first.
    let mut singles: Vec<&PatternCandidate> = candidates
        .iter()
        .filter(|c| c.coverage.len() == binders.len())
        .collect();
    singles.sort_by_key(|c| c.size);
    if !singles.is_empty() {
        return singles
            .iter()
            .take(MAX_TRIGGERS_PER_QUANTIFIER)
            .map(|c| vec![c.pattern.clone()])
            .collect();
    }

    // Greedy multi-pattern: widest coverage first, then smallest.
    candidates.sort_by(|a, b| {
        b.coverage
            .len()
            .cmp(&a.coverage.len())
            .then(a.size.cmp(&b.size))
    });
    let mut covered: HashSet<String> = HashSet::new();
    let mut multi: Vec<Form> = Vec::new();
    for candidate in &candidates {
        if candidate.coverage.iter().any(|v| !covered.contains(v)) {
            covered.extend(candidate.coverage.iter().cloned());
            multi.push(candidate.pattern.clone());
            if covered.len() == binders.len() {
                return vec![multi];
            }
        }
    }
    Vec::new() // binders not coverable: no trigger
}

#[derive(Debug)]
struct PatternCandidate {
    pattern: Form,
    size: usize,
    coverage: Vec<String>,
}

/// Collects indexable subterms of `form` that mention at least one binder and
/// no binder of a nested quantifier or comprehension.
fn collect_patterns(
    form: &Form,
    binders: &HashSet<String>,
    nested: &mut Vec<String>,
    seen: &mut HashSet<Form>,
    out: &mut Vec<PatternCandidate>,
) {
    if let Form::Forall(bs, body) | Form::Exists(bs, body) | Form::Compr(bs, body) = form {
        let depth = nested.len();
        nested.extend(bs.iter().map(|(n, _)| n.clone()));
        collect_patterns(body, binders, nested, seen, out);
        nested.truncate(depth);
        return;
    }
    if index_key(form).is_some() {
        let size = form.size();
        if size <= MAX_PATTERN_SIZE && !seen.contains(form) {
            let fv = free_vars(form);
            let coverage: Vec<String> = fv
                .iter()
                .filter(|v| binders.contains(*v))
                .cloned()
                .collect();
            if !coverage.is_empty() && !fv.iter().any(|v| nested.contains(v)) {
                seen.insert(form.clone());
                out.push(PatternCandidate {
                    pattern: form.clone(),
                    size,
                    coverage,
                });
            }
        }
    }
    form.for_each_child(|c| collect_patterns(c, binders, nested, seen, out));
}

// ---------------------------------------------------------------------------
// The term index and the E-matcher
// ---------------------------------------------------------------------------

/// Index key of a matchable term: the head symbol shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum IndexKey {
    /// Named application `f(...)` with its arity.
    App(String, usize),
    FieldRead,
    ArrayRead,
    Elem,
}

/// Returns the index key of a term if its root is matchable.
fn index_key(form: &Form) -> Option<IndexKey> {
    match form {
        Form::App(name, args) => Some(IndexKey::App(name.clone(), args.len())),
        Form::FieldRead(..) => Some(IndexKey::FieldRead),
        Form::ArrayRead(..) => Some(IndexKey::ArrayRead),
        Form::Elem(..) => Some(IndexKey::Elem),
        _ => None,
    }
}

/// One indexed ground term.
#[derive(Debug, Clone)]
struct Candidate {
    form: Form,
    /// The round in which the term entered the index (for the frontier).
    stamp: usize,
}

/// A term index over the ground set, grouped by head symbol, together with a
/// congruence engine tracking the asserted unit equalities so that matching
/// works modulo the known congruence classes.
#[derive(Debug, Default)]
struct Matcher {
    cc: Congruence,
    index: HashMap<IndexKey, Vec<Candidate>>,
    indexed: HashSet<Form>,
}

impl Matcher {
    /// Indexes every matchable subterm of the given ground formulas with the
    /// given frontier stamp, and asserts their top-level unit equalities into
    /// the congruence engine.
    fn index_forms(&mut self, forms: &[Form], stamp: usize) {
        for form in forms {
            if let Form::Eq(a, b) = form {
                self.cc.assert_eq(a, b);
            }
            self.index_term(form, &mut Vec::new(), stamp);
        }
    }

    fn index_term(&mut self, form: &Form, bound: &mut Vec<String>, stamp: usize) {
        if let Form::Forall(bs, body) | Form::Exists(bs, body) | Form::Compr(bs, body) = form {
            let depth = bound.len();
            bound.extend(bs.iter().map(|(n, _)| n.clone()));
            self.index_term(body, bound, stamp);
            bound.truncate(depth);
            return;
        }
        if let Some(key) = index_key(form) {
            let ground = bound.is_empty() || !free_vars(form).iter().any(|v| bound.contains(v));
            if ground && self.indexed.insert(form.clone()) {
                self.cc.intern(form);
                self.index.entry(key).or_default().push(Candidate {
                    form: form.clone(),
                    stamp,
                });
            }
        }
        form.for_each_child(|c| self.index_term(c, bound, stamp));
    }

    /// Matches a quantifier's triggers against the index, returning complete
    /// binder assignments.  Only assignments in which at least one matched
    /// candidate carries a stamp at or past `frontier` are returned (the
    /// instance frontier); `frontier == 0` accepts everything.
    fn match_quantifier(
        &mut self,
        triggers: &[Vec<Form>],
        binders: &HashSet<String>,
        frontier: usize,
        limit: usize,
    ) -> Vec<HashMap<String, Form>> {
        let mut out = Vec::new();
        // Detach the index so matching can borrow the engine mutably while
        // iterating candidate lists.
        let index = std::mem::take(&mut self.index);
        for trigger in triggers {
            let mut assignment = HashMap::new();
            self.match_multi(
                &index,
                trigger,
                binders,
                frontier,
                frontier == 0,
                &mut assignment,
                &mut out,
                limit,
            );
            if out.len() >= limit {
                break;
            }
        }
        self.index = index;
        out
    }

    /// Backtracking search over the patterns of one multi-pattern trigger.
    #[allow(clippy::too_many_arguments)]
    fn match_multi(
        &mut self,
        index: &HashMap<IndexKey, Vec<Candidate>>,
        patterns: &[Form],
        binders: &HashSet<String>,
        frontier: usize,
        any_new: bool,
        assignment: &mut HashMap<String, Form>,
        out: &mut Vec<HashMap<String, Form>>,
        limit: usize,
    ) {
        if out.len() >= limit {
            return;
        }
        let Some((pattern, rest)) = patterns.split_first() else {
            if any_new {
                out.push(assignment.clone());
            }
            return;
        };
        let key = index_key(pattern).expect("trigger patterns have indexable roots");
        let Some(candidates) = index.get(&key) else {
            return;
        };
        for candidate in candidates {
            let mut trail = Vec::new();
            if self.match_term(pattern, &candidate.form, binders, assignment, &mut trail) {
                self.match_multi(
                    index,
                    rest,
                    binders,
                    frontier,
                    any_new || candidate.stamp >= frontier,
                    assignment,
                    out,
                    limit,
                );
            }
            for name in trail {
                assignment.remove(&name);
            }
            if out.len() >= limit {
                return;
            }
        }
    }

    /// Matches one pattern against one ground term, extending the assignment.
    /// Newly bound binders are recorded on `trail` so the caller can undo.
    fn match_term(
        &mut self,
        pattern: &Form,
        target: &Form,
        binders: &HashSet<String>,
        assignment: &mut HashMap<String, Form>,
        trail: &mut Vec<String>,
    ) -> bool {
        if let Form::Var(name) = pattern {
            if binders.contains(name) {
                return match assignment.get(name) {
                    Some(bound) => {
                        let bound = bound.clone();
                        self.cc.are_equal(&bound, target)
                    }
                    None => {
                        assignment.insert(name.clone(), target.clone());
                        trail.push(name.clone());
                        true
                    }
                };
            }
        }
        if !mentions_any(pattern, binders) {
            // Fully ground sub-pattern: compare modulo the congruence.
            return self.cc.are_equal(pattern, target);
        }
        if !heads_compatible(pattern, target) {
            return false;
        }
        let pattern_children = children(pattern);
        let target_children = children(target);
        debug_assert_eq!(pattern_children.len(), target_children.len());
        pattern_children
            .iter()
            .zip(target_children.iter())
            .all(|(p, t)| self.match_term(p, t, binders, assignment, trail))
    }

    /// Does the asserted ground-equality congruence identify the two terms?
    /// (Used to filter per-round read-over-write axioms to pairs whose guard
    /// is actually entailed.)
    fn knows_equal(&mut self, a: &Form, b: &Form) -> bool {
        self.cc.are_equal(a, b)
    }
}

/// Do two terms agree on their root constructor (including head symbol and
/// child count), so that child-wise matching is meaningful?
fn heads_compatible(pattern: &Form, target: &Form) -> bool {
    match (pattern, target) {
        (Form::App(a, xs), Form::App(b, ys)) => a == b && xs.len() == ys.len(),
        (Form::And(xs), Form::And(ys))
        | (Form::Or(xs), Form::Or(ys))
        | (Form::FiniteSet(xs), Form::FiniteSet(ys))
        | (Form::Tuple(xs), Form::Tuple(ys)) => xs.len() == ys.len(),
        (Form::Forall(bs, _), Form::Forall(cs, _))
        | (Form::Exists(bs, _), Form::Exists(cs, _))
        | (Form::Compr(bs, _), Form::Compr(cs, _)) => bs == cs,
        _ => std::mem::discriminant(pattern) == std::mem::discriminant(target),
    }
}

/// The direct children of a node, in visiting order.
fn children(form: &Form) -> Vec<&Form> {
    let mut out = Vec::new();
    form.for_each_child(|c| out.push(c));
    out
}

/// Does the form mention any of the given names as a free variable?
///
/// A short-circuiting walk rather than `free_vars` — this sits in the
/// E-matching hot loop, and materialising a fresh set of cloned names per
/// pattern node per candidate would dominate the match.
fn mentions_any(form: &Form, names: &HashSet<String>) -> bool {
    fn walk(form: &Form, names: &HashSet<String>, shadow: &mut Vec<String>) -> bool {
        match form {
            Form::Var(v) => names.contains(v) && !shadow.contains(v),
            Form::Forall(bs, body) | Form::Exists(bs, body) | Form::Compr(bs, body) => {
                let depth = shadow.len();
                shadow.extend(bs.iter().map(|(b, _)| b.clone()));
                let hit = walk(body, names, shadow);
                shadow.truncate(depth);
                hit
            }
            other => {
                let mut hit = false;
                other.for_each_child(|c| {
                    if !hit {
                        hit = walk(c, names, shadow);
                    }
                });
                hit
            }
        }
    }
    if names.is_empty() {
        return false;
    }
    walk(form, names, &mut Vec::new())
}

// ---------------------------------------------------------------------------
// The sort pool (for trigger-less quantifiers)
// ---------------------------------------------------------------------------

/// A pool of ground terms grouped by sort, used as instantiation candidates
/// for the quantifiers that have no trigger.  Terms are deduplicated as they
/// are inserted and buckets are sorted by term size once at construction, so
/// lookups neither re-sort nor clone.
#[derive(Debug, Default)]
struct TermPool {
    by_sort: BTreeMap<Sort, Vec<Form>>,
    seen: HashSet<Form>,
}

impl TermPool {
    /// Candidate terms for a binder of the given sort, smallest first.  For a
    /// known sort this borrows the pre-sorted bucket; only the (rare) unknown
    /// sort merges buckets on demand.
    fn candidates(&self, sort: &Sort) -> Cow<'_, [Form]> {
        match sort {
            Sort::Unknown => {
                let mut all: Vec<(usize, Form)> = self
                    .by_sort
                    .values()
                    .flat_map(|terms| terms.iter().map(|t| (t.size(), t.clone())))
                    .collect();
                all.sort();
                Cow::Owned(all.into_iter().map(|(_, t)| t).collect())
            }
            known => Cow::Borrowed(
                self.by_sort
                    .get(known)
                    .map(Vec::as_slice)
                    .unwrap_or_default(),
            ),
        }
    }

    fn insert(&mut self, sort: Sort, term: Form) {
        if self.seen.insert(term.clone()) {
            self.by_sort.entry(sort).or_default().push(term);
        }
    }

    /// Sorts every bucket by (size, structure) once at construction.
    /// Deduplication already happened at [`TermPool::insert`] via the global
    /// `seen` set, so buckets contain no equal terms to begin with.
    fn finalize(&mut self) {
        for bucket in self.by_sort.values_mut() {
            let mut decorated: Vec<(usize, Form)> =
                bucket.drain(..).map(|t| (t.size(), t)).collect();
            decorated.sort();
            bucket.extend(decorated.into_iter().map(|(_, t)| t));
        }
    }
}

/// Collects the ground instantiation candidates occurring in the given
/// formulas.
fn term_pool<'a>(forms: impl Iterator<Item = &'a Form>, env: &SortEnv) -> TermPool {
    let mut pool = TermPool::default();
    // Seed with the obvious constants.
    pool.insert(Sort::Int, Form::int(0));
    pool.insert(Sort::Obj, Form::Null);
    for form in forms {
        collect_terms(form, env, &mut pool, &mut Vec::new());
    }
    pool.finalize();
    pool
}

fn collect_terms(form: &Form, env: &SortEnv, pool: &mut TermPool, bound: &mut Vec<String>) {
    match form {
        Form::Forall(bs, body) | Form::Exists(bs, body) | Form::Compr(bs, body) => {
            let n = bound.len();
            bound.extend(bs.iter().map(|(v, _)| v.clone()));
            collect_terms(body, env, pool, bound);
            bound.truncate(n);
            return;
        }
        _ => {}
    }
    // Consider this node itself as a candidate if it is a non-boolean term
    // that does not mention bound variables and is not too large.
    let sort = env.sort_of(form);
    let is_candidate = matches!(sort, Sort::Int | Sort::Obj)
        && form.size() <= 9
        && !mentions(form, bound)
        && !matches!(form, Form::Bool(_));
    if is_candidate {
        pool.insert(sort, form.clone());
    }
    form.for_each_child(|c| collect_terms(c, env, pool, bound));
}

fn mentions(form: &Form, names: &[String]) -> bool {
    if names.is_empty() {
        return false;
    }
    let fv = free_vars(form);
    names.iter().any(|n| fv.contains(n))
}

/// Generates instances of a trigger-less quantifier by enumerating the sort
/// pool.  The odometer stops after `max_instances_per_quantifier`
/// non-`true` instances, the ones earlier rounds built included.
fn instantiate_from_pool(
    quantifier: &Quantifier,
    pool: &TermPool,
    config: &ProverConfig,
) -> Vec<Form> {
    if quantifier.bindings.is_empty() {
        return Vec::new();
    }
    let candidate_lists: Vec<Cow<'_, [Form]>> = quantifier
        .bindings
        .iter()
        .map(|(_, sort)| pool.candidates(sort))
        .collect();
    if candidate_lists.iter().any(|c| c.is_empty()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut indices = vec![0usize; candidate_lists.len()];
    let limit = config.max_instances_per_quantifier;
    'outer: loop {
        let assignment = quantifier
            .bindings
            .iter()
            .zip(indices.iter().zip(&candidate_lists))
            .map(|((name, _), (&index, candidates))| (name.clone(), candidates[index].clone()))
            .collect();
        out.extend(quantifier.instantiate(&assignment));
        if out.len() >= limit {
            break;
        }
        // Advance the odometer.
        let mut slot = indices.len();
        loop {
            if slot == 0 {
                break 'outer;
            }
            slot -= 1;
            indices[slot] += 1;
            if indices[slot] < candidate_lists[slot].len() {
                break;
            }
            indices[slot] = 0;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::build_problem;
    use ipl_logic::parser::parse_form;

    fn env() -> SortEnv {
        let mut e = SortEnv::new();
        for v in ["i", "j", "k", "size", "index", "x", "y"] {
            e.declare_var(v, Sort::Int);
        }
        for v in ["o", "a", "b", "c", "first"] {
            e.declare_var(v, Sort::Obj);
        }
        e.declare_var("next", Sort::obj_field());
        e.declare_var("nodes", Sort::obj_set());
        e.declare_var("content", Sort::int_obj_set());
        e.declare_fun("p", vec![Sort::Int], Sort::Bool);
        e.declare_fun("member", vec![Sort::Obj], Sort::Bool);
        e
    }

    fn proves(assumptions: &[&str], goal: &str) -> bool {
        proves_with(assumptions, goal, &ProverConfig::default())
    }

    /// The ground stage, then this one, on one problem, as the cascade runs
    /// them.
    fn proves_with(assumptions: &[&str], goal: &str, config: &ProverConfig) -> bool {
        let assumptions: Vec<Form> = assumptions.iter().map(|s| parse_form(s).unwrap()).collect();
        let goal = parse_form(goal).unwrap();
        let problem = build_problem(&assumptions, &goal, &env());
        let cancel = Cancel::never();
        refute(&problem.ground, &problem.env, config, &cancel) == GroundResult::Unsat
            || refute_with_instantiation(&problem, config, assumptions.len(), &cancel)
                == GroundResult::Unsat
    }

    #[test]
    fn universal_modus_ponens() {
        assert!(proves(&["forall n:int. 0 <= n --> p(n)", "0 <= x"], "p(x)"));
        assert!(!proves(&["forall n:int. 0 <= n --> p(n)"], "p(x)"));
    }

    #[test]
    fn the_pool_instantiates_trigger_less_quantifiers() {
        // A purely arithmetic body offers no trigger, so only the sort pool
        // can supply the instance `n := x`.
        let quantifier = "forall n:int. 0 <= n --> n <= k";
        assert!(triggers_of(quantifier).is_empty());
        assert!(proves(&[quantifier, "0 <= x"], "x <= k"));
        assert!(!proves(&["0 <= x"], "x <= k"));
    }

    #[test]
    fn unmatched_triggers_get_no_pool_instances() {
        // Both quantifiers are triggered by `p(_)`, and no `p` term occurs
        // in the problem, so neither is instantiated; the pool instances
        // `n := x` and `m := x` would refute it.
        let quantifiers = [
            "forall n:int. 0 <= n --> n <= k | p(n)",
            "forall m:int. ~p(m)",
        ];
        for quantifier in quantifiers {
            assert!(!triggers_of(quantifier).is_empty(), "{quantifier}");
        }
        let [q1, q2] = quantifiers;
        assert!(!proves(&[q1, q2, "0 <= x"], "x <= k"));
        // Once `p(x)` occurs, matching supplies those instances.
        assert!(proves(&[q1, q2, "p(x) | 0 <= x"], "x <= k"));
    }

    #[test]
    fn a_remembered_pool_instance_still_counts_toward_the_limit() {
        // No trigger, so every round the pool enumerates `i`, `size`, `y`,
        // ... in that order.  At one instance per quantifier per round the
        // odometer stops at `i` every round, although the later rounds' `i`
        // is already in the ground set: a repeat that did not count would
        // let the later rounds reach `y`.
        let quantifier = "forall n:int. 0 <= n --> n < size";
        assert!(triggers_of(quantifier).is_empty());
        let assumptions = [quantifier, "0 <= y", "i < 5"];
        let per_quantifier = |limit| ProverConfig {
            max_instances_per_quantifier: limit,
            ..ProverConfig::default()
        };
        assert!(!proves_with(&assumptions, "y < size", &per_quantifier(1)));
        assert!(proves_with(&assumptions, "y < size", &per_quantifier(3)));
    }

    #[test]
    fn existential_goal_with_present_witness() {
        // The witness `a` occurs in the assumptions, so instantiating the
        // negated goal (a universal) with it succeeds.
        assert!(proves(&["member(a)"], "exists w:obj. member(w)"));
    }

    #[test]
    fn existential_goal_without_witness_fails() {
        // No obj-sorted candidate matches: the bounded search cannot invent a
        // witness (the situation the `witness` construct is for).
        assert!(!proves(&["0 <= x"], "exists w:obj. member(w)"));
    }

    #[test]
    fn quantified_invariant_applied_to_specific_index() {
        assert!(proves(
            &[
                "forall j:int. 0 <= j & j < size --> p(j)",
                "0 <= index",
                "index < size"
            ],
            "p(index)"
        ));
    }

    #[test]
    fn universal_goal_via_fresh_constant() {
        // Proving forall x. member(x) --> member(x) requires instantiating
        // nothing; the negated goal is skolemised to a fresh constant.
        assert!(proves(&[], "forall x:obj. member(x) --> member(x)"));
        assert!(proves(
            &["forall x:obj. member(x) --> interesting(x)"],
            "forall y:obj. member(y) --> interesting(y)"
        ));
    }

    #[test]
    fn set_extensionality_with_instantiation() {
        // content = old_content (as sets of pairs) implies a specific
        // membership transfers.
        assert!(proves(
            &["content = old_content", "(i, o) in old_content"],
            "(i, o) in content"
        ));
    }

    #[test]
    fn two_variable_quantifier() {
        assert!(proves(
            &[
                "forall j:int, e:obj. (j, e) in content --> 0 <= j",
                "(index, o) in content"
            ],
            "0 <= index"
        ));
    }

    #[test]
    fn budget_zero_rounds_cannot_use_quantifiers() {
        let config = ProverConfig {
            instantiation_rounds: 0,
            ..ProverConfig::default()
        };
        assert!(!proves_with(
            &["forall n:int. 0 <= n --> p(n)", "0 <= x"],
            "p(x)",
            &config
        ));
    }

    #[test]
    fn term_pool_collects_sorted_candidates() {
        let env = env();
        let forms = [
            parse_form("0 <= index & index < size").unwrap(),
            parse_form("first.next = a").unwrap(),
        ];
        let pool = term_pool(forms.iter(), &env);
        let ints = pool.candidates(&Sort::Int);
        assert!(ints.contains(&Form::var("index")));
        assert!(ints.contains(&Form::var("size")));
        // Buckets are sorted by size once at construction.
        let sizes: Vec<usize> = ints.iter().map(Form::size).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
        let objs = pool.candidates(&Sort::Obj);
        assert!(objs.contains(&Form::var("first")));
        assert!(objs.iter().any(|t| t.to_string() == "first.next"));
    }

    #[test]
    fn term_pool_deduplicates_equal_terms_of_equal_size() {
        let env = env();
        // `index` appears in both formulas; the bucket must list it once.
        let forms = [
            parse_form("0 <= index").unwrap(),
            parse_form("index < size").unwrap(),
        ];
        let pool = term_pool(forms.iter(), &env);
        let ints = pool.candidates(&Sort::Int);
        assert_eq!(ints.iter().filter(|t| **t == Form::var("index")).count(), 1);
    }

    // ----- trigger selection -----

    fn triggers_of(quantifier: &str) -> Vec<Vec<Form>> {
        let form = parse_form(quantifier).unwrap();
        let form = env().annotate_binders(&form);
        let (bindings, body) = match &form {
            Form::Forall(bs, body) => (bs.clone(), (**body).clone()),
            _ => panic!("expected a universal quantifier"),
        };
        select_triggers(&bindings, &body)
    }

    #[test]
    fn single_pattern_trigger_selected() {
        let triggers = triggers_of("forall n:int. 0 <= n --> p(n)");
        assert!(!triggers.is_empty());
        // Every trigger is a single pattern covering the binder.
        for trigger in &triggers {
            assert_eq!(trigger.len(), 1);
            assert!(free_vars(&trigger[0]).contains("n"));
        }
        assert!(triggers.iter().any(|t| t[0] == parse_form("p(n)").unwrap()));
    }

    #[test]
    fn field_read_serves_as_trigger() {
        let triggers = triggers_of("forall v:obj. v.next = null --> member(v)");
        assert!(!triggers.is_empty());
        let first = &triggers[0][0];
        assert!(matches!(first, Form::FieldRead(..) | Form::App(..)));
    }

    #[test]
    fn multi_pattern_trigger_covers_all_binders() {
        // No single application mentions both binders, so a multi-pattern is
        // required.
        let triggers = triggers_of("forall u:obj, w:obj. member(u) & member(w) --> u = w");
        assert_eq!(triggers.len(), 1, "one combined multi-pattern");
        let trigger = &triggers[0];
        assert!(trigger.len() >= 2, "needs at least two patterns");
        let covered: HashSet<String> = trigger
            .iter()
            .flat_map(|p| free_vars(p).into_iter())
            .collect();
        assert!(covered.contains("u") && covered.contains("w"));
    }

    #[test]
    fn arithmetic_only_bodies_have_no_trigger() {
        let triggers = triggers_of("forall n:int. 0 <= n --> n < n + 1");
        assert!(
            triggers.is_empty(),
            "purely arithmetic bodies cannot be triggered: {triggers:?}"
        );
    }

    #[test]
    fn matcher_instantiates_only_occurring_terms() {
        // With triggers, only `x` (which occurs under `p`) is tried — the
        // engine proves the goal without enumerating every int-sorted term.
        // The trigger matches, so the sort pool never runs.
        let config = ProverConfig {
            max_instances_per_quantifier: 1,
            ..ProverConfig::default()
        };
        assert!(proves_with(
            &[
                "forall n:int. 0 <= n --> p(n)",
                "0 <= x",
                "x < size",
                "size < y"
            ],
            "p(x)",
            &config
        ));
    }
}
