//! Preprocessing of queries into refutation sets.
//!
//! To prove `A1 ... An |- G` the provers refute `A1 /\ ... /\ An /\ ~G`.
//! This module performs the shared normalisation steps:
//!
//! 1. set-algebra expansion ([`ipl_logic::normal::expand_sets`]),
//! 2. negation normal form,
//! 3. skolemisation of existentials,
//! 4. integer disequality splitting (`x ~= y` becomes `x < y \/ y < x`),
//! 5. eager instantiation of the read-over-write axioms for field and array
//!    updates (McCarthy's select/store theory).
//!
//! The result separates ground formulas from universally quantified ones; the
//! latter feed the instantiation engine of [`crate::inst`].  It also carries
//! the sort environment, with the skolem symbols declared, that both the
//! ground and the instantiating stage refute it under.
//!
//! Each piece of this work is done once.  A [`Query`](crate::Query) builds
//! its [`Problem`] on first use and every stage that needs it shares it.  The
//! queries of one method share a [`NormalForms`] memo, so an assumption that
//! many of the method's sequents carry is normalised once.  The memo keeps an
//! assumption's pieces only when normalising it drew no fresh name: skolem
//! constants and renamed binders take their names from a per-problem
//! counter, so such an assumption is normalised again in every problem, and
//! every problem is exactly the one [`build_problem`] builds.

use ipl_logic::normal::{expand_sets, nnf, skolemize};
use ipl_logic::simplify::simplify;
use ipl_logic::subst::FreshNames;
use ipl_logic::{Form, Sort, SortEnv};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// A preprocessed refutation problem.
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    /// Ground (quantifier-free at the top level) formulas to refute.
    pub ground: Vec<Form>,
    /// Universally quantified formulas available for instantiation.
    pub quantified: Vec<Form>,
    /// The sort environment every stage refutes the problem under: the
    /// query's, with the skolem symbols preprocessing introduced declared in
    /// it, so that they serve as instantiation candidates.  A problem
    /// without skolems shares the query's `Arc`.
    pub env: Arc<SortEnv>,
}

impl Problem {
    /// All formulas (ground and quantified).
    pub fn all_forms(&self) -> impl Iterator<Item = &Form> {
        self.ground.iter().chain(self.quantified.iter())
    }
}

/// Builds the refutation problem for `assumptions |- goal`.
pub fn build_problem(assumptions: &[Form], goal: &Form, env: &SortEnv) -> Problem {
    build(assumptions.iter(), goal, &Arc::new(env.clone()), None)
}

/// The one builder behind [`build_problem`] and [`NormalForms`]: each
/// assumption is normalised, or taken from `memo`, in order, then the
/// negated goal, then the read-over-write axioms of the whole set.
pub(crate) fn build<'a>(
    assumptions: impl Iterator<Item = &'a Form> + Clone,
    goal: &Form,
    env: &Arc<SortEnv>,
    memo: Option<&NormalForms>,
) -> Problem {
    let mut fresh = FreshNames::new();
    for a in assumptions.clone() {
        fresh.reserve_all(a);
    }
    fresh.reserve_all(goal);

    let mut problem = Problem {
        ground: Vec::new(),
        quantified: Vec::new(),
        env: Arc::clone(env),
    };
    for assumption in assumptions {
        match memo {
            Some(memo) => memo.add(assumption, &mut fresh, &mut problem),
            None => add_refutation_form(assumption, env, &mut fresh, &mut problem),
        }
    }
    add_refutation_form(&Form::not(goal.clone()), env, &mut fresh, &mut problem);

    // Read-over-write axioms are themselves ground formulas.
    let axioms = update_axioms(&problem);
    problem.ground.extend(axioms);
    problem
}

/// The normal forms of one method's assumptions under its sort environment,
/// shared by the method's queries (see [`Query::in_method`](crate::Query::in_method)).
///
/// An entry is an assumption with the ground and quantified pieces
/// normalising it filed, stored only when that drew no fresh name.  It is
/// found by a hash of the assumption's top node over the addresses of its
/// shared children, which split hash-conses, and confirmed by structural
/// equality, which those shared children answer by pointer.  The entry keeps
/// its assumption, and so those children, alive: an address cannot be
/// reused while its entry exists.  A hash held by another assumption is a
/// miss.
pub struct NormalForms {
    env: Arc<SortEnv>,
    entries: Mutex<HashMap<u64, Entry>>,
}

/// One remembered assumption and its pieces, in filing order.
struct Entry {
    assumption: Form,
    ground: Vec<Form>,
    quantified: Vec<Form>,
}

impl NormalForms {
    /// An empty memo for the queries of one method, whose sort environment
    /// is `env`.
    pub fn new(env: impl Into<Arc<SortEnv>>) -> NormalForms {
        NormalForms {
            env: env.into(),
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// The sort environment every entry was normalised under.
    pub(crate) fn env(&self) -> &Arc<SortEnv> {
        &self.env
    }

    /// Number of remembered assumptions.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Returns `true` if nothing is remembered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Entry>> {
        self.entries.lock().expect("normal-form memo poisoned")
    }

    /// Files the pieces of `assumption` into `problem`, as
    /// [`add_refutation_form`] does, from the memo when it holds them.
    fn add(&self, assumption: &Form, fresh: &mut FreshNames, problem: &mut Problem) {
        let key = shallow_hash(assumption);
        if let Some(entry) = self.lock().get(&key) {
            if entry.assumption == *assumption {
                problem.ground.extend(entry.ground.iter().cloned());
                problem.quantified.extend(entry.quantified.iter().cloned());
                return;
            }
        }
        let (ground, quantified) = (problem.ground.len(), problem.quantified.len());
        let issued = fresh.issued();
        add_refutation_form(assumption, &self.env, fresh, problem);
        if fresh.issued() == issued {
            self.lock().entry(key).or_insert_with(|| Entry {
                assumption: assumption.clone(),
                ground: problem.ground[ground..].to_vec(),
                quantified: problem.quantified[quantified..].to_vec(),
            });
        }
    }
}

impl std::fmt::Debug for NormalForms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NormalForms")
            .field("entries", &self.len())
            .finish()
    }
}

/// A hash of the top of `form`: its variant, its leaf payload, the
/// addresses of its `Arc` children, and the same of the elements of its
/// `Vec` children, which live inside the node and are copied with it.
/// Two forms with one hash may still differ, and two equal forms whose
/// children are not shared hash apart; the memo compares structurally.
fn shallow_hash(form: &Form) -> u64 {
    fn walk(form: &Form, state: &mut DefaultHasher) {
        std::mem::discriminant(form).hash(state);
        match form {
            Form::Var(_) | Form::Int(_) | Form::Bool(_) | Form::Null | Form::EmptySet => {
                form.hash(state)
            }
            Form::And(parts)
            | Form::Or(parts)
            | Form::FiniteSet(parts)
            | Form::Tuple(parts)
            | Form::App(_, parts) => parts.iter().for_each(|part| walk(part, state)),
            _ => form.for_each_child(|child| std::ptr::hash(child, state)),
        }
    }
    let mut state = DefaultHasher::new();
    walk(form, &mut state);
    state.finish()
}

/// Normalises one formula of the refutation set and files its pieces into the
/// ground / quantified partitions.
fn add_refutation_form(form: &Form, env: &SortEnv, fresh: &mut FreshNames, problem: &mut Problem) {
    let annotated = env.annotate_binders(form);
    // Retain raw set-algebra conjuncts alongside their membership-level
    // expansion: the expansion becomes a universally quantified formula that
    // only the instantiating prover can use, while the retained atom is a
    // ground literal the congruence closure reasons about directly (without
    // it, set equalities the ground stage closes today fall through to the
    // instantiating prover).
    for conjunct in annotated.clone().into_conjuncts() {
        if let Some(atom) = retained_theory_atom(&conjunct, env) {
            problem.ground.push(atom);
        }
    }
    let expanded = expand_sets(&annotated, env);
    let expanded = split_int_disequalities(&expanded, env);
    let normalised = nnf(&expanded);
    let (skolemised, skolems) = skolemize(&normalised, fresh);
    if !skolems.is_empty() {
        // The first skolem gives the problem an environment of its own.
        let extended = Arc::make_mut(&mut problem.env);
        for (name, sort) in skolems {
            extended.declare_var(name.clone(), sort.clone());
            extended.declare_fun(name, Vec::new(), sort);
        }
    }
    let hoisted = hoist_foralls(&skolemised, fresh);
    let simplified = simplify(&hoisted);
    for conjunct in simplified.into_conjuncts() {
        match conjunct {
            Form::Bool(true) => {}
            Form::Forall(..) => problem.quantified.push(conjunct),
            other => problem.ground.push(other),
        }
    }
}

/// A top-level conjunct worth keeping in its un-expanded set-algebra form for
/// the theory layer: a (possibly negated) set equality, subset atom, or
/// membership in a structured set expression.
fn retained_theory_atom(form: &Form, env: &SortEnv) -> Option<Form> {
    let atom = match form {
        Form::Not(inner) => inner.as_ref(),
        other => other,
    };
    #[allow(clippy::match_like_matches_macro)]
    let keep = match atom {
        // Comprehension equalities are excluded: the congruence closure can
        // only see the comprehension as an opaque leaf, while the
        // membership-level expansion covers it completely — yet the extra
        // ground literal measurably slows the instantiating prover.
        Form::Eq(a, b)
            if matches!(a.as_ref(), Form::Compr(..)) || matches!(b.as_ref(), Form::Compr(..)) =>
        {
            false
        }
        Form::Eq(a, b) => {
            env.sort_of(a).is_set()
                || env.sort_of(b).is_set()
                || is_set_structure(a)
                || is_set_structure(b)
        }
        Form::Subseteq(..) => true,
        Form::Elem(_, set) => is_set_structure(set),
        _ => false,
    };
    keep.then(|| form.clone())
}

/// Is the term structurally a set expression?
fn is_set_structure(form: &Form) -> bool {
    matches!(
        form,
        Form::EmptySet
            | Form::FiniteSet(_)
            | Form::Union(..)
            | Form::Inter(..)
            | Form::Diff(..)
            | Form::Compr(..)
    )
}

/// Hoists universal quantifiers out of conjunctions and disjunctions
/// (miniscoping in reverse): `A \/ (forall x. B)` becomes
/// `forall x. (A \/ B)` after renaming `x` apart.  This puts NNF formulas in
/// a prenex-enough form for the instantiation engine, which only looks at
/// top-level universals.
pub fn hoist_foralls(form: &Form, fresh: &mut FreshNames) -> Form {
    match form {
        Form::Forall(bindings, body) => Form::forall(bindings.clone(), hoist_foralls(body, fresh)),
        Form::And(parts) => Form::and(
            parts
                .iter()
                .map(|p| hoist_foralls(p, fresh))
                .collect::<Vec<_>>(),
        ),
        Form::Or(parts) => {
            let mut hoisted_binders = Vec::new();
            let mut new_parts = Vec::new();
            for part in parts {
                let part = hoist_foralls(part, fresh);
                if let Form::Forall(bindings, body) = part {
                    // Rename the binders apart so they cannot capture
                    // variables of the sibling disjuncts.
                    let mut map = HashMap::new();
                    let mut renamed = Vec::new();
                    for (name, sort) in bindings {
                        let new_name = fresh.fresh(&name);
                        map.insert(name, Form::Var(new_name.clone()));
                        renamed.push((new_name, sort));
                    }
                    hoisted_binders.extend(renamed);
                    new_parts.push(crate::preprocess::substitute_form(&body, &map));
                } else {
                    new_parts.push(part);
                }
            }
            Form::forall(hoisted_binders, Form::or(new_parts))
        }
        other => other.clone(),
    }
}

/// Thin wrapper so the hoisting code can call capture-avoiding substitution
/// without importing it at every call site.
fn substitute_form(form: &Form, map: &HashMap<String, Form>) -> Form {
    ipl_logic::subst::substitute(form, map)
}

/// Rewrites integer disequalities into strict-order disjunctions so the
/// linear-arithmetic back end can reason about them by case split.
pub fn split_int_disequalities(form: &Form, env: &SortEnv) -> Form {
    let rewritten = form.map_children(|c| split_int_disequalities(c, env));
    match &rewritten {
        Form::Not(inner) => {
            if let Form::Eq(a, b) = inner.as_ref() {
                if env.sort_of(a) == Sort::Int || env.sort_of(b) == Sort::Int {
                    return Form::or(vec![
                        Form::lt((**a).clone(), (**b).clone()),
                        Form::lt((**b).clone(), (**a).clone()),
                    ]);
                }
            }
            rewritten
        }
        _ => rewritten,
    }
}

/// The field/array read and write terms of a formula set, from which the
/// McCarthy read-over-write axioms are generated.
///
/// Kept as an explicit accumulator so the instantiation engine can extend it
/// with the accesses of newly generated instances round by round — collecting
/// from the *instances* only, never from previously generated axioms (whose
/// miss branches mention base-state reads that would otherwise breed new
/// axioms quadratically).
#[derive(Debug, Clone, Default)]
pub struct Accesses {
    /// Field reads: (function term, argument).
    field_reads: BTreeSet<(Form, Form)>,
    /// Field writes: (base, at, value).
    field_writes: BTreeSet<(Form, Form, Form)>,
    /// Array reads: (state, array, index).
    array_reads: BTreeSet<(Form, Form, Form)>,
    /// Array writes: (base state, array, index, value).
    array_writes: BTreeSet<(Form, Form, Form, Form)>,
}

impl Accesses {
    /// Records every access occurring in the formula.
    pub fn collect(&mut self, form: &Form) {
        collect_accesses(
            form,
            &mut self.field_reads,
            &mut self.field_writes,
            &mut self.array_reads,
            &mut self.array_writes,
        );
    }

    /// Total number of recorded access terms (cheap growth check).
    pub fn len(&self) -> usize {
        self.field_reads.len()
            + self.field_writes.len()
            + self.array_reads.len()
            + self.array_writes.len()
    }

    /// Returns `true` if no accesses were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Generates the McCarthy read-over-write axioms for every (read, write) pair
/// occurring in the problem.
///
/// For fields: if `g = f[a := v]` then `g(x) = v` when `x = a` and
/// `g(x) = f(x)` otherwise.  The axiom is guarded by `g = f[a := v]` so it is
/// sound to add it for *every* pair of a read and a write term.
pub fn update_axioms(problem: &Problem) -> Vec<Form> {
    let mut accesses = Accesses::default();
    for form in problem.all_forms() {
        accesses.collect(form);
    }
    axioms_for(&accesses)
}

/// The read-over-write axioms of a recorded access set.
pub fn axioms_for(accesses: &Accesses) -> Vec<Form> {
    let Accesses {
        field_reads,
        field_writes,
        array_reads,
        array_writes,
    } = accesses;
    let mut axioms = Vec::new();
    for (fun, arg) in field_reads {
        for (base, at, value) in field_writes {
            let write_term = Form::field_write(base.clone(), at.clone(), value.clone());
            let guard = Form::eq(fun.clone(), write_term);
            let read = Form::field_read(fun.clone(), arg.clone());
            let hit = Form::implies(
                Form::eq(arg.clone(), at.clone()),
                Form::eq(read.clone(), value.clone()),
            );
            let miss = Form::implies(
                Form::neq(arg.clone(), at.clone()),
                Form::eq(read.clone(), Form::field_read(base.clone(), arg.clone())),
            );
            axioms.push(Form::implies(guard, Form::and(vec![hit, miss])));
        }
    }
    // Reads applied directly to a write term need no guard.
    for (fun, arg) in field_reads {
        if let Form::FieldWrite(base, at, value) = fun {
            let read = Form::field_read(fun.clone(), arg.clone());
            let hit = Form::implies(
                Form::eq(arg.clone(), (**at).clone()),
                Form::eq(read.clone(), (**value).clone()),
            );
            let miss = Form::implies(
                Form::neq(arg.clone(), (**at).clone()),
                Form::eq(
                    read.clone(),
                    Form::field_read((**base).clone(), arg.clone()),
                ),
            );
            axioms.push(Form::and(vec![hit, miss]));
        }
    }

    for (state, arr, idx) in array_reads {
        for (base, warr, widx, value) in array_writes {
            let write_term =
                Form::array_write(base.clone(), warr.clone(), widx.clone(), value.clone());
            let guard = Form::eq(state.clone(), write_term);
            let read = Form::array_read(state.clone(), arr.clone(), idx.clone());
            let same_cell = Form::and(vec![
                Form::eq(arr.clone(), warr.clone()),
                Form::eq(idx.clone(), widx.clone()),
            ]);
            let hit = Form::implies(same_cell.clone(), Form::eq(read.clone(), value.clone()));
            let miss = Form::implies(
                Form::not(same_cell),
                Form::eq(
                    read.clone(),
                    Form::array_read(base.clone(), arr.clone(), idx.clone()),
                ),
            );
            axioms.push(Form::implies(guard, Form::and(vec![hit, miss])));
        }
    }
    for (state, arr, idx) in array_reads {
        if let Form::ArrayWrite(base, warr, widx, value) = state {
            let read = Form::array_read(state.clone(), arr.clone(), idx.clone());
            let same_cell = Form::and(vec![
                Form::eq(arr.clone(), (**warr).clone()),
                Form::eq(idx.clone(), (**widx).clone()),
            ]);
            let hit = Form::implies(same_cell.clone(), Form::eq(read.clone(), (**value).clone()));
            let miss = Form::implies(
                Form::not(same_cell),
                Form::eq(
                    read.clone(),
                    Form::array_read((**base).clone(), arr.clone(), idx.clone()),
                ),
            );
            axioms.push(Form::and(vec![hit, miss]));
        }
    }
    axioms
}

#[allow(clippy::type_complexity)]
fn collect_accesses(
    form: &Form,
    field_reads: &mut BTreeSet<(Form, Form)>,
    field_writes: &mut BTreeSet<(Form, Form, Form)>,
    array_reads: &mut BTreeSet<(Form, Form, Form)>,
    array_writes: &mut BTreeSet<(Form, Form, Form, Form)>,
) {
    match form {
        Form::FieldRead(fun, arg) => {
            field_reads.insert(((**fun).clone(), (**arg).clone()));
        }
        Form::FieldWrite(base, at, value) => {
            field_writes.insert(((**base).clone(), (**at).clone(), (**value).clone()));
        }
        Form::ArrayRead(state, arr, idx) => {
            array_reads.insert(((**state).clone(), (**arr).clone(), (**idx).clone()));
        }
        Form::ArrayWrite(state, arr, idx, value) => {
            array_writes.insert((
                (**state).clone(),
                (**arr).clone(),
                (**idx).clone(),
                (**value).clone(),
            ));
        }
        _ => {}
    }
    form.for_each_child(|c| {
        collect_accesses(c, field_reads, field_writes, array_reads, array_writes)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipl_logic::parser::parse_form;

    fn env() -> SortEnv {
        let mut e = SortEnv::new();
        e.declare_var("x", Sort::Int);
        e.declare_var("y", Sort::Int);
        e.declare_var("o", Sort::Obj);
        e.declare_var("next", Sort::obj_field());
        e.declare_var("content", Sort::int_obj_set());
        e.declare_var("arrayState", Sort::obj_array_state());
        e
    }

    #[test]
    fn problem_separates_ground_and_quantified() {
        let env = env();
        let assumptions = vec![
            parse_form("x = 1").unwrap(),
            parse_form("forall i:int. 0 <= i --> p(i)").unwrap(),
        ];
        let goal = parse_form("p(x)").unwrap();
        let problem = build_problem(&assumptions, &goal, &env);
        assert!(problem.quantified.len() == 1);
        assert!(problem
            .ground
            .iter()
            .any(|f| matches!(f, Form::Not(_)) || matches!(f, Form::Eq(..))));
    }

    #[test]
    fn negated_existential_goal_becomes_universal() {
        let env = env();
        let goal = parse_form("exists i:int. p(i)").unwrap();
        let problem = build_problem(&[], &goal, &env);
        // ~exists i. p(i) is forall i. ~p(i): must land in the quantified set.
        assert_eq!(problem.quantified.len(), 1);
    }

    #[test]
    fn existential_assumption_is_skolemised() {
        let env = env();
        let assumptions = vec![parse_form("exists w:obj. w in nodes").unwrap()];
        let goal = parse_form("false").unwrap();
        let problem = build_problem(&assumptions, &goal, &env);
        assert!(problem.quantified.is_empty());
        assert!(
            problem
                .ground
                .iter()
                .any(|f| f.to_string().contains("sk_w")),
            "skolem constant introduced"
        );
    }

    #[test]
    fn integer_disequalities_split() {
        let env = env();
        let f = parse_form("~(x = y)").unwrap();
        let g = split_int_disequalities(&f, &env);
        assert!(matches!(g, Form::Or(_)));
        // Object disequalities are untouched.
        let f = parse_form("~(o = null)").unwrap();
        let g = split_int_disequalities(&f, &env);
        assert!(matches!(g, Form::Not(_)));
    }

    #[test]
    fn field_update_axioms_generated() {
        let env = env();
        let assumptions = vec![parse_form("newnext = next[a := v]").unwrap()];
        let goal = parse_form("b.newnext = b.next").unwrap();
        let problem = build_problem(&assumptions, &goal, &env);
        let axiom_text: Vec<String> = problem.ground.iter().map(|f| f.to_string()).collect();
        assert!(
            axiom_text
                .iter()
                .any(|t| t.contains("[a := v]") && t.contains("-->")),
            "expected a guarded read-over-write axiom, got {axiom_text:?}"
        );
    }

    #[test]
    fn array_update_axioms_generated() {
        let env = env();
        // Array-state writes have no surface syntax; build the term directly.
        let write = Form::array_write(
            Form::var("arrayState"),
            Form::var("elements"),
            Form::var("i"),
            Form::var("v"),
        );
        let assumptions = vec![Form::eq(Form::var("newState"), write)];
        let goal = parse_form("newState2 = newState").unwrap();
        let mut problem = build_problem(&assumptions, &goal, &env);
        // Add a read so the axiom pairs up.
        problem.ground.push(Form::eq(
            Form::array_read(Form::var("newState"), Form::var("elements"), Form::var("j")),
            Form::var("w"),
        ));
        let axioms = update_axioms(&problem);
        assert!(!axioms.is_empty());
    }
}
