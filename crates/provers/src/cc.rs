//! Incremental congruence closure over ground terms (the EUF theory solver).
//!
//! Terms are interned into integer-keyed nodes (head symbols are interned in a
//! symbol table, so no `format!`-string keys are ever built).  Equalities are
//! merged through a union-find with union-by-size; congruence
//! (`f(a) = f(b)` whenever `a = b`) is propagated with *use-lists* and a
//! *signature table* in the style of Downey–Sethi–Tarjan / Simplify, so only
//! the parents of a merged class are re-examined instead of every node.
//!
//! The engine is **backtrackable**: [`Congruence::push`] opens a scope and
//! [`Congruence::pop`] undoes every intern, merge, disequality and signature
//! update performed since, restoring classes exactly.  This lets the ground
//! tableau thread one persistent engine through its branch exploration
//! instead of rebuilding the closure at every leaf.
//!
//! The engine is also **explaining**: external assertions carry an opaque
//! [`Tag`] (the CDCL core passes its literal ids), every merge records a
//! *proof-forest* edge labelled with its reason (the tagged assertion, or
//! congruence), and [`Congruence::explain_terms`] recovers the set of tags
//! whose assertions entail a given equality — congruence edges recurse into
//! the child pairs, in the style of Nieuwenhuis–Oliveras.  This is what turns
//! a "branch closed" boolean into a learnable conflict clause.
//!
//! Conflicts are detected eagerly while merging:
//!
//! * a disequality whose two sides end up in the same class,
//! * two distinct integer literals (or distinct boolean literals) in one
//!   class.
//!
//! The cause of the first conflict is recorded so that
//! [`Congruence::explain_conflict`] can name the responsible assertions.

use ipl_logic::Form;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Identifier of an interned term.
pub type TermId = usize;

/// Opaque label attached to an external assertion (the CDCL core passes its
/// literal ids).  Explanations are sets of tags.
pub type Tag = u32;

/// Identifier of an interned head symbol or opaque leaf.
type SymId = u32;

/// Head constructor of an application node.  Interpreted and uninterpreted
/// heads are distinguished only by the `Named` payload; congruence treats all
/// of them as free function symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Head {
    /// A named application `f(...)`.
    Named(SymId),
    FieldRead,
    FieldWrite,
    ArrayRead,
    ArrayWrite,
    Tuple,
    Add,
    Sub,
    Mul,
    Neg,
    Card,
    Union,
    Inter,
    Diff,
    FiniteSet,
    Elem,
    Subseteq,
    Eq,
    Lt,
    Le,
    Ite,
}

/// The shape of an interned node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    /// A named variable.
    Var(SymId),
    /// An integer literal.
    Int(i64),
    /// A boolean literal.
    Bool(bool),
    /// The `null` reference.
    Null,
    /// The empty set.
    EmptySet,
    /// Remaining boolean structure or binders, interned structurally.
    Opaque(SymId),
    /// An application of a head to interned children.
    App(Head, Vec<TermId>),
}

/// A congruence signature: head plus the class representatives of the
/// children.
type Sig = (Head, Vec<TermId>);

/// Why two terms were merged: the label of a proof-forest edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MergeReason {
    /// An external assertion carrying an explanation tag.
    Assert(Tag),
    /// An external assertion without a tag (legacy callers): the merge is
    /// real but unexplainable, so explanations crossing it return `None`.
    Untagged,
    /// A congruence-derived merge of two applications; explained by
    /// recursively explaining the child pairs.
    Congruence,
}

/// The cause of the first detected conflict, for explanation.
#[derive(Debug, Clone, Copy)]
enum ConflictCause {
    /// The two sides of this asserted disequality were merged.
    Diseq(TermId, TermId, Option<Tag>),
    /// Two distinct constants (int or bool literals) ended up congruent.
    Constants(TermId, TermId),
}

/// An asserted disequality, recorded in the lists of both end roots.
#[derive(Debug, Clone, Copy)]
struct DiseqEntry {
    /// The partner term (the *other* end, from this root's point of view).
    other: TermId,
    /// The originally asserted pair, for explanation.
    a: TermId,
    b: TermId,
    /// The assertion's tag, if any.
    tag: Option<Tag>,
}

/// One undoable step on the trail.
#[derive(Debug)]
enum Undo {
    /// `child` was linked under `survivor`; restore sizes, class data and the
    /// lengths of the survivor's use and disequality lists.
    Union {
        child: TermId,
        survivor: TermId,
        survivor_uses_len: usize,
        survivor_diseqs_len: usize,
        survivor_int: Option<(i64, TermId)>,
        survivor_bool: Option<(bool, TermId)>,
    },
    /// A use-list entry was appended to `root`.
    UsePush(TermId),
    /// A disequality partner was appended to `root`'s list.
    DiseqPush(TermId),
    /// A fresh signature was inserted.
    SigInsert(Sig),
    /// A proof-forest edge of `node` was overwritten; restore it.
    Proof {
        node: TermId,
        parent: TermId,
        reason: Option<MergeReason>,
    },
}

/// Marks the state at a `push`.
#[derive(Debug)]
struct Scope {
    trail_len: usize,
    terms_len: usize,
    conflict: bool,
    cause: Option<ConflictCause>,
}

/// The incremental congruence-closure engine.
#[derive(Debug, Default)]
pub struct Congruence {
    /// Interned head / variable symbols.
    symbols: HashMap<String, SymId>,
    /// Opaque (boolean-structured) leaves, interned structurally.
    opaques: HashMap<Form, SymId>,
    /// Interned term keys, indexed by id.
    terms: Vec<Key>,
    /// Map from structural key to id.
    index: HashMap<Key, TermId>,
    /// Union-find parents (`parent[root] == root`).
    parent: Vec<TermId>,
    /// Class sizes, valid at roots.
    size: Vec<u32>,
    /// Known integer value of the class and the literal term carrying it,
    /// valid at roots.
    class_int: Vec<Option<(i64, TermId)>>,
    /// Known boolean value of the class and the literal term carrying it,
    /// valid at roots.
    class_bool: Vec<Option<(bool, TermId)>>,
    /// Application parents of each class, valid at roots.
    uses: Vec<Vec<TermId>>,
    /// Disequal partner terms of each class, valid at roots.
    diseqs: Vec<Vec<DiseqEntry>>,
    /// Proof forest: the explanation tree of each class (edge to parent).
    proof_parent: Vec<TermId>,
    /// Reason labelling the edge `node -> proof_parent[node]`.
    proof_reason: Vec<Option<MergeReason>>,
    /// Signature table for congruence detection.
    sigs: HashMap<Sig, TermId>,
    /// Queued merges not yet propagated, with their reasons.
    pending: Vec<(TermId, TermId, MergeReason)>,
    /// Sticky conflict flag (until the enclosing scope is popped).
    conflict: bool,
    /// Cause of the first conflict, for explanation.
    cause: Option<ConflictCause>,
    /// Monotone-per-scope state counter: bumped on every union and every
    /// `pop`, so callers can memoise derived results (the arithmetic stack
    /// keys its Fourier–Motzkin re-checks on this).
    generation: u64,
    /// Counter of disequality assertions, for the theory-propagation stamp:
    /// a new disequality can entail watched negative literals without any
    /// union, so `generation` alone would miss it.
    diseq_stamp: u64,
    /// Candidate index for theory propagation: equality atoms registered by
    /// the solver as `(lhs, rhs, literal tag)`.  Registered once per search,
    /// outside all scopes, and scanned by [`Congruence::implied_literals`].
    watches: Vec<(TermId, TermId, Tag)>,
    /// Undo trail.
    trail: Vec<Undo>,
    /// Open backtracking scopes.
    scopes: Vec<Scope>,
}

/// One entailed candidate atom, reported by [`Congruence::implied_literals`]:
/// the watched pair is now congruent (`equal`) or separated by a disequality
/// (`!equal`).  Everything needed to *lazily* explain the entailment through
/// the proof forest is carried along, so the CDCL core can resolve through
/// the propagation during first-UIP conflict analysis exactly like a clause
/// reason — without paying for an explanation when no conflict ever needs it.
#[derive(Debug, Clone, Copy)]
pub struct Implied {
    /// The tag the pair was registered with (the solver's literal code).
    pub tag: Tag,
    /// `true`: the sides are congruent; `false`: they are disequal.
    pub equal: bool,
    /// The registered sides.
    pub a: TermId,
    pub b: TermId,
    /// For a disequality: witnesses `(via_a, via_b, tag)` with `via_a` in
    /// `a`'s class and `via_b` in `b`'s class, such that `via_a != via_b` was
    /// asserted under `tag` (`None` tag: the witnesses are distinct integer
    /// literals, disequal without any assertion).
    pub via: Option<(TermId, TermId, Option<Tag>)>,
}

impl Congruence {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    fn symbol(&mut self, name: &str) -> SymId {
        if let Some(&id) = self.symbols.get(name) {
            return id;
        }
        let id = self.symbols.len() as SymId;
        self.symbols.insert(name.to_string(), id);
        id
    }

    fn opaque(&mut self, form: &Form) -> SymId {
        if let Some(&id) = self.opaques.get(form) {
            return id;
        }
        let id = self.opaques.len() as SymId;
        self.opaques.insert(form.clone(), id);
        id
    }

    /// Interns a term (and all its sub-terms), returning its id.
    pub fn intern(&mut self, term: &Form) -> TermId {
        let key = match term {
            Form::Var(name) => Key::Var(self.symbol(name)),
            Form::Int(value) => Key::Int(*value),
            Form::Bool(value) => Key::Bool(*value),
            Form::Null => Key::Null,
            Form::EmptySet => Key::EmptySet,
            Form::App(name, args) => {
                let head = Head::Named(self.symbol(name));
                let children = args.iter().map(|a| self.intern(a)).collect();
                Key::App(head, children)
            }
            Form::FieldRead(fun, arg) => {
                Key::App(Head::FieldRead, vec![self.intern(fun), self.intern(arg)])
            }
            Form::FieldWrite(base, at, value) => Key::App(
                Head::FieldWrite,
                vec![self.intern(base), self.intern(at), self.intern(value)],
            ),
            Form::ArrayRead(state, arr, idx) => Key::App(
                Head::ArrayRead,
                vec![self.intern(state), self.intern(arr), self.intern(idx)],
            ),
            Form::ArrayWrite(state, arr, idx, value) => Key::App(
                Head::ArrayWrite,
                vec![
                    self.intern(state),
                    self.intern(arr),
                    self.intern(idx),
                    self.intern(value),
                ],
            ),
            Form::Tuple(parts) => {
                Key::App(Head::Tuple, parts.iter().map(|p| self.intern(p)).collect())
            }
            Form::Add(a, b) => Key::App(Head::Add, vec![self.intern(a), self.intern(b)]),
            Form::Sub(a, b) => Key::App(Head::Sub, vec![self.intern(a), self.intern(b)]),
            Form::Mul(a, b) => Key::App(Head::Mul, vec![self.intern(a), self.intern(b)]),
            Form::Neg(a) => Key::App(Head::Neg, vec![self.intern(a)]),
            Form::Card(a) => Key::App(Head::Card, vec![self.intern(a)]),
            Form::Union(a, b) => Key::App(Head::Union, vec![self.intern(a), self.intern(b)]),
            Form::Inter(a, b) => Key::App(Head::Inter, vec![self.intern(a), self.intern(b)]),
            Form::Diff(a, b) => Key::App(Head::Diff, vec![self.intern(a), self.intern(b)]),
            Form::FiniteSet(parts) => Key::App(
                Head::FiniteSet,
                parts.iter().map(|p| self.intern(p)).collect(),
            ),
            Form::Elem(a, b) => Key::App(Head::Elem, vec![self.intern(a), self.intern(b)]),
            Form::Subseteq(a, b) => Key::App(Head::Subseteq, vec![self.intern(a), self.intern(b)]),
            Form::Eq(a, b) => Key::App(Head::Eq, vec![self.intern(a), self.intern(b)]),
            Form::Lt(a, b) => Key::App(Head::Lt, vec![self.intern(a), self.intern(b)]),
            Form::Le(a, b) => Key::App(Head::Le, vec![self.intern(a), self.intern(b)]),
            Form::Ite(c, t, e) => Key::App(
                Head::Ite,
                vec![self.intern(c), self.intern(t), self.intern(e)],
            ),
            // Remaining boolean structure or binders: opaque structural leaf.
            other => Key::Opaque(self.opaque(other)),
        };
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let id = self.terms.len();
        let int_value = match term {
            Form::Int(value) => Some((*value, id)),
            _ => None,
        };
        let bool_value = match term {
            Form::Bool(value) => Some((*value, id)),
            _ => None,
        };
        self.terms.push(key.clone());
        self.index.insert(key.clone(), id);
        self.parent.push(id);
        self.size.push(1);
        self.class_int.push(int_value);
        self.class_bool.push(bool_value);
        self.uses.push(Vec::new());
        self.diseqs.push(Vec::new());
        self.proof_parent.push(id);
        self.proof_reason.push(None);
        // Register the application in its children's use-lists and in the
        // signature table; a signature collision merges the new term into the
        // existing congruent class.
        if let Key::App(head, children) = key {
            let sig: Vec<TermId> = children.iter().map(|&c| self.find(c)).collect();
            for &root in sig.iter() {
                self.uses[root].push(id);
                self.trail.push(Undo::UsePush(root));
            }
            let sig = (head, sig);
            match self.sigs.get(&sig) {
                Some(&existing) => self.pending.push((id, existing, MergeReason::Congruence)),
                None => {
                    self.sigs.insert(sig.clone(), id);
                    self.trail.push(Undo::SigInsert(sig));
                }
            }
        }
        id
    }

    /// The current representative of a term id (no path compression, so the
    /// structure stays cheap to undo; union-by-size bounds the depth).
    pub fn find(&self, mut id: TermId) -> TermId {
        while self.parent[id] != id {
            id = self.parent[id];
        }
        id
    }

    /// Asserts an equality between two terms (unexplainable; see
    /// [`Congruence::assert_eq_tagged`]).
    pub fn assert_eq(&mut self, a: &Form, b: &Form) {
        let (ia, ib) = (self.intern(a), self.intern(b));
        self.pending.push((ia, ib, MergeReason::Untagged));
    }

    /// Asserts an equality between two terms, labelled with an explanation
    /// tag.  Conflicts and equalities entailed (transitively, congruently)
    /// by tagged assertions can be explained as sets of tags.
    pub fn assert_eq_tagged(&mut self, a: &Form, b: &Form, tag: Tag) {
        let (ia, ib) = (self.intern(a), self.intern(b));
        self.pending.push((ia, ib, MergeReason::Assert(tag)));
    }

    /// Asserts a disequality between two terms (unexplainable).
    pub fn assert_neq(&mut self, a: &Form, b: &Form) {
        self.assert_neq_inner(a, b, None);
    }

    /// Asserts a disequality between two terms, labelled with a tag.
    pub fn assert_neq_tagged(&mut self, a: &Form, b: &Form, tag: Tag) {
        self.assert_neq_inner(a, b, Some(tag));
    }

    fn assert_neq_inner(&mut self, a: &Form, b: &Form, tag: Option<Tag>) {
        let (ia, ib) = (self.intern(a), self.intern(b));
        self.close();
        let (ra, rb) = (self.find(ia), self.find(ib));
        if ra == rb {
            self.set_conflict(ConflictCause::Diseq(ia, ib, tag));
            return;
        }
        let entry = DiseqEntry {
            other: ib,
            a: ia,
            b: ib,
            tag,
        };
        self.diseqs[ra].push(entry);
        self.trail.push(Undo::DiseqPush(ra));
        let entry = DiseqEntry {
            other: ia,
            a: ia,
            b: ib,
            tag,
        };
        self.diseqs[rb].push(entry);
        self.trail.push(Undo::DiseqPush(rb));
        self.diseq_stamp += 1;
    }

    /// Returns `true` if the two terms are currently known equal.
    pub fn are_equal(&mut self, a: &Form, b: &Form) -> bool {
        let (ia, ib) = (self.intern(a), self.intern(b));
        self.close();
        self.find(ia) == self.find(ib)
    }

    /// Propagates all pending merges and congruence to a fixpoint, detecting
    /// conflicts along the way.
    pub fn close(&mut self) {
        while let Some((a, b, reason)) = self.pending.pop() {
            if self.conflict {
                self.pending.clear();
                return;
            }
            self.merge(a, b, reason);
        }
    }

    fn set_conflict(&mut self, cause: ConflictCause) {
        self.conflict = true;
        if self.cause.is_none() {
            self.cause = Some(cause);
        }
    }

    /// Makes `node` the root of its proof-forest tree by reversing the path
    /// above it, recording every overwritten edge on the undo trail.
    fn reroot_proof(&mut self, node: TermId) {
        let mut chain = vec![node];
        let mut cur = node;
        while self.proof_parent[cur] != cur {
            cur = self.proof_parent[cur];
            chain.push(cur);
        }
        // Flip every edge on the path: `chain[i] -> chain[i+1]` becomes
        // `chain[i+1] -> chain[i]`, keeping its reason (the reason explains
        // the equality of the two endpoints, which is symmetric).
        for i in (0..chain.len() - 1).rev() {
            let child = chain[i];
            let parent = chain[i + 1];
            self.trail.push(Undo::Proof {
                node: parent,
                parent: self.proof_parent[parent],
                reason: self.proof_reason[parent],
            });
            self.proof_parent[parent] = child;
            self.proof_reason[parent] = self.proof_reason[child];
        }
        self.trail.push(Undo::Proof {
            node,
            parent: self.proof_parent[node],
            reason: self.proof_reason[node],
        });
        self.proof_parent[node] = node;
        self.proof_reason[node] = None;
    }

    /// Merges the classes of `a` and `b`, propagating congruence through the
    /// use-lists of the absorbed class.
    fn merge(&mut self, a: TermId, b: TermId, reason: MergeReason) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        // Union by size: absorb the smaller class.
        let (child, survivor) = if self.size[ra] <= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.trail.push(Undo::Union {
            child,
            survivor,
            survivor_uses_len: self.uses[survivor].len(),
            survivor_diseqs_len: self.diseqs[survivor].len(),
            survivor_int: self.class_int[survivor],
            survivor_bool: self.class_bool[survivor],
        });
        self.parent[child] = survivor;
        self.size[survivor] += self.size[child];
        self.generation += 1;
        // Proof forest: add the edge `a -> b` labelled with the reason (the
        // *original* endpoints, not the roots — explanations recurse through
        // them).  `a` is rerooted first so its tree hangs off the new edge.
        self.reroot_proof(a);
        self.trail.push(Undo::Proof {
            node: a,
            parent: self.proof_parent[a],
            reason: self.proof_reason[a],
        });
        self.proof_parent[a] = b;
        self.proof_reason[a] = Some(reason);
        // Merge known constants; a clash is a conflict.
        match (self.class_int[survivor], self.class_int[child]) {
            (Some((x, tx)), Some((y, ty))) if x != y => {
                self.set_conflict(ConflictCause::Constants(tx, ty));
                return;
            }
            (None, Some(y)) => self.class_int[survivor] = Some(y),
            _ => {}
        }
        match (self.class_bool[survivor], self.class_bool[child]) {
            (Some((x, tx)), Some((y, ty))) if x != y => {
                self.set_conflict(ConflictCause::Constants(tx, ty));
                return;
            }
            (None, Some(y)) => self.class_bool[survivor] = Some(y),
            _ => {}
        }
        // Disequality check (after the union, so a violated entry explains
        // through the new edge): does any partner recorded on either side now
        // live in the merged class?  Checking the smaller list suffices — a
        // disequality between the two classes has a mirror entry in each.
        let (small, large) = if self.diseqs[child].len() <= self.diseqs[survivor].len() {
            (child, survivor)
        } else {
            (survivor, child)
        };
        for i in 0..self.diseqs[small].len() {
            let entry = self.diseqs[small][i];
            let rp = self.find(entry.other);
            if rp == large || rp == small {
                self.set_conflict(ConflictCause::Diseq(entry.a, entry.b, entry.tag));
                return;
            }
        }
        // Move the child's disequalities and uses onto the survivor (by
        // appending copies; `pop` truncates the survivor's lists back).
        for i in 0..self.diseqs[child].len() {
            let entry = self.diseqs[child][i];
            self.diseqs[survivor].push(entry);
        }
        // Congruence: re-sign every application that had the child's class as
        // a child; a signature collision queues a merge.
        for i in 0..self.uses[child].len() {
            let parent_term = self.uses[child][i];
            self.uses[survivor].push(parent_term);
            if let Key::App(head, children) = &self.terms[parent_term] {
                let head = *head;
                let children = children.clone();
                let sig: Vec<TermId> = children.iter().map(|&c| self.find(c)).collect();
                let sig = (head, sig);
                match self.sigs.get(&sig) {
                    Some(&other) => {
                        if self.find(other) != self.find(parent_term) {
                            self.pending
                                .push((other, parent_term, MergeReason::Congruence));
                        }
                    }
                    None => {
                        self.sigs.insert(sig.clone(), parent_term);
                        self.trail.push(Undo::SigInsert(sig));
                    }
                }
            }
        }
    }

    /// Checks for conflicts.  Returns `true` if the asserted facts are
    /// inconsistent.
    pub fn has_conflict(&mut self) -> bool {
        self.close();
        self.conflict
    }

    /// The representative id of a term, interning it if necessary.
    pub fn class_of(&mut self, term: &Form) -> TermId {
        let id = self.intern(term);
        self.close();
        self.find(id)
    }

    /// Explains why the two (currently equal) terms are equal: the set of
    /// tags of the external assertions entailing the equality, recursing
    /// through congruence edges.  Returns `None` when an untagged assertion
    /// is involved (or the terms are not actually equal).
    pub fn explain_terms(&self, a: TermId, b: TermId) -> Option<Vec<Tag>> {
        let mut tags: BTreeSet<Tag> = BTreeSet::new();
        let mut queue: Vec<(TermId, TermId)> = vec![(a, b)];
        let mut seen: HashSet<(TermId, TermId)> = HashSet::new();
        while let Some((a, b)) = queue.pop() {
            if a == b || !seen.insert((a.min(b), a.max(b))) {
                continue;
            }
            let apath = self.proof_path(a);
            let bpath = self.proof_path(b);
            if apath.last() != bpath.last() {
                return None; // different proof trees: not equal
            }
            // Trim the shared suffix down to the nearest common ancestor.
            let (mut i, mut j) = (apath.len(), bpath.len());
            while i > 1 && j > 1 && apath[i - 2] == bpath[j - 2] {
                i -= 1;
                j -= 1;
            }
            for path in [&apath[..i], &bpath[..j]] {
                for k in 0..path.len().saturating_sub(1) {
                    match self.proof_reason[path[k]] {
                        Some(MergeReason::Assert(tag)) => {
                            tags.insert(tag);
                        }
                        Some(MergeReason::Untagged) | None => return None,
                        Some(MergeReason::Congruence) => {
                            let (u, v) = (path[k], path[k + 1]);
                            let (Key::App(hu, cu), Key::App(hv, cv)) =
                                (&self.terms[u], &self.terms[v])
                            else {
                                return None;
                            };
                            if hu != hv || cu.len() != cv.len() {
                                return None;
                            }
                            for (&x, &y) in cu.iter().zip(cv.iter()) {
                                queue.push((x, y));
                            }
                        }
                    }
                }
            }
        }
        Some(tags.into_iter().collect())
    }

    /// The proof-forest path from a node to its tree root, inclusive.
    fn proof_path(&self, mut node: TermId) -> Vec<TermId> {
        let mut path = vec![node];
        while self.proof_parent[node] != node {
            node = self.proof_parent[node];
            path.push(node);
        }
        path
    }

    /// Explains the current conflict as a set of assertion tags, or `None`
    /// when no conflict is recorded or an untagged assertion is involved.
    pub fn explain_conflict(&self) -> Option<Vec<Tag>> {
        match self.cause? {
            ConflictCause::Diseq(a, b, tag) => {
                let mut tags = self.explain_terms(a, b)?;
                let tag = tag?;
                if !tags.contains(&tag) {
                    tags.push(tag);
                }
                Some(tags)
            }
            ConflictCause::Constants(a, b) => self.explain_terms(a, b),
        }
    }

    /// Monotone-per-scope state counter: bumped on every union and every
    /// [`Congruence::pop`].  Two equal generations within one scope imply the
    /// class structure has not changed.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Monotone counter of disequality assertions.  Together with
    /// [`Congruence::generation`] it stamps every state change that can make
    /// a watched pair entailed, so the solver re-scans the candidate index
    /// only when something theory-visible actually happened.
    pub fn diseq_stamp(&self) -> u64 {
        self.diseq_stamp
    }

    /// Registers an equality atom for theory propagation: once the two sides
    /// become congruent (or provably disequal), [`Congruence::implied_literals`]
    /// reports `tag` with the appropriate polarity.  Must be called outside
    /// all scopes — the interned ids live as long as the engine, where ids
    /// interned under a scope are truncated by [`Congruence::pop`].
    pub fn watch_pair(&mut self, a: &Form, b: &Form, tag: Tag) -> (TermId, TermId) {
        debug_assert!(
            self.scopes.is_empty(),
            "watched pairs must be registered outside scopes"
        );
        let (ia, ib) = (self.intern(a), self.intern(b));
        self.watches.push((ia, ib, tag));
        (ia, ib)
    }

    /// Appends every watched pair the current classes entail — congruent
    /// sides or an asserted/constant disequality between their classes — to
    /// `out`, with the witnesses a lazy proof-forest explanation needs.  The
    /// caller filters by its own assignment; pairs whose truth is not yet
    /// determined by the classes are simply absent.
    pub fn implied_literals(&mut self, out: &mut Vec<Implied>) {
        self.close();
        if self.conflict {
            return; // the conflict path explains itself
        }
        for w in 0..self.watches.len() {
            let (a, b, tag) = self.watches[w];
            let (ra, rb) = (self.find(a), self.find(b));
            if ra == rb {
                out.push(Implied {
                    tag,
                    equal: true,
                    a,
                    b,
                    via: None,
                });
                continue;
            }
            // Distinct known integer constants are disequal without any
            // asserted disequality.
            if let (Some((x, tx)), Some((y, ty))) = (self.class_int[ra], self.class_int[rb]) {
                if x != y {
                    out.push(Implied {
                        tag,
                        equal: false,
                        a,
                        b,
                        via: Some((tx, ty, None)),
                    });
                    continue;
                }
            }
            // An asserted disequality between the two classes?  Scanning the
            // smaller list suffices: every disequality has an entry at each
            // end root.
            let (small, large) = if self.diseqs[ra].len() <= self.diseqs[rb].len() {
                (ra, rb)
            } else {
                (rb, ra)
            };
            for i in 0..self.diseqs[small].len() {
                let entry = self.diseqs[small][i];
                if self.find(entry.other) != large {
                    continue;
                }
                // `entry.other` lives in `large`'s class, its partner in
                // `small`'s; orient the witnesses onto the watched sides.
                let partner = if entry.other == entry.b {
                    entry.a
                } else {
                    entry.b
                };
                let (via_a, via_b) = if small == ra {
                    (partner, entry.other)
                } else {
                    (entry.other, partner)
                };
                out.push(Implied {
                    tag,
                    equal: false,
                    a,
                    b,
                    via: Some((via_a, via_b, entry.tag)),
                });
                break;
            }
        }
    }

    /// Opens a backtracking scope.  All interning, merges and disequalities
    /// performed afterwards are undone by the matching [`Congruence::pop`].
    pub fn push(&mut self) {
        self.close();
        self.scopes.push(Scope {
            trail_len: self.trail.len(),
            terms_len: self.terms.len(),
            conflict: self.conflict,
            cause: self.cause,
        });
    }

    /// Closes the innermost scope, restoring classes and disequalities
    /// exactly as they were at the matching [`Congruence::push`].
    pub fn pop(&mut self) {
        let scope = self.scopes.pop().expect("pop without matching push");
        self.pending.clear();
        self.generation += 1;
        while self.trail.len() > scope.trail_len {
            match self.trail.pop().expect("len checked") {
                Undo::Union {
                    child,
                    survivor,
                    survivor_uses_len,
                    survivor_diseqs_len,
                    survivor_int,
                    survivor_bool,
                } => {
                    self.parent[child] = child;
                    self.size[survivor] -= self.size[child];
                    self.uses[survivor].truncate(survivor_uses_len);
                    self.diseqs[survivor].truncate(survivor_diseqs_len);
                    self.class_int[survivor] = survivor_int;
                    self.class_bool[survivor] = survivor_bool;
                }
                Undo::UsePush(root) => {
                    self.uses[root].pop();
                }
                Undo::DiseqPush(root) => {
                    self.diseqs[root].pop();
                }
                Undo::SigInsert(sig) => {
                    self.sigs.remove(&sig);
                }
                Undo::Proof {
                    node,
                    parent,
                    reason,
                } => {
                    self.proof_parent[node] = parent;
                    self.proof_reason[node] = reason;
                }
            }
        }
        for id in scope.terms_len..self.terms.len() {
            let key = self.terms[id].clone();
            self.index.remove(&key);
        }
        self.terms.truncate(scope.terms_len);
        self.parent.truncate(scope.terms_len);
        self.size.truncate(scope.terms_len);
        self.class_int.truncate(scope.terms_len);
        self.class_bool.truncate(scope.terms_len);
        self.uses.truncate(scope.terms_len);
        self.diseqs.truncate(scope.terms_len);
        self.proof_parent.truncate(scope.terms_len);
        self.proof_reason.truncate(scope.terms_len);
        self.conflict = scope.conflict;
        self.cause = scope.cause;
    }

    /// Pops scopes until the depth is `depth` (a no-op when already there).
    /// The backjumping CDCL core unwinds several decision levels at once.
    pub fn pop_to(&mut self, depth: usize) {
        while self.scopes.len() > depth {
            self.pop();
        }
    }

    /// Number of interned terms (diagnostics and tests).
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Current scope depth (diagnostics and tests).
    pub fn depth(&self) -> usize {
        self.scopes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipl_logic::parser::parse_form;

    fn f(s: &str) -> Form {
        parse_form(s).unwrap()
    }

    #[test]
    fn transitivity_of_equality() {
        let mut cc = Congruence::new();
        cc.assert_eq(&f("a"), &f("b"));
        cc.assert_eq(&f("b"), &f("c"));
        assert!(cc.are_equal(&f("a"), &f("c")));
        assert!(!cc.are_equal(&f("a"), &f("d")));
    }

    #[test]
    fn congruence_of_function_applications() {
        let mut cc = Congruence::new();
        cc.assert_eq(&f("a"), &f("b"));
        assert!(cc.are_equal(&f("g(a)"), &f("g(b)")));
        assert!(cc.are_equal(&f("x.next"), &f("x.next")));
        assert!(!cc.are_equal(&f("g(a)"), &f("h(a)")));
    }

    #[test]
    fn field_reads_are_congruent_in_the_object() {
        let mut cc = Congruence::new();
        cc.assert_eq(&f("x"), &f("y"));
        assert!(cc.are_equal(&f("x.next"), &f("y.next")));
    }

    #[test]
    fn disequality_conflict() {
        let mut cc = Congruence::new();
        cc.assert_eq(&f("a"), &f("b"));
        cc.assert_neq(&f("a"), &f("b"));
        assert!(cc.has_conflict());
    }

    #[test]
    fn disequality_then_merge_conflict() {
        let mut cc = Congruence::new();
        cc.assert_neq(&f("a"), &f("b"));
        assert!(!cc.has_conflict());
        cc.assert_eq(&f("a"), &f("b"));
        assert!(cc.has_conflict());
    }

    #[test]
    fn distinct_integer_literals_conflict() {
        let mut cc = Congruence::new();
        cc.assert_eq(&f("x"), &f("1"));
        cc.assert_eq(&f("x"), &f("2"));
        assert!(cc.has_conflict());
    }

    #[test]
    fn no_spurious_conflicts() {
        let mut cc = Congruence::new();
        cc.assert_eq(&f("a"), &f("b"));
        cc.assert_neq(&f("a"), &f("c"));
        cc.assert_eq(&f("x"), &f("1"));
        cc.assert_eq(&f("y"), &f("2"));
        assert!(!cc.has_conflict());
    }

    #[test]
    fn derived_equality_via_congruence_chain() {
        let mut cc = Congruence::new();
        // a = b, f(a) = c, f(b) = d  =>  c = d
        cc.assert_eq(&f("a"), &f("b"));
        cc.assert_eq(&f("g(a)"), &f("c"));
        cc.assert_eq(&f("g(b)"), &f("d"));
        assert!(cc.are_equal(&f("c"), &f("d")));
    }

    #[test]
    fn push_pop_restores_classes_exactly() {
        let mut cc = Congruence::new();
        cc.assert_eq(&f("a"), &f("b"));
        assert!(cc.are_equal(&f("g(a)"), &f("g(b)")));
        let terms_before = cc.term_count();

        cc.push();
        cc.assert_eq(&f("b"), &f("c"));
        cc.assert_eq(&f("g(c)"), &f("d"));
        assert!(cc.are_equal(&f("a"), &f("c")));
        assert!(cc.are_equal(&f("g(a)"), &f("d")));
        cc.pop();

        // The scope's merges and interned terms are gone...
        assert_eq!(cc.term_count(), terms_before);
        assert!(!cc.are_equal(&f("a"), &f("c")));
        assert!(!cc.are_equal(&f("g(a)"), &f("d")));
        // ...but the outer facts survive, including congruence.
        assert!(cc.are_equal(&f("a"), &f("b")));
        assert!(cc.are_equal(&f("g(a)"), &f("g(b)")));
    }

    #[test]
    fn push_pop_restores_disequalities_exactly() {
        let mut cc = Congruence::new();
        cc.assert_neq(&f("a"), &f("b"));
        cc.push();
        cc.assert_neq(&f("a"), &f("c"));
        cc.assert_eq(&f("a"), &f("c"));
        assert!(cc.has_conflict());
        cc.pop();
        // The inner disequality and the conflict are gone; the outer one is
        // still in force.
        assert!(!cc.has_conflict());
        cc.assert_eq(&f("a"), &f("c"));
        assert!(!cc.has_conflict());
        cc.assert_eq(&f("a"), &f("b"));
        assert!(cc.has_conflict());
    }

    #[test]
    fn nested_scopes_unwind_in_order() {
        let mut cc = Congruence::new();
        cc.push();
        cc.assert_eq(&f("a"), &f("b"));
        cc.push();
        cc.assert_eq(&f("b"), &f("c"));
        assert!(cc.are_equal(&f("a"), &f("c")));
        cc.pop();
        assert!(cc.are_equal(&f("a"), &f("b")));
        assert!(!cc.are_equal(&f("a"), &f("c")));
        cc.pop();
        assert!(!cc.are_equal(&f("a"), &f("b")));
        assert_eq!(cc.depth(), 0);
    }

    #[test]
    fn congruence_discovered_at_intern_time() {
        let mut cc = Congruence::new();
        cc.assert_eq(&f("a"), &f("b"));
        cc.close();
        // g(a) is interned only now; its signature collides with g(b)'s.
        cc.assert_eq(&f("g(b)"), &f("c"));
        assert!(cc.are_equal(&f("g(a)"), &f("c")));
    }

    // ----- explanations -----

    #[test]
    fn explains_a_transitive_chain() {
        let mut cc = Congruence::new();
        cc.assert_eq_tagged(&f("a"), &f("b"), 1);
        cc.assert_eq_tagged(&f("b"), &f("c"), 2);
        cc.assert_eq_tagged(&f("x"), &f("y"), 3); // unrelated
        assert!(cc.are_equal(&f("a"), &f("c")));
        let (ia, ic) = (cc.intern(&f("a")), cc.intern(&f("c")));
        let tags = cc.explain_terms(ia, ic).unwrap();
        assert_eq!(tags, vec![1, 2], "only the chain's assertions appear");
    }

    #[test]
    fn explains_through_congruence_edges() {
        let mut cc = Congruence::new();
        cc.assert_eq_tagged(&f("a"), &f("b"), 1);
        cc.assert_eq_tagged(&f("g(a)"), &f("c"), 2);
        cc.assert_eq_tagged(&f("g(b)"), &f("d"), 3);
        assert!(cc.are_equal(&f("c"), &f("d")));
        let (ic, id) = (cc.intern(&f("c")), cc.intern(&f("d")));
        let tags = cc.explain_terms(ic, id).unwrap();
        assert_eq!(tags, vec![1, 2, 3], "congruence recurses into a = b");
    }

    #[test]
    fn explains_disequality_conflicts() {
        let mut cc = Congruence::new();
        cc.assert_neq_tagged(&f("a"), &f("c"), 7);
        cc.assert_eq_tagged(&f("a"), &f("b"), 8);
        cc.assert_eq_tagged(&f("b"), &f("c"), 9);
        assert!(cc.has_conflict());
        let mut tags = cc.explain_conflict().unwrap();
        tags.sort_unstable();
        assert_eq!(tags, vec![7, 8, 9]);
    }

    #[test]
    fn explains_constant_clashes() {
        let mut cc = Congruence::new();
        cc.assert_eq_tagged(&f("x"), &f("1"), 4);
        cc.assert_eq_tagged(&f("y"), &f("2"), 5);
        cc.assert_eq_tagged(&f("x"), &f("y"), 6);
        assert!(cc.has_conflict());
        let mut tags = cc.explain_conflict().unwrap();
        tags.sort_unstable();
        assert_eq!(tags, vec![4, 5, 6]);
    }

    #[test]
    fn untagged_assertions_make_explanations_unavailable() {
        let mut cc = Congruence::new();
        cc.assert_eq(&f("a"), &f("b")); // untagged
        cc.assert_eq_tagged(&f("b"), &f("c"), 2);
        assert!(cc.are_equal(&f("a"), &f("c")));
        let (ia, ic) = (cc.intern(&f("a")), cc.intern(&f("c")));
        assert_eq!(cc.explain_terms(ia, ic), None);
        // But a chain not crossing the untagged edge still explains.
        let (ib, ic) = (cc.intern(&f("b")), cc.intern(&f("c")));
        assert_eq!(cc.explain_terms(ib, ic), Some(vec![2]));
    }

    #[test]
    fn explanations_survive_push_pop() {
        let mut cc = Congruence::new();
        cc.assert_eq_tagged(&f("a"), &f("b"), 1);
        cc.close();
        cc.push();
        cc.assert_eq_tagged(&f("b"), &f("c"), 2);
        let (ia, ic) = (cc.intern(&f("a")), cc.intern(&f("c")));
        cc.close();
        assert_eq!(cc.explain_terms(ia, ic), Some(vec![1, 2]));
        cc.pop();
        let (ia, ib) = (cc.intern(&f("a")), cc.intern(&f("b")));
        assert_eq!(cc.explain_terms(ia, ib), Some(vec![1]));
        // The popped scope's edge is gone: a and c are no longer connected.
        let ic = cc.intern(&f("c"));
        cc.close();
        assert_eq!(cc.explain_terms(ia, ic), None);
    }

    #[test]
    fn generation_advances_on_merge_and_pop() {
        let mut cc = Congruence::new();
        let g0 = cc.generation();
        cc.assert_eq(&f("a"), &f("b"));
        cc.close();
        let g1 = cc.generation();
        assert!(g1 > g0, "a union bumps the generation");
        cc.push();
        cc.assert_eq(&f("b"), &f("c"));
        cc.close();
        cc.pop();
        assert!(cc.generation() > g1, "a pop bumps the generation");
    }

    #[test]
    fn pop_to_unwinds_multiple_scopes() {
        let mut cc = Congruence::new();
        cc.push();
        cc.assert_eq(&f("a"), &f("b"));
        cc.push();
        cc.assert_eq(&f("b"), &f("c"));
        cc.push();
        cc.assert_eq(&f("c"), &f("d"));
        assert_eq!(cc.depth(), 3);
        cc.pop_to(1);
        assert_eq!(cc.depth(), 1);
        assert!(cc.are_equal(&f("a"), &f("b")));
        assert!(!cc.are_equal(&f("b"), &f("c")));
        cc.pop_to(0);
        assert!(!cc.are_equal(&f("a"), &f("b")));
    }

    fn implied_of(cc: &mut Congruence) -> Vec<Implied> {
        let mut out = Vec::new();
        cc.implied_literals(&mut out);
        out
    }

    #[test]
    fn watched_pair_implied_by_a_merge_chain_with_explanation() {
        let mut cc = Congruence::new();
        let (ia, ib) = cc.watch_pair(&f("a"), &f("c"), 40);
        assert!(implied_of(&mut cc).is_empty());
        cc.push();
        cc.assert_eq_tagged(&f("a"), &f("b"), 10);
        cc.assert_eq_tagged(&f("b"), &f("c"), 12);
        let implied = implied_of(&mut cc);
        assert_eq!(implied.len(), 1);
        assert!(implied[0].equal);
        assert_eq!(implied[0].tag, 40);
        assert_eq!(cc.explain_terms(ia, ib), Some(vec![10, 12]));
        cc.pop();
        assert!(
            implied_of(&mut cc).is_empty(),
            "the implication is undone with the scope"
        );
    }

    #[test]
    fn watched_pair_implied_by_congruence() {
        let mut cc = Congruence::new();
        let (ia, ib) = cc.watch_pair(&f("g(a)"), &f("g(b)"), 6);
        cc.push();
        cc.assert_eq_tagged(&f("a"), &f("b"), 8);
        let implied = implied_of(&mut cc);
        assert_eq!(implied.len(), 1);
        assert!(implied[0].equal);
        assert_eq!(cc.explain_terms(ia, ib), Some(vec![8]));
    }

    #[test]
    fn watched_pair_implied_disequal_through_an_asserted_diseq() {
        let mut cc = Congruence::new();
        let (ia, ib) = cc.watch_pair(&f("a"), &f("b"), 20);
        cc.push();
        cc.assert_eq_tagged(&f("a"), &f("c"), 2);
        cc.assert_eq_tagged(&f("b"), &f("d"), 4);
        cc.assert_neq_tagged(&f("c"), &f("d"), 6);
        let implied = implied_of(&mut cc);
        assert_eq!(implied.len(), 1);
        assert!(!implied[0].equal);
        let (via_a, via_b, tag) = implied[0].via.expect("asserted witness");
        assert_eq!(tag, Some(6));
        // The witnesses are oriented onto the watched sides, so the lazy
        // explanation `a ~ via_a`, `b ~ via_b` succeeds.
        assert_eq!(cc.explain_terms(ia, via_a), Some(vec![2]));
        assert_eq!(cc.explain_terms(ib, via_b), Some(vec![4]));
    }

    #[test]
    fn watched_pair_implied_disequal_through_distinct_constants() {
        let mut cc = Congruence::new();
        let (ia, ib) = cc.watch_pair(&f("x"), &f("y"), 30);
        cc.push();
        cc.assert_eq_tagged(&f("x"), &f("1"), 3);
        cc.assert_eq_tagged(&f("y"), &f("2"), 5);
        let implied = implied_of(&mut cc);
        assert_eq!(implied.len(), 1);
        assert!(!implied[0].equal);
        let (via_a, via_b, tag) = implied[0].via.expect("constant witness");
        assert_eq!(tag, None);
        assert_eq!(cc.explain_terms(ia, via_a), Some(vec![3]));
        assert_eq!(cc.explain_terms(ib, via_b), Some(vec![5]));
    }

    #[test]
    fn diseq_stamp_advances_on_disequality_assertions() {
        let mut cc = Congruence::new();
        let s0 = cc.diseq_stamp();
        cc.assert_eq(&f("a"), &f("b"));
        cc.close();
        assert_eq!(cc.diseq_stamp(), s0, "unions leave the diseq stamp alone");
        cc.assert_neq(&f("a"), &f("c"));
        assert!(cc.diseq_stamp() > s0);
    }

    #[test]
    fn implied_literals_reports_nothing_under_a_conflict() {
        let mut cc = Congruence::new();
        cc.watch_pair(&f("a"), &f("b"), 14);
        cc.push();
        cc.assert_eq_tagged(&f("a"), &f("b"), 2);
        cc.assert_neq_tagged(&f("a"), &f("b"), 4);
        assert!(cc.has_conflict());
        assert!(implied_of(&mut cc).is_empty());
    }
}
