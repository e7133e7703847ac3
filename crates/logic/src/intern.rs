//! Hash-consing of formulas: a global, sharded intern table that maps every
//! structurally distinct sub-formula to one canonical [`Arc<Form>`]
//! allocation.
//!
//! [`share`] rebuilds a formula bottom-up, replacing every recursive position
//! by the canonical allocation for that subtree.  Afterwards, structurally
//! equal subtrees — within one sequent, across the sequents of a method, and
//! across methods and modules — are pointer-identical, so
//!
//! * equality checks hit the `Arc<T: Eq>` pointer fast path of the standard
//!   library,
//! * clones are pointer bumps (already true of any `Form`, but interned terms
//!   additionally *deduplicate* memory), and
//! * pointer-keyed memo tables (see [`crate::subst::substitute`]) get maximal
//!   hit rates.
//!
//! The table is sharded by hash so that the parallel verification driver's
//! workers intern concurrently without contending on one lock.  Entries are
//! held strongly and live until [`clear`] is called: the suite's working set
//! of distinct subterms is small (tens of thousands of nodes), and a stable
//! address space means pointers can be used as memo keys without
//! use-after-free aliasing hazards.  Long-running servers should call
//! [`clear`] between independent workloads.
//!
//! Hashing is structural but computed *per node* from the already-computed
//! hashes of the interned children, so one [`share`] call is linear in the
//! number of distinct nodes (the DAG size), not in the tree unfolding.

use crate::form::Form;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

const SHARD_COUNT: usize = 16;

/// The canonical allocations whose structural hash is one value.  Almost
/// every hash has exactly one, so it is held inline rather than in a `Vec`
/// of its own, and the rare collisions share a boxed slice: a table slot
/// takes 24 bytes instead of 32.
enum Bucket {
    One(Arc<Form>),
    Many(Box<[Arc<Form>]>),
}

impl Bucket {
    fn entries(&self) -> &[Arc<Form>] {
        match self {
            Bucket::One(canonical) => std::slice::from_ref(canonical),
            Bucket::Many(canonical) => canonical,
        }
    }

    fn push(&mut self, canonical: Arc<Form>) {
        let mut all = match self {
            Bucket::One(first) => vec![Arc::clone(first)],
            Bucket::Many(all) => std::mem::take(all).into_vec(),
        };
        all.push(canonical);
        *self = Bucket::Many(all.into_boxed_slice());
    }
}

/// The global intern table.
struct Interner {
    shards: Vec<Mutex<HashMap<u64, Bucket>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Counters describing the state of the intern table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternStats {
    /// Number of canonical allocations currently interned.
    pub entries: usize,
    /// Lookups that found an existing allocation.
    pub hits: u64,
    /// Lookups that created a new allocation.
    pub misses: u64,
}

fn interner() -> &'static Interner {
    static TABLE: OnceLock<Interner> = OnceLock::new();
    TABLE.get_or_init(|| Interner {
        shards: (0..SHARD_COUNT)
            .map(|_| Mutex::new(HashMap::new()))
            .collect(),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
    })
}

/// Returns the canonical allocation for `node`, whose recursive positions
/// must already be canonical (so the structural comparison against bucket
/// candidates short-circuits on pointer identity one level down).
fn intern_node(node: Form, hash: u64) -> Arc<Form> {
    let table = interner();
    let shard = &table.shards[(hash as usize) % SHARD_COUNT];
    let mut buckets = shard.lock().expect("intern shard poisoned");
    if let Some(bucket) = buckets.get(&hash) {
        if let Some(found) = bucket.entries().iter().find(|c| ***c == node) {
            table.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(found);
        }
    }
    table.misses.fetch_add(1, Ordering::Relaxed);
    let canonical = Arc::new(node);
    match buckets.entry(hash) {
        Entry::Vacant(slot) => {
            slot.insert(Bucket::One(Arc::clone(&canonical)));
        }
        Entry::Occupied(mut slot) => slot.get_mut().push(Arc::clone(&canonical)),
    }
    canonical
}

/// Statistics of the global intern table.
pub fn stats() -> InternStats {
    let table = interner();
    let entries = table
        .shards
        .iter()
        .map(|s| {
            s.lock()
                .expect("intern shard poisoned")
                .values()
                .map(|bucket| bucket.entries().len())
                .sum::<usize>()
        })
        .sum();
    InternStats {
        entries,
        hits: table.hits.load(Ordering::Relaxed),
        misses: table.misses.load(Ordering::Relaxed),
    }
}

/// Empties the intern table (outstanding `Arc`s stay valid; future [`share`]
/// calls start from an empty table).  Intended for tests and long-running
/// processes that switch workloads.
pub fn clear() {
    for shard in &interner().shards {
        shard.lock().expect("intern shard poisoned").clear();
    }
}

/// Returns a maximally-shared formula structurally equal to `form`: every
/// recursive position holds the canonical allocation of its subtree.
pub fn share(form: &Form) -> Form {
    let mut memo = HashMap::new();
    share_rec(form, &mut memo).0
}

/// Interns a formula and returns the canonical allocation of the whole tree
/// (useful when the caller stores the root behind an `Arc` as well).
pub fn share_arc(form: &Form) -> Arc<Form> {
    let mut memo = HashMap::new();
    let (shared, hash) = share_rec(form, &mut memo);
    intern_node(shared, hash)
}

/// Per-call memo: the address of an `Arc` child of the input → its
/// canonical allocation and hash.
type Memo = HashMap<usize, (Arc<Form>, u64)>;

/// Rebuilds `form` with canonical recursive positions and returns it with
/// its hash, computed from its payload and the hashes of its children.  An
/// `Arc` child reached twice within one call is answered from the memo, so
/// each distinct node is visited once; `Vec` elements live inside their
/// parent, so they are reached once per visit of the parent.
fn share_rec(form: &Form, memo: &mut Memo) -> (Form, u64) {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    std::mem::discriminant(form).hash(&mut hasher);

    // Rebuild each child canonically, feeding the child hashes into this
    // node's hash.  `child` interns through the global table; `inline` keeps
    // Vec elements inline (they are full `Form`s, not pointers) but still
    // rebuilds them with canonical recursive positions.
    type H = std::collections::hash_map::DefaultHasher;
    fn child(c: &Arc<Form>, hasher: &mut H, memo: &mut Memo) -> Arc<Form> {
        let key = Arc::as_ptr(c) as usize;
        let (canonical, h) = match memo.get(&key) {
            Some((canonical, h)) => (Arc::clone(canonical), *h),
            None => {
                let (shared, h) = share_rec(c, memo);
                let canonical = intern_node(shared, h);
                memo.insert(key, (Arc::clone(&canonical), h));
                (canonical, h)
            }
        };
        h.hash(hasher);
        canonical
    }
    fn inline(c: &Form, hasher: &mut H, memo: &mut Memo) -> Form {
        let (shared, h) = share_rec(c, memo);
        h.hash(hasher);
        shared
    }

    let rebuilt = match form {
        Form::Var(name) => {
            name.hash(&mut hasher);
            form.clone()
        }
        Form::Int(value) => {
            value.hash(&mut hasher);
            form.clone()
        }
        Form::Bool(value) => {
            value.hash(&mut hasher);
            form.clone()
        }
        Form::Null | Form::EmptySet => form.clone(),
        Form::Not(a) => Form::Not(child(a, &mut hasher, memo)),
        Form::Neg(a) => Form::Neg(child(a, &mut hasher, memo)),
        Form::Card(a) => Form::Card(child(a, &mut hasher, memo)),
        Form::Old(a) => Form::Old(child(a, &mut hasher, memo)),
        Form::And(xs) => Form::And(xs.iter().map(|x| inline(x, &mut hasher, memo)).collect()),
        Form::Or(xs) => Form::Or(xs.iter().map(|x| inline(x, &mut hasher, memo)).collect()),
        Form::FiniteSet(xs) => {
            Form::FiniteSet(xs.iter().map(|x| inline(x, &mut hasher, memo)).collect())
        }
        Form::Tuple(xs) => Form::Tuple(xs.iter().map(|x| inline(x, &mut hasher, memo)).collect()),
        Form::App(name, xs) => {
            name.hash(&mut hasher);
            Form::App(
                name.clone(),
                xs.iter().map(|x| inline(x, &mut hasher, memo)).collect(),
            )
        }
        Form::Implies(a, b) => {
            Form::Implies(child(a, &mut hasher, memo), child(b, &mut hasher, memo))
        }
        Form::Iff(a, b) => Form::Iff(child(a, &mut hasher, memo), child(b, &mut hasher, memo)),
        Form::Eq(a, b) => Form::Eq(child(a, &mut hasher, memo), child(b, &mut hasher, memo)),
        Form::Lt(a, b) => Form::Lt(child(a, &mut hasher, memo), child(b, &mut hasher, memo)),
        Form::Le(a, b) => Form::Le(child(a, &mut hasher, memo), child(b, &mut hasher, memo)),
        Form::Add(a, b) => Form::Add(child(a, &mut hasher, memo), child(b, &mut hasher, memo)),
        Form::Sub(a, b) => Form::Sub(child(a, &mut hasher, memo), child(b, &mut hasher, memo)),
        Form::Mul(a, b) => Form::Mul(child(a, &mut hasher, memo), child(b, &mut hasher, memo)),
        Form::FieldRead(a, b) => {
            Form::FieldRead(child(a, &mut hasher, memo), child(b, &mut hasher, memo))
        }
        Form::Elem(a, b) => Form::Elem(child(a, &mut hasher, memo), child(b, &mut hasher, memo)),
        Form::Union(a, b) => Form::Union(child(a, &mut hasher, memo), child(b, &mut hasher, memo)),
        Form::Inter(a, b) => Form::Inter(child(a, &mut hasher, memo), child(b, &mut hasher, memo)),
        Form::Diff(a, b) => Form::Diff(child(a, &mut hasher, memo), child(b, &mut hasher, memo)),
        Form::Subseteq(a, b) => {
            Form::Subseteq(child(a, &mut hasher, memo), child(b, &mut hasher, memo))
        }
        Form::Ite(a, b, c) => Form::Ite(
            child(a, &mut hasher, memo),
            child(b, &mut hasher, memo),
            child(c, &mut hasher, memo),
        ),
        Form::FieldWrite(a, b, c) => Form::FieldWrite(
            child(a, &mut hasher, memo),
            child(b, &mut hasher, memo),
            child(c, &mut hasher, memo),
        ),
        Form::ArrayRead(a, b, c) => Form::ArrayRead(
            child(a, &mut hasher, memo),
            child(b, &mut hasher, memo),
            child(c, &mut hasher, memo),
        ),
        Form::ArrayWrite(a, b, c, d) => Form::ArrayWrite(
            child(a, &mut hasher, memo),
            child(b, &mut hasher, memo),
            child(c, &mut hasher, memo),
            child(d, &mut hasher, memo),
        ),
        Form::Forall(bs, body) => {
            bs.hash(&mut hasher);
            Form::Forall(bs.clone(), child(body, &mut hasher, memo))
        }
        Form::Exists(bs, body) => {
            bs.hash(&mut hasher);
            Form::Exists(bs.clone(), child(body, &mut hasher, memo))
        }
        Form::Compr(bs, body) => {
            bs.hash(&mut hasher);
            Form::Compr(bs.clone(), child(body, &mut hasher, memo))
        }
    };
    (rebuilt, hasher.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_form;

    #[test]
    fn share_preserves_structural_equality() {
        let f = parse_form("forall i:int. 0 <= i & i < size --> elements[i] ~= null").unwrap();
        let shared = share(&f);
        assert_eq!(shared, f);
    }

    #[test]
    fn equal_subtrees_become_pointer_identical() {
        let f = parse_form("f(x + 1) = g(x + 1)").unwrap();
        let shared = share(&f);
        let Form::Eq(lhs, rhs) = &shared else {
            panic!("expected equality, got {shared:?}");
        };
        let (Form::App(_, largs), Form::App(_, rargs)) = (lhs.as_ref(), rhs.as_ref()) else {
            panic!("expected applications");
        };
        let (Form::Add(la, lb), Form::Add(ra, rb)) = (&largs[0], &rargs[0]) else {
            panic!("expected additions");
        };
        assert!(Arc::ptr_eq(la, ra), "shared `x` argument");
        assert!(Arc::ptr_eq(lb, rb), "shared `1` argument");
    }

    #[test]
    fn sharing_is_global_across_calls() {
        let a = share(&parse_form("p(n) --> q(n)").unwrap());
        let b = share(&parse_form("p(n) --> q(n)").unwrap());
        let (Form::Implies(ax, _), Form::Implies(bx, _)) = (&a, &b) else {
            panic!("expected implications");
        };
        assert!(Arc::ptr_eq(ax, bx), "canonical allocation reused");
    }

    #[test]
    fn colliding_hashes_keep_every_canonical_allocation() {
        let forms: Vec<Arc<Form>> = ["a", "b", "c"]
            .iter()
            .map(|v| Arc::new(parse_form(v).unwrap()))
            .collect();
        let mut bucket = Bucket::One(Arc::clone(&forms[0]));
        bucket.push(Arc::clone(&forms[1]));
        bucket.push(Arc::clone(&forms[2]));
        let entries = bucket.entries();
        assert_eq!(entries.len(), 3);
        for (entry, form) in entries.iter().zip(&forms) {
            assert!(Arc::ptr_eq(entry, form), "insertion order, same allocation");
        }
    }

    #[test]
    fn stats_count_entries() {
        let before = stats();
        // A formula with fresh, never-before-interned leaves.
        let f = parse_form("zz_intern_stats_1 = zz_intern_stats_2").unwrap();
        share(&f);
        let after = stats();
        assert!(after.entries > before.entries);
        assert!(after.misses > before.misses);
        share(&f);
        assert!(stats().hits > after.hits);
    }
}
