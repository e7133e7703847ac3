//! The per-method front-end memo behind [`Session::verify`](crate::Session).
//!
//! When the author edits one method and verifies the module again, every
//! other method's front end (lowering, translation, `wlp`, split, assumption
//! selection, fingerprinting) rebuilds exactly what it built last time.  The
//! memo keeps, per method, what the report needs of that work: each
//! sequent's name and goal label, whether split discharged it, and its
//! fingerprint, plus the method's construct counts ([`Obligations`]).  It
//! keeps no queries and no verdicts.  A method it knows costs one structural
//! comparison plus one proof-cache lookup per sequent, and it is answered
//! only when the proof cache still holds every one of those fingerprints, so
//! its answers are exactly the proof cache's.  Otherwise the method runs the
//! front end and the cascade as if the memo did not exist.
//!
//! ## The key
//!
//! A key that missed one input of lowering would answer a stale proof, so
//! the key holds everything lowering reads of the module, and an entry is
//! compared with it exactly on every hit (the 64-bit hash only finds the
//! candidate):
//!
//! * the module's declarations: state, fields, specvars, `vardef`s and
//!   invariants;
//! * the method's own syntax tree;
//! * the signature and contract of every method it calls, taking the first
//!   method of each name as lowering does: a call is lowered to its callee's
//!   contract, so weakening a callee's `ensures` must reach its callers;
//! * whether proof constructs are kept.
//!
//! The other methods' bodies are not in the key, so an edit re-runs the
//! front end of the edited method and of its callers only.
//!
//! ## The bound
//!
//! Two [`Generations`] of 64 entries.  Only methods whose every sequent was
//! proved are inserted, since an entry for a method with an unproved sequent
//! could never answer.

use ipl_gcl::cmd::ConstructCounts;
use ipl_lang::{Method, Module};
use ipl_provers::cache::{Fingerprint, Generations};
use std::cell::OnceCell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Entries the memo keeps per generation.
const GENERATION_CAPACITY: usize = 64;

/// What the report needs of one method's front end: its construct counts
/// and its sequents, in split order.
#[derive(Debug)]
pub(crate) struct Obligations {
    pub(crate) counts: ConstructCounts,
    pub(crate) sequents: Vec<Obligation>,
}

/// One sequent as the report needs it.
#[derive(Debug)]
pub(crate) struct Obligation {
    pub(crate) name: String,
    pub(crate) goal_label: String,
    /// Split discharged it (trivially valid); nothing is dispatched.
    pub(crate) trivial: bool,
    /// The fingerprint of its query; `None` when trivial or when the proof
    /// cache is off.
    pub(crate) fingerprint: Option<Fingerprint>,
}

/// The session's memo: one entry per fully proved method, bounded.
#[derive(Debug)]
pub(crate) struct Memo {
    entries: Mutex<Generations<u64, Entry>>,
}

impl Default for Memo {
    fn default() -> Memo {
        Memo {
            entries: Mutex::new(Generations::new(GENERATION_CAPACITY)),
        }
    }
}

/// One remembered method: its key, owned, and its obligations.
#[derive(Debug)]
struct Entry {
    /// The declarations, as a module without methods.
    decls: Arc<Module>,
    method: Method,
    /// Each callee's signature and contract, as a method without a body.
    callees: Vec<Method>,
    use_proof_constructs: bool,
    obligations: Arc<Obligations>,
}

/// The keys of one request's methods, borrowed from its module.
pub(crate) struct Keys<'a> {
    module: &'a Module,
    use_proof_constructs: bool,
    /// The hash of each method's key, in method order.
    hashes: Vec<u64>,
    /// The declarations, copied once for every entry the request inserts.
    decls: OnceCell<Arc<Module>>,
}

impl<'a> Keys<'a> {
    pub(crate) fn new(module: &'a Module, use_proof_constructs: bool) -> Keys<'a> {
        let mut decls_hasher = DefaultHasher::new();
        decls(module).hash(&mut decls_hasher);
        let decls_hash = decls_hasher.finish();
        let hashes = module
            .methods
            .iter()
            .map(|method| {
                let mut hasher = DefaultHasher::new();
                decls_hash.hash(&mut hasher);
                method.hash(&mut hasher);
                method.for_each_callee(|name| module.method(name).map(contract).hash(&mut hasher));
                use_proof_constructs.hash(&mut hasher);
                hasher.finish()
            })
            .collect();
        Keys {
            module,
            use_proof_constructs,
            hashes,
            decls: OnceCell::new(),
        }
    }
}

impl Entry {
    /// Whether this entry's key equals the key of method `index` of `keys`.
    fn matches(&self, keys: &Keys<'_>, index: usize) -> bool {
        let module = keys.module;
        self.use_proof_constructs == keys.use_proof_constructs
            && self.method == module.methods[index]
            && decls(&self.decls) == decls(module)
            && self.callees.iter().all(|callee| {
                module
                    .method(&callee.name)
                    .is_some_and(|now| contract(now) == contract(callee))
            })
    }
}

impl Memo {
    /// Entries held.
    pub(crate) fn len(&self) -> usize {
        self.entries.lock().expect("memo poisoned").len()
    }

    /// The obligations remembered for method `index` of `keys`, when an
    /// entry's key equals its key exactly.
    pub(crate) fn get(&self, keys: &Keys<'_>, index: usize) -> Option<Arc<Obligations>> {
        let mut entries = self.entries.lock().expect("memo poisoned");
        let entry = entries.get(&keys.hashes[index])?;
        entry
            .matches(keys, index)
            .then(|| Arc::clone(&entry.obligations))
    }

    /// Remembers the obligations of method `index` of `keys`, every one of
    /// whose sequents was proved.
    pub(crate) fn insert(&self, keys: &Keys<'_>, index: usize, obligations: Arc<Obligations>) {
        let module = keys.module;
        let method = &module.methods[index];
        let mut callees: Vec<Method> = Vec::new();
        method.for_each_callee(|name| {
            if callees.iter().any(|known| known.name == name) {
                return;
            }
            if let Some(callee) = module.method(name) {
                callees.push(Method {
                    name: callee.name.clone(),
                    params: callee.params.clone(),
                    returns: callee.returns.clone(),
                    requires: callee.requires.clone(),
                    modifies: callee.modifies.clone(),
                    ensures: callee.ensures.clone(),
                    body: Vec::new(),
                });
            }
        });
        let decls = keys.decls.get_or_init(|| {
            Arc::new(Module {
                name: String::new(),
                state_vars: module.state_vars.clone(),
                fields: module.fields.clone(),
                specvars: module.specvars.clone(),
                vardefs: module.vardefs.clone(),
                invariants: module.invariants.clone(),
                methods: Vec::new(),
            })
        });
        let entry = Entry {
            decls: Arc::clone(decls),
            method: method.clone(),
            callees,
            use_proof_constructs: keys.use_proof_constructs,
            obligations,
        };
        self.entries
            .lock()
            .expect("memo poisoned")
            .insert(keys.hashes[index], entry);
    }
}

/// What every method's obligations read of the module.
fn decls(module: &Module) -> impl Hash + Eq + '_ {
    (
        &module.state_vars,
        &module.fields,
        &module.specvars,
        &module.vardefs,
        &module.invariants,
    )
}

/// What a call reads of its callee: the signature and the contract.
fn contract(callee: &Method) -> impl Hash + Eq + '_ {
    (
        &callee.params,
        &callee.returns,
        &callee.requires,
        &callee.modifies,
        &callee.ensures,
    )
}
