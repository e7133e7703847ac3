//! The content-addressed proof cache.
//!
//! The pipeline proves many structurally identical sequents: invariant
//! preservation obligations shared between methods, `from`-clause variants of
//! the same implication, and — most of all — the Table 2 experiment, which
//! verifies every benchmark twice (without and then with the proof language
//! constructs) and re-dispatches every sequent the two configurations share.
//!
//! [`ProofCache`] memoises `Proved` outcomes keyed by a *content fingerprint*
//! of the query: a structural hash of the goal, the assumption formulas as an
//! order-insensitive multiset (labels excluded — the label names a fact for
//! `from`-clause selection and diagnostics, it does not change validity), the
//! sorts of the symbols the sequent mentions, and the prover budgets.
//! Including the budgets keeps runs under other budgets honest: a
//! sequent proved under generous budgets must not report `Proved` under a
//! configuration whose bounded search would have failed.
//!
//! Only `Proved` is cached.  `Unknown` depends on timing (a timeout on a
//! loaded machine is not a refutation), so negative caching would make
//! results machine-dependent.
//!
//! The cache is process-global and thread-safe (sharded behind mutexes), so
//! the parallel verification driver's workers share it, and successive
//! verification runs in one process (Table 2's double run, repeated
//! `Session::verify` calls in a server) hit it across runs.

use crate::{ProverConfig, Query};
use ipl_logic::Form;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

const SHARD_COUNT: usize = 16;

/// A 128-bit content fingerprint (two independently seeded 64-bit structural
/// hashes; a collision would require both to collide simultaneously).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// The raw 128-bit value (for on-disk persistence; see
    /// [`crate::cache_store`]).
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// Reconstructs a fingerprint from its raw value (when replaying a
    /// persisted store entry).
    pub fn from_u128(raw: u128) -> Fingerprint {
        Fingerprint(raw)
    }
}

/// Counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

/// The global memo table of proved sequents: each fingerprint maps to the
/// name of the cascade stage that proved it.
pub struct ProofCache {
    shards: Vec<Mutex<HashMap<u128, &'static str>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ProofCache {
    /// The process-global cache instance.
    pub fn global() -> &'static ProofCache {
        static CACHE: OnceLock<ProofCache> = OnceLock::new();
        CACHE.get_or_init(|| ProofCache {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Computes the content fingerprint of a query under the given budgets
    /// and cascade line-up (`provers`, in dispatch order): a cascade with a
    /// restricted prover list must never replay a proof a missing stage
    /// found.
    ///
    /// Each half is a seeded structural hash of the goal, the assumption
    /// multiset (order-insensitive, labels ignored), the sorts of the
    /// mentioned symbols, the prover budgets and the line-up.  One hashing
    /// walk per formula feeds both halves, and one more collects the
    /// symbols it mentions.
    pub fn fingerprint(query: &Query, config: &ProverConfig, provers: &[&str]) -> Fingerprint {
        let mut hasher = TwoLanes::seeded();
        config.hash(&mut hasher);
        provers.hash(&mut hasher);
        query.goal.hash(&mut hasher);

        // Assumption multiset: per-form seeded hashes, sorted (per half) so
        // that assumption order, which varies with `from`-clause selection
        // order, is irrelevant.
        let mut assumption_hashes = [
            Vec::with_capacity(query.assumptions.len()),
            Vec::with_capacity(query.assumptions.len()),
        ];
        for labeled in &query.assumptions {
            let mut lanes = TwoLanes::seeded();
            labeled.form.hash(&mut lanes);
            for (hashes, hash) in assumption_hashes.iter_mut().zip(lanes.finish_both()) {
                hashes.push(hash);
            }
        }
        for (lane, hashes) in hasher.0.iter_mut().zip(&mut assumption_hashes) {
            hashes.sort_unstable();
            hashes.hash(lane);
        }

        // The sorts of the symbols the sequent actually mentions: two
        // textually identical sequents over differently-sorted variables are
        // different proof problems.
        let mut mentioned = Vec::new();
        collect_symbols(&query.goal, &mut Vec::new(), &mut mentioned);
        for labeled in &query.assumptions {
            collect_symbols(&labeled.form, &mut Vec::new(), &mut mentioned);
        }
        mentioned.sort_unstable();
        mentioned.dedup();
        for name in mentioned {
            name.hash(&mut hasher);
            query.env.var_sort(name).hash(&mut hasher);
            query.env.fun_sig(name).hash(&mut hasher);
        }
        let [lo, hi] = hasher.finish_both();
        Fingerprint(((hi as u128) << 64) | lo as u128)
    }

    /// Looks up a fingerprint; returns the name of the prover that originally
    /// discharged the sequent.
    pub fn lookup(&self, fingerprint: Fingerprint) -> Option<String> {
        let shard = &self.shards[(fingerprint.0 as usize) % SHARD_COUNT];
        let found = shard
            .lock()
            .expect("proof-cache shard poisoned")
            .get(&fingerprint.0)
            .map(|prover| prover.to_string());
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Records a proved sequent under the name of the stage that proved it.
    pub fn record(&self, fingerprint: Fingerprint, prover: &'static str) {
        let shard = &self.shards[(fingerprint.0 as usize) % SHARD_COUNT];
        shard
            .lock()
            .expect("proof-cache shard poisoned")
            .insert(fingerprint.0, prover);
    }

    /// Effectiveness counters, cumulative over the process since the last
    /// [`reset_stats`](Self::reset_stats).  Concurrent requests all count
    /// into them; a report counts its own hits from each answer's `cached`
    /// flag instead.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("proof-cache shard poisoned").len())
                .sum(),
        }
    }

    /// Empties the cache and resets the counters (tests and benchmarks that
    /// must measure uncached behaviour).
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.lock().expect("proof-cache shard poisoned").clear();
        }
        self.reset_stats();
    }

    /// Resets the hit/miss counters while keeping every entry, for a
    /// benchmark that measures one phase.  Verification itself never resets
    /// them, so one request cannot clobber another's counts.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// The seeds of the fingerprint's low and high halves.
const SEEDS: [u64; 2] = [0x9e37_79b9_7f4a_7c15, 0xc2b2_ae3d_27d4_eb4f];

/// A hasher with two lanes, each a `DefaultHasher` that starts from one of
/// [`SEEDS`]: every write goes to both, so one walk of a formula hashes it
/// into both halves, exactly as two separately seeded walks would.
struct TwoLanes([DefaultHasher; 2]);

impl TwoLanes {
    fn seeded() -> TwoLanes {
        let mut lanes = [DefaultHasher::new(), DefaultHasher::new()];
        for (lane, seed) in lanes.iter_mut().zip(SEEDS) {
            seed.hash(lane);
        }
        TwoLanes(lanes)
    }

    fn finish_both(&self) -> [u64; 2] {
        [self.0[0].finish(), self.0[1].finish()]
    }
}

impl Hasher for TwoLanes {
    fn write(&mut self, bytes: &[u8]) {
        for lane in &mut self.0 {
            lane.write(bytes);
        }
    }

    /// The low half; [`TwoLanes::finish_both`] gives both.
    fn finish(&self) -> u64 {
        self.0[0].finish()
    }
}

/// Appends to `out` the free variables of `form` and the symbols it applies
/// (`bound` holds the binders in scope), duplicates included.
fn collect_symbols<'f>(form: &'f Form, bound: &mut Vec<&'f str>, out: &mut Vec<&'f str>) {
    match form {
        Form::Var(name) => {
            if !bound.contains(&name.as_str()) {
                out.push(name);
            }
        }
        Form::Forall(bs, body) | Form::Exists(bs, body) | Form::Compr(bs, body) => {
            let depth = bound.len();
            bound.extend(bs.iter().map(|(v, _)| v.as_str()));
            collect_symbols(body, bound, out);
            bound.truncate(depth);
        }
        Form::App(name, args) => {
            out.push(name);
            for arg in args {
                collect_symbols(arg, bound, out);
            }
        }
        other => other.for_each_child(|c| collect_symbols(c, bound, out)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipl_logic::parser::parse_form;
    use ipl_logic::{Labeled, Sort, SortEnv};

    fn env() -> SortEnv {
        let mut e = SortEnv::new();
        e.declare_var("x", Sort::Int);
        e.declare_var("y", Sort::Int);
        e
    }

    fn query(assumptions: &[(&str, &str)], goal: &str) -> Query {
        Query::new(
            assumptions
                .iter()
                .map(|(label, form)| Labeled::new(*label, parse_form(form).unwrap()))
                .collect(),
            parse_form(goal).unwrap(),
            env(),
        )
    }

    #[test]
    fn fingerprint_ignores_labels_and_assumption_order() {
        let config = ProverConfig::default();
        let provers: &[&str] = &["syntactic", "smt-ground"];
        let a = query(&[("A", "x = 1"), ("B", "y = 2")], "x < y");
        let b = query(&[("First", "y = 2"), ("Second", "x = 1")], "x < y");
        assert_eq!(
            ProofCache::fingerprint(&a, &config, provers),
            ProofCache::fingerprint(&b, &config, provers)
        );
    }

    #[test]
    fn fingerprint_distinguishes_goals_assumptions_budgets_and_line_up() {
        let config = ProverConfig::default();
        let provers: &[&str] = &["syntactic", "smt-ground"];
        let base = query(&[("A", "x = 1")], "0 < x");
        assert_ne!(
            ProofCache::fingerprint(&base, &config, provers),
            ProofCache::fingerprint(&query(&[("A", "x = 1")], "1 < x"), &config, provers)
        );
        assert_ne!(
            ProofCache::fingerprint(&base, &config, provers),
            ProofCache::fingerprint(&query(&[("A", "x = 2")], "0 < x"), &config, provers)
        );
        assert_ne!(
            ProofCache::fingerprint(&base, &config, provers),
            ProofCache::fingerprint(&base, &ProverConfig::quick(), provers)
        );
        // A restricted cascade must not see entries a missing stage produced.
        assert_ne!(
            ProofCache::fingerprint(&base, &config, provers),
            ProofCache::fingerprint(&base, &config, &["syntactic"])
        );
    }

    #[test]
    fn fingerprint_distinguishes_sorts() {
        let config = ProverConfig::default();
        let provers: &[&str] = &["smt-ground"];
        let int_query = query(&[], "a = b");
        let mut obj_env = SortEnv::new();
        obj_env.declare_var("a", Sort::Obj);
        obj_env.declare_var("b", Sort::Obj);
        let obj_query = Query::new(Vec::new(), parse_form("a = b").unwrap(), obj_env);
        assert_ne!(
            ProofCache::fingerprint(&int_query, &config, provers),
            ProofCache::fingerprint(&obj_query, &config, provers)
        );
    }

    #[test]
    fn record_then_lookup_round_trips() {
        let cache = ProofCache::global();
        let config = ProverConfig::default();
        let fp = ProofCache::fingerprint(
            &query(&[("H", "x = 41")], "x + 1 = 42"),
            &config,
            &["smt-ground"],
        );
        assert_eq!(cache.lookup(fp), None);
        cache.record(fp, "smt-ground");
        assert_eq!(cache.lookup(fp).as_deref(), Some("smt-ground"));
        assert!(cache.stats().hits >= 1);
    }
}
