//! Seeded inputs for every workload, each with the answer it must get.
//!
//! Every input is one of the eight Table 1 modules, changed in a way whose
//! effect on the verdict is known by construction:
//!
//! * a *no-op local* (`var editK: int := K;` as the first statement of a
//!   method body) adds a fresh variable that nothing reads, so every method
//!   still verifies;
//! * a *mutant* rewrites one `ensures "P"` to `ensures "~(P)"`.  `P` was
//!   proved, so `~(P)` cannot be, and exactly that method must fail.
//!
//! The answers are never taken from `ipl`; `tests/generator.rs` pins that
//! the construction holds for every method and every mutant.

use ipl::suite::benchmarks;
use std::ops::Range;
use std::sync::OnceLock;

/// SplitMix64: small, seedable and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream (`stream`) of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One method of a Table 1 module, located in its source text.
#[derive(Debug, Clone)]
pub struct Method {
    pub name: String,
    /// Byte offset just past the `{` that opens the body.
    body: usize,
    /// Byte ranges of the `P` of each `ensures "P"`, in source order.
    ensures: Vec<Range<usize>>,
}

/// One Table 1 module and its methods.
#[derive(Debug, Clone)]
pub struct Module {
    /// The Table 1 row name, e.g. `Hash Table`.
    pub name: &'static str,
    pub source: &'static str,
    pub methods: Vec<Method>,
}

/// The eight Table 1 modules (46 methods, 49 `ensures` clauses).
pub fn corpus() -> &'static [Module] {
    static CORPUS: OnceLock<Vec<Module>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        benchmarks::all()
            .into_iter()
            .map(|b| Module {
                name: b.name,
                source: b.source,
                methods: scan(b.source),
            })
            .collect()
    })
}

/// Finds every `method NAME`, the `{` opening its body and the `ensures`
/// strings of its header, skipping string literals and `//` comments.
fn scan(source: &str) -> Vec<Method> {
    let bytes = source.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let word_at = |i: usize, word: &str| {
        bytes[i..].starts_with(word.as_bytes())
            && (i == 0 || !is_ident(bytes[i - 1]))
            && bytes.get(i + word.len()).is_none_or(|&b| !is_ident(b))
    };
    let mut methods: Vec<Method> = Vec::new();
    let mut in_header = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let end = i + 1 + source[i + 1..].find('"').expect("unterminated string");
                let keyword_before = source[..i].trim_end();
                if in_header && keyword_before.ends_with("ensures") {
                    let method = methods.last_mut().expect("ensures inside a method");
                    method.ensures.push(i + 1..end);
                }
                i = end + 1;
                continue;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                i += source[i..].find('\n').unwrap_or(source.len() - i);
                continue;
            }
            b'{' if in_header => {
                methods.last_mut().expect("body of a method").body = i + 1;
                in_header = false;
            }
            _ if word_at(i, "method") => {
                let rest = &source[i + "method".len()..];
                let name: String = rest
                    .trim_start()
                    .chars()
                    .take_while(|&c| c.is_ascii_alphanumeric() || c == '_')
                    .collect();
                methods.push(Method {
                    name,
                    body: 0,
                    ensures: Vec::new(),
                });
                in_header = true;
            }
            _ => {}
        }
        i += 1;
    }
    methods
}

/// What an input is, relative to its Table 1 module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The module as written (the daemons' priming pass).
    Base,
    /// No-op locals in a seeded subset of methods (cli-cold).
    Variant,
    /// The module as written, re-sent to a warm daemon (serve-edit).
    Unchanged,
    /// One method gained a fresh no-op local (serve-edit).
    Edit,
    /// One `ensures "P"` became `ensures "~(P)"` (serve-failing).
    Mutant,
}

/// One request's module text and the answer it must get.
#[derive(Debug, Clone)]
pub struct Input {
    pub module: usize,
    pub kind: Kind,
    pub source: String,
    /// The method that must fail (mutants), or `None` when all must verify.
    pub failing: Option<usize>,
}

impl Input {
    pub fn module(&self) -> &'static Module {
        &corpus()[self.module]
    }

    /// The expected verdict of every method, in source order.
    pub fn expected(&self) -> Vec<bool> {
        (0..self.module().methods.len())
            .map(|m| Some(m) != self.failing)
            .collect()
    }

    pub fn label(&self) -> String {
        let module = self.module();
        match self.failing {
            Some(m) => format!("{} {} mutant", module.name, module.methods[m].name),
            None => format!("{} ({:?})", module.name, self.kind),
        }
    }
}

/// The module with a `var editK: int := K;` opening each listed method.
pub fn with_locals(module: usize, locals: &[(usize, u64)]) -> String {
    let module = &corpus()[module];
    let mut inserts: Vec<(usize, String)> = locals
        .iter()
        .map(|&(m, k)| {
            (
                module.methods[m].body,
                format!("\n    var edit{k}: int := {k};"),
            )
        })
        .collect();
    inserts.sort_by_key(|&(at, _)| std::cmp::Reverse(at));
    let mut source = module.source.to_string();
    for (at, text) in inserts {
        source.insert_str(at, &text);
    }
    source
}

/// One negated-postcondition mutant: module, method and `ensures` index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutantId {
    pub module: usize,
    pub method: usize,
    pub ensures: usize,
}

impl MutantId {
    pub fn input(self) -> Input {
        let module = &corpus()[self.module];
        let range = module.methods[self.method].ensures[self.ensures].clone();
        let source = format!(
            "{}~({}){}",
            &module.source[..range.start],
            &module.source[range.clone()],
            &module.source[range.end..]
        );
        Input {
            module: self.module,
            kind: Kind::Mutant,
            source,
            failing: Some(self.method),
        }
    }

    pub fn names(self) -> (&'static str, &'static str) {
        let module = &corpus()[self.module];
        (module.name, &module.methods[self.method].name)
    }
}

/// A mutant left out of serve-failing, and why.
#[derive(Debug, Clone, Copy)]
pub struct Exclusion {
    pub module: &'static str,
    pub method: &'static str,
    pub ensures: usize,
    pub reason: &'static str,
}

/// The clock-cut rule: a mutant is excluded when, in the traced run at
/// `--jobs 1` on an idle machine, one of its stage calls uses more than half
/// of `per_prover_timeout_ms`.  At that length whether the node budget or
/// the clock ends the search depends on the machine and its load, so its
/// time measures the timeout rather than the search.  Run the benchmark's
/// `--list-mutants` check to re-derive this list after a prover change.
pub const EXCLUDED: &[Exclusion] = &[Exclusion {
    module: "Hash Table",
    method: "initialize",
    ensures: 0,
    reason: "clock-cut: its ground and inst calls each run close to the 2 s per-prover timeout",
}];

/// Every negated-postcondition mutant (49 on the Table 1 modules).
pub fn all_mutants() -> Vec<MutantId> {
    let mut out = Vec::new();
    for (module, m) in corpus().iter().enumerate() {
        for (method, meth) in m.methods.iter().enumerate() {
            for ensures in 0..meth.ensures.len() {
                out.push(MutantId {
                    module,
                    method,
                    ensures,
                });
            }
        }
    }
    out
}

pub fn is_excluded(id: MutantId) -> bool {
    let (module, method) = id.names();
    EXCLUDED
        .iter()
        .any(|e| e.module == module && e.method == method && e.ensures == id.ensures)
}

/// The mutants serve-failing sends: all of them but the clock-cut ones.
pub fn failing_mutants() -> Vec<MutantId> {
    all_mutants()
        .into_iter()
        .filter(|&id| !is_excluded(id))
        .collect()
}

/// The eight modules as written: the daemons' priming pass.
pub fn priming() -> Vec<Input> {
    (0..corpus().len())
        .map(|module| Input {
            module,
            kind: Kind::Base,
            source: corpus()[module].source.to_string(),
            failing: None,
        })
        .collect()
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CliCold,
    ServeEdit,
    ServeFailing,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CliCold,
        Workload::ServeEdit,
        Workload::ServeFailing,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CliCold => "cli-cold",
            Workload::ServeEdit => "serve-edit",
            Workload::ServeFailing => "serve-failing",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One client's seeded request sequence for a workload, sent in cycles that each hold the same mix of inputs, so every seed
/// sends the same mix and the seed sets only the order and the constants:
///
/// * cli-cold: the eight modules, each method given a no-op local with
///   probability ½;
/// * serve-edit: for each of the 46 methods, its module unchanged once and
///   that method with a fresh no-op local once (so a request is unchanged
///   with probability ½);
/// * serve-failing: every mutant not excluded by the clock-cut rule.
#[derive(Debug)]
pub struct Stream {
    workload: Workload,
    rng: Rng,
    /// The next edit constant; streams of different clients never share
    /// one, so every edit is new to the daemon.
    next_k: u64,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, client: u64) -> Stream {
        Stream {
            workload,
            rng: Rng::new(seed, client + 1),
            next_k: (client + 1) * 1_000_000,
        }
    }

    /// One full cycle of this stream (see the type's docs).
    pub fn cycle(&mut self) -> Vec<Input> {
        let modules = corpus();
        let mut cycle = Vec::new();
        match self.workload {
            Workload::CliCold => {
                let mut order: Vec<usize> = (0..modules.len()).collect();
                self.rng.shuffle(&mut order);
                for module in order {
                    let mut locals = Vec::new();
                    for method in 0..modules[module].methods.len() {
                        if self.rng.coin() {
                            locals.push((method, self.rng.below(1_000_000) as u64));
                        }
                    }
                    cycle.push(Input {
                        module,
                        kind: Kind::Variant,
                        source: with_locals(module, &locals),
                        failing: None,
                    });
                }
            }
            Workload::ServeEdit => {
                for (module, m) in modules.iter().enumerate() {
                    for method in 0..m.methods.len() {
                        cycle.push(Input {
                            module,
                            kind: Kind::Unchanged,
                            source: m.source.to_string(),
                            failing: None,
                        });
                        let k = self.next_k;
                        self.next_k += 1;
                        cycle.push(Input {
                            module,
                            kind: Kind::Edit,
                            source: with_locals(module, &[(method, k)]),
                            failing: None,
                        });
                    }
                }
                self.rng.shuffle(&mut cycle);
            }
            Workload::ServeFailing => {
                let mut mutants = failing_mutants();
                self.rng.shuffle(&mut mutants);
                cycle = mutants.into_iter().map(MutantId::input).collect();
            }
        }
        cycle
    }
}
