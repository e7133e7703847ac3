//! Bounded fuzzing of the verification pipeline: random (always
//! syntactically valid) annotated modules are verified with `--jobs 1` and
//! `--jobs 4` against a shared persistent store, and the normalised reports
//! must be byte-identical — the parallel driver and the disk cache may change
//! timings and attributions, never verdicts.  A store-free control run pins
//! the same parity without the disk in the loop.
//!
//! A single `#[test]`: the in-memory proof cache is process-global, and the
//! parity argument relies on every run of a case seeing the same world.

use ipl::core::{ModuleReport, Request, Session, VerifyError, VerifyOptions};
use ipl::provers::ProverConfig;
use proptest::prelude::*;
use std::path::PathBuf;

/// One randomly drawn method: `kind` picks the template, the integers feed
/// its constants.  Every template is provable by construction, so the fuzz
/// also pins that 100% of generated obligations verify in all
/// configurations.
#[derive(Debug, Clone)]
struct MethodDesc {
    kind: usize,
    lo: i64,
    add: i64,
    alt: i64,
    mid: i64,
}

fn method_desc() -> impl Strategy<Value = MethodDesc> {
    (0usize..3, 0i64..5, 0i64..6, 0i64..6, 0i64..8).prop_map(|(kind, lo, add, alt, mid)| {
        MethodDesc {
            kind,
            lo,
            add,
            alt,
            mid,
        }
    })
}

fn render_method(index: usize, desc: &MethodDesc) -> String {
    match desc.kind {
        // Straight-line arithmetic through a module variable.
        0 => format!(
            r#"
  method chain{index}(a: int) returns (out: int)
    requires "a >= {lo}"
    modifies value
    ensures "out >= {bound}"
  {{
    value := a + {add};
    out := value;
  }}
"#,
            lo = desc.lo,
            add = desc.add,
            bound = desc.lo + desc.add,
        ),
        // A branch whose ensures only survives if both arms are analysed.
        1 => format!(
            r#"
  method branch{index}(a: int) returns (out: int)
    requires "a >= {lo}"
    modifies value
    ensures "out >= {bound}"
  {{
    if (a >= {mid}) {{
      value := a + {add};
    }} else {{
      value := a + {alt};
    }}
    out := value;
  }}
"#,
            lo = desc.lo,
            mid = desc.mid,
            add = desc.add,
            alt = desc.alt,
            bound = desc.lo + desc.add.min(desc.alt),
        ),
        // A boolean observer, shaped like the suite's `isEmpty`.
        _ => format!(
            r#"
  method probe{index}(a: int) returns (hit: bool)
    requires "a >= 0"
    ensures "hit <-> a = {mid}"
  {{
    if (a == {mid}) {{
      hit := true;
    }} else {{
      hit := false;
    }}
  }}
"#,
            mid = desc.mid,
        ),
    }
}

fn render_module(methods: &[MethodDesc]) -> String {
    let mut source = String::from("module Fuzz {\n  var value: int;\n");
    for (index, desc) in methods.iter().enumerate() {
        source.push_str(&render_method(index, desc));
    }
    source.push_str("}\n");
    source
}

/// One request through a new session, as a new `ipl verify` process makes.
fn verify(source: &str, options: &VerifyOptions) -> Result<ModuleReport, VerifyError> {
    Session::new(options.clone())
        .verify(&Request::new(source))
        .map(|response| response.report)
}

fn options(jobs: usize, cache_dir: Option<PathBuf>, use_cache: bool) -> VerifyOptions {
    // As in `parallel.rs`: wall-clock deadlines are the one
    // machine-dependent budget, so they are effectively disabled for a
    // byte-identity comparison.
    let mut options = VerifyOptions::default()
        .with_config(ProverConfig {
            use_cache,
            per_prover_timeout_ms: 600_000,
            ..ProverConfig::default()
        })
        .with_jobs(jobs);
    options.cache_dir = cache_dir;
    options
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_modules_verify_identically_across_jobs_and_store(
        methods in prop::collection::vec(method_desc(), 1..4),
    ) {
        let dir = std::env::temp_dir().join(format!("ipl-fuzz-it-{}", std::process::id()));
        let source = render_module(&methods);
        let context = || format!("module:\n{source}");

        let sequential = verify(&source, &options(1, Some(dir.clone()), true))
            .unwrap_or_else(|e| panic!("jobs=1: {e}\n{}", context()));
        let parallel = verify(&source, &options(4, Some(dir.clone()), true))
            .unwrap_or_else(|e| panic!("jobs=4: {e}\n{}", context()));
        prop_assert_eq!(sequential.normalized(), parallel.normalized());

        let uncached = verify(&source, &options(4, None, false))
            .unwrap_or_else(|e| panic!("no-cache: {e}\n{}", context()));
        prop_assert_eq!(sequential.normalized(), uncached.normalized());

        // Every generated obligation is provable by construction.
        prop_assert_eq!(sequential.methods_verified(), sequential.method_count);
    }
}
