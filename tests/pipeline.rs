//! Integration tests spanning the whole pipeline: surface language ->
//! guarded commands -> verification conditions -> prover cascade.

use ipl::core::{ModuleReport, Request, Session, VerifyError, VerifyOptions};
use ipl::provers::ProverConfig;

fn verify(source: &str, options: &VerifyOptions) -> Result<ModuleReport, VerifyError> {
    Session::new(options.clone())
        .verify(&Request::new(source))
        .map(|response| response.report)
}

#[test]
fn verified_counter_module_end_to_end() {
    let source = r#"
module Counter {
  var value: int;
  invariant NonNeg: "0 <= value";
  method add(amount: int)
    requires "0 <= amount"
    modifies value
    ensures "value = old(value) + amount"
  {
    value := value + amount;
  }
}
"#;
    let report = verify(source, &VerifyOptions::default()).unwrap();
    assert!(report.fully_proved(), "{}", report.render());
}

#[test]
fn buggy_module_is_rejected() {
    let source = r#"
module Buggy {
  var value: int;
  invariant NonNeg: "0 <= value";
  method drain()
    modifies value
    ensures "0 <= value"
  {
    value := value - 1;
  }
}
"#;
    let report = verify(source, &VerifyOptions::default()).unwrap();
    assert!(
        !report.fully_proved(),
        "the invariant violation must be detected"
    );
}

#[test]
fn proof_constructs_add_obligations_and_guidance() {
    let source = r#"
module Guided {
  var x: int;
  method set()
    modifies x
    ensures "0 <= x"
  {
    x := 3;
    note Positive: "0 < x" from assign_x;
  }
}
"#;
    let with = verify(source, &VerifyOptions::default()).unwrap();
    let without = verify(source, &VerifyOptions::without_proof_constructs()).unwrap();
    assert!(with.fully_proved());
    assert!(without.fully_proved());
    assert!(
        with.total_sequents() > without.total_sequents(),
        "notes add proof obligations"
    );
}

#[test]
fn loops_calls_and_heap_verify() {
    let source = r#"
module Accumulator {
  var total: int;
  var cell: obj;
  field stored: int;
  invariant NonNeg: "0 <= total";

  method bump()
    modifies total
    ensures "total = old(total) + 1"
  {
    total := total + 1;
  }

  method bumpMany(n: int)
    requires "0 <= n"
    modifies total
    ensures "total = old(total) + n"
  {
    var i: int := 0;
    while (i < n)
      invariant "0 <= i & i <= n & total = old(total) + i"
    {
      call bump();
      i := i + 1;
    }
  }

  method stash(o: obj)
    requires "o ~= null"
    modifies cell, stored
    ensures "cell = o & o.stored = total"
  {
    cell := o;
    o.stored := total;
  }
}
"#;
    let report = verify(source, &VerifyOptions::default()).unwrap();
    assert!(report.fully_proved(), "{}", report.render());
}

#[test]
fn hash_table_cardinality_sequents_reach_the_bapa_stage() {
    // The ground stage answers `Unknown` at a saturated leaf, so the
    // cardinality obligations of Hash Table go on to the standalone BAPA
    // stage, as in Jahob's cascade.
    let benchmark = ipl::suite::by_name("Hash Table").expect("benchmark exists");
    let options = VerifyOptions::default()
        .with_config(ProverConfig::without_cache())
        .with_jobs(1);
    let report = verify(benchmark.source, &options).unwrap();
    assert_eq!(report.method_count, 6, "{}", report.render());
    assert!(report.fully_proved(), "{}", report.render());
    assert_eq!(
        report.prover_counts().get("bapa").copied(),
        Some(4),
        "{:?}",
        report.prover_counts()
    );
}
