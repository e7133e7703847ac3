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

/// Verifies a one-method module and asserts its one postcondition is
/// reported unproved, without a crash.
fn assert_unproved_without_crash(source: &str) {
    let report = verify(source, &VerifyOptions::default()).unwrap();
    assert!(!report.fully_proved(), "{}", report.render());
    assert_eq!(report.crashed_sequents(), 0, "{}", report.render());
}

#[test]
fn overflowing_constant_products_stay_unfolded() {
    // 2^62 * 4 = 2^64 is 0 modulo 2^64: a wrapping fold would make this
    // false postcondition hold.
    assert_unproved_without_crash(
        r#"
module Wrap {
  var value: int;
  method fold()
    ensures "4611686018427387904 * 4 = 0"
  {
  }
}
"#,
    );
}

#[test]
fn overflowing_coefficients_stay_opaque() {
    // Linearising scales the coefficient of k by 2^62 * 4, which wraps to
    // 0 and would drop k from the constraint.
    assert_unproved_without_crash(
        r#"
module Wrap {
  var value: int;
  method scale(k: int)
    requires "k = 1"
    ensures "4611686018427387904 * (4 * k) = 0"
  {
  }
}
"#,
    );
}

#[test]
fn old_in_a_ghost_assignment_reads_the_entry_value() {
    // `g` receives the entry value of `x`, one less than its final value;
    // reading `old(x)` in the ghost formula as the current `x` would
    // verify this false postcondition.
    assert_unproved_without_crash(
        r#"
module G {
  var x: int;
  specvar g: int;
  method m() modifies x, g ensures "g = x" {
    x := x + 1;
    ghost g := "old(x)";
  }
}
"#,
    );
}

#[test]
fn old_reads_the_entry_value_of_a_variable_assigned_only_inside_fix() {
    // `x` is assigned only in the `fix` body, so the postcondition is
    // false; reading `old(x)` as the current `x` would verify it.
    let source = r#"
module M {
  var x: int;
  method m() ensures "x = old(x)" {
    fix k: int suchThat "k = 0" show Done: "true" { x := x + 1; }
  }
}
"#;
    let options = VerifyOptions::default().with_config(ProverConfig::without_cache());
    let report = verify(source, &options).unwrap();
    let failed: Vec<&str> = report.methods[0]
        .failed_sequents()
        .iter()
        .map(|s| s.goal_label.as_str())
        .collect();
    assert_eq!(failed, ["Postcondition"], "{}", report.render());
}

#[test]
fn a_fix_body_runs_between_its_constraint_and_its_goal() {
    let source = r#"
module F {
  var x: int;
  method m() modifies x ensures "0 < x" {
    x := 0;
    fix k: int suchThat "k = x" show Kept: "k < x" { x := x + 1; }
  }
}
"#;
    let options = VerifyOptions::default().with_config(ProverConfig::without_cache());
    let report = verify(source, &options).unwrap();
    assert!(report.fully_proved(), "{}", report.render());
    assert_eq!(report.total_sequents(), 3, "{}", report.render());
    assert_eq!(report.statement_count, 2, "the fix body's statement counts");
}

#[test]
fn old_in_a_program_expression_reads_the_entry_value() {
    let source = r#"
module Snapshot {
  var x: int;
  var y: int;
  method m()
    modifies x, y
    ensures "y + 1 = x"
  {
    x := x + 1;
    y := old(x);
  }
}
"#;
    let report = verify(source, &VerifyOptions::default()).unwrap();
    assert!(report.fully_proved(), "{}", report.render());
}

#[test]
fn old_in_a_callee_precondition_reads_the_state_at_the_call() {
    // `need` is called with `x = -1`, whatever `x` was when `caller` began.
    let source = r#"
module Calls {
  var x: int;
  method need() requires "0 <= old(x)" { skip; }
  method caller() requires "0 <= x" modifies x {
    x := -1;
    call need();
  }
}
"#;
    let report = verify(source, &VerifyOptions::default()).unwrap();
    let verified = |name: &str| {
        report
            .methods
            .iter()
            .any(|m| m.name == name && m.fully_proved())
    };
    assert!(
        verified("need") && !verified("caller"),
        "{}",
        report.render()
    );
}

#[test]
fn a_non_ascii_block_comment_is_skipped() {
    let source = r#"
module Commented {
  /* café ☕ */
  var value: int;
  method bump()
    modifies value
    ensures "value = old(value) + 1"
  { value := value + 1; }
}
"#;
    let report = verify(source, &VerifyOptions::default()).unwrap();
    assert!(report.fully_proved(), "{}", report.render());
}

#[test]
fn a_stray_non_ascii_character_is_named_and_spanned() {
    let source = "module Stray {\n  var x: int; ☕\n}";
    let error = verify(source, &VerifyOptions::default()).unwrap_err();
    assert_eq!(error.kind(), "parse");
    assert_eq!(error.line(), Some(2));
    assert!(error.to_string().contains("'☕'"), "{error}");
    let span = error.span().expect("a parse error has a span");
    assert_eq!(&source[span.start..span.end], "☕");
}
