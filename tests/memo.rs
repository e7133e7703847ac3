//! The session's per-method front-end memo must never change an answer.
//!
//! * Parity: a session that has verified all eight Table 1 modules gets
//!   every one-local edit of each of their 46 methods twice, and each
//!   answer must equal a fresh session's.
//! * Invalidation: editing what a method's obligations read outside its own
//!   body (a callee's contract, an invariant, a `vardef`) must reach the
//!   method, so a warm session answers what a fresh one does.
//! * Bound: the memo never holds more than its capacity.

use ipl::core::{ModuleReport, Request, Session, VerifyOptions};
use ipl::provers::ProverConfig;

/// The most entries the memo holds: two generations of 64.
const MEMO_CAPACITY: usize = 128;

/// Every budget but the wall-clock is a deterministic count; the timeout is
/// raised so a loaded machine cannot make one session's search end early.
fn options() -> VerifyOptions {
    VerifyOptions::default()
        .with_config(ProverConfig {
            per_prover_timeout_ms: 600_000,
            ..ProverConfig::default()
        })
        .with_jobs(1)
}

fn verify(session: &Session, source: &str) -> ModuleReport {
    session
        .verify(&Request::new(source))
        .unwrap_or_else(|e| panic!("{e}\n{source}"))
        .report
}

fn fresh(source: &str) -> String {
    verify(&Session::new(options()), source).normalized()
}

/// The byte offset just past the `{` that opens each method body, skipping
/// string literals and `//` comments (the way the benchmark generator
/// finds them).
fn method_bodies(source: &str) -> Vec<usize> {
    let bytes = source.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut bodies = Vec::new();
    let mut in_header = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => i += source[i + 1..].find('"').expect("terminated string") + 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                i += source[i..].find('\n').unwrap_or(source.len() - i)
            }
            b'{' if in_header => {
                bodies.push(i + 1);
                in_header = false;
            }
            _ if bytes[i..].starts_with(b"method")
                && (i == 0 || !is_ident(bytes[i - 1]))
                && bytes.get(i + 6).is_some_and(|&b| !is_ident(b)) =>
            {
                in_header = true
            }
            _ => {}
        }
        i += 1;
    }
    bodies
}

/// `source` with a fresh, unread local opening the body at `body`.
fn with_local(source: &str, body: usize, k: usize) -> String {
    let mut edited = source.to_string();
    edited.insert_str(body, &format!("\n    var edit{k}: int := {k};"));
    edited
}

#[test]
fn every_one_local_edit_answers_as_a_fresh_session_does() {
    let warm = Session::new(options());
    let benchmarks = ipl::suite::benchmarks::all();
    for benchmark in &benchmarks {
        assert!(verify(&warm, benchmark.source).fully_proved());
    }
    let mut edits = 0;
    for benchmark in &benchmarks {
        for body in method_bodies(benchmark.source) {
            let edited = with_local(benchmark.source, body, edits);
            let first = verify(&warm, &edited);
            let expected = fresh(&edited);
            assert_eq!(first.normalized(), expected, "{}", benchmark.name);
            let again = verify(&warm, &edited);
            assert_eq!(again.normalized(), expected, "{}", benchmark.name);
            let nontrivial: usize = again
                .methods
                .iter()
                .map(|m| m.total_sequents - m.trivial_sequents)
                .sum();
            assert_eq!(again.cache_hits(), nontrivial, "a repeat is all replays");
            edits += 1;
        }
    }
    assert_eq!(edits, 46, "the eight modules have 46 methods");
    let entries = warm.stats().memo_entries;
    assert!((1..=MEMO_CAPACITY).contains(&entries), "{entries} entries");
}

const COUNTER: &str = r#"
    module Counter {
      var value: int;
      specvar positive: bool;
      vardef positive = "0 < value";
      invariant NonNeg: "0 <= value";

      method increment() returns (result: int)
        modifies value, positive
        ensures "value = old(value) + 1 & result = value"
      {
        value := value + 1;
        result := value;
      }

      method add(amount: int)
        requires "0 <= amount"
        modifies value, positive
        ensures "value = old(value) + amount"
      {
        var i: int := 0;
        while (i < amount)
          invariant "0 <= i & i <= amount & value = old(value) + i"
        {
          call increment();
          i := i + 1;
        }
      }

      method isPositive() returns (result: bool)
        ensures "result = positive"
      {
        result := 0 < value;
      }
    }
"#;

/// Verifies `COUNTER` in a warm session, then `changed` (which must differ
/// from it) in the same session and in a fresh one, and returns both
/// answers to `changed`: warm, then fresh.
fn warm_and_fresh(from: &str, to: &str) -> (ModuleReport, ModuleReport) {
    let changed = COUNTER.replacen(from, to, 1);
    assert_ne!(changed, COUNTER, "`{from}` is in the module");
    let warm = Session::new(options());
    let original = verify(&warm, COUNTER);
    assert!(original.fully_proved());
    let warm_answer = verify(&warm, &changed);
    let fresh_answer = verify(&Session::new(options()), &changed);
    assert_eq!(warm_answer.normalized(), fresh_answer.normalized());
    assert_ne!(
        warm_answer.normalized(),
        original.normalized(),
        "the change must reach the answer"
    );
    (warm_answer, fresh_answer)
}

#[test]
fn a_weakened_callee_ensures_reaches_its_caller() {
    let (warm, _) = warm_and_fresh(
        "ensures \"value = old(value) + 1 & result = value\"",
        "ensures \"result = value\"",
    );
    let add = &warm.methods[1];
    assert_eq!(add.name, "add");
    assert!(
        !add.fully_proved(),
        "the caller can no longer keep its invariant"
    );
}

#[test]
fn a_new_callee_requires_reaches_its_caller() {
    let (warm, _) = warm_and_fresh(
        "method increment() returns (result: int)\n",
        "method increment() returns (result: int)\n        requires \"0 <= value\"\n",
    );
    let add = &warm.methods[1];
    assert!(
        add.sequents
            .iter()
            .any(|s| s.goal_label.starts_with("increment_pre")),
        "the caller proves the callee's precondition"
    );
}

#[test]
fn a_changed_invariant_or_vardef_reaches_every_method() {
    warm_and_fresh(
        "invariant NonNeg: \"0 <= value\"",
        "invariant NonNeg: \"value <= 0\"",
    );
    warm_and_fresh(
        "vardef positive = \"0 < value\"",
        "vardef positive = \"1 < value\"",
    );
}

#[test]
fn many_distinct_edits_keep_the_memo_within_its_capacity() {
    let session = Session::new(options());
    let body = method_bodies(COUNTER)[0];
    for k in 0..2 * MEMO_CAPACITY {
        let report = verify(&session, &with_local(COUNTER, body, k));
        assert!(report.fully_proved());
        let entries = session.stats().memo_entries;
        assert!(
            entries <= MEMO_CAPACITY,
            "{entries} entries after {k} edits"
        );
    }
    assert!(session.stats().memo_entries >= MEMO_CAPACITY / 2);
}
