//! The negated-postcondition mutants of the Table 1 modules.  A mutant
//! rewrites one `ensures "P"` to `ensures "~(P)"`.  `P` is proved, so
//! `~(P)` cannot be, and exactly the mutated method must fail: every other
//! method keeps its proof.  The eight modules hold 46 methods and 49
//! `ensures` clauses, so there are 49 mutants.
//!
//! A failing method is the paper's proof loop (the author reads the
//! unproved sequent and adds a `note … from …`), and its sequents are
//! searched to budget by the instantiating stage, so this is also the
//! verdict check for that search.  The answers are built from the source
//! text, never taken from `ipl`.  One session primed with the eight modules
//! answers each mutant's unchanged methods from its memo, which keeps the
//! sweep to seconds in a debug build.

use ipl::core::{Request, Session, VerifyOptions};
use std::ops::Range;

/// One method of a module's source: its name and the byte range of the `P`
/// of each `ensures "P"` of its header, in source order.
struct Method {
    name: String,
    ensures: Vec<Range<usize>>,
}

/// Finds every `method NAME` and the `ensures` strings of its header,
/// skipping the contents of string literals and `//` comments.
fn methods(source: &str) -> Vec<Method> {
    let bytes = source.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut methods: Vec<Method> = Vec::new();
    let mut in_header = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let end = i + 1 + source[i + 1..].find('"').expect("terminated string");
                if in_header && source[..i].trim_end().ends_with("ensures") {
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
            b'{' => in_header = false,
            _ if source[i..].starts_with("method")
                && (i == 0 || !is_ident(bytes[i - 1]))
                && bytes.get(i + "method".len()).is_some_and(|&b| !is_ident(b)) =>
            {
                let name = source[i + "method".len()..]
                    .trim_start()
                    .chars()
                    .take_while(|&c| is_ident(c as u8))
                    .collect();
                methods.push(Method {
                    name,
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

/// The source with the `ensures` string at `range` negated.
fn negated(source: &str, range: &Range<usize>) -> String {
    format!(
        "{}~({}){}",
        &source[..range.start],
        &source[range.clone()],
        &source[range.end..]
    )
}

#[test]
fn each_negated_postcondition_fails_exactly_its_own_method() {
    let session = Session::new(VerifyOptions::default());
    let benchmarks = ipl::suite::benchmarks::all();
    for benchmark in &benchmarks {
        let report = session
            .verify(&Request::new(benchmark.source))
            .unwrap()
            .report;
        assert!(report.fully_proved(), "{} verifies", benchmark.name);
    }

    let mut mutants = 0;
    let mut wrong = Vec::new();
    for benchmark in &benchmarks {
        let methods = methods(benchmark.source);
        for method in &methods {
            for (index, range) in method.ensures.iter().enumerate() {
                mutants += 1;
                let source = negated(benchmark.source, range);
                let report = session.verify(&Request::new(&source)).unwrap().report;
                let names: Vec<&str> = report.methods.iter().map(|m| m.name.as_str()).collect();
                let expected: Vec<&str> = methods.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(
                    names, expected,
                    "{}: methods in source order",
                    benchmark.name
                );
                let failed: Vec<&str> = report
                    .methods
                    .iter()
                    .filter(|m| !m.fully_proved())
                    .map(|m| m.name.as_str())
                    .collect();
                if failed != [method.name.as_str()] {
                    wrong.push(format!(
                        "{} {} ensures {index}: failed {failed:?}",
                        benchmark.name, method.name
                    ));
                }
            }
        }
    }
    assert_eq!(mutants, 49, "the eight modules hold 49 ensures clauses");
    assert!(
        wrong.is_empty(),
        "mutants that did not fail exactly their own method:\n  {}",
        wrong.join("\n  ")
    );
}
