//! The Section 2 worked example: the Array List with the `note` + `witness`
//! pattern, verified with and without the two guiding statements.
//!
//! Run with `cargo run --example arraylist_remove`.

use ipl::core::{Request, Session, VerifyOptions};
use ipl::suite::by_name;

fn main() {
    let benchmark = by_name("Array List").expect("benchmark exists");
    let options = VerifyOptions::default();
    let verify = |options: VerifyOptions| {
        Session::new(options)
            .verify(&Request::new(benchmark.source))
            .expect("parses")
            .report
    };

    println!("== Array List with its integrated proof statements ==");
    let with = verify(options.clone());
    println!("{}", with.render());

    println!("== Array List with the proof statements stripped (Table 2 baseline) ==");
    let without = verify(options.with_proof_constructs(false));
    println!("{}", without.render());

    println!(
        "with constructs: {}/{} sequents proved; without: {}/{} sequents proved",
        with.proved_sequents(),
        with.total_sequents(),
        without.proved_sequents(),
        without.total_sequents()
    );
}
