//! Smoke and goal-negation oracles: no `Proved` rests on contradictory
//! assumptions.
//!
//! A front-end bug that emits contradictory assumptions makes every goal on
//! its path `Proved`, and the table gate and the mutants cannot see it,
//! since they read only verdicts.  So for every non-trivial sequent the
//! cascade proves, in Table 1 and in two modules with `fix`:
//!
//! * (a) its path assumptions, without the hypotheses splitting peeled off
//!   the goal, must not prove `false` (Boogie's smoke test);
//! * (b) if its selected assumptions also prove the goal's negation, they
//!   must prove `false`: only a contradiction proves both.
//!
//! (a) leaves the goal hypotheses out because a path on which the goal's own
//! hypothesis cannot hold is benign: nine Table 1 sequents have one.  The
//! proof cache is off, so every answer is searched.

use ipl::gcl::split::split_all;
use ipl::gcl::translate::{translate_ext, TranslateCtx};
use ipl::gcl::wlp::vc_of;
use ipl::logic::{Form, Labeled, SortEnv};
use ipl::provers::{Cascade, Outcome, ProverConfig, Query};

/// The modules of `tests/pipeline.rs` whose methods run code inside `fix`.
const FIX_MODULES: [&str; 2] = [
    r#"
module M {
  var x: int;
  method m() ensures "x = old(x)" {
    fix k: int suchThat "k = 0" show Done: "true" { x := x + 1; }
  }
}
"#,
    r#"
module F {
  var x: int;
  method m() modifies x ensures "0 < x" {
    x := 0;
    fix k: int suchThat "k = x" show Kept: "k < x" { x := x + 1; }
  }
}
"#,
];

#[test]
fn no_proved_sequent_rests_on_contradictory_assumptions() {
    let cascade = Cascade::standard(ProverConfig::without_cache());
    let proves = |assumptions: &[Labeled], goal: Form, env: &SortEnv| {
        let query = Query::new(assumptions.to_vec(), goal, env.clone());
        cascade.prove(&query).outcome == Outcome::Proved
    };
    let sources = ipl::suite::all().into_iter().map(|b| b.source);
    let mut proved = 0;
    for source in sources.chain(FIX_MODULES) {
        let module = ipl::lang::parse_module(source).expect("parses");
        let lowered = ipl::lang::lower_module(&module).expect("lowers");
        for method in &lowered.methods {
            let simple = translate_ext(&method.command, &mut TranslateCtx::new());
            for sequent in split_all(&vc_of(&simple)) {
                if sequent.is_trivially_valid() {
                    continue;
                }
                let selected: Vec<Labeled> = sequent
                    .selected_assumptions()
                    .into_iter()
                    .cloned()
                    .collect();
                if !proves(&selected, sequent.goal.clone(), &method.env) {
                    continue;
                }
                proved += 1;
                let site = format!("{} {}: {}", module.name, method.name, sequent.name);
                let path = &sequent.assumptions[..sequent.assumptions.len() - sequent.goal_hyps];
                assert!(
                    !proves(path, Form::FALSE, &method.env),
                    "{site}: the path assumptions prove false\n{}",
                    sequent.render()
                );
                if proves(&selected, Form::not(sequent.goal.clone()), &method.env) {
                    assert!(
                        proves(&selected, Form::FALSE, &method.env),
                        "{site}: the assumptions prove the goal and its negation, \
                         but not false\n{}",
                        sequent.render()
                    );
                }
            }
        }
    }
    // Table 1's 201, `M`'s `Done_feasible` and `F`'s three.
    assert_eq!(proved, 205, "proved sequents checked");
}
