//! Translation of extended guarded commands and proof constructs into simple
//! guarded commands — Figures 6, 8 and 12 of the paper.

use crate::cmd::{Ext, Proof, Simple};
use ipl_logic::subst::{free_vars, substitute, substitute_one, FreshNames};
use ipl_logic::{Form, Sort};
use std::collections::HashMap;

/// Shared state of a translation run: a fresh-name generator used for the
/// temporaries introduced by the assignment and `fix` translations.
#[derive(Debug, Default)]
pub struct TranslateCtx {
    /// Fresh name generator; reserve program variable names here before
    /// translating to guarantee freshness.
    pub fresh: FreshNames,
}

impl TranslateCtx {
    /// Creates a new context.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Translates an extended guarded command into a simple guarded command,
/// following Figure 6 (code constructs), Figure 8 (proof constructs) and
/// Figure 12 (`fix`).
pub fn translate_ext(cmd: &Ext, ctx: &mut TranslateCtx) -> Simple {
    match cmd {
        Ext::Proof(p) => translate_proof(p),
        Ext::Skip => Simple::Skip,
        Ext::Assume(fact) => Simple::Assume(fact.clone()),
        Ext::Assert { fact, from } => Simple::Assert {
            fact: fact.clone(),
            from: from.clone(),
        },

        // [[x := F]] = havoc v ; assume v = F ; havoc x ; assume x = v
        Ext::Assign(x, value) => {
            let v = ctx.fresh.fresh(&format!("{x}_tmp"));
            Simple::seq(vec![
                Simple::Havoc(vec![v.clone()]),
                Simple::assume(
                    format!("assign_{x}"),
                    Form::eq(Form::var(v.clone()), value.clone()),
                ),
                Simple::Havoc(vec![x.clone()]),
                Simple::assume(
                    format!("assign_{x}"),
                    Form::eq(Form::var(x.clone()), Form::var(v)),
                ),
            ])
        }

        Ext::Choice(a, b) => Simple::Choice(
            Box::new(translate_ext(a, ctx)),
            Box::new(translate_ext(b, ctx)),
        ),
        Ext::Seq(parts) => Simple::seq(parts.iter().map(|p| translate_ext(p, ctx))),

        // [[if (F) c1 else c2]] = (assume F ; [[c1]]) [] (assume ~F ; [[c2]])
        Ext::If(cond, then_cmd, else_cmd) => Simple::Choice(
            Box::new(Simple::seq(vec![
                Simple::assume("IfCond", cond.clone()),
                translate_ext(then_cmd, ctx),
            ])),
            Box::new(Simple::seq(vec![
                Simple::assume("IfNegCond", Form::not(cond.clone())),
                translate_ext(else_cmd, ctx),
            ])),
        ),

        // [[loop inv(I) c1 while(F) c2]] =
        //   assert I ; havoc mod(c1;c2) ; assume I ; [[c1]] ;
        //   (assume ~F  []  (assume F ; [[c2]] ; assert I ; assume false))
        Ext::Loop {
            invariant,
            before,
            cond,
            body,
        } => {
            let mut mods: Vec<String> = before.modified_vars().into_iter().collect();
            for v in body.modified_vars() {
                if !mods.contains(&v) {
                    mods.push(v);
                }
            }
            let exit = Simple::assume("LoopExit", Form::not(cond.clone()));
            let iterate = Simple::seq(vec![
                Simple::assume("LoopCondition", cond.clone()),
                translate_ext(body, ctx),
                Simple::assert(
                    format!("{}_preserved", invariant.label),
                    invariant.form.clone(),
                ),
                Simple::assume("unreachable", Form::FALSE),
            ]);
            Simple::seq(vec![
                Simple::assert(
                    format!("{}_initial", invariant.label),
                    invariant.form.clone(),
                ),
                if mods.is_empty() {
                    Simple::Skip
                } else {
                    Simple::Havoc(mods)
                },
                Simple::assume(invariant.label.clone(), invariant.form.clone()),
                translate_ext(before, ctx),
                Simple::Choice(Box::new(exit), Box::new(iterate)),
            ])
        }

        // [[havoc x suchThat F]] = assert exists x. F ; havoc x ; assume F
        Ext::Havoc(vars, constraint) => match constraint {
            None => Simple::Havoc(vars.clone()),
            Some(constraint) => {
                let bindings = vars.iter().map(|v| (v.clone(), Sort::Unknown)).collect();
                Simple::seq(vec![
                    Simple::assert("havoc_feasible", Form::exists(bindings, constraint.clone())),
                    Simple::Havoc(vars.clone()),
                    Simple::assume("havoc_constraint", constraint.clone()),
                ])
            }
        },

        // Figure 12:
        // [[fix x suchThat F in (c ; note l:G)]] =
        //   z0 := z ; assert exists x. F' ; havoc x ; assume F' ; [[c]] ;
        //   assert G ; assume forall x. (F' --> G)
        // where z = mod(c), z0 fresh, F' = F[z := z0].
        Ext::Fix {
            vars,
            such_that,
            body,
            label,
            goal,
        } => {
            let mods: Vec<String> = body.modified_vars().into_iter().collect();
            let mut save = Vec::new();
            let mut rename: HashMap<String, Form> = HashMap::new();
            for z in &mods {
                let z0 = ctx.fresh.fresh(&format!("{z}_saved"));
                save.push(Simple::assume(
                    format!("save_{z}"),
                    Form::eq(Form::var(z0.clone()), Form::var(z.clone())),
                ));
                rename.insert(z.clone(), Form::var(z0));
            }
            let constraint_pre = substitute(such_that, &rename);
            let exported = Form::forall(
                vars.clone(),
                Form::implies(constraint_pre.clone(), goal.clone()),
            );
            Simple::seq(
                save.into_iter()
                    .chain(vec![
                        Simple::assert(
                            format!("{label}_feasible"),
                            Form::exists(vars.clone(), constraint_pre.clone()),
                        ),
                        Simple::Havoc(vars.iter().map(|(v, _)| v.clone()).collect()),
                        Simple::assume(format!("{label}_fixed"), constraint_pre),
                        translate_ext(body, ctx),
                        Simple::assert(label.clone(), goal.clone()),
                        Simple::assume(label.clone(), exported),
                    ])
                    .collect::<Vec<_>>(),
            )
        }
    }
}

/// Translates a proof construct into simple guarded commands (Figure 8).
/// No proof construct draws a fresh name, so none needs a [`TranslateCtx`].
pub fn translate_proof(proof: &Proof) -> Simple {
    match proof {
        Proof::Seq(parts) => Simple::seq(parts.iter().map(translate_proof)),

        // [[assert l:F from h]] = assert l:F from h
        Proof::Assert { label, form, from } => Simple::Assert {
            fact: ipl_logic::Labeled::new(label.clone(), form.clone()),
            from: from.clone(),
        },

        // [[note l:F from h]] = assert l:F from h ; assume l:F
        Proof::Note { label, form, from } => Simple::seq(vec![
            Simple::Assert {
                fact: ipl_logic::Labeled::new(label.clone(), form.clone()),
                from: from.clone(),
            },
            Simple::assume(label.clone(), form.clone()),
        ]),

        // [[localize in (p ; note l:F)]] =
        //   (skip [] ([[p]] ; assert F ; assume false)) ; assume l:F
        Proof::Localize { body, label, form } => Simple::seq(vec![
            local_branch(Simple::seq(vec![
                translate_proof(body),
                Simple::assert(label.clone(), form.clone()),
            ])),
            Simple::assume(label.clone(), form.clone()),
        ]),

        // [[mp l:(F --> G)]] = assert F ; assert (F --> G) ; assume l:G
        Proof::Mp { label, hyp, concl } => Simple::seq(vec![
            Simple::assert(format!("{label}_hyp"), hyp.clone()),
            Simple::assert(
                format!("{label}_implication"),
                Form::implies(hyp.clone(), concl.clone()),
            ),
            Simple::assume(label.clone(), concl.clone()),
        ]),

        // [[assuming lF:F in (p ; note lG:G)]] =
        //   (skip [] (assume lF:F ; [[p]] ; assert G ; assume false)) ;
        //   assume lG:(F --> G)
        Proof::Assuming {
            hyp_label,
            hyp,
            body,
            concl_label,
            concl,
        } => Simple::seq(vec![
            local_branch(Simple::seq(vec![
                Simple::assume(hyp_label.clone(), hyp.clone()),
                translate_proof(body),
                Simple::assert(concl_label.clone(), concl.clone()),
            ])),
            Simple::assume(
                concl_label.clone(),
                Form::implies(hyp.clone(), concl.clone()),
            ),
        ]),

        // [[cases F1..Fn for l:G]] =
        //   assert F1 | ... | Fn ; assert (F1 --> G) ; ... ; assert (Fn --> G) ;
        //   assume l:G
        Proof::Cases { cases, label, goal } => {
            let mut cmds = vec![Simple::assert(
                format!("{label}_coverage"),
                Form::or(cases.clone()),
            )];
            for (i, case) in cases.iter().enumerate() {
                cmds.push(Simple::assert(
                    format!("{label}_case_{}", i + 1),
                    Form::implies(case.clone(), goal.clone()),
                ));
            }
            cmds.push(Simple::assume(label.clone(), goal.clone()));
            Simple::seq(cmds)
        }

        // [[showedCase i of l:F1 | .. | Fn]] = assert Fi ; assume l:F1 | .. | Fn
        Proof::ShowedCase {
            index,
            label,
            disjuncts,
        } => {
            let shown = disjuncts
                .get(index.saturating_sub(1))
                .cloned()
                .unwrap_or(Form::FALSE);
            Simple::seq(vec![
                Simple::assert(format!("{label}_case_{index}"), shown),
                Simple::assume(label.clone(), Form::or(disjuncts.clone())),
            ])
        }

        // [[byContradiction l:F in p]] =
        //   (skip [] (assume ~F ; [[p]] ; assert false ; assume false)) ;
        //   assume l:F
        Proof::ByContradiction { label, form, body } => Simple::seq(vec![
            local_branch(Simple::seq(vec![
                Simple::assume(format!("{label}_negated"), Form::not(form.clone())),
                translate_proof(body),
                Simple::assert(format!("{label}_absurd"), Form::FALSE),
            ])),
            Simple::assume(label.clone(), form.clone()),
        ]),

        // [[contradiction l:F]] = assert F ; assert ~F ; assume false
        Proof::Contradiction { label, form } => Simple::seq(vec![
            Simple::assert(format!("{label}_pos"), form.clone()),
            Simple::assert(format!("{label}_neg"), Form::not(form.clone())),
            Simple::assume(label.clone(), Form::FALSE),
        ]),

        // [[instantiate l:forall x.F with t]] = assert forall x.F ; assume l:F[x := t]
        Proof::Instantiate {
            label,
            forall,
            terms,
        } => {
            let instantiated = instantiate_quantifier(forall, terms, true);
            Simple::seq(vec![
                Simple::assert(format!("{label}_universal"), forall.clone()),
                Simple::assume(label.clone(), instantiated),
            ])
        }

        // [[witness t for l:exists x.F]] = assert F[x := t] ; assume l:exists x.F
        Proof::Witness {
            terms,
            label,
            exists,
        } => {
            let instantiated = instantiate_quantifier(exists, terms, false);
            Simple::seq(vec![
                Simple::assert(format!("{label}_witness"), instantiated),
                Simple::assume(label.clone(), exists.clone()),
            ])
        }

        // [[pickWitness x for lF:F in (p ; note lG:G)]] =
        //   (skip [] (assert exists x.F ; havoc x ; assume lF:F ; [[p]] ;
        //             assert G ; assume false)) ;
        //   assume lG:G                      (x must not be free in G)
        Proof::PickWitness {
            vars,
            hyp_label,
            hyp,
            body,
            concl_label,
            concl,
        } => {
            let goal_fv = free_vars(concl);
            let sound = vars.iter().all(|(v, _)| !goal_fv.contains(v));
            let exported = if sound { concl.clone() } else { Form::TRUE };
            Simple::seq(vec![
                local_branch(Simple::seq(vec![
                    Simple::assert(
                        format!("{hyp_label}_exists"),
                        Form::exists(vars.clone(), hyp.clone()),
                    ),
                    Simple::Havoc(vars.iter().map(|(v, _)| v.clone()).collect()),
                    Simple::assume(hyp_label.clone(), hyp.clone()),
                    translate_proof(body),
                    Simple::assert(concl_label.clone(), concl.clone()),
                ])),
                Simple::assume(concl_label.clone(), exported),
            ])
        }

        // [[pickAny x in (p ; note l:G)]] =
        //   (skip [] (havoc x ; [[p]] ; assert G ; assume false)) ;
        //   assume l:forall x.G
        Proof::PickAny {
            vars,
            body,
            label,
            goal,
        } => Simple::seq(vec![
            local_branch(Simple::seq(vec![
                Simple::Havoc(vars.iter().map(|(v, _)| v.clone()).collect()),
                translate_proof(body),
                Simple::assert(label.clone(), goal.clone()),
            ])),
            Simple::assume(label.clone(), Form::forall(vars.clone(), goal.clone())),
        ]),

        // [[induct l:F over n in p]] =
        //   (skip [] (havoc n ; assume 0 <= n ; [[p]] ;
        //             assert F[n := 0] ; assert (F --> F[n := n+1]) ; assume false)) ;
        //   assume l:forall n. (0 <= n --> F)
        Proof::Induct {
            label,
            form,
            var,
            body,
        } => {
            let base = substitute_one(form, var, &Form::int(0));
            let step = Form::implies(
                form.clone(),
                substitute_one(form, var, &Form::add(Form::var(var.clone()), Form::int(1))),
            );
            let exported = Form::forall(
                vec![(var.clone(), Sort::Int)],
                Form::implies(Form::le(Form::int(0), Form::var(var.clone())), form.clone()),
            );
            Simple::seq(vec![
                local_branch(Simple::seq(vec![
                    Simple::Havoc(vec![var.clone()]),
                    Simple::assume(
                        format!("{label}_nonneg"),
                        Form::le(Form::int(0), Form::var(var.clone())),
                    ),
                    translate_proof(body),
                    Simple::assert(format!("{label}_base"), base),
                    Simple::assert(format!("{label}_step"), step),
                ])),
                Simple::assume(label.clone(), exported),
            ])
        }
    }
}

/// The local assumption base pattern of Section 4.1:
/// `(skip [] (body ; assume false))`.
///
/// The second branch generates the proof obligations of `body` inside a local
/// assumption base, and `assume false` prevents any of those local facts from
/// escaping to the program point after the construct.
fn local_branch(body: Simple) -> Simple {
    Simple::Choice(
        Box::new(Simple::Skip),
        Box::new(Simple::seq(vec![
            body,
            Simple::assume("local_base_end", Form::FALSE),
        ])),
    )
}

/// Instantiates the leading quantifier of `quantified` with the given terms
/// (pairing binders and terms positionally).  If `expect_forall` is true the
/// formula should be a `forall`, otherwise an `exists`; any non-quantified
/// formula is returned unchanged (the generated obligations then ensure the
/// developer's claim is still checked soundly).
fn instantiate_quantifier(quantified: &Form, terms: &[Form], expect_forall: bool) -> Form {
    let (bindings, body) = match (quantified, expect_forall) {
        (Form::Forall(bs, body), true) | (Form::Exists(bs, body), false) => {
            (bs.clone(), body.clone())
        }
        _ => return quantified.clone(),
    };
    let mut map = HashMap::new();
    let mut remaining = Vec::new();
    for (i, (name, sort)) in bindings.iter().enumerate() {
        match terms.get(i) {
            Some(term) => {
                map.insert(name.clone(), term.clone());
            }
            None => remaining.push((name.clone(), sort.clone())),
        }
    }
    let instantiated = substitute(&body, &map);
    if remaining.is_empty() {
        instantiated
    } else if expect_forall {
        Form::forall(remaining, instantiated)
    } else {
        Form::exists(remaining, instantiated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipl_logic::parser::parse_form;
    use ipl_logic::Labeled;

    fn f(s: &str) -> Form {
        parse_form(s).unwrap()
    }

    fn translate(cmd: &Ext) -> Simple {
        let mut ctx = TranslateCtx::new();
        translate_ext(cmd, &mut ctx)
    }

    /// Collects the labels of all assume commands in order.
    fn assume_labels(cmd: &Simple, out: &mut Vec<String>) {
        match cmd {
            Simple::Assume(l) => out.push(l.label.clone()),
            Simple::Choice(a, b) => {
                assume_labels(a, out);
                assume_labels(b, out);
            }
            Simple::Seq(parts) => parts.iter().for_each(|p| assume_labels(p, out)),
            _ => {}
        }
    }

    #[test]
    fn assignment_translates_to_havoc_assume_pairs() {
        let s = translate(&Ext::Assign("x".into(), f("x + 1")));
        match &s {
            Simple::Seq(parts) => {
                assert_eq!(parts.len(), 4);
                assert!(matches!(parts[0], Simple::Havoc(_)));
                assert!(matches!(parts[2], Simple::Havoc(_)));
            }
            other => panic!("expected sequence, got {other:?}"),
        }
    }

    #[test]
    fn note_translates_to_assert_then_assume() {
        let s = translate_proof(&Proof::note_from("L", f("x = 1"), vec!["P", "Q"]));
        match &s {
            Simple::Seq(parts) => {
                assert_eq!(parts.len(), 2);
                match &parts[0] {
                    Simple::Assert { fact, from } => {
                        assert_eq!(fact.label, "L");
                        assert_eq!(from.as_ref().unwrap().len(), 2);
                    }
                    other => panic!("expected assert, got {other:?}"),
                }
                assert!(matches!(&parts[1], Simple::Assume(l) if l.label == "L"));
            }
            other => panic!("expected sequence, got {other:?}"),
        }
    }

    #[test]
    fn loop_translation_matches_figure_6() {
        let cmd = Ext::Loop {
            invariant: Labeled::new("LoopInv", f("0 <= i")),
            before: Box::new(Ext::Skip),
            cond: f("i < n"),
            body: Box::new(Ext::Assign("i".into(), f("i + 1"))),
        };
        let s = translate(&cmd);
        // The loop invariant must be asserted initially and after the body,
        // and assumed (with its own label) after the havoc of modified vars.
        assert_eq!(s.assert_count(), 2);
        let mut labels = Vec::new();
        assume_labels(&s, &mut labels);
        assert!(labels.contains(&"LoopInv".to_string()));
        assert!(labels.contains(&"LoopCondition".to_string()));
        assert!(labels.contains(&"LoopExit".to_string()));
    }

    #[test]
    fn witness_instantiates_the_existential_body() {
        let proof = Proof::Witness {
            terms: vec![f("index")],
            label: "W".into(),
            exists: f("exists i:int. (i, o) in content"),
        };
        let s = translate_proof(&proof);
        match &s {
            Simple::Seq(parts) => match &parts[0] {
                Simple::Assert { fact, .. } => {
                    assert_eq!(fact.form.to_string(), "(index, o) in content");
                }
                other => panic!("expected assert, got {other:?}"),
            },
            other => panic!("expected sequence, got {other:?}"),
        }
    }

    #[test]
    fn instantiate_substitutes_terms() {
        let proof = Proof::Instantiate {
            label: "I".into(),
            forall: f("forall j:int, e:obj. (j, e) in content --> 0 <= j"),
            terms: vec![f("k")],
        };
        let s = translate_proof(&proof);
        let mut labels = Vec::new();
        assume_labels(&s, &mut labels);
        assert_eq!(labels, vec!["I".to_string()]);
        // The partially instantiated fact keeps the remaining binder.
        match &s {
            Simple::Seq(parts) => match &parts[1] {
                Simple::Assume(l) => {
                    assert!(l.form.to_string().starts_with("forall e:obj."));
                    assert!(l.form.to_string().contains("(k, e)"));
                }
                other => panic!("expected assume, got {other:?}"),
            },
            other => panic!("expected sequence, got {other:?}"),
        }
    }

    #[test]
    fn pick_witness_refuses_to_export_goal_mentioning_witness() {
        let proof = Proof::PickWitness {
            vars: vec![("w".into(), Sort::Obj)],
            hyp_label: "H".into(),
            hyp: f("w in nodes"),
            body: Box::new(Proof::Seq(vec![])),
            concl_label: "G".into(),
            concl: f("w ~= null"),
        };
        let s = translate_proof(&proof);
        // The exported assumption must be weakened to true because the goal
        // mentions the witness variable (the paper's side condition).
        match &s {
            Simple::Seq(parts) => match parts.last().unwrap() {
                Simple::Assume(l) => assert_eq!(l.form, Form::TRUE),
                other => panic!("expected assume, got {other:?}"),
            },
            other => panic!("expected sequence, got {other:?}"),
        }
    }

    #[test]
    fn pick_any_exports_universal() {
        let proof = Proof::PickAny {
            vars: vec![("x".into(), Sort::Obj)],
            body: Box::new(Proof::Seq(vec![])),
            label: "All".into(),
            goal: f("x in nodes --> x ~= null"),
        };
        let s = translate_proof(&proof);
        match &s {
            Simple::Seq(parts) => match parts.last().unwrap() {
                Simple::Assume(l) => assert!(matches!(l.form, Form::Forall(..))),
                other => panic!("expected assume, got {other:?}"),
            },
            other => panic!("expected sequence, got {other:?}"),
        }
    }

    #[test]
    fn induct_generates_base_and_step_obligations() {
        let proof = Proof::Induct {
            label: "Ind".into(),
            form: f("p(n)"),
            var: "n".into(),
            body: Box::new(Proof::Seq(vec![])),
        };
        let s = translate_proof(&proof);
        assert_eq!(s.assert_count(), 2, "base case and inductive step");
        match &s {
            Simple::Seq(parts) => match parts.last().unwrap() {
                Simple::Assume(l) => {
                    let txt = l.form.to_string();
                    assert!(txt.contains("forall n:int."));
                    assert!(txt.contains("0 <= n"));
                }
                other => panic!("expected assume, got {other:?}"),
            },
            other => panic!("expected sequence, got {other:?}"),
        }
    }

    #[test]
    fn fix_saves_modified_variables() {
        let cmd = Ext::Fix {
            vars: vec![("x".into(), Sort::Obj)],
            such_that: f("x in nodes & size = old_size"),
            body: Box::new(Ext::Assign("size".into(), f("size + 1"))),
            label: "FixG".into(),
            goal: f("x in nodes"),
        };
        let s = translate(&cmd);
        // The constraint refers to `size`, which is modified by the body, so
        // the translation must refer to the saved copy in the constraint.
        let text = format!("{s:?}");
        assert!(
            text.contains("size_saved"),
            "saved pre-state variable expected: {text}"
        );
        assert_eq!(s.assert_count(), 2, "feasibility of constraint + the goal");
    }

    #[test]
    fn cases_asserts_coverage_and_each_case() {
        let proof = Proof::Cases {
            cases: vec![f("x < 0"), f("x = 0"), f("x > 0")],
            label: "C".into(),
            goal: f("q(x)"),
        };
        let s = translate_proof(&proof);
        assert_eq!(s.assert_count(), 4);
    }

    #[test]
    fn strip_then_translate_produces_no_proof_obligations_from_notes() {
        let cmd = Ext::seq(vec![
            Ext::Proof(Proof::note("L", f("x = 1"))),
            Ext::assert("Post", f("x = 1")),
        ]);
        let with = translate(&cmd);
        let without = translate(&cmd.strip_proofs());
        assert_eq!(with.assert_count(), 2);
        assert_eq!(without.assert_count(), 1);
    }
}
