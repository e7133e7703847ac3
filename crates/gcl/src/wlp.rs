//! Weakest liberal preconditions over simple guarded commands (Figure 5).
//!
//! Instead of building one monolithic formula, [`wlp`] produces a labelled
//! verification-condition tree ([`Vc`]) that keeps assumption labels and
//! `from` clauses attached to the places they came from.  The splitting rules
//! of Figure 7 then walk this tree (see [`crate::split`]).  [`Vc::to_form`]
//! recovers the monolithic formula of Figure 5, which is used by the
//! soundness obligations of Section 5.

use crate::cmd::{FromClause, Simple};
use ipl_logic::{Form, Labeled, Sort};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A labelled verification condition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Vc {
    /// The trivially true verification condition.
    True,
    /// A proof obligation `form`, to be established under the assumptions
    /// collected on the path to this node.
    Goal {
        /// The obligation.
        form: Form,
        /// The label of the originating `assert`.
        label: String,
        /// The `from` clause of the originating `assert`, if any.
        from: FromClause,
    },
    /// `hyp --> rest` — produced by `assume`.
    Implies {
        /// The labelled hypothesis.
        hyp: Labeled,
        /// The rest of the verification condition (`Arc`-shared: `wlp` of a
        /// choice duplicates its postcondition, and with hundreds of nested
        /// branches per method a boxed spine made that duplication the
        /// dominant clone hotspot of the front-end).
        rest: Arc<Vc>,
    },
    /// `forall vars. rest` — produced by `havoc`.
    ForallVars {
        /// The havocked variables.
        vars: Vec<String>,
        /// The rest of the verification condition (see [`Vc::Implies::rest`]
        /// for why this is shared).
        rest: Arc<Vc>,
    },
    /// Conjunction of verification conditions.
    And(Vec<Vc>),
}

impl Vc {
    /// Conjunction that drops `True` nodes and flattens nested conjunctions.
    pub fn and(parts: impl IntoIterator<Item = Vc>) -> Vc {
        let mut out = Vec::new();
        for mut p in parts {
            match &mut p {
                Vc::True => {}
                Vc::And(inner) => out.append(inner),
                _ => out.push(p),
            }
        }
        match out.len() {
            0 => Vc::True,
            1 => out.pop().expect("len checked"),
            _ => Vc::And(out),
        }
    }

    /// Converts the tree into a single formula, exactly as Figure 5 would
    /// build it.  Havocked variables become universal quantifiers with
    /// unspecified sorts.
    pub fn to_form(&self) -> Form {
        match self {
            Vc::True => Form::TRUE,
            Vc::Goal { form, .. } => form.clone(),
            Vc::Implies { hyp, rest } => Form::implies(hyp.form.clone(), rest.to_form()),
            Vc::ForallVars { vars, rest } => Form::forall(
                vars.iter().map(|v| (v.clone(), Sort::Unknown)).collect(),
                rest.to_form(),
            ),
            Vc::And(parts) => Form::and(parts.iter().map(Vc::to_form).collect::<Vec<_>>()),
        }
    }

    /// Number of [`Vc::Goal`] leaves.
    pub fn goal_count(&self) -> usize {
        match self {
            Vc::True => 0,
            Vc::Goal { .. } => 1,
            Vc::Implies { rest, .. } | Vc::ForallVars { rest, .. } => rest.goal_count(),
            Vc::And(parts) => parts.iter().map(Vc::goal_count).sum(),
        }
    }
}

/// Dropping a verification condition unlinks its uniquely owned parts onto
/// a stack of its own: the derived drop would recurse once per level, and a
/// method of a few thousand statements nests tens of thousands of levels.
impl Drop for Vc {
    fn drop(&mut self) {
        let mut stack = Vec::new();
        unlink(self, &mut stack);
        while let Some(mut vc) = stack.pop() {
            unlink(&mut vc, &mut stack);
        }
    }
}

/// Moves the parts `vc` alone owns onto `stack`, so `vc` drops shallowly.
/// A part shared with another node only loses a reference.
fn unlink(vc: &mut Vc, stack: &mut Vec<Vc>) {
    match vc {
        Vc::Implies { rest, .. } | Vc::ForallVars { rest, .. } => match Arc::get_mut(rest) {
            Some(Vc::True) | None => {}
            Some(rest) => stack.push(std::mem::replace(rest, Vc::True)),
        },
        Vc::And(parts) => stack.append(parts),
        Vc::True | Vc::Goal { .. } => {}
    }
}

/// Computes `wlp(cmd, post)` following Figure 5:
///
/// ```text
/// wlp(assume l:F, G)        = F[l] --> G
/// wlp(assert l:F from h, G) = F[l;h] /\ G
/// wlp(havoc x, G)           = forall x. G
/// wlp(skip, G)              = G
/// wlp(c1 [] c2, G)          = wlp(c1, G) /\ wlp(c2, G)
/// wlp(c1 ; c2, G)           = wlp(c1, wlp(c2, G))
/// ```
pub fn wlp(cmd: &Simple, post: Vc) -> Vc {
    match cmd {
        Simple::Assume(hyp) => {
            if post == Vc::True {
                // F --> true is true; keep the tree small.
                Vc::True
            } else {
                Vc::Implies {
                    hyp: hyp.clone(),
                    rest: Arc::new(post),
                }
            }
        }
        Simple::Assert { fact, from } => Vc::and(vec![
            Vc::Goal {
                form: fact.form.clone(),
                label: fact.label.clone(),
                from: from.clone(),
            },
            post,
        ]),
        Simple::Havoc(vars) => {
            if post == Vc::True {
                Vc::True
            } else {
                Vc::ForallVars {
                    vars: vars.clone(),
                    rest: Arc::new(post),
                }
            }
        }
        Simple::Skip => post,
        Simple::Choice(a, b) => Vc::and(vec![wlp(a, post.clone()), wlp(b, post)]),
        Simple::Seq(parts) => {
            let mut acc = post;
            for part in parts.iter().rev() {
                acc = wlp(part, acc);
            }
            acc
        }
    }
}

/// Convenience wrapper: the verification condition of a command with
/// postcondition `true` (all obligations come from the `assert`s inside).
pub fn vc_of(cmd: &Simple) -> Vc {
    wlp(cmd, Vc::True)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipl_logic::parser::parse_form;

    fn f(s: &str) -> Form {
        parse_form(s).unwrap()
    }

    #[test]
    fn wlp_of_assume_assert_sequence() {
        let cmd = Simple::seq(vec![
            Simple::assume("Pre", f("0 <= x")),
            Simple::assert("Post", f("0 <= x + 1")),
        ]);
        let vc = vc_of(&cmd);
        assert_eq!(vc.goal_count(), 1);
        let form = vc.to_form();
        assert_eq!(form.to_string(), "0 <= x --> 0 <= x + 1");
    }

    #[test]
    fn wlp_of_choice_conjoins_branches() {
        let cmd = Simple::Choice(
            Box::new(Simple::assert("A", f("p"))),
            Box::new(Simple::assert("B", f("q"))),
        );
        let vc = vc_of(&cmd);
        assert_eq!(vc.goal_count(), 2);
        assert_eq!(vc.to_form().to_string(), "p & q");
    }

    #[test]
    fn wlp_of_havoc_quantifies() {
        let cmd = Simple::seq(vec![
            Simple::Havoc(vec!["x".into()]),
            Simple::assert("G", f("x = x")),
        ]);
        let vc = vc_of(&cmd);
        assert!(matches!(vc, Vc::ForallVars { .. }));
    }

    #[test]
    fn assume_false_discharges_later_goals() {
        // The local assumption base pattern: the assume false at the end of a
        // branch means nothing after the branch contributes obligations
        // through it — but obligations *inside* the branch are kept.
        let cmd = Simple::seq(vec![
            Simple::Choice(
                Box::new(Simple::Skip),
                Box::new(Simple::seq(vec![
                    Simple::assert("Lemma", f("p")),
                    Simple::assume("end", Form::FALSE),
                ])),
            ),
            Simple::assert("Post", f("q")),
        ]);
        let vc = vc_of(&cmd);
        // The skip branch contributes the `q` obligation, the proof branch
        // contributes `p` plus a vacuous copy of `q` guarded by `false`.
        assert_eq!(vc.goal_count(), 3);
        let form = vc.to_form();
        // The branch contributes `p /\ (false --> q)`; the skip branch `q`.
        assert!(form.to_string().contains("p"));
        assert!(form.to_string().contains("q"));
    }

    #[test]
    fn wlp_of_sequence_threads_assumptions_left_to_right() {
        // assume A ; assert G1 ; assume B ; assert G2 — G1 must see only A,
        // G2 must see both A and B.
        let cmd = Simple::seq(vec![
            Simple::assume("A", f("0 <= a")),
            Simple::assert("G1", f("p")),
            Simple::assume("B", f("0 <= b")),
            Simple::assert("G2", f("q")),
        ]);
        let sequents = crate::split::split_all(&vc_of(&cmd));
        assert_eq!(sequents.len(), 2);
        let labels = |goal: &str| -> Vec<String> {
            sequents
                .iter()
                .find(|s| s.goal_label == goal)
                .unwrap_or_else(|| panic!("no sequent for {goal}"))
                .assumptions
                .iter()
                .map(|a| a.label.clone())
                .collect()
        };
        assert_eq!(labels("G1"), vec!["A"]);
        assert_eq!(labels("G2"), vec!["A", "B"]);
    }

    #[test]
    fn translated_assignment_threads_the_value_to_the_postcondition() {
        // x := y ; assert Post: x = y.  The translation goes through two
        // havoc/assume pairs, so the split sequent must prove the renamed
        // incarnation of x equal to y from the two `assign_x` equations.
        use crate::cmd::Ext;
        use crate::translate::{translate_ext, TranslateCtx};

        let cmd = Ext::seq(vec![
            Ext::Assign("x".into(), f("y")),
            Ext::assert("Post", f("x = y")),
        ]);
        let mut ctx = TranslateCtx::new();
        let sequents = crate::split::split_all(&vc_of(&translate_ext(&cmd, &mut ctx)));
        assert_eq!(sequents.len(), 1);
        let sequent = &sequents[0];
        assert_eq!(sequent.goal_label, "Post");
        assert!(sequent.assumptions.iter().all(|a| a.label == "assign_x"));
        assert_eq!(sequent.assumptions.len(), 2);
        let Form::Eq(lhs, rhs) = &sequent.goal else {
            panic!("expected equality goal, got {:?}", sequent.goal);
        };
        let Form::Var(lhs) = lhs.as_ref() else {
            panic!("expected variable lhs, got {lhs:?}");
        };
        assert!(
            lhs.starts_with('x') && lhs != "x",
            "x must be a fresh incarnation: {lhs}"
        );
        assert_eq!(
            rhs.as_ref(),
            &f("y"),
            "the assigned value must reach the goal"
        );
    }

    #[test]
    fn translated_conditional_guards_each_branch() {
        // if (p) assert T: q else assert E: r — each branch's obligation
        // must be guarded by the condition with the right polarity.
        use crate::cmd::Ext;
        use crate::translate::{translate_ext, TranslateCtx};

        let cmd = Ext::If(
            f("p"),
            Box::new(Ext::assert("T", f("q"))),
            Box::new(Ext::assert("E", f("r"))),
        );
        let mut ctx = TranslateCtx::new();
        let sequents = crate::split::split_all(&vc_of(&translate_ext(&cmd, &mut ctx)));
        assert_eq!(sequents.len(), 2);
        let branch = |goal: &str| {
            sequents
                .iter()
                .find(|s| s.goal_label == goal)
                .unwrap_or_else(|| panic!("no sequent for {goal}"))
        };
        let then_branch = branch("T");
        assert!(then_branch
            .assumptions
            .iter()
            .any(|a| a.label == "IfCond" && a.form == f("p")));
        let else_branch = branch("E");
        assert!(else_branch
            .assumptions
            .iter()
            .any(|a| a.label == "IfNegCond" && a.form == Form::not(f("p"))));
    }

    #[test]
    fn trivial_postcondition_prunes_assumes_and_havocs() {
        let cmd = Simple::seq(vec![
            Simple::Havoc(vec!["x".into()]),
            Simple::assume("h", f("x = 1")),
        ]);
        assert_eq!(vc_of(&cmd), Vc::True);
    }
}
