//! The splitting rules of Figure 7: converting a verification condition into
//! a list of labelled sequents (an "implication list"), preserving the
//! formula labels used for assumption selection, and eliminating
//! syntactically valid implications.

use crate::cmd::FromClause;
use crate::wlp::Vc;
use ipl_logic::intern;
use ipl_logic::subst::{for_each_free_var, substitute};
use ipl_logic::{Form, Labeled};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A sequent `assumptions |- goal`, produced by splitting a verification
/// condition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sequent {
    /// Unique name of the sequent (derived from the goal label).
    pub name: String,
    /// Label of the originating `assert`.
    pub goal_label: String,
    /// The labelled assumptions available on this path.
    pub assumptions: Vec<Labeled>,
    /// The goal formula.
    pub goal: Form,
    /// The assumption-base restriction of the originating `assert`, if any.
    pub from: FromClause,
}

impl Sequent {
    /// The assumptions the provers should use: all of them, unless the
    /// originating assert carries a `from` clause, in which case only the
    /// named facts are kept (the paper's assumption-base control).
    ///
    /// Hypotheses peeled off the goal itself during splitting (an implication
    /// antecedent becoming `{label}_hyp_N`) are always kept: they are part of
    /// the obligation, not of the assumption base the `from` clause narrows,
    /// and their generated labels are not nameable from the source anyway.
    pub fn selected_assumptions(&self) -> Vec<&Labeled> {
        match &self.from {
            None => self.assumptions.iter().collect(),
            Some(names) => {
                let hyp_prefix = format!("{}_hyp_", self.goal_label);
                self.assumptions
                    .iter()
                    .filter(|a| {
                        a.label.starts_with(&hyp_prefix) || names.iter().any(|n| n == &a.label)
                    })
                    .collect()
            }
        }
    }

    /// Returns `true` if the sequent is syntactically valid: the goal is
    /// `true`, the goal occurs among the assumptions, or the assumptions
    /// contain `false` (the eliminations performed during splitting in the
    /// paper).
    pub fn is_trivially_valid(&self) -> bool {
        if self.goal.is_true() {
            return true;
        }
        self.assumptions
            .iter()
            .any(|a| a.form.is_false() || a.form == self.goal)
    }

    /// A short human-readable rendering used in reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for a in &self.assumptions {
            out.push_str(&format!("  {}: {}\n", a.label, a.form));
        }
        out.push_str(&format!("  |- [{}] {}\n", self.goal_label, self.goal));
        out
    }
}

/// Splitting state: the sequents built so far, a counter for unique
/// sequent names and fresh variables, and the path being walked.  The path
/// is one assumption stack (pushed at `assume`, popped on return) and one
/// map from each havocked variable to its current incarnation (set at
/// `havoc`, restored on return), so nothing is copied per `assume` or per
/// `havoc`: a sequent copies the stack once, when it is built.
struct Splitter {
    sequents: Vec<Sequent>,
    counter: usize,
    assumptions: Vec<Labeled>,
    renaming: HashMap<String, Form>,
}

impl Splitter {
    fn fresh_suffix(&mut self) -> usize {
        self.counter += 1;
        self.counter
    }

    fn walk(&mut self, vc: &Vc) {
        match vc {
            Vc::True => {}
            Vc::And(parts) => {
                for part in parts {
                    self.walk(part);
                }
            }
            Vc::Implies { hyp, rest } => {
                let form = intern::share(&self.current(&hyp.form));
                self.assumptions.push(Labeled::new(hyp.label.clone(), form));
                self.walk(rest);
                self.assumptions.pop();
            }
            Vc::ForallVars { vars, rest } => {
                // Undo log: the incarnation each variable had before this
                // havoc, restored in reverse so `havoc x, x` unwinds too.
                let mut undo = Vec::with_capacity(vars.len());
                for var in vars {
                    let suffix = self.fresh_suffix();
                    let incarnation = Form::Var(format!("{var}#{suffix}"));
                    undo.push((var, self.renaming.insert(var.clone(), incarnation)));
                }
                self.walk(rest);
                for (var, previous) in undo.into_iter().rev() {
                    match previous {
                        Some(outer) => self.renaming.insert(var.clone(), outer),
                        None => self.renaming.remove(var),
                    };
                }
            }
            Vc::Goal { form, label, from } => {
                let goal = self.current(form);
                self.split_goal(goal, label, from);
            }
        }
    }

    /// `form` over the current incarnations: renamed by the havocked
    /// variables that occur free in it, and returned as is when none does.
    /// Leaving the other entries out changes nothing, because no binder can
    /// capture an incarnation: identifiers cannot contain `#`.
    fn current(&self, form: &Form) -> Form {
        let mut renamed = HashMap::new();
        if !self.renaming.is_empty() {
            for_each_free_var(form, &mut |name| {
                if let Some(incarnation) = self.renaming.get(name) {
                    if !renamed.contains_key(name) {
                        renamed.insert(name.to_string(), incarnation.clone());
                    }
                }
            });
        }
        if renamed.is_empty() {
            form.clone()
        } else {
            substitute(form, &renamed)
        }
    }

    /// Applies the Figure 7 rules to the goal itself: conjunctions split,
    /// implications move their antecedent into the assumptions, universal
    /// quantifiers are instantiated with fresh variables.  Only what a
    /// sequent holds is interned: its goal and the antecedents it keeps,
    /// never the implication and quantifier spine peeled off on the way.
    fn split_goal(&mut self, goal: Form, label: &str, from: &FromClause) {
        match goal {
            Form::Bool(true) => {}
            Form::And(parts) => {
                for part in parts {
                    self.split_goal(part, label, from);
                }
            }
            Form::Implies(antecedent, consequent) => {
                let depth = self.assumptions.len();
                for (i, hyp) in Form::take(antecedent)
                    .into_conjuncts()
                    .into_iter()
                    .enumerate()
                {
                    let hyp = intern::share(&hyp);
                    self.assumptions
                        .push(Labeled::new(format!("{label}_hyp_{}", i + 1), hyp));
                }
                self.split_goal(Form::take(consequent), label, from);
                self.assumptions.truncate(depth);
            }
            Form::Forall(bindings, body) => {
                let mut renaming = HashMap::new();
                for (name, _) in &bindings {
                    let suffix = self.fresh_suffix();
                    renaming.insert(name.clone(), Form::Var(format!("{name}${suffix}")));
                }
                let body = substitute(&body, &renaming);
                self.split_goal(body, label, from);
            }
            other => {
                let suffix = self.fresh_suffix();
                self.sequents.push(Sequent {
                    name: format!("{label}#{suffix}"),
                    goal_label: label.to_string(),
                    assumptions: self.assumptions.clone(),
                    goal: intern::share(&other),
                    from: from.clone(),
                });
            }
        }
    }
}

/// Splits a verification condition into sequents following Figure 7:
///
/// ```text
/// A -> G1 /\ G2        ~>  A -> G1,  A -> G2
/// A -> (B -> G)        ~>  (A /\ B) -> G
/// A -> forall x. G     ~>  A -> G[x := x_fresh]
/// ```
///
/// Havocked program variables are renamed to fresh incarnations so that
/// assumptions recorded before the havoc keep referring to the old value.
/// Every formula a sequent holds is hash-consed (see
/// [`ipl_logic::intern`]) as it is built: a hypothesis once where it is
/// assumed, however many sequents inherit it.
/// The returned list contains every sequent, including trivially valid ones;
/// callers typically filter with [`Sequent::is_trivially_valid`].
pub fn split_all(vc: &Vc) -> Vec<Sequent> {
    let mut splitter = Splitter {
        sequents: Vec::new(),
        counter: 0,
        assumptions: Vec::new(),
        renaming: HashMap::new(),
    };
    splitter.walk(vc);
    splitter.sequents
}

/// Splits and keeps only the sequents that are not syntactically valid.
pub fn split_nontrivial(vc: &Vc) -> Vec<Sequent> {
    split_all(vc)
        .into_iter()
        .filter(|s| !s.is_trivially_valid())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::Simple;
    use crate::wlp::vc_of;
    use ipl_logic::parser::parse_form;

    fn f(s: &str) -> Form {
        parse_form(s).unwrap()
    }

    #[test]
    fn conjunction_goals_split() {
        let cmd = Simple::seq(vec![
            Simple::assume("Pre", f("p")),
            Simple::assert("Post", f("a & b & c")),
        ]);
        let sequents = split_all(&vc_of(&cmd));
        assert_eq!(sequents.len(), 3);
        assert!(sequents.iter().all(|s| s.assumptions.len() == 1));
        assert!(sequents.iter().all(|s| s.goal_label == "Post"));
    }

    #[test]
    fn implication_goals_move_hypotheses() {
        let cmd = Simple::assert("Post", f("p & q --> r"));
        let sequents = split_all(&vc_of(&cmd));
        assert_eq!(sequents.len(), 1);
        assert_eq!(sequents[0].assumptions.len(), 2);
        assert_eq!(sequents[0].goal, f("r"));
    }

    #[test]
    fn universal_goals_get_fresh_variables() {
        let cmd = Simple::assert("Post", f("forall x:int. x < y --> x < y + 1"));
        let sequents = split_all(&vc_of(&cmd));
        assert_eq!(sequents.len(), 1);
        let s = &sequents[0];
        assert!(
            s.goal.to_string().contains('$'),
            "goal uses a fresh instance: {}",
            s.goal
        );
        assert_eq!(s.assumptions.len(), 1);
    }

    #[test]
    fn havoc_renames_later_occurrences_only() {
        let cmd = Simple::seq(vec![
            Simple::assume("Before", f("x = 1")),
            Simple::Havoc(vec!["x".into()]),
            Simple::assume("After", f("x = 2")),
            Simple::assert("Post", f("x = 2")),
        ]);
        let sequents = split_all(&vc_of(&cmd));
        assert_eq!(sequents.len(), 1);
        let s = &sequents[0];
        let before = s.assumptions.iter().find(|a| a.label == "Before").unwrap();
        let after = s.assumptions.iter().find(|a| a.label == "After").unwrap();
        assert_eq!(
            before.form,
            f("x = 1"),
            "pre-havoc assumption keeps the old incarnation"
        );
        assert!(
            after.form.to_string().contains('#'),
            "post-havoc assumption uses the new incarnation"
        );
        assert_eq!(
            after.form.to_string().replace(" = 2", ""),
            s.goal.to_string().replace(" = 2", "")
        );
    }

    #[test]
    fn from_clause_selects_assumptions() {
        let cmd = Simple::seq(vec![
            Simple::assume("Relevant", f("p")),
            Simple::assume("Irrelevant", f("q")),
            Simple::assert_from("Goal", f("p"), vec!["Relevant".to_string()]),
        ]);
        let sequents = split_all(&vc_of(&cmd));
        assert_eq!(sequents.len(), 1);
        let s = &sequents[0];
        assert_eq!(s.assumptions.len(), 2);
        let selected = s.selected_assumptions();
        assert_eq!(selected.len(), 1);
        assert_eq!(selected[0].label, "Relevant");
    }

    #[test]
    fn from_clause_keeps_goal_hypotheses() {
        // The hypothesis of the goal's implication lands in the assumptions
        // under a generated `_hyp_` label; a `from` clause (which can only
        // name source-level facts) must not drop it.
        let cmd = Simple::seq(vec![
            Simple::assume("Relevant", f("forall x:int. p(x) --> q(x)")),
            Simple::assume("Irrelevant", f("r")),
            Simple::assert_from(
                "Goal",
                f("forall y:int. p(y) --> q(y)"),
                vec!["Relevant".to_string()],
            ),
        ]);
        let sequents = split_all(&vc_of(&cmd));
        assert_eq!(sequents.len(), 1);
        let selected = sequents[0].selected_assumptions();
        assert_eq!(selected.len(), 2, "Relevant plus the goal hypothesis");
        assert!(selected.iter().any(|a| a.label == "Goal_hyp_1"));
        assert!(selected.iter().all(|a| a.label != "Irrelevant"));
    }

    #[test]
    fn trivially_valid_sequents_detected() {
        let cmd = Simple::seq(vec![
            Simple::assume("H", f("p")),
            Simple::assert("G", f("p")),
        ]);
        let all = split_all(&vc_of(&cmd));
        assert_eq!(all.len(), 1);
        assert!(all[0].is_trivially_valid());
        assert!(split_nontrivial(&vc_of(&cmd)).is_empty());

        let cmd = Simple::seq(vec![
            Simple::assume("H", Form::FALSE),
            Simple::assert("G", f("q")),
        ]);
        assert!(split_nontrivial(&vc_of(&cmd)).is_empty());
    }

    #[test]
    fn local_assumption_base_keeps_branch_obligations_separate() {
        // (skip [] (assume L; assert G1; assume false)); assert G2
        let cmd = Simple::seq(vec![
            Simple::Choice(
                Box::new(Simple::Skip),
                Box::new(Simple::seq(vec![
                    Simple::assume("Local", f("l")),
                    Simple::assert("G1", f("g1")),
                    Simple::assume("end", Form::FALSE),
                ])),
            ),
            Simple::assert("G2", f("g2")),
        ]);
        let sequents = split_nontrivial(&vc_of(&cmd));
        // G1 is proved with the local assumption; G2 without it.  The branch
        // copy of G2 is trivially valid because its assumptions contain false.
        assert_eq!(sequents.len(), 2);
        let g1 = sequents.iter().find(|s| s.goal_label == "G1").unwrap();
        let g2 = sequents.iter().find(|s| s.goal_label == "G2").unwrap();
        assert!(g1.assumptions.iter().any(|a| a.label == "Local"));
        assert!(!g2.assumptions.iter().any(|a| a.label == "Local"));
    }

    /// The one variable occurring free in `form`: the incarnation of `x`
    /// it was built over.
    fn incarnation(form: &Form) -> String {
        let vars = ipl_logic::free_vars(form);
        assert_eq!(vars.len(), 1, "one variable in {form}");
        vars.into_iter().next().unwrap()
    }

    fn assumption<'s>(sequent: &'s Sequent, label: &str) -> &'s Form {
        &sequent
            .assumptions
            .iter()
            .find(|a| a.label == label)
            .unwrap_or_else(|| panic!("{label} is assumed in {}", sequent.name))
            .form
    }

    #[test]
    fn a_havoc_in_one_branch_leaves_the_sibling_on_the_outer_incarnation() {
        // havoc x; assume Pre; (havoc x; assume Left; assert L)
        //                      [] (assume Right; assert R)
        let cmd = Simple::seq(vec![
            Simple::Havoc(vec!["x".into()]),
            Simple::assume("Pre", f("0 <= x")),
            Simple::Choice(
                Box::new(Simple::seq(vec![
                    Simple::Havoc(vec!["x".into()]),
                    Simple::assume("Left", f("x = 1")),
                    Simple::assert("L", f("0 < x")),
                ])),
                Box::new(Simple::seq(vec![
                    Simple::assume("Right", f("x = 2")),
                    Simple::assert("R", f("1 < x")),
                ])),
            ),
        ]);
        let sequents = split_all(&vc_of(&cmd));
        let left = sequents.iter().find(|s| s.goal_label == "L").unwrap();
        let right = sequents.iter().find(|s| s.goal_label == "R").unwrap();
        let outer = incarnation(assumption(right, "Pre"));
        assert_ne!(outer, "x", "the outer havoc renames x");
        assert_eq!(incarnation(assumption(right, "Right")), outer);
        assert_eq!(incarnation(&right.goal), outer);
        let inner = incarnation(assumption(left, "Left"));
        assert_ne!(inner, outer, "the branch's havoc gives a new incarnation");
        assert_eq!(incarnation(&left.goal), inner);
        assert_eq!(incarnation(assumption(left, "Pre")), outer);
    }

    #[test]
    fn a_branch_hypothesis_is_absent_from_every_sequent_of_the_other_branch() {
        // (assume A; assert GA) [] (assume B; assert GB); assert Join
        let cmd = Simple::seq(vec![
            Simple::Choice(
                Box::new(Simple::seq(vec![
                    Simple::assume("A", f("a")),
                    Simple::assert("GA", f("g")),
                ])),
                Box::new(Simple::seq(vec![
                    Simple::assume("B", f("b")),
                    Simple::assert("GB", f("g")),
                ])),
            ),
            Simple::assert("Join", f("h")),
        ]);
        let sequents = split_all(&vc_of(&cmd));
        assert_eq!(sequents.len(), 4, "GA, Join, GB, Join");
        let holds = |s: &Sequent, label: &str| s.assumptions.iter().any(|a| a.label == label);
        for sequent in &sequents {
            assert!(
                holds(sequent, "A") != holds(sequent, "B"),
                "{} holds exactly one branch's hypothesis",
                sequent.name
            );
        }
        assert!(sequents
            .iter()
            .all(|s| s.goal_label != "GA" || !holds(s, "B")));
        assert!(sequents
            .iter()
            .all(|s| s.goal_label != "GB" || !holds(s, "A")));
        let joins: Vec<&Sequent> = sequents.iter().filter(|s| s.goal_label == "Join").collect();
        assert_eq!(joins.len(), 2);
        assert!(holds(joins[0], "A") && holds(joins[1], "B"));
    }

    #[test]
    fn repeated_and_nested_havocs_restore_the_outer_name_on_return() {
        // havoc x; assume Pre;
        // (havoc x, x; havoc x; assert Inner) [] skip;
        // assert Outer
        let cmd = Simple::seq(vec![
            Simple::Havoc(vec!["x".into()]),
            Simple::assume("Pre", f("0 <= x")),
            Simple::Choice(
                Box::new(Simple::seq(vec![
                    Simple::Havoc(vec!["x".into(), "x".into()]),
                    Simple::Havoc(vec!["x".into()]),
                    Simple::assert("Inner", f("x = 1")),
                ])),
                Box::new(Simple::Skip),
            ),
            Simple::assert("Outer", f("x = 2")),
        ]);
        let sequents = split_all(&vc_of(&cmd));
        let goals: Vec<(&str, String)> = sequents
            .iter()
            .map(|s| (s.goal_label.as_str(), incarnation(&s.goal)))
            .collect();
        let outer = incarnation(assumption(&sequents[0], "Pre"));
        let [(_, inner), (_, through_branch), (label, after_skip)] = goals.as_slice() else {
            panic!("Inner, Outer through the branch, Outer after skip: {goals:?}");
        };
        assert_eq!(*label, "Outer");
        assert_ne!(inner, &outer);
        assert_eq!(through_branch, inner, "the innermost havoc is in force");
        assert_eq!(after_skip, &outer, "the branch's havocs are undone");
        assert!(sequents
            .iter()
            .all(|s| incarnation(assumption(s, "Pre")) == outer));
    }

    #[test]
    fn sequent_rendering_mentions_labels() {
        let cmd = Simple::seq(vec![
            Simple::assume("Pre", f("p")),
            Simple::assert("Post", f("q")),
        ]);
        let sequents = split_all(&vc_of(&cmd));
        let text = sequents[0].render();
        assert!(text.contains("Pre: p"));
        assert!(text.contains("[Post] q"));
    }
}
