//! The extended guarded command language (Figure 2), the integrated proof
//! language constructs (Figure 3) and the simple guarded command language
//! (Figure 4).

use ipl_logic::{Form, Labeled, Sort};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A named fact reference list — the `from ~h` clause of `assert`/`note`.
pub type FromClause = Option<Vec<String>>;

/// The integrated proof language constructs (Figure 3 of the paper).
///
/// This is the one representation of a proof statement: the module parser
/// builds it, lowering rewrites its formulas in place, and translation reads
/// it.  Each variant carries exactly the information required by its
/// translation into simple guarded commands (Figure 8).  `fix`, the one
/// construct that encloses code, is a command ([`Ext::Fix`]), not a proof.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Proof {
    /// Sequential composition `p1 ; p2`.
    Seq(Vec<Proof>),
    /// `assert l:F from ~h` — prove `F` (using only the named facts if a
    /// `from` clause is present) without adding it to the assumption base.
    Assert {
        /// Label of the obligation.
        label: String,
        /// The formula to prove.
        form: Form,
        /// Optional assumption-base restriction.
        from: FromClause,
    },
    /// `note l:F from ~h` — prove `F` and add it to the assumption base.
    Note {
        /// Name under which the fact becomes available.
        label: String,
        /// The formula to prove and assume.
        form: Form,
        /// Optional assumption-base restriction.
        from: FromClause,
    },
    /// `localize in (p ; note l:F)` — prove `F` inside a local assumption
    /// base extended by the intermediate lemmas of `p`, then add only `F`
    /// back to the original assumption base.
    Localize {
        /// The nested proof commands.
        body: Box<Proof>,
        /// Name of the exported fact.
        label: String,
        /// The exported fact.
        form: Form,
    },
    /// `mp l:(F --> G)` — modus ponens: prove `F` and `F --> G`, conclude `G`.
    Mp {
        /// Name of the concluded fact `G`.
        label: String,
        /// The hypothesis `F`.
        hyp: Form,
        /// The conclusion `G`.
        concl: Form,
    },
    /// `assuming lF:F in (p ; note lG:G)` — implication introduction.
    Assuming {
        /// Name of the local hypothesis.
        hyp_label: String,
        /// The hypothesis `F`.
        hyp: Form,
        /// The nested proof of `G` under `F`.
        body: Box<Proof>,
        /// Name of the exported fact `F --> G`.
        concl_label: String,
        /// The conclusion `G`.
        concl: Form,
    },
    /// `cases ~F for l:G` — case analysis: the cases must cover, each case
    /// must imply `G`.
    Cases {
        /// The case formulas `F1 ... Fn`.
        cases: Vec<Form>,
        /// Name of the concluded goal.
        label: String,
        /// The goal `G`.
        goal: Form,
    },
    /// `showedCase i of l : F1 | ... | Fn` — disjunction introduction.
    ShowedCase {
        /// 1-based index of the disjunct that is proved.
        index: usize,
        /// Name of the concluded disjunction.
        label: String,
        /// The disjuncts.
        disjuncts: Vec<Form>,
    },
    /// `byContradiction l:F in p` — prove `F` by assuming `~F` and deriving
    /// `false` in a local assumption base.
    ByContradiction {
        /// Name of the concluded fact.
        label: String,
        /// The fact `F`.
        form: Form,
        /// The nested refutation.
        body: Box<Proof>,
    },
    /// `contradiction l:F` — derive `false` from `F` and `~F`.
    Contradiction {
        /// Diagnostic label.
        label: String,
        /// The contradictory formula.
        form: Form,
    },
    /// `instantiate l:forall ~x.F with ~t` — universal elimination.
    Instantiate {
        /// Name of the instantiated fact.
        label: String,
        /// The universally quantified formula (must be a `Forall`).
        forall: Form,
        /// The instantiation terms, one per bound variable.
        terms: Vec<Form>,
    },
    /// `witness ~t for l:exists ~x.F` — existential introduction.
    Witness {
        /// The witness terms, one per bound variable.
        terms: Vec<Form>,
        /// Name of the concluded existential fact.
        label: String,
        /// The existentially quantified formula (must be an `Exists`).
        exists: Form,
    },
    /// `pickWitness ~x for lF:F in (p ; note lG:G)` — existential elimination.
    PickWitness {
        /// The witness variable names and sorts (the `~x`).
        vars: Vec<(String, Sort)>,
        /// Name of the local hypothesis `F`.
        hyp_label: String,
        /// The constraint `F` (with `~x` free).
        hyp: Form,
        /// The nested proof of `G`.
        body: Box<Proof>,
        /// Name of the exported goal `G`.
        concl_label: String,
        /// The goal `G` (must not contain `~x` free).
        concl: Form,
    },
    /// `pickAny ~x in (p ; note l:G)` — universal introduction.
    PickAny {
        /// The arbitrary variable names and sorts.
        vars: Vec<(String, Sort)>,
        /// The nested proof of `G`.
        body: Box<Proof>,
        /// Name of the exported fact `forall ~x. G`.
        label: String,
        /// The goal `G` (with `~x` free).
        goal: Form,
    },
    /// `induct l:F over n in p` — mathematical induction over `n >= 0`.
    Induct {
        /// Name of the concluded fact `forall n. 0 <= n --> F`.
        label: String,
        /// The induction formula `F` (with `n` free).
        form: Form,
        /// The induction variable.
        var: String,
        /// The nested proof of base case and inductive step.
        body: Box<Proof>,
    },
}

impl Proof {
    /// Builds a `note` without a `from` clause.
    pub fn note(label: impl Into<String>, form: Form) -> Proof {
        Proof::Note {
            label: label.into(),
            form,
            from: None,
        }
    }

    /// Builds a `note` with a `from` clause.
    pub fn note_from(label: impl Into<String>, form: Form, from: Vec<&str>) -> Proof {
        Proof::Note {
            label: label.into(),
            form,
            from: Some(from.into_iter().map(str::to_string).collect()),
        }
    }

    /// Builds an `assert` without a `from` clause.
    pub fn assert(label: impl Into<String>, form: Form) -> Proof {
        Proof::Assert {
            label: label.into(),
            form,
            from: None,
        }
    }

    /// Sequential composition, flattening nested sequences.
    pub fn seq(parts: impl IntoIterator<Item = Proof>) -> Proof {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Proof::Seq(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        if out.len() == 1 {
            out.pop().expect("len checked")
        } else {
            Proof::Seq(out)
        }
    }

    /// Visits this construct and all nested proof constructs.
    pub fn for_each(&self, f: &mut impl FnMut(&Proof)) {
        f(self);
        match self {
            Proof::Seq(parts) => parts.iter().for_each(|p| p.for_each(f)),
            Proof::Localize { body, .. }
            | Proof::Assuming { body, .. }
            | Proof::ByContradiction { body, .. }
            | Proof::PickWitness { body, .. }
            | Proof::PickAny { body, .. }
            | Proof::Induct { body, .. } => body.for_each(f),
            _ => {}
        }
    }

    /// Calls `f` on every formula of this construct and of the constructs
    /// nested in it.
    pub fn for_each_form_mut(&mut self, f: &mut impl FnMut(&mut Form)) {
        match self {
            Proof::Seq(parts) => parts.iter_mut().for_each(|p| p.for_each_form_mut(f)),
            Proof::Assert { form, .. }
            | Proof::Note { form, .. }
            | Proof::Contradiction { form, .. } => f(form),
            Proof::Localize { body, form, .. }
            | Proof::ByContradiction { body, form, .. }
            | Proof::Induct { body, form, .. }
            | Proof::PickAny {
                body, goal: form, ..
            } => {
                f(form);
                body.for_each_form_mut(f);
            }
            Proof::Mp { hyp, concl, .. } => {
                f(hyp);
                f(concl);
            }
            Proof::Assuming {
                hyp, body, concl, ..
            }
            | Proof::PickWitness {
                hyp, body, concl, ..
            } => {
                f(hyp);
                f(concl);
                body.for_each_form_mut(f);
            }
            Proof::Cases { cases, goal, .. } => {
                cases.iter_mut().for_each(&mut *f);
                f(goal);
            }
            Proof::ShowedCase { disjuncts, .. } => disjuncts.iter_mut().for_each(f),
            Proof::Instantiate { forall, terms, .. } => {
                f(forall);
                terms.iter_mut().for_each(f);
            }
            Proof::Witness { terms, exists, .. } => {
                terms.iter_mut().for_each(&mut *f);
                f(exists);
            }
        }
    }
}

/// The extended guarded command language (Figure 2), with the proof language
/// constructs embedded as one alternative (the `p` production of Figure 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Ext {
    /// An embedded proof command.
    Proof(Proof),
    /// `skip`.
    Skip,
    /// Assignment `x := F`.
    Assign(String, Form),
    /// Non-deterministic choice `c1 [] c2`.
    Choice(Box<Ext>, Box<Ext>),
    /// Sequential composition.
    Seq(Vec<Ext>),
    /// Conditional `if (F) c1 else c2`.
    If(Form, Box<Ext>, Box<Ext>),
    /// `loop inv(I) c1 while(F) c2` — `c1` runs before the test on every
    /// iteration, `c2` runs when the test succeeds (Figure 2).
    Loop {
        /// The loop invariant with its label (usually `"LoopInv"`).
        invariant: Labeled,
        /// Commands executed before the loop test.
        before: Box<Ext>,
        /// The loop condition.
        cond: Form,
        /// Commands executed when the condition holds.
        body: Box<Ext>,
    },
    /// `assume l:F`.
    Assume(Labeled),
    /// `assert l:F from ~h` at the command level (used for postconditions,
    /// invariant re-establishment and call preconditions).
    Assert {
        /// The labelled obligation.
        fact: Labeled,
        /// Optional assumption-base restriction.
        from: FromClause,
    },
    /// `havoc ~x suchThat F` (the constraint is optional: plain `havoc ~x`
    /// passes `None`).
    Havoc(Vec<String>, Option<Form>),
    /// The `fix ~x suchThat F in (c ; note l:G)` construct of Appendix B.
    Fix {
        /// The fixed variables and their sorts.
        vars: Vec<(String, Sort)>,
        /// The constraint `F`.
        such_that: Form,
        /// The enclosed (possibly state-changing) command.
        body: Box<Ext>,
        /// Name of the exported fact.
        label: String,
        /// The goal `G`.
        goal: Form,
    },
}

impl Ext {
    /// Sequential composition, flattening nested sequences and dropping skips.
    pub fn seq(parts: impl IntoIterator<Item = Ext>) -> Ext {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Ext::Seq(inner) => out.extend(inner),
                Ext::Skip => {}
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Ext::Skip,
            1 => out.pop().expect("len checked"),
            _ => Ext::Seq(out),
        }
    }

    /// `assume label: form`.
    pub fn assume(label: impl Into<String>, form: Form) -> Ext {
        Ext::Assume(Labeled::new(label, form))
    }

    /// `assert label: form` (no `from` clause).
    pub fn assert(label: impl Into<String>, form: Form) -> Ext {
        Ext::Assert {
            fact: Labeled::new(label, form),
            from: None,
        }
    }

    /// The set of program variables this command may modify (`mod(c)` in the
    /// paper), used by the loop and `fix` translations.
    pub fn modified_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_modified(&mut out);
        out
    }

    fn collect_modified(&self, out: &mut BTreeSet<String>) {
        match self {
            Ext::Assign(x, _) => {
                out.insert(x.clone());
            }
            Ext::Havoc(xs, _) => out.extend(xs.iter().cloned()),
            Ext::Choice(a, b) => {
                a.collect_modified(out);
                b.collect_modified(out);
            }
            Ext::Seq(parts) => parts.iter().for_each(|p| p.collect_modified(out)),
            Ext::If(_, a, b) => {
                a.collect_modified(out);
                b.collect_modified(out);
            }
            Ext::Loop { before, body, .. } => {
                before.collect_modified(out);
                body.collect_modified(out);
            }
            Ext::Fix { body, .. } => body.collect_modified(out),
            Ext::Proof(_) | Ext::Skip | Ext::Assume(_) | Ext::Assert { .. } => {}
        }
    }

    /// Removes every integrated proof language construct, replacing it by
    /// `skip` (and dropping `fix` wrappers while keeping their bodies).  This
    /// is the "without proof language constructs" configuration of Table 2.
    pub fn strip_proofs(&self) -> Ext {
        match self {
            Ext::Proof(_) => Ext::Skip,
            Ext::Skip | Ext::Assign(..) | Ext::Assume(_) | Ext::Assert { .. } | Ext::Havoc(..) => {
                self.clone()
            }
            Ext::Choice(a, b) => {
                Ext::Choice(Box::new(a.strip_proofs()), Box::new(b.strip_proofs()))
            }
            Ext::Seq(parts) => Ext::seq(parts.iter().map(|p| p.strip_proofs())),
            Ext::If(c, a, b) => Ext::If(
                c.clone(),
                Box::new(a.strip_proofs()),
                Box::new(b.strip_proofs()),
            ),
            Ext::Loop {
                invariant,
                before,
                cond,
                body,
            } => Ext::Loop {
                invariant: invariant.clone(),
                before: Box::new(before.strip_proofs()),
                cond: cond.clone(),
                body: Box::new(body.strip_proofs()),
            },
            Ext::Fix { body, .. } => body.strip_proofs(),
        }
    }

    /// Counts the integrated proof language constructs appearing in this
    /// command (Table 1 columns).
    pub fn count_constructs(&self) -> ConstructCounts {
        let mut counts = ConstructCounts::default();
        self.count_into(&mut counts);
        counts
    }

    fn count_into(&self, counts: &mut ConstructCounts) {
        match self {
            Ext::Proof(p) => counts.count_proof(p),
            Ext::Choice(a, b) => {
                a.count_into(counts);
                b.count_into(counts);
            }
            Ext::Seq(parts) => parts.iter().for_each(|p| p.count_into(counts)),
            Ext::If(_, a, b) => {
                a.count_into(counts);
                b.count_into(counts);
            }
            Ext::Loop { before, body, .. } => {
                counts.loop_invariants += 1;
                before.count_into(counts);
                body.count_into(counts);
            }
            Ext::Fix { body, .. } => {
                counts.fix += 1;
                body.count_into(counts);
            }
            _ => {}
        }
    }
}

/// Counts of specification and proof constructs, mirroring the columns of
/// Table 1 in the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConstructCounts {
    /// `note` statements (total).
    pub note: usize,
    /// `note` statements that carry a `from` clause.
    pub note_with_from: usize,
    /// `localize` statements.
    pub localize: usize,
    /// `assuming` statements.
    pub assuming: usize,
    /// `mp` statements.
    pub mp: usize,
    /// `pickAny` statements.
    pub pick_any: usize,
    /// `instantiate` statements.
    pub instantiate: usize,
    /// `witness` statements.
    pub witness: usize,
    /// `pickWitness` statements.
    pub pick_witness: usize,
    /// `cases` statements.
    pub cases: usize,
    /// `induct` statements.
    pub induct: usize,
    /// `showedCase` statements.
    pub showed_case: usize,
    /// `byContradiction` statements.
    pub by_contradiction: usize,
    /// `contradiction` statements.
    pub contradiction: usize,
    /// `assert` proof statements.
    pub assert: usize,
    /// `fix` statements (Appendix B extension).
    pub fix: usize,
    /// Loop invariants (one per loop).
    pub loop_invariants: usize,
}

impl ConstructCounts {
    /// Total number of proof statements (excluding loop invariants).
    pub fn total_proof_statements(&self) -> usize {
        self.note
            + self.localize
            + self.assuming
            + self.mp
            + self.pick_any
            + self.instantiate
            + self.witness
            + self.pick_witness
            + self.cases
            + self.induct
            + self.showed_case
            + self.by_contradiction
            + self.contradiction
            + self.assert
            + self.fix
    }

    /// Adds the counts of another value into this one.
    pub fn add(&mut self, other: &ConstructCounts) {
        self.note += other.note;
        self.note_with_from += other.note_with_from;
        self.localize += other.localize;
        self.assuming += other.assuming;
        self.mp += other.mp;
        self.pick_any += other.pick_any;
        self.instantiate += other.instantiate;
        self.witness += other.witness;
        self.pick_witness += other.pick_witness;
        self.cases += other.cases;
        self.induct += other.induct;
        self.showed_case += other.showed_case;
        self.by_contradiction += other.by_contradiction;
        self.contradiction += other.contradiction;
        self.assert += other.assert;
        self.fix += other.fix;
        self.loop_invariants += other.loop_invariants;
    }

    fn count_proof(&mut self, proof: &Proof) {
        proof.for_each(&mut |p| match p {
            Proof::Seq(_) => {}
            Proof::Assert { .. } => self.assert += 1,
            Proof::Note { from, .. } => {
                self.note += 1;
                if from.is_some() {
                    self.note_with_from += 1;
                }
            }
            Proof::Localize { .. } => self.localize += 1,
            Proof::Mp { .. } => self.mp += 1,
            Proof::Assuming { .. } => self.assuming += 1,
            Proof::Cases { .. } => self.cases += 1,
            Proof::ShowedCase { .. } => self.showed_case += 1,
            Proof::ByContradiction { .. } => self.by_contradiction += 1,
            Proof::Contradiction { .. } => self.contradiction += 1,
            Proof::Instantiate { .. } => self.instantiate += 1,
            Proof::Witness { .. } => self.witness += 1,
            Proof::PickWitness { .. } => self.pick_witness += 1,
            Proof::PickAny { .. } => self.pick_any += 1,
            Proof::Induct { .. } => self.induct += 1,
        });
    }
}

/// The simple guarded command language (Figure 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Simple {
    /// `assume l:F`.
    Assume(Labeled),
    /// `assert l:F from ~h`.
    Assert {
        /// The labelled obligation.
        fact: Labeled,
        /// Optional assumption-base restriction.
        from: FromClause,
    },
    /// `havoc ~x`.
    Havoc(Vec<String>),
    /// `skip`.
    Skip,
    /// Non-deterministic choice.
    Choice(Box<Simple>, Box<Simple>),
    /// Sequential composition.
    Seq(Vec<Simple>),
}

impl Simple {
    /// Sequential composition, flattening nested sequences and dropping skips.
    pub fn seq(parts: impl IntoIterator<Item = Simple>) -> Simple {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Simple::Seq(inner) => out.extend(inner),
                Simple::Skip => {}
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Simple::Skip,
            1 => out.pop().expect("len checked"),
            _ => Simple::Seq(out),
        }
    }

    /// `assume label: form`.
    pub fn assume(label: impl Into<String>, form: Form) -> Simple {
        Simple::Assume(Labeled::new(label, form))
    }

    /// `assert label: form` without a `from` clause.
    pub fn assert(label: impl Into<String>, form: Form) -> Simple {
        Simple::Assert {
            fact: Labeled::new(label, form),
            from: None,
        }
    }

    /// `assert label: form from h`.
    pub fn assert_from(label: impl Into<String>, form: Form, from: Vec<String>) -> Simple {
        Simple::Assert {
            fact: Labeled::new(label, form),
            from: Some(from),
        }
    }

    /// Number of `assert` commands contained in this command (a rough measure
    /// of proof-obligation count before splitting).
    pub fn assert_count(&self) -> usize {
        match self {
            Simple::Assert { .. } => 1,
            Simple::Choice(a, b) => a.assert_count() + b.assert_count(),
            Simple::Seq(parts) => parts.iter().map(Simple::assert_count).sum(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipl_logic::parser::parse_form;

    fn f(s: &str) -> Form {
        parse_form(s).unwrap()
    }

    #[test]
    fn modified_vars_of_structured_commands() {
        let cmd = Ext::seq(vec![
            Ext::Assign("x".into(), f("x + 1")),
            Ext::If(
                f("x < 10"),
                Box::new(Ext::Assign("y".into(), f("0"))),
                Box::new(Ext::Havoc(vec!["z".into()], None)),
            ),
        ]);
        let mods = cmd.modified_vars();
        assert_eq!(
            mods.into_iter().collect::<Vec<_>>(),
            vec!["x".to_string(), "y".to_string(), "z".to_string()]
        );
    }

    #[test]
    fn proof_commands_do_not_modify_program_state() {
        let cmd = Ext::Proof(Proof::note("L", f("x = 1")));
        assert!(cmd.modified_vars().is_empty());
    }

    #[test]
    fn strip_proofs_removes_only_proof_constructs() {
        let cmd = Ext::seq(vec![
            Ext::Assign("x".into(), f("1")),
            Ext::Proof(Proof::note("L", f("x = 1"))),
            Ext::assert("Post", f("x = 1")),
        ]);
        let stripped = cmd.strip_proofs();
        match &stripped {
            Ext::Seq(parts) => {
                assert_eq!(parts.len(), 2, "note dropped, assignment and assert kept");
            }
            other => panic!("unexpected shape {other:?}"),
        }
    }

    #[test]
    fn construct_counts_cover_all_statement_kinds() {
        let proof = Proof::seq(vec![
            Proof::note_from("A", f("x = 1"), vec!["P"]),
            Proof::note("B", f("x = 1")),
            Proof::Witness {
                terms: vec![f("0")],
                label: "W".into(),
                exists: f("exists i:int. i = x"),
            },
            Proof::PickAny {
                vars: vec![("y".into(), Sort::Int)],
                body: Box::new(Proof::note("C", f("y = y"))),
                label: "All".into(),
                goal: f("y = y"),
            },
        ]);
        let counts = Ext::Proof(proof).count_constructs();
        assert_eq!(counts.note, 3, "nested note inside pickAny also counts");
        assert_eq!(counts.note_with_from, 1);
        assert_eq!(counts.witness, 1);
        assert_eq!(counts.pick_any, 1);
        assert_eq!(counts.total_proof_statements(), 5);
    }

    #[test]
    fn loop_counts_its_invariant() {
        let cmd = Ext::Loop {
            invariant: Labeled::new("LoopInv", f("0 <= i")),
            before: Box::new(Ext::Skip),
            cond: f("i < n"),
            body: Box::new(Ext::Assign("i".into(), f("i + 1"))),
        };
        assert_eq!(cmd.count_constructs().loop_invariants, 1);
    }

    #[test]
    fn simple_seq_flattens() {
        let s = Simple::seq(vec![
            Simple::Skip,
            Simple::seq(vec![
                Simple::assume("a", f("p")),
                Simple::assert("b", f("q")),
            ]),
        ]);
        match s {
            Simple::Seq(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected seq, got {other:?}"),
        }
    }

    #[test]
    fn assert_count() {
        let s = Simple::seq(vec![
            Simple::assert("a", f("p")),
            Simple::Choice(
                Box::new(Simple::assert("b", f("q"))),
                Box::new(Simple::Skip),
            ),
        ]);
        assert_eq!(s.assert_count(), 2);
    }

    #[test]
    fn counts_add() {
        let mut a = ConstructCounts {
            note: 2,
            ..ConstructCounts::default()
        };
        let b = ConstructCounts {
            note: 3,
            induct: 1,
            ..ConstructCounts::default()
        };
        a.add(&b);
        assert_eq!(a.note, 5);
        assert_eq!(a.induct, 1);
    }
}
