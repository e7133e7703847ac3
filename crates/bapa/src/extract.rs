//! Extraction of `ipl-logic` formulas into the BAPA fragment.
//!
//! The extractor classifies variables by how they are used (set position,
//! element position, integer position) and maps the supported constructs into
//! the small [`BapaForm`] abstract syntax.  Anything outside the fragment
//! yields `None`; for assumptions the caller simply drops the formula (which
//! is sound for validity checking), for goals the caller gives up.

use ipl_logic::Form;
use std::collections::BTreeSet;

/// Set-valued terms of the BAPA fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetTerm {
    /// A set variable.
    Var(String),
    /// The empty set.
    Empty,
    /// A singleton containing the named element.
    Singleton(String),
    /// Union of two sets.
    Union(Box<SetTerm>, Box<SetTerm>),
    /// Intersection of two sets.
    Inter(Box<SetTerm>, Box<SetTerm>),
    /// Difference of two sets.
    Diff(Box<SetTerm>, Box<SetTerm>),
}

/// Integer-valued terms of the BAPA fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntTerm {
    /// An integer constant.
    Const(i64),
    /// An integer variable.
    Var(String),
    /// The cardinality of a set term.
    Card(SetTerm),
    /// Sum.
    Add(Box<IntTerm>, Box<IntTerm>),
    /// Difference.
    Sub(Box<IntTerm>, Box<IntTerm>),
    /// Multiplication by a constant.
    MulConst(i64, Box<IntTerm>),
}

/// Formulas of the BAPA fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BapaForm {
    /// Truth.
    True,
    /// Falsity.
    False,
    /// Negation.
    Not(Box<BapaForm>),
    /// Conjunction.
    And(Vec<BapaForm>),
    /// Disjunction.
    Or(Vec<BapaForm>),
    /// `a <= b` over integers.
    IntLe(IntTerm, IntTerm),
    /// `a < b` over integers.
    IntLt(IntTerm, IntTerm),
    /// `a = b` over integers.
    IntEq(IntTerm, IntTerm),
    /// Set equality.
    SetEq(SetTerm, SetTerm),
    /// Subset-or-equal.
    Subset(SetTerm, SetTerm),
    /// Element membership.
    Member(String, SetTerm),
    /// Equality of two element variables.
    ElemEq(String, String),
}

impl BapaForm {
    /// Conjunction with flattening.
    pub fn and(parts: Vec<BapaForm>) -> BapaForm {
        let mut out = Vec::new();
        for p in parts {
            match p {
                BapaForm::True => {}
                BapaForm::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => BapaForm::True,
            1 => out.pop().expect("len checked"),
            _ => BapaForm::And(out),
        }
    }

    /// Collects the element variables appearing in the formula.
    pub fn element_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            BapaForm::Member(e, s) => {
                out.insert(e.clone());
                collect_set_elems(s, out);
            }
            BapaForm::ElemEq(a, b) => {
                out.insert(a.clone());
                out.insert(b.clone());
            }
            BapaForm::Not(inner) => inner.element_vars(out),
            BapaForm::And(parts) | BapaForm::Or(parts) => {
                parts.iter().for_each(|p| p.element_vars(out))
            }
            BapaForm::IntLe(a, b) | BapaForm::IntLt(a, b) | BapaForm::IntEq(a, b) => {
                collect_int_elems(a, out);
                collect_int_elems(b, out);
            }
            BapaForm::SetEq(a, b) | BapaForm::Subset(a, b) => {
                collect_set_elems(a, out);
                collect_set_elems(b, out);
            }
            BapaForm::True | BapaForm::False => {}
        }
    }

    /// Collects the free integer variables appearing in the formula.
    pub fn int_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            BapaForm::Not(inner) => inner.int_vars(out),
            BapaForm::And(parts) | BapaForm::Or(parts) => {
                parts.iter().for_each(|p| p.int_vars(out))
            }
            BapaForm::IntLe(a, b) | BapaForm::IntLt(a, b) | BapaForm::IntEq(a, b) => {
                collect_int_vars(a, out);
                collect_int_vars(b, out);
            }
            BapaForm::True
            | BapaForm::False
            | BapaForm::SetEq(..)
            | BapaForm::Subset(..)
            | BapaForm::Member(..)
            | BapaForm::ElemEq(..) => {}
        }
    }

    /// Collects the set variables appearing in the formula.
    pub fn set_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            BapaForm::Member(_, s) => collect_set_vars(s, out),
            BapaForm::Not(inner) => inner.set_vars(out),
            BapaForm::And(parts) | BapaForm::Or(parts) => {
                parts.iter().for_each(|p| p.set_vars(out))
            }
            BapaForm::IntLe(a, b) | BapaForm::IntLt(a, b) | BapaForm::IntEq(a, b) => {
                collect_int_set_vars(a, out);
                collect_int_set_vars(b, out);
            }
            BapaForm::SetEq(a, b) | BapaForm::Subset(a, b) => {
                collect_set_vars(a, out);
                collect_set_vars(b, out);
            }
            BapaForm::True | BapaForm::False | BapaForm::ElemEq(..) => {}
        }
    }
}

fn collect_set_vars(set: &SetTerm, out: &mut BTreeSet<String>) {
    match set {
        SetTerm::Var(name) => {
            out.insert(name.clone());
        }
        SetTerm::Empty | SetTerm::Singleton(_) => {}
        SetTerm::Union(a, b) | SetTerm::Inter(a, b) | SetTerm::Diff(a, b) => {
            collect_set_vars(a, out);
            collect_set_vars(b, out);
        }
    }
}

fn collect_set_elems(set: &SetTerm, out: &mut BTreeSet<String>) {
    match set {
        SetTerm::Singleton(e) => {
            out.insert(e.clone());
        }
        SetTerm::Union(a, b) | SetTerm::Inter(a, b) | SetTerm::Diff(a, b) => {
            collect_set_elems(a, out);
            collect_set_elems(b, out);
        }
        SetTerm::Var(_) | SetTerm::Empty => {}
    }
}

fn collect_int_set_vars(term: &IntTerm, out: &mut BTreeSet<String>) {
    match term {
        IntTerm::Card(s) => collect_set_vars(s, out),
        IntTerm::Add(a, b) | IntTerm::Sub(a, b) => {
            collect_int_set_vars(a, out);
            collect_int_set_vars(b, out);
        }
        IntTerm::MulConst(_, a) => collect_int_set_vars(a, out),
        IntTerm::Const(_) | IntTerm::Var(_) => {}
    }
}

fn collect_int_vars(term: &IntTerm, out: &mut BTreeSet<String>) {
    match term {
        IntTerm::Var(name) => {
            out.insert(name.clone());
        }
        IntTerm::Add(a, b) | IntTerm::Sub(a, b) => {
            collect_int_vars(a, out);
            collect_int_vars(b, out);
        }
        IntTerm::MulConst(_, a) => collect_int_vars(a, out),
        IntTerm::Const(_) | IntTerm::Card(_) => {}
    }
}

fn collect_int_elems(term: &IntTerm, out: &mut BTreeSet<String>) {
    match term {
        IntTerm::Card(s) => collect_set_elems(s, out),
        IntTerm::Add(a, b) | IntTerm::Sub(a, b) => {
            collect_int_elems(a, out);
            collect_int_elems(b, out);
        }
        IntTerm::MulConst(_, a) => collect_int_elems(a, out),
        IntTerm::Const(_) | IntTerm::Var(_) => {}
    }
}

/// An extractor parameterised by the variable classification gathered from a
/// scan of the whole problem (assumptions and goal together).
#[derive(Debug, Default)]
pub struct Extractor {
    /// Variables used in set positions (operand of `union`, `card`, `in`, ...).
    set_position: BTreeSet<String>,
    /// Variables used in element positions (left of `in`, inside `{...}`).
    elem_position: BTreeSet<String>,
}

impl Extractor {
    /// Scans the given formulas and records how each variable is used.
    pub fn scan(forms: &[&Form]) -> Extractor {
        let mut extractor = Extractor::default();
        for form in forms {
            extractor.scan_form(form);
        }
        extractor
    }

    fn scan_form(&mut self, form: &Form) {
        match form {
            Form::Elem(elem, set) => {
                self.note_elem(elem);
                self.note_set(set);
            }
            Form::Subseteq(a, b) => {
                self.note_set(a);
                self.note_set(b);
            }
            Form::Card(s) => self.note_set(s),
            Form::Union(a, b) | Form::Inter(a, b) | Form::Diff(a, b) => {
                self.note_set(a);
                self.note_set(b);
            }
            // A set-algebra operand on either side forces both to be sets.
            Form::Eq(a, b) if is_set_structure(a) || is_set_structure(b) => {
                self.note_set(a);
                self.note_set(b);
            }
            _ => {}
        }
        form.for_each_child(|c| self.scan_form(c));
    }

    fn note_set(&mut self, form: &Form) {
        match form {
            Form::Var(name) => {
                self.set_position.insert(name.clone());
            }
            Form::FiniteSet(elems) => elems.iter().for_each(|e| self.note_elem(e)),
            Form::Union(a, b) | Form::Inter(a, b) | Form::Diff(a, b) => {
                self.note_set(a);
                self.note_set(b);
            }
            _ => {}
        }
    }

    fn note_elem(&mut self, form: &Form) {
        self.elem_position.insert(elem_id(form));
    }

    /// Extracts a formula into the BAPA fragment.  Returns `None` if any part
    /// of the formula lies outside the fragment.
    pub fn extract(&self, form: &Form) -> Option<BapaForm> {
        match form {
            Form::Bool(true) => Some(BapaForm::True),
            Form::Bool(false) => Some(BapaForm::False),
            Form::Not(inner) => Some(BapaForm::Not(Box::new(self.extract(inner)?))),
            Form::And(parts) => Some(BapaForm::and(
                parts
                    .iter()
                    .map(|p| self.extract(p))
                    .collect::<Option<Vec<_>>>()?,
            )),
            Form::Or(parts) => Some(BapaForm::Or(
                parts
                    .iter()
                    .map(|p| self.extract(p))
                    .collect::<Option<Vec<_>>>()?,
            )),
            Form::Implies(a, b) => Some(BapaForm::Or(vec![
                BapaForm::Not(Box::new(self.extract(a)?)),
                self.extract(b)?,
            ])),
            Form::Iff(a, b) => {
                let a = self.extract(a)?;
                let b = self.extract(b)?;
                Some(BapaForm::and(vec![
                    BapaForm::Or(vec![BapaForm::Not(Box::new(a.clone())), b.clone()]),
                    BapaForm::Or(vec![BapaForm::Not(Box::new(b)), a]),
                ]))
            }
            Form::Le(a, b) => Some(BapaForm::IntLe(self.extract_int(a)?, self.extract_int(b)?)),
            Form::Lt(a, b) => Some(BapaForm::IntLt(self.extract_int(a)?, self.extract_int(b)?)),
            Form::Elem(elem, set) => Some(BapaForm::Member(elem_id(elem), self.extract_set(set)?)),
            Form::Subseteq(a, b) => {
                Some(BapaForm::Subset(self.extract_set(a)?, self.extract_set(b)?))
            }
            Form::Eq(a, b) => {
                // Try sets, then integers, then element identities.
                if let (Some(sa), Some(sb)) = (self.try_extract_set(a), self.try_extract_set(b)) {
                    return Some(BapaForm::SetEq(sa, sb));
                }
                if let (Some(ia), Some(ib)) = (self.try_extract_int(a), self.try_extract_int(b)) {
                    return Some(BapaForm::IntEq(ia, ib));
                }
                // Element identities: only for terms that plausibly denote
                // elements (seen in an element position, or simple terms).
                let simple = |f: &Form| matches!(f, Form::Var(_) | Form::Null | Form::Tuple(_));
                let known = |f: &Form| self.elem_position.contains(&elem_id(f));
                if known(a) || known(b) || (simple(a) && simple(b)) {
                    Some(BapaForm::ElemEq(elem_id(a), elem_id(b)))
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn extract_int(&self, form: &Form) -> Option<IntTerm> {
        match form {
            Form::Int(value) => Some(IntTerm::Const(*value)),
            Form::Var(name) => {
                if self.set_position.contains(name) || self.elem_position.contains(name) {
                    None
                } else {
                    Some(IntTerm::Var(name.clone()))
                }
            }
            Form::Card(s) => Some(IntTerm::Card(self.extract_set(s)?)),
            Form::Add(a, b) => Some(IntTerm::Add(
                Box::new(self.extract_int(a)?),
                Box::new(self.extract_int(b)?),
            )),
            Form::Sub(a, b) => Some(IntTerm::Sub(
                Box::new(self.extract_int(a)?),
                Box::new(self.extract_int(b)?),
            )),
            Form::Neg(a) => Some(IntTerm::MulConst(-1, Box::new(self.extract_int(a)?))),
            Form::Mul(a, b) => match (a.as_ref(), b.as_ref()) {
                (Form::Int(k), other) | (other, Form::Int(k)) => {
                    Some(IntTerm::MulConst(*k, Box::new(self.extract_int(other)?)))
                }
                _ => None,
            },
            _ => None,
        }
    }

    fn try_extract_int(&self, form: &Form) -> Option<IntTerm> {
        self.extract_int(form)
    }

    fn extract_set(&self, form: &Form) -> Option<SetTerm> {
        match form {
            Form::Var(name) => {
                if self.elem_position.contains(name) && !self.set_position.contains(name) {
                    None
                } else {
                    Some(SetTerm::Var(name.clone()))
                }
            }
            Form::EmptySet => Some(SetTerm::Empty),
            Form::FiniteSet(elems) => {
                let mut acc: Option<SetTerm> = None;
                for elem in elems {
                    let singleton = SetTerm::Singleton(elem_id(elem));
                    acc = Some(match acc {
                        None => singleton,
                        Some(prev) => SetTerm::Union(Box::new(prev), Box::new(singleton)),
                    });
                }
                Some(acc.unwrap_or(SetTerm::Empty))
            }
            Form::Union(a, b) => Some(SetTerm::Union(
                Box::new(self.extract_set(a)?),
                Box::new(self.extract_set(b)?),
            )),
            Form::Inter(a, b) => Some(SetTerm::Inter(
                Box::new(self.extract_set(a)?),
                Box::new(self.extract_set(b)?),
            )),
            Form::Diff(a, b) => Some(SetTerm::Diff(
                Box::new(self.extract_set(a)?),
                Box::new(self.extract_set(b)?),
            )),
            _ => None,
        }
    }

    fn try_extract_set(&self, form: &Form) -> Option<SetTerm> {
        match form {
            Form::Var(name) if !self.set_position.contains(name) => None,
            _ => self.extract_set(form),
        }
    }
}

/// Returns `true` if the term is structurally a set expression.
fn is_set_structure(form: &Form) -> bool {
    matches!(
        form,
        Form::EmptySet
            | Form::FiniteSet(_)
            | Form::Union(..)
            | Form::Inter(..)
            | Form::Diff(..)
            | Form::Compr(..)
    )
}

/// The identity of an element term: its printed form (syntactically equal
/// terms denote the same element; distinct terms are *not* assumed distinct).
fn elem_id(form: &Form) -> String {
    format!("{form}")
}

/// Convenience entry point: scans a single formula and extracts it.
pub fn extract(form: &Form) -> Option<BapaForm> {
    Extractor::scan(&[form]).extract(form)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipl_logic::parser::parse_form;

    #[test]
    fn extracts_cardinality_comparison() {
        let f = parse_form("card(a union b) <= card(a) + card(b)").unwrap();
        let b = extract(&f).unwrap();
        assert!(matches!(b, BapaForm::IntLe(..)));
    }

    #[test]
    fn extracts_membership_and_set_equality() {
        let f = parse_form("x in s & s = t union {x}").unwrap();
        let b = extract(&f).unwrap();
        match b {
            BapaForm::And(parts) => {
                assert!(matches!(parts[0], BapaForm::Member(..)));
                assert!(matches!(parts[1], BapaForm::SetEq(..)));
            }
            other => panic!("expected conjunction, got {other:?}"),
        }
    }

    #[test]
    fn element_variables_are_recognised_across_conjuncts() {
        let member = parse_form("x in s").unwrap();
        let diseq = parse_form("~(x = y)").unwrap();
        let extractor = Extractor::scan(&[&member, &diseq]);
        match extractor.extract(&diseq).unwrap() {
            BapaForm::Not(inner) => assert!(matches!(*inner, BapaForm::ElemEq(..))),
            other => panic!("expected negated element equality, got {other:?}"),
        }
    }

    #[test]
    fn rejects_field_reads() {
        let f = parse_form("x.next = y").unwrap();
        assert!(extract(&f).is_none());
    }

    #[test]
    fn integer_equations_stay_integer() {
        let f = parse_form("csize = card(content)").unwrap();
        match extract(&f).unwrap() {
            BapaForm::IntEq(IntTerm::Var(v), IntTerm::Card(_)) => assert_eq!(v, "csize"),
            other => panic!("unexpected extraction {other:?}"),
        }
    }

    #[test]
    fn collects_set_and_element_vars() {
        let f = parse_form("x in s & card(t minus s) = 0").unwrap();
        let b = extract(&f).unwrap();
        let mut sets = BTreeSet::new();
        let mut elems = BTreeSet::new();
        b.set_vars(&mut sets);
        b.element_vars(&mut elems);
        assert!(sets.contains("s") && sets.contains("t"));
        assert!(elems.contains("x"));
    }
}
