//! The formula / term AST of the specification logic.
//!
//! A single recursive type [`Form`] represents both terms (integer, object,
//! set and tuple valued expressions) and formulas (boolean valued
//! expressions), mirroring the higher-order-logic style of Jahob
//! specifications.  Smart constructors perform lightweight simplification so
//! that the verification-condition generator produces compact formulas.
//!
//! Recursive positions are [`Arc`]-shared: cloning a formula copies pointers,
//! never subtrees, which makes `Form` cheap to clone, `Send + Sync` for the
//! parallel verification driver, and amenable to hash-consing (see
//! [`crate::intern`]).  Structural equality gets a pointer-identity fast path
//! for free: the standard library compares `Arc<T: Eq>` by allocation first.
//! N-ary children (`And`, `Or`, argument lists) stay in a `Vec` because the
//! smart constructors consume and flatten them; their elements still share
//! everything below the first level.

use crate::sort::Sort;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A bound variable together with its sort.
pub type Binding = (String, Sort);

/// Formulas and terms of the specification logic.
///
/// Boolean-sorted values are formulas; other values are terms.  The
/// distinction is enforced (after parsing) by sort inference in
/// [`crate::sorts`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Form {
    // ----- atoms -----
    /// A variable (program variable, specification variable, bound variable,
    /// or skolem constant).
    Var(String),
    /// An integer literal.
    Int(i64),
    /// A boolean literal.
    Bool(bool),
    /// The `null` object reference.
    Null,
    /// The empty set.
    EmptySet,

    // ----- propositional structure -----
    /// Negation.
    Not(Arc<Form>),
    /// N-ary conjunction (flattened).
    And(Vec<Form>),
    /// N-ary disjunction (flattened).
    Or(Vec<Form>),
    /// Implication `lhs --> rhs`.
    Implies(Arc<Form>, Arc<Form>),
    /// Bi-implication `lhs <-> rhs`.
    Iff(Arc<Form>, Arc<Form>),
    /// If-then-else on terms or formulas.
    Ite(Arc<Form>, Arc<Form>, Arc<Form>),

    // ----- equality and arithmetic -----
    /// Equality at any sort.
    Eq(Arc<Form>, Arc<Form>),
    /// Strict less-than on integers.
    Lt(Arc<Form>, Arc<Form>),
    /// Less-or-equal on integers.
    Le(Arc<Form>, Arc<Form>),
    /// Integer addition.
    Add(Arc<Form>, Arc<Form>),
    /// Integer subtraction.
    Sub(Arc<Form>, Arc<Form>),
    /// Integer multiplication.
    Mul(Arc<Form>, Arc<Form>),
    /// Integer negation.
    Neg(Arc<Form>),

    // ----- quantifiers -----
    /// Universal quantification.
    Forall(Vec<Binding>, Arc<Form>),
    /// Existential quantification.
    Exists(Vec<Binding>, Arc<Form>),

    // ----- applications, fields and arrays -----
    /// Application of a named (uninterpreted or interpreted) function or
    /// predicate symbol, e.g. `reach(next, root, x)`.
    App(String, Vec<Form>),
    /// Application of a function-valued term (typically a field variable) to
    /// an argument: `x.next` is `FieldRead(Var "next", Var "x")`.
    FieldRead(Arc<Form>, Arc<Form>),
    /// Function update `f[at := val]`, the image of a field after assignment.
    FieldWrite(Arc<Form>, Arc<Form>, Arc<Form>),
    /// Read from the global array state: `arr[i]` is
    /// `ArrayRead(Var "arrayState", arr, i)`.
    ArrayRead(Arc<Form>, Arc<Form>, Arc<Form>),
    /// Array-state update: `arrayState[(arr, i) := v]`.
    ArrayWrite(Arc<Form>, Arc<Form>, Arc<Form>, Arc<Form>),

    // ----- sets and tuples -----
    /// Element membership `elem in set`.
    Elem(Arc<Form>, Arc<Form>),
    /// Finite set literal `{a, b, c}`.
    FiniteSet(Vec<Form>),
    /// Set union.
    Union(Arc<Form>, Arc<Form>),
    /// Set intersection.
    Inter(Arc<Form>, Arc<Form>),
    /// Set difference.
    Diff(Arc<Form>, Arc<Form>),
    /// Subset-or-equal.
    Subseteq(Arc<Form>, Arc<Form>),
    /// Set comprehension `{(x, y) | P}`.
    Compr(Vec<Binding>, Arc<Form>),
    /// Set cardinality `card(S)`.
    Card(Arc<Form>),
    /// Tuple construction `(a, b)`.
    Tuple(Vec<Form>),

    /// Reference to the pre-state value of an expression (`old e`).  This is
    /// a surface-level construct eliminated during lowering.
    Old(Arc<Form>),
}

impl Form {
    /// The formula `true`.
    pub const TRUE: Form = Form::Bool(true);
    /// The formula `false`.
    pub const FALSE: Form = Form::Bool(false);

    /// Builds a variable reference.
    pub fn var(name: impl Into<String>) -> Form {
        Form::Var(name.into())
    }

    /// Builds an integer literal.
    pub fn int(value: i64) -> Form {
        Form::Int(value)
    }

    /// Unwraps a shared sub-formula, cloning (shallowly) only when the
    /// allocation is still shared.
    pub fn take(ptr: Arc<Form>) -> Form {
        Arc::try_unwrap(ptr).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Wraps a formula for use in a recursive position.
    pub fn ptr(form: Form) -> Arc<Form> {
        Arc::new(form)
    }

    /// Smart negation: collapses double negation and boolean literals.
    // Associated smart constructor named after the connective, not an operator
    // on self; implementing the std::ops trait would change every call site.
    #[allow(clippy::should_implement_trait)]
    pub fn not(form: Form) -> Form {
        match form {
            Form::Bool(b) => Form::Bool(!b),
            Form::Not(inner) => Form::take(inner),
            other => Form::Not(Arc::new(other)),
        }
    }

    /// Smart n-ary conjunction: flattens nested conjunctions, drops `true`,
    /// and collapses to `false` when any conjunct is `false`.
    pub fn and(forms: impl IntoIterator<Item = Form>) -> Form {
        let mut out = Vec::new();
        for f in forms {
            match f {
                Form::Bool(true) => {}
                Form::Bool(false) => return Form::FALSE,
                Form::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Form::TRUE,
            1 => out.pop().expect("len checked"),
            _ => Form::And(out),
        }
    }

    /// Smart n-ary disjunction (dual of [`Form::and`]).
    pub fn or(forms: impl IntoIterator<Item = Form>) -> Form {
        let mut out = Vec::new();
        for f in forms {
            match f {
                Form::Bool(false) => {}
                Form::Bool(true) => return Form::TRUE,
                Form::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Form::FALSE,
            1 => out.pop().expect("len checked"),
            _ => Form::Or(out),
        }
    }

    /// Smart implication: simplifies when either side is a boolean literal.
    pub fn implies(lhs: Form, rhs: Form) -> Form {
        match (&lhs, &rhs) {
            (Form::Bool(true), _) => rhs,
            (Form::Bool(false), _) => Form::TRUE,
            (_, Form::Bool(true)) => Form::TRUE,
            (_, Form::Bool(false)) => Form::not(lhs),
            _ => Form::Implies(Arc::new(lhs), Arc::new(rhs)),
        }
    }

    /// Smart bi-implication.
    pub fn iff(lhs: Form, rhs: Form) -> Form {
        match (&lhs, &rhs) {
            (Form::Bool(true), _) => rhs,
            (_, Form::Bool(true)) => lhs,
            (Form::Bool(false), _) => Form::not(rhs),
            (_, Form::Bool(false)) => Form::not(lhs),
            _ if lhs == rhs => Form::TRUE,
            _ => Form::Iff(Arc::new(lhs), Arc::new(rhs)),
        }
    }

    /// Equality; collapses syntactically identical sides to `true`.
    pub fn eq(lhs: Form, rhs: Form) -> Form {
        if lhs == rhs {
            Form::TRUE
        } else {
            Form::Eq(Arc::new(lhs), Arc::new(rhs))
        }
    }

    /// Disequality.
    pub fn neq(lhs: Form, rhs: Form) -> Form {
        Form::not(Form::eq(lhs, rhs))
    }

    /// Strict less-than.
    pub fn lt(lhs: Form, rhs: Form) -> Form {
        match (&lhs, &rhs) {
            (Form::Int(a), Form::Int(b)) => Form::Bool(a < b),
            _ => Form::Lt(Arc::new(lhs), Arc::new(rhs)),
        }
    }

    /// Less-or-equal.
    pub fn le(lhs: Form, rhs: Form) -> Form {
        match (&lhs, &rhs) {
            (Form::Int(a), Form::Int(b)) => Form::Bool(a <= b),
            _ => Form::Le(Arc::new(lhs), Arc::new(rhs)),
        }
    }

    /// Integer addition with constant folding.  A sum that overflows `i64`
    /// is left unfolded, as is every folding below that would overflow.
    // Associated smart constructor named after the connective, not an operator
    // on self; implementing the std::ops trait would change every call site.
    #[allow(clippy::should_implement_trait)]
    pub fn add(lhs: Form, rhs: Form) -> Form {
        match (&lhs, &rhs) {
            (Form::Int(a), Form::Int(b)) if a.checked_add(*b).is_some() => Form::Int(a + b),
            (Form::Int(0), _) => rhs,
            (_, Form::Int(0)) => lhs,
            _ => Form::Add(Arc::new(lhs), Arc::new(rhs)),
        }
    }

    /// Integer subtraction with constant folding.
    // Associated smart constructor named after the connective, not an operator
    // on self; implementing the std::ops trait would change every call site.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(lhs: Form, rhs: Form) -> Form {
        match (&lhs, &rhs) {
            (Form::Int(a), Form::Int(b)) if a.checked_sub(*b).is_some() => Form::Int(a - b),
            (_, Form::Int(0)) => lhs,
            _ => Form::Sub(Arc::new(lhs), Arc::new(rhs)),
        }
    }

    /// Integer multiplication with constant folding.
    // Associated smart constructor named after the connective, not an operator
    // on self; implementing the std::ops trait would change every call site.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(lhs: Form, rhs: Form) -> Form {
        match (&lhs, &rhs) {
            (Form::Int(a), Form::Int(b)) if a.checked_mul(*b).is_some() => Form::Int(a * b),
            (Form::Int(1), _) => rhs,
            (_, Form::Int(1)) => lhs,
            (Form::Int(0), _) | (_, Form::Int(0)) => Form::Int(0),
            _ => Form::Mul(Arc::new(lhs), Arc::new(rhs)),
        }
    }

    /// Integer negation with constant folding (`-i64::MIN` stays unfolded).
    // Associated smart constructor named after the connective, not an operator
    // on self; implementing the std::ops trait would change every call site.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(inner: Form) -> Form {
        match inner {
            Form::Int(value) if value != i64::MIN => Form::Int(-value),
            other => Form::Neg(Arc::new(other)),
        }
    }

    /// Universal quantification; drops empty binder lists.
    pub fn forall(bindings: Vec<Binding>, body: Form) -> Form {
        if bindings.is_empty() || matches!(body, Form::Bool(_)) {
            body
        } else {
            Form::Forall(bindings, Arc::new(body))
        }
    }

    /// Existential quantification; drops empty binder lists.
    pub fn exists(bindings: Vec<Binding>, body: Form) -> Form {
        if bindings.is_empty() || matches!(body, Form::Bool(_)) {
            body
        } else {
            Form::Exists(bindings, Arc::new(body))
        }
    }

    /// Membership `elem in set`; simplifies membership in the empty set.
    pub fn elem(elem: Form, set: Form) -> Form {
        match set {
            Form::EmptySet => Form::FALSE,
            _ => Form::Elem(Arc::new(elem), Arc::new(set)),
        }
    }

    /// Field read `obj.field` where `field` is a function-valued term.
    pub fn field_read(field: Form, obj: Form) -> Form {
        Form::FieldRead(Arc::new(field), Arc::new(obj))
    }

    /// Field update `field[obj := value]`.
    pub fn field_write(field: Form, obj: Form, value: Form) -> Form {
        Form::FieldWrite(Arc::new(field), Arc::new(obj), Arc::new(value))
    }

    /// Array read `arr[idx]` through the given array state.
    pub fn array_read(state: Form, arr: Form, idx: Form) -> Form {
        Form::ArrayRead(Arc::new(state), Arc::new(arr), Arc::new(idx))
    }

    /// Array update `state[(arr, idx) := value]`.
    pub fn array_write(state: Form, arr: Form, idx: Form, value: Form) -> Form {
        Form::ArrayWrite(
            Arc::new(state),
            Arc::new(arr),
            Arc::new(idx),
            Arc::new(value),
        )
    }

    /// Named application `name(args...)`.
    pub fn app(name: impl Into<String>, args: Vec<Form>) -> Form {
        Form::App(name.into(), args)
    }

    /// `old e` — pre-state reference (eliminated during lowering).
    pub fn old(inner: Form) -> Form {
        Form::Old(Arc::new(inner))
    }

    /// Returns `true` if this formula is the literal `true`.
    pub fn is_true(&self) -> bool {
        matches!(self, Form::Bool(true))
    }

    /// Returns `true` if this formula is the literal `false`.
    pub fn is_false(&self) -> bool {
        matches!(self, Form::Bool(false))
    }

    /// Returns `true` if this node is an atom (no boolean structure below it).
    pub fn is_atom(&self) -> bool {
        !matches!(
            self,
            Form::Not(_)
                | Form::And(_)
                | Form::Or(_)
                | Form::Implies(..)
                | Form::Iff(..)
                | Form::Forall(..)
                | Form::Exists(..)
        )
    }

    /// Returns the list of conjuncts of this formula (a non-conjunction is a
    /// single conjunct).
    pub fn conjuncts(&self) -> Vec<&Form> {
        match self {
            Form::And(fs) => fs.iter().collect(),
            other => vec![other],
        }
    }

    /// Consumes the formula and returns its conjuncts.
    pub fn into_conjuncts(self) -> Vec<Form> {
        match self {
            Form::And(fs) => fs,
            other => vec![other],
        }
    }

    /// Returns the number of AST nodes; used for budget heuristics and tests.
    pub fn size(&self) -> usize {
        let mut n = 1usize;
        self.for_each_child(|c| n += c.size());
        n
    }

    /// Visits every direct child of this node.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Form)) {
        match self {
            Form::Var(_) | Form::Int(_) | Form::Bool(_) | Form::Null | Form::EmptySet => {}
            Form::Not(a) | Form::Neg(a) | Form::Card(a) | Form::Old(a) => f(a),
            Form::And(xs) | Form::Or(xs) | Form::FiniteSet(xs) | Form::Tuple(xs) => {
                xs.iter().for_each(f)
            }
            Form::App(_, xs) => xs.iter().for_each(f),
            Form::Implies(a, b)
            | Form::Iff(a, b)
            | Form::Eq(a, b)
            | Form::Lt(a, b)
            | Form::Le(a, b)
            | Form::Add(a, b)
            | Form::Sub(a, b)
            | Form::Mul(a, b)
            | Form::FieldRead(a, b)
            | Form::Elem(a, b)
            | Form::Union(a, b)
            | Form::Inter(a, b)
            | Form::Diff(a, b)
            | Form::Subseteq(a, b) => {
                f(a);
                f(b);
            }
            Form::Ite(a, b, c) | Form::FieldWrite(a, b, c) | Form::ArrayRead(a, b, c) => {
                f(a);
                f(b);
                f(c);
            }
            Form::ArrayWrite(a, b, c, d) => {
                f(a);
                f(b);
                f(c);
                f(d);
            }
            Form::Forall(_, b) | Form::Exists(_, b) | Form::Compr(_, b) => f(b),
        }
    }

    /// Rebuilds this node applying `f` to every direct child.
    pub fn map_children(&self, mut f: impl FnMut(&Form) -> Form) -> Form {
        match self {
            Form::Var(_) | Form::Int(_) | Form::Bool(_) | Form::Null | Form::EmptySet => {
                self.clone()
            }
            Form::Not(a) => Form::Not(Arc::new(f(a))),
            Form::Neg(a) => Form::Neg(Arc::new(f(a))),
            Form::Card(a) => Form::Card(Arc::new(f(a))),
            Form::Old(a) => Form::Old(Arc::new(f(a))),
            Form::And(xs) => Form::And(xs.iter().map(&mut f).collect()),
            Form::Or(xs) => Form::Or(xs.iter().map(&mut f).collect()),
            Form::FiniteSet(xs) => Form::FiniteSet(xs.iter().map(&mut f).collect()),
            Form::Tuple(xs) => Form::Tuple(xs.iter().map(&mut f).collect()),
            Form::App(name, xs) => Form::App(name.clone(), xs.iter().map(&mut f).collect()),
            Form::Implies(a, b) => Form::Implies(Arc::new(f(a)), Arc::new(f(b))),
            Form::Iff(a, b) => Form::Iff(Arc::new(f(a)), Arc::new(f(b))),
            Form::Eq(a, b) => Form::Eq(Arc::new(f(a)), Arc::new(f(b))),
            Form::Lt(a, b) => Form::Lt(Arc::new(f(a)), Arc::new(f(b))),
            Form::Le(a, b) => Form::Le(Arc::new(f(a)), Arc::new(f(b))),
            Form::Add(a, b) => Form::Add(Arc::new(f(a)), Arc::new(f(b))),
            Form::Sub(a, b) => Form::Sub(Arc::new(f(a)), Arc::new(f(b))),
            Form::Mul(a, b) => Form::Mul(Arc::new(f(a)), Arc::new(f(b))),
            Form::FieldRead(a, b) => Form::FieldRead(Arc::new(f(a)), Arc::new(f(b))),
            Form::Elem(a, b) => Form::Elem(Arc::new(f(a)), Arc::new(f(b))),
            Form::Union(a, b) => Form::Union(Arc::new(f(a)), Arc::new(f(b))),
            Form::Inter(a, b) => Form::Inter(Arc::new(f(a)), Arc::new(f(b))),
            Form::Diff(a, b) => Form::Diff(Arc::new(f(a)), Arc::new(f(b))),
            Form::Subseteq(a, b) => Form::Subseteq(Arc::new(f(a)), Arc::new(f(b))),
            Form::Ite(a, b, c) => Form::Ite(Arc::new(f(a)), Arc::new(f(b)), Arc::new(f(c))),
            Form::FieldWrite(a, b, c) => {
                Form::FieldWrite(Arc::new(f(a)), Arc::new(f(b)), Arc::new(f(c)))
            }
            Form::ArrayRead(a, b, c) => {
                Form::ArrayRead(Arc::new(f(a)), Arc::new(f(b)), Arc::new(f(c)))
            }
            Form::ArrayWrite(a, b, c, d) => Form::ArrayWrite(
                Arc::new(f(a)),
                Arc::new(f(b)),
                Arc::new(f(c)),
                Arc::new(f(d)),
            ),
            Form::Forall(bs, b) => Form::Forall(bs.clone(), Arc::new(f(b))),
            Form::Exists(bs, b) => Form::Exists(bs.clone(), Arc::new(f(b))),
            Form::Compr(bs, b) => Form::Compr(bs.clone(), Arc::new(f(b))),
        }
    }
}

impl Default for Form {
    fn default() -> Self {
        Form::TRUE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_flattens_and_simplifies() {
        let f = Form::and(vec![
            Form::TRUE,
            Form::and(vec![Form::var("a"), Form::var("b")]),
            Form::var("c"),
        ]);
        assert_eq!(
            f,
            Form::And(vec![Form::var("a"), Form::var("b"), Form::var("c")])
        );
        assert_eq!(Form::and(vec![Form::var("a"), Form::FALSE]), Form::FALSE);
        assert_eq!(Form::and(Vec::new()), Form::TRUE);
        assert_eq!(Form::and(vec![Form::var("x")]), Form::var("x"));
    }

    #[test]
    fn or_flattens_and_simplifies() {
        assert_eq!(Form::or(vec![Form::var("a"), Form::TRUE]), Form::TRUE);
        assert_eq!(Form::or(Vec::new()), Form::FALSE);
        let f = Form::or(vec![Form::or(vec![Form::var("a")]), Form::var("b")]);
        assert_eq!(f, Form::Or(vec![Form::var("a"), Form::var("b")]));
    }

    #[test]
    fn implication_simplification() {
        assert_eq!(Form::implies(Form::TRUE, Form::var("g")), Form::var("g"));
        assert_eq!(Form::implies(Form::FALSE, Form::var("g")), Form::TRUE);
        assert_eq!(Form::implies(Form::var("a"), Form::TRUE), Form::TRUE);
        assert_eq!(
            Form::implies(Form::var("a"), Form::FALSE),
            Form::Not(Arc::new(Form::var("a")))
        );
    }

    #[test]
    fn double_negation_collapses() {
        assert_eq!(Form::not(Form::not(Form::var("p"))), Form::var("p"));
        assert_eq!(Form::not(Form::TRUE), Form::FALSE);
    }

    #[test]
    fn arithmetic_constant_folding() {
        assert_eq!(Form::add(Form::int(2), Form::int(3)), Form::int(5));
        assert_eq!(Form::add(Form::var("x"), Form::int(0)), Form::var("x"));
        assert_eq!(Form::mul(Form::int(0), Form::var("x")), Form::int(0));
        assert_eq!(Form::sub(Form::int(7), Form::int(7)), Form::int(0));
        assert_eq!(Form::lt(Form::int(1), Form::int(2)), Form::TRUE);
        assert_eq!(Form::le(Form::int(3), Form::int(2)), Form::FALSE);
    }

    #[test]
    fn eq_collapses_identical_sides() {
        assert_eq!(Form::eq(Form::var("x"), Form::var("x")), Form::TRUE);
        assert!(matches!(
            Form::eq(Form::var("x"), Form::var("y")),
            Form::Eq(..)
        ));
    }

    #[test]
    fn quantifier_smart_constructors() {
        assert_eq!(Form::forall(vec![], Form::var("p")), Form::var("p"));
        assert_eq!(
            Form::forall(vec![("x".into(), Sort::Int)], Form::TRUE),
            Form::TRUE
        );
        assert!(matches!(
            Form::exists(vec![("x".into(), Sort::Obj)], Form::var("p")),
            Form::Exists(..)
        ));
    }

    #[test]
    fn membership_in_empty_set_is_false() {
        assert_eq!(Form::elem(Form::var("x"), Form::EmptySet), Form::FALSE);
    }

    #[test]
    fn size_counts_nodes() {
        let f = Form::and(vec![Form::var("a"), Form::eq(Form::var("x"), Form::int(1))]);
        // And + Var + Eq + Var + Int = 5
        assert_eq!(f.size(), 5);
    }

    #[test]
    fn conjunct_access() {
        let f = Form::and(vec![Form::var("a"), Form::var("b")]);
        assert_eq!(f.conjuncts().len(), 2);
        assert_eq!(Form::var("a").conjuncts().len(), 1);
        assert_eq!(f.into_conjuncts().len(), 2);
    }

    #[test]
    fn map_children_identity() {
        let f = Form::implies(
            Form::elem(Form::var("x"), Form::var("content")),
            Form::lt(Form::var("i"), Form::var("size")),
        );
        assert_eq!(f.map_children(|c| c.clone()), f);
    }
}
