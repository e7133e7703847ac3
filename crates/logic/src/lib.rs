//! # `ipl-logic` — the specification formula language
//!
//! This crate implements the HOL-lite specification logic used throughout the
//! reproduction of *"An Integrated Proof Language for Imperative Programs"*
//! (Zee, Kuncak, Rinard — PLDI 2009).  Formulas written in Jahob-style
//! annotations (method contracts, class invariants, loop invariants, `vardefs`
//! abstraction functions and the integrated proof commands) are represented by
//! the [`Form`] type defined here.
//!
//! The crate provides:
//!
//! * [`Sort`] — a many-sorted type system with booleans, integers, object
//!   references, sets, tuples and function sorts (used for fields and the
//!   global array state).
//! * [`Form`] — the formula/term AST together with smart constructors that
//!   perform lightweight simplification.
//! * [`subst`] — free variables, capture-avoiding substitution and fresh name
//!   generation.
//! * [`parser`] — the one reader of the ASCII syntax: formulas, sorts and,
//!   through its public [`parser::Parser`], the module text of the surface
//!   language (`ipl-lang`).
//! * [`sorts`] — sort inference for terms given a sort environment.
//! * [`normal`] — the normalisation passes shared by the provers:
//!   comprehension beta-reduction, set-operation expansion, negation normal
//!   form, skolemisation and old-state elimination.
//! * [`simplify`] — structural simplification (constant folding, unit laws).
//! * [`intern`] — hash-consing: a global sharded intern table giving
//!   structurally equal subtrees one canonical `Arc` allocation, so equality
//!   is pointer identity and memo tables key on addresses.
//!
//! # Example
//!
//! ```
//! use ipl_logic::{parser::parse_form, Form};
//!
//! let f = ipl_logic::parser::parse_form(
//!     "forall i:int. 0 <= i & i < size --> elements[i] ~= null").unwrap();
//! assert!(matches!(f, Form::Forall(..)));
//! # let _ = parse_form("true").unwrap();
//! ```

pub mod form;
pub mod intern;
pub mod normal;
pub mod parser;
pub mod print;
pub mod simplify;
pub mod sort;
pub mod sorts;
pub mod subst;

pub use form::Form;
pub use intern::{share, share_arc};
pub use sort::Sort;
pub use sorts::SortEnv;
pub use subst::{free_vars, substitute, FreshNames};

/// A labelled formula: the label names the fact for assumption-base control
/// (the `from` clauses of `note`/`assert`) and for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Labeled {
    /// Name of the fact (e.g. `"LoopInv"`, `"content_def"`, `"ObjectRemoved"`).
    pub label: String,
    /// The formula itself.
    pub form: Form,
}

impl Labeled {
    /// Creates a labelled formula.
    pub fn new(label: impl Into<String>, form: Form) -> Self {
        Labeled {
            label: label.into(),
            form,
        }
    }
}

impl std::fmt::Display for Labeled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.label, self.form)
    }
}
