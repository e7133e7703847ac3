//! Sorts (types) of the specification logic.
//!
//! The logic is many-sorted.  The sorts mirror the fragment of Isabelle/HOL
//! that Jahob specifications actually use: booleans, mathematical integers,
//! object references, finite sets, tuples, and function sorts.  Function
//! sorts model Java fields (`obj => obj`, `obj => int`) and the global array
//! state (`obj => int => obj`), following Jahob's encoding of field and array
//! assignment as function update.

use serde::{Deserialize, Serialize};

/// A sort (type) of the specification logic.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Sort {
    /// Propositions / boolean values.
    Bool,
    /// Unbounded mathematical integers.
    Int,
    /// Object references (including `null`).
    Obj,
    /// Finite sets of elements of the given sort.
    Set(Box<Sort>),
    /// Tuples; used for sets of pairs such as `content :: (int * obj) set`.
    Tuple(Vec<Sort>),
    /// Total functions; used for fields and the array state.
    Fn(Vec<Sort>, Box<Sort>),
    /// Placeholder for not-yet-inferred sorts (produced by the parser when a
    /// binder omits its annotation; resolved by sort inference).
    #[default]
    Unknown,
}

impl Sort {
    /// `obj set` — sets of object references.
    pub fn obj_set() -> Sort {
        Sort::Set(Box::new(Sort::Obj))
    }

    /// `(int * obj) set` — the sort of indexed-content abstraction variables.
    pub fn int_obj_set() -> Sort {
        Sort::Set(Box::new(Sort::Tuple(vec![Sort::Int, Sort::Obj])))
    }

    /// An object-valued field: `obj => obj`.
    pub fn obj_field() -> Sort {
        Sort::Fn(vec![Sort::Obj], Box::new(Sort::Obj))
    }

    /// The global array state used for object arrays: `obj => int => obj`
    /// (curried here as a two-argument function sort).
    pub fn obj_array_state() -> Sort {
        Sort::Fn(vec![Sort::Obj, Sort::Int], Box::new(Sort::Obj))
    }

    /// The global array state used for integer arrays: `obj => int => int`.
    pub fn int_array_state() -> Sort {
        Sort::Fn(vec![Sort::Obj, Sort::Int], Box::new(Sort::Int))
    }

    /// Returns the element sort if this is a set sort.
    pub fn set_elem(&self) -> Option<&Sort> {
        match self {
            Sort::Set(e) => Some(e),
            _ => None,
        }
    }

    /// Returns `true` if this is a set sort.
    pub fn is_set(&self) -> bool {
        matches!(self, Sort::Set(_))
    }

    /// Returns `true` if this is a function sort.
    pub fn is_fn(&self) -> bool {
        matches!(self, Sort::Fn(..))
    }

    /// Returns `true` if this sort is fully known (contains no [`Sort::Unknown`]).
    pub fn is_known(&self) -> bool {
        match self {
            Sort::Unknown => false,
            Sort::Bool | Sort::Int | Sort::Obj => true,
            Sort::Set(e) => e.is_known(),
            Sort::Tuple(ts) => ts.iter().all(Sort::is_known),
            Sort::Fn(args, ret) => args.iter().all(Sort::is_known) && ret.is_known(),
        }
    }
}

impl std::fmt::Display for Sort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sort::Bool => write!(f, "bool"),
            Sort::Int => write!(f, "int"),
            Sort::Obj => write!(f, "obj"),
            Sort::Set(e) => write!(f, "({e}) set"),
            Sort::Tuple(ts) => {
                write!(f, "(")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " * ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Sort::Fn(args, ret) => {
                write!(f, "(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, " => ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, " => {ret})")
            }
            Sort::Unknown => write!(f, "?"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trip_is_stable() {
        assert_eq!(Sort::Bool.to_string(), "bool");
        // The exact nesting of parentheses is not important; stability is.
        let s = Sort::int_obj_set().to_string();
        assert!(s.contains("int * obj") && s.ends_with("set"));
        let s = Sort::obj_array_state().to_string();
        assert!(s.contains("obj") && s.contains("int"));
    }

    #[test]
    fn set_elem_accessor() {
        assert_eq!(Sort::obj_set().set_elem(), Some(&Sort::Obj));
        assert_eq!(Sort::Int.set_elem(), None);
        assert!(Sort::obj_set().is_set());
        assert!(!Sort::Obj.is_set());
    }

    #[test]
    fn known_detection() {
        assert!(Sort::int_obj_set().is_known());
        assert!(!Sort::Set(Box::new(Sort::Unknown)).is_known());
        assert!(!Sort::Unknown.is_known());
        assert!(Sort::obj_field().is_known());
    }

    #[test]
    fn field_sorts() {
        assert_eq!(
            Sort::obj_field(),
            Sort::Fn(vec![Sort::Obj], Box::new(Sort::Obj))
        );
        assert!(Sort::obj_field().is_fn());
        assert!(!Sort::Obj.is_fn());
    }
}
