//! Formulas with cached structural hash and size.
//!
//! The provers' term indexes and instance-deduplication sets repeatedly hash
//! and compare the same formulas; recomputing a structural hash (a full tree
//! walk) on every probe dominates those hot paths.  [`Hashed`] wraps a
//! [`Form`] together with its hash and node count computed once at
//! construction: hashing is then a single `u64` write and equality checks
//! compare the cached hashes before falling back to structural comparison.

use crate::Form;
use std::hash::{Hash, Hasher};

/// A formula with precomputed structural hash and size.
#[derive(Debug, Clone)]
pub struct Hashed {
    form: Form,
    hash: u64,
    size: usize,
}

impl Hashed {
    /// Wraps a formula, computing its hash and size once.
    pub fn new(form: Form) -> Self {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        form.hash(&mut hasher);
        let hash = hasher.finish();
        let size = form.size();
        Hashed { form, hash, size }
    }

    /// The wrapped formula.
    pub fn form(&self) -> &Form {
        &self.form
    }

    /// The cached structural hash.
    pub fn hash_value(&self) -> u64 {
        self.hash
    }

    /// The cached node count.
    pub fn size(&self) -> usize {
        self.size
    }
}

impl From<Form> for Hashed {
    fn from(form: Form) -> Self {
        Hashed::new(form)
    }
}

impl PartialEq for Hashed {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.form == other.form
    }
}

impl Eq for Hashed {}

impl Hash for Hashed {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_form;
    use std::collections::HashSet;

    #[test]
    fn equal_forms_have_equal_wrappers() {
        let a = Hashed::new(parse_form("f(x) = y + 1").unwrap());
        let b = Hashed::new(parse_form("f(x) = y + 1").unwrap());
        assert_eq!(a, b);
        assert_eq!(a.hash_value(), b.hash_value());
    }

    #[test]
    fn size_is_cached_correctly() {
        let form = parse_form("f(x) = y").unwrap();
        let expected = form.size();
        assert_eq!(Hashed::new(form).size(), expected);
    }

    #[test]
    fn works_as_a_set_key() {
        let mut set = HashSet::new();
        assert!(set.insert(Hashed::new(parse_form("p(a)").unwrap())));
        assert!(!set.insert(Hashed::new(parse_form("p(a)").unwrap())));
        assert!(set.insert(Hashed::new(parse_form("p(b)").unwrap())));
        assert_eq!(set.len(), 2);
    }
}
