//! Linear integer arithmetic, refuted by Fourier–Motzkin elimination.
//!
//! [`id_conjunction_infeasible`] is the one Presburger procedure: rational
//! Fourier–Motzkin elimination over a conjunction of `expr <= 0`
//! constraints, with integer tightening (every constraint is divided by the
//! gcd of its coefficients and its constant rounded towards the tighter
//! bound).  The ground solver hands it its asserted arithmetic literals
//! directly; [`unsatisfiable`] runs it on every disjunct of the DNF of a
//! [`PForm`], the shape the BAPA stage's Venn translation produces.
//!
//! The procedure is sound for refutation and incomplete over the integers:
//! `x = 2y ∧ x = 2z + 1` has rational models and no integer model, and it
//! is left open.  Every `i64` operation on an [`IdLinExpr`] is checked; an
//! expression that overflowed is marked, and no conjunction holding one is
//! ever refuted.

/// Give-up cap on the number of constraints one elimination step may leave.
const MAX_CONSTRAINTS: usize = 20_000;

/// Give-up cap on the number of disjuncts of a DNF expansion.
const MAX_DISJUNCTS: usize = 4_096;

/// A linear expression keyed by small integer variable ids:
/// `sum(coeff_i * id_i) + constant`.
///
/// Terms are a `(id, coefficient)` list sorted by id with no zero
/// coefficients, so combining two expressions is a linear merge and the
/// buffers can be pooled (see [`IdLinExpr::clear`]).  The ground solver keys
/// its constraints by congruence-class id, the Venn translation by region
/// and integer-variable number.
///
/// No coefficient is ever `i64::MIN`, so negating one never overflows.  An
/// operation whose result would leave that range marks the expression as
/// overflowed instead, and [`id_conjunction_infeasible`] never refutes a
/// conjunction holding a marked expression.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct IdLinExpr {
    /// `(variable id, coefficient)` pairs, strictly sorted by id once
    /// canonical; zero coefficients are removed by [`IdLinExpr::canonicalize`].
    terms: Vec<(usize, i64)>,
    /// The constant term.
    pub constant: i64,
    /// Set once an operation overflowed: the expression no longer denotes
    /// the value it was built from.
    overflow: bool,
}

/// `ka * a + kb * b`, computed exactly, or `None` if it is `i64::MIN` or
/// out of `i64`'s range.
fn mul_add(ka: i64, a: i64, kb: i64, b: i64) -> Option<i64> {
    let sum = (i128::from(ka) * i128::from(a)).checked_add(i128::from(kb) * i128::from(b))?;
    i64::try_from(sum).ok().filter(|&v| v != i64::MIN)
}

impl IdLinExpr {
    /// The constant expression.
    pub fn constant(value: i64) -> IdLinExpr {
        IdLinExpr {
            constant: value,
            ..IdLinExpr::default()
        }
    }

    /// Clears the expression in place, retaining the term buffer's capacity —
    /// the solver pools these slots across backjumps instead of freeing them.
    pub fn clear(&mut self) {
        self.terms.clear();
        self.constant = 0;
        self.overflow = false;
    }

    /// Returns `true` once an operation on this expression overflowed.
    fn overflowed(&self) -> bool {
        self.overflow
    }

    /// Appends `coeff * id` without normalising.  Call
    /// [`IdLinExpr::canonicalize`] once the expression is fully accumulated.
    pub fn push_term(&mut self, id: usize, coeff: i64) {
        if coeff == i64::MIN {
            self.overflow = true;
        } else if coeff != 0 {
            self.terms.push((id, coeff));
        }
    }

    /// Sorts the terms by id, merges duplicate ids and drops zero
    /// coefficients.
    pub fn canonicalize(&mut self) {
        self.terms.sort_unstable_by_key(|&(id, _)| id);
        let mut w = 0usize;
        for r in 0..self.terms.len() {
            let (id, k) = self.terms[r];
            if w > 0 && self.terms[w - 1].0 == id {
                match mul_add(1, self.terms[w - 1].1, 1, k) {
                    Some(0) => w -= 1,
                    Some(sum) => self.terms[w - 1].1 = sum,
                    None => self.overflow = true,
                }
            } else {
                self.terms[w] = (id, k);
                w += 1;
            }
        }
        self.terms.truncate(w);
    }

    /// Passes every variable id through `rename` and re-canonicalises, so
    /// ids that rename alike merge.
    pub fn rename(&mut self, mut rename: impl FnMut(usize) -> usize) {
        for term in &mut self.terms {
            term.0 = rename(term.0);
        }
        self.canonicalize();
    }

    /// The `(id, coefficient)` terms (sorted by id once canonical).
    fn terms(&self) -> &[(usize, i64)] {
        &self.terms
    }

    /// The coefficient of a variable (zero if absent).  Requires canonical
    /// form.
    fn coeff(&self, id: usize) -> i64 {
        self.terms
            .binary_search_by_key(&id, |&(i, _)| i)
            .map(|i| self.terms[i].1)
            .unwrap_or(0)
    }

    /// Returns `true` if the expression has no variables.
    fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Scales the expression in place.
    pub fn scale(&mut self, k: i64) {
        if k == 0 {
            self.clear();
            return;
        }
        for t in &mut self.terms {
            match mul_add(k, t.1, 0, 0) {
                Some(c) => t.1 = c,
                None => self.overflow = true,
            }
        }
        self.shift_scaled(k, 0);
    }

    /// Adds `k` to the constant term in place.
    pub fn shift(&mut self, k: i64) {
        self.shift_scaled(1, k);
    }

    /// Sets the constant to `ka * constant + k`.
    fn shift_scaled(&mut self, ka: i64, k: i64) {
        match mul_add(ka, self.constant, 1, k) {
            Some(c) => self.constant = c,
            None => self.overflow = true,
        }
    }

    /// Writes `ka * a + kb * b` into `out` (cleared first, capacity
    /// retained) by a linear merge of the two sorted term lists.
    pub fn combine_into(out: &mut IdLinExpr, a: &IdLinExpr, ka: i64, b: &IdLinExpr, kb: i64) {
        out.terms.clear();
        out.overflow = a.overflow || b.overflow;
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.terms.len() || j < b.terms.len() {
            let (id, ca, cb) = match (a.terms.get(i), b.terms.get(j)) {
                (Some(&(ia, ca)), Some(&(ib, cb))) if ia == ib => {
                    i += 1;
                    j += 1;
                    (ia, ca, cb)
                }
                (Some(&(ia, ca)), Some(&(ib, _))) if ia < ib => {
                    i += 1;
                    (ia, ca, 0)
                }
                (Some(&(ia, ca)), None) => {
                    i += 1;
                    (ia, ca, 0)
                }
                (_, Some(&(ib, cb))) => {
                    j += 1;
                    (ib, 0, cb)
                }
                (None, None) => unreachable!("loop condition"),
            };
            match mul_add(ka, ca, kb, cb) {
                Some(0) => {}
                Some(c) => out.terms.push((id, c)),
                None => out.overflow = true,
            }
        }
        match mul_add(ka, a.constant, kb, b.constant) {
            Some(c) => out.constant = c,
            None => out.overflow = true,
        }
    }

    /// Normalises one constraint `self <= 0`: divides by the gcd of the
    /// coefficients and rounds the constant towards the tighter integer
    /// bound.
    fn normalise_le(&mut self) {
        let g = self.terms.iter().fold(0, |g, &(_, c)| gcd(g, c));
        if g > 1 {
            for t in &mut self.terms {
                t.1 /= g;
            }
            let c = self.constant;
            self.constant = c.div_euclid(g) + i64::from(c.rem_euclid(g) != 0);
        }
    }
}

/// The gcd of `|a|` and `|b|`; neither may be `i64::MIN`.
fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Fourier–Motzkin elimination over a conjunction of `expr <= 0`
/// constraints: returns `true` if the conjunction is infeasible over the
/// rationals once every constraint is tightened to the integers (which
/// implies integer infeasibility).  It picks the variable whose elimination
/// produces the fewest new constraints (the smallest id on a tie), and gives
/// up — answering `false` — past the constraint cap or on any overflow.
pub fn id_conjunction_infeasible(constraints: &[IdLinExpr]) -> bool {
    if constraints.iter().any(IdLinExpr::overflowed) {
        return false;
    }
    let mut les: Vec<IdLinExpr> = constraints.to_vec();
    // (variable, lower-bound count, upper-bound count) aggregation scratch.
    let mut counts: Vec<(usize, usize, usize)> = Vec::new();
    loop {
        for le in &mut les {
            le.normalise_le();
        }
        les.sort_unstable();
        les.dedup();
        // Constant contradictions?
        if les.iter().any(|le| le.is_constant() && le.constant > 0) {
            return true;
        }
        counts.clear();
        for le in &les {
            for &(id, c) in le.terms() {
                counts.push((id, usize::from(c < 0), usize::from(c > 0)));
            }
        }
        counts.sort_unstable_by_key(|&(id, _, _)| id);
        counts.dedup_by(|next, prev| {
            if prev.0 == next.0 {
                prev.1 += next.1;
                prev.2 += next.2;
                true
            } else {
                false
            }
        });
        let var = match counts.iter().min_by_key(|&&(_, lo, up)| lo * up) {
            Some(&(id, _, _)) => id,
            None => return false,
        };
        let mut lowers: Vec<IdLinExpr> = Vec::new(); // var >= expr  (coeff < 0)
        let mut uppers: Vec<IdLinExpr> = Vec::new(); // var <= expr  (coeff > 0)
        let mut rest: Vec<IdLinExpr> = Vec::new();
        for le in les.drain(..) {
            let c = le.coeff(var);
            if c == 0 {
                rest.push(le);
            } else if c > 0 {
                uppers.push(le);
            } else {
                lowers.push(le);
            }
        }
        // Combine every lower with every upper:  (c_u > 0): c_u*x + r_u <= 0
        // and (c_l < 0): c_l*x + r_l <= 0.  Eliminate x by the positive
        // combination |c_l| * upper + c_u * lower.
        for upper in &uppers {
            for lower in &lowers {
                let cu = upper.coeff(var);
                let cl = lower.coeff(var).abs();
                let mut combined = IdLinExpr::default();
                IdLinExpr::combine_into(&mut combined, upper, cl, lower, cu);
                if combined.overflowed() {
                    return false;
                }
                debug_assert_eq!(combined.coeff(var), 0);
                rest.push(combined);
            }
        }
        if rest.len() > MAX_CONSTRAINTS {
            return false; // give up rather than blow up
        }
        les = rest;
    }
}

/// Quantifier-free Presburger formulas in negation normal form, over
/// `Le(e)`, meaning `e <= 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PForm {
    /// Truth.
    True,
    /// Falsity.
    False,
    /// `expr <= 0`.
    Le(IdLinExpr),
    /// Conjunction.
    And(Vec<PForm>),
    /// Disjunction.
    Or(Vec<PForm>),
}

impl PForm {
    /// `expr <= 0`, folded when `expr` is a constant that did not overflow.
    pub fn le(expr: IdLinExpr) -> PForm {
        if !expr.is_constant() || expr.overflowed() {
            PForm::Le(expr)
        } else if expr.constant <= 0 {
            PForm::True
        } else {
            PForm::False
        }
    }

    /// Flattening conjunction.
    pub fn and(parts: Vec<PForm>) -> PForm {
        PForm::junction(parts, true)
    }

    /// Flattening disjunction.
    pub fn or(parts: Vec<PForm>) -> PForm {
        PForm::junction(parts, false)
    }

    /// A conjunction (`and`) or disjunction, flattening nested ones of the
    /// same kind and folding the units.
    fn junction(parts: Vec<PForm>, and: bool) -> PForm {
        let mut out = Vec::new();
        for p in parts {
            match p {
                PForm::True if and => {}
                PForm::False if !and => {}
                PForm::True | PForm::False => return p,
                PForm::And(inner) if and => out.extend(inner),
                PForm::Or(inner) if !and => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 if and => PForm::True,
            0 => PForm::False,
            1 => out.pop().expect("len checked"),
            _ if and => PForm::And(out),
            _ => PForm::Or(out),
        }
    }
}

/// The disjunctive normal form of a formula, as a list of conjunctions of
/// `<= 0` constraints, or `None` once it has more than [`MAX_DISJUNCTS`].
fn dnf(form: &PForm) -> Option<Vec<Vec<IdLinExpr>>> {
    match form {
        PForm::True => Some(vec![Vec::new()]),
        PForm::False => Some(vec![]),
        PForm::Le(e) => Some(vec![vec![e.clone()]]),
        PForm::And(parts) => {
            let mut acc = vec![Vec::new()];
            for part in parts {
                let branches = dnf(part)?;
                let mut next = Vec::new();
                for a in &acc {
                    for b in &branches {
                        let mut merged = a.clone();
                        merged.extend(b.iter().cloned());
                        next.push(merged);
                        if next.len() > MAX_DISJUNCTS {
                            return None;
                        }
                    }
                }
                acc = next;
            }
            Some(acc)
        }
        PForm::Or(parts) => {
            let mut out = Vec::new();
            for part in parts {
                out.extend(dnf(part)?);
                if out.len() > MAX_DISJUNCTS {
                    return None;
                }
            }
            Some(out)
        }
    }
}

/// Returns `true` only if the formula is unsatisfiable: Fourier–Motzkin
/// refutes every disjunct of its DNF.  A DNF past the cap is not refuted.
pub fn unsatisfiable(form: &PForm) -> bool {
    match dnf(form) {
        Some(disjuncts) => disjuncts.iter().all(|c| id_conjunction_infeasible(c)),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `sum(coeff * id) + constant`, canonical.
    fn expr(terms: &[(usize, i64)], constant: i64) -> IdLinExpr {
        let mut e = IdLinExpr::constant(constant);
        for &(id, coeff) in terms {
            e.push_term(id, coeff);
        }
        e.canonicalize();
        e
    }

    /// `lhs = rhs` as the two constraints `lhs - rhs <= 0` and its negation.
    fn eq(lhs_minus_rhs: IdLinExpr) -> PForm {
        let mut neg = lhs_minus_rhs.clone();
        neg.scale(-1);
        PForm::and(vec![PForm::le(lhs_minus_rhs), PForm::le(neg)])
    }

    #[test]
    fn fm_detects_simple_contradiction() {
        // x <= 0  and  x >= 1
        let body = PForm::and(vec![
            PForm::le(expr(&[(0, 1)], 0)),
            PForm::le(expr(&[(0, -1)], 1)),
        ]);
        assert!(unsatisfiable(&body));
    }

    #[test]
    fn fm_does_not_claim_satisfiable_systems_unsat() {
        let body = PForm::and(vec![
            PForm::le(expr(&[(0, -1)], 0)),  // x >= 0
            PForm::le(expr(&[(0, 1)], -10)), // x <= 10
        ]);
        assert!(!unsatisfiable(&body));
    }

    #[test]
    fn gcd_tightening_refutes_an_odd_multiple() {
        // 2x >= 3 and 2x <= 3 have the rational model x = 3/2 and no
        // integer one; tightening rounds them to x >= 2 and x <= 1.
        let body = PForm::and(vec![
            PForm::le(expr(&[(0, -2)], 3)),
            PForm::le(expr(&[(0, 2)], -3)),
        ]);
        assert!(unsatisfiable(&body));
    }

    /// The known gap of refutation by Fourier–Motzkin: `x = 2y` and
    /// `x = 2z + 1` have the rational model `x = 1, y = 1/2, z = 0` but no
    /// integer model, since `x` cannot be both even and odd.  Elimination
    /// projects over the rationals, and gcd tightening only rounds a
    /// constraint whose own coefficients share a factor, so no step sees the
    /// parity.  The procedure leaves the conjunction open rather than
    /// deciding it exactly.
    #[test]
    fn parity_goals_stay_open() {
        let (x, y, z) = (0, 1, 2);
        let body = PForm::and(vec![
            eq(expr(&[(x, 1), (y, -2)], 0)),
            eq(expr(&[(x, 1), (z, -2)], -1)),
        ]);
        assert!(!unsatisfiable(&body));
    }

    #[test]
    fn id_expression_canonicalization_and_merge() {
        let mut e = IdLinExpr::constant(3);
        e.push_term(7, 2);
        e.push_term(2, -1);
        e.push_term(7, -2);
        e.push_term(4, 5);
        e.canonicalize();
        assert_eq!(e.terms(), &[(2, -1), (4, 5)]);
        assert_eq!(e.coeff(7), 0);
        assert_eq!(e.coeff(4), 5);
        let f = expr(&[(4, -5), (9, 1)], -1);
        let mut out = IdLinExpr::default();
        IdLinExpr::combine_into(&mut out, &e, 1, &f, 1);
        assert_eq!(out.terms(), &[(2, -1), (9, 1)]);
        assert_eq!(out.constant, 2);
        IdLinExpr::combine_into(&mut out, &e, 2, &f, -3);
        assert_eq!(out.coeff(4), 25);
        assert_eq!(out.constant, 9);
        let mut renamed = out.clone();
        renamed.rename(|id| id % 5);
        assert_eq!(renamed.terms(), &[(2, -2), (4, 22)]);
    }

    #[test]
    fn id_fm_detects_simple_contradiction() {
        // x <= 0  and  x >= 1.
        let le = expr(&[(0, 1)], 0);
        let ge = expr(&[(0, -1)], 1);
        assert!(id_conjunction_infeasible(&[le.clone(), ge]));
        assert!(!id_conjunction_infeasible(&[le]));
    }

    #[test]
    fn id_fm_tightens_scaled_constraints() {
        // 2x <= -3 and 2x >= -3: rationally a point, but gcd tightening
        // rounds 2x <= -3 down to x <= -2 and 2x >= -3 up to x >= -1.
        let upper = expr(&[(0, 2)], 3);
        let lower = expr(&[(0, -2)], -3);
        assert!(id_conjunction_infeasible(&[upper, lower]));
    }

    /// Wrapped `i64` arithmetic would refute both satisfiable systems below;
    /// checked arithmetic marks the overflow and leaves them open.
    #[test]
    fn overflowing_expressions_are_never_refuted() {
        // 2 * i64::MAX * x + 2 * x + 1 <= 0, i.e. 2^64 x + 1 <= 0 (x = -1):
        // merging the terms wraps the coefficient of x to 0, leaving 1 <= 0.
        let mut merged = IdLinExpr::constant(1);
        for coeff in [i64::MAX, i64::MAX, 1, 1] {
            merged.push_term(0, coeff);
        }
        merged.canonicalize();
        assert!(merged.overflowed());
        assert!(!id_conjunction_infeasible(&[merged.clone()]));
        assert!(!unsatisfiable(&PForm::le(merged)));

        // 2^32 x + y <= 0 and -2^32 x - y - 2^31 - 1 <= 0 (x = 0, y = -1):
        // eliminating x first scales the second constant by 2^32, which
        // wraps from -2^63 - 2^32 to a positive constant.
        let upper = expr(&[(0, 1 << 32), (1, 1)], 0);
        let lower = expr(&[(0, -(1 << 32)), (1, -1)], -(1 << 31) - 1);
        assert!(!id_conjunction_infeasible(&[upper, lower]));

        // Scaling and shifting past the range overflow too.
        let mut e = expr(&[(0, i64::MAX)], -i64::MAX);
        e.scale(-1);
        assert!(!e.overflowed(), "-i64::MAX negates exactly");
        e.shift(1);
        assert!(e.overflowed());
        let mut e = expr(&[(0, i64::MAX)], 0);
        e.scale(2);
        assert!(e.overflowed());
        e.clear();
        assert!(!e.overflowed());
    }

    /// The DNF entry point and the conjunction entry point must agree on
    /// every pure conjunction: the BAPA stage reaches the elimination
    /// through the former and the ground solver through the latter.
    #[test]
    fn dnf_entry_agrees_with_conjunction_entry_on_random_conjunctions() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let n_constraints = 1 + (next() % 6) as usize;
            let n_vars = 1 + (next() % 4) as usize;
            let mut les = Vec::new();
            for _ in 0..n_constraints {
                let mut le = IdLinExpr::constant((next() % 9) as i64 - 4);
                for var in 0..n_vars {
                    le.push_term(var, (next() % 7) as i64 - 3);
                }
                le.canonicalize();
                les.push(le);
            }
            let conjunction = PForm::and(les.iter().cloned().map(PForm::le).collect());
            assert_eq!(
                id_conjunction_infeasible(&les),
                unsatisfiable(&conjunction),
                "diverged on {les:?}"
            );
        }
    }
}
