//! Parser for the ASCII specification formula syntax.
//!
//! The syntax follows the Jahob/Isabelle ASCII notation used in the paper,
//! adapted to plain ASCII operators:
//!
//! ```text
//! forall i:int, e:obj. 0 <= i & i < size --> (i, e) in content
//! exists i:int. (i, o) in old(content)
//! {(i, n) : int * obj | 0 <= i & i < size & n = elements[i]}
//! card(content) = csize
//! x.next ~= null & reach(next, first, x)
//! ```
//!
//! Operators by decreasing binding strength: postfix `.f` / `[i]`, unary `-`,
//! `*`, `+`/`-`, `union`/`inter`/`minus`, comparisons (`=`, `~=`, `<`, `<=`,
//! `>`, `>=`, `in`, `subseteq`), `~`, `&`, `|`, `-->` (right associative),
//! `<->`, quantifiers.

use crate::form::{Binding, Form};
use crate::sort::Sort;
use std::fmt;
use std::sync::Arc;

/// The error type returned by the formula parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Byte offset in the input at which the problem was detected.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a formula from its ASCII syntax.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error encountered.
pub fn parse_form(input: &str) -> Result<Form, ParseError> {
    let tokens = lex(input)?;
    let mut parser = Parser { tokens, pos: 0 };
    let form = parser.parse_form()?;
    parser.expect_eof()?;
    Ok(form)
}

/// Parses a sort from its ASCII syntax (`int`, `bool`, `obj`, `set<T>`,
/// `T * U`, parenthesised sorts).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input.
pub fn parse_sort(input: &str) -> Result<Sort, ParseError> {
    let tokens = lex(input)?;
    let mut parser = Parser { tokens, pos: 0 };
    let sort = parser.parse_sort()?;
    parser.expect_eof()?;
    Ok(sort)
}

// --------------------------------------------------------------------------
// Lexer
// --------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Punct(&'static str),
    Eof,
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    offset: usize,
}

const PUNCTS: &[&str] = &[
    "-->", "==>", "<->", ":=", "<=", ">=", "~=", "!=", "&&", "||", "(", ")", "{", "}", "[", "]",
    ",", ".", ":", "|", "&", "~", "!", "=", "<", ">", "+", "-", "*",
];

fn lex(input: &str) -> Result<Vec<Spanned>, ParseError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    'outer: while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let text = &input[start..i];
            let value: i64 = text.parse().map_err(|_| ParseError {
                message: format!("integer literal out of range: {text}"),
                offset: start,
            })?;
            out.push(Spanned {
                tok: Tok::Int(value),
                offset: start,
            });
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() {
                let ch = bytes[i] as char;
                if ch.is_ascii_alphanumeric() || ch == '_' || ch == '\'' {
                    i += 1;
                } else {
                    break;
                }
            }
            out.push(Spanned {
                tok: Tok::Ident(input[start..i].to_string()),
                offset: start,
            });
            continue;
        }
        for p in PUNCTS {
            if input[i..].starts_with(p) {
                out.push(Spanned {
                    tok: Tok::Punct(p),
                    offset: i,
                });
                i += p.len();
                continue 'outer;
            }
        }
        return Err(ParseError {
            message: format!("unexpected character {c:?}"),
            offset: i,
        });
    }
    out.push(Spanned {
        tok: Tok::Eof,
        offset: input.len(),
    });
    Ok(out)
}

// --------------------------------------------------------------------------
// Parser
// --------------------------------------------------------------------------

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek_offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(name) if name == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{p}`, found {:?}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if matches!(self.peek(), Tok::Eof) {
            Ok(())
        } else {
            Err(self.error(format!("trailing input: {:?}", self.peek())))
        }
    }

    fn error(&self, message: String) -> ParseError {
        ParseError {
            message,
            offset: self.peek_offset(),
        }
    }

    // form := iff
    fn parse_form(&mut self) -> Result<Form, ParseError> {
        self.parse_iff()
    }

    fn parse_iff(&mut self) -> Result<Form, ParseError> {
        let mut lhs = self.parse_implies()?;
        while self.eat_punct("<->") {
            let rhs = self.parse_implies()?;
            lhs = Form::iff(lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_implies(&mut self) -> Result<Form, ParseError> {
        let lhs = self.parse_or()?;
        if self.eat_punct("-->") || self.eat_punct("==>") {
            let rhs = self.parse_implies()?;
            Ok(Form::implies(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn parse_or(&mut self) -> Result<Form, ParseError> {
        let mut parts = vec![self.parse_and()?];
        while self.eat_punct("|") || self.eat_punct("||") {
            parts.push(self.parse_and()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one")
        } else {
            Form::or(parts)
        })
    }

    fn parse_and(&mut self) -> Result<Form, ParseError> {
        let mut parts = vec![self.parse_not()?];
        while self.eat_punct("&") || self.eat_punct("&&") {
            parts.push(self.parse_not()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one")
        } else {
            Form::and(parts)
        })
    }

    fn parse_not(&mut self) -> Result<Form, ParseError> {
        if self.eat_punct("~") || self.eat_punct("!") {
            let inner = self.parse_not()?;
            return Ok(Form::not(inner));
        }
        if matches!(self.peek(), Tok::Ident(name) if name == "forall" || name == "exists") {
            return self.parse_quant();
        }
        self.parse_cmp()
    }

    fn parse_quant(&mut self) -> Result<Form, ParseError> {
        let is_forall = match self.bump() {
            Tok::Ident(name) => name == "forall",
            _ => unreachable!("caller checked"),
        };
        let bindings = self.parse_bindings()?;
        self.expect_punct(".")?;
        let body = self.parse_form()?;
        Ok(if is_forall {
            Form::forall(bindings, body)
        } else {
            Form::exists(bindings, body)
        })
    }

    fn parse_bindings(&mut self) -> Result<Vec<Binding>, ParseError> {
        let mut out = Vec::new();
        loop {
            // One group: `x y z : sort` or `x` (unknown sort) separated by commas.
            let mut names = Vec::new();
            loop {
                match self.peek().clone() {
                    Tok::Ident(name) => {
                        self.bump();
                        names.push(name);
                    }
                    _ => return Err(self.error("expected binder name".to_string())),
                }
                if !matches!(self.peek(), Tok::Ident(n) if n != "forall" && n != "exists") {
                    break;
                }
            }
            let sort = if self.eat_punct(":") {
                self.parse_sort()?
            } else {
                Sort::Unknown
            };
            for name in names {
                out.push((name, sort.clone()));
            }
            if !self.eat_punct(",") {
                break;
            }
        }
        Ok(out)
    }

    /// Parses a sort: `atom ( '*' atom )*`.
    fn parse_sort(&mut self) -> Result<Sort, ParseError> {
        let mut parts = vec![self.parse_sort_atom()?];
        while self.eat_punct("*") {
            parts.push(self.parse_sort_atom()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one")
        } else {
            Sort::Tuple(parts)
        })
    }

    fn parse_sort_atom(&mut self) -> Result<Sort, ParseError> {
        if self.eat_punct("(") {
            let sort = self.parse_sort()?;
            self.expect_punct(")")?;
            return Ok(sort);
        }
        match self.bump() {
            Tok::Ident(name) => match name.as_str() {
                "int" => Ok(Sort::Int),
                "bool" => Ok(Sort::Bool),
                "obj" => Ok(Sort::Obj),
                "set" => {
                    self.expect_punct("<")?;
                    let elem = self.parse_sort()?;
                    self.expect_punct(">")?;
                    Ok(Sort::Set(Box::new(elem)))
                }
                other => Err(self.error(format!("unknown sort `{other}`"))),
            },
            other => Err(self.error(format!("expected a sort, found {other:?}"))),
        }
    }

    fn parse_cmp(&mut self) -> Result<Form, ParseError> {
        let lhs = self.parse_set_expr()?;
        let op = match self.peek() {
            Tok::Punct("=") => "=",
            Tok::Punct("~=") | Tok::Punct("!=") => "~=",
            Tok::Punct("<=") => "<=",
            Tok::Punct(">=") => ">=",
            Tok::Punct("<") => "<",
            Tok::Punct(">") => ">",
            Tok::Ident(name) if name == "in" => "in",
            Tok::Ident(name) if name == "subseteq" => "subseteq",
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_set_expr()?;
        Ok(match op {
            "=" => Form::eq(lhs, rhs),
            "~=" => Form::neq(lhs, rhs),
            "<" => Form::lt(lhs, rhs),
            "<=" => Form::le(lhs, rhs),
            ">" => Form::lt(rhs, lhs),
            ">=" => Form::le(rhs, lhs),
            "in" => Form::elem(lhs, rhs),
            "subseteq" => Form::Subseteq(Arc::new(lhs), Arc::new(rhs)),
            _ => unreachable!("operator list above"),
        })
    }

    fn parse_set_expr(&mut self) -> Result<Form, ParseError> {
        let mut lhs = self.parse_add()?;
        loop {
            if self.eat_ident("union") {
                let rhs = self.parse_add()?;
                lhs = Form::Union(Arc::new(lhs), Arc::new(rhs));
            } else if self.eat_ident("inter") {
                let rhs = self.parse_add()?;
                lhs = Form::Inter(Arc::new(lhs), Arc::new(rhs));
            } else if self.eat_ident("minus") {
                let rhs = self.parse_add()?;
                lhs = Form::Diff(Arc::new(lhs), Arc::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn parse_add(&mut self) -> Result<Form, ParseError> {
        let mut lhs = self.parse_mul()?;
        loop {
            if self.eat_punct("+") {
                let rhs = self.parse_mul()?;
                lhs = Form::add(lhs, rhs);
            } else if self.eat_punct("-") {
                let rhs = self.parse_mul()?;
                lhs = Form::sub(lhs, rhs);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn parse_mul(&mut self) -> Result<Form, ParseError> {
        let mut lhs = self.parse_unary()?;
        while self.eat_punct("*") {
            let rhs = self.parse_unary()?;
            lhs = Form::mul(lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Form, ParseError> {
        if self.eat_punct("-") {
            return Ok(Form::neg(self.parse_unary()?));
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Form, ParseError> {
        let mut base = self.parse_primary()?;
        loop {
            if self.eat_punct(".") {
                match self.bump() {
                    Tok::Ident(field) => {
                        base = Form::field_read(Form::var(field), base);
                    }
                    other => {
                        return Err(self.error(format!("expected field name, found {other:?}")))
                    }
                }
            } else if self.eat_punct("[") {
                let idx = self.parse_form()?;
                if self.eat_punct(":=") {
                    // Function update `f[x := v]` (field image after assignment).
                    let value = self.parse_form()?;
                    self.expect_punct("]")?;
                    base = Form::field_write(base, idx, value);
                } else {
                    self.expect_punct("]")?;
                    base = Form::array_read(Form::var("arrayState"), base, idx);
                }
            } else {
                return Ok(base);
            }
        }
    }

    fn parse_primary(&mut self) -> Result<Form, ParseError> {
        match self.bump() {
            Tok::Int(value) => Ok(Form::Int(value)),
            Tok::Ident(name) => match name.as_str() {
                "true" => Ok(Form::TRUE),
                "false" => Ok(Form::FALSE),
                "null" => Ok(Form::Null),
                "emptyset" => Ok(Form::EmptySet),
                "old" => {
                    self.expect_punct("(")?;
                    let inner = self.parse_form()?;
                    self.expect_punct(")")?;
                    Ok(Form::old(inner))
                }
                "card" => {
                    self.expect_punct("(")?;
                    let inner = self.parse_form()?;
                    self.expect_punct(")")?;
                    Ok(Form::Card(Arc::new(inner)))
                }
                "if" => {
                    let cond = self.parse_form()?;
                    if !self.eat_ident("then") {
                        return Err(self.error("expected `then`".to_string()));
                    }
                    let then = self.parse_form()?;
                    if !self.eat_ident("else") {
                        return Err(self.error("expected `else`".to_string()));
                    }
                    let els = self.parse_form()?;
                    Ok(Form::Ite(Arc::new(cond), Arc::new(then), Arc::new(els)))
                }
                _ => {
                    if self.eat_punct("(") {
                        let mut args = Vec::new();
                        if !self.eat_punct(")") {
                            loop {
                                args.push(self.parse_form()?);
                                if self.eat_punct(")") {
                                    break;
                                }
                                self.expect_punct(",")?;
                            }
                        }
                        Ok(Form::App(name, args))
                    } else {
                        Ok(Form::Var(name))
                    }
                }
            },
            Tok::Punct("(") => {
                let first = self.parse_form()?;
                if self.eat_punct(",") {
                    let mut elems = vec![first];
                    loop {
                        elems.push(self.parse_form()?);
                        if !self.eat_punct(",") {
                            break;
                        }
                    }
                    self.expect_punct(")")?;
                    Ok(Form::Tuple(elems))
                } else {
                    self.expect_punct(")")?;
                    Ok(first)
                }
            }
            Tok::Punct("{") => self.parse_braced(),
            other => Err(self.error(format!("unexpected token {other:?}"))),
        }
    }

    /// Parses the inside of `{ ... }`: either a finite set literal, the empty
    /// set, or a comprehension `{pattern : sorts | body}`.
    fn parse_braced(&mut self) -> Result<Form, ParseError> {
        if self.eat_punct("}") {
            return Ok(Form::EmptySet);
        }
        let first = self.parse_form()?;
        if self.eat_punct(":") {
            // Comprehension: the pattern must be a variable or tuple of variables.
            let names = pattern_names(&first)
                .ok_or_else(|| self.error("comprehension pattern must be variables".to_string()))?;
            let sort = self.parse_sort()?;
            self.expect_punct("|")?;
            let body = self.parse_form()?;
            self.expect_punct("}")?;
            let sorts: Vec<Sort> = match sort {
                Sort::Tuple(parts) if parts.len() == names.len() => parts,
                single if names.len() == 1 => vec![single],
                other => {
                    return Err(ParseError {
                        message: format!(
                        "comprehension pattern has {} variables but sort {other} does not match",
                        names.len()
                    ),
                        offset: 0,
                    })
                }
            };
            let bindings = names.into_iter().zip(sorts).collect();
            return Ok(Form::Compr(bindings, Arc::new(body)));
        }
        if self.eat_punct("|") {
            // `{x | body}` — comprehension with unknown sort.
            let names = pattern_names(&first)
                .ok_or_else(|| self.error("comprehension pattern must be variables".to_string()))?;
            let body = self.parse_form()?;
            self.expect_punct("}")?;
            let bindings = names.into_iter().map(|n| (n, Sort::Unknown)).collect();
            return Ok(Form::Compr(bindings, Arc::new(body)));
        }
        // Finite set literal.
        let mut elems = vec![first];
        while self.eat_punct(",") {
            elems.push(self.parse_form()?);
        }
        self.expect_punct("}")?;
        Ok(Form::FiniteSet(elems))
    }
}

/// Extracts variable names from a comprehension pattern (`x` or `(x, y)`).
fn pattern_names(form: &Form) -> Option<Vec<String>> {
    match form {
        Form::Var(name) => Some(vec![name.clone()]),
        Form::Tuple(elems) => {
            let mut names = Vec::with_capacity(elems.len());
            for e in elems {
                match e {
                    Form::Var(name) => names.push(name.clone()),
                    _ => return None,
                }
            }
            Some(names)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_arith() {
        let f = parse_form("0 <= i & i < size").unwrap();
        assert_eq!(
            f,
            Form::and(vec![
                Form::le(Form::int(0), Form::var("i")),
                Form::lt(Form::var("i"), Form::var("size")),
            ])
        );
    }

    #[test]
    fn parse_implication_right_assoc() {
        let f = parse_form("a --> b --> c").unwrap();
        assert_eq!(
            f,
            Form::implies(
                Form::var("a"),
                Form::implies(Form::var("b"), Form::var("c"))
            )
        );
    }

    #[test]
    fn parse_quantifier_with_sorts() {
        let f = parse_form("forall j:int, e:obj. (j, e) in content --> 0 <= j").unwrap();
        match f {
            Form::Forall(bs, _) => {
                assert_eq!(bs.len(), 2);
                assert_eq!(bs[0], ("j".to_string(), Sort::Int));
                assert_eq!(bs[1], ("e".to_string(), Sort::Obj));
            }
            other => panic!("expected forall, got {other:?}"),
        }
    }

    #[test]
    fn parse_exists_old_and_tuple() {
        let f = parse_form("exists i:int. (i, o) in old(content)").unwrap();
        let printed = f.to_string();
        assert!(printed.contains("old(content)"));
        assert!(printed.contains("(i, o) in"));
    }

    #[test]
    fn parse_comprehension() {
        let f = parse_form("{(i, n) : int * obj | 0 <= i & i < size & n = elements[i]}").unwrap();
        match &f {
            Form::Compr(bs, body) => {
                assert_eq!(bs.len(), 2);
                assert_eq!(bs[0].1, Sort::Int);
                assert_eq!(bs[1].1, Sort::Obj);
                assert!(body.to_string().contains("elements[i]"));
            }
            other => panic!("expected comprehension, got {other:?}"),
        }
    }

    #[test]
    fn parse_field_chain_and_array() {
        let f = parse_form("x.next.next ~= null & a[i + 1] = v").unwrap();
        let s = f.to_string();
        assert!(s.contains("x.next.next"));
        assert!(s.contains("a[i + 1]"));
    }

    #[test]
    fn parse_set_operations_and_card() {
        let f = parse_form("card(content union {x}) = csize + 1").unwrap();
        assert!(matches!(f, Form::Eq(..)));
        let f = parse_form("a subseteq b & x in (s minus t)").unwrap();
        assert!(f.to_string().contains("subseteq"));
    }

    #[test]
    fn parse_greater_than_flips() {
        assert_eq!(
            parse_form("a > b").unwrap(),
            Form::lt(Form::var("b"), Form::var("a"))
        );
        assert_eq!(
            parse_form("a >= b").unwrap(),
            Form::le(Form::var("b"), Form::var("a"))
        );
    }

    #[test]
    fn parse_application() {
        let f = parse_form("reach(next, first, x)").unwrap();
        assert_eq!(
            f,
            Form::app(
                "reach",
                vec![Form::var("next"), Form::var("first"), Form::var("x")]
            )
        );
    }

    #[test]
    fn parse_empty_set_and_finite_set() {
        assert_eq!(parse_form("{}").unwrap(), Form::EmptySet);
        assert_eq!(
            parse_form("{x, y}").unwrap(),
            Form::FiniteSet(vec![Form::var("x"), Form::var("y")])
        );
    }

    #[test]
    fn parse_negative_literal() {
        assert_eq!(
            parse_form("x = -1").unwrap(),
            Form::eq(Form::var("x"), Form::int(-1))
        );
    }

    #[test]
    fn error_reports_offset() {
        let err = parse_form("forall . p").unwrap_err();
        assert!(err.offset > 0);
        let err = parse_form("a &").unwrap_err();
        assert!(err.message.contains("unexpected"));
    }

    #[test]
    fn printer_output_reparses() {
        let inputs = [
            "forall i:int. 0 <= i & i < size --> elements[i] ~= null",
            "exists i:int. (i, o) in old(content) & ~(exists j:int. j < i & (j, o) in old(content))",
            "card(content) = csize",
            "{(i, n) : int * obj | n = elements[i]} = content",
            "x.next = null | x.next in nodes",
            "a subseteq b union c",
        ];
        for input in inputs {
            let f1 = parse_form(input).unwrap();
            let printed = f1.to_string();
            let f2 = parse_form(&printed)
                .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
            assert_eq!(f1, f2, "round trip failed for {input}");
        }
    }

    #[test]
    fn parse_sort_syntax() {
        assert_eq!(parse_sort("int").unwrap(), Sort::Int);
        assert_eq!(parse_sort("set<int * obj>").unwrap(), Sort::int_obj_set());
        assert_eq!(parse_sort("set<obj>").unwrap(), Sort::obj_set());
        assert!(parse_sort("foo").is_err());
    }
}
