//! Parser for the annotated surface language.
//!
//! Module text is read by the reader of the specification logic,
//! [`ipl_logic::parser::Parser`]: this module holds only the module grammar
//! (declarations, statements, proof statements, labels and `from` lists)
//! and runs it on that parser's tokens.  Program expressions and
//! assignment targets are read by [`Parser::parse_form`] and
//! [`Parser::parse_postfix`], and sorts by [`Parser::parse_sort`], so a
//! program expression may use the whole formula syntax: `x == y && 0 < z`
//! and `x = y & 0 < z` read alike, and quantifiers, `old(…)`, set
//! operators and applications are accepted too, since lowering treats
//! program expressions as formulas.  The words the formula syntax gives a
//! meaning (`old`, `card`, `emptyset`, `forall`, `exists`, `in`, `union`,
//! …) mean the same in program text.  Specification formulas appear between
//! double quotes and are parsed on their own with [`parse_form`], so an
//! error inside one names the formula's text.
//!
//! Proof statements are read straight into the [`Proof`] values translation
//! reads: a proof block is the [`Proof::seq`] of its statements, and the
//! implication of an `mp` and the disjunction of a `showedCase` are split
//! as they are read, so an `mp` of anything but an implication is a parse
//! error at its formula.  `fix`, the construct that encloses code, is read
//! as a statement ([`Stmt::Fix`]) and cannot appear in a proof block.
//!
//! Program text nested past [`MAX_NESTING`] levels is a parse error, as in
//! formulas: a block, `else if` or call argument is a level, and a program
//! expression counts its levels as a formula does, on the same counter.  A
//! quoted formula counts its own levels from zero.
//!
//! [`MAX_NESTING`]: ipl_logic::parser::MAX_NESTING

use crate::ast::{Method, Module, Stmt, Type};
use ipl_gcl::Proof;
use ipl_logic::parser::{parse_form, ParseError, Parser, Tok};
use ipl_logic::{Form, Sort};
use std::fmt;

/// Parse error with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LangError {
    /// Description of the problem.
    pub message: String,
    /// 1-based line number.
    pub line: usize,
    /// Byte-offset range `[start, end)` into the source, when known.
    pub span: Option<(usize, usize)>,
}

impl LangError {
    /// Places a reader error in `source`: the line is one more than the
    /// number of newlines before the end of the offending token.
    fn at(source: &str, error: ParseError) -> LangError {
        let newlines = source.as_bytes()[..error.end]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        LangError {
            message: error.message,
            line: 1 + newlines,
            span: Some((error.offset, error.end)),
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LangError {}

/// Parses a module from source text.
///
/// # Errors
///
/// Returns a [`LangError`] describing the first syntax error.
pub fn parse_module(source: &str) -> Result<Module, LangError> {
    let read = || {
        let mut p = Parser::new(source)?;
        let module = module(&mut p)?;
        p.expect_eof()?;
        Ok(module)
    };
    read().map_err(|e| LangError::at(source, e))
}

type Read<T> = Result<T, ParseError>;

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

fn module(p: &mut Parser<'_>) -> Read<Module> {
    p.expect_ident("module")?;
    let mut module = Module {
        name: p.ident()?,
        state_vars: Vec::new(),
        fields: Vec::new(),
        specvars: Vec::new(),
        vardefs: Vec::new(),
        invariants: Vec::new(),
        methods: Vec::new(),
    };
    p.expect_punct("{")?;
    while !p.eat_punct("}") {
        if p.eat_ident("var") {
            module.state_vars.push(declaration(p, ty)?);
        } else if p.eat_ident("field") {
            module.fields.push(declaration(p, ty)?);
        } else if p.eat_ident("specvar") {
            module.specvars.push(declaration(p, Parser::parse_sort)?);
        } else if p.eat_ident("vardef") {
            let name = p.ident()?;
            p.expect_punct("=")?;
            let form = formula(p)?;
            p.expect_punct(";")?;
            module.vardefs.push((name, form));
        } else if p.eat_ident("invariant") {
            let invariant = label_formula(p)?;
            p.expect_punct(";")?;
            module.invariants.push(invariant);
        } else if p.peek_ident("method") {
            module.methods.push(method(p)?);
        } else {
            return Err(p.error(format!("unexpected token {:?} in module body", p.peek())));
        }
    }
    Ok(module)
}

/// `name: T;`, with `T` read by `kind`.
fn declaration<'a, T>(
    p: &mut Parser<'a>,
    kind: impl FnOnce(&mut Parser<'a>) -> Read<T>,
) -> Read<(String, T)> {
    let name = p.ident()?;
    p.expect_punct(":")?;
    let kind = kind(p)?;
    p.expect_punct(";")?;
    Ok((name, kind))
}

fn ty(p: &mut Parser<'_>) -> Read<Type> {
    let ty = match p.peek() {
        Tok::Ident("int") => Type::Int,
        Tok::Ident("bool") => Type::Bool,
        Tok::Ident("obj") => Type::Obj,
        Tok::Ident("objarray") => Type::ObjArray,
        Tok::Ident("intarray") => Type::IntArray,
        Tok::Ident(other) => return Err(p.error(format!("unknown type `{other}`"))),
        other => return Err(p.error(format!("expected identifier, found {other:?}"))),
    };
    p.bump();
    Ok(ty)
}

/// `name: T` — a parameter or return value.
fn typed_name(p: &mut Parser<'_>) -> Read<(String, Type)> {
    let name = p.ident()?;
    p.expect_punct(":")?;
    Ok((name, ty(p)?))
}

fn method(p: &mut Parser<'_>) -> Read<Method> {
    p.expect_ident("method")?;
    let name = p.ident()?;
    let params = paren_list(p, typed_name)?;
    let mut returns = Vec::new();
    if p.eat_ident("returns") {
        p.expect_punct("(")?;
        returns = closed_list(p, typed_name)?;
    }
    let mut requires = Vec::new();
    let mut modifies = Vec::new();
    let mut ensures = Vec::new();
    loop {
        if p.eat_ident("requires") {
            requires.push(formula(p)?);
        } else if p.eat_ident("ensures") {
            ensures.push(formula(p)?);
        } else if p.eat_ident("modifies") {
            modifies.extend(comma_list(p, Parser::ident)?);
        } else {
            break;
        }
    }
    Ok(Method {
        name,
        params,
        returns,
        requires,
        modifies,
        ensures,
        body: block(p)?,
    })
}

/// `item (, item)*`.
fn comma_list<'a, T>(
    p: &mut Parser<'a>,
    mut item: impl FnMut(&mut Parser<'a>) -> Read<T>,
) -> Read<Vec<T>> {
    let mut items = vec![item(p)?];
    while p.eat_punct(",") {
        items.push(item(p)?);
    }
    Ok(items)
}

/// `( item, … )`, possibly empty.
fn paren_list<'a, T>(
    p: &mut Parser<'a>,
    item: impl FnMut(&mut Parser<'a>) -> Read<T>,
) -> Read<Vec<T>> {
    p.expect_punct("(")?;
    if p.eat_punct(")") {
        return Ok(Vec::new());
    }
    closed_list(p, item)
}

/// `item (, item)* )`: the rest of a parenthesised list after its `(`.
fn closed_list<'a, T>(
    p: &mut Parser<'a>,
    mut item: impl FnMut(&mut Parser<'a>) -> Read<T>,
) -> Read<Vec<T>> {
    let mut items = Vec::new();
    loop {
        items.push(item(p)?);
        if p.eat_punct(")") {
            return Ok(items);
        }
        p.expect_punct(",")?;
    }
}

/// `{ item* }`, one nesting level deeper.
fn braced<'a, T>(
    p: &mut Parser<'a>,
    mut item: impl FnMut(&mut Parser<'a>) -> Read<T>,
) -> Read<Vec<T>> {
    p.expect_punct("{")?;
    p.nested(|p| {
        let mut items = Vec::new();
        while !p.eat_punct("}") {
            items.push(item(p)?);
        }
        Ok(items)
    })
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

fn block(p: &mut Parser<'_>) -> Read<Vec<Stmt>> {
    braced(p, stmt)
}

fn stmt(p: &mut Parser<'_>) -> Read<Stmt> {
    if p.eat_ident("skip") {
        p.expect_punct(";")?;
        return Ok(Stmt::Skip);
    }
    if p.eat_ident("var") {
        let (name, ty) = typed_name(p)?;
        let init = if p.eat_punct(":=") {
            Some(p.parse_form()?)
        } else {
            None
        };
        p.expect_punct(";")?;
        return Ok(Stmt::VarDecl(name, ty, init));
    }
    if p.eat_ident("ghost") {
        let name = p.ident()?;
        p.expect_punct(":=")?;
        let form = formula(p)?;
        p.expect_punct(";")?;
        return Ok(Stmt::Ghost(name, form));
    }
    if p.eat_ident("if") {
        let cond = condition(p)?;
        let then_branch = block(p)?;
        let else_branch = if !p.eat_ident("else") {
            Vec::new()
        } else if p.peek_ident("if") {
            vec![p.nested(stmt)?]
        } else {
            block(p)?
        };
        return Ok(Stmt::If(cond, then_branch, else_branch));
    }
    if p.eat_ident("while") {
        let cond = condition(p)?;
        let mut invariants = Vec::new();
        while p.eat_ident("invariant") {
            invariants.push(formula(p)?);
        }
        return Ok(Stmt::While {
            cond,
            invariants,
            body: block(p)?,
        });
    }
    if p.eat_ident("assert") {
        let (label, form) = labeled_formula(p)?;
        let from = from_clause(p)?;
        p.expect_punct(";")?;
        return Ok(Stmt::Assert { label, form, from });
    }
    if p.eat_ident("assume") {
        let (label, form) = labeled_formula(p)?;
        p.expect_punct(";")?;
        return Ok(Stmt::Assume { label, form });
    }
    if p.eat_ident("call") {
        let method = p.ident()?;
        let args = call_args(p)?;
        p.expect_punct(";")?;
        return Ok(Stmt::Call {
            target: None,
            method,
            args,
        });
    }
    if p.eat_ident("fix") {
        let vars = comma_list(p, binder)?;
        p.expect_ident("suchThat")?;
        let such_that = formula(p)?;
        p.expect_ident("show")?;
        let (label, goal) = label_formula(p)?;
        return Ok(Stmt::Fix {
            vars,
            such_that,
            label,
            goal,
            body: block(p)?,
        });
    }
    if let Some(proof) = proof_stmt(p)? {
        return Ok(Stmt::Proof(proof));
    }
    // Assignment forms; a target that cannot be assigned is reported at
    // its first token.
    let (offset, end) = p.span();
    let bad_target = |message| ParseError {
        message,
        offset,
        end,
    };
    let lhs = p.parse_postfix()?;
    p.expect_punct(":=")?;
    if p.eat_ident("new") {
        p.expect_punct("(")?;
        p.expect_punct(")")?;
        p.expect_punct(";")?;
        return match lhs {
            Form::Var(name) => Ok(Stmt::New(name)),
            other => Err(bad_target(format!("cannot allocate into {other}"))),
        };
    }
    if p.eat_ident("call") {
        let method = p.ident()?;
        let args = call_args(p)?;
        p.expect_punct(";")?;
        return match lhs {
            Form::Var(name) => Ok(Stmt::Call {
                target: Some(name),
                method,
                args,
            }),
            other => Err(bad_target(format!("cannot assign call result to {other}"))),
        };
    }
    let rhs = p.parse_form()?;
    p.expect_punct(";")?;
    match lhs {
        Form::Var(name) => Ok(Stmt::Assign(name, rhs)),
        Form::FieldRead(field, object) => match Form::take(field) {
            Form::Var(field) => Ok(Stmt::FieldAssign {
                field,
                object: Form::take(object),
                value: rhs,
            }),
            other => Err(bad_target(format!("invalid field in assignment: {other}"))),
        },
        Form::ArrayRead(_, array, index) => Ok(Stmt::ArrayAssign {
            array: Form::take(array),
            index: Form::take(index),
            value: rhs,
        }),
        other => Err(bad_target(format!("invalid assignment target {other}"))),
    }
}

/// `( e )` after `if` or `while`.
fn condition(p: &mut Parser<'_>) -> Read<Form> {
    p.expect_punct("(")?;
    let cond = p.parse_form()?;
    p.expect_punct(")")?;
    Ok(cond)
}

/// `( e, … )`, each argument one nesting level deeper.
fn call_args(p: &mut Parser<'_>) -> Read<Vec<Form>> {
    paren_list(p, |p| p.nested(Parser::parse_form))
}

/// A quoted formula, parsed on its own so that an error names its text.
fn formula(p: &mut Parser<'_>) -> Read<Form> {
    let Tok::Str(text) = p.peek() else {
        return Err(p.error(format!("expected a quoted formula, found {:?}", p.peek())));
    };
    let (offset, end) = p.span();
    p.bump();
    parse_form(text).map_err(|e| ParseError {
        message: format!("in formula {text:?}: {e}"),
        offset,
        end,
    })
}

/// `Label: "F"` or just `"F"`.
fn labeled_formula(p: &mut Parser<'_>) -> Read<(Option<String>, Form)> {
    if let Tok::Ident(_) = p.peek() {
        let (label, form) = label_formula(p)?;
        Ok((Some(label), form))
    } else {
        Ok((None, formula(p)?))
    }
}

/// `Label: "F"`.
fn label_formula(p: &mut Parser<'_>) -> Read<(String, Form)> {
    let label = p.ident()?;
    p.expect_punct(":")?;
    Ok((label, formula(p)?))
}

fn from_clause(p: &mut Parser<'_>) -> Read<Option<Vec<String>>> {
    if p.eat_ident("from") {
        comma_list(p, Parser::ident).map(Some)
    } else {
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// Proof statements
// ---------------------------------------------------------------------------

fn proof_stmt(p: &mut Parser<'_>) -> Read<Option<Proof>> {
    let Tok::Ident(keyword) = p.peek() else {
        return Ok(None);
    };
    let proof = match keyword {
        "note" => {
            p.bump();
            let (label, form) = label_formula(p)?;
            let from = from_clause(p)?;
            p.expect_punct(";")?;
            Proof::Note { label, form, from }
        }
        "localize" => {
            p.bump();
            let (label, form) = label_formula(p)?;
            let body = proof_block(p)?;
            Proof::Localize { body, label, form }
        }
        "assuming" => {
            p.bump();
            let (hyp_label, hyp) = label_formula(p)?;
            p.expect_ident("show")?;
            let (concl_label, concl) = label_formula(p)?;
            Proof::Assuming {
                hyp_label,
                hyp,
                body: proof_block(p)?,
                concl_label,
                concl,
            }
        }
        "mp" => {
            p.bump();
            let label = p.ident()?;
            p.expect_punct(":")?;
            let (offset, end) = p.span();
            let (hyp, concl) = match formula(p)? {
                Form::Implies(hyp, concl) => (Form::take(hyp), Form::take(concl)),
                other => {
                    return Err(ParseError {
                        message: format!("mp {label} expects an implication, got {other}"),
                        offset,
                        end,
                    })
                }
            };
            p.expect_punct(";")?;
            Proof::Mp { label, hyp, concl }
        }
        "cases" => {
            p.bump();
            let cases = comma_list(p, formula)?;
            p.expect_ident("for")?;
            let (label, goal) = label_formula(p)?;
            p.expect_punct(";")?;
            Proof::Cases { cases, label, goal }
        }
        "showedCase" => {
            p.bump();
            let index = match p.peek() {
                Tok::Int(value) if value >= 1 => value as usize,
                other => return Err(p.error(format!("expected case index, found {other:?}"))),
            };
            p.bump();
            p.expect_ident("of")?;
            let (label, disjunction) = label_formula(p)?;
            p.expect_punct(";")?;
            let disjuncts = match disjunction {
                Form::Or(parts) => parts,
                other => vec![other],
            };
            Proof::ShowedCase {
                index,
                label,
                disjuncts,
            }
        }
        "byContradiction" => {
            p.bump();
            let (label, form) = label_formula(p)?;
            let body = proof_block(p)?;
            Proof::ByContradiction { label, form, body }
        }
        "contradiction" => {
            p.bump();
            let (label, form) = label_formula(p)?;
            p.expect_punct(";")?;
            Proof::Contradiction { label, form }
        }
        "instantiate" => {
            p.bump();
            let (label, forall) = label_formula(p)?;
            p.expect_ident("with")?;
            let terms = comma_list(p, formula)?;
            p.expect_punct(";")?;
            Proof::Instantiate {
                label,
                forall,
                terms,
            }
        }
        "witness" => {
            p.bump();
            let terms = comma_list(p, formula)?;
            p.expect_ident("for")?;
            let (label, exists) = label_formula(p)?;
            p.expect_punct(";")?;
            Proof::Witness {
                terms,
                label,
                exists,
            }
        }
        "pickWitness" => {
            p.bump();
            let vars = comma_list(p, binder)?;
            p.expect_ident("for")?;
            let (hyp_label, hyp) = label_formula(p)?;
            p.expect_ident("show")?;
            let (concl_label, concl) = label_formula(p)?;
            Proof::PickWitness {
                vars,
                hyp_label,
                hyp,
                body: proof_block(p)?,
                concl_label,
                concl,
            }
        }
        "pickAny" => {
            p.bump();
            let vars = comma_list(p, binder)?;
            p.expect_ident("show")?;
            let (label, goal) = label_formula(p)?;
            Proof::PickAny {
                vars,
                body: proof_block(p)?,
                label,
                goal,
            }
        }
        "induct" => {
            p.bump();
            let (label, form) = label_formula(p)?;
            p.expect_ident("over")?;
            let var = p.ident()?;
            let body = proof_block(p)?;
            Proof::Induct {
                label,
                form,
                var,
                body,
            }
        }
        _ => return Ok(None),
    };
    Ok(Some(proof))
}

/// `name: sort`.
fn binder(p: &mut Parser<'_>) -> Read<(String, Sort)> {
    let name = p.ident()?;
    p.expect_punct(":")?;
    Ok((name, p.parse_sort()?))
}

/// `{ proof* }`, read as the [`Proof::seq`] of its statements.
fn proof_block(p: &mut Parser<'_>) -> Read<Box<Proof>> {
    let proofs = braced(p, |p| {
        proof_stmt(p)?.ok_or_else(|| match p.peek() {
            Tok::Ident("fix") => p.error("fix may not be nested inside a pure proof block"),
            other => p.error(format!("expected a proof statement, found {other:?}")),
        })
    })?;
    Ok(Box::new(Proof::seq(proofs)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipl_logic::parser::MAX_NESTING;

    const COUNTER: &str = r#"
        // A tiny module exercising most declaration forms.
        module Counter {
          var value: int;
          var items: objarray;
          field next: obj;
          specvar content: set<obj>;
          vardef content = "{x : obj | reach(next, first, x) & x ~= null}";
          specvar csize: int;
          invariant NonNeg: "0 <= value";

          method increment(amount: int) returns (result: int)
            requires "0 <= amount"
            modifies value
            ensures "value = old(value) + amount & result = value"
          {
            value := value + amount;
            note Bumped: "old(value) <= value" from NonNeg, Precondition;
            result := value;
          }

          method reset()
            modifies value
            ensures "value = 0"
          {
            if (value > 0) {
              value := 0;
            } else {
              skip;
            }
          }
        }
    "#;

    #[test]
    fn parses_module_declarations() {
        let module = parse_module(COUNTER).unwrap();
        assert_eq!(module.name, "Counter");
        assert_eq!(module.state_vars.len(), 2);
        assert_eq!(module.fields, vec![("next".to_string(), Type::Obj)]);
        assert_eq!(module.specvars.len(), 2);
        assert_eq!(module.vardefs.len(), 1);
        assert_eq!(module.invariants.len(), 1);
        assert_eq!(module.methods.len(), 2);
        let increment = module.method("increment").unwrap();
        assert_eq!(increment.params, vec![("amount".to_string(), Type::Int)]);
        assert_eq!(increment.returns, vec![("result".to_string(), Type::Int)]);
        assert_eq!(increment.modifies, vec!["value".to_string()]);
        assert_eq!(increment.requires.len(), 1);
        assert_eq!(increment.ensures.len(), 1);
    }

    #[test]
    fn parses_statements_and_note() {
        let module = parse_module(COUNTER).unwrap();
        let increment = module.method("increment").unwrap();
        assert_eq!(increment.body.len(), 3);
        assert!(matches!(increment.body[0], Stmt::Assign(..)));
        match &increment.body[1] {
            Stmt::Proof(Proof::Note { label, from, .. }) => {
                assert_eq!(label, "Bumped");
                assert_eq!(from.as_ref().unwrap().len(), 2);
            }
            other => panic!("expected a note, got {other:?}"),
        }
    }

    #[test]
    fn parses_control_flow() {
        let module = parse_module(COUNTER).unwrap();
        let reset = module.method("reset").unwrap();
        match &reset.body[0] {
            Stmt::If(cond, then_branch, else_branch) => {
                assert_eq!(cond.to_string(), "0 < value");
                assert_eq!(then_branch.len(), 1);
                assert_eq!(else_branch.len(), 1);
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_loops_calls_and_heap_statements() {
        let source = r#"
            module List {
              var first: obj;
              var size: int;
              field next: obj;

              method insert(o: obj)
                modifies first, size
              {
                var node: obj;
                node := new();
                node.next := first;
                first := node;
                size := size + 1;
              }

              method sum(values: intarray, count: int) returns (total: int)
                requires "0 <= count"
              {
                var i: int := 0;
                total := 0;
                while (i < count)
                  invariant "0 <= i & i <= count"
                {
                  total := total + values[i];
                  i := i + 1;
                }
                call insert(null);
              }
            }
        "#;
        let module = parse_module(source).unwrap();
        let insert = module.method("insert").unwrap();
        assert!(matches!(insert.body[1], Stmt::New(_)));
        assert!(matches!(insert.body[2], Stmt::FieldAssign { .. }));
        let sum = module.method("sum").unwrap();
        match &sum.body[2] {
            Stmt::While {
                invariants, body, ..
            } => {
                assert_eq!(invariants.len(), 1);
                assert_eq!(body.len(), 2);
            }
            other => panic!("expected while, got {other:?}"),
        }
        assert!(matches!(sum.body[3], Stmt::Call { target: None, .. }));
    }

    #[test]
    fn parses_all_proof_statements() {
        let source = r#"
            module Proofs {
              var x: int;
              method demo()
              {
                note A: "x = x";
                assert "x = x" from A;
                localize B: "x = x" { note Inner: "x = x"; }
                assuming H: "0 <= x" show C: "0 <= x + 1" { note Step: "0 <= x + 1"; }
                mp D: "0 <= x --> 0 <= x";
                cases "x < 0", "0 <= x" for E: "x = x";
                showedCase 1 of F: "x = x | x < 0";
                byContradiction G: "x = x" { contradiction Inner2: "x = x"; }
                instantiate I: "forall n:int. n = n" with "x";
                witness "x" for J: "exists n:int. n = n";
                pickWitness w: int for K: "w = x" show L: "x = x" { note N2: "x = x"; }
                pickAny a: obj show M: "a = a" { note N3: "a = a"; }
                induct P: "0 <= n" over n { note N4: "0 <= 0"; }
                fix b: obj suchThat "b = b" show Q: "b = b" {
                  x := x + 1;
                  note N5: "b = b";
                }
              }
            }
        "#;
        let module = parse_module(source).unwrap();
        let demo = module.method("demo").unwrap();
        let proof_count = demo
            .body
            .iter()
            .filter(|s| matches!(s, Stmt::Proof(_) | Stmt::Assert { .. } | Stmt::Fix { .. }))
            .count();
        assert_eq!(proof_count, 14);
        match &demo.body[13] {
            Stmt::Fix { body, .. } => assert_eq!(body.len(), 2),
            other => panic!("expected fix, got {other:?}"),
        }
    }

    #[test]
    fn misplaced_proof_statements_are_reported_at_their_text() {
        let within = |body: &str| format!("module M {{\n  method m() {{\n    {body}\n  }}\n}}");
        for (body, at, message) in [
            (
                "mp D: \"old(x --> y)\";",
                "\"old(x --> y)\"",
                "mp D expects an implication",
            ),
            (
                "localize L: \"true\" { fix k: int suchThat \"true\" show G: \"true\" { } }",
                "fix",
                "fix may not be nested inside a pure proof block",
            ),
        ] {
            let source = within(body);
            let err = parse_module(&source).unwrap_err();
            assert_eq!(err.line, 3, "{err}");
            let (start, end) = err.span.unwrap();
            assert_eq!(&source[start..end], at, "{err}");
            assert!(err.message.starts_with(message), "{err}");
        }
    }

    #[test]
    fn reports_errors_with_line_numbers() {
        let err = parse_module("module M {\n  var x: unknown;\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown type"));

        let err = parse_module("module M {\n  invariant I: \"x &\";\n}").unwrap_err();
        assert!(err.message.contains("in formula"));
    }

    #[test]
    fn reports_errors_with_byte_spans() {
        let source = "module M {\n  var x: unknown;\n}";
        let err = parse_module(source).unwrap_err();
        let (start, end) = err.span.unwrap();
        assert_eq!(&source[start..end], "unknown");

        let source = "module M {\n  invariant I: \"x &\";\n}";
        let err = parse_module(source).unwrap_err();
        let (start, end) = err.span.unwrap();
        assert_eq!(&source[start..end], "\"x &\"");

        let source = "module M { var x: int; @ }";
        let err = parse_module(source).unwrap_err();
        let (start, end) = err.span.unwrap();
        assert_eq!(&source[start..end], "@");

        // Display output is unchanged by the span addition.
        assert_eq!(
            parse_module("module M {\n  var x: unknown;\n}")
                .unwrap_err()
                .to_string(),
            "line 2: unknown type `unknown`"
        );
    }

    #[test]
    fn a_bad_assignment_target_is_reported_at_its_first_token() {
        for (source, target) in [
            ("module M {\n  method m() {\n    5 := 1;\n  }\n}", "5"),
            ("module M {\n  method m() {\n    x.f := new();\n  }\n}", "x"),
        ] {
            let err = parse_module(source).unwrap_err();
            assert_eq!(err.line, 3, "{err}");
            let (start, end) = err.span.unwrap();
            assert_eq!(&source[start..end], target, "{err}");
        }
    }

    #[test]
    fn quoted_formulas_accept_the_program_spelling_of_equality() {
        let with_ensures = |ensures: &str| {
            parse_module(&format!(
                "module M {{ var x: int; method m() ensures \"{ensures}\" {{ }} }}"
            ))
            .unwrap()
        };
        assert_eq!(with_ensures("x == y"), with_ensures("x = y"));
    }

    #[test]
    fn nesting_is_read_to_the_cap_and_refused_past_it() {
        // The method body is one level, so `n` levels leave `n - 1` inside it.
        for (n, read) in [(MAX_NESTING, true), (MAX_NESTING + 1, false)] {
            let inside = n - 1;
            for body in [
                format!(
                    "{}skip;{}",
                    "if (x > 0) { ".repeat(inside),
                    " }".repeat(inside)
                ),
                // Each `else if` is a level, and so is the last one's block.
                format!(
                    "if (x > 0) {{ }}{}",
                    " else if (x > 0) { }".repeat(inside - 1)
                ),
                format!(
                    "{}note N: \"true\";{}",
                    "localize L: \"true\" { ".repeat(inside),
                    " }".repeat(inside)
                ),
                format!("x := {}y{};", "(".repeat(inside), ")".repeat(inside)),
                format!("x := {}y;", "- ".repeat(inside)),
                format!("x := {};", vec!["y"; n].join(" + ")),
                format!("x := y{};", ".f".repeat(inside)),
            ] {
                let source = format!("module M {{\n  method m() {{\n    {body}\n  }}\n}}");
                match parse_module(&source) {
                    Ok(_) => assert!(read, "{n} levels read: {body}"),
                    Err(e) => {
                        assert!(!read, "{n} levels refused: {body}: {e}");
                        assert_eq!(
                            (e.message.as_str(), e.line),
                            ("nested deeper than 64 levels", 3)
                        );
                        assert!(e.span.is_some());
                    }
                }
            }
        }
    }
}
