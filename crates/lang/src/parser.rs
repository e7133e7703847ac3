//! Parser for the annotated surface language.
//!
//! Specification formulas appear between double quotes and are parsed with
//! [`ipl_logic::parser::parse_form`]; everything else (declarations,
//! statements, program expressions) is parsed here.  Program expressions are
//! lowered directly to [`Form`] terms.

use crate::ast::{Method, Module, ProofStmt, Stmt, Type};
use ipl_logic::parser::parse_form;
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
    let tokens = lex(source)?;
    let mut p = P { tokens, pos: 0 };
    let module = p.module()?;
    p.expect_eof()?;
    Ok(module)
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    Punct(&'static str),
    Eof,
}

#[derive(Debug, Clone)]
struct Sp {
    tok: Tok,
    line: usize,
    /// Byte offset of the token's first character.
    start: usize,
    /// Byte offset one past the token's last character.
    end: usize,
}

const PUNCTS: &[&str] = &[
    ":=", "==", "!=", "<=", ">=", "&&", "||", "(", ")", "{", "}", "[", "]", ",", ";", ":", ".",
    "<", ">", "=", "+", "-", "*", "!",
];

fn lex(source: &str) -> Result<Vec<Sp>, LangError> {
    let bytes = source.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    'outer: while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if source[i..].starts_with("//") {
            while i < bytes.len() && bytes[i] as char != '\n' {
                i += 1;
            }
            continue;
        }
        if source[i..].starts_with("/*") {
            while i < bytes.len() && !source[i..].starts_with("*/") {
                if bytes[i] as char == '\n' {
                    line += 1;
                }
                i += 1;
            }
            i += 2.min(bytes.len() - i);
            continue;
        }
        if c == '"' {
            let open = i;
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && bytes[j] as char != '"' {
                if bytes[j] as char == '\n' {
                    line += 1;
                }
                j += 1;
            }
            if j >= bytes.len() {
                return Err(LangError {
                    message: "unterminated string".into(),
                    line,
                    span: Some((open, bytes.len())),
                });
            }
            out.push(Sp {
                tok: Tok::Str(source[start..j].to_string()),
                line,
                start: open,
                end: j + 1,
            });
            i = j + 1;
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let value: i64 = source[start..i].parse().map_err(|_| LangError {
                message: format!("integer out of range: {}", &source[start..i]),
                line,
                span: Some((start, i)),
            })?;
            out.push(Sp {
                tok: Tok::Int(value),
                line,
                start,
                end: i,
            });
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() {
                let ch = bytes[i] as char;
                if ch.is_ascii_alphanumeric() || ch == '_' {
                    i += 1;
                } else {
                    break;
                }
            }
            out.push(Sp {
                tok: Tok::Ident(source[start..i].to_string()),
                line,
                start,
                end: i,
            });
            continue;
        }
        for p in PUNCTS {
            if source[i..].starts_with(p) {
                out.push(Sp {
                    tok: Tok::Punct(p),
                    line,
                    start: i,
                    end: i + p.len(),
                });
                i += p.len();
                continue 'outer;
            }
        }
        return Err(LangError {
            message: format!("unexpected character {c:?}"),
            line,
            span: Some((i, i + c.len_utf8())),
        });
    }
    out.push(Sp {
        tok: Tok::Eof,
        line,
        start: bytes.len(),
        end: bytes.len(),
    });
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct P {
    tokens: Vec<Sp>,
    pos: usize,
}

impl P {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn span(&self) -> (usize, usize) {
        let sp = &self.tokens[self.pos];
        (sp.start, sp.end)
    }

    fn err(&self, message: impl Into<String>) -> LangError {
        LangError {
            message: message.into(),
            line: self.line(),
            span: Some(self.span()),
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), LangError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{p}`, found {:?}", self.peek())))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(name) if name == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), LangError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, LangError> {
        match self.bump() {
            Tok::Ident(name) => Ok(name),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn formula(&mut self) -> Result<Form, LangError> {
        let line = self.line();
        let span = self.span();
        match self.bump() {
            Tok::Str(text) => parse_form(&text).map_err(|e| LangError {
                message: format!("in formula {text:?}: {e}"),
                line,
                span: Some(span),
            }),
            other => Err(self.err(format!("expected a quoted formula, found {other:?}"))),
        }
    }

    fn expect_eof(&mut self) -> Result<(), LangError> {
        if matches!(self.peek(), Tok::Eof) {
            Ok(())
        } else {
            Err(self.err(format!("trailing input: {:?}", self.peek())))
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(name) if name == kw)
    }

    // -----------------------------------------------------------------------
    // Declarations
    // -----------------------------------------------------------------------

    fn module(&mut self) -> Result<Module, LangError> {
        self.expect_kw("module")?;
        let name = self.ident()?;
        self.expect_punct("{")?;
        let mut module = Module {
            name,
            state_vars: Vec::new(),
            fields: Vec::new(),
            specvars: Vec::new(),
            vardefs: Vec::new(),
            invariants: Vec::new(),
            methods: Vec::new(),
        };
        loop {
            if self.eat_punct("}") {
                break;
            }
            if self.eat_kw("var") {
                let name = self.ident()?;
                self.expect_punct(":")?;
                let ty = self.ty()?;
                self.expect_punct(";")?;
                module.state_vars.push((name, ty));
            } else if self.eat_kw("field") {
                let name = self.ident()?;
                self.expect_punct(":")?;
                let ty = self.ty()?;
                self.expect_punct(";")?;
                module.fields.push((name, ty));
            } else if self.eat_kw("specvar") {
                let name = self.ident()?;
                self.expect_punct(":")?;
                let sort = self.sort()?;
                self.expect_punct(";")?;
                module.specvars.push((name, sort));
            } else if self.eat_kw("vardef") {
                let name = self.ident()?;
                self.expect_punct("=")?;
                let form = self.formula()?;
                self.expect_punct(";")?;
                module.vardefs.push((name, form));
            } else if self.eat_kw("invariant") {
                let name = self.ident()?;
                self.expect_punct(":")?;
                let form = self.formula()?;
                self.expect_punct(";")?;
                module.invariants.push((name, form));
            } else if self.peek_kw("method") {
                module.methods.push(self.method()?);
            } else {
                return Err(self.err(format!("unexpected token {:?} in module body", self.peek())));
            }
        }
        Ok(module)
    }

    fn ty(&mut self) -> Result<Type, LangError> {
        let line = self.line();
        let span = self.span();
        let name = self.ident()?;
        match name.as_str() {
            "int" => Ok(Type::Int),
            "bool" => Ok(Type::Bool),
            "obj" => Ok(Type::Obj),
            "objarray" => Ok(Type::ObjArray),
            "intarray" => Ok(Type::IntArray),
            other => Err(LangError {
                message: format!("unknown type `{other}`"),
                line,
                span: Some(span),
            }),
        }
    }

    fn sort(&mut self) -> Result<Sort, LangError> {
        let mut parts = vec![self.sort_atom()?];
        while self.eat_punct("*") {
            parts.push(self.sort_atom()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            Sort::Tuple(parts)
        })
    }

    fn sort_atom(&mut self) -> Result<Sort, LangError> {
        if self.eat_punct("(") {
            let s = self.sort()?;
            self.expect_punct(")")?;
            return Ok(s);
        }
        let line = self.line();
        let span = self.span();
        let name = self.ident()?;
        match name.as_str() {
            "int" => Ok(Sort::Int),
            "bool" => Ok(Sort::Bool),
            "obj" => Ok(Sort::Obj),
            "set" => {
                self.expect_punct("<")?;
                let elem = self.sort()?;
                self.expect_punct(">")?;
                Ok(Sort::Set(Box::new(elem)))
            }
            other => Err(LangError {
                message: format!("unknown sort `{other}`"),
                line,
                span: Some(span),
            }),
        }
    }

    fn method(&mut self) -> Result<Method, LangError> {
        self.expect_kw("method")?;
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                let pname = self.ident()?;
                self.expect_punct(":")?;
                let ty = self.ty()?;
                params.push((pname, ty));
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        let mut returns = Vec::new();
        if self.eat_kw("returns") {
            self.expect_punct("(")?;
            loop {
                let rname = self.ident()?;
                self.expect_punct(":")?;
                let ty = self.ty()?;
                returns.push((rname, ty));
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        let mut requires = Vec::new();
        let mut modifies = Vec::new();
        let mut ensures = Vec::new();
        loop {
            if self.eat_kw("requires") {
                requires.push(self.formula()?);
            } else if self.eat_kw("ensures") {
                ensures.push(self.formula()?);
            } else if self.eat_kw("modifies") {
                loop {
                    modifies.push(self.ident()?);
                    if !self.eat_punct(",") {
                        break;
                    }
                }
            } else {
                break;
            }
        }
        let body = self.block()?;
        Ok(Method {
            name,
            params,
            returns,
            requires,
            modifies,
            ensures,
            body,
        })
    }

    // -----------------------------------------------------------------------
    // Statements
    // -----------------------------------------------------------------------

    fn block(&mut self) -> Result<Vec<Stmt>, LangError> {
        self.expect_punct("{")?;
        let mut out = Vec::new();
        while !self.eat_punct("}") {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, LangError> {
        if self.eat_kw("skip") {
            self.expect_punct(";")?;
            return Ok(Stmt::Skip);
        }
        if self.eat_kw("var") {
            let name = self.ident()?;
            self.expect_punct(":")?;
            let ty = self.ty()?;
            let init = if self.eat_punct(":=") {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect_punct(";")?;
            return Ok(Stmt::VarDecl(name, ty, init));
        }
        if self.eat_kw("ghost") {
            let name = self.ident()?;
            self.expect_punct(":=")?;
            let form = self.formula()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Ghost(name, form));
        }
        if self.eat_kw("if") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let then_branch = self.block()?;
            let else_branch = if self.eat_kw("else") {
                if self.peek_kw("if") {
                    vec![self.stmt()?]
                } else {
                    self.block()?
                }
            } else {
                Vec::new()
            };
            return Ok(Stmt::If(cond, then_branch, else_branch));
        }
        if self.eat_kw("while") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let mut invariants = Vec::new();
            while self.eat_kw("invariant") {
                invariants.push(self.formula()?);
            }
            let body = self.block()?;
            return Ok(Stmt::While {
                cond,
                invariants,
                body,
            });
        }
        if self.eat_kw("assert") {
            let (label, form) = self.labeled_formula()?;
            let from = self.parse_from_clause()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Assert { label, form, from });
        }
        if self.eat_kw("assume") {
            let (label, form) = self.labeled_formula()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Assume { label, form });
        }
        if self.eat_kw("call") {
            let method = self.ident()?;
            let args = self.call_args()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Call {
                target: None,
                method,
                args,
            });
        }
        if let Some(proof) = self.proof_stmt()? {
            return Ok(Stmt::Proof(proof));
        }
        // Assignment forms.
        let lhs = self.postfix_expr()?;
        self.expect_punct(":=")?;
        if self.eat_kw("new") {
            self.expect_punct("(")?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return match lhs {
                Form::Var(name) => Ok(Stmt::New(name)),
                other => Err(self.err(format!("cannot allocate into {other}"))),
            };
        }
        if self.eat_kw("call") {
            let method = self.ident()?;
            let args = self.call_args()?;
            self.expect_punct(";")?;
            return match lhs {
                Form::Var(name) => Ok(Stmt::Call {
                    target: Some(name),
                    method,
                    args,
                }),
                other => Err(self.err(format!("cannot assign call result to {other}"))),
            };
        }
        let rhs = self.expr()?;
        self.expect_punct(";")?;
        match lhs {
            Form::Var(name) => Ok(Stmt::Assign(name, rhs)),
            Form::FieldRead(field, object) => match Form::take(field) {
                Form::Var(field) => Ok(Stmt::FieldAssign {
                    field,
                    object: Form::take(object),
                    value: rhs,
                }),
                other => Err(self.err(format!("invalid field in assignment: {other}"))),
            },
            Form::ArrayRead(_, array, index) => Ok(Stmt::ArrayAssign {
                array: Form::take(array),
                index: Form::take(index),
                value: rhs,
            }),
            other => Err(self.err(format!("invalid assignment target {other}"))),
        }
    }

    fn call_args(&mut self) -> Result<Vec<Form>, LangError> {
        self.expect_punct("(")?;
        let mut args = Vec::new();
        if !self.eat_punct(")") {
            loop {
                args.push(self.expr()?);
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        Ok(args)
    }

    /// `Label: "F"` or just `"F"`.
    fn labeled_formula(&mut self) -> Result<(Option<String>, Form), LangError> {
        if let Tok::Ident(_) = self.peek() {
            let label = self.ident()?;
            self.expect_punct(":")?;
            let form = self.formula()?;
            Ok((Some(label), form))
        } else {
            Ok((None, self.formula()?))
        }
    }

    fn parse_from_clause(&mut self) -> Result<Option<Vec<String>>, LangError> {
        if !self.eat_kw("from") {
            return Ok(None);
        }
        let mut names = vec![self.ident()?];
        while self.eat_punct(",") {
            names.push(self.ident()?);
        }
        Ok(Some(names))
    }

    // -----------------------------------------------------------------------
    // Proof statements
    // -----------------------------------------------------------------------

    fn proof_stmt(&mut self) -> Result<Option<ProofStmt>, LangError> {
        let keyword = match self.peek() {
            Tok::Ident(name) => name.clone(),
            _ => return Ok(None),
        };
        let proof = match keyword.as_str() {
            "note" => {
                self.bump();
                let label = self.ident()?;
                self.expect_punct(":")?;
                let form = self.formula()?;
                let from = self.parse_from_clause()?;
                self.expect_punct(";")?;
                ProofStmt::Note { label, form, from }
            }
            "localize" => {
                self.bump();
                let label = self.ident()?;
                self.expect_punct(":")?;
                let form = self.formula()?;
                let body = self.proof_block()?;
                ProofStmt::Localize { label, form, body }
            }
            "assuming" => {
                self.bump();
                let hyp_label = self.ident()?;
                self.expect_punct(":")?;
                let hyp = self.formula()?;
                self.expect_kw("show")?;
                let label = self.ident()?;
                self.expect_punct(":")?;
                let goal = self.formula()?;
                let body = self.proof_block()?;
                ProofStmt::Assuming {
                    hyp_label,
                    hyp,
                    label,
                    goal,
                    body,
                }
            }
            "mp" => {
                self.bump();
                let label = self.ident()?;
                self.expect_punct(":")?;
                let implication = self.formula()?;
                self.expect_punct(";")?;
                ProofStmt::Mp { label, implication }
            }
            "cases" => {
                self.bump();
                let mut cases = vec![self.formula()?];
                while self.eat_punct(",") {
                    cases.push(self.formula()?);
                }
                self.expect_kw("for")?;
                let label = self.ident()?;
                self.expect_punct(":")?;
                let goal = self.formula()?;
                self.expect_punct(";")?;
                ProofStmt::Cases { cases, label, goal }
            }
            "showedCase" => {
                self.bump();
                let index = match self.bump() {
                    Tok::Int(value) if value >= 1 => value as usize,
                    other => return Err(self.err(format!("expected case index, found {other:?}"))),
                };
                self.expect_kw("of")?;
                let label = self.ident()?;
                self.expect_punct(":")?;
                let disjunction = self.formula()?;
                self.expect_punct(";")?;
                ProofStmt::ShowedCase {
                    index,
                    label,
                    disjunction,
                }
            }
            "byContradiction" => {
                self.bump();
                let label = self.ident()?;
                self.expect_punct(":")?;
                let form = self.formula()?;
                let body = self.proof_block()?;
                ProofStmt::ByContradiction { label, form, body }
            }
            "contradiction" => {
                self.bump();
                let label = self.ident()?;
                self.expect_punct(":")?;
                let form = self.formula()?;
                self.expect_punct(";")?;
                ProofStmt::Contradiction { label, form }
            }
            "instantiate" => {
                self.bump();
                let label = self.ident()?;
                self.expect_punct(":")?;
                let forall = self.formula()?;
                self.expect_kw("with")?;
                let mut terms = vec![self.formula()?];
                while self.eat_punct(",") {
                    terms.push(self.formula()?);
                }
                self.expect_punct(";")?;
                ProofStmt::Instantiate {
                    label,
                    forall,
                    terms,
                }
            }
            "witness" => {
                self.bump();
                let mut terms = vec![self.formula()?];
                while self.eat_punct(",") {
                    terms.push(self.formula()?);
                }
                self.expect_kw("for")?;
                let label = self.ident()?;
                self.expect_punct(":")?;
                let exists = self.formula()?;
                self.expect_punct(";")?;
                ProofStmt::Witness {
                    terms,
                    label,
                    exists,
                }
            }
            "pickWitness" => {
                self.bump();
                let vars = self.binder_list()?;
                self.expect_kw("for")?;
                let hyp_label = self.ident()?;
                self.expect_punct(":")?;
                let hyp = self.formula()?;
                self.expect_kw("show")?;
                let label = self.ident()?;
                self.expect_punct(":")?;
                let goal = self.formula()?;
                let body = self.proof_block()?;
                ProofStmt::PickWitness {
                    vars,
                    hyp_label,
                    hyp,
                    label,
                    goal,
                    body,
                }
            }
            "pickAny" => {
                self.bump();
                let vars = self.binder_list()?;
                self.expect_kw("show")?;
                let label = self.ident()?;
                self.expect_punct(":")?;
                let goal = self.formula()?;
                let body = self.proof_block()?;
                ProofStmt::PickAny {
                    vars,
                    label,
                    goal,
                    body,
                }
            }
            "induct" => {
                self.bump();
                let label = self.ident()?;
                self.expect_punct(":")?;
                let form = self.formula()?;
                self.expect_kw("over")?;
                let var = self.ident()?;
                let body = self.proof_block()?;
                ProofStmt::Induct {
                    label,
                    form,
                    var,
                    body,
                }
            }
            "fix" => {
                self.bump();
                let vars = self.binder_list()?;
                self.expect_kw("suchThat")?;
                let such_that = self.formula()?;
                self.expect_kw("show")?;
                let label = self.ident()?;
                self.expect_punct(":")?;
                let goal = self.formula()?;
                let body = self.block()?;
                ProofStmt::Fix {
                    vars,
                    such_that,
                    label,
                    goal,
                    body,
                }
            }
            _ => return Ok(None),
        };
        Ok(Some(proof))
    }

    fn binder_list(&mut self) -> Result<Vec<(String, Sort)>, LangError> {
        let mut out = Vec::new();
        loop {
            let name = self.ident()?;
            self.expect_punct(":")?;
            let sort = self.sort()?;
            out.push((name, sort));
            if !self.eat_punct(",") {
                break;
            }
        }
        Ok(out)
    }

    fn proof_block(&mut self) -> Result<Vec<ProofStmt>, LangError> {
        self.expect_punct("{")?;
        let mut out = Vec::new();
        while !self.eat_punct("}") {
            match self.proof_stmt()? {
                Some(p) => out.push(p),
                None => {
                    return Err(self.err(format!(
                        "expected a proof statement, found {:?}",
                        self.peek()
                    )))
                }
            }
        }
        Ok(out)
    }

    // -----------------------------------------------------------------------
    // Program expressions (lowered directly to logic terms)
    // -----------------------------------------------------------------------

    fn expr(&mut self) -> Result<Form, LangError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Form, LangError> {
        let mut parts = vec![self.and_expr()?];
        while self.eat_punct("||") {
            parts.push(self.and_expr()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one")
        } else {
            Form::or(parts)
        })
    }

    fn and_expr(&mut self) -> Result<Form, LangError> {
        let mut parts = vec![self.not_expr()?];
        while self.eat_punct("&&") {
            parts.push(self.not_expr()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one")
        } else {
            Form::and(parts)
        })
    }

    fn not_expr(&mut self) -> Result<Form, LangError> {
        if self.eat_punct("!") {
            return Ok(Form::not(self.not_expr()?));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<Form, LangError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::Punct("==") => "==",
            Tok::Punct("!=") => "!=",
            Tok::Punct("<=") => "<=",
            Tok::Punct(">=") => ">=",
            Tok::Punct("<") => "<",
            Tok::Punct(">") => ">",
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(match op {
            "==" => Form::eq(lhs, rhs),
            "!=" => Form::neq(lhs, rhs),
            "<" => Form::lt(lhs, rhs),
            "<=" => Form::le(lhs, rhs),
            ">" => Form::lt(rhs, lhs),
            ">=" => Form::le(rhs, lhs),
            _ => unreachable!("operator list above"),
        })
    }

    fn add_expr(&mut self) -> Result<Form, LangError> {
        let mut lhs = self.mul_expr()?;
        loop {
            if self.eat_punct("+") {
                lhs = Form::add(lhs, self.mul_expr()?);
            } else if self.eat_punct("-") {
                lhs = Form::sub(lhs, self.mul_expr()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn mul_expr(&mut self) -> Result<Form, LangError> {
        let mut lhs = self.unary_expr()?;
        while self.eat_punct("*") {
            lhs = Form::mul(lhs, self.unary_expr()?);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Form, LangError> {
        if self.eat_punct("-") {
            return Ok(Form::neg(self.unary_expr()?));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Form, LangError> {
        let mut base = self.primary_expr()?;
        loop {
            if self.eat_punct(".") {
                let field = self.ident()?;
                base = Form::field_read(Form::var(field), base);
            } else if self.eat_punct("[") {
                let idx = self.expr()?;
                self.expect_punct("]")?;
                base = Form::array_read(Form::var("arrayState"), base, idx);
            } else {
                return Ok(base);
            }
        }
    }

    fn primary_expr(&mut self) -> Result<Form, LangError> {
        match self.bump() {
            Tok::Int(value) => Ok(Form::Int(value)),
            Tok::Ident(name) => match name.as_str() {
                "true" => Ok(Form::TRUE),
                "false" => Ok(Form::FALSE),
                "null" => Ok(Form::Null),
                _ => Ok(Form::Var(name)),
            },
            Tok::Punct("(") => {
                let inner = self.expr()?;
                self.expect_punct(")")?;
                Ok(inner)
            }
            other => Err(self.err(format!("unexpected token {other:?} in expression"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            Stmt::Proof(ProofStmt::Note { label, from, .. }) => {
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
            .filter(|s| matches!(s, Stmt::Proof(_) | Stmt::Assert { .. }))
            .count();
        assert_eq!(proof_count, 14);
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
}
