//! Abstract syntax of the surface language.
//!
//! Program expressions are logic formulas ([`ipl_logic::Form`]), read by the
//! formula grammar itself: the imperative code and the specification logic
//! share one term language, which is what makes the integration of code and
//! proofs seamless (the same terms appear in assignments, conditions,
//! contracts and proof commands).  Proof statements are
//! [`ipl_gcl::Proof`] values, the type translation reads, so each construct
//! is spelled once from the parser to Figure 8.

use ipl_gcl::Proof;
use ipl_logic::{Form, Sort};
use serde::{Deserialize, Serialize};

/// Program-level types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Type {
    /// Mathematical integers (Java `int` without overflow, as in Jahob).
    Int,
    /// Booleans.
    Bool,
    /// Object references.
    Obj,
    /// Arrays of object references.
    ObjArray,
    /// Arrays of integers.
    IntArray,
}

impl Type {
    /// The logic sort of values of this type.
    pub fn sort(self) -> Sort {
        match self {
            Type::Int => Sort::Int,
            Type::Bool => Sort::Bool,
            Type::Obj | Type::ObjArray | Type::IntArray => Sort::Obj,
        }
    }
}

/// A module: the unit of verification (the counterpart of a Java class).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Concrete state variables.
    pub state_vars: Vec<(String, Type)>,
    /// Heap fields of node objects (function-valued).
    pub fields: Vec<(String, Type)>,
    /// Specification variables with their sorts.
    pub specvars: Vec<(String, Sort)>,
    /// Abstraction functions: `vardef name = "definition"`.
    pub vardefs: Vec<(String, Form)>,
    /// Named class invariants.
    pub invariants: Vec<(String, Form)>,
    /// Methods.
    pub methods: Vec<Method>,
}

impl Module {
    /// Looks up a method by name.
    pub fn method(&self, name: &str) -> Option<&Method> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// The definition of a specification variable, if it has one.
    pub fn vardef(&self, name: &str) -> Option<&Form> {
        self.vardefs.iter().find(|(n, _)| n == name).map(|(_, f)| f)
    }

    /// Number of executable statements across all methods (the "Java
    /// Statements" column of Table 1).
    pub fn statement_count(&self) -> usize {
        self.methods.iter().map(|m| count_stmts(&m.body)).sum()
    }
}

fn count_stmts(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .map(|stmt| {
            let own = match stmt {
                Stmt::Proof(_)
                | Stmt::Fix { .. }
                | Stmt::Assert { .. }
                | Stmt::Assume { .. }
                | Stmt::Ghost(..) => 0,
                _ => 1,
            };
            own + stmt.blocks().into_iter().map(count_stmts).sum::<usize>()
        })
        .sum()
}

/// A method with its contract.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Method {
    /// Method name.
    pub name: String,
    /// Parameters.
    pub params: Vec<(String, Type)>,
    /// Named return values.
    pub returns: Vec<(String, Type)>,
    /// Preconditions (conjoined).
    pub requires: Vec<Form>,
    /// Names of state variables (concrete or specification) the method may
    /// modify.
    pub modifies: Vec<String>,
    /// Postconditions (conjoined).
    pub ensures: Vec<Form>,
    /// The body.
    pub body: Vec<Stmt>,
}

impl Method {
    /// Calls `f` with the callee of every `call` in the body, in source
    /// order and once per call site, including the calls inside `if`,
    /// `while` and `fix` bodies: every call whose contract lowering reads.
    pub fn for_each_callee(&self, mut f: impl FnMut(&str)) {
        fn walk(stmts: &[Stmt], f: &mut impl FnMut(&str)) {
            for stmt in stmts {
                if let Stmt::Call { method, .. } = stmt {
                    f(method);
                }
                for block in stmt.blocks() {
                    walk(block, f);
                }
            }
        }
        walk(&self.body, &mut f);
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stmt {
    /// Local variable declaration with optional initialiser.
    VarDecl(String, Type, Option<Form>),
    /// Assignment to a local or state variable.
    Assign(String, Form),
    /// Heap field assignment `obj.field := value`.
    FieldAssign {
        /// The field name.
        field: String,
        /// The object expression.
        object: Form,
        /// The assigned value.
        value: Form,
    },
    /// Array element assignment `array[index] := value`.
    ArrayAssign {
        /// The array expression.
        array: Form,
        /// The index expression.
        index: Form,
        /// The assigned value.
        value: Form,
    },
    /// Allocation `target := new();` — a fresh, non-null object whose fields
    /// are default-initialised, added to the `alloc` specification set.
    New(String),
    /// Ghost assignment to a specification variable.
    Ghost(String, Form),
    /// Procedure call `[target :=] call method(args);`.
    Call {
        /// Optional variable receiving the (first) return value.
        target: Option<String>,
        /// Callee name (within the same module).
        method: String,
        /// Argument expressions.
        args: Vec<Form>,
    },
    /// Conditional.
    If(Form, Vec<Stmt>, Vec<Stmt>),
    /// While loop with invariants.
    While {
        /// Loop condition.
        cond: Form,
        /// Loop invariants (conjoined, labelled `LoopInv`).
        invariants: Vec<Form>,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `assert "F" [from ...];`
    Assert {
        /// Optional label.
        label: Option<String>,
        /// The asserted formula.
        form: Form,
        /// Optional assumption-base restriction.
        from: Option<Vec<String>>,
    },
    /// `assume "F";` (trusted).
    Assume {
        /// Optional label.
        label: Option<String>,
        /// The assumed formula.
        form: Form,
    },
    /// A proof-language statement; a `{ … }` proof block is the
    /// [`Proof::seq`] of its statements.
    Proof(Proof),
    /// `fix x: obj suchThat "F" show L: "G" { ...statements... }`, the
    /// proof construct that encloses code (Appendix B).
    Fix {
        /// Fixed variables with sorts.
        vars: Vec<(String, Sort)>,
        /// The constraint.
        such_that: Form,
        /// Fact name.
        label: String,
        /// The goal.
        goal: Form,
        /// The enclosed statements (may modify program state).
        body: Vec<Stmt>,
    },
    /// `skip;`
    Skip,
}

impl Stmt {
    /// The statement lists this statement holds: both branches of an `if`,
    /// and the body of a `while` or a `fix`.  Every walk over a method body
    /// recurses through this one definition of nesting.
    pub fn blocks(&self) -> [&[Stmt]; 2] {
        match self {
            Stmt::If(_, then_branch, else_branch) => [then_branch, else_branch],
            Stmt::While { body, .. } | Stmt::Fix { body, .. } => [body, &[]],
            _ => [&[], &[]],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipl_logic::parser::parse_form;

    #[test]
    fn types_map_to_sorts() {
        assert_eq!(Type::Int.sort(), Sort::Int);
        assert_eq!(Type::Bool.sort(), Sort::Bool);
        assert_eq!(Type::Obj.sort(), Sort::Obj);
        assert_eq!(Type::ObjArray.sort(), Sort::Obj);
    }

    #[test]
    fn statement_count_ignores_specifications() {
        let module = Module {
            name: "M".into(),
            state_vars: vec![("x".into(), Type::Int)],
            fields: vec![],
            specvars: vec![],
            vardefs: vec![],
            invariants: vec![],
            methods: vec![Method {
                name: "m".into(),
                params: vec![],
                returns: vec![],
                requires: vec![],
                modifies: vec!["x".into()],
                ensures: vec![],
                body: vec![
                    Stmt::Assign("x".into(), parse_form("x + 1").unwrap()),
                    Stmt::Proof(Proof::note("L", parse_form("x = x").unwrap())),
                    Stmt::If(
                        parse_form("x < 10").unwrap(),
                        vec![Stmt::Assign("x".into(), parse_form("0").unwrap())],
                        vec![],
                    ),
                    // A `fix` is a proof construct, but the code it encloses
                    // counts, as a loop body does.
                    Stmt::Fix {
                        vars: vec![("k".into(), Sort::Int)],
                        such_that: parse_form("k = x").unwrap(),
                        label: "Kept".into(),
                        goal: parse_form("k < x").unwrap(),
                        body: vec![
                            Stmt::Assign("x".into(), parse_form("x + 1").unwrap()),
                            Stmt::Assert {
                                label: None,
                                form: parse_form("k < x").unwrap(),
                                from: None,
                            },
                        ],
                    },
                ],
            }],
        };
        assert_eq!(module.statement_count(), 4);
        assert!(module.method("m").is_some());
        assert!(module.method("absent").is_none());
    }
}
