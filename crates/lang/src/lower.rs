//! Lowering of surface modules into extended guarded commands.
//!
//! Each method becomes one [`Ext`] command that assumes the precondition,
//! class invariants and `vardef` definitions, executes the lowered body, and
//! asserts the postcondition and invariants — exactly the verification
//! condition structure described in Section 3 of the paper.  The lowering
//! also:
//!
//! * models field assignment as function update and array assignment as
//!   update of the global array state,
//! * maintains `vardef` specification variables as ghost state (re-havocked
//!   and re-defined whenever a concrete dependency changes), keeping the
//!   `content_def`-style named facts available for `from` clauses,
//! * desugars calls into `assert pre ; havoc(modifies) ; assume post`,
//! * snapshots `old` state at method entry, and
//! * keeps every proof statement as the parser built it, declaring the
//!   variables its binders introduce and rewriting its formulas in place
//!   as any other formula of the method.

use crate::ast::{Method, Module, Stmt, Type};
use ipl_gcl::cmd::{ConstructCounts, Ext, Proof};
use ipl_logic::normal::eliminate_old;
use ipl_logic::subst::{free_vars, substitute};
use ipl_logic::{Form, Labeled, Sort, SortEnv};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Lowering error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lowering error: {}", self.message)
    }
}

impl std::error::Error for LowerError {}

/// A lowered method: the verification command plus statistics.
#[derive(Debug, Clone)]
pub struct LoweredMethod {
    /// Method name.
    pub name: String,
    /// The extended guarded command encoding the whole method obligation.
    pub command: Ext,
    /// Proof-construct counts (Table 1 columns).
    pub counts: ConstructCounts,
    /// Sort environment for this method (module environment plus locals).
    pub env: SortEnv,
}

/// A lowered module.
#[derive(Debug, Clone)]
pub struct LoweredModule {
    /// Module-level sort environment.
    pub env: SortEnv,
    /// Lowered methods.
    pub methods: Vec<LoweredMethod>,
}

/// Lowers every method of a module.
pub fn lower_module(module: &Module) -> Result<LoweredModule, LowerError> {
    let env = module_env(module);
    let mut methods = Vec::new();
    for method in &module.methods {
        methods.push(lower_method(module, method, &env)?);
    }
    Ok(LoweredModule { env, methods })
}

/// Builds the sort environment of a module.
pub fn module_env(module: &Module) -> SortEnv {
    let mut env = SortEnv::new();
    env.declare_var("arrayState", Sort::obj_array_state());
    env.declare_var("intArrayState", Sort::int_array_state());
    env.declare_var("alloc", Sort::obj_set());
    env.declare_fun(
        "reach",
        vec![Sort::obj_field(), Sort::Obj, Sort::Obj],
        Sort::Bool,
    );
    env.declare_fun("arraylength", vec![Sort::Obj], Sort::Int);
    for (name, ty) in &module.state_vars {
        env.declare_var(name.clone(), ty.sort());
    }
    for (name, ty) in &module.fields {
        env.declare_var(name.clone(), Sort::Fn(vec![Sort::Obj], Box::new(ty.sort())));
    }
    for (name, sort) in &module.specvars {
        env.declare_var(name.clone(), sort.clone());
    }
    env
}

/// The state of one method lowering.
struct Lowerer<'a> {
    module: &'a Module,
    env: SortEnv,
    /// Names of `intarray`-typed variables (their reads/writes go through
    /// `intArrayState`).
    int_arrays: BTreeSet<String>,
    /// The variables that can change during the method: `old(v)` of one
    /// of them reads its snapshot, and `old(v)` of any other is `v`.
    mutable: BTreeSet<String>,
    /// The snapshot of each mutable variable read under `old(...)`, made
    /// the first time [`Lowerer::fix_form`] meets one.
    old_map: BTreeMap<String, String>,
    /// Fresh-name counter.
    counter: usize,
}

impl<'a> Lowerer<'a> {
    fn fresh(&mut self, stem: &str) -> String {
        self.counter += 1;
        format!("{stem}__{}", self.counter)
    }

    /// Applies `old` elimination and int-array rewriting to a specification
    /// formula or program expression.  `old(v)` means `v`'s value at method
    /// entry wherever it is written, so the first `old(v)` of a mutable `v`
    /// declares the snapshot `v_old`.
    fn fix_form(&mut self, form: &Form) -> Form {
        let renamed = eliminate_old(form, &mut |v| {
            if !self.mutable.contains(v) {
                return v.to_string();
            }
            let env = &mut self.env;
            let snapshot = self.old_map.entry(v.to_string()).or_insert_with(|| {
                let snapshot = format!("{v}_old");
                if let Some(sort) = env.var_sort(v).cloned() {
                    env.declare_var(snapshot.clone(), sort);
                }
                snapshot
            });
            snapshot.clone()
        });
        self.rewrite_arrays(&renamed)
    }

    /// Redirects reads of `intarray` variables through `intArrayState`.
    fn rewrite_arrays(&self, form: &Form) -> Form {
        let rewritten = form.map_children(|c| self.rewrite_arrays(c));
        if let Form::ArrayRead(state, arr, idx) = &rewritten {
            if matches!(state.as_ref(), Form::Var(s) if s == "arrayState") {
                if let Form::Var(name) = arr.as_ref() {
                    if self.int_arrays.contains(name) {
                        return Form::array_read(
                            Form::var("intArrayState"),
                            (**arr).clone(),
                            (**idx).clone(),
                        );
                    }
                }
            }
        }
        rewritten
    }

    /// The vardef-dependency maintenance commands to emit after `changed`
    /// concrete variables have been assigned or havocked.
    fn vardef_updates(&self, changed: &[String], skip: &BTreeSet<String>) -> Vec<Ext> {
        let mut out = Vec::new();
        for (specvar, definition) in &self.module.vardefs {
            if skip.contains(specvar) {
                continue;
            }
            let definition = self.rewrite_arrays(definition);
            let deps = free_vars(&definition);
            if changed.iter().any(|c| deps.contains(c)) {
                out.push(Ext::Havoc(vec![specvar.clone()], None));
                out.push(Ext::assume(
                    format!("{specvar}_def"),
                    Form::eq(Form::var(specvar.clone()), definition),
                ));
            }
        }
        out
    }

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<Ext, LowerError> {
        let mut out = Vec::new();
        for stmt in stmts {
            out.push(self.lower_stmt(stmt)?);
        }
        Ok(Ext::seq(out))
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<Ext, LowerError> {
        match stmt {
            Stmt::Skip => Ok(Ext::Skip),
            Stmt::VarDecl(name, ty, init) => {
                self.env.declare_var(name.clone(), ty.sort());
                if *ty == Type::IntArray {
                    self.int_arrays.insert(name.clone());
                }
                match init {
                    Some(value) => Ok(self.assign(name, value)),
                    None => Ok(Ext::Skip),
                }
            }
            Stmt::Assign(name, value) => Ok(self.assign(name, value)),
            Stmt::FieldAssign {
                field,
                object,
                value,
            } => {
                let updated = Form::field_write(
                    Form::var(field.clone()),
                    self.fix_form(object),
                    self.fix_form(value),
                );
                Ok(Ext::seq(
                    std::iter::once(Ext::Assign(field.clone(), updated))
                        .chain(self.vardef_updates(std::slice::from_ref(field), &BTreeSet::new()))
                        .collect::<Vec<_>>(),
                ))
            }
            Stmt::ArrayAssign {
                array,
                index,
                value,
            } => {
                let state = match array {
                    Form::Var(name) if self.int_arrays.contains(name) => "intArrayState",
                    _ => "arrayState",
                };
                let updated = Form::array_write(
                    Form::var(state),
                    self.fix_form(array),
                    self.fix_form(index),
                    self.fix_form(value),
                );
                Ok(Ext::seq(
                    std::iter::once(Ext::Assign(state.to_string(), updated))
                        .chain(self.vardef_updates(&[state.to_string()], &BTreeSet::new()))
                        .collect::<Vec<_>>(),
                ))
            }
            Stmt::New(target) => {
                let mut freshness = vec![
                    Form::neq(Form::var(target.clone()), Form::Null),
                    Form::not(Form::elem(Form::var(target.clone()), Form::var("alloc"))),
                ];
                for (field, ty) in &self.module.fields {
                    let default = match ty {
                        Type::Int => Form::int(0),
                        Type::Bool => Form::FALSE,
                        _ => Form::Null,
                    };
                    freshness.push(Form::eq(
                        Form::field_read(Form::var(field.clone()), Form::var(target.clone())),
                        default,
                    ));
                }
                let alloc_update = Ext::Assign(
                    "alloc".to_string(),
                    Form::Union(
                        std::sync::Arc::new(Form::var("alloc")),
                        std::sync::Arc::new(Form::FiniteSet(vec![Form::var(target.clone())])),
                    ),
                );
                let mut cmds = vec![
                    Ext::Havoc(vec![target.clone()], None),
                    Ext::assume("new_object", Form::and(freshness)),
                    alloc_update,
                ];
                cmds.extend(self.vardef_updates(&["alloc".to_string()], &BTreeSet::new()));
                Ok(Ext::seq(cmds))
            }
            Stmt::Ghost(name, value) => Ok(Ext::Assign(name.clone(), self.fix_form(value))),
            Stmt::Call {
                target,
                method,
                args,
            } => self.lower_call(target.as_deref(), method, args),
            Stmt::If(cond, then_branch, else_branch) => Ok(Ext::If(
                self.fix_form(cond),
                Box::new(self.lower_stmts(then_branch)?),
                Box::new(self.lower_stmts(else_branch)?),
            )),
            Stmt::While {
                cond,
                invariants,
                body,
            } => {
                let invariant = Form::and(invariants.iter().map(|i| self.fix_form(i)));
                Ok(Ext::Loop {
                    invariant: Labeled::new("LoopInv", invariant),
                    before: Box::new(Ext::Skip),
                    cond: self.fix_form(cond),
                    body: Box::new(self.lower_stmts(body)?),
                })
            }
            Stmt::Assert { label, form, from } => Ok(Ext::Assert {
                fact: Labeled::new(
                    label.clone().unwrap_or_else(|| "Assert".to_string()),
                    self.fix_form(form),
                ),
                from: from.clone(),
            }),
            Stmt::Assume { label, form } => Ok(Ext::assume(
                label.clone().unwrap_or_else(|| "Assume".to_string()),
                self.fix_form(form),
            )),
            Stmt::Fix {
                vars,
                such_that,
                label,
                goal,
                body,
            } => {
                for (name, sort) in vars {
                    self.env.declare_var(name.clone(), sort.clone());
                }
                Ok(Ext::Fix {
                    vars: vars.clone(),
                    such_that: self.fix_form(such_that),
                    body: Box::new(self.lower_stmts(body)?),
                    label: label.clone(),
                    goal: self.fix_form(goal),
                })
            }
            Stmt::Proof(proof) => {
                proof.for_each(&mut |construct| match construct {
                    Proof::PickWitness { vars, .. } | Proof::PickAny { vars, .. } => {
                        for (name, sort) in vars {
                            self.env.declare_var(name.clone(), sort.clone());
                        }
                    }
                    Proof::Induct { var, .. } => self.env.declare_var(var.clone(), Sort::Int),
                    _ => {}
                });
                let mut proof = proof.clone();
                proof.for_each_form_mut(&mut |form| *form = self.fix_form(form));
                Ok(Ext::Proof(proof))
            }
        }
    }

    fn assign(&mut self, name: &str, value: &Form) -> Ext {
        let value = self.fix_form(value);
        let mut cmds = vec![Ext::Assign(name.to_string(), value)];
        cmds.extend(self.vardef_updates(&[name.to_string()], &BTreeSet::new()));
        Ext::seq(cmds)
    }

    fn lower_call(
        &mut self,
        target: Option<&str>,
        callee_name: &str,
        args: &[Form],
    ) -> Result<Ext, LowerError> {
        let callee = self.module.method(callee_name).ok_or_else(|| LowerError {
            message: format!("call to unknown method `{callee_name}`"),
        })?;
        if args.len() != callee.params.len() {
            return Err(LowerError {
                message: format!(
                    "call to `{callee_name}` passes {} arguments but it declares {}",
                    args.len(),
                    callee.params.len()
                ),
            });
        }
        // Parameter and return-value substitution.
        let mut subst_map: HashMap<String, Form> = HashMap::new();
        for ((param, _), arg) in callee.params.iter().zip(args) {
            subst_map.insert(param.clone(), self.fix_form(arg));
        }
        let mut result_vars = Vec::new();
        for (i, (ret, ty)) in callee.returns.iter().enumerate() {
            let var = if i == 0 {
                match target {
                    Some(t) => t.to_string(),
                    None => self.fresh(&format!("{callee_name}_{ret}")),
                }
            } else {
                self.fresh(&format!("{callee_name}_{ret}"))
            };
            self.env.declare_var(var.clone(), ty.sort());
            subst_map.insert(ret.clone(), Form::var(var.clone()));
            result_vars.push(var);
        }

        let mut cmds = Vec::new();
        // Precondition, checked at the call: `old` in it means the
        // callee's entry state, which is the current one.
        let pre = Form::and(callee.requires.iter().map(|r| {
            let at_call = eliminate_old(r, &mut |v| v.to_string());
            substitute(&self.rewrite_arrays(&at_call), &subst_map)
        }));
        if !pre.is_true() {
            cmds.push(Ext::Assert {
                fact: Labeled::new(format!("{callee_name}_pre"), pre),
                from: None,
            });
        }
        // Snapshot the modified state for `old` references in the callee's
        // postcondition.
        let mut call_old: HashMap<String, String> = HashMap::new();
        for modified in &callee.modifies {
            let snapshot = self.fresh(&format!("{modified}_before"));
            if let Some(sort) = self.env.var_sort(modified).cloned() {
                self.env.declare_var(snapshot.clone(), sort);
            }
            cmds.push(Ext::assume(
                format!("{modified}_snapshot"),
                Form::eq(Form::var(snapshot.clone()), Form::var(modified.clone())),
            ));
            call_old.insert(modified.clone(), snapshot);
        }
        // Havoc the modified variables and the result variables.
        let mut havocked: Vec<String> = callee.modifies.clone();
        havocked.extend(result_vars);
        cmds.push(Ext::Havoc(havocked, None));
        // Postcondition.
        let post = Form::and(callee.ensures.iter().map(|e| {
            let rewritten = self.rewrite_arrays(e);
            let old_eliminated = eliminate_old(&rewritten, &mut |v| {
                call_old.get(v).cloned().unwrap_or_else(|| v.to_string())
            });
            substitute(&old_eliminated, &subst_map)
        }));
        cmds.push(Ext::assume(format!("{callee_name}_post"), post));
        // Re-establish vardef definitions for specification variables whose
        // concrete dependencies were modified but which the callee does not
        // itself describe.
        let skip: BTreeSet<String> = callee.modifies.iter().cloned().collect();
        cmds.extend(self.vardef_updates(&callee.modifies, &skip));
        Ok(Ext::seq(cmds))
    }
}

/// Collects every variable the method body can assign (directly, through a
/// heap or array write, an allocation, or a call's modifies clause), at any
/// depth of nesting.
fn collect_assigned_vars(stmts: &[Stmt], module: &Module, out: &mut BTreeSet<String>) {
    for stmt in stmts {
        match stmt {
            Stmt::VarDecl(name, _, _) | Stmt::Assign(name, _) | Stmt::Ghost(name, _) => {
                out.insert(name.clone());
            }
            Stmt::FieldAssign { field, .. } => {
                out.insert(field.clone());
            }
            Stmt::ArrayAssign { .. } => {
                // Which of the two array states changes depends on the array's
                // element type; include both (over-approximation is safe).
                out.insert("arrayState".to_string());
                out.insert("intArrayState".to_string());
            }
            Stmt::New(name) => {
                out.insert(name.clone());
                out.insert("alloc".to_string());
            }
            Stmt::Call { target, method, .. } => {
                out.extend(target.iter().cloned());
                if let Some(callee) = module.methods.iter().find(|m| &m.name == method) {
                    out.extend(callee.modifies.iter().cloned());
                }
            }
            Stmt::If(..)
            | Stmt::While { .. }
            | Stmt::Fix { .. }
            | Stmt::Assert { .. }
            | Stmt::Assume { .. }
            | Stmt::Proof(_)
            | Stmt::Skip => {}
        }
        for block in stmt.blocks() {
            collect_assigned_vars(block, module, out);
        }
    }
}

/// The variables whose value can differ between method entry and a later
/// program point: the modifies clause, everything assigned in the body, and
/// (transitively) every specification variable whose `vardef` depends on one
/// of those — the maintenance havocs re-assign them.
fn mutable_vars(method: &Method, module: &Module) -> BTreeSet<String> {
    let mut mutable: BTreeSet<String> = method.modifies.iter().cloned().collect();
    collect_assigned_vars(&method.body, module, &mut mutable);
    loop {
        let mut changed = false;
        for (specvar, definition) in &module.vardefs {
            if !mutable.contains(specvar)
                && free_vars(definition).iter().any(|v| mutable.contains(v))
            {
                mutable.insert(specvar.clone());
                changed = true;
            }
        }
        if !changed {
            return mutable;
        }
    }
}

/// Lowers one method into its verification command.
pub fn lower_method(
    module: &Module,
    method: &Method,
    module_env: &SortEnv,
) -> Result<LoweredMethod, LowerError> {
    let mut env = module_env.clone();
    for (name, ty) in method.params.iter().chain(method.returns.iter()) {
        env.declare_var(name.clone(), ty.sort());
    }

    let int_arrays: BTreeSet<String> = module
        .state_vars
        .iter()
        .chain(method.params.iter())
        .chain(method.returns.iter())
        .filter(|(_, ty)| *ty == Type::IntArray)
        .map(|(name, _)| name.clone())
        .collect();

    // Snapshot only variables that can actually change: for an immutable
    // variable `old(v)` is just `v`, and renaming it anyway would force every
    // `from` clause to name the bridging `v_old = v` assumption explicitly.
    let mut lowerer = Lowerer {
        module,
        env,
        int_arrays,
        mutable: mutable_vars(method, module),
        old_map: BTreeMap::new(),
        counter: 0,
    };

    let mut prologue = Vec::new();
    let requires = Form::and(method.requires.iter().map(|r| lowerer.fix_form(r)));
    if !requires.is_true() {
        prologue.push(Ext::assume("Precondition", requires));
    }
    for (name, invariant) in &module.invariants {
        prologue.push(Ext::assume(name.clone(), lowerer.rewrite_arrays(invariant)));
    }
    for (specvar, definition) in &module.vardefs {
        prologue.push(Ext::assume(
            format!("{specvar}_def"),
            Form::eq(
                Form::var(specvar.clone()),
                lowerer.rewrite_arrays(definition),
            ),
        ));
    }

    let body = lowerer.lower_stmts(&method.body)?;

    let mut epilogue = Vec::new();
    let ensures = Form::and(method.ensures.iter().map(|e| lowerer.fix_form(e)));
    if !ensures.is_true() {
        epilogue.push(Ext::Assert {
            fact: Labeled::new("Postcondition", ensures),
            from: None,
        });
    }
    for (name, invariant) in &module.invariants {
        epilogue.push(Ext::Assert {
            fact: Labeled::new(name.clone(), lowerer.rewrite_arrays(invariant)),
            from: None,
        });
    }

    // The snapshots are known once every formula of the method is lowered.
    for (var, snapshot) in &lowerer.old_map {
        prologue.push(Ext::assume(
            format!("old_{var}"),
            Form::eq(Form::var(snapshot.clone()), Form::var(var.clone())),
        ));
    }

    let command = Ext::seq(
        prologue
            .into_iter()
            .chain(std::iter::once(body))
            .chain(epilogue)
            .collect::<Vec<_>>(),
    );
    let counts = command.count_constructs();
    Ok(LoweredMethod {
        name: method.name.clone(),
        command,
        counts,
        env: lowerer.env,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    const SOURCE: &str = r#"
        module Stack {
          var size: int;
          var elements: objarray;
          specvar content: set<int * obj>;
          vardef content = "{(i, n) : int * obj | 0 <= i & i < size & n = elements[i]}";
          specvar csize: int;
          vardef csize = "size";
          invariant SizeNonNeg: "0 <= size";

          method push(o: obj)
            modifies content, csize, size, arrayState
            ensures "csize = old(csize) + 1 & (old(csize), o) in content"
          {
            elements[size] := o;
            size := size + 1;
            note Grew: "size = old(size) + 1" from assign_size, old_size;
          }

          method helper()
            modifies size
            ensures "size = old(size)"
          {
            skip;
          }

          method caller()
            modifies size
          {
            call helper();
          }
        }
    "#;

    #[test]
    fn lowers_module_and_builds_environment() {
        let module = parse_module(SOURCE).unwrap();
        let lowered = lower_module(&module).unwrap();
        assert_eq!(lowered.methods.len(), 3);
        assert_eq!(lowered.env.var_sort("size"), Some(&Sort::Int));
        assert_eq!(lowered.env.var_sort("content"), Some(&Sort::int_obj_set()));
        assert_eq!(
            lowered.env.var_sort("arrayState"),
            Some(&Sort::obj_array_state())
        );
    }

    #[test]
    fn push_updates_vardefs_after_each_assignment() {
        let module = parse_module(SOURCE).unwrap();
        let lowered = lower_module(&module).unwrap();
        let push = &lowered.methods[0];
        let text = format!("{:?}", push.command);
        assert!(
            text.contains("content_def"),
            "content definition re-established"
        );
        assert!(
            text.contains("csize_def"),
            "csize definition re-established"
        );
        assert!(
            text.contains("ArrayWrite"),
            "array assignment modelled as state update"
        );
        assert_eq!(push.counts.note, 1);
        assert_eq!(push.counts.note_with_from, 1);
    }

    #[test]
    fn old_references_are_snapshotted() {
        let module = parse_module(SOURCE).unwrap();
        let lowered = lower_module(&module).unwrap();
        let push = &lowered.methods[0];
        let text = format!("{:?}", push.command);
        assert!(
            text.contains("csize_old"),
            "old(csize) handled via snapshot: {text}"
        );
        assert!(!text.contains("Old("), "no unresolved old() remains");
    }

    #[test]
    fn every_formula_of_every_proof_statement_is_rewritten() {
        let source = r#"
            module M {
              var x: int;
              method m() modifies x {
                x := x + 1;
                note A: "old(x) < x";
                localize B: "old(x) < x" { note B1: "0 <= old(x) | old(x) < 0"; }
                assuming H: "0 <= old(x)" show C: "old(x) < x" { note C1: "old(x) < x"; }
                mp D: "0 <= old(x) --> old(x) < x";
                cases "old(x) < 0", "0 <= old(x)" for E: "old(x) < x";
                showedCase 1 of F: "old(x) < x | x < old(x)";
                byContradiction G: "old(x) < x" { contradiction G1: "x <= old(x)"; }
                instantiate I: "forall n:int. n < x | old(x) < n" with "old(x)";
                witness "old(x)" for J: "exists n:int. n = old(x)";
                pickWitness w: int for K: "w = old(x)" show L: "old(x) < x" { note L1: "w = old(x)"; }
                pickAny a: obj show P: "old(x) < x" { note P1: "old(x) < x"; }
                induct Q: "0 <= n | n < old(x)" over n { note Q1: "old(x) < x"; }
              }
            }
        "#;
        let module = parse_module(source).unwrap();
        let lowered = lower_module(&module).unwrap().methods.remove(0);
        let text = format!("{:?}", lowered.command);
        assert!(!text.contains("Old("), "every old() is resolved: {text}");
        assert_eq!(lowered.counts.total_proof_statements(), 18);
        for (binder, sort) in [("w", Sort::Int), ("a", Sort::Obj), ("n", Sort::Int)] {
            assert_eq!(lowered.env.var_sort(binder), Some(&sort), "{binder}");
        }
    }

    #[test]
    fn calls_are_desugared_into_contract_reasoning() {
        let module = parse_module(SOURCE).unwrap();
        let lowered = lower_module(&module).unwrap();
        let caller = lowered.methods.iter().find(|m| m.name == "caller").unwrap();
        let text = format!("{:?}", caller.command);
        assert!(text.contains("helper_post"), "callee postcondition assumed");
        assert!(
            text.contains("size_before") || text.contains("size_snapshot"),
            "modified state snapshotted for old(): {text}"
        );
    }

    #[test]
    fn unknown_callee_is_an_error() {
        let source = r#"
            module M {
              var x: int;
              method m() { call missing(); }
            }
        "#;
        let module = parse_module(source).unwrap();
        let err = lower_module(&module).unwrap_err();
        assert!(err.message.contains("unknown method"));
    }

    #[test]
    fn a_condition_in_formula_syntax_lowers_like_program_syntax() {
        let lowered = |cond: &str| {
            let source = format!(
                "module M {{ var x: int; var y: int; var z: int;
                   method m() modifies x {{ if ({cond}) {{ x := 1; }} }} }}"
            );
            let module = parse_module(&source).unwrap();
            lower_module(&module).unwrap().methods.remove(0).command
        };
        assert_eq!(lowered("x = y & 0 < z"), lowered("x == y && 0 < z"));
    }

    #[test]
    fn strip_proofs_removes_notes_but_keeps_code() {
        let module = parse_module(SOURCE).unwrap();
        let lowered = lower_module(&module).unwrap();
        let push = &lowered.methods[0];
        let stripped = push.command.strip_proofs();
        assert_eq!(stripped.count_constructs().note, 0);
        assert!(format!("{stripped:?}").contains("ArrayWrite"));
    }
}
