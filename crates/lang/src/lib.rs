//! # `ipl-lang` — the annotated imperative surface language
//!
//! The paper integrates its proof language into Java; this crate provides the
//! analogous imperative surface language for the reproduction.  A *module*
//! (the counterpart of a Java class, verified against its own fields, exactly
//! as Jahob verifies one instance's representation) declares:
//!
//! * concrete state variables (`var size: int;`, `var first: obj;`,
//!   `var elements: objarray;`),
//! * heap fields of node objects (`field next: obj;`), modelled as
//!   function-valued variables updated with function-update expressions,
//! * specification variables (`specvar content: set<int * obj>;`) with
//!   optional `vardef` abstraction functions,
//! * class invariants, and
//! * methods with `requires` / `modifies` / `ensures` contracts whose bodies
//!   mix ordinary statements with the **integrated proof language**
//!   statements (`note`, `localize`, `assuming`, `mp`, `cases`, `showedCase`,
//!   `byContradiction`, `contradiction`, `instantiate`, `witness`,
//!   `pickWitness`, `pickAny`, `induct`, `fix`).
//!
//! A proof statement is parsed straight into the [`ipl_gcl::Proof`] that
//! translation reads, so each construct has one representation from the
//! parser to Figure 8.  `fix` is the exception that encloses code: it is a
//! statement, [`Stmt::Fix`], whose body every walk over a method (statement
//! counts, callees, the variables `old` must snapshot) enters as it enters a
//! loop body, through [`Stmt::blocks`].
//!
//! Specification formulas are written between quotes in the ASCII syntax of
//! [`ipl_logic::parser`], mirroring Jahob's string annotations.  That
//! parser is also the one reader of the module text around them: the
//! [`parser`] here is only the module grammar, and program expressions are
//! read as formulas (`x == y && 0 < z` and `x = y & 0 < z` alike), so code,
//! specifications and proof steps share one term language.  `//` and
//! `/* … */` comments may appear anywhere outside quotes.
//!
//! The crate provides the [`parser`] for this language, the [`ast`], and the
//! [`lower`] pass that produces extended guarded commands (`ipl_gcl::Ext`)
//! per method, together with the method's sort environment and the
//! construct counts reported in Table 1 of the paper.
//!
//! ```
//! let source = r#"
//! module Counter {
//!   var value: int;
//!   invariant NonNeg: "0 <= value";
//!   method increment()
//!     modifies value
//!     ensures "value = old(value) + 1"
//!   {
//!     value := value + 1;
//!   }
//! }
//! "#;
//! let module = ipl_lang::parser::parse_module(source).unwrap();
//! assert_eq!(module.name, "Counter");
//! let lowered = ipl_lang::lower::lower_module(&module).unwrap();
//! assert_eq!(lowered.methods.len(), 1);
//! ```

pub mod ast;
pub mod lower;
pub mod parser;

pub use ast::{Method, Module, Stmt, Type};
pub use lower::{lower_module, LoweredMethod, LoweredModule};
pub use parser::parse_module;
