//! # `ipl-gcl` — guarded commands and the integrated proof language
//!
//! This crate implements the intermediate languages and translations at the
//! heart of *"An Integrated Proof Language for Imperative Programs"*
//! (PLDI 2009):
//!
//! * [`cmd`] — the **extended guarded command language** (Figure 2), the
//!   **integrated proof language constructs** (Figure 3) and the **simple
//!   guarded command language** (Figure 4), along with modified-variable
//!   analysis, proof-construct stripping (used for the Table 2 experiment)
//!   and construct counting (used for the Table 1 experiment).
//! * [`translate`] — the translation of code into simple guarded commands
//!   (Figure 6), of each proof construct into simple guarded commands
//!   (Figure 8), and of the `fix` construct (Figure 12, Appendix B).
//! * [`wlp`](mod@wlp) — weakest liberal preconditions over simple guarded commands
//!   (Figure 5), producing a labelled verification-condition tree.
//! * [`split`] — the splitting rules (Figure 7) that convert a verification
//!   condition into a list of labelled sequents, preserving the labels used
//!   for assumption-base control (`from` clauses), plus the syntactic
//!   discharging of trivially valid sequents.
//! * [`soundness`] — executable versions of the Section 5 / Appendix A
//!   soundness obligations: for every proof construct `p`, the formula
//!   `wlp(⟦p⟧, H) → H` over an uninterpreted postcondition `H`.
//!
//! The surface language (`ipl-lang`) lowers annotated programs into
//! [`cmd::Ext`] commands; the driver (`ipl-core`) then uses this crate to
//! obtain sequents which it dispatches to the provers (`ipl-provers`).

pub mod cmd;
pub mod soundness;
pub mod split;
pub mod translate;
pub mod wlp;

pub use cmd::{ConstructCounts, Ext, Proof, Simple};
pub use split::{split_all, Sequent};
pub use translate::{translate_ext, translate_proof, TranslateCtx};
pub use wlp::{wlp, Vc};
