//! The `ipl` benchmark: seeded inputs ([`gen`]), the end-to-end runs against
//! the `ipl` binary ([`drive`]) and the traced in-process run ([`trace`]).
//! `src/main.rs` is the command line; README.md has the metrics.

pub mod drive;
pub mod gen;
pub mod trace;
