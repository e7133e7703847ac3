//! Typed verification errors.
//!
//! The original entry points reported failures as `Result<_, String>`, which
//! a CLI can print but a daemon, an LSP loop or a language binding cannot
//! inspect.  [`VerifyError`] keeps the exact `Display` text of the old
//! strings (so CLI messages do not churn) while carrying the structure —
//! error kind, 1-based line, byte-offset [`Span`] — that the `ipl serve`
//! protocol serializes into error frames.

use ipl_lang::lower::LowerError;
use ipl_lang::parser::LangError;
use std::fmt;
use std::path::PathBuf;

/// A byte-offset range `[start, end)` into the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first offending character.
    pub start: usize,
    /// Byte offset one past the last offending character.
    pub end: usize,
}

/// Why a verification request could not produce a
/// [`ModuleReport`](crate::ModuleReport).  Prover failures are *not* errors — an unproved,
/// crashed or deadline-skipped sequent is recorded in the report; this type
/// covers the stages before dispatch (parse, lower) plus I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// The source text failed to parse.
    #[non_exhaustive]
    Parse {
        /// Description of the syntax error.
        message: String,
        /// 1-based line number.
        line: usize,
        /// Byte offsets of the offending token, when known.
        span: Option<Span>,
    },
    /// The parsed module failed semantic lowering.
    #[non_exhaustive]
    Lower {
        /// Description of the problem.
        message: String,
    },
    /// A filesystem operation failed (reading a source file, a cache
    /// directory that must exist).
    #[non_exhaustive]
    Io {
        /// The underlying error text.
        message: String,
        /// The path involved, when known.
        path: Option<PathBuf>,
    },
}

impl VerifyError {
    /// Short machine-readable tag: `"parse"`, `"lower"` or `"io"`.
    pub fn kind(&self) -> &'static str {
        match self {
            VerifyError::Parse { .. } => "parse",
            VerifyError::Lower { .. } => "lower",
            VerifyError::Io { .. } => "io",
        }
    }

    /// The 1-based source line, for parse errors.
    pub fn line(&self) -> Option<usize> {
        match self {
            VerifyError::Parse { line, .. } => Some(*line),
            _ => None,
        }
    }

    /// The byte-offset span of the offending token, when known.
    pub fn span(&self) -> Option<Span> {
        match self {
            VerifyError::Parse { span, .. } => *span,
            _ => None,
        }
    }

    /// Wraps an I/O error with the path it concerns.
    pub fn io(error: &std::io::Error, path: impl Into<PathBuf>) -> VerifyError {
        VerifyError::Io {
            message: error.to_string(),
            path: Some(path.into()),
        }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Byte-for-byte the strings the `Result<_, String>` era produced.
            VerifyError::Parse { message, line, .. } => write!(f, "line {line}: {message}"),
            VerifyError::Lower { message } => write!(f, "lowering error: {message}"),
            VerifyError::Io { message, path } => match path {
                Some(path) => write!(f, "{}: {message}", path.display()),
                None => write!(f, "{message}"),
            },
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<LangError> for VerifyError {
    fn from(e: LangError) -> VerifyError {
        VerifyError::Parse {
            message: e.message,
            line: e.line,
            span: e.span.map(|(start, end)| Span { start, end }),
        }
    }
}

impl From<LowerError> for VerifyError {
    fn from(e: LowerError) -> VerifyError {
        VerifyError::Lower { message: e.message }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_the_legacy_strings() {
        let parse_err = ipl_lang::parse_module("module M {\n  var x: unknown;\n}").unwrap_err();
        let legacy = parse_err.to_string();
        let typed: VerifyError = parse_err.into();
        assert_eq!(typed.to_string(), legacy);
        assert_eq!(typed.kind(), "parse");
        assert_eq!(typed.line(), Some(2));
        assert!(typed.span().is_some());

        let lower = VerifyError::Lower {
            message: "duplicate method `m`".into(),
        };
        assert_eq!(lower.to_string(), "lowering error: duplicate method `m`");
        assert_eq!(lower.kind(), "lower");
        assert_eq!(lower.line(), None);
    }

    #[test]
    fn spans_index_the_source() {
        let source = "module M {\n  var x: unknown;\n}";
        let typed: VerifyError = ipl_lang::parse_module(source).unwrap_err().into();
        let span = typed.span().unwrap();
        assert_eq!(&source[span.start..span.end], "unknown");
    }

    #[test]
    fn io_errors_carry_the_path() {
        let e = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let typed = VerifyError::io(&e, "/tmp/missing.ipl");
        assert_eq!(typed.kind(), "io");
        assert_eq!(typed.to_string(), "/tmp/missing.ipl: gone");
    }
}
