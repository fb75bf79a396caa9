//! Language-layer errors.

use std::fmt;

/// Errors from lexing, parsing or lowering surface queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LangError {
    /// Lexical error at a byte offset.
    Lex {
        /// Byte offset in the input.
        at: usize,
        /// Description.
        msg: String,
    },
    /// Parse error.
    Parse {
        /// Token index where parsing failed.
        at: usize,
        /// Description.
        msg: String,
    },
    /// A construct is not allowed in the requested language mode.
    NotInLanguage {
        /// The language mode.
        mode: &'static str,
        /// The offending construct.
        construct: String,
    },
    /// The query nests deeper than [`crate::parser::MAX_NESTING`] levels
    /// (parentheses, `NOT`, quantifiers, or a long `AND`/`OR` chain).
    TooDeep {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// Semantic error (unknown predicate, unbound variable, arity, ...).
    Semantic(String),
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Lex { at, msg } => write!(f, "lex error at byte {at}: {msg}"),
            LangError::Parse { at, msg } => write!(f, "parse error at token {at}: {msg}"),
            LangError::NotInLanguage { mode, construct } => {
                write!(f, "{construct} is not part of the {mode} language")
            }
            LangError::TooDeep { limit } => {
                write!(f, "query nests deeper than {limit} levels")
            }
            LangError::Semantic(msg) => write!(f, "semantic error: {msg}"),
        }
    }
}

impl std::error::Error for LangError {}
