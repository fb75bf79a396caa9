//! # ftsl-lang — the surface full-text search languages
//!
//! Section 4 of the paper defines a family of languages:
//!
//! * **BOOL** (4.1): `Query := Token | NOT Query | Query AND Query |
//!   Query OR Query`, `Token := StringLiteral | ANY` — and its restriction
//!   **BOOL-NONEG** (5.3) without `ANY` and with `NOT` only as `AND NOT`;
//! * **DIST** (4.2): BOOL plus `dist(Token, Token, Integer)`;
//! * **COMP** (4.3): the complete language — position variables (`Var HAS
//!   Token`), quantifiers (`SOME`/`EVERY`), and arbitrary position
//!   predicates.
//!
//! This crate parses all of them with one grammar (restricted by
//! [`Mode`]), lowers the surface AST to the full-text calculus
//! exactly as Sections 4.1–4.3 prescribe, and **classifies** queries into
//! the complexity hierarchy of Figure 3 (BOOL-NONEG, BOOL, DIST, PPRED,
//! NPRED, COMP) so the engine dispatcher can pick the cheapest evaluator.

pub mod ast;
pub mod classify;
pub mod error;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod rewrite;

pub use ast::{SurfaceQuery, TokenArg};
pub use classify::{classify, LanguageClass};
pub use error::LangError;
pub use lower::lower;
pub use parser::{parse, Mode, MAX_NESTING};
pub use rewrite::{map_tokens, Thesaurus};

use ftsl_calculus::CalcQuery;
use ftsl_predicates::PredicateRegistry;

/// Parse (in the given language mode), validate, classify and lower a query
/// in one call. Returns the calculus query and the detected language class.
pub fn compile(
    input: &str,
    mode: Mode,
    registry: &PredicateRegistry,
) -> Result<(CalcQuery, LanguageClass), LangError> {
    let surface = parse(input, mode)?;
    let class = classify(&surface, registry);
    let expr = lower(&surface, registry)?;
    let query = CalcQuery::new(expr);
    ftsl_calculus::safety::check_query(&query, registry)
        .map_err(|e| LangError::Semantic(e.to_string()))?;
    Ok((query, class))
}
