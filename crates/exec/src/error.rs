//! Engine and planner errors.

use ftsl_algebra::AlgebraError;
use std::fmt;

/// Reasons a query cannot be compiled into a streaming (PPRED/NPRED) plan.
/// The dispatcher treats these as "fall back to COMP".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// `NOT` applied to a subquery with free variables (only closed
    /// subqueries may be negated in PPRED/NPRED: `Query AND NOT Query*`).
    OpenNegation,
    /// Universal quantification (`EVERY`) is not streamable.
    Universal,
    /// `OR` branches expose different free variables.
    OrVarMismatch,
    /// A negative predicate reached the PPRED engine.
    NegativePredicate(String),
    /// A predicate that is neither positive nor negative.
    GeneralPredicate(String),
    /// Unknown predicate id.
    UnknownPredicate(u32),
    /// NPRED would run one scan per ordering of this many variables, more
    /// than [`crate::ppred::MAX_NPRED_ORDERINGS`].
    TooManyOrderings {
        /// Variables the orderings permute.
        variables: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::OpenNegation => write!(f, "NOT over a subquery with free variables"),
            PlanError::Universal => write!(f, "EVERY is not streamable"),
            PlanError::OrVarMismatch => write!(f, "OR branches bind different variables"),
            PlanError::NegativePredicate(name) => {
                write!(f, "negative predicate {name} requires the NPRED engine")
            }
            PlanError::GeneralPredicate(name) => {
                write!(f, "predicate {name} requires the COMP engine")
            }
            PlanError::UnknownPredicate(id) => write!(f, "unknown predicate id {id}"),
            PlanError::TooManyOrderings { variables } => write!(
                f,
                "NPRED would scan {variables}! orderings, over the cap of {}",
                crate::ppred::MAX_NPRED_ORDERINGS
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Top-level execution errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Language-layer failure (parse/lower).
    Lang(String),
    /// Streaming planner failure (when an engine was forced explicitly).
    Plan(PlanError),
    /// Algebra-layer failure: translation, or a COMP evaluation refused
    /// by the per-node budget ([`AlgebraError::BudgetExceeded`]).
    Algebra(AlgebraError),
    /// The query does not fit the explicitly requested engine's language.
    WrongEngine {
        /// Requested engine.
        engine: &'static str,
        /// Why it does not fit.
        reason: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Lang(msg) => write!(f, "language error: {msg}"),
            ExecError::Plan(e) => write!(f, "plan error: {e}"),
            ExecError::Algebra(msg) => write!(f, "algebra error: {msg}"),
            ExecError::WrongEngine { engine, reason } => {
                write!(f, "query not supported by {engine} engine: {reason}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<AlgebraError> for ExecError {
    fn from(e: AlgebraError) -> Self {
        ExecError::Algebra(e)
    }
}

impl From<PlanError> for ExecError {
    fn from(e: PlanError) -> Self {
        ExecError::Plan(e)
    }
}
