//! Algebra errors.

use ftsl_model::NodeId;
use std::fmt;

/// Errors raised while checking or evaluating algebra expressions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AlgebraError {
    /// Set operation over mismatched arities.
    ArityMismatch {
        /// Operator name.
        op: &'static str,
        /// Left arity.
        left: usize,
        /// Right arity.
        right: usize,
    },
    /// Projection or selection referenced a column that does not exist.
    ColumnOutOfRange {
        /// Requested column.
        col: usize,
        /// Input arity.
        arity: usize,
    },
    /// A predicate application did not match the registered signature.
    BadPredicateApplication(String),
    /// A predicate id was not found in the registry.
    UnknownPredicate(u32),
    /// One node's relations would hold more than
    /// [`crate::eval::MAX_NODE_POSITIONS`] positions.
    BudgetExceeded {
        /// The context node being evaluated (segment-local id).
        node: NodeId,
        /// Positions the node's relations would have held (saturating).
        positions: u64,
        /// The per-node cap.
        limit: u64,
    },
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraError::ArityMismatch { op, left, right } => {
                write!(f, "{op} over mismatched arities {left} vs {right}")
            }
            AlgebraError::ColumnOutOfRange { col, arity } => {
                write!(f, "column {col} out of range for arity {arity}")
            }
            AlgebraError::BadPredicateApplication(msg) => write!(f, "{msg}"),
            AlgebraError::UnknownPredicate(id) => write!(f, "unknown predicate id {id}"),
            AlgebraError::BudgetExceeded {
                node,
                positions,
                limit,
            } => write!(
                f,
                "node {node} would hold {positions} positions, over the per-node budget of {limit}"
            ),
        }
    }
}

impl std::error::Error for AlgebraError {}
