//! # ftsl-predicates — position-based predicates
//!
//! The calculus and algebra are parameterized by a set `Preds` of
//! position-based predicates (Section 2.2). This crate provides:
//!
//! * the [`Predicate`] trait — arbitrary `pred(p1..pm, c1..cr)` predicates,
//!   keeping the model "extensible with respect to the set of predicates";
//! * the classification into **positive** (Definition 1, Section 5.5.2) and
//!   **negative** (Section 5.6.1) predicates, with the advance functions
//!   (`f_i`) that make single-scan evaluation possible;
//! * the paper's built-ins: `distance`, `ordered`, `samepara`, `samesent`,
//!   `window`, `samepos` (positive); `not_distance`, `not_ordered`,
//!   `not_samepara`, `not_samesent`, `diffpos` (negative); and `exact_gap`
//!   (neither — exercising the COMP-only path);
//! * the gap bound a predicate may declare ([`GapBound`]), which lets the
//!   word-pair index filter the documents it is evaluated at;
//! * brute-force checkers of the two definitions, and of a declared gap
//!   bound, used by property tests.

pub mod builtin;
pub mod property;
pub mod registry;

pub use builtin::builtins;
pub use registry::{PredicateId, PredicateRegistry};

use ftsl_model::Position;
use std::fmt;

/// How aggressively positive-predicate advances skip ahead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdvanceMode {
    /// Advance the chosen cursor by a single position (`f_i = p_i + 1`).
    /// Always sound; used as the ablation baseline.
    Conservative,
    /// Use the tightest sound lower bound (e.g. for `distance`, jump the
    /// trailing cursor to `leader − d − 1`).
    #[default]
    Aggressive,
}

/// Classification of a predicate per Sections 5.5.2 and 5.6.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredKind {
    /// True on a "contiguous region" of position space: single-scan
    /// evaluable (PPRED).
    Positive,
    /// Can only be made true by extending the interval between smallest and
    /// largest position: evaluable with per-ordering scans (NPRED).
    Negative,
    /// Neither — only the materialized COMP engine can evaluate it.
    General,
}

/// An instruction to move one cursor forward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Advance {
    /// Which position argument (column) to advance.
    pub column: usize,
    /// Inclusive lower bound on the next candidate's offset. Always strictly
    /// greater than the current offset of `column`, guaranteeing progress.
    pub min_offset: u32,
}

/// The offset gap a two-argument predicate confines its arguments to, in
/// either order: every satisfying pair `(p1, p2)` has
/// `|p1.offset − p2.offset| ≤ max` ([`Predicate::gap_bound`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GapBound {
    /// Largest offset gap of a satisfying pair.
    pub max: u32,
    /// True when the bound is the whole predicate: every pair of distinct
    /// positions within `max` of each other satisfies it, in both argument
    /// orders. A direction comes only from `ordered`. False when the bound
    /// is merely implied (`exact_gap` satisfies one gap of the range).
    pub exact: bool,
}

/// A position-based predicate `pred(p1..pm, c1..cr)`.
pub trait Predicate: fmt::Debug + Send + Sync {
    /// Surface-syntax name (as written in COMP queries).
    fn name(&self) -> &str;

    /// Number of position arguments (`m`).
    fn arity(&self) -> usize;

    /// Number of integer constants (`r`).
    fn num_consts(&self) -> usize;

    /// Positive / negative / general classification.
    fn kind(&self) -> PredKind;

    /// Evaluate on concrete positions and constants.
    ///
    /// Callers must supply exactly `arity()` positions and `num_consts()`
    /// constants.
    fn eval(&self, positions: &[Position], consts: &[i64]) -> bool;

    /// For **positive** predicates: given a failing tuple, the `f_i`
    /// function — a column to advance and the lower bound of the next
    /// possible solution. Returns `None` for non-positive predicates.
    fn positive_advance(
        &self,
        positions: &[Position],
        consts: &[i64],
        mode: AdvanceMode,
    ) -> Option<Advance> {
        let _ = (positions, consts, mode);
        None
    }

    /// The gap bound a two-argument predicate declares for `consts`, or
    /// `None` when it bounds no gap (the default). The word-pair index
    /// answers *is there an occurrence pair within `max`?* per document, so
    /// a declared bound lets an executor skip every document the pair
    /// lists rule out: an exact bound replaces the predicate, an implied
    /// one only filters the documents it is evaluated at. A declaration
    /// must be sound ([`property::check_gap_bound`]).
    fn gap_bound(&self, consts: &[i64]) -> Option<GapBound> {
        let _ = consts;
        None
    }

    /// For **negative** predicates: given a failing tuple and the column the
    /// evaluation thread is allowed to move (the largest in its ordering),
    /// the lower bound for that column's next candidate. Returns `None` for
    /// non-negative predicates.
    fn negative_advance(
        &self,
        positions: &[Position],
        consts: &[i64],
        move_column: usize,
    ) -> Option<Advance> {
        let _ = (positions, consts, move_column);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Dummy;
    impl Predicate for Dummy {
        fn name(&self) -> &str {
            "dummy"
        }
        fn arity(&self) -> usize {
            1
        }
        fn num_consts(&self) -> usize {
            0
        }
        fn kind(&self) -> PredKind {
            PredKind::General
        }
        fn eval(&self, _: &[Position], _: &[i64]) -> bool {
            true
        }
    }

    #[test]
    fn default_advances_are_none_for_general_predicates() {
        let d = Dummy;
        assert_eq!(d.positive_advance(&[], &[], AdvanceMode::Aggressive), None);
        assert_eq!(d.negative_advance(&[], &[], 0), None);
        assert_eq!(d.gap_bound(&[]), None);
    }
}
