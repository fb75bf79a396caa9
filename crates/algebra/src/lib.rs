//! # ftsl-algebra — the full-text algebra (FTA)
//!
//! Section 2.3 of the paper: *full-text relations* of shape
//! `R[CNode, att1..attm]` whose position attributes always refer to positions
//! of the tuple's own context node, and operators `SearchContext`, `HasPos`,
//! `R_token`, `π` (always keeping `CNode`), `⋈` (equi-join on `CNode` only —
//! a per-node cartesian product of positions), `σ_pred`, `∪`, `∩`, `−`.
//!
//! This crate provides:
//!
//! * [`relation::FtRelation`] — flat row-major tuple storage with a score
//!   column, and one context node's rows with the per-node operator
//!   kernels;
//! * [`scorer::Scorer`] — Section 3's per-operator score transformations,
//!   which the kernels apply as they build rows ([`scorer::Unscored`]: no
//!   score);
//! * [`expr::AlgExpr`] — the operator AST with arity checking;
//! * [`eval::AlgebraEvaluator`] — the node-at-a-time evaluator used by the
//!   COMP engine (Section 5.4) and, with a score column, by exhaustive
//!   ranking; instrumented with tuple counters and a per-node budget;
//! * [`from_calculus`] — Lemma 2 (calculus → algebra), the constructive half
//!   of Theorem 1 that query compilation uses;
//! * [`rewrite`] — `σ` / `π` push-down below `⋈`, which the unscored
//!   evaluator applies to every plan it runs;
//! * [`to_calculus`] — Lemma 1 (algebra → calculus), used to machine-check
//!   the equivalence by differential testing.

pub mod error;
pub mod eval;
pub mod expr;
pub mod from_calculus;
pub mod relation;
pub mod rewrite;
pub mod scorer;
pub mod to_calculus;

pub use error::AlgebraError;
pub use eval::{AlgebraEvaluator, NodeStats, MAX_NODE_POSITIONS};
pub use expr::AlgExpr;
pub use relation::FtRelation;
pub use scorer::{Scorer, Unscored};
