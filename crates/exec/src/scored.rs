//! The vocabulary of scored top-k: request, model, path and output types.
//!
//! The dispatch itself is one branch in
//! [`crate::SnapshotExecutor::run_top_k_with`], decided from the query's
//! syntax before any segment is visited and the same under either model:
//! flat disjunctions — the ranked-query workhorse — go through the
//! MaxScore/block-max pruned union, and every other request is the
//! exhaustive ranking ([`crate::SnapshotExecutor::run_ranked`]) truncated
//! to `k`: the answer the query's class engine finds, each node scored
//! through the algebra. Both arms answer that ranking's first `k` rows,
//! and both report [`ftsl_index::AccessCounters`], so pruning wins are
//! measurable.

use ftsl_index::AccessCounters;
use ftsl_lang::SurfaceQuery;
use ftsl_model::NodeId;
use ftsl_scoring::{PraModel, TfIdfModel};

/// The scored top-k query spec: how many results to retain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScoredTopK {
    /// Number of results to keep (the pruning budget: smaller `k` means a
    /// higher heap threshold sooner, hence more skipped blocks).
    pub k: usize,
}

/// Which scoring model ranks the hits.
pub enum ScoreModel<'m> {
    /// Section 3.1 cosine TF-IDF: scores sum through the algebra, so a flat
    /// disjunction streams through the additive pruned union.
    TfIdf(&'m TfIdfModel),
    /// Section 3.2 probabilistic relational algebra: scores are
    /// probabilities, a union combines them by probabilistic OR (the pruned
    /// union's combine for a flat disjunction), and a difference keeps the
    /// left side's score, so a `NOT` ranks only the nodes it admits.
    Pra(&'m PraModel),
}

/// The strategy the dispatcher chose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScoredPath {
    /// MaxScore/block-max pruned k-way union over a flat disjunction.
    PrunedUnion,
    /// Word-pair proximity walk ranked by closeness
    /// ([`crate::SnapshotExecutor::run_near_top_k_with`]), block-max
    /// pruned on the pair lists' `min_gap` headers.
    PairProximity,
    /// The exhaustive ranking ([`crate::SnapshotExecutor::run_ranked`]):
    /// every node of the class engine's answer scored through the algebra
    /// (truncated to `k` on the top-k path).
    Exhaustive,
}

/// Result of a scored run: a top-k, or the exhaustive ranking.
#[derive(Clone, Debug)]
pub struct ScoredOutput {
    /// `(node, score)` in ranking order; at most `k` rows from a top-k.
    pub hits: Vec<(NodeId, f64)>,
    /// Access counters of the arm that ran, summed over segments: the
    /// pruned union's cursor work (it materializes no tuples; `entries` is
    /// what pruning saves, `skipped`/`blocks_skipped` is where the savings
    /// went), the proximity walk's pair-list and fallback reads, or — for
    /// the exhaustive ranking, and for the top-k arm that truncates it —
    /// every segment's set bind through its class engine plus the
    /// node-at-a-time algebra walk that scored the live answer, including
    /// the tuples it materialized (none when the answer is empty).
    pub counters: AccessCounters,
    /// Strategy used.
    pub path: ScoredPath,
    /// Span tree recorded when [`crate::engine::ExecOptions::trace`] was
    /// set.
    pub trace: Option<Box<ftsl_obs::Trace>>,
}

/// If `query` is a flat disjunction of token literals (`'a' OR 'b' OR ...`,
/// including a single literal), collect its tokens.
pub fn flat_disjunction(query: &SurfaceQuery) -> Option<Vec<&str>> {
    fn walk<'q>(q: &'q SurfaceQuery, out: &mut Vec<&'q str>) -> bool {
        match q {
            SurfaceQuery::Lit(tok) => {
                out.push(tok);
                true
            }
            SurfaceQuery::Or(a, b) => walk(a, out) && walk(b, out),
            _ => false,
        }
    }
    let mut tokens = Vec::new();
    walk(query, &mut tokens).then_some(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsl_lang::{parse, Mode};

    #[test]
    fn flat_disjunctions_are_detected() {
        let q = parse("'a' OR 'b' OR 'c'", Mode::Bool).unwrap();
        assert_eq!(flat_disjunction(&q), Some(vec!["a", "b", "c"]));
        let q = parse("'a'", Mode::Bool).unwrap();
        assert_eq!(flat_disjunction(&q), Some(vec!["a"]));
        let q = parse("'a' OR ('b' AND 'c')", Mode::Bool).unwrap();
        assert_eq!(flat_disjunction(&q), None);
        let q = parse("NOT 'a'", Mode::Bool).unwrap();
        assert_eq!(flat_disjunction(&q), None);
    }
}
