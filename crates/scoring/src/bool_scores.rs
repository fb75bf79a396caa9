//! Scored BOOL evaluation (Section 5.3): "a scoring formula is associated
//! with each Boolean operator ... initially a score is associated with each
//! entry in the inverted lists and modified by each Boolean operator in the
//! query plan."
//!
//! Doc-level scores start as the probabilistic-OR collapse of the entry's
//! per-occurrence PRA scores; `AND` multiplies, `OR` combines
//! probabilistically, `NOT` complements.

use crate::pra::PraModel;
use crate::stats::ScoreStats;
use crate::ScoringModel;
use ftsl_index::InvertedIndex;
use ftsl_lang::SurfaceQuery;
use ftsl_model::{Corpus, NodeId};
use std::collections::BTreeMap;

/// Evaluate a BOOL-shaped query with PRA scoring; returns `(node, score)`
/// for every node with score > 0, descending by score.
pub fn run_bool_scored(
    query: &SurfaceQuery,
    corpus: &Corpus,
    index: &InvertedIndex,
    stats: &ScoreStats,
    model: &PraModel,
) -> Result<Vec<(NodeId, f64)>, String> {
    let scores = eval(query, corpus, index, stats, model)?;
    let mut out: Vec<(NodeId, f64)> = scores.into_iter().filter(|(_, s)| *s > 0.0).collect();
    // Total order (not partial_cmp-with-Equal-fallback): a NaN leak would
    // otherwise silently scramble the ranking.
    crate::topk::sort_ranked(&mut out);
    Ok(out)
}

/// Dense doc-score maps; absent nodes have score 0.
fn eval(
    query: &SurfaceQuery,
    corpus: &Corpus,
    index: &InvertedIndex,
    stats: &ScoreStats,
    model: &PraModel,
) -> Result<BTreeMap<NodeId, f64>, String> {
    match query {
        SurfaceQuery::Lit(tok) => {
            let mut out = BTreeMap::new();
            if let Some(id) = corpus.token_id(tok) {
                let mut cur = index.block_cursor(id);
                while let Some(node) = cur.next_entry() {
                    let per = model.token_tuple(tok, node, stats);
                    let doc_score = model.project(&vec![per; cur.tf() as usize]);
                    out.insert(node, doc_score);
                }
            }
            Ok(out)
        }
        SurfaceQuery::Any => {
            let mut out = BTreeMap::new();
            let mut cur = index.any_block_cursor();
            while let Some(node) = cur.next_entry() {
                out.insert(node, 1.0);
            }
            Ok(out)
        }
        SurfaceQuery::Not(inner) => {
            let inner_scores = eval(inner, corpus, index, stats, model)?;
            let mut out = BTreeMap::new();
            for node in corpus.node_ids() {
                let s = inner_scores.get(&node).copied().unwrap_or(0.0);
                out.insert(node, 1.0 - s);
            }
            Ok(out)
        }
        SurfaceQuery::And(a, b) => {
            let left = eval(a, corpus, index, stats, model)?;
            let right = eval(b, corpus, index, stats, model)?;
            let mut out = BTreeMap::new();
            for (node, s1) in left {
                if let Some(&s2) = right.get(&node) {
                    out.insert(node, s1 * s2);
                }
            }
            Ok(out)
        }
        SurfaceQuery::Or(a, b) => {
            let mut left = eval(a, corpus, index, stats, model)?;
            let right = eval(b, corpus, index, stats, model)?;
            for (node, s2) in right {
                let s1 = left.get(&node).copied().unwrap_or(0.0);
                left.insert(node, 1.0 - (1.0 - s1) * (1.0 - s2));
            }
            Ok(left)
        }
        other => Err(format!("construct {} is not in BOOL", other.render())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsl_index::IndexBuilder;
    use ftsl_lang::{parse, Mode};

    fn setup() -> (Corpus, InvertedIndex, ScoreStats, PraModel) {
        let corpus = Corpus::from_texts(&[
            "software users",
            "software users testing",
            "usability",
            "software testing",
            "users users users software",
        ]);
        let index = IndexBuilder::new().build(&corpus);
        let stats = ScoreStats::compute(&corpus, &index);
        let model = PraModel::new(&corpus, &stats);
        (corpus, index, stats, model)
    }

    #[test]
    fn scored_bool_matches_boolean_semantics_support() {
        let (corpus, index, stats, model) = setup();
        let q = parse(
            "('software' AND 'users' AND NOT 'testing') OR 'usability'",
            Mode::Bool,
        )
        .unwrap();
        let ranked = run_bool_scored(&q, &corpus, &index, &stats, &model).unwrap();
        let nodes: Vec<u32> = ranked.iter().map(|(n, _)| n.0).collect();
        // Same support as the unscored engine: nodes 0, 2, 4 (node 1 is
        // blocked by NOT 'testing' and scores 1·(1−s) < 1... it may retain a
        // nonzero residual score; Boolean-certain matches must rank higher).
        for expected in [0u32, 2, 4] {
            assert!(
                nodes.contains(&expected),
                "missing node {expected}: {nodes:?}"
            );
        }
        for (_, s) in &ranked {
            assert!((0.0..=1.0).contains(s));
        }
    }

    #[test]
    fn repeated_occurrences_increase_doc_score() {
        let (corpus, index, stats, model) = setup();
        let q = parse("'users'", Mode::Bool).unwrap();
        let ranked = run_bool_scored(&q, &corpus, &index, &stats, &model).unwrap();
        let score = |id: u32| ranked.iter().find(|(n, _)| n.0 == id).map(|(_, s)| *s);
        // Node 4 has three occurrences of 'users'; node 0 has one.
        assert!(score(4).unwrap() > score(0).unwrap());
    }

    #[test]
    fn non_bool_constructs_error() {
        let (corpus, index, stats, model) = setup();
        let q = parse("SOME p1 (p1 HAS 'x')", Mode::Comp).unwrap();
        assert!(run_bool_scored(&q, &corpus, &index, &stats, &model).is_err());
    }
}
