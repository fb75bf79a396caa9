//! Corpus statistics needed by the scoring formulas of Section 3.1.

use ftsl_index::{DeleteSet, InvertedIndex};
use ftsl_model::{Corpus, Document, NodeId, TokenId};
use std::sync::Arc;

/// Precomputed per-corpus statistics: `df(t)`, `db_size`,
/// `unique_tokens(n)`, and the L2 norm `‖n‖₂` of every node's TF-IDF vector.
#[derive(Clone, Debug)]
pub struct ScoreStats {
    /// Number of context nodes (`db_size`).
    pub db_size: usize,
    /// Document frequency per token id. Shared (`Arc`) so the per-segment
    /// views of a live snapshot all reference one merged vector instead of
    /// cloning it per segment.
    df: Arc<Vec<usize>>,
    /// `unique_tokens(n)` per node.
    unique_tokens: Vec<usize>,
    /// `‖n‖₂` per node (L2 norm of the node's tf·idf vector).
    l2_norm: Vec<f64>,
    /// `min_n unique_tokens(n)·‖n‖₂` over live non-empty nodes — the
    /// node-dependent denominator of the TF-IDF per-occurrence mass,
    /// minimized once so scored cursors can turn a term-frequency ceiling
    /// into a corpus-wide score upper bound.
    min_denominator: f64,
}

impl ScoreStats {
    /// Compute statistics for a corpus and its index.
    pub fn compute(corpus: &Corpus, index: &InvertedIndex) -> Self {
        let vocab = corpus.interner().len();
        let df: Vec<usize> = (0..vocab).map(|t| index.df(TokenId(t as u32))).collect();
        let db_size = corpus.len();
        Self::compute_inner(
            corpus,
            None,
            Arc::new(df),
            db_size,
            &mut vec![0; vocab],
            |df| idf_value(db_size, df),
        )
    }

    /// Compute per-node statistics for `corpus` against *externally
    /// supplied* collection-level numbers: `df` by token id (may be longer
    /// than the corpus vocabulary), `db_size`, and `idf` of a `df` value
    /// under that `db_size`. `counts` is zeroed scratch at least as long as
    /// the vocabulary, left zeroed.
    ///
    /// This is how one segment of a live index gets statistics that are
    /// correct for the *whole* collection: token ids are prefix-consistent
    /// across segments, so the global live `df` vector indexes directly,
    /// and every `unique_tokens`/`‖n‖₂` value comes out exactly as a
    /// monolithic index over the same live documents would compute it.
    /// Documents whose tokens have `df = 0` (possible only for tombstoned
    /// documents, whose tokens may survive nowhere) get an infinite norm —
    /// harmless, since nothing live ever reads their rows — and no
    /// tombstoned document (per `deletes`) counts toward the minimum
    /// denominator.
    pub(crate) fn compute_inner(
        corpus: &Corpus,
        deletes: Option<&DeleteSet>,
        df: Arc<Vec<usize>>,
        db_size: usize,
        counts: &mut [u32],
        mut idf: impl FnMut(usize) -> f64,
    ) -> Self {
        let num_docs = corpus.len();
        debug_assert!(
            df.len() >= corpus.interner().len() && counts.len() >= corpus.interner().len(),
            "df vector and scratch must cover the vocabulary"
        );

        let mut unique_tokens = Vec::with_capacity(num_docs);
        let mut l2_norm = Vec::with_capacity(num_docs);
        let mut min_denominator = f64::INFINITY;
        let mut touched: Vec<TokenId> = Vec::new();
        for (local, doc) in corpus.documents().iter().enumerate() {
            count_tokens(doc, counts, &mut touched);
            let unique = touched.len().max(1);
            let mut sum_sq = 0.0;
            for &t in &touched {
                let tf = f64::from(counts[t.index()]) / unique as f64;
                let idf = idf(df[t.index()]);
                sum_sq += (tf * idf) * (tf * idf);
                counts[t.index()] = 0;
            }
            unique_tokens.push(unique);
            let norm = if sum_sq > 0.0 { sum_sq.sqrt() } else { 1.0 };
            l2_norm.push(norm);
            if sum_sq > 0.0 && deletes.is_none_or(|d| d.is_live(local)) {
                min_denominator = min_denominator.min(unique as f64 * norm);
            }
        }
        ScoreStats {
            db_size,
            df,
            unique_tokens,
            l2_norm,
            min_denominator,
        }
    }

    /// `df(t)`: number of nodes containing the token (0 if out of
    /// vocabulary).
    pub fn df(&self, token: TokenId) -> usize {
        self.df.get(token.index()).copied().unwrap_or(0)
    }

    /// `idf(t) = ln(1 + db_size/df(t))` (Section 3.1); 0 for unseen tokens.
    pub fn idf(&self, token: TokenId) -> f64 {
        let df = self.df(token);
        if df == 0 {
            0.0
        } else {
            idf_value(self.db_size, df)
        }
    }

    /// `unique_tokens(n)`.
    pub fn unique_tokens(&self, node: NodeId) -> usize {
        self.unique_tokens[node.index()]
    }

    /// `‖n‖₂`.
    pub fn l2_norm(&self, node: NodeId) -> f64 {
        self.l2_norm[node.index()]
    }

    /// `min_n unique_tokens(n)·‖n‖₂` over live non-empty nodes (infinite
    /// for a corpus without one): dividing a token weight times a
    /// term-frequency ceiling by it bounds any node's TF-IDF contribution
    /// from that token, which is what makes list- and block-level top-k
    /// pruning sound.
    pub fn min_denominator(&self) -> f64 {
        self.min_denominator
    }
}

pub(crate) fn idf_value(db_size: usize, df: usize) -> f64 {
    (1.0 + db_size as f64 / df as f64).ln()
}

/// Count `doc`'s tokens into `counts` (zero at every token of `doc`) and
/// list its distinct tokens in `touched`, in order of first occurrence.
/// The caller zeroes `counts` at `touched` again.
pub(crate) fn count_tokens(doc: &Document, counts: &mut [u32], touched: &mut Vec<TokenId>) {
    // Branch-free: every token is written at the end of the list, which
    // moves past it on its first occurrence only — most of a document's
    // tokens are distinct, and a branch on that mispredicts often.
    touched.clear();
    touched.resize(doc.tokens.len(), TokenId(0));
    let mut distinct = 0;
    for &(t, _) in &doc.tokens {
        let count = &mut counts[t.index()];
        touched[distinct] = t;
        distinct += usize::from(*count == 0);
        *count += 1;
    }
    touched.truncate(distinct);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsl_index::IndexBuilder;

    #[test]
    fn df_and_idf_follow_the_formulas() {
        let corpus = Corpus::from_texts(&["a b", "a", "c"]);
        let index = IndexBuilder::new().build(&corpus);
        let stats = ScoreStats::compute(&corpus, &index);
        let a = corpus.token_id("a").unwrap();
        let c = corpus.token_id("c").unwrap();
        assert_eq!(stats.df(a), 2);
        assert_eq!(stats.df(c), 1);
        assert!((stats.idf(a) - (1.0f64 + 3.0 / 2.0).ln()).abs() < 1e-12);
        // Rarer tokens have higher idf.
        assert!(stats.idf(c) > stats.idf(a));
    }

    #[test]
    fn unique_tokens_and_norms() {
        let corpus = Corpus::from_texts(&["a a b", ""]);
        let index = IndexBuilder::new().build(&corpus);
        let stats = ScoreStats::compute(&corpus, &index);
        assert_eq!(stats.unique_tokens(NodeId(0)), 2);
        assert!(stats.l2_norm(NodeId(0)) > 0.0);
        // Empty nodes get a safe norm of 1.
        assert_eq!(stats.l2_norm(NodeId(1)), 1.0);
    }

    #[test]
    fn out_of_vocabulary_token_scores_zero() {
        let corpus = Corpus::from_texts(&["a"]);
        let index = IndexBuilder::new().build(&corpus);
        let stats = ScoreStats::compute(&corpus, &index);
        assert_eq!(stats.idf(TokenId(999)), 0.0);
    }
}
