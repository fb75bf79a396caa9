//! Collection-wide scoring statistics over a live, segmented index.
//!
//! TF-IDF is global twice over: a node's score needs `idf(t)` (document
//! frequencies across the *whole* collection) and its own L2 norm — which
//! itself sums idf values of every token the node contains. A single
//! segment of a [`Snapshot`] knows neither. [`SnapshotStats`] computes the
//! merged numbers once per snapshot — live `df` summed per token id across
//! segments (token ids are prefix-consistent, see `ftsl_index::live`),
//! tombstoned documents left out, `db_size` = live documents — and then
//! derives a per-segment [`ScoreStats`] from them, so every engine scores a
//! segment's local nodes *exactly* as a monolithic index over the same live
//! documents would: bit-identical idf, norms, and therefore scores.

use crate::stats::{count_tokens, idf_value, ScoreStats};
use crate::{PraModel, TfIdfModel};
use ftsl_index::{Snapshot, SnapshotSegment};
use ftsl_model::{Document, TokenId};
use std::sync::Arc;

/// Merged, tombstone-aware scoring statistics for one [`Snapshot`], plus
/// the per-segment [`ScoreStats`] views the evaluators consume.
#[derive(Clone, Debug)]
pub struct SnapshotStats {
    db_size: usize,
    /// Live document frequency by (prefix-consistent) token id, shared
    /// with every per-segment [`ScoreStats`] view (one allocation total).
    df: Arc<Vec<usize>>,
    per_segment: Vec<ScoreStats>,
}

impl SnapshotStats {
    /// Compute merged statistics for a snapshot.
    ///
    /// Every version pays for its documents, once each: the norms read
    /// every document's tokens, and `df` reads each segment's list heads
    /// (taking its tombstoned documents back out) or, for a segment with
    /// fewer token occurrences than vocabulary entries — a write-buffer
    /// chunk — its live documents. Beyond that it costs one `df` vector and
    /// one count scratch as wide as the vocabulary, shared by every
    /// segment, and at most `db_size + 1` logarithms: `idf` depends on `df`
    /// alone once `db_size` is fixed, so each `df` value's idf is computed
    /// once.
    pub fn compute(snapshot: &Snapshot) -> Self {
        let db_size = snapshot.live_doc_count();
        let vocab = snapshot.vocabulary().len();
        let mut df = vec![0usize; vocab];
        let mut counts = vec![0u32; vocab];
        for seg in snapshot.segments() {
            add_live_dfs(seg, &mut df, &mut counts);
        }
        let df = Arc::new(df);
        // `idf_by_df[d]` once computed, NaN until then. A live `df` never
        // exceeds the live documents.
        let mut idf_by_df = vec![f64::NAN; db_size + 1];
        let mut idf = |d: usize| {
            let memo = &mut idf_by_df[d];
            if memo.is_nan() {
                *memo = idf_value(db_size, d);
            }
            *memo
        };
        let per_segment = snapshot
            .segments()
            .iter()
            .map(|seg| {
                ScoreStats::compute_inner(
                    seg.data().corpus(),
                    Some(seg.deletes()),
                    Arc::clone(&df),
                    db_size,
                    &mut counts,
                    &mut idf,
                )
            })
            .collect();
        SnapshotStats {
            db_size,
            df,
            per_segment,
        }
    }

    /// Live documents in the snapshot (`db_size` of the scoring formulas).
    pub fn db_size(&self) -> usize {
        self.db_size
    }

    /// Live document frequency of a token id (0 when out of range).
    pub fn df_id(&self, token: TokenId) -> usize {
        self.df.get(token.index()).copied().unwrap_or(0)
    }

    /// `idf(t)` from the live numbers; 0 for tokens with no live document
    /// (including tokens that only ever appeared in tombstoned documents —
    /// a monolithic rebuild would not know them at all).
    pub fn idf_id(&self, token: TokenId) -> f64 {
        let df = self.df_id(token);
        if df == 0 {
            0.0
        } else {
            idf_value(self.db_size, df)
        }
    }

    /// The per-segment [`ScoreStats`] (same order as
    /// [`Snapshot::segments`]): local-node norms computed against the
    /// merged `df`/`db_size`.
    pub fn segment(&self, i: usize) -> &ScoreStats {
        &self.per_segment[i]
    }

    /// Build the query's TF-IDF model from the merged statistics. Token
    /// strings resolve through the snapshot's vocabulary, so a token any
    /// segment ever saw gets its collection-wide idf.
    pub fn tfidf_model<S: AsRef<str>>(&self, tokens: &[S], snapshot: &Snapshot) -> TfIdfModel {
        let vocabulary = snapshot.vocabulary();
        TfIdfModel::for_query_with_idf(tokens, |name| {
            vocabulary.get(name).map_or(0.0, |id| self.idf_id(id))
        })
    }

    /// Build the query's PRA model from the merged statistics: an idf
    /// table over the query's tokens, resolved through the snapshot's
    /// vocabulary, normalized by the live collection size. A token outside
    /// the table scores 0, as one no segment ever saw does.
    pub fn pra_model<S: AsRef<str>>(&self, tokens: &[S], snapshot: &Snapshot) -> PraModel {
        let vocabulary = snapshot.vocabulary();
        let table = tokens
            .iter()
            .map(|token| {
                let name = token.as_ref();
                let idf = vocabulary
                    .get(name)
                    .filter(|&id| vocabulary.name(id) == name)
                    .map_or(0.0, |id| self.idf_id(id));
                (name.to_string(), idf)
            })
            .collect();
        PraModel::with_idf_table(table, self.db_size)
    }
}

/// Add `seg`'s live document frequencies to `df`, with `counts` as zeroed
/// scratch (left zeroed). A segment with fewer token occurrences than
/// vocabulary entries counts its live documents' distinct tokens; any
/// other adds its list heads and takes its tombstoned documents back out.
fn add_live_dfs(seg: &SnapshotSegment, df: &mut [usize], counts: &mut [u32]) {
    let (data, deletes) = (seg.data(), seg.deletes());
    let index = data.index();
    let mut touched: Vec<TokenId> = Vec::new();
    if index.any_block_list().num_positions() < index.num_tokens() {
        for local in (0..data.num_docs()).filter(|&l| deletes.is_live(l)) {
            distinct_tokens(data.document(local), counts, &mut touched);
            for &t in &touched {
                df[t.index()] += 1;
            }
        }
    } else {
        for (slot, n) in df.iter_mut().zip(index.dfs()) {
            *slot += n;
        }
        for local in deletes.iter_deleted() {
            distinct_tokens(data.document(local), counts, &mut touched);
            for &t in &touched {
                df[t.index()] -= 1;
            }
        }
    }
}

/// The distinct tokens of `doc`, into `touched`; `counts` is zeroed
/// scratch, left zeroed.
fn distinct_tokens(doc: &Document, counts: &mut [u32], touched: &mut Vec<TokenId>) {
    count_tokens(doc, counts, touched);
    for &t in touched.iter() {
        counts[t.index()] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ScoreStats;
    use ftsl_index::{IndexBuilder, LiveConfig, LiveIndex};
    use ftsl_model::{Corpus, NodeId};

    fn manual() -> LiveConfig {
        LiveConfig {
            background_merge: false,
            ..LiveConfig::default()
        }
    }

    #[test]
    fn merged_stats_match_a_monolithic_rebuild() {
        let live = LiveIndex::with_config(manual());
        let texts = [
            "usability of a software",
            "software testing tools",
            "task completion experiment",
            "usability by task completion",
        ];
        for (i, t) in texts.iter().enumerate() {
            live.add_document(t);
            if i % 2 == 1 {
                live.flush();
            }
        }
        live.delete_node(NodeId(1));
        let snap = live.snapshot();
        let stats = SnapshotStats::compute(&snap);

        // The monolithic oracle: rebuild from the survivors.
        let survivors: Vec<String> = snap
            .live_documents()
            .map(|(_, d)| {
                d.tokens
                    .iter()
                    .map(|&(t, _)| snap.vocabulary().name(t).to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        let corpus = Corpus::from_texts(&survivors);
        let index = IndexBuilder::new().build(&corpus);
        let mono = ScoreStats::compute(&corpus, &index);

        assert_eq!(stats.db_size(), mono.db_size);
        for (id, name) in snap.vocabulary().iter() {
            let mono_df = corpus.token_id(name).map_or(0, |m| mono.df(m));
            assert_eq!(stats.df_id(id), mono_df, "df({name})");
            let mono_idf = corpus.token_id(name).map_or(0.0, |m| mono.idf(m));
            assert_eq!(
                stats.idf_id(id).to_bits(),
                mono_idf.to_bits(),
                "idf({name})"
            );
        }
        // Per-node norms: walk live docs in order; they are the monolithic
        // nodes 0..n in the same order.
        let mut mono_node = 0u32;
        for (seg_idx, seg) in snap.segments().iter().enumerate() {
            let per = stats.segment(seg_idx);
            for local in 0..seg.data().num_docs() {
                if seg.deletes().is_live(local) {
                    let l = NodeId(local as u32);
                    let m = NodeId(mono_node);
                    assert_eq!(
                        per.l2_norm(l).to_bits(),
                        mono.l2_norm(m).to_bits(),
                        "l2 of live doc {mono_node}"
                    );
                    assert_eq!(per.unique_tokens(l), mono.unique_tokens(m));
                    mono_node += 1;
                }
            }
        }
    }

    #[test]
    fn models_over_snapshots_match_monolithic_models() {
        let live = LiveIndex::with_config(manual());
        live.add_document("alpha beta gamma");
        live.flush();
        live.add_document("beta beta delta");
        live.add_document("gamma doomed");
        live.flush();
        live.delete_node(NodeId(2)); // "doomed" survives nowhere
        let snap = live.snapshot();
        let stats = SnapshotStats::compute(&snap);

        let survivors = ["alpha beta gamma", "beta beta delta"];
        let corpus = Corpus::from_texts(&survivors);
        let index = IndexBuilder::new().build(&corpus);
        let mono = ScoreStats::compute(&corpus, &index);

        // TF-IDF: a query mentioning a token only the tombstoned doc had.
        let q = ["beta", "doomed", "alpha"];
        let snap_model = stats.tfidf_model(&q, &snap);
        let mono_model = TfIdfModel::for_query(&q, &corpus, &mono);
        for t in q {
            assert_eq!(
                snap_model.weight(t).to_bits(),
                mono_model.weight(t).to_bits(),
                "weight({t})"
            );
        }
        assert_eq!(
            snap_model.query_norm().to_bits(),
            mono_model.query_norm().to_bits()
        );

        // PRA: token probabilities agree for live and dead tokens alike.
        let snap_pra = stats.pra_model(
            &["alpha", "beta", "gamma", "delta", "doomed", "unseen"],
            &snap,
        );
        let mono_pra = PraModel::new(&corpus, &mono);
        use crate::ModelScorer;
        use ftsl_algebra::Scorer;
        for t in ["alpha", "beta", "gamma", "delta", "doomed", "unseen"] {
            let a = ModelScorer(&snap_pra, stats.segment(0)).token_tuple(t, NodeId(0));
            let b = ModelScorer(&mono_pra, &mono).token_tuple(t, NodeId(0));
            assert_eq!(a.to_bits(), b.to_bits(), "pra({t})");
        }
    }

    #[test]
    fn empty_snapshot_yields_empty_stats() {
        let live = LiveIndex::with_config(manual());
        let snap = live.snapshot();
        let stats = SnapshotStats::compute(&snap);
        assert_eq!(stats.db_size(), 0);
        assert_eq!(stats.df_id(TokenId(0)), 0);
        assert_eq!(stats.idf_id(TokenId(5)), 0.0);
        let model = stats.tfidf_model(&["anything"], &snap);
        assert_eq!(model.weight("anything"), 0.0);
    }
}
