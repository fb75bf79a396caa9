//! Streaming scored retrieval: score-at-the-cursor with top-k pruning.
//!
//! [`topk_union_into`] is the pruned k-way union for *flat disjunctions*
//! (`'a' OR 'b' OR ...`, the ranked-query workhorse): instead of scoring
//! every node and sorting, it streams posting entries through a [`TopK`]
//! heap. It runs MaxScore-style pruning on list-level bounds and block-max
//! pruning on the per-block impact headers: lists whose bound cannot lift
//! a document into the current top-k are demoted to probe-only, probes
//! whose block-level bound cannot help are skipped without decoding, and
//! when a single driving list remains its blocks are skipped wholesale
//! while their bounds stay under the heap threshold. Its scores are the
//! algebra's: a disjunction's union adds (TF-IDF) or combines
//! probabilistically (PRA) as the exhaustive ranking does, so the union is
//! that ranking truncated to `k` (TF-IDF sums may associate differently,
//! so their low bits can differ). Every other query shape is ranked
//! exhaustively through the algebra.
//!
//! The union reads the block lists through the [`ScoredCursor`] contract.

use crate::pra::PraModel;
use crate::stats::ScoreStats;
use crate::topk::TopK;
use crate::ScoringModel;
use ftsl_index::{AccessCounters, DeleteFilteredCursor, DeleteSet, InvertedIndex, ScoredCursor};
use ftsl_model::{Corpus, NodeId};

/// Wrap a leaf cursor in tombstone filtering when a delete set is present
/// and non-empty (a segment with deletions).
fn wrap_live<'a>(
    cur: Box<dyn ScoredCursor + 'a>,
    live: Option<&'a DeleteSet>,
) -> Box<dyn ScoredCursor + 'a> {
    match live {
        Some(deletes) if deletes.deleted_count() > 0 => {
            Box::new(DeleteFilteredCursor::new(cur, deletes))
        }
        _ => cur,
    }
}

/// TF-IDF entry scoring for one search token: per-entry score is the
/// token's full contribution to the node's cosine TF-IDF (Section 3.1), so
/// summing across a disjunction's tokens reproduces
/// [`crate::classic::classic_tfidf`].
pub struct TfIdfEntryScorer<'a> {
    stats: &'a ScoreStats,
    /// `w(t)·idf(t)/‖q‖₂` — the node-independent factor.
    unit: f64,
}

impl<'a> TfIdfEntryScorer<'a> {
    /// Scorer for `token` under a query's [`crate::TfIdfModel`].
    pub fn new(token: &str, model: &crate::TfIdfModel, stats: &'a ScoreStats) -> Self {
        TfIdfEntryScorer {
            stats,
            unit: model.weight(token) * model.token_idf(token) / model.query_norm(),
        }
    }
}

impl ftsl_index::EntryScorer for TfIdfEntryScorer<'_> {
    fn score(&self, node: NodeId, tf: u32) -> f64 {
        f64::from(tf) * self.unit
            / (self.stats.unique_tokens(node) as f64 * self.stats.l2_norm(node))
    }

    fn bound(&self, max_tf: u32) -> f64 {
        f64::from(max_tf) * self.unit * self.stats.max_node_boost()
    }
}

/// Probabilistic (PRA) entry scoring for one search token: the entry's
/// per-occurrence probabilities collapse by probabilistic OR, exactly as the
/// algebra's projection ([`PraModel::project`]) does — `1 − (1 − s)^tf`,
/// computed by the same fold so results are bit-identical.
pub struct PraEntryScorer {
    /// The token's tuple probability (node-independent).
    prob: f64,
}

impl PraEntryScorer {
    /// Scorer for `token` under a corpus's [`PraModel`].
    pub fn new(token: &str, model: &PraModel, stats: &ScoreStats) -> Self {
        PraEntryScorer {
            prob: model.token_tuple(token, NodeId(0), stats),
        }
    }

    fn collapse(&self, tf: u32) -> f64 {
        // Identical arithmetic to PraModel::project over `tf` copies.
        1.0 - (0..tf).fold(1.0, |acc, _| acc * (1.0 - self.prob))
    }
}

impl ftsl_index::EntryScorer for PraEntryScorer {
    fn score(&self, _node: NodeId, tf: u32) -> f64 {
        self.collapse(tf)
    }

    fn bound(&self, max_tf: u32) -> f64 {
        // Monotone in tf, so the block's max_tf bounds every entry.
        self.collapse(max_tf)
    }
}

/// How a k-way union combines per-list contributions to one node's score.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnionKind {
    /// Additive (TF-IDF): contributions sum.
    Sum,
    /// Probabilistic OR (PRA): `1 − ∏(1 − sᵢ)`.
    ProbOr,
}

impl UnionKind {
    /// The combine identity (score of a node absent from every list).
    pub fn identity(&self) -> f64 {
        0.0
    }

    /// Combine two contributions.
    pub fn combine(&self, a: f64, b: f64) -> f64 {
        match self {
            UnionKind::Sum => a + b,
            UnionKind::ProbOr => 1.0 - (1.0 - a) * (1.0 - b),
        }
    }
}

/// The list-level score upper bound of a whole union: what any single node
/// could score if it sat at the impact ceiling of *every* list at once.
/// This is the segment-granularity pruning bound — a live-index segment
/// whose union bound falls below a shared heap's threshold cannot place a
/// single document and can be skipped without touching a posting.
pub fn union_bound(cursors: &[Box<dyn ScoredCursor + '_>], kind: UnionKind) -> f64 {
    cursors.iter().fold(kind.identity(), |acc, c| {
        kind.combine(acc, c.max_score_list())
    })
}

/// MaxScore/block-max pruned k-way union of a flat disjunction whose
/// per-list scores combine by `kind`, draining into a caller-owned heap:
/// the global-threshold form. Cursors come from
/// [`InvertedIndex::scored_cursor`] (see [`tfidf_union_cursors`] and
/// [`pra_union_cursors`]). Nodes scoring ≤ 0 are never kept, matching the
/// exhaustive ranking. The heap may arrive non-empty (tightened by earlier
/// segments of a live snapshot), every pruning decision reads its
/// *current* threshold, and candidates enter under `globals[local]` when a
/// remap is given — so heap tie-breaks run on the same ids a monolithic
/// index would use.
///
/// Soundness of sharing: the heap's threshold only ever tightens, so a
/// candidate pruned against the current worst kept score is pruned against
/// every later (higher) threshold too; and each live document exists in
/// exactly one segment, so per-segment scores never need cross-segment
/// combination.
pub fn topk_union_into(
    cursors: Vec<Box<dyn ScoredCursor + '_>>,
    kind: UnionKind,
    topk: &mut TopK,
    globals: Option<&[u32]>,
) -> AccessCounters {
    // Ascending by list bound: prefix[i] bounds what lists 0..=i can jointly
    // contribute to any single node. The suffix past the "first essential"
    // index drives candidate generation; lists below it are probe-only.
    // Each cursor keeps its *caller-order* index through the sort: the
    // combine fold below runs in that order, so a node's score is
    // bit-identical no matter how the bounds happened to rank the lists —
    // in particular, one segment of a live index (whose per-list bounds
    // differ from the whole collection's) folds exactly like a monolithic
    // index over the same documents.
    let mut cursors: Vec<(usize, Box<dyn ScoredCursor + '_>)> =
        cursors.into_iter().enumerate().collect();
    cursors.sort_by(|a, b| a.1.max_score_list().total_cmp(&b.1.max_score_list()));
    let m = cursors.len();
    let prefix: Vec<f64> = cursors
        .iter()
        .scan(kind.identity(), |acc, (_, c)| {
            *acc = kind.combine(*acc, c.max_score_list());
            Some(*acc)
        })
        .collect();
    for (_, c) in cursors.iter_mut() {
        c.next_entry();
    }
    let mut first_essential = 0usize;
    // Per-candidate contributions, keyed by the caller-order cursor index
    // (see above).
    let mut parts: Vec<(usize, f64)> = Vec::with_capacity(m);

    loop {
        // Demote lists whose joint prefix bound can no longer reach the
        // heap: monotone in the threshold, so only moves forward.
        while first_essential < m && !topk.could_enter(prefix[first_essential]) {
            first_essential += 1;
        }
        if first_essential >= m {
            break; // no unseen node can enter the top-k
        }
        // With a single driving list left, skip whole blocks while their
        // impact bound (joined with everything the probe lists could add)
        // stays under the threshold.
        if first_essential == m - 1 {
            let below = if first_essential == 0 {
                kind.identity()
            } else {
                prefix[first_essential - 1]
            };
            let driver = &mut cursors[m - 1].1;
            while !driver.exhausted()
                && !topk.could_enter(kind.combine(driver.max_score_current_block(), below))
            {
                driver.skip_block();
            }
        }
        // Candidate: smallest current node among essential lists.
        let Some(candidate) = cursors[first_essential..]
            .iter()
            .filter_map(|(_, c)| c.node())
            .min()
        else {
            break; // every essential list is exhausted
        };
        // The heap ranks (and tie-breaks) on remapped ids; cursor movement
        // stays on local ids.
        let ranked_id = globals.map_or(candidate, |g| NodeId(g[candidate.index()]));
        parts.clear();
        for (key, c) in cursors.iter_mut().skip(first_essential) {
            if c.node() == Some(candidate) {
                parts.push((*key, c.score()));
                c.next_entry();
            }
        }
        // Probe non-essential lists from the strongest down; stop as soon
        // as even their full remaining bound cannot lift the candidate in.
        // (`would_accept` with a score *bound* is a sound prune: the real
        // score is no larger, and bound-ties still respect the node-id
        // tie-break.)
        let mut acc_bound: f64 = parts
            .iter()
            .fold(kind.identity(), |acc, &(_, s)| kind.combine(acc, s));
        for i in (0..first_essential).rev() {
            if !topk.would_accept(ranked_id, kind.combine(acc_bound, prefix[i])) {
                break;
            }
            // Block-max refinement: bound the probe by the block the
            // candidate would land in — skip the seek (and all decoding)
            // when that block cannot help.
            let below = if i == 0 {
                kind.identity()
            } else {
                prefix[i - 1]
            };
            let block_bound = cursors[i].1.max_score_at(candidate);
            if !topk.would_accept(
                ranked_id,
                kind.combine(acc_bound, kind.combine(block_bound, below)),
            ) {
                // The probed list contributes nothing decodable here; the
                // saving shows up as entries it never decodes (block-level
                // `blocks_skipped` accounting stays with the cursors).
                continue;
            }
            if cursors[i].1.seek(candidate) == Some(candidate) {
                let s = cursors[i].1.score();
                parts.push((cursors[i].0, s));
                acc_bound = kind.combine(acc_bound, s);
            }
        }
        // Fixed-order fold (see `parts` above).
        parts.sort_by_key(|&(key, _)| key);
        let score = parts
            .iter()
            .fold(kind.identity(), |acc, &(_, s)| kind.combine(acc, s));
        if score > 0.0 {
            topk.insert(ranked_id, score);
        }
    }

    let mut counters = AccessCounters::new();
    for (_, c) in &cursors {
        counters += c.counters();
    }
    counters
}

/// The scored cursors of a TF-IDF flat disjunction over a bag of search
/// tokens (the disjunctive ranked query of Section 3.1), stepping over the
/// tombstones of `live` when given. A multi-segment caller builds each
/// segment's cursors (and reads their [`union_bound`]) before deciding to
/// evaluate it at all.
/// Token normalization (lowercase, sort) is deterministic, so every segment
/// folds the same token order and scores stay bit-identical to the
/// monolithic path. Repeats are kept: `'a' OR 'a'` unions two arms, and
/// the algebra adds their scores, so the union must too. Only for
/// distinct tokens is [`crate::classic::classic_tfidf`] the oracle.
pub fn tfidf_union_cursors<'a, S: AsRef<str>>(
    query_tokens: &[S],
    corpus: &'a Corpus,
    index: &'a InvertedIndex,
    stats: &'a ScoreStats,
    model: &crate::TfIdfModel,
    live: Option<&'a DeleteSet>,
) -> Vec<Box<dyn ScoredCursor + 'a>> {
    let mut tokens: Vec<String> = query_tokens
        .iter()
        .map(|t| t.as_ref().to_lowercase())
        .collect();
    tokens.sort();
    tokens
        .iter()
        .filter_map(|t| {
            let id = corpus.token_id(t)?;
            let cur = index.scored_cursor(id, TfIdfEntryScorer::new(t, model, stats));
            Some(wrap_live(cur, live))
        })
        .collect()
}

/// The scored cursors of a PRA flat disjunction (tokens used exactly as
/// given — PRA literals are not normalized), tombstone-filtered like
/// [`tfidf_union_cursors`]. Their union is the first `k` rows of the
/// algebra's PRA ranking of the equivalent `OR` query.
pub fn pra_union_cursors<'a, S: AsRef<str>>(
    query_tokens: &[S],
    corpus: &'a Corpus,
    index: &'a InvertedIndex,
    stats: &ScoreStats,
    model: &PraModel,
    live: Option<&'a DeleteSet>,
) -> Vec<Box<dyn ScoredCursor + 'a>> {
    query_tokens
        .iter()
        .filter_map(|t| {
            let t = t.as_ref();
            let id = corpus.token_id(t)?;
            let cur = index.scored_cursor(id, PraEntryScorer::new(t, model, stats));
            Some(wrap_live(cur, live))
        })
        .collect()
}
