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
//! algebra's: a disjunction's per-list contributions combine through the
//! model's own `∪` ([`Scorer::union`]), as the exhaustive ranking does, so
//! the union is that ranking truncated to `k` (TF-IDF sums may associate
//! differently, so their low bits can differ). Every other query shape is
//! ranked exhaustively through the algebra.
//!
//! The union reads the block lists through [`ScoredBlocks`] cursors.

use crate::pra::PraModel;
use crate::stats::ScoreStats;
use crate::topk::TopK;
use crate::{ModelScorer, TfIdfModel};
use ftsl_algebra::Scorer;
use ftsl_index::{AccessCounters, DeleteSet, EntryScorer, InvertedIndex, ScoredBlocks};
use ftsl_model::{Corpus, NodeId};

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
    /// Scorer for `token` under a query's [`TfIdfModel`] and one segment's
    /// statistics.
    pub fn new(token: &str, scorer: &ModelScorer<'a, TfIdfModel>) -> Self {
        let ModelScorer(model, stats) = *scorer;
        TfIdfEntryScorer {
            stats,
            unit: model.weight(token) * model.token_idf(token) / model.query_norm(),
        }
    }
}

impl EntryScorer for TfIdfEntryScorer<'_> {
    fn score(&self, node: NodeId, tf: u32) -> f64 {
        f64::from(tf) * self.unit
            / (self.stats.unique_tokens(node) as f64 * self.stats.l2_norm(node))
    }

    fn bound(&self, max_tf: u32) -> f64 {
        // The score's own expression at the largest numerator and the
        // smallest denominator: correctly rounded `·` and `/` are monotone,
        // so no score in the list rounds above it.
        f64::from(max_tf) * self.unit / self.stats.min_denominator()
    }
}

/// Probabilistic (PRA) entry scoring for one search token: the entry's
/// per-occurrence probabilities collapse by probabilistic OR, exactly as the
/// algebra's projection ([`Scorer::project`]) does — `1 − (1 − s)^tf`,
/// computed by the same fold so results are bit-identical.
pub struct PraEntryScorer {
    /// The token's tuple probability (node-independent).
    prob: f64,
}

impl PraEntryScorer {
    /// Scorer for `token` under a collection's [`PraModel`].
    pub fn new(token: &str, scorer: &ModelScorer<'_, PraModel>) -> Self {
        PraEntryScorer {
            prob: scorer.token_tuple(token, NodeId(0)),
        }
    }

    fn collapse(&self, tf: u32) -> f64 {
        // Identical arithmetic to the PRA projection over `tf` copies.
        1.0 - (0..tf).fold(1.0, |acc, _| acc * (1.0 - self.prob))
    }
}

impl EntryScorer for PraEntryScorer {
    fn score(&self, _node: NodeId, tf: u32) -> f64 {
        self.collapse(tf)
    }

    fn bound(&self, max_tf: u32) -> f64 {
        // Monotone in tf, so the block's max_tf bounds every entry.
        self.collapse(max_tf)
    }
}

/// `∪` of two score *bounds*, rounded up by one ulp. A candidate's score
/// folds its contributions in the caller's token order, and a bound folds
/// in bound order: the two orders can round apart, so a bound folded at
/// nearest could fall below the score it bounds and prune an exact tie.
fn union_up(union: &impl Scorer<Score = f64>, a: f64, b: f64) -> f64 {
    union.union(Some(a), Some(b)).next_up()
}

/// The list-level score upper bound of a whole union: what any single node
/// could score if it sat at the impact ceiling of *every* list at once.
/// This is the segment-granularity pruning bound — a live-index segment
/// whose union bound falls below a shared heap's threshold cannot place a
/// single document and can be skipped without touching a posting.
pub fn union_bound<E: EntryScorer>(
    cursors: &[ScoredBlocks<'_, E>],
    union: &impl Scorer<Score = f64>,
) -> f64 {
    cursors
        .iter()
        .fold(0.0, |acc, c| union_up(union, acc, c.max_score_list()))
}

/// MaxScore/block-max pruned k-way union of a flat disjunction whose
/// per-list scores combine through `union`'s `∪`, draining into a
/// caller-owned heap: the global-threshold form. Cursors come from
/// [`union_cursors`]. Nodes scoring ≤ 0 are never kept, matching the
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
pub fn topk_union_into<E: EntryScorer>(
    cursors: Vec<ScoredBlocks<'_, E>>,
    union: &impl Scorer<Score = f64>,
    topk: &mut TopK,
    globals: Option<&[u32]>,
) -> AccessCounters {
    // Ascending by list bound: prefix[i] bounds what lists 0..=i can jointly
    // contribute to any single node. The suffix past the "first essential"
    // index drives candidate generation; lists below it are probe-only.
    // Each cursor keeps its *caller-order* index through the sort: the
    // union fold below runs in that order, so a node's score is
    // bit-identical no matter how the bounds happened to rank the lists —
    // in particular, one segment of a live index (whose per-list bounds
    // differ from the whole collection's) folds exactly like a monolithic
    // index over the same documents.
    let mut cursors: Vec<(usize, ScoredBlocks<'_, E>)> = cursors.into_iter().enumerate().collect();
    cursors.sort_by(|a, b| a.1.max_score_list().total_cmp(&b.1.max_score_list()));
    let m = cursors.len();
    let prefix: Vec<f64> = cursors
        .iter()
        .scan(0.0, |acc, (_, c)| {
            *acc = union_up(union, *acc, c.max_score_list());
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
                0.0
            } else {
                prefix[first_essential - 1]
            };
            let driver = &mut cursors[m - 1].1;
            while !driver.exhausted()
                && !topk.could_enter(union_up(union, driver.max_score_current_block(), below))
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
            .fold(0.0, |acc, &(_, s)| union_up(union, acc, s));
        for i in (0..first_essential).rev() {
            if !topk.would_accept(ranked_id, union_up(union, acc_bound, prefix[i])) {
                break;
            }
            // Block-max refinement: bound the probe by the block the
            // candidate would land in — skip the seek (and all decoding)
            // when that block cannot help.
            let below = if i == 0 { 0.0 } else { prefix[i - 1] };
            let block_bound = cursors[i].1.max_score_at(candidate);
            let probe_bound = union_up(union, block_bound, below);
            if !topk.would_accept(ranked_id, union_up(union, acc_bound, probe_bound)) {
                // The probed list contributes nothing decodable here; the
                // saving shows up as entries it never decodes (block-level
                // `blocks_skipped` accounting stays with the cursors).
                continue;
            }
            if cursors[i].1.seek(candidate) == Some(candidate) {
                let s = cursors[i].1.score();
                parts.push((cursors[i].0, s));
                acc_bound = union_up(union, acc_bound, s);
            }
        }
        // Fixed-order fold (see `parts` above), never rounded up.
        parts.sort_by_key(|&(key, _)| key);
        let score = parts
            .iter()
            .fold(0.0, |acc, &(_, s)| union.union(Some(acc), Some(s)));
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

/// The scored cursors of a flat disjunction over `tokens` (the disjunctive
/// ranked query of Section 3.1), one per token the corpus knows, in the
/// order given — the order the union folds their scores in — each scored
/// by `entry(token)` and stepping over the tombstones of `live`. A
/// multi-segment caller builds each segment's cursors (and reads their
/// [`union_bound`]) before deciding to evaluate it at all.
///
/// The caller picks the order the model's ranking folds in: TF-IDF's
/// tokens lowercased and sorted, so every segment and the monolithic
/// ranking fold alike; PRA's as given (PRA literals are not normalized).
/// Repeats are kept: `'a' OR 'a'` unions two arms, and the algebra combines
/// their scores, so the union must too.
pub fn union_cursors<'a, S: AsRef<str>, E: EntryScorer>(
    tokens: &[S],
    corpus: &Corpus,
    index: &'a InvertedIndex,
    live: Option<&'a DeleteSet>,
    entry: impl Fn(&str) -> E,
) -> Vec<ScoredBlocks<'a, E>> {
    tokens
        .iter()
        .filter_map(|t| {
            let t = t.as_ref();
            let id = corpus.token_id(t)?;
            Some(ScoredBlocks::new(index.block_list(id), entry(t), live))
        })
        .collect()
}
