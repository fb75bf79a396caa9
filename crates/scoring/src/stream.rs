//! Streaming scored retrieval: score-at-the-cursor with top-k pruning.
//!
//! This module replaces the dense "score every node, then sort" pass with
//! evaluators that stream posting entries through a [`TopK`] heap:
//!
//! * [`topk_union`] — the pruned k-way union for *flat disjunctions*
//!   (`'a' OR 'b' OR ...`, the ranked-query workhorse). It runs
//!   MaxScore-style pruning on list-level bounds and block-max pruning on
//!   the per-block impact headers: lists whose bound cannot lift a document
//!   into the current top-k are demoted to probe-only, probes whose
//!   block-level bound cannot help are skipped without decoding, and when a
//!   single driving list remains its blocks are skipped wholesale while
//!   their bounds stay under the heap threshold.
//! * [`run_bool_topk`] — cursor-driven evaluation of *arbitrary BOOL
//!   queries* under the paper's Section 5.3 probabilistic semantics
//!   (`AND` multiplies, `OR` combines probabilistically, `NOT`
//!   complements), arithmetically identical to the exhaustive
//!   [`crate::bool_scores::run_bool_scored`] oracle but streaming: no
//!   `BTreeMap` over the corpus, conjunctions leapfrog by `seek`, and only
//!   the best `k` results are retained.
//!
//! Both evaluators read the block lists through the [`ScoredCursor`]
//! contract.

use crate::pra::PraModel;
use crate::stats::ScoreStats;
use crate::topk::TopK;
use crate::ScoringModel;
use ftsl_index::{
    AccessCounters, DeleteFilteredCursor, DeleteSet, InvertedIndex, ScoredBlocks, ScoredCursor,
};
use ftsl_lang::SurfaceQuery;
use ftsl_model::{Corpus, NodeId};

/// Wrap a leaf cursor in tombstone filtering when a delete set is present
/// and non-empty (a segment with deletions); the single-index primitives
/// pass `None`.
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
/// exhaustive oracle's `project` does — `1 − (1 − s)^tf`, computed by the
/// same fold so results are bit-identical.
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

    /// A scorer with a fixed tuple probability (used for `ANY`, whose
    /// tuples carry probability 1).
    pub fn constant(prob: f64) -> Self {
        PraEntryScorer { prob }
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

/// Hits plus the work counters accumulated while producing them.
#[derive(Clone, Debug, Default)]
pub struct ScoredHits {
    /// `(node, score)` in ranking order (descending score, ascending node).
    pub hits: Vec<(NodeId, f64)>,
    /// Entries/positions decoded, entries and blocks skipped.
    pub counters: AccessCounters,
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

/// MaxScore/block-max pruned k-way union: the top `k` nodes of a flat
/// disjunction whose per-list scores combine by `kind`.
///
/// Cursors come from [`InvertedIndex::scored_cursor`]. Nodes scoring ≤ 0 are
/// never reported, matching the exhaustive oracles.
pub fn topk_union(
    cursors: Vec<Box<dyn ScoredCursor + '_>>,
    kind: UnionKind,
    k: usize,
) -> ScoredHits {
    let mut topk = TopK::new(k);
    let counters = topk_union_into(cursors, kind, &mut topk, None);
    ScoredHits {
        hits: topk.into_ranked(),
        counters,
    }
}

/// [`topk_union`] draining into a caller-owned heap: the global-threshold
/// form. The heap may arrive non-empty (tightened by earlier segments of a
/// live snapshot), every pruning decision reads its *current* threshold,
/// and candidates enter under `globals[local]` when a remap is given — so
/// heap tie-breaks run on the same ids a monolithic index would use.
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

/// A cursor-style stream of `(node, score)` pairs in ascending node order —
/// the building block of streaming BOOL scoring.
///
/// Like the posting cursors, streams *stay put*: `current` re-reads the
/// entry the stream is positioned on, and `seek` does not move when the
/// current node already satisfies the bound. That stability is what lets a
/// conjunction leapfrog its operands without losing matches.
trait ScoreStream {
    /// The scored node the stream is positioned on, if any. `&mut self`
    /// because leaf scores can trigger a lazy tf-column decode.
    fn current(&mut self) -> Option<(NodeId, f64)>;
    /// Advance to the next scored node.
    fn next(&mut self) -> Option<(NodeId, f64)>;
    /// Advance to the first scored node with id ≥ `target`; stays put if
    /// the current node already qualifies.
    fn seek(&mut self, target: NodeId) -> Option<(NodeId, f64)>;
    /// Work accumulated so far.
    fn counters(&self) -> AccessCounters;
}

/// Leaf: a scored posting cursor.
struct LeafStream<'a> {
    cur: Box<dyn ScoredCursor + 'a>,
}

impl ScoreStream for LeafStream<'_> {
    fn current(&mut self) -> Option<(NodeId, f64)> {
        let node = self.cur.node()?;
        Some((node, self.cur.score()))
    }

    fn next(&mut self) -> Option<(NodeId, f64)> {
        let node = self.cur.next_entry()?;
        Some((node, self.cur.score()))
    }

    fn seek(&mut self, target: NodeId) -> Option<(NodeId, f64)> {
        let node = self.cur.seek(target)?;
        Some((node, self.cur.score()))
    }

    fn counters(&self) -> AccessCounters {
        self.cur.counters()
    }
}

/// `AND`: intersection of supports, scores multiply (PRA join). The left
/// side drives `seek`s into the right, so entries outside the intersection
/// are skipped, not decoded.
struct AndStream<'a> {
    left: Box<dyn ScoreStream + 'a>,
    right: Box<dyn ScoreStream + 'a>,
    cur: Option<(NodeId, f64)>,
}

impl AndStream<'_> {
    /// Leapfrog from the left side's position until both sides agree.
    fn align(&mut self, mut l: Option<(NodeId, f64)>) -> Option<(NodeId, f64)> {
        self.cur = loop {
            let Some((ln, ls)) = l else { break None };
            let Some((rn, rs)) = self.right.seek(ln) else {
                break None;
            };
            if rn == ln {
                break Some((ln, ls * rs));
            }
            l = self.left.seek(rn);
        };
        self.cur
    }
}

impl ScoreStream for AndStream<'_> {
    fn current(&mut self) -> Option<(NodeId, f64)> {
        self.cur
    }

    fn next(&mut self) -> Option<(NodeId, f64)> {
        let l = self.left.next();
        self.align(l)
    }

    fn seek(&mut self, target: NodeId) -> Option<(NodeId, f64)> {
        if let Some((n, _)) = self.cur {
            if n >= target {
                return self.cur;
            }
        }
        let l = self.left.seek(target);
        self.align(l)
    }

    fn counters(&self) -> AccessCounters {
        self.left.counters() + self.right.counters()
    }
}

/// The oracle's union arithmetic, kept verbatim so streaming and exhaustive
/// results agree bit-for-bit (a missing side contributes score 0).
fn prob_or(a: f64, b: f64) -> f64 {
    1.0 - (1.0 - a) * (1.0 - b)
}

/// `OR`: union of supports; scores combine probabilistically with missing
/// sides contributing 0 — the exact arithmetic of the exhaustive oracle.
struct OrStream<'a> {
    left: Box<dyn ScoreStream + 'a>,
    right: Box<dyn ScoreStream + 'a>,
    cur: Option<(NodeId, f64)>,
    primed: bool,
}

impl OrStream<'_> {
    /// Recompute the current element from the children's positions without
    /// consuming them. The asymmetry mirrors the exhaustive oracle
    /// bit-for-bit: left-only nodes keep their score untouched, right-only
    /// nodes pass through the union formula with a missing left (`s1 = 0`).
    fn merge(&mut self) -> Option<(NodeId, f64)> {
        self.cur = match (self.left.current(), self.right.current()) {
            (Some((ln, ls)), Some((rn, rs))) => match ln.cmp(&rn) {
                std::cmp::Ordering::Less => Some((ln, ls)),
                std::cmp::Ordering::Greater => Some((rn, prob_or(0.0, rs))),
                std::cmp::Ordering::Equal => Some((ln, prob_or(ls, rs))),
            },
            (Some((ln, ls)), None) => Some((ln, ls)),
            (None, Some((rn, rs))) => Some((rn, prob_or(0.0, rs))),
            (None, None) => None,
        };
        self.cur
    }
}

impl ScoreStream for OrStream<'_> {
    fn current(&mut self) -> Option<(NodeId, f64)> {
        self.cur
    }

    fn next(&mut self) -> Option<(NodeId, f64)> {
        if !self.primed {
            self.primed = true;
            self.left.next();
            self.right.next();
        } else if let Some((n, _)) = self.cur {
            // Advance exactly the children that produced the current node.
            if self.left.current().is_some_and(|(ln, _)| ln == n) {
                self.left.next();
            }
            if self.right.current().is_some_and(|(rn, _)| rn == n) {
                self.right.next();
            }
        } else {
            return None;
        }
        self.merge()
    }

    fn seek(&mut self, target: NodeId) -> Option<(NodeId, f64)> {
        if self.primed {
            if let Some((n, _)) = self.cur {
                if n >= target {
                    return self.cur;
                }
            }
        }
        self.primed = true;
        if self.left.current().is_none_or(|(n, _)| n < target) {
            self.left.seek(target);
        }
        if self.right.current().is_none_or(|(n, _)| n < target) {
            self.right.seek(target);
        }
        self.merge()
    }

    fn counters(&self) -> AccessCounters {
        self.left.counters() + self.right.counters()
    }
}

/// `NOT`: dense complement over the node universe — every context node gets
/// `1 − s(inner)`, including nodes the inner stream never mentions (the
/// calculus semantics under which `NOT 'x'` holds on empty nodes).
struct NotStream<'a> {
    inner: Box<dyn ScoreStream + 'a>,
    inner_primed: bool,
    universe: u32,
    cur: Option<(NodeId, f64)>,
    done: bool,
}

impl NotStream<'_> {
    fn complement_at(&mut self, node: NodeId) -> (NodeId, f64) {
        let stale = if self.inner_primed {
            self.inner.current().is_some_and(|(n, _)| n < node)
        } else {
            self.inner_primed = true;
            true
        };
        if stale {
            self.inner.seek(node);
        }
        let s = match self.inner.current() {
            Some((n, s)) if n == node => s,
            _ => 0.0,
        };
        (node, 1.0 - s)
    }
}

impl ScoreStream for NotStream<'_> {
    fn current(&mut self) -> Option<(NodeId, f64)> {
        self.cur
    }

    fn next(&mut self) -> Option<(NodeId, f64)> {
        if self.done {
            return None;
        }
        let next_node = match self.cur {
            Some((n, _)) => n.0 + 1,
            None => 0,
        };
        if next_node >= self.universe {
            self.done = true;
            self.cur = None;
            return None;
        }
        self.cur = Some(self.complement_at(NodeId(next_node)));
        self.cur
    }

    fn seek(&mut self, target: NodeId) -> Option<(NodeId, f64)> {
        if self.done {
            return None;
        }
        if let Some((n, _)) = self.cur {
            if n >= target {
                return self.cur;
            }
        }
        if target.0 >= self.universe {
            self.done = true;
            self.cur = None;
            return None;
        }
        self.cur = Some(self.complement_at(target));
        self.cur
    }

    fn counters(&self) -> AccessCounters {
        self.inner.counters()
    }
}

/// Build the score stream for a BOOL-shaped query. A `live` delete set
/// wraps every leaf cursor in tombstone filtering (`NOT`'s dense complement
/// can still surface tombstoned nodes — the drain loop filters those).
fn build_stream<'a>(
    query: &SurfaceQuery,
    corpus: &'a Corpus,
    index: &'a InvertedIndex,
    stats: &ScoreStats,
    model: &PraModel,
    live: Option<&'a DeleteSet>,
) -> Result<Box<dyn ScoreStream + 'a>, String> {
    match query {
        SurfaceQuery::Lit(tok) => {
            let scorer = PraEntryScorer::new(tok, model, stats);
            let id = corpus
                .token_id(tok)
                .unwrap_or(ftsl_model::TokenId(u32::MAX));
            Ok(Box::new(LeafStream {
                cur: wrap_live(index.scored_cursor(id, scorer), live),
            }))
        }
        SurfaceQuery::Any => {
            let scorer = PraEntryScorer::constant(1.0);
            let cur = Box::new(ScoredBlocks::new(index.any_block_list(), scorer));
            Ok(Box::new(LeafStream {
                cur: wrap_live(cur, live),
            }))
        }
        SurfaceQuery::Not(inner) => Ok(Box::new(NotStream {
            inner: build_stream(inner, corpus, index, stats, model, live)?,
            inner_primed: false,
            universe: corpus.len() as u32,
            cur: None,
            done: false,
        })),
        SurfaceQuery::And(a, b) => Ok(Box::new(AndStream {
            left: build_stream(a, corpus, index, stats, model, live)?,
            right: build_stream(b, corpus, index, stats, model, live)?,
            cur: None,
        })),
        SurfaceQuery::Or(a, b) => Ok(Box::new(OrStream {
            left: build_stream(a, corpus, index, stats, model, live)?,
            right: build_stream(b, corpus, index, stats, model, live)?,
            cur: None,
            primed: false,
        })),
        other => Err(format!("construct {} is not in BOOL", other.render())),
    }
}

/// Streaming top-k evaluation of a BOOL-shaped query under PRA scoring:
/// the first `k` rows of [`crate::bool_scores::run_bool_scored`], computed
/// without materializing a score for every node.
pub fn run_bool_topk(
    query: &SurfaceQuery,
    corpus: &Corpus,
    index: &InvertedIndex,
    stats: &ScoreStats,
    model: &PraModel,
    k: usize,
) -> Result<ScoredHits, String> {
    let mut topk = TopK::new(k);
    let counters = run_bool_topk_into(query, corpus, index, stats, model, None, &mut topk, None)?;
    Ok(ScoredHits {
        hits: topk.into_ranked(),
        counters,
    })
}

/// [`run_bool_topk`] over one live-index segment, draining into a
/// caller-owned heap (see [`topk_union_into`] for the sharing contract):
/// nodes enter under `globals[local]` when a remap is given. Tombstoned
/// documents are filtered at the leaf cursors *and* at heap insertion (a
/// `NOT` over a tombstoned node still surfaces it via the dense
/// complement), so they can neither appear in the hits nor displace live
/// candidates. The stream is drained fully — tree scores have no per-entry
/// upper bound to prune on — but a shared heap still concentrates the k
/// best across segments in one place.
#[allow(clippy::too_many_arguments)]
pub fn run_bool_topk_into(
    query: &SurfaceQuery,
    corpus: &Corpus,
    index: &InvertedIndex,
    stats: &ScoreStats,
    model: &PraModel,
    live: Option<&DeleteSet>,
    topk: &mut TopK,
    globals: Option<&[u32]>,
) -> Result<AccessCounters, String> {
    let mut stream = build_stream(query, corpus, index, stats, model, live)?;
    while let Some((node, score)) = stream.next() {
        if score > 0.0 && live.is_none_or(|d| d.is_live(node.index())) {
            let ranked_id = globals.map_or(node, |g| NodeId(g[node.index()]));
            topk.insert(ranked_id, score);
        }
    }
    Ok(stream.counters())
}

/// A score upper bound for *any* node under PRA stream-tree evaluation of
/// `query` against this corpus/index — computed from list metadata alone
/// (no posting is decoded). PRA scores are probabilities in `[0, 1]`, so
/// each combinator's bound follows from its children's:
/// literals bound by their list-level impact ceiling, `ANY`/`NOT` by 1,
/// `AND` by the product, `OR` by the probabilistic sum. Shapes outside
/// BOOL report the same error [`run_bool_topk`] would.
pub fn pra_tree_bound(
    query: &SurfaceQuery,
    corpus: &Corpus,
    index: &InvertedIndex,
    stats: &ScoreStats,
    model: &PraModel,
) -> Result<f64, String> {
    let empty = corpus.is_empty();
    match query {
        SurfaceQuery::Lit(tok) => {
            let scorer = PraEntryScorer::new(tok, model, stats);
            let id = corpus
                .token_id(tok)
                .unwrap_or(ftsl_model::TokenId(u32::MAX));
            Ok(index.scored_cursor(id, scorer).max_score_list())
        }
        SurfaceQuery::Any => Ok(if empty { 0.0 } else { 1.0 }),
        // `NOT` scores `1 − s(inner)` over the dense node universe.
        SurfaceQuery::Not(_) => Ok(if empty { 0.0 } else { 1.0 }),
        SurfaceQuery::And(a, b) => {
            let (ba, bb) = (
                pra_tree_bound(a, corpus, index, stats, model)?,
                pra_tree_bound(b, corpus, index, stats, model)?,
            );
            Ok(ba * bb)
        }
        SurfaceQuery::Or(a, b) => {
            let (ba, bb) = (
                pra_tree_bound(a, corpus, index, stats, model)?,
                pra_tree_bound(b, corpus, index, stats, model)?,
            );
            Ok(prob_or(ba, bb))
        }
        other => Err(format!("construct {} is not in BOOL", other.render())),
    }
}

/// Streaming TF-IDF top-k for a bag of search tokens (the disjunctive
/// ranked query of Section 3.1): the first `k` rows of
/// [`crate::classic::classic_tfidf`], via the pruned union.
pub fn topk_tfidf<S: AsRef<str>>(
    query_tokens: &[S],
    corpus: &Corpus,
    index: &InvertedIndex,
    stats: &ScoreStats,
    model: &crate::TfIdfModel,
    k: usize,
) -> ScoredHits {
    let cursors = tfidf_union_cursors(query_tokens, corpus, index, stats, model, None);
    topk_union(cursors, UnionKind::Sum, k)
}

/// The scored cursors [`topk_tfidf`] unions, stepping over the tombstones
/// of `live` when given — factored out so a multi-segment caller can build
/// each segment's cursors (and read their [`union_bound`]) before deciding
/// to evaluate it at all.
/// Token normalization (lowercase, sort, dedup) is deterministic, so every
/// segment folds the same token order and scores stay bit-identical to the
/// monolithic path.
pub fn tfidf_union_cursors<'a, S: AsRef<str>>(
    query_tokens: &[S],
    corpus: &'a Corpus,
    index: &'a InvertedIndex,
    stats: &'a ScoreStats,
    model: &crate::TfIdfModel,
    live: Option<&'a DeleteSet>,
) -> Vec<Box<dyn ScoredCursor + 'a>> {
    let mut distinct: Vec<String> = query_tokens
        .iter()
        .map(|t| t.as_ref().to_lowercase())
        .collect();
    distinct.sort();
    distinct.dedup();
    distinct
        .iter()
        .filter_map(|t| {
            let id = corpus.token_id(t)?;
            let cur = index.scored_cursor(id, TfIdfEntryScorer::new(t, model, stats));
            Some(wrap_live(cur, live))
        })
        .collect()
}

/// Streaming PRA top-k for a flat disjunction of tokens: the first `k` rows
/// of [`crate::bool_scores::run_bool_scored`] on the equivalent `OR` query,
/// via the pruned union.
pub fn topk_pra_disjunction<S: AsRef<str>>(
    query_tokens: &[S],
    corpus: &Corpus,
    index: &InvertedIndex,
    stats: &ScoreStats,
    model: &PraModel,
    k: usize,
) -> ScoredHits {
    let cursors = pra_union_cursors(query_tokens, corpus, index, stats, model, None);
    topk_union(cursors, UnionKind::ProbOr, k)
}

/// The scored cursors [`topk_pra_disjunction`] unions (tokens used exactly
/// as given — PRA literals are not normalized), tombstone-filtered and
/// factored out for multi-segment callers like [`tfidf_union_cursors`].
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
