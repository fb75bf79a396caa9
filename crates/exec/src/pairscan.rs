//! Pair-index leaf: recognize closed two-scan proximity cores and answer
//! them from the word-pair auxiliary index ([`ftsl_index::pair`]).
//!
//! A `π_∅` node of a PPRED or NPRED plan (an [`AlgExpr`] tree, as
//! `explain` prints it) — the whole plan, a union branch, a join side or a
//! `NOT` filter — of the shape
//!
//! ```text
//! project (CNode, [])                      (the core's SOME projections)
//!   select {ordered | distance | window}*  (≥ 1 gap-bounding predicate)
//!     join
//!       scan ("a")                         (R_a)
//!       scan ("b")                         (R_b)
//! ```
//!
//! asks exactly the question the pair index precomputes: *is there an
//! occurrence pair of `a` and `b` in this document with forward gap at
//! most `g`?* `recognize` folds every predicate of such a closed core into
//! a single gap bound plus an optional direction, a [`PairQuery`]; `cores`
//! lists the plan's folds once per query. A predicate is folded through
//! the gap bound it declares ([`ftsl_predicates::Predicate::gap_bound`]),
//! never by its name, and `ordered` pins the direction; only a core whose
//! every predicate declares an *exact* bound folds. Pair lists hold no
//! positions, so an open core or a three-word phrase keeps its positional
//! cursors.
//!
//! COMP asks a weaker question of the same lists. A `σ` chain directly
//! over a join of two token scans whose predicates declare any bound,
//! exact or merely implied (`exact_gap(p1,p2,g)` implies a gap of at most
//! `g + 1`), has rows only at nodes holding such a pair, wherever the
//! chain sits in the plan. `gap_cores` lists these once per query, and on
//! each segment a covered one's walk filters the chain's subtree in the
//! evaluator ([`ftsl_algebra::NodeFilter`]) rather than replacing it.
//!
//! Each segment then resolves a core (`resolve`) — covered pair lists,
//! provably empty, or not covered — and every covered caller runs the one
//! merged min-gap walk: one pair list, or two merged on node id for the
//! symmetric case, skipping whole blocks on their `min_gap` header. The
//! plan leaf (`leaf`) and COMP's filter admit every block within the
//! bound and seek by block headers; the proximity top-k bounds each
//! segment from its lists' headers (`near_bound`), then walks them
//! against the heap's threshold (`near_topk_into`).
//!
//! Both halves are total over inputs and *conservative*: any shape,
//! predicate, bound, or coverage condition outside the contract leaves the
//! core on the position-intersection cursors, so the rewrite can never
//! change a query's answer — only how it is computed. The one
//! non-obvious refusal is a symmetric query over the *same* token
//! (`distance(p1,p2,d)` with both scans on `'a'`): the two variables may
//! bind the same position, which satisfies `distance` trivially, while
//! the pair index only stores strictly-forward gaps.
//!
//! The tri-state [`PairLookup`] makes absence useful: when both tokens
//! are covered but the key is missing, the core is **provably empty** and
//! its leaf yields no node without touching a single posting.

use crate::cursor::FtCursor;
use ftsl_algebra::AlgExpr;
use ftsl_index::pair::min_forward_gaps;
use ftsl_index::{AccessCounters, InvertedIndex, PairCursor, PairList, PairLookup};
use ftsl_model::{Corpus, NodeId, TokenId};
use ftsl_predicates::{GapBound, PredicateRegistry};
use ftsl_scoring::{closeness, TopK};

/// A recognized two-token proximity query, normalized to pair-index
/// terms: documents where `second` occurs after `first` with forward gap
/// `≤ bound` (both directions when not `directed`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairQuery {
    /// Token the forward gap is measured from.
    pub first: String,
    /// Token the forward gap is measured to.
    pub second: String,
    /// True when `ordered` pins the direction `first → second`; false
    /// means either direction within the bound qualifies.
    pub directed: bool,
    /// Largest qualifying forward gap (offset difference), ≥ 1.
    pub bound: u32,
}

impl PairQuery {
    /// `'a' → 'b' within 4`, or `'a' ↔ 'b' within 4` undirected.
    pub fn describe(&self) -> String {
        let arrow = if self.directed { "→" } else { "↔" };
        format!(
            "'{}' {arrow} '{}' within {}",
            self.first, self.second, self.bound
        )
    }
}

/// Constraints gathered while walking a candidate plan.
#[derive(Default)]
struct Gathered<'p> {
    /// Token of each leaf scan, in plan order (at most two).
    scans: Vec<&'p str>,
    /// Direction pinned by `ordered(sa, sb)`, as scan indices.
    direction: Option<(usize, usize)>,
    /// Tightest of the exact gap bounds the selections declare.
    exact: Option<u32>,
    /// Tightest of every gap bound they declare, exact or implied.
    implied: Option<u32>,
    /// A selection the fold does not capture whole: an implied-only bound,
    /// no declaration, a contradictory direction, or arguments other than
    /// the two scans. The core's answer is then a subset of the fold's.
    loose: bool,
}

/// The side table of `root`'s closed proximity cores: one entry per `π_∅`
/// node a depth-first walk meets (a node before its inputs, left before
/// right), the [`PairQuery`] it folds into or `None`. The walk does not
/// enter a folded core, and neither does the cursor builder that reads the
/// table in the same order ([`crate::build::build_cursor`]).
pub(crate) fn cores(root: &AlgExpr, registry: &PredicateRegistry) -> Vec<Option<PairQuery>> {
    fn collect(node: &AlgExpr, registry: &PredicateRegistry, out: &mut Vec<Option<PairQuery>>) {
        if matches!(node, AlgExpr::Project(_, keep) if keep.is_empty()) {
            out.push(recognize(node, registry));
            if out.last().is_some_and(Option::is_some) {
                return;
            }
        }
        match node {
            AlgExpr::Project(a, _) | AlgExpr::Select { input: a, .. } => collect(a, registry, out),
            AlgExpr::Join(a, b)
            | AlgExpr::Union(a, b)
            | AlgExpr::Intersect(a, b)
            | AlgExpr::Difference(a, b) => {
                collect(a, registry, out);
                collect(b, registry, out);
            }
            AlgExpr::SearchContext | AlgExpr::HasPos | AlgExpr::TokenRel(_) => {}
        }
    }
    let mut out = Vec::new();
    collect(root, registry, &mut out);
    out
}

/// COMP's gap cores: every maximal `σ` chain of `root` over a join of two
/// token scans whose declared gap bounds fold into a [`PairQuery`], with
/// its pre-order position (a node before its inputs, left before right,
/// the root at 0), ascending. Each core's rows all lie at nodes that hold
/// an occurrence pair within the query's bound, so the pair walk filters
/// its subtree wherever it sits. The walk does not enter a core.
pub(crate) fn gap_cores(root: &AlgExpr, registry: &PredicateRegistry) -> Vec<(usize, PairQuery)> {
    fn collect(
        node: &AlgExpr,
        registry: &PredicateRegistry,
        at: &mut usize,
        out: &mut Vec<(usize, PairQuery)>,
    ) {
        if let Some(q) = implied(node, registry) {
            out.push((*at, q));
            *at += node.size();
            return;
        }
        *at += 1;
        match node {
            AlgExpr::Project(a, _) | AlgExpr::Select { input: a, .. } => {
                collect(a, registry, at, out)
            }
            AlgExpr::Join(a, b)
            | AlgExpr::Union(a, b)
            | AlgExpr::Intersect(a, b)
            | AlgExpr::Difference(a, b) => {
                collect(a, registry, at, out);
                collect(b, registry, at, out);
            }
            AlgExpr::SearchContext | AlgExpr::HasPos | AlgExpr::TokenRel(_) => {}
        }
    }
    let mut out = Vec::new();
    collect(root, registry, &mut 0, &mut out);
    out
}

/// Try to fold `core`, a `π_∅` node of a plan (pre-join-reordering), into
/// a [`PairQuery`]. `None` means it is outside the pair fragment and runs
/// on the ordinary streaming cursors. A folded core holds exactly one join
/// and no other `π_∅`, and every selection in it folds exactly.
fn recognize(core: &AlgExpr, registry: &PredicateRegistry) -> Option<PairQuery> {
    let AlgExpr::Project(input, keep) = core else {
        return None;
    };
    // Projections compose, so a core's bounding selection sits right below
    // its `π_∅`: any other shape is refused before anything is gathered.
    let mut st = Gathered::default();
    if !keep.is_empty() || !matches!(**input, AlgExpr::Select { .. }) {
        return None;
    }
    if walk(input, registry, &mut st).is_none() || st.scans.len() != 2 || st.loose {
        return None;
    }
    fold(&st, st.exact)
}

/// Fold `chain`, a `σ` over a join of two token scans, into the pair
/// query its declared gap bounds imply, exact or not: every row of the
/// chain lies at a node the query admits. `None` when it declares none.
fn implied(chain: &AlgExpr, registry: &PredicateRegistry) -> Option<PairQuery> {
    let mut st = Gathered::default();
    if !matches!(chain, AlgExpr::Select { .. })
        || walk(chain, registry, &mut st).is_none()
        || st.scans.len() != 2
    {
        return None;
    }
    fold(&st, st.implied)
}

/// The [`PairQuery`] of two gathered scans within `bound`.
fn fold(st: &Gathered<'_>, bound: Option<u32>) -> Option<PairQuery> {
    // A direction alone (`ordered` without a distance/window) is an
    // unbounded forward search, which the windowed pair index cannot
    // answer; a bound of 0 has no forward witness either (and for equal
    // tokens is satisfied by a shared binding the index cannot see).
    let bound = bound.filter(|&b| b >= 1)?;
    match st.direction {
        Some((s0, s1)) => Some(PairQuery {
            first: st.scans[s0].to_string(),
            second: st.scans[s1].to_string(),
            directed: true,
            bound,
        }),
        // Symmetric over one token: p1 and p2 may bind the *same*
        // position, satisfying distance/window with gap 0 — outside the
        // strictly-forward pair semantics.
        None if st.scans[0] == st.scans[1] => None,
        None => Some(PairQuery {
            first: st.scans[0].to_string(),
            second: st.scans[1].to_string(),
            directed: false,
            bound,
        }),
    }
}

/// Walk one plan node, returning the scan index feeding each output
/// column (`None` = shape outside the pair fragment). A selection folds
/// through the gap bound its predicate declares
/// ([`ftsl_predicates::Predicate::gap_bound`]); `ordered` pins the
/// direction.
fn walk<'p>(
    node: &'p AlgExpr,
    registry: &PredicateRegistry,
    st: &mut Gathered<'p>,
) -> Option<Vec<usize>> {
    match node {
        AlgExpr::TokenRel(token) => {
            if st.scans.len() == 2 {
                return None;
            }
            st.scans.push(token);
            Some(vec![st.scans.len() - 1])
        }
        AlgExpr::Join(a, b) => {
            let mut cols = walk(a, registry, st)?;
            cols.extend(walk(b, registry, st)?);
            Some(cols)
        }
        AlgExpr::Project(input, keep) if !keep.is_empty() => {
            let cols = walk(input, registry, st)?;
            keep.iter().map(|&k| cols.get(k).copied()).collect()
        }
        AlgExpr::Select {
            input,
            pred,
            cols: args,
            consts,
        } => {
            let cols = walk(input, registry, st)?;
            let scans = match args[..] {
                [x, y] => cols.get(x).copied().zip(cols.get(y).copied()),
                _ => None, // n-ary window over 3+ variables, etc.
            };
            let pred = registry.get(*pred);
            match scans.filter(|(sa, sb)| sa != sb) {
                Some(dir) if pred.name() == "ordered" => {
                    // Contradictory directions are provably empty, but rare
                    // enough that the ordinary path can say so.
                    st.loose |= st.direction.is_some_and(|d| d != dir);
                    st.direction.get_or_insert(dir);
                }
                Some(_) => match pred.gap_bound(consts) {
                    Some(GapBound { max, exact }) => {
                        st.implied = Some(st.implied.map_or(max, |b| b.min(max)));
                        if exact {
                            st.exact = Some(st.exact.map_or(max, |b| b.min(max)));
                        }
                        st.loose |= !exact;
                    }
                    // samepara, not_distance, …
                    None => st.loose = true,
                },
                // A predicate over a single variable.
                None => st.loose = true,
            }
            Some(cols)
        }
        // `HasPos`, unions, and `NOT` filters (a join with a difference).
        _ => None,
    }
}

/// How one segment can answer a [`PairQuery`]: the one coverage test and
/// token resolution behind all three pair-path callers. A proximity top-k
/// resolves each segment once, for its bound and then its walk.
pub(crate) enum Resolved<'a> {
    /// The pair index covers both tokens: the forward list and, for an
    /// undirected query over two tokens, the backward one (`None` for a
    /// key the index proves absent). Both are `None` when no document can
    /// match: bound 0, or a token absent from the corpus.
    Covered([Option<PairList<'a>>; 2]),
    /// Outside the pair index (pairs disabled, bound beyond the indexed
    /// window, or a token below the df cutoff): position intersection must
    /// answer, over these token ids when both exist.
    NotCovered(Option<(TokenId, TokenId)>),
}

/// The path a proximity core took on one segment, as its span notes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PairPath {
    /// Its pair lists were walked.
    Walked,
    /// The index covers both tokens and holds no key: no node can match.
    Empty,
    /// Outside the pair index: the positions answered.
    NotCovered,
}

impl PairPath {
    /// The path a [`resolve`]d core takes.
    pub(crate) fn of(resolved: &Resolved<'_>) -> Self {
        match resolved {
            Resolved::Covered([None, None]) => PairPath::Empty,
            Resolved::Covered(_) => PairPath::Walked,
            Resolved::NotCovered(_) => PairPath::NotCovered,
        }
    }

    pub(crate) fn describe(self) -> &'static str {
        match self {
            PairPath::Walked => "word-pair list walk",
            PairPath::Empty => "provably empty",
            PairPath::NotCovered => "not covered — position-intersection fallback",
        }
    }
}

/// Resolve `q` against one segment's vocabulary and pair index.
pub(crate) fn resolve<'a>(
    q: &PairQuery,
    corpus: &Corpus,
    index: &'a InvertedIndex,
) -> Resolved<'a> {
    if q.bound == 0 {
        return Resolved::Covered([None, None]);
    }
    let pairs = index.pairs();
    let ids = corpus.token_id(&q.first).zip(corpus.token_id(&q.second));
    if pairs.config().window == 0 || q.bound > pairs.config().window {
        return Resolved::NotCovered(ids);
    }
    let Some((a, b)) = ids else {
        return Resolved::Covered([None, None]);
    };
    if !pairs.covers(a) || !pairs.covers(b) {
        return Resolved::NotCovered(ids);
    }
    let list = |x, y| match pairs.lookup(x, y) {
        PairLookup::List(list) => Some(list),
        _ => None,
    };
    // For one token, the backward direction is the same (a, a) key: walk
    // it once.
    let backward = (!q.directed && a != b).then(|| list(b, a)).flatten();
    Resolved::Covered([list(a, b), backward])
}

/// The one pair-list walk: the covered lists' cursors merged on node id,
/// yielding each document once, ascending, with its minimum gap within
/// the bound over both directions. Each step skips whole blocks whose
/// `min_gap` header proves every entry either exceeds the bound or has a
/// [`closeness`] the caller's `admits` threshold refuses. As a plan leaf
/// ([`leaf`]) it is a closed core's node cursor, with no position column.
pub(crate) struct MinGapWalk<'a> {
    bound: u32,
    cursors: [Option<PairCursor<'a>>; 2],
    /// Each cursor's next qualifying `(node, gap)`, `None` once it is
    /// exhausted. Read only when a step needs it: a head is stale before
    /// the cursor's first read and after it is emitted.
    heads: [Option<(NodeId, u32)>; 2],
    stale: [bool; 2],
    /// The node the leaf stands on.
    node: Option<NodeId>,
}

impl<'a> MinGapWalk<'a> {
    pub(crate) fn new(lists: [Option<PairList<'a>>; 2], bound: u32) -> Self {
        MinGapWalk {
            bound,
            cursors: lists.map(|list| list.map(PairList::cursor)),
            heads: [None; 2],
            stale: [true; 2],
            node: None,
        }
    }

    /// The next document and its minimum gap. Stale heads read on against
    /// `admits` first; the heads the document came from go stale.
    fn next(&mut self, admits: impl Fn(f64) -> bool) -> Option<(NodeId, u32)> {
        let Self { heads, stale, .. } = self;
        for ((head, stale), cursor) in heads.iter_mut().zip(stale).zip(&mut self.cursors) {
            if std::mem::take(stale) {
                *head = cursor
                    .as_mut()
                    .and_then(|c| next_within(c, self.bound, &admits));
            }
        }
        // A cursor holds one entry per node, so the least head is the next
        // node paired with its smaller gap.
        let (node, gap) = self.heads.iter().flatten().min().copied()?;
        for (head, stale) in self.heads.iter().zip(&mut self.stale) {
            *stale = head.is_some_and(|(n, _)| n == node);
        }
        Some((node, gap))
    }
}

impl FtCursor for MinGapWalk<'_> {
    fn arity(&self) -> usize {
        0
    }

    fn advance_node(&mut self) -> Option<NodeId> {
        self.node = self.next(|_| true).map(|(node, _)| node);
        self.node
    }

    fn node(&self) -> Option<NodeId> {
        self.node
    }

    /// Seek each cursor whose head is stale or lagging by its block
    /// headers, then read on to its first entry within the bound.
    fn seek_node(&mut self, target: NodeId) -> Option<NodeId> {
        if self.node.is_some_and(|n| n >= target) {
            return self.node;
        }
        let Self { heads, stale, .. } = self;
        let bound = self.bound;
        for ((head, stale), cursor) in heads.iter_mut().zip(stale).zip(&mut self.cursors) {
            let Some(c) = cursor.as_mut() else { continue };
            if *stale || head.is_some_and(|(n, _)| n < target) {
                *stale = false;
                *head = c.seek(target).and_then(|n| match c.gap() {
                    gap if gap <= bound => Some((n, gap)),
                    _ => next_within(c, bound, |_| true),
                });
            }
        }
        self.advance_node()
    }

    fn counters(&self) -> AccessCounters {
        let cursors = self.cursors.iter().flatten();
        cursors.fold(AccessCounters::new(), |sum, c| sum + c.counters())
    }
}

/// COMP's evaluator leapfrogs the walk beside a gap core's subtree.
impl ftsl_algebra::NodeFilter for MinGapWalk<'_> {
    fn seek_node(&mut self, target: NodeId) -> Option<NodeId> {
        FtCursor::seek_node(self, target)
    }

    fn counters(&self) -> AccessCounters {
        FtCursor::counters(self)
    }
}

/// Advance to the next entry with gap within the query bound, skipping
/// whole blocks whose `min_gap` header proves every entry either exceeds
/// the bound or cannot pass `admits`. Skipping on an evolving top-k
/// threshold is sound even under the undirected min-gap merge: a dropped
/// entry's closeness is at most the skipped block's bound, so the merged
/// score the other direction yields is never *below* what this entry
/// could have contributed to the kept set.
fn next_within(
    cur: &mut PairCursor<'_>,
    bound: u32,
    admits: impl Fn(f64) -> bool,
) -> Option<(NodeId, u32)> {
    loop {
        let min_gap = cur.block_header().map_or(u32::MAX, |h| h.min_gap);
        let block_best = closeness(min_gap, bound);
        let node = if block_best <= 0.0 || !admits(block_best) {
            cur.skip_block()
        } else {
            cur.next_entry()
        };
        match node {
            Some(n) if cur.gap() <= bound => return Some((n, cur.gap())),
            Some(_) => {}
            None => return None,
        }
    }
}

/// The leaf that answers core `q` on one segment: the pair walk over its
/// lists, admitting every block whose `min_gap` is within the bound
/// (`closeness(min_gap) > 0` exactly then), or no node when the core is
/// provably empty. `None` when the segment's pair index does not cover it.
pub(crate) fn leaf<'a>(
    q: &PairQuery,
    corpus: &Corpus,
    index: &'a InvertedIndex,
) -> Option<MinGapWalk<'a>> {
    match resolve(q, corpus, index) {
        Resolved::Covered(lists) => Some(MinGapWalk::new(lists, q.bound)),
        Resolved::NotCovered(_) => None,
    }
}

/// The `pair path: …` note of a span, read off the work it did: a plan's
/// engine span (`holds_core`: the plan holds a closed proximity core) or
/// a proximity top-k's segment span (always a core).
pub(crate) fn path_note(holds_core: bool, counters: &AccessCounters) -> String {
    let path = if !holds_core {
        "shape not recognized — streaming cursor evaluation"
    } else if counters.pair_entries > 0 {
        PairPath::Walked.describe()
    } else if counters.positions > 0 || counters.positions_decoded > 0 {
        PairPath::NotCovered.describe()
    } else {
        return "no candidates".to_string();
    };
    format!("pair path: {path}")
}

/// Upper bound on the [`closeness`] score any document of a segment can
/// reach for `q`, from its [`resolve`]d lists' `min_gap` metadata alone,
/// without decoding a posting. `1.0` when the pair index cannot cover the
/// query (the fallback path is unbounded), `0.0` when the answer is
/// provably empty. Drives segment ordering and whole-segment skipping in
/// the snapshot-global proximity top-k.
pub(crate) fn near_bound(q: &PairQuery, resolved: &Resolved<'_>) -> f64 {
    match resolved {
        Resolved::Covered(lists) => lists
            .iter()
            .flatten()
            .map(|list| closeness(list.min_gap(), q.bound))
            .fold(0.0, f64::max),
        Resolved::NotCovered(_) => 1.0,
    }
}

/// Score `q`'s matches in one segment, as [`resolve`]d against it, into
/// a shared top-k heap: each qualifying document enters as
/// `(keep(node), closeness(min_gap))`.
/// `keep` filters tombstones and remaps to global ids (`None` = drop).
///
/// Covered pairs stream through the one pair-list walk with **block-max
/// pruning**: a block whose `min_gap` header cannot beat the heap
/// threshold (or the query bound) is skipped without decoding an entry.
/// For undirected queries the two directed walks merge per node on the
/// *minimum* gap, so a document scores by its closest qualifying pair in
/// either direction. Uncovered pairs fall back to the
/// [`min_forward_gaps`] position-intersection oracle.
pub(crate) fn near_topk_into<F>(
    q: &PairQuery,
    resolved: Resolved<'_>,
    index: &InvertedIndex,
    topk: &mut TopK,
    keep: F,
) -> AccessCounters
where
    F: Fn(NodeId) -> Option<NodeId>,
{
    let mut counters = AccessCounters::new();
    let entries = match resolved {
        Resolved::Covered(lists) => {
            let mut walk = MinGapWalk::new(lists, q.bound);
            while let Some((node, gap)) = walk.next(|s| topk.could_enter(s)) {
                if let Some(global) = keep(node) {
                    topk.insert(global, closeness(gap, q.bound));
                }
            }
            return walk.counters();
        }
        Resolved::NotCovered(None) => return counters,
        // Fallback: position intersection, exactly the work the pair
        // index would have saved (counted through the same counters).
        Resolved::NotCovered(Some((a, b))) => {
            let (la, lb) = (index.block_list(a), index.block_list(b));
            let mut entries = min_forward_gaps(la, lb, q.bound, &mut counters);
            if !q.directed && a != b {
                // Both directions, ascending by node, each node once with
                // its smaller gap: the stable sort merges the two runs.
                entries.extend(min_forward_gaps(lb, la, q.bound, &mut counters));
                entries.sort();
                entries.dedup_by_key(|&mut (node, _)| node);
            }
            entries
        }
    };
    for (node, gap) in entries {
        if let Some(global) = keep(NodeId(node)) {
            topk.insert(global, closeness(gap, q.bound));
        }
    }
    counters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::build_plan;
    use ftsl_index::{IndexBuilder, PairConfig};
    use ftsl_lang::{lower, parse, Mode};

    fn recognized(query: &str) -> Option<PairQuery> {
        let reg = PredicateRegistry::with_builtins();
        let surface = parse(query, Mode::Comp).unwrap();
        let expr = lower(&surface, &reg).unwrap();
        let plan = build_plan(&expr, &reg, false).ok()?;
        recognize(&plan.root, &reg)
    }

    #[test]
    fn ordered_phrase_is_recognized_as_directed() {
        let q = recognized(
            "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' \
             AND ordered(p1,p2) AND distance(p1,p2,0))",
        )
        .expect("phrase shape");
        assert_eq!(
            q,
            PairQuery {
                first: "a".into(),
                second: "b".into(),
                directed: true,
                bound: 1,
            }
        );
    }

    #[test]
    fn symmetric_distance_is_recognized_as_undirected() {
        let q = recognized("SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND distance(p1,p2,4))")
            .expect("NEAR shape");
        assert!(!q.directed);
        assert_eq!(q.bound, 5);
    }

    #[test]
    fn window_and_distance_bounds_combine_to_the_tighter_one() {
        let q = recognized(
            "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' \
             AND window(p1,p2,15) AND ordered(p1,p2) AND distance(p1,p2,2))",
        )
        .expect("combined shape");
        assert!(q.directed);
        assert_eq!(q.bound, 3); // min(15, 2 + 1)
    }

    #[test]
    fn out_of_fragment_shapes_are_refused() {
        // `ordered` alone: no gap bound.
        assert!(
            recognized("SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND ordered(p1,p2))").is_none()
        );
        // Same token, symmetric: a shared binding satisfies it trivially.
        assert!(
            recognized("SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'a' AND distance(p1,p2,3))")
                .is_none()
        );
        // Same token with `ordered` IS a real self-pair query.
        assert!(recognized(
            "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'a' \
             AND ordered(p1,p2) AND distance(p1,p2,3))"
        )
        .is_some());
        // Predicates the pair index cannot fold.
        assert!(recognized(
            "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' \
             AND samepara(p1,p2) AND distance(p1,p2,3))"
        )
        .is_none());
        // Three scans.
        assert!(recognized(
            "SOME p1 SOME p2 SOME p3 (p1 HAS 'a' AND p2 HAS 'b' AND p3 HAS 'c' \
             AND distance(p1,p2,3) AND distance(p2,p3,3))"
        )
        .is_none());
        // Union above the core.
        assert!(recognized(
            "SOME p1 SOME p2 ((p1 HAS 'a' OR p1 HAS 'b') AND p2 HAS 'c' AND distance(p1,p2,3))"
        )
        .is_none());
        // Contradictory directions.
        assert!(recognized(
            "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' \
             AND ordered(p1,p2) AND ordered(p2,p1) AND distance(p1,p2,3))"
        )
        .is_none());
    }

    #[test]
    fn merge_unions_sorted_lists() {
        // The undirected walk merges the (a, b) and (b, a) lists: each
        // document once, ascending, whichever direction holds it.
        let corpus = Corpus::from_texts(&["b a", "a b", "x", "a b a", "b x x a", "a x x x b"]);
        let config = PairConfig {
            window: 4,
            df_cutoff: 0,
        };
        let index = IndexBuilder::new().pair_config(config).build(&corpus);
        let run = |directed, bound| {
            let q = PairQuery {
                first: "a".into(),
                second: "b".into(),
                directed,
                bound,
            };
            let mut walk = leaf(&q, &corpus, &index).expect("covered");
            std::iter::from_fn(|| walk.advance_node().map(|n| n.0)).collect::<Vec<_>>()
        };
        assert_eq!(run(true, 4), vec![1, 3, 5]);
        assert_eq!(run(false, 4), vec![0, 1, 3, 4, 5]);
        assert_eq!(run(false, 1), vec![0, 1, 3]);
    }

    /// The leaf seeks by block headers: over 600 documents, a seek past
    /// the first blocks skips them whole, lands on the first node at or
    /// past the target whose gap is within the bound, and stays put on a
    /// target behind it.
    #[test]
    fn leaf_seeks_by_block_headers() {
        // Even documents hold `a b` (gap 1), odd ones `a x x b` (gap 3).
        let texts: Vec<&str> = (0..600)
            .map(|i| if i % 2 == 0 { "a b" } else { "a x x b" })
            .collect();
        let corpus = Corpus::from_texts(&texts);
        let index = IndexBuilder::new().build(&corpus);
        let q = |bound| PairQuery {
            first: "a".into(),
            second: "b".into(),
            directed: true,
            bound,
        };
        let mut walk = leaf(&q(1), &corpus, &index).expect("covered");
        assert_eq!(walk.seek_node(NodeId(301)), Some(NodeId(302)));
        assert_eq!(walk.seek_node(NodeId(10)), Some(NodeId(302)));
        assert_eq!(walk.advance_node(), Some(NodeId(304)));
        let c = walk.counters();
        assert!(c.blocks_skipped >= 1 && c.skipped >= 300, "{c:?}");
        assert!(c.pair_entries < 10, "{c:?}");
        let mut walk = leaf(&q(3), &corpus, &index).expect("covered");
        assert_eq!(walk.seek_node(NodeId(301)), Some(NodeId(301)));
        assert_eq!(walk.seek_node(NodeId(600)), None);
        assert_eq!(walk.node(), None);
    }

    /// Every `π_∅` gets one entry, depth-first: the cores under a union
    /// fold, as does a core in a `NOT` filter; scans do not.
    #[test]
    fn cores_fold_wherever_they_sit() {
        let reg = PredicateRegistry::with_builtins();
        let core = |a: &str, b: &str| {
            format!("SOME p1 SOME p2 (p1 HAS '{a}' AND p2 HAS '{b}' AND distance(p1,p2,3))")
        };
        let query = format!("('c' AND NOT {}) OR {}", core("a", "b"), core("d", "e"));
        let expr = lower(&parse(&query, Mode::Comp).unwrap(), &reg).unwrap();
        let plan = build_plan(&expr, &reg, false).unwrap();
        let folded: Vec<Option<String>> = cores(&plan.root, &reg)
            .into_iter()
            .map(|q| q.map(|q| q.first + &q.second))
            .collect();
        assert_eq!(folded, [None, Some("ab".into()), Some("de".into())]);
    }
}
