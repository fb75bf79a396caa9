//! Pair-index fast path: recognize two-scan proximity cores and answer
//! them from the word-pair auxiliary index ([`ftsl_index::pair`]).
//!
//! A PPRED plan of the shape
//!
//! ```text
//! project*                                 (Exists projections)
//!   select {ordered | distance | window}*  (≥ 1 gap-bounding predicate)
//!     join
//!       scan ("a")
//!       scan ("b")
//! ```
//!
//! asks exactly the question the pair index precomputes: *is there an
//! occurrence pair of `a` and `b` in this document with forward gap at
//! most `g`?* [`recognize`] detects the shape and folds every predicate
//! into a single gap bound plus an optional direction; [`execute`] then
//! answers it from one pair-list walk (two, merged, for the symmetric
//! case) instead of intersecting two position streams.
//!
//! Both halves are total over inputs and *conservative*: any shape,
//! predicate, bound, or coverage condition outside the contract returns
//! `None` and the caller proceeds down the ordinary streaming path, so
//! the rewrite can never change a query's answer — only how it is
//! computed. The one non-obvious refusal is a symmetric query over the
//! *same* token (`distance(p1,p2,d)` with both scans on `'a'`): the two
//! variables may bind the same position, which satisfies `distance`
//! trivially, while the pair index only stores strictly-forward gaps.
//!
//! The tri-state [`PairLookup`] makes absence useful: when both tokens
//! are covered but the key is missing, the answer is **provably empty**
//! and the fast path returns the empty result without touching a single
//! posting.

use crate::plan::PlanNode;
use ftsl_index::pair::min_forward_gaps;
use ftsl_index::{AccessCounters, InvertedIndex, PairCursor, PairList, PairLookup};
use ftsl_model::{Corpus, NodeId};
use ftsl_predicates::PredicateRegistry;
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

/// Constraints gathered while walking a candidate plan.
#[derive(Default)]
struct Gathered {
    /// Token of each leaf scan, in plan order (at most two).
    scans: Vec<String>,
    /// Direction pinned by `ordered(sa, sb)`, as scan indices.
    direction: Option<(usize, usize)>,
    /// Tightest gap bound implied by `distance`/`window` selections.
    bound: Option<u32>,
}

impl Gathered {
    fn tighten(&mut self, bound: u32) {
        self.bound = Some(self.bound.map_or(bound, |b| b.min(bound)));
    }
}

/// Try to fold `root` (a PPRED plan, pre-join-reordering) into a
/// [`PairQuery`]. `None` means the plan is outside the pair fragment and
/// must run on the ordinary streaming path.
pub fn recognize(root: &PlanNode, registry: &PredicateRegistry) -> Option<PairQuery> {
    let mut st = Gathered::default();
    walk(root, registry, &mut st)?;
    if st.scans.len() != 2 {
        return None;
    }
    // A direction alone (`ordered` without a distance/window) is an
    // unbounded forward search, which the windowed pair index cannot
    // answer; a bound of 0 has no forward witness either (and for equal
    // tokens is satisfied by a shared binding the index cannot see).
    let bound = st.bound.filter(|&b| b >= 1)?;
    match st.direction {
        Some((s0, s1)) => Some(PairQuery {
            first: st.scans[s0].clone(),
            second: st.scans[s1].clone(),
            directed: true,
            bound,
        }),
        // Symmetric over one token: p1 and p2 may bind the *same*
        // position, satisfying distance/window with gap 0 — outside the
        // strictly-forward pair semantics.
        None if st.scans[0] == st.scans[1] => None,
        None => Some(PairQuery {
            first: st.scans[0].clone(),
            second: st.scans[1].clone(),
            directed: false,
            bound,
        }),
    }
}

/// Walk one plan node, returning the scan index feeding each output
/// column (`None` = shape outside the pair fragment).
fn walk(node: &PlanNode, registry: &PredicateRegistry, st: &mut Gathered) -> Option<Vec<usize>> {
    match node {
        PlanNode::Scan { token, .. } => {
            if st.scans.len() == 2 {
                return None;
            }
            st.scans.push(token.clone());
            Some(vec![st.scans.len() - 1])
        }
        PlanNode::Join(a, b) => {
            let mut cols = walk(a, registry, st)?;
            cols.extend(walk(b, registry, st)?);
            Some(cols)
        }
        PlanNode::Project { input, keep } => {
            let cols = walk(input, registry, st)?;
            keep.iter().map(|&k| cols.get(k).copied()).collect()
        }
        PlanNode::Select {
            input,
            pred,
            arg_cols,
            consts,
        } => {
            let cols = walk(input, registry, st)?;
            if arg_cols.len() != 2 {
                return None; // n-ary window over 3+ variables, etc.
            }
            let sa = cols.get(*arg_cols.first()?).copied()?;
            let sb = cols.get(*arg_cols.get(1)?).copied()?;
            if sa == sb {
                return None; // predicate over a single variable
            }
            match registry.get(*pred).name() {
                "ordered" => match st.direction {
                    None => st.direction = Some((sa, sb)),
                    Some(d) if d == (sa, sb) => {}
                    // Contradictory directions: provably empty, but rare
                    // enough that the ordinary path can say so.
                    Some(_) => return None,
                },
                // `distance(p1, p2, d)`: at most `d` intervening tokens,
                // i.e. offset gap ≤ d + 1 in either direction.
                "distance" => {
                    let d = *consts.first()?;
                    if d < 0 {
                        return None;
                    }
                    st.tighten(u32::try_from(d.saturating_add(1)).unwrap_or(u32::MAX));
                }
                // `window(p1, p2, w)`: max − min offset ≤ w.
                "window" => {
                    let w = *consts.first()?;
                    if w < 1 {
                        return None;
                    }
                    st.tighten(u32::try_from(w).unwrap_or(u32::MAX));
                }
                _ => return None, // samepos/samepara/samesent/…
            }
            Some(cols)
        }
        PlanNode::ScanAny { .. } | PlanNode::Union(..) | PlanNode::Diff(..) => None,
    }
}

/// Answer a recognized query from the index's pair lists. `None` means
/// the index cannot cover it (pairs disabled, bound beyond the indexed
/// window, or a token below the df cutoff) and the caller must fall back
/// to position intersection. `Some` results are exact: matching nodes
/// ascending, plus the access counters the walk paid.
pub fn execute(
    q: &PairQuery,
    corpus: &Corpus,
    index: &InvertedIndex,
) -> Option<(Vec<NodeId>, AccessCounters)> {
    let pairs = index.pairs();
    if pairs.config().window == 0 || q.bound > pairs.config().window {
        return None;
    }
    let mut counters = AccessCounters::new();
    let (Some(a), Some(b)) = (corpus.token_id(&q.first), corpus.token_id(&q.second)) else {
        // A token absent from the corpus has an empty scan, so the join
        // is empty regardless of predicates.
        return Some((Vec::new(), counters));
    };
    if a == b && !q.directed {
        return None; // guarded by `recognize`; kept for direct callers
    }
    let forward = match pairs.lookup(a, b) {
        PairLookup::NotCovered => return None,
        PairLookup::Empty => Vec::new(),
        PairLookup::List(list) => collect(list, q.bound, &mut counters),
    };
    if q.directed {
        return Some((forward, counters));
    }
    let backward = match pairs.lookup(b, a) {
        PairLookup::NotCovered => return None,
        PairLookup::Empty => Vec::new(),
        PairLookup::List(list) => collect(list, q.bound, &mut counters),
    };
    Some((merge(&forward, &backward), counters))
}

/// Walk one pair list collecting nodes whose min forward gap is within
/// `bound`, skipping whole blocks whose `min_gap` header already exceeds
/// it (the block-max proximity bound).
fn collect(list: PairList<'_>, bound: u32, counters: &mut AccessCounters) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut cur = list.cursor();
    while !cur.exhausted() {
        let node = if cur.block_min_gap() > bound {
            cur.skip_block()
        } else {
            cur.next_entry()
        };
        match node {
            Some(n) if cur.gap() <= bound => out.push(n),
            Some(_) => {}
            None => break,
        }
    }
    *counters += cur.counters();
    out
}

/// Upper bound on the [`closeness`] score any document in this
/// corpus/index can reach for `q` — read from pair-list `min_gap`
/// metadata alone, without decoding a posting. `1.0` when the pair index
/// cannot cover the query (the fallback path is unbounded), `0.0` when
/// the answer is provably empty. Drives segment ordering and whole-segment
/// skipping in the snapshot-global proximity top-k.
pub fn near_bound(q: &PairQuery, corpus: &Corpus, index: &InvertedIndex) -> f64 {
    let pairs = index.pairs();
    if pairs.config().window == 0 || q.bound > pairs.config().window {
        return 1.0;
    }
    let (Some(a), Some(b)) = (corpus.token_id(&q.first), corpus.token_id(&q.second)) else {
        return 0.0;
    };
    let list_bound = |la: ftsl_model::TokenId, lb: ftsl_model::TokenId| match pairs.lookup(la, lb) {
        PairLookup::NotCovered => 1.0,
        PairLookup::Empty => 0.0,
        PairLookup::List(list) => closeness(list.min_gap(), q.bound),
    };
    let fwd = list_bound(a, b);
    if q.directed || a == b {
        fwd
    } else {
        fwd.max(list_bound(b, a))
    }
}

/// Score `q`'s matches in one corpus/index into a shared top-k heap:
/// each qualifying document enters as `(keep(node), closeness(min_gap))`.
/// `keep` filters tombstones and remaps to global ids (`None` = drop).
///
/// Covered pairs stream from the pair lists with **block-max pruning**:
/// a block whose `min_gap` header cannot beat the heap threshold (or the
/// query bound) is skipped without decoding an entry. Uncovered pairs
/// fall back to the [`min_forward_gaps`] position-intersection oracle.
/// For undirected queries the two directed walks merge per node on the
/// *minimum* gap, so a document scores by its closest qualifying pair in
/// either direction.
pub fn near_topk_into<F>(
    q: &PairQuery,
    corpus: &Corpus,
    index: &InvertedIndex,
    topk: &mut TopK,
    keep: F,
) -> AccessCounters
where
    F: Fn(NodeId) -> Option<NodeId>,
{
    let mut counters = AccessCounters::new();
    if q.bound == 0 {
        return counters;
    }
    let (Some(a), Some(b)) = (corpus.token_id(&q.first), corpus.token_id(&q.second)) else {
        return counters;
    };
    let pairs = index.pairs();
    // For one token, the backward direction is the same (a, a) key: walk
    // it once.
    let both_ways = !q.directed && a != b;
    let covered = pairs.config().window != 0
        && q.bound <= pairs.config().window
        && pairs.covers(a)
        && pairs.covers(b);
    if covered {
        let list_of = |x, y| match pairs.lookup(x, y) {
            PairLookup::List(list) => Some(list),
            _ => None,
        };
        let fwd = list_of(a, b);
        let back = if both_ways { list_of(b, a) } else { None };
        let mut ca = fwd.map(PairList::cursor);
        let mut cb = back.map(PairList::cursor);
        let mut na = ca.as_mut().and_then(|c| next_within(c, q.bound, topk));
        let mut nb = cb.as_mut().and_then(|c| next_within(c, q.bound, topk));
        while na.is_some() || nb.is_some() {
            let (node, gap) = match (na, nb) {
                (Some((xn, xg)), Some((yn, yg))) => {
                    if xn < yn {
                        na = ca.as_mut().and_then(|c| next_within(c, q.bound, topk));
                        (xn, xg)
                    } else if yn < xn {
                        nb = cb.as_mut().and_then(|c| next_within(c, q.bound, topk));
                        (yn, yg)
                    } else {
                        na = ca.as_mut().and_then(|c| next_within(c, q.bound, topk));
                        nb = cb.as_mut().and_then(|c| next_within(c, q.bound, topk));
                        (xn, xg.min(yg))
                    }
                }
                (Some((xn, xg)), None) => {
                    na = ca.as_mut().and_then(|c| next_within(c, q.bound, topk));
                    (xn, xg)
                }
                (None, Some((yn, yg))) => {
                    nb = cb.as_mut().and_then(|c| next_within(c, q.bound, topk));
                    (yn, yg)
                }
                (None, None) => unreachable!("loop condition"),
            };
            if let Some(global) = keep(node) {
                topk.insert(global, closeness(gap, q.bound));
            }
        }
        if let Some(c) = ca {
            counters += c.counters();
        }
        if let Some(c) = cb {
            counters += c.counters();
        }
        return counters;
    }
    // Fallback: position intersection, exactly the work the pair index
    // would have saved (counted through the same counters).
    let (la, lb) = (index.block_list(a), index.block_list(b));
    let mut entries = min_forward_gaps(la, lb, q.bound, &mut counters);
    if both_ways {
        let backward = min_forward_gaps(lb, la, q.bound, &mut counters);
        entries = merge_min_gap(&entries, &backward);
    }
    for (node, gap) in entries {
        if let Some(global) = keep(NodeId(node)) {
            topk.insert(global, closeness(gap, q.bound));
        }
    }
    counters
}

/// Advance to the next entry with gap within the query bound, skipping
/// whole blocks whose `min_gap` header proves every entry either exceeds
/// the bound or cannot beat the heap threshold. Skipping on the evolving
/// threshold is sound even under the undirected min-gap merge: a dropped
/// entry's closeness is at most the skipped block's bound, so the merged
/// score the other direction yields is never *below* what this entry
/// could have contributed to the kept set.
fn next_within(cur: &mut PairCursor<'_>, bound: u32, topk: &TopK) -> Option<(NodeId, u32)> {
    loop {
        let block_best = closeness(cur.block_min_gap(), bound);
        let node = if block_best <= 0.0 || !topk.could_enter(block_best) {
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

/// Merge two ascending `(node, gap)` streams, keeping the minimum gap
/// where a node appears in both.
fn merge_min_gap(a: &[(u32, u32)], b: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1.min(b[j].1)));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Ascending union of two sorted, duplicate-free node lists.
fn merge(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::build_plan;
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
        let a: Vec<NodeId> = [1u32, 3, 5].iter().map(|&n| NodeId(n)).collect();
        let b: Vec<NodeId> = [2u32, 3, 9].iter().map(|&n| NodeId(n)).collect();
        let got: Vec<u32> = merge(&a, &b).iter().map(|n| n.0).collect();
        assert_eq!(got, vec![1, 2, 3, 5, 9]);
    }
}
