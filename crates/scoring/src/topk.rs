//! Bounded top-k collection and total-order ranking.
//!
//! [`TopK`] is the collector every streaming scored evaluator drains into: a
//! min-heap of the `k` best `(node, score)` pairs seen so far, whose worst
//! kept entry is the **pruning threshold** — a candidate (or a score upper
//! bound) that cannot beat it can be discarded, or entire index blocks
//! skipped, without affecting the result.
//!
//! Ranking uses [`f64::total_cmp`] with ascending [`NodeId`] as the
//! tie-break, via [`rank_cmp`] / [`sort_ranked`]. `total_cmp` (not
//! `partial_cmp(..).unwrap_or(Equal)`) matters: if a NaN ever leaks into a
//! score it ranks deterministically instead of silently scrambling the
//! comparator's transitivity.

use ftsl_model::NodeId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Ranking order for `(node, score)` hits: descending score
/// ([`f64::total_cmp`]), ascending node id on ties.
pub fn rank_cmp(a: &(NodeId, f64), b: &(NodeId, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Sort hits into ranking order (see [`rank_cmp`]).
pub fn sort_ranked(hits: &mut [(NodeId, f64)]) {
    hits.sort_by(rank_cmp);
}

/// One kept entry. The `Ord` implementation orders by *goodness* (higher
/// score first, smaller node on ties), so the `Reverse` min-heap root is the
/// worst kept entry.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Kept {
    node: NodeId,
    score: f64,
}

impl Eq for Kept {}

impl PartialOrd for Kept {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Kept {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then(other.node.cmp(&self.node))
    }
}

/// A bounded collector of the `k` best `(node, score)` pairs.
///
/// Matches the exhaustive oracles' ordering exactly: the kept set equals the
/// first `k` entries of the full result sorted by [`rank_cmp`], including
/// tie behavior (equal scores are won by the smaller node id).
///
/// ```
/// use ftsl_model::NodeId;
/// use ftsl_scoring::topk::TopK;
///
/// let mut topk = TopK::new(2);
/// for (n, s) in [(5, 0.3), (9, 0.9), (2, 0.3), (7, 0.5)] {
///     topk.insert(NodeId(n), s);
/// }
/// // Node 2 beats node 5 on the 0.3 tie; 0.5 then evicts both.
/// assert_eq!(
///     topk.into_ranked(),
///     vec![(NodeId(9), 0.9), (NodeId(7), 0.5)],
/// );
/// ```
#[derive(Clone, Debug)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<std::cmp::Reverse<Kept>>,
}

impl TopK {
    /// An empty collector keeping at most `k` entries. It reserves
    /// nothing: the heap grows as entries are kept, to at most `k + 1`.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::new(),
        }
    }

    /// Empty the collector and rebound it to `k`, keeping the heap's
    /// allocation and reserving room for every entry it can hold: `k + 1`,
    /// or `most + 1` when at most `most` distinct nodes can be offered (a
    /// snapshot's live documents). `k` is caller input, so the reservation
    /// never follows it past what the answer can hold. A serving worker
    /// resets one collector per query instead of constructing a new one, so
    /// the steady-state top-k path does not touch the allocator (see
    /// [`Self::drain_ranked`] for the matching extraction).
    pub fn reset(&mut self, k: usize, most: usize) {
        self.k = k;
        self.heap.clear();
        self.heap.reserve(k.min(most).saturating_add(1));
    }

    /// Whether an exact candidate `(node, score)` would enter the kept set.
    pub fn would_accept(&self, node: NodeId, score: f64) -> bool {
        if self.k == 0 {
            return false;
        }
        if self.heap.len() < self.k {
            return true;
        }
        let worst = self.heap.peek().expect("full heap").0;
        match score.total_cmp(&worst.score) {
            Ordering::Greater => true,
            Ordering::Equal => node < worst.node,
            Ordering::Less => false,
        }
    }

    /// Whether *any* candidate with score ≤ `bound` could still enter the
    /// kept set — the sound pruning test for score upper bounds (the
    /// candidate's node id is unknown, so score ties are optimistically
    /// assumed to win).
    pub fn could_enter(&self, bound: f64) -> bool {
        if self.k == 0 {
            return false;
        }
        if self.heap.len() < self.k {
            return true;
        }
        bound >= self.heap.peek().expect("full heap").0.score
    }

    /// Offer a candidate; keeps it (evicting the worst) iff it ranks among
    /// the best `k` seen. Returns whether it was kept.
    pub fn insert(&mut self, node: NodeId, score: f64) -> bool {
        if !self.would_accept(node, score) {
            return false;
        }
        self.heap.push(std::cmp::Reverse(Kept { node, score }));
        if self.heap.len() > self.k {
            self.heap.pop();
        }
        true
    }

    /// Number of entries currently kept.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no entries are kept.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drain into ranking order (best first; see [`rank_cmp`]).
    pub fn into_ranked(mut self) -> Vec<(NodeId, f64)> {
        self.drain_ranked()
    }

    /// Drain into ranking order (best first) while keeping the collector —
    /// and its heap allocation — alive for [`Self::reset`] and the next
    /// query. Identical output to [`Self::into_ranked`] by construction.
    pub fn drain_ranked(&mut self) -> Vec<(NodeId, f64)> {
        let mut out: Vec<(NodeId, f64)> =
            self.heap.drain().map(|e| (e.0.node, e.0.score)).collect();
        sort_ranked(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_exactly_the_first_k_of_the_sorted_order() {
        let hits: Vec<(NodeId, f64)> = (0..100)
            .map(|i| (NodeId(i), f64::from((i * 37) % 11)))
            .collect();
        let mut oracle = hits.clone();
        sort_ranked(&mut oracle);
        for k in [0, 1, 3, 10, 99, 100, 200] {
            let mut topk = TopK::new(k);
            for &(n, s) in &hits {
                topk.insert(n, s);
            }
            assert_eq!(
                topk.into_ranked(),
                oracle[..k.min(oracle.len())].to_vec(),
                "k = {k}"
            );
        }
    }

    #[test]
    fn tie_breaks_prefer_smaller_node_ids() {
        let mut topk = TopK::new(2);
        topk.insert(NodeId(8), 0.5);
        topk.insert(NodeId(3), 0.5);
        topk.insert(NodeId(1), 0.5);
        assert_eq!(topk.into_ranked(), vec![(NodeId(1), 0.5), (NodeId(3), 0.5)]);
    }

    #[test]
    fn threshold_appears_once_full_and_guides_pruning() {
        let mut topk = TopK::new(2);
        assert!(topk.could_enter(f64::NEG_INFINITY));
        topk.insert(NodeId(0), 0.9);
        assert!(topk.could_enter(f64::NEG_INFINITY), "one slot still free");
        topk.insert(NodeId(1), 0.4);
        assert!(!topk.could_enter(0.3)); // strictly below the worst kept
        assert!(topk.could_enter(0.4)); // could still win the node tie-break
        assert!(topk.would_accept(NodeId(0), 0.4)); // smaller node than kept 1
        assert!(!topk.would_accept(NodeId(5), 0.4));
    }

    #[test]
    fn nan_scores_rank_deterministically() {
        // total_cmp puts NaN above +inf; the point is determinism, not
        // placement: inserting NaN never corrupts the heap ordering.
        let mut topk = TopK::new(3);
        topk.insert(NodeId(0), f64::NAN);
        topk.insert(NodeId(1), 1.0);
        topk.insert(NodeId(2), 2.0);
        topk.insert(NodeId(3), 3.0);
        let ranked = topk.into_ranked();
        assert_eq!(ranked.len(), 3);
        assert!(ranked[0].1.is_nan());
        assert_eq!(ranked[1], (NodeId(3), 3.0));
        assert_eq!(ranked[2], (NodeId(2), 2.0));
    }

    #[test]
    fn reset_reuses_the_collector_without_changing_results() {
        let hits: Vec<(NodeId, f64)> = (0..100)
            .map(|i| (NodeId(i), f64::from((i * 37) % 11)))
            .collect();
        let mut oracle = hits.clone();
        sort_ranked(&mut oracle);
        let mut topk = TopK::new(7);
        for k in [3usize, 10, 0, 7] {
            topk.reset(k, hits.len());
            for &(n, s) in &hits {
                topk.insert(n, s);
            }
            assert_eq!(
                topk.drain_ranked(),
                oracle[..k.min(oracle.len())].to_vec(),
                "k = {k}"
            );
            assert!(topk.is_empty(), "drain empties the collector");
        }
    }

    #[test]
    fn zero_k_accepts_nothing() {
        let mut topk = TopK::new(0);
        assert!(!topk.insert(NodeId(0), 1.0));
        assert!(!topk.could_enter(f64::INFINITY));
        assert!(topk.into_ranked().is_empty());
    }
}
