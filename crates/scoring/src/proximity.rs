//! Proximity closeness: the score term behind NEAR/phrase ranking.
//!
//! A document matching a two-token proximity query is scored by how
//! *close* the tokens actually are: with `g` the document's minimum
//! qualifying gap (offset difference between the occurrences) and `bound`
//! the query's largest admitted gap,
//!
//! ```text
//! closeness(g, bound) = (bound − g + 1) / bound      for 1 ≤ g ≤ bound
//! ```
//!
//! so an adjacent pair (`g = 1`) scores `1.0`, the loosest admitted pair
//! (`g = bound`) scores `1/bound`, and anything outside the bound scores
//! `0.0`. Two properties make this the right shape for the streaming
//! top-k machinery:
//!
//! * **monotone decreasing in the gap** — the pair index's per-block
//!   `min_gap` header ([`ftsl_index::pair::PairBlock::min_gap`]) is
//!   therefore a *block-max score bound*: `closeness(min_gap, bound)` is
//!   the best score any entry in the block can achieve, so a block whose
//!   bound cannot beat the current heap threshold is skipped whole;
//! * **normalized to `(0, 1]`** — scores are comparable across queries
//!   with different bounds and compose with other per-document terms.

/// Closeness of a matched pair with minimum gap `gap` under a query gap
/// bound `bound`. Zero outside `1 ≤ gap ≤ bound` (no qualifying pair) and
/// for the degenerate `bound = 0`.
pub fn closeness(gap: u32, bound: u32) -> f64 {
    if bound == 0 || gap == 0 || gap > bound {
        return 0.0;
    }
    f64::from(bound - gap + 1) / f64::from(bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_pairs_score_one() {
        for bound in [1, 2, 16, 1000] {
            assert_eq!(closeness(1, bound), 1.0, "bound = {bound}");
        }
    }

    #[test]
    fn strictly_decreasing_within_the_bound() {
        let bound = 16;
        for g in 2..=bound {
            assert!(
                closeness(g, bound) < closeness(g - 1, bound),
                "gap {g} must score below gap {}",
                g - 1
            );
            assert!(closeness(g, bound) > 0.0);
        }
    }

    #[test]
    fn out_of_range_gaps_score_zero() {
        assert_eq!(closeness(0, 16), 0.0, "gap 0 is not a forward pair");
        assert_eq!(closeness(17, 16), 0.0, "beyond the bound");
        assert_eq!(closeness(1, 0), 0.0, "degenerate bound");
        assert_eq!(closeness(u32::MAX, 16), 0.0, "exhausted-cursor sentinel");
    }

    #[test]
    fn loosest_admitted_gap_scores_one_over_bound() {
        assert_eq!(closeness(16, 16), 1.0 / 16.0);
        assert_eq!(closeness(4, 4), 0.25);
    }
}
