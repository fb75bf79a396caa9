//! Machine-independent access counters.
//!
//! Section 5 of the paper expresses every complexity bound in terms of the
//! number of inverted-list entries and positions touched. Every cursor in
//! this workspace counts its accesses so Figure 3's bounds can be checked
//! empirically, independent of wall-clock noise.

use std::ops::AddAssign;

/// Counts of sequential inverted-list accesses.
///
/// `entries` counts entries an evaluator *consumed* (returned by
/// `next_entry`/`seek`). Physical decode is block-granular — a touched
/// block is unpacked whole into cursor scratch — but the counters keep the
/// paper's logical access semantics; the unpacking itself is
/// constant-cost machinery, not an access.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessCounters {
    /// Entries *consumed*: returned to the evaluator by `nextEntry()` or
    /// as a `seek` landing. Entries a seek bypasses — stepped over via the
    /// skip headers or binary-searched past inside an unpacked block —
    /// count in [`Self::skipped`] instead.
    pub entries: u64,
    /// Positions consumed from `getPositions()` results.
    pub positions: u64,
    /// Positions whose *payload* was materialized out of the physical list.
    ///
    /// This counts real decompression work, one position at a time: the
    /// cursor decodes an entry's payload *incrementally*
    /// ([`crate::block::BlockCursor::positions`] and the single-position
    /// accessors), so a predicate that accepts or rejects on an entry's
    /// first position charges one decode, not the entry's full `tf`;
    /// entries rejected on node id alone are stepped over via the unpacked
    /// length column and never contribute at all.
    pub positions_decoded: u64,
    /// Tuples materialized by COMP's algebra operators: the rows every
    /// operator (leaves included) built, summed over the context nodes the
    /// node-at-a-time evaluator visited. A node that a leaf `seek` skipped
    /// contributes none: for a join of token relations this is the
    /// paper's per-node product summed over the nodes holding every token.
    pub tuples: u64,
    /// Entries bypassed by `seek` without being *consumed* (whole-block
    /// jumps and entries the cursor's in-block binary search steps past). Distinguishing
    /// consumed from skipped work is what makes skip-aware and sequential
    /// evaluation comparable.
    pub skipped: u64,
    /// Compressed blocks whose remaining entries a cursor bypassed in one
    /// jump — untouched blocks a `seek` stepped over via the skip headers,
    /// or blocks abandoned by score-bound pruning because their impact
    /// bound fell below the top-k threshold (only counted when at least one
    /// entry was actually bypassed).
    pub blocks_skipped: u64,
    /// Whole live-index segments a global top-k run bypassed without
    /// touching a single posting, because the segment's total impact bound
    /// fell below the shared heap's k-th score. Always 0 for single-index
    /// evaluation.
    pub segments_skipped: u64,
    /// Entries consumed from the word-pair auxiliary index
    /// ([`crate::pair::PairIndex`]). Pair entries *also* count in
    /// [`Self::entries`] — the pair list is just another physical list —
    /// so totals stay comparable across engines; this field attributes how
    /// much of the work rode the accelerated path (0 means the query fell
    /// back to, or never needed, position intersection).
    pub pair_entries: u64,
}

impl AccessCounters {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total *decode* work — a single scalar proxy. Skipped entries are
    /// deliberately excluded: a skip touches only a block header, not the
    /// compressed entry stream.
    pub fn total(&self) -> u64 {
        self.entries + self.positions + self.tuples
    }
}

impl AddAssign for AccessCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.entries += rhs.entries;
        self.positions += rhs.positions;
        self.positions_decoded += rhs.positions_decoded;
        self.tuples += rhs.tuples;
        self.skipped += rhs.skipped;
        self.blocks_skipped += rhs.blocks_skipped;
        self.segments_skipped += rhs.segments_skipped;
        self.pair_entries += rhs.pair_entries;
    }
}

impl std::ops::Add for AccessCounters {
    type Output = AccessCounters;
    fn add(mut self, rhs: Self) -> Self {
        self += rhs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add() {
        let a = AccessCounters {
            entries: 1,
            positions: 2,
            tuples: 3,
            skipped: 4,
            blocks_skipped: 5,
            positions_decoded: 6,
            segments_skipped: 7,
            pair_entries: 8,
        };
        let b = AccessCounters {
            entries: 10,
            positions: 20,
            tuples: 30,
            skipped: 40,
            blocks_skipped: 50,
            positions_decoded: 60,
            segments_skipped: 70,
            pair_entries: 80,
        };
        let c = a + b;
        assert_eq!(
            c,
            AccessCounters {
                entries: 11,
                positions: 22,
                tuples: 33,
                skipped: 44,
                blocks_skipped: 55,
                positions_decoded: 66,
                segments_skipped: 77,
                pair_entries: 88,
            }
        );
        // Skipped entries are not decode work.
        assert_eq!(c.total(), 66);
    }
}
