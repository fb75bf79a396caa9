//! Token positions within a context node.
//!
//! The paper's Figure 1 uses plain integers; our positions additionally carry
//! sentence and paragraph ordinals so that `samesent`/`samepara` predicates
//! are computable from a pair of positions alone. All orderings and distance
//! arithmetic are defined on the word `offset`; sentence and paragraph
//! ordinals are monotonically non-decreasing in the offset, an invariant the
//! positive-predicate advance functions rely on.

use std::fmt;

/// A token position within a single context node.
///
/// `offset` is the 0-based word ordinal, `sentence` and `paragraph` are the
/// 0-based ordinals of the enclosing sentence/paragraph.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Position {
    /// 0-based word offset inside the context node.
    pub offset: u32,
    /// 0-based ordinal of the sentence containing this token.
    pub sentence: u32,
    /// 0-based ordinal of the paragraph containing this token.
    pub paragraph: u32,
}

impl Position {
    /// A position carrying only a word offset (sentence/paragraph 0). Useful
    /// for flat, structure-less text and for tests.
    pub const fn flat(offset: u32) -> Self {
        Position {
            offset,
            sentence: 0,
            paragraph: 0,
        }
    }

    /// Construct a fully structured position.
    pub const fn new(offset: u32, sentence: u32, paragraph: u32) -> Self {
        Position {
            offset,
            sentence,
            paragraph,
        }
    }

    /// Number of tokens strictly between `self` and `other`.
    ///
    /// This is the quantity bounded by the paper's `distance(p1, p2, d)`
    /// predicate: "there are at most `dist` intervening tokens". Two equal or
    /// adjacent offsets have zero intervening tokens.
    pub fn intervening(&self, other: &Position) -> u32 {
        let lo = self.offset.min(other.offset);
        let hi = self.offset.max(other.offset);
        (hi - lo).saturating_sub(1)
    }

    /// True iff `self` occurs strictly before `other` (the `ordered`
    /// predicate of Section 2.2).
    pub fn before(&self, other: &Position) -> bool {
        self.offset < other.offset
    }

    /// True iff both positions lie in the same paragraph.
    pub fn same_paragraph(&self, other: &Position) -> bool {
        self.paragraph == other.paragraph
    }

    /// True iff both positions lie in the same sentence.
    pub fn same_sentence(&self, other: &Position) -> bool {
        self.sentence == other.sentence
    }
}

impl PartialOrd for Position {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Positions are totally ordered by word offset. Sentence and paragraph are
/// functions of the offset within one node, so comparing offsets alone is
/// consistent with the full struct.
impl Ord for Position {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.offset.cmp(&other.offset)
    }
}

impl fmt::Debug for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(s{},p{})", self.offset, self.sentence, self.paragraph)
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervening_counts_tokens_strictly_between() {
        // Paper Section 5.5.1: (39, 42) has 2 intervening tokens, within d=5.
        let a = Position::flat(39);
        let b = Position::flat(42);
        assert_eq!(a.intervening(&b), 2);
        assert_eq!(b.intervening(&a), 2);
    }

    #[test]
    fn intervening_is_zero_for_adjacent_and_equal() {
        assert_eq!(Position::flat(5).intervening(&Position::flat(6)), 0);
        assert_eq!(Position::flat(5).intervening(&Position::flat(5)), 0);
    }

    #[test]
    fn ordering_is_by_offset() {
        let a = Position::new(3, 9, 9);
        let b = Position::new(4, 0, 0);
        assert!(a < b);
        assert!(a.before(&b));
        assert!(!b.before(&a));
        assert!(!a.before(&a));
    }

    #[test]
    fn structural_equality_predicates() {
        let a = Position::new(1, 2, 3);
        let b = Position::new(9, 2, 3);
        let c = Position::new(10, 4, 3);
        assert!(a.same_sentence(&b));
        assert!(a.same_paragraph(&b));
        assert!(!a.same_sentence(&c));
        assert!(a.same_paragraph(&c));
    }

    #[test]
    fn display_and_debug() {
        let p = Position::new(7, 1, 0);
        assert_eq!(p.to_string(), "7");
        assert_eq!(format!("{p:?}"), "7(s1,p0)");
    }
}
