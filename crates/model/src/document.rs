//! Documents: a context node's token sequence plus metadata.

use crate::node::NodeId;
use crate::position::Position;
use crate::token::TokenId;

/// A tokenized context node.
///
/// A document is the concrete realization of one element of `N`: a sequence
/// of `(token, position)` pairs ordered by offset. The optional `label` keeps
/// a human-readable handle (title, file name, element path) for examples and
/// result display.
#[derive(Clone, Debug)]
pub struct Document {
    /// The context-node id this document realizes.
    pub node: NodeId,
    /// Human-readable label (not part of the formal model).
    pub label: String,
    /// Token occurrences ordered by position offset.
    pub tokens: Vec<(TokenId, Position)>,
}

impl Document {
    /// Create a document from an already-tokenized sequence.
    ///
    /// # Panics
    /// Panics in debug builds if offsets are not strictly increasing.
    pub fn new(node: NodeId, label: impl Into<String>, tokens: Vec<(TokenId, Position)>) -> Self {
        debug_assert!(
            tokens.windows(2).all(|w| w[0].1.offset < w[1].1.offset),
            "document token offsets must be strictly increasing"
        );
        Document {
            node,
            label: label.into(),
            tokens,
        }
    }

    /// Number of token occurrences (`|Positions(n)|`).
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True iff the document contains no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// All positions in this document, in offset order.
    pub fn positions(&self) -> impl Iterator<Item = Position> + '_ {
        self.tokens.iter().map(|&(_, p)| p)
    }

    /// The token stored at `pos`, if `pos` is a position of this document.
    ///
    /// Implements the model's `Token : P -> T` function for this node.
    pub fn token_at(&self, pos: Position) -> Option<TokenId> {
        self.tokens
            .binary_search_by_key(&pos.offset, |&(_, p)| p.offset)
            .ok()
            .map(|i| self.tokens[i].0)
    }

    /// Number of *distinct* tokens (the `unique_tokens(n)` term of the
    /// TF-IDF formulas in Section 3.1).
    pub fn unique_tokens(&self) -> usize {
        let mut ids: Vec<TokenId> = self.tokens.iter().map(|&(t, _)| t).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Number of occurrences of `token` (the `occurs(n, t)` term of
    /// Section 3.1).
    pub fn occurs(&self, token: TokenId) -> usize {
        self.tokens.iter().filter(|&&(t, _)| t == token).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::new(
            NodeId(0),
            "d",
            vec![
                (TokenId(0), Position::flat(0)),
                (TokenId(1), Position::flat(1)),
                (TokenId(0), Position::flat(2)),
            ],
        )
    }

    #[test]
    fn token_at_finds_by_offset() {
        let d = doc();
        assert_eq!(d.token_at(Position::flat(1)), Some(TokenId(1)));
        assert_eq!(d.token_at(Position::flat(2)), Some(TokenId(0)));
        assert_eq!(d.token_at(Position::flat(9)), None);
    }

    #[test]
    fn counting_helpers() {
        let d = doc();
        assert_eq!(d.len(), 3);
        assert_eq!(d.unique_tokens(), 2);
        assert_eq!(d.occurs(TokenId(0)), 2);
        assert_eq!(d.occurs(TokenId(1)), 1);
        assert_eq!(d.occurs(TokenId(5)), 0);
    }

    #[test]
    fn positions_iterates_in_order() {
        let d = doc();
        let offs: Vec<u32> = d.positions().map(|p| p.offset).collect();
        assert_eq!(offs, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn non_monotone_offsets_panic_in_debug() {
        Document::new(
            NodeId(0),
            "bad",
            vec![
                (TokenId(0), Position::flat(3)),
                (TokenId(1), Position::flat(1)),
            ],
        );
    }
}
