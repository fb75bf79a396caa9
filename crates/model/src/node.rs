//! Context-node identifiers.

use std::fmt;

/// Identifier of a context node (a document, tuple, or XML element — the
/// granularity at which full-text conditions are evaluated; Section 2).
///
/// Node ids are dense: a [`crate::Corpus`] with `n` documents uses ids
/// `0..n`. Inverted-list entries are ordered by `NodeId`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n: NodeId = 7u32.into();
        assert_eq!(n.index(), 7);
        assert_eq!(n.to_string(), "7");
        assert_eq!(format!("{n:?}"), "n7");
    }

    #[test]
    fn node_ids_order_like_integers() {
        assert!(NodeId(3) < NodeId(10));
        assert_eq!(NodeId(4), NodeId(4));
    }
}
