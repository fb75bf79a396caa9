//! Inverted-list size parameters (Section 5.1.2).

use crate::block::{BlockList, PostingArena};
use ftsl_model::Corpus;
use serde::{Deserialize, Serialize};

/// The four size parameters of the paper's complexity model, plus the
/// vocabulary size.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexStats {
    /// `cnodes`: number of context nodes.
    pub cnodes: usize,
    /// `pos_per_cnode`: maximum positions in a context node.
    pub pos_per_cnode: usize,
    /// `entries_per_token`: maximum entries in a token inverted list.
    pub entries_per_token: usize,
    /// `pos_per_entry`: maximum positions in a token inverted-list entry.
    pub pos_per_entry: usize,
    /// `|T|`: number of distinct tokens.
    pub vocabulary: usize,
}

impl IndexStats {
    /// Compute the parameters from built lists: one per token of
    /// `corpus`'s vocabulary, then `IL_ANY`. Reads list heads and block
    /// headers only — a block's `max_tf` is its largest entry.
    pub fn compute(corpus: &Corpus, lists: &PostingArena) -> Self {
        let vocabulary = corpus.interner().len();
        let tokens = || lists.iter().take(vocabulary);
        IndexStats {
            cnodes: corpus.len(),
            pos_per_cnode: lists.list(vocabulary).max_tf() as usize,
            entries_per_token: tokens().map(BlockList::num_entries).max().unwrap_or(0),
            pos_per_entry: tokens().map(BlockList::max_tf).max().unwrap_or(0) as usize,
            vocabulary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;

    #[test]
    fn parameters_on_uniform_corpus() {
        let corpus = Corpus::from_texts(&["t t t", "t t t"]);
        let index = IndexBuilder::new().build(&corpus);
        let s = index.stats();
        assert_eq!(s.cnodes, 2);
        assert_eq!(s.pos_per_cnode, 3);
        assert_eq!(s.entries_per_token, 2);
        assert_eq!(s.pos_per_entry, 3);
        assert_eq!(s.vocabulary, 1);
    }

    #[test]
    fn empty_corpus_yields_zeroes() {
        let corpus = Corpus::new();
        let index = IndexBuilder::new().build(&corpus);
        assert_eq!(*index.stats(), IndexStats::default());
    }
}
