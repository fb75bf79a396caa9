//! Inverted-list size parameters (Section 5.1.2).

use crate::block::{BlockList, PostingArena};
use ftsl_model::Corpus;

/// The four size parameters of the paper's complexity model, plus the
/// vocabulary size.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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
    /// `corpus`'s vocabulary, then `IL_ANY`. `used` yields the lists of the
    /// tokens the documents use; every other list is empty and adds nothing
    /// to a maximum, so it is never read. Reads list heads and block
    /// headers only — a block's `max_tf` is its largest entry.
    pub fn compute<'a>(
        corpus: &Corpus,
        lists: &PostingArena,
        used: impl IntoIterator<Item = BlockList<'a>>,
    ) -> Self {
        let vocabulary = corpus.interner().len();
        let (entries_per_token, pos_per_entry) =
            used.into_iter().fold((0, 0), |(entries, tf), list| {
                (entries.max(list.num_entries()), tf.max(list.max_tf()))
            });
        IndexStats {
            cnodes: corpus.len(),
            pos_per_cnode: lists.list(vocabulary).max_tf() as usize,
            entries_per_token,
            pos_per_entry: pos_per_entry as usize,
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
