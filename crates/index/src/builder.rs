//! Index construction from a corpus: one counting pass into one arena.
//!
//! [`IndexBuilder::build`] writes every list of a segment into one
//! [`PostingArena`] with a handful of allocations, however wide the
//! vocabulary (a hash table of the distinct tokens grows by doubling):
//!
//! 1. number the distinct tokens the documents use (`local::LocalTokens`) and
//!    count each one's occurrences;
//! 2. turn the counts into each token's first slot (prefix sums);
//! 3. scatter every `(node, Position)` occurrence into its token's run,
//!    walking the documents in node order — so each run comes out ordered
//!    by node id, and by offset within a node, as Section 5.1.2 requires,
//!    with no sorting pass;
//! 4. pack the runs in token order, each as its token's list, with one
//!    fill of empty list heads for the ids between two used tokens, then
//!    `IL_ANY` straight from the documents.
//!
//! A token the documents never use costs its list head and nothing else:
//! every count, prefix sum and scan runs over the used tokens, so sealing a
//! few documents over a wide vocabulary costs those documents. The
//! scattered occurrences are transient: the finished index holds the
//! compressed arena alone.
//!
//! The lists are built first, on the calling thread; their document
//! frequencies decide which tokens the word-pair index covers, and that
//! index is built last ([`PairIndex::build`]). A pair build of a few
//! thousand occurrences or more is cut into first-token ranges grouped on
//! two cores, then written as one arena, key tables and blocks side by
//! side; its bytes are those of the build on one thread (see the module
//! docs of [`crate::pair`], "Building").

use crate::block::{PostingArena, PostingArenaWriter, BLOCK_ENTRIES};
use crate::index::InvertedIndex;
use crate::local::LocalTokens;
use crate::pair::{PairConfig, PairIndex};
use crate::stats::IndexStats;
use ftsl_model::{Corpus, Document, NodeId, Position};

/// Builds an [`InvertedIndex`] from a [`Corpus`].
#[derive(Clone, Debug, Default)]
pub struct IndexBuilder {
    pairs: Option<PairConfig>,
}

impl IndexBuilder {
    /// A builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the word-pair auxiliary-index configuration. The default
    /// builds pairs with [`PairConfig::default`] (window 16, df cutoff 2);
    /// pass [`PairConfig::disabled`] to skip pair construction entirely.
    pub fn pair_config(mut self, config: PairConfig) -> Self {
        self.pairs = Some(config);
        self
    }

    /// Build the index.
    pub fn build(&self, corpus: &Corpus) -> InvertedIndex {
        let vocab = corpus.interner().len();
        let docs = corpus.documents();
        let tokens = LocalTokens::of(docs);
        let lists = build_lists(docs, vocab, &tokens);
        let used = || tokens.used.iter().map(|&(t, _)| lists.list(t as usize));
        let stats = IndexStats::compute(corpus, &lists, used());
        // The pair auxiliary index needs this build's document frequencies
        // for its coverage cutoff — a second pass over the documents once
        // the token lists exist. Building it here (rather than in the live
        // layer) means every segment seal and tiered merge gets pair
        // acceleration for free.
        let dfs: Vec<u32> = used().map(|l| l.num_entries() as u32).collect();
        let config = self.pairs.unwrap_or_default();
        let pairs = PairIndex::build_local(docs, tokens, &dfs, vocab, config);
        InvertedIndex {
            lists,
            stats,
            pairs,
        }
    }
}

/// Every `IL_t` of `docs` (ordered by node id) for `t` below `vocab`, in
/// token order, then `IL_ANY` — see the module docs for the passes.
fn build_lists(docs: &[Document], vocab: usize, tokens: &LocalTokens) -> PostingArena {
    // Pass 1: occurrences per local id, turned into each one's first slot.
    let mut slots = vec![0u32; tokens.len()];
    for &local in &tokens.locals {
        slots[local as usize] += 1;
    }
    let mut total = 0u32;
    let mut blocks = 0usize;
    for slot in &mut slots {
        let count = *slot;
        *slot = total;
        total += count;
        // At least as many blocks as the token's run has entries to fill.
        blocks += (count as usize).div_ceil(BLOCK_ENTRIES);
    }

    // Pass 2: scatter each occurrence into its token's run. Afterwards
    // `slots[l]` is where local id `l`'s run ends, and the runs lie in
    // local-id order.
    let mut runs = vec![(NodeId(0), Position::flat(0)); total as usize];
    for (doc, locals) in tokens.per_doc(docs) {
        for (&(_, position), &local) in doc.tokens.iter().zip(locals) {
            let slot = &mut slots[local as usize];
            runs[*slot as usize] = (doc.node, position);
            *slot += 1;
        }
    }

    // Pass 3: pack the runs in token order, then `IL_ANY`. An occurrence
    // packs into about three bytes, once in its token's list and once in
    // `IL_ANY`, and a block's prefix and frames into about twenty.
    let blocks = blocks
        + docs
            .iter()
            .filter(|d| !d.is_empty())
            .count()
            .div_ceil(BLOCK_ENTRIES);
    let mut arena =
        PostingArenaWriter::with_capacity(vocab + 1, blocks, 6 * total as usize + 20 * blocks);
    for &(token, local) in &tokens.used {
        let local = local as usize;
        let start = if local == 0 { 0 } else { slots[local - 1] };
        arena.pad_lists(token as usize);
        for entry in runs[start as usize..slots[local] as usize].chunk_by(|a, b| a.0 == b.0) {
            arena.push_entry(entry[0].0, entry.iter().map(|&(_, p)| p));
        }
        arena.end_list();
    }
    arena.pad_lists(vocab);
    drop(runs);
    for doc in docs.iter().filter(|d| !d.is_empty()) {
        arena.push_entry(doc.node, doc.positions());
    }
    arena.end_list();
    arena.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postings::PostingList;
    use ftsl_model::{Corpus, NodeId};

    /// Decode a token's list (the round-trip oracle view).
    fn list_of(index: &InvertedIndex, corpus: &Corpus, token: &str) -> PostingList {
        index
            .block_list(corpus.token_id(token).unwrap())
            .to_posting()
    }

    fn index_of(texts: &[&str]) -> (Corpus, InvertedIndex) {
        let corpus = Corpus::from_texts(texts);
        let index = IndexBuilder::new().build(&corpus);
        (corpus, index)
    }

    #[test]
    fn token_lists_have_one_entry_per_containing_node() {
        let (corpus, index) = index_of(&["usability testing", "testing tools", "unrelated"]);
        let list = list_of(&index, &corpus, "testing");
        assert_eq!(list.num_entries(), 2);
        assert_eq!(list.node_of(0), NodeId(0));
        assert_eq!(list.node_of(1), NodeId(1));
    }

    #[test]
    fn positions_match_document_occurrences() {
        let (corpus, index) = index_of(&["a b a c a"]);
        let list = list_of(&index, &corpus, "a");
        let offs: Vec<u32> = list.positions_of(0).iter().map(|p| p.offset).collect();
        assert_eq!(offs, vec![0, 2, 4]);
    }

    #[test]
    fn any_list_contains_all_positions_of_every_node() {
        let (_, index) = index_of(&["x y z", "w"]);
        let any = index.any_block_list().to_posting();
        assert_eq!(any.num_entries(), 2);
        assert_eq!(any.positions_of(0).len(), 3);
        assert_eq!(any.positions_of(1).len(), 1);
    }

    #[test]
    fn empty_documents_are_skipped_in_any() {
        let (_, index) = index_of(&["one", "", "two"]);
        let any = index.any_block_list().to_posting();
        assert_eq!(any.num_entries(), 2);
        assert_eq!(any.node_of(1), NodeId(2));
    }

    #[test]
    fn figure2_shape_from_figure1_document() {
        // The Figure 1 book element yields multi-position entries for the
        // "usability" and "software" lists, as in Figure 2.
        let corpus = Corpus::from_texts(&[ftsl_model::corpus::figure1_book_text()]);
        let index = IndexBuilder::new().build(&corpus);
        assert!(list_of(&index, &corpus, "usability").positions_of(0).len() >= 3);
        assert!(list_of(&index, &corpus, "software").positions_of(0).len() >= 4);
    }

    #[test]
    fn stats_reflect_section_5_1_2_parameters() {
        let (_, index) = index_of(&["a a a b", "b c"]);
        let s = index.stats();
        assert_eq!(s.cnodes, 2);
        assert_eq!(s.pos_per_cnode, 4);
        assert_eq!(s.entries_per_token, 2); // "b" occurs in both nodes
        assert_eq!(s.pos_per_entry, 3); // "a" has 3 positions in node 0
    }
}
