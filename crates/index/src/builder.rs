//! Index construction from a corpus — sequential or sharded-parallel.
//!
//! Documents are consumed in node order, so all inverted-list entries come
//! out ordered by node id and all positions by offset, as Section 5.1.2
//! requires — no sorting pass is needed. The parallel path preserves this
//! by sharding the *document range* into contiguous chunks: each worker
//! builds complete per-shard lists for its chunk, and the merge simply
//! concatenates shard lists in shard order (node ids across consecutive
//! shards are already increasing). The result is bit-identical to a
//! sequential build.
//!
//! The assembled [`PostingList`]s are transient: they are block-compressed
//! ([`crate::block::BlockList`], also in parallel — token ranges are
//! independent) and dropped, so the finished index holds the compressed
//! form alone.

use crate::block::BlockList;
use crate::index::InvertedIndex;
use crate::pair::{PairConfig, PairIndex};
use crate::postings::PostingList;
use crate::stats::IndexStats;
use ftsl_model::{Corpus, Document, Position, TokenId};

/// Builds an [`InvertedIndex`] from a [`Corpus`].
#[derive(Clone, Debug, Default)]
pub struct IndexBuilder {
    threads: Option<usize>,
    pairs: Option<PairConfig>,
}

/// Below this many documents a parallel build costs more in thread setup
/// and shard merging than it saves.
const PARALLEL_THRESHOLD_DOCS: usize = 512;

impl IndexBuilder {
    /// A builder with default settings (parallelism chosen automatically).
    pub fn new() -> Self {
        Self::default()
    }

    /// Force a worker-thread count (1 = sequential). The default picks
    /// `std::thread::available_parallelism` for large corpora and
    /// sequential construction for small ones.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
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
        let threads = self.effective_threads(docs.len());

        let (lists, any) = if threads <= 1 {
            build_shard(docs, vocab)
        } else {
            build_sharded(docs, vocab, threads)
        };

        let blocks = compress_lists(&lists, threads);
        let any_blocks = BlockList::from_posting(&any);
        let stats = IndexStats::compute(corpus, &lists, &any);
        // The pair auxiliary index needs this build's document frequencies
        // for its coverage cutoff — a second pass over the documents once
        // the token lists exist. Building it here (rather than in the live
        // layer) means every segment seal and tiered merge gets pair
        // acceleration for free.
        let dfs: Vec<u32> = lists.iter().map(|l| l.num_entries() as u32).collect();
        let pairs = PairIndex::build(docs, &dfs, self.pairs.unwrap_or_default());
        InvertedIndex {
            blocks,
            any_blocks,
            stats,
            pairs,
        }
    }

    fn effective_threads(&self, num_docs: usize) -> usize {
        let requested = self.threads.unwrap_or_else(|| {
            if num_docs < PARALLEL_THRESHOLD_DOCS {
                1
            } else {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }
        });
        requested.min(num_docs.max(1))
    }
}

/// Sequentially index one contiguous run of documents.
fn build_shard(docs: &[Document], vocab: usize) -> (Vec<PostingList>, PostingList) {
    let mut lists: Vec<PostingList> = vec![PostingList::empty(); vocab];
    let mut any = PostingList::empty();

    // Scratch: per-token positions for the current document, reused across
    // documents to avoid reallocation (workhorse-collection idiom).
    let mut per_token: Vec<Vec<Position>> = vec![Vec::new(); vocab];
    let mut touched: Vec<TokenId> = Vec::new();

    for doc in docs {
        if doc.is_empty() {
            continue;
        }
        let all: Vec<Position> = doc.positions().collect();
        any.push_entry(doc.node, &all);

        for &(token, pos) in &doc.tokens {
            let bucket = &mut per_token[token.index()];
            if bucket.is_empty() {
                touched.push(token);
            }
            bucket.push(pos);
        }
        // Flush in sorted token order for determinism.
        touched.sort_unstable();
        for &token in &touched {
            let bucket = &mut per_token[token.index()];
            lists[token.index()].push_entry(doc.node, bucket);
            bucket.clear();
        }
        touched.clear();
    }
    (lists, any)
}

/// Index contiguous document chunks on worker threads, then concatenate the
/// per-shard lists in shard order.
fn build_sharded(
    docs: &[Document],
    vocab: usize,
    threads: usize,
) -> (Vec<PostingList>, PostingList) {
    let chunk = docs.len().div_ceil(threads);
    let shards: Vec<(Vec<PostingList>, PostingList)> = std::thread::scope(|scope| {
        let handles: Vec<_> = docs
            .chunks(chunk)
            .map(|slice| scope.spawn(move || build_shard(slice, vocab)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("index shard worker"))
            .collect()
    });

    let mut lists: Vec<PostingList> = vec![PostingList::empty(); vocab];
    let mut any = PostingList::empty();
    for (shard_lists, shard_any) in &shards {
        any.append(shard_any);
        for (t, shard_list) in shard_lists.iter().enumerate() {
            if !shard_list.is_empty() {
                lists[t].append(shard_list);
            }
        }
    }
    (lists, any)
}

/// Block-compress every list; token ranges are independent, so large
/// vocabularies are chunked across the same worker count.
fn compress_lists(lists: &[PostingList], threads: usize) -> Vec<BlockList> {
    if threads <= 1 || lists.len() < 1024 {
        return lists.iter().map(BlockList::from_posting).collect();
    }
    let chunk = lists.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = lists
            .chunks(chunk)
            .map(|slice| {
                scope.spawn(move || {
                    slice
                        .iter()
                        .map(BlockList::from_posting)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("compression worker"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn parallel_build_is_identical_to_sequential() {
        // Enough docs to span several shards, with gaps (empty docs).
        let texts: Vec<String> = (0..200)
            .map(|i| {
                if i % 17 == 0 {
                    String::new()
                } else {
                    format!("t{} t{} shared t{}", i % 7, i % 13, (i * 3) % 5)
                }
            })
            .collect();
        let corpus = Corpus::from_texts(&texts);
        let seq = IndexBuilder::new().threads(1).build(&corpus);
        let par = IndexBuilder::new().threads(4).build(&corpus);
        assert_eq!(seq.stats(), par.stats());
        assert_eq!(seq.any_block_list(), par.any_block_list());
        for t in 0..corpus.interner().len() {
            let tok = ftsl_model::TokenId(t as u32);
            assert_eq!(seq.block_list(tok), par.block_list(tok), "token {t}");
        }
    }
}
