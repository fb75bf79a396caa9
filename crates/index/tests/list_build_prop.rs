//! Differential property for the posting-list build: the counting build
//! behind `IndexBuilder`, which packs every list into one arena per
//! segment, must produce exactly the lists the per-token build it replaced
//! produced — entry and position counts, block headers, packed bytes — and
//! the same Section 5.1.2 statistics and v7 image bytes.
//!
//! The per-token build lives on here as the reference: one `PostingList`
//! per token assembled document by document, each compressed on its own
//! with `PostingArena::from_posting`. Its image is written by this file
//! straight from docs/FORMAT.md.
//!
//! The cases cover an empty corpus; empty documents, which `IL_ANY` skips;
//! tokens with exactly 127, 128, 129 and 256 entries; term frequencies
//! above one; an interner much wider than the corpus (a write-buffer
//! chunk's shape); and node ids past 2¹⁶.

use ftsl_index::block::PostingArena;
use ftsl_index::{persist, BlockList, IndexBuilder, IndexStats, PairConfig, PostingList};
use ftsl_model::{Corpus, Position, TokenId, TokenInterner};
use ftsl_testkit::prop_cases;
use proptest::prelude::*;

/// The per-token build: every token's `PostingList`, then `IL_ANY`, pushed
/// one document at a time.
fn reference_lists(corpus: &Corpus) -> (Vec<PostingList>, PostingList) {
    let vocab = corpus.interner().len();
    let mut lists = vec![PostingList::empty(); vocab];
    let mut any = PostingList::empty();
    let mut per_token: Vec<Vec<Position>> = vec![Vec::new(); vocab];
    let mut touched: Vec<TokenId> = Vec::new();
    for doc in corpus.documents() {
        if doc.is_empty() {
            continue;
        }
        let all: Vec<Position> = doc.positions().collect();
        any.push_entry(doc.node, &all);
        for &(token, position) in &doc.tokens {
            let bucket = &mut per_token[token.index()];
            if bucket.is_empty() {
                touched.push(token);
            }
            bucket.push(position);
        }
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

/// The statistics as the per-token build computed them, from its lists.
fn reference_stats(corpus: &Corpus, lists: &[PostingList], any: &PostingList) -> IndexStats {
    IndexStats {
        cnodes: corpus.len(),
        pos_per_cnode: any.max_positions_per_entry(),
        entries_per_token: lists
            .iter()
            .map(PostingList::num_entries)
            .max()
            .unwrap_or(0),
        pos_per_entry: lists
            .iter()
            .map(PostingList::max_positions_per_entry)
            .max()
            .unwrap_or(0),
        vocabulary: corpus.interner().len(),
    }
}

/// The v7 image of the reference lists (token lists, then `IL_ANY`) with
/// an empty section table.
fn reference_image(stats: &IndexStats, lists: &[BlockList]) -> Vec<u8> {
    let mut out = Vec::new();
    let put = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_le_bytes());
    put(&mut out, 0x4654_5349); // "FTSI"
    put(&mut out, 7);
    for v in [
        stats.cnodes,
        stats.pos_per_cnode,
        stats.entries_per_token,
        stats.pos_per_entry,
        stats.vocabulary,
    ] {
        out.extend_from_slice(&(v as u64).to_le_bytes());
    }
    put(&mut out, lists.len() as u32 - 1);
    for list in lists {
        put(&mut out, list.num_entries() as u32);
        out.extend_from_slice(&(list.num_positions() as u64).to_le_bytes());
        put(&mut out, list.num_blocks() as u32);
        for h in list.headers() {
            for field in [h.max_node.0, h.byte_start, h.first_entry, h.max_tf] {
                put(&mut out, field);
            }
        }
        put(&mut out, list.bytes().len() as u32);
        out.extend_from_slice(list.bytes());
    }
    put(&mut out, 0);
    out
}

/// The counting build of `corpus` agrees with the per-token build on every
/// list, the statistics and the image.
fn check(corpus: &Corpus) {
    let vocab = corpus.interner().len();
    let index = IndexBuilder::new()
        .pair_config(PairConfig::disabled())
        .build(corpus);
    let (lists, any) = reference_lists(corpus);
    let alone: Vec<PostingArena> = lists
        .iter()
        .chain([&any])
        .map(PostingArena::from_posting)
        .collect();
    let want: Vec<BlockList> = alone.iter().map(|arena| arena.list(0)).collect();
    assert_eq!(index.num_tokens(), vocab);
    for (t, (&want, decoded)) in want.iter().zip(lists.iter().chain([&any])).enumerate() {
        let got = if t < vocab {
            index.block_list(TokenId(t as u32))
        } else {
            index.any_block_list()
        };
        assert_eq!(
            got.num_entries(),
            want.num_entries(),
            "entries of list {}",
            t
        );
        assert_eq!(
            got.num_positions(),
            want.num_positions(),
            "positions of list {}",
            t
        );
        assert_eq!(got.headers(), want.headers(), "headers of list {}", t);
        assert_eq!(got.bytes(), want.bytes(), "bytes of list {}", t);
        assert_eq!(got, want);
        assert_eq!(&got.to_posting(), decoded);
    }
    let stats = reference_stats(corpus, &lists, &any);
    assert_eq!(index.stats(), &stats);
    let image = reference_image(&stats, &want);
    assert_eq!(persist::encode(&index).as_slice(), image.as_slice());
    // With pairs, the list records are the same; only the section table
    // after them differs.
    let with_pairs = persist::encode(&IndexBuilder::new().build(corpus));
    let lists_end = image.len() - 4;
    assert_eq!(&with_pairs.as_slice()[..lists_end], &image[..lists_end]);
}

/// An interner of `width` unused tokens, then `w0, w1, …` for the
/// documents.
fn interner(width: usize) -> TokenInterner {
    let mut vocab = TokenInterner::new();
    for t in 0..width {
        vocab.intern(&format!("unused{t}"));
    }
    vocab
}

#[test]
fn empty_corpus() {
    check(&Corpus::new());
    check(&Corpus::with_interner(interner(300)));
}

#[test]
fn empty_documents_are_skipped_by_il_any() {
    check(&Corpus::from_texts(&["", "a b", "", "", "b c b", ""]));
    check(&Corpus::from_texts(&["", ""]));
}

#[test]
fn lists_at_block_boundaries() {
    // `a` … `d` have 127, 128, 129 and 256 entries; `e` repeats in every
    // entry, and so does `f`, more often in later documents.
    let texts: Vec<String> = (0..256)
        .map(|i| {
            let mut words = Vec::new();
            for (name, df) in [("a", 127), ("b", 128), ("c", 129), ("d", 256)] {
                if i < df {
                    words.push(name.to_string());
                }
            }
            words.push("e e e".into());
            words.push("f ".repeat(1 + i / 40));
            words.join(" ")
        })
        .collect();
    let corpus = Corpus::from_texts(&texts);
    for (name, df) in [("a", 127), ("b", 128), ("c", 129), ("d", 256)] {
        assert_eq!(
            corpus
                .documents()
                .iter()
                .filter(|d| d.occurs(corpus.token_id(name).unwrap()) > 0)
                .count(),
            df
        );
    }
    check(&corpus);
}

#[test]
fn wide_interner_over_a_few_documents() {
    // A write-buffer chunk: a few documents over the live index's whole
    // vocabulary.
    let mut corpus = Corpus::with_interner(interner(20_000));
    for text in ["alpha beta alpha", "", "beta gamma", "unused7 alpha"] {
        corpus.add_text(text);
    }
    check(&corpus);
}

#[test]
fn node_ids_past_two_to_the_sixteen() {
    let mut corpus = Corpus::new();
    for text in ["far near", "near near far"] {
        corpus.add_text(text);
    }
    while corpus.len() < (1 << 16) + 3 {
        corpus.add_tokens("empty", Vec::new());
    }
    for i in 0..300 {
        corpus.add_text(&format!("far t{} near far", i % 5));
    }
    assert!(corpus.len() > 1 << 16);
    check(&corpus);
}

/// A document as token numbers; `w{t}` each.
type DocSpec = Vec<u32>;

fn arb_doc() -> impl Strategy<Value = DocSpec> {
    prop_oneof![
        2 => Just(Vec::new()),
        6 => proptest::collection::vec(0u32..8, 1..12),
        // One hot token, repeated: term frequencies well above one.
        2 => proptest::collection::vec(prop_oneof![3 => Just(0u32), 1 => 0u32..40], 5..40),
    ]
}

/// `(unused interner width, documents)`.
fn arb_case() -> impl Strategy<Value = (usize, Vec<DocSpec>)> {
    (
        prop_oneof![Just(0usize), Just(3), Just(2_000)],
        proptest::collection::vec(arb_doc(), 0..400),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(64)))]

    #[test]
    fn counting_build_matches_the_per_token_build((width, docs) in arb_case()) {
        let mut corpus = Corpus::with_interner(interner(width));
        for doc in &docs {
            let words: Vec<String> = doc.iter().map(|t| format!("w{t}")).collect();
            corpus.add_text(&words.join(" "));
        }
        check(&corpus);
    }
}
