//! Property tests for the block-compressed posting layout: compression is
//! lossless under iteration, `seek` agrees with naive scanning, and the
//! versioned persistence format round-trips while rejecting unknown
//! versions.

use ftsl_index::block::PostingArena;
use ftsl_index::{persist, IndexBuilder, PostingList};
use ftsl_model::{Corpus, NodeId, Position};
use ftsl_testkit::prop_cases;
use proptest::prelude::*;

/// Random strictly-increasing entry lists with structured positions.
fn arb_entries() -> impl Strategy<Value = Vec<(NodeId, Vec<Position>)>> {
    proptest::collection::vec(
        (
            1u32..40,
            proptest::collection::vec((1u32..9, 0u32..2, 0u32..2), 1..6),
        ),
        0..400,
    )
    .prop_map(|raw| {
        let mut node = 0u32;
        raw.into_iter()
            .map(|(gap, pos_deltas)| {
                node += gap;
                let mut offset = 0u32;
                let mut sentence = 0u32;
                let mut paragraph = 0u32;
                let positions = pos_deltas
                    .into_iter()
                    .map(|(doff, dsent, dpara)| {
                        offset += doff;
                        sentence += dsent;
                        paragraph += dpara;
                        Position::new(offset, sentence, paragraph)
                    })
                    .collect();
                (NodeId(node), positions)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(192)))]

    #[test]
    fn compression_roundtrips_exactly(entries in arb_entries()) {
        let list = PostingList::from_entries(entries);
        let arena = PostingArena::from_posting(&list);
        let blocks = arena.list(0);
        prop_assert_eq!(blocks.num_entries(), list.num_entries());
        prop_assert_eq!(blocks.num_positions(), list.num_positions());
        // Decode via cursor iteration must reproduce every entry and
        // position, in order.
        let mut cur = blocks.cursor();
        for i in 0..list.num_entries() {
            prop_assert_eq!(cur.next_entry(), Some(list.node_of(i)));
            prop_assert_eq!(cur.positions(), list.positions_of(i));
        }
        prop_assert_eq!(cur.next_entry(), None);
        // And the whole-list decode helper agrees.
        prop_assert_eq!(blocks.to_posting(), list);
    }

    #[test]
    fn seek_agrees_with_naive_scan(
        entries in arb_entries(),
        targets in proptest::collection::vec(0u32..20_000, 1..30),
    ) {
        let list = PostingList::from_entries(entries);
        let arena = PostingArena::from_posting(&list);
        let blocks = arena.list(0);
        let mut sorted = targets.clone();
        sorted.sort_unstable();

        let mut block_cur = blocks.cursor();
        // Naive reference: linear scan over the decoded entries.
        let mut naive_at = 0usize;

        for t in sorted {
            let target = NodeId(t);
            while naive_at < list.num_entries() && list.node_of(naive_at) < target {
                naive_at += 1;
            }
            let expected =
                (naive_at < list.num_entries()).then(|| list.node_of(naive_at));
            prop_assert_eq!(block_cur.seek(target), expected, "block seek to {}", t);
            if expected.is_some() {
                // Positions at the landing entry must match the list's.
                prop_assert_eq!(block_cur.positions(), list.positions_of(naive_at));
            }
        }
        // Monotone forward-only cursors never decode an entry twice: decoded
        // plus skipped never exceeds the list length (+1 slack for the
        // landing probe per seek is already included in `entries`).
        let c = block_cur.counters();
        prop_assert!(c.entries + c.skipped <= list.num_entries() as u64);
    }

    #[test]
    fn persisted_v3_roundtrips_and_rejects_other_versions(
        docs in proptest::collection::vec(
            proptest::collection::vec(0usize..7, 0..30), 0..12),
        fake_version in 9u32..1000,
    ) {
        const VOCAB: [&str; 7] = ["ant", "bee", "cat", "dog", "elk", "fox", "gnu"];
        let texts: Vec<String> = docs
            .into_iter()
            .map(|toks| {
                toks.into_iter().map(|t| VOCAB[t]).collect::<Vec<_>>().join(" ")
            })
            .collect();
        let corpus = Corpus::from_texts(&texts);
        let index = IndexBuilder::new().build(&corpus);

        let bytes = persist::encode(&index);
        let decoded = persist::decode(bytes.clone()).expect("v3 roundtrip");
        prop_assert_eq!(decoded.stats(), index.stats());
        for t in 0..corpus.interner().len() {
            let tok = ftsl_model::TokenId(t as u32);
            // Block lists compare bit-exactly, *including* the per-block
            // impact metadata (BlockMeta::max_tf is part of PartialEq).
            prop_assert_eq!(decoded.block_list(tok), index.block_list(tok));
            prop_assert_eq!(decoded.block_list(tok).max_tf(), index.block_list(tok).max_tf());
        }
        prop_assert_eq!(decoded.any_block_list(), index.any_block_list());

        // Corrupting the version field must fail loudly, not misparse:
        // retired v1–v5, the manifest's 6/8, and any unknown version decode
        // to BadVersion, never a panic or a silent misparse. (7 is the one
        // readable bare-index version and is excluded here.)
        let mut raw = bytes.as_slice().to_vec();
        for version in [1u32, 2, 3, 4, 5, 6, 8, fake_version] {
            raw[4..8].copy_from_slice(&version.to_le_bytes());
            let err = persist::decode(&raw[..]).expect_err("non-v3 version");
            prop_assert_eq!(err, persist::PersistError::BadVersion(version));
        }
    }

    /// Truncating a valid v3 image at an arbitrary byte boundary must
    /// produce an error — never a panic, never an `Ok`.
    #[test]
    fn truncated_v3_buffers_error_not_panic(cut_permille in 0usize..1000) {
        let corpus = Corpus::from_texts(&["hot hot hot cold", "hot warm", "cold cold"]);
        let index = IndexBuilder::new().build(&corpus);
        let bytes = persist::encode(&index);
        let cut = bytes.len() * cut_permille / 1000;
        prop_assert!(persist::decode(&bytes[..cut]).is_err());
    }
}
