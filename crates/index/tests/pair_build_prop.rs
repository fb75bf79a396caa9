//! Differential property for the word-pair index build: the counting build
//! behind `IndexBuilder` must produce the index the sort-based build it
//! replaced produced — the same lists, key and entry counts, resident bytes
//! and v7 image bytes.
//!
//! The sort-based build lives on here as the reference. Its image is
//! written by this file straight from docs/FORMAT.md (the pair section
//! after the image of the same corpus without pairs), and its resident
//! bytes are those of that image's decoded arena.
//!
//! The cases are `ftsl_testkit`'s [`arb_pair_case`]: windows 0, 1, 16 and
//! `u32::MAX`; df cutoffs 0, 2 and above the number of documents; empty,
//! single-token and repeated-token documents; documents with more keys than
//! the per-document dedupe table first holds; offsets far apart (so the
//! packed postings need more than 64 bits); and token ids at and above
//! 2¹⁶.

use ftsl_index::block::BLOCK_ENTRIES;
use ftsl_index::{bitpack, persist, IndexBuilder, PairConfig};
use ftsl_model::{Corpus, Document, TokenId};
use ftsl_testkit::{arb_pair_case, document_frequencies, pair_case_corpus, prop_cases};
use proptest::prelude::*;

/// One key's list: `((a, b), [(node, min gap)])`.
type Key = ((u32, u32), Vec<(u32, u32)>);

/// The sort-based build: one `(key, node, gap)` posting per document and
/// covered key with the document's minimum gap, one sort over all of them,
/// one list per run of a key. Returns the coverage bitmap and the lists.
fn sorted_build(docs: &[Document], dfs: &[u32], config: PairConfig) -> (Vec<bool>, Vec<Key>) {
    if config.window == 0 {
        return (Vec::new(), Vec::new());
    }
    let frequent: Vec<bool> = dfs.iter().map(|&df| df >= config.df_cutoff).collect();
    let mut postings: Vec<(u64, u32, u32)> = Vec::new();
    let mut local: Vec<(u64, u32)> = Vec::new();
    for doc in docs {
        local.clear();
        let toks = &doc.tokens;
        for (i, &(ta, pa)) in toks.iter().enumerate() {
            if !frequent[ta.index()] {
                continue;
            }
            for &(tb, pb) in &toks[i + 1..] {
                let gap = pb.offset - pa.offset;
                if gap > config.window {
                    break;
                }
                if frequent[tb.index()] {
                    local.push(((u64::from(ta.0) << 32) | u64::from(tb.0), gap));
                }
            }
        }
        // Sorted by (key, gap): the first of each key's run is its minimum.
        local.sort_unstable();
        local.dedup_by_key(|&mut (key, _)| key);
        postings.extend(local.iter().map(|&(key, gap)| (key, doc.node.0, gap)));
    }
    postings.sort_unstable();
    let lists = postings
        .chunk_by(|x, y| x.0 == y.0)
        .map(|run| {
            let key = run[0].0;
            let entries = run.iter().map(|&(_, node, gap)| (node, gap)).collect();
            (((key >> 32) as u32, key as u32), entries)
        })
        .collect();
    (frequent, lists)
}

fn put(out: &mut Vec<u8>, value: usize) {
    out.extend_from_slice(&u32::try_from(value).expect("fits u32").to_le_bytes());
}

/// One stored pair block: base id, both widths, the id-delta frame and the
/// `gap − 1` frame. Returns the block's minimum gap.
fn pack_block(chunk: &[(u32, u32)], out: &mut Vec<u8>) -> u32 {
    let mut deltas = [0u32; bitpack::LANES];
    let mut gaps = [0u32; bitpack::LANES];
    for (i, pair) in chunk.windows(2).enumerate() {
        deltas[i + 1] = pair[1].0 - pair[0].0 - 1;
    }
    for (lane, &(_, gap)) in gaps.iter_mut().zip(chunk) {
        *lane = gap - 1;
    }
    let id_width = bitpack::width_for(deltas.iter().copied().max().unwrap_or(0));
    let gap_width = bitpack::width_for(gaps.iter().copied().max().unwrap_or(0));
    out.extend_from_slice(&chunk[0].0.to_le_bytes());
    out.extend_from_slice(&[id_width, gap_width]);
    bitpack::pack(&deltas, chunk.len(), id_width, out);
    bitpack::pack(&gaps, chunk.len(), gap_width, out);
    chunk
        .iter()
        .map(|&(_, gap)| gap)
        .min()
        .expect("blocks are non-empty")
}

/// The v7 image of `corpus` with the reference's pair section.
fn reference_image(
    corpus: &Corpus,
    config: PairConfig,
    coverage: &[bool],
    lists: &[Key],
) -> Vec<u8> {
    let bare = IndexBuilder::new()
        .pair_config(PairConfig::disabled())
        .build(corpus);
    let mut image = persist::encode(&bare).to_vec();
    if config.window == 0 {
        return image;
    }
    let mut section = Vec::new();
    put(&mut section, config.window as usize);
    put(&mut section, config.df_cutoff as usize);
    put(&mut section, coverage.len());
    let mut bitmap = vec![0u8; coverage.len().div_ceil(8)];
    for (t, _) in coverage.iter().enumerate().filter(|&(_, &covered)| covered) {
        bitmap[t / 8] |= 1 << (t % 8);
    }
    section.extend_from_slice(&bitmap);
    put(&mut section, lists.len());
    for ((a, b), entries) in lists {
        let mut data = Vec::new();
        let mut headers = Vec::new();
        for (i, chunk) in entries.chunks(BLOCK_ENTRIES).enumerate() {
            let byte_start = data.len();
            let min_gap = pack_block(chunk, &mut data);
            let max_node = chunk[chunk.len() - 1].0;
            headers.push([
                max_node as usize,
                byte_start,
                i * BLOCK_ENTRIES,
                min_gap as usize,
            ]);
        }
        put(&mut section, *a as usize);
        put(&mut section, *b as usize);
        put(&mut section, entries.len());
        put(&mut section, headers.len());
        for field in headers.iter().flatten() {
            put(&mut section, *field);
        }
        put(&mut section, data.len());
        section.extend_from_slice(&data);
    }
    // Replace the empty section table with one pair section (id 1).
    image.truncate(image.len() - 4);
    put(&mut image, 1);
    put(&mut image, 1);
    put(&mut image, section.len());
    image.extend_from_slice(&section);
    image
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(64)))]

    #[test]
    fn counting_build_matches_the_sorted_build((window, cutoff, high, docs) in arb_pair_case()) {
        let corpus = pair_case_corpus(high, &docs);
        let df_cutoff = [0, 2, docs.len() as u32 + 1][cutoff];
        let config = PairConfig { window, df_cutoff };
        let dfs = document_frequencies(&corpus);
        let (coverage, want) = sorted_build(corpus.documents(), &dfs, config);

        let index = IndexBuilder::new().pair_config(config).build(&corpus);
        let pairs = index.pairs();
        let got: Vec<Key> = pairs
            .iter()
            .map(|(a, b, list)| ((a.0, b.0), list.to_entries()))
            .collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(pairs.num_keys(), want.len());
        let entries: usize = want.iter().map(|(_, list)| list.len()).sum();
        prop_assert_eq!(pairs.num_entries(), entries as u64);
        if window > 0 {
            let vocab = corpus.interner().len() as u32;
            for t in 0..vocab {
                prop_assert_eq!(pairs.covers(TokenId(t)), coverage[t as usize]);
            }
        }

        let image = reference_image(&corpus, config, &coverage, &want);
        prop_assert_eq!(persist::encode(&index).as_slice(), image.as_slice());
        let reference = persist::decode(image.as_slice()).expect("the reference image decodes");
        prop_assert_eq!(pairs.resident_bytes(), reference.pairs().resident_bytes());
    }
}
