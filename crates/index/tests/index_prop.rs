//! Index invariants on random corpora: the inverted lists are exactly the
//! transpose of the documents, `IL_ANY` covers every position, the
//! Section 5.1.2 size parameters are the true maxima, and binary
//! persistence is lossless.

use ftsl_index::{persist, IndexBuilder, PostingList};
use ftsl_model::{Corpus, NodeId, Position, TokenId};
use ftsl_testkit::prop_cases;
use proptest::prelude::*;

const VOCAB: [&str; 5] = ["ant", "bee", "cat", "dog", "elk"];

fn arb_corpus() -> impl Strategy<Value = Corpus> {
    proptest::collection::vec(proptest::collection::vec(0..VOCAB.len() + 2, 0..25), 0..10).prop_map(
        |docs| {
            let texts: Vec<String> = docs
                .into_iter()
                .map(|toks| {
                    toks.into_iter()
                        .map(|t| if t < VOCAB.len() { VOCAB[t] } else { "." })
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect();
            Corpus::from_texts(&texts)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(128)))]

    #[test]
    fn index_is_the_exact_transpose_of_the_corpus(corpus in arb_corpus()) {
        let index = IndexBuilder::new().build(&corpus);

        // Each token's list, decoded by a cursor walk, is exactly the
        // transpose computed naively from the documents.
        for t in 0..corpus.interner().len() {
            let tok = TokenId(t as u32);
            let expected: Vec<(NodeId, Vec<Position>)> = corpus
                .documents()
                .iter()
                .filter_map(|doc| {
                    let ps: Vec<Position> = doc
                        .tokens
                        .iter()
                        .filter(|&&(t, _)| t == tok)
                        .map(|&(_, p)| p)
                        .collect();
                    (!ps.is_empty()).then_some((doc.node, ps))
                })
                .collect();
            prop_assert_eq!(
                index.block_list(tok).to_posting(),
                PostingList::from_entries(expected)
            );
        }

        // IL_ANY covers exactly the non-empty documents' positions.
        let any = index.any_block_list().to_posting();
        let any_total: usize = any.iter().map(|(_, ps)| ps.len()).sum();
        let corpus_total: usize = corpus.documents().iter().map(|d| d.len()).sum();
        prop_assert_eq!(any_total, corpus_total);
    }

    #[test]
    fn stats_are_true_maxima(corpus in arb_corpus()) {
        let index = IndexBuilder::new().build(&corpus);
        let s = index.stats();
        prop_assert_eq!(s.cnodes, corpus.len());
        let true_pos_per_cnode =
            corpus.documents().iter().map(|d| d.len()).max().unwrap_or(0);
        prop_assert_eq!(s.pos_per_cnode, true_pos_per_cnode);
        let true_entries = (0..corpus.interner().len())
            .map(|t| index.df(TokenId(t as u32)))
            .max()
            .unwrap_or(0);
        prop_assert_eq!(s.entries_per_token, true_entries);
    }

    #[test]
    fn persistence_roundtrip_is_lossless(corpus in arb_corpus()) {
        let index = IndexBuilder::new().build(&corpus);
        let image = persist::encode(&index);
        let decoded = persist::decode(image.clone()).expect("decodes");
        prop_assert_eq!(decoded.stats(), index.stats());
        for t in 0..corpus.interner().len() {
            let tok = TokenId(t as u32);
            prop_assert_eq!(decoded.block_list(tok), index.block_list(tok));
        }
        prop_assert_eq!(decoded.any_block_list(), index.any_block_list());
        // The pair arena is rebuilt from the stored lists: same keys, same
        // entries, same bytes resident and on re-encode.
        let (got, want) = (decoded.pairs(), index.pairs());
        prop_assert_eq!(got.num_keys(), want.num_keys());
        prop_assert_eq!(got.num_entries(), want.num_entries());
        prop_assert_eq!(got.resident_bytes(), want.resident_bytes());
        prop_assert_eq!(persist::encode(&decoded), image);
    }
}
