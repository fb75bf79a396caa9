//! Property-test helpers shared by the workspace's test suites: the case
//! count every suite reads from `FTSL_PROPTEST_CASES`, and the common
//! corpus strategy. Dev-only: suites list it under `[dev-dependencies]`,
//! and no library depends on it.

use ftsl_model::Corpus;
use proptest::prelude::*;
use std::ops::Range;

/// Property-case count: `FTSL_PROPTEST_CASES` when it is set (the
/// scheduled deep-fuzz CI job raises it), or the suite's `default`, which
/// keeps PR builds quick.
pub fn prop_cases(default: u32) -> u32 {
    std::env::var("FTSL_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Corpora of `docs` documents, each `words` tokens drawn uniformly from
/// `vocab` and joined by spaces, tokenized by [`Corpus::from_texts`].
pub fn arb_corpus(
    vocab: &'static [&'static str],
    docs: Range<usize>,
    words: Range<usize>,
) -> impl Strategy<Value = Corpus> {
    proptest::collection::vec(proptest::collection::vec(0..vocab.len(), words), docs).prop_map(
        move |docs| {
            let texts: Vec<String> = docs
                .into_iter()
                .map(|toks| {
                    toks.into_iter()
                        .map(|t| vocab[t])
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect();
            Corpus::from_texts(&texts)
        },
    )
}
