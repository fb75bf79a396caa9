//! Property-test helpers shared by the workspace's test suites: the case
//! count every suite reads from `FTSL_PROPTEST_CASES`, the common corpus
//! strategy, the generated-query strategies (BOOL trees and
//! PPRED / NPRED stream queries), and the word-pair build's cases.
//! Dev-only: suites list it under `[dev-dependencies]`, and no library
//! depends on it.

use ftsl_lang::SurfaceQuery;
use ftsl_model::{Corpus, Position, TokenId, TokenInterner};
use proptest::prelude::*;
use std::ops::Range;
use std::sync::OnceLock;

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

/// Random BOOL-shaped surface queries nested up to `depth`: `AND`, `OR`
/// and `NOT` over leaves that are a literal drawn from `vocab`, weighted
/// `vocab_weight`, or `extra`, weighted 1.
pub fn arb_bool_query(
    vocab: &'static [&'static str],
    vocab_weight: u32,
    extra: SurfaceQuery,
    depth: u32,
) -> BoxedStrategy<SurfaceQuery> {
    let leaf = prop_oneof![
        vocab_weight => (0..vocab.len()).prop_map(move |t| SurfaceQuery::Lit(vocab[t].to_string())),
        1 => Just(extra.clone()),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = arb_bool_query(vocab, vocab_weight, extra, depth - 1);
    prop_oneof![
        2 => leaf,
        2 => (sub.clone(), sub.clone())
            .prop_map(|(a, b)| SurfaceQuery::And(Box::new(a), Box::new(b))),
        2 => (sub.clone(), sub.clone())
            .prop_map(|(a, b)| SurfaceQuery::Or(Box::new(a), Box::new(b))),
        1 => sub.prop_map(|a| SurfaceQuery::Not(Box::new(a))),
    ]
    .boxed()
}

/// One binary predicate application over two of the variables
/// `p0..p{nvars}`: positive only, or — with `allow_negative` — negative
/// three times in five.
pub fn arb_pred(nvars: usize, allow_negative: bool) -> impl Strategy<Value = SurfaceQuery> {
    let positive = prop_oneof![
        (0..6i64).prop_map(|d| ("distance".to_string(), vec![d])),
        Just(("ordered".to_string(), vec![])),
        Just(("samepara".to_string(), vec![])),
        Just(("samesent".to_string(), vec![])),
        Just(("samepos".to_string(), vec![])),
        (0..8i64).prop_map(|w| ("window".to_string(), vec![w])),
    ];
    let negative = prop_oneof![
        (0..5i64).prop_map(|d| ("not_distance".to_string(), vec![d])),
        Just(("not_ordered".to_string(), vec![])),
        Just(("diffpos".to_string(), vec![])),
        Just(("not_samepara".to_string(), vec![])),
        Just(("not_samesent".to_string(), vec![])),
    ];
    let name_consts = if allow_negative {
        prop_oneof![2 => positive, 3 => negative].boxed()
    } else {
        positive.boxed()
    };
    (name_consts, 0..nvars, 0..nvars).prop_map(|((name, consts), i, j)| SurfaceQuery::Pred {
        name,
        vars: vec![format!("p{i}"), format!("p{j}")],
        consts,
    })
}

/// A random PPRED-class query (NPRED-class too with `allow_negative`):
/// a quantified conjunction of one to three token bindings over `vocab`
/// (each possibly an `OR` of two tokens), up to two [`arb_pred`]
/// predicates, and an optional closed `AND NOT` of a literal.
pub fn arb_stream_query(
    vocab: &'static [&'static str],
    allow_negative: bool,
) -> impl Strategy<Value = SurfaceQuery> {
    let bindings = proptest::collection::vec((0..vocab.len(), any::<bool>(), 0..vocab.len()), 1..4);
    let preds = move |nvars| proptest::collection::vec(arb_pred(nvars, allow_negative), 0..3);
    (bindings, proptest::option::of(0..vocab.len())).prop_flat_map(move |(binds, not_tok)| {
        let nvars = binds.len();
        preds(nvars).prop_map(move |preds| {
            let mut conjuncts: Vec<SurfaceQuery> = Vec::new();
            for (i, (tok, use_or, alt)) in binds.iter().enumerate() {
                let var = format!("p{i}");
                let base = SurfaceQuery::VarHas(var.clone(), vocab[*tok].to_string());
                let bind = if *use_or {
                    SurfaceQuery::Or(
                        Box::new(base),
                        Box::new(SurfaceQuery::VarHas(var, vocab[*alt].to_string())),
                    )
                } else {
                    base
                };
                conjuncts.push(bind);
            }
            conjuncts.extend(preds.clone());
            let mut body = conjuncts
                .into_iter()
                .reduce(|a, b| SurfaceQuery::And(Box::new(a), Box::new(b)))
                .expect("non-empty");
            if let Some(nt) = not_tok {
                body = SurfaceQuery::And(
                    Box::new(body),
                    Box::new(SurfaceQuery::Not(Box::new(SurfaceQuery::Lit(
                        vocab[nt].to_string(),
                    )))),
                );
            }
            let mut query = body;
            for i in (0..nvars).rev() {
                query = SurfaceQuery::Some(format!("p{i}"), Box::new(query));
            }
            query
        })
    })
}

/// Document frequencies, as `IndexBuilder` hands them to the pair build.
pub fn document_frequencies(corpus: &Corpus) -> Vec<u32> {
    let mut dfs = vec![0u32; corpus.interner().len()];
    for doc in corpus.documents() {
        let mut seen: Vec<TokenId> = doc.tokens.iter().map(|&(t, _)| t).collect();
        seen.sort_unstable();
        seen.dedup();
        for t in seen {
            dfs[t.index()] += 1;
        }
    }
    dfs
}

/// Token ids of the generated documents start here in "high" cases, so the
/// vocabulary straddles 2¹⁶.
const HIGH_BASE: usize = 65_533;

/// `HIGH_BASE` filler tokens, interned once and cloned per case.
fn high_vocabulary() -> &'static TokenInterner {
    static VOCAB: OnceLock<TokenInterner> = OnceLock::new();
    VOCAB.get_or_init(|| {
        let mut vocab = TokenInterner::new();
        for i in 0..HIGH_BASE {
            vocab.intern(&format!("filler{i}"));
        }
        vocab
    })
}

/// A document as `(token, offset step)` pairs: the first token sits at its
/// step minus one, each next one `step` offsets after the previous.
pub type DocSpec = Vec<(u32, u32)>;

fn arb_doc(wide: bool) -> BoxedStrategy<DocSpec> {
    let short = proptest::collection::vec((0u32..6, 1u32..3), 2..30);
    let repeated = proptest::collection::vec((0u32..2, 1u32..2), 10..40);
    let far = proptest::collection::vec((0u32..6, (1u32 << 28)..(1 << 29)), 2..6);
    if wide {
        // Every pair is within a `u32::MAX` window: keep documents short.
        return prop_oneof![
            Just(Vec::new()),
            (0u32..6).prop_map(|t| vec![(t, 1)]),
            short,
            far,
        ]
        .boxed();
    }
    // Hundreds of distinct keys per document: more than the dedupe table's
    // first allocation holds.
    let long = proptest::collection::vec((0u32..300, 1u32..2), 520..700);
    prop_oneof![
        2 => Just(Vec::new()),
        2 => (0u32..6).prop_map(|t| vec![(t, 1)]),
        6 => short,
        3 => repeated,
        1 => far,
        1 => long,
    ]
    .boxed()
}

/// Cases for the word-pair index build: `(window, cutoff choice, high ids,
/// documents)`. The window is 0, 1, 16 or `u32::MAX`; the cutoff choice
/// indexes `[0, 2, documents + 1]`; with high ids the documents' tokens
/// start at 65 533, so the vocabulary straddles 2¹⁶ ([`pair_case_corpus`]).
/// Documents are empty, of one token, short, of two tokens repeated, with
/// offsets 2²⁸ or more apart (so the build's packed postings need more than
/// 64 bits), or long, with hundreds of distinct keys.
pub fn arb_pair_case() -> impl Strategy<Value = (u32, usize, bool, Vec<DocSpec>)> {
    (0usize..4).prop_flat_map(|w| {
        let window = [0, 1, 16, u32::MAX][w];
        (
            Just(window),
            0usize..3,
            any::<bool>(),
            proptest::collection::vec(arb_doc(window == u32::MAX), 0..10),
        )
    })
}

/// The corpus of an [`arb_pair_case`] case: 300 words `w0..w300` (after
/// 65 533 fillers when `high`), and one document per spec.
pub fn pair_case_corpus(high: bool, docs: &[DocSpec]) -> Corpus {
    let mut vocab = if high {
        high_vocabulary().clone()
    } else {
        TokenInterner::new()
    };
    for t in 0..300 {
        vocab.intern(&format!("w{t}"));
    }
    let base = if high { HIGH_BASE as u32 } else { 0 };
    let mut corpus = Corpus::with_interner(vocab);
    for (d, spec) in docs.iter().enumerate() {
        let mut offset = 0u32;
        let tokens = spec
            .iter()
            .enumerate()
            .map(|(i, &(t, step))| {
                offset = if i == 0 { step - 1 } else { offset + step };
                (TokenId(base + t), Position::flat(offset))
            })
            .collect();
        corpus.add_tokens(format!("doc{d}"), tokens);
    }
    corpus
}
