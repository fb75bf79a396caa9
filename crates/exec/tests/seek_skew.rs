//! Acceptance tests for skip-aware seeking on a skewed corpus: conjunctive
//! evaluation driven by the rarest list must *decode* strictly fewer
//! inverted-list entries than a sequential scan of the operand lists, with
//! the bypassed entries accounted in [`AccessCounters::skipped`], position
//! payloads decoded only where a predicate looks — and every engine must
//! agree with the calculus interpreter while it skips.

use ftsl_calculus::interp::Interpreter;
use ftsl_calculus::CalcQuery;
use ftsl_corpus::SynthConfig;
use ftsl_exec::engine::EngineKind;
use ftsl_exec::SnapshotExecutor;
use ftsl_index::{AccessCounters, IndexBuilder, InvertedIndex, PairConfig, Snapshot};
use ftsl_lang::{lower, parse, Mode};
use ftsl_model::{Corpus, NodeId};
use ftsl_predicates::PredicateRegistry;

/// Zipf background plus one rare and one common planted token: the regime
/// where seek-driven conjunction wins by orders of magnitude.
fn skewed_corpus() -> Corpus {
    SynthConfig {
        cnodes: 1500,
        vocabulary: 800,
        tokens_per_doc: 60,
        ..SynthConfig::default()
    }
    .plant("rare", 0.01, 2)
    .plant("common", 0.6, 3)
    .build()
}

/// The skewed corpus and its default index.
fn skewed_env() -> (Corpus, InvertedIndex) {
    let corpus = skewed_corpus();
    let index = IndexBuilder::new().build(&corpus);
    (corpus, index)
}

fn df(corpus: &Corpus, index: &InvertedIndex, token: &str) -> u64 {
    index.df(corpus.token_id(token).expect("planted token")) as u64
}

#[test]
fn bool_conjunction_decodes_fewer_entries_than_sequential_scan() {
    let (corpus, index) = skewed_env();
    let rare_df = df(&corpus, &index, "rare");
    let common_df = df(&corpus, &index, "common");
    assert!(
        rare_df * 10 < common_df,
        "corpus must be skewed: {rare_df} vs {common_df}"
    );
    // What the seed's lock-step merge decoded: every entry of both lists.
    let sequential_entries = rare_df + common_df;

    let reg = PredicateRegistry::with_builtins();
    let snapshot = Snapshot::of_index(corpus.clone(), index);
    let out = SnapshotExecutor::new(&snapshot, &reg)
        .run_str("'rare' AND 'common'", EngineKind::Bool)
        .expect("runs");
    let (nodes, counters) = (out.nodes, out.counters);

    assert!(
        counters.entries < sequential_entries,
        "decoded {} entries, sequential scan costs {sequential_entries}",
        counters.entries
    );
    assert!(
        counters.skipped > 0,
        "seek must bypass entries on a skewed corpus"
    );
    // The seek path cannot decode more than O(rare · log common) entries;
    // generously bound by 4·rare + log-factor slack.
    assert!(
        counters.entries <= 4 * rare_df + 64,
        "decoded {} entries for rare df {rare_df}",
        counters.entries
    );

    // Same answer as filtering the documents directly.
    let (rare, common) = (
        corpus.token_id("rare").unwrap(),
        corpus.token_id("common").unwrap(),
    );
    let expected: Vec<NodeId> = corpus
        .documents()
        .iter()
        .filter(|d| {
            d.tokens.iter().any(|&(t, _)| t == rare) && d.tokens.iter().any(|&(t, _)| t == common)
        })
        .map(|d| d.node)
        .collect();
    assert_eq!(nodes, expected);
}

#[test]
fn streaming_join_seeks_instead_of_scanning() {
    let (corpus, index) = skewed_env();
    let sequential_entries = df(&corpus, &index, "rare") + df(&corpus, &index, "common");
    let reg = PredicateRegistry::with_builtins();
    let snapshot = Snapshot::of_index(corpus, index);
    let out = SnapshotExecutor::new(&snapshot, &reg)
        .run_str("'rare' AND 'common'", EngineKind::Ppred)
        .expect("ppred runs");

    assert!(
        out.counters.entries < sequential_entries,
        "PPRED decoded {} entries, lock-step costs {sequential_entries}",
        out.counters.entries
    );
    assert!(out.counters.skipped > 0);
}

/// Run `query` on `engine` over the skewed corpus sealed without word pairs
/// (the position-intersection path), check it against the calculus
/// interpreter, and hand back the counters.
fn agrees_with_interpreter(query: &str, engine: EngineKind) -> AccessCounters {
    let corpus = skewed_corpus();
    let reg = PredicateRegistry::with_builtins();
    let surface = parse(query, Mode::Comp).expect("parses");
    let expr = lower(&surface, &reg).expect("lowers");
    let expected = Interpreter::new(&corpus, &reg).eval_query(&CalcQuery::new(expr));

    let index = IndexBuilder::new()
        .pair_config(PairConfig::disabled())
        .build(&corpus);
    let snapshot = Snapshot::of_index(corpus, index);
    let out = SnapshotExecutor::new(&snapshot, &reg)
        .run_surface(&surface, engine)
        .expect("engine runs");

    assert_eq!(out.nodes, expected, "engine disagrees on {query}");
    assert!(!out.nodes.is_empty(), "vacuous agreement on {query}");
    out.counters
}

#[test]
fn bool_agrees_with_interpreter_while_seeking() {
    let counters = agrees_with_interpreter(
        "('rare' AND 'common') OR ('common' AND NOT 'rare')",
        EngineKind::Bool,
    );
    // The conjunction path must seek, not scan.
    assert!(
        counters.skipped > 0,
        "BOOL block cursors should skip: {counters:?}"
    );
}

#[test]
fn ppred_agrees_with_interpreter_while_seeking() {
    let counters = agrees_with_interpreter(
        "SOME p1 SOME p2 (p1 HAS 'rare' AND p2 HAS 'common' AND samepara(p1,p2))",
        EngineKind::Ppred,
    );
    // The cursors skip whole blocks of the common list.
    assert!(
        counters.skipped > 0,
        "block cursors should skip: {counters:?}"
    );
}

#[test]
fn npred_agrees_with_interpreter() {
    agrees_with_interpreter(
        "SOME p1 SOME p2 (p1 HAS 'rare' AND p2 HAS 'common' AND not_distance(p1,p2,2))",
        EngineKind::Npred,
    );
}

#[test]
fn union_and_negation_agree_with_interpreter() {
    agrees_with_interpreter(
        "SOME p1 SOME p2 ((p1 HAS 'rare' OR p1 HAS 'common') AND p2 HAS 'common' \
         AND distance(p1,p2,40)) AND NOT 'nonexistent-token'",
        EngineKind::Ppred,
    );
}

/// The lazy-decode acceptance criterion: a positional conjunction driven by
/// a rare list rejects almost every entry of the common list on node id
/// alone, so the number of decoded position payloads stays strictly below
/// both the total entry count and the total position count of the scanned
/// lists.
#[test]
fn skewed_conjunction_decodes_positions_lazily() {
    let (corpus, index) = skewed_env();
    let rare = index.block_list(corpus.token_id("rare").unwrap());
    let common = index.block_list(corpus.token_id("common").unwrap());
    let total_entries = (rare.num_entries() + common.num_entries()) as u64;
    let total_positions = (rare.num_positions() + common.num_positions()) as u64;

    let c = agrees_with_interpreter(
        "SOME p1 SOME p2 (p1 HAS 'rare' AND p2 HAS 'common' AND distance(p1,p2,5))",
        EngineKind::Ppred,
    );
    assert!(
        c.positions_decoded > 0,
        "predicate evaluation must inspect some positions: {c:?}"
    );
    assert!(
        c.positions_decoded < total_entries,
        "expected lazy decoding: {} payload positions decoded vs {total_entries} entries",
        c.positions_decoded
    );
    assert!(
        c.positions_decoded < total_positions,
        "expected lazy decoding: {} of {total_positions} positions decoded",
        c.positions_decoded
    );
}
