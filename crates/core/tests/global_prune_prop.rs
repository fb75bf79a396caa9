//! Differential properties of the **global** top-k pruning path.
//!
//! The contract under test: after any interleaving of adds, deletes,
//! flushes, and merges, [`SnapshotExecutor::run_top_k`] — one shared
//! bounded heap across every segment, segments ordered by descending
//! impact bound, whole segments skipped when their bound cannot beat the
//! current k-th score — returns results *bit-identical* (ids through the
//! global→dense remap, scores by exact bit pattern) to the single-index
//! streaming engine run over a monolithic rebuild of the survivors.
//!
//! Pruning must be invisible: skipping a segment, tightening the entry
//! bound mid-stream, or arriving at a segment with a heap already full
//! from earlier segments may only ever avoid work, never change answers.
//! The battery covers TF-IDF and PRA and k ∈ {1, 10, 100} — the last
//! always larger than any corpus these sequences can produce, so the
//! no-pruning (heap never fills) region is exercised alongside the
//! aggressive-pruning one.
//!
//! The scheduled CI fuzz job raises the case count via
//! `FTSL_PROPTEST_CASES`; the default keeps PR builds quick.

use ftsl_core::{Ftsl, LiveConfig, LiveFtsl};
use ftsl_exec::snapshot::SnapshotExecutor;
use ftsl_exec::{ScoreModel, ScoredTopK};
use ftsl_model::NodeId;
use ftsl_predicates::PredicateRegistry;
use ftsl_scoring::{PraModel, ScoreStats, SnapshotStats, TfIdfModel};
use proptest::prelude::*;
use std::collections::HashMap;

const VOCAB: [&str; 6] = ["alpha", "beta", "gamma", "delta", "eps", "zeta"];

fn prop_cases() -> u32 {
    std::env::var("FTSL_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

/// One mutation against the live index (same shape as `live_prop.rs`).
#[derive(Clone, Debug)]
enum Op {
    Add(Vec<usize>),
    Delete(usize),
    Flush,
    MergeTier,
    MergeAll,
}

fn render(tokens: &[usize]) -> String {
    let mut text = String::new();
    for &t in tokens {
        match t {
            0..=5 => {
                text.push_str(VOCAB[t]);
                text.push(' ');
            }
            6 | 7 => text.push_str(". "),
            _ => text.push_str("\n\n"),
        }
    }
    text
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            5 => proptest::collection::vec(0usize..9, 0..12).prop_map(Op::Add),
            3 => (0usize..64).prop_map(Op::Delete),
            2 => Just(Op::Flush),
            1 => Just(Op::MergeTier),
            1 => Just(Op::MergeAll),
        ],
        1..32,
    )
}

fn manual_config() -> LiveConfig {
    LiveConfig {
        background_merge: false,
        // Small thresholds so random sequences produce real multi-segment
        // snapshots with tombstones in them.
        flush_threshold: 6,
        merge_fanin: 2,
        ..LiveConfig::default()
    }
}

/// Replay `ops`; returns the live engine plus the surviving `(global id,
/// text)` pairs in ascending global order.
fn apply(ops: &[Op]) -> (LiveFtsl, Vec<(u32, String)>) {
    let engine = LiveFtsl::with_config(manual_config());
    let mut docs: Vec<(u32, String, bool)> = Vec::new();
    for op in ops {
        match op {
            Op::Add(tokens) => {
                let text = render(tokens);
                let node = engine.add(&text);
                docs.push((node.0, text, true));
            }
            Op::Delete(i) => {
                if !docs.is_empty() {
                    let i = i % docs.len();
                    if docs[i].2 {
                        assert!(engine.delete(NodeId(docs[i].0)), "live doc must delete");
                        docs[i].2 = false;
                    }
                }
            }
            Op::Flush => {
                engine.flush();
            }
            Op::MergeTier => {
                engine.live_index().maybe_merge();
            }
            Op::MergeAll => {
                engine.merge();
            }
        }
    }
    let survivors = docs
        .into_iter()
        .filter(|(_, _, alive)| *alive)
        .map(|(g, t, _)| (g, t))
        .collect();
    (engine, survivors)
}

/// Frozen oracle over the survivors, plus the global→dense id map.
fn rebuild(survivors: &[(u32, String)]) -> (Ftsl, HashMap<u32, u32>) {
    let texts: Vec<&str> = survivors.iter().map(|(_, t)| t.as_str()).collect();
    let remap = survivors
        .iter()
        .enumerate()
        .map(|(dense, &(global, _))| (global, dense as u32))
        .collect();
    (Ftsl::from_texts(&texts), remap)
}

/// Flat disjunctions: the shape TF-IDF streaming ranks (and PRA too).
const FLAT_QUERIES: &[(&str, &[&str])] = &[
    ("'alpha'", &["alpha"]),
    ("'alpha' OR 'beta' OR 'eps'", &["alpha", "beta", "eps"]),
    (
        "'gamma' OR 'delta' OR 'zeta' OR 'alpha'",
        &["gamma", "delta", "zeta", "alpha"],
    ),
];

/// BOOL tree shapes only PRA's operator-scored streams can rank.
const TREE_QUERIES: &[&str] = &[
    "('alpha' AND 'beta') OR 'gamma'",
    "'zeta' AND NOT 'alpha'",
    "('alpha' AND 'beta') OR NOT 'gamma'",
];

/// k values: aggressive pruning (1), typical (10), and larger than any
/// corpus these op sequences can produce (100) so the heap never fills.
const KS: [usize; 3] = [1, 10, 100];

fn assert_hits_bit_identical(
    live: &[(NodeId, f64)],
    oracle: &[(NodeId, f64)],
    remap: &HashMap<u32, u32>,
    ctx: &str,
) -> Result<(), ()> {
    prop_assert_eq!(live.len(), oracle.len(), "{}: hit count", ctx);
    for (l, o) in live.iter().zip(oracle) {
        let dense = *remap
            .get(&l.0 .0)
            .unwrap_or_else(|| panic!("{ctx}: hit {} is not a survivor", l.0 .0));
        prop_assert_eq!(dense, o.0 .0, "{}: ranked ids", ctx);
        prop_assert_eq!(l.1.to_bits(), o.1.to_bits(), "{}: score bits", ctx);
    }
    Ok(())
}

/// The full battery: both models, all k, flat and tree
/// shapes, globally-pruned snapshot run vs monolithic single-index run.
fn assert_global_matches_oracle(
    engine: &LiveFtsl,
    frozen: &Ftsl,
    remap: &HashMap<u32, u32>,
) -> Result<(), ()> {
    let snapshot = engine.snapshot();
    let stats = SnapshotStats::compute(&snapshot);
    let frozen_stats = ScoreStats::compute(frozen.corpus(), frozen.index());
    let reg = PredicateRegistry::with_builtins();
    let segments = snapshot.segments().len() as u64;
    let exec = SnapshotExecutor::new(&snapshot, &reg);
    for (query, tokens) in FLAT_QUERIES {
        let q = ftsl_lang::parse(query, ftsl_lang::Mode::Comp).unwrap();
        let live_tfidf = stats.tfidf_model(tokens, &snapshot);
        let frozen_tfidf = TfIdfModel::for_query(tokens, frozen.corpus(), &frozen_stats);
        let live_pra = stats.pra_model(&snapshot);
        let frozen_pra = PraModel::new(frozen.corpus(), &frozen_stats);
        for k in KS {
            let spec = ScoredTopK { k };
            let live = exec
                .run_top_k(&q, spec, &stats, &ScoreModel::TfIdf(&live_tfidf))
                .expect("global tfidf topk");
            let oracle = ftsl_exec::scored::run_scored_top_k(
                &q,
                frozen.corpus(),
                frozen.index(),
                &frozen_stats,
                &ScoreModel::TfIdf(&frozen_tfidf),
                spec,
            )
            .expect("oracle tfidf topk");
            let ctx = format!("tfidf {query} k={k}");
            assert_hits_bit_identical(&live.hits, &oracle.hits, remap, &ctx)?;
            prop_assert!(live.counters.segments_skipped <= segments, "{}", ctx);

            let live = exec
                .run_top_k(&q, spec, &stats, &ScoreModel::Pra(&live_pra))
                .expect("global pra topk");
            let oracle = ftsl_exec::scored::run_scored_top_k(
                &q,
                frozen.corpus(),
                frozen.index(),
                &frozen_stats,
                &ScoreModel::Pra(&frozen_pra),
                spec,
            )
            .expect("oracle pra topk");
            let ctx = format!("pra {query} k={k}");
            assert_hits_bit_identical(&live.hits, &oracle.hits, remap, &ctx)?;
        }
    }
    for query in TREE_QUERIES {
        let q = ftsl_lang::parse(query, ftsl_lang::Mode::Comp).unwrap();
        let live_pra = stats.pra_model(&snapshot);
        let frozen_pra = PraModel::new(frozen.corpus(), &frozen_stats);
        for k in KS {
            let spec = ScoredTopK { k };
            let live = exec
                .run_top_k(&q, spec, &stats, &ScoreModel::Pra(&live_pra))
                .expect("global pra tree topk");
            let oracle = ftsl_exec::scored::run_scored_top_k(
                &q,
                frozen.corpus(),
                frozen.index(),
                &frozen_stats,
                &ScoreModel::Pra(&frozen_pra),
                spec,
            )
            .expect("oracle pra tree topk");
            let ctx = format!("pra tree {query} k={k}");
            assert_hits_bit_identical(&live.hits, &oracle.hits, remap, &ctx)?;
            prop_assert!(live.counters.segments_skipped <= segments, "{}", ctx);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases()))]

    /// Any interleaving of adds/deletes/flushes/merges: the globally-pruned
    /// top-k over the resulting N-segment snapshot is bit-identical to the
    /// monolithic rebuild's single-index run, for every model × k.
    #[test]
    fn global_topk_is_bit_identical_to_monolithic_oracle(ops in arb_ops()) {
        let (engine, survivors) = apply(&ops);
        let (frozen, remap) = rebuild(&survivors);
        assert_global_matches_oracle(&engine, &frozen, &remap)?;
    }

    /// Same contract on a snapshot pinned mid-sequence: later churn (and a
    /// full merge) must not leak into the pinned view's pruned answers.
    #[test]
    fn pinned_snapshot_prunes_against_its_own_moment(
        ops in arb_ops(),
        split in 0usize..32,
    ) {
        let split = split.min(ops.len());
        let (head, tail) = ops.split_at(split);
        let engine = LiveFtsl::with_config(manual_config());
        let mut docs: Vec<(u32, String, bool)> = Vec::new();
        let replay = |ops: &[Op], docs: &mut Vec<(u32, String, bool)>| {
            for op in ops {
                match op {
                    Op::Add(tokens) => {
                        let text = render(tokens);
                        let node = engine.add(&text);
                        docs.push((node.0, text, true));
                    }
                    Op::Delete(i) => {
                        if !docs.is_empty() {
                            let i = i % docs.len();
                            if docs[i].2 {
                                engine.delete(NodeId(docs[i].0));
                                docs[i].2 = false;
                            }
                        }
                    }
                    Op::Flush => {
                        engine.flush();
                    }
                    Op::MergeTier => {
                        engine.live_index().maybe_merge();
                    }
                    Op::MergeAll => {
                        engine.merge();
                    }
                }
            }
        };
        replay(head, &mut docs);
        let pinned = engine.snapshot();
        let survivors_then: Vec<(u32, String)> = docs
            .iter()
            .filter(|(_, _, alive)| *alive)
            .map(|(g, t, _)| (*g, t.clone()))
            .collect();
        replay(tail, &mut docs);
        engine.merge();

        let (frozen, remap) = rebuild(&survivors_then);
        let stats = SnapshotStats::compute(&pinned);
        let frozen_stats = ScoreStats::compute(frozen.corpus(), frozen.index());
        let reg = PredicateRegistry::with_builtins();
        let exec = SnapshotExecutor::new(&pinned, &reg);
        for (query, tokens) in FLAT_QUERIES {
            let q = ftsl_lang::parse(query, ftsl_lang::Mode::Comp).unwrap();
            let live_model = stats.tfidf_model(tokens, &pinned);
            let frozen_model = TfIdfModel::for_query(tokens, frozen.corpus(), &frozen_stats);
            let spec = ScoredTopK { k: 10 };
            let live = exec
                .run_top_k(&q, spec, &stats, &ScoreModel::TfIdf(&live_model))
                .expect("pinned tfidf topk");
            let oracle = ftsl_exec::scored::run_scored_top_k(
                &q,
                frozen.corpus(),
                frozen.index(),
                &frozen_stats,
                &ScoreModel::TfIdf(&frozen_model),
                spec,
            )
            .expect("oracle tfidf topk");
            assert_hits_bit_identical(&live.hits, &oracle.hits, &remap, query)?;
        }
    }
}

/// Deterministic skew: one segment holds a document that dominates the
/// score range, so with k=1 every later segment's bound falls below the
/// threshold and is skipped whole — and the answers are still bit-identical
/// to the oracle. Pruning that actually fires must stay invisible.
#[test]
fn skipped_segments_never_change_answers() {
    let engine = LiveFtsl::with_config(LiveConfig {
        background_merge: false,
        flush_threshold: usize::MAX,
        merge_fanin: usize::MAX,
        ..LiveConfig::default()
    });
    let mut texts: Vec<String> = Vec::new();
    let add = |engine: &LiveFtsl, texts: &mut Vec<String>, text: String| {
        engine.add(&text);
        texts.push(text);
    };
    add(&engine, &mut texts, "alpha alpha alpha alpha".to_string());
    engine.flush();
    for s in 0..8 {
        for d in 0..3 {
            add(&engine, &mut texts, format!("alpha pad{s}x{d}"));
        }
        // One document without the query token keeps idf('alpha') > 0 —
        // were df == N, every score would be zero and nothing would prune.
        add(&engine, &mut texts, format!("filler{s} filler{s}"));
        engine.flush();
    }

    let survivors: Vec<(u32, String)> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| (i as u32, t.clone()))
        .collect();
    let (frozen, remap) = rebuild(&survivors);
    let snapshot = engine.snapshot();
    assert_eq!(snapshot.segments().len(), 9, "one strong + eight weak");
    let stats = SnapshotStats::compute(&snapshot);
    let frozen_stats = ScoreStats::compute(frozen.corpus(), frozen.index());
    let reg = PredicateRegistry::with_builtins();
    let q = ftsl_lang::parse("'alpha'", ftsl_lang::Mode::Comp).unwrap();
    let tokens = ["alpha"];
    let exec = SnapshotExecutor::new(&snapshot, &reg);
    let live_model = stats.tfidf_model(&tokens, &snapshot);
    let frozen_model = TfIdfModel::for_query(&tokens, frozen.corpus(), &frozen_stats);
    let spec = ScoredTopK { k: 1 };
    let live = exec
        .run_top_k(&q, spec, &stats, &ScoreModel::TfIdf(&live_model))
        .expect("skewed tfidf topk");
    assert_eq!(
        live.counters.segments_skipped, 8,
        "every weak segment skipped"
    );
    let oracle = ftsl_exec::scored::run_scored_top_k(
        &q,
        frozen.corpus(),
        frozen.index(),
        &frozen_stats,
        &ScoreModel::TfIdf(&frozen_model),
        spec,
    )
    .expect("oracle tfidf topk");
    assert_eq!(live.hits.len(), oracle.hits.len());
    for (l, o) in live.hits.iter().zip(&oracle.hits) {
        assert_eq!(remap[&l.0 .0], o.0 .0, "ranked ids");
        assert_eq!(l.1.to_bits(), o.1.to_bits(), "score bits");
    }
}
