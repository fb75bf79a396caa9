//! Differential properties of the **global** top-k pruning path.
//!
//! The contract under test: after any interleaving of adds, deletes,
//! flushes, and merges, [`SnapshotExecutor::run_top_k_with`] — one shared
//! bounded heap across every segment, segments ordered by descending
//! impact bound, whole segments skipped when their bound cannot beat the
//! current k-th score — returns results *bit-identical* (ids through the
//! global→dense remap, scores by exact bit pattern) to a monolithic
//! rebuild of the survivors as one segment: the rebuild's `search_top_k`
//! for flat disjunctions, and its `search_ranked` truncated to k for PRA
//! trees.
//!
//! Over the same histories, `search_top_k(q, m, k)` is `search_ranked(q,
//! m)` truncated to k for every query under both models — the one
//! semantics every top-k arm answers — and `search_ranked` is the set
//! answer, scored: it ranks exactly `search`'s nodes, with the scores the
//! unrestricted evaluator gives them over every candidate of a monolithic
//! rebuild.
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

mod common;

use common::{apply, apply_one, arb_ops, dense_ids, manual_config, survivors, Docs, Op, VOCAB};
use ftsl_algebra::from_calculus::query_to_algebra;
use ftsl_algebra::AlgebraEvaluator;
use ftsl_calculus::CalcQuery;
use ftsl_core::{query_tokens, Ftsl, LiveConfig, RankModel};
use ftsl_exec::scored::flat_disjunction;
use ftsl_exec::snapshot::{ExecScratch, SnapshotExecutor};
use ftsl_exec::{ScoreModel, ScoredTopK};
use ftsl_index::Snapshot;
use ftsl_lang::{lower, parse, Mode, SurfaceQuery};
use ftsl_model::NodeId;
use ftsl_predicates::PredicateRegistry;
use ftsl_scoring::topk::sort_ranked;
use ftsl_scoring::{ModelScorer, SnapshotStats};
use ftsl_testkit::{arb_bool_query, arb_stream_query, prop_cases};
use proptest::prelude::*;
use std::collections::HashMap;

/// The monolithic side: the survivors as a one-segment engine, and the
/// global→dense id map.
struct Monolith {
    engine: Ftsl,
    remap: HashMap<u32, u32>,
}

fn rebuild(survivors: &[(u32, String)]) -> Monolith {
    let texts: Vec<&str> = survivors.iter().map(|(_, t)| t.as_str()).collect();
    Monolith {
        engine: Ftsl::from_texts(&texts),
        remap: dense_ids(survivors),
    }
}

impl Monolith {
    fn top_k(&self, query: &str, model: RankModel, k: usize) -> Vec<(NodeId, f64)> {
        self.engine
            .search_top_k(query, model, k)
            .expect("oracle top-k")
            .hits
    }

    fn pra_tree(&self, query: &str, k: usize) -> Vec<(NodeId, f64)> {
        let mut hits = self
            .engine
            .search_ranked(query, RankModel::Pra)
            .expect("oracle pra ranking")
            .hits;
        hits.truncate(k);
        hits
    }

    /// The unrestricted ranking: the evaluator with a score column over
    /// every candidate of the translated plan, not only over the set
    /// answer, under the rebuild's own statistics, in ranking order.
    fn every_candidate_ranked(&self, query: &SurfaceQuery, model: RankModel) -> Vec<(NodeId, f64)> {
        let reg = self.engine.registry();
        let snapshot = self.engine.snapshot();
        let stats = SnapshotStats::compute(&snapshot);
        let expr = lower(query, reg).expect("lowers");
        let alg = query_to_algebra(&CalcQuery::new(expr), reg).expect("translates");
        let tokens = query_tokens(query);
        let (tfidf, pra) = (
            stats.tfidf_model(&tokens, &snapshot),
            stats.pra_model(&tokens, &snapshot),
        );
        let mut hits = Vec::new();
        for (i, seg) in snapshot.segments().iter().enumerate() {
            let (corpus, index) = (seg.data().corpus(), seg.data().index());
            let ranked = match model {
                RankModel::TfIdf => {
                    let scorer = ModelScorer(&tfidf, stats.segment(i));
                    AlgebraEvaluator::scored(corpus, index, reg, scorer).rank(&alg)
                }
                RankModel::Pra => {
                    let scorer = ModelScorer(&pra, stats.segment(i));
                    AlgebraEvaluator::scored(corpus, index, reg, scorer).rank(&alg)
                }
            };
            let globals = ranked.expect("ranks").into_iter();
            hits.extend(globals.map(|(n, s)| (seg.data().global_of(n.index()), s)));
        }
        sort_ranked(&mut hits);
        hits
    }
}

/// The globally-pruned run under test.
fn global_top_k(
    snapshot: &Snapshot,
    stats: &SnapshotStats,
    query: &SurfaceQuery,
    k: usize,
    model: &ScoreModel<'_>,
) -> ftsl_exec::ScoredOutput {
    let reg = PredicateRegistry::with_builtins();
    SnapshotExecutor::new(snapshot, &reg)
        .run_top_k_with(
            query,
            ScoredTopK { k },
            stats,
            model,
            &mut ExecScratch::new(),
        )
        .expect("global topk")
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

/// BOOL trees, which rank through the algebra.
const TREE_QUERIES: &[&str] = &[
    "('alpha' AND 'beta') OR 'gamma'",
    "'zeta' AND NOT 'alpha'",
    "('alpha' AND 'beta') OR NOT 'gamma'",
];

/// A repeated literal: the algebra's union adds (TF-IDF) or combines
/// (PRA) both `'alpha'` arms, so the pruned union must count it twice.
const REPEATED: &str = "'alpha' OR 'alpha' OR 'beta'";

/// The extra leaf of this suite's random BOOL trees: a token outside the
/// corpus vocabulary.
fn out_of_vocab() -> SurfaceQuery {
    SurfaceQuery::Lit("outofvocab".to_string())
}

/// Random queries that rank through the algebra: BOOL trees, and PPRED /
/// NPRED stream queries with positive and negative predicates.
fn arb_ranked_query() -> impl Strategy<Value = SurfaceQuery> {
    prop_oneof![
        arb_bool_query(&VOCAB, 1, out_of_vocab(), 3),
        arb_stream_query(&VOCAB, true),
    ]
}

/// Histories that end in an exact tie: a random history, then one document
/// flushed into a segment of its own and added again in a later segment
/// beside a few short documents. The two copies score the same bits under
/// every flat query, so the smaller id must win the tie whichever segment
/// the walk visits first. `arb_ops` alone rarely repeats a document across
/// segments.
fn arb_tie_ops() -> impl Strategy<Value = Vec<Op>> {
    let doc = proptest::collection::vec(0..VOCAB.len(), 1..12);
    let beside = proptest::collection::vec(proptest::collection::vec(0..VOCAB.len(), 1..4), 0..3);
    (arb_ops(), doc, beside).prop_map(|(mut ops, doc, beside)| {
        ops.extend([Op::Flush, Op::Add(doc.clone()), Op::Flush, Op::Add(doc)]);
        ops.extend(beside.into_iter().map(Op::Add));
        ops.push(Op::Flush);
        ops
    })
}

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
/// shapes, globally-pruned snapshot run vs the one-segment rebuild.
fn assert_global_matches_oracle(engine: &Ftsl, mono: &Monolith) -> Result<(), ()> {
    let snapshot = engine.snapshot();
    let stats = SnapshotStats::compute(&snapshot);
    let segments = snapshot.segments().len() as u64;
    let live_pra = stats.pra_model(
        &["alpha", "beta", "gamma", "delta", "eps", "zeta"],
        &snapshot,
    );
    for (query, tokens) in FLAT_QUERIES {
        let q = ftsl_lang::parse(query, ftsl_lang::Mode::Comp).unwrap();
        let live_tfidf = stats.tfidf_model(tokens, &snapshot);
        for k in KS {
            let live = global_top_k(&snapshot, &stats, &q, k, &ScoreModel::TfIdf(&live_tfidf));
            let ctx = format!("tfidf {query} k={k}");
            let oracle = mono.top_k(query, RankModel::TfIdf, k);
            assert_hits_bit_identical(&live.hits, &oracle, &mono.remap, &ctx)?;
            prop_assert!(live.counters.segments_skipped <= segments, "{}", ctx);

            let live = global_top_k(&snapshot, &stats, &q, k, &ScoreModel::Pra(&live_pra));
            let ctx = format!("pra {query} k={k}");
            let oracle = mono.top_k(query, RankModel::Pra, k);
            assert_hits_bit_identical(&live.hits, &oracle, &mono.remap, &ctx)?;
        }
    }
    for query in TREE_QUERIES {
        let q = ftsl_lang::parse(query, ftsl_lang::Mode::Comp).unwrap();
        for k in KS {
            let live = global_top_k(&snapshot, &stats, &q, k, &ScoreModel::Pra(&live_pra));
            let ctx = format!("pra tree {query} k={k}");
            assert_hits_bit_identical(&live.hits, &mono.pra_tree(query, k), &mono.remap, &ctx)?;
            prop_assert!(live.counters.segments_skipped <= segments, "{}", ctx);
        }
    }
    Ok(())
}

/// `search_top_k(query, model, k)` against `search_ranked(query, model)`
/// truncated to k on one engine, for both models and every k. The
/// exhaustive arm is that ranking truncated, so the bits must match. The
/// pruned union folds its sums in its own order, so it is compared as the
/// benchmark compares it: as many hits, the same scores rank by rank, and
/// each hit scored as the ranking scores that node, all within 1e-9
/// relative (which also lets exact ties come out in either order).
fn assert_top_k_is_truncated_ranking(engine: &Ftsl, query: &str) -> Result<(), ()> {
    let q = ftsl_lang::parse(query, ftsl_lang::Mode::Comp).unwrap();
    let union = flat_disjunction(&q).is_some();
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
    let bits = |hits: &[(NodeId, f64)]| -> Vec<(u32, u64)> {
        hits.iter().map(|&(n, s)| (n.0, s.to_bits())).collect()
    };
    for model in [RankModel::TfIdf, RankModel::Pra] {
        let full = engine.search_ranked(query, model).expect("ranked").hits;
        for k in KS {
            let top = engine.search_top_k(query, model, k).expect("top-k").hits;
            let ctx = format!("{query} under {model:?} k={k}");
            let want = &full[..k.min(full.len())];
            if !union {
                prop_assert_eq!(bits(&top), bits(want), "{}", ctx);
                continue;
            }
            prop_assert_eq!(top.len(), want.len(), "{}: hit count", ctx);
            for (t, w) in top.iter().zip(want) {
                prop_assert!(close(t.1, w.1), "{}: {:?} ranked where {:?} is", ctx, t, w);
                prop_assert!(
                    full.iter().any(|f| f.0 == t.0 && close(f.1, t.1)),
                    "{}: {:?} is not scored so by the ranking",
                    ctx,
                    t
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(16)))]

    /// Any interleaving of adds/deletes/flushes/merges: every top-k, on
    /// either arm under either model, is the exhaustive ranking truncated
    /// to k — flat disjunctions, BOOL trees with and without `NOT`, a
    /// repeated literal, and a random BOOL tree.
    #[test]
    fn top_k_is_the_ranking_truncated(ops in arb_ops(), random in arb_bool_query(&VOCAB, 1, out_of_vocab(), 3)) {
        let (engine, _) = apply(&ops);
        let random = random.render();
        let flat = FLAT_QUERIES.iter().map(|(query, _)| *query);
        let queries = flat.chain(TREE_QUERIES.iter().copied());
        for query in queries.chain([REPEATED, random.as_str()]) {
            assert_top_k_is_truncated_ranking(&engine, query)?;
        }
    }

    /// A ranked answer is the set answer, scored. Over any interleaving of
    /// adds/deletes/flushes/merges, a random BOOL tree or stream query
    /// ranks exactly the nodes `search` answers, under either model, and
    /// its hits are bit-identical, after the id remap, to the unrestricted
    /// ranking of every candidate on the monolithic rebuild.
    #[test]
    fn a_ranked_answer_is_the_set_answer_scored(ops in arb_ops(), query in arb_ranked_query()) {
        let (engine, survivors) = apply(&ops);
        let mono = rebuild(&survivors);
        let text = query.render();
        let query = parse(&text, Mode::Comp).expect("a rendered query parses");
        let set = engine.search(&text).expect("search").nodes;
        for model in [RankModel::TfIdf, RankModel::Pra] {
            let ctx = format!("{text} under {model:?}");
            let ranked = engine.search_ranked(&text, model).expect("ranked").hits;
            let mut nodes: Vec<NodeId> = ranked.iter().map(|&(n, _)| n).collect();
            nodes.sort();
            prop_assert_eq!(&nodes, &set, "{}: ranked nodes", ctx);
            let oracle = mono.every_candidate_ranked(&query, model);
            assert_hits_bit_identical(&ranked, &oracle, &mono.remap, &ctx)?;
        }
    }

    /// Any interleaving of adds/deletes/flushes/merges, with or without an
    /// exact tie across segments at the end: the globally-pruned top-k
    /// over the resulting N-segment snapshot is bit-identical to the
    /// monolithic rebuild's one-segment run, for every model × k.
    #[test]
    fn global_topk_is_bit_identical_to_monolithic_oracle(
        ops in prop_oneof![arb_ops(), arb_tie_ops()],
    ) {
        let (engine, survivors) = apply(&ops);
        assert_global_matches_oracle(&engine, &rebuild(&survivors))?;
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
        let engine = Ftsl::with_config(manual_config());
        let mut docs = Docs::new();
        for op in head {
            apply_one(&engine, op, &mut docs);
        }
        let pinned = engine.snapshot();
        let survivors_then = survivors(&docs);
        for op in tail {
            apply_one(&engine, op, &mut docs);
        }
        engine.merge();

        let mono = rebuild(&survivors_then);
        let stats = SnapshotStats::compute(&pinned);
        for (query, tokens) in FLAT_QUERIES {
            let q = ftsl_lang::parse(query, ftsl_lang::Mode::Comp).unwrap();
            let live_model = stats.tfidf_model(tokens, &pinned);
            let live = global_top_k(&pinned, &stats, &q, 10, &ScoreModel::TfIdf(&live_model));
            let oracle = mono.top_k(query, RankModel::TfIdf, 10);
            assert_hits_bit_identical(&live.hits, &oracle, &mono.remap, query)?;
        }
    }
}

/// Deterministic skew: one segment holds a document that dominates the
/// score range, so with k=1 every later segment's bound falls below the
/// threshold and is skipped whole — and the answers are still bit-identical
/// to the oracle. Pruning that actually fires must stay invisible.
#[test]
fn skipped_segments_never_change_answers() {
    let engine = Ftsl::with_config(LiveConfig {
        background_merge: false,
        flush_threshold: usize::MAX,
        merge_fanin: usize::MAX,
    });
    let mut texts: Vec<String> = Vec::new();
    let add = |engine: &Ftsl, texts: &mut Vec<String>, text: String| {
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
    let mono = rebuild(&survivors);
    let snapshot = engine.snapshot();
    assert_eq!(snapshot.segments().len(), 9, "one strong + eight weak");
    let stats = SnapshotStats::compute(&snapshot);
    let q = ftsl_lang::parse("'alpha'", ftsl_lang::Mode::Comp).unwrap();
    let tokens = ["alpha"];
    let live_model = stats.tfidf_model(&tokens, &snapshot);
    let live = global_top_k(&snapshot, &stats, &q, 1, &ScoreModel::TfIdf(&live_model));
    assert_eq!(
        live.counters.segments_skipped, 8,
        "every weak segment skipped"
    );
    let oracle = mono.top_k("'alpha'", RankModel::TfIdf, 1);
    assert_eq!(live.hits.len(), oracle.len());
    for (l, o) in live.hits.iter().zip(&oracle) {
        assert_eq!(mono.remap[&l.0 .0], o.0 .0, "ranked ids");
        assert_eq!(l.1.to_bits(), o.1.to_bits(), "score bits");
    }
}

/// Exact ties across segments: the same document in two segments scores
/// the same bits in both, and the smaller id must win the tie-break, as it
/// does in the ranking and in a one-segment rebuild. The later segment also
/// holds a one-token document, so its bound is higher and it is visited
/// first; the earlier segment's bound must then not round below the score
/// it bounds, or that segment is skipped and the tie lost. A one-token
/// bound is the entry scorer's own; a three-token bound also folds the
/// lists in another order than the candidate's score does.
#[test]
fn exact_ties_across_segments_keep_the_smaller_id() {
    for (doc, query) in [
        ("x x x x f5 f5 f6", "'x'"),
        ("f1 z x f6 f4 x z", "'x' OR 'z' OR 'f1'"),
    ] {
        let engine = Ftsl::with_config(LiveConfig {
            background_merge: false,
            flush_threshold: usize::MAX,
            ..LiveConfig::default()
        });
        engine.add(doc);
        engine.flush();
        engine.add(doc);
        engine.add("y");
        engine.flush();
        let mono = Ftsl::from_texts(&[doc, doc, "y"]);
        let bits = |hits: &[(NodeId, f64)]| -> Vec<(NodeId, u64)> {
            hits.iter().map(|&(n, s)| (n, s.to_bits())).collect()
        };
        for model in [RankModel::TfIdf, RankModel::Pra] {
            let ctx = format!("{query} under {model:?}");
            let ranked = engine.search_ranked(query, model).expect("ranked").hits;
            let top = engine.search_top_k(query, model, 1).expect("top-k").hits;
            let oracle = mono.search_top_k(query, model, 1).expect("oracle").hits;
            assert_eq!(ranked[0].0, NodeId(0), "{ctx}: the tie's smaller id");
            assert_eq!(top.len(), 1, "{ctx}");
            assert_eq!(top[0].0, ranked[0].0, "{ctx}: the ranking truncated");
            assert_eq!(bits(&top), bits(&oracle), "{ctx}: the rebuild's top-k");
        }
    }
}
