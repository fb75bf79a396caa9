//! Differential property tests for the live segmented index.
//!
//! The contract under test: after **any** interleaving of adds, deletes,
//! flushes, and merges, every engine — BOOL, PPRED, NPRED, COMP, exhaustive
//! scored ranking, and streaming top-k — run over
//! a [`Snapshot`] produces results *bit-identical* to one sealed segment
//! rebuilt from scratch over the surviving documents. Global node ids remap
//! to the rebuild's dense ids by survivor order; scores are compared by
//! their exact bit patterns (the merged statistics and the canonical
//! combine order make them exactly equal, not merely close).
//!
//! Snapshot isolation is part of the same contract: a snapshot taken
//! mid-sequence keeps answering for the collection as it was, no matter
//! what later mutations and merges do — including merges running on the
//! background thread while the snapshot is held.

mod common;

use common::{apply, apply_one, arb_ops, dense_ids, manual_config, render, survivors, Docs, VOCAB};
use ftsl_core::{Ftsl, LiveConfig, RankModel};
use ftsl_exec::engine::EngineKind;
use ftsl_exec::snapshot::SnapshotExecutor;
use ftsl_exec::{ScoreModel, ScoredTopK};
use ftsl_index::{manifest, IndexBuilder, InvertedIndex, PairConfig, Snapshot};
use ftsl_model::{Corpus, NodeId};
use ftsl_predicates::PredicateRegistry;
use ftsl_scoring::{ScoreStats, SnapshotStats};
use ftsl_testkit::prop_cases;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// The monolithic side: the survivors rebuilt from scratch.
struct Monolith {
    /// Raw corpus + index, for the statistics oracle.
    corpus: Corpus,
    index: InvertedIndex,
    /// The same texts as one sealed segment.
    engine: Ftsl,
    /// The same corpus sealed without word pairs: the position-intersection
    /// oracle of the pair path.
    pairless: Snapshot,
    /// Global id in the churned engine → dense id in the rebuild.
    remap: HashMap<u32, u32>,
}

fn rebuild(survivors: &[(u32, String)]) -> Monolith {
    let texts: Vec<&str> = survivors.iter().map(|(_, t)| t.as_str()).collect();
    let corpus = Corpus::from_texts(&texts);
    let pairless = IndexBuilder::new()
        .pair_config(PairConfig::disabled())
        .build(&corpus);
    Monolith {
        index: IndexBuilder::new().build(&corpus),
        pairless: Snapshot::of_index(corpus.clone(), pairless),
        corpus,
        engine: Ftsl::from_texts(&texts),
        remap: dense_ids(survivors),
    }
}

/// The query battery: one representative per engine family.
const SET_QUERIES: &[(&str, EngineKind)] = &[
    ("'alpha'", EngineKind::Auto),
    ("'alpha' AND 'beta'", EngineKind::Auto),
    ("'alpha' AND NOT 'beta'", EngineKind::Auto),
    ("NOT 'alpha'", EngineKind::Auto),
    ("'gamma' OR ('beta' AND 'eps')", EngineKind::Auto),
    (
        "SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'beta' AND distance(p1,p2,3))",
        EngineKind::Auto, // PPRED
    ),
    (
        "SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'gamma' AND ordered(p1,p2) AND samepara(p1,p2))",
        EngineKind::Auto, // PPRED, structured positions
    ),
    (
        "SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'alpha' AND diffpos(p1,p2))",
        EngineKind::Auto, // NPRED
    ),
    ("EVERY p1 (p1 HAS 'alpha')", EngineKind::Auto), // COMP
    ("'alpha' AND 'beta'", EngineKind::Comp),        // forced materialization
];

/// Compare every set-producing engine on a snapshot against the same query
/// over the one-segment rebuild.
fn assert_sets_match(engine: &Ftsl, mono: &Monolith, ctx: &str) -> Result<(), ()> {
    let snapshot = engine.snapshot();
    let mono_snapshot = mono.engine.snapshot();
    let reg = PredicateRegistry::with_builtins();
    let live_exec = SnapshotExecutor::new(&snapshot, &reg);
    let mono_exec = SnapshotExecutor::new(&mono_snapshot, &reg);
    for (query, kind) in SET_QUERIES {
        let live_out = live_exec.run_str(query, *kind).expect("live run");
        let mono_out = mono_exec.run_str(query, *kind).expect("monolithic run");
        let live_dense: Vec<u32> = live_out
            .nodes
            .iter()
            .map(|n| {
                *mono
                    .remap
                    .get(&n.0)
                    .expect("live result must be a survivor")
            })
            .collect();
        let mono_ids: Vec<u32> = mono_out.nodes.iter().map(|n| n.0).collect();
        prop_assert_eq!(&live_dense, &mono_ids, "{}: {} diverged", ctx, query);
    }
    Ok(())
}

const SCORED_QUERIES: &[&str] = &[
    "'alpha'",
    "'alpha' OR 'beta' OR 'eps'",
    "('alpha' AND 'beta') OR NOT 'gamma'",
    "'zeta' AND NOT 'alpha'",
];

/// Compare exhaustive ranking and streaming top-k, bit-exactly.
fn assert_scores_match(engine: &Ftsl, mono: &Monolith, ctx: &str) -> Result<(), ()> {
    let (sealed, remap) = (&mono.engine, &mono.remap);
    for model in [RankModel::TfIdf, RankModel::Pra] {
        for query in SCORED_QUERIES {
            let live = engine.search_ranked(query, model).expect("live rank");
            let sealed_r = sealed.search_ranked(query, model).expect("sealed rank");
            prop_assert_eq!(
                live.hits.len(),
                sealed_r.hits.len(),
                "{}: {} {:?} hit count",
                ctx,
                query,
                model
            );
            for (l, f) in live.hits.iter().zip(&sealed_r.hits) {
                prop_assert_eq!(
                    remap[&l.0 .0],
                    f.0 .0,
                    "{}: {} {:?} order",
                    ctx,
                    query,
                    model
                );
                prop_assert_eq!(
                    l.1.to_bits(),
                    f.1.to_bits(),
                    "{}: {} {:?} score bits",
                    ctx,
                    query,
                    model
                );
            }
            for k in [1usize, 3, 10] {
                let live = engine.search_top_k(query, model, k).expect("live topk");
                let sealed_t = sealed.search_top_k(query, model, k).expect("sealed topk");
                prop_assert_eq!(live.hits.len(), sealed_t.hits.len());
                for (l, f) in live.hits.iter().zip(&sealed_t.hits) {
                    prop_assert_eq!(remap[&l.0 .0], f.0 .0);
                    prop_assert_eq!(l.1.to_bits(), f.1.to_bits());
                }
            }
        }
    }
    Ok(())
}

/// Proximity shapes that resolve from the word-pair auxiliary lists.
const PAIR_QUERIES: &[&str] = &[
    "SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'beta' AND ordered(p1,p2) AND distance(p1,p2,0))",
    "SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'beta' AND ordered(p1,p2) AND window(p1,p2,4))",
    "SOME p1 SOME p2 (p1 HAS 'beta' AND p2 HAS 'gamma' AND distance(p1,p2,2))",
    "SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'alpha' AND ordered(p1,p2) AND distance(p1,p2,1))",
];

/// Pair-accelerated evaluation under churn: the snapshot run (pairs on,
/// so phrase/NEAR shapes walk per-segment pair lists with tombstone
/// filtering) must be bit-identical to the *position-intersection oracle*
/// over the monolithic rebuild — deleted documents must never surface via
/// a pair list that still physically contains them. The NEAR top-k facade
/// must agree with the one-segment rebuild's down to the score bits.
fn assert_pairs_match(engine: &Ftsl, mono: &Monolith, ctx: &str) -> Result<(), ()> {
    let remap = &mono.remap;
    let snapshot = engine.snapshot();
    let reg = PredicateRegistry::with_builtins();
    let live_exec = SnapshotExecutor::new(&snapshot, &reg);
    let oracle_exec = SnapshotExecutor::new(&mono.pairless, &reg);
    for query in PAIR_QUERIES {
        let live_out = live_exec
            .run_str(query, EngineKind::Auto)
            .expect("live run");
        let oracle_out = oracle_exec
            .run_str(query, EngineKind::Auto)
            .expect("oracle run");
        let live_dense: Vec<u32> = live_out
            .nodes
            .iter()
            .map(|n| *remap.get(&n.0).expect("pair hit must be a survivor"))
            .collect();
        let oracle_ids: Vec<u32> = oracle_out.nodes.iter().map(|n| n.0).collect();
        prop_assert_eq!(
            &live_dense,
            &oracle_ids,
            "{}: pair path diverged on {}",
            ctx,
            query
        );
    }
    // NEAR top-k: segmented pair walk with global threshold vs the
    // rebuild's one-segment walk. The global→dense remap preserves id
    // order, so ranking (score desc, id asc) and score bits must agree.
    for (a, b, bound, ordered) in [
        ("alpha", "beta", 4, true),
        ("beta", "gamma", 3, false),
        ("alpha", "alpha", 2, true),
    ] {
        for k in [1usize, 5, 100] {
            let live = engine.search_near_top_k(a, b, bound, ordered, k);
            let want = mono.engine.search_near_top_k(a, b, bound, ordered, k);
            prop_assert_eq!(
                live.hits.len(),
                want.hits.len(),
                "{}: near {}-{} k={} hit count",
                ctx,
                a,
                b,
                k
            );
            for (l, f) in live.hits.iter().zip(&want.hits) {
                prop_assert_eq!(
                    remap[&l.0 .0],
                    f.0 .0,
                    "{}: near {}-{} k={} order",
                    ctx,
                    a,
                    b,
                    k
                );
                prop_assert_eq!(
                    l.1.to_bits(),
                    f.1.to_bits(),
                    "{}: near {}-{} k={} score bits",
                    ctx,
                    a,
                    b,
                    k
                );
            }
        }
    }
    Ok(())
}

/// Grow the engine's vocabulary by `width` tokens no live document keeps:
/// add one document of `width` distinct words and delete it at once.
/// Every segment sealed afterwards carries a vocabulary far wider than its
/// own documents, as a write-buffer chunk does.
fn widen(engine: &Ftsl, width: usize) {
    if width == 0 {
        return;
    }
    let text: Vec<String> = (0..width).map(|i| format!("wide{i}")).collect();
    let node = engine.add(&text.join(" "));
    assert!(engine.delete(node), "the widening document must delete");
}

/// [`SnapshotStats::compute`] against [`ScoreStats::compute`] on the
/// rebuild, bit for bit: `df` and `idf` of every token id, and per segment
/// every live node's `unique_tokens` and `‖n‖₂` and the segment's minimum
/// denominator — the smallest `unique_tokens·‖n‖₂` among its live
/// non-empty nodes.
fn assert_stats_match(engine: &Ftsl, mono: &Monolith, ctx: &str) -> Result<(), ()> {
    let snap = engine.snapshot();
    let stats = SnapshotStats::compute(&snap);
    let oracle = ScoreStats::compute(&mono.corpus, &mono.index);
    prop_assert_eq!(stats.db_size(), oracle.db_size, "{}: db_size", ctx);
    for (id, name) in snap.vocabulary().iter() {
        let mono_id = mono.corpus.token_id(name);
        let df = mono_id.map_or(0, |m| oracle.df(m));
        let idf = mono_id.map_or(0.0, |m| oracle.idf(m));
        prop_assert_eq!(stats.df_id(id), df, "{}: df({})", ctx, name);
        prop_assert_eq!(
            stats.idf_id(id).to_bits(),
            idf.to_bits(),
            "{}: idf({})",
            ctx,
            name
        );
    }
    // Live nodes, segment by segment, are the rebuild's nodes in order.
    let mut dense = 0u32;
    for (i, seg) in snap.segments().iter().enumerate() {
        let per = stats.segment(i);
        let mut min_den = f64::INFINITY;
        for local in (0..seg.data().num_docs()).filter(|&l| seg.deletes().is_live(l)) {
            let (l, m) = (NodeId(local as u32), NodeId(dense));
            let unique = oracle.unique_tokens(m);
            let norm = oracle.l2_norm(m);
            prop_assert_eq!(per.unique_tokens(l), unique, "{}: unique of {}", ctx, dense);
            prop_assert_eq!(
                per.l2_norm(l).to_bits(),
                norm.to_bits(),
                "{}: l2 of {}",
                ctx,
                dense
            );
            if !mono.corpus.document(m).is_empty() {
                min_den = min_den.min(unique as f64 * norm);
            }
            dense += 1;
        }
        prop_assert_eq!(
            per.min_denominator().to_bits(),
            min_den.to_bits(),
            "{}: minimum denominator of segment {}",
            ctx,
            i
        );
    }
    prop_assert_eq!(dense as usize, mono.corpus.len(), "{}: live nodes", ctx);
    Ok(())
}

/// Every live document's tokens, resolved through the snapshot's one
/// vocabulary, are the words of its text, in order.
fn assert_vocabulary_resolves(
    snap: &Snapshot,
    survivors: &[(u32, String)],
    ctx: &str,
) -> Result<(), ()> {
    let vocabulary = snap.vocabulary();
    prop_assert_eq!(snap.live_doc_count(), survivors.len(), "{}: live docs", ctx);
    for ((node, doc), (global, text)) in snap.live_documents().zip(survivors) {
        prop_assert_eq!(node.0, *global, "{}: live document order", ctx);
        let got: Vec<&str> = doc
            .tokens
            .iter()
            .map(|&(t, _)| vocabulary.name(t))
            .collect();
        let want: Vec<&str> = text
            .split_whitespace()
            .filter(|w| VOCAB.contains(w))
            .collect();
        prop_assert_eq!(got, want, "{}: tokens of {}", ctx, global);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(24)))]

    /// Any history's live documents resolve through
    /// `Snapshot::vocabulary`, and still do after a manifest round trip,
    /// whose segments all share the one decoded vocabulary.
    #[test]
    fn vocabulary_resolves_every_live_document(ops in arb_ops()) {
        let (engine, survivors) = apply(&ops);
        assert_vocabulary_resolves(&engine.snapshot(), &survivors, "live")?;
        let bytes = manifest::encode(engine.live_index());
        let back = manifest::decode_with(bytes, manual_config()).expect("decode");
        let snap = back.snapshot();
        for seg in snap.segments() {
            let shared = seg.data().corpus().interner();
            prop_assert!(std::ptr::eq(Arc::as_ptr(shared), snap.vocabulary()), "one allocation");
        }
        assert_vocabulary_resolves(&snap, &survivors, "reloaded")?;
    }

    /// Merged statistics over any history — deletes, merges, reads that
    /// cut the buffer into chunks, and a vocabulary far wider than any
    /// segment — equal the rebuild's, bit for bit.
    #[test]
    fn snapshot_stats_equal_monolithic_rebuild(
        width in prop_oneof![Just(0usize), Just(40), Just(2_000)],
        ops in arb_ops(),
    ) {
        let engine = Ftsl::with_config(manual_config());
        widen(&engine, width);
        let mut docs = Docs::new();
        for op in &ops {
            apply_one(&engine, op, &mut docs);
        }
        let mono = rebuild(&survivors(&docs));
        assert_stats_match(&engine, &mono, "final state")?;
    }

    /// Any interleaving of adds/deletes/flushes/merges: all engines on the
    /// snapshot ≡ the monolithic rebuild.
    #[test]
    fn snapshot_equals_monolithic_rebuild(ops in arb_ops()) {
        let (engine, survivors) = apply(&ops);
        let mono = rebuild(&survivors);
        assert_sets_match(&engine, &mono, "final state")?;
        assert_scores_match(&engine, &mono, "final state")?;
        assert_pairs_match(&engine, &mono, "final state")?;
    }

    /// A snapshot taken mid-sequence answers for the state at that moment,
    /// no matter what the rest of the sequence does to the live index.
    #[test]
    fn held_snapshot_is_isolated_from_later_mutations(
        ops in arb_ops(),
        split in 0usize..32,
    ) {
        let split = split.min(ops.len());
        let engine = Ftsl::with_config(manual_config());
        let mut docs = Docs::new();
        for op in &ops[..split] {
            apply_one(&engine, op, &mut docs);
        }
        let pinned = engine.snapshot();
        let survivors_then = survivors(&docs);
        // Churn on: the pinned snapshot must not move.
        for op in &ops[split..] {
            apply_one(&engine, op, &mut docs);
        }
        engine.merge();

        let mono = rebuild(&survivors_then);
        let reg = PredicateRegistry::with_builtins();
        let exec = SnapshotExecutor::new(&pinned, &reg);
        let mono_snapshot = mono.engine.snapshot();
        let mono_exec = SnapshotExecutor::new(&mono_snapshot, &reg);
        for (query, kind) in SET_QUERIES {
            let live_out = exec.run_str(query, *kind).expect("pinned run");
            let mono_out = mono_exec.run_str(query, *kind).expect("monolithic run");
            let live_dense: Vec<u32> = live_out
                .nodes
                .iter()
                .map(|n| *mono.remap.get(&n.0).expect("pinned result must be a then-survivor"))
                .collect();
            let mono_ids: Vec<u32> = mono_out.nodes.iter().map(|n| n.0).collect();
            prop_assert_eq!(&live_dense, &mono_ids, "pinned: {} diverged", query);
        }
    }
}

/// Snapshot isolation under a *background* merge thread: hold a snapshot,
/// churn hard enough to keep the merger busy, and verify the held snapshot
/// still answers byte-for-byte as the rebuild of its moment — while
/// the live index keeps serving the new state correctly.
#[test]
fn held_snapshot_survives_concurrent_background_merges() {
    let engine = Ftsl::with_config(LiveConfig {
        background_merge: true,
        flush_threshold: 4,
        merge_fanin: 2,
    });
    let mut texts = Vec::new();
    for i in 0..24 {
        let text = format!(
            "alpha doc{i} {} beta",
            if i % 3 == 0 { "gamma" } else { "delta" }
        );
        engine.add(&text);
        texts.push(text);
    }
    engine.flush();
    let pinned = engine.snapshot();
    let mono = rebuild(
        &texts
            .iter()
            .enumerate()
            .map(|(i, t)| (i as u32, t.clone()))
            .collect::<Vec<_>>(),
    );

    // Churn: deletes and adds with tiny flush threshold wake the merger
    // over and over while we repeatedly query the pinned snapshot.
    let reg = PredicateRegistry::with_builtins();
    let mono_snapshot = mono.engine.snapshot();
    for round in 0..30 {
        engine.add(&format!("churn {round} beta eps"));
        if round % 2 == 0 {
            engine.delete(NodeId(round));
        }
        let exec = SnapshotExecutor::new(&pinned, &reg);
        let out = exec
            .run_str("'alpha' AND 'beta'", EngineKind::Auto)
            .unwrap();
        let mono_out = SnapshotExecutor::new(&mono_snapshot, &reg)
            .run_str("'alpha' AND 'beta'", EngineKind::Auto)
            .unwrap();
        assert_eq!(
            out.nodes, mono_out.nodes,
            "pinned snapshot moved during round {round}"
        );
    }
    // Let the merger catch up, then check the *live* view: the churn docs
    // answer (minus the three that were deleted — ids 24/26/28 are churn
    // rounds 0/2/4), and a seeded doc deleted in round 0 is gone.
    std::thread::sleep(std::time::Duration::from_millis(300));
    assert_eq!(engine.search("'eps'").unwrap().nodes.len(), 27);
    assert!(engine.search("'doc0'").unwrap().nodes.is_empty());
    // After a full merge the same answers hold, now from one segment.
    engine.merge();
    assert_eq!(engine.search("'eps'").unwrap().nodes.len(), 27);
    assert!(engine.search("'doc0'").unwrap().nodes.is_empty());
}

/// Deleting documents *after* their segment is sealed leaves their
/// postings physically inside the segment's pair lists — the tombstone
/// filter is the only thing keeping them out of answers. Phrase search,
/// NEAR top-k, and the intersection fallback must all hide them.
#[test]
fn tombstoned_docs_never_surface_via_pair_lists() {
    let engine = Ftsl::with_config(LiveConfig {
        background_merge: false,
        flush_threshold: usize::MAX,
        merge_fanin: usize::MAX,
    });
    let mut ids = Vec::new();
    for i in 0..12 {
        ids.push(engine.add(&format!("alpha beta doc{i}")));
    }
    engine.flush(); // sealed: pair lists now physically hold all 12 docs
    for (i, &id) in ids.iter().enumerate() {
        if i % 2 == 0 {
            assert!(engine.delete(id));
        }
    }

    let phrase =
        "SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'beta' AND ordered(p1,p2) AND distance(p1,p2,0))";
    let hits = engine.search(phrase).unwrap();
    let survivors: Vec<u32> = ids
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .map(|(_, id)| id.0)
        .collect();
    assert_eq!(
        hits.node_ids(),
        survivors,
        "phrase over pair lists leaked a tombstone"
    );

    let near = engine.search_near_top_k("alpha", "beta", 4, true, 100);
    let mut near_ids: Vec<u32> = near.hits.iter().map(|(n, _)| n.0).collect();
    near_ids.sort_unstable();
    assert_eq!(near_ids, survivors, "NEAR top-k leaked a tombstone");
    assert!(near.counters.pair_entries > 0, "pair path engaged");
    // Every survivor's pair is adjacent: closeness is exactly 1.0.
    assert!(near.hits.iter().all(|&(_, s)| s == 1.0));

    // After compaction the tombstones are physically reclaimed and the
    // same answers come from rebuilt pair lists.
    engine.merge();
    let hits = engine.search(phrase).unwrap();
    assert_eq!(hits.node_ids(), survivors);
    let near = engine.search_near_top_k("alpha", "beta", 4, true, 100);
    let mut near_ids: Vec<u32> = near.hits.iter().map(|(n, _)| n.0).collect();
    near_ids.sort_unstable();
    assert_eq!(near_ids, survivors);
}

/// Mutating concurrently from several threads: the index stays consistent
/// (every surviving document answers, every deleted one does not).
#[test]
fn concurrent_writers_and_readers_stay_consistent() {
    let engine = Ftsl::with_config(LiveConfig {
        background_merge: true,
        flush_threshold: 8,
        merge_fanin: 2,
    });
    std::thread::scope(|scope| {
        let e = &engine;
        let writer = scope.spawn(move || {
            let mut added = Vec::new();
            for i in 0..60 {
                added.push(e.add(&format!("writer doc{i} alpha")));
                if i % 7 == 0 {
                    e.flush();
                }
                if i % 5 == 0 {
                    if let Some(&n) = added.get(i / 2) {
                        e.delete(n);
                    }
                }
            }
        });
        let reader = scope.spawn(move || {
            for _ in 0..40 {
                let snap = e.snapshot();
                // A snapshot is internally consistent: every live doc it
                // reports resolves, and counts add up.
                let live = snap.live_doc_count();
                let listed = snap.live_documents().count();
                assert_eq!(live, listed);
                let hits = e.search("'alpha'").unwrap();
                for n in &hits.nodes {
                    // Hits come from *some* recent snapshot; they must at
                    // least be ids that were ever assigned.
                    assert!(n.0 < 60);
                }
            }
        });
        writer.join().unwrap();
        reader.join().unwrap();
    });
    engine.merge();
    let snap = engine.snapshot();
    assert_eq!(snap.live_doc_count(), engine.live_index().live_doc_count());
}

/// The serving contract: N reader threads hammering one held snapshot —
/// BOOL sets plus streaming top-k with a per-thread
/// [`ExecScratch`] — while a writer churns adds, deletes, flushes, and
/// merges. Every concurrent answer must be bit-identical to the
/// single-threaded reference computed on that snapshot up front: same node
/// ids, same score *bits*. This is exactly what the serve pool relies on
/// (shared `Snapshot`, per-worker scratch, no cross-thread interference).
#[test]
fn concurrent_readers_match_single_threaded_on_held_snapshot() {
    use ftsl_exec::snapshot::ExecScratch;

    let engine = Ftsl::with_config(manual_config());
    // Seed with enough structure for every query family, across several
    // sealed segments (flush_threshold 6 auto-seals as we go).
    for i in 0..30 {
        let tokens: Vec<usize> = (0..10).map(|j| (i * 3 + j * 5) % 9).collect();
        engine.add(&render(&tokens));
    }
    engine.flush();
    engine.live_index().maybe_merge();
    let pinned = engine.snapshot();
    let stats = SnapshotStats::compute(&pinned);
    let reg = PredicateRegistry::with_builtins();

    // Single-threaded reference on the pinned snapshot.
    let exec = SnapshotExecutor::new(&pinned, &reg);
    let set_refs: Vec<Vec<NodeId>> = SET_QUERIES
        .iter()
        .map(|(q, kind)| exec.run_str(q, *kind).expect("reference run").nodes)
        .collect();
    let topk_query = ftsl_lang::parse("'alpha' OR 'beta' OR 'eps'", ftsl_lang::Mode::Comp).unwrap();
    let topk_tokens = ["alpha", "beta", "eps"];
    let topk_model = stats.tfidf_model(&topk_tokens, &pinned);
    let topk_ref: Vec<(NodeId, u64)> = exec
        .run_top_k_with(
            &topk_query,
            ScoredTopK { k: 7 },
            &stats,
            &ScoreModel::TfIdf(&topk_model),
            &mut ExecScratch::new(),
        )
        .expect("reference topk")
        .hits
        .iter()
        .map(|(n, s)| (*n, s.to_bits()))
        .collect();

    std::thread::scope(|scope| {
        let e = &engine;
        let writer = scope.spawn(move || {
            // Churn hard: every shape of mutation, repeatedly.
            for round in 0..40u32 {
                e.add(&format!("churn{round} alpha zeta"));
                if round % 3 == 0 {
                    e.delete(NodeId(round % 30));
                }
                if round % 4 == 0 {
                    e.flush();
                }
                if round % 8 == 0 {
                    e.live_index().maybe_merge();
                }
                if round == 20 {
                    e.merge();
                }
            }
        });
        for reader in 0..4usize {
            let (pinned, stats, reg) = (&pinned, &stats, &reg);
            let (set_refs, topk_ref, topk_query, topk_model) =
                (&set_refs, &topk_ref, &topk_query, &topk_model);
            scope.spawn(move || {
                let mut scratch = ExecScratch::new();
                for _round in 0..8 {
                    let exec = SnapshotExecutor::new(pinned, reg);
                    for (qi, (q, kind)) in SET_QUERIES.iter().enumerate() {
                        let out = exec.run_str(q, *kind).expect("concurrent run");
                        assert_eq!(
                            out.nodes, set_refs[qi],
                            "reader {reader}: {q} diverged under churn"
                        );
                    }
                    let out = exec
                        .run_top_k_with(
                            topk_query,
                            ScoredTopK { k: 7 },
                            stats,
                            &ScoreModel::TfIdf(topk_model),
                            &mut scratch,
                        )
                        .expect("concurrent topk");
                    let got: Vec<(NodeId, u64)> =
                        out.hits.iter().map(|(n, s)| (*n, s.to_bits())).collect();
                    assert_eq!(&got, topk_ref, "reader {reader}: topk diverged under churn");
                }
            });
        }
        writer.join().unwrap();
    });
}
