//! Query evaluation over a live-index [`Snapshot`]: every engine, unchanged,
//! across segments.
//!
//! A snapshot is a list of segments, each an ordinary corpus + inverted
//! index over *local* node ids plus a tombstone bitmap. Every query in this
//! workspace is per-node — a context node matches (and scores) based on its
//! own content plus collection-level statistics — so multi-segment
//! evaluation decomposes exactly:
//!
//! 1. compile the query once ([`PreparedQuery::prepare`]: classify, lower,
//!    plan), then bind it to each segment as-is
//!    ([`PreparedQuery::bind`]: the engines are byte-for-byte the
//!    single-index ones; token resolution, join order and cursors are per
//!    segment);
//! 2. drop tombstoned nodes (streaming top-k filters *inside* the
//!    evaluation via [`ftsl_index::DeleteFilteredCursor`], so deleted
//!    documents cannot occupy heap slots; the set-producing engines filter
//!    their result lists);
//! 3. remap surviving local ids to global ids and concatenate — segments
//!    own disjoint, ascending global ranges, so concatenation *is* the
//!    merged ascending result;
//! 4. **sum** the per-segment [`AccessCounters`] into one report (the
//!    total decode work of the query, not the work of whichever segment
//!    happened to run last).
//!
//! Scored paths take their statistics from
//! [`ftsl_scoring::SnapshotStats`], whose per-segment [`ScoreStats`] carry
//! collection-wide `df`/`db_size` — which is what makes snapshot scores
//! bit-identical to a monolithic index over the same live documents.

use crate::engine::{counter_attrs, EngineKind, ExecOptions, PreparedQuery, QueryOutput};
use crate::error::ExecError;
use crate::pairscan::{self, PairQuery};
use crate::scored::{flat_disjunction, ScoreModel, ScoredOutput, ScoredPath, ScoredTopK};
use ftsl_index::{AccessCounters, IndexBuilder, InvertedIndex, ScoredCursor, Snapshot};
use ftsl_lang::{parse, Mode, SurfaceQuery};
use ftsl_model::{Corpus, NodeId};
use ftsl_obs::TraceBuilder;
use ftsl_predicates::PredicateRegistry;
use ftsl_scoring::{
    pra_tree_bound, pra_union_cursors, run_bool_topk_into, tfidf_union_cursors, topk_union_into,
    union_bound, ScoreStats, SnapshotStats, TopK, UnionKind,
};
use std::sync::OnceLock;

/// The empty corpus/index pair the PRA tree check runs against when a
/// zero-segment snapshot gets a top-k query, so its shape errors match a
/// snapshot with segments exactly.
fn empty_pair() -> &'static (Corpus, InvertedIndex) {
    static EMPTY: OnceLock<(Corpus, InvertedIndex)> = OnceLock::new();
    EMPTY.get_or_init(|| {
        let corpus = Corpus::new();
        let index = IndexBuilder::new().build(&corpus);
        (corpus, index)
    })
}

/// Reusable per-worker evaluation state for [`SnapshotExecutor::run_top_k_with`].
///
/// A serving worker keeps one `ExecScratch` for its lifetime and threads it
/// through every query it runs: the top-k collector inside is
/// [`TopK::reset`] between queries instead of reconstructed, so its heap
/// allocation is paid once per worker, not once per query. Pairs with the
/// thread-local cursor-scratch pool in `ftsl-index` (cursors lease decoded
/// block buffers per thread automatically) to make the steady-state scored
/// hot path allocation-free.
#[derive(Debug)]
pub struct ExecScratch {
    topk: TopK,
}

impl ExecScratch {
    /// Fresh scratch; the collector grows to the first query's `k` and is
    /// reused from then on.
    pub fn new() -> Self {
        ExecScratch { topk: TopK::new(0) }
    }
}

impl Default for ExecScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Executor over a point-in-time snapshot of a live index.
pub struct SnapshotExecutor<'a> {
    snapshot: &'a Snapshot,
    registry: &'a PredicateRegistry,
    options: ExecOptions,
}

impl<'a> SnapshotExecutor<'a> {
    /// Executor with default options.
    pub fn new(snapshot: &'a Snapshot, registry: &'a PredicateRegistry) -> Self {
        Self::with_options(snapshot, registry, ExecOptions::default())
    }

    /// Executor with explicit options (advance mode, NPRED strategy, ...).
    pub fn with_options(
        snapshot: &'a Snapshot,
        registry: &'a PredicateRegistry,
        options: ExecOptions,
    ) -> Self {
        SnapshotExecutor {
            snapshot,
            registry,
            options,
        }
    }

    /// Parse a query (COMP syntax subsumes all three languages) and run it.
    pub fn run_str(&self, input: &str, engine: EngineKind) -> Result<QueryOutput, ExecError> {
        let surface = parse(input, Mode::Comp).map_err(|e| ExecError::Lang(e.to_string()))?;
        self.run_surface(&surface, engine)
    }

    /// Run an already-parsed surface query over every segment, returning
    /// globally-remapped matches in ascending global-id order with the
    /// per-segment work counters summed. The query is prepared once for
    /// the whole snapshot and bound to each segment, so a segment costs
    /// only its binding.
    pub fn run_surface(
        &self,
        surface: &SurfaceQuery,
        engine: EngineKind,
    ) -> Result<QueryOutput, ExecError> {
        let mut tb = self.options.trace.then(TraceBuilder::new);
        let prepared =
            PreparedQuery::prepare(surface, engine, self.registry, self.options, tb.as_mut())?;
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut counters = AccessCounters::new();
        for (i, seg) in self.snapshot.segments().iter().enumerate() {
            let data = seg.data();
            let seg_span = tb.as_mut().map(|b| b.open(format!("segment {i}")));
            let (found, delta) = prepared.bind(data.corpus(), data.index(), tb.as_mut())?;
            if let (Some(b), Some(id)) = (tb.as_mut(), seg_span) {
                counter_attrs(b, id, &delta);
                b.attr(id, "matches", found.len() as u64);
                b.close(id);
            }
            counters += delta;
            nodes.extend(
                found
                    .iter()
                    .filter(|n| seg.deletes().is_live(n.index()))
                    .map(|n| data.global_of(n.index())),
            );
        }
        Ok(QueryOutput {
            nodes,
            counters,
            engine: prepared.engine(),
            class: prepared.class(),
            trace: tb.map(|b| Box::new(b.finish())),
        })
    }

    /// Run a streaming scored top-k query across segments through **one
    /// shared heap with a global threshold**: every segment's impact bound
    /// is read from list metadata first (no posting decoded), segments are
    /// evaluated in descending-bound order so later ones start against an
    /// already-tightened k-th score, and a segment whose whole bound falls
    /// below the current threshold is skipped outright
    /// ([`AccessCounters::segments_skipped`]).
    ///
    /// Results are bit-identical to a monolithic index over the same live
    /// documents: per-segment scores fold in the same token order with the
    /// same collection-wide statistics, candidates enter the heap under
    /// their *global* ids (so tie-breaks match the monolithic ranking), and
    /// every pruning decision tests a sound upper bound against a threshold
    /// that only ever tightens.
    ///
    /// The top-k collector lives in caller-owned `scratch`, so a serving
    /// worker pays its allocation once, not once per query.
    pub fn run_top_k_with(
        &self,
        surface: &SurfaceQuery,
        spec: ScoredTopK,
        stats: &SnapshotStats,
        model: &ScoreModel<'_>,
        scratch: &mut ExecScratch,
    ) -> Result<ScoredOutput, ExecError> {
        // Dispatch once for the whole snapshot (it depends only on query
        // shape), so shape errors surface regardless of segment pruning.
        let flat = flat_disjunction(surface);
        if self.snapshot.segments().is_empty() && flat.is_none() {
            // No segment will run the shape checks below: reject here what
            // they would reject (the stream builder is the PRA tree check).
            match model {
                ScoreModel::TfIdf(_) => return Err(not_a_flat_disjunction(surface)),
                ScoreModel::Pra(m) => {
                    let (corpus, index) = empty_pair();
                    let stats = ScoreStats::compute(corpus, index);
                    let unused = &mut TopK::new(0);
                    run_bool_topk_into(surface, corpus, index, &stats, m, None, unused, None)
                        .map_err(not_in_bool)?;
                }
            }
        }
        enum SegPlan<'s> {
            /// Flat disjunction: prebuilt union cursors (their construction
            /// reads only list metadata, so a skipped segment costs no
            /// decode work).
            Union(Vec<Box<dyn ScoredCursor + 's>>, UnionKind),
            /// General BOOL tree under PRA; streams are built only if the
            /// segment is actually evaluated.
            Tree,
        }
        let mut plans: Vec<(usize, f64, SegPlan)> = Vec::new();
        for (i, seg) in self.snapshot.segments().iter().enumerate() {
            let data = seg.data();
            let (corpus, index) = (data.corpus(), data.index());
            let seg_stats = stats.segment(i);
            let live = Some(seg.deletes());
            let (bound, plan) = match (model, &flat) {
                (ScoreModel::TfIdf(m), Some(tokens)) => {
                    let cursors = tfidf_union_cursors(tokens, corpus, index, seg_stats, m, live);
                    (
                        union_bound(&cursors, UnionKind::Sum),
                        SegPlan::Union(cursors, UnionKind::Sum),
                    )
                }
                (ScoreModel::TfIdf(_), None) => return Err(not_a_flat_disjunction(surface)),
                (ScoreModel::Pra(m), Some(tokens)) => {
                    let cursors = pra_union_cursors(tokens, corpus, index, seg_stats, m, live);
                    (
                        union_bound(&cursors, UnionKind::ProbOr),
                        SegPlan::Union(cursors, UnionKind::ProbOr),
                    )
                }
                (ScoreModel::Pra(m), None) => {
                    let bound = pra_tree_bound(surface, corpus, index, seg_stats, m)
                        .map_err(not_in_bool)?;
                    (bound, SegPlan::Tree)
                }
            };
            plans.push((i, bound, plan));
        }
        // Highest-impact segments first (stable on ties: snapshot order),
        // so the threshold tightens as early as possible.
        plans.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let path = if flat.is_some() {
            ScoredPath::PrunedUnion
        } else {
            ScoredPath::StreamTree
        };
        let topk = &mut scratch.topk;
        topk.reset(spec.k);
        let mut counters = AccessCounters::new();
        let mut tb = self.options.trace.then(TraceBuilder::new);
        let root_span = tb.as_mut().map(|b| {
            b.open(match path {
                ScoredPath::PrunedUnion => "top-k pruned union",
                _ => "top-k stream tree",
            })
        });
        for (i, bound, plan) in plans {
            if !topk.could_enter(bound) {
                counters.segments_skipped += 1;
                if let Some(b) = tb.as_mut() {
                    let id = b.open(format!("segment {i}"));
                    b.note(
                        id,
                        format!("skipped: score bound {bound:.4} below threshold"),
                    );
                    b.close(id);
                }
                continue;
            }
            let seg = &self.snapshot.segments()[i];
            let data = seg.data();
            let globals = Some(data.globals());
            let seg_span = tb.as_mut().map(|b| b.open(format!("segment {i}")));
            let delta = match plan {
                SegPlan::Union(cursors, kind) => topk_union_into(cursors, kind, topk, globals),
                SegPlan::Tree => {
                    let ScoreModel::Pra(m) = model else {
                        unreachable!("TF-IDF tree shapes were rejected at dispatch")
                    };
                    run_bool_topk_into(
                        surface,
                        data.corpus(),
                        data.index(),
                        stats.segment(i),
                        m,
                        Some(seg.deletes()),
                        topk,
                        globals,
                    )
                    .map_err(not_in_bool)?
                }
            };
            if let (Some(b), Some(id)) = (tb.as_mut(), seg_span) {
                b.note(id, format!("score bound {bound:.4}"));
                counter_attrs(b, id, &delta);
                b.close(id);
            }
            counters += delta;
        }
        let hits = topk.drain_ranked();
        let trace = tb.map(|mut b| {
            if let Some(id) = root_span {
                b.attr(id, "hits", hits.len() as u64);
                b.attr(id, "segments_skipped", counters.segments_skipped);
                b.close(id);
            }
            Box::new(b.finish())
        });
        Ok(ScoredOutput {
            hits,
            counters,
            path,
            trace,
        })
    }

    /// Run a proximity-ranked NEAR/phrase top-k across segments: documents
    /// matching the pair query score by [`ftsl_scoring::closeness`] of
    /// their minimum qualifying gap, through the same global-threshold
    /// machinery as [`Self::run_top_k_with`] — segments are visited in
    /// descending score-bound order (bounds read from pair-list `min_gap`
    /// metadata without decoding a posting), whole segments that cannot
    /// beat the k-th score are skipped, and within a segment whole pair
    /// blocks are skipped on their block-max closeness. Tombstoned
    /// documents are filtered before insertion; segments the pair index
    /// does not cover fall back to position intersection. `scratch` holds
    /// the reusable top-k collector, as in [`Self::run_top_k_with`].
    pub fn run_near_top_k_with(
        &self,
        q: &PairQuery,
        k: usize,
        scratch: &mut ExecScratch,
    ) -> ScoredOutput {
        let topk = &mut scratch.topk;
        topk.reset(k);
        let mut counters = AccessCounters::new();
        let mut tb = self.options.trace.then(TraceBuilder::new);
        let root_span = tb.as_mut().map(|b| b.open("near top-k (pair proximity)"));
        let mut plans: Vec<(usize, f64)> = self
            .snapshot
            .segments()
            .iter()
            .enumerate()
            .map(|(i, seg)| {
                let data = seg.data();
                (i, pairscan::near_bound(q, data.corpus(), data.index()))
            })
            .collect();
        // Highest-bound segments first (stable on ties: snapshot order),
        // so the threshold tightens as early as possible.
        plans.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for (i, bound) in plans {
            if bound <= 0.0 || !topk.could_enter(bound) {
                counters.segments_skipped += 1;
                if let Some(b) = tb.as_mut() {
                    let id = b.open(format!("segment {i}"));
                    b.note(id, format!("skipped: closeness bound {bound:.4}"));
                    b.close(id);
                }
                continue;
            }
            let seg = &self.snapshot.segments()[i];
            let data = seg.data();
            let seg_span = tb.as_mut().map(|b| b.open(format!("segment {i}")));
            let delta = pairscan::near_topk_into(q, data.corpus(), data.index(), topk, |n| {
                seg.deletes()
                    .is_live(n.index())
                    .then(|| data.global_of(n.index()))
            });
            if let (Some(b), Some(id)) = (tb.as_mut(), seg_span) {
                b.note(id, format!("closeness bound {bound:.4}"));
                b.note(
                    id,
                    if delta.pair_entries > 0 {
                        "pair path: word-pair list walk"
                    } else if delta.positions > 0 || delta.positions_decoded > 0 {
                        "pair path: not covered — position-intersection fallback"
                    } else {
                        "no candidates"
                    },
                );
                counter_attrs(b, id, &delta);
                b.close(id);
            }
            counters += delta;
        }
        let hits = topk.drain_ranked();
        let trace = tb.map(|mut b| {
            if let Some(id) = root_span {
                b.attr(id, "hits", hits.len() as u64);
                b.attr(id, "segments_skipped", counters.segments_skipped);
                b.close(id);
            }
            Box::new(b.finish())
        });
        ScoredOutput {
            hits,
            counters,
            path: ScoredPath::PairProximity,
            trace,
        }
    }
}

fn not_a_flat_disjunction(surface: &SurfaceQuery) -> ExecError {
    ExecError::WrongEngine {
        engine: "TOPK",
        reason: format!(
            "TF-IDF top-k ranks flat token disjunctions; {} is not one",
            surface.render()
        ),
    }
}

fn not_in_bool(reason: String) -> ExecError {
    ExecError::WrongEngine {
        engine: "TOPK",
        reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineUsed, Executor};
    use ftsl_index::{LiveConfig, LiveIndex};

    fn manual() -> LiveConfig {
        LiveConfig {
            background_merge: false,
            ..LiveConfig::default()
        }
    }

    fn live_fixture() -> LiveIndex {
        let live = LiveIndex::with_config(manual());
        live.add_document("test driven usability");
        live.add_document("usability test");
        live.flush();
        live.add_document("test test something");
        live.add_document("nothing here");
        live.flush();
        live.add_document("buffered test usability");
        live
    }

    #[test]
    fn multi_segment_bool_query_remaps_and_concatenates() {
        let live = live_fixture();
        let snap = live.snapshot();
        let reg = PredicateRegistry::with_builtins();
        let exec = SnapshotExecutor::new(&snap, &reg);
        let out = exec
            .run_str("'test' AND 'usability'", EngineKind::Auto)
            .unwrap();
        assert_eq!(out.engine, EngineUsed::Bool);
        let ids: Vec<u32> = out.nodes.iter().map(|n| n.0).collect();
        assert_eq!(ids, vec![0, 1, 4], "ascending global ids across segments");
    }

    #[test]
    fn deleted_nodes_vanish_from_all_engines() {
        let live = live_fixture();
        live.delete_node(NodeId(1));
        let snap = live.snapshot();
        let reg = PredicateRegistry::with_builtins();
        let exec = SnapshotExecutor::new(&snap, &reg);
        for engine in [EngineKind::Auto, EngineKind::Comp] {
            let out = exec.run_str("'usability'", engine).unwrap();
            let ids: Vec<u32> = out.nodes.iter().map(|n| n.0).collect();
            assert_eq!(ids, vec![0, 4], "{engine:?}");
        }
    }

    #[test]
    fn counters_are_summed_across_segments_not_last_writer_wins() {
        let live = live_fixture();
        let snap = live.snapshot();
        let reg = PredicateRegistry::with_builtins();
        let exec = SnapshotExecutor::new(&snap, &reg);
        let whole = exec.run_str("'test'", EngineKind::Auto).unwrap();
        // Oracle: run each segment alone and sum by hand.
        let mut by_hand = AccessCounters::new();
        let mut last = AccessCounters::new();
        for seg in snap.segments() {
            let single = Executor::new(seg.data().corpus(), seg.data().index(), &reg)
                .run_str("'test'", EngineKind::Auto)
                .unwrap();
            by_hand += single.counters;
            last = single.counters;
        }
        assert_eq!(whole.counters, by_hand, "summed, not sampled");
        assert_ne!(
            whole.counters, last,
            "the last segment alone must not masquerade as the total"
        );
    }

    #[test]
    fn empty_snapshot_preserves_error_semantics() {
        let live = LiveIndex::with_config(manual());
        let snap = live.snapshot();
        let reg = PredicateRegistry::with_builtins();
        let exec = SnapshotExecutor::new(&snap, &reg);
        let ok = exec.run_str("'anything'", EngineKind::Auto).unwrap();
        assert!(ok.nodes.is_empty());
        let err = exec.run_str("SOME p1 (p1 HAS 'x')", EngineKind::Bool);
        assert!(matches!(err, Err(ExecError::WrongEngine { .. })));
    }

    /// Top-k shape errors depend on the query alone: the same three shapes
    /// are accepted or refused with no segment, and with several.
    #[test]
    fn top_k_shape_errors_do_not_depend_on_segments() {
        let reg = PredicateRegistry::with_builtins();
        for live in [LiveIndex::with_config(manual()), live_fixture()] {
            let snap = live.snapshot();
            let stats = SnapshotStats::compute(&snap);
            let tfidf = stats.tfidf_model(&["test"], &snap);
            let pra = stats.pra_model(&snap);
            let exec = SnapshotExecutor::new(&snap, &reg);
            let run = |query: &str, model: &ScoreModel<'_>| {
                let q = parse(query, Mode::Comp).unwrap();
                let spec = ScoredTopK { k: 3 };
                exec.run_top_k_with(&q, spec, &stats, model, &mut ExecScratch::new())
            };
            let conj = "'test' AND 'usability'";
            assert!(matches!(
                run(conj, &ScoreModel::TfIdf(&tfidf)),
                Err(ExecError::WrongEngine { .. })
            ));
            assert_eq!(
                run(conj, &ScoreModel::Pra(&pra)).unwrap().path,
                ScoredPath::StreamTree
            );
            assert!(matches!(
                run("NOT SOME p1 (p1 HAS 'test')", &ScoreModel::Pra(&pra)),
                Err(ExecError::WrongEngine { .. })
            ));
            assert_eq!(
                run("'test' OR 'here'", &ScoreModel::TfIdf(&tfidf))
                    .unwrap()
                    .path,
                ScoredPath::PrunedUnion
            );
        }
    }

    #[test]
    fn ppred_and_comp_run_per_segment() {
        let live = live_fixture();
        let snap = live.snapshot();
        let reg = PredicateRegistry::with_builtins();
        let exec = SnapshotExecutor::new(&snap, &reg);
        let q = "SOME p1 SOME p2 (p1 HAS 'test' AND p2 HAS 'usability' AND distance(p1,p2,5))";
        let ppred = exec.run_str(q, EngineKind::Ppred).unwrap();
        let comp = exec.run_str(q, EngineKind::Comp).unwrap();
        assert_eq!(ppred.nodes, comp.nodes);
        assert!(!ppred.nodes.is_empty());
        assert_eq!(ppred.engine, EngineUsed::Ppred);
    }
}
