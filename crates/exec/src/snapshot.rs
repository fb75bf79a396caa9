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
//!    evaluation: its [`ftsl_index::ScoredBlocks`] cursors step over
//!    tombstones, so deleted documents cannot occupy heap slots; the
//!    set-producing engines filter their result lists);
//! 3. remap surviving local ids to global ids and concatenate — segments
//!    own disjoint, ascending global ranges, so concatenation *is* the
//!    merged ascending result;
//! 4. **sum** the per-segment [`AccessCounters`] into one report (the
//!    total decode work of the query, not the work of whichever segment
//!    happened to run last).
//!
//! A ranked request ([`SnapshotExecutor::run_ranked`]) is the set request
//! plus one scoring step, through the same loop: the query is prepared
//! once ([`PreparedQuery::prepare_ranked`]), each segment binds its class
//! engine and drops tombstones, and between that and the remap the live
//! answer nodes are scored through the query's algebra translation
//! ([`ftsl_algebra::AlgebraEvaluator::rank_among`]), which seeks to them
//! and builds no other node. Scores take their statistics from
//! [`ftsl_scoring::SnapshotStats`], whose per-segment
//! [`ftsl_scoring::ScoreStats`] carry collection-wide `df`/`db_size` —
//! which is what makes snapshot scores bit-identical to a monolithic index
//! over the same live documents. [`SnapshotExecutor::run_top_k_with`] is
//! the one top-k dispatch, always that ranking truncated to `k`; its
//! pruned union and [`SnapshotExecutor::run_near_top_k_with`] share one
//! global-threshold segment walk.

use crate::engine::{counter_attrs, EngineKind, ExecOptions, PreparedQuery, QueryOutput};
use crate::error::ExecError;
use crate::pairscan::{near_bound, near_topk_into, resolve, PairPath, PairQuery};
use crate::scored::{flat_disjunction, ScoreModel, ScoredOutput, ScoredPath, ScoredTopK};
use ftsl_algebra::{AlgExpr, AlgebraEvaluator, Scorer};
use ftsl_index::{AccessCounters, EntryScorer, SegmentData, Snapshot, SnapshotSegment};
use ftsl_lang::{parse, Mode, SurfaceQuery};
use ftsl_model::NodeId;
use ftsl_obs::TraceBuilder;
use ftsl_predicates::PredicateRegistry;
use ftsl_scoring::stream::{PraEntryScorer, TfIdfEntryScorer};
use ftsl_scoring::topk::sort_ranked;
use ftsl_scoring::{topk_union_into, union_bound, union_cursors, ModelScorer, SnapshotStats, TopK};

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
    /// Fresh scratch; the collector grows to what the first query can keep
    /// (its `k`, or the snapshot's live documents if fewer) and is reused
    /// from then on.
    pub fn new() -> Self {
        ExecScratch { topk: TopK::new(0) }
    }
}

impl Default for ExecScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The executor every query runs through, over a point-in-time snapshot of
/// a live index (or [`Snapshot::of_index`], one fully live segment over a
/// prebuilt index).
pub struct SnapshotExecutor<'a> {
    snapshot: &'a Snapshot,
    registry: &'a PredicateRegistry,
    options: ExecOptions,
}

impl<'a> SnapshotExecutor<'a> {
    /// An executor with default options.
    pub fn new(snapshot: &'a Snapshot, registry: &'a PredicateRegistry) -> Self {
        Self::with_options(snapshot, registry, ExecOptions::default())
    }

    /// An executor with explicit options (NPRED strategy, tracing).
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
        let (nodes, counters) = self.run_prepared(&prepared, tb.as_mut())?;
        Ok(QueryOutput {
            nodes,
            counters,
            engine: prepared.engine(),
            class: prepared.class(),
            trace: tb.map(|b| Box::new(b.finish())),
        })
    }

    /// Bind an already-prepared query to every segment: its live matches
    /// as ascending global ids, and the segments' summed counters. With a
    /// trace builder, each segment is one `segment i` span.
    pub fn run_prepared(
        &self,
        prepared: &PreparedQuery<'_>,
        tb: Option<&mut TraceBuilder>,
    ) -> Result<(Vec<NodeId>, AccessCounters), ExecError> {
        let mut nodes: Vec<NodeId> = Vec::new();
        let counters = self.bind_each(prepared, tb, |_, data, live| {
            nodes.extend(live.iter().map(|n| data.global_of(n.index())));
            Ok(None)
        })?;
        Ok((nodes, counters))
    }

    /// The one per-segment loop of every prepared request, set or ranked:
    /// bind `prepared` to each segment, drop its tombstoned matches, and
    /// hand the live ones (local ids, ascending) to `answer`, which remaps
    /// them into its output. A ranked request's `answer` scores them first
    /// and returns the work that took. The segments' counters, scoring
    /// included, are summed. With a trace builder, each segment is one
    /// `segment i` span holding the engine's span and, for a ranked
    /// request, a scoring note.
    fn bind_each(
        &self,
        prepared: &PreparedQuery<'_>,
        mut tb: Option<&mut TraceBuilder>,
        mut answer: impl FnMut(
            usize,
            &SegmentData,
            &[NodeId],
        ) -> Result<Option<AccessCounters>, ExecError>,
    ) -> Result<AccessCounters, ExecError> {
        let mut counters = AccessCounters::new();
        for (i, seg) in self.snapshot.segments().iter().enumerate() {
            let data = seg.data();
            let seg_span = tb.as_mut().map(|b| b.open(format!("segment {i}")));
            let (mut found, mut delta) =
                prepared.bind(data.corpus(), data.index(), tb.as_deref_mut())?;
            let matches = found.len() as u64;
            found.retain(|n| seg.deletes().is_live(n.index()));
            let scored = answer(i, data, &found)?;
            if let Some(work) = scored {
                delta += work;
            }
            if let (Some(b), Some(id)) = (tb.as_mut(), seg_span) {
                if let Some(work) = scored {
                    let note = format!("scored {} nodes, {} tuples", found.len(), work.tuples);
                    b.note(id, note);
                }
                counter_attrs(b, id, &delta);
                b.attr(id, "matches", matches);
                b.close(id);
            }
            counters += delta;
        }
        Ok(counters)
    }

    /// Run a scored top-k query: the one place a top-k is dispatched,
    /// decided from the query's syntax alone, before any segment is
    /// visited. Under either model the answer is [`Self::run_ranked`]
    /// truncated to `k`; the arms differ only in how they get there.
    ///
    /// * A flat disjunction of tokens runs the MaxScore/block-max pruned
    ///   union ([`ScoredPath::PrunedUnion`]).
    /// * Anything else is [`Self::run_ranked`] truncated to `k`
    ///   ([`ScoredPath::Exhaustive`]): the class engine's answer, scored.
    ///   Its errors, a per-node budget refusal among them, are returned as
    ///   they are.
    ///
    /// The union runs with **one heap and a global threshold**: every
    /// segment's impact bound is read from list metadata first (no posting
    /// decoded), segments are evaluated in descending-bound order so later
    /// ones start against an already-tightened k-th score, and a segment
    /// whose whole bound falls below the current threshold is skipped
    /// outright ([`AccessCounters::segments_skipped`]). Its results are
    /// bit-identical to a monolithic index over the same live documents:
    /// per-segment scores fold in the same token order with the same
    /// collection-wide statistics, candidates enter the heap under their
    /// *global* ids (so tie-breaks match the monolithic ranking), and every
    /// pruning decision tests a sound upper bound against a threshold that
    /// only ever tightens.
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
        let Some(tokens) = flat_disjunction(surface) else {
            let mut out = self.run_ranked(surface, stats, model)?;
            out.hits.truncate(spec.k);
            return Ok(out);
        };
        Ok(match model {
            ScoreModel::TfIdf(m) => {
                // TF-IDF folds its normalized tokens in sorted order, so
                // every segment and a one-segment rebuild fold alike.
                let mut tokens: Vec<String> = tokens.iter().map(|t| t.to_lowercase()).collect();
                tokens.sort();
                let scorer = |i| ModelScorer(*m, stats.segment(i));
                self.union_walk(&tokens, spec.k, scratch, scorer, TfIdfEntryScorer::new)
            }
            ScoreModel::Pra(m) => {
                let scorer = |i| ModelScorer(*m, stats.segment(i));
                self.union_walk(&tokens, spec.k, scratch, scorer, PraEntryScorer::new)
            }
        })
    }

    /// The pruned union of `tokens`, folded in the order given, through
    /// the global-threshold segment walk: `scorer(i)` is segment `i`'s
    /// model scorer, whose `∪` combines the lists, and `entry` makes a
    /// token's entry scorer under it.
    fn union_walk<S: AsRef<str>, U: Scorer<Score = f64>, E: EntryScorer>(
        &self,
        tokens: &[S],
        k: usize,
        scratch: &mut ExecScratch,
        scorer: impl Fn(usize) -> U,
        entry: impl Fn(&str, &U) -> E,
    ) -> ScoredOutput {
        self.walk(
            &UNION,
            k,
            scratch,
            |i, seg| {
                let union = scorer(i);
                let data = seg.data();
                // Reads only list metadata: a skipped segment costs no
                // decode work.
                let live = Some(seg.deletes());
                let cursors = union_cursors(tokens, data.corpus(), data.index(), live, |t| {
                    entry(t, &union)
                });
                (union_bound(&cursors, &union), (union, cursors))
            },
            |_, seg, (union, cursors), topk| {
                let globals = Some(seg.data().globals());
                (topk_union_into(cursors, &union, topk, globals), None)
            },
        )
    }

    /// Rank the snapshot's answer under `model`: the set request plus one
    /// scoring step. The query is prepared once
    /// ([`PreparedQuery::prepare_ranked`]), and each segment binds its
    /// Auto-dispatched set shape, whatever engine the class picks, and drops
    /// tombstoned matches. Then the COMP engine's node-at-a-time evaluator,
    /// with a score column, seeks the root of the translated plan
    /// ([`PreparedQuery::scoring`]; push-down would change the scores) to
    /// each live answer node
    /// ([`AlgebraEvaluator::rank_among`]), under the collection-wide
    /// statistics in `stats` and the same per-node budget as COMP. A node
    /// outside the answer is never built, so an empty answer builds no
    /// tuple. Ids are global, the hits come in ranking order, and the
    /// counters sum every segment's set bind and scoring.
    pub fn run_ranked(
        &self,
        surface: &SurfaceQuery,
        stats: &SnapshotStats,
        model: &ScoreModel<'_>,
    ) -> Result<ScoredOutput, ExecError> {
        let mut tb = self.options.trace.then(TraceBuilder::new);
        let root_span = tb.as_mut().map(|b| b.open("ranked"));
        let prepared =
            PreparedQuery::prepare_ranked(surface, self.registry, self.options, tb.as_mut())?;
        let alg = prepared
            .scoring()
            .expect("a ranked request keeps its translation");
        let mut hits = Vec::new();
        let counters = match model {
            ScoreModel::TfIdf(m) => self.bind_each(&prepared, tb.as_mut(), |i, data, live| {
                let scorer = ModelScorer(*m, stats.segment(i));
                self.score_live(alg, data, live, scorer, &mut hits)
            }),
            ScoreModel::Pra(m) => self.bind_each(&prepared, tb.as_mut(), |i, data, live| {
                let scorer = ModelScorer(*m, stats.segment(i));
                self.score_live(alg, data, live, scorer, &mut hits)
            }),
        }?;
        sort_ranked(&mut hits);
        let trace = tb.map(|mut b| {
            if let Some(id) = root_span {
                counter_attrs(&mut b, id, &counters);
                b.attr(id, "hits", hits.len() as u64);
                b.close(id);
            }
            Box::new(b.finish())
        });
        Ok(ScoredOutput {
            hits,
            counters,
            path: ScoredPath::Exhaustive,
            trace,
        })
    }

    /// Score `live`, one segment's live answer nodes, through `alg` under
    /// `scorer`, and append the hits under their global ids; returns the
    /// scoring's own work.
    fn score_live<S: Scorer<Score = f64>>(
        &self,
        alg: &AlgExpr,
        data: &SegmentData,
        live: &[NodeId],
        scorer: S,
        hits: &mut Vec<(NodeId, f64)>,
    ) -> Result<Option<AccessCounters>, ExecError> {
        let mut ev = AlgebraEvaluator::scored(data.corpus(), data.index(), self.registry, scorer);
        let ranked = ev.rank_among(alg, live)?;
        hits.extend(
            ranked
                .into_iter()
                .map(|(n, s)| (data.global_of(n.index()), s)),
        );
        Ok(Some(ev.counters()))
    }

    /// Run a proximity-ranked NEAR/phrase top-k across segments: documents
    /// matching the pair query score by [`ftsl_scoring::closeness`] of
    /// their minimum qualifying gap, through the same global-threshold
    /// segment walk as [`Self::run_top_k_with`]'s pruned union. Bounds
    /// come from pair-list `min_gap` metadata without decoding a posting,
    /// and a segment whose bound is zero holds no candidate, so it is
    /// skipped even while the heap has room. Within a segment whole pair
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
        self.walk(
            &NEAR,
            k,
            scratch,
            |_, seg| {
                let data = seg.data();
                let resolved = resolve(q, data.corpus(), data.index());
                (near_bound(q, &resolved), resolved)
            },
            |_, seg, resolved, topk| {
                let data = seg.data();
                let path = PairPath::of(&resolved);
                let counters = near_topk_into(q, resolved, data.index(), topk, |n| {
                    seg.deletes()
                        .is_live(n.index())
                        .then(|| data.global_of(n.index()))
                });
                (counters, Some(path))
            },
        )
    }

    /// The global-threshold segment walk of both streaming top-k arms:
    /// `bound` each segment from list metadata (keeping what `evaluate`
    /// will consume), visit the segments in descending-bound order (stable
    /// on ties: snapshot order) so the threshold tightens as early as
    /// possible, skip a segment whose bound cannot enter the heap,
    /// `evaluate` the rest into the one shared heap, sum their counters
    /// (noting the pair path each took, if any), and drain the heap in
    /// ranking order.
    fn walk<P>(
        &self,
        arm: &Arm,
        k: usize,
        scratch: &mut ExecScratch,
        mut bound: impl FnMut(usize, &'a SnapshotSegment) -> (f64, P),
        mut evaluate: impl FnMut(
            usize,
            &'a SnapshotSegment,
            P,
            &mut TopK,
        ) -> (AccessCounters, Option<PairPath>),
    ) -> ScoredOutput {
        let segments = self.snapshot.segments();
        let mut plans: Vec<_> = segments
            .iter()
            .enumerate()
            .map(|(i, seg)| (i, bound(i, seg)))
            .collect();
        plans.sort_by(|(i, (a, _)), (j, (b, _))| b.total_cmp(a).then(i.cmp(j)));
        let topk = &mut scratch.topk;
        // No top-k holds more than the live documents, whatever `k` asks.
        topk.reset(k, self.snapshot.live_doc_count());
        let mut counters = AccessCounters::new();
        let mut tb = self.options.trace.then(TraceBuilder::new);
        let root_span = tb.as_mut().map(|b| b.open(arm.span));
        let proximity = arm.path == ScoredPath::PairProximity;
        for (i, (bound, plan)) in plans {
            let seg_span = tb.as_mut().map(|b| b.open(format!("segment {i}")));
            let enters = topk.could_enter(bound);
            if !enters || (proximity && bound <= 0.0) {
                counters.segments_skipped += 1;
                if let (Some(b), Some(id)) = (tb.as_mut(), seg_span) {
                    let why = if enters { "" } else { " below threshold" };
                    b.note(id, format!("skipped: {} bound {bound:.4}{why}", arm.bound));
                    b.close(id);
                }
                continue;
            }
            let (delta, path) = evaluate(i, &segments[i], plan, topk);
            if let (Some(b), Some(id)) = (tb.as_mut(), seg_span) {
                b.note(id, format!("{} bound {bound:.4}", arm.bound));
                if let Some(path) = path {
                    b.note(id, format!("pair path: {}", path.describe()));
                }
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
            path: arm.path,
            trace,
        }
    }
}

/// What sets one streaming top-k arm's [`SnapshotExecutor::walk`] apart
/// besides its closures: the path it reports and its span labels. The
/// pair-proximity arm also skips a segment whose bound is not positive (it
/// holds no candidate, even while the heap has room) and notes each
/// evaluated segment's pair path.
struct Arm {
    path: ScoredPath,
    /// The root span's label.
    span: &'static str,
    /// What a segment's bound measures, in its span notes.
    bound: &'static str,
}

const UNION: Arm = Arm {
    path: ScoredPath::PrunedUnion,
    span: "top-k pruned union",
    bound: "score",
};

const NEAR: Arm = Arm {
    path: ScoredPath::PairProximity,
    span: "near top-k (pair proximity)",
    bound: "closeness",
};

/// `texts` sealed as one fully live segment: the fixture of the engine
/// modules' unit tests.
#[cfg(test)]
pub(crate) fn one_segment(texts: &[&str]) -> Snapshot {
    let corpus = ftsl_model::Corpus::from_texts(texts);
    let index = ftsl_index::IndexBuilder::new().build(&corpus);
    Snapshot::of_index(corpus, index)
}

/// `query` run through the executor on [`one_segment`] of `texts`, with
/// `engine` and `options`.
#[cfg(test)]
pub(crate) fn run_on_texts(
    texts: &[&str],
    query: &str,
    engine: EngineKind,
    options: ExecOptions,
) -> Result<QueryOutput, ExecError> {
    let registry = PredicateRegistry::with_builtins();
    SnapshotExecutor::with_options(&one_segment(texts), &registry, options).run_str(query, engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineUsed;
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
        // Oracle: bind the prepared query to each segment alone and sum by
        // hand.
        let q = parse("'test'", Mode::Comp).unwrap();
        let options = ExecOptions::default();
        let prepared = PreparedQuery::prepare(&q, EngineKind::Auto, &reg, options, None).unwrap();
        let mut by_hand = AccessCounters::new();
        let mut last = AccessCounters::new();
        for seg in snap.segments() {
            let (_, counters) = prepared
                .bind(seg.data().corpus(), seg.data().index(), None)
                .unwrap();
            by_hand += counters;
            last = counters;
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

    /// The top-k path depends on the query's syntax alone: the same four
    /// requests take the same arm with no segment and with three, whatever
    /// the model, and the exhaustive arm is the exhaustive ranking
    /// truncated.
    #[test]
    fn top_k_path_depends_on_syntax_alone() {
        let reg = PredicateRegistry::with_builtins();
        for (live, segments) in [(LiveIndex::with_config(manual()), 0), (live_fixture(), 3)] {
            let snap = live.snapshot();
            assert_eq!(snap.segments().len(), segments);
            let stats = SnapshotStats::compute(&snap);
            let tfidf = stats.tfidf_model(&["test", "usability"], &snap);
            let pra = stats.pra_model(&["test", "here", "usability"], &snap);
            let (tfidf, pra) = (&ScoreModel::TfIdf(&tfidf), &ScoreModel::Pra(&pra));
            let exec = SnapshotExecutor::new(&snap, &reg);
            let path = |query: &str, model: &ScoreModel<'_>| {
                let q = parse(query, Mode::Comp).unwrap();
                let spec = ScoredTopK { k: 3 };
                let scratch = &mut ExecScratch::new();
                let out = exec
                    .run_top_k_with(&q, spec, &stats, model, scratch)
                    .unwrap();
                if out.path == ScoredPath::Exhaustive {
                    let mut all = exec.run_ranked(&q, &stats, model).unwrap();
                    all.hits.truncate(3);
                    assert_eq!(out.hits, all.hits, "{query}");
                }
                out.path
            };
            let conj = "'test' AND 'usability'";
            assert_eq!(path("'test' OR 'here'", tfidf), ScoredPath::PrunedUnion);
            assert_eq!(path(conj, pra), ScoredPath::Exhaustive);
            assert_eq!(path(conj, tfidf), ScoredPath::Exhaustive);
            let negated = "NOT SOME p1 (p1 HAS 'test')";
            assert_eq!(path(negated, pra), ScoredPath::Exhaustive);
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
