//! The engine: mutations, snapshot reads, and every search path over a
//! dynamically maintained collection.
//!
//! [`Ftsl`] wraps an [`ftsl_index::LiveIndex`] (write buffer, sealed
//! segments, tombstones, background tiered merge) and serves queries from
//! point-in-time snapshots. An index built once from a corpus is the same
//! engine with its input sealed as segment 0 and an empty write buffer.
//! Results are identical — bit-identical, the differential suite checks —
//! to one sealed segment rebuilt from the surviving documents: the engines
//! run unchanged per segment, scoring uses merged collection statistics,
//! and tombstoned documents are filtered inside the streaming evaluations.

use crate::error::FtslError;
use crate::{query_tokens, RankModel};
use ftsl_exec::engine::{EngineKind, EngineUsed, ExecOptions, PreparedQuery};
use ftsl_exec::snapshot::{ExecScratch, SnapshotExecutor};
use ftsl_exec::{
    ExecError, PairQuery, QueryOutput, ScoreModel, ScoredOutput, ScoredPath, ScoredTopK,
};
use ftsl_index::{LiveConfig, LiveIndex, SegmentReport, Snapshot};
use ftsl_lang::rewrite::{map_tokens, Thesaurus};
use ftsl_lang::{parse, Mode, SurfaceQuery};
use ftsl_model::analysis::AnalysisConfig;
use ftsl_model::{Corpus, NodeId, Tokenizer, TokenizerConfig};
use ftsl_predicates::PredicateRegistry;
use ftsl_scoring::SnapshotStats;
use std::borrow::Cow;
use std::sync::{Arc, Mutex};

/// Snapshot + derived statistics cached for one mutation version, so a
/// read-heavy workload pays for snapshot assembly and statistics merging
/// once per write, not once per query.
struct CachedView {
    version: u64,
    snapshot: Snapshot,
    stats: Option<Arc<SnapshotStats>>,
}

/// The full-text engine: seed it from texts or start empty, `add`/`delete`
/// documents at any time, search the current (or a pinned) snapshot with
/// any of the paper's languages and scoring models.
///
/// ```
/// use ftsl_core::Ftsl;
///
/// let engine = Ftsl::new();
/// let a = engine.add("usability of a software measures how well it works");
/// engine.add("an efficient algorithm for task completion");
/// let hits = engine.search("'software' AND 'usability'").unwrap();
/// assert_eq!(hits.node_ids(), vec![a.0]);
/// engine.delete(a);
/// assert!(engine.search("'software'").unwrap().nodes.is_empty());
/// ```
pub struct Ftsl {
    live: LiveIndex,
    registry: PredicateRegistry,
    options: ExecOptions,
    analysis: AnalysisConfig,
    thesaurus: Thesaurus,
    cache: Mutex<Option<CachedView>>,
}

impl Default for Ftsl {
    fn default() -> Self {
        Self::new()
    }
}

impl Ftsl {
    /// An empty engine with default configuration (background merging on).
    pub fn new() -> Self {
        Self::with_config(LiveConfig::default())
    }

    /// An empty engine with explicit index configuration.
    pub fn with_config(config: LiveConfig) -> Self {
        Self::assemble(LiveIndex::with_config(config), AnalysisConfig::none())
    }

    /// Build an engine over raw document texts, sealed as segment 0.
    pub fn from_texts<S: AsRef<str>>(texts: &[S]) -> Self {
        Self::from_corpus(Corpus::from_texts(texts))
    }

    /// Build an engine over an existing corpus, sealed as segment 0.
    pub fn from_corpus(corpus: Corpus) -> Self {
        Self::assemble(LiveIndex::from_corpus(corpus), AnalysisConfig::none())
    }

    /// Build an engine over raw texts run through the stemming/stop-word
    /// analysis pipeline (the paper's announced extensions); later
    /// [`Self::add`]s and query tokens get the same treatment, so documents
    /// and queries agree on index terms.
    pub fn from_texts_analyzed<S: AsRef<str>>(texts: &[S], analysis: AnalysisConfig) -> Self {
        let tokenizer = Tokenizer::with_config(TokenizerConfig {
            analysis: analysis.clone(),
            ..Default::default()
        });
        let mut corpus = Corpus::new();
        for text in texts {
            corpus.add_text_with(&tokenizer, text.as_ref());
        }
        let live = LiveIndex::from_corpus(corpus).with_tokenizer(tokenizer);
        Self::assemble(live, analysis)
    }

    fn assemble(live: LiveIndex, analysis: AnalysisConfig) -> Self {
        Ftsl {
            live,
            registry: PredicateRegistry::with_builtins(),
            options: ExecOptions::default(),
            analysis,
            thesaurus: Thesaurus::new(),
            cache: Mutex::new(None),
        }
    }

    /// Replace execution options (NPRED strategy, tracing). The word-pair
    /// rewrite is not an option: a proximity query reads a segment's pair
    /// lists whenever they cover it, and an index sealed with
    /// `PairConfig::disabled()` answers it by position intersection.
    pub fn with_options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// Install a thesaurus: query tokens are expanded into the disjunction
    /// of their synonyms before evaluation.
    pub fn set_thesaurus(&mut self, thesaurus: Thesaurus) {
        self.thesaurus = thesaurus;
    }

    /// The underlying live index (flush/merge policy, version counter).
    pub fn live_index(&self) -> &LiveIndex {
        &self.live
    }

    /// The current mutation version — bumped by every add/delete/flush/
    /// merge. A result cached against a version is stale exactly when this
    /// moves; the serving layer's result cache keys on it.
    pub fn version(&self) -> u64 {
        self.live.version()
    }

    /// The predicate registry (extensible: register your own predicates
    /// before issuing queries).
    pub fn registry(&self) -> &PredicateRegistry {
        &self.registry
    }

    /// Mutable access to the predicate registry.
    pub fn registry_mut(&mut self) -> &mut PredicateRegistry {
        &mut self.registry
    }

    // ── mutations ────────────────────────────────────────────────────────

    /// Add one document; visible to every snapshot taken afterwards.
    /// Returns its global node id (stable for the document's lifetime).
    pub fn add(&self, text: &str) -> NodeId {
        self.live.add_document(text)
    }

    /// Tombstone a document by global node id; `false` if unknown or
    /// already deleted.
    pub fn delete(&self, node: NodeId) -> bool {
        self.live.delete_node(node)
    }

    /// Seal the write buffer into an immutable segment; `false` when the
    /// buffer was empty.
    pub fn flush(&self) -> bool {
        self.live.flush()
    }

    /// Compact every sealed segment into one, reclaiming tombstones;
    /// `false` when there was nothing to compact.
    pub fn merge(&self) -> bool {
        self.live.merge_all()
    }

    // ── snapshot reads ───────────────────────────────────────────────────

    /// The current point-in-time view (cached per mutation version). Hold
    /// it to pin a consistent collection across queries while writes
    /// continue.
    pub fn snapshot(&self) -> Snapshot {
        let mut cache = self.cache.lock().expect("live facade cache poisoned");
        if let Some(c) = &*cache {
            if c.version == self.live.version() {
                return c.snapshot.clone();
            }
        }
        let snapshot = self.live.snapshot();
        *cache = Some(CachedView {
            version: snapshot.version(),
            snapshot: snapshot.clone(),
            stats: None,
        });
        snapshot
    }

    /// Merged scoring statistics for a snapshot (cached when `snapshot` is
    /// the current version's).
    pub fn snapshot_stats(&self, snapshot: &Snapshot) -> Arc<SnapshotStats> {
        let mut cache = self.cache.lock().expect("live facade cache poisoned");
        if let Some(c) = &mut *cache {
            if c.version == snapshot.version() {
                if let Some(stats) = &c.stats {
                    return Arc::clone(stats);
                }
                let stats = Arc::new(SnapshotStats::compute(snapshot));
                c.stats = Some(Arc::clone(&stats));
                return stats;
            }
        }
        Arc::new(SnapshotStats::compute(snapshot))
    }

    /// Apply query-side rewrites: thesaurus expansion, then the index's
    /// token analysis on every literal (including expansion results). With
    /// an empty thesaurus and no analysis both are the identity — the lexer
    /// already lowercases literals — so the parsed query is returned as is.
    fn rewrite_query(&self, surface: SurfaceQuery) -> SurfaceQuery {
        if self.thesaurus.is_empty() && self.analysis.is_identity() {
            return surface;
        }
        let expanded = self.thesaurus.expand(&surface);
        map_tokens(&expanded, &|t| {
            self.analysis.analyze(t).map(Cow::into_owned)
        })
    }

    /// Run a query (COMP syntax subsumes BOOL and DIST) on the current
    /// snapshot with automatic engine dispatch. Node ids in the result are
    /// *global* ids, as handed out by [`Self::add`].
    pub fn search(&self, query: &str) -> Result<QueryOutput, FtslError> {
        self.search_with(query, Mode::Comp, EngineKind::Auto)
    }

    /// Run a query in an explicit language mode with an explicit engine.
    pub fn search_with(
        &self,
        query: &str,
        mode: Mode,
        engine: EngineKind,
    ) -> Result<QueryOutput, FtslError> {
        let surface = self.rewrite_query(parse(query, mode)?);
        let snapshot = self.snapshot();
        let exec = SnapshotExecutor::with_options(&snapshot, &self.registry, self.options);
        Ok(exec.run_surface(&surface, engine)?)
    }

    /// Rank the current snapshot's answer under a scoring model: each
    /// segment finds its answer through the engine its class picks, as
    /// [`Self::search`] does, and the COMP engine's node-at-a-time algebra
    /// evaluator scores only those nodes, with a score column, under
    /// merged corpus statistics and the same per-node budget.
    /// [`ScoredOutput::counters`] sums both steps' work over the segments.
    pub fn search_ranked(&self, query: &str, model: RankModel) -> Result<ScoredOutput, FtslError> {
        self.rank(query, model, |exec, surface, stats, m| {
            exec.run_ranked(surface, stats, m)
        })
    }

    /// The `k` best hits under a scoring model — the conclusion's "top-k
    /// techniques": for every query under either model,
    /// [`Self::search_ranked`] truncated to `k`. The executor's one top-k
    /// dispatch ([`SnapshotExecutor::run_top_k_with`]) streams a flat
    /// disjunction through the MaxScore/block-max pruned union, with one
    /// heap shared by every segment, and ranks anything else as
    /// [`Self::search_ranked`] does, returning its errors (a per-node
    /// budget refusal among them). [`ScoredOutput::path`] says which arm
    /// ran, and [`ScoredOutput::counters`] how much of the index was read.
    pub fn search_top_k(
        &self,
        query: &str,
        model: RankModel,
        k: usize,
    ) -> Result<ScoredOutput, FtslError> {
        self.search_top_k_with(query, model, k, &mut ExecScratch::new())
    }

    /// [`Self::search_top_k`] threading caller-owned reusable evaluation
    /// state through the streaming engine — the serving hot path, where a
    /// worker keeps one [`ExecScratch`] across its whole lifetime. Results
    /// are identical to [`Self::search_top_k`].
    pub fn search_top_k_with(
        &self,
        query: &str,
        model: RankModel,
        k: usize,
        scratch: &mut ExecScratch,
    ) -> Result<ScoredOutput, FtslError> {
        self.rank(query, model, |exec, surface, stats, m| {
            exec.run_top_k_with(surface, ScoredTopK { k }, stats, m, scratch)
        })
    }

    /// Parse and rewrite `query`, build `model` over the current snapshot,
    /// and make one executor call, `run`. A lowering failure is a query
    /// error, as it is when parsing fails.
    fn rank(
        &self,
        query: &str,
        model: RankModel,
        run: impl FnOnce(
            &SnapshotExecutor<'_>,
            &SurfaceQuery,
            &SnapshotStats,
            &ScoreModel<'_>,
        ) -> Result<ScoredOutput, ExecError>,
    ) -> Result<ScoredOutput, FtslError> {
        let surface = self.rewrite_query(parse(query, Mode::Comp)?);
        let snapshot = self.snapshot();
        let stats = self.snapshot_stats(&snapshot);
        let exec = SnapshotExecutor::with_options(&snapshot, &self.registry, self.options);
        let tokens = query_tokens(&surface);
        let out = match model {
            RankModel::TfIdf => {
                let m = stats.tfidf_model(&tokens, &snapshot);
                run(&exec, &surface, &stats, &ScoreModel::TfIdf(&m))
            }
            RankModel::Pra => {
                let m = stats.pra_model(&tokens, &snapshot);
                run(&exec, &surface, &stats, &ScoreModel::Pra(&m))
            }
        };
        Ok(out?)
    }

    /// Segment-level diagnostics: per-segment footprint, document and
    /// tombstone counts (see [`SegmentReport`]), for the current snapshot.
    pub fn segment_reports(&self) -> Vec<SegmentReport> {
        self.snapshot().segment_reports()
    }

    /// Proximity-ranked NEAR/phrase search over the current snapshot:
    /// documents where `first` and `second` co-occur within `bound` token
    /// positions — in either order, or strictly `first`-before-`second`
    /// when `ordered` — ranked by [`ftsl_scoring::closeness`] of the
    /// smallest qualifying gap (adjacent pair scores 1.0). Resolves from
    /// the word-pair auxiliary index when coverage allows, skipping whole
    /// segments and whole pair blocks whose `min_gap` bound cannot beat
    /// the current k-th score, and falls back to position intersection
    /// for uncovered tokens. Tombstoned documents never surface; node ids
    /// are global.
    pub fn search_near_top_k(
        &self,
        first: &str,
        second: &str,
        bound: u32,
        ordered: bool,
        k: usize,
    ) -> ScoredOutput {
        self.search_near_top_k_with(first, second, bound, ordered, k, &mut ExecScratch::new())
    }

    /// [`Self::search_near_top_k`] threading caller-owned reusable
    /// evaluation state — the serving hot path.
    pub fn search_near_top_k_with(
        &self,
        first: &str,
        second: &str,
        bound: u32,
        ordered: bool,
        k: usize,
        scratch: &mut ExecScratch,
    ) -> ScoredOutput {
        // Query tokens get the same analysis as indexed text; a token the
        // analyzer drops (stop word) can never match, so the answer is
        // empty without touching the index.
        let (Some(first), Some(second)) =
            (self.analysis.analyze(first), self.analysis.analyze(second))
        else {
            return ScoredOutput {
                hits: Vec::new(),
                counters: ftsl_index::AccessCounters::new(),
                path: ScoredPath::PairProximity,
                trace: None,
            };
        };
        let q = PairQuery {
            first: first.into_owned(),
            second: second.into_owned(),
            directed: ordered,
            bound,
        };
        let snapshot = self.snapshot();
        let exec = SnapshotExecutor::with_options(&snapshot, &self.registry, self.options);
        exec.run_near_top_k_with(&q, k, scratch)
    }

    /// Explain how a query would be executed, without running it: language
    /// class, the engine Auto dispatch runs, and the operator tree it runs
    /// ([`PreparedQuery::render_tree`]).
    pub fn explain(&self, query: &str) -> Result<String, FtslError> {
        let surface = self.rewrite_query(parse(query, Mode::Comp)?);
        let prepared = PreparedQuery::prepare(
            &surface,
            EngineKind::Auto,
            &self.registry,
            self.options,
            None,
        )?;
        let how = match prepared.engine() {
            EngineUsed::Bool | EngineUsed::Ppred | EngineUsed::Npred => "streaming cursors",
            EngineUsed::Comp => "materialized algebra",
        };
        Ok(format!(
            "language class: {}\nengine: {} ({how})\n{}",
            prepared.class(),
            prepared.engine(),
            prepared.render_tree()
        ))
    }

    /// `EXPLAIN ANALYZE` over the current snapshot: run the query with
    /// tracing enabled and render the span tree — parse/rewrite, one
    /// prepare (classify, lower, plan, any COMP fallback), then per-segment
    /// engine work with counter deltas and pair-path vs fallback
    /// attribution — then [`Self::explain`]'s operator tree and
    /// per-segment memory footprints.
    pub fn explain_analyze(&self, query: &str) -> Result<String, FtslError> {
        let mut tb = ftsl_obs::TraceBuilder::new();
        let parse_span = tb.open("parse+rewrite");
        let surface = self.rewrite_query(parse(query, Mode::Comp)?);
        tb.close(parse_span);
        let snapshot = self.snapshot();
        let exec = SnapshotExecutor::with_options(&snapshot, &self.registry, self.options);
        let exec_span = tb.open("execute");
        let prepared = PreparedQuery::prepare(
            &surface,
            EngineKind::Auto,
            &self.registry,
            self.options,
            Some(&mut tb),
        )?;
        let (nodes, _) = exec.run_prepared(&prepared, Some(&mut tb))?;
        tb.close(exec_span);
        let trace = tb.finish();
        let mut out = String::new();
        out.push_str(&format!("language class: {}\n", prepared.class()));
        out.push_str(&format!("engine: {}\n", prepared.engine()));
        out.push_str(&format!(
            "snapshot: version {} · {} segment(s)\n",
            self.version(),
            snapshot.segments().len()
        ));
        out.push_str(&format!("hits: {}\n", nodes.len()));
        out.push_str("profile:\n");
        out.push_str(&trace.render());
        out.push_str(&prepared.render_tree());
        for (i, seg) in snapshot.segments().iter().enumerate() {
            out.push_str(&format!(
                "segment {i}: {}\n",
                seg.data().index().memory_footprint()
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual() -> LiveConfig {
        LiveConfig {
            background_merge: false,
            ..LiveConfig::default()
        }
    }

    fn fixture() -> Ftsl {
        let e = Ftsl::with_config(manual());
        e.add("usability of a software measures how well the software supports users");
        e.add("an efficient algorithm for task completion");
        e.flush();
        e.add("software task completion with efficient usability testing");
        e.add("");
        e
    }

    /// A BOOL query explains as the streaming plan it runs; a `NOT` with no
    /// positive conjunct filters `SearchContext`.
    #[test]
    fn explain_prints_the_bool_plan() {
        let out = fixture().explain("NOT 'a' OR 'b'").unwrap();
        assert!(
            out.contains("engine: BOOL (streaming cursors)\nplan:\n"),
            "{out}"
        );
        assert!(out.contains("search_context"), "{out}");
    }

    #[test]
    fn churned_search_matches_one_sealed_segment() {
        let live = fixture();
        let sealed = Ftsl::from_texts(&[
            "usability of a software measures how well the software supports users",
            "an efficient algorithm for task completion",
            "software task completion with efficient usability testing",
            "",
        ]);
        for q in [
            "'software' AND 'usability'",
            "'software' AND NOT 'efficient'",
            "SOME p1 SOME p2 (p1 HAS 'task' AND p2 HAS 'completion' \
             AND ordered(p1,p2) AND distance(p1,p2,0))",
            "EVERY p1 (p1 HAS 'software')",
        ] {
            assert_eq!(
                live.search(q).unwrap().node_ids(),
                sealed.search(q).unwrap().node_ids(),
                "query {q}"
            );
        }
    }

    #[test]
    fn deletes_take_effect_immediately_and_ids_stay_stable() {
        let live = fixture();
        assert_eq!(live.search("'software'").unwrap().node_ids(), vec![0, 2]);
        assert!(live.delete(NodeId(0)));
        assert_eq!(live.search("'software'").unwrap().node_ids(), vec![2]);
        let d = live.add("software again");
        assert_eq!(d, NodeId(4));
        assert_eq!(live.search("'software'").unwrap().node_ids(), vec![2, 4]);
    }

    #[test]
    fn ranked_and_top_k_agree_with_one_segment_rebuilt_from_survivors() {
        let live = fixture();
        live.delete(NodeId(1));
        live.add("usability testing of software tools");
        // Rebuild one sealed segment over the survivors, in order.
        let sealed = Ftsl::from_texts(&[
            "usability of a software measures how well the software supports users",
            "software task completion with efficient usability testing",
            "",
            "usability testing of software tools",
        ]);
        // Map churned global ids -> rebuilt dense ids: 0->0, 2->1, 3->2, 4->3.
        let remap = |n: NodeId| match n.0 {
            0 => 0u32,
            2 => 1,
            3 => 2,
            4 => 3,
            other => panic!("unexpected live id {other}"),
        };
        for model in [RankModel::TfIdf, RankModel::Pra] {
            let a = live
                .search_ranked("'software' OR 'usability'", model)
                .unwrap();
            let b = sealed
                .search_ranked("'software' OR 'usability'", model)
                .unwrap();
            assert_eq!(a.hits.len(), b.hits.len());
            for (x, y) in a.hits.iter().zip(&b.hits) {
                assert_eq!(remap(x.0), y.0 .0, "{model:?} order");
                assert_eq!(x.1.to_bits(), y.1.to_bits(), "{model:?} score bits");
            }
            let a = live
                .search_top_k("'software' OR 'usability'", model, 2)
                .unwrap();
            let b = sealed
                .search_top_k("'software' OR 'usability'", model, 2)
                .unwrap();
            assert_eq!(a.counters.tuples, 0, "live top-k streams");
            for (x, y) in a.hits.iter().zip(&b.hits) {
                assert_eq!(remap(x.0), y.0 .0);
                assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
        }
    }

    #[test]
    fn snapshot_pins_a_consistent_view() {
        let live = fixture();
        let snap = live.snapshot();
        live.add("a new software document");
        live.delete(NodeId(2));
        assert_eq!(snap.live_doc_count(), 4, "pinned");
        // Fresh queries see the new state.
        assert_eq!(live.search("'software'").unwrap().node_ids(), vec![0, 4]);
    }

    #[test]
    fn snapshot_and_stats_are_cached_per_version() {
        let live = fixture();
        let s1 = live.snapshot();
        let s2 = live.snapshot();
        assert_eq!(s1.version(), s2.version());
        let st1 = live.snapshot_stats(&s1);
        let st2 = live.snapshot_stats(&s2);
        assert!(Arc::ptr_eq(&st1, &st2), "stats computed once per version");
        live.add("invalidates");
        let s3 = live.snapshot();
        assert_ne!(s1.version(), s3.version());
    }

    #[test]
    fn comp_shapes_fall_back_to_exhaustive_rank() {
        let live = fixture();
        let r = live
            .search_top_k("SOME p1 (p1 HAS 'software')", RankModel::TfIdf, 1)
            .unwrap();
        assert!(
            r.counters.tuples > 0,
            "a COMP shape ranks through the algebra"
        );
        assert_eq!(r.hits.len(), 1);
    }

    /// Ranking scores the class engine's answer, so a request whose answer
    /// is empty does the set request's work and nothing more, under either
    /// model: no tuple unless its class engine is COMP, which builds them
    /// to find the answer.
    #[test]
    fn an_empty_answer_is_ranked_without_building_a_tuple() {
        let live = fixture();
        for (query, engine) in [
            ("'usability' AND NOT 'software'", EngineUsed::Bool),
            (
                "SOME p1 SOME p2 (p1 HAS 'task' AND p2 HAS 'users' AND distance(p1,p2,2))",
                EngineUsed::Ppred,
            ),
            (
                "SOME p1 (p1 HAS 'usability' AND NOT p1 HAS 'usability')",
                EngineUsed::Comp,
            ),
        ] {
            let set = live.search(query).unwrap();
            assert_eq!((set.len(), set.engine), (0, engine), "{query}");
            for model in [RankModel::TfIdf, RankModel::Pra] {
                let ctx = format!("{query} under {model:?}");
                let ranked = live.search_ranked(query, model).unwrap();
                let top = live.search_top_k(query, model, 3).unwrap();
                for r in [ranked, top] {
                    assert!(r.hits.is_empty(), "{ctx}");
                    assert_eq!(r.path, ScoredPath::Exhaustive, "{ctx}");
                    assert_eq!(r.counters, set.counters, "{ctx}: nothing scored");
                    if engine != EngineUsed::Comp {
                        assert_eq!(r.counters.tuples, 0, "{ctx}");
                    }
                }
            }
        }
        let union = live
            .search_top_k("'software' OR 'nowhere'", RankModel::TfIdf, 3)
            .unwrap();
        assert_eq!(union.path, ScoredPath::PrunedUnion);
    }

    #[test]
    fn ranking_seeks_past_nodes_a_joined_token_lacks() {
        // "rare" is in one document of 64: the join seeks "common" to it
        // and passes the others over without materializing them.
        let texts: Vec<String> = (0..64)
            .map(|i| match i {
                40 => "common rare".to_string(),
                _ => format!("common filler{i}"),
            })
            .collect();
        let e = Ftsl::from_texts(&texts);
        for model in [RankModel::TfIdf, RankModel::Pra] {
            let r = e.search_ranked("'common' AND 'rare'", model).unwrap();
            assert_eq!(r.hits.len(), 1);
            assert_eq!(r.hits[0].0, NodeId(40));
            assert!(r.counters.skipped > 0, "{:?}", r.counters);
            assert!(r.counters.tuples > 0, "{:?}", r.counters);
        }
    }

    #[test]
    fn empty_engine_serves_queries() {
        let live = Ftsl::with_config(manual());
        assert!(live.search("'anything'").unwrap().nodes.is_empty());
        assert!(live
            .search_ranked("'anything'", RankModel::TfIdf)
            .unwrap()
            .hits
            .is_empty());
    }

    /// Built from texts is not read-only: writes after the seal are visible
    /// to every search path, buffered or flushed, and the answers are those
    /// of one sealed segment rebuilt from the survivors.
    #[test]
    fn a_sealed_engine_is_writable_and_equals_a_rebuild() {
        let e = Ftsl::from_texts(&["alpha beta", "beta gamma", "alpha gamma delta beta"]);
        assert_eq!(e.add("alpha beta epsilon"), NodeId(3));
        assert!(e.delete(NodeId(1)));
        let rebuilt =
            Ftsl::from_texts(&["alpha beta", "alpha gamma delta beta", "alpha beta epsilon"]);
        let dense = |n: NodeId| NodeId(n.0 - u32::from(n.0 > 1));
        let same = |got: &[(NodeId, f64)], want: &[(NodeId, f64)]| {
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                assert_eq!((dense(g.0), g.1.to_bits()), (w.0, w.1.to_bits()));
            }
        };
        for flushed in [false, true] {
            if flushed {
                assert!(e.flush(), "the added document was still buffered");
            }
            let q = "'alpha' AND 'beta'";
            assert_eq!(e.search(q).unwrap().node_ids(), vec![0, 2, 3]);
            assert_eq!(rebuilt.search(q).unwrap().node_ids(), vec![0, 1, 2]);
            let q = "'beta' OR 'epsilon'";
            for model in [RankModel::TfIdf, RankModel::Pra] {
                let got = e.search_top_k(q, model, 2).unwrap();
                assert_eq!(got.counters.tuples, 0, "streams");
                same(&got.hits, &rebuilt.search_top_k(q, model, 2).unwrap().hits);
            }
            let got = e.search_near_top_k("alpha", "beta", 3, true, 10);
            assert_eq!(got.hits.len(), 3);
            same(
                &got.hits,
                &rebuilt.search_near_top_k("alpha", "beta", 3, true, 10).hits,
            );
        }
    }
}
