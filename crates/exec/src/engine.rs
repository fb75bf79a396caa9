//! The engine dispatcher: classify, pick the cheapest engine, compile the
//! query once ([`PreparedQuery::prepare`]), then run it per segment
//! ([`PreparedQuery::bind`]).

use crate::comp::CompPlan;
use crate::error::ExecError;
use crate::pairscan::leaf_at;
use crate::ppred::StreamPlan;
use ftsl_algebra::from_calculus::query_to_algebra;
use ftsl_algebra::AlgExpr;
use ftsl_calculus::CalcQuery;
use ftsl_index::{AccessCounters, IndexLayout, InvertedIndex};
use ftsl_lang::{classify, lower, LanguageClass, SurfaceQuery};
use ftsl_model::{Corpus, NodeId};
use ftsl_obs::{SpanId, Trace, TraceBuilder};
use ftsl_predicates::{AdvanceMode, PredicateRegistry};

/// Which engine to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Pick by language class (Figure 3), falling back to COMP.
    Auto,
    /// Force the BOOL class: the streaming engine, on BOOL queries only.
    Bool,
    /// Force the PPRED streaming engine.
    Ppred,
    /// Force the NPRED multi-ordering engine.
    Npred,
    /// Force the COMP materialized engine.
    Comp,
}

/// Execution options.
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// NPRED: permute all scan variables instead of only negative ones.
    pub npred_full_permutations: bool,
    /// Inert: there is one layout. Kept for `benchmark/src/sut.rs`, which
    /// names it; to be dropped by the next `benchmark` issue.
    pub layout: IndexLayout,
    /// Record a structured span tree (engine choice, per-stage wall time,
    /// counter deltas, pair-path attribution) into the query output. Off
    /// by default; the serving path pays one branch per query when off.
    pub trace: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            npred_full_permutations: false,
            layout: IndexLayout::Blocks,
            trace: false,
        }
    }
}

/// The engine actually used for a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineUsed {
    /// The streaming engine on a BOOL query.
    Bool,
    /// PPRED streaming engine.
    Ppred,
    /// NPRED multi-ordering engine.
    Npred,
    /// COMP materialized engine.
    Comp,
}

impl std::fmt::Display for EngineUsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EngineUsed::Bool => "BOOL",
            EngineUsed::Ppred => "PPRED",
            EngineUsed::Npred => "NPRED",
            EngineUsed::Comp => "COMP",
        };
        f.write_str(s)
    }
}

/// Result of running one query.
#[derive(Clone, Debug)]
pub struct QueryOutput {
    /// Matching context nodes, ascending.
    pub nodes: Vec<NodeId>,
    /// Machine-independent work counters.
    pub counters: AccessCounters,
    /// Engine that produced the result.
    pub engine: EngineUsed,
    /// Detected language class.
    pub class: LanguageClass,
    /// Span tree recorded when [`ExecOptions::trace`] was set.
    pub trace: Option<Box<Trace>>,
}

impl QueryOutput {
    /// Node ids as raw integers (convenient in tests and examples).
    pub fn node_ids(&self) -> Vec<u32> {
        self.nodes.iter().map(|n| n.0).collect()
    }

    /// Number of hits.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff nothing matched.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Attach every [`AccessCounters`] field as a span attribute (zero-valued
/// attributes are suppressed at render time).
pub fn counter_attrs(tb: &mut TraceBuilder, id: SpanId, c: &AccessCounters) {
    tb.attr(id, "entries", c.entries);
    tb.attr(id, "positions", c.positions);
    tb.attr(id, "positions_decoded", c.positions_decoded);
    tb.attr(id, "tuples", c.tuples);
    tb.attr(id, "skipped", c.skipped);
    tb.attr(id, "blocks_skipped", c.blocks_skipped);
    tb.attr(id, "segments_skipped", c.segments_skipped);
    tb.attr(id, "pair_entries", c.pair_entries);
}

/// The engine Auto dispatch picks for a language class (Figure 3).
fn engine_for(class: LanguageClass) -> EngineUsed {
    match class {
        LanguageClass::BoolNoNeg | LanguageClass::Bool => EngineUsed::Bool,
        LanguageClass::Dist | LanguageClass::Ppred => EngineUsed::Ppred,
        LanguageClass::Npred => EngineUsed::Npred,
        LanguageClass::Comp => EngineUsed::Comp,
    }
}

/// The engine-specific half of a [`PreparedQuery`].
enum Shape {
    /// BOOL, PPRED or NPRED, as labelled.
    Stream(EngineUsed, StreamPlan),
    Comp(CompPlan),
}

/// A query compiled once for every segment it will run on: classified,
/// dispatched, lowered, and planned into one full-text algebra tree
/// ([`AlgExpr`]) — for BOOL / PPRED / NPRED the streaming plan in
/// node-level normal form (plus its proximity cores and thread
/// orderings), for COMP Lemma 2's translation, pushed down. A forced BOOL
/// takes only queries `classify` places in BOOL. [`Self::bind`] does only
/// what depends on one segment's lists: token ids, join order, cursors;
/// it reads the prepared tree and copies none of it.
///
/// A ranked request ([`Self::prepare_ranked`]) is the same set request plus
/// the query's algebra translation, which scores the answer the set engine
/// finds ([`Self::scoring`]).
///
/// Whether Auto dispatch falls back from PPRED / NPRED to COMP depends only
/// on the query's shape, so it is decided here, once; shape errors of a
/// forced engine surface here too, whether or not any segment exists.
pub struct PreparedQuery<'q> {
    registry: &'q PredicateRegistry,
    class: LanguageClass,
    shape: Shape,
    /// The algebra translation, not pushed down: kept by a ranked request
    /// and by COMP, whose plan is pushed down from it.
    translated: Option<AlgExpr>,
}

impl<'q> PreparedQuery<'q> {
    /// Compile `surface` for `engine`. With a trace builder, the work is one
    /// `prepare` span, noting a COMP fallback when Auto needed one.
    pub fn prepare(
        surface: &SurfaceQuery,
        engine: EngineKind,
        registry: &'q PredicateRegistry,
        options: ExecOptions,
        tb: Option<&mut TraceBuilder>,
    ) -> Result<Self, ExecError> {
        Self::compile(surface, engine, false, registry, options, tb)
    }

    /// Compile `surface` as a ranked request: the Auto-dispatched set shape
    /// that finds its answer, and the translation that scores it. The query
    /// is lowered once for both.
    pub fn prepare_ranked(
        surface: &SurfaceQuery,
        registry: &'q PredicateRegistry,
        options: ExecOptions,
        tb: Option<&mut TraceBuilder>,
    ) -> Result<Self, ExecError> {
        Self::compile(surface, EngineKind::Auto, true, registry, options, tb)
    }

    fn compile(
        surface: &SurfaceQuery,
        engine: EngineKind,
        ranked: bool,
        registry: &'q PredicateRegistry,
        options: ExecOptions,
        mut tb: Option<&mut TraceBuilder>,
    ) -> Result<Self, ExecError> {
        let span = tb.as_mut().map(|b| b.open("prepare"));
        let class = classify(surface, registry);
        let chosen = match engine {
            EngineKind::Auto => engine_for(class),
            EngineKind::Bool => EngineUsed::Bool,
            EngineKind::Ppred => EngineUsed::Ppred,
            EngineKind::Npred => EngineUsed::Npred,
            EngineKind::Comp => EngineUsed::Comp,
        };
        if engine == EngineKind::Bool && class > LanguageClass::Bool {
            return Err(ExecError::WrongEngine {
                engine: "BOOL",
                reason: format!("the query is {class}, outside BOOL"),
            });
        }
        let expr = lower(surface, registry).map_err(|e| ExecError::Lang(e.to_string()))?;
        let query = CalcQuery::new(expr);
        let mut translated = if ranked {
            Some(query_to_algebra(&query, registry)?)
        } else {
            None
        };
        let streamed = (chosen != EngineUsed::Comp).then(|| {
            let full = options.npred_full_permutations;
            StreamPlan::prepare(&query.expr, registry, chosen, full)
        });
        let shape = match streamed {
            Some(Ok(plan)) => Shape::Stream(chosen, plan),
            Some(Err(e)) if engine != EngineKind::Auto => return Err(e.into()),
            fallback => {
                if let (Some(b), Some(id), Some(Err(e))) = (tb.as_mut(), span, fallback) {
                    b.note(id, format!("{chosen} refused: {e} — COMP fallback"));
                }
                let alg = match translated.take() {
                    Some(alg) => alg,
                    None => query_to_algebra(&query, registry)?,
                };
                let plan = CompPlan::prepare(&alg, registry);
                translated = Some(alg);
                Shape::Comp(plan)
            }
        };
        if let (Some(b), Some(id)) = (tb, span) {
            b.close(id);
        }
        Ok(PreparedQuery {
            registry,
            class,
            shape,
            translated,
        })
    }

    /// The algebra a ranked request scores its answer through: the query
    /// as translated, without push-down, which would change the scores.
    /// Present for every [`Self::prepare_ranked`] query.
    pub fn scoring(&self) -> Option<&AlgExpr> {
        self.translated.as_ref()
    }

    /// The detected language class.
    pub fn class(&self) -> LanguageClass {
        self.class
    }

    /// The engine every segment runs.
    pub fn engine(&self) -> EngineUsed {
        match self.shape {
            Shape::Stream(engine, _) => engine,
            Shape::Comp(_) => EngineUsed::Comp,
        }
    }

    /// The operator tree every segment runs, as `EXPLAIN` prints it, in
    /// the one language [`AlgExpr::render_tree`] renders: the streaming
    /// plan under `plan:`, each leaf core's `σ` marked with the pair walk
    /// that may replace it, or COMP's pushed-down algebra under `algebra:`,
    /// each core's `σ` marked with the pair walk that may filter it.
    pub fn render_tree(&self) -> String {
        let (head, root, cores, mark) = match &self.shape {
            Shape::Stream(_, stream) => ("plan", &stream.plan.root, &stream.plan.cores, "leaf"),
            Shape::Comp(plan) => ("algebra", &plan.plan, &plan.cores, "filter"),
        };
        // The leaf core whose `π_∅` the previous line printed.
        let mut leaf = None;
        let tree = root.render_tree_with(self.registry, |at, node| {
            let below = std::mem::replace(&mut leaf, leaf_at(cores, node, at));
            let core = match self.shape {
                Shape::Stream(..) => below,
                Shape::Comp(_) => cores.iter().find(|c| c.at == at),
            };
            core.map(|c| format!("pair {mark} {}", c.query.describe()))
        });
        format!("{head}:\n{tree}")
    }

    /// Run the compiled query on one segment, returning its matches (local
    /// ids, ascending) and work counters. With a trace builder, the work is
    /// one `engine …` span carrying the counters, the pair-path attribution
    /// for PPRED and NPRED and the node walk for COMP.
    pub fn bind(
        &self,
        corpus: &Corpus,
        index: &InvertedIndex,
        mut tb: Option<&mut TraceBuilder>,
    ) -> Result<(Vec<NodeId>, AccessCounters), ExecError> {
        let span = tb
            .as_mut()
            .map(|b| b.open(format!("engine {}", self.engine())));
        let (nodes, counters) = match &self.shape {
            Shape::Stream(engine, plan) => {
                let traced = span.is_some() && *engine != EngineUsed::Bool;
                let mut paths = Vec::new();
                let (nodes, counters) = plan.bind(
                    corpus,
                    index,
                    self.registry,
                    AdvanceMode::Aggressive,
                    traced.then_some(&mut paths),
                );
                if let (Some(b), Some(id), true) = (tb.as_mut(), span, traced) {
                    let unrecognized = "shape not recognized — streaming cursor evaluation";
                    let described = paths.iter().map(|path| path.describe());
                    for path in described.chain(paths.is_empty().then_some(unrecognized)) {
                        b.note(id, format!("pair path: {path}"));
                    }
                }
                (nodes, counters)
            }
            Shape::Comp(plan) => {
                let run = plan.bind(corpus, index, self.registry, span.is_some())?;
                if let (Some(b), Some(id)) = (tb.as_mut(), span) {
                    let stats = run.stats;
                    b.note(
                        id,
                        format!(
                            "node-at-a-time: {} nodes evaluated, {} skipped by seek, \
                             {} tuples, peak {} per node",
                            stats.nodes_evaluated,
                            stats.nodes_skipped,
                            run.counters.tuples,
                            stats.peak_node_tuples
                        ),
                    );
                    for note in plan.notes(&run) {
                        b.note(id, note);
                    }
                }
                (run.nodes, run.counters)
            }
        };
        if let (Some(b), Some(id)) = (tb, span) {
            counter_attrs(b, id, &counters);
            b.close(id);
        }
        Ok((nodes, counters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{one_segment, run_on_texts, SnapshotExecutor};
    use ftsl_index::Snapshot;

    fn setup() -> (Snapshot, PredicateRegistry) {
        let snapshot = one_segment(&[
            "test driven usability",
            "usability test",
            "test test something",
            "nothing here",
        ]);
        (snapshot, PredicateRegistry::with_builtins())
    }

    #[test]
    fn auto_dispatch_picks_expected_engines() {
        let (snap, reg) = setup();
        let exec = SnapshotExecutor::new(&snap, &reg);

        let out = exec
            .run_str("'test' AND 'usability'", EngineKind::Auto)
            .unwrap();
        assert_eq!(out.engine, EngineUsed::Bool);
        assert_eq!(out.class, LanguageClass::BoolNoNeg);

        let out = exec
            .run_str(
                "SOME p1 SOME p2 (p1 HAS 'test' AND p2 HAS 'usability' AND distance(p1,p2,5))",
                EngineKind::Auto,
            )
            .unwrap();
        assert_eq!(out.engine, EngineUsed::Ppred);

        let out = exec
            .run_str(
                "SOME p1 SOME p2 (p1 HAS 'test' AND p2 HAS 'test' AND diffpos(p1,p2))",
                EngineKind::Auto,
            )
            .unwrap();
        assert_eq!(out.engine, EngineUsed::Npred);

        let out = exec
            .run_str("EVERY p1 (p1 HAS 'test')", EngineKind::Auto)
            .unwrap();
        assert_eq!(out.engine, EngineUsed::Comp);
    }

    #[test]
    fn engines_agree_on_shared_fragment() {
        let (snap, reg) = setup();
        let exec = SnapshotExecutor::new(&snap, &reg);
        let q = "SOME p1 SOME p2 (p1 HAS 'test' AND p2 HAS 'usability' AND distance(p1,p2,5))";
        let ppred = exec.run_str(q, EngineKind::Ppred).unwrap();
        let npred = exec.run_str(q, EngineKind::Npred).unwrap();
        let comp = exec.run_str(q, EngineKind::Comp).unwrap();
        assert_eq!(ppred.nodes, npred.nodes);
        assert_eq!(ppred.nodes, comp.nodes);
    }

    #[test]
    fn forced_wrong_engine_errors() {
        let (snap, reg) = setup();
        let exec = SnapshotExecutor::new(&snap, &reg);
        let err = exec.run_str("EVERY p1 (p1 HAS 'test')", EngineKind::Ppred);
        assert!(matches!(err, Err(ExecError::Plan(_))));
        let err = exec.run_str("SOME p1 (p1 HAS 'test')", EngineKind::Bool);
        assert!(matches!(err, Err(ExecError::WrongEngine { .. })));
    }

    fn bool_run(query: &str, texts: &[&str]) -> Result<QueryOutput, ExecError> {
        run_on_texts(texts, query, EngineKind::Bool, Default::default())
    }

    fn bool_ids(query: &str, texts: &[&str]) -> Vec<u32> {
        bool_run(query, texts).unwrap().node_ids()
    }

    #[test]
    fn section_5_3_example_shape() {
        // ('software' AND 'users' AND NOT 'testing') OR 'usability'
        let r = bool_ids(
            "('software' AND 'users' AND NOT 'testing') OR 'usability'",
            &[
                "software users",         // matches (left branch)
                "software users testing", // blocked by NOT
                "usability",              // matches (right branch)
                "software testing",       // no
            ],
        );
        assert_eq!(r, vec![0, 2]);
    }

    #[test]
    fn not_includes_empty_nodes() {
        assert_eq!(bool_ids("NOT 'a'", &["a", "", "b"]), vec![1, 2]);
        assert_eq!(bool_ids("NOT 'a' OR 'a'", &["a", "", "b"]), vec![0, 1, 2]);
    }

    #[test]
    fn any_excludes_empty_nodes() {
        assert_eq!(bool_ids("ANY", &["a", "", "b"]), vec![0, 2]);
    }

    #[test]
    fn unknown_token_matches_nothing() {
        assert!(bool_ids("'zzz'", &["a", "b"]).is_empty());
        assert_eq!(bool_ids("NOT 'zzz'", &["a", "b"]), vec![0, 1]);
    }

    #[test]
    fn double_negation() {
        assert_eq!(bool_ids("NOT NOT 'a'", &["a", "b", "a c"]), vec![0, 2]);
    }

    /// A `NOT` with no positive conjunct steps the node universe, one entry
    /// per node; one beside a positive conjunct only seeks the filter.
    #[test]
    fn counters_distinguish_noneg_from_neg() {
        let texts = ["a b", "a", "b", "c", "d", "e"];
        let c1 = bool_run("'a' AND 'b'", &texts).unwrap().counters;
        let c2 = bool_run("NOT 'a'", &texts).unwrap().counters;
        assert!(c2.entries > c1.entries);
        assert!(c2.entries >= texts.len() as u64);
        assert_eq!(c1.positions + c2.positions, 0);
    }

    #[test]
    fn comp_constructs_are_rejected() {
        assert!(matches!(
            bool_run("SOME p1 (p1 HAS 'a')", &["a"]),
            Err(ExecError::WrongEngine { .. })
        ));
    }

    #[test]
    fn counters_rank_engines_by_work() {
        let (snap, reg) = setup();
        let exec = SnapshotExecutor::new(&snap, &reg);
        let q = "SOME p1 SOME p2 (p1 HAS 'test' AND p2 HAS 'usability' AND distance(p1,p2,5))";
        let ppred = exec.run_str(q, EngineKind::Ppred).unwrap();
        let comp = exec.run_str(q, EngineKind::Comp).unwrap();
        assert!(
            ppred.counters.total() <= comp.counters.total(),
            "PPRED ({:?}) should not exceed COMP ({:?})",
            ppred.counters,
            comp.counters
        );
    }
}
