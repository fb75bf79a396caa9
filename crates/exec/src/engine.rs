//! The engine dispatcher: classify, pick the cheapest engine, run.

use crate::bool_eval::run_bool;
use crate::comp::run_comp;
use crate::error::ExecError;
use crate::npred::{run_npred, NpredOptions};
use crate::ppred::run_ppred_attr;
use ftsl_calculus::CalcQuery;
use ftsl_index::{AccessCounters, IndexLayout, InvertedIndex};
use ftsl_lang::{classify, lower, parse, LanguageClass, Mode, SurfaceQuery};
use ftsl_model::{Corpus, NodeId};
use ftsl_obs::{SpanId, Trace, TraceBuilder};
use ftsl_predicates::{AdvanceMode, PredicateRegistry};

/// Which engine to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Pick by language class (Figure 3), falling back to COMP.
    Auto,
    /// Force the BOOL merge engine.
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
    /// Positive-predicate skip aggressiveness.
    pub advance_mode: AdvanceMode,
    /// NPRED: permute all scan variables instead of only negative ones.
    pub npred_full_permutations: bool,
    /// Inert: there is one layout. Kept for `benchmark/src/sut.rs`, which
    /// names it; to be dropped by the next `benchmark` issue.
    pub layout: IndexLayout,
    /// PPRED: rewrite two-scan proximity cores (phrase / NEAR) to
    /// word-pair index walks when the index covers them, falling back to
    /// position intersection otherwise. Disable to force the
    /// intersection path — the oracle for differential tests.
    pub use_pairs: bool,
    /// Record a structured span tree (engine choice, per-stage wall time,
    /// counter deltas, pair-path attribution) into the query output. Off
    /// by default; the serving path pays one branch per query when off.
    pub trace: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            advance_mode: AdvanceMode::Aggressive,
            npred_full_permutations: false,
            layout: IndexLayout::Blocks,
            use_pairs: true,
            trace: false,
        }
    }
}

/// The engine actually used for a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineUsed {
    /// BOOL merge engine.
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

fn finish_engine_span(
    tb: Option<TraceBuilder>,
    id: Option<SpanId>,
    counters: &AccessCounters,
    note: Option<&'static str>,
) -> Option<Box<Trace>> {
    tb.map(|mut b| {
        if let Some(id) = id {
            if let Some(n) = note {
                b.note(id, n);
            }
            counter_attrs(&mut b, id, counters);
            b.close(id);
        }
        Box::new(b.finish())
    })
}

/// The set-engine dispatcher over one corpus + index — what
/// [`crate::SnapshotExecutor`] runs per segment, and the single-index
/// reference the differential suites compare against.
pub struct Executor<'a> {
    corpus: &'a Corpus,
    index: &'a InvertedIndex,
    registry: &'a PredicateRegistry,
    options: ExecOptions,
}

impl<'a> Executor<'a> {
    /// Executor with default options.
    pub fn new(
        corpus: &'a Corpus,
        index: &'a InvertedIndex,
        registry: &'a PredicateRegistry,
    ) -> Self {
        Executor {
            corpus,
            index,
            registry,
            options: ExecOptions::default(),
        }
    }

    /// Executor with explicit options.
    pub fn with_options(
        corpus: &'a Corpus,
        index: &'a InvertedIndex,
        registry: &'a PredicateRegistry,
        options: ExecOptions,
    ) -> Self {
        Executor {
            corpus,
            index,
            registry,
            options,
        }
    }

    /// Parse a query string (COMP syntax accepts all three languages) and
    /// run it.
    pub fn run_str(&self, input: &str, engine: EngineKind) -> Result<QueryOutput, ExecError> {
        let surface = parse(input, Mode::Comp).map_err(|e| ExecError::Lang(e.to_string()))?;
        self.run_surface(&surface, engine)
    }

    /// Run an already-parsed surface query.
    pub fn run_surface(
        &self,
        surface: &SurfaceQuery,
        engine: EngineKind,
    ) -> Result<QueryOutput, ExecError> {
        let class = classify(surface, self.registry);
        let chosen = match engine {
            EngineKind::Auto => match class {
                LanguageClass::BoolNoNeg | LanguageClass::Bool => EngineUsed::Bool,
                LanguageClass::Dist | LanguageClass::Ppred => EngineUsed::Ppred,
                LanguageClass::Npred => EngineUsed::Npred,
                LanguageClass::Comp => EngineUsed::Comp,
            },
            EngineKind::Bool => EngineUsed::Bool,
            EngineKind::Ppred => EngineUsed::Ppred,
            EngineKind::Npred => EngineUsed::Npred,
            EngineKind::Comp => EngineUsed::Comp,
        };

        let mut tb = self.options.trace.then(TraceBuilder::new);

        if chosen == EngineUsed::Bool {
            let id = tb.as_mut().map(|b| b.open("engine BOOL"));
            let (nodes, counters) = run_bool(surface, self.corpus, self.index)?;
            let trace = finish_engine_span(tb, id, &counters, None);
            return Ok(QueryOutput {
                nodes,
                counters,
                engine: EngineUsed::Bool,
                class,
                trace,
            });
        }

        let lower_id = tb.as_mut().map(|b| b.open("lower to calculus"));
        let expr = lower(surface, self.registry).map_err(|e| ExecError::Lang(e.to_string()))?;
        if let (Some(b), Some(id)) = (tb.as_mut(), lower_id) {
            b.close(id);
        }
        let query = CalcQuery::new(expr);
        self.run_lowered(&query, chosen, class, engine == EngineKind::Auto, tb)
    }

    fn run_lowered(
        &self,
        query: &CalcQuery,
        chosen: EngineUsed,
        class: LanguageClass,
        allow_fallback: bool,
        mut tb: Option<TraceBuilder>,
    ) -> Result<QueryOutput, ExecError> {
        match chosen {
            EngineUsed::Ppred => {
                let id = tb.as_mut().map(|b| b.open("engine PPRED"));
                match run_ppred_attr(
                    &query.expr,
                    self.corpus,
                    self.index,
                    self.registry,
                    self.options.advance_mode,
                    self.options.use_pairs,
                ) {
                    Ok((nodes, counters, attribution)) => {
                        let trace =
                            finish_engine_span(tb, id, &counters, Some(attribution.describe()));
                        Ok(QueryOutput {
                            nodes,
                            counters,
                            engine: EngineUsed::Ppred,
                            class,
                            trace,
                        })
                    }
                    Err(e) if allow_fallback => {
                        if let (Some(b), Some(id)) = (tb.as_mut(), id) {
                            b.note(id, format!("PPRED refused: {e} — COMP fallback"));
                            b.close(id);
                        }
                        self.run_lowered(query, EngineUsed::Comp, class, false, tb)
                    }
                    Err(e) => Err(e.into()),
                }
            }
            EngineUsed::Npred => {
                let id = tb.as_mut().map(|b| b.open("engine NPRED"));
                let opts = NpredOptions {
                    full_permutations: self.options.npred_full_permutations,
                    mode: self.options.advance_mode,
                };
                match run_npred(&query.expr, self.corpus, self.index, self.registry, opts) {
                    Ok((nodes, counters)) => {
                        let trace = finish_engine_span(tb, id, &counters, None);
                        Ok(QueryOutput {
                            nodes,
                            counters,
                            engine: EngineUsed::Npred,
                            class,
                            trace,
                        })
                    }
                    Err(e) if allow_fallback => {
                        if let (Some(b), Some(id)) = (tb.as_mut(), id) {
                            b.note(id, format!("NPRED refused: {e} — COMP fallback"));
                            b.close(id);
                        }
                        self.run_lowered(query, EngineUsed::Comp, class, false, tb)
                    }
                    Err(e) => Err(e.into()),
                }
            }
            EngineUsed::Comp => {
                let id = tb.as_mut().map(|b| b.open("engine COMP"));
                let (nodes, counters, stats) =
                    run_comp(query, self.corpus, self.index, self.registry)?;
                if let (Some(b), Some(id)) = (tb.as_mut(), id) {
                    b.note(
                        id,
                        format!(
                            "node-at-a-time: {} nodes evaluated, {} skipped by seek, \
                             {} tuples, peak {} per node",
                            stats.nodes_evaluated,
                            stats.nodes_skipped,
                            counters.tuples,
                            stats.peak_node_tuples
                        ),
                    );
                }
                let trace = finish_engine_span(tb, id, &counters, None);
                Ok(QueryOutput {
                    nodes,
                    counters,
                    engine: EngineUsed::Comp,
                    class,
                    trace,
                })
            }
            EngineUsed::Bool => unreachable!("BOOL handled before lowering"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsl_index::IndexBuilder;

    fn setup() -> (Corpus, InvertedIndex, PredicateRegistry) {
        let corpus = Corpus::from_texts(&[
            "test driven usability",
            "usability test",
            "test test something",
            "nothing here",
        ]);
        let index = IndexBuilder::new().build(&corpus);
        (corpus, index, PredicateRegistry::with_builtins())
    }

    #[test]
    fn auto_dispatch_picks_expected_engines() {
        let (corpus, index, reg) = setup();
        let exec = Executor::new(&corpus, &index, &reg);

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
        let (corpus, index, reg) = setup();
        let exec = Executor::new(&corpus, &index, &reg);
        let q = "SOME p1 SOME p2 (p1 HAS 'test' AND p2 HAS 'usability' AND distance(p1,p2,5))";
        let ppred = exec.run_str(q, EngineKind::Ppred).unwrap();
        let npred = exec.run_str(q, EngineKind::Npred).unwrap();
        let comp = exec.run_str(q, EngineKind::Comp).unwrap();
        assert_eq!(ppred.nodes, npred.nodes);
        assert_eq!(ppred.nodes, comp.nodes);
    }

    #[test]
    fn forced_wrong_engine_errors() {
        let (corpus, index, reg) = setup();
        let exec = Executor::new(&corpus, &index, &reg);
        let err = exec.run_str("EVERY p1 (p1 HAS 'test')", EngineKind::Ppred);
        assert!(matches!(err, Err(ExecError::Plan(_))));
        let err = exec.run_str("SOME p1 (p1 HAS 'test')", EngineKind::Bool);
        assert!(matches!(err, Err(ExecError::WrongEngine { .. })));
    }

    #[test]
    fn counters_rank_engines_by_work() {
        let (corpus, index, reg) = setup();
        let exec = Executor::new(&corpus, &index, &reg);
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
