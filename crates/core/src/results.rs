//! Search result types.

use crate::RankModel;
use ftsl_exec::engine::EngineUsed;
use ftsl_exec::ScoredPath;
use ftsl_index::AccessCounters;
use ftsl_lang::LanguageClass;
use ftsl_model::NodeId;

/// Boolean (unranked) search results.
#[derive(Clone, Debug)]
pub struct SearchResults {
    /// Matching context nodes, ascending by id.
    pub nodes: Vec<NodeId>,
    /// Inverted-list access counters for the run.
    pub counters: AccessCounters,
    /// The engine that produced the result.
    pub engine: EngineUsed,
    /// The query's language class.
    pub class: LanguageClass,
    /// Span tree recorded when the engine ran with
    /// [`ftsl_exec::engine::ExecOptions::trace`] set.
    pub trace: Option<Box<ftsl_obs::Trace>>,
}

impl SearchResults {
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

/// Ranked search results.
#[derive(Clone, Debug)]
pub struct Ranked {
    /// `(node, score)` pairs, descending by score.
    pub hits: Vec<(NodeId, f64)>,
    /// The scoring model used.
    pub model: RankModel,
    /// The executor arm that ran: the pruned union over a flat
    /// disjunction, or the exhaustive ranking (truncated to `k` on the
    /// top-k path).
    pub path: ScoredPath,
    /// Access counters of the executor arm that ran, summed over
    /// segments: the pruned union's cursor work (it materializes no
    /// tuples), or — for exhaustive ranking, and for the top-k arm that
    /// truncates it — every segment's set bind through its class engine
    /// plus the node-at-a-time algebra walk that scored the live answer,
    /// including the tuples it materialized (none when the answer is
    /// empty).
    pub counters: AccessCounters,
    /// Span tree recorded when the engine ran with
    /// [`ftsl_exec::engine::ExecOptions::trace`] set.
    pub trace: Option<Box<ftsl_obs::Trace>>,
}

impl Ranked {
    /// The top hit, if any.
    pub fn top(&self) -> Option<(NodeId, f64)> {
        self.hits.first().copied()
    }
}
