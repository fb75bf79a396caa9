//! # ftsl-exec — the query evaluation engines
//!
//! Section 5 of the paper defines one evaluation strategy per language class
//! and proves the complexity hierarchy of Figure 3. This crate runs the four
//! classes on two physical engines plus the dispatcher:
//!
//! * [`comp`] — **COMP** (5.4): translate the calculus to the algebra
//!   (Lemma 2) and evaluate it one context node at a time — polynomial in
//!   the data, exponential in the query, capped per node;
//! * [`ppred`] — **PPRED** (5.5, Algorithms 1–5) and **NPRED** (5.6,
//!   Algorithms 6–7) as one streaming plan: a pipelined cursor engine
//!   evaluating positive-predicate queries in a *single scan* over the
//!   query token inverted lists, run once per ordering of the
//!   negative-predicate variables (the partial-order optimization, or the
//!   paper's presented full-permutation scheme) — one scan when there are
//!   none. **BOOL / BOOL-NONEG** (5.3) is the same plan with no
//!   predicate: joins, unions and `NOT` filters of node-level scans, a
//!   root or `OR`-branch `NOT` filtering `SearchContext`, the node
//!   universe. [`plan`] lowers the calculus into the same algebra COMP
//!   runs ([`ftsl_algebra::AlgExpr`]), in the node-level normal form the
//!   cursors need, and [`build`] turns that tree into cursors per segment;
//! * [`engine`] — dispatch by [`ftsl_lang::LanguageClass`], with COMP as
//!   the universal fallback: a [`PreparedQuery`] is classified, lowered and
//!   planned once, then bound to each segment's lists;
//! * [`snapshot`] — the executor every query goes through: one prepared
//!   query bound to each segment of a [`ftsl_index::Snapshot`], tombstones
//!   filtered, ids remapped, counters summed; a ranked request scores each
//!   segment's live answer in the same loop;
//! * [`pairscan`] — the pair path for phrase/NEAR shapes: one table of a
//!   plan's two-scan proximity cores, each resolved once per segment
//!   against the index's word-pair auxiliary lists ([`ftsl_index::pair`]),
//!   and one merged min-gap pair-list walk that is a PPRED / NPRED leaf, a
//!   COMP filter and the proximity top-k when coverage allows, with
//!   automatic fallback to position intersection;
//! * [`scored`] — the types of **scored top-k**, dispatched in one place
//!   by [`SnapshotExecutor::run_top_k_with`]: under either model a top-k
//!   is the exhaustive ranking ([`SnapshotExecutor::run_ranked`])
//!   truncated to `k`. A flat disjunction gets there through a
//!   MaxScore/block-max pruned union draining into one bounded heap
//!   shared across segments instead of scoring every node; any other
//!   query scores every node of its class engine's answer and truncates.
//!
//! Every engine reports [`ftsl_index::AccessCounters`] so the Figure 3
//! bounds can be validated with machine-independent measurements.
//!
//! ## Positional evaluation at the cursor
//!
//! Every engine reads the index's one physical form, the block-compressed
//! lists. Positional predicates (`ordered`, `distance`, `window`, …)
//! evaluate *at the cursor*: a block's ids are unpacked on first touch,
//! and an entry's position payload is only decompressed when the predicate
//! actually inspects it — entries rejected on node id alone are stepped
//! over using the stored byte length, visible in
//! [`ftsl_index::AccessCounters::positions_decoded`]:
//!
//! ```
//! use ftsl_exec::engine::EngineKind;
//! use ftsl_exec::SnapshotExecutor;
//! use ftsl_index::{IndexBuilder, PairConfig, Snapshot};
//! use ftsl_model::Corpus;
//! use ftsl_predicates::PredicateRegistry;
//!
//! let corpus = Corpus::from_texts(&[
//!     "rust makes systems programming approachable",
//!     "approachable systems without rust too",
//!     "rust rust rust",
//! ]);
//! // An index sealed without word pairs takes the position-intersection
//! // path this example demonstrates; by default the phrase below would
//! // resolve from the word-pair auxiliary index without touching positions.
//! let index = IndexBuilder::new()
//!     .pair_config(PairConfig::disabled())
//!     .build(&corpus);
//! let rust = index.block_list(corpus.token_id("rust").unwrap()).num_positions();
//! let approachable = corpus.token_id("approachable").unwrap();
//! let total_positions = (rust + index.block_list(approachable).num_positions()) as u64;
//! let snapshot = Snapshot::of_index(corpus, index);
//! let registry = PredicateRegistry::with_builtins();
//! let exec = SnapshotExecutor::new(&snapshot, &registry);
//!
//! // "rust" strictly before "approachable", at most 3 intervening tokens —
//! // a PPRED query, evaluated directly on the compressed blocks.
//! let out = exec
//!     .run_str(
//!         "SOME p1 SOME p2 (p1 HAS 'rust' AND p2 HAS 'approachable' \
//!          AND ordered(p1,p2) AND distance(p1,p2,3))",
//!         EngineKind::Auto,
//!     )
//!     .unwrap();
//! assert_eq!(out.nodes.iter().map(|n| n.0).collect::<Vec<_>>(), vec![0]);
//! // Node 2 ("rust rust rust") was rejected on node ids alone: the join
//! // never inspected its entry, so its three position payloads were never
//! // decompressed. Only the two join-matched nodes paid position decodes.
//! assert!(out.counters.positions_decoded < total_positions);
//! ```

#![warn(missing_docs)]

pub mod build;
pub mod comp;
pub mod cursor;
pub mod engine;
pub mod error;
pub mod join;
pub mod pairscan;
pub mod plan;
pub mod ppred;
pub mod project;
pub mod scored;
pub mod select;
pub mod setops;
pub mod snapshot;

pub use engine::{EngineKind, PreparedQuery, QueryOutput};
pub use error::{ExecError, PlanError};
pub use pairscan::PairQuery;
pub use plan::build_plan;
pub use scored::{ScoreModel, ScoredOutput, ScoredPath, ScoredTopK};
pub use snapshot::{ExecScratch, SnapshotExecutor};
