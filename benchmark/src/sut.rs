//! The one file that touches the system under test.
//!
//! Every public function of the `ftsl-*` crates the benchmark depends on is
//! called from here and nowhere else (README.md lists them), so a later
//! change to the system's surface is a change to this file only. The
//! configuration is pinned to what serving uses: `IndexLayout::Blocks`,
//! the default `PairConfig`, default `LiveConfig` thresholds with the
//! background merger off (merges run where the script says), and
//! `ServeConfig::default()` apart from workers and cache capacity.

use ftsl_algebra::from_calculus::query_to_algebra;
use ftsl_algebra::{AlgExpr, AlgebraEvaluator};
use ftsl_calculus::{safety, CalcQuery, Interpreter};
use ftsl_core::{ExecScratch, LiveFtsl, RankModel};
use ftsl_exec::engine::{EngineKind, ExecOptions};
use ftsl_exec::plan::{build_plan, order_joins_by_selectivity};
use ftsl_exec::scored::flat_disjunction;
use ftsl_exec::{PairQuery, ScoreModel, ScoredTopK, SnapshotExecutor};
use ftsl_index::pair::PairLookup;
use ftsl_index::{persist, IndexBuilder, IndexLayout, LiveConfig, PairConfig, Snapshot};
use ftsl_lang::{LanguageClass, Mode, SurfaceQuery};
use ftsl_model::{NodeId, TokenInterner, Tokenizer};
use ftsl_predicates::PredicateRegistry;
use ftsl_scoring::{SnapshotStats, TopK};
use ftsl_serve::{Answer, ResultCache, ServeConfig, ServeContext, ServePool, Served};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub use ftsl_index::AccessCounters as Counters;
pub use ftsl_serve::{thread_allocs, CountingAlloc, QueryRequest as Request};

/// The paper's cost classes, as far as the benchmark tells them apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Bool,
    Ppred,
    Npred,
    Comp,
}

/// Engine to force for a ladder series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Forced {
    Bool,
    Ppred,
    Npred,
    Comp,
}

/// Order-sensitive fold of an answer: hit count, node ids, and the score
/// bits of ranked hits. Two answers with the same digest are the same
/// answer for every purpose the benchmark has.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Digest(pub u64);

impl Digest {
    pub fn start() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn fold(self, v: u64) -> Digest {
        Digest(
            (self.0 ^ v)
                .wrapping_mul(0x0000_0100_0000_01B3)
                .rotate_left(29),
        )
    }

    fn of_nodes(nodes: &[NodeId]) -> Digest {
        nodes
            .iter()
            .fold(Digest::start().fold(nodes.len() as u64), |d, n| {
                d.fold(u64::from(n.0))
            })
    }

    fn of_hits(hits: &[(NodeId, f64)]) -> Digest {
        hits.iter()
            .fold(Digest::start().fold(hits.len() as u64), |d, (n, s)| {
                d.fold(u64::from(n.0)).fold(s.to_bits())
            })
    }

    fn of_answer(answer: &Answer) -> Digest {
        match answer {
            Answer::Search(r) => Digest::of_nodes(&r.nodes),
            Answer::TopK(r) => Digest::of_hits(&r.hits),
            Answer::Near(r) => Digest::of_hits(&r.hits),
        }
    }
}

/// What the benchmark keeps of one answer.
#[derive(Clone, Copy, Debug)]
pub struct Reply {
    pub digest: Digest,
    pub hits: usize,
    pub counters: Counters,
    pub cached: bool,
}

impl Reply {
    fn of_answer(answer: &Answer, cached: bool) -> Reply {
        Reply {
            digest: Digest::of_answer(answer),
            hits: match answer {
                Answer::Search(r) => r.nodes.len(),
                Answer::TopK(r) => r.hits.len(),
                Answer::Near(r) => r.hits.len(),
            },
            counters: answer.counters().unwrap_or_default(),
            cached,
        }
    }

    fn of_served(served: &Served) -> Reply {
        Reply::of_answer(&served.answer, served.cached)
    }
}

fn exec_options(npred_full_permutations: bool, trace: bool) -> ExecOptions {
    ExecOptions {
        layout: IndexLayout::Blocks,
        npred_full_permutations,
        trace,
        ..ExecOptions::default()
    }
}

/// The live engine under its serving configuration.
pub struct Engine {
    live: Arc<LiveFtsl>,
    npred_full_permutations: bool,
}

impl Engine {
    /// `flush_threshold: None` keeps the default (1024).
    /// `npred_full_permutations` is the paper's presented NPRED algorithm,
    /// which only `class_ladder` asks for.
    pub fn new(flush_threshold: Option<usize>, npred_full_permutations: bool) -> Engine {
        let defaults = LiveConfig::default();
        let config = LiveConfig {
            flush_threshold: flush_threshold.unwrap_or(defaults.flush_threshold),
            background_merge: false,
            ..defaults
        };
        let live = LiveFtsl::with_config(config)
            .with_options(exec_options(npred_full_permutations, false));
        Engine {
            live: Arc::new(live),
            npred_full_permutations,
        }
    }

    pub fn add(&self, text: &str) -> u32 {
        self.live.add(text).0
    }

    pub fn delete(&self, id: u32) -> bool {
        self.live.delete(NodeId(id))
    }

    pub fn flush(&self) -> bool {
        self.live.flush()
    }

    /// One round of the tiered merge policy; true when a merge ran.
    pub fn maybe_merge(&self) -> bool {
        self.live.live_index().maybe_merge()
    }

    pub fn sealed_segments(&self) -> usize {
        self.live.live_index().segment_count()
    }

    pub fn merges_completed(&self) -> u64 {
        self.live.live_index().merges_completed()
    }

    /// `(resident bytes, of which pair index)` summed over the segments a
    /// reader sees now (builds the write-buffer view if it is stale).
    pub fn resident_bytes(&self) -> (usize, usize) {
        self.live
            .segment_reports()
            .iter()
            .fold((0, 0), |(r, p), s| (r + s.resident_bytes, p + s.pair_bytes))
    }

    /// Build whatever the first read after a write has to build: the
    /// write-buffer view and the merged scoring statistics.
    pub fn warm(&self) {
        let snapshot = self.live.snapshot();
        black_box(self.live.snapshot_stats(&snapshot));
    }

    /// The facade call a pool worker makes for `req`, on this thread.
    pub fn direct(&self, req: &Request, scratch: &mut Scratch) -> Result<Reply, String> {
        let answer = match req {
            Request::Search { query } => {
                Answer::Search(self.live.search(query).map_err(|e| e.to_string())?)
            }
            Request::TopK { query, model, k } => Answer::TopK(
                self.live
                    .search_top_k_with(query, *model, *k, &mut scratch.0)
                    .map_err(|e| e.to_string())?,
            ),
            Request::Near {
                first,
                second,
                bound,
                ordered,
                k,
            } => Answer::Near(self.live.search_near_top_k_with(
                first,
                second,
                *bound,
                *ordered,
                *k,
                &mut scratch.0,
            )),
        };
        Ok(Reply::of_answer(&answer, false))
    }

    /// Run `query` on a forced engine (the ladder's series).
    pub fn search_forced(&self, query: &str, engine: Forced) -> Result<Reply, String> {
        let kind = match engine {
            Forced::Bool => EngineKind::Bool,
            Forced::Ppred => EngineKind::Ppred,
            Forced::Npred => EngineKind::Npred,
            Forced::Comp => EngineKind::Comp,
        };
        let r = self
            .live
            .search_with(query, Mode::Comp, kind)
            .map_err(|e| e.to_string())?;
        Ok(Reply::of_answer(&Answer::Search(r), false))
    }

    /// Exhaustive TF-IDF ranking (scored algebra, no pruning): a second
    /// evaluation path the streaming top-k is checked against. Its sums
    /// fold in another order, so scores agree to rounding, not to the bit.
    pub fn ranked_exhaustive(&self, query: &str) -> Result<Vec<(u32, f64)>, String> {
        let r = self
            .live
            .search_ranked(query, RankModel::TfIdf)
            .map_err(|e| e.to_string())?;
        Ok(r.hits.into_iter().map(|(n, s)| (n.0, s)).collect())
    }

    /// Streaming TF-IDF top-k with its hits spelled out.
    pub fn top_k(&self, query: &str, k: usize) -> Result<Vec<(u32, f64)>, String> {
        let r = self
            .live
            .search_top_k(query, RankModel::TfIdf, k)
            .map_err(|e| e.to_string())?;
        Ok(r.hits.into_iter().map(|(n, s)| (n.0, s)).collect())
    }

    pub fn pool(&self, workers: usize, cache_capacity: usize) -> Pool {
        Pool(ServePool::new(
            Arc::clone(&self.live),
            ServeConfig {
                workers,
                cache_capacity,
                ..ServeConfig::default()
            },
        ))
    }

    /// What one pool worker runs per request, without queue and channel.
    pub fn worker(&self, cache_capacity: usize) -> Worker {
        Worker(ServeContext::new(
            Arc::clone(&self.live),
            Arc::new(ResultCache::new(cache_capacity)),
        ))
    }

    pub fn layers(&self) -> Layers<'_> {
        Layers {
            live: &self.live,
            registry: self.live.registry(),
            npred_full_permutations: self.npred_full_permutations,
        }
    }
}

/// Reusable per-thread evaluation state (`ExecScratch`).
pub struct Scratch(ExecScratch);

impl Scratch {
    pub fn new() -> Scratch {
        Scratch(ExecScratch::new())
    }
}

pub fn top_k_request(query: &str, k: usize) -> Request {
    Request::top_k(query, RankModel::TfIdf, k)
}

/// `ServePool` under `ServeConfig::default()` apart from workers and cache.
pub struct Pool(ServePool);

pub struct PoolCounters {
    pub served: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub worker_allocs: u64,
    /// p50 of the pool's own request-latency histogram, µs.
    pub histogram_p50_us: u64,
}

impl Pool {
    /// The closed-loop client call.
    pub fn execute(&self, req: &Request) -> Result<Reply, String> {
        self.0
            .execute(req.clone())
            .map(|s| Reply::of_served(&s))
            .map_err(|e| e.to_string())
    }

    pub fn counters(&self) -> PoolCounters {
        let stats = self.0.stats();
        PoolCounters {
            served: stats.served(),
            cache_hits: stats.cache.hits,
            cache_misses: stats.cache.misses,
            cache_evictions: stats.cache.evictions,
            worker_allocs: stats.workers.iter().map(|w| w.allocs).sum(),
            histogram_p50_us: stats.latency.p50(),
        }
    }
}

/// `ServeContext` over its own result cache.
pub struct Worker(ServeContext);

impl Worker {
    pub fn serve(&mut self, req: &Request) -> Result<Reply, String> {
        self.0
            .serve(req)
            .map(|s| Reply::of_served(&s))
            .map_err(|e| e.to_string())
    }
}

pub struct Surface(SurfaceQuery);
pub struct Calc(CalcQuery);
pub struct Algebra(AlgExpr);
pub struct View(Snapshot);
pub struct Stats(Arc<SnapshotStats>);

impl View {
    pub fn segments(&self) -> usize {
        self.0.num_segments()
    }
}

/// The layers under `LiveFtsl::search*`, one call each, so the traced run
/// can put a span around every step.
pub struct Layers<'a> {
    live: &'a LiveFtsl,
    registry: &'a PredicateRegistry,
    npred_full_permutations: bool,
}

impl Layers<'_> {
    pub fn parse(&self, query: &str) -> Result<Surface, String> {
        ftsl_lang::parse(query, Mode::Comp)
            .map(Surface)
            .map_err(|e| e.to_string())
    }

    pub fn classify(&self, q: &Surface) -> Class {
        match ftsl_lang::classify(&q.0, self.registry) {
            LanguageClass::BoolNoNeg | LanguageClass::Bool => Class::Bool,
            LanguageClass::Dist | LanguageClass::Ppred => Class::Ppred,
            LanguageClass::Npred => Class::Npred,
            LanguageClass::Comp => Class::Comp,
        }
    }

    pub fn lower(&self, q: &Surface) -> Result<Calc, String> {
        ftsl_lang::lower(&q.0, self.registry)
            .map(|e| Calc(CalcQuery::new(e)))
            .map_err(|e| e.to_string())
    }

    pub fn check(&self, q: &Calc) -> bool {
        safety::check_query(&q.0, self.registry).is_ok()
    }

    /// `build_plan` + `order_joins_by_selectivity` against the first
    /// segment; false for shapes the streaming planner refuses (COMP).
    pub fn plan(&self, q: &Calc, class: Class, view: &View) -> bool {
        let Ok(plan) = build_plan(&q.0.expr, self.registry, class >= Class::Npred) else {
            return false;
        };
        if let Some(seg) = view.0.segments().first() {
            let data = seg.data();
            black_box(order_joins_by_selectivity(
                plan.root,
                data.corpus(),
                data.index(),
            ));
        }
        true
    }

    pub fn snapshot(&self) -> View {
        View(self.live.snapshot())
    }

    /// `LiveFtsl::snapshot_stats` (cached per version).
    pub fn stats(&self, view: &View) -> Stats {
        Stats(self.live.snapshot_stats(&view.0))
    }

    /// `SnapshotStats::compute`, uncached.
    pub fn compute_stats(&self, view: &View) {
        black_box(SnapshotStats::compute(&view.0));
    }

    fn executor<'s>(&'s self, view: &'s View, trace: bool) -> SnapshotExecutor<'s> {
        SnapshotExecutor::with_options(
            &view.0,
            self.registry,
            exec_options(self.npred_full_permutations, trace),
        )
    }

    /// `SnapshotExecutor::run_surface` on the pre-parsed query, with the
    /// engine's own span tree on or off.
    pub fn run_search(&self, view: &View, q: &Surface, trace: bool) -> Result<Reply, String> {
        let out = self
            .executor(view, trace)
            .run_surface(&q.0, EngineKind::Auto)
            .map_err(|e| e.to_string())?;
        Ok(Reply {
            digest: Digest::of_nodes(&out.nodes),
            hits: out.nodes.len(),
            counters: out.counters,
            cached: false,
        })
    }

    pub fn run_top_k(
        &self,
        view: &View,
        q: &Surface,
        stats: &Stats,
        k: usize,
        scratch: &mut Scratch,
        trace: bool,
    ) -> Result<Reply, String> {
        let tokens = flat_disjunction(&q.0).ok_or("top-k template is not a flat disjunction")?;
        let model = stats.0.tfidf_model(&tokens, &view.0);
        let out = self
            .executor(view, trace)
            .run_top_k_with(
                &q.0,
                ScoredTopK { k },
                &stats.0,
                &ScoreModel::TfIdf(&model),
                &mut scratch.0,
            )
            .map_err(|e| e.to_string())?;
        Ok(Reply {
            digest: Digest::of_hits(&out.hits),
            hits: out.hits.len(),
            counters: out.counters,
            cached: false,
        })
    }

    #[allow(clippy::too_many_arguments)]
    pub fn run_near(
        &self,
        view: &View,
        first: &str,
        second: &str,
        bound: u32,
        ordered: bool,
        k: usize,
        scratch: &mut Scratch,
        trace: bool,
    ) -> Reply {
        let q = PairQuery {
            first: first.to_string(),
            second: second.to_string(),
            directed: ordered,
            bound,
        };
        let out = self
            .executor(view, trace)
            .run_near_top_k_with(&q, k, &mut scratch.0);
        Reply {
            digest: Digest::of_hits(&out.hits),
            hits: out.hits.len(),
            counters: out.counters,
            cached: false,
        }
    }

    pub fn translate(&self, q: &Calc) -> Result<Algebra, String> {
        query_to_algebra(&q.0, self.registry)
            .map(Algebra)
            .map_err(|e| e.to_string())
    }

    /// Materialized algebra evaluation over every segment; returns the
    /// tuples it built.
    pub fn algebra_eval(&self, view: &View, alg: &Algebra) -> Result<u64, String> {
        let mut tuples = 0;
        for seg in view.0.segments() {
            let data = seg.data();
            let mut ev = AlgebraEvaluator::with_layout(
                data.corpus(),
                data.index(),
                self.registry,
                IndexLayout::Blocks,
            );
            black_box(ev.eval(&alg.0).map_err(|e| e.to_string())?);
            tuples += ev.counters().tuples;
        }
        Ok(tuples)
    }
}

/// The reference answer: the calculus interpreter over the same texts.
pub struct Oracle {
    corpus: ftsl_model::Corpus,
    registry: PredicateRegistry,
}

impl Oracle {
    pub fn new(texts: &[String]) -> Oracle {
        Oracle {
            corpus: ftsl_model::Corpus::from_texts(texts),
            registry: PredicateRegistry::with_builtins(),
        }
    }

    /// Matching node ids of a COMP-syntax query, ascending.
    pub fn matches(&self, query: &str) -> Result<Vec<u32>, String> {
        let surface = ftsl_lang::parse(query, Mode::Comp).map_err(|e| e.to_string())?;
        let expr = ftsl_lang::lower(&surface, &self.registry).map_err(|e| e.to_string())?;
        let nodes =
            Interpreter::new(&self.corpus, &self.registry).eval_query(&CalcQuery::new(expr));
        Ok(nodes.into_iter().map(|n| n.0).collect())
    }

    pub fn digest(nodes: &[u32]) -> Digest {
        Digest::of_nodes(&nodes.iter().map(|&n| NodeId(n)).collect::<Vec<_>>())
    }
}

/// Nanoseconds per unit of cursor work over three lists of the largest
/// segment: the hottest, a middling and a rare one.
pub struct CursorCosts {
    pub scan_ns_per_entry: f64,
    pub seek_ns: f64,
    pub positions_ns_per_pos: f64,
    pub pair_scan_ns_per_entry: f64,
}

/// Walk `BlockCursor`s and a `PairCursor` directly. `tokens` are the
/// probe lists (hot, mid, rare); `pair` is a frequent adjacent pair.
pub fn cursor_costs(
    view: &View,
    tokens: &[String],
    pair: (&str, &str),
    rounds: usize,
) -> CursorCosts {
    let seg = view
        .0
        .segments()
        .iter()
        .max_by_key(|s| s.data().num_docs())
        .expect("probe needs a segment");
    let (corpus, index) = (seg.data().corpus(), seg.data().index());
    let ids: Vec<_> = tokens.iter().filter_map(|t| corpus.token_id(t)).collect();
    let last_node = seg.data().num_docs().saturating_sub(1) as u32;
    let (mut scan_ns, mut scanned) = (0u128, 0u64);
    let (mut seek_ns, mut seeks) = (0u128, 0u64);
    let (mut pos_ns, mut positions) = (0u128, 0u64);
    let (mut pair_ns, mut pair_entries) = (0u128, 0u64);
    for _ in 0..rounds {
        for &id in &ids {
            let mut cur = index.block_cursor(id);
            let t = Instant::now();
            while let Some(n) = cur.next_entry() {
                black_box(n);
            }
            scan_ns += t.elapsed().as_nanos();
            scanned += cur.counters().entries;

            // 64 evenly spaced targets: mostly block jumps on long lists.
            let mut cur = index.block_cursor(id);
            let t = Instant::now();
            for step in 1..=64u32 {
                black_box(cur.seek(NodeId(last_node / 64 * step)));
            }
            seek_ns += t.elapsed().as_nanos();
            seeks += 64;

            let mut cur = index.block_cursor(id);
            let t = Instant::now();
            while cur.next_entry().is_some() {
                positions += black_box(cur.positions()).len() as u64;
            }
            pos_ns += t.elapsed().as_nanos();
        }
        if let (Some(a), Some(b)) = (corpus.token_id(pair.0), corpus.token_id(pair.1)) {
            if let PairLookup::List(list) = index.pairs().lookup(a, b) {
                let mut cur = list.cursor();
                let t = Instant::now();
                while let Some(n) = cur.next_entry() {
                    black_box((n, cur.gap()));
                }
                pair_ns += t.elapsed().as_nanos();
                pair_entries += cur.counters().entries;
            }
        }
    }
    let per = |ns: u128, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    CursorCosts {
        scan_ns_per_entry: per(scan_ns, scanned),
        seek_ns: per(seek_ns, seeks),
        positions_ns_per_pos: per(pos_ns, positions),
        pair_scan_ns_per_entry: per(pair_ns, pair_entries),
    }
}

/// Build-time and persistence costs over a slice of the collection.
pub struct BuildCosts {
    pub tokenize_us_per_doc: f64,
    pub build_primary_ms_per_kdoc: f64,
    pub build_pairs_ms_per_kdoc: f64,
    pub pair_bytes_share: f64,
    pub persist_encode_mb_s: f64,
    pub persist_decode_mb_s: f64,
}

/// `Tokenizer`, `IndexBuilder` with pairs off and on, `persist::{encode,
/// decode}` over `texts`.
pub fn build_costs(texts: &[String]) -> Result<BuildCosts, String> {
    let kdocs = texts.len() as f64 / 1_000.0;
    let tokenizer = Tokenizer::new();
    let mut interner = TokenInterner::new();
    let t = Instant::now();
    for text in texts {
        black_box(tokenizer.tokenize(text, &mut interner));
    }
    let tokenize_us_per_doc = t.elapsed().as_secs_f64() * 1e6 / texts.len().max(1) as f64;

    let corpus = ftsl_model::Corpus::from_texts(texts);
    let t = Instant::now();
    let primary = IndexBuilder::new()
        .pair_config(PairConfig::disabled())
        .build(&corpus);
    let primary_s = t.elapsed().as_secs_f64();
    black_box(&primary);
    let t = Instant::now();
    let full = IndexBuilder::new()
        .pair_config(PairConfig::default())
        .build(&corpus);
    let full_s = t.elapsed().as_secs_f64();

    let footprint = full.memory_footprint().total();
    let pair_bytes = full.pairs().resident_bytes();
    let t = Instant::now();
    let image = persist::encode(&full);
    let encode_s = t.elapsed().as_secs_f64();
    let mb = image.len() as f64 / 1e6;
    let t = Instant::now();
    let decoded = persist::decode(image).map_err(|e| e.to_string())?;
    let decode_s = t.elapsed().as_secs_f64();
    black_box(decoded);
    Ok(BuildCosts {
        tokenize_us_per_doc,
        build_primary_ms_per_kdoc: primary_s * 1e3 / kdocs,
        build_pairs_ms_per_kdoc: (full_s - primary_s).max(0.0) * 1e3 / kdocs,
        pair_bytes_share: pair_bytes as f64 / footprint.max(1) as f64,
        persist_encode_mb_s: mb / encode_s,
        persist_decode_mb_s: mb / decode_s,
    })
}

/// Nanoseconds per `TopK::insert` over `n` pseudo-random scores into a
/// heap of `k`.
pub fn topk_push_ns(k: usize, n: usize) -> f64 {
    let mut topk = TopK::new(k);
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let t = Instant::now();
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        black_box(topk.insert(NodeId(i as u32), (x >> 11) as f64));
    }
    let ns = t.elapsed().as_nanos() as f64 / n.max(1) as f64;
    black_box(topk.len());
    ns
}
