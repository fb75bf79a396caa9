//! `ftsl-cli` — a small command-line search shell over the library.
//!
//! ```text
//! ftsl-cli [--analyzed] [<file>...]
//! ```
//!
//! Each file is indexed as one context node of segment 0; with no files the
//! engine starts empty. Documents can be added and deleted at any time
//! (`:add`, `:delete`), the write buffer can be sealed (`:flush`), segments
//! compacted (`:merge`), and `:stats` reports the per-segment footprint,
//! live-document ratio, and tombstone counts.
//!
//! Then type queries (BOOL/DIST/COMP syntax) on stdin, one per line.
//! Commands: `:explain <query>` (an `EXPLAIN ANALYZE` profile — the span
//! tree with per-stage wall time, cursor counter deltas, and pair-path
//! vs position-intersection attribution, then the operator tree that
//! ran), `:rank <query>`,
//! `:top <k> <query>`, `:near <k> <bound> <a> <b>` (proximity-ranked NEAR
//! via the word-pair auxiliary index; `:stats` shows pair coverage and how
//! many postings came off pair lists), `:stats`, `:quit`, `:add <text>`,
//! `:delete <node>`, `:flush`, `:merge`, plus the serving front door:
//! `:serve <n>` starts (or resizes) a serve pool of `n` evaluation lanes
//! with a shared result cache — plain queries, `:top` and `:near` then go
//! through it, evaluated on the shell's own thread — and `:serve 0` stops
//! it. With a pool active, `:stats` adds per-lane served/hit counts and the
//! cache's hit rate, `:metrics` dumps the pool's metrics registry as
//! Prometheus text, and `:slow [n]` shows the most recent slow-query log
//! entries (`:slow-threshold <µs>` adjusts the cutoff at runtime; 0
//! disables capture).

use ftsl_core::{Ftsl, RankModel, ScoredOutput, ScoredPath};
use ftsl_index::AccessCounters;
use ftsl_model::analysis::AnalysisConfig;
use ftsl_model::NodeId;
use ftsl_serve::{Answer, QueryRequest, ServeConfig, ServePool};
use std::io::{BufRead, Write};
use std::sync::Arc;

fn main() {
    let mut analyzed = false;
    let mut files = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--analyzed" => analyzed = true,
            "--help" | "-h" => {
                eprintln!("usage: ftsl-cli [--analyzed] [<file>...]");
                return;
            }
            path => files.push(path.to_string()),
        }
    }
    let mut texts = Vec::new();
    let mut names = Vec::new();
    for path in &files {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                texts.push(text);
                names.push(path.clone());
            }
            Err(e) => {
                eprintln!("skipping {path}: {e}");
            }
        }
    }

    let engine = Arc::new(if analyzed {
        Ftsl::from_texts_analyzed(&texts, AnalysisConfig::english())
    } else {
        Ftsl::from_texts(&texts)
    });
    eprintln!(
        "{} seeded documents, background merge on (:help for commands)",
        texts.len()
    );
    let mut stdout = std::io::stdout();
    let mut last_counters: Option<AccessCounters> = None;
    let mut pool: Option<ServePool> = None;
    repl(|input| {
        dispatch(
            &engine,
            input,
            &names,
            &mut stdout,
            &mut last_counters,
            &mut pool,
        )
    });
}

/// Read stdin lines and hand them to `handle` until EOF or `:quit`.
fn repl(mut handle: impl FnMut(&str) -> Result<(), Box<dyn std::error::Error>>) {
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        eprint!("ftsl> ");
        line.clear();
        let Ok(n) = stdin.lock().read_line(&mut line) else {
            break;
        };
        if n == 0 {
            break;
        }
        let input = line.trim();
        if input.is_empty() {
            continue;
        }
        if let Err(e) = handle(input) {
            eprintln!("error: {e}");
        }
        if input == ":quit" {
            break;
        }
    }
}

/// Display handle for a global node id: the seeding file name while the id
/// falls in the seeded range, `node N` for documents added later.
fn node_name(names: &[String], node: NodeId) -> String {
    names
        .get(node.index())
        .cloned()
        .unwrap_or_else(|| format!("node {}", node.0))
}

fn print_last_counters(
    out: &mut impl Write,
    last_counters: &Option<AccessCounters>,
) -> std::io::Result<()> {
    match last_counters {
        Some(c) => writeln!(
            out,
            "last query: {} entries decoded ({} from pair lists), {} positions decoded, \
             {} positions consumed, {} entries / {} blocks / {} segments skipped",
            c.entries,
            c.pair_entries,
            c.positions_decoded,
            c.positions,
            c.skipped,
            c.blocks_skipped,
            c.segments_skipped
        ),
        None => writeln!(out, "last query: none yet"),
    }
}

/// `:slow [n]` — the most recent slow-query log entries (newest first),
/// each with its sequence number, wall time, cache disposition, and
/// counter summary; entries captured while the engine traces carry the
/// full span tree and render it indented underneath.
fn print_slow_log(
    out: &mut impl Write,
    log: &ftsl_serve::SlowLog,
    limit: usize,
) -> std::io::Result<()> {
    let threshold = log.threshold_us();
    if threshold == 0 {
        writeln!(
            out,
            "slow-query capture disabled (:slow-threshold <µs> to enable)"
        )?;
    } else {
        writeln!(
            out,
            "slow queries: {} over {}µs since start, last {} retained",
            log.total(),
            threshold,
            log.capacity()
        )?;
    }
    let entries = log.entries();
    if entries.is_empty() {
        writeln!(out, "(none captured)")?;
        return Ok(());
    }
    for e in entries.iter().take(limit) {
        writeln!(
            out,
            "#{:<4} {:>8}µs{}  {}",
            e.seq,
            e.micros,
            if e.cached { " [cached]" } else { "" },
            e.query
        )?;
        writeln!(out, "      {}", e.summary)?;
        if let Some(trace) = &e.trace {
            for line in trace.render().lines() {
                writeln!(out, "      {line}")?;
            }
        }
    }
    Ok(())
}

/// `:near <k> <bound> <first> <second>` argument parsing.
fn parse_near(rest: &str) -> Result<(usize, u32, &str, &str), Box<dyn std::error::Error>> {
    let mut it = rest.split_whitespace();
    let usage = ":near needs <k> <bound> <first> <second>";
    let k: usize = it.next().ok_or(usage)?.parse()?;
    let bound: u32 = it.next().ok_or(usage)?.parse()?;
    let first = it.next().ok_or(usage)?;
    let second = it.next().ok_or(usage)?;
    Ok((k, bound, first, second))
}

/// A ranked request through the pool: its scored answer, and whether it
/// came out of the result cache.
fn serve_scored(
    pool: &ServePool,
    req: QueryRequest,
) -> Result<(ScoredOutput, bool), Box<dyn std::error::Error>> {
    let served = pool.execute(req)?;
    match served.answer.as_ref() {
        Answer::TopK(r) | Answer::Near(r) => Ok((r.clone(), served.cached)),
        Answer::Search(_) => unreachable!("a ranked request yields a scored answer"),
    }
}

/// Print the hits of `:rank`, `:top` or `:near` and keep their counters for
/// `:stats`. The footer follows the arm that ran: a proximity walk always
/// reports its pair-list work, a pruned union its pruning unless the
/// answer came out of the result cache, which says so last.
fn print_scored(
    out: &mut impl Write,
    names: &[String],
    last_counters: &mut Option<AccessCounters>,
    ranked: &ScoredOutput,
    cached: bool,
) -> std::io::Result<()> {
    let c = ranked.counters;
    *last_counters = Some(c);
    for (node, score) in &ranked.hits {
        writeln!(out, "{score:.5}  {}", node_name(names, *node))?;
    }
    match ranked.path {
        ScoredPath::PairProximity => writeln!(
            out,
            "[proximity: {} pair entries walked, {} positions decoded (fallback), \
             {} blocks / {} segments skipped]",
            c.pair_entries, c.positions_decoded, c.blocks_skipped, c.segments_skipped
        )?,
        ScoredPath::PrunedUnion if !cached => writeln!(
            out,
            "[streamed: {} entries decoded, {} entries / {} blocks pruned, \
             {} segments skipped]",
            c.entries, c.skipped, c.blocks_skipped, c.segments_skipped
        )?,
        ScoredPath::PrunedUnion | ScoredPath::Exhaustive => {}
    }
    if cached {
        writeln!(out, "[served from result cache]")?;
    }
    Ok(())
}

fn dispatch(
    engine: &Arc<Ftsl>,
    input: &str,
    names: &[String],
    out: &mut impl Write,
    last_counters: &mut Option<AccessCounters>,
    pool: &mut Option<ServePool>,
) -> Result<(), Box<dyn std::error::Error>> {
    if input == ":quit" {
        return Ok(());
    }
    if input == ":help" {
        writeln!(
            out,
            ":add <text> | :delete <node> | :flush | :merge | :explain <q> | \
             :rank <q> | :top <k> <q> | :near <k> <bound> <a> <b> | :serve <lanes> | \
             :metrics | :slow [n] | :slow-threshold <µs> | :stats | :quit"
        )?;
        return Ok(());
    }
    if let Some(n) = input.strip_prefix(":serve ") {
        let lanes: usize = n.trim().parse()?;
        if lanes == 0 {
            *pool = None;
            writeln!(out, "serve pool stopped")?;
        } else {
            *pool = Some(ServePool::new(
                Arc::clone(engine),
                ServeConfig {
                    workers: lanes,
                    ..ServeConfig::default()
                },
            ));
            writeln!(
                out,
                "serve pool: {lanes} lane(s), result cache on; queries and :top \
                 now go through the pool"
            )?;
        }
        return Ok(());
    }
    if let Some(q) = input.strip_prefix(":explain ") {
        writeln!(out, "{}", engine.explain_analyze(q)?)?;
        return Ok(());
    }
    if input == ":metrics" {
        let Some(p) = pool.as_ref() else {
            writeln!(out, "no serve pool — start one with :serve <lanes> first")?;
            return Ok(());
        };
        write!(out, "{}", p.metrics_text())?;
        return Ok(());
    }
    if input == ":slow" || input.starts_with(":slow ") {
        let Some(p) = pool.as_ref() else {
            writeln!(out, "no serve pool — start one with :serve <lanes> first")?;
            return Ok(());
        };
        let limit: usize = input
            .strip_prefix(":slow")
            .unwrap()
            .trim()
            .parse()
            .unwrap_or(usize::MAX);
        print_slow_log(out, p.slow_log(), limit)?;
        return Ok(());
    }
    if let Some(us) = input.strip_prefix(":slow-threshold ") {
        let Some(p) = pool.as_ref() else {
            writeln!(out, "no serve pool — start one with :serve <lanes> first")?;
            return Ok(());
        };
        let us: u64 = us.trim().parse()?;
        p.slow_log().set_threshold_us(us);
        if us == 0 {
            writeln!(out, "slow-query capture disabled")?;
        } else {
            writeln!(out, "slow-query threshold set to {us}µs")?;
        }
        return Ok(());
    }
    if let Some(text) = input.strip_prefix(":add ") {
        let node = engine.add(text);
        writeln!(out, "added node {}", node.0)?;
        return Ok(());
    }
    if let Some(id) = input.strip_prefix(":delete ") {
        let node = NodeId(id.trim().parse()?);
        if engine.delete(node) {
            writeln!(out, "deleted node {}", node.0)?;
        } else {
            writeln!(out, "node {} not found (or already deleted)", node.0)?;
        }
        return Ok(());
    }
    if input == ":flush" {
        let sealed = engine.flush();
        writeln!(
            out,
            "{}",
            if sealed {
                "write buffer sealed into a new segment"
            } else {
                "write buffer empty, nothing to flush"
            }
        )?;
        return Ok(());
    }
    if input == ":merge" {
        let merged = engine.merge();
        writeln!(
            out,
            "{}",
            if merged {
                "segments compacted"
            } else {
                "nothing to compact"
            }
        )?;
        return Ok(());
    }
    if input == ":stats" {
        let snapshot = engine.snapshot();
        let reports = snapshot.segment_reports();
        writeln!(
            out,
            "{} live docs, {} tombstones, {} segment(s), version {}",
            snapshot.live_doc_count(),
            snapshot.tombstone_count(),
            reports.len(),
            snapshot.version()
        )?;
        let mut total_bytes = 0usize;
        for r in &reports {
            total_bytes += r.resident_bytes;
            writeln!(
                out,
                "  segment {:>3}: {:>6} docs, {:>5} tombstones, live ratio {:.2}, \
                 {:>9}B ({}B pair lists)",
                r.id,
                r.docs,
                r.tombstones,
                r.live_ratio(),
                r.resident_bytes,
                r.pair_bytes
            )?;
        }
        writeln!(
            out,
            "  buffer: {} docs; total resident {}B",
            engine.live_index().buffered_docs(),
            total_bytes
        )?;
        // Pair-index coverage summed across the snapshot's segments, and
        // the widest of each key table's rows in bits: an inline key, a
        // list key, and a row of each table's CSR starts.
        let (mut pair_keys, mut single, mut pair_entries, mut pair_bytes) = (0, 0, 0u64, 0);
        let mut rows = [0u32; 4];
        for seg in snapshot.segments() {
            let p = seg.data().index().pairs();
            pair_keys += p.num_keys();
            single += p.num_single_document_keys();
            pair_entries += p.num_entries();
            pair_bytes += p.resident_bytes();
            let bits = p.row_bits();
            let seg_rows = [
                bits.inline,
                bits.lists,
                bits.inline_starts,
                bits.list_starts,
            ];
            for (widest, bits) in rows.iter_mut().zip(seg_rows) {
                *widest = (*widest).max(bits);
            }
        }
        writeln!(
            out,
            "pair index: {pair_keys} keys ({single} of one document), {pair_entries} entries, \
             {pair_bytes}B across {} segment(s); row bits: inline {}, list {}, starts {} / {}",
            reports.len(),
            rows[0],
            rows[1],
            rows[2],
            rows[3]
        )?;
        if let Some(p) = pool.as_ref() {
            let stats = p.stats();
            writeln!(
                out,
                "serve pool: {} lane(s), {} served, {} cache hits, \
                 {} pair-list postings, {} lane waits",
                p.workers(),
                stats.served(),
                stats.cache_hits(),
                stats.pair_entries(),
                stats.lane_waits
            )?;
            let lat = &stats.latency;
            if lat.count() > 0 {
                writeln!(
                    out,
                    "  latency: p50 {}µs p95 {}µs p99 {}µs max {}µs over {} request(s)",
                    lat.quantile(0.50),
                    lat.quantile(0.95),
                    lat.quantile(0.99),
                    lat.max,
                    lat.count()
                )?;
            }
            let slow = p.slow_log();
            writeln!(
                out,
                "  slow queries: {} over {}µs (:slow to inspect)",
                slow.total(),
                slow.threshold_us()
            )?;
            for (id, w) in stats.workers.iter().enumerate() {
                writeln!(
                    out,
                    "  lane {id}: {} served, {} hits, {} scratch reuses / {} allocs, \
                     {} panics",
                    w.served, w.cache_hits, w.scratch_reused, w.scratch_allocated, w.panics
                )?;
            }
            let c = stats.cache;
            writeln!(
                out,
                "result cache: {}/{} entries, {} hits / {} misses ({:.1}% hit rate), \
                 {} evictions",
                c.entries,
                c.capacity,
                c.hits,
                c.misses,
                100.0 * c.hit_rate(),
                c.evictions
            )?;
        }
        print_last_counters(out, last_counters)?;
        return Ok(());
    }
    if let Some(q) = input.strip_prefix(":rank ") {
        let ranked = engine.search_ranked(q, RankModel::TfIdf)?;
        print_scored(out, names, last_counters, &ranked, false)?;
        return Ok(());
    }
    if let Some(rest) = input.strip_prefix(":near ") {
        let (k, bound, first, second) = parse_near(rest)?;
        let (ranked, cached) = match pool.as_ref() {
            Some(p) => serve_scored(p, QueryRequest::near(first, second, bound, false, k))?,
            None => (
                engine.search_near_top_k(first, second, bound, false, k),
                false,
            ),
        };
        print_scored(out, names, last_counters, &ranked, cached)?;
        return Ok(());
    }
    if let Some(rest) = input.strip_prefix(":top ") {
        let (k, q) = rest.split_once(' ').ok_or(":top needs <k> <query>")?;
        let k: usize = k.parse()?;
        let (ranked, cached) = match pool.as_ref() {
            Some(p) => serve_scored(p, QueryRequest::top_k(q, RankModel::TfIdf, k))?,
            None => (engine.search_top_k(q, RankModel::TfIdf, k)?, false),
        };
        print_scored(out, names, last_counters, &ranked, cached)?;
        return Ok(());
    }
    let (results, cached) = match pool.as_ref() {
        Some(p) => {
            let served = p.execute(QueryRequest::search(input))?;
            let r = served
                .answer
                .as_search()
                .expect("search request yields search answer")
                .clone();
            (r, served.cached)
        }
        None => (engine.search(input)?, false),
    };
    *last_counters = Some(results.counters);
    writeln!(
        out,
        "{} hit(s) [{} engine, {} class, {} entries read across {} segment(s)]{}",
        results.len(),
        results.engine,
        results.class,
        results.counters.entries,
        engine.snapshot().num_segments(),
        if cached { " [cached]" } else { "" }
    )?;
    for node in &results.nodes {
        writeln!(out, "  {}", node_name(names, *node))?;
    }
    Ok(())
}
