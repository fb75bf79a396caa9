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
//! with a shared result cache — plain queries and `:top` then go through
//! it, evaluated on the shell's own thread — `:serve 0` stops it, and
//! `:bench-load [requests]` runs a short closed-loop mixed read/write load
//! from one client thread per lane and prints QPS and latency
//! percentiles. With a pool active, `:stats` adds per-lane served/hit
//! counts and the cache's hit rate, `:metrics` dumps the pool's metrics
//! registry as Prometheus text, and `:slow [n]` shows the most recent
//! slow-query log entries (`:slow-threshold <µs>` adjusts the cutoff at
//! runtime; 0 disables capture).

use ftsl_core::{Ftsl, RankModel, ScoredPath};
use ftsl_index::AccessCounters;
use ftsl_model::analysis::AnalysisConfig;
use ftsl_model::NodeId;
use ftsl_serve::{QueryRequest, ServeConfig, ServePool, ServePoolExt};
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Instant;

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

fn print_near(
    out: &mut impl Write,
    names: &[String],
    ranked: &ftsl_core::ScoredOutput,
) -> std::io::Result<()> {
    for (node, score) in &ranked.hits {
        writeln!(out, "{score:.5}  {}", node_name(names, *node))?;
    }
    let c = ranked.counters;
    writeln!(
        out,
        "[proximity: {} pair entries walked, {} positions decoded (fallback), \
         {} blocks / {} segments skipped]",
        c.pair_entries, c.positions_decoded, c.blocks_skipped, c.segments_skipped
    )
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
             :bench-load [requests] | :metrics | :slow [n] | \
             :slow-threshold <µs> | :stats | :quit"
        )?;
        return Ok(());
    }
    if let Some(n) = input.strip_prefix(":serve ") {
        let lanes: usize = n.trim().parse()?;
        if lanes == 0 {
            *pool = None;
            writeln!(out, "serve pool stopped")?;
        } else {
            *pool = Some(engine.serve_pool(ServeConfig {
                workers: lanes,
                ..ServeConfig::default()
            }));
            writeln!(
                out,
                "serve pool: {lanes} lane(s), result cache on; queries and :top \
                 now go through the pool"
            )?;
        }
        return Ok(());
    }
    if input == ":bench-load" || input.starts_with(":bench-load ") {
        let requests: usize = input
            .strip_prefix(":bench-load")
            .unwrap()
            .trim()
            .parse()
            .unwrap_or(2000);
        let Some(p) = pool.as_ref() else {
            writeln!(out, "no serve pool — start one with :serve <lanes> first")?;
            return Ok(());
        };
        bench_load(engine, p, requests, out)?;
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
        // Pair-index coverage summed across the snapshot's segments.
        let (mut pair_keys, mut pair_entries, mut pair_bytes) = (0usize, 0u64, 0usize);
        for seg in snapshot.segments() {
            let p = seg.data().index().pairs();
            pair_keys += p.num_keys();
            pair_entries += p.num_entries();
            pair_bytes += p.resident_bytes();
        }
        writeln!(
            out,
            "pair index: {pair_keys} keys, {pair_entries} entries, {pair_bytes}B \
             across {} segment(s)",
            reports.len()
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
        *last_counters = Some(ranked.counters);
        for (node, score) in &ranked.hits {
            writeln!(out, "{score:.5}  {}", node_name(names, *node))?;
        }
        return Ok(());
    }
    if let Some(rest) = input.strip_prefix(":near ") {
        let (k, bound, first, second) = parse_near(rest)?;
        let (ranked, cached) = match pool.as_ref() {
            Some(p) => {
                let served = p.execute(QueryRequest::near(first, second, bound, false, k))?;
                let r = served
                    .answer
                    .as_near()
                    .expect("near request yields near answer")
                    .clone();
                (r, served.cached)
            }
            None => (
                engine.search_near_top_k(first, second, bound, false, k),
                false,
            ),
        };
        *last_counters = Some(ranked.counters);
        print_near(out, names, &ranked)?;
        if cached {
            writeln!(out, "[served from result cache]")?;
        }
        return Ok(());
    }
    if let Some(rest) = input.strip_prefix(":top ") {
        let (k, q) = rest.split_once(' ').ok_or(":top needs <k> <query>")?;
        let k: usize = k.parse()?;
        let (ranked, cached) = match pool.as_ref() {
            Some(p) => {
                let served = p.execute(QueryRequest::top_k(q, RankModel::TfIdf, k))?;
                let r = served
                    .answer
                    .as_top_k()
                    .expect("top-k request yields top-k answer")
                    .clone();
                (r, served.cached)
            }
            None => (engine.search_top_k(q, RankModel::TfIdf, k)?, false),
        };
        let c = ranked.counters;
        *last_counters = Some(c);
        for (node, score) in &ranked.hits {
            writeln!(out, "{score:.5}  {}", node_name(names, *node))?;
        }
        if cached {
            writeln!(out, "[served from result cache]")?;
        } else if ranked.path == ScoredPath::PrunedUnion {
            writeln!(
                out,
                "[streamed: {} entries decoded, {} entries / {} blocks pruned, \
                 {} segments skipped]",
                c.entries, c.skipped, c.blocks_skipped, c.segments_skipped
            )?;
        }
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

/// `:bench-load` — a short closed-loop load against the active pool: one
/// client thread per lane replays a skewed mix of BOOL and top-k queries over
/// the engine's own vocabulary while this thread churns a write every few
/// milliseconds, then QPS and latency percentiles come from the merged
/// per-request timings. (The repo benchmark's `zipf_cached` and `rw_churn`
/// workloads are the measured version; this is their interactive sibling.)
fn bench_load(
    engine: &Arc<Ftsl>,
    pool: &ServePool,
    requests: usize,
    out: &mut impl Write,
) -> Result<(), Box<dyn std::error::Error>> {
    // Query mix from the indexed vocabulary: its first terms,
    // skew-sampled so the cache has something to do.
    let snapshot = engine.snapshot();
    let terms: Vec<String> = snapshot
        .vocabulary()
        .iter()
        .take(16)
        .map(|(_, name)| name.to_string())
        .collect();
    if terms.is_empty() {
        writeln!(out, "nothing indexed yet — :add some documents first")?;
        return Ok(());
    }
    let queries: Vec<QueryRequest> = terms
        .iter()
        .enumerate()
        .map(|(i, t)| {
            if i % 2 == 0 {
                QueryRequest::search(&format!("'{t}'"))
            } else {
                QueryRequest::top_k(&format!("'{t}'"), RankModel::TfIdf, 10)
            }
        })
        .collect();
    let clients = pool.workers();
    let per_client = requests.div_ceil(clients);
    let before = pool.stats();
    let t0 = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let queries = &queries;
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(per_client);
                    let mut state = (c as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                    for _ in 0..per_client {
                        // xorshift* skew: square the draw so low indices
                        // (popular queries) dominate, Zipf-ish.
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                        let idx = ((u * u) * queries.len() as f64) as usize;
                        let req = queries[idx.min(queries.len() - 1)].clone();
                        let t = Instant::now();
                        let _ = pool.execute(req);
                        lat.push(t.elapsed().as_micros() as u64);
                    }
                    lat
                })
            })
            .collect();
        // Writer churn while clients run: add + delete + flush.
        let added = engine.add("bench load churn document");
        engine.delete(added);
        engine.flush();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = t0.elapsed();
    latencies.sort_unstable();
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    let after = pool.stats();
    let hits = after.cache_hits() - before.cache_hits();
    let served = after.served() - before.served();
    writeln!(
        out,
        "{} requests over {} client(s) in {:.1?}: {:.0} QPS; \
         p50 {}µs p95 {}µs p99 {}µs; {}/{} cache hits ({:.1}%)",
        latencies.len(),
        clients,
        wall,
        latencies.len() as f64 / wall.as_secs_f64(),
        pct(0.50),
        pct(0.95),
        pct(0.99),
        hits,
        served,
        100.0 * hits as f64 / served.max(1) as f64,
    )?;
    Ok(())
}
