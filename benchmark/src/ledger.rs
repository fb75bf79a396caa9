//! The traced run: the per-layer ledger, keyed by crate.
//!
//! After set-up the run replays a fixed sample (the first requests of
//! client 0) four ways — through the pool, through a bare worker, through
//! the facade, and step by step through the layers under the facade with a
//! span around every step — then probes the layers the sample does not
//! isolate (cursors, index build, write path, persistence, top-k heap).
//! Counts come from the first replay pass only, so they repeat exactly
//! for a seed; timings use every pass that fits into `--seconds`.
//!
//! Every metric is measured on every workload: the sample, the ladder
//! and the probes all run against the workload's own collection.

use crate::check::Checks;
use crate::queries::{PoolQuery, Template};
use crate::sizes::Sizes;
use crate::stats;
use crate::sut::{self, Class, Counters, Engine, Layers, Request, Scratch};
use crate::trace::Recorder;
use crate::workloads::{
    build, churn_base_docs, closed_loop, warm_requests, ChurnScript, Inputs, Metric, Workload,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Run `f` under a span and also hand back its wall time, so totals exist
/// when the recorder is off.
fn step<T>(rec: &mut Recorder, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = rec.span(name, f);
    (out, t.elapsed().as_nanos() as f64)
}

#[derive(Default)]
struct ReplayTotals {
    elapsed_ns: f64,
    /// Per request: time of the steps the facade is made of, and the
    /// answer they produced.
    steps_ns: Vec<f64>,
    digests: Vec<sut::Digest>,
    counters: Counters,
    topk_counters: Counters,
}

/// One pass over the sample through the facade (`LiveFtsl::search*`), one
/// span per request; returns each request's time and answer.
fn facade_pass(
    engine: &Engine,
    pool: &[PoolQuery],
    sample: &[u32],
    rec: &mut Recorder,
) -> Result<(Vec<f64>, Vec<sut::Digest>), String> {
    let mut scratch = Scratch::new();
    let (mut ns, mut digests) = (
        Vec::with_capacity(sample.len()),
        Vec::with_capacity(sample.len()),
    );
    for (i, &q) in sample.iter().enumerate() {
        rec.set_request(i as u32 + 1);
        let (reply, took) = step(rec, "core.search", || {
            engine.direct(&pool[q as usize].request, &mut scratch)
        });
        ns.push(took);
        digests.push(reply?.digest);
    }
    rec.set_request(0);
    Ok((ns, digests))
}

/// One pass over the sample step by step through the layers under the
/// facade, then the stand-alone probes of steps the executor hides.
fn replay(
    engine: &Engine,
    pool: &[PoolQuery],
    sample: &[u32],
    rec: &mut Recorder,
) -> Result<ReplayTotals, String> {
    let layers = engine.layers();
    let mut scratch = Scratch::new();
    let mut totals = ReplayTotals::default();
    let started = Instant::now();
    for (i, &q) in sample.iter().enumerate() {
        let query = &pool[q as usize];
        rec.set_request(i as u32 + 1);
        let root = rec.open("request");
        let exec_span = query.template.exec_span();
        let (reply, steps_ns, surface) = match &query.request {
            Request::Search { query: text } => {
                let (surface, a) = step(rec, "lang.parse", || layers.parse(text));
                let surface = surface?;
                let (view, b) = step(rec, "index.snapshot", || layers.snapshot());
                let (reply, c) = step(rec, exec_span, || layers.run_search(&view, &surface, false));
                (reply?, a + b + c, Some(surface))
            }
            Request::TopK { query: text, k, .. } => {
                let (surface, a) = step(rec, "lang.parse", || layers.parse(text));
                let surface = surface?;
                let (view, b) = step(rec, "index.snapshot", || layers.snapshot());
                let (stats, c) = step(rec, "scoring.snapshot_stats", || layers.stats(&view));
                let (reply, d) = step(rec, exec_span, || {
                    layers.run_top_k(&view, &surface, &stats, *k, &mut scratch, false)
                });
                let reply = reply?;
                totals.topk_counters += reply.counters;
                (reply, a + b + c + d, None)
            }
            Request::Near {
                first,
                second,
                bound,
                ordered,
                k,
            } => {
                let (view, a) = step(rec, "index.snapshot", || layers.snapshot());
                let (reply, b) = step(rec, exec_span, || {
                    layers.run_near(
                        &view,
                        first,
                        second,
                        *bound,
                        *ordered,
                        *k,
                        &mut scratch,
                        false,
                    )
                });
                (reply, a + b, None)
            }
        };
        totals.steps_ns.push(steps_ns);
        totals.digests.push(reply.digest);
        totals.counters += reply.counters;
        if let Some(surface) = surface {
            probe_hidden_steps(&layers, &surface, rec)?;
        }
        rec.close(root);
    }
    totals.elapsed_ns = started.elapsed().as_nanos() as f64;
    rec.set_request(0);
    Ok(totals)
}

/// Steps `run_surface` performs inside itself, repeated here on their own
/// so each gets a span: classify, lower, the safety check, planning, and
/// for COMP-class queries the algebra translation and evaluation.
fn probe_hidden_steps(
    layers: &Layers<'_>,
    surface: &sut::Surface,
    rec: &mut Recorder,
) -> Result<(), String> {
    let class = rec.span("lang.classify", || layers.classify(surface));
    if class == Class::Bool {
        // BOOL never leaves the surface form.
        return Ok(());
    }
    let calc = rec.span("lang.lower", || layers.lower(surface))?;
    rec.span("calculus.check", || layers.check(&calc));
    let view = layers.snapshot();
    if class == Class::Comp {
        let alg = rec.span("algebra.translate", || layers.translate(&calc))?;
        rec.span("algebra.eval", || layers.algebra_eval(&view, &alg))?;
    } else {
        rec.span("exec.plan", || layers.plan(&calc, class, &view));
    }
    Ok(())
}

fn timing(rec: &Recorder, metric: &str, span: &str) -> Metric {
    let sample = rec.durations(span).into_iter().map(|ns| ns / 1e3).collect();
    Metric::timing(metric, "us", sample)
}

/// Write-path costs on a scratch engine: four batches of `n/4` documents,
/// flushed one by one, then merged by the tiered policy.
fn write_path(docs: &[String], rec: &mut Recorder, out: &mut Vec<Metric>) {
    let batch = docs.len() / 4;
    let engine = Engine::new(Some(usize::MAX), false);
    let layers = engine.layers();
    let mut flush_ms = Vec::new();
    for (b, chunk) in docs.chunks(batch).take(4).enumerate() {
        for doc in chunk {
            rec.span("index.add", || engine.add(doc));
        }
        if b == 0 {
            // First snapshot after writes builds the buffer's view; the
            // ones after it find the view cached.
            rec.span("index.view_rebuild", || layers.snapshot());
            for _ in 0..64 {
                rec.span("index.snapshot_steady", || layers.snapshot());
            }
            engine.add(&docs[0]);
        }
        let (_, ns) = step(rec, "index.flush", || engine.flush());
        flush_ms.push(ns / 1e6);
    }
    let (merged, merge_ns) = step(rec, "index.merge", || engine.maybe_merge());
    out.push(timing(rec, "index.add_us", "index.add"));
    out.push(Metric::timing("index.flush_ms", "ms", flush_ms));
    out.push(Metric::plain(
        "index.merge_ms",
        "ms",
        if merged { merge_ns / 1e6 } else { 0.0 },
        1,
    ));
    let rebuild_ms = rec
        .durations("index.view_rebuild")
        .into_iter()
        .map(|ns| ns / 1e6);
    out.push(Metric::timing(
        "index.view_rebuild_ms",
        "ms",
        rebuild_ms.collect(),
    ));
    out.push(timing(rec, "index.snapshot_us", "index.snapshot_steady"));
}

/// Diagnostic only: a free-running reader beside a writer paced at 100
/// documents a second; the longest read is the stall a write imposes.
fn stall_max_ms(docs: &[String], request: &Request, seconds: f64) -> f64 {
    let engine = Engine::new(None, false);
    for doc in docs.iter().take(64) {
        engine.add(doc);
    }
    engine.warm();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut scratch = Scratch::new();
            let mut worst = Duration::ZERO;
            while !stop.load(Ordering::SeqCst) {
                let t = Instant::now();
                let _ = engine.direct(request, &mut scratch);
                worst = worst.max(t.elapsed());
            }
            worst
        });
        let start = Instant::now();
        let mut written = 0usize;
        while start.elapsed().as_secs_f64() < seconds {
            let due = (start.elapsed().as_secs_f64() * 100.0) as usize;
            while written < due {
                engine.add(&docs[written % docs.len()]);
                written += 1;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::SeqCst);
        reader.join().expect("stall reader panicked").as_secs_f64() * 1e3
    })
}

pub fn run(
    workload: Workload,
    sizes: &Sizes,
    inputs: &Inputs,
    seconds: f64,
    checks: &mut Checks,
) -> Result<(Vec<Metric>, Recorder), String> {
    let mut rec = Recorder::new();
    let mut out: Vec<Metric> = Vec::new();
    let docs = &inputs.corpus.texts;
    let pool_queries = &inputs.pool;
    let sample: Vec<u32> = inputs.streams[0]
        .iter()
        .copied()
        .take(sizes.trace_requests)
        .collect();
    let cache = workload.cache_capacity(sizes);

    // Set-up, with a span around every call into the index.
    let first_read = inputs.first_read(workload);
    let base = match workload {
        Workload::RwChurn => &docs[..churn_base_docs(sizes)],
        _ => &docs[..],
    };
    let built = build(workload, sizes, base, &first_read, &mut rec)?;
    let engine = &built.engine;

    // Write cost and the first read after writes: from set-up on the
    // read-only workloads, from the script on `rw_churn`.
    let (mut write_ms_per_kdoc, mut first_reads_ms) = (
        built.write_s * 1e6 / built.docs.max(1) as f64,
        vec![built.first_read_ms],
    );
    if workload == Workload::RwChurn {
        // Every operation of the first cycles of the script, traced.
        let pool = engine.pool(1, cache);
        let mut script = ChurnScript::new(sizes, inputs, engine, &pool);
        for cycle in 0..sizes.trace_churn_cycles {
            rec.set_request(cycle as u32 + 1);
            script.cycle(cycle, &mut rec, checks);
        }
        rec.set_request(0);
        write_ms_per_kdoc = script.totals.write_ms_per_kdoc();
        first_reads_ms = script.totals.first_reads_ms().to_vec();
    }
    out.push(Metric::plain(
        "index.write_ms_per_kdoc",
        "ms",
        write_ms_per_kdoc,
        built.docs,
    ));
    out.push(Metric::timing(
        "index.read_after_write_ms",
        "ms",
        first_reads_ms,
    ));
    engine.warm();

    // ── serve: the workload's own load through the pool, untraced ─────
    // Same clients, workers, cache and warm-up as the untraced run, so the
    // cache sits at its steady hit ratio and workers are as busy.
    let budget = Duration::from_secs_f64(seconds * 0.2);
    let clients = match workload {
        Workload::ZipfCold | Workload::ZipfCached => inputs.streams.len(),
        Workload::RwChurn | Workload::ClassLadder => 1,
    };
    let streams = &inputs.streams[..clients];
    let warm = warm_requests(sizes);
    let expected = crate::check::expected_answers(engine, pool_queries, checks);
    checks.answers = Some(crate::check::fold(expected.iter().copied()));
    let pool = engine.pool(clients, cache);
    let (_, _, wrong_warm) = closed_loop(&pool, pool_queries, &expected, streams, warm, 0.0);
    let before = pool.counters();
    let (pool_samples, _, wrong) = closed_loop(
        &pool,
        pool_queries,
        &expected,
        streams,
        0,
        budget.as_secs_f64(),
    );
    let after = pool.counters();
    checks.record(
        pool_samples.len() as u64,
        wrong + wrong_warm,
        "pool replies differing from the uncached answer",
    );
    let served = (after.served - before.served).max(1) as f64;
    let lookups =
        (after.cache_hits + after.cache_misses - before.cache_hits - before.cache_misses).max(1);
    let pool_p50 = stats::median(pool_samples.iter().map(|s| f64::from(s.us)).collect());
    out.push(Metric::plain(
        "serve.cache_hit_ratio",
        "ratio",
        (after.cache_hits - before.cache_hits) as f64 / lookups as f64,
        lookups as usize,
    ));
    out.push(Metric::plain(
        "serve.cache_evictions",
        "count",
        (after.cache_evictions - before.cache_evictions) as f64,
        1,
    ));
    out.push(Metric::plain(
        "serve.allocs_per_req",
        "count",
        (after.worker_allocs - before.worker_allocs) as f64 / served,
        served as usize,
    ));
    let histogram_p50_us = after.histogram_p50_us as f64;
    drop(pool);

    // ── serve: a bare worker on this thread, each request twice ───────
    // The first call meets the cache as the stream left it; the repeat is
    // a certain hit.
    let mut worker = engine.worker(cache);
    let mut stream = inputs.streams[0].iter().cycle();
    for &q in stream.by_ref().take(warm) {
        let _ = worker.serve(&pool_queries[q as usize].request);
    }
    let (mut direct_us, mut miss_us, mut hit_us, mut hit_allocs) =
        (Vec::new(), Vec::new(), Vec::new(), 0u64);
    for &q in stream.take(sample.len()) {
        let request = &pool_queries[q as usize].request;
        let t = Instant::now();
        let first = worker.serve(request)?;
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        direct_us.push(us);
        if !first.cached {
            miss_us.push(us);
        }
        let allocs = sut::thread_allocs();
        let t = Instant::now();
        let second = worker.serve(request)?;
        hit_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        hit_allocs = hit_allocs.max(sut::thread_allocs() - allocs);
        checks.expect(second.cached && second.digest == first.digest, || {
            format!("repeat of {request:?} was not the cached first answer")
        });
    }
    let direct_p50 = stats::median(direct_us);
    // The pool's histogram times what the worker times, in whole µs and
    // power-of-two buckets; how far its p50 lands from the measured one
    // says what its exports are good for.
    out.push(Metric::plain(
        "obs.hist_p50_err_pct",
        "%",
        (histogram_p50_us - direct_p50).abs() / direct_p50 * 100.0,
        served as usize,
    ));
    out.push(Metric::plain(
        "serve.hop_us",
        "us",
        pool_p50 - direct_p50,
        pool_samples.len(),
    ));
    out.push(Metric::timing("serve.hit_us", "us", hit_us));
    out.push(Metric::timing("serve.miss_us", "us", miss_us));
    out.push(Metric::plain(
        "serve.hit_allocs",
        "count",
        hit_allocs as f64,
        sample.len(),
    ));

    // ── facade and layers: the sample through `LiveFtsl::search*`, then
    // step by step, spans on then off ────────────────────────────────────
    // Facade and steps run as separate passes in the same request order,
    // so request i meets the same processor-cache state in both and their
    // difference is the facade's own work, not a warm second execution.
    let mut off = Recorder::disabled();
    let (_, facade_digests) = facade_pass(engine, pool_queries, &sample, &mut rec)?;
    let first = replay(engine, pool_queries, &sample, &mut rec)?;
    let mismatches = first
        .digests
        .iter()
        .zip(&facade_digests)
        .filter(|(a, b)| a != b)
        .count();
    checks.record(
        sample.len() as u64,
        mismatches as u64,
        "step-by-step answers differing from the facade's",
    );
    let (mut core_self, mut traced_ns, mut untraced_ns) =
        (Vec::new(), vec![first.elapsed_ns], Vec::new());
    let started = Instant::now();
    while untraced_ns.is_empty() || started.elapsed() < budget {
        let (facade_ns, _) = facade_pass(engine, pool_queries, &sample, &mut off)?;
        let steps = replay(engine, pool_queries, &sample, &mut off)?;
        untraced_ns.push(steps.elapsed_ns);
        core_self.extend(
            facade_ns
                .iter()
                .zip(&steps.steps_ns)
                .map(|(f, s)| (f - s) / 1e3),
        );
        traced_ns.push(replay(engine, pool_queries, &sample, &mut rec)?.elapsed_ns);
    }
    let n = sample.len() as f64;
    for (name, value) in [
        ("index.entries_per_req", first.counters.entries),
        (
            "index.positions_decoded_per_req",
            first.counters.positions_decoded,
        ),
        ("index.skipped_per_req", first.counters.skipped),
        (
            "index.blocks_skipped_per_req",
            first.counters.blocks_skipped,
        ),
        (
            "index.segments_skipped_per_req",
            first.counters.segments_skipped,
        ),
        ("index.pair_entries_per_req", first.counters.pair_entries),
        ("predicates.positions_per_req", first.counters.positions),
        ("algebra.tuples_per_req", first.counters.tuples),
    ] {
        rec.count(name, value);
        out.push(Metric::plain(name, "count", value as f64 / n, sample.len()));
    }
    let pruned = first.topk_counters.skipped as f64;
    out.push(Metric::plain(
        "scoring.prune_ratio",
        "ratio",
        pruned / (pruned + first.topk_counters.entries as f64).max(1.0),
        1,
    ));
    for (metric, span) in [
        ("lang.parse_us", "lang.parse"),
        ("lang.classify_us", "lang.classify"),
        ("lang.lower_us", "lang.lower"),
        ("calculus.check_us", "calculus.check"),
        ("exec.plan_us", "exec.plan"),
        ("algebra.translate_us", "algebra.translate"),
        ("algebra.eval_us", "algebra.eval"),
    ] {
        out.push(timing(&rec, metric, span));
    }
    for t in Template::ALL {
        out.push(timing(
            &rec,
            &format!("exec.{}_us", t.name()),
            t.exec_span(),
        ));
    }
    out.push(Metric::timing("core.search_self_us", "us", core_self));
    let (traced, untraced) = (stats::median(traced_ns), stats::median(untraced_ns));
    out.push(Metric::plain(
        "bench.tracing_overhead_pct",
        "%",
        (traced - untraced) / untraced * 100.0,
        sample.len(),
    ));

    // ── obs: the engine's own span tree on and off, same sample ───────
    let layers = engine.layers();
    let mut scratch = Scratch::new();
    let mut engine_pass = |trace: bool| -> Result<f64, String> {
        let view = layers.snapshot();
        let stats = layers.stats(&view);
        let t = Instant::now();
        for &q in &sample {
            match &pool_queries[q as usize].request {
                Request::Search { query } => {
                    layers.run_search(&view, &layers.parse(query)?, trace)?;
                }
                Request::TopK { query, k, .. } => {
                    layers.run_top_k(
                        &view,
                        &layers.parse(query)?,
                        &stats,
                        *k,
                        &mut scratch,
                        trace,
                    )?;
                }
                Request::Near {
                    first,
                    second,
                    bound,
                    ordered,
                    k,
                } => {
                    layers.run_near(
                        &view,
                        first,
                        second,
                        *bound,
                        *ordered,
                        *k,
                        &mut scratch,
                        trace,
                    );
                }
            }
        }
        Ok(t.elapsed().as_nanos() as f64)
    };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        plain.push(engine_pass(false)?);
        traced.push(engine_pass(true)?);
    }
    let (plain, traced) = (stats::median(plain), stats::median(traced));
    out.push(Metric::plain(
        "obs.trace_overhead_pct",
        "%",
        (traced - plain) / plain * 100.0,
        sample.len(),
    ));

    // ── exec: the ladder series on forced engines ─────────────────────
    let rounds = sizes.trace_ladder_rounds;
    for round in 0..rounds {
        for q in &inputs.ladder {
            let reply = rec.span(q.span, || engine.search_forced(&q.text, q.series.engine()));
            if round == 0 {
                checks.expect(reply.is_ok(), || format!("{}: {reply:?}", q.span));
            }
        }
    }
    for q in &inputs.ladder {
        out.push(timing(&rec, &format!("{}_us", q.span), q.span));
    }

    // ── index: cursors over a hot, a middling and a rare list ─────────
    let order = inputs.corpus.by_frequency();
    let probe_tokens: Vec<String> = [0, order.len() / 64, order.len() / 4]
        .iter()
        .map(|&rank| inputs.corpus.token_name(order[rank.min(order.len() - 1)]))
        .collect();
    let (hot_a, hot_b) = (
        inputs.corpus.token_name(order[0]),
        inputs.corpus.token_name(order[1.min(order.len() - 1)]),
    );
    let view = layers.snapshot();
    let costs = rec.span("index.cursor_probe", || {
        sut::cursor_costs(&view, &probe_tokens, (&hot_a, &hot_b), 20)
    });
    out.push(Metric::plain(
        "index.scan_ns_per_entry",
        "ns",
        costs.scan_ns_per_entry,
        20,
    ));
    out.push(Metric::plain("index.seek_ns", "ns", costs.seek_ns, 20));
    out.push(Metric::plain(
        "index.positions_ns_per_pos",
        "ns",
        costs.positions_ns_per_pos,
        20,
    ));
    out.push(Metric::plain(
        "index.pair_scan_ns_per_entry",
        "ns",
        costs.pair_scan_ns_per_entry,
        20,
    ));
    out.push(Metric::plain(
        "index.segments",
        "count",
        view.segments() as f64,
        1,
    ));

    // ── index, model: build, persistence and the write path ───────────
    let slice = &docs[..sizes.probe_docs.min(docs.len())];
    let b = rec.span("index.build_probe", || sut::build_costs(slice))?;
    for (name, unit, value) in [
        (
            "index.build_primary_ms_per_kdoc",
            "ms",
            b.build_primary_ms_per_kdoc,
        ),
        (
            "index.build_pairs_ms_per_kdoc",
            "ms",
            b.build_pairs_ms_per_kdoc,
        ),
        ("index.pair_bytes_share", "ratio", b.pair_bytes_share),
        ("index.persist_encode_mb_s", "MB/s", b.persist_encode_mb_s),
        ("index.persist_decode_mb_s", "MB/s", b.persist_decode_mb_s),
        ("model.tokenize_us_per_doc", "us", b.tokenize_us_per_doc),
    ] {
        out.push(Metric::plain(name, unit, value, slice.len()));
    }
    write_path(slice, &mut rec, &mut out);

    // ── scoring ───────────────────────────────────────────────────────
    out.push(Metric::plain(
        "scoring.topk_push_ns",
        "ns",
        sut::topk_push_ns(10, 200_000),
        200_000,
    ));
    for _ in 0..5 {
        rec.span("scoring.compute_stats", || layers.compute_stats(&view));
    }
    out.push(timing(
        &rec,
        "scoring.snapshot_stats_us",
        "scoring.compute_stats",
    ));

    // ── diagnostic, never gated ───────────────────────────────────────
    let stall_for = sizes.stall_seconds.min(seconds / 4.0);
    let stall = rec.span("bench.stall_probe", || {
        stall_max_ms(slice, &first_read, stall_for)
    });
    out.push(Metric::plain("bench.stall_max_ms", "ms", stall, 1));
    Ok((out, rec))
}
