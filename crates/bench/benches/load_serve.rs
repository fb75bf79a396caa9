//! Closed-loop load harness for the concurrent serving front door.
//!
//! For each lane count in {1, 2, 4, 8}: build a [`ServePool`] over one
//! shared live engine (queries drive the pooled-scratch `BlockCursor`
//! path), run one closed-loop client thread per lane — each request
//! evaluates on its client's thread — issuing a Zipf-skewed mix of BOOL searches and streamed top-k requests,
//! while the main thread churns writes (add/delete/flush — every flush
//! bumps the snapshot version and invalidates the result cache). Reported
//! per case: QPS, p50/p95/p99 request latency, cache hit rate, and mean
//! heap allocations per served query (a [`CountingAlloc`] is installed as
//! the global allocator so the pool's per-lane counters measure real heap
//! traffic).
//!
//! Smoke mode (`FTSL_BENCH_SMOKE=1`) shrinks the corpus and request counts
//! and gates on scaling: with >= 4 cores, 4-lane QPS must be at least 2x
//! 1-lane QPS; on smaller machines (where parallel speedup is
//! physically unavailable) it gates on the counter-level no-contention
//! invariants instead — per-lane served sums to the request total and
//! cache hits + misses account for every lookup, exactly.
//!
//! The write-churn rate is configurable: `FTSL_LOAD_CHURN_US` sets the
//! pause between writer mutations in microseconds (default 200).

use ftsl_bench::results::{smoke, LoadMetrics, ResultsSink};
use ftsl_core::{Ftsl, LiveConfig, RankModel};
use ftsl_corpus::SynthConfig;
use ftsl_serve::{CountingAlloc, QueryRequest, ServeConfig, ServePoolExt};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn corpus_texts(cnodes: usize) -> Vec<String> {
    let corpus = SynthConfig {
        cnodes,
        vocabulary: 1200,
        tokens_per_doc: 50,
        ..SynthConfig::default()
    }
    .plant("rare", 0.02, 4)
    .plant("common", 0.55, 1)
    .plant("mid", 0.15, 2)
    .build();
    let interner = corpus.interner();
    corpus
        .documents()
        .iter()
        .map(|doc| {
            doc.tokens
                .iter()
                .map(|&(t, _)| interner.name(t))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

/// The request mix: BOOL point lookups, a conjunction, and streamed top-k
/// unions, ordered hottest-first so the Zipf skew concentrates on the
/// cheap cacheable head.
fn request_mix() -> Vec<QueryRequest> {
    vec![
        QueryRequest::search("'common'"),
        QueryRequest::top_k("'common' OR 'mid'", RankModel::TfIdf, 10),
        QueryRequest::search("'rare' AND 'common'"),
        QueryRequest::top_k("'rare' OR 'mid'", RankModel::TfIdf, 10),
        QueryRequest::search("'mid'"),
        QueryRequest::top_k("'common' OR 'rare' OR 'mid'", RankModel::TfIdf, 5),
        QueryRequest::search("'rare'"),
        QueryRequest::search("'mid' AND 'common'"),
    ]
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Zipf-ish popularity: square a uniform draw so low indices dominate.
fn skewed_index(state: &mut u64, len: usize) -> usize {
    let u = (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64;
    ((u * u * len as f64) as usize).min(len - 1)
}

struct RunOutcome {
    metrics: LoadMetrics,
    served_by_workers: u64,
    lookups: u64,
    /// Prometheus text export sampled after the run drained.
    metrics_text: String,
}

/// One closed-loop run: `workers` lanes, as many client threads (each
/// request evaluates on its client's thread), `per_client` requests each,
/// writer churn on its own thread until the clients drain. `with_metrics` toggles per-request latency recording
/// ([`ServeConfig::metrics`]) so its cost can be measured head to head;
/// `churn` disables the writer thread for runs that need a fixed-size
/// engine (the metrics on/off comparison, where corpus growth between
/// runs would swamp the effect being measured).
fn run_load(
    engine: &Arc<Ftsl>,
    workers: usize,
    per_client: usize,
    with_metrics: bool,
    churn: bool,
) -> RunOutcome {
    let pool = engine.serve_pool(ServeConfig {
        workers,
        cache_capacity: 256,
        metrics: with_metrics,
        ..ServeConfig::default()
    });
    let mix = request_mix();
    let churn_us: u64 = std::env::var("FTSL_LOAD_CHURN_US")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(workers * per_client);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|c| {
                let (pool, mix) = (&pool, &mix);
                scope.spawn(move || {
                    let mut state = (c as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                    let mut lat = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        let req = mix[skewed_index(&mut state, mix.len())].clone();
                        let t = Instant::now();
                        pool.execute(req).expect("bench queries parse");
                        lat.push(t.elapsed().as_nanos() as u64);
                    }
                    lat
                })
            })
            .collect();

        // Writer churn: live the whole client run, bumping the version
        // (and invalidating the cache) on every flush.
        let writer = scope.spawn(|| {
            let mut round: u32 = 0;
            while churn && !done.load(Ordering::Relaxed) {
                let last = engine.add(&format!("churn{round} common filler mid"));
                if round.is_multiple_of(3) {
                    engine.delete(last);
                }
                if round.is_multiple_of(4) {
                    engine.flush();
                }
                round += 1;
                std::thread::sleep(Duration::from_micros(churn_us));
            }
            if churn {
                engine.flush();
            }
        });

        for h in handles {
            latencies_ns.extend(h.join().expect("client thread"));
        }
        done.store(true, Ordering::Relaxed);
        writer.join().expect("writer thread");
    });

    let elapsed = started.elapsed().as_secs_f64();
    latencies_ns.sort_unstable();
    let pct = |p: f64| {
        let i = ((latencies_ns.len() as f64 * p) as usize).min(latencies_ns.len() - 1);
        latencies_ns[i] as f64 / 1_000.0
    };
    let stats = pool.stats();
    let served = stats.served();
    let allocs: u64 = stats.workers.iter().map(|w| w.allocs).sum();
    RunOutcome {
        metrics: LoadMetrics {
            workers: workers as u32,
            requests: latencies_ns.len() as u64,
            qps: latencies_ns.len() as f64 / elapsed,
            p50_us: pct(0.50),
            p95_us: pct(0.95),
            p99_us: pct(0.99),
            cache_hit: stats.cache.hit_rate(),
            allocs_per_query: allocs as f64 / served.max(1) as f64,
        },
        served_by_workers: stats.workers.iter().map(|w| w.served).sum(),
        lookups: stats.cache.hits + stats.cache.misses,
        metrics_text: pool.metrics_text(),
    }
}

fn main() {
    let (cnodes, per_client) = if smoke() { (600, 300) } else { (3000, 1500) };
    let engine = Arc::new(Ftsl::with_config(LiveConfig {
        background_merge: true,
        ..LiveConfig::default()
    }));
    for text in corpus_texts(cnodes) {
        engine.add(&text);
    }
    engine.flush();

    let mut sink = ResultsSink::new("load_serve");
    let mut by_workers: Vec<(usize, RunOutcome)> = Vec::new();
    for &workers in &[1usize, 2, 4, 8] {
        let outcome = run_load(&engine, workers, per_client, true, true);
        let m = &outcome.metrics;
        println!(
            "load_serve/mixed_w{workers}: {} req, {:.0} QPS, p50 {:.1}µs p95 {:.1}µs \
             p99 {:.1}µs, cache hit {:.1}%, {:.2} allocs/query",
            m.requests,
            m.qps,
            m.p50_us,
            m.p95_us,
            m.p99_us,
            100.0 * m.cache_hit,
            m.allocs_per_query,
        );
        sink.record_load(&format!("mixed_w{workers}"), *m);
        by_workers.push((workers, outcome));
    }

    // Metrics cost gate: the same closed loop with latency recording off
    // vs on. Best-of-2 each way to shrug off scheduler noise; the on/off
    // ratio must stay >= 0.97 (0.90 in smoke, where runs are tiny and a
    // single descheduling skews QPS).
    let gate_workers = if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 4 {
        4
    } else {
        2
    };
    // Churn-free and interleaved (on/off/on/off), so neither side sees a
    // systematically bigger engine or colder cache.
    let gate_run = |with_metrics: bool| {
        run_load(&engine, gate_workers, per_client, with_metrics, false)
            .metrics
            .qps
    };
    gate_run(true); // warm the fixed-size engine once
    let (mut qps_on, mut qps_off) = (f64::MIN, f64::MIN);
    for _ in 0..2 {
        qps_on = qps_on.max(gate_run(true));
        qps_off = qps_off.max(gate_run(false));
    }
    let floor = if smoke() { 0.90 } else { 0.97 };
    println!(
        "load_serve/metrics gate: {qps_on:.0} QPS with metrics vs {qps_off:.0} without \
         ({:.3}x, floor {floor})",
        qps_on / qps_off
    );
    assert!(
        qps_on >= floor * qps_off,
        "per-request metrics cost too much throughput: \
         {qps_on:.0} QPS on vs {qps_off:.0} off"
    );

    // Export the drained 8-lane run's Prometheus snapshot next to
    // BENCH_results.json (uploaded as a CI artifact).
    let snapshot = &by_workers.last().expect("measured").1.metrics_text;
    let prom_path = ftsl_bench::results::default_path().with_file_name("METRICS_snapshot.prom");
    std::fs::write(&prom_path, snapshot).expect("write METRICS_snapshot.prom");
    println!("metrics snapshot written to {}", prom_path.display());

    let path = sink.write().expect("write BENCH_results.json");
    println!("results merged into {}", path.display());

    // The gate. Plenty of cores: demand real parallel speedup. Starved
    // machines: demand the bookkeeping invariants that contention bugs
    // (double-serve, lost lanes, miscounted lookups) would break.
    let qps_at = |want: usize| {
        by_workers
            .iter()
            .find(|(w, _)| *w == want)
            .map(|(_, o)| o.metrics.qps)
            .expect("measured")
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 {
        let (q1, q4) = (qps_at(1), qps_at(4));
        assert!(
            q4 >= 2.0 * q1,
            "serve pool does not scale: {q4:.0} QPS at 4 lanes vs {q1:.0} at 1 \
             ({:.2}x, need 2x)",
            q4 / q1,
        );
        println!(
            "load_serve/gate: 4-lane/1-lane QPS ratio {:.2}x (limit 2x)",
            q4 / q1
        );
    } else {
        for (workers, o) in &by_workers {
            assert_eq!(
                o.served_by_workers, o.metrics.requests,
                "w{workers}: per-lane served must sum to the request total"
            );
            assert_eq!(
                o.lookups, o.metrics.requests,
                "w{workers}: cache hits + misses must account for every lookup"
            );
        }
        println!(
            "load_serve/gate: {cores} core(s) — counter invariants verified \
             (served and lookup accounting exact at every lane count)"
        );
    }
}
