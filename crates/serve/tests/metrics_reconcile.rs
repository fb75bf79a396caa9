//! Observability reconciliation: the Prometheus export, `PoolStats`, and
//! `CacheStats` must agree exactly once the pool is quiescent, and the
//! slow-query log must capture exactly the requests over threshold.

use ftsl_core::{Ftsl, LiveConfig, RankModel};
use ftsl_exec::engine::ExecOptions;
use ftsl_serve::{MetricValue, QueryRequest, ServeConfig, ServePool};
use std::sync::Arc;

fn engine_with(options: Option<ExecOptions>) -> Arc<Ftsl> {
    let mut engine = Ftsl::with_config(LiveConfig {
        background_merge: false,
        ..LiveConfig::default()
    });
    if let Some(options) = options {
        engine = engine.with_options(options);
    }
    engine.add("usability of a software system measures how well it works");
    engine.add("an efficient algorithm for software task completion");
    engine.add("software usability testing with efficient tools");
    engine.flush();
    Arc::new(engine)
}

/// Pull one scalar sample out of the Prometheus text export.
fn prom_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|l| l.split_whitespace().next() == Some(name) && !l.starts_with('#'))
        .unwrap_or_else(|| panic!("metric {name} missing from export:\n{text}"))
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn prometheus_export_reconciles_with_pool_stats_after_concurrent_load() {
    let engine = engine_with(None);
    let pool = ServePool::new(
        Arc::clone(&engine),
        ServeConfig {
            workers: 4,
            cache_capacity: 64,
        },
    );
    let queries = ["'software'", "'efficient'", "'usability'", "'algorithm'"];
    // Eight callers on four lanes; once every scoped thread has joined,
    // the pool is quiescent and counters must reconcile exactly.
    const CALLERS: usize = 8;
    const PER_CALLER: usize = 25;
    std::thread::scope(|scope| {
        for c in 0..CALLERS {
            let pool = &pool;
            scope.spawn(move || {
                for i in 0..PER_CALLER {
                    let q = queries[(c + i) % queries.len()];
                    let req = if i % 3 == 0 {
                        QueryRequest::top_k(q, RankModel::TfIdf, 5)
                    } else {
                        QueryRequest::search(q)
                    };
                    pool.execute(req).unwrap();
                }
            });
        }
    });
    let total = (CALLERS * PER_CALLER) as u64;

    let stats = pool.stats();
    assert_eq!(stats.served(), total);
    assert_eq!(stats.cache.hits + stats.cache.misses, total);
    assert_eq!(stats.cache_hits(), stats.cache.hits);
    assert_eq!(stats.in_flight, 0, "quiescent: every lane checked back in");
    assert_eq!(
        stats.latency.count(),
        total,
        "metrics on: every request lands in the latency histogram"
    );

    let text = pool.metrics_text();
    assert_eq!(prom_value(&text, "ftsl_serve_requests_total"), total);
    assert_eq!(prom_value(&text, "ftsl_serve_in_flight"), 0);
    assert_eq!(
        prom_value(&text, "ftsl_serve_lane_waits_total"),
        stats.lane_waits
    );
    assert_eq!(prom_value(&text, "ftsl_serve_panics_total"), 0);
    assert_eq!(
        prom_value(&text, "ftsl_serve_cache_hits_total"),
        stats.cache.hits
    );
    assert_eq!(
        prom_value(&text, "ftsl_result_cache_hits_total"),
        stats.cache.hits
    );
    assert_eq!(
        prom_value(&text, "ftsl_result_cache_misses_total"),
        stats.cache.misses
    );
    assert_eq!(
        prom_value(&text, "ftsl_result_cache_insertions_total"),
        stats.cache.insertions
    );
    assert_eq!(
        prom_value(&text, "ftsl_result_cache_entries"),
        stats.cache.entries as u64
    );
    assert_eq!(prom_value(&text, "ftsl_request_duration_us_count"), total);
    assert_eq!(prom_value(&text, "ftsl_engine_version"), engine.version());
    assert_eq!(prom_value(&text, "ftsl_engine_live_docs"), 3);
    assert!(
        prom_value(&text, "ftsl_index_resident_bytes") > 0,
        "segments are resident"
    );
    assert!(
        prom_value(&text, "ftsl_index_pair_bytes") > 0,
        "pair auxiliary lists are built by default"
    );
    // Well-formedness: every sample line's metric has HELP and TYPE.
    for name in [
        "ftsl_serve_requests_total",
        "ftsl_request_duration_us",
        "ftsl_result_cache_hits_total",
        "ftsl_slow_queries_total",
    ] {
        assert!(text.contains(&format!("# HELP {name} ")), "HELP for {name}");
        assert!(text.contains(&format!("# TYPE {name} ")), "TYPE for {name}");
    }
    // The histogram's +Inf bucket equals its _count.
    assert!(text.contains(&format!(
        "ftsl_request_duration_us_bucket{{le=\"+Inf\"}} {total}"
    )));

    // JSON export carries the same totals.
    let json = pool.metrics_json();
    assert!(json.contains(&format!(
        "\"ftsl_serve_requests_total\":{{\"type\":\"counter\",\"value\":{total}}}"
    )));

    // Registry point lookups agree too.
    match pool.registry().get("ftsl_serve_requests_total") {
        Some(MetricValue::Counter(v)) => assert_eq!(v, total),
        other => panic!("unexpected sample: {other:?}"),
    }
}

#[test]
fn slow_log_captures_over_threshold_with_summary() {
    let engine = engine_with(None);
    let pool = ServePool::new(
        Arc::clone(&engine),
        ServeConfig {
            workers: 2,
            cache_capacity: 16,
        },
    );
    pool.slow_log().set_threshold_us(1); // everything qualifies
    pool.execute(QueryRequest::search("'software' AND 'usability'"))
        .unwrap();
    pool.execute(QueryRequest::near("software", "usability", 8, false, 5))
        .unwrap();

    let slow = pool.slow_log();
    assert_eq!(slow.total(), 2);
    let entries = slow.entries();
    assert_eq!(entries.len(), 2);
    // Most recent first.
    assert!(
        entries[0].query.starts_with("near "),
        "{}",
        entries[0].query
    );
    assert_eq!(entries[1].query, "'software' AND 'usability'");
    for e in &entries {
        assert!(e.micros >= 1);
        assert!(e.summary.contains("hits="), "summary: {}", e.summary);
    }
    assert_eq!(
        prom_value(&pool.metrics_text(), "ftsl_slow_queries_total"),
        2
    );

    // Runtime threshold adjustment: raise it and nothing new is captured.
    slow.set_threshold_us(u64::MAX);
    pool.execute(QueryRequest::search("'efficient'")).unwrap();
    assert_eq!(slow.total(), 2);
}

#[test]
fn slow_log_carries_full_trace_when_engine_traces() {
    let engine = engine_with(Some(ExecOptions {
        trace: true,
        ..ExecOptions::default()
    }));
    let pool = ServePool::new(
        Arc::clone(&engine),
        ServeConfig {
            workers: 1,
            cache_capacity: 16,
        },
    );
    pool.slow_log().set_threshold_us(1);
    pool.execute(QueryRequest::search("'software' AND 'usability'"))
        .unwrap();
    let entries = pool.slow_log().entries();
    assert_eq!(entries.len(), 1);
    let trace = entries[0]
        .trace
        .as_ref()
        .expect("traced engine: slow entry carries the span tree");
    assert!(
        trace.find("engine").is_some(),
        "profile has an engine span:\n{}",
        trace.render()
    );
}
