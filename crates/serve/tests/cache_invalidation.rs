//! Result-cache correctness: version-keyed invalidation and exact
//! counters under concurrent access.

use ftsl_core::{Ftsl, LiveConfig, RankModel};
use ftsl_serve::{QueryRequest, ResultCache, ServeConfig, ServeContext, ServePool};
use std::sync::Arc;

fn manual_engine() -> Arc<Ftsl> {
    let engine = Ftsl::with_config(LiveConfig {
        background_merge: false,
        ..LiveConfig::default()
    });
    engine.add("usability of a software system measures how well it works");
    engine.add("an efficient algorithm for task completion");
    engine.flush();
    Arc::new(engine)
}

#[test]
fn stale_version_entry_is_never_served_after_a_bump() {
    let engine = manual_engine();
    let cache = Arc::new(ResultCache::new(64));
    let mut ctx = ServeContext::new(Arc::clone(&engine), Arc::clone(&cache));
    let req = QueryRequest::search("'software'");

    let first = ctx.serve(&req).unwrap();
    assert!(!first.cached);
    let warm = ctx.serve(&req).unwrap();
    assert!(warm.cached, "same version: cache hit");
    assert_eq!(warm.version, first.version);

    // A write bumps the version; a matching doc changes the right answer.
    engine.add("another software document");
    engine.flush();
    let after = ctx.serve(&req).unwrap();
    assert!(
        !after.cached,
        "bumped version: the old entry is unreachable"
    );
    assert_ne!(after.version, first.version);
    assert_eq!(
        after.answer.as_search().unwrap().len(),
        first.answer.as_search().unwrap().len() + 1,
        "the fresh answer sees the new document"
    );

    // The same holds for ranked answers.
    let top = QueryRequest::top_k("'software' OR 'efficient'", RankModel::TfIdf, 3);
    let a = ctx.serve(&top).unwrap();
    assert!(!a.cached);
    assert!(ctx.serve(&top).unwrap().cached);
    engine.delete(ftsl_model::NodeId(1));
    let b = ctx.serve(&top).unwrap();
    assert!(!b.cached, "delete bumps the version too");
    assert_ne!(
        a.answer.as_top_k().unwrap().hits,
        b.answer.as_top_k().unwrap().hits,
    );
}

#[test]
fn distinct_request_shapes_never_collide() {
    let engine = manual_engine();
    let cache = Arc::new(ResultCache::new(64));
    let mut ctx = ServeContext::new(Arc::clone(&engine), Arc::clone(&cache));
    // Same text, four different shapes: all four must evaluate (miss).
    let reqs = [
        QueryRequest::search("'software'"),
        QueryRequest::top_k("'software'", RankModel::TfIdf, 10),
        QueryRequest::top_k("'software'", RankModel::TfIdf, 5),
        QueryRequest::top_k("'software'", RankModel::Pra, 10),
    ];
    for req in &reqs {
        assert!(!ctx.serve(req).unwrap().cached, "{req:?}");
    }
    for req in &reqs {
        assert!(ctx.serve(req).unwrap().cached, "{req:?}");
    }
    // Normalization: surrounding whitespace does not duplicate entries.
    assert!(
        ctx.serve(&QueryRequest::search("  'software'  "))
            .unwrap()
            .cached
    );
}

#[test]
fn hit_and_miss_counters_are_exact_under_concurrent_access() {
    let engine = manual_engine();
    let pool = ServePool::new(
        Arc::clone(&engine),
        ServeConfig {
            workers: 4,
            cache_capacity: 64,
        },
    );
    let queries = ["'software'", "'efficient'", "'usability'", "'algorithm'"];
    // Warm phase: every distinct query misses exactly once.
    for q in &queries {
        assert!(!pool.execute(QueryRequest::search(q)).unwrap().cached);
    }
    // Hot phase: hammer the warm cache from several client threads; the
    // version never moves, so every single lookup must hit.
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 50;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let pool = &pool;
            scope.spawn(move || {
                for i in 0..PER_CLIENT {
                    let q = queries[(c + i) % queries.len()];
                    let served = pool.execute(QueryRequest::search(q)).unwrap();
                    assert!(served.cached);
                }
            });
        }
    });
    let stats = pool.stats();
    let total = (CLIENTS * PER_CLIENT + queries.len()) as u64;
    assert_eq!(stats.served(), total, "every request accounted for");
    assert_eq!(stats.cache.misses, queries.len() as u64);
    assert_eq!(stats.cache.hits, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(
        stats.cache.hits + stats.cache.misses,
        total,
        "hits + misses == lookups, exactly"
    );
    assert_eq!(stats.cache_hits(), stats.cache.hits, "lane view agrees");
}

/// An engine written to after start-up, and one sealed from texts and
/// handed to the pool as is: pooled answers equal direct calls on both.
#[test]
fn pool_answers_match_direct_execution() {
    let written = manual_engine();
    written.add("software usability testing with efficient tools");
    let sealed = Arc::new(Ftsl::from_texts(&[
        "usability of a software system measures how well it works",
        "an efficient algorithm for task completion",
        "software usability testing with efficient tools",
    ]));
    for engine in [written, sealed] {
        let pool = ServePool::new(
            Arc::clone(&engine),
            ServeConfig {
                workers: 3,
                cache_capacity: 16,
            },
        );
        for q in ["'software'", "'software' AND 'usability'", "'nothing'"] {
            let direct = engine.search(q).unwrap();
            let served = pool.execute(QueryRequest::search(q)).unwrap();
            assert_eq!(
                served.answer.as_search().unwrap().node_ids(),
                direct.node_ids(),
                "{q}"
            );
        }
        let same_hits = |served: &[(ftsl_model::NodeId, f64)],
                         direct: &[(ftsl_model::NodeId, f64)]| {
            assert_eq!(served.len(), direct.len());
            for (a, b) in served.iter().zip(direct) {
                assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()));
            }
        };
        for model in [RankModel::TfIdf, RankModel::Pra] {
            let direct = engine
                .search_top_k("'software' OR 'usability'", model, 2)
                .unwrap();
            let served = pool
                .execute(QueryRequest::top_k("'software' OR 'usability'", model, 2))
                .unwrap();
            same_hits(&served.answer.as_top_k().unwrap().hits, &direct.hits);
        }
        let direct = engine.search_near_top_k("software", "usability", 4, false, 5);
        assert!(!direct.hits.is_empty());
        let served = pool
            .execute(QueryRequest::near("software", "usability", 4, false, 5))
            .unwrap();
        same_hits(&served.answer.as_near().unwrap().hits, &direct.hits);
        // Errors come back to the requester and are never cached.
        let bad = QueryRequest::search("'unterminated");
        assert!(pool.execute(bad.clone()).is_err());
        assert!(pool.execute(bad).is_err());
        let stats = pool.stats();
        assert_eq!(stats.cache.entries as u64, stats.cache.insertions);
    }
}

#[test]
fn eviction_prefers_stale_versions_then_lru() {
    let engine = manual_engine();
    let cache = Arc::new(ResultCache::new(2));
    let mut ctx = ServeContext::new(Arc::clone(&engine), Arc::clone(&cache));
    ctx.serve(&QueryRequest::search("'software'")).unwrap();
    engine.add("churn"); // stale-ify the first entry
    ctx.serve(&QueryRequest::search("'efficient'")).unwrap();
    ctx.serve(&QueryRequest::search("'usability'")).unwrap(); // evicts the stale one
    let stats = cache.stats();
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.evictions, 1);
    // Both current-version entries survived the eviction.
    assert!(
        ctx.serve(&QueryRequest::search("'efficient'"))
            .unwrap()
            .cached
    );
    assert!(
        ctx.serve(&QueryRequest::search("'usability'"))
            .unwrap()
            .cached
    );
}
