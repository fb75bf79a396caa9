//! COMP materializes per-node cross products, so query text can ask for
//! more rows than memory holds. The node-at-a-time evaluator refuses a
//! node whose relations would pass `MAX_NODE_POSITIONS` before allocating:
//! the query is an `Err`, never an OOM, and the serve lane keeps serving.
//! Exhaustive ranking — and the top-k fallback to it — is the same
//! evaluator with a score column, under the same budget.

use ftsl::core::{Ftsl, FtslError, RankModel};
use ftsl::serve::{QueryRequest, ServeConfig, ServePoolExt};
use std::sync::Arc;

/// Eight positions of `t` per node: 200⁸ rows on the repeated document.
/// The general `exact_gap` predicate is what sends it to COMP.
fn eight_way() -> String {
    let body: Vec<String> = (1..=8).map(|i| format!("p{i} HAS 't'")).collect();
    (1..=8).rev().fold(
        format!("{} AND exact_gap(p1,p2,0)", body.join(" AND ")),
        |q, i| format!("SOME p{i} ({q})"),
    )
}

fn engine() -> Arc<Ftsl> {
    let repeated = vec!["t"; 200].join(" ");
    Arc::new(Ftsl::from_texts(&["t u", repeated.as_str(), "u"]))
}

/// A refusal is an execution error naming the budget.
fn assert_refused<T: std::fmt::Debug>(result: Result<T, FtslError>) {
    match result {
        Err(FtslError::Exec(msg)) => assert!(msg.contains("per-node budget"), "{msg}"),
        other => panic!("200⁸ rows must be refused, got {other:?}"),
    }
}

#[test]
fn search_refuses_a_hostile_cross_product() {
    let e = engine();
    assert_refused(e.search(&eight_way()));
    // The same engine still answers COMP queries that fit.
    let hits = e
        .search("SOME p1 SOME p2 (p1 HAS 't' AND p2 HAS 't' AND exact_gap(p1,p2,0))")
        .expect("200² rows fit");
    assert_eq!(hits.node_ids(), vec![1]);
}

#[test]
fn a_pool_worker_survives_a_hostile_cross_product() {
    let pool = engine().serve_pool(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let err = pool
        .execute(QueryRequest::search(&eight_way()))
        .expect_err("over the per-node budget");
    assert!(err.to_string().contains("per-node budget"), "{err}");
    // The one lane is still there for the next request.
    let served = pool.execute(QueryRequest::search("'u'")).expect("served");
    assert_eq!(served.answer.as_search().unwrap().node_ids(), vec![0, 2]);
    assert_eq!(pool.stats().served(), 2);
}

#[test]
fn ranking_refuses_a_hostile_cross_product() {
    let e = engine();
    for model in [RankModel::TfIdf, RankModel::Pra] {
        assert_refused(e.search_ranked(&eight_way(), model));
        // Neither model streams a COMP query: top-k falls back to ranking.
        assert_refused(e.search_top_k(&eight_way(), model, 3));
    }
    let ranked = e
        .search_ranked(
            "SOME p1 SOME p2 (p1 HAS 't' AND p2 HAS 't' AND exact_gap(p1,p2,0))",
            RankModel::Pra,
        )
        .expect("200² rows fit");
    assert_eq!(ranked.hits.len(), 1);
    assert_eq!(ranked.hits[0].0 .0, 1);
}

#[test]
fn a_pool_worker_survives_a_hostile_ranked_request() {
    let pool = engine().serve_pool(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    for model in [RankModel::TfIdf, RankModel::Pra] {
        let err = pool
            .execute(QueryRequest::top_k(&eight_way(), model, 3))
            .expect_err("over the per-node budget");
        assert!(matches!(err, FtslError::Exec(_)), "{err:?}");
        assert!(err.to_string().contains("per-node budget"), "{err}");
        // The one lane is still there for the next request.
        let served = pool
            .execute(QueryRequest::top_k("'u'", model, 3))
            .expect("served");
        let hits = &served.answer.as_top_k().unwrap().hits;
        assert_eq!(hits.len(), 2);
    }
    assert_eq!(pool.stats().served(), 4);
}
