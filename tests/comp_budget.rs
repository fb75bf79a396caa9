//! COMP materializes per-node cross products, so query text can ask for
//! more rows than memory holds. The node-at-a-time evaluator refuses a
//! node whose relations would pass `MAX_NODE_POSITIONS` before allocating:
//! the query is an `Err`, never an OOM, and the serve lane keeps serving.
//!
//! Set-semantics search runs the plan with `σ` and `π` pushed below `⋈`,
//! so a predicate over two columns filters only their join, and a leaf no
//! later operator reads joins as one row per node. Only a predicate that
//! binds both sides of every join still needs the whole cross product.
//! Ranking — and top-k's exhaustive arm, where the one top-k dispatch
//! sends every query no stream ranks — is that set answer scored: the
//! class engine finds the answer, under the budget above, and the same
//! evaluator with a score column, under the same budget, scores each
//! answer node through the plan as translated (push-down would change its
//! scores). So ranking refuses a query whose answer holds a node that is
//! over the budget as translated, and never builds a node outside the
//! answer.

use ftsl::algebra::from_calculus::query_to_algebra;
use ftsl::algebra::{AlgebraError, AlgebraEvaluator};
use ftsl::calculus::CalcQuery;
use ftsl::core::{Ftsl, FtslError, RankModel};
use ftsl::lang::{lower, parse, Mode};
use ftsl::model::NodeId;
use ftsl::serve::{QueryRequest, ServeConfig, ServePool};
use std::sync::Arc;

/// Eight positions of `t` per node, quantified, with a general predicate
/// (what sends it to COMP) over `p1` and `p2`. As translated: 200⁸ rows on
/// the repeated document. Pushed down: the 200² pairs `exact_gap`
/// filters, joined with seven one-row semi-joins.
fn eight_way() -> String {
    hostile("exact_gap(p1,p2,0)")
}

/// [`eight_way`] with the predicate over `p1` and `p8`: it binds both
/// sides of the outer join, so the 7-way join below it cannot shrink.
fn spanning() -> String {
    hostile("exact_gap(p1,p8,0)")
}

fn hostile(predicate: &str) -> String {
    let body: Vec<String> = (1..=8).map(|i| format!("p{i} HAS 't'")).collect();
    (1..=8)
        .rev()
        .fold(format!("{} AND {predicate}", body.join(" AND ")), |q, i| {
            format!("SOME p{i} ({q})")
        })
}

/// The repeated document also ends in `v`, the one token no other
/// document holds.
fn engine() -> Arc<Ftsl> {
    let repeated = format!("{} v", vec!["t"; 200].join(" "));
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
    assert_refused(e.search(&spanning()));
    // The same engine still answers COMP queries that fit.
    let hits = e
        .search("SOME p1 SOME p2 (p1 HAS 't' AND p2 HAS 't' AND exact_gap(p1,p2,0))")
        .expect("200² rows fit");
    assert_eq!(hits.node_ids(), vec![1]);
}

#[test]
fn search_answers_a_cross_product_that_push_down_shrinks() {
    let hits = engine().search(&eight_way()).expect("200² rows fit");
    assert_eq!(hits.node_ids(), vec![1]);
}

#[test]
fn a_pool_worker_survives_a_hostile_cross_product() {
    let pool = ServePool::new(
        engine(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let err = pool
        .execute(QueryRequest::search(&spanning()))
        .expect_err("over the per-node budget");
    assert!(err.to_string().contains("per-node budget"), "{err}");
    // The one lane is still there for the next requests.
    let served = pool.execute(QueryRequest::search("'u'")).expect("served");
    assert_eq!(served.answer.as_search().unwrap().node_ids(), vec![0, 2]);
    let served = pool
        .execute(QueryRequest::search(&eight_way()))
        .expect("pushed down, it fits");
    assert_eq!(served.answer.as_search().unwrap().node_ids(), vec![1]);
    assert_eq!(pool.stats().served(), 3);
}

#[test]
fn ranking_refuses_a_hostile_cross_product() {
    let e = engine();
    for model in [RankModel::TfIdf, RankModel::Pra] {
        // Ranking scores the plan as translated, so even the shrinkable
        // query is refused there: its one answer node is the one that
        // blows up.
        for query in [spanning(), eight_way()] {
            assert_refused(e.search_ranked(&query, model));
            // Neither model streams a COMP query: the top-k dispatch
            // sends it to the exhaustive arm and returns its refusal.
            assert_refused(e.search_top_k(&query, model, 3));
        }
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
    let pool = ServePool::new(
        engine(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    for model in [RankModel::TfIdf, RankModel::Pra] {
        let err = pool
            .execute(QueryRequest::top_k(&spanning(), model, 3))
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

/// [`eight_way`] without the repeated document, the one node where its
/// translation needs 200⁸ rows: its answer is empty. The unrestricted
/// ranking, over every candidate of the translated plan, reaches that
/// node and refuses it. Ranking scores only the answer, so it builds no
/// node and answers.
#[test]
fn ranking_answers_a_query_whose_only_refused_node_is_outside_its_answer() {
    let e = engine();
    // The translation joins the eight-way side first, so a node's walk
    // builds it before the `NOT` can empty the join.
    let query = format!("{} AND NOT 'v'", eight_way());
    let reg = e.registry();
    let surface = parse(&query, Mode::Comp).unwrap();
    let alg = query_to_algebra(&CalcQuery::new(lower(&surface, reg).unwrap()), reg).unwrap();
    let snapshot = e.snapshot();
    let data = snapshot.segments()[0].data();
    let err = AlgebraEvaluator::new(data.corpus(), data.index(), reg)
        .rank(&alg)
        .expect_err("the translated plan over every candidate");
    assert!(
        matches!(
            err,
            AlgebraError::BudgetExceeded {
                node: NodeId(1),
                ..
            }
        ),
        "{err}"
    );
    assert!(e.search(&query).expect("pushed down, it fits").is_empty());
    for model in [RankModel::TfIdf, RankModel::Pra] {
        let ranked = e.search_ranked(&query, model).expect("nothing to score");
        assert!(ranked.hits.is_empty());
        let top = e.search_top_k(&query, model, 3).expect("nothing to score");
        assert!(top.hits.is_empty());
    }
}
