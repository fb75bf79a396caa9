//! Evaluation lanes: `ServePool::execute` runs on its caller's thread, at
//! most `workers` requests evaluate at once, a panicking query is an `Err`
//! that costs no lane, and a lane's counters add up per-request deltas
//! whichever thread called.

use ftsl_core::{Ftsl, FtslError};
use ftsl_index::scratch_pool_stats;
use ftsl_model::Position;
use ftsl_predicates::{PredKind, Predicate};
use ftsl_serve::{MetricValue, QueryRequest, ServeConfig, ServePool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A one-position general predicate (so queries naming it run on COMP)
/// that is true everywhere and reports each evaluation to `on_eval`.
struct Probe<F> {
    name: &'static str,
    on_eval: F,
}

impl<F> std::fmt::Debug for Probe<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Probe({})", self.name)
    }
}

impl<F: Fn() + Send + Sync> Predicate for Probe<F> {
    fn name(&self) -> &str {
        self.name
    }
    fn arity(&self) -> usize {
        1
    }
    fn num_consts(&self) -> usize {
        0
    }
    fn kind(&self) -> PredKind {
        PredKind::General
    }
    fn eval(&self, _: &[Position], _: &[i64]) -> bool {
        (self.on_eval)();
        true
    }
}

/// `'a'` through the named predicate; `var` makes the text (and so the
/// cache key) distinct without changing the answer.
fn probed(predicate: &str, var: &str) -> QueryRequest {
    QueryRequest::search(&format!(
        "SOME {var} ({var} HAS 'a' AND {predicate}({var}))"
    ))
}

fn engine_with(probe: impl Predicate + 'static) -> Arc<Ftsl> {
    let mut engine = Ftsl::from_texts(&["a b", "b c"]);
    engine.registry_mut().register(Arc::new(probe));
    Arc::new(engine)
}

#[test]
fn a_panicking_query_is_an_error_and_the_lanes_keep_serving() {
    let pool = ServePool::new(
        engine_with(Probe {
            name: "boom",
            on_eval: || panic!("boom predicate"),
        }),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    for i in 0..5 {
        match pool.execute(probed("boom", &format!("p{i}"))) {
            Err(FtslError::Internal(msg)) => assert!(msg.contains("boom predicate"), "{msg}"),
            other => panic!("a panic must come back as Internal, got {other:?}"),
        }
    }
    // Both lanes are still there: two callers are served at once.
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                start.wait();
                let served = pool.execute(QueryRequest::search("'b'")).expect("served");
                assert_eq!(served.answer.as_search().unwrap().node_ids(), vec![0, 1]);
            });
        }
    });
    let stats = pool.stats();
    assert_eq!(stats.workers.iter().map(|w| w.panics).sum::<u64>(), 5);
    assert_eq!(
        stats.served(),
        7,
        "a panicked request is served with an Err"
    );
    assert_eq!(stats.in_flight, 0);
    match pool.registry().get("ftsl_serve_panics_total") {
        Some(MetricValue::Counter(n)) => assert_eq!(n, 5),
        other => panic!("unexpected sample: {other:?}"),
    }
}

#[test]
fn at_most_workers_requests_evaluate_at_once() {
    let running = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let (r, p) = (Arc::clone(&running), Arc::clone(&peak));
    let pool = ServePool::new(
        engine_with(Probe {
            name: "slow",
            on_eval: move || {
                p.fetch_max(r.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                r.fetch_sub(1, Ordering::SeqCst);
            },
        }),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    const CALLERS: usize = 6;
    const PER_CALLER: usize = 4;
    let start = Barrier::new(CALLERS);
    std::thread::scope(|scope| {
        for c in 0..CALLERS {
            let (pool, start) = (&pool, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..PER_CALLER {
                    let served = pool
                        .execute(probed("slow", &format!("p{c}x{i}")))
                        .expect("answered");
                    assert!(!served.cached, "distinct texts all evaluate");
                    assert_eq!(served.answer.as_search().unwrap().node_ids(), vec![0]);
                }
            });
        }
    });
    let peak = peak.load(Ordering::SeqCst);
    assert!((1..=2).contains(&peak), "{peak} evaluations ran at once");
    let stats = pool.stats();
    assert_eq!(stats.served(), (CALLERS * PER_CALLER) as u64);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn lane_scratch_counters_sum_every_callers_deltas() {
    let texts: Vec<String> = (0..40)
        .map(|i| format!("common w{} filler", i % 6))
        .collect();
    let pool = ServePool::new(
        Arc::new(Ftsl::from_texts(&texts)),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    const ROUNDS: usize = 6;
    // Two threads take turns on the one lane, one request per round.
    let turn = Barrier::new(2);
    let (reused, allocated) = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..2)
            .map(|t| {
                let (pool, turn) = (&pool, &turn);
                scope.spawn(move || {
                    let before = scratch_pool_stats();
                    for round in 0..ROUNDS {
                        if round % 2 == t {
                            let q = format!("'common' AND 'w{round}'");
                            let served = pool.execute(QueryRequest::search(&q)).expect("served");
                            assert!(!served.cached);
                        }
                        turn.wait();
                    }
                    let after = scratch_pool_stats();
                    (
                        after.reused - before.reused,
                        after.allocated - before.allocated,
                    )
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .fold((0, 0), |(r, a), (dr, da)| (r + dr, a + da))
    });
    assert!(reused + allocated > 0, "the queries walked cursors");
    let lane = pool.stats().workers[0];
    assert_eq!(
        (lane.scratch_reused, lane.scratch_allocated),
        (reused, allocated)
    );
}
