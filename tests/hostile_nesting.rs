//! Query text is untrusted: nesting that would overflow the stack must
//! come back as an `Err`, never as a dead process or a lost serve lane.
//!
//! Everything here runs on a 2 MB thread — the stack std gives a spawned
//! thread, and so the least a `ServePool` caller evaluates on (a lane runs
//! its request on the caller's own stack) — so the test that accepts a
//! query just under [`MAX_NESTING`] is the proof that the constant is
//! safe for every recursive pass between the parser and the engines.

use ftsl::core::{Ftsl, FtslError, RankModel};
use ftsl::exec::engine::{EngineKind, EngineUsed, ExecOptions, PreparedQuery};
use ftsl::exec::{ExecError, PlanError};
use ftsl::lang::{classify, lower, parse, LangError, Mode, MAX_NESTING};
use ftsl::predicates::PredicateRegistry;
use ftsl::serve::{QueryRequest, ServeConfig, ServePool};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKER_STACK: usize = 2 * 1024 * 1024;

fn on_worker_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(WORKER_STACK)
            .spawn_scoped(scope, f)
            .expect("spawn")
            .join()
            .expect("the thread must not die")
    })
}

fn parens(n: usize) -> String {
    format!("{}'a'{}", "(".repeat(n), ")".repeat(n))
}

fn nots(n: usize) -> String {
    format!("{}'a'", "NOT ".repeat(n))
}

fn somes(n: usize) -> String {
    format!("{}p HAS 'a'", "SOME p ".repeat(n))
}

fn and_chain(terms: usize) -> String {
    vec!["'a'"; terms].join(" AND ")
}

/// `n` variables on `'a'`, each consecutive two `not_ordered`: NPRED's
/// partial orders permute all `n`, so it would scan `n!` orderings.
fn unordered_chain(n: usize) -> String {
    let vars: String = (0..n).map(|i| format!("SOME p{i} ")).collect();
    let has: Vec<String> = (0..n).map(|i| format!("p{i} HAS 'a'")).collect();
    let preds: Vec<String> = (1..n)
        .map(|i| format!("not_ordered(p{},p{i})", i - 1))
        .collect();
    format!("{vars}({} AND {})", has.join(" AND "), preds.join(" AND "))
}

/// The four shapes of the issue, 100k deep each.
fn hostile() -> [String; 4] {
    let n = 100_000;
    [parens(n), nots(n), somes(n), and_chain(n)]
}

fn engine() -> Ftsl {
    Ftsl::from_texts(&["a b", "b c", "a"])
}

#[test]
fn hostile_nesting_is_a_parse_error() {
    on_worker_stack(|| {
        for query in hostile() {
            assert_eq!(
                parse(&query, Mode::Comp),
                Err(LangError::TooDeep { limit: MAX_NESTING }),
                "{}…",
                &query[..24]
            );
        }
    });
}

#[test]
fn search_returns_err_instead_of_overflowing() {
    let e = engine();
    on_worker_stack(|| {
        for query in hostile() {
            match e.search(&query) {
                Err(FtslError::Lang(msg)) => assert!(msg.contains("nests deeper"), "{msg}"),
                other => panic!("{}… gave {other:?}", &query[..24]),
            }
            assert!(e.search_top_k(&query, RankModel::Pra, 3).is_err());
            assert!(e.explain_analyze(&query).is_err());
        }
    });
}

#[test]
fn a_pool_worker_survives_hostile_requests() {
    let pool = ServePool::new(
        Arc::new(engine()),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    for query in hostile() {
        let err = pool
            .execute(QueryRequest::search(&query))
            .expect_err("too deep");
        assert!(err.to_string().contains("nests deeper"), "{err}");
        // The one lane is still there for the next request.
        let served = pool.execute(QueryRequest::search("'a'")).expect("served");
        assert_eq!(served.answer.as_search().unwrap().node_ids(), vec![0, 2]);
    }
    assert_eq!(pool.stats().served(), 8);
}

/// Twelve variables would be 479 001 600 NPRED orderings: Auto runs the
/// query as COMP instead, and a forced NPRED refuses it with a typed error
/// before it builds one.
#[test]
fn npred_ordering_blowup_runs_as_comp_or_is_refused() {
    let e = engine();
    let query = unordered_chain(12);
    let within_a_second = |start: Instant| {
        let took = start.elapsed();
        assert!(took < Duration::from_secs(1), "took {took:?}");
    };

    let start = Instant::now();
    let hits = e.search(&query).expect("Auto answers");
    within_a_second(start);
    assert_eq!(hits.engine, EngineUsed::Comp);
    let comp = e.search_with(&query, Mode::Comp, EngineKind::Comp);
    assert_eq!(comp.expect("COMP answers").nodes, hits.nodes);

    let start = Instant::now();
    match e.search_with(&query, Mode::Comp, EngineKind::Npred) {
        Err(FtslError::Exec(msg)) => assert!(msg.contains("orderings"), "{msg}"),
        other => panic!("forced NPRED gave {other:?}"),
    }
    within_a_second(start);
    // The refusal is typed, and the cap is 7! orderings: seven variables
    // still run as NPRED, eight do not.
    let registry = PredicateRegistry::with_builtins();
    let prepare = |n: usize| {
        let surface = parse(&unordered_chain(n), Mode::Comp).expect("parses");
        PreparedQuery::prepare(
            &surface,
            EngineKind::Npred,
            &registry,
            ExecOptions::default(),
            None,
        )
        .map(|prepared| prepared.engine())
    };
    for n in [8, 12] {
        assert_eq!(
            prepare(n).err(),
            Some(ExecError::Plan(PlanError::TooManyOrderings {
                variables: n
            }))
        );
    }
    assert_eq!(prepare(7).ok(), Some(EngineUsed::Npred));
    let seven = e.search_with(&unordered_chain(7), Mode::Comp, EngineKind::Npred);
    assert_eq!(
        seven.expect("NPRED runs 5 040 orderings").engine,
        EngineUsed::Npred
    );
}

#[test]
fn the_limit_is_exact() {
    for (at_limit, over) in [
        (parens(MAX_NESTING - 1), parens(MAX_NESTING)),
        (nots(MAX_NESTING - 1), nots(MAX_NESTING)),
        (somes(MAX_NESTING - 1), somes(MAX_NESTING)),
        (and_chain(MAX_NESTING), and_chain(MAX_NESTING + 1)),
    ] {
        assert!(parse(&at_limit, Mode::Comp).is_ok(), "{}…", &at_limit[..24]);
        assert_eq!(
            parse(&over, Mode::Comp),
            Err(LangError::TooDeep { limit: MAX_NESTING })
        );
    }
    // Height, not chain length, is what is bounded: half-length chains
    // nested in each other's leftmost operand are as deep as one long one.
    let half = and_chain(MAX_NESTING / 2);
    let nested = format!("({half}) AND {half} AND 'a'");
    assert!(matches!(
        parse(&nested, Mode::Comp),
        Err(LangError::TooDeep { .. })
    ));
    // ...and grouping keeps a query with more terms than the limit shallow.
    let group = format!("({})", and_chain(MAX_NESTING / 2));
    let grouped = vec![group; MAX_NESTING / 2].join(" OR ");
    assert!(parse(&grouped, Mode::Comp).is_ok());
}

/// The proof that `MAX_NESTING` is small enough: the deepest accepted
/// queries go through every recursive pass — parse, classify, rewrite,
/// lower, plan, each engine, ranking, tracing, `Drop` — on a 2 MB stack.
#[test]
fn queries_at_the_limit_run_on_a_worker_stack() {
    let e = engine();
    let registry = PredicateRegistry::with_builtins();
    on_worker_stack(|| {
        for query in [
            and_chain(MAX_NESTING),
            nots(MAX_NESTING - 1),
            parens(MAX_NESTING - 1),
        ] {
            let surface = parse(&query, Mode::Comp).expect("parses");
            classify(&surface, &registry);
            lower(&surface, &registry).expect("lowers");
            let hits = e.search(&query).expect("evaluates");
            let comp = e.search_with(&query, Mode::Comp, EngineKind::Comp);
            assert_eq!(comp.expect("materializes").nodes, hits.nodes);
            // The streaming planner and cursor build recurse too: a `NOT`
            // chain plans as nested `SearchContext − R` filters.
            let npred = e.search_with(&query, Mode::Comp, EngineKind::Npred);
            assert_eq!(npred.expect("streams").nodes, hits.nodes);
            for model in [RankModel::TfIdf, RankModel::Pra] {
                e.search_ranked(&query, model).expect("ranks");
                e.search_top_k(&query, model, 2).expect("ranks");
            }
            e.explain(&query).expect("explains");
            e.explain_analyze(&query).expect("profiles");
        }
        // Nested quantifiers lower to nested projections; evaluating a
        // hundred of them is a different kind of cost, so stop after
        // planning.
        let surface = parse(&somes(MAX_NESTING - 1), Mode::Comp).expect("parses");
        classify(&surface, &registry);
        lower(&surface, &registry).expect("lowers");
        e.explain(&somes(MAX_NESTING - 1)).expect("explains");
    });
}
