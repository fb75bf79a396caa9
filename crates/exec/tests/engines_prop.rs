//! Differential testing of all four engines against the FTC reference
//! interpreter — the executable content of Section 5's correctness claims.
//!
//! Random queries are drawn *within* each language class; every engine that
//! claims the class must agree with the interpreter (and therefore with
//! every other engine).

use ftsl_calculus::interp::Interpreter;
use ftsl_calculus::CalcQuery;
use ftsl_exec::engine::{EngineKind, ExecOptions};
use ftsl_exec::ppred::run_ppred;
use ftsl_exec::SnapshotExecutor;
use ftsl_index::{IndexBuilder, Snapshot};
use ftsl_lang::{classify, lower, LanguageClass, SurfaceQuery};
use ftsl_model::{Corpus, NodeId};
use ftsl_predicates::{AdvanceMode, PredicateRegistry};
use ftsl_testkit::prop_cases;
use proptest::prelude::*;

const VOCAB: [&str; 6] = ["alpha", "beta", "gamma", "delta", "eps", "zeta"];

fn arb_corpus() -> impl Strategy<Value = Corpus> {
    // Documents as token-index sequences; value 100+ inserts a sentence
    // break, 200+ a paragraph break.
    proptest::collection::vec(proptest::collection::vec(0usize..9, 0..14), 1..8).prop_map(|docs| {
        let texts: Vec<String> = docs
            .into_iter()
            .map(|toks| {
                let mut text = String::new();
                for t in toks {
                    match t {
                        0..=5 => {
                            text.push_str(VOCAB[t]);
                            text.push(' ');
                        }
                        6 | 7 => text.push_str(". "),
                        _ => text.push_str("\n\n"),
                    }
                }
                text
            })
            .collect();
        Corpus::from_texts(&texts)
    })
}

/// One positive or negative binary predicate application over bound vars.
fn arb_pred(nvars: usize, allow_negative: bool) -> impl Strategy<Value = SurfaceQuery> {
    let positive = prop_oneof![
        (0..6i64).prop_map(|d| ("distance".to_string(), vec![d])),
        Just(("ordered".to_string(), vec![])),
        Just(("samepara".to_string(), vec![])),
        Just(("samesent".to_string(), vec![])),
        Just(("samepos".to_string(), vec![])),
        (0..8i64).prop_map(|w| ("window".to_string(), vec![w])),
    ];
    let negative = prop_oneof![
        (0..5i64).prop_map(|d| ("not_distance".to_string(), vec![d])),
        Just(("not_ordered".to_string(), vec![])),
        Just(("diffpos".to_string(), vec![])),
        Just(("not_samepara".to_string(), vec![])),
        Just(("not_samesent".to_string(), vec![])),
    ];
    let name_consts = if allow_negative {
        prop_oneof![2 => positive, 3 => negative].boxed()
    } else {
        positive.boxed()
    };
    (name_consts, 0..nvars, 0..nvars).prop_map(|((name, consts), i, j)| SurfaceQuery::Pred {
        name,
        vars: vec![format!("p{i}"), format!("p{j}")],
        consts,
    })
}

/// A random PPRED/NPRED-class query: quantified conjunction of token
/// bindings (possibly OR-alternatives), predicates, and an optional closed
/// negation.
fn arb_stream_query(allow_negative: bool) -> impl Strategy<Value = SurfaceQuery> {
    let bindings = proptest::collection::vec((0..VOCAB.len(), any::<bool>(), 0..VOCAB.len()), 1..4);
    let preds = move |nvars| proptest::collection::vec(arb_pred(nvars, allow_negative), 0..3);
    (bindings, proptest::option::of(0..VOCAB.len())).prop_flat_map(move |(binds, not_tok)| {
        let nvars = binds.len();
        preds(nvars).prop_map(move |preds| {
            let mut conjuncts: Vec<SurfaceQuery> = Vec::new();
            for (i, (tok, use_or, alt)) in binds.iter().enumerate() {
                let var = format!("p{i}");
                let base = SurfaceQuery::VarHas(var.clone(), VOCAB[*tok].to_string());
                let bind = if *use_or {
                    SurfaceQuery::Or(
                        Box::new(base),
                        Box::new(SurfaceQuery::VarHas(var, VOCAB[*alt].to_string())),
                    )
                } else {
                    base
                };
                conjuncts.push(bind);
            }
            conjuncts.extend(preds.clone());
            let mut body = conjuncts
                .into_iter()
                .reduce(|a, b| SurfaceQuery::And(Box::new(a), Box::new(b)))
                .expect("non-empty");
            if let Some(nt) = not_tok {
                body = SurfaceQuery::And(
                    Box::new(body),
                    Box::new(SurfaceQuery::Not(Box::new(SurfaceQuery::Lit(
                        VOCAB[nt].to_string(),
                    )))),
                );
            }
            let mut query = body;
            for i in (0..nvars).rev() {
                query = SurfaceQuery::Some(format!("p{i}"), Box::new(query));
            }
            query
        })
    })
}

/// Random BOOL query.
fn arb_bool_query(depth: u32) -> BoxedStrategy<SurfaceQuery> {
    let leaf = prop_oneof![
        5 => (0..VOCAB.len()).prop_map(|t| SurfaceQuery::Lit(VOCAB[t].to_string())),
        1 => Just(SurfaceQuery::Any),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = arb_bool_query(depth - 1);
    prop_oneof![
        2 => leaf,
        2 => (sub.clone(), sub.clone())
            .prop_map(|(a, b)| SurfaceQuery::And(Box::new(a), Box::new(b))),
        2 => (sub.clone(), sub.clone())
            .prop_map(|(a, b)| SurfaceQuery::Or(Box::new(a), Box::new(b))),
        1 => sub.prop_map(|a| SurfaceQuery::Not(Box::new(a))),
    ]
    .boxed()
}

fn reference(surface: &SurfaceQuery, corpus: &Corpus, reg: &PredicateRegistry) -> Vec<NodeId> {
    let expr = lower(surface, reg).expect("lowers");
    Interpreter::new(corpus, reg).eval_query(&CalcQuery::new(expr))
}

/// `corpus` sealed as one fully live segment.
fn one_segment(corpus: &Corpus) -> Snapshot {
    Snapshot::of_index(corpus.clone(), IndexBuilder::new().build(corpus))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(128)))]

    #[test]
    fn ppred_engine_matches_reference(
        query in arb_stream_query(false),
        corpus in arb_corpus(),
    ) {
        let reg = PredicateRegistry::with_builtins();
        let snapshot = one_segment(&corpus);
        let expected = reference(&query, &corpus, &reg);
        let class = classify(&query, &reg);
        prop_assert!(class <= LanguageClass::Ppred, "generator produced {class}");

        let exec = SnapshotExecutor::new(&snapshot, &reg);
        let got = exec.run_surface(&query, EngineKind::Ppred).expect("ppred runs");
        prop_assert_eq!(&got.nodes, &expected, "PPRED diverged on {}", query.render());

        // Conservative advances must agree with aggressive ones.
        let expr = lower(&query, &reg).expect("lowers");
        let index = snapshot.segments()[0].data().index();
        let (slow, _) = run_ppred(&expr, &corpus, index, &reg, AdvanceMode::Conservative)
            .expect("ppred runs");
        prop_assert_eq!(&slow, &expected, "conservative PPRED diverged");

        // The COMP engine is complete: must agree too.
        let comp = exec.run_surface(&query, EngineKind::Comp).expect("comp runs");
        prop_assert_eq!(&comp.nodes, &expected, "COMP diverged on {}", query.render());
    }

    #[test]
    fn npred_engine_matches_reference(
        query in arb_stream_query(true),
        corpus in arb_corpus(),
    ) {
        let reg = PredicateRegistry::with_builtins();
        let snapshot = one_segment(&corpus);
        let expected = reference(&query, &corpus, &reg);

        let exec = SnapshotExecutor::new(&snapshot, &reg);
        let got = exec.run_surface(&query, EngineKind::Npred).expect("npred runs");
        prop_assert_eq!(&got.nodes, &expected, "NPRED(partial) diverged on {}", query.render());

        let full = SnapshotExecutor::with_options(
            &snapshot, &reg,
            ExecOptions { npred_full_permutations: true, ..Default::default() },
        );
        let got_full = full.run_surface(&query, EngineKind::Npred).expect("npred runs");
        prop_assert_eq!(&got_full.nodes, &expected, "NPRED(full) diverged on {}", query.render());

        let comp = exec.run_surface(&query, EngineKind::Comp).expect("comp runs");
        prop_assert_eq!(&comp.nodes, &expected, "COMP diverged on {}", query.render());
    }

    #[test]
    fn bool_engine_matches_reference(
        query in arb_bool_query(3),
        corpus in arb_corpus(),
    ) {
        let reg = PredicateRegistry::with_builtins();
        let snapshot = one_segment(&corpus);
        let expected = reference(&query, &corpus, &reg);
        let exec = SnapshotExecutor::new(&snapshot, &reg);
        let got = exec.run_surface(&query, EngineKind::Bool).expect("bool runs");
        prop_assert_eq!(&got.nodes, &expected, "BOOL diverged on {}", query.render());

        let comp = exec.run_surface(&query, EngineKind::Comp).expect("comp runs");
        prop_assert_eq!(&comp.nodes, &expected, "COMP diverged on {}", query.render());
    }

    #[test]
    fn auto_dispatch_always_matches_reference(
        query in prop_oneof![arb_stream_query(true), arb_bool_query(2)],
        corpus in arb_corpus(),
    ) {
        let reg = PredicateRegistry::with_builtins();
        let snapshot = one_segment(&corpus);
        let expected = reference(&query, &corpus, &reg);
        let exec = SnapshotExecutor::new(&snapshot, &reg);
        let got = exec.run_surface(&query, EngineKind::Auto).expect("auto runs");
        prop_assert_eq!(&got.nodes, &expected, "auto diverged on {}", query.render());
    }
}
