//! Differential testing of all four engines against the FTC reference
//! interpreter — the executable content of Section 5's correctness claims.
//!
//! Random queries are drawn *within* each language class; every engine that
//! claims the class must agree with the interpreter (and therefore with
//! every other engine). The streaming engines' plans are full-text algebra
//! trees, so the algebra evaluator must agree on them too.

use ftsl_algebra::{AlgExpr, AlgebraEvaluator};
use ftsl_calculus::interp::Interpreter;
use ftsl_calculus::CalcQuery;
use ftsl_exec::engine::{EngineKind, ExecOptions};
use ftsl_exec::plan::build_plan;
use ftsl_exec::ppred::run_ppred;
use ftsl_exec::SnapshotExecutor;
use ftsl_index::{IndexBuilder, Snapshot};
use ftsl_lang::{classify, lower, LanguageClass, SurfaceQuery};
use ftsl_model::{Corpus, NodeId};
use ftsl_predicates::{AdvanceMode, PredicateRegistry};
use ftsl_testkit::{arb_bool_query, arb_stream_query, prop_cases};
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

fn reference(surface: &SurfaceQuery, corpus: &Corpus, reg: &PredicateRegistry) -> Vec<NodeId> {
    let expr = lower(surface, reg).expect("lowers");
    Interpreter::new(corpus, reg).eval_query(&CalcQuery::new(expr))
}

/// The streaming plans' node-level normal form: unions on top, then
/// closed-`NOT` filters `L ⋈ (SearchContext − R)` (each `R` in normal form
/// itself), then a union-free core of scans, joins, selections and
/// projections, with no projection directly over another. A core of
/// closed `NOT`s alone is `SearchContext`.
fn in_normal_form(e: &AlgExpr) -> bool {
    match e {
        AlgExpr::Union(a, b) => in_normal_form(a) && in_normal_form(b),
        _ => filtered(e),
    }
}

fn filtered(e: &AlgExpr) -> bool {
    match e {
        AlgExpr::Join(left, right) => match &**right {
            AlgExpr::Difference(all, filter) if **all == AlgExpr::SearchContext => {
                filtered(left) && in_normal_form(filter)
            }
            _ => core(e),
        },
        _ => core(e),
    }
}

fn core(e: &AlgExpr) -> bool {
    match e {
        AlgExpr::TokenRel(_) | AlgExpr::HasPos | AlgExpr::SearchContext => true,
        AlgExpr::Join(a, b) => core(a) && core(b),
        AlgExpr::Select { input, .. } => core(input),
        AlgExpr::Project(input, _) => !matches!(**input, AlgExpr::Project(..)) && core(input),
        _ => false,
    }
}

/// `corpus` sealed as one fully live segment.
fn one_segment(corpus: &Corpus) -> Snapshot {
    Snapshot::of_index(corpus.clone(), IndexBuilder::new().build(corpus))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(128)))]

    #[test]
    fn ppred_engine_matches_reference(
        query in arb_stream_query(&VOCAB, false),
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
        query in arb_stream_query(&VOCAB, true),
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
    fn streaming_plans_evaluate_as_algebra(
        (negative, query) in prop_oneof![
            arb_stream_query(&VOCAB, false).prop_map(|q| (false, q)),
            arb_stream_query(&VOCAB, true).prop_map(|q| (true, q)),
            arb_bool_query(&VOCAB, 5, SurfaceQuery::Any, 3).prop_map(|q| (false, q)),
        ],
        corpus in arb_corpus(),
    ) {
        let reg = PredicateRegistry::with_builtins();
        let index = IndexBuilder::new().build(&corpus);
        let expected = reference(&query, &corpus, &reg);
        let expr = lower(&query, &reg).expect("lowers");
        let plan = build_plan(&expr, &reg, negative).expect("streamable");
        prop_assert!(
            in_normal_form(&plan.root),
            "{} planned outside the normal form:\n{}",
            query.render(),
            plan.root.render_tree(&reg)
        );
        let got = AlgebraEvaluator::new(&corpus, &index, &reg)
            .eval(&plan.root)
            .expect("evaluates")
            .distinct_nodes();
        prop_assert_eq!(&got, &expected, "the plan of {} diverged", query.render());
    }

    #[test]
    fn bool_engine_matches_reference(
        query in arb_bool_query(&VOCAB, 5, SurfaceQuery::Any, 3),
        corpus in arb_corpus(),
    ) {
        let reg = PredicateRegistry::with_builtins();
        let snapshot = one_segment(&corpus);
        let expected = reference(&query, &corpus, &reg);
        let exec = SnapshotExecutor::new(&snapshot, &reg);
        let got = exec.run_surface(&query, EngineKind::Bool).expect("bool runs");
        prop_assert_eq!(&got.nodes, &expected, "BOOL diverged on {}", query.render());

        // BOOL runs on the streaming plan, so the streaming engines take
        // every BOOL query too: root, nested and `OR`-branch `NOT`, `ANY`.
        let ppred = exec.run_surface(&query, EngineKind::Ppred).expect("ppred runs");
        prop_assert_eq!(&ppred.nodes, &expected, "PPRED diverged on {}", query.render());
        let npred = exec.run_surface(&query, EngineKind::Npred).expect("npred runs");
        prop_assert_eq!(&npred.nodes, &expected, "NPRED diverged on {}", query.render());

        let comp = exec.run_surface(&query, EngineKind::Comp).expect("comp runs");
        prop_assert_eq!(&comp.nodes, &expected, "COMP diverged on {}", query.render());
    }

    #[test]
    fn auto_dispatch_always_matches_reference(
        query in prop_oneof![arb_stream_query(&VOCAB, true), arb_bool_query(&VOCAB, 5, SurfaceQuery::Any, 2)],
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
