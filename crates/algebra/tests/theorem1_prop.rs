//! Property tests for Theorem 1: the full-text calculus and algebra are
//! equivalent in expressive power.
//!
//! * Lemma 2 direction: random calculus queries → algebra; both evaluated.
//! * Lemma 1 direction: random algebra queries → calculus; both evaluated.

use ftsl_algebra::eval::AlgebraEvaluator;
use ftsl_algebra::from_calculus::query_to_algebra;
use ftsl_algebra::to_calculus::query_to_calculus;
use ftsl_algebra::AlgExpr;
use ftsl_calculus::ast::{CalcQuery, QueryExpr, VarId};
use ftsl_calculus::interp::Interpreter;
use ftsl_predicates::{PredicateId, PredicateRegistry};
use ftsl_testkit::{arb_corpus, prop_cases};
use proptest::prelude::*;
use std::ops::Range;

const TOKENS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

fn registry() -> PredicateRegistry {
    PredicateRegistry::with_builtins()
}

/// Documents per corpus, and words per document, of [`arb_corpus`].
const DOCS: Range<usize> = 1..6;
const WORDS: Range<usize> = 0..7;

/// Predicates usable in random queries: (registry index known a priori),
/// arity 2 with constants.
fn arb_pred() -> impl Strategy<Value = (String, Vec<i64>)> {
    prop_oneof![
        (0..6i64).prop_map(|d| ("distance".to_string(), vec![d])),
        Just(("ordered".to_string(), vec![])),
        Just(("samepara".to_string(), vec![])),
        Just(("diffpos".to_string(), vec![])),
        (0..4i64).prop_map(|d| ("not_distance".to_string(), vec![d])),
        (0..5i64).prop_map(|g| ("exact_gap".to_string(), vec![g])),
    ]
}

/// Random closed calculus expressions with ≤ `depth` quantifier nesting.
fn arb_calc(depth: u32, scope: Vec<VarId>) -> BoxedStrategy<QueryExpr> {
    let reg = registry();
    let atom: Option<BoxedStrategy<QueryExpr>> = if scope.is_empty() {
        None
    } else {
        let scope1 = scope.clone();
        let scope2 = scope.clone();
        let pred_strategy =
            (arb_pred(), 0..scope.len(), 0..scope.len()).prop_map(move |((name, consts), i, j)| {
                let id: PredicateId = reg.lookup(&name).unwrap();
                QueryExpr::Pred {
                    pred: id,
                    vars: vec![scope2[i], scope2[j]],
                    consts,
                }
            });
        Some(
            prop_oneof![
                (0..scope.len(), 0..TOKENS.len()).prop_map(move |(vi, ti)| {
                    QueryExpr::HasToken(scope1[vi], TOKENS[ti].to_string())
                }),
                pred_strategy,
            ]
            .boxed(),
        )
    };

    if depth == 0 {
        return match atom {
            Some(a) => a,
            None => Just(QueryExpr::Exists(
                VarId(200),
                Box::new(QueryExpr::HasToken(VarId(200), "alpha".to_string())),
            ))
            .boxed(),
        };
    }

    let fresh = VarId(200 + depth);
    let mut inner_scope = scope.clone();
    inner_scope.push(fresh);
    let sub = arb_calc(depth - 1, scope);
    let sub_q = arb_calc(depth - 1, inner_scope);

    let mut opts: Vec<BoxedStrategy<QueryExpr>> = vec![
        (sub.clone(), sub.clone())
            .prop_map(|(a, b)| QueryExpr::And(Box::new(a), Box::new(b)))
            .boxed(),
        (sub.clone(), sub.clone())
            .prop_map(|(a, b)| QueryExpr::Or(Box::new(a), Box::new(b)))
            .boxed(),
        sub.clone()
            .prop_map(|a| QueryExpr::Not(Box::new(a)))
            .boxed(),
        sub_q
            .clone()
            .prop_map(move |a| QueryExpr::Exists(fresh, Box::new(a)))
            .boxed(),
        sub_q
            .prop_map(move |a| QueryExpr::Forall(fresh, Box::new(a)))
            .boxed(),
    ];
    if let Some(a) = atom {
        opts.push(a);
    }
    proptest::strategy::Union::new(opts).boxed()
}

/// Random algebra expressions of bounded size, always wrapped to arity 0.
fn arb_alg(depth: u32) -> BoxedStrategy<AlgExpr> {
    let leaf = prop_oneof![
        (0..TOKENS.len()).prop_map(|t| AlgExpr::TokenRel(TOKENS[t].to_string())),
        Just(AlgExpr::HasPos),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = arb_alg(depth - 1);
    prop_oneof![
        3 => leaf,
        2 => (sub.clone(), sub.clone()).prop_map(|(a, b)| AlgExpr::Join(Box::new(a), Box::new(b))),
        2 => (sub.clone(), arb_pred()).prop_map(|(a, (name, consts))| {
            let reg = registry();
            let id = reg.lookup(&name).unwrap();
            // Guarantee an arity-2 base: pad arity-0 inputs with HasPos.
            let one = |e: AlgExpr| -> AlgExpr {
                if e.arity(&reg) == Ok(0) {
                    AlgExpr::Join(Box::new(e), Box::new(AlgExpr::HasPos))
                } else {
                    AlgExpr::Project(Box::new(e), vec![0])
                }
            };
            AlgExpr::Select {
                input: Box::new(AlgExpr::Join(Box::new(one(a.clone())), Box::new(one(a)))),
                pred: id,
                cols: vec![0, 1],
                consts,
            }
        }),
        1 => (sub.clone(), sub.clone()).prop_map(|(a, b)| {
            // Align arities for set ops by projecting both to node level.
            AlgExpr::Union(
                Box::new(AlgExpr::Project(Box::new(a), vec![])),
                Box::new(AlgExpr::Project(Box::new(b), vec![])),
            )
        }),
        1 => (sub.clone(), sub).prop_map(|(a, b)| {
            AlgExpr::Difference(
                Box::new(AlgExpr::Project(Box::new(a), vec![])),
                Box::new(AlgExpr::Project(Box::new(b), vec![])),
            )
        }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(96)))]

    #[test]
    fn lemma2_calculus_to_algebra_preserves_semantics(
        expr in arb_calc(3, vec![]),
        corpus in arb_corpus(&TOKENS, DOCS, WORDS),
    ) {
        let reg = registry();
        let index = ftsl_index::IndexBuilder::new().build(&corpus);
        let query = CalcQuery::new(expr);
        let interp = Interpreter::new(&corpus, &reg);
        let expected = interp.eval_query(&query);
        let alg = query_to_algebra(&query, &reg).expect("translate");
        let mut ev = AlgebraEvaluator::new(&corpus, &index, &reg);
        let got = ev.eval(&alg).expect("evaluate").distinct_nodes();
        prop_assert_eq!(got, expected, "query {:?}", query.expr);
    }

    #[test]
    fn lemma1_algebra_to_calculus_preserves_semantics(
        expr in arb_alg(3),
        corpus in arb_corpus(&TOKENS, DOCS, WORDS),
    ) {
        let reg = registry();
        let index = ftsl_index::IndexBuilder::new().build(&corpus);
        // Wrap to arity 0 (an algebra *query*).
        let query_expr = AlgExpr::Project(Box::new(expr), vec![]);
        let mut ev = AlgebraEvaluator::new(&corpus, &index, &reg);
        let expected = ev.eval(&query_expr).expect("evaluate").distinct_nodes();
        let calc = query_to_calculus(&query_expr, &reg).expect("translate");
        let interp = Interpreter::new(&corpus, &reg);
        let got = interp.eval_query(&calc);
        prop_assert_eq!(got, expected, "algebra {:?}", query_expr);
    }
}
