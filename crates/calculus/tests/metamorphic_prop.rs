//! Metamorphic laws of the reference interpreter: the classical first-order
//! equivalences must hold on every corpus. These pin the semantics that all
//! engines are differentially tested against.

use ftsl_calculus::ast::{QueryExpr, VarId};
use ftsl_calculus::interp::Interpreter;
use ftsl_calculus::CalcQuery;
use ftsl_model::Corpus;
use ftsl_predicates::PredicateRegistry;
use ftsl_testkit::{arb_corpus, prop_cases};
use proptest::prelude::*;
use std::ops::Range;

const VOCAB: [&str; 3] = ["a", "b", "c"];

/// Documents per corpus, and words per document, of [`arb_corpus`].
const DOCS: Range<usize> = 1..6;
const WORDS: Range<usize> = 0..8;

fn arb_expr(depth: u32, scope: Vec<VarId>) -> BoxedStrategy<QueryExpr> {
    let atom: Option<BoxedStrategy<QueryExpr>> = if scope.is_empty() {
        None
    } else {
        let scope = scope.clone();
        Some(
            (0..scope.len(), 0..VOCAB.len())
                .prop_map(move |(v, t)| QueryExpr::HasToken(scope[v], VOCAB[t].to_string()))
                .boxed(),
        )
    };
    if depth == 0 {
        return match atom {
            Some(a) => a,
            None => Just(QueryExpr::Exists(
                VarId(50),
                Box::new(QueryExpr::HasToken(VarId(50), "a".to_string())),
            ))
            .boxed(),
        };
    }
    let fresh = VarId(50 + depth);
    let mut inner = scope.clone();
    inner.push(fresh);
    let sub = arb_expr(depth - 1, scope);
    let sub_q = arb_expr(depth - 1, inner);
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

fn eval(corpus: &Corpus, expr: QueryExpr) -> Vec<u32> {
    let reg = PredicateRegistry::with_builtins();
    Interpreter::new(corpus, &reg)
        .eval_query(&CalcQuery::new(expr))
        .into_iter()
        .map(|n| n.0)
        .collect()
}

fn not(e: QueryExpr) -> QueryExpr {
    QueryExpr::Not(Box::new(e))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(96)))]

    #[test]
    fn double_negation(e in arb_expr(2, vec![]), corpus in arb_corpus(&VOCAB, DOCS, WORDS)) {
        prop_assert_eq!(eval(&corpus, e.clone()), eval(&corpus, not(not(e))));
    }

    #[test]
    fn de_morgan_and(
        a in arb_expr(2, vec![]),
        b in arb_expr(2, vec![]),
        corpus in arb_corpus(&VOCAB, DOCS, WORDS),
    ) {
        let lhs = not(QueryExpr::And(Box::new(a.clone()), Box::new(b.clone())));
        let rhs = QueryExpr::Or(Box::new(not(a)), Box::new(not(b)));
        prop_assert_eq!(eval(&corpus, lhs), eval(&corpus, rhs));
    }

    #[test]
    fn de_morgan_or(
        a in arb_expr(2, vec![]),
        b in arb_expr(2, vec![]),
        corpus in arb_corpus(&VOCAB, DOCS, WORDS),
    ) {
        let lhs = not(QueryExpr::Or(Box::new(a.clone()), Box::new(b.clone())));
        let rhs = QueryExpr::And(Box::new(not(a)), Box::new(not(b)));
        prop_assert_eq!(eval(&corpus, lhs), eval(&corpus, rhs));
    }

    #[test]
    fn quantifier_duality(e in arb_expr(2, vec![VarId(99)]), corpus in arb_corpus(&VOCAB, DOCS, WORDS)) {
        // ∀p e  ≡  ¬∃p ¬e (with the paper's hasPos-guarded quantifier shape).
        let v = VarId(99);
        let forall = QueryExpr::Forall(v, Box::new(e.clone()));
        let dual = not(QueryExpr::Exists(v, Box::new(not(e))));
        prop_assert_eq!(eval(&corpus, forall), eval(&corpus, dual));
    }

    #[test]
    fn conjunction_is_intersection(
        a in arb_expr(2, vec![]),
        b in arb_expr(2, vec![]),
        corpus in arb_corpus(&VOCAB, DOCS, WORDS),
    ) {
        let both = eval(&corpus, QueryExpr::And(Box::new(a.clone()), Box::new(b.clone())));
        let ra = eval(&corpus, a);
        let rb = eval(&corpus, b);
        let expected: Vec<u32> =
            ra.iter().copied().filter(|n| rb.contains(n)).collect();
        prop_assert_eq!(both, expected);
    }
}
