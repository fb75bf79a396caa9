//! Property test for Theorem 4: over a finite alphabet, every restricted
//! calculus expression (Preds = ∅) is equivalent to its BOOL translation.
//!
//! Random closed expressions are normalized, translated to BOOL, lowered
//! back to the calculus via BOOL's semantics, and both are evaluated with
//! the reference interpreter on random corpora drawn from the alphabet.

use ftsl_calculus::ast::{QueryExpr, VarId};
use ftsl_calculus::bool_complete::to_bool;
use ftsl_calculus::interp::Interpreter;
use ftsl_calculus::normalize::normalize;
use ftsl_calculus::CalcQuery;
use ftsl_predicates::PredicateRegistry;
use ftsl_testkit::{arb_corpus, prop_cases};
use proptest::prelude::*;
use std::ops::Range;

const ALPHABET: [&str; 3] = ["a", "b", "c"];

/// A closed restricted expression: quantifiers over `depth` variables with
/// bodies mixing atoms on any in-scope variable.
fn arb_expr(depth: u32, scope: Vec<VarId>) -> BoxedStrategy<QueryExpr> {
    let atom = {
        let scope = scope.clone();
        if scope.is_empty() {
            // No variable in scope: force a quantifier below.
            None
        } else {
            let scope2 = scope.clone();
            Some(
                (0..scope.len(), 0..ALPHABET.len(), any::<bool>())
                    .prop_map(move |(vi, ti, use_tok)| {
                        let v = scope2[vi];
                        if use_tok {
                            QueryExpr::HasToken(v, ALPHABET[ti].to_string())
                        } else {
                            QueryExpr::HasPos(v)
                        }
                    })
                    .boxed(),
            )
        }
    };

    if depth == 0 {
        // Leaf: an atom if possible; otherwise a minimal quantified atom.
        return match atom {
            Some(a) => a,
            None => Just(QueryExpr::Exists(
                VarId(100),
                Box::new(QueryExpr::HasToken(VarId(100), "a".to_string())),
            ))
            .boxed(),
        };
    }

    let fresh = VarId(100 + depth);
    let mut inner_scope = scope.clone();
    inner_scope.push(fresh);

    let sub = arb_expr(depth - 1, scope.clone());
    let sub_q = arb_expr(depth - 1, inner_scope);

    let mut options: Vec<BoxedStrategy<QueryExpr>> = vec![
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
        options.push(a);
    }
    proptest::strategy::Union::new(options).boxed()
}

/// Documents per corpus, and words per document, of [`arb_corpus`].
const DOCS: Range<usize> = 1..6;
const WORDS: Range<usize> = 0..6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(128)))]

    #[test]
    fn theorem4_bool_translation_is_equivalent(
        expr in arb_expr(3, vec![]),
        corpus in arb_corpus(&ALPHABET, DOCS, WORDS),
    ) {
        let reg = PredicateRegistry::with_builtins();
        let interp = Interpreter::new(&corpus, &reg);
        let alphabet: Vec<String> = ALPHABET.iter().map(|s| s.to_string()).collect();

        let prop = normalize(&expr).expect("restricted expressions normalize");
        let bool_q = to_bool(&prop, &alphabet);
        let mut next = 10_000;
        let back = bool_q.to_calculus(&mut next);

        let lhs = interp.eval_query(&CalcQuery::new(expr.clone()));
        let rhs = interp.eval_query(&CalcQuery::new(back));
        prop_assert_eq!(lhs, rhs, "diverged for {:?} => {}", expr, bool_q.render());
    }

    #[test]
    fn global_dnf_preserves_semantics(
        expr in arb_expr(2, vec![]),
        corpus in arb_corpus(&ALPHABET, DOCS, WORDS),
    ) {
        // Rebuild a Prop from its global DNF and check equivalence through
        // the BOOL translation path.
        use ftsl_calculus::normalize::Prop;
        let reg = PredicateRegistry::with_builtins();
        let interp = Interpreter::new(&corpus, &reg);
        let alphabet: Vec<String> = ALPHABET.iter().map(|s| s.to_string()).collect();

        let prop = normalize(&expr).expect("normalizable");
        let dnf = prop.to_dnf();
        let rebuilt = dnf
            .into_iter()
            .map(|conj| {
                conj.into_iter()
                    .map(|(fact, sign)| {
                        let atom = Prop::Atom(fact);
                        if sign { atom } else { Prop::Not(Box::new(atom)) }
                    })
                    .reduce(|a, b| Prop::And(Box::new(a), Box::new(b)))
                    .unwrap_or(Prop::True)
            })
            .reduce(|a, b| Prop::Or(Box::new(a), Box::new(b)))
            .unwrap_or(Prop::False);

        let mut next = 10_000;
        let q1 = to_bool(&prop, &alphabet).to_calculus(&mut next);
        let q2 = to_bool(&rebuilt, &alphabet).to_calculus(&mut next);
        let lhs = interp.eval_query(&CalcQuery::new(q1));
        let rhs = interp.eval_query(&CalcQuery::new(q2));
        prop_assert_eq!(lhs, rhs);
    }
}
