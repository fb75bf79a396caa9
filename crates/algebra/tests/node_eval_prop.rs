//! Differential suite for the node-at-a-time evaluator: random calculus
//! queries, translated by Lemma 2 and evaluated one context node at a
//! time, must answer exactly what the calculus interpreter answers — and
//! the per-node join must still build the paper's
//! `pos_per_cnode^toks_Q` rows.
//!
//! The generator reaches every shape the translation emits: `∀` (a
//! difference under a projection), `¬` over open variables (`HasPos^k −
//! E`), `∨` whose arms bind different variables (`HasPos` padding),
//! repeated variables, a 3-ary predicate, `∃` over an unused variable,
//! closed negation against `SearchContext`, `π` over `∪`, and `σ` over
//! one side of a `⋈` (the ladder shape). The unscored evaluator runs
//! the plan with `σ` and `π` pushed below `⋈`, so the interpreter checks
//! that plan, and a second property checks it row for row against the
//! plan as translated. Ranking is the same walk with a score column over
//! the translated plan, so the same queries check it against the unscored
//! walk of that plan.

use ftsl_algebra::eval::AlgebraEvaluator;
use ftsl_algebra::from_calculus::{query_to_algebra, translate};
use ftsl_algebra::rewrite::push_down;
use ftsl_calculus::ast::{CalcQuery, QueryExpr, VarId};
use ftsl_calculus::build::{and_all, exists, has_token};
use ftsl_calculus::interp::Interpreter;
use ftsl_index::IndexBuilder;
use ftsl_model::{Corpus, NodeId};
use ftsl_predicates::builtin::WindowPred;
use ftsl_predicates::PredicateRegistry;
use ftsl_scoring::{ModelScorer, PraModel, ScoreStats, TfIdfModel};
use ftsl_testkit::prop_cases;
use proptest::prelude::*;
use std::sync::Arc;

const TOKENS: [&str; 3] = ["a", "b", "c"];
const SEPARATORS: [&str; 3] = [" ", ". ", "\n\n"];

/// The built-ins plus a 3-ary `window`, registered last.
fn registry() -> PredicateRegistry {
    let mut reg = PredicateRegistry::with_builtins();
    reg.register(Arc::new(WindowPred::new(3)));
    reg
}

/// Documents as token indices; separators vary sentences and paragraphs.
fn arb_docs() -> impl Strategy<Value = Vec<Vec<(usize, usize)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0..TOKENS.len(), 0..SEPARATORS.len()), 0..8),
        1..7,
    )
}

fn corpus_of(docs: &[Vec<(usize, usize)>]) -> Corpus {
    let texts: Vec<String> = docs
        .iter()
        .map(|doc| {
            doc.iter()
                .map(|&(t, s)| format!("{}{}", TOKENS[t], SEPARATORS[s]))
                .collect()
        })
        .collect();
    Corpus::from_texts(&texts)
}

/// A binary built-in predicate's name and constants.
fn arb_binary() -> BoxedStrategy<(&'static str, Vec<i64>)> {
    prop_oneof![
        (0..4i64).prop_map(|d| ("distance", vec![d])),
        Just(("ordered", vec![])),
        Just(("samesent", vec![])),
        Just(("diffpos", vec![])),
        (0..3i64).prop_map(|d| ("not_distance", vec![d])),
        Just(("not_ordered", vec![])),
        (0..3i64).prop_map(|g| ("exact_gap", vec![g])),
    ]
    .boxed()
}

/// Atoms over the variables in scope: tokens, `hasPos`, binary predicates
/// (possibly on one variable twice) and the 3-ary window.
fn arb_atom(scope: Vec<VarId>) -> BoxedStrategy<QueryExpr> {
    let reg = registry();
    let window3 = reg.lookup("window").expect("window registered");
    let n = scope.len();
    let (s1, s2, s3, s4) = (scope.clone(), scope.clone(), scope.clone(), scope);
    prop_oneof![
        3 => (0..n, 0..TOKENS.len())
            .prop_map(move |(v, t)| QueryExpr::HasToken(s1[v], TOKENS[t].to_string())),
        1 => (0..n).prop_map(move |v| QueryExpr::HasPos(s2[v])),
        2 => (arb_binary(), 0..n, 0..n).prop_map(move |((name, consts), i, j)| QueryExpr::Pred {
            pred: reg.lookup(name).expect("built-in"),
            vars: vec![s3[i], s3[j]],
            consts,
        }),
        1 => (0..n, 0..n, 0..n, 0..4i64).prop_map(move |(i, j, k, w)| QueryExpr::Pred {
            pred: window3,
            vars: vec![s4[i], s4[j], s4[k]],
            consts: vec![w],
        }),
    ]
    .boxed()
}

/// `class_ladder`'s shape: `∃q1..qk (q1 HAS t1 ∧ … ∧ qk HAS tk ∧
/// P(qi, qi+1) ∧ …)`, so a predicate over two adjacent tokens filters a
/// left-deep join below its outer joins. The rest of the generator seldom
/// conjoins a predicate with a join of tokens it does not span.
fn arb_ladder() -> BoxedStrategy<QueryExpr> {
    (2..5usize)
        .prop_flat_map(|k| {
            (
                proptest::collection::vec(0..TOKENS.len(), k..k + 1),
                proptest::collection::vec((arb_binary(), 0..k - 1), 1..3),
            )
        })
        .prop_map(|(toks, preds)| {
            let reg = registry();
            let q = |i: usize| VarId(200 + i as u32);
            let tokens = toks
                .iter()
                .enumerate()
                .map(|(i, &t)| QueryExpr::HasToken(q(i), TOKENS[t].to_string()));
            let preds = preds
                .into_iter()
                .map(|((name, consts), i)| QueryExpr::Pred {
                    pred: reg.lookup(name).expect("built-in"),
                    vars: vec![q(i), q(i + 1)],
                    consts,
                });
            let body = and_all(tokens.chain(preds).collect());
            (0..toks.len())
                .rev()
                .fold(body, |e, i| QueryExpr::Exists(q(i), Box::new(e)))
        })
        .boxed()
}

/// Random expressions whose free variables are drawn from `scope`, with at
/// most `depth` levels of connectives or quantifiers.
fn arb_calc(depth: u32, scope: Vec<VarId>) -> BoxedStrategy<QueryExpr> {
    let atom = (!scope.is_empty()).then(|| arb_atom(scope.clone()));
    if depth == 0 {
        return atom.unwrap_or_else(|| {
            let v = VarId(100);
            Just(QueryExpr::Exists(
                v,
                Box::new(QueryExpr::HasToken(v, "a".into())),
            ))
            .boxed()
        });
    }
    let fresh = VarId(100 + depth);
    let mut inner_scope = scope.clone();
    inner_scope.push(fresh);
    let sub = arb_calc(depth - 1, scope);
    let quantified = arb_calc(depth - 1, inner_scope);
    let mut opts: Vec<(u32, BoxedStrategy<QueryExpr>)> = vec![
        (
            2,
            (sub.clone(), sub.clone())
                .prop_map(|(a, b)| QueryExpr::And(Box::new(a), Box::new(b)))
                .boxed(),
        ),
        (
            2,
            (sub.clone(), sub.clone())
                .prop_map(|(a, b)| QueryExpr::Or(Box::new(a), Box::new(b)))
                .boxed(),
        ),
        (2, sub.prop_map(|a| QueryExpr::Not(Box::new(a))).boxed()),
        (
            3,
            quantified
                .clone()
                .prop_map(move |a| QueryExpr::Exists(fresh, Box::new(a)))
                .boxed(),
        ),
        (
            2,
            quantified
                .prop_map(move |a| QueryExpr::Forall(fresh, Box::new(a)))
                .boxed(),
        ),
        (1, arb_ladder()),
    ];
    if let Some(a) = atom {
        opts.push((2, a));
    }
    proptest::strategy::Union::new_weighted(opts).boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(96)))]

    #[test]
    fn node_at_a_time_matches_the_interpreter(
        expr in arb_calc(4, vec![]),
        docs in arb_docs(),
    ) {
        let reg = registry();
        let corpus = corpus_of(&docs);
        let index = IndexBuilder::new().build(&corpus);
        let query = CalcQuery::new(expr);
        let expected = Interpreter::new(&corpus, &reg).eval_query(&query);
        let alg = query_to_algebra(&query, &reg).expect("translate");
        let mut ev = AlgebraEvaluator::new(&corpus, &index, &reg);
        let got = ev.eval(&alg).expect("evaluate").distinct_nodes();
        prop_assert_eq!(got, expected, "query {:?} => {:?}", query.expr, alg);
        let stats = ev.node_stats();
        prop_assert!(stats.nodes_evaluated <= corpus.len() as u64);
        prop_assert!(stats.peak_node_tuples <= ev.counters().tuples);
    }

    /// Push-down keeps the arity and, at every node, exactly the rows of
    /// the plan as translated — open expressions included — and a second
    /// pass changes nothing.
    #[test]
    fn push_down_keeps_every_row_of_the_translated_plan(
        expr in arb_calc(4, vec![VarId(1), VarId(2)]),
        docs in arb_docs(),
    ) {
        let reg = registry();
        let corpus = corpus_of(&docs);
        let index = IndexBuilder::new().build(&corpus);
        let alg = translate(&expr, &reg).expect("translate").expr;
        let plan = push_down(&alg, &reg);
        prop_assert_eq!(plan.arity(&reg), alg.arity(&reg));
        prop_assert_eq!(&push_down(&plan, &reg), &plan, "not idempotent on {:?}", alg);
        let mut ev = AlgebraEvaluator::new(&corpus, &index, &reg);
        let want = ev.relation(&alg).expect("evaluate");
        let got = ev.relation(&plan).expect("evaluate");
        // Row for row, so node for node.
        prop_assert_eq!(got, want, "{:?} => {:?}", alg, plan);
    }

    /// Under either scoring model the walk is the unscored one over the
    /// same, unrewritten plan — the same answer nodes, tuples and counters
    /// — and PRA's scores stay probabilities.
    #[test]
    fn scored_evaluation_answers_the_unscored_node_set(
        expr in arb_calc(4, vec![]),
        docs in arb_docs(),
    ) {
        let reg = registry();
        let corpus = corpus_of(&docs);
        let index = IndexBuilder::new().build(&corpus);
        let alg = query_to_algebra(&CalcQuery::new(expr), &reg).expect("translate");
        let mut unscored = AlgebraEvaluator::new(&corpus, &index, &reg);
        let want = unscored.relation(&alg).expect("evaluate").distinct_nodes();
        let stats = ScoreStats::compute(&corpus, &index);
        let tfidf = TfIdfModel::for_query(&TOKENS, &corpus, &stats);
        let pra = PraModel::new(&corpus, &stats);
        let nodes = |hits: &[(NodeId, f64)]| hits.iter().map(|&(n, _)| n).collect::<Vec<_>>();

        let mut ev = AlgebraEvaluator::scored(&corpus, &index, &reg, ModelScorer(&tfidf, &stats));
        let hits = ev.rank(&alg).expect("rank");
        prop_assert_eq!(nodes(&hits), want.clone(), "{:?}", alg);
        prop_assert_eq!(ev.counters(), unscored.counters());

        let mut ev = AlgebraEvaluator::scored(&corpus, &index, &reg, ModelScorer(&pra, &stats));
        let hits = ev.rank(&alg).expect("rank");
        prop_assert_eq!(nodes(&hits), want, "{:?}", alg);
        prop_assert_eq!(ev.counters(), unscored.counters());
        for (node, score) in hits {
            prop_assert!((0.0..=1.0).contains(&score), "node {} scored {}", node, score);
        }
    }

    /// `p1 HAS t1 ∧ … ∧ pk HAS tk` is a left-deep join: its output has
    /// exactly `Σ_n Π_i tf_i(n)` rows, and every node holding all `k`
    /// tokens builds its leaves and each prefix join — no more, no less.
    #[test]
    fn join_output_is_the_sum_of_per_node_products(
        docs in arb_docs(),
        toks in proptest::collection::vec(0..TOKENS.len(), 1..5),
    ) {
        let reg = registry();
        let corpus = corpus_of(&docs);
        let index = IndexBuilder::new().build(&corpus);
        let body = and_all(
            toks.iter()
                .enumerate()
                .map(|(i, &t)| has_token(i as u32 + 1, TOKENS[t]))
                .collect(),
        );
        let open = translate(&body, &reg).expect("translate");
        let mut ev = AlgebraEvaluator::new(&corpus, &index, &reg);
        let rows = ev.eval(&open.expr).expect("evaluate").len() as u64;

        let (mut products, mut tuples) = (0u64, 0u64);
        for doc in &docs {
            let tf: Vec<u64> = toks
                .iter()
                .map(|&t| doc.iter().filter(|&&(d, _)| d == t).count() as u64)
                .collect();
            let product: u64 = tf.iter().product();
            products += product;
            if product > 0 {
                tuples += tf.iter().sum::<u64>();
                tuples += (2..=tf.len()).map(|j| tf[..j].iter().product::<u64>()).sum::<u64>();
            }
        }
        prop_assert_eq!(rows, products);
        prop_assert_eq!(ev.counters().tuples, tuples);

        // The closed query answers with the nodes holding every token.
        let closed = (1..=toks.len() as u32).rev().fold(body, |e, v| exists(v, e));
        let alg = query_to_algebra(&CalcQuery::new(closed.clone()), &reg).expect("translate");
        let got = AlgebraEvaluator::new(&corpus, &index, &reg)
            .eval(&alg)
            .expect("evaluate")
            .distinct_nodes();
        let expected = Interpreter::new(&corpus, &reg).eval_query(&CalcQuery::new(closed));
        prop_assert_eq!(got, expected);
    }
}
