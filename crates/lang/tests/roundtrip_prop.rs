//! Parser/printer roundtrip: `parse(render(q)) == q` for random surface
//! queries, and classification is invariant under the roundtrip.

use ftsl_lang::{classify, parse, Mode, SurfaceQuery, TokenArg};
use ftsl_predicates::PredicateRegistry;
use ftsl_testkit::prop_cases;
use proptest::prelude::*;

const TOKENS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
const VARS: [&str; 3] = ["p0", "p1", "p2"];
const PREDS: [(&str, usize); 4] = [
    ("distance", 1),
    ("ordered", 0),
    ("samepara", 0),
    ("not_distance", 1),
];

fn arb_query(depth: u32) -> BoxedStrategy<SurfaceQuery> {
    let leaf = prop_oneof![
        (0..TOKENS.len()).prop_map(|t| SurfaceQuery::Lit(TOKENS[t].to_string())),
        Just(SurfaceQuery::Any),
        (0..VARS.len(), 0..TOKENS.len()).prop_map(|(v, t)| {
            SurfaceQuery::VarHas(VARS[v].to_string(), TOKENS[t].to_string())
        }),
        (0..VARS.len()).prop_map(|v| SurfaceQuery::VarHasAny(VARS[v].to_string())),
        (0..PREDS.len(), 0..VARS.len(), 0..VARS.len(), 0..20i64).prop_map(|(p, a, b, c)| {
            let (name, consts) = PREDS[p];
            SurfaceQuery::Pred {
                name: name.to_string(),
                vars: vec![VARS[a].to_string(), VARS[b].to_string()],
                consts: (0..consts).map(|_| c).collect(),
            }
        }),
        (0..TOKENS.len(), 0..TOKENS.len(), any::<bool>(), 0..12i64).prop_map(
            |(a, b, any_arg, d)| {
                let t1 = TokenArg::Lit(TOKENS[a].to_string());
                let t2 = if any_arg {
                    TokenArg::Any
                } else {
                    TokenArg::Lit(TOKENS[b].to_string())
                };
                SurfaceQuery::Dist(t1, t2, d)
            }
        ),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = arb_query(depth - 1);
    prop_oneof![
        3 => leaf,
        2 => (sub.clone(), sub.clone())
            .prop_map(|(a, b)| SurfaceQuery::And(Box::new(a), Box::new(b))),
        2 => (sub.clone(), sub.clone())
            .prop_map(|(a, b)| SurfaceQuery::Or(Box::new(a), Box::new(b))),
        1 => sub.clone().prop_map(|a| SurfaceQuery::Not(Box::new(a))),
        1 => (0..VARS.len(), sub.clone())
            .prop_map(|(v, a)| SurfaceQuery::Some(VARS[v].to_string(), Box::new(a))),
        1 => (0..VARS.len(), sub)
            .prop_map(|(v, a)| SurfaceQuery::Every(VARS[v].to_string(), Box::new(a))),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(256)))]

    #[test]
    fn render_parse_roundtrip(q in arb_query(4)) {
        let rendered = q.render();
        let reparsed = parse(&rendered, Mode::Comp)
            .unwrap_or_else(|e| panic!("rendered query failed to parse: {rendered} ({e})"));
        prop_assert_eq!(&reparsed, &q, "roundtrip changed the AST for {}", rendered);
    }

    #[test]
    fn classification_is_stable_under_roundtrip(q in arb_query(3)) {
        let reg = PredicateRegistry::with_builtins();
        let class1 = classify(&q, &reg);
        let reparsed = parse(&q.render(), Mode::Comp).expect("parses");
        let class2 = classify(&reparsed, &reg);
        prop_assert_eq!(class1, class2);
    }

    #[test]
    fn free_vars_stable_under_roundtrip(q in arb_query(3)) {
        let reparsed = parse(&q.render(), Mode::Comp).expect("parses");
        prop_assert_eq!(q.free_vars(), reparsed.free_vars());
    }
}
