//! End-to-end facade behaviour on a synthetic corpus: classification,
//! dispatch, ranking, and explain output.

use ftsl::core::{Ftsl, RankModel};
use ftsl::corpus::SynthConfig;
use ftsl::exec::engine::EngineUsed;
use ftsl::lang::LanguageClass;

fn engine() -> Ftsl {
    let corpus = SynthConfig::small()
        .plant("kernel", 0.4, 3)
        .plant("scheduler", 0.3, 2)
        .build();
    Ftsl::from_corpus(corpus)
}

#[test]
fn dispatch_covers_the_hierarchy() {
    let e = engine();
    let cases: &[(&str, LanguageClass, EngineUsed)] = &[
        (
            "'kernel' AND 'scheduler'",
            LanguageClass::BoolNoNeg,
            EngineUsed::Bool,
        ),
        ("NOT 'kernel'", LanguageClass::Bool, EngineUsed::Bool),
        (
            "dist('kernel','scheduler',8)",
            LanguageClass::Dist,
            EngineUsed::Ppred,
        ),
        (
            "SOME a SOME b (a HAS 'kernel' AND b HAS 'scheduler' AND ordered(a,b))",
            LanguageClass::Ppred,
            EngineUsed::Ppred,
        ),
        (
            "SOME a SOME b (a HAS 'kernel' AND b HAS 'kernel' AND diffpos(a,b))",
            LanguageClass::Npred,
            EngineUsed::Npred,
        ),
        (
            "EVERY a (a HAS 'kernel')",
            LanguageClass::Comp,
            EngineUsed::Comp,
        ),
    ];
    for (q, class, used) in cases {
        let out = e.search(q).unwrap();
        assert_eq!(out.class, *class, "class of {q}");
        assert_eq!(out.engine, *used, "engine of {q}");
    }
}

#[test]
fn ranked_results_are_sorted_and_consistent_with_boolean_results() {
    let e = engine();
    let q = "'kernel' AND 'scheduler'";
    let boolean = e.search(q).unwrap();
    for model in [RankModel::TfIdf, RankModel::Pra] {
        let ranked = e.search_ranked(q, model).unwrap();
        let mut ranked_nodes: Vec<_> = ranked.hits.iter().map(|(n, _)| *n).collect();
        ranked_nodes.sort_unstable();
        assert_eq!(ranked_nodes, boolean.nodes, "{model:?} support mismatch");
        for w in ranked.hits.windows(2) {
            assert!(w[0].1 >= w[1].1, "not sorted: {:?}", ranked.hits);
        }
    }
}

#[test]
fn explain_is_informative_for_each_tier() {
    let e = engine();
    let text = e.explain("'kernel' AND 'scheduler'").unwrap();
    assert!(text.contains("BOOL"));
    let text = e
        .explain("SOME a SOME b (a HAS 'kernel' AND b HAS 'scheduler' AND distance(a,b,4))")
        .unwrap();
    assert!(text.contains("PPRED") && text.contains("scan (\"kernel\")"));
    let text = e.explain("EVERY a (a HAS 'kernel')").unwrap();
    assert!(text.contains("COMP") && text.contains("algebra"));
}

/// `explain` and `explain_analyze` describe what runs. This DIST-class
/// conjunction has no positive relational part, so its `NOT`s filter
/// `SearchContext` on the streaming plan; a chain of eight `not_ordered`
/// variables is more orderings than NPRED scans, so Auto dispatch falls
/// back to COMP, and both print COMP's algebra instead.
#[test]
fn explain_reports_the_engine_and_plan_that_run() {
    let e = Ftsl::from_texts(&["kernel scheduler code", "kernel locks scheduler"]);
    let q = "NOT 'code' AND NOT dist('kernel','locks',2)";
    let out = e.search(q).unwrap();
    assert_eq!(out.class, LanguageClass::Dist);
    assert_eq!(out.engine, EngineUsed::Ppred);
    assert!(out.nodes.is_empty(), "{:?}", out.nodes);
    let text = e.explain(q).unwrap();
    assert!(text.contains("engine: PPRED (streaming cursors)"), "{text}");
    let analyzed = e.explain_analyze(q).unwrap();
    assert!(analyzed.contains("engine: PPRED"), "{analyzed}");
    for out in [&text, &analyzed] {
        assert!(out.contains("\nplan:\n"), "{out}");
        assert!(out.contains("search_context"), "{out}");
    }

    let vars: String = (0..8).map(|i| format!("SOME p{i} ")).collect();
    let has: Vec<String> = (0..8).map(|i| format!("p{i} HAS 'kernel'")).collect();
    let preds: Vec<String> = (1..8)
        .map(|i| format!("not_ordered(p{},p{i})", i - 1))
        .collect();
    let chain = format!("{vars}({} AND {})", has.join(" AND "), preds.join(" AND "));
    assert_eq!(e.search(&chain).unwrap().engine, EngineUsed::Comp);
    let text = e.explain(&chain).unwrap();
    assert!(
        text.contains("engine: COMP (materialized algebra)"),
        "{text}"
    );
    let analyzed = e.explain_analyze(&chain).unwrap();
    assert!(analyzed.contains("engine: COMP"), "{analyzed}");
    for out in [&text, &analyzed] {
        assert!(out.contains("\nalgebra:\n"), "{out}");
        assert!(!out.contains("streaming plan unavailable"), "{out}");
    }
}

#[test]
fn custom_predicates_extend_the_language() {
    use ftsl::model::Position;
    use ftsl::predicates::{PredKind, Predicate};
    use std::sync::Arc;

    // A user-defined predicate: both positions in the first sentence.
    #[derive(Debug)]
    struct FirstSentence;
    impl Predicate for FirstSentence {
        fn name(&self) -> &str {
            "first_sentence"
        }
        fn arity(&self) -> usize {
            2
        }
        fn num_consts(&self) -> usize {
            0
        }
        fn kind(&self) -> PredKind {
            PredKind::General
        }
        fn eval(&self, positions: &[Position], _: &[i64]) -> bool {
            positions.iter().all(|p| p.sentence == 0)
        }
    }

    let mut e = Ftsl::from_texts(&[
        "kernel and scheduler together. nothing more",
        "kernel alone here. scheduler arrives in sentence two",
    ]);
    e.registry_mut().register(Arc::new(FirstSentence));
    let out = e
        .search("SOME a SOME b (a HAS 'kernel' AND b HAS 'scheduler' AND first_sentence(a,b))")
        .unwrap();
    assert_eq!(out.node_ids(), vec![0]);
    // General predicates force the COMP engine.
    assert_eq!(out.engine, EngineUsed::Comp);
}

#[test]
fn facade_survives_edge_cases() {
    let e = Ftsl::from_texts(&["", "x", ""]);
    assert!(e.search("'missing'").unwrap().is_empty());
    assert_eq!(e.search("NOT 'missing'").unwrap().node_ids(), vec![0, 1, 2]);
    assert_eq!(e.search("ANY").unwrap().node_ids(), vec![1]);
    let ranked = e.search_ranked("'x'", RankModel::TfIdf).unwrap();
    assert_eq!(ranked.hits.len(), 1);
}

#[test]
fn analyzed_engine_conflates_morphological_variants() {
    use ftsl::model::analysis::AnalysisConfig;
    let e = Ftsl::from_texts_analyzed(
        &[
            "the tests are passing",
            "this test passed yesterday",
            "nothing to see here",
        ],
        AnalysisConfig::english(),
    );
    // Query uses a different surface form than either document.
    let r = e.search("'testing'").unwrap();
    assert_eq!(r.node_ids(), vec![0, 1]);
    // Stop words match nothing (they were never indexed).
    let r = e.search("'the'").unwrap();
    assert!(r.is_empty());
    // But their negation matches everything, preserving Boolean semantics.
    let r = e.search("NOT 'the'").unwrap();
    assert_eq!(r.node_ids(), vec![0, 1, 2]);
}

#[test]
fn thesaurus_expansion_widens_matches_in_class() {
    use ftsl::lang::Thesaurus;
    let mut e = Ftsl::from_texts(&[
        "the car drove away",
        "an automobile approached",
        "the bike stayed",
    ]);
    let before = e.search("'car'").unwrap();
    assert_eq!(before.node_ids(), vec![0]);

    let mut th = Thesaurus::new();
    th.add("car", &["automobile"]);
    e.set_thesaurus(th);
    let after = e.search("'car'").unwrap();
    assert_eq!(after.node_ids(), vec![0, 1]);

    // Expansion inside a COMP proximity query stays streaming-evaluable.
    let r = e
        .search("SOME p1 SOME p2 (p1 HAS 'car' AND p2 HAS 'away' AND distance(p1,p2,5))")
        .unwrap();
    assert_eq!(r.node_ids(), vec![0]);
    assert_eq!(r.engine, EngineUsed::Ppred);
}

#[test]
fn top_k_truncates_ranked_results() {
    let e = engine();
    let full = e.search_ranked("'kernel'", RankModel::TfIdf).unwrap();
    assert!(full.hits.len() > 2);
    let top2 = e.search_top_k("'kernel'", RankModel::TfIdf, 2).unwrap();
    assert_eq!(top2.hits.len(), 2);
    assert_eq!(top2.hits[..], full.hits[..2]);
}
