//! Exhaustive ranking, pinned to the bit: `search_ranked`'s hits under
//! TF-IDF and PRA on a three-segment engine with a tombstone, for queries
//! that reach every score transformation — a join, a `distance` selection
//! (PRA's predicate factor), an `OR` whose arms bind different variables,
//! `NOT`, `EVERY`, and a projection that permutes and collapses columns
//! (where the order a group's scores fold in shows in the low bits).

use ftsl_algebra::from_calculus::query_to_algebra;
use ftsl_algebra::AlgExpr;
use ftsl_calculus::CalcQuery;
use ftsl_core::{ExecScratch, Ftsl, FtslError, LiveConfig, RankModel, ScoredOutput, ScoredPath};
use ftsl_exec::{ScoreModel, ScoredTopK, SnapshotExecutor};
use ftsl_lang::{lower, parse, Mode};
use ftsl_predicates::PredicateRegistry;

const JOIN: &str = "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b')";
const DISTANCE: &str = "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND distance(p1,p2,3))";
const MISMATCHED_OR: &str = "SOME p1 SOME p2 (p1 HAS 'a' OR p2 HAS 'c')";
const NOT: &str = "'a' AND NOT 'c'";
const EVERY: &str = "'b' AND EVERY p1 (p1 HAS 'a' OR p1 HAS 'b')";
/// `x` is shared by both conjuncts, so Lemma 2's `(E1 ⋈ π E2) ∩ …` projects
/// the right one onto `y` alone: each `a` position collapses every `b`, `c`
/// and `d` position — three scores in an uneven order — into one row.
const PERMUTING: &str =
    "SOME x SOME y (x HAS ANY AND ((x HAS 'b' OR x HAS 'c' OR x HAS 'd') AND y HAS 'a'))";

/// Three sealed segments; the deleted document held every query token.
/// Reversing the order a collapsed group's scores fold in changes the
/// `PERMUTING` bits under both models on this corpus.
fn engine() -> Ftsl {
    let e = Ftsl::with_config(LiveConfig {
        background_merge: false,
        ..LiveConfig::default()
    });
    for batch in [
        ["a b b a b", "a c a a d c a b", "b"],
        ["a c a b d c c", "c c b d a", "b a b d b c b"],
        ["b a", "a c c c", "b b d b"],
    ] {
        for text in batch {
            e.add(text);
        }
        e.flush();
    }
    assert!(e.delete(ftsl_model::NodeId(4)));
    assert_eq!(e.snapshot().segments().len(), 3);
    e
}

/// `(global node id, score bits)` of every hit, in rank order.
fn bits(query: &str, ranked: Result<ScoredOutput, FtslError>) -> Vec<(u32, u64)> {
    ranked
        .unwrap_or_else(|err| panic!("{query}: {err}"))
        .hits
        .iter()
        .map(|&(n, s)| (n.0, s.to_bits()))
        .collect()
}

/// Whether some projection both reorders columns and drops one, so that
/// rows collapse onto a key that is not a prefix of their own.
fn has_collapsing_permutation(e: &AlgExpr, reg: &PredicateRegistry) -> bool {
    match e {
        AlgExpr::Project(input, cols) => {
            let arity = input.arity(reg).expect("well formed");
            let prefix = cols.iter().enumerate().all(|(i, &c)| i == c);
            (!prefix && cols.len() < arity) || has_collapsing_permutation(input, reg)
        }
        AlgExpr::Select { input, .. } => has_collapsing_permutation(input, reg),
        AlgExpr::Join(a, b)
        | AlgExpr::Union(a, b)
        | AlgExpr::Intersect(a, b)
        | AlgExpr::Difference(a, b) => {
            has_collapsing_permutation(a, reg) || has_collapsing_permutation(b, reg)
        }
        AlgExpr::SearchContext | AlgExpr::HasPos | AlgExpr::TokenRel(_) => false,
    }
}

#[test]
fn the_permuting_query_translates_to_a_collapsing_permutation() {
    let reg = PredicateRegistry::with_builtins();
    let surface = parse(PERMUTING, Mode::Comp).expect("parses");
    let calc = CalcQuery::new(lower(&surface, &reg).expect("lowers"));
    let alg = query_to_algebra(&calc, &reg).expect("translates");
    assert!(has_collapsing_permutation(&alg, &reg), "{alg:?}");
}

/// A query, a model, and its hits as `(global node id, score bits)`.
type Golden = (&'static str, RankModel, &'static [(u32, u64)]);

/// Recorded from the whole-segment scored evaluator the node-at-a-time
/// one replaced; any change to a kernel's fold order shows here.
const GOLDEN: &[Golden] = &[
    (
        JOIN,
        RankModel::TfIdf,
        &[
            (6, 4607182418800017408),
            (0, 4607002080847513108),
            (5, 4604994388557356023),
            (1, 4604588684700132708),
            (3, 4601762907038617066),
        ],
    ),
    (
        JOIN,
        RankModel::Pra,
        &[
            (0, 4603376818935349404),
            (1, 4601542810357114088),
            (5, 4601542810357114088),
            (3, 4598161744360272400),
            (6, 4593987184891276604),
        ],
    ),
    (
        DISTANCE,
        RankModel::TfIdf,
        &[
            (6, 4607182418800017408),
            (0, 4607002080847513108),
            (5, 4603289596304336121),
            (3, 4601762907038617066),
            (1, 4600085085072762212),
        ],
    ),
    (
        DISTANCE,
        RankModel::Pra,
        &[
            (0, 4601971780171084642),
            (5, 4598771177931710336),
            (3, 4595378704714275204),
            (1, 4593987184891276604),
            (6, 4593987184891276604),
        ],
    ),
    (
        MISMATCHED_OR,
        RankModel::TfIdf,
        &[
            (3, 4606507828682213687),
            (7, 4606452597458304724),
            (1, 4606240405174099884),
            (6, 4601851101961822715),
            (5, 4600761879875323417),
            (0, 4600222451641851854),
        ],
    ),
    (
        MISMATCHED_OR,
        RankModel::Pra,
        &[
            (1, 4607182418799994071),
            (3, 4607182418795328623),
            (7, 4607182105491068089),
            (5, 4607180093762249333),
            (0, 4607113403208414076),
            (6, 4603782557036916600),
        ],
    ),
    (
        NOT,
        RankModel::TfIdf,
        &[(6, 4601851101961822715), (0, 4600222451641851854)],
    ),
    (
        NOT,
        RankModel::Pra,
        &[(0, 4603782557036916600), (6, 4600618366040576328)],
    ),
    (
        EVERY,
        RankModel::TfIdf,
        &[
            (2, 4604198848934080636),
            (0, 4603014587184848117),
            (6, 4601728311012991344),
        ],
    ),
    (
        EVERY,
        RankModel::Pra,
        &[
            (0, 4604672851367651325),
            (2, 4599920182199261308),
            (6, 4599920182199261308),
        ],
    ),
    (
        PERMUTING,
        RankModel::TfIdf,
        &[
            (5, 4603958088191430205),
            (3, 4603845752490531362),
            (7, 4602611687345994864),
            (1, 4601443148029671975),
            (0, 4599936470854651462),
            (6, 4598998991180499097),
        ],
    ),
    (
        PERMUTING,
        RankModel::Pra,
        &[
            (1, 4605423301849363815),
            (3, 4604514548895235032),
            (5, 4601940338944106478),
            (0, 4598175078201306164),
            (7, 4598172246227809140),
            (6, 4580814062462386976),
        ],
    ),
];

#[test]
fn ranked_scores_are_pinned_bit_for_bit() {
    let e = engine();
    for &(query, model, want) in GOLDEN {
        let got = bits(query, e.search_ranked(query, model));
        assert_eq!(got, want, "{query} under {model:?}");
    }
}

const OR: &str = "'a' OR 'b'";
const AND: &str = "'a' AND 'b'";

/// `search_top_k(query, model, 3)`'s hits as `(global node id, score
/// bits)`, recorded before top-k had one dispatch. `OR` takes the pruned
/// union under both models, and every other row the exhaustive ranking
/// truncated to three. Re-recorded on purpose when PRA top-k dropped its
/// score-stream tree, which ranked PRA's `AND` and `NOT` rows before:
/// * `NOT` (`'a' AND NOT 'c'`): the tree complemented `NOT`'s score over
///   every node, so the row held node 1, which contains `c` and which
///   `search_ranked` does not return. Node 1 is gone; nodes 0 and 6 kept
///   their bits.
/// * `AND`: same nodes in the same order, each score one unit in the last
///   place away from the tree's (the same product, folded differently).
const TOP_K_GOLDEN: &[Golden] = &[
    (
        JOIN,
        RankModel::TfIdf,
        &[
            (6, 4607182418800017408),
            (0, 4607002080847513108),
            (5, 4604994388557356023),
        ],
    ),
    (
        JOIN,
        RankModel::Pra,
        &[
            (0, 4603376818935349404),
            (1, 4601542810357114088),
            (5, 4601542810357114088),
        ],
    ),
    (
        DISTANCE,
        RankModel::TfIdf,
        &[
            (6, 4607182418800017408),
            (0, 4607002080847513108),
            (5, 4603289596304336121),
        ],
    ),
    (
        DISTANCE,
        RankModel::Pra,
        &[
            (0, 4601971780171084642),
            (5, 4598771177931710336),
            (3, 4595378704714275204),
        ],
    ),
    (
        MISMATCHED_OR,
        RankModel::TfIdf,
        &[
            (3, 4606507828682213687),
            (7, 4606452597458304724),
            (1, 4606240405174099884),
        ],
    ),
    (
        MISMATCHED_OR,
        RankModel::Pra,
        &[
            (1, 4607182418799994071),
            (3, 4607182418795328623),
            (7, 4607182105491068089),
        ],
    ),
    (
        NOT,
        RankModel::TfIdf,
        &[(6, 4601851101961822715), (0, 4600222451641851854)],
    ),
    (
        NOT,
        RankModel::Pra,
        &[(0, 4603782557036916600), (6, 4600618366040576328)],
    ),
    (
        EVERY,
        RankModel::TfIdf,
        &[
            (2, 4604198848934080636),
            (0, 4603014587184848117),
            (6, 4601728311012991344),
        ],
    ),
    (
        EVERY,
        RankModel::Pra,
        &[
            (0, 4604672851367651325),
            (2, 4599920182199261308),
            (6, 4599920182199261308),
        ],
    ),
    (
        PERMUTING,
        RankModel::TfIdf,
        &[
            (5, 4603958088191430205),
            (3, 4603845752490531362),
            (7, 4602611687345994864),
        ],
    ),
    (
        PERMUTING,
        RankModel::Pra,
        &[
            (1, 4605423301849363815),
            (3, 4604514548895235032),
            (5, 4601940338944106478),
        ],
    ),
    (
        OR,
        RankModel::TfIdf,
        &[
            (6, 4607182418800017408),
            (0, 4607002080847513109),
            (5, 4604994388557356023),
        ],
    ),
    (
        OR,
        RankModel::Pra,
        &[
            (1, 4606344241719081328),
            (0, 4606235156269910332),
            (5, 4606175399840191593),
        ],
    ),
    (
        AND,
        RankModel::TfIdf,
        &[
            (6, 4607182418800017408),
            (0, 4607002080847513108),
            (5, 4604994388557356023),
        ],
    ),
    (
        AND,
        RankModel::Pra,
        &[
            (0, 4601761685096668272),
            (5, 4599354230737056760),
            (1, 4599029909448309092),
        ],
    ),
];

#[test]
fn top_k_scores_are_pinned_bit_for_bit() {
    let e = engine();
    for &(query, model, want) in TOP_K_GOLDEN {
        let got = bits(query, e.search_top_k(query, model, 3));
        assert_eq!(got, want, "top 3 of {query} under {model:?}");
    }
}

/// `search_top_k` is one executor call: each request takes the arm the
/// executor's dispatch picks, at three segments, and the facade returns
/// that arm's hits.
#[test]
fn top_k_is_one_executor_dispatch() {
    let e = Ftsl::with_config(LiveConfig {
        background_merge: false,
        ..LiveConfig::default()
    });
    for batch in [
        &["test driven usability", "usability test"][..],
        &["test test something", "nothing here"],
        &["buffered test usability"],
    ] {
        for text in batch {
            e.add(text);
        }
        e.flush();
    }
    let snap = e.snapshot();
    assert_eq!(snap.segments().len(), 3);
    let stats = e.snapshot_stats(&snap);
    let exec = SnapshotExecutor::new(&snap, e.registry());
    let conj = "'test' AND 'usability'";
    for (query, tokens, model, path) in [
        (
            "'test' OR 'here'",
            &["test", "here"][..],
            RankModel::TfIdf,
            ScoredPath::PrunedUnion,
        ),
        (
            conj,
            &["test", "usability"],
            RankModel::Pra,
            ScoredPath::Exhaustive,
        ),
        (
            conj,
            &["test", "usability"],
            RankModel::TfIdf,
            ScoredPath::Exhaustive,
        ),
        (
            "NOT SOME p1 (p1 HAS 'test')",
            &["test"],
            RankModel::Pra,
            ScoredPath::Exhaustive,
        ),
    ] {
        let (tfidf, pra) = (
            stats.tfidf_model(tokens, &snap),
            stats.pra_model(tokens, &snap),
        );
        let m = match model {
            RankModel::TfIdf => ScoreModel::TfIdf(&tfidf),
            RankModel::Pra => ScoreModel::Pra(&pra),
        };
        let surface = parse(query, Mode::Comp).unwrap();
        let out = exec
            .run_top_k_with(
                &surface,
                ScoredTopK { k: 3 },
                &stats,
                &m,
                &mut ExecScratch::new(),
            )
            .unwrap();
        assert_eq!(out.path, path, "{query} under {model:?}");
        let hits = e.search_top_k(query, model, 3).unwrap().hits;
        assert!(!hits.is_empty(), "{query} under {model:?}");
        assert_eq!(out.hits, hits, "{query} under {model:?}");
    }
}
