//! Differential lockdown of the word-pair fast path.
//!
//! The contract: rewriting a closed two-scan proximity core (phrase,
//! NEAR, ordered-window) to a walk over the word-pair auxiliary lists is
//! **invisible** — an index with word pairs must return node lists
//! bit-identical to the position-intersection oracle, the same corpus
//! sealed with `PairConfig::disabled()`, on every corpus and every
//! pair-index configuration (default df cutoff, cutoff disabled, a window
//! small enough to force fallback, and pairs disabled entirely). Both
//! sides run through the snapshot executor, on one fully live segment.
//!
//! Corpora are Zipf-skewed so the same run exercises both coverage
//! regimes: frequent tokens resolve from pair lists, rare ones fall below
//! the df cutoff and take the fallback path.
//!
//! The same holds for a core anywhere in a larger plan: one side of a
//! thesaurus-style `OR`, beside a token, under `NOT`, in a union of two
//! cores, and beside a negative predicate under NPRED.
//!
//! COMP's gap cores are held to the same oracle: `exact_gap(p1,p2,g)`
//! implies `distance(p1,p2,g)`, so forced COMP evaluates the selection only
//! at the nodes the pair walk admits — alone, beside a third scan, in an
//! `OR` branch, under `NOT`, past the window, over a token below the df
//! cutoff, and over one token twice — and must answer as without pairs.
//!
//! NEAR top-k with `k` at least the live documents is the same question
//! ranked: its node set must be the PPRED answer of the matching `window`
//! query, each scored by the closeness of its brute-force minimum gap.
//!
//! The deterministic tests pin the edge cases: same-token phrases
//! (`a a`), adjacent repeats (`a a a`), `window(…, 0)` (refused — two
//! variables may bind one position), phrases longer than any document,
//! and pair lists straddling a 128-entry block boundary.
//!
//! The scheduled CI fuzz job raises the case count via
//! `FTSL_PROPTEST_CASES`; the default keeps PR builds quick.

use ftsl_exec::engine::EngineKind;
use ftsl_exec::{ExecScratch, PairQuery, SnapshotExecutor};
use ftsl_index::{IndexBuilder, PairConfig, Snapshot};
use ftsl_model::{Corpus, NodeId};
use ftsl_predicates::PredicateRegistry;
use ftsl_scoring::closeness;
use ftsl_testkit::prop_cases;
use proptest::prelude::*;

const VOCAB: usize = 12;

fn token(i: usize) -> String {
    format!("t{i}")
}

/// Zipf-ish corpus of fewer than `max_docs` documents: raw draws in
/// `0..1024` squared down so low token indices dominate — index 0 appears
/// ~25× as often as index 11.
fn arb_corpus(max_docs: usize) -> impl Strategy<Value = Corpus> {
    arb_texts(max_docs).prop_map(|texts| Corpus::from_texts(&texts))
}

/// The texts of [`arb_corpus`].
fn arb_texts(max_docs: usize) -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(proptest::collection::vec(0u32..1024, 0..30), 1..max_docs).prop_map(
        |docs| {
            docs.into_iter()
                .map(|draws| {
                    let mut text = String::new();
                    for d in draws {
                        let u = f64::from(d) / 1024.0;
                        let idx = ((u * u) * VOCAB as f64) as usize;
                        text.push_str(&token(idx.min(VOCAB - 1)));
                        text.push(' ');
                    }
                    text
                })
                .collect()
        },
    )
}

/// The proximity shapes the rewrite recognizes (plus `window` alone,
/// which is undirected).
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `ordered + distance(0)`: adjacency, the phrase core.
    Phrase,
    /// `ordered + window(w)`: directed, gap ≤ w.
    OrderedWindow(u32),
    /// `distance(d)` alone: symmetric, gap ≤ d+1 either way.
    Near(u32),
    /// `window(w)` alone: symmetric.
    Window(u32),
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Phrase),
        (1u32..20).prop_map(Shape::OrderedWindow),
        (0u32..20).prop_map(Shape::Near),
        (0u32..20).prop_map(Shape::Window),
    ]
}

fn render_query(a: &str, b: &str, shape: Shape) -> String {
    let preds = match shape {
        Shape::Phrase => "ordered(p1,p2) AND distance(p1,p2,0)".to_string(),
        Shape::OrderedWindow(w) => format!("ordered(p1,p2) AND window(p1,p2,{w})"),
        Shape::Near(d) => format!("distance(p1,p2,{d})"),
        Shape::Window(w) => format!("window(p1,p2,{w})"),
    };
    format!("SOME p1 SOME p2 (p1 HAS '{a}' AND p2 HAS '{b}' AND {preds})")
}

/// Pair-index configurations under test: the default (window 16,
/// df cutoff 2), cutoff off (every pair indexed), a window small enough
/// that wide bounds must fall back, and pairs disabled entirely.
fn pair_configs() -> [PairConfig; 4] {
    [
        PairConfig::default(),
        PairConfig {
            window: 16,
            df_cutoff: 0,
        },
        PairConfig {
            window: 4,
            df_cutoff: 2,
        },
        PairConfig::disabled(),
    ]
}

/// `corpus` sealed as one segment under `config`.
fn sealed(corpus: &Corpus, config: PairConfig) -> Snapshot {
    let index = IndexBuilder::new().pair_config(config).build(corpus);
    Snapshot::of_index(corpus.clone(), index)
}

/// Pair path vs oracle on one (corpus, query) under `engine`: the corpus
/// sealed under every configuration of [`pair_configs`] must answer as it
/// does sealed without pairs, node list for node list.
fn assert_pair_matches_oracle(
    corpus: &Corpus,
    query: &str,
    engine: EngineKind,
    ctx: &str,
) -> Result<(), ()> {
    let reg = PredicateRegistry::with_builtins();
    let pairless = sealed(corpus, PairConfig::disabled());
    let want = SnapshotExecutor::new(&pairless, &reg)
        .run_str(query, engine)
        .expect("oracle runs");
    // The oracle never reads pair lists — its counters prove it is
    // the independent position-intersection implementation.
    prop_assert_eq!(
        want.counters.pair_entries,
        0,
        "{}: oracle touched pairs",
        ctx
    );
    for config in pair_configs() {
        let paired = sealed(corpus, config);
        let got = SnapshotExecutor::new(&paired, &reg)
            .run_str(query, engine)
            .expect("pair path runs");
        prop_assert_eq!(
            &got.nodes,
            &want.nodes,
            "{} window={} cutoff={}: pair path diverged on {}",
            ctx,
            config.window,
            config.df_cutoff,
            query
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(24)))]

    /// Every proximity shape, on every pair configuration, over Zipf
    /// corpora: the pair rewrite is invisible.
    #[test]
    fn pair_path_is_bit_identical_to_intersection_oracle(
        corpus in arb_corpus(12),
        a in 0..VOCAB,
        b in 0..VOCAB,
        shape in arb_shape(),
    ) {
        let query = render_query(&token(a), &token(b), shape);
        assert_pair_matches_oracle(&corpus, &query, EngineKind::Ppred, "random corpus")?;
    }

    /// The same cores inside larger plans — a union branch, a join side, a
    /// `NOT` filter, beside an NPRED conjunct — on every configuration.
    /// Corpora are larger here, so a join or filter seeks its core's walk
    /// past in-bound entries onto out-of-bound ones.
    #[test]
    fn compound_plans_are_bit_identical_to_intersection_oracle(
        corpus in arb_corpus(60),
        a in 0..VOCAB,
        b in 0..VOCAB,
        c in 0..VOCAB,
        shape in arb_shape(),
        compound in arb_compound(),
    ) {
        let (query, engine) = render_compound(&token(a), &token(b), &token(c), shape, compound);
        assert_pair_matches_oracle(&corpus, &query, engine, "compound plan")?;
    }
}

/// Plans that hold a proximity core below their root.
#[derive(Clone, Copy, Debug)]
enum Compound {
    /// The first scan an `OR` of two tokens, the shape a thesaurus
    /// expansion writes: a union of two cores.
    Thesaurus,
    /// `'c' AND core`: the core one side of a join.
    And,
    /// `'c' AND NOT core`: the core a `NOT` filter.
    AndNot,
    /// `core OR core'`.
    Or,
    /// `core AND` a `not_distance` conjunct: the core in an NPRED plan.
    BesideNpred,
}

fn arb_compound() -> impl Strategy<Value = Compound> {
    prop_oneof![
        Just(Compound::Thesaurus),
        Just(Compound::And),
        Just(Compound::AndNot),
        Just(Compound::Or),
        Just(Compound::BesideNpred),
    ]
}

/// The query text of `compound` over the core of `a`, `b` and `shape`
/// (`c` the third token it names), and the engine that runs it.
fn render_compound(
    a: &str,
    b: &str,
    c: &str,
    shape: Shape,
    compound: Compound,
) -> (String, EngineKind) {
    let core = render_query(a, b, shape);
    let query = match compound {
        Compound::Thesaurus => core.replacen(
            &format!("p1 HAS '{a}'"),
            &format!("(p1 HAS '{a}' OR p1 HAS '{c}')"),
            1,
        ),
        Compound::And => format!("'{c}' AND {core}"),
        Compound::AndNot => format!("'{c}' AND NOT {core}"),
        Compound::Or => format!("{core} OR {}", render_query(c, a, shape)),
        Compound::BesideNpred => format!(
            "{core} AND SOME p3 SOME p4 (p3 HAS '{c}' AND p4 HAS '{a}' AND not_distance(p3,p4,2))"
        ),
    };
    let engine = match compound {
        Compound::BesideNpred => EngineKind::Npred,
        _ => EngineKind::Ppred,
    };
    (query, engine)
}

/// Where COMP's `exact_gap` core sits, and what it is over.
#[derive(Clone, Copy, Debug)]
enum GapArm {
    /// The core is the whole query.
    Alone,
    /// A third scan joins the two, so the core is one join side.
    BesideScan,
    /// `core OR 'c'`: the core one union branch.
    OrBranch,
    /// `'c' AND NOT core`: the core the right of a difference.
    UnderNot,
    /// A gap past every window: no segment covers the core.
    PastWindow,
    /// One token is [`RARE`], in one document: below the df cutoff.
    Rare,
    /// Both scans on one token.
    SameToken,
}

/// A token planted in exactly one document of a COMP corpus.
const RARE: &str = "rare";

fn arb_gap_arm() -> impl Strategy<Value = GapArm> {
    prop_oneof![
        Just(GapArm::Alone),
        Just(GapArm::BesideScan),
        Just(GapArm::OrBranch),
        Just(GapArm::UnderNot),
        Just(GapArm::PastWindow),
        Just(GapArm::Rare),
        Just(GapArm::SameToken),
    ]
}

/// The COMP query of `arm` over `exact_gap(p1,p2,g)`, `c` the third token
/// it names.
fn render_gap(a: &str, b: &str, c: &str, g: u32, arm: GapArm) -> String {
    let core = |a: &str, b: &str, g: u32| {
        format!("SOME p1 SOME p2 (p1 HAS '{a}' AND p2 HAS '{b}' AND exact_gap(p1,p2,{g}))")
    };
    match arm {
        GapArm::Alone => core(a, b, g),
        GapArm::BesideScan => format!(
            "SOME p1 SOME p2 SOME p3 (p1 HAS '{a}' AND p2 HAS '{b}' AND p3 HAS '{c}' \
             AND exact_gap(p1,p2,{g}))"
        ),
        GapArm::OrBranch => format!("{} OR '{c}'", core(a, b, g)),
        GapArm::UnderNot => format!("'{c}' AND NOT {}", core(a, b, g)),
        GapArm::PastWindow => core(a, b, g + 16),
        GapArm::Rare => core(RARE, a, g),
        GapArm::SameToken => core(a, a, g),
    }
}

/// The smallest gap between an occurrence of `a` and a later one of `b`
/// in each document (either order unless `directed`), by brute force over
/// every occurrence pair; `None` when no such pair exists.
fn brute_min_gaps(corpus: &Corpus, a: &str, b: &str, directed: bool) -> Vec<Option<u32>> {
    let offsets = |doc: &ftsl_model::Document, t: &str| -> Vec<i64> {
        let id = corpus.token_id(t);
        doc.tokens
            .iter()
            .filter(|(tok, _)| Some(*tok) == id)
            .map(|(_, p)| i64::from(p.offset))
            .collect()
    };
    corpus
        .documents()
        .iter()
        .map(|doc| {
            let (pa, pb) = (offsets(doc, a), offsets(doc, b));
            pa.iter()
                .flat_map(|x| pb.iter().map(move |y| y - x))
                .map(|gap| if directed { gap } else { gap.abs() })
                .filter(|&gap| gap > 0)
                .min()
                .map(|gap| u32::try_from(gap).expect("offsets fit u32"))
        })
        .collect()
}

/// NEAR top-k over every live document against the set answer, on every
/// configuration of [`pair_configs`].
fn assert_near_top_k_matches_set(
    corpus: &Corpus,
    a: &str,
    b: &str,
    bound: u32,
    directed: bool,
) -> Result<(), ()> {
    let reg = PredicateRegistry::with_builtins();
    let order = if directed { " AND ordered(p1,p2)" } else { "" };
    let query =
        format!("SOME p1 SOME p2 (p1 HAS '{a}' AND p2 HAS '{b}' AND window(p1,p2,{bound}){order})");
    let gaps = brute_min_gaps(corpus, a, b, directed);
    let q = PairQuery {
        first: a.to_string(),
        second: b.to_string(),
        directed,
        bound,
    };
    for config in pair_configs() {
        let snapshot = sealed(corpus, config);
        let exec = SnapshotExecutor::new(&snapshot, &reg);
        let want = exec.run_str(&query, EngineKind::Ppred).expect("set runs");
        let k = snapshot.live_doc_count();
        let ranked = exec.run_near_top_k_with(&q, k, &mut ExecScratch::new());
        let mut got: Vec<NodeId> = ranked.hits.iter().map(|&(n, _)| n).collect();
        got.sort_unstable();
        let ctx = format!("window={} cutoff={}", config.window, config.df_cutoff);
        prop_assert_eq!(&got, &want.nodes, "{} near top-k vs set: {}", ctx, query);
        for &(node, score) in &ranked.hits {
            let gap = gaps[node.index()].expect("a hit holds a pair");
            prop_assert_eq!(score, closeness(gap, bound), "{} node {}", ctx, node.0);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(24)))]

    /// NEAR top-k with `k` = live documents ranks exactly the set answer,
    /// each document by the closeness of its minimum gap.
    #[test]
    fn near_top_k_equals_the_set_answer(
        corpus in arb_corpus(12),
        a in 0..VOCAB,
        b in 0..VOCAB,
        bound in 0u32..20,
        ordered in any::<bool>(),
    ) {
        // Undirected over one token, two variables may bind one
        // occurrence: the set query and the pair semantics differ there.
        prop_assume!(a != b || ordered);
        assert_near_top_k_matches_set(&corpus, &token(a), &token(b), bound, ordered)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(24)))]

    /// Forced COMP over an `exact_gap` core, wherever it sits, on every
    /// configuration: the pair walk that filters the core's subtree
    /// removes no answer. The first document holds [`RARE`] once, beside
    /// `t0`.
    #[test]
    fn comp_gap_cores_are_bit_identical_to_intersection_oracle(
        mut texts in arb_texts(60),
        a in 0..VOCAB,
        b in 0..VOCAB,
        c in 0..VOCAB,
        g in 0u32..6,
        arm in arb_gap_arm(),
    ) {
        texts[0].insert_str(0, &format!("{} {RARE} ", token(0)));
        let corpus = Corpus::from_texts(&texts);
        let query = render_gap(&token(a), &token(b), &token(c), g, arm);
        assert_pair_matches_oracle(&corpus, &query, EngineKind::Comp, "COMP gap core")?;
    }
}

// ── deterministic edge cases ─────────────────────────────────────────────

fn check(corpus: &Corpus, query: &str, ctx: &str) {
    check_with(corpus, query, EngineKind::Ppred, ctx);
}

fn check_with(corpus: &Corpus, query: &str, engine: EngineKind, ctx: &str) {
    assert_pair_matches_oracle(corpus, query, engine, ctx).unwrap();
}

/// A "phrase" whose two slots bind the same token: `a a`. Directed
/// self-pairs are indexed, so this still takes the fast path — and the
/// symmetric variants must refuse it (two variables may bind the *same*
/// occurrence, which pair lists cannot represent).
#[test]
fn same_token_phrase_and_near() {
    let corpus = Corpus::from_texts(&["a a b", "a b a", "a", "b a"]);
    check(
        &corpus,
        &render_query("a", "a", Shape::Phrase),
        "a-a phrase",
    );
    check(&corpus, &render_query("a", "a", Shape::Near(2)), "a-a near");
    check(
        &corpus,
        &render_query("a", "a", Shape::Window(3)),
        "a-a window",
    );
}

/// `window(p1,p2,0)` binds both variables to one offset — satisfiable
/// exactly when the document has the token at all (p1 = p2). The rewrite
/// must refuse (pair gaps start at 1) and the fallback must agree.
#[test]
fn window_zero_is_position_equality() {
    let corpus = Corpus::from_texts(&["a b", "b a", "a", "c"]);
    check(&corpus, &render_query("a", "b", Shape::Window(0)), "w0 a-b");
    check(&corpus, &render_query("a", "a", Shape::Window(0)), "w0 a-a");
    // distance(…,0) symmetric: adjacency either way.
    check(&corpus, &render_query("a", "b", Shape::Near(0)), "d0 a-b");
}

/// Adjacent repeats: every consecutive `a a` is a self-pair with gap 1;
/// the minimum-gap semantics must not double-count or miss the overlap.
#[test]
fn adjacent_repeats() {
    let corpus = Corpus::from_texts(&["a a a", "a a", "a", "a b a"]);
    check(
        &corpus,
        &render_query("a", "a", Shape::Phrase),
        "aaa phrase",
    );
    check(
        &corpus,
        &render_query("a", "a", Shape::OrderedWindow(2)),
        "aaa ow2",
    );
    check(
        &corpus,
        &render_query("a", "a", Shape::Near(1)),
        "aaa near1",
    );
}

/// A phrase longer than any document matches nothing — on both paths.
#[test]
fn phrase_longer_than_any_document() {
    let corpus = Corpus::from_texts(&["a", "b", "a", "b"]);
    let query = render_query("a", "b", Shape::Phrase);
    check(&corpus, &query, "1-token docs");
    let reg = PredicateRegistry::with_builtins();
    let every_pair = sealed(
        &corpus,
        PairConfig {
            window: 16,
            df_cutoff: 0,
        },
    );
    let exec = SnapshotExecutor::new(&every_pair, &reg);
    let out = exec.run_str(&query, EngineKind::Ppred).expect("runs");
    assert!(out.nodes.is_empty(), "no document can hold the phrase");
}

/// A pair list long enough to straddle the 128-entry block boundary:
/// 300 planted `a b` documents make one (a,b) list spanning 3 blocks.
/// The block-at-a-time walk must not lose entries at the seams.
#[test]
fn pair_list_straddles_block_boundary() {
    let mut texts: Vec<String> = Vec::new();
    for i in 0..300 {
        // Vary the gap so the distance column is not constant: even docs
        // adjacent, odd docs one filler apart.
        if i % 2 == 0 {
            texts.push("a b".to_string());
        } else {
            texts.push("a x b".to_string());
        }
    }
    texts.push("b a".to_string());
    let corpus = Corpus::from_texts(&texts);
    check(
        &corpus,
        &render_query("a", "b", Shape::Phrase),
        "300-doc phrase",
    );
    check(
        &corpus,
        &render_query("a", "b", Shape::OrderedWindow(2)),
        "300-doc ow",
    );
    check(
        &corpus,
        &render_query("a", "b", Shape::Near(1)),
        "300-doc near",
    );

    // And prove the fast path actually engaged: with pairs on, the walk
    // reads pair postings; the planted phrase resolves without decoding
    // any position payload.
    let reg = PredicateRegistry::with_builtins();
    let default = sealed(&corpus, PairConfig::default());
    let exec = SnapshotExecutor::new(&default, &reg);
    let out = exec
        .run_str(&render_query("a", "b", Shape::Phrase), EngineKind::Ppred)
        .expect("runs");
    // The 150 even docs are adjacent; odd docs (gap 2) and the reversed
    // `b a` are not phrase matches.
    assert_eq!(out.nodes.len(), 150);
    assert!(out.counters.pair_entries > 0, "pair path engaged");
    assert_eq!(out.counters.positions_decoded, 0, "no positions touched");
}

/// The walk engages on COMP: an `exact_gap` core over two covered tokens
/// reads pair entries and materializes fewer tuples than without pairs,
/// for the same answer. 300 documents hold `a` and `b` apart by one or two
/// tokens, or reversed.
#[test]
fn comp_gap_core_reads_the_pair_lists() {
    let texts: Vec<String> = (0..300)
        .map(|i| match i % 3 {
            0 => "a b x".to_string(),
            1 => "a x b".to_string(),
            _ => "b x x a".to_string(),
        })
        .collect();
    let corpus = Corpus::from_texts(&texts);
    let query = render_gap("a", "b", "x", 1, GapArm::Alone);
    check_with(&corpus, &query, EngineKind::Comp, "300-doc exact_gap");
    let reg = PredicateRegistry::with_builtins();
    let run = |config| {
        let snapshot = sealed(&corpus, config);
        let exec = SnapshotExecutor::new(&snapshot, &reg);
        exec.run_str(&query, EngineKind::Comp).expect("runs")
    };
    let (paired, pairless) = (run(PairConfig::default()), run(PairConfig::disabled()));
    // Gap 2 either way: `a x b`, and `b x x a` is 3 apart.
    assert_eq!(paired.nodes.len(), 100);
    assert!(paired.counters.pair_entries > 0, "pair filter engaged");
    assert!(paired.counters.tuples < pairless.counters.tuples);
}
