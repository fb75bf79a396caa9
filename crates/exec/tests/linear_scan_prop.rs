//! The Section 5.5 complexity guarantee, machine-checked: a PPRED query is
//! evaluated in a *single scan* over the query-token inverted lists. We
//! verify it with access counters: the positions consumed never exceed the
//! total size of the lists the plan scans (once per scan leaf), and the
//! NPRED engine's consumption is bounded by that total times the number of
//! evaluation threads.

use ftsl_algebra::AlgExpr;
use ftsl_calculus::ast::QueryExpr;
use ftsl_exec::engine::{EngineKind, ExecOptions};
use ftsl_exec::plan::build_plan;
use ftsl_exec::{ppred, SnapshotExecutor};
use ftsl_index::{IndexBuilder, InvertedIndex, Snapshot};
use ftsl_lang::{lower, parse, Mode};
use ftsl_model::Corpus;
use ftsl_predicates::{AdvanceMode, PredicateRegistry};
use ftsl_testkit::{arb_corpus, prop_cases};
use proptest::prelude::*;
use std::ops::Range;

const VOCAB: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// Documents per corpus, and words per document, of [`arb_corpus`].
const DOCS: Range<usize> = 1..10;
const WORDS: Range<usize> = 0..20;

/// Random PPRED query strings over the vocabulary.
fn arb_ppred_query() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(0..VOCAB.len(), 1..4),
        proptest::collection::vec((0..3usize, 0..8i64), 0..3),
    )
        .prop_map(|(tokens, preds)| {
            let n = tokens.len();
            let mut conjuncts: Vec<String> = tokens
                .iter()
                .enumerate()
                .map(|(i, &t)| format!("p{i} HAS '{}'", VOCAB[t]))
                .collect();
            for (kind, c) in preds {
                let a = 0;
                let b = n - 1;
                conjuncts.push(match kind {
                    0 => format!("distance(p{a}, p{b}, {c})"),
                    1 => format!("ordered(p{a}, p{b})"),
                    _ => format!("samepara(p{a}, p{b})"),
                });
            }
            let mut q = conjuncts.join(" AND ");
            for i in (0..n).rev() {
                q = format!("SOME p{i} ({q})");
            }
            q
        })
}

/// Sum of (entries, positions) over every scan leaf (`TokenRel` /
/// `HasPos`) of the plan — the "size of the query token inverted lists" in
/// the paper's bounds, counting a list once per leaf occurrence.
fn scanned_totals(node: &AlgExpr, corpus: &Corpus, index: &InvertedIndex) -> (u64, u64) {
    match node {
        AlgExpr::TokenRel(token) => match corpus.token_id(token) {
            Some(id) => {
                let list = index.block_list(id);
                (list.num_entries() as u64, list.num_positions() as u64)
            }
            None => (0, 0),
        },
        AlgExpr::HasPos => {
            let list = index.any_block_list();
            (list.num_entries() as u64, list.num_positions() as u64)
        }
        AlgExpr::SearchContext => (0, 0),
        AlgExpr::Join(a, b)
        | AlgExpr::Union(a, b)
        | AlgExpr::Intersect(a, b)
        | AlgExpr::Difference(a, b) => {
            let (e1, p1) = scanned_totals(a, corpus, index);
            let (e2, p2) = scanned_totals(b, corpus, index);
            (e1 + e2, p1 + p2)
        }
        AlgExpr::Select { input, .. } | AlgExpr::Project(input, _) => {
            scanned_totals(input, corpus, index)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(128)))]

    #[test]
    fn ppred_is_single_scan(
        query in arb_ppred_query(),
        corpus in arb_corpus(&VOCAB, DOCS, WORDS),
    ) {
        let reg = PredicateRegistry::with_builtins();
        let index = IndexBuilder::new().build(&corpus);
        let surface = parse(&query, Mode::Comp).expect("generated query parses");
        let expr: QueryExpr = lower(&surface, &reg).expect("lowers");

        let plan = build_plan(&expr, &reg, false).expect("PPRED-plannable");
        let (max_entries, max_positions) = scanned_totals(&plan.root, &corpus, &index);

        for mode in [AdvanceMode::Aggressive, AdvanceMode::Conservative] {
            let (_, counters) =
                ppred::run_ppred(&expr, &corpus, &index, &reg, mode).expect("runs");
            prop_assert!(
                counters.entries <= max_entries,
                "entries {} > list total {max_entries} for {query}",
                counters.entries
            );
            prop_assert!(
                counters.positions <= max_positions,
                "positions {} > list total {max_positions} for {query} ({mode:?})",
                counters.positions
            );
            prop_assert_eq!(counters.tuples, 0, "PPRED must not materialize");
        }
    }

    #[test]
    fn npred_is_linear_per_thread(
        query in arb_ppred_query(),
        corpus in arb_corpus(&VOCAB, DOCS, WORDS),
    ) {
        let reg = PredicateRegistry::with_builtins();
        let index = IndexBuilder::new().build(&corpus);
        let surface = parse(&query, Mode::Comp).expect("parses");
        let expr: QueryExpr = lower(&surface, &reg).expect("lowers");

        let plan = build_plan(&expr, &reg, true).expect("plannable");
        let (_, max_positions) = scanned_totals(&plan.root, &corpus, &index);
        let mut scan_vars = plan.scan_vars.clone();
        scan_vars.sort_unstable();
        scan_vars.dedup();
        let threads: u64 = (1..=scan_vars.len() as u64).product();

        let snapshot = Snapshot::of_index(corpus, index);
        let options = ExecOptions { npred_full_permutations: true, ..Default::default() };
        let counters = SnapshotExecutor::with_options(&snapshot, &reg, options)
            .run_surface(&surface, EngineKind::Npred)
            .expect("runs")
            .counters;
        prop_assert!(
            counters.positions <= max_positions * threads,
            "positions {} > {} × {} threads for {query}",
            counters.positions,
            max_positions,
            threads
        );
        prop_assert_eq!(counters.tuples, 0, "NPRED must not materialize");
    }
}
