//! Cross-crate integration: every engine agrees on the languages it
//! supports, over a realistic synthetic corpus.

use ftsl::corpus::SynthConfig;
use ftsl::exec::engine::{EngineKind, ExecOptions};
use ftsl::exec::SnapshotExecutor;
use ftsl::index::{IndexBuilder, Snapshot};
use ftsl::lang::{parse, Mode};
use ftsl::predicates::PredicateRegistry;

fn fixture() -> (
    ftsl::model::Corpus,
    ftsl::index::InvertedIndex,
    PredicateRegistry,
) {
    let corpus = SynthConfig::small()
        .plant("apple", 0.5, 3)
        .plant("banana", 0.4, 2)
        .plant("cherry", 0.3, 2)
        .build();
    let index = IndexBuilder::new().build(&corpus);
    (corpus, index, PredicateRegistry::with_builtins())
}

const PPRED_QUERIES: &[&str] = &[
    "'apple' AND 'banana'",
    "SOME p1 SOME p2 (p1 HAS 'apple' AND p2 HAS 'banana' AND distance(p1,p2,10))",
    "SOME p1 SOME p2 (p1 HAS 'apple' AND p2 HAS 'banana' AND ordered(p1,p2))",
    "SOME p1 SOME p2 (p1 HAS 'apple' AND p2 HAS 'cherry' AND samepara(p1,p2))",
    "SOME p1 SOME p2 SOME p3 (p1 HAS 'apple' AND p2 HAS 'banana' AND p3 HAS 'cherry' \
     AND window(p1,p2,40) AND ordered(p2,p3))",
    "SOME p1 (p1 HAS 'apple' AND SOME p2 (p2 HAS 'banana' AND distance(p1,p2,6))) \
     AND NOT 'cherry'",
];

const NPRED_QUERIES: &[&str] = &[
    "SOME p1 SOME p2 (p1 HAS 'apple' AND p2 HAS 'apple' AND diffpos(p1,p2))",
    "SOME p1 SOME p2 (p1 HAS 'apple' AND p2 HAS 'banana' AND not_distance(p1,p2,15))",
    "SOME p1 SOME p2 (p1 HAS 'apple' AND p2 HAS 'banana' AND not_samepara(p1,p2))",
    "SOME p1 SOME p2 SOME p3 (p1 HAS 'apple' AND p2 HAS 'banana' AND p3 HAS 'cherry' \
     AND not_distance(p1,p2,5) AND ordered(p1,p3))",
];

#[test]
fn ppred_queries_agree_across_all_capable_engines() {
    let (corpus, index, reg) = fixture();
    let snapshot = Snapshot::of_index(corpus, index);
    let exec = SnapshotExecutor::new(&snapshot, &reg);
    for q in PPRED_QUERIES {
        let surface = parse(q, Mode::Comp).unwrap();
        let ppred = exec.run_surface(&surface, EngineKind::Ppred).unwrap();
        let npred = exec.run_surface(&surface, EngineKind::Npred).unwrap();
        let comp = exec.run_surface(&surface, EngineKind::Comp).unwrap();
        assert_eq!(ppred.nodes, npred.nodes, "PPRED vs NPRED on {q}");
        assert_eq!(ppred.nodes, comp.nodes, "PPRED vs COMP on {q}");
    }
}

#[test]
fn npred_queries_agree_under_all_strategies() {
    let (corpus, index, reg) = fixture();
    let snapshot = Snapshot::of_index(corpus, index);
    let partial = SnapshotExecutor::new(&snapshot, &reg);
    let full = SnapshotExecutor::with_options(
        &snapshot,
        &reg,
        ExecOptions {
            npred_full_permutations: true,
            ..Default::default()
        },
    );
    for q in NPRED_QUERIES {
        let surface = parse(q, Mode::Comp).unwrap();
        let a = partial.run_surface(&surface, EngineKind::Npred).unwrap();
        let b = full.run_surface(&surface, EngineKind::Npred).unwrap();
        let reference = partial.run_surface(&surface, EngineKind::Comp).unwrap();
        assert_eq!(a.nodes, reference.nodes, "partial orders on {q}");
        assert_eq!(b.nodes, reference.nodes, "full permutations on {q}");
    }
}

#[test]
fn streaming_counters_beat_comp_on_positional_queries() {
    let (corpus, index, reg) = fixture();
    let snapshot = Snapshot::of_index(corpus, index);
    let exec = SnapshotExecutor::new(&snapshot, &reg);
    let q = "SOME p1 SOME p2 (p1 HAS 'apple' AND p2 HAS 'banana' AND distance(p1,p2,10))";
    let surface = parse(q, Mode::Comp).unwrap();
    let ppred = exec.run_surface(&surface, EngineKind::Ppred).unwrap();
    let comp = exec.run_surface(&surface, EngineKind::Comp).unwrap();
    assert!(
        ppred.counters.total() < comp.counters.total(),
        "PPRED {:?} should do less work than COMP {:?}",
        ppred.counters,
        comp.counters
    );
}

#[test]
fn index_roundtrip_through_persistence() {
    let (corpus, index, reg) = fixture();
    let bytes = ftsl::index::persist::encode(&index);
    let decoded = ftsl::index::persist::decode(bytes).unwrap();
    let built = Snapshot::of_index(corpus.clone(), index);
    let loaded = Snapshot::of_index(corpus, decoded);
    let exec1 = SnapshotExecutor::new(&built, &reg);
    let exec2 = SnapshotExecutor::new(&loaded, &reg);
    for q in PPRED_QUERIES {
        let surface = parse(q, Mode::Comp).unwrap();
        let a = exec1.run_surface(&surface, EngineKind::Auto).unwrap();
        let b = exec2.run_surface(&surface, EngineKind::Auto).unwrap();
        assert_eq!(a.nodes, b.nodes, "persisted index diverged on {q}");
    }
}
