//! The streaming engines' cursor trees, pinned by what they read.
//!
//! Each query below exercises one rule of the node-level normal form the
//! PPRED/NPRED lowering produces: unions on top, closed-`NOT` filters
//! above union-free cores, nested projections composed, shared variables
//! equated by `samepos`, predicate-only variables anchored on `HasPos`.
//! A different tree for the same query answers the same nodes but reads
//! the lists differently, so the answers and the access counters
//! (entries, positions, skipped entries, skipped blocks) of every query,
//! under every streaming engine that accepts it, are pinned over one fixed
//! corpus. So are COMP's reads of a gap core, which the word-pair walk
//! filters: an `exact_gap` selection is evaluated only at the nodes whose
//! pair lists hold an occurrence pair within its gap.

use ftsl_exec::engine::{EngineKind, ExecOptions};
use ftsl_exec::SnapshotExecutor;
use ftsl_index::{IndexBuilder, Snapshot};
use ftsl_model::Corpus;
use ftsl_predicates::PredicateRegistry;

const VOCAB: [&str; 8] = [
    "alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta",
];

/// Planted in every 250th document only.
const RARE: &str = "omega";

/// 3 000 documents of 4–19 words, drawn by a fixed linear congruential
/// generator with a skewed vocabulary: `alpha` is in most documents,
/// `theta` in few and [`RARE`] in 12, so joins have a rare and a common
/// side, and a rare side's seeks skip whole blocks of a common one.
fn corpus() -> Corpus {
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize
    };
    let texts: Vec<String> = (0..3000)
        .map(|i| {
            let len = 4 + next() % 16;
            let mut words: Vec<&str> = (0..len)
                .map(|_| {
                    // Weights 32, 16, 8, 8, 4, 2, 1, 1 of 72.
                    let r = next() % 72;
                    let t = match r {
                        0..=31 => 0,
                        32..=47 => 1,
                        48..=55 => 2,
                        56..=63 => 3,
                        64..=67 => 4,
                        68..=69 => 5,
                        70 => 6,
                        _ => 7,
                    };
                    VOCAB[t]
                })
                .collect();
            if i % 250 == 7 {
                words.insert(len / 2, RARE);
            }
            words.join(" ")
        })
        .collect();
    Corpus::from_texts(&texts)
}

/// One query per normal-form rule, and one with a word-pair leaf before
/// a join it does not replace.
const QUERIES: [(&str, &str); 13] = [
    (
        "or-under-and-left",
        "SOME p0 SOME p1 ((p0 HAS 'beta' OR p0 HAS 'gamma') AND p1 HAS 'delta' \
         AND distance(p0,p1,3))",
    ),
    (
        "or-under-and-right",
        "SOME p0 SOME p1 (p0 HAS 'alpha' AND (p1 HAS 'omega' OR p1 HAS 'eta') \
         AND ordered(p0,p1))",
    ),
    (
        "or-under-and-both",
        "SOME p0 SOME p1 ((p0 HAS 'alpha' OR p0 HAS 'theta') \
         AND (p1 HAS 'eps' OR p1 HAS 'delta') AND distance(p0,p1,2))",
    ),
    (
        "or-under-some",
        "SOME p0 (p0 HAS 'delta' AND SOME p1 ((p1 HAS 'zeta' OR p1 HAS 'gamma') \
         AND distance(p0,p1,1)))",
    ),
    (
        "not-inside-each-join-side",
        "SOME p0 (p0 HAS 'beta' AND NOT 'eta') AND SOME p1 (p1 HAS 'eps' AND NOT 'theta')",
    ),
    (
        "two-nots-across-one-join",
        "SOME p0 SOME p1 (p0 HAS 'alpha' AND p1 HAS 'omega' AND NOT 'eta' \
         AND NOT 'zeta' AND distance(p0,p1,4))",
    ),
    (
        "not-under-or",
        "SOME p0 SOME p1 (p0 HAS 'gamma' AND p1 HAS 'delta' AND ordered(p0,p1) \
         AND ((SOME p2 (p2 HAS 'alpha' AND NOT 'eps')) OR 'theta'))",
    ),
    (
        "shared-variable-samepos",
        "SOME p0 SOME p1 (p0 HAS 'alpha' AND p1 HAS 'beta' \
         AND (p0 HAS 'alpha' OR p0 HAS 'gamma') AND distance(p0,p1,2))",
    ),
    (
        "predicate-only-anchor",
        "SOME p0 SOME p1 (p0 HAS 'omega' AND ordered(p0,p1) AND distance(p0,p1,1))",
    ),
    (
        "core-before-a-join",
        "SOME p0 SOME p1 (p0 HAS 'beta' AND p1 HAS 'delta' AND distance(p0,p1,3)) \
         AND SOME p2 SOME p3 (p2 HAS 'omega' AND p3 HAS 'alpha' AND ordered(p2,p3))",
    ),
    (
        "npred-union-two-negative-vars",
        "SOME p0 SOME p1 ((p0 HAS 'beta' OR p0 HAS 'eps') AND p1 HAS 'gamma' \
         AND not_distance(p0,p1,3))",
    ),
    (
        "npred-three-vars-not",
        "SOME p0 SOME p1 SOME p2 (p0 HAS 'alpha' AND p1 HAS 'delta' AND p2 HAS 'eta' \
         AND not_ordered(p1,p2) AND distance(p0,p1,5) AND NOT 'theta')",
    ),
    (
        "npred-negative-inside-not",
        "SOME p0 (p0 HAS 'gamma' AND NOT SOME p1 SOME p2 (p1 HAS 'beta' AND p2 HAS 'delta' \
         AND not_distance(p1,p2,6)))",
    ),
];

/// A label, an engine and its options for each streaming run.
fn engines() -> [(&'static str, EngineKind, ExecOptions); 3] {
    let full = ExecOptions {
        npred_full_permutations: true,
        ..Default::default()
    };
    [
        ("PPRED", EngineKind::Ppred, ExecOptions::default()),
        ("NPRED", EngineKind::Npred, ExecOptions::default()),
        ("NPRED-full", EngineKind::Npred, full),
    ]
}

/// `label engine: hits H fnv F entries E positions P skipped S blocks B`,
/// or `label engine: refused` for a query outside the engine's fragment.
const PINNED: &str = "\
or-under-and-left PPRED: hits 2002 fnv 60fb399519e27d92 entries 5207 positions 0 skipped 0 blocks 0\n\
or-under-and-left NPRED: hits 2002 fnv 60fb399519e27d92 entries 5207 positions 0 skipped 0 blocks 0\n\
or-under-and-left NPRED-full: hits 2002 fnv 60fb399519e27d92 entries 10414 positions 0 skipped 0 blocks 0\n\
or-under-and-right PPRED: hits 388 fnv c8dbc76892e0163b entries 968 positions 96 skipped 5194 blocks 10\n\
or-under-and-right NPRED: hits 388 fnv c8dbc76892e0163b entries 968 positions 96 skipped 5194 blocks 10\n\
or-under-and-right NPRED-full: hits 388 fnv c8dbc76892e0163b entries 1936 positions 192 skipped 10388 blocks 20\n\
or-under-and-both PPRED: hits 2454 fnv 7afbeedad72af653 entries 6644 positions 0 skipped 0 blocks 0\n\
or-under-and-both NPRED: hits 2454 fnv 7afbeedad72af653 entries 6644 positions 0 skipped 0 blocks 0\n\
or-under-and-both NPRED-full: hits 2454 fnv 7afbeedad72af653 entries 13288 positions 0 skipped 0 blocks 0\n\
or-under-some PPRED: hits 1151 fnv ffcc0fa7d44fd384 entries 7924 positions 17474 skipped 5242 blocks 0\n\
or-under-some NPRED: hits 1151 fnv ffcc0fa7d44fd384 entries 7924 positions 17474 skipped 5242 blocks 0\n\
or-under-some NPRED-full: hits 1151 fnv ffcc0fa7d44fd384 entries 15848 positions 34948 skipped 10484 blocks 0\n\
not-inside-each-join-side PPRED: hits 873 fnv 2476e5dbccf48031 entries 3385 positions 0 skipped 1584 blocks 0\n\
not-inside-each-join-side NPRED: hits 873 fnv 2476e5dbccf48031 entries 3385 positions 0 skipped 1584 blocks 0\n\
not-inside-each-join-side NPRED-full: hits 873 fnv 2476e5dbccf48031 entries 81240 positions 0 skipped 38016 blocks 0\n\
two-nots-across-one-join PPRED: hits 7 fnv 41757a30a900884a entries 41 positions 0 skipped 1041 blocks 0\n\
two-nots-across-one-join NPRED: hits 7 fnv 41757a30a900884a entries 41 positions 0 skipped 1041 blocks 0\n\
two-nots-across-one-join NPRED-full: hits 7 fnv 41757a30a900884a entries 984 positions 0 skipped 24984 blocks 0\n\
not-under-or PPRED: hits 655 fnv 9ea179090af14a8b entries 7321 positions 1289 skipped 5910 blocks 0\n\
not-under-or NPRED: hits 655 fnv 9ea179090af14a8b entries 7321 positions 1289 skipped 5910 blocks 0\n\
not-under-or NPRED-full: hits 655 fnv 9ea179090af14a8b entries 878520 positions 154680 skipped 709200 blocks 0\n\
shared-variable-samepos PPRED: hits 2625 fnv 5483e16f97db73d8 entries 13950 positions 12245 skipped 2396 blocks 0\n\
shared-variable-samepos NPRED: hits 2625 fnv 5483e16f97db73d8 entries 13950 positions 12245 skipped 2396 blocks 0\n\
shared-variable-samepos NPRED-full: hits 2625 fnv 5483e16f97db73d8 entries 27900 positions 24490 skipped 4792 blocks 0\n\
predicate-only-anchor PPRED: hits 12 fnv 1e27a631c62a0bcd entries 24 positions 67 skipped 2746 blocks 10\n\
predicate-only-anchor NPRED: hits 12 fnv 1e27a631c62a0bcd entries 24 positions 67 skipped 2746 blocks 10\n\
predicate-only-anchor NPRED-full: hits 12 fnv 1e27a631c62a0bcd entries 48 positions 134 skipped 5492 blocks 20\n\
core-before-a-join PPRED: hits 7 fnv a555511739789e34 entries 50 positions 25 skipped 5224 blocks 12\n\
core-before-a-join NPRED: hits 7 fnv a555511739789e34 entries 50 positions 25 skipped 5224 blocks 12\n\
core-before-a-join NPRED-full: hits 7 fnv a555511739789e34 entries 1200 positions 600 skipped 125376 blocks 288\n\
npred-union-two-negative-vars PPRED: refused\n\
npred-union-two-negative-vars NPRED: hits 1527 fnv 3ac6e16847d899fa entries 13016 positions 7990 skipped 3492 blocks 0\n\
npred-union-two-negative-vars NPRED-full: hits 1527 fnv 3ac6e16847d899fa entries 13016 positions 7990 skipped 3492 blocks 0\n\
npred-three-vars-not PPRED: refused\n\
npred-three-vars-not NPRED: hits 146 fnv 141488812ac20116 entries 2867 positions 967 skipped 8677 blocks 0\n\
npred-three-vars-not NPRED-full: hits 146 fnv 141488812ac20116 entries 34404 positions 11604 skipped 104124 blocks 0\n\
npred-negative-inside-not PPRED: refused\n\
npred-negative-inside-not NPRED: hits 1922 fnv adf6104d86bfffac entries 11736 positions 6737 skipped 2086 blocks 0\n\
npred-negative-inside-not NPRED-full: hits 1922 fnv adf6104d86bfffac entries 35208 positions 20211 skipped 6258 blocks 0\n\
";

fn fnv(ids: &[u32]) -> u64 {
    ids.iter().fold(0xcbf2_9ce4_8422_2325, |h, &id| {
        (h ^ u64::from(id)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `label engine: hits H fnv F entries E positions P skipped S blocks B`
/// for one run, or `label engine: refused`.
fn line(
    label: &str,
    name: &str,
    exec: &SnapshotExecutor,
    query: &str,
    engine: EngineKind,
) -> String {
    match exec.run_str(query, engine) {
        Ok(out) => {
            let ids = out.node_ids();
            let c = out.counters;
            format!(
                "{label} {name}: hits {} fnv {:016x} entries {} positions {} \
                 skipped {} blocks {}\n",
                ids.len(),
                fnv(&ids),
                c.entries,
                c.positions,
                c.skipped,
                c.blocks_skipped
            )
        }
        Err(_) => format!("{label} {name}: refused\n"),
    }
}

#[test]
fn cursor_trees_read_the_pinned_counters() {
    let corpus = corpus();
    let snapshot = Snapshot::of_index(corpus.clone(), IndexBuilder::new().build(&corpus));
    let reg = PredicateRegistry::with_builtins();
    let mut lines = String::new();
    for (label, query) in QUERIES {
        for (name, engine, options) in engines() {
            let exec = SnapshotExecutor::with_options(&snapshot, &reg, options);
            lines.push_str(&line(label, name, &exec, query, engine));
        }
    }
    assert_eq!(lines, PINNED, "actual:\n{lines}");
}

/// BOOL's shapes, one per way a BOOL query lowers: a join of two common
/// lists, a join with a rare side, a union, a closed-`NOT` filter, a root
/// `NOT` (the filter over `SearchContext`), `ANY` filtered, and a union
/// under a join.
const BOOL_QUERIES: [(&str, &str); 7] = [
    ("and", "'alpha' AND 'beta'"),
    ("rare-and", "'alpha' AND 'omega'"),
    ("or", "'alpha' OR 'beta'"),
    ("and-not", "'eps' AND NOT 'alpha'"),
    ("root-not", "NOT 'alpha'"),
    ("any-and-not", "ANY AND NOT 'delta'"),
    ("or-and", "('alpha' OR 'eta') AND 'theta'"),
];

const PINNED_BOOL: &str = "\
and BOOL: hits 2641 fnv 84951bbceededd16 entries 5319 positions 0 skipped 319 blocks 0\n\
rare-and BOOL: hits 11 fnv a72b0f64290ff6ba entries 24 positions 0 skipped 2713 blocks 10\n\
or BOOL: hits 2997 fnv 005c765754b1d7d8 entries 5638 positions 0 skipped 0 blocks 0\n\
and-not BOOL: hits 15 fnv 989952979e0d5f95 entries 2720 positions 0 skipped 1608 blocks 0\n\
root-not BOOL: hits 37 fnv 32f11cfc42003edd entries 5963 positions 0 skipped 0 blocks 0\n\
any-and-not BOOL: hits 871 fnv a73fcb59c871f28f entries 5129 positions 0 skipped 0 blocks 0\n\
or-and BOOL: hits 451 fnv 3c26e05a28568eb8 entries 1450 positions 0 skipped 2878 blocks 0\n\
";

#[test]
fn bool_queries_read_the_pinned_counters() {
    let corpus = corpus();
    let snapshot = Snapshot::of_index(corpus.clone(), IndexBuilder::new().build(&corpus));
    let reg = PredicateRegistry::with_builtins();
    let exec = SnapshotExecutor::new(&snapshot, &reg);
    let lines: String = BOOL_QUERIES
        .iter()
        .map(|(label, query)| line(label, "BOOL", &exec, query, EngineKind::Bool))
        .collect();
    assert_eq!(lines, PINNED_BOOL, "actual:\n{lines}");
}

/// COMP's gap cores: `exact_gap` over two mid-frequency tokens, over two
/// common ones, and beside a rare third scan, where the core is one join
/// side.
const COMP_QUERIES: [(&str, &str); 3] = [
    (
        "exact-gap-mid",
        "SOME p0 SOME p1 (p0 HAS 'eps' AND p1 HAS 'zeta' AND exact_gap(p0,p1,0))",
    ),
    (
        "exact-gap-common",
        "SOME p0 SOME p1 (p0 HAS 'beta' AND p1 HAS 'delta' AND exact_gap(p0,p1,1))",
    ),
    (
        "exact-gap-beside-rare",
        "SOME p0 SOME p1 SOME p2 (p0 HAS 'alpha' AND p1 HAS 'gamma' AND p2 HAS 'omega' \
         AND exact_gap(p0,p1,2))",
    ),
];

/// `label COMP: hits H fnv F entries E decoded D tuples T pair entries P`.
/// Pair entries count among the entries too. Without the pair filter the
/// same answers read entries 1457 decoded 1001 tuples 1843, entries 4444
/// decoded 9125 tuples 22063, and entries 59 decoded 56 tuples 152: the
/// filter pays where the tokens are seldom near, costs entries where they
/// mostly are, and beside a rare scan, which drives the join, changes
/// nothing but the pair entries its seeks read.
const PINNED_COMP: &str = "\
exact-gap-mid COMP: hits 94 fnv 4536d8fdb413d4c1 entries 642 decoded 278 tuples 676 pair entries 454\n\
exact-gap-common COMP: hits 1012 fnv 0ed84d736361c2ec entries 6040 decoded 7649 tuples 19377 pair entries 3038\n\
exact-gap-beside-rare COMP: hits 5 fnv c1f5f9166b8f17c8 entries 92 decoded 56 tuples 152 pair entries 40\n\
";

#[test]
fn comp_gap_cores_read_the_pinned_counters() {
    let corpus = corpus();
    let snapshot = Snapshot::of_index(corpus.clone(), IndexBuilder::new().build(&corpus));
    let reg = PredicateRegistry::with_builtins();
    let exec = SnapshotExecutor::new(&snapshot, &reg);
    let lines: String = COMP_QUERIES
        .iter()
        .map(|(label, query)| {
            let out = exec.run_str(query, EngineKind::Comp).expect("COMP runs");
            let ids = out.node_ids();
            let c = out.counters;
            format!(
                "{label} COMP: hits {} fnv {:016x} entries {} decoded {} tuples {} \
                 pair entries {}\n",
                ids.len(),
                fnv(&ids),
                c.entries,
                c.positions_decoded,
                c.tuples,
                c.pair_entries
            )
        })
        .collect();
    assert_eq!(lines, PINNED_COMP, "actual:\n{lines}");
}
