//! The observed query end to end: `EXPLAIN ANALYZE` span trees with
//! per-stage wall time and counter deltas, and — the paper's central
//! distinction made visible — correct attribution of whether a proximity
//! query was answered by the word-pair auxiliary index or fell back to
//! position intersection.

use ftsl::core::{Ftsl, RankModel};
use ftsl::exec::engine::ExecOptions;

fn corpus() -> Vec<&'static str> {
    vec![
        "the kernel scheduler balances threads across cores",
        "a kernel module can preempt the scheduler",
        "schedulers and kernels are classic systems topics",
        "an unrelated document about usability testing",
    ]
}

#[test]
fn explain_analyze_profiles_a_proximity_query_on_the_pair_path() {
    let e = Ftsl::from_texts(&corpus());
    // distance(a,b,8) tightens to a forward gap of 9, within the default
    // pair window (16): answered from the word-pair list. (The surface
    // `dist` sugar lowers through an ANY-scan shape outside the pair
    // fragment; the quantified form is the paper's pair-covered core.)
    let text = e
        .explain_analyze("SOME a SOME b (a HAS 'kernel' AND b HAS 'scheduler' AND distance(a,b,8))")
        .unwrap();
    assert!(text.contains("language class: PPRED"), "{text}");
    assert!(text.contains("engine: PPRED"), "{text}");
    assert!(text.contains("hits:"), "{text}");
    // The span tree: parse, execute, the one sealed segment, engine
    // stages, each with wall time.
    for span in ["parse+rewrite", "execute", "segment 0", "engine PPRED"] {
        assert!(text.contains(span), "missing span {span} in:\n{text}");
    }
    assert!(text.contains("µs"), "spans carry wall time:\n{text}");
    // Pair-path attribution.
    assert!(
        text.contains("pair path: word-pair list walk"),
        "within-window dist should be answered from the pair index:\n{text}"
    );
    // Counter deltas surface as span attributes.
    assert!(
        text.contains("pair_entries="),
        "pair-list walk reports pair_entries:\n{text}"
    );
    // Memory footprint trailer, in the single compressed form.
    assert!(text.contains("segment 0: compressed="), "{text}");
}

#[test]
fn explain_analyze_attributes_the_position_intersection_fallback() {
    let e = Ftsl::from_texts(&corpus());
    // distance(a,b,30) needs a forward gap of 31, beyond the default pair
    // window (16): recognized but not covered, so the engine falls back
    // to position intersection.
    let text = e
        .explain_analyze(
            "SOME a SOME b (a HAS 'kernel' AND b HAS 'scheduler' AND distance(a,b,30))",
        )
        .unwrap();
    assert!(
        text.contains("pair path: not covered — position-intersection fallback"),
        "over-window dist must attribute the fallback:\n{text}"
    );
    assert!(!text.contains("pair path: word-pair list walk"), "{text}");
}

/// A plan whose cores take different paths notes each core's own: over
/// two documents, `distance(a,b,8)` (a forward gap of 9) is within the
/// default pair window (16) and `distance(c,d,40)` (41) is past it. The
/// plan marks both leaves, and a proximity top-k's segment notes the path
/// its segment resolved.
#[test]
fn explain_analyze_notes_the_path_of_every_core() {
    let texts = [
        "the kernel scheduler balances threads",
        "a kernel module can preempt the scheduler",
    ];
    let e = Ftsl::from_texts(&texts);
    let text = e
        .explain_analyze(
            "SOME a SOME b (a HAS 'kernel' AND b HAS 'scheduler' AND distance(a,b,8)) \
             OR SOME c SOME d (c HAS 'module' AND d HAS 'preempt' AND distance(c,d,40))",
        )
        .unwrap();
    for line in [
        "· pair path: word-pair list walk",
        "· pair path: not covered — position-intersection fallback",
        "· pair leaf 'kernel' ↔ 'scheduler' within 9",
        "· pair leaf 'module' ↔ 'preempt' within 41",
    ] {
        assert!(text.contains(line), "missing {line:?} in:\n{text}");
    }
    let traced = Ftsl::from_texts(&texts).with_options(ExecOptions {
        trace: true,
        ..ExecOptions::default()
    });
    for (bound, path) in [
        (9, "word-pair list walk"),
        (41, "not covered — position-intersection fallback"),
    ] {
        let near = traced.search_near_top_k("kernel", "scheduler", bound, false, 3);
        let trace = near.trace.expect("traced");
        let segment = trace.find("segment 0").expect("an evaluated segment");
        let note = format!("pair path: {path}");
        assert!(segment.notes().contains(&note), "{}", trace.render());
    }
}

/// Six documents in which `kernel`, `module`, `scheduler` and `cores`
/// each occur in at least two, so the default pair index covers every
/// pair of them.
fn covered_corpus() -> Vec<&'static str> {
    let mut texts = corpus();
    texts.push("the kernel module loads before the scheduler starts");
    texts.push("many cores run one scheduler per kernel module");
    texts
}

/// A closed proximity core is answered from the word-pair lists wherever
/// it sits in the plan: alone, as the union a thesaurus expansion writes,
/// or beside another conjunct. None of them decodes a position.
#[test]
fn compound_proximity_queries_read_pair_lists_and_no_positions() {
    let e = Ftsl::from_texts(&covered_corpus());
    for query in [
        "SOME a SOME b (a HAS 'kernel' AND b HAS 'scheduler' AND distance(a,b,3))",
        "SOME a SOME b ((a HAS 'kernel' OR a HAS 'module') AND b HAS 'scheduler' \
         AND distance(a,b,3))",
        "'cores' AND SOME a SOME b (a HAS 'kernel' AND b HAS 'scheduler' AND distance(a,b,3))",
    ] {
        let out = e.search(query).unwrap();
        assert!(!out.nodes.is_empty(), "{query}");
        assert!(out.counters.pair_entries > 0, "{query}: {:?}", out.counters);
        assert_eq!(
            out.counters.positions_decoded, 0,
            "{query}: {:?}",
            out.counters
        );
        let text = e.explain_analyze(query).unwrap();
        assert!(text.contains("pair path: word-pair list walk"), "{text}");
    }
}

/// Thesaurus expansion writes a proximity query's token as a disjunction:
/// the expanded query answers as the hand-written disjunction does, and
/// each branch's core reads the pair lists.
#[test]
fn thesaurus_expanded_near_query_reads_pair_lists() {
    use ftsl::lang::Thesaurus;
    let near =
        |first: &str| format!("SOME a SOME b ({first} AND b HAS 'scheduler' AND distance(a,b,3))");
    let plain = Ftsl::from_texts(&covered_corpus());
    let written = plain
        .search(&near("(a HAS 'kernel' OR a HAS 'module')"))
        .unwrap();
    let mut expanding = Ftsl::from_texts(&covered_corpus());
    let mut th = Thesaurus::new();
    th.add("kernel", &["module"]);
    expanding.set_thesaurus(th);
    let expanded = expanding.search(&near("a HAS 'kernel'")).unwrap();
    assert_eq!(expanded.node_ids(), written.node_ids());
    assert!(expanded.len() > plain.search(&near("a HAS 'kernel'")).unwrap().len());
    assert!(
        expanded.counters.pair_entries > 0,
        "{:?}",
        expanded.counters
    );
    assert_eq!(expanded.counters.positions_decoded, 0);
}

#[test]
fn explain_analyze_reports_the_comp_node_walk() {
    let e = Ftsl::from_texts(&corpus());
    // `exact_gap` is a general predicate, so the query runs on COMP. It
    // implies `distance(a,b,0)`, so the word-pair walk filters the join:
    // of the two documents holding both tokens, only the one holding them
    // adjacent is evaluated.
    let text = e
        .explain_analyze(
            "SOME a SOME b (a HAS 'kernel' AND b HAS 'scheduler' AND exact_gap(a,b,0))",
        )
        .unwrap();
    assert!(text.contains("engine COMP"), "{text}");
    assert!(
        text.contains("node-at-a-time: 1 nodes evaluated"),
        "the COMP span carries the node walk:\n{text}"
    );
    assert!(
        text.contains("pair filter 'kernel' ↔ 'scheduler' within 1: word-pair list walk"),
        "the COMP span carries the core's pair path:\n{text}"
    );
    assert!(
        text.contains("select exact_gap([0, 1], [0])  · pair filter"),
        "the algebra tree marks the filtered selection:\n{text}"
    );
    for part in ["skipped by seek", "tuples", "per node"] {
        assert!(text.contains(part), "missing {part:?} in:\n{text}");
    }
}

#[test]
fn explain_analyze_after_writes_shows_every_segment() {
    let engine = Ftsl::new();
    for t in corpus() {
        engine.add(t);
    }
    engine.flush();
    engine.add("a buffered kernel document"); // stays in the live buffer
    let text = engine.explain_analyze("'kernel' AND 'scheduler'").unwrap();
    assert!(text.contains("snapshot: version"), "{text}");
    assert!(text.contains("segment(s)"), "{text}");
    for segment in ["segment 0:", "segment 1:"] {
        assert!(text.contains(segment), "per-segment footprint:\n{text}");
    }
    assert!(text.contains("engine BOOL"), "{text}");
}

#[test]
fn traces_are_absent_by_default_and_present_on_request() {
    let e = Ftsl::from_texts(&corpus());
    let plain = e.search("'kernel'").unwrap();
    assert!(plain.trace.is_none(), "tracing is opt-in");

    let traced_engine = Ftsl::from_texts(&corpus()).with_options(ExecOptions {
        trace: true,
        ..ExecOptions::default()
    });
    let traced = traced_engine.search("'kernel'").unwrap();
    let trace = traced.trace.expect("trace requested");
    assert!(trace.find("segment 0").is_some(), "{}", trace.render());
    let engine_span = trace.find("engine BOOL").expect("engine span");
    assert!(
        engine_span.attr("entries").unwrap_or(0) > 0,
        "engine span carries counter deltas:\n{}",
        trace.render()
    );
}

/// A query is compiled once per request, not once per segment: over three
/// segments (two sealed, one buffered) the profile holds one prepare span
/// and no other lowering, but one engine span per segment — for a query
/// that lowers to PPRED and for one that Auto sends to COMP.
#[test]
fn explain_analyze_prepares_once_and_binds_per_segment() {
    let engine = Ftsl::new();
    let docs = corpus();
    engine.add(docs[0]);
    engine.add(docs[1]);
    engine.flush();
    engine.add(docs[2]);
    engine.flush();
    engine.add("a buffered kernel scheduler document");
    for query in [
        "SOME a SOME b (a HAS 'kernel' AND b HAS 'scheduler' AND distance(a,b,8))",
        "SOME a SOME b (a HAS 'kernel' AND b HAS 'scheduler' AND exact_gap(a,b,0))",
    ] {
        let text = engine.explain_analyze(query).unwrap();
        assert!(text.contains("· 3 segment(s)"), "{text}");
        let profile: Vec<&str> = text
            .lines()
            .skip_while(|l| *l != "profile:")
            .map(str::trim_start)
            .collect();
        let count = |prefix: &str| profile.iter().filter(|l| l.starts_with(prefix)).count();
        assert_eq!(count("prepare") + count("lower"), 1, "{text}");
        assert_eq!(count("engine "), 3, "one engine span per segment:\n{text}");
    }
}

/// A ranked request runs the set request's per-segment loop plus one
/// scoring step, so it traces like a search: a `ranked` root holding one
/// `prepare` span and one `segment i` span per segment, each with the
/// class engine's span and a note of the nodes it scored. Both ranked
/// entry points return it: `search_ranked` and the exhaustive arm of
/// `search_top_k`, as the pruned union's arm does its own tree.
#[test]
fn ranked_requests_trace_the_set_bind_and_the_scoring() {
    let engine = Ftsl::new().with_options(ExecOptions {
        trace: true,
        ..ExecOptions::default()
    });
    let docs = corpus();
    engine.add(docs[0]);
    engine.add(docs[1]);
    engine.flush();
    engine.add(docs[2]);
    let query = "'kernel' AND 'scheduler'";
    for ranked in [
        engine.search_ranked(query, RankModel::TfIdf).unwrap(),
        engine.search_top_k(query, RankModel::Pra, 1).unwrap(),
    ] {
        let trace = ranked.trace.expect("traced");
        let text = trace.render();
        let spans = trace.spans();
        assert_eq!(spans[0].label(), "ranked", "{text}");
        assert_eq!(spans[0].parent(), None, "{text}");
        let labelled = |prefix: &str| {
            (0..spans.len())
                .filter(|&i| spans[i].label().starts_with(prefix))
                .collect::<Vec<_>>()
        };
        assert_eq!(labelled("prepare").len(), 1, "{text}");
        let segments = labelled("segment ");
        assert_eq!(segments.len(), 2, "{text}");
        for (s, scored) in segments
            .into_iter()
            .zip(["scored 2 nodes", "scored 0 nodes"])
        {
            assert_eq!(spans[s].parent(), Some(0), "{text}");
            let engine_spans = spans
                .iter()
                .filter(|span| span.parent() == Some(s) && span.label() == "engine BOOL");
            assert_eq!(engine_spans.count(), 1, "{text}");
            assert!(spans[s].notes()[0].starts_with(scored), "{text}");
        }
    }
    let union = engine
        .search_top_k("'kernel' OR 'scheduler'", RankModel::Pra, 1)
        .unwrap();
    let trace = union.trace.expect("traced");
    assert!(trace.find("top-k pruned union").is_some());
}
