//! Positional-predicate benches on the Zipf corpus: ordered / distance /
//! window queries through the PPRED streaming engine.
//!
//! The bench doubles as the **word-pair fast-path gate**: on a corpus
//! with planted adjacent and windowed co-occurrences, the ordered-phrase
//! and `window(15)+ordered` cores must resolve from the pair lists
//! bit-identically to the position-intersection oracle (`use_pairs:
//! false`) and beat it on wall clock. CI runs it in smoke mode
//! (`FTSL_BENCH_SMOKE=1`): the criterion grid is skipped, medians still
//! land in `BENCH_results.json`, and the gate runs with a looser ratio
//! for noisy shared runners.

mod common;

use common::{bench_env, criterion};
use criterion::criterion_main;
use ftsl_bench::results::{measure, smoke, ResultsSink};
use ftsl_exec::engine::{EngineKind, ExecOptions, Executor};
use ftsl_index::IndexBuilder;
use ftsl_lang::{parse, Mode};
use ftsl_model::Corpus;
use ftsl_predicates::PredicateRegistry;
use std::hint::black_box;

fn bench(c: &mut criterion::Criterion) {
    let env = bench_env();
    let mut group = c.benchmark_group("positional");

    let queries = [
        (
            "ordered",
            "SOME p1 SOME p2 (p1 HAS 'q0' AND p2 HAS 'q1' AND ordered(p1,p2))".to_string(),
        ),
        (
            "distance",
            "SOME p1 SOME p2 (p1 HAS 'q0' AND p2 HAS 'q1' AND distance(p1,p2,10))".to_string(),
        ),
        (
            "window3",
            "SOME p1 SOME p2 (p1 HAS 'q0' AND p2 HAS 'q1' AND window(p1,p2,15) \
             AND ordered(p1,p2))"
                .to_string(),
        ),
    ];

    for (name, query) in &queries {
        let surface = parse(query, Mode::Comp).expect("positional query parses");
        let exec = Executor::new(&env.corpus, &env.index, &env.registry);
        group.bench_function(format!("{name}_blocks"), move |b| {
            b.iter(|| {
                black_box(
                    exec.run_surface(&surface, EngineKind::Ppred)
                        .expect("runs")
                        .nodes
                        .len(),
                )
            })
        });
    }

    group.finish();
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The pair-gate corpus: Zipf background plus planted co-occurrences of
/// `q0`/`q1`. Every document scatters three occurrences of each (both
/// posting lists reach full df, so the oracle's intersection and
/// position walks are maximally busy); every third document additionally
/// plants an adjacent `q0 q1`, so the ordered-phrase core has a
/// guaranteed non-empty answer.
fn pair_gate_corpus() -> Corpus {
    let mut state: u64 = 0xEDB7_2006;
    let mut texts = Vec::with_capacity(600);
    for d in 0..600usize {
        let mut words: Vec<String> = (0..130)
            .map(|_| {
                let u = (xorshift(&mut state) % 1024) as f64 / 1024.0;
                format!("t{}", ((u * u) * 800.0) as usize)
            })
            .collect();
        for _ in 0..3 {
            let at = (xorshift(&mut state) as usize) % words.len();
            words.insert(at, "q0".to_string());
            let at = (xorshift(&mut state) as usize) % words.len();
            words.insert(at, "q1".to_string());
        }
        if d % 3 == 0 {
            let at = (xorshift(&mut state) as usize) % words.len();
            words.insert(at, "q1".to_string());
            words.insert(at, "q0".to_string());
        }
        texts.push(words.join(" "));
    }
    Corpus::from_texts(&texts)
}

/// Regression gate for the word-pair fast path: the two proximity cores
/// the auxiliary index exists for — the ordered phrase (`ordered +
/// distance 0`) and `window(15) + ordered` — must (a) return node lists
/// bit-identical to the position-intersection oracle, (b) actually
/// engage the pair lists, and (c) beat the oracle's median by at least
/// `limit`x. Full runs demand the 2x of the
/// acceptance bar; smoke runs (CI's shared runners, few reps) get a
/// looser ratio that still catches the fast path silently falling back.
fn record_pair_gate(sink: &mut ResultsSink) {
    let corpus = pair_gate_corpus();
    let index = IndexBuilder::new().build(&corpus);
    let registry = PredicateRegistry::with_builtins();
    let reps = if smoke() { 10 } else { 30 };
    let limit = if smoke() { 1.2 } else { 2.0 };
    let queries = [
        (
            "phrase",
            "SOME p1 SOME p2 (p1 HAS 'q0' AND p2 HAS 'q1' AND ordered(p1,p2) \
             AND distance(p1,p2,0))",
        ),
        (
            "window15_ordered",
            "SOME p1 SOME p2 (p1 HAS 'q0' AND p2 HAS 'q1' AND window(p1,p2,15) \
             AND ordered(p1,p2))",
        ),
    ];
    for (name, query) in queries {
        let surface = parse(query, Mode::Comp).expect("pair-gate query parses");
        let exec_with = |use_pairs: bool| {
            Executor::with_options(
                &corpus,
                &index,
                &registry,
                ExecOptions {
                    use_pairs,
                    ..Default::default()
                },
            )
        };
        let paired_exec = exec_with(true);
        let oracle_exec = exec_with(false);
        let paired = paired_exec
            .run_surface(&surface, EngineKind::Ppred)
            .expect("pair path runs");
        let oracle = oracle_exec
            .run_surface(&surface, EngineKind::Ppred)
            .expect("oracle runs");
        assert_eq!(
            paired.nodes, oracle.nodes,
            "pair path diverged from the intersection oracle on {name}"
        );
        assert!(!paired.nodes.is_empty(), "{name}: planted matches exist");
        assert!(
            paired.counters.pair_entries > 0,
            "{name}: pair path never engaged"
        );
        assert_eq!(
            oracle.counters.pair_entries, 0,
            "{name}: oracle touched pair lists"
        );
        let mp = measure(reps, || {
            black_box(
                paired_exec
                    .run_surface(&surface, EngineKind::Ppred)
                    .expect("runs"),
            );
        });
        let mo = measure(reps, || {
            black_box(
                oracle_exec
                    .run_surface(&surface, EngineKind::Ppred)
                    .expect("runs"),
            );
        });
        sink.record(&format!("{name}_pairs"), mp, paired.counters);
        sink.record(&format!("{name}_oracle"), mo, oracle.counters);
        let speedup = mo.us / mp.us;
        assert!(
            speedup >= limit,
            "pair-path regression: {name} via pair lists took {:.3}µs vs \
             {:.3}µs by position intersection ({speedup:.2}x, limit {limit}x)",
            mp.us,
            mo.us,
        );
        println!("positional/gate: {name} pair path {speedup:.2}x faster (limit {limit}x)");
    }
}

/// Machine-readable medians + counters for the perf-trajectory file.
fn record_results() {
    let env = bench_env();
    let mut sink = ResultsSink::new("positional");
    let reps = if smoke() { 10 } else { 30 };
    let queries = [
        (
            "ordered",
            "SOME p1 SOME p2 (p1 HAS 'q0' AND p2 HAS 'q1' AND ordered(p1,p2))".to_string(),
        ),
        (
            "distance",
            "SOME p1 SOME p2 (p1 HAS 'q0' AND p2 HAS 'q1' AND distance(p1,p2,10))".to_string(),
        ),
        (
            "window3",
            "SOME p1 SOME p2 (p1 HAS 'q0' AND p2 HAS 'q1' AND window(p1,p2,15) \
             AND ordered(p1,p2))"
                .to_string(),
        ),
    ];
    for (name, query) in &queries {
        let surface = parse(query, Mode::Comp).expect("positional query parses");
        let exec = Executor::new(&env.corpus, &env.index, &env.registry);
        let run = || exec.run_surface(&surface, EngineKind::Ppred).expect("runs");
        sink.record(
            &format!("{name}_blocks"),
            measure(reps, || {
                black_box(run());
            }),
            run().counters,
        );
    }
    record_pair_gate(&mut sink);
    let path = sink.write().expect("write BENCH_results.json");
    println!("results merged into {}", path.display());
}

fn benches() {
    // Smoke mode (CI) skips the criterion timing grid but still records
    // medians and runs the pair-path gate — same shape as batch_decode.
    if !smoke() {
        let mut c = criterion();
        bench(&mut c);
    }
    record_results();
}

criterion_main!(benches);
