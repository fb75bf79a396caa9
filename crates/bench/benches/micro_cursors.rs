//! Micro-benchmarks of the streaming substrate: inverted-list cursor scans,
//! joins, positive-predicate selections, and seek-driven intersection
//! against the paper's sequential lock-step merge.

mod common;

use common::{bench_env, criterion};
use criterion::criterion_main;
use ftsl_bench::results::{measure, median_micros, Measurement, ResultsSink, INNER_RUNS};
use ftsl_corpus::SynthConfig;
use ftsl_exec::bool_eval::{intersect_seek, intersect_sorted};
use ftsl_exec::cursor::{FtCursor, ScanCursor};
use ftsl_exec::join::JoinCursor;
use ftsl_exec::select::SelectCursor;
use ftsl_index::{IndexBuilder, InvertedIndex};
use ftsl_model::{Corpus, NodeId, TokenId};
use ftsl_predicates::AdvanceMode;
use std::hint::black_box;

/// One rare and one common planted token over a Zipf background: the skewed
/// regime where seek-driven conjunction beats lock-step scanning.
fn skewed_env() -> (Corpus, InvertedIndex) {
    let config = SynthConfig {
        cnodes: 4000,
        vocabulary: 2000,
        tokens_per_doc: 80,
        ..SynthConfig::default()
    }
    .plant("rare", 0.005, 2)
    .plant("common", 0.7, 3);
    let corpus = config.build();
    let index = IndexBuilder::new().build(&corpus);
    (corpus, index)
}

fn bench_skewed(c: &mut criterion::Criterion) {
    let (corpus, index) = skewed_env();
    let rare = corpus.token_id("rare").expect("planted");
    let common = corpus.token_id("common").expect("planted");
    let mut group = c.benchmark_group("micro_cursors_skewed");

    // The paper's sequential strategy: walk both lists whole, lock-step
    // merge.
    let scan_ids = |token: TokenId| {
        let mut cur = index.block_cursor(token);
        let mut ids: Vec<NodeId> = Vec::new();
        while let Some(n) = cur.next_entry() {
            ids.push(n);
        }
        ids
    };
    group.bench_function("intersect_lockstep_merge", |b| {
        b.iter(|| black_box(intersect_sorted(&scan_ids(rare), &scan_ids(common))))
    });

    // Seek strategy: the rare list drives, the common list jumps blocks.
    group.bench_function("intersect_seek_rarest", |b| {
        b.iter(|| {
            black_box(intersect_seek(&[
                index.block_list(rare),
                index.block_list(common),
            ]))
        })
    });

    group.bench_function("join_rare_common_blocks", |b| {
        b.iter(|| {
            let mut join = JoinCursor::new(
                Box::new(ScanCursor::new(index.block_list(rare))),
                Box::new(ScanCursor::new(index.block_list(common))),
            );
            let mut n = 0usize;
            while join.advance_node().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });

    // Full-list decode throughput.
    group.bench_function("scan_common_blocks", |b| {
        b.iter(|| {
            let mut scan = ScanCursor::new(index.block_list(common));
            let mut n = 0usize;
            while scan.advance_node().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });

    group.finish();
}

fn bench(c: &mut criterion::Criterion) {
    let env = bench_env();
    let q0 = env.corpus.token_id("q0").expect("planted");
    let q1 = env.corpus.token_id("q1").expect("planted");
    let mut group = c.benchmark_group("micro_cursors");

    group.bench_function("scan_token_list", |b| {
        b.iter(|| {
            let mut scan = ScanCursor::new(env.index.block_list(q0));
            let mut n = 0usize;
            while scan.advance_node().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });

    group.bench_function("join_two_lists", |b| {
        b.iter(|| {
            let mut join = JoinCursor::new(
                Box::new(ScanCursor::new(env.index.block_list(q0))),
                Box::new(ScanCursor::new(env.index.block_list(q1))),
            );
            let mut n = 0usize;
            while join.advance_node().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });

    group.bench_function("distance_selection", |b| {
        let pred = env
            .registry
            .get_shared(env.registry.lookup("distance").unwrap());
        b.iter(|| {
            let join = JoinCursor::new(
                Box::new(ScanCursor::new(env.index.block_list(q0))),
                Box::new(ScanCursor::new(env.index.block_list(q1))),
            );
            let mut sel = SelectCursor::positive(
                Box::new(join),
                pred.clone(),
                vec![0, 1],
                vec![10],
                AdvanceMode::Aggressive,
            );
            let mut n = 0usize;
            while sel.advance_node().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });

    group.finish();
}

/// Machine-readable medians + counters for the perf-trajectory file, and
/// the counting-overhead gate: walking the block cursor with its access
/// counters must cost under 5% over the identical counter-less walk.
fn record_results() {
    let (corpus, index) = skewed_env();
    let rare = corpus.token_id("rare").expect("planted");
    let common = corpus.token_id("common").expect("planted");
    let mut sink = ResultsSink::new("micro_cursors");

    let scan = |counted: bool| {
        let mut cur = index.block_list(common).cursor();
        let mut n = 0u64;
        if counted {
            while let Some(node) = cur.next_entry() {
                n += u64::from(node.0);
            }
        } else {
            while let Some(node) = cur.next_entry_uncounted() {
                n += u64::from(node.0);
            }
        }
        black_box(n);
        cur.counters()
    };
    sink.record(
        "scan_common_blocks",
        measure(50, || {
            scan(true);
        }),
        scan(true),
    );

    let join_blocks = || {
        let mut join = JoinCursor::new(
            Box::new(ScanCursor::new(index.block_list(rare))),
            Box::new(ScanCursor::new(index.block_list(common))),
        );
        let mut n = 0usize;
        while join.advance_node().is_some() {
            n += 1;
        }
        black_box(n);
        join.counters()
    };
    sink.record(
        "join_rare_common_blocks",
        measure(50, || {
            join_blocks();
        }),
        join_blocks(),
    );

    // Counting-overhead gate: best-of medians to shrug off background
    // load, then assert the counted walk stays within 5% (+0.2 µs
    // measurement slack) of the counter-less walk.
    let best_of = |counted: bool| {
        (0..8)
            .map(|_| {
                median_micros(25, || {
                    scan(counted);
                })
            })
            .fold(f64::MAX, f64::min)
    };
    let counted_us = best_of(true);
    let uncounted_us = best_of(false);
    let gate_runs = (8 * 25 * INNER_RUNS) as u32;
    let gate = |us| Measurement {
        us,
        runs: gate_runs,
    };
    sink.record("scan_blocks_counted", gate(counted_us), scan(true));
    sink.record(
        "scan_blocks_uncounted",
        gate(uncounted_us),
        Default::default(),
    );
    println!(
        "micro_cursors/counting gate: counted {counted_us:.2} µs vs \
         counter-less {uncounted_us:.2} µs ({:+.1}%)",
        100.0 * (counted_us - uncounted_us) / uncounted_us
    );
    assert!(
        counted_us <= uncounted_us * 1.05 + 0.2,
        "access counting costs more than 5% on a block scan: \
         {counted_us:.2} µs vs {uncounted_us:.2} µs"
    );

    let path = sink.write().expect("write BENCH_results.json");
    println!("results merged into {}", path.display());
}

fn benches() {
    let mut c = criterion();
    bench(&mut c);
    bench_skewed(&mut c);
    record_results();
}

criterion_main!(benches);
