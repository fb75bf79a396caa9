//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * aggressive vs. conservative positive-predicate skip bounds;
//! * NPRED partial orders vs. full permutations vs. parallel threads;
//! * sequential vs. sharded-parallel index construction.

mod common;

use common::{bench_env, criterion};
use criterion::criterion_main;
use ftsl_bench::{series_query, Series};
use ftsl_exec::engine::{EngineKind, ExecOptions, Executor};
use ftsl_index::IndexBuilder;
use ftsl_predicates::AdvanceMode;
use std::hint::black_box;

fn bench(c: &mut criterion::Criterion) {
    let env = bench_env();
    let mut group = c.benchmark_group("ablations");

    let ppred_query = series_query(Series::PpredPos, &env, 3, 2);
    for (label, mode) in [
        ("ppred_aggressive_skip", AdvanceMode::Aggressive),
        ("ppred_conservative_skip", AdvanceMode::Conservative),
    ] {
        let options = ExecOptions {
            advance_mode: mode,
            ..Default::default()
        };
        let exec = Executor::with_options(&env.corpus, &env.index, &env.registry, options);
        let query = ppred_query.clone();
        group.bench_function(label, move |b| {
            b.iter(|| {
                black_box(
                    exec.run_surface(&query, EngineKind::Ppred)
                        .expect("runs")
                        .nodes
                        .len(),
                )
            })
        });
    }

    let npred_query = series_query(Series::NpredNeg, &env, 3, 2);
    for (label, full, parallel) in [
        ("npred_partial_orders", false, false),
        ("npred_full_permutations", true, false),
        ("npred_full_parallel", true, true),
    ] {
        let options = ExecOptions {
            npred_full_permutations: full,
            npred_parallel: parallel,
            ..Default::default()
        };
        let exec = Executor::with_options(&env.corpus, &env.index, &env.registry, options);
        let query = npred_query.clone();
        group.bench_function(label, move |b| {
            b.iter(|| {
                black_box(
                    exec.run_surface(&query, EngineKind::Npred)
                        .expect("runs")
                        .nodes
                        .len(),
                )
            })
        });
    }

    // Index construction: sequential vs sharded-parallel build.
    for (label, threads) in [
        ("index_build_1_thread", 1usize),
        ("index_build_parallel", 0),
    ] {
        let corpus = &env.corpus;
        group.bench_function(label, move |b| {
            let builder = if threads == 0 {
                IndexBuilder::new().threads(
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1),
                )
            } else {
                IndexBuilder::new().threads(threads)
            };
            b.iter(|| black_box(builder.build(corpus).stats().cnodes))
        });
    }

    group.finish();
}

fn benches() {
    let mut c = criterion();
    bench(&mut c);
}

criterion_main!(benches);
