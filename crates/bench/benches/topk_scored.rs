//! Streaming top-k scored retrieval vs the exhaustive scored pass, on a
//! skewed Zipf corpus (`'rare' OR 'common'`): wall-clock for k ∈ {10, 100},
//! plus a one-shot report of the access counters showing the fraction of
//! entries the pruned union actually decodes.

mod common;

use common::criterion;
use criterion::criterion_main;
use ftsl_bench::results::{measure, ResultsSink};
use ftsl_corpus::SynthConfig;
use ftsl_index::{IndexBuilder, InvertedIndex};
use ftsl_model::Corpus;
use ftsl_scoring::classic::classic_tfidf;
use ftsl_scoring::{topk_pra_disjunction, topk_tfidf, PraModel, ScoreStats, TfIdfModel};
use std::hint::black_box;

/// The micro_cursors skewed regime, scaled up a little so pruning has room
/// to pay: one rare high-impact token, one very common low-impact one.
fn skewed_env() -> (Corpus, InvertedIndex, ScoreStats) {
    let config = SynthConfig {
        cnodes: 6000,
        vocabulary: 2000,
        tokens_per_doc: 80,
        ..SynthConfig::default()
    }
    .plant("rare", 0.02, 4)
    .plant("common", 0.7, 1);
    let corpus = config.build();
    let index = IndexBuilder::new().build(&corpus);
    let stats = ScoreStats::compute(&corpus, &index);
    (corpus, index, stats)
}

fn bench_topk(c: &mut criterion::Criterion) {
    let (corpus, index, stats) = skewed_env();
    let tokens = ["rare", "common"];
    let tfidf = TfIdfModel::for_query(&tokens, &corpus, &stats);
    let pra = PraModel::new(&corpus, &stats);
    let mut group = c.benchmark_group("topk_scored");

    // Exhaustive baselines: score everything, sort, truncate.
    group.bench_function("exhaustive_classic_tfidf", |b| {
        b.iter(|| black_box(classic_tfidf(&tokens, &corpus, &stats, &tfidf)).len())
    });

    for k in [10usize, 100] {
        group.bench_function(format!("tfidf_topk{k}_blocks"), |b| {
            b.iter(|| {
                black_box(topk_tfidf(&tokens, &corpus, &index, &stats, &tfidf, k))
                    .hits
                    .len()
            })
        });
        group.bench_function(format!("pra_topk{k}_blocks"), |b| {
            b.iter(|| {
                black_box(topk_pra_disjunction(
                    &tokens, &corpus, &index, &stats, &pra, k,
                ))
                .hits
                .len()
            })
        });
    }
    group.finish();

    // Counter report (machine-independent): what fraction of the exhaustive
    // decode work the pruned union performs.
    let total: u64 = tokens
        .iter()
        .filter_map(|t| corpus.token_id(t))
        .map(|id| index.df(id) as u64)
        .sum();
    for k in [10usize, 100] {
        let out = topk_tfidf(&tokens, &corpus, &index, &stats, &tfidf, k);
        println!(
            "topk_scored/counters tfidf k={k}: decoded {} / {} entries \
             ({} skipped, {} blocks pruned)",
            out.counters.entries, total, out.counters.skipped, out.counters.blocks_skipped
        );
    }
}

/// Machine-readable medians + counters for the perf-trajectory file.
fn record_results() {
    let (corpus, index, stats) = skewed_env();
    let tokens = ["rare", "common"];
    let tfidf = TfIdfModel::for_query(&tokens, &corpus, &stats);
    let pra = PraModel::new(&corpus, &stats);
    let mut sink = ResultsSink::new("topk_scored");
    for k in [10usize, 100] {
        let run = || topk_tfidf(&tokens, &corpus, &index, &stats, &tfidf, k);
        sink.record(
            &format!("tfidf_topk{k}_blocks"),
            measure(30, || {
                black_box(run());
            }),
            run().counters,
        );
        if k == 10 {
            let run = || topk_pra_disjunction(&tokens, &corpus, &index, &stats, &pra, k);
            sink.record(
                &format!("pra_topk{k}_blocks"),
                measure(30, || {
                    black_box(run());
                }),
                run().counters,
            );
        }
    }
    let path = sink.write().expect("write BENCH_results.json");
    println!("results merged into {}", path.display());
}

fn benches() {
    let mut c = criterion();
    bench_topk(&mut c);
    record_results();
}

criterion_main!(benches);
