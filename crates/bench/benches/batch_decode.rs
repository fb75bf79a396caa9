//! Batch block decode: cursor costs over the v5 bit-packed
//! frame-of-reference layout, plus the compressed-size regression gate.
//!
//! Cases measured (medians + counters land in `BENCH_results.json`):
//!
//! * `scan_common_blocks` — full-list entry walk of the dense planted
//!   token on the 4000-node Zipf corpus (the `scan_common` regime of
//!   `micro_cursors`, measured through the raw cursor);
//! * `seek_sparse_blocks` — a rare list driving seeks into the dense list
//!   (whole-block skipping);
//! * `scan_positions_blocks` — entry walk reading the first position of
//!   every entry (the PPRED access shape);
//! * `unpack_frame` — raw [`ftsl_index::bitpack::unpack`] throughput.
//!
//! The bench also records the corpus' compressed size and **fails loudly**
//! (non-zero exit) if it regresses more than 10% over the v4 varint
//! baseline pinned in `fixtures/v4_baseline.json` — CI runs this bench in
//! smoke mode (`FTSL_BENCH_SMOKE=1`) to enforce exactly that gate.

mod common;

use common::criterion;
use criterion::criterion_main;
use ftsl_bench::results::{measure, smoke, ResultsSink};
use ftsl_bench::{build_env, EnvSpec};
use ftsl_corpus::SynthConfig;
use ftsl_index::{bitpack, IndexBuilder, InvertedIndex};
use ftsl_model::{Corpus, NodeId};
use std::hint::black_box;

/// The `micro_cursors` skewed regime: one rare, one dense planted token.
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

/// The `topk_scored` skewed regime (6000 nodes).
fn topk_env() -> InvertedIndex {
    let config = SynthConfig {
        cnodes: 6000,
        vocabulary: 2000,
        tokens_per_doc: 80,
        ..SynthConfig::default()
    }
    .plant("rare", 0.02, 4)
    .plant("common", 0.7, 1);
    IndexBuilder::new().build(&config.build())
}

/// Parse `fixtures/v4_baseline.json` (compiled in, so the gate cannot
/// silently vanish when the working directory moves).
fn baselines() -> Vec<(String, u64)> {
    let text = include_str!("../fixtures/v4_baseline.json");
    let mut out = Vec::new();
    for part in text.split("{ \"corpus\":").skip(1) {
        let name = part.split('"').nth(1).expect("corpus name").to_string();
        let bytes: u64 = part
            .split("\"v4_compressed_bytes\":")
            .nth(1)
            .and_then(|s| {
                s.trim_start()
                    .split(|c: char| !c.is_ascii_digit())
                    .next()?
                    .parse()
                    .ok()
            })
            .expect("baseline bytes");
        out.push((name, bytes));
    }
    assert!(!out.is_empty(), "no baselines parsed from fixture");
    out
}

/// The compressed-size regression gate: each corpus must stay within +10%
/// of its pinned v4 size (`micro` is the already-built 4000-node index —
/// the bench passes its own in rather than rebuilding the corpus).
/// Returns the measured sizes for the results file.
fn size_gate(micro: &InvertedIndex) -> Vec<(String, u64)> {
    let topk = topk_env();
    let small = build_env(EnvSpec::small()).index;
    let measured: Vec<(String, u64)> = vec![
        (
            "micro_skewed_zipf_4000".into(),
            micro.compressed_bytes() as u64,
        ),
        (
            "topk_skewed_zipf_6000".into(),
            topk.compressed_bytes() as u64,
        ),
        ("bench_env_small".into(), small.compressed_bytes() as u64),
    ];
    for (corpus, v4_bytes) in baselines() {
        let (_, &(_, v5_bytes)) = measured
            .iter()
            .enumerate()
            .find(|(_, (name, _))| *name == corpus)
            .unwrap_or_else(|| panic!("no measurement for baseline corpus {corpus}"));
        let limit = v4_bytes + v4_bytes / 10;
        println!(
            "size gate: {corpus}: v5 {v5_bytes} B vs v4 {v4_bytes} B \
             ({:+.1}%, limit {limit})",
            100.0 * (v5_bytes as f64 - v4_bytes as f64) / v4_bytes as f64,
        );
        assert!(
            v5_bytes <= limit,
            "compressed-size regression on {corpus}: v5 {v5_bytes} B exceeds \
             110% of the v4 baseline {v4_bytes} B"
        );
    }
    measured
}

fn bench(c: &mut criterion::Criterion) {
    let (corpus, index) = skewed_env();
    let rare = corpus.token_id("rare").expect("planted");
    let common = corpus.token_id("common").expect("planted");
    let reps = if smoke() { 5 } else { 50 };
    let mut sink = ResultsSink::new("batch_decode");
    let mut group = c.benchmark_group("batch_decode");

    // -- full-list scans ---------------------------------------------------
    let scan_blocks = || {
        let mut cur = index.block_list(common).cursor();
        let mut n = 0u64;
        while let Some(node) = cur.next_entry() {
            n += u64::from(node.0);
        }
        black_box(n);
        cur.counters()
    };
    if !smoke() {
        group.bench_function("scan_common_blocks", |b| b.iter(scan_blocks));
    }
    sink.record(
        "scan_common_blocks",
        measure(reps, || {
            scan_blocks();
        }),
        scan_blocks(),
    );

    // -- sparse seeks ------------------------------------------------------
    let targets: Vec<NodeId> = {
        let mut cur = index.block_cursor(rare);
        std::iter::from_fn(|| cur.next_entry()).collect()
    };
    let seek_blocks = || {
        let mut cur = index.block_list(common).cursor();
        let mut n = 0u64;
        for &t in &targets {
            if let Some(node) = cur.seek(t) {
                n += u64::from(node.0);
            }
        }
        black_box(n);
        cur.counters()
    };
    if !smoke() {
        group.bench_function("seek_sparse_blocks", |b| b.iter(seek_blocks));
    }
    sink.record(
        "seek_sparse_blocks",
        measure(reps, || {
            seek_blocks();
        }),
        seek_blocks(),
    );

    // -- entry walk + first position (the PPRED shape) ---------------------
    let pos_blocks = || {
        let mut cur = index.block_list(common).cursor();
        let mut n = 0u64;
        while cur.next_entry().is_some() {
            n += u64::from(cur.position().map_or(0, |p| p.offset));
        }
        black_box(n);
        cur.counters()
    };
    if !smoke() {
        group.bench_function("scan_positions_blocks", |b| b.iter(pos_blocks));
    }
    sink.record(
        "scan_positions_blocks",
        measure(reps, || {
            pos_blocks();
        }),
        pos_blocks(),
    );

    // -- raw frame unpack throughput --------------------------------------
    let values: [u32; bitpack::LANES] = std::array::from_fn(|i| (i as u32) & 0x1ff);
    let mut packed = Vec::new();
    bitpack::pack(&values, bitpack::LANES, 9, &mut packed);
    let mut out = [0u32; bitpack::LANES];
    let unpack_case = {
        let packed = packed.clone();
        move |out: &mut [u32; bitpack::LANES]| {
            for _ in 0..100 {
                bitpack::unpack(black_box(&packed), 9, bitpack::LANES, out);
                black_box(&out);
            }
        }
    };
    if !smoke() {
        group.bench_function("unpack_frame_x100", |b| b.iter(|| unpack_case(&mut out)));
    }
    sink.record(
        "unpack_frame_x100",
        measure(reps, || unpack_case(&mut out)),
        Default::default(),
    );
    group.finish();

    // -- sizes + the regression gate ---------------------------------------
    for (corpus, bytes) in size_gate(&index) {
        sink.record_bytes(&format!("compressed_bytes_{corpus}"), bytes);
    }

    let path = sink.write().expect("write BENCH_results.json");
    println!("results merged into {}", path.display());
}

fn benches() {
    let mut c = criterion();
    bench(&mut c);
}

criterion_main!(benches);
