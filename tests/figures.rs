//! Section 5's cost bounds, asserted on the figures' own series.
//!
//! The paper's evaluation (Section 6) sweeps `cnodes`, `toks_Q` and
//! `pos_per_cnode`, and Section 5 predicts each sweep's shape: BOOL and
//! PPRED read each query list once, so entries grow linearly in `cnodes`;
//! the presented NPRED algorithm repeats that scan once per total order of
//! the `toks_Q` cursors; COMP materializes one tuple per combination of
//! positions, `pos_per_cnode^toks_Q` per node. These tests run the same
//! `ftsl::figures::measure` the `figures` binary prints and check those
//! shapes on [`AccessCounters`](ftsl::index::AccessCounters), which do not
//! depend on the machine. The corpus seed is fixed, so every count is too.
//!
//! The last test pins the block encoding's compressed size against the
//! per-entry varint encoding it replaced.

use ftsl::corpus::SynthConfig;
use ftsl::exec::engine::ExecOptions;
use ftsl::figures::{
    build_env, estimate_comp_tuples, measure, series_query, BenchEnv, EnvSpec, Series,
    COMP_TUPLE_BUDGET,
};
use ftsl::index::{IndexBuilder, PairConfig};
use ftsl::lang::{classify, LanguageClass};
use ftsl::model::NodeId;

/// The sweeps' base point: small enough for a debug build, large enough
/// that every series has matches.
const BASE: EnvSpec = EnvSpec {
    cnodes: 300,
    occurrences: 4,
    doc_fraction: 0.4,
    tokens_per_doc: 80,
};

/// The paper's default query shape: `toks_Q` 3, `preds_Q` 2.
const TOKS: usize = 3;
const PREDS: usize = 2;

fn entries(env: &BenchEnv, series: Series, toks: usize) -> u64 {
    let m = measure(env, series, toks, PREDS, 1);
    assert!(!m.skipped, "{} skipped", series.label());
    m.counters.entries
}

/// The nodes a series answers, run the way `measure` runs it.
fn nodes(env: &BenchEnv, series: Series, toks: usize) -> Vec<NodeId> {
    let options = ExecOptions {
        npred_full_permutations: true,
        ..Default::default()
    };
    env.executor(options)
        .run_surface(&series_query(series, env, toks, PREDS), series.engine())
        .expect("series query runs")
        .nodes
}

#[test]
fn bool_and_ppred_entries_grow_linearly_in_cnodes() {
    let envs: Vec<BenchEnv> = [150, 300, 600]
        .into_iter()
        .map(|cnodes| build_env(EnvSpec { cnodes, ..BASE }))
        .collect();
    for series in [Series::Bool, Series::PpredPos] {
        let counts: Vec<u64> = envs.iter().map(|env| entries(env, series, TOKS)).collect();
        for step in counts.windows(2) {
            let factor = step[1] as f64 / step[0] as f64;
            assert!(
                (1.6..=2.4).contains(&factor),
                "{}: doubling cnodes multiplied entries by {factor:.2} ({counts:?})",
                series.label()
            );
        }
    }
}

#[test]
fn npred_pays_the_permutation_factor() {
    let at = |cnodes| build_env(EnvSpec { cnodes, ..BASE });
    let (base, small, large) = (at(300), at(150), at(600));
    let points = [
        (&base, 2),
        (&base, 3),
        (&base, 4),
        (&small, TOKS),
        (&large, TOKS),
    ];
    for (env, toks) in points {
        let ppred = entries(env, Series::PpredPos, toks);
        let npred = entries(env, Series::NpredPos, toks);
        let factorial: u64 = (1..=toks as u64).product();
        let ratio = npred as f64 / ppred as f64;
        assert!(
            (ratio - factorial as f64).abs() <= 0.2 * factorial as f64,
            "toks_Q {toks}, cnodes {}: NPRED-POS read {npred} entries, \
             PPRED-POS {ppred}: ratio {ratio:.2}, expected {factorial}",
            env.snapshot.live_doc_count()
        );
    }
}

#[test]
fn comp_tuples_grow_as_positions_to_the_toks() {
    let tuples: Vec<u64> = [2, 4, 8]
        .into_iter()
        .map(|occurrences| {
            let env = build_env(EnvSpec {
                occurrences,
                ..BASE
            });
            let m = measure(&env, Series::CompPos, TOKS, PREDS, 1);
            assert!(!m.skipped, "COMP-POS skipped at {occurrences} positions");
            m.counters.tuples
        })
        .collect();
    for step in tuples.windows(2) {
        let exponent = (step[1] as f64 / step[0] as f64).log2();
        assert!(
            (exponent - TOKS as f64).abs() <= 0.5,
            "doubling positions per entry grew COMP tuples 2^{exponent:.2}, \
             expected 2^{TOKS} ({tuples:?})"
        );
    }
}

#[test]
fn only_comp_materializes_and_the_series_agree() {
    let env = build_env(BASE);
    for series in Series::ALL {
        let tuples = measure(&env, series, TOKS, PREDS, 1).counters.tuples;
        match series {
            Series::CompPos | Series::CompNeg => {
                assert!(tuples > 0, "{} built no tuples", series.label())
            }
            _ => assert_eq!(tuples, 0, "{} materialized tuples", series.label()),
        }
    }
    for toks in 2..=4 {
        let positive = nodes(&env, Series::PpredPos, toks);
        assert!(!positive.is_empty(), "PPRED-POS has no matches at {toks}");
        assert_eq!(nodes(&env, Series::NpredPos, toks), positive, "{toks}");
        assert_eq!(nodes(&env, Series::CompPos, toks), positive, "{toks}");
        let negative = nodes(&env, Series::NpredNeg, toks);
        assert!(!negative.is_empty(), "NPRED-NEG has no matches at {toks}");
        assert_eq!(nodes(&env, Series::CompNeg, toks), negative, "{toks}");
    }
}

#[test]
fn env_builds_and_all_series_run() {
    let env = build_env(EnvSpec {
        cnodes: 60,
        occurrences: 3,
        doc_fraction: 0.5,
        tokens_per_doc: 40,
    });
    for series in Series::ALL {
        let m = measure(&env, series, 2, 1, 1);
        assert!(!m.skipped, "{} skipped", series.label());
        // Every engine agrees this corpus has matches for 2-token
        // conjunctions at 50% planting.
        if series.is_bool() {
            assert!(m.hits > 0);
        }
    }
}

#[test]
fn comp_budget_skips_oversized_runs() {
    let env = build_env(EnvSpec {
        cnodes: 60,
        occurrences: 3,
        doc_fraction: 0.5,
        tokens_per_doc: 40,
    });
    // 3 tokens at occurrence 3 stays small, so nothing skips at this scale.
    assert!(estimate_comp_tuples(&env, 3) < COMP_TUPLE_BUDGET);
    let m = measure(&env, Series::CompPos, 3, 2, 1);
    assert!(!m.skipped);
}

#[test]
fn series_queries_match_their_classes() {
    let env = build_env(EnvSpec {
        cnodes: 30,
        occurrences: 2,
        doc_fraction: 0.5,
        tokens_per_doc: 30,
    });
    let q = series_query(Series::PpredPos, &env, 3, 2);
    assert_eq!(classify(&q, &env.registry), LanguageClass::Ppred);
    let q = series_query(Series::NpredNeg, &env, 3, 2);
    assert_eq!(classify(&q, &env.registry), LanguageClass::Npred);
    let q = series_query(Series::Bool, &env, 3, 2);
    assert!(classify(&q, &env.registry) <= LanguageClass::Bool);
}

/// Compressed index sizes (block data + block headers, in bytes) of three
/// fixture corpora under the v4 per-entry varint block encoding. The
/// bit-packed encoding that replaced it must stay within 110 % of each.
const V4_COMPRESSED_BYTES: [(&str, usize); 3] = [
    ("micro_skewed_zipf_4000", 2_732_280),
    ("topk_skewed_zipf_6000", 4_038_549),
    ("bench_env_small", 598_081),
];

#[test]
fn compressed_size_stays_within_110_percent_of_v4() {
    // `compressed_bytes` counts the token lists only, so the pair index is
    // not built.
    let build = |config: SynthConfig| {
        IndexBuilder::new()
            .pair_config(PairConfig::disabled())
            .build(&config.build())
            .compressed_bytes()
    };
    let skewed = |cnodes| SynthConfig {
        cnodes,
        vocabulary: 2000,
        tokens_per_doc: 80,
        ..SynthConfig::default()
    };
    let measured = [
        build(skewed(4000).plant("rare", 0.005, 2).plant("common", 0.7, 3)),
        build(skewed(6000).plant("rare", 0.02, 4).plant("common", 0.7, 1)),
        build_env(EnvSpec::small()).index().compressed_bytes(),
    ];
    for ((corpus, v4), bytes) in V4_COMPRESSED_BYTES.into_iter().zip(measured) {
        let limit = v4 + v4 / 10;
        assert!(
            bytes <= limit,
            "{corpus}: {bytes} B exceeds 110% of the v4 baseline {v4} B"
        );
    }
}
