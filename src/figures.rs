//! The paper's evaluation (Section 6, Figures 3 and 5–8) as code: a
//! synthetic corpus per sweep point, the six engine series, and one
//! measured run per point. The `figures` binary prints the tables;
//! `tests/figures.rs` asserts Section 5's bounds on the access counters.
//!
//! The paper's series labels map to engine configurations as follows:
//!
//! | Label      | Query predicates | Engine | Notes |
//! |------------|------------------|--------|-------|
//! | BOOL       | none             | BOOL (the streaming plan) | predicate-free conjunction |
//! | PPRED-POS  | positive         | PPRED streaming | single scan |
//! | NPRED-POS  | positive         | NPRED, *full permutations* | the presented `toks_Q!` algorithm |
//! | NPRED-NEG  | negative         | NPRED, full permutations | |
//! | COMP-POS   | positive         | COMP materialized | |
//! | COMP-NEG   | negative         | COMP materialized | |
//!
//! COMP runs whose estimated materialization exceeds a tuple budget are
//! skipped and reported as such (the full-scale Figure 8 point at 125
//! positions/entry is exactly the regime the paper shows COMP failing in).

use ftsl_corpus::queries::planted_names;
use ftsl_corpus::{PredPolarity, QuerySpec, SynthConfig};
use ftsl_exec::engine::{EngineKind, ExecOptions};
use ftsl_exec::SnapshotExecutor;
use ftsl_index::{AccessCounters, IndexBuilder, InvertedIndex, Snapshot};
use ftsl_lang::{parse, Mode, SurfaceQuery};
use ftsl_predicates::PredicateRegistry;
use std::time::{Duration, Instant};

/// Maximum estimated materialized tuples before a COMP run is skipped.
pub const COMP_TUPLE_BUDGET: u64 = 20_000_000;

/// A corpus + index + registry for one sweep point.
pub struct BenchEnv {
    /// The synthetic corpus and its inverted index, as one fully live
    /// segment.
    pub snapshot: Snapshot,
    /// Built-in predicates.
    pub registry: PredicateRegistry,
    /// Names of the planted query tokens (`q0`..).
    pub tokens: Vec<String>,
    /// Occurrences per entry of each planted token.
    pub occurrences: usize,
}

/// Corpus shape parameters for one experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct EnvSpec {
    /// Number of context nodes.
    pub cnodes: usize,
    /// Occurrences of each planted token per containing document
    /// (`pos_per_entry` for the query tokens).
    pub occurrences: usize,
    /// Fraction of documents containing each planted token.
    pub doc_fraction: f64,
    /// Background tokens per document.
    pub tokens_per_doc: usize,
}

impl EnvSpec {
    /// `--scale small`: fast enough for a smoke run.
    pub fn small() -> Self {
        EnvSpec {
            cnodes: 400,
            occurrences: 6,
            doc_fraction: 0.4,
            tokens_per_doc: 150,
        }
    }

    /// `--scale medium`, the `figures` default (scaled-down INEX-like).
    pub fn medium() -> Self {
        EnvSpec {
            cnodes: 1500,
            occurrences: 10,
            doc_fraction: 0.4,
            tokens_per_doc: 250,
        }
    }

    /// Paper-scale (Section 6's defaults: 6 000 nodes, 25 positions/entry).
    pub fn full() -> Self {
        EnvSpec {
            cnodes: 6000,
            occurrences: 25,
            doc_fraction: 0.4,
            tokens_per_doc: 400,
        }
    }
}

/// Build a sweep point's environment with 5 planted query tokens.
pub fn build_env(spec: EnvSpec) -> BenchEnv {
    let tokens = planted_names(5);
    let mut config = SynthConfig {
        cnodes: spec.cnodes,
        vocabulary: 5_000,
        zipf_exponent: 1.0,
        tokens_per_doc: spec.tokens_per_doc,
        sentence_len: 15,
        sentences_per_para: 5,
        planted: Vec::new(),
        seed: 0xEDB7_2006,
    };
    for t in &tokens {
        config = config.plant(t, spec.doc_fraction, spec.occurrences);
    }
    let corpus = config.build();
    let index = IndexBuilder::new().build(&corpus);
    BenchEnv {
        snapshot: Snapshot::of_index(corpus, index),
        registry: PredicateRegistry::with_builtins(),
        tokens,
        occurrences: spec.occurrences,
    }
}

impl BenchEnv {
    /// The sweep point's inverted index.
    pub fn index(&self) -> &InvertedIndex {
        self.snapshot.segments()[0].data().index()
    }

    /// The executor every series runs through.
    pub fn executor(&self, options: ExecOptions) -> SnapshotExecutor<'_> {
        SnapshotExecutor::with_options(&self.snapshot, &self.registry, options)
    }
}

/// The paper's series labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Series {
    /// Predicate-free conjunction, forced to the BOOL class.
    Bool,
    /// Positive predicates on the PPRED engine.
    PpredPos,
    /// Positive predicates on the NPRED engine (full permutations).
    NpredPos,
    /// Negative predicates on the NPRED engine (full permutations).
    NpredNeg,
    /// Positive predicates on the COMP engine.
    CompPos,
    /// Negative predicates on the COMP engine.
    CompNeg,
}

impl Series {
    /// All series, in the paper's plotting order.
    pub const ALL: [Series; 6] = [
        Series::Bool,
        Series::PpredPos,
        Series::NpredPos,
        Series::NpredNeg,
        Series::CompPos,
        Series::CompNeg,
    ];

    /// Display label (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        match self {
            Series::Bool => "BOOL",
            Series::PpredPos => "PPRED-POS",
            Series::NpredPos => "NPRED-POS",
            Series::NpredNeg => "NPRED-NEG",
            Series::CompPos => "COMP-POS",
            Series::CompNeg => "COMP-NEG",
        }
    }

    /// Engine to force for this series.
    pub fn engine(&self) -> EngineKind {
        match self {
            Series::Bool => EngineKind::Bool,
            Series::PpredPos => EngineKind::Ppred,
            Series::NpredPos | Series::NpredNeg => EngineKind::Npred,
            Series::CompPos | Series::CompNeg => EngineKind::Comp,
        }
    }

    /// Predicate polarity of the series' queries.
    pub fn polarity(&self) -> PredPolarity {
        match self {
            Series::NpredNeg | Series::CompNeg => PredPolarity::Negative,
            _ => PredPolarity::Positive,
        }
    }

    /// Whether the series uses a predicate-free BOOL query.
    pub fn is_bool(&self) -> bool {
        matches!(self, Series::Bool)
    }
}

/// Build the query for a series at the given `toks_Q`/`preds_Q` point.
pub fn series_query(series: Series, env: &BenchEnv, toks: usize, preds: usize) -> SurfaceQuery {
    let spec = QuerySpec {
        toks,
        preds: if series.is_bool() { 0 } else { preds },
        polarity: series.polarity(),
        distance: 20,
        seed: 7 + toks as u64 * 31 + preds as u64,
    };
    if series.is_bool() {
        parse(&spec.render_bool(&env.tokens), Mode::Bool).expect("bool query parses")
    } else {
        spec.parse(&env.tokens)
    }
}

/// Outcome of a measured run.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Median wall time.
    pub time: Duration,
    /// Access counters of one run.
    pub counters: AccessCounters,
    /// Number of matching nodes.
    pub hits: usize,
    /// True when the run was skipped (over budget).
    pub skipped: bool,
}

impl Measurement {
    fn skipped() -> Self {
        Measurement {
            time: Duration::ZERO,
            counters: AccessCounters::new(),
            hits: 0,
            skipped: true,
        }
    }
}

/// Estimate the tuples a COMP evaluation of a `toks`-way conjunction would
/// materialize: (docs containing all tokens) × occurrences^toks.
pub fn estimate_comp_tuples(env: &BenchEnv, toks: usize) -> u64 {
    let exec = env.executor(ExecOptions::default());
    let spec = QuerySpec {
        toks,
        preds: 0,
        polarity: PredPolarity::Positive,
        distance: 20,
        seed: 0,
    };
    let bool_q = parse(&spec.render_bool(&env.tokens), Mode::Bool).expect("parses");
    let docs = exec
        .run_surface(&bool_q, EngineKind::Bool)
        .map(|o| o.nodes.len() as u64)
        .unwrap_or(0);
    docs.saturating_mul((env.occurrences as u64).saturating_pow(toks as u32))
}

/// Run one series point, `reps` times, reporting the median time.
pub fn measure(
    env: &BenchEnv,
    series: Series,
    toks: usize,
    preds: usize,
    reps: usize,
) -> Measurement {
    if matches!(series, Series::CompPos | Series::CompNeg)
        && estimate_comp_tuples(env, toks) > COMP_TUPLE_BUDGET
    {
        return Measurement::skipped();
    }
    let query = series_query(series, env, toks, preds);
    let options = ExecOptions {
        npred_full_permutations: true,
        ..Default::default()
    };
    let exec = env.executor(options);

    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let out = exec
            .run_surface(&query, series.engine())
            .expect("series query runs");
        times.push(start.elapsed());
        last = Some(out);
    }
    times.sort_unstable();
    let out = last.expect("at least one rep");
    Measurement {
        time: times[times.len() / 2],
        counters: out.counters,
        hits: out.nodes.len(),
        skipped: false,
    }
}

/// Format a duration in adaptive units.
pub fn fmt_duration(d: Duration, skipped: bool) -> String {
    if skipped {
        return "   (skip)".to_string();
    }
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us:>6}µs ")
    } else if us < 1_000_000 {
        format!("{:>6.1}ms ", us as f64 / 1_000.0)
    } else {
        format!("{:>6.2}s  ", us as f64 / 1_000_000.0)
    }
}
