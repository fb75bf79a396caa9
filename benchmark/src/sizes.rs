//! Every size the benchmark uses, in one place.
//!
//! The sizes answer to a wall-clock budget, not to ROADMAP's 100 k
//! documents: one acceptance pass is 4 + 22 × 4 = 92 runs in 3420 s, about
//! 35 s a run including three set-ups, and the pair index costs ≈0.6 ms a
//! document to build and ≈1.5 ms a document to merge today. README.md
//! ("Sizing") has the arithmetic; shrink request counts before corpus size.

/// Shape of a generated collection.
#[derive(Clone, Debug)]
pub struct CorpusShape {
    pub docs: usize,
    pub tokens_per_doc: usize,
    pub vocabulary: usize,
    pub zipf_exponent: f64,
    pub sentence_len: usize,
    pub sentences_per_para: usize,
    /// `(how many tokens, share of documents holding each, occurrences per
    /// holding document)` of the planted `q0..` tokens.
    pub planted: (usize, f64, usize),
}

#[derive(Clone, Debug)]
pub struct Sizes {
    /// `zipf_cold` / `zipf_cached` collection. Below 4096 documents the
    /// default policy (flush at 1024, compact everything at four segments)
    /// leaves three sealed segments plus a write buffer and never merges
    /// during set-up — a 4096-document merge alone takes ≈6 s.
    pub zipf: CorpusShape,
    /// `rw_churn` starts from this many unmerged sealed segments.
    pub churn_base_segments: usize,
    /// `rw_churn` flush threshold. The default 1024 would need ≈35 s for
    /// three flushes and a merge; 256 fits five flushes and two full
    /// compactions into a 4 s script.
    pub churn_flush_threshold: usize,
    pub churn_adds_per_cycle: usize,
    pub churn_reads_per_cycle: usize,
    /// Every n-th added document is deleted one cycle later.
    pub churn_delete_every: usize,
    /// The `rw_churn` script is fixed work, `cycles_per_second × --seconds`
    /// cycles, so that the same flushes and merges happen on every run.
    pub churn_cycles_per_second: usize,
    /// How many times the script runs, each on a fresh base; the best run
    /// is reported (interference only ever slows a run down).
    pub churn_scripts: usize,
    /// `class_ladder` collection (`EnvSpec::medium` of the old harness).
    pub ladder: CorpusShape,
    /// Distinct queries in the Zipf pool.
    pub pool_queries: usize,
    /// Request popularity is Zipf–Mandelbrot with exponent 1 and this
    /// offset. Plain Zipf(1.0) gives the first of 4000 ranks 11 % of the
    /// traffic, so which query a seed happens to put there moves `qps` by a
    /// third; offset 10 caps one query at 1.5 % and keeps the tail, and
    /// with it a cache of a quarter of the pool still hits about 0.7.
    pub popularity_offset: f64,
    /// Pre-generated requests per client; the timed loop cycles through.
    pub stream_len: usize,
    /// Upper limit on client threads (and pool workers).
    pub max_clients: usize,
    /// Result-cache capacity of `zipf_cold` (1 is the minimum) and of
    /// `zipf_cached` (the serving default, a quarter of the pool).
    pub cache_cold: usize,
    pub cache_warm: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Collection the calculus interpreter can afford to check against.
    pub oracle_docs: usize,
    pub oracle_queries_per_template: usize,
    /// Traced replay: requests of client 0, ladder rounds, churn cycles.
    pub trace_requests: usize,
    pub trace_ladder_rounds: usize,
    pub trace_churn_cycles: usize,
    /// Documents the build / persist / write-path probes work on.
    pub probe_docs: usize,
    /// Seconds of the free-running reader + paced writer diagnostic.
    pub stall_seconds: f64,
}

impl Sizes {
    pub fn standard() -> Self {
        Sizes {
            zipf: CorpusShape {
                docs: 4_000,
                tokens_per_doc: 100,
                vocabulary: 20_000,
                zipf_exponent: 1.0,
                sentence_len: 15,
                sentences_per_para: 3,
                planted: (0, 0.0, 0),
            },
            churn_base_segments: 3,
            churn_flush_threshold: 256,
            churn_adds_per_cycle: 32,
            churn_reads_per_cycle: 64,
            churn_delete_every: 4,
            churn_cycles_per_second: 4,
            churn_scripts: 3,
            ladder: CorpusShape {
                docs: 1_500,
                tokens_per_doc: 250,
                vocabulary: 5_000,
                zipf_exponent: 1.0,
                sentence_len: 15,
                sentences_per_para: 5,
                planted: (5, 0.4, 10),
            },
            pool_queries: 4_000,
            popularity_offset: 10.0,
            stream_len: 1 << 16,
            max_clients: 2,
            cache_cold: 1,
            cache_warm: 1024,
            setups: 3,
            oracle_docs: 300,
            oracle_queries_per_template: 12,
            trace_requests: 2_000,
            trace_ladder_rounds: 30,
            trace_churn_cycles: 8,
            probe_docs: 512,
            stall_seconds: 2.0,
        }
    }

    /// `--smoke`: every code path, small enough that all four workloads
    /// with their traced passes finish in under 20 s.
    pub fn smoke() -> Self {
        let std = Self::standard();
        Sizes {
            zipf: CorpusShape {
                docs: 600,
                ..std.zipf.clone()
            },
            churn_flush_threshold: 64,
            churn_adds_per_cycle: 16,
            churn_reads_per_cycle: 16,
            ladder: CorpusShape {
                docs: 200,
                tokens_per_doc: 120,
                planted: (5, 0.4, 4),
                ..std.ladder.clone()
            },
            pool_queries: 450,
            stream_len: 1 << 12,
            cache_warm: 128,
            setups: 2,
            oracle_docs: 120,
            oracle_queries_per_template: 4,
            trace_requests: 300,
            trace_ladder_rounds: 5,
            trace_churn_cycles: 4,
            probe_docs: 96,
            stall_seconds: 0.3,
            ..std
        }
    }

    pub fn clients(&self) -> usize {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(self.max_clients)
    }
}
