//! The four workloads: inputs from the seed, set-up, answer checks, the
//! timed section, and the end-to-end metrics.
//!
//! All four are closed loops in one process. `zipf_cold`, `zipf_cached`
//! and `class_ladder` are stationary, so they run until `--seconds` is
//! up; `rw_churn` is a fixed script sized from `--seconds`, because which
//! flushes and merges fall inside the measurement must not depend on how
//! fast this run happened to go.

use crate::check::{self, Checks};
use crate::corpus::Corpus;
use crate::ledger;
use crate::queries::{
    build_pool, ladder_index, ladder_queries, ladder_tokens, request_stream, LadderQuery,
    PoolQuery, Series,
};
use crate::rng::Rng;
use crate::sizes::{CorpusShape, Sizes};
use crate::stats::{self, summarize};
use crate::sut::{Class, Digest, Engine, Pool, Request, Scratch};
use crate::trace::Recorder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ZipfCold,
    ZipfCached,
    RwChurn,
    ClassLadder,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ZipfCold,
        Workload::ZipfCached,
        Workload::RwChurn,
        Workload::ClassLadder,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfCold => "zipf_cold",
            Workload::ZipfCached => "zipf_cached",
            Workload::RwChurn => "rw_churn",
            Workload::ClassLadder => "class_ladder",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shape(self, sizes: &Sizes, seconds: f64) -> CorpusShape {
        match self {
            Workload::ZipfCold | Workload::ZipfCached => sizes.zipf.clone(),
            Workload::ClassLadder => sizes.ladder.clone(),
            Workload::RwChurn => CorpusShape {
                docs: churn_base_docs(sizes)
                    + churn_cycles(sizes, seconds) * sizes.churn_adds_per_cycle,
                ..sizes.zipf.clone()
            },
        }
    }

    /// Result-cache capacity of the workload's pool.
    pub fn cache_capacity(self, sizes: &Sizes) -> usize {
        match self {
            Workload::ZipfCached => sizes.cache_warm,
            // `rw_churn` invalidates on every write batch and
            // `class_ladder` bypasses the pool; neither wants a cache.
            _ => sizes.cache_cold,
        }
    }

    /// `None` is the default threshold (1024).
    fn flush_threshold(self, sizes: &Sizes) -> Option<usize> {
        match self {
            Workload::RwChurn => Some(sizes.churn_flush_threshold),
            // The paper's series run on one frozen index: the whole
            // collection is sealed in one flush, not flushed at 1024 and
            // then re-indexed by a merge (three index builds for one).
            Workload::ClassLadder => Some(usize::MAX),
            _ => None,
        }
    }
}

/// Documents in the three base segments of `rw_churn`.
pub fn churn_base_docs(sizes: &Sizes) -> usize {
    sizes.churn_base_segments * sizes.churn_flush_threshold
}

fn churn_cycles(sizes: &Sizes, seconds: f64) -> usize {
    ((sizes.churn_cycles_per_second as f64 * seconds).round() as usize)
        .max(sizes.trace_churn_cycles)
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a count or a ratio of totals).
    pub n: usize,
    /// `(percentile, value)` of the highest percentile the sample
    /// supports, for timings.
    pub tail: Option<(f64, f64)>,
}

impl Metric {
    pub fn plain(name: impl Into<String>, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            n,
            tail: None,
        }
    }

    /// Median of a timing sample, with its supported tail.
    pub fn timing(name: impl Into<String>, unit: &'static str, sample: Vec<f64>) -> Metric {
        let s = summarize(sample);
        Metric {
            name: name.into(),
            unit,
            value: s.median,
            n: s.n,
            tail: (s.tail_p > 50.0).then_some((s.tail_p, s.tail)),
        }
    }
}

pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    /// The traced run's spans, for `out/trace-<workload>.json`.
    pub trace: Option<Recorder>,
}

/// Everything generated from the seed. The system sees only these.
pub struct Inputs {
    pub corpus: Corpus,
    pub pool: Vec<PoolQuery>,
    /// One pre-generated request stream per client (pool indices).
    pub streams: Vec<Vec<u32>>,
    pub ladder: Vec<LadderQuery>,
}

impl Inputs {
    pub fn generate(workload: Workload, sizes: &Sizes, seed: u64, seconds: f64) -> Inputs {
        let corpus = Corpus::generate(
            &workload.shape(sizes, seconds),
            &mut Rng::fork(seed, "corpus"),
        );
        let pool = build_pool(&corpus, sizes.pool_queries, &mut Rng::fork(seed, "pool"));
        let streams = (0..sizes.clients())
            .map(|c| {
                request_stream(
                    pool.len(),
                    sizes.stream_len,
                    sizes.popularity_offset,
                    &mut Rng::fork(seed, &format!("client {c}")),
                )
            })
            .collect();
        let ladder = ladder_queries(&ladder_tokens(&corpus));
        Inputs {
            corpus,
            pool,
            streams,
            ladder,
        }
    }

    /// The read that ends a set-up.
    pub fn first_read(&self, workload: Workload) -> Request {
        match workload {
            Workload::ClassLadder => Request::search(&self.ladder[0].text),
            _ => self.pool[0].request.clone(),
        }
    }
}

/// Requests each client sends before timing starts: enough to fill the
/// result cache to its steady mix and to grow every worker's scratch.
pub fn warm_requests(sizes: &Sizes) -> usize {
    4 * sizes.pool_queries
}

/// A set-up engine and what setting it up cost.
pub struct Built {
    pub engine: Engine,
    pub setup_s: f64,
    /// Seconds inside add / flush / merge calls.
    pub write_s: f64,
    pub docs: usize,
    /// First read after the last write: builds the write-buffer view and
    /// the merged statistics, then answers.
    pub first_read_ms: f64,
}

/// Ingest `docs` the way a live deployment would: `add` one by one, the
/// merge policy applied inline wherever a flush may have happened.
pub fn build(
    workload: Workload,
    sizes: &Sizes,
    docs: &[String],
    first_read: &Request,
    rec: &mut Recorder,
) -> Result<Built, String> {
    let setup = rec.open("setup");
    let t0 = Instant::now();
    let engine = Engine::new(
        workload.flush_threshold(sizes),
        workload == Workload::ClassLadder,
    );
    let threshold = workload.flush_threshold(sizes).unwrap_or(1024);
    let mut write = Duration::ZERO;
    for (i, doc) in docs.iter().enumerate() {
        let t = Instant::now();
        rec.span("index.add", || engine.add(doc));
        if (i + 1) % threshold == 0 {
            rec.span("index.maybe_merge", || while engine.maybe_merge() {});
        }
        write += t.elapsed();
    }
    if workload == Workload::ClassLadder {
        let t = Instant::now();
        rec.span("index.flush", || engine.flush());
        write += t.elapsed();
    }
    let t = Instant::now();
    let first = rec.span("index.first_read", || {
        engine.warm();
        engine.direct(first_read, &mut Scratch::new())
    });
    let first_read_ms = t.elapsed().as_secs_f64() * 1e3;
    let setup_s = t0.elapsed().as_secs_f64();
    rec.close(setup);
    first?;
    Ok(Built {
        engine,
        setup_s,
        write_s: write.as_secs_f64(),
        docs: docs.len(),
        first_read_ms,
    })
}

fn resident_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The metrics every workload takes from its set-ups.
struct SetupMetrics {
    kept: Built,
    metrics: Vec<Metric>,
}

/// Set up `sizes.setups` times; the first engine is kept (and its memory
/// sampled before the others churn the allocator), the rest are timed and
/// dropped.
fn set_up(
    workload: Workload,
    sizes: &Sizes,
    docs: &[String],
    first_read: &Request,
    text_bytes: usize,
) -> Result<SetupMetrics, String> {
    let mut rec = Recorder::disabled();
    let kept = build(workload, sizes, docs, first_read, &mut rec)?;
    let rss = resident_mb();
    let (resident, _) = kept.engine.resident_bytes();
    let mut setup_s = vec![kept.setup_s];
    for _ in 1..sizes.setups {
        setup_s.push(build(workload, sizes, docs, first_read, &mut rec)?.setup_s);
    }
    let n = setup_s.len();
    let metrics = vec![
        Metric::plain("setup_s", "s", stats::median(setup_s), n),
        Metric::plain("resident_mb", "MB", rss, 1),
        Metric::plain(
            "index_bytes_per_text_byte",
            "ratio",
            resident as f64 / text_bytes as f64,
            1,
        ),
    ];
    Ok(SetupMetrics { kept, metrics })
}

/// Windows the stationary timed sections are cut into.
const WINDOWS: usize = 20;

/// One timed request: latency in µs and which pool query it was.
#[derive(Clone, Copy)]
pub struct Sample {
    pub us: f32,
    pub query: u32,
    /// Completion time, µs since the timed section began.
    pub at_us: u32,
}

/// A stretch of the timed section: the requests that completed in it and
/// how long it lasted.
struct Window<'a> {
    samples: Vec<&'a Sample>,
    seconds: f64,
}

/// Cut a stationary section of `wall_s` seconds into `n` equal windows.
fn windows_by_time(samples: &[Sample], wall_s: f64, n: usize) -> Vec<Window<'_>> {
    let window_us = (wall_s * 1e6 / n as f64).max(1.0);
    let mut windows: Vec<Window> = (0..n)
        .map(|_| Window {
            samples: Vec::new(),
            seconds: window_us / 1e6,
        })
        .collect();
    for s in samples {
        let w = ((f64::from(s.at_us) / window_us) as usize).min(n - 1);
        windows[w].samples.push(s);
    }
    windows
}

/// Latency metrics shared by every workload: throughput, overall median
/// and 99th percentile, and the median per language class.
///
/// Each number is taken per window; reported is the quartile of the
/// windows on the good side (upper for throughput, lower for latencies).
/// On a shared box interference only ever slows a window down, and it comes
/// and goes on the scale of seconds, so the good-side quartile estimates
/// the undisturbed value where a whole-run figure moves ±20 % between
/// identical runs; a regression in the system moves every window. One
/// window (the `rw_churn` script, which is not stationary) gives the plain
/// whole-run figures.
fn latency_metrics(windows: &[Window<'_>], class_of: impl Fn(u32) -> Option<Class>) -> Vec<Metric> {
    let classes = [
        (Some(Class::Bool), "bool_us"),
        (Some(Class::Ppred), "ppred_us"),
        (Some(Class::Npred), "npred_us"),
        (Some(Class::Comp), "comp_us"),
    ];
    let (mut qps, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut by_class: Vec<Vec<f64>> = vec![Vec::new(); classes.len()];
    let mut counts = vec![0usize; classes.len()];
    let mut everything = Vec::new();
    for window in windows.iter().filter(|w| !w.samples.is_empty()) {
        qps.push(window.samples.len() as f64 / window.seconds);
        let mut all: Vec<f64> = window.samples.iter().map(|s| f64::from(s.us)).collect();
        everything.extend_from_slice(&all);
        stats::sort(&mut all);
        p50.push(stats::median_sorted(&all));
        p99.push(stats::percentile(&all, 99.0));
        for (i, (class, _)) in classes.iter().enumerate() {
            let of_class: Vec<f64> = window
                .samples
                .iter()
                .filter(|s| class_of(s.query) == *class)
                .map(|s| f64::from(s.us))
                .collect();
            if !of_class.is_empty() {
                counts[i] += of_class.len();
                by_class[i].push(stats::median(of_class));
            }
        }
    }
    let n = everything.len();
    let low = |v: &[f64]| stats::quartiles(v).0;
    // The tail shown beside p50 is the whole section's, for the reader;
    // only the windowed values are metrics.
    let whole = summarize(everything);
    let mut metrics = vec![
        Metric::plain("qps", "1/s", stats::quartiles(&qps).2, n),
        Metric {
            tail: (whole.tail_p > 50.0).then_some((whole.tail_p, whole.tail)),
            ..Metric::plain("p50_us", "us", low(&p50), n)
        },
        Metric::plain("p99_us", "us", low(&p99), n),
    ];
    for (i, (_, name)) in classes.iter().enumerate() {
        metrics.push(Metric::plain(*name, "us", low(&by_class[i]), counts[i]));
    }
    metrics
}

/// Closed loop: one thread per stream, each sending its next request when
/// the previous reply arrived, every reply checked against `expected`.
/// Returns the samples, the wall time and the number of wrong replies.
pub fn closed_loop(
    pool: &Pool,
    queries: &[PoolQuery],
    expected: &[Digest],
    streams: &[Vec<u32>],
    warm_requests: usize,
    seconds: f64,
) -> (Vec<Sample>, f64, u64) {
    let barrier = Barrier::new(streams.len());
    let failed = AtomicU64::new(0);
    let results: Vec<(Vec<Sample>, Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let (barrier, failed) = (&barrier, &failed);
                scope.spawn(move || {
                    let mut next = stream.iter().cycle();
                    for &q in next.by_ref().take(warm_requests) {
                        let _ = pool.execute(&queries[q as usize].request);
                    }
                    let mut samples = Vec::with_capacity(1 << 20);
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs_f64(seconds);
                    let mut now = start;
                    while now < deadline {
                        let &q = next.next().expect("streams are not empty");
                        let reply = pool.execute(&queries[q as usize].request);
                        let done = Instant::now();
                        samples.push(Sample {
                            us: (done - now).as_secs_f32() * 1e6,
                            query: q,
                            at_us: (done - start).as_micros() as u32,
                        });
                        if reply.map_or(true, |r| r.digest != expected[q as usize]) {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                        now = Instant::now();
                    }
                    (samples, start, now)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = results
        .iter()
        .map(|r| r.1)
        .min()
        .expect("at least one client");
    let end = results
        .iter()
        .map(|r| r.2)
        .max()
        .expect("at least one client");
    let samples = results.into_iter().flat_map(|r| r.0).collect();
    (samples, (end - start).as_secs_f64(), failed.into_inner())
}

/// Run one workload once: with `trace` off the end-to-end metrics, with it
/// on the per-layer ledger and the span file.
pub fn run(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let inputs = Inputs::generate(workload, sizes, seed, seconds);
    let mut checks = Checks::default();
    check::oracle(workload, sizes, seed, &mut checks)?;
    if trace {
        let (metrics, rec) = ledger::run(workload, sizes, &inputs, seconds, &mut checks)?;
        return Ok(Outcome {
            checks,
            metrics,
            trace: Some(rec),
        });
    }
    let metrics = match workload {
        Workload::ZipfCold | Workload::ZipfCached => {
            zipf(workload, sizes, seed, &inputs, seconds, &mut checks)?
        }
        Workload::RwChurn => churn(sizes, seed, &inputs, seconds, &mut checks)?,
        Workload::ClassLadder => ladder(sizes, seed, &inputs, seconds, &mut checks)?,
    };
    Ok(Outcome {
        checks,
        metrics,
        trace: None,
    })
}

fn zipf(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    inputs: &Inputs,
    seconds: f64,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let docs = &inputs.corpus.texts;
    let SetupMetrics { kept, mut metrics } = set_up(
        workload,
        sizes,
        docs,
        &inputs.first_read(workload),
        inputs.corpus.text_bytes(),
    )?;
    let expected = check::expected_answers(&kept.engine, &inputs.pool, checks);
    check::golden(
        workload,
        docs.len(),
        seed,
        check::fold(expected.iter().copied()),
        checks,
    );

    let pool = kept
        .engine
        .pool(inputs.streams.len(), workload.cache_capacity(sizes));
    let warm = warm_requests(sizes);
    let (samples, wall_s, wrong) = closed_loop(
        &pool,
        &inputs.pool,
        &expected,
        &inputs.streams,
        warm,
        seconds,
    );
    checks.record(
        samples.len() as u64,
        wrong,
        "timed replies differing from the uncached answer",
    );
    metrics.extend(latency_metrics(
        &windows_by_time(&samples, wall_s, WINDOWS),
        |q| inputs.pool[q as usize].template.class(),
    ));
    Ok(metrics)
}

/// What one `rw_churn` cycle did, for the script's caller to account.
#[derive(Default)]
pub struct ChurnTotals {
    samples: Vec<Sample>,
    first_reads_ms: Vec<f64>,
    write: Duration,
    read: Duration,
    docs_written: usize,
    digest: Option<Digest>,
}

impl ChurnTotals {
    pub fn write_ms_per_kdoc(&self) -> f64 {
        self.write.as_secs_f64() * 1e6 / self.docs_written.max(1) as f64
    }

    pub fn first_reads_ms(&self) -> &[f64] {
        &self.first_reads_ms
    }
}

/// The `rw_churn` script on one thread: per cycle a write batch (adds, the
/// deletes marked last cycle, the merge policy inline), a read-your-writes
/// probe that is also the first read after the batch, then pool reads.
pub struct ChurnScript<'a> {
    pub sizes: &'a Sizes,
    pub inputs: &'a Inputs,
    pub engine: &'a Engine,
    pub pool: &'a Pool,
    next_doc: usize,
    next_read: usize,
    /// Ids to delete in the next write batch, and the unique token that
    /// must be gone afterwards.
    doomed: Vec<u32>,
    doomed_token: Option<String>,
    pub totals: ChurnTotals,
}

impl<'a> ChurnScript<'a> {
    pub fn new(sizes: &'a Sizes, inputs: &'a Inputs, engine: &'a Engine, pool: &'a Pool) -> Self {
        ChurnScript {
            sizes,
            inputs,
            engine,
            pool,
            next_doc: churn_base_docs(sizes),
            next_read: 0,
            doomed: Vec::new(),
            doomed_token: None,
            totals: ChurnTotals::default(),
        }
    }

    pub fn cycle(&mut self, cycle: usize, rec: &mut Recorder, checks: &mut Checks) {
        let sizes = self.sizes;
        let batch = rec.open("churn.write_batch");
        let t = Instant::now();
        let unique = format!("uniq{cycle}x");
        let mut marked = Vec::new();
        let mut unique_id = 0;
        for i in 0..sizes.churn_adds_per_cycle {
            let text = &self.inputs.corpus.texts[self.next_doc];
            self.next_doc += 1;
            let last = i + 1 == sizes.churn_adds_per_cycle;
            let id = if last {
                let tagged = format!("{text} {unique}");
                rec.span("index.add", || self.engine.add(&tagged))
            } else {
                rec.span("index.add", || self.engine.add(text))
            };
            if last {
                unique_id = id;
            }
            if last || (i + 1) % sizes.churn_delete_every == 0 {
                marked.push(id);
            }
        }
        for id in std::mem::replace(&mut self.doomed, marked) {
            let gone = rec.span("index.delete", || self.engine.delete(id));
            checks.expect(gone, || {
                format!("cycle {cycle}: delete of {id} found nothing")
            });
        }
        rec.span("index.maybe_merge", || while self.engine.maybe_merge() {});
        self.totals.write += t.elapsed();
        self.totals.docs_written += sizes.churn_adds_per_cycle;
        rec.close(batch);

        // Read your writes; this read also pays for the new view.
        let probe = Request::search(&format!("'{unique}'"));
        let t = Instant::now();
        let reply = rec.span("churn.first_read", || self.pool.execute(&probe));
        let took = t.elapsed();
        self.totals.read += took;
        self.totals.first_reads_ms.push(took.as_secs_f64() * 1e3);
        self.totals.samples.push(Sample {
            us: took.as_secs_f32() * 1e6,
            query: u32::MAX,
            at_us: (self.totals.write + self.totals.read).as_micros() as u32,
        });
        let want = Digest::start().fold(1).fold(u64::from(unique_id));
        checks.expect(reply.as_ref().is_ok_and(|r| r.digest == want), || {
            format!("cycle {cycle}: added document {unique_id} not found by its unique token")
        });
        if let Some(token) = self.doomed_token.replace(unique) {
            let reply = self.pool.execute(&Request::search(&format!("'{token}'")));
            checks.expect(reply.as_ref().is_ok_and(|r| r.hits == 0), || {
                format!("cycle {cycle}: deleted document still found by '{token}'")
            });
        }

        let mut scratch = Scratch::new();
        for i in 0..sizes.churn_reads_per_cycle {
            let stream = &self.inputs.streams[0];
            let q = stream[self.next_read % stream.len()];
            self.next_read += 1;
            let request = &self.inputs.pool[q as usize].request;
            let t = Instant::now();
            let reply = rec.span("churn.read", || self.pool.execute(request));
            let took = t.elapsed();
            self.totals.read += took;
            self.totals.samples.push(Sample {
                us: took.as_secs_f32() * 1e6,
                query: q,
                at_us: (self.totals.write + self.totals.read).as_micros() as u32,
            });
            let digest = reply.as_ref().map_or(Digest(0), |r| r.digest);
            checks.expect(reply.is_ok(), || format!("cycle {cycle}: read failed"));
            self.totals.digest = Some(
                self.totals
                    .digest
                    .unwrap_or_else(Digest::start)
                    .fold(digest.0),
            );
            // Every 16th reply is recomputed on this thread, past the
            // cache: a stale entry surviving a write shows here.
            if i % 16 == 0 {
                let direct = self.engine.direct(request, &mut scratch);
                checks.expect(direct.is_ok_and(|d| d.digest == digest), || {
                    format!("cycle {cycle}: pool reply differs from direct evaluation")
                });
            }
        }
    }
}

fn churn(
    sizes: &Sizes,
    seed: u64,
    inputs: &Inputs,
    seconds: f64,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let base = &inputs.corpus.texts[..churn_base_docs(sizes)];
    let text_bytes = base.iter().map(String::len).sum();
    let first_read = inputs.first_read(Workload::RwChurn);
    let SetupMetrics { kept, mut metrics } =
        set_up(Workload::RwChurn, sizes, base, &first_read, text_bytes)?;
    checks.expect(
        kept.engine.sealed_segments() == sizes.churn_base_segments,
        || format!("base has {} segments", kept.engine.sealed_segments()),
    );
    // The script runs `churn_scripts` times, each on a fresh base engine,
    // and each run is one window of `latency_metrics`: the same good-side
    // quartile as the stationary workloads, which for three is the best.
    let mut first = Some(kept);
    let mut rec = Recorder::disabled();
    let mut totals: Vec<ChurnTotals> = Vec::new();
    for script_no in 0..sizes.churn_scripts {
        let built = match first.take() {
            Some(kept) => kept,
            None => build(Workload::RwChurn, sizes, base, &first_read, &mut rec)?,
        };
        let engine = &built.engine;
        let pool = engine.pool(1, Workload::RwChurn.cache_capacity(sizes));
        let mut script = ChurnScript::new(sizes, inputs, engine, &pool);
        let merges_before = engine.merges_completed();
        for cycle in 0..churn_cycles(sizes, seconds) {
            script.cycle(cycle, &mut rec, checks);
        }
        let t = script.totals;
        check::golden(
            Workload::RwChurn,
            inputs.corpus.texts.len(),
            seed,
            t.digest.unwrap_or(Digest(0)),
            checks,
        );
        println!(
            "# rw_churn script {}: {} cycles, {} documents written, {} merges, {} sealed segments at \
             the end; {:.1} ms write time per 1000 documents, first read after a batch {:.2} ms (median)",
            script_no + 1,
            churn_cycles(sizes, seconds),
            t.docs_written,
            engine.merges_completed() - merges_before,
            engine.sealed_segments(),
            t.write_ms_per_kdoc(),
            stats::median(t.first_reads_ms.clone()),
        );
        totals.push(t);
    }
    let windows: Vec<Window> = totals
        .iter()
        .map(|t| Window {
            samples: t.samples.iter().collect(),
            seconds: (t.write + t.read).as_secs_f64(),
        })
        .collect();
    metrics.extend(latency_metrics(&windows, |q| {
        inputs.pool.get(q as usize).and_then(|p| p.template.class())
    }));
    Ok(metrics)
}

fn ladder(
    sizes: &Sizes,
    seed: u64,
    inputs: &Inputs,
    seconds: f64,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let SetupMetrics { kept, mut metrics } = set_up(
        Workload::ClassLadder,
        sizes,
        &inputs.corpus.texts,
        &inputs.first_read(Workload::ClassLadder),
        inputs.corpus.text_bytes(),
    )?;
    let engine = &kept.engine;
    checks.expect(engine.sealed_segments() == 1, || {
        format!(
            "ladder runs on one segment, found {}",
            engine.sealed_segments()
        )
    });
    let expected = check::ladder_answers(engine, &inputs.ladder, checks);
    check::golden(
        Workload::ClassLadder,
        inputs.corpus.texts.len(),
        seed,
        check::fold(expected.iter().map(|r| r.digest)),
        checks,
    );

    // Round-robin over the 18 queries, whole rounds only, so every query
    // has the same number of samples.
    let mut samples: Vec<Sample> = Vec::new();
    let start = Instant::now();
    let mut wrong = 0;
    while start.elapsed().as_secs_f64() < seconds {
        for (i, q) in inputs.ladder.iter().enumerate() {
            let t = Instant::now();
            let reply = engine.search_forced(&q.text, q.series.engine());
            samples.push(Sample {
                us: t.elapsed().as_secs_f32() * 1e6,
                query: i as u32,
                at_us: start.elapsed().as_micros() as u32,
            });
            if reply.map_or(true, |r| r.digest != expected[i].digest) {
                wrong += 1;
            }
        }
    }
    checks.record(
        samples.len() as u64,
        wrong,
        "ladder replies differing from the first answer",
    );
    // Windows of whole rounds: each holds every query equally often, so a
    // window's median does not depend on where a time boundary cut a
    // round, and its length is what its rounds took.
    let per_round = inputs.ladder.len();
    let rounds = samples.len() / per_round;
    let rounds_per_window = rounds.div_ceil(WINDOWS / 2).max(1);
    let mut window_start_us = 0u32;
    let windows: Vec<Window> = samples
        .chunks(rounds_per_window * per_round)
        .map(|chunk| {
            let end_us = chunk.last().expect("chunks are not empty").at_us;
            let seconds = f64::from(end_us - window_start_us) / 1e6;
            window_start_us = end_us;
            Window {
                samples: chunk.iter().collect(),
                seconds,
            }
        })
        .collect();

    // The four classes at the paper's default toks_Q = 3.
    let rung = |series| ladder_index(&inputs.ladder, series, 3) as u32;
    let rungs = [
        (rung(Series::Bool), Class::Bool),
        (rung(Series::PpredPos), Class::Ppred),
        (rung(Series::NpredNeg), Class::Npred),
        (rung(Series::CompNeg), Class::Comp),
    ];
    let class_metrics = latency_metrics(&windows, |q| rungs.iter().find(|r| r.0 == q).map(|r| r.1));
    check::ladder_order(
        &class_metrics,
        &rungs.map(|r| expected[r.0 as usize].counters.total()),
        checks,
    );
    metrics.extend(class_metrics);
    Ok(metrics)
}
