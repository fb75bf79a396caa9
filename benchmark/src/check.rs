//! Answer checks and failure accounting.
//!
//! Three lines of defence: every template is compared with the calculus
//! interpreter on a collection small enough for it; on the real collection
//! every timed reply must equal the answer computed once, uncached, before
//! timing; and for seed 1 the fold of those answers is pinned in
//! `golden.json`, so a change that alters any answer shows even when it
//! alters it consistently.

use crate::corpus::Corpus;
use crate::json::{self, Json};
use crate::queries::{
    build_pool, ladder_index, ladder_queries, ladder_tokens, LadderQuery, PoolQuery, Series,
    Template, LADDER_TOKS,
};
use crate::rng::Rng;
use crate::sizes::{CorpusShape, Sizes};
use crate::sut::{Digest, Engine, Oracle, Reply, Request, Scratch};
use crate::workloads::{Metric, Workload};
use std::path::PathBuf;

/// Attempted operations, how many went wrong, and what went wrong first.
#[derive(Default, Debug)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Fold of the run's answers (what `golden.json` pins for seed 1).
    pub answers: Option<Digest>,
}

impl Checks {
    /// One checked operation.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    /// A batch of operations checked elsewhere.
    pub fn record(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.note(format!("{failed} of {attempted} {what}"));
        }
    }

    fn note(&mut self, note: String) {
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }
}

pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Small shapes the interpreter (`O(positions ^ variables)` per node) can
/// answer in well under a second.
fn oracle_shape(workload: Workload, sizes: &Sizes) -> CorpusShape {
    match workload {
        Workload::ClassLadder => CorpusShape {
            docs: sizes.oracle_docs / 3,
            tokens_per_doc: 12,
            vocabulary: 200,
            zipf_exponent: 1.0,
            sentence_len: 4,
            sentences_per_para: 2,
            planted: (5, 0.5, 2),
        },
        _ => CorpusShape {
            docs: sizes.oracle_docs,
            tokens_per_doc: 30,
            vocabulary: 2_000,
            zipf_exponent: 1.0,
            sentence_len: 5,
            sentences_per_para: 2,
            planted: (0, 0.0, 0),
        },
    }
}

/// Check every template (every ladder series for `class_ladder`) against
/// the interpreter on a small collection built from the same seed.
pub fn oracle(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    checks: &mut Checks,
) -> Result<(), String> {
    let corpus = Corpus::generate(
        &oracle_shape(workload, sizes),
        &mut Rng::fork(seed, "oracle corpus"),
    );
    let full_permutations = workload == Workload::ClassLadder;
    let engine = Engine::new(Some(corpus.texts.len() / 3 + 1), full_permutations);
    for text in &corpus.texts {
        engine.add(text);
    }
    let oracle = Oracle::new(&corpus.texts);
    if workload == Workload::ClassLadder {
        // toks_Q = 4 costs the interpreter positions⁴ per node; the
        // engines' agreement on the real collection covers that rung.
        for q in ladder_queries(&ladder_tokens(&corpus))
            .iter()
            .filter(|q| q.toks < 4)
        {
            let want = Oracle::digest(&oracle.matches(&q.text)?);
            let got = engine.search_forced(&q.text, q.series.engine());
            checks.expect(got.as_ref().is_ok_and(|r| r.digest == want), || {
                format!(
                    "oracle: {} t{} disagrees with the interpreter ({got:?})",
                    q.series.name(),
                    q.toks
                )
            });
        }
        return Ok(());
    }
    let pool = build_pool(
        &corpus,
        sizes.oracle_queries_per_template * Template::ALL.len(),
        &mut Rng::fork(seed, "oracle pool"),
    );
    let mut scratch = Scratch::new();
    let mut matched = [0usize; Template::ALL.len()];
    for q in &pool {
        let got = engine.direct(&q.request, &mut scratch);
        let ok = match (&q.request, &q.oracle_text, &got) {
            (Request::Search { .. }, Some(text), Ok(r)) => {
                r.digest == Oracle::digest(&oracle.matches(text)?)
            }
            // Proximity-ranked: the hits are the interpreter's matches
            // (all of them when fewer than k matched).
            (Request::Near { k, .. }, Some(text), Ok(r)) => {
                r.hits == oracle.matches(text)?.len().min(*k)
            }
            (Request::TopK { query, k, .. }, None, Ok(_)) => top_k_matches_exhaustive(
                &engine.top_k(query, *k)?,
                &engine.ranked_exhaustive(query)?,
                *k,
            ),
            _ => false,
        };
        checks.expect(ok, || {
            format!("oracle: {} {:?} → {got:?}", q.template.name(), q.request)
        });
        if got.is_ok_and(|r| r.hits > 0) {
            matched[q.template as usize] += 1;
        }
    }
    for t in Template::ALL {
        checks.expect(matched[t as usize] > 0, || {
            format!(
                "oracle: no {} query matched anything, the check is vacuous",
                t.name()
            )
        });
    }
    Ok(())
}

/// Streaming top-k against the exhaustive ranking: as many hits as the
/// ranking allows, the same scores rank by rank, and every hit scored as
/// the exhaustive path scores that node. Scores compare to rounding (the
/// two paths sum in different orders), which also lets exact ties come out
/// in either order.
fn top_k_matches_exhaustive(top: &[(u32, f64)], full: &[(u32, f64)], k: usize) -> bool {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
    top.len() == full.len().min(k)
        && top.iter().zip(full).all(|(t, f)| close(t.1, f.1))
        && top
            .iter()
            .all(|t| full.iter().any(|f| f.0 == t.0 && close(f.1, t.1)))
}

/// The answer to every pool query, computed once on this thread through
/// the facade (never the cache). Timed replies are compared with these.
pub fn expected_answers(engine: &Engine, pool: &[PoolQuery], checks: &mut Checks) -> Vec<Digest> {
    let mut scratch = Scratch::new();
    pool.iter()
        .map(|q| {
            let reply = engine.direct(&q.request, &mut scratch);
            checks.expect(reply.is_ok(), || {
                format!("{:?} failed: {reply:?}", q.request)
            });
            reply.map_or(Digest(0), |r| r.digest)
        })
        .collect()
}

/// First answers of the ladder, with the cross-engine agreement the
/// series imply: the POS series ask one question of three engines, the
/// NEG series one of two.
pub fn ladder_answers(engine: &Engine, ladder: &[LadderQuery], checks: &mut Checks) -> Vec<Reply> {
    let empty = Reply {
        digest: Digest(0),
        hits: 0,
        counters: Default::default(),
        cached: false,
    };
    let answers: Vec<Reply> = ladder
        .iter()
        .map(|q| {
            let reply = engine.search_forced(&q.text, q.series.engine());
            checks.expect(reply.is_ok(), || {
                format!("{} t{}: {reply:?}", q.series.name(), q.toks)
            });
            reply.unwrap_or(empty)
        })
        .collect();
    let of = |series, toks| answers[ladder_index(ladder, series, toks)].digest;
    for toks in LADDER_TOKS {
        for (a, b) in [
            (Series::PpredPos, Series::NpredPos),
            (Series::PpredPos, Series::CompPos),
            (Series::NpredNeg, Series::CompNeg),
        ] {
            checks.expect(of(a, toks) == of(b, toks), || {
                format!("{} and {} disagree at toks_Q = {toks}", a.name(), b.name())
            });
        }
    }
    answers
}

/// The paper's hierarchy at `toks_Q = 3`: medians and access counters of
/// BOOL < PPRED < NPRED < COMP, in that order in both arguments.
pub fn ladder_order(class_metrics: &[Metric], counters: &[u64; 4], checks: &mut Checks) {
    let medians: Vec<f64> = ["bool_us", "ppred_us", "npred_us", "comp_us"]
        .iter()
        .filter_map(|name| class_metrics.iter().find(|m| m.name == *name))
        .map(|m| m.value)
        .collect();
    checks.expect(
        medians.len() == 4 && medians.windows(2).all(|w| w[0] < w[1]),
        || format!("class medians not ordered BOOL < PPRED < NPRED < COMP: {medians:?}"),
    );
    checks.expect(counters.windows(2).all(|w| w[0] < w[1]), || {
        format!("access counters not ordered BOOL < PPRED < NPRED < COMP: {counters:?}")
    });
}

pub fn fold(digests: impl IntoIterator<Item = Digest>) -> Digest {
    digests
        .into_iter()
        .fold(Digest::start(), |acc, d| acc.fold(d.0))
}

/// Seed whose answers are pinned.
pub const GOLDEN_SEED: u64 = 1;

/// Compare `got` with `golden.json` (seed 1 only; other seeds have no
/// pinned answer). With `FTSL_BENCH_BLESS=1` the file is rewritten instead
/// — for the change that legitimately alters answers, which then owes an
/// explanation.
pub fn golden(workload: Workload, docs: usize, seed: u64, got: Digest, checks: &mut Checks) {
    checks.answers = Some(got);
    if seed != GOLDEN_SEED {
        return;
    }
    let path = benchmark_dir().join("golden.json");
    // The pinned answers belong to one collection size (for `rw_churn`
    // that also fixes the script length, which follows `--seconds`).
    let key = format!("{}@{docs}", workload.name());
    let got = format!("{:016x}", got.0);
    let mut file = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| json::parse(&t).ok())
        .and_then(|j| j.as_obj().cloned())
        .unwrap_or_default();
    if std::env::var_os("FTSL_BENCH_BLESS").is_some() {
        file.insert(key, Json::Str(got));
        let text = Json::Obj(file).render().replace("\",", "\",\n ") + "\n";
        if let Err(e) = std::fs::write(&path, text) {
            checks.expect(false, || format!("cannot write {}: {e}", path.display()));
        }
        return;
    }
    match file.get(&key).and_then(Json::as_str) {
        Some(want) => checks.expect(want == got, || {
            format!("golden checksum of {key} is {want}, this run answered {got}")
        }),
        None => println!("# no golden entry for {key}; answers not pinned on this run"),
    }
}
