//! Query generation: the nine-template Zipf pool, per-client request
//! streams, and the paper's ladder series.

use crate::corpus::Corpus;
use crate::rng::{Rng, Zipf};
use crate::sut::{top_k_request, Class, Forced, Request};

/// The request templates of the `zipf_*` pool. Each stresses a different
/// path; `exec.<name>_us` reports them one by one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Template {
    BoolAnd2,
    BoolAnd3Not,
    TopK10,
    TopK100,
    /// Adjacent ordered pair: resolved from the word-pair index.
    Phrase,
    /// `QueryRequest::Near`: proximity-ranked, pair index.
    Near,
    /// `samepara` or a distance beyond the pair window: position
    /// intersection.
    PpredFallback,
    /// `not_distance`.
    Npred,
    /// `exact_gap`, a general predicate: materialized algebra. Not in the
    /// issue's list of eight; added so that `comp_us` exists on every
    /// workload, which the driver's contract requires of an end-to-end
    /// metric.
    Comp,
}

impl Template {
    pub const ALL: [Template; 9] = [
        Template::BoolAnd2,
        Template::BoolAnd3Not,
        Template::TopK10,
        Template::TopK100,
        Template::Phrase,
        Template::Near,
        Template::PpredFallback,
        Template::Npred,
        Template::Comp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Template::BoolAnd2 => "bool_and2",
            Template::BoolAnd3Not => "bool_and3not",
            Template::TopK10 => "topk10",
            Template::TopK100 => "topk100",
            Template::Phrase => "phrase",
            Template::Near => "near",
            Template::PpredFallback => "ppred_fallback",
            Template::Npred => "npred",
            Template::Comp => "comp",
        }
    }

    /// Span around the executor call that answers this template.
    pub fn exec_span(self) -> &'static str {
        match self {
            Template::BoolAnd2 => "exec.bool_and2",
            Template::BoolAnd3Not => "exec.bool_and3not",
            Template::TopK10 => "exec.topk10",
            Template::TopK100 => "exec.topk100",
            Template::Phrase => "exec.phrase",
            Template::Near => "exec.near",
            Template::PpredFallback => "exec.ppred_fallback",
            Template::Npred => "exec.npred",
            Template::Comp => "exec.comp",
        }
    }

    /// The class whose end-to-end latency metric (`bool_us` …) the
    /// template's requests count into; ranked top-k requests count into
    /// none (their cost is scoring, not the class's evaluation strategy).
    pub fn class(self) -> Option<Class> {
        match self {
            Template::BoolAnd2 | Template::BoolAnd3Not => Some(Class::Bool),
            Template::TopK10 | Template::TopK100 => None,
            Template::Phrase | Template::Near | Template::PpredFallback => Some(Class::Ppred),
            Template::Npred => Some(Class::Npred),
            Template::Comp => Some(Class::Comp),
        }
    }
}

#[derive(Clone, Debug)]
pub struct PoolQuery {
    pub template: Template,
    pub request: Request,
    /// The same question as plain COMP-syntax text the calculus
    /// interpreter can answer (`None` for ranked templates, which are
    /// checked against exhaustive ranking instead).
    pub oracle_text: Option<String>,
}

/// Tokens by document-frequency band: the 16 most frequent (in the Zipf
/// collection df 100 % down to 45 %), ranks 32 to 160 (30 % down to 6 %), and
/// ranks from 512 on that still occur in two documents (the pair index's
/// cutoff). The bands are narrow and apart on purpose: a template's cost
/// follows its tokens' list lengths, and a template whose queries differ
/// 100× in cost makes every popularity-weighted figure hinge on which few
/// of them the seed ranked first.
struct Bands {
    hot: Vec<u32>,
    mid: Vec<u32>,
    rare: Vec<u32>,
    /// Per token id: is it in the mid band?
    in_mid: Vec<bool>,
}

impl Bands {
    fn of(corpus: &Corpus) -> Bands {
        let order = corpus.by_frequency();
        let n = order.len();
        let rare_end = order
            .iter()
            .position(|&id| corpus.df[id as usize] < 2)
            .unwrap_or(n);
        // A collection too small for a band's ranks gets that band from
        // the same relative position instead.
        let cut = |rank: usize, share: usize| rank.min(n * share / 100);
        let slice =
            |from: usize, to: usize| order[from.min(n - 1)..to.max(from + 1).min(n)].to_vec();
        let mid = slice(cut(32, 10), cut(160, 40));
        let mut in_mid = vec![false; corpus.df.len()];
        for &id in &mid {
            in_mid[id as usize] = true;
        }
        Bands {
            hot: slice(0, cut(16, 5)),
            mid,
            rare: slice(cut(512, 60), rare_end),
            in_mid,
        }
    }
}

fn some2(a: &str, b: &str, preds: &str) -> String {
    format!("SOME p1 SOME p2 (p1 HAS '{a}' AND p2 HAS '{b}' AND {preds})")
}

/// `n` distinct queries, templates interleaved.
pub fn build_pool(corpus: &Corpus, n: usize, rng: &mut Rng) -> Vec<PoolQuery> {
    let bands = Bands::of(corpus);
    let name = |id: u32| corpus.token_name(id);
    let from = |band: &[u32], rng: &mut Rng| band[rng.below(band.len())];
    // Two different tokens `gap` apart in one document — a phrase or a
    // window known to match somewhere — both accepted by `keep`.
    let cooccurring = |gaps: std::ops::Range<usize>, keep: &dyn Fn(u32) -> bool, rng: &mut Rng| {
        for _ in 0..100_000 {
            let doc = &corpus.tokens[rng.below(corpus.tokens.len())];
            let gap = gaps.start + rng.below(gaps.len());
            if doc.len() <= gap {
                continue;
            }
            let i = rng.below(doc.len() - gap);
            let (a, b) = (doc[i], doc[i + gap]);
            if a != b && keep(a) && keep(b) {
                return (a, b, gap);
            }
        }
        panic!("no co-occurring token pair {gaps:?} apart in this collection");
    };
    let any = |_: u32| true;
    let mid = |id: u32| bands.in_mid[id as usize];
    let mut seen = std::collections::BTreeSet::new();
    let mut pool = Vec::with_capacity(n);
    let mut attempts = 0;
    while pool.len() < n {
        attempts += 1;
        assert!(
            attempts < n * 50,
            "cannot draw {n} distinct queries from this collection"
        );
        let template = Template::ALL[pool.len() % Template::ALL.len()];
        let (request, oracle_text) = match template {
            Template::BoolAnd2 => {
                let q = format!(
                    "'{}' AND '{}'",
                    name(from(&bands.mid, rng)),
                    name(from(
                        if rng.chance(0.5) {
                            &bands.hot
                        } else {
                            &bands.mid
                        },
                        rng
                    ))
                );
                (Request::search(&q), Some(q))
            }
            Template::BoolAnd3Not => {
                let q = format!(
                    "'{}' AND '{}' AND NOT '{}'",
                    name(from(&bands.hot, rng)),
                    name(from(&bands.mid, rng)),
                    name(from(&bands.mid, rng))
                );
                (Request::search(&q), Some(q))
            }
            Template::TopK10 | Template::TopK100 => {
                let q = format!(
                    "'{}' OR '{}' OR '{}'",
                    name(from(&bands.hot, rng)),
                    name(from(&bands.mid, rng)),
                    name(from(&bands.rare, rng))
                );
                let k = if template == Template::TopK10 {
                    10
                } else {
                    100
                };
                (top_k_request(&q, k), None)
            }
            Template::Phrase => {
                let (a, b, _) = cooccurring(1..2, &any, rng);
                let q = some2(&name(a), &name(b), "ordered(p1,p2) AND distance(p1,p2,0)");
                (Request::search(&q), Some(q))
            }
            Template::Near => {
                let (a, b, _) = cooccurring(1..5, &any, rng);
                let (a, b) = (name(a), name(b));
                // Gap ≤ 8 either way is at most 7 intervening tokens.
                let oracle = some2(&a, &b, "distance(p1,p2,7)");
                (Request::near(&a, &b, 8, false, 10), Some(oracle))
            }
            Template::PpredFallback => {
                let (a, b) = (name(from(&bands.mid, rng)), name(from(&bands.hot, rng)));
                let q = if rng.chance(0.5) {
                    some2(&a, &b, "samepara(p1,p2)")
                } else {
                    some2(&a, &b, "distance(p1,p2,40)")
                };
                (Request::search(&q), Some(q))
            }
            Template::Npred => {
                // Seven or more apart somewhere, so the negation has a
                // witness and the answer is not trivially empty.
                let (a, b, _) = cooccurring(7..15, &mid, rng);
                let q = some2(&name(a), &name(b), "not_distance(p1,p2,5)");
                (Request::search(&q), Some(q))
            }
            Template::Comp => {
                let (a, b, gap) = cooccurring(1..5, &mid, rng);
                // `exact_gap` counts the tokens in between.
                let q = some2(&name(a), &name(b), &format!("exact_gap(p1,p2,{})", gap - 1));
                (Request::search(&q), Some(q))
            }
        };
        if seen.insert(format!("{request:?}")) {
            pool.push(PoolQuery {
                template,
                request,
                oracle_text,
            });
        }
    }
    // Popularity rank = pool position. Every run of nine ranks holds each
    // template once, in an order the seed picks: cost says nothing about
    // popularity, yet every template gets the same share of the traffic
    // whatever the seed.
    for block in pool.chunks_mut(Template::ALL.len()) {
        rng.shuffle(block);
    }
    pool
}

/// A client's request stream: pool indices, popularity Zipf–Mandelbrot
/// (exponent 1, the given offset) over the pool's order.
pub fn request_stream(pool_len: usize, len: usize, offset: f64, rng: &mut Rng) -> Vec<u32> {
    let zipf = Zipf::new(pool_len, 1.0, offset);
    (0..len).map(|_| zipf.sample(rng) as u32).collect()
}

/// The paper's series (Section 6.2): which predicates, which engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Series {
    Bool,
    PpredPos,
    NpredPos,
    NpredNeg,
    CompPos,
    CompNeg,
}

impl Series {
    pub const ALL: [Series; 6] = [
        Series::Bool,
        Series::PpredPos,
        Series::NpredPos,
        Series::NpredNeg,
        Series::CompPos,
        Series::CompNeg,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Series::Bool => "bool",
            Series::PpredPos => "ppred-pos",
            Series::NpredPos => "npred-pos",
            Series::NpredNeg => "npred-neg",
            Series::CompPos => "comp-pos",
            Series::CompNeg => "comp-neg",
        }
    }

    pub fn engine(self) -> Forced {
        match self {
            Series::Bool => Forced::Bool,
            Series::PpredPos => Forced::Ppred,
            Series::NpredPos | Series::NpredNeg => Forced::Npred,
            Series::CompPos | Series::CompNeg => Forced::Comp,
        }
    }

    fn negative(self) -> bool {
        matches!(self, Series::NpredNeg | Series::CompNeg)
    }
}

pub const LADDER_TOKS: [usize; 3] = [2, 3, 4];

#[derive(Clone, Debug)]
pub struct LadderQuery {
    pub series: Series,
    pub toks: usize,
    pub text: String,
    /// `exec.ladder.<series>_t<toks>`: span name, and with `_us` appended
    /// the per-layer metric.
    pub span: &'static str,
}

/// Index of a series × `toks_Q` point in [`ladder_queries`] order.
pub fn ladder_index(ladder: &[LadderQuery], series: Series, toks: usize) -> usize {
    ladder
        .iter()
        .position(|q| q.series == series && q.toks == toks)
        .expect("ladder covers every series at every toks")
}

/// One query per series × `toks_Q`, `preds_Q = 2`: a distance and an order
/// predicate chained over adjacent variables, negated for the NEG series
/// ("the negation of the positive predicates", as the paper built them).
/// The predicates are fixed rather than drawn from the seed so that the
/// class ordering the workload asserts does not hinge on a lucky draw.
pub fn ladder_queries(tokens: &[String]) -> Vec<LadderQuery> {
    let mut out = Vec::new();
    for series in Series::ALL {
        for toks in LADDER_TOKS {
            assert!(tokens.len() >= toks, "ladder needs {toks} tokens");
            let text = if series == Series::Bool {
                tokens[..toks]
                    .iter()
                    .map(|t| format!("'{t}'"))
                    .collect::<Vec<_>>()
                    .join(" AND ")
            } else {
                let not = if series.negative() { "not_" } else { "" };
                let mut body: Vec<String> = (0..toks)
                    .map(|i| format!("p{i} HAS '{}'", tokens[i]))
                    .collect();
                for k in 0..2 {
                    let a = k % (toks - 1);
                    body.push(if k == 0 {
                        format!("{not}distance(p{a},p{},20)", a + 1)
                    } else {
                        format!("{not}ordered(p{a},p{})", a + 1)
                    });
                }
                (0..toks)
                    .rev()
                    .fold(body.join(" AND "), |q, i| format!("SOME p{i} ({q})"))
            };
            // Span names are `&'static str` so that opening a span never
            // allocates; these eighteen are made once per process.
            let span = Box::leak(format!("exec.ladder.{}_t{toks}", series.name()).into_boxed_str());
            out.push(LadderQuery {
                series,
                toks,
                text,
                span,
            });
        }
    }
    out
}

/// Ladder tokens for a collection: its planted tokens when it has them,
/// else the four tokens whose document frequency is nearest 40 % — the
/// same selectivity the planted ones have.
pub fn ladder_tokens(corpus: &Corpus) -> Vec<String> {
    let planted = corpus.planted_names();
    if planted.len() >= 4 {
        return planted;
    }
    let target = 0.4 * corpus.texts.len() as f64;
    let mut ids = corpus.by_frequency();
    ids.sort_by(|&a, &b| {
        let da = (f64::from(corpus.df[a as usize]) - target).abs();
        let db = (f64::from(corpus.df[b as usize]) - target).abs();
        da.total_cmp(&db).then(a.cmp(&b))
    });
    ids.iter()
        .take(4)
        .map(|&id| corpus.token_name(id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes::Sizes;

    fn small() -> Corpus {
        let mut shape = Sizes::smoke().zipf;
        shape.docs = 300;
        Corpus::generate(&shape, &mut Rng::new(2))
    }

    #[test]
    fn pool_is_distinct_deterministic_and_covers_every_template() {
        let corpus = small();
        let a = build_pool(&corpus, 180, &mut Rng::new(5));
        let b = build_pool(&corpus, 180, &mut Rng::new(5));
        assert_eq!(
            a.iter()
                .map(|q| format!("{:?}", q.request))
                .collect::<Vec<_>>(),
            b.iter()
                .map(|q| format!("{:?}", q.request))
                .collect::<Vec<_>>()
        );
        let distinct: std::collections::BTreeSet<String> =
            a.iter().map(|q| format!("{:?}", q.request)).collect();
        assert_eq!(distinct.len(), 180);
        for t in Template::ALL {
            assert_eq!(
                a.iter().filter(|q| q.template == t).count(),
                20,
                "{}",
                t.name()
            );
        }
    }

    #[test]
    fn streams_favour_low_ranks() {
        let s = request_stream(400, 20_000, 10.0, &mut Rng::new(1));
        let head = s.iter().filter(|&&i| i < 40).count();
        let tail = s.iter().filter(|&&i| i >= 360).count();
        assert!(head > 4 * tail, "{head} vs {tail}");
        assert!(s.iter().all(|&i| i < 400));
    }

    #[test]
    fn ladder_has_eighteen_queries_with_chained_predicates() {
        let tokens: Vec<String> = (0..5).map(|i| format!("q{i}")).collect();
        let q = ladder_queries(&tokens);
        assert_eq!(q.len(), 18);
        assert_eq!(q[1].text, "'q0' AND 'q1' AND 'q2'");
        let neg3 = q
            .iter()
            .find(|q| q.series == Series::CompNeg && q.toks == 3)
            .unwrap();
        assert_eq!(
            neg3.text,
            "SOME p0 (SOME p1 (SOME p2 (p0 HAS 'q0' AND p1 HAS 'q1' AND p2 HAS 'q2' \
             AND not_distance(p0,p1,20) AND not_ordered(p1,p2))))"
        );
    }

    #[test]
    fn ladder_tokens_fall_back_to_document_frequency() {
        let corpus = small();
        let tokens = ladder_tokens(&corpus);
        assert_eq!(tokens.len(), 4);
        assert!(tokens.iter().all(|t| t.starts_with('t')));
    }
}
