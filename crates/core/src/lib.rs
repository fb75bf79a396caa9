//! # ftsl-core — the high-level engine facade
//!
//! One type, [`Ftsl`], ties the whole reproduction together: index a corpus
//! (and keep adding to or deleting from it), parse a query in any of the
//! paper's languages (BOOL / DIST / COMP), classify it in the Figure 3
//! hierarchy, evaluate it with the cheapest sound engine over a
//! point-in-time snapshot, and optionally rank results with the Section 3
//! scoring framework.
//!
//! ```
//! use ftsl_core::Ftsl;
//!
//! let engine = Ftsl::from_texts(&[
//!     "usability of a software measures how well the software supports users",
//!     "an efficient algorithm for task completion",
//! ]);
//! let hits = engine.search("'software' AND NOT 'efficient'").unwrap();
//! assert_eq!(hits.nodes.len(), 1);
//! ```

#![warn(missing_docs)]

mod engine;
pub mod error;

pub use engine::Ftsl;
pub use error::FtslError;
pub use ftsl_exec::snapshot::ExecScratch;
pub use ftsl_exec::{PairQuery, QueryOutput, ScoredOutput, ScoredPath};
pub use ftsl_index::LiveConfig;

/// The engine's former second name. Kept for `benchmark/src/sut.rs`, which
/// names it; to be dropped by the next `benchmark` issue.
pub type LiveFtsl = Ftsl;

/// Which scoring model ranks results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RankModel {
    /// Section 3.1: TF-IDF with score conservation.
    TfIdf,
    /// Section 3.2: probabilistic relational algebra.
    Pra,
}

/// Collect the string tokens a surface query mentions, in order and with
/// repeats: what the facade builds a query's TF-IDF weights and PRA idf
/// table from.
pub fn query_tokens(surface: &ftsl_lang::SurfaceQuery) -> Vec<String> {
    use ftsl_lang::{SurfaceQuery as S, TokenArg};
    fn walk(q: &S, out: &mut Vec<String>) {
        match q {
            S::Lit(t) => out.push(t.clone()),
            S::VarHas(_, t) => out.push(t.clone()),
            S::Dist(a, b, _) => {
                for arg in [a, b] {
                    if let TokenArg::Lit(t) = arg {
                        out.push(t.clone());
                    }
                }
            }
            S::Any | S::VarHasAny(_) | S::Pred { .. } => {}
            S::Not(x) => walk(x, out),
            S::And(x, y) | S::Or(x, y) => {
                walk(x, out);
                walk(y, out);
            }
            S::Some(_, x) | S::Every(_, x) => walk(x, out),
        }
    }
    let mut out = Vec::new();
    walk(surface, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsl_exec::engine::EngineUsed;

    fn engine() -> Ftsl {
        Ftsl::from_texts(&[
            "usability of a software measures how well the software supports users",
            "an efficient algorithm for task completion",
            "software task completion with efficient usability testing",
            "",
        ])
    }

    #[test]
    fn basic_search_dispatches_to_bool() {
        let e = engine();
        let r = e.search("'software' AND 'usability'").unwrap();
        assert_eq!(r.node_ids(), vec![0, 2]);
        assert_eq!(r.engine, EngineUsed::Bool);
    }

    #[test]
    fn comp_query_runs_streaming() {
        let e = engine();
        let r = e
            .search(
                "SOME p1 SOME p2 (p1 HAS 'task' AND p2 HAS 'completion' \
                 AND ordered(p1,p2) AND distance(p1,p2,0))",
            )
            .unwrap();
        assert_eq!(r.node_ids(), vec![1, 2]);
        assert_eq!(r.engine, EngineUsed::Ppred);
    }

    #[test]
    fn ranked_search_orders_by_score() {
        let e = engine();
        let r = e.search_ranked("'usability'", RankModel::TfIdf).unwrap();
        assert_eq!(r.hits.len(), 2);
        assert!(r.hits[0].1 >= r.hits[1].1);
        let r = e
            .search_ranked("'software' AND 'usability'", RankModel::Pra)
            .unwrap();
        assert!(!r.hits.is_empty());
        for (_, s) in &r.hits {
            assert!((0.0..=1.0).contains(s));
        }
    }

    #[test]
    fn explain_reports_class_engine_and_plan() {
        let e = engine();
        let text = e
            .explain(
                "SOME p1 SOME p2 (p1 HAS 'usability' AND p2 HAS 'software' AND samepara(p1,p2))",
            )
            .unwrap();
        assert!(text.contains("PPRED"));
        assert!(text.contains("select samepara"));
        let text = e.explain("EVERY p1 (p1 HAS 'software')").unwrap();
        assert!(text.contains("COMP"));
    }

    #[test]
    fn explain_shows_the_comp_plan_as_run() {
        // As translated, both selects sit above the four-way join and a
        // projection caps the tree. As run, they sink below the outer
        // join, and the fourth leaf joins as one row per node. The
        // `exact_gap` selection over two scans is a gap core, marked with
        // the word-pair filter it runs under where its segment covers it.
        let e = engine();
        let query = "SOME p0 SOME p1 SOME p2 SOME p3 (p0 HAS 'software' \
                     AND p1 HAS 'usability' AND p2 HAS 'task' AND p3 HAS 'completion' \
                     AND exact_gap(p0,p1,2) AND not_ordered(p1,p2))";
        let text = e.explain(query).unwrap();
        let plan = text.split_once("algebra:\n").expect("a COMP plan").1;
        assert_eq!(
            plan,
            "\
join
  project (CNode, [])
    select not_ordered([1, 2], [])
      join
        select exact_gap([0, 1], [2])  · pair filter 'software' ↔ 'usability' within 3
          join
            scan (\"software\")
            scan (\"usability\")
        scan (\"task\")
  project (CNode, [])
    scan (\"completion\")
"
        );
        // EXPLAIN ANALYZE prints the same tree after the profile.
        assert!(e.explain_analyze(query).unwrap().contains(plan));
    }

    #[test]
    fn top_k_streams_bool_queries_and_truncates_the_rest() {
        let e = engine();
        // Flat disjunction: streaming path, counters reported, and the hits
        // agree with exhaustive ranking (Theorem 2 ties both to classic).
        let streamed = e
            .search_top_k("'software' OR 'usability'", RankModel::TfIdf, 2)
            .unwrap();
        assert_eq!(
            streamed.counters.tuples, 0,
            "should take the streaming path"
        );
        assert_eq!(streamed.hits.len(), 2);
        let exhaustive = e
            .search_ranked("'software' OR 'usability'", RankModel::TfIdf)
            .unwrap();
        for (s, x) in streamed.hits.iter().zip(&exhaustive.hits) {
            assert_eq!(s.0, x.0);
            assert!((s.1 - x.1).abs() < 1e-9);
        }
        // Any other BOOL tree, under PRA too, is the exhaustive ranking
        // truncated: `NOT` ranks only the nodes it admits.
        let negated = "'software' AND NOT 'efficient'";
        let pra = e.search_top_k(negated, RankModel::Pra, 3).unwrap();
        assert!(pra.counters.tuples > 0, "ranked through the algebra");
        assert!(!pra.hits.is_empty());
        let mut ranked = e.search_ranked(negated, RankModel::Pra).unwrap().hits;
        ranked.truncate(3);
        assert_eq!(pra.hits, ranked);
        // COMP-shaped queries fall back to exhaustive rank-then-truncate.
        let comp = e
            .search_top_k("SOME p1 (p1 HAS 'software')", RankModel::TfIdf, 1)
            .unwrap();
        assert!(comp.counters.tuples > 0, "COMP shape cannot stream");
        assert_eq!(comp.hits.len(), 1);
    }

    #[test]
    fn parse_errors_surface_cleanly() {
        let e = engine();
        assert!(matches!(e.search("'unterminated"), Err(FtslError::Lang(_))));
        assert!(matches!(e.search("AND AND"), Err(FtslError::Lang(_))));
    }

    #[test]
    fn empty_corpus_is_fine() {
        let e = Ftsl::from_texts::<&str>(&[]);
        let r = e.search("'anything'").unwrap();
        assert!(r.nodes.is_empty());
    }
}
