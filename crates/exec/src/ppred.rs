//! The streaming engines: PPRED (Section 5.5) and NPRED (Section 5.6) as
//! one plan.
//!
//! PPRED evaluates a positive-predicate query in a *single scan* over its
//! token inverted lists. NPRED (Algorithms 6–7) runs that same scan once
//! per ordering of the negative-predicate variables and unions the
//! matches; with no negative predicate it is exactly one PPRED scan. So
//! both engines compile to one `StreamPlan`: the [`crate::plan`] lowering
//! and, per ordering, each negative selection's argument order (its
//! arguments' threads advance in their variables' rank order).
//!
//! A segment binds the prepared tree as it is: one swap decision per join
//! ([`crate::plan::order_joins_by_selectivity`]), which the cursor builder
//! reads as it walks the tree, and under either engine the word-pair walk
//! for each closed proximity core ([`crate::pairscan`]) this segment's
//! pair index covers.
//!
//! The paper presents NPRED with `toks_Q!` threads — one per total order
//! of the query's inverted-list cursors — and notes that "our
//! implementation generates only the necessary partial orders". Both are
//! implemented:
//!
//! * **partial orders** (default): permute only the variables that occur in
//!   negative predicates; positive-only queries run a single scan;
//! * **full permutations**: permute every scan variable — the presented
//!   algorithm, used by the benchmarks to reproduce the paper's NPRED-POS
//!   overhead relative to PPRED-POS.
//!
//! The per-ordering "threads" run one after another on the caller's
//! thread; their counters are summed.

use crate::build::{build_cursor, CursorCtx};
use crate::engine::EngineUsed;
use crate::error::PlanError;
use crate::pairscan::PairPath;
use crate::plan::{build_plan, order_joins_by_selectivity, Plan};
use ftsl_calculus::ast::{QueryExpr, VarId};
use ftsl_index::{AccessCounters, InvertedIndex};
use ftsl_model::{Corpus, NodeId};
use ftsl_predicates::{AdvanceMode, PredicateRegistry};

/// Evaluate a (closed) calculus expression with the PPRED streaming engine
/// on one index, under an explicit [`AdvanceMode`]. Every query the
/// executor runs binds [`AdvanceMode::Aggressive`]; this is the only way to
/// run [`AdvanceMode::Conservative`], the differential oracle for the
/// aggressive skips.
///
/// Fails with a [`PlanError`] if the query is not in the PPRED fragment
/// (negative/general predicates, open negation, `EVERY`, mismatched `OR`).
pub fn run_ppred(
    expr: &QueryExpr,
    corpus: &Corpus,
    index: &InvertedIndex,
    registry: &PredicateRegistry,
    mode: AdvanceMode,
) -> Result<(Vec<NodeId>, AccessCounters), PlanError> {
    let plan = StreamPlan::prepare(expr, registry, EngineUsed::Ppred, false)?;
    Ok(plan.bind(corpus, index, registry, mode, None))
}

/// The streaming engines' shape half, compiled once per query: the plan
/// and, per variable ordering its scans run under, each negative
/// selection's argument order (`[[]]`, one plain scan, for PPRED).
/// [`Self::bind`] runs it on one segment.
#[derive(Clone, Debug)]
pub(crate) struct StreamPlan {
    pub(crate) plan: Plan,
    orderings: Vec<Vec<Vec<usize>>>,
}

impl StreamPlan {
    /// Plan `expr` for `engine`: NPRED admits negative predicates and
    /// enumerates its orderings (every permutation of the scan variables
    /// when `full_permutations` is set, otherwise of the negative-predicate
    /// variables only); any other engine plans PPRED. Fails with a
    /// [`PlanError`] if the query is outside the engine's fragment.
    pub(crate) fn prepare(
        expr: &QueryExpr,
        registry: &PredicateRegistry,
        engine: EngineUsed,
        full_permutations: bool,
    ) -> Result<Self, PlanError> {
        let npred = engine == EngineUsed::Npred;
        let plan = build_plan(expr, registry, npred)?;
        let vars = if npred {
            ordering_vars(&plan, full_permutations)
        } else {
            Vec::new()
        };
        if ordering_count(vars.len()).is_none_or(|n| n > MAX_NPRED_ORDERINGS) {
            return Err(PlanError::TooManyOrderings {
                variables: vars.len(),
            });
        }
        let orderings = permutations(&vars)
            .iter()
            .map(|ordering| arg_orders(&plan, ordering))
            .collect();
        Ok(StreamPlan { plan, orderings })
    }

    /// Run the plan on one segment: one cursor scan per ordering, each
    /// join driven from its rarer side by this segment's list lengths.
    /// Counters are summed; the matches of several orderings are sorted
    /// and deduplicated. `paths`, when given, collects the path each leaf
    /// core takes on this segment.
    pub(crate) fn bind(
        &self,
        corpus: &Corpus,
        index: &InvertedIndex,
        registry: &PredicateRegistry,
        mode: AdvanceMode,
        mut paths: Option<&mut Vec<PairPath>>,
    ) -> (Vec<NodeId>, AccessCounters) {
        let swaps = order_joins_by_selectivity(&self.plan.root, corpus, index);
        let ctx = CursorCtx {
            corpus,
            index,
            registry,
            mode,
        };
        let mut nodes = Vec::new();
        let mut counters = AccessCounters::new();
        for arg_orders in &self.orderings {
            // Every ordering binds the same leaves: the first reports them.
            let mut cursor = build_cursor(&self.plan, &swaps, &ctx, arg_orders, paths.take());
            while let Some(n) = cursor.advance_node() {
                nodes.push(n);
            }
            counters += cursor.counters();
        }
        if self.orderings.len() > 1 {
            nodes.sort_unstable();
            nodes.dedup();
        }
        (nodes, counters)
    }
}

/// Each negative selection's argument indices under `ordering`, in the
/// plan's depth-first order: sorted by their variables' ranks, an unranked
/// variable last.
fn arg_orders(plan: &Plan, ordering: &[VarId]) -> Vec<Vec<usize>> {
    let rank = |v: &VarId| ordering.iter().position(|u| u == v).unwrap_or(usize::MAX);
    let order = |vars: &Vec<VarId>| {
        let mut order: Vec<usize> = (0..vars.len()).collect();
        order.sort_by_key(|&i| rank(&vars[i]));
        order
    };
    plan.negative_args.iter().map(order).collect()
}

/// Most orderings an NPRED plan runs: 7!, the orderings of seven
/// variables. Each ordering is one scan, so `n` variables cost `n!` scans,
/// and the orderings alone outgrow memory soon past the cap (12 variables
/// have 479 001 600). A query over more refuses NPRED; Auto then runs it
/// as COMP, which is complete.
pub const MAX_NPRED_ORDERINGS: usize = 5_040;

/// The orderings of `vars` variables, `vars!`; `None` past `usize`.
fn ordering_count(vars: usize) -> Option<usize> {
    (1..=vars).try_fold(1usize, |count, k| count.checked_mul(k))
}

/// The variables NPRED's orderings permute: every scan variable under
/// full permutations, otherwise those of the negative predicates.
fn ordering_vars(plan: &Plan, full: bool) -> Vec<VarId> {
    let mut vars = if full {
        plan.scan_vars.clone()
    } else {
        plan.negative_args.concat()
    };
    vars.sort_unstable();
    vars.dedup();
    vars
}

/// All permutations of `vars` (a single empty ordering for no vars).
fn permutations(vars: &[VarId]) -> Vec<Vec<VarId>> {
    let mut out = Vec::new();
    let mut work = vars.to_vec();
    permute_rec(&mut work, 0, &mut out);
    out
}

fn permute_rec(work: &mut Vec<VarId>, k: usize, out: &mut Vec<Vec<VarId>>) {
    if k == work.len() {
        out.push(work.clone());
        return;
    }
    for i in k..work.len() {
        work.swap(k, i);
        permute_rec(work, k + 1, out);
        work.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineKind, ExecOptions};
    use crate::snapshot::run_on_texts;
    use ftsl_index::IndexBuilder;
    use ftsl_lang::{lower, parse, Mode};

    fn run(query: &str, texts: &[&str]) -> Vec<u32> {
        let corpus = Corpus::from_texts(texts);
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();
        let surface = parse(query, Mode::Comp).unwrap();
        let expr = lower(&surface, &reg).unwrap();
        let (nodes, _) = run_ppred(&expr, &corpus, &index, &reg, AdvanceMode::Aggressive).unwrap();
        nodes.into_iter().map(|n| n.0).collect()
    }

    fn run_npred(query: &str, texts: &[&str], options: ExecOptions) -> Vec<u32> {
        let out = run_on_texts(texts, query, EngineKind::Npred, options).unwrap();
        out.nodes.into_iter().map(|n| n.0).collect()
    }

    #[test]
    fn conjunction_without_predicates() {
        let r = run(
            "'test' AND 'usability'",
            &["test usability", "test", "usability test"],
        );
        assert_eq!(r, vec![0, 2]);
    }

    #[test]
    fn ordered_and_distance_combination() {
        let r = run(
            "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND ordered(p1,p2) AND distance(p1,p2,1))",
            &[
                "a b",       // ordered, adjacent
                "b a",       // wrong order
                "a x x x b", // too far
                "b x a b",   // a before final b, distance 1
            ],
        );
        assert_eq!(r, vec![0, 3]);
    }

    #[test]
    fn and_not_closed_subquery() {
        let r = run(
            "'test' AND NOT 'usability'",
            &["test usability", "test alone", "usability", "test"],
        );
        assert_eq!(r, vec![1, 3]);
    }

    #[test]
    fn union_of_token_alternatives() {
        let r = run(
            "SOME p1 SOME p2 ((p1 HAS 'a' OR p1 HAS 'b') AND p2 HAS 'c' AND distance(p1,p2,0))",
            &["a c", "b c", "a x c", "c"],
        );
        assert_eq!(r, vec![0, 1]);
    }

    #[test]
    fn samepara_requires_structured_positions() {
        let r = run(
            "SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'beta' AND samepara(p1,p2))",
            &["alpha beta", "alpha here.\n\nbeta there", "nothing"],
        );
        assert_eq!(r, vec![0]);
    }

    #[test]
    fn shared_variable_conjunction() {
        // p1 must hold both tokens at the same position: impossible for
        // different tokens, trivial for the same token.
        let r = run("SOME p1 (p1 HAS 'a' AND p1 HAS 'b')", &["a b", "ab"]);
        assert!(r.is_empty());
        let r = run("SOME p1 (p1 HAS 'a' AND p1 HAS 'a')", &["a", "b"]);
        assert_eq!(r, vec![0]);
    }

    #[test]
    fn negative_predicate_is_rejected() {
        let corpus = Corpus::from_texts(&["a b"]);
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();
        let surface = parse(
            "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND not_distance(p1,p2,3))",
            Mode::Comp,
        )
        .unwrap();
        let expr = lower(&surface, &reg).unwrap();
        let err = run_ppred(&expr, &corpus, &index, &reg, AdvanceMode::Aggressive);
        assert!(matches!(err, Err(PlanError::NegativePredicate(_))));
    }

    #[test]
    fn conservative_and_aggressive_modes_agree() {
        let corpus =
            Corpus::from_texts(&["a x x b x x a b", "b x x x x x x x x x a", "a b a b a b"]);
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();
        let surface = parse(
            "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND distance(p1,p2,2) AND ordered(p1,p2))",
            Mode::Comp,
        )
        .unwrap();
        let expr = lower(&surface, &reg).unwrap();
        let (fast, _) = run_ppred(&expr, &corpus, &index, &reg, AdvanceMode::Aggressive).unwrap();
        let (slow, _) = run_ppred(&expr, &corpus, &index, &reg, AdvanceMode::Conservative).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn not_distance_section_5_6_2_example() {
        // Find nodes where "assignment" and "judge" are at least 40
        // positions apart (more than 40 intervening tokens).
        let filler = ["x"; 45].join(" ");
        let near = format!("assignment {} judge", ["x"; 5].join(" "));
        let far = format!("assignment {filler} judge");
        let reversed = format!("judge {filler} assignment");
        let r = run_npred(
            "SOME p1 SOME p2 (p1 HAS 'assignment' AND p2 HAS 'judge' AND not_distance(p1,p2,40))",
            &[&near, &far, &reversed],
            ExecOptions::default(),
        );
        assert_eq!(r, vec![1, 2]);
    }

    #[test]
    fn diffpos_two_occurrences() {
        // Paper Section 2.2.1: two occurrences of 'test'.
        let r = run_npred(
            "SOME p1 SOME p2 (p1 HAS 'test' AND p2 HAS 'test' AND diffpos(p1,p2))",
            &["test", "test test", "test x test", "none"],
            ExecOptions::default(),
        );
        assert_eq!(r, vec![1, 2]);
    }

    #[test]
    fn full_permutations_agree_with_partial_orders() {
        let texts = &[
            "a x x x x x x b c",
            "c b a",
            "a b c",
            "b x x x x x a x x x x c",
        ];
        let q = "SOME p1 SOME p2 SOME p3 (p1 HAS 'a' AND p2 HAS 'b' AND p3 HAS 'c' \
                 AND not_distance(p1,p2,3) AND ordered(p2,p3))";
        let partial = run_npred(q, texts, ExecOptions::default());
        let full = run_npred(
            q,
            texts,
            ExecOptions {
                npred_full_permutations: true,
                ..Default::default()
            },
        );
        assert_eq!(partial, full);
    }

    #[test]
    fn positive_queries_run_single_thread_with_partial_orders() {
        let q = "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND distance(p1,p2,1))";
        let r = run_npred(q, &["a b", "a x x b"], ExecOptions::default());
        assert_eq!(r, vec![0]);
    }

    #[test]
    fn mixed_positive_and_negative_predicates() {
        // a before b, but more than 2 intervening tokens.
        let q = "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND ordered(p1,p2) \
                 AND not_distance(p1,p2,2))";
        let r = run_npred(
            q,
            &[
                "a b",         // ordered but close
                "a x x x x b", // ordered and far
                "b x x x x a", // far but wrong order
            ],
            ExecOptions::default(),
        );
        assert_eq!(r, vec![1]);
    }

    #[test]
    fn permutation_count() {
        let vars: Vec<VarId> = (0..4).map(VarId).collect();
        assert_eq!(permutations(&vars).len(), 24);
        assert_eq!(permutations(&[]).len(), 1);
        for n in 0..=7 {
            let vars: Vec<VarId> = (0..n).map(VarId).collect();
            assert_eq!(ordering_count(vars.len()), Some(permutations(&vars).len()));
        }
        assert_eq!(ordering_count(7), Some(MAX_NPRED_ORDERINGS));
        assert_eq!(ordering_count(12), Some(479_001_600));
        assert_eq!(ordering_count(100), None);
    }
}
