//! Plan rewrites for set-semantics evaluation.
//!
//! Lemma 2's translation stacks every selection on the full join it
//! filters and turns every `∃` into a projection above it, so a node builds
//! `pos_per_cnode^toks_Q` rows even when each predicate binds two columns
//! and the query keeps none. [`push_down`] moves `σ` and `π` below `⋈` so a
//! node builds only the rows a later operator reads. Every rule is an
//! identity on each node's *set* of rows, and keeps rows canonical (`σ`
//! preserves order, a join of canonical inputs emits canonical rows), so
//! the unscored evaluator answers exactly as before.
//!
//! The rules do not hold for scores: `σ` below `⋈` changes the group sizes
//! a [`Scorer`](crate::Scorer)'s `join` reads, and `π` below `⋈` changes
//! what its `project` folds. Ranking evaluates the plan as translated.

use crate::expr::AlgExpr;
use ftsl_predicates::{PredicateId, PredicateRegistry};

/// Rewrite `expr` for set-semantics evaluation, bottom-up:
///
/// * `σ_p(L ⋈ R)` → `σ_p(L) ⋈ R` when every column `p` reads is one of
///   `L`'s, or `L ⋈ σ_p'(R)` (columns shifted) when every one is `R`'s;
///   otherwise it stays. Selections commute, so a `σ` may sink past one
///   that stayed.
/// * `π_c(π_d(E))` → `π_{d∘c}(E)`, and an identity `π` is dropped.
/// * `π_c(L ⋈ R)` → `π_cL(L) ⋈ π_cR(R)` when `c` lists `L`'s columns
///   before `R`'s. `π_∅(L ⋈ R)` becomes a semi-join: a side no later
///   operator reads contributes one arity-0 row per node.
/// * `π_c(A ∪ B)` → `π_c(A) ∪ π_c(B)`.
///
/// The result has `expr`'s arity and answers the same rows at every node.
/// A malformed expression is returned unchanged, for evaluation to refuse.
pub fn push_down(expr: &AlgExpr, registry: &PredicateRegistry) -> AlgExpr {
    if expr.arity(registry).is_err() {
        return expr.clone();
    }
    PushDown { registry }.rewrite(expr)
}

/// A selection being sunk: `σ_pred(cols, consts)`.
struct Sel {
    pred: PredicateId,
    cols: Vec<usize>,
    consts: Vec<i64>,
}

impl Sel {
    fn over(self, input: AlgExpr) -> AlgExpr {
        AlgExpr::Select {
            input: Box::new(input),
            pred: self.pred,
            cols: self.cols,
            consts: self.consts,
        }
    }
}

struct PushDown<'r> {
    registry: &'r PredicateRegistry,
}

impl PushDown<'_> {
    fn arity(&self, e: &AlgExpr) -> usize {
        e.arity(self.registry)
            .expect("push_down checked the whole tree")
    }

    /// `e` rewritten, built as it is read: no copy of `e` first.
    fn rewrite(&self, e: &AlgExpr) -> AlgExpr {
        let sub = |e: &AlgExpr| Box::new(self.rewrite(e));
        match e {
            AlgExpr::Select {
                input,
                pred,
                cols,
                consts,
            } => {
                let sel = Sel {
                    pred: *pred,
                    cols: cols.clone(),
                    consts: consts.clone(),
                };
                self.select(self.rewrite(input), sel)
            }
            AlgExpr::Project(input, cols) => self.project(self.rewrite(input), cols.clone()),
            AlgExpr::Join(a, b) => AlgExpr::Join(sub(a), sub(b)),
            AlgExpr::Union(a, b) => AlgExpr::Union(sub(a), sub(b)),
            AlgExpr::Intersect(a, b) => AlgExpr::Intersect(sub(a), sub(b)),
            AlgExpr::Difference(a, b) => AlgExpr::Difference(sub(a), sub(b)),
            leaf => leaf.clone(),
        }
    }

    /// `σ` over `input`, which is already rewritten, placed as low as it
    /// goes.
    fn select(&self, input: AlgExpr, sel: Sel) -> AlgExpr {
        match self.sink(input, sel) {
            Ok(sunk) => sunk,
            Err((input, sel)) => sel.over(input),
        }
    }

    /// `input` with `sel` moved below its top operator, or both back when
    /// it cannot move.
    fn sink(&self, input: AlgExpr, sel: Sel) -> Result<AlgExpr, (AlgExpr, Sel)> {
        match input {
            AlgExpr::Join(l, r) => {
                let left = self.arity(&l);
                if sel.cols.iter().all(|&c| c < left) {
                    Ok(AlgExpr::Join(Box::new(self.select(*l, sel)), r))
                } else if sel.cols.iter().all(|&c| c >= left) {
                    let cols = sel.cols.iter().map(|&c| c - left).collect();
                    let sel = Sel { cols, ..sel };
                    Ok(AlgExpr::Join(l, Box::new(self.select(*r, sel))))
                } else {
                    Err((AlgExpr::Join(l, r), sel))
                }
            }
            AlgExpr::Select {
                input,
                pred,
                cols,
                consts,
            } => {
                let stayed = Sel { pred, cols, consts };
                match self.sink(*input, sel) {
                    Ok(sunk) => Ok(stayed.over(sunk)),
                    Err((input, sel)) => Err((stayed.over(input), sel)),
                }
            }
            other => Err((other, sel)),
        }
    }

    /// `π_cols` over `input`, which is already rewritten, pushed as low as
    /// it goes.
    fn project(&self, input: AlgExpr, mut cols: Vec<usize>) -> AlgExpr {
        if cols.iter().copied().eq(0..self.arity(&input)) {
            return input;
        }
        match input {
            AlgExpr::Project(inner, d) => {
                self.project(*inner, cols.iter().map(|&c| d[c]).collect())
            }
            AlgExpr::Join(l, r) => {
                let left = self.arity(&l);
                let split = cols.iter().take_while(|&&c| c < left).count();
                if cols[split..].iter().all(|&c| c >= left) {
                    let right = cols.split_off(split).iter().map(|&c| c - left).collect();
                    AlgExpr::Join(
                        Box::new(self.project(*l, cols)),
                        Box::new(self.project(*r, right)),
                    )
                } else {
                    AlgExpr::Project(Box::new(AlgExpr::Join(l, r)), cols)
                }
            }
            AlgExpr::Union(a, b) => AlgExpr::Union(
                Box::new(self.project(*a, cols.clone())),
                Box::new(self.project(*b, cols)),
            ),
            other => AlgExpr::Project(Box::new(other), cols),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::AlgebraEvaluator;
    use crate::expr::ops::*;
    use crate::from_calculus::query_to_algebra;
    use ftsl_calculus::build::{and_all, exists, has_token, pred};
    use ftsl_calculus::CalcQuery;
    use ftsl_index::IndexBuilder;
    use ftsl_model::Corpus;

    #[test]
    fn projections_compose_and_identities_drop() {
        let reg = PredicateRegistry::with_builtins();
        let ab = join(token("a"), token("b"));
        let swapped = project(project(ab.clone(), &[1, 0]), &[1, 0]);
        assert_eq!(push_down(&swapped, &reg), join(token("a"), token("b")));
        // π_[1] over a join reads only the right side.
        let e = project(project(ab, &[1, 0]), &[0]);
        assert_eq!(
            push_down(&e, &reg),
            join(project_nodes(token("a")), token("b"))
        );
    }

    #[test]
    fn interleaved_columns_and_spanning_selects_stay() {
        let reg = PredicateRegistry::with_builtins();
        let distance = reg.lookup("distance").unwrap();
        let abc = join(join(token("a"), token("b")), token("c"));
        let interleaved = project(abc.clone(), &[2, 0]);
        assert_eq!(push_down(&interleaved, &reg), interleaved);
        let spanning = select(abc, distance, &[0, 2], &[3]);
        assert_eq!(push_down(&spanning, &reg), spanning);
    }

    #[test]
    fn projections_distribute_over_union() {
        let reg = PredicateRegistry::with_builtins();
        let e = project_nodes(union(
            join(token("a"), token("b")),
            join(token("c"), AlgExpr::HasPos),
        ));
        let want = union(
            join(project_nodes(token("a")), project_nodes(token("b"))),
            join(project_nodes(token("c")), project_nodes(AlgExpr::HasPos)),
        );
        assert_eq!(push_down(&e, &reg), want);
    }

    #[test]
    fn a_malformed_tree_is_left_for_evaluation_to_refuse() {
        let reg = PredicateRegistry::with_builtins();
        let bad = project(join(token("a"), token("b")), &[5]);
        assert_eq!(push_down(&bad, &reg), bad);
    }

    /// The `class_ladder` COMP shape at four tokens:
    /// `∃p0..p3 (p0 HAS q0 ∧ … ∧ p3 HAS q3 ∧ not_distance(p0,p1,1) ∧
    /// not_ordered(p1,p2))`.
    fn ladder(reg: &PredicateRegistry) -> AlgExpr {
        let not_distance = reg.lookup("not_distance").unwrap();
        let not_ordered = reg.lookup("not_ordered").unwrap();
        let mut body: Vec<_> = (0..4).map(|i| has_token(i, &format!("q{i}"))).collect();
        body.push(pred(not_distance, &[0, 1], &[1]));
        body.push(pred(not_ordered, &[1, 2], &[]));
        let closed = (0..4).rev().fold(and_all(body), |e, v| exists(v, e));
        query_to_algebra(&CalcQuery::new(closed), reg).expect("translates")
    }

    #[test]
    fn the_ladder_plan_filters_below_the_joins_and_semi_joins_the_last_leaf() {
        let reg = PredicateRegistry::with_builtins();
        let plan = push_down(&ladder(&reg), &reg);
        let tree = plan.render_tree(&reg);
        let want = "\
join
  project (CNode, [])
    select not_ordered([1, 2], [])
      join
        select not_distance([0, 1], [1])
          join
            scan (\"q0\")
            scan (\"q1\")
        scan (\"q2\")
  project (CNode, [])
    scan (\"q3\")
";
        assert_eq!(tree, want);
        assert_eq!(push_down(&plan, &reg), plan, "idempotent");
    }

    #[test]
    fn the_ladder_node_builds_the_rows_the_rewrite_leaves() {
        // Two positions of each token. Node 0 puts both q2's after both
        // q1's, so `not_ordered` empties it; node 1 puts them first, so it
        // answers.
        let corpus = Corpus::from_texts(&["q0 q0 q3 q3 q1 q1 q2 q2", "q2 q2 q0 q1 q3 q0 q1 q3"]);
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();
        let alg = ladder(&reg);
        let mut ev = AlgebraEvaluator::new(&corpus, &index, &reg);
        let got = ev.eval(&alg).expect("evaluates").distinct_nodes();
        assert_eq!(got, vec![ftsl_model::NodeId(1)]);

        // Node 0: leaves q0, q1, q2 (2 rows each); q0 ⋈ q1 (4); every
        // pair has two or more tokens between, so not_distance keeps all
        // (4); ⋈ q2 (8); not_ordered keeps none, and π_∅ of nothing is
        // nothing. q3 is never read: the last join's left input is empty.
        let node0 = 6 + 4 + 4 + 8;
        // Node 1: q2 at 0, 1; q0 at 2, 5; q1 at 3, 6; q3 at 4, 7. Leaves
        // q0, q1, q2 (6); q0 ⋈ q1 (4); not_distance keeps only (2, 6)
        // (1); ⋈ q2 (2); both q2's come first, so not_ordered keeps both
        // (2); π_∅ (1); q3 (2); π_∅ (1); the last join (1).
        let node1 = 6 + 4 + 1 + 2 + 2 + 1 + 2 + 1 + 1;
        assert_eq!(ev.counters().tuples, node0 + node1);

        let mut unrewritten = AlgebraEvaluator::new(&corpus, &index, &reg);
        unrewritten.relation(&alg).expect("evaluates");
        assert!(
            ev.counters().tuples < unrewritten.counters().tuples,
            "{} vs {}",
            ev.counters().tuples,
            unrewritten.counters().tuples
        );
    }
}
