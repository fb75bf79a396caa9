//! Streaming plans for the PPRED/NPRED engines.
//!
//! The planner lowers a calculus expression into a full-text algebra tree
//! ([`AlgExpr`]) that the engines run as cursors (Section 5.5.3's operator
//! trees, e.g. Figure 4). A closed `NOT` becomes Lemma 2's own form,
//! `L ⋈ (SearchContext − R)`: the nodes of `L` with no match in `R`
//! (Algorithm 5's anti-join, recognized by `as_filter`). A conjunction of
//! closed `NOT`s alone — a BOOL query's root or `OR`-branch `NOT` — has
//! `SearchContext` itself as `L`, the relation of every context node.
//!
//! The tree comes out in **node-level normal form**: unions on top, closed
//! `NOT` filters above union-free cores of scans, joins, selections and
//! projections. That keeps the paper's Algorithm 4/5 cursors sound —
//! `Union` and the anti-join only ever see node-level traffic — and puts
//! every predicate inside a union-free core, where the single-scan advance
//! strategy applies. The form holds by construction: the lowering returns
//! each subformula as a union tree of (core, filters) branches, and every
//! operator above it applies to each branch (`σ(U₁∪U₂)=σ(U₁)∪σ(U₂)`,
//! `J(U₁∪U₂,S)=J(U₁,S)∪J(U₂,S)`, a join's filters lifted above it, the
//! right side's nested inside the left side's). A join of two union trees
//! keeps the left one's shape, each leaf replaced by the right one's
//! shape; projections over projections compose.
//!
//! The tree carries no variables. What the NPRED engine needs of them —
//! each negative selection's argument variables — and the pair cores the
//! word-pair lists may answer are side tables of [`Plan`].

use crate::error::PlanError;
use crate::pairscan::{self, Core};
use ftsl_algebra::AlgExpr;
use ftsl_calculus::ast::{QueryExpr, VarId};
use ftsl_calculus::vars::free_vars;
use ftsl_predicates::{PredKind, PredicateId, PredicateRegistry};
use std::borrow::Borrow;

/// A streaming plan: the operator tree, its proximity cores and the
/// variables the NPRED engine orders its scans by.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The operator tree, in node-level normal form.
    pub root: AlgExpr,
    /// The pair cores of `root` by pre-order position
    /// ([`crate::pairscan`]'s one table). Each exact one under a `π_∅` is
    /// a leaf: a segment whose pair index covers it binds the pair walk in
    /// place of its subtree.
    pub cores: Vec<Core>,
    /// The argument variables of each negative-predicate selection in
    /// `root`, in argument order, listed in the order a depth-first walk
    /// finishes them (left before right, an input before its selection).
    pub negative_args: Vec<Vec<VarId>>,
    /// Variables of every leaf scan (for the full-permutation mode).
    pub scan_vars: Vec<VarId>,
}

/// Build a streaming plan for a (closed) calculus expression.
///
/// `allow_negative` selects NPRED (true) vs PPRED (false) predicate rules.
pub fn build_plan(
    expr: &QueryExpr,
    registry: &PredicateRegistry,
    allow_negative: bool,
) -> Result<Plan, PlanError> {
    let mut builder = Builder {
        registry,
        allow_negative,
        scan_vars: Vec::new(),
    };
    let lowered = builder.build(expr)?.branches.finish();
    Ok(Plan {
        cores: pairscan::cores(&lowered.tree, registry),
        root: lowered.tree,
        negative_args: lowered.negative_args,
        scan_vars: builder.scan_vars,
    })
}

/// `left ⋈ (SearchContext − filter)`: the nodes of `left` that `filter`,
/// a closed subquery, does not match.
fn filtered(left: AlgExpr, filter: AlgExpr) -> AlgExpr {
    let unmatched = AlgExpr::Difference(Box::new(AlgExpr::SearchContext), Box::new(filter));
    AlgExpr::Join(Box::new(left), Box::new(unmatched))
}

/// The `(left, filter)` of a closed-`NOT` filter `left ⋈ (SearchContext −
/// filter)`, which runs as one anti-join, never as a join; `None` for any
/// other node.
pub(crate) fn as_filter(node: &AlgExpr) -> Option<(&AlgExpr, &AlgExpr)> {
    match node {
        AlgExpr::Join(left, right) => match &**right {
            AlgExpr::Difference(all, filter) if **all == AlgExpr::SearchContext => {
                Some((left, filter))
            }
            _ => None,
        },
        _ => None,
    }
}

/// A lowered formula as one tree, and its negative selections' arguments
/// in the tree's depth-first order; a closed one filters by.
#[derive(Clone)]
struct Lowered {
    tree: AlgExpr,
    negative_args: Vec<Vec<VarId>>,
}

/// One union-free branch: a core of scans, joins, selections and
/// projections, and the closed-`NOT` filters above it, innermost first.
#[derive(Clone)]
struct Branch {
    core: AlgExpr,
    /// The core's negative selections' arguments, depth-first.
    negative_args: Vec<Vec<VarId>>,
    filters: Vec<Lowered>,
}

impl Branch {
    fn scan(leaf: AlgExpr) -> Self {
        Branch {
            core: leaf,
            negative_args: Vec::new(),
            filters: Vec::new(),
        }
    }

    /// `self ⋈ right`, with both sides' filters lifted above the join. A
    /// `SearchContext` side has no column and every node, so the join is
    /// the other side.
    fn join(self, right: Branch) -> Branch {
        let mut negative_args = self.negative_args;
        negative_args.extend(right.negative_args);
        let mut filters = right.filters;
        filters.extend(self.filters);
        let core = match (self.core, right.core) {
            (AlgExpr::SearchContext, core) | (core, AlgExpr::SearchContext) => core,
            (left, right) => AlgExpr::Join(Box::new(left), Box::new(right)),
        };
        Branch {
            core,
            negative_args,
            filters,
        }
    }

    fn finish(self) -> Lowered {
        let mut tree = self.core;
        let mut negative_args = self.negative_args;
        for filter in self.filters {
            tree = filtered(tree, filter.tree);
            negative_args.extend(filter.negative_args);
        }
        Lowered {
            tree,
            negative_args,
        }
    }
}

/// A union tree of branches.
#[derive(Clone)]
enum Branches {
    One(Branch),
    Union(Box<Branches>, Box<Branches>),
}

impl Branches {
    /// Replace each branch, left to right, by what `f` makes of it.
    fn map(self, f: &mut impl FnMut(Branch) -> Branches) -> Branches {
        match self {
            Branches::One(branch) => f(branch),
            Branches::Union(a, b) => {
                let a = a.map(f);
                Branches::Union(Box::new(a), Box::new(b.map(f)))
            }
        }
    }

    /// Apply `f` to every branch's core.
    fn map_cores(self, mut f: impl FnMut(AlgExpr, &mut Vec<Vec<VarId>>) -> AlgExpr) -> Branches {
        self.map(&mut |mut branch| {
            branch.core = f(branch.core, &mut branch.negative_args);
            Branches::One(branch)
        })
    }

    /// `self ⋈ right`: this tree's shape, each branch replaced by `right`'s
    /// shape over the joins of the two branches. Two single branches join
    /// by move; a union copies each side once per branch of the other.
    fn join(self, right: Branches) -> Branches {
        match (self, right) {
            (Branches::One(left), Branches::One(right)) => Branches::One(left.join(right)),
            (left, right) => {
                left.map(&mut |l| right.clone().map(&mut |r| Branches::One(l.clone().join(r))))
            }
        }
    }

    /// `σ_pred(cols, consts)` on every branch; `negative` holds the
    /// argument variables of a negative predicate.
    fn select(
        self,
        pred: PredicateId,
        cols: &[usize],
        consts: &[i64],
        negative: Option<&[VarId]>,
    ) -> Branches {
        self.map_cores(|core, negative_args| {
            negative_args.extend(negative.map(<[VarId]>::to_vec));
            AlgExpr::Select {
                input: Box::new(core),
                pred,
                cols: cols.to_vec(),
                consts: consts.to_vec(),
            }
        })
    }

    /// `π(keep)` on every branch, composed with a projection at its core's
    /// root.
    fn project(self, keep: &[usize]) -> Branches {
        self.map_cores(|core, _| match core {
            AlgExpr::Project(input, inner) => {
                AlgExpr::Project(input, keep.iter().map(|&k| inner[k]).collect())
            }
            core => AlgExpr::Project(Box::new(core), keep.to_vec()),
        })
    }

    /// Filter every branch by the closed subquery `filter`: moved into a
    /// single branch, copied into each branch of a union.
    fn filter(self, filter: Lowered) -> Branches {
        match self {
            Branches::One(mut branch) => {
                branch.filters.push(filter);
                Branches::One(branch)
            }
            union => union.map(&mut |mut branch| {
                branch.filters.push(filter.clone());
                Branches::One(branch)
            }),
        }
    }

    fn finish(self) -> Lowered {
        match self {
            Branches::One(branch) => branch.finish(),
            Branches::Union(a, b) => {
                let (mut a, b) = (a.finish(), b.finish());
                a.negative_args.extend(b.negative_args);
                Lowered {
                    tree: AlgExpr::Union(Box::new(a.tree), Box::new(b.tree)),
                    negative_args: a.negative_args,
                }
            }
        }
    }
}

/// A lowered subformula and the variable each output column binds.
struct Built {
    branches: Branches,
    cols: Vec<VarId>,
}

impl Built {
    fn scan(leaf: AlgExpr, var: VarId) -> Self {
        Built {
            branches: Branches::One(Branch::scan(leaf)),
            cols: vec![var],
        }
    }
}

struct Builder<'a> {
    registry: &'a PredicateRegistry,
    allow_negative: bool,
    scan_vars: Vec<VarId>,
}

impl Builder<'_> {
    fn build(&mut self, expr: &QueryExpr) -> Result<Built, PlanError> {
        match expr {
            QueryExpr::And(..)
            | QueryExpr::HasToken(..)
            | QueryExpr::HasPos(_)
            | QueryExpr::Pred { .. }
            | QueryExpr::Not(_) => {
                let mut conjuncts = Vec::new();
                flatten_and(expr, &mut conjuncts);
                self.build_conjunction(&conjuncts)
            }
            QueryExpr::Or(a, b) => {
                let left = self.build(a)?;
                let right = self.build(b)?;
                let mut lv = left.cols.clone();
                let mut rv = right.cols.clone();
                lv.sort_unstable();
                rv.sort_unstable();
                if lv != rv {
                    return Err(PlanError::OrVarMismatch);
                }
                // Permute the right side's columns into the left's order.
                let keep: Vec<usize> = left
                    .cols
                    .iter()
                    .map(|v| right.cols.iter().position(|u| u == v).expect("aligned"))
                    .collect();
                let right = if keep.iter().copied().eq(0..keep.len()) {
                    right.branches
                } else {
                    right.branches.project(&keep)
                };
                Ok(Built {
                    branches: Branches::Union(Box::new(left.branches), Box::new(right)),
                    cols: left.cols,
                })
            }
            QueryExpr::Exists(v, body) => {
                // A literal or `ANY` is the leaf `π_∅(R_t)` / `π_∅(HasPos)`,
                // as the conjunction path would plan it.
                if let Some(leaf) = closed_leaf(*v, body) {
                    self.scan_vars.push(*v);
                    let leaf = AlgExpr::Project(Box::new(leaf), Vec::new());
                    return Ok(Built {
                        branches: Branches::One(Branch::scan(leaf)),
                        cols: Vec::new(),
                    });
                }
                let inner = self.build(body)?;
                match inner.cols.iter().position(|u| u == v) {
                    Some(idx) => {
                        let keep: Vec<usize> =
                            (0..inner.cols.len()).filter(|&i| i != idx).collect();
                        let cols: Vec<VarId> = keep.iter().map(|&i| inner.cols[i]).collect();
                        Ok(Built {
                            branches: inner.branches.project(&keep),
                            cols,
                        })
                    }
                    // Quantifier over an unused variable: a core with a scan
                    // leaf matches only nodes with positions to bind the
                    // variable to, so there the quantifier is redundant; a
                    // `SearchContext` core becomes `π_∅(HasPos)`.
                    None => {
                        let mut anchored = false;
                        let branches = inner.branches.map_cores(|core, _| match core {
                            AlgExpr::SearchContext => {
                                anchored = true;
                                AlgExpr::Project(Box::new(AlgExpr::HasPos), Vec::new())
                            }
                            core => core,
                        });
                        if anchored {
                            self.scan_vars.push(*v);
                        }
                        Ok(Built {
                            branches,
                            cols: inner.cols,
                        })
                    }
                }
            }
            QueryExpr::Forall(..) => Err(PlanError::Universal),
        }
    }

    fn build_conjunction(&mut self, conjuncts: &[&QueryExpr]) -> Result<Built, PlanError> {
        let mut relational: Vec<Built> = Vec::new();
        let mut preds: Vec<(PredicateId, &[VarId], &[i64], bool)> = Vec::new();
        let mut filters: Vec<Lowered> = Vec::new();

        for &c in conjuncts {
            match c {
                QueryExpr::HasToken(v, t) => {
                    self.scan_vars.push(*v);
                    relational.push(Built::scan(AlgExpr::TokenRel(t.clone()), *v));
                }
                QueryExpr::HasPos(v) => {
                    self.scan_vars.push(*v);
                    relational.push(Built::scan(AlgExpr::HasPos, *v));
                }
                QueryExpr::Pred { pred, vars, consts } => {
                    self.check_pred(*pred)?;
                    let negative = self.registry.get(*pred).kind() == PredKind::Negative;
                    preds.push((*pred, vars.as_slice(), consts.as_slice(), negative));
                }
                QueryExpr::Not(inner) => {
                    if !free_vars(inner).is_empty() {
                        return Err(PlanError::OpenNegation);
                    }
                    let built = self.build(inner)?;
                    debug_assert!(built.cols.is_empty());
                    filters.push(built.branches.finish());
                }
                other => relational.push(self.build(other)?),
            }
        }

        // Anchor predicate variables that no relational conjunct binds.
        let mut bound: Vec<VarId> = relational.iter().flat_map(|b| b.cols.clone()).collect();
        for (_, vars, _, _) in &preds {
            for v in vars.iter() {
                if !bound.contains(v) {
                    bound.push(*v);
                    self.scan_vars.push(*v);
                    relational.push(Built::scan(AlgExpr::HasPos, *v));
                }
            }
        }

        // Closed `NOT`s alone filter every node: Lemma 2's `SearchContext
        // − R`.
        if relational.is_empty() {
            relational.push(Built {
                branches: Branches::One(Branch::scan(AlgExpr::SearchContext)),
                cols: Vec::new(),
            });
        }

        // Join everything; equate repeated variables via `samepos`.
        let mut relational = relational.into_iter();
        let mut acc = relational.next().expect("non-empty");
        for next in relational {
            let offset = acc.cols.len();
            let mut branches = acc.branches.join(next.branches);
            let mut cols = acc.cols;
            cols.extend(next.cols);
            // Resolve duplicate variables one at a time.
            while let Some((i, j)) = (0..cols.len()).find_map(|i| {
                ((i + 1).max(offset)..cols.len())
                    .find(|&j| cols[i] == cols[j])
                    .map(|j| (i, j))
            }) {
                let samepos = self
                    .registry
                    .lookup("samepos")
                    .ok_or(PlanError::GeneralPredicate("samepos missing".into()))?;
                let keep: Vec<usize> = (0..cols.len()).filter(|&k| k != j).collect();
                branches = branches.select(samepos, &[i, j], &[], None).project(&keep);
                cols.remove(j);
            }
            acc = Built { branches, cols };
        }

        // Apply predicate selections.
        for (pred, vars, consts, negative) in preds {
            let cols: Vec<usize> = vars
                .iter()
                .map(|v| acc.cols.iter().position(|u| u == v).expect("anchored"))
                .collect();
            let negative = negative.then_some(vars);
            acc.branches = acc.branches.select(pred, &cols, consts, negative);
        }

        // Apply node-level anti-joins for closed negations.
        for filter in filters {
            acc.branches = acc.branches.filter(filter);
        }
        Ok(acc)
    }

    fn check_pred(&mut self, pred: PredicateId) -> Result<(), PlanError> {
        if pred.index() >= self.registry.len() {
            return Err(PlanError::UnknownPredicate(pred.0));
        }
        let p = self.registry.get(pred);
        match p.kind() {
            PredKind::Positive => Ok(()),
            PredKind::Negative if self.allow_negative => Ok(()),
            PredKind::Negative => Err(PlanError::NegativePredicate(p.name().to_string())),
            PredKind::General => Err(PlanError::GeneralPredicate(p.name().to_string())),
        }
    }
}

/// The scan of `∃v hasToken(v,t)` or `∃v hasPos(v)`, given `v` and the
/// body; `None` for any other body.
fn closed_leaf(v: VarId, body: &QueryExpr) -> Option<AlgExpr> {
    match body {
        QueryExpr::HasToken(u, t) if *u == v => Some(AlgExpr::TokenRel(t.clone())),
        QueryExpr::HasPos(u) if *u == v => Some(AlgExpr::HasPos),
        _ => None,
    }
}

fn flatten_and<'e>(expr: &'e QueryExpr, out: &mut Vec<&'e QueryExpr>) {
    match expr {
        QueryExpr::And(a, b) => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        other => out.push(other),
    }
}

/// Decide, for this segment's lists, which joins of `root` run with their
/// inputs swapped: one decision per join in depth-first pre-order (a join
/// before its inputs, left before right; a closed-`NOT` filter is no join).
/// A join swaps when its right input is rarer, since the seek-driven
/// [`crate::join::JoinCursor`] drives from its left: the rare side is
/// decoded entry-by-entry while the common side is galloped/block-skipped
/// to each candidate. The cursor builder undoes the swap's column order
/// with a projection, so the tree's column references hold.
///
/// `root` is taken by value or by reference.
pub fn order_joins_by_selectivity(
    root: impl Borrow<AlgExpr>,
    corpus: &ftsl_model::Corpus,
    index: &ftsl_index::InvertedIndex,
) -> Vec<bool> {
    let mut swaps = Vec::new();
    decide_swaps(root.borrow(), corpus, index, &mut swaps);
    swaps
}

/// Push `node`'s swap decisions and return its estimated result
/// cardinality in context nodes, which the decisions compare: a join can
/// never yield more nodes than its smaller input, a union no more than the
/// sum of its inputs, and selections, projections and differences (a
/// closed-`NOT` filter among them) only shrink their input.
fn decide_swaps(
    node: &AlgExpr,
    corpus: &ftsl_model::Corpus,
    index: &ftsl_index::InvertedIndex,
    swaps: &mut Vec<bool>,
) -> u64 {
    if let Some((left, filter)) = as_filter(node) {
        let nodes = decide_swaps(left, corpus, index, swaps);
        decide_swaps(filter, corpus, index, swaps);
        return nodes;
    }
    match node {
        AlgExpr::TokenRel(token) => corpus.token_id(token).map_or(0, |id| index.df(id) as u64),
        AlgExpr::HasPos => index.any_block_list().num_entries() as u64,
        AlgExpr::SearchContext => corpus.len() as u64,
        AlgExpr::Join(a, b) => {
            let slot = swaps.len();
            swaps.push(false);
            let a = decide_swaps(a, corpus, index, swaps);
            let b = decide_swaps(b, corpus, index, swaps);
            swaps[slot] = b < a;
            a.min(b)
        }
        AlgExpr::Select { input, .. } | AlgExpr::Project(input, _) => {
            decide_swaps(input, corpus, index, swaps)
        }
        AlgExpr::Union(a, b) => {
            let a = decide_swaps(a, corpus, index, swaps);
            a.saturating_add(decide_swaps(b, corpus, index, swaps))
        }
        AlgExpr::Intersect(a, b) => {
            let a = decide_swaps(a, corpus, index, swaps);
            a.min(decide_swaps(b, corpus, index, swaps))
        }
        AlgExpr::Difference(a, b) => {
            let a = decide_swaps(a, corpus, index, swaps);
            decide_swaps(b, corpus, index, swaps);
            a
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineKind;
    use crate::snapshot::run_on_texts;
    use ftsl_lang::{lower, parse, Mode};

    fn plan_for(input: &str, allow_negative: bool) -> Result<Plan, PlanError> {
        let reg = PredicateRegistry::with_builtins();
        let surface = parse(input, Mode::Comp).unwrap();
        let expr = lower(&surface, &reg).unwrap();
        build_plan(&expr, &reg, allow_negative)
    }

    fn tree(input: &str) -> String {
        let reg = PredicateRegistry::with_builtins();
        plan_for(input, true).unwrap().root.render_tree(&reg)
    }

    #[test]
    fn simple_conjunction_plans_to_join() {
        let p = plan_for("'test' AND 'usability'", false).unwrap();
        assert!(matches!(p.root, AlgExpr::Project(..) | AlgExpr::Join(..)));
        let reg = PredicateRegistry::with_builtins();
        assert_eq!(p.root.arity(&reg), Ok(0));
    }

    #[test]
    fn figure4_query_plans_with_selects_over_join() {
        let tree = tree(
            "SOME p1 SOME p2 (p1 HAS 'usability' AND p2 HAS 'software' \
             AND samepara(p1,p2) AND distance(p1,p2,5))",
        );
        assert!(tree.contains("select samepara"));
        assert!(tree.contains("select distance"));
        assert!(tree.contains("scan (\"usability\")"));
        // The two `SOME` projections compose into one.
        assert!(tree.starts_with("project (CNode, [])\n  select"), "{tree}");
    }

    #[test]
    fn or_under_and_is_rewritten_to_top_level_union() {
        let p = plan_for(
            "SOME p1 SOME p2 ((p1 HAS 'a' OR p1 HAS 'b') AND p2 HAS 'c' \
             AND distance(p1,p2,5))",
            false,
        )
        .unwrap();
        assert!(matches!(p.root, AlgExpr::Union(..)));
    }

    #[test]
    fn closed_negation_becomes_difference() {
        let p = plan_for("'a' AND NOT 'b'", false).unwrap();
        let (_, filter) = as_filter(&p.root).expect("L ⋈ (SearchContext − R)");
        assert_eq!(
            tree("'a' AND NOT 'b'"),
            "join\n  project (CNode, [])\n    scan (\"a\")\n  difference\n    search_context\n\
             \x20   project (CNode, [])\n      scan (\"b\")\n"
        );
        let reg = PredicateRegistry::with_builtins();
        assert_eq!(filter.arity(&reg), Ok(0));
    }

    /// A root `NOT` filters `SearchContext`; in an `OR` branch it does too,
    /// and a join with that branch keeps the other side as its core.
    #[test]
    fn not_without_a_positive_conjunct_filters_search_context() {
        assert_eq!(
            tree("NOT 'b'"),
            "join\n  search_context\n  difference\n    search_context\n\
             \x20   project (CNode, [])\n      scan (\"b\")\n"
        );
        let p = plan_for("'a' AND (NOT 'b' OR 'c')", false).unwrap();
        let AlgExpr::Union(left, _) = &p.root else {
            panic!("a union on top");
        };
        let (core, _) = as_filter(left).expect("a filtered branch");
        assert_eq!(
            *core,
            AlgExpr::Project(Box::new(AlgExpr::TokenRel("a".into())), vec![])
        );
    }

    /// `SOME p` over a body that does not use `p` holds on nodes with a
    /// position only: a `SearchContext` core becomes `π_∅(HasPos)`.
    #[test]
    fn unused_quantifier_anchors_search_context_on_positions() {
        let t = tree("SOME p1 (NOT 'b')");
        assert!(!t.contains("search_context\n  difference"), "{t}");
        assert!(
            t.starts_with("join\n  project (CNode, [])\n    scan (ANY)\n"),
            "{t}"
        );
        let texts = ["b", "", "c"];
        let out = run_on_texts(
            &texts,
            "SOME p1 (NOT 'b')",
            EngineKind::Ppred,
            Default::default(),
        );
        assert_eq!(out.unwrap().node_ids(), [2]);
    }

    /// Unions nest left-major, a join's right-side filters sit inside its
    /// left-side ones, and a negative selection inside a filter follows
    /// the core's in the side table.
    #[test]
    fn unions_and_filters_nest_by_construction() {
        let q = "SOME p0 (p0 HAS 'a' AND NOT 'x') \
                 AND SOME p1 SOME p2 ((p1 HAS 'b' OR p1 HAS 'c') AND (p2 HAS 'd' OR p2 HAS 'e') \
                 AND NOT 'y' AND not_distance(p1,p2,2)) \
                 AND NOT SOME p3 SOME p4 (p3 HAS 'f' AND p4 HAS 'g' AND not_ordered(p3,p4))";
        let p = plan_for(q, true).unwrap();
        let reg = PredicateRegistry::with_builtins();
        let scans = |e: &AlgExpr| {
            let t = e.render_tree(&reg);
            let mut s: Vec<String> = t
                .lines()
                .filter_map(|l| l.trim().strip_prefix("scan (\""))
                .map(|l| l.trim_end_matches("\")").to_string())
                .collect();
            s.dedup();
            s.join("")
        };
        let mut branches = Vec::new();
        let mut stack = vec![&p.root];
        while let Some(e) = stack.pop() {
            match e {
                AlgExpr::Union(a, b) => {
                    stack.push(b);
                    stack.push(a);
                }
                other => branches.push(other),
            }
        }
        // Left-major: p1's alternatives outer, p2's inner.
        let cores: Vec<String> = branches
            .iter()
            .map(|b| {
                let mut e = *b;
                let mut filters = Vec::new();
                while let Some((left, filter)) = as_filter(e) {
                    filters.push(scans(filter));
                    e = left;
                }
                filters.reverse();
                format!("{} / {}", scans(e), filters.join(","))
            })
            .collect();
        assert_eq!(
            cores,
            [
                "abd / y,x,fg",
                "abe / y,x,fg",
                "acd / y,x,fg",
                "ace / y,x,fg"
            ]
        );
        // Per branch: the core's `not_distance`, then the filter's
        // `not_ordered`.
        let (core, filter) = (&p.negative_args[0], &p.negative_args[1]);
        assert_ne!(core, filter);
        let expected: Vec<Vec<VarId>> = (0..4)
            .flat_map(|_| [core.clone(), filter.clone()])
            .collect();
        assert_eq!(p.negative_args, expected);
    }

    #[test]
    fn open_negation_is_rejected() {
        let err = plan_for("SOME p1 (p1 HAS 'a' AND NOT distance(p1,p1,0))", false);
        assert_eq!(err.unwrap_err(), PlanError::OpenNegation);
    }

    #[test]
    fn negative_predicates_require_npred() {
        let q = "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND not_distance(p1,p2,3))";
        assert!(matches!(
            plan_for(q, false),
            Err(PlanError::NegativePredicate(_))
        ));
        let p = plan_for(q, true).unwrap();
        assert_eq!(p.negative_args.len(), 1);
        assert_eq!(p.negative_args[0].len(), 2);
    }

    #[test]
    fn general_predicates_are_rejected() {
        let q = "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND exact_gap(p1,p2,3))";
        assert!(matches!(
            plan_for(q, true),
            Err(PlanError::GeneralPredicate(_))
        ));
    }

    #[test]
    fn every_is_rejected() {
        assert_eq!(
            plan_for("EVERY p1 (p1 HAS 'a')", false).unwrap_err(),
            PlanError::Universal
        );
    }

    #[test]
    fn shared_variable_gets_samepos_equijoin() {
        let tree = tree("SOME p1 (p1 HAS 'a' AND p1 HAS 'b')");
        assert!(tree.contains("select samepos"), "plan: {tree}");
    }

    #[test]
    fn pred_only_query_anchors_with_any_scans() {
        let tree = tree("SOME p1 SOME p2 distance(p1, p2, 3)");
        assert!(tree.contains("scan (ANY)"));
    }

    #[test]
    fn or_with_different_vars_is_rejected() {
        let err = plan_for("SOME p1 ((p1 HAS 'a' OR 'b') AND p1 HAS 'c')", false);
        assert_eq!(err.unwrap_err(), PlanError::OrVarMismatch);
    }
}
