//! Algebra expressions (Section 2.3.1).

use crate::error::AlgebraError;
use ftsl_predicates::{PredicateId, PredicateRegistry};
use std::fmt;

/// A full-text algebra expression.
#[derive(Clone, PartialEq, Eq)]
pub enum AlgExpr {
    /// The `SearchContext` relation: one arity-0 tuple per context node.
    SearchContext,
    /// The `HasPos` relation: one arity-1 tuple per (node, position).
    HasPos,
    /// `R_token`: one arity-1 tuple per (node, position-of-token).
    TokenRel(String),
    /// `π_{CNode, cols}` — columns may be reordered; `CNode` is implicit.
    Project(Box<AlgExpr>, Vec<usize>),
    /// `⋈` — equi-join on `CNode`, cartesian product of positions.
    Join(Box<AlgExpr>, Box<AlgExpr>),
    /// `σ_pred(cols, consts)`.
    Select {
        /// Input expression.
        input: Box<AlgExpr>,
        /// Which registered predicate to apply.
        pred: PredicateId,
        /// Column indices fed to the predicate, in argument order.
        cols: Vec<usize>,
        /// Constant arguments.
        consts: Vec<i64>,
    },
    /// `∪`.
    Union(Box<AlgExpr>, Box<AlgExpr>),
    /// `∩`.
    Intersect(Box<AlgExpr>, Box<AlgExpr>),
    /// `−`.
    Difference(Box<AlgExpr>, Box<AlgExpr>),
}

impl AlgExpr {
    /// Compute the output arity, validating column references and set-op
    /// arity agreement along the way.
    pub fn arity(&self, registry: &PredicateRegistry) -> Result<usize, AlgebraError> {
        match self {
            AlgExpr::SearchContext => Ok(0),
            AlgExpr::HasPos | AlgExpr::TokenRel(_) => Ok(1),
            AlgExpr::Project(input, cols) => {
                let a = input.arity(registry)?;
                for &c in cols {
                    if c >= a {
                        return Err(AlgebraError::ColumnOutOfRange { col: c, arity: a });
                    }
                }
                Ok(cols.len())
            }
            AlgExpr::Join(l, r) => Ok(l.arity(registry)? + r.arity(registry)?),
            AlgExpr::Select {
                input,
                pred,
                cols,
                consts,
            } => {
                let a = input.arity(registry)?;
                for &c in cols {
                    if c >= a {
                        return Err(AlgebraError::ColumnOutOfRange { col: c, arity: a });
                    }
                }
                if pred.index() >= registry.len() {
                    return Err(AlgebraError::UnknownPredicate(pred.0));
                }
                let p = registry.get(*pred);
                if cols.len() != p.arity() || consts.len() != p.num_consts() {
                    return Err(AlgebraError::BadPredicateApplication(format!(
                        "{} applied to {} columns / {} consts (expects {} / {})",
                        p.name(),
                        cols.len(),
                        consts.len(),
                        p.arity(),
                        p.num_consts()
                    )));
                }
                Ok(a)
            }
            AlgExpr::Union(l, r) | AlgExpr::Intersect(l, r) | AlgExpr::Difference(l, r) => {
                let (la, ra) = (l.arity(registry)?, r.arity(registry)?);
                if la != ra {
                    let op = match self {
                        AlgExpr::Union(..) => "union",
                        AlgExpr::Intersect(..) => "intersect",
                        _ => "difference",
                    };
                    return Err(AlgebraError::ArityMismatch {
                        op,
                        left: la,
                        right: ra,
                    });
                }
                Ok(la)
            }
        }
    }

    /// Number of operator nodes (for complexity accounting and tests).
    pub fn size(&self) -> usize {
        match self {
            AlgExpr::SearchContext | AlgExpr::HasPos | AlgExpr::TokenRel(_) => 1,
            AlgExpr::Project(e, _) | AlgExpr::Select { input: e, .. } => 1 + e.size(),
            AlgExpr::Join(a, b)
            | AlgExpr::Union(a, b)
            | AlgExpr::Intersect(a, b)
            | AlgExpr::Difference(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Render an operator-tree view (Figure 4 style), as `explain` prints
    /// every engine's plan.
    pub fn render_tree(&self, registry: &PredicateRegistry) -> String {
        self.render_tree_with(registry, |_| None)
    }

    /// [`Self::render_tree`], each operator's line followed by the note
    /// `note` gives its pre-order position (the root 0, an operator before
    /// its inputs, left before right), if any.
    pub fn render_tree_with(
        &self,
        registry: &PredicateRegistry,
        mut note: impl FnMut(usize) -> Option<String>,
    ) -> String {
        let mut out = String::new();
        self.render_into(registry, 0, &mut note, &mut 0, &mut out);
        out
    }

    fn render_into(
        &self,
        registry: &PredicateRegistry,
        depth: usize,
        note: &mut dyn FnMut(usize) -> Option<String>,
        at: &mut usize,
        out: &mut String,
    ) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        match self {
            AlgExpr::SearchContext => write!(out, "{pad}search_context"),
            AlgExpr::HasPos => write!(out, "{pad}scan (ANY)"),
            AlgExpr::TokenRel(t) => write!(out, "{pad}scan (\"{t}\")"),
            AlgExpr::Project(_, cols) => write!(out, "{pad}project (CNode, {cols:?})"),
            AlgExpr::Join(..) => write!(out, "{pad}join"),
            AlgExpr::Select {
                pred, cols, consts, ..
            } => {
                let name = registry.get(*pred).name();
                write!(out, "{pad}select {name}({cols:?}, {consts:?})")
            }
            AlgExpr::Union(..) => write!(out, "{pad}union"),
            AlgExpr::Intersect(..) => write!(out, "{pad}intersect"),
            AlgExpr::Difference(..) => write!(out, "{pad}difference"),
        }
        .unwrap();
        if let Some(n) = note(*at) {
            write!(out, "  · {n}").unwrap();
        }
        out.push('\n');
        *at += 1;
        match self {
            AlgExpr::SearchContext | AlgExpr::HasPos | AlgExpr::TokenRel(_) => {}
            AlgExpr::Project(e, _) | AlgExpr::Select { input: e, .. } => {
                e.render_into(registry, depth + 1, note, at, out)
            }
            AlgExpr::Join(a, b)
            | AlgExpr::Union(a, b)
            | AlgExpr::Intersect(a, b)
            | AlgExpr::Difference(a, b) => {
                a.render_into(registry, depth + 1, note, at, out);
                b.render_into(registry, depth + 1, note, at, out);
            }
        }
    }
}

impl fmt::Debug for AlgExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgExpr::SearchContext => write!(f, "SearchContext"),
            AlgExpr::HasPos => write!(f, "HasPos"),
            AlgExpr::TokenRel(t) => write!(f, "R_{t}"),
            AlgExpr::Project(e, cols) => write!(f, "π{cols:?}({e:?})"),
            AlgExpr::Join(a, b) => write!(f, "({a:?} ⋈ {b:?})"),
            AlgExpr::Select {
                input,
                pred,
                cols,
                consts,
            } => {
                write!(f, "σ{pred:?}{cols:?}{consts:?}({input:?})")
            }
            AlgExpr::Union(a, b) => write!(f, "({a:?} ∪ {b:?})"),
            AlgExpr::Intersect(a, b) => write!(f, "({a:?} ∩ {b:?})"),
            AlgExpr::Difference(a, b) => write!(f, "({a:?} − {b:?})"),
        }
    }
}

/// Convenience constructors mirroring the paper's notation.
pub mod ops {
    use super::AlgExpr;
    use ftsl_predicates::PredicateId;

    /// `R_token`.
    pub fn token(t: &str) -> AlgExpr {
        AlgExpr::TokenRel(t.to_lowercase())
    }

    /// `π_{CNode, cols}(e)`.
    pub fn project(e: AlgExpr, cols: &[usize]) -> AlgExpr {
        AlgExpr::Project(Box::new(e), cols.to_vec())
    }

    /// `π_{CNode}(e)` — project away all position columns.
    pub fn project_nodes(e: AlgExpr) -> AlgExpr {
        AlgExpr::Project(Box::new(e), vec![])
    }

    /// `a ⋈ b`.
    pub fn join(a: AlgExpr, b: AlgExpr) -> AlgExpr {
        AlgExpr::Join(Box::new(a), Box::new(b))
    }

    /// `σ_pred(cols, consts)(e)`.
    pub fn select(e: AlgExpr, pred: PredicateId, cols: &[usize], consts: &[i64]) -> AlgExpr {
        AlgExpr::Select {
            input: Box::new(e),
            pred,
            cols: cols.to_vec(),
            consts: consts.to_vec(),
        }
    }

    /// `a ∪ b`.
    pub fn union(a: AlgExpr, b: AlgExpr) -> AlgExpr {
        AlgExpr::Union(Box::new(a), Box::new(b))
    }

    /// `a ∩ b`.
    pub fn intersect(a: AlgExpr, b: AlgExpr) -> AlgExpr {
        AlgExpr::Intersect(Box::new(a), Box::new(b))
    }

    /// `a − b`.
    pub fn difference(a: AlgExpr, b: AlgExpr) -> AlgExpr {
        AlgExpr::Difference(Box::new(a), Box::new(b))
    }
}

#[cfg(test)]
mod tests {
    use super::ops::*;
    use super::*;

    #[test]
    fn arity_of_paper_example() {
        // π_CNode(R_test ⋈ R_usability)
        let reg = PredicateRegistry::with_builtins();
        let e = project_nodes(join(token("test"), token("usability")));
        assert_eq!(e.arity(&reg), Ok(0));
    }

    #[test]
    fn arity_checks_catch_bad_projections() {
        let reg = PredicateRegistry::with_builtins();
        let e = project(token("a"), &[2]);
        assert_eq!(
            e.arity(&reg),
            Err(AlgebraError::ColumnOutOfRange { col: 2, arity: 1 })
        );
    }

    #[test]
    fn arity_checks_catch_set_op_mismatch() {
        let reg = PredicateRegistry::with_builtins();
        let e = union(token("a"), join(token("a"), token("b")));
        assert!(matches!(
            e.arity(&reg),
            Err(AlgebraError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn arity_checks_predicate_signature() {
        let reg = PredicateRegistry::with_builtins();
        let distance = reg.lookup("distance").unwrap();
        let bad = select(join(token("a"), token("b")), distance, &[0], &[5]);
        assert!(matches!(
            bad.arity(&reg),
            Err(AlgebraError::BadPredicateApplication(_))
        ));
        let good = select(join(token("a"), token("b")), distance, &[0, 1], &[5]);
        assert_eq!(good.arity(&reg), Ok(2));
    }

    #[test]
    fn render_tree_matches_figure4_shape() {
        let reg = PredicateRegistry::with_builtins();
        let distance = reg.lookup("distance").unwrap();
        let samepara = reg.lookup("samepara").unwrap();
        let plan = project_nodes(select(
            select(
                join(token("usability"), token("software")),
                samepara,
                &[0, 1],
                &[],
            ),
            distance,
            &[0, 1],
            &[5],
        ));
        let tree = plan.render_tree(&reg);
        assert!(tree.contains("scan (\"usability\")"));
        assert!(tree.contains("select distance"));
        assert!(tree.contains("join"));
        assert!(tree.starts_with("project"));
    }
}
