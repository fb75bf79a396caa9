//! Per-tuple scores: Section 3's framework adds a score to every tuple of
//! a full-text relation and one score transformation to every operator of
//! the same algebra. The evaluator calls each transformation inside the
//! kernel that builds the rows it scores; [`Unscored`] is the framework
//! with no score, which the COMP engine evaluates under.

use ftsl_model::{NodeId, Position};
use ftsl_predicates::Predicate;

/// One score transformation per operator.
pub trait Scorer {
    /// A tuple's score.
    type Score: Copy;

    /// Score of an `R_token` tuple: one occurrence of `token` in `node`.
    fn token_tuple(&self, token: &str, node: NodeId) -> Self::Score;

    /// Score of a `HasPos` tuple.
    fn any_tuple(&self) -> Self::Score;

    /// Score of a `SearchContext` tuple.
    fn context_tuple(&self) -> Self::Score;

    /// `⋈` of a left and a right tuple; `left_group` / `right_group` are
    /// the two inputs' row counts at the node.
    fn join(
        &self,
        left: Self::Score,
        right: Self::Score,
        left_group: usize,
        right_group: usize,
    ) -> Self::Score;

    /// `π`: the score of the tuple that `scores`' rows collapse onto, in
    /// the order those rows had in the input.
    fn project(&self, scores: &[Self::Score]) -> Self::Score;

    /// `σ`: a surviving tuple's score, given the predicate's arguments.
    fn select(
        &self,
        score: Self::Score,
        pred: &dyn Predicate,
        args: &[Position],
        consts: &[i64],
    ) -> Self::Score;

    /// `∪` of a tuple's scores on each side (`None`: absent there).
    fn union(&self, left: Option<Self::Score>, right: Option<Self::Score>) -> Self::Score;

    /// `∩` of a tuple's scores on each side.
    fn intersect(&self, left: Self::Score, right: Self::Score) -> Self::Score;

    /// `−`: a surviving (left-only) tuple's score.
    fn difference(&self, left: Self::Score) -> Self::Score;
}

/// No score column: every transformation is a no-op on `()`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Unscored;

impl Scorer for Unscored {
    type Score = ();

    fn token_tuple(&self, _token: &str, _node: NodeId) {}

    fn any_tuple(&self) {}

    fn context_tuple(&self) {}

    fn join(&self, _left: (), _right: (), _left_group: usize, _right_group: usize) {}

    fn project(&self, _scores: &[()]) {}

    fn select(&self, _score: (), _pred: &dyn Predicate, _args: &[Position], _consts: &[i64]) {}

    fn union(&self, _left: Option<()>, _right: Option<()>) {}

    fn intersect(&self, _left: (), _right: ()) {}

    fn difference(&self, _left: ()) {}
}
