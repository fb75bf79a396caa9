//! The paper's built-in predicates.
//!
//! Positive (Section 5.5.2): `distance`, `ordered`, `samepara`, `samesent`,
//! `window`, `samepos`. Negative (Section 5.6.1): `not_distance`,
//! `not_ordered`, `not_samepara`, `not_samesent`, `diffpos`. General:
//! `exact_gap`.
//!
//! Note on `diffpos`: Section 2.2 lists it among the example predicates; it
//! is *not* positive (its failure region — the diagonal — has satisfying
//! tuples on both sides, so no single cursor can be advanced without losing
//! solutions) but it *is* negative (equality can only be broken by extending
//! the interval), so it is NPRED-evaluable.
//!
//! Note on `not_ordered`: we define it strictly (`p1` *after* `p2`), which
//! satisfies the negative-predicate definition; the non-strict complement of
//! `ordered` is expressible as `not_ordered(p1,p2) OR samepos(p1,p2)`.

use crate::{Advance, AdvanceMode, GapBound, PredKind, Predicate};
use ftsl_model::Position;
use std::sync::Arc;

fn offsets2(positions: &[Position]) -> (u32, u32) {
    (positions[0].offset, positions[1].offset)
}

/// The gap bound `max`, when it is at least 1: clamped to `u32`.
fn gap_bound(max: i64, exact: bool) -> Option<GapBound> {
    (max >= 1).then(|| GapBound {
        max: u32::try_from(max).unwrap_or(u32::MAX),
        exact,
    })
}

/// Index of the smaller-offset argument among two.
fn argmin2(positions: &[Position]) -> usize {
    usize::from(positions[1].offset < positions[0].offset)
}

/// `distance(p1, p2, d)`: at most `d` intervening tokens (Section 2.2).
#[derive(Debug)]
pub struct DistancePred;

impl Predicate for DistancePred {
    fn name(&self) -> &str {
        "distance"
    }
    fn arity(&self) -> usize {
        2
    }
    fn num_consts(&self) -> usize {
        1
    }
    fn kind(&self) -> PredKind {
        PredKind::Positive
    }
    fn eval(&self, positions: &[Position], consts: &[i64]) -> bool {
        i64::from(positions[0].intervening(&positions[1])) <= consts[0]
    }
    /// At most `d` intervening tokens: an offset gap of at most `d + 1`.
    fn gap_bound(&self, consts: &[i64]) -> Option<GapBound> {
        gap_bound(consts[0].saturating_add(1), true)
    }
    fn positive_advance(
        &self,
        positions: &[Position],
        consts: &[i64],
        mode: AdvanceMode,
    ) -> Option<Advance> {
        // The trailing cursor is too far behind; it can catch up.
        let col = argmin2(positions);
        let cur = positions[col].offset;
        let leader = positions[1 - col].offset;
        let min_offset = match mode {
            AdvanceMode::Conservative => cur + 1,
            // Next candidate must satisfy leader - p - 1 <= d, i.e.
            // p >= leader - d - 1 (for any leader' >= leader this is the
            // weakest requirement, so it is a sound lower bound).
            AdvanceMode::Aggressive => {
                let d = consts[0].max(0) as u32;
                (leader.saturating_sub(d + 1)).max(cur + 1)
            }
        };
        Some(Advance {
            column: col,
            min_offset,
        })
    }
}

/// `ordered(p1, p2)`: `p1` occurs strictly before `p2`.
#[derive(Debug)]
pub struct OrderedPred;

impl Predicate for OrderedPred {
    fn name(&self) -> &str {
        "ordered"
    }
    fn arity(&self) -> usize {
        2
    }
    fn num_consts(&self) -> usize {
        0
    }
    fn kind(&self) -> PredKind {
        PredKind::Positive
    }
    fn eval(&self, positions: &[Position], _: &[i64]) -> bool {
        positions[0].before(&positions[1])
    }
    fn positive_advance(
        &self,
        positions: &[Position],
        _: &[i64],
        _: AdvanceMode,
    ) -> Option<Advance> {
        // p1 >= p2: p2 must move past p1 (conservative == aggressive).
        let (p1, _) = offsets2(positions);
        Some(Advance {
            column: 1,
            min_offset: p1 + 1,
        })
    }
}

/// `samepara(p1, p2)`: both positions in the same paragraph.
#[derive(Debug)]
pub struct SameParaPred;

impl Predicate for SameParaPred {
    fn name(&self) -> &str {
        "samepara"
    }
    fn arity(&self) -> usize {
        2
    }
    fn num_consts(&self) -> usize {
        0
    }
    fn kind(&self) -> PredKind {
        PredKind::Positive
    }
    fn eval(&self, positions: &[Position], _: &[i64]) -> bool {
        positions[0].same_paragraph(&positions[1])
    }
    fn positive_advance(
        &self,
        positions: &[Position],
        _: &[i64],
        _: AdvanceMode,
    ) -> Option<Advance> {
        // Paragraph ordinals are monotone in offset, so the position in the
        // earlier paragraph is the one that can catch up. The paragraph
        // boundary offset is not derivable from the positions alone, so the
        // bound is +1; linearity is preserved because each cursor still
        // moves strictly forward.
        let col = usize::from(positions[1].paragraph < positions[0].paragraph);
        Some(Advance {
            column: col,
            min_offset: positions[col].offset + 1,
        })
    }
}

/// `samesent(p1, p2)`: both positions in the same sentence.
#[derive(Debug)]
pub struct SameSentPred;

impl Predicate for SameSentPred {
    fn name(&self) -> &str {
        "samesent"
    }
    fn arity(&self) -> usize {
        2
    }
    fn num_consts(&self) -> usize {
        0
    }
    fn kind(&self) -> PredKind {
        PredKind::Positive
    }
    fn eval(&self, positions: &[Position], _: &[i64]) -> bool {
        positions[0].same_sentence(&positions[1])
    }
    fn positive_advance(
        &self,
        positions: &[Position],
        _: &[i64],
        _: AdvanceMode,
    ) -> Option<Advance> {
        let col = usize::from(positions[1].sentence < positions[0].sentence);
        Some(Advance {
            column: col,
            min_offset: positions[col].offset + 1,
        })
    }
}

/// `window(p1..pn, w)`: all `n` positions within a window of `w` tokens
/// (`max offset − min offset ≤ w`). An n-ary positive predicate.
#[derive(Debug)]
pub struct WindowPred {
    arity: usize,
}

impl WindowPred {
    /// A window predicate over `arity` positions (≥ 2).
    pub fn new(arity: usize) -> Self {
        assert!(arity >= 2);
        WindowPred { arity }
    }
}

impl Predicate for WindowPred {
    fn name(&self) -> &str {
        "window"
    }
    fn arity(&self) -> usize {
        self.arity
    }
    fn num_consts(&self) -> usize {
        1
    }
    fn kind(&self) -> PredKind {
        PredKind::Positive
    }
    fn eval(&self, positions: &[Position], consts: &[i64]) -> bool {
        let min = positions.iter().map(|p| p.offset).min().unwrap();
        let max = positions.iter().map(|p| p.offset).max().unwrap();
        i64::from(max - min) <= consts[0]
    }
    /// Two positions within a window of `w`: an offset gap of at most `w`.
    /// A wider window bounds no pair.
    fn gap_bound(&self, consts: &[i64]) -> Option<GapBound> {
        gap_bound(consts[0], true).filter(|_| self.arity == 2)
    }
    fn positive_advance(
        &self,
        positions: &[Position],
        consts: &[i64],
        mode: AdvanceMode,
    ) -> Option<Advance> {
        let col = positions
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| p.offset)
            .map(|(i, _)| i)
            .unwrap();
        let cur = positions[col].offset;
        let max = positions.iter().map(|p| p.offset).max().unwrap();
        let min_offset = match mode {
            AdvanceMode::Conservative => cur + 1,
            AdvanceMode::Aggressive => {
                let w = consts[0].max(0) as u32;
                (max.saturating_sub(w)).max(cur + 1)
            }
        };
        Some(Advance {
            column: col,
            min_offset,
        })
    }
}

/// `samepos(p1, p2)`: both variables bound to the same position. Used by the
/// planner when one variable is shared between conjuncts; positive.
#[derive(Debug)]
pub struct SamePosPred;

impl Predicate for SamePosPred {
    fn name(&self) -> &str {
        "samepos"
    }
    fn arity(&self) -> usize {
        2
    }
    fn num_consts(&self) -> usize {
        0
    }
    fn kind(&self) -> PredKind {
        PredKind::Positive
    }
    fn eval(&self, positions: &[Position], _: &[i64]) -> bool {
        positions[0].offset == positions[1].offset
    }
    fn positive_advance(
        &self,
        positions: &[Position],
        _: &[i64],
        _: AdvanceMode,
    ) -> Option<Advance> {
        // Advance the smaller cursor directly to the larger's offset.
        let col = argmin2(positions);
        Some(Advance {
            column: col,
            min_offset: positions[1 - col].offset,
        })
    }
}

/// `not_distance(p1, p2, d)`: *more than* `d` intervening tokens — the
/// negation of `distance` (Section 5.6.1's running example).
#[derive(Debug)]
pub struct NotDistancePred;

impl Predicate for NotDistancePred {
    fn name(&self) -> &str {
        "not_distance"
    }
    fn arity(&self) -> usize {
        2
    }
    fn num_consts(&self) -> usize {
        1
    }
    fn kind(&self) -> PredKind {
        PredKind::Negative
    }
    fn eval(&self, positions: &[Position], consts: &[i64]) -> bool {
        i64::from(positions[0].intervening(&positions[1])) > consts[0]
    }
    fn negative_advance(
        &self,
        positions: &[Position],
        consts: &[i64],
        move_column: usize,
    ) -> Option<Advance> {
        // Moving the designated (largest-ranked) cursor extends the gap; it
        // becomes satisfiable at min_offset = other + d + 2.
        let other = positions[1 - move_column].offset;
        let d = consts[0].max(0) as u32;
        let cur = positions[move_column].offset;
        Some(Advance {
            column: move_column,
            min_offset: (other + d + 2).max(cur + 1),
        })
    }
}

/// `not_ordered(p1, p2)`: `p1` occurs strictly *after* `p2`.
#[derive(Debug)]
pub struct NotOrderedPred;

impl Predicate for NotOrderedPred {
    fn name(&self) -> &str {
        "not_ordered"
    }
    fn arity(&self) -> usize {
        2
    }
    fn num_consts(&self) -> usize {
        0
    }
    fn kind(&self) -> PredKind {
        PredKind::Negative
    }
    fn eval(&self, positions: &[Position], _: &[i64]) -> bool {
        positions[1].before(&positions[0])
    }
    fn negative_advance(
        &self,
        positions: &[Position],
        _: &[i64],
        move_column: usize,
    ) -> Option<Advance> {
        let cur = positions[move_column].offset;
        let bound = if move_column == 0 {
            // p1 must pass p2.
            (positions[1].offset + 1).max(cur + 1)
        } else {
            // Moving p2 cannot satisfy p1 > p2 directly; crawl and let the
            // thread whose ordering places p2 first find the solutions.
            cur + 1
        };
        Some(Advance {
            column: move_column,
            min_offset: bound,
        })
    }
}

/// `not_samepara(p1, p2)`: positions in different paragraphs.
#[derive(Debug)]
pub struct NotSameParaPred;

impl Predicate for NotSameParaPred {
    fn name(&self) -> &str {
        "not_samepara"
    }
    fn arity(&self) -> usize {
        2
    }
    fn num_consts(&self) -> usize {
        0
    }
    fn kind(&self) -> PredKind {
        PredKind::Negative
    }
    fn eval(&self, positions: &[Position], _: &[i64]) -> bool {
        !positions[0].same_paragraph(&positions[1])
    }
    fn negative_advance(
        &self,
        positions: &[Position],
        _: &[i64],
        move_column: usize,
    ) -> Option<Advance> {
        Some(Advance {
            column: move_column,
            min_offset: positions[move_column].offset + 1,
        })
    }
}

/// `not_samesent(p1, p2)`: positions in different sentences.
#[derive(Debug)]
pub struct NotSameSentPred;

impl Predicate for NotSameSentPred {
    fn name(&self) -> &str {
        "not_samesent"
    }
    fn arity(&self) -> usize {
        2
    }
    fn num_consts(&self) -> usize {
        0
    }
    fn kind(&self) -> PredKind {
        PredKind::Negative
    }
    fn eval(&self, positions: &[Position], _: &[i64]) -> bool {
        !positions[0].same_sentence(&positions[1])
    }
    fn negative_advance(
        &self,
        positions: &[Position],
        _: &[i64],
        move_column: usize,
    ) -> Option<Advance> {
        Some(Advance {
            column: move_column,
            min_offset: positions[move_column].offset + 1,
        })
    }
}

/// `diffpos(p1, p2)`: distinct positions (Section 2.2's example predicate).
/// Negative, not positive — see the module docs.
#[derive(Debug)]
pub struct DiffPosPred;

impl Predicate for DiffPosPred {
    fn name(&self) -> &str {
        "diffpos"
    }
    fn arity(&self) -> usize {
        2
    }
    fn num_consts(&self) -> usize {
        0
    }
    fn kind(&self) -> PredKind {
        PredKind::Negative
    }
    fn eval(&self, positions: &[Position], _: &[i64]) -> bool {
        positions[0].offset != positions[1].offset
    }
    fn negative_advance(
        &self,
        positions: &[Position],
        _: &[i64],
        move_column: usize,
    ) -> Option<Advance> {
        Some(Advance {
            column: move_column,
            min_offset: positions[move_column].offset + 1,
        })
    }
}

/// `exact_gap(p1, p2, g)`: exactly `g` intervening tokens. Neither positive
/// nor negative (solutions exist on both sides of a failing tuple), so only
/// the COMP engine can evaluate it — a deliberate stress case for the
/// language classifier.
#[derive(Debug)]
pub struct ExactGapPred;

impl Predicate for ExactGapPred {
    fn name(&self) -> &str {
        "exact_gap"
    }
    fn arity(&self) -> usize {
        2
    }
    fn num_consts(&self) -> usize {
        1
    }
    fn kind(&self) -> PredKind {
        PredKind::General
    }
    fn eval(&self, positions: &[Position], consts: &[i64]) -> bool {
        i64::from(positions[0].intervening(&positions[1])) == consts[0]
            && positions[0].offset != positions[1].offset
    }
    /// Exactly `g` intervening tokens: an offset gap of exactly `g + 1`,
    /// so at most `g + 1` — implied, not exact.
    fn gap_bound(&self, consts: &[i64]) -> Option<GapBound> {
        gap_bound(consts[0].saturating_add(1), false)
    }
}

/// All built-in predicates, in registry order.
pub fn builtins() -> Vec<Arc<dyn Predicate>> {
    vec![
        Arc::new(DistancePred),
        Arc::new(OrderedPred),
        Arc::new(SameParaPred),
        Arc::new(SameSentPred),
        Arc::new(WindowPred::new(2)),
        Arc::new(SamePosPred),
        Arc::new(NotDistancePred),
        Arc::new(NotOrderedPred),
        Arc::new(NotSameParaPred),
        Arc::new(NotSameSentPred),
        Arc::new(DiffPosPred),
        Arc::new(ExactGapPred),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(o: u32) -> Position {
        Position::flat(o)
    }

    #[test]
    fn distance_counts_intervening_tokens() {
        let d = DistancePred;
        // Paper example: "efficient" ... "task completion" with at most 10
        // intervening tokens.
        assert!(d.eval(&[p(39), p(42)], &[5]));
        assert!(d.eval(&[p(42), p(39)], &[5])); // symmetric
        assert!(!d.eval(&[p(3), p(25)], &[5]));
        assert!(d.eval(&[p(7), p(7)], &[0]));
    }

    #[test]
    fn distance_aggressive_advance_skips_to_feasible_region() {
        let d = DistancePred;
        let adv = d
            .positive_advance(&[p(3), p(25)], &[5], AdvanceMode::Aggressive)
            .unwrap();
        assert_eq!(adv.column, 0);
        assert_eq!(adv.min_offset, 19); // 25 - (5+1)
        let adv = d
            .positive_advance(&[p(3), p(25)], &[5], AdvanceMode::Conservative)
            .unwrap();
        assert_eq!(
            adv,
            Advance {
                column: 0,
                min_offset: 4
            }
        );
    }

    #[test]
    fn distance_advance_always_progresses() {
        let d = DistancePred;
        // Even when the aggressive bound would not move the cursor (huge d),
        // the advance must make strict progress.
        let adv = d
            .positive_advance(&[p(100), p(3)], &[1000], AdvanceMode::Aggressive)
            .unwrap();
        assert!(adv.min_offset > p(3).offset.min(p(100).offset));
        assert_eq!(adv.column, 1);
    }

    #[test]
    fn ordered_moves_second_past_first() {
        let o = OrderedPred;
        assert!(o.eval(&[p(3), p(9)], &[]));
        assert!(!o.eval(&[p(9), p(3)], &[]));
        assert!(!o.eval(&[p(4), p(4)], &[]));
        let adv = o
            .positive_advance(&[p(9), p(3)], &[], AdvanceMode::Aggressive)
            .unwrap();
        assert_eq!(
            adv,
            Advance {
                column: 1,
                min_offset: 10
            }
        );
    }

    #[test]
    fn samepara_advances_earlier_paragraph() {
        let s = SameParaPred;
        let a = Position::new(5, 0, 0);
        let b = Position::new(40, 3, 2);
        assert!(!s.eval(&[a, b], &[]));
        let adv = s
            .positive_advance(&[a, b], &[], AdvanceMode::Aggressive)
            .unwrap();
        assert_eq!(adv.column, 0);
        assert_eq!(adv.min_offset, 6);
        assert!(s.eval(&[Position::new(40, 3, 2), b], &[]));
    }

    #[test]
    fn window_is_nary() {
        let w = WindowPred::new(3);
        assert!(w.eval(&[p(10), p(12), p(14)], &[4]));
        assert!(!w.eval(&[p(10), p(12), p(20)], &[4]));
        let adv = w
            .positive_advance(&[p(10), p(12), p(20)], &[4], AdvanceMode::Aggressive)
            .unwrap();
        assert_eq!(adv.column, 0);
        assert_eq!(adv.min_offset, 16); // 20 - 4
    }

    #[test]
    fn samepos_jumps_directly() {
        let s = SamePosPred;
        assert!(s.eval(&[p(5), p(5)], &[]));
        assert!(!s.eval(&[p(5), p(9)], &[]));
        let adv = s
            .positive_advance(&[p(5), p(9)], &[], AdvanceMode::Aggressive)
            .unwrap();
        assert_eq!(
            adv,
            Advance {
                column: 0,
                min_offset: 9
            }
        );
    }

    #[test]
    fn not_distance_requires_wide_gap() {
        let nd = NotDistancePred;
        assert!(nd.eval(&[p(0), p(100)], &[40]));
        assert!(!nd.eval(&[p(0), p(30)], &[40]));
        let adv = nd.negative_advance(&[p(0), p(30)], &[40], 1).unwrap();
        assert_eq!(
            adv,
            Advance {
                column: 1,
                min_offset: 42
            }
        ); // 0 + 40 + 2
        assert!(nd.eval(&[p(0), p(42)], &[40]));
    }

    #[test]
    fn not_ordered_is_strict() {
        let no = NotOrderedPred;
        assert!(no.eval(&[p(9), p(3)], &[]));
        assert!(!no.eval(&[p(3), p(3)], &[]));
        assert!(!no.eval(&[p(3), p(9)], &[]));
        let adv = no.negative_advance(&[p(3), p(9)], &[], 0).unwrap();
        assert_eq!(
            adv,
            Advance {
                column: 0,
                min_offset: 10
            }
        );
    }

    #[test]
    fn diffpos_is_negative_not_positive() {
        let dp = DiffPosPred;
        assert_eq!(dp.kind(), PredKind::Negative);
        assert!(dp.eval(&[p(3), p(4)], &[]));
        assert!(!dp.eval(&[p(3), p(3)], &[]));
        assert!(dp
            .positive_advance(&[p(3), p(3)], &[], AdvanceMode::Aggressive)
            .is_none());
        let adv = dp.negative_advance(&[p(3), p(3)], &[], 1).unwrap();
        assert_eq!(
            adv,
            Advance {
                column: 1,
                min_offset: 4
            }
        );
    }

    #[test]
    fn exact_gap_is_general() {
        let eg = ExactGapPred;
        assert_eq!(eg.kind(), PredKind::General);
        assert!(eg.eval(&[p(10), p(14)], &[3]));
        assert!(eg.eval(&[p(14), p(10)], &[3]));
        assert!(!eg.eval(&[p(10), p(13)], &[3]));
        assert!(!eg.eval(&[p(10), p(10)], &[0]));
        assert!(eg
            .positive_advance(&[p(10), p(13)], &[3], AdvanceMode::Aggressive)
            .is_none());
        assert!(eg.negative_advance(&[p(10), p(13)], &[3], 0).is_none());
    }
}
