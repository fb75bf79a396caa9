//! Brute-force checkers of the positive- and negative-predicate definitions,
//! and of the gap bound a predicate declares.
//!
//! These enumerate small position universes and verify the *semantic*
//! properties that the streaming engines rely on. They are deliberately
//! exponential — they exist so property tests can certify each built-in's
//! [`crate::PredKind`] claim, each advance function's soundness and each
//! [`crate::GapBound`] declaration.

use crate::{AdvanceMode, Predicate};
use ftsl_model::Position;

/// Every failing tuple's advance must (a) make strict progress on the chosen
/// column and (b) be *sound*: no satisfying tuple exists with the chosen
/// column's offset in `[current, min_offset)` while every coordinate is ≥ the
/// current tuple (the paper's Definition 1 box condition).
///
/// `universe` is the candidate position set per coordinate (positions of one
/// node). Returns the first violating tuple, if any.
pub fn check_positive_advance_sound(
    pred: &dyn Predicate,
    universe: &[Position],
    consts: &[i64],
    mode: AdvanceMode,
) -> Option<Vec<Position>> {
    let n = pred.arity();
    let mut tuple = vec![0usize; n];
    loop {
        let positions: Vec<Position> = tuple.iter().map(|&i| universe[i]).collect();
        if !pred.eval(&positions, consts) {
            let Some(adv) = pred.positive_advance(&positions, consts, mode) else {
                return Some(positions);
            };
            // (a) strict progress
            if adv.min_offset <= positions[adv.column].offset {
                return Some(positions);
            }
            // (b) soundness: no solution in the skipped box
            if let Some(sol) = find_solution_in_box(
                pred,
                universe,
                consts,
                &positions,
                adv.column,
                adv.min_offset,
            ) {
                let _ = sol;
                return Some(positions);
            }
        }
        if !next_tuple(&mut tuple, universe.len()) {
            return None;
        }
    }
}

fn find_solution_in_box(
    pred: &dyn Predicate,
    universe: &[Position],
    consts: &[i64],
    current: &[Position],
    column: usize,
    min_offset: u32,
) -> Option<Vec<Position>> {
    let n = current.len();
    let mut tuple = vec![0usize; n];
    loop {
        let cand: Vec<Position> = tuple.iter().map(|&i| universe[i]).collect();
        let in_box = cand[column].offset >= current[column].offset
            && cand[column].offset < min_offset
            && (0..n).all(|j| j == column || cand[j].offset >= current[j].offset);
        if in_box && pred.eval(&cand, consts) {
            return Some(cand);
        }
        if !next_tuple(&mut tuple, universe.len()) {
            return None;
        }
    }
}

/// The negative-predicate property (Section 5.6.1): if a tuple fails, every
/// tuple *bounded* by its sorted coordinates also fails — i.e. the predicate
/// can only be satisfied by extending the interval beyond the current
/// maximum.
pub fn check_negative_property(
    pred: &dyn Predicate,
    universe: &[Position],
    consts: &[i64],
) -> Option<Vec<Position>> {
    let n = pred.arity();
    let mut tuple = vec![0usize; n];
    loop {
        let positions: Vec<Position> = tuple.iter().map(|&i| universe[i]).collect();
        if !pred.eval(&positions, consts) {
            // The ordering i1..in of Section 5.6.1: coordinate indices
            // sorted by offset (ties broken by index).
            let mut perm: Vec<usize> = (0..n).collect();
            perm.sort_by_key(|&i| (positions[i].offset, i));
            if let Some(bad) = find_bounded_solution(pred, universe, consts, &positions, &perm) {
                return Some(bad);
            }
        }
        if !next_tuple(&mut tuple, universe.len()) {
            return None;
        }
    }
}

/// Search for a *satisfying* tuple inside the paper's `Bounded` region of a
/// failing tuple: candidates that preserve the coordinate ordering `perm`,
/// dominate the failing tuple coordinate-wise on all but the largest
/// coordinate, and whose largest coordinate does not exceed the failing
/// tuple's maximum. The negative-predicate property demands this search
/// always comes up empty.
fn find_bounded_solution(
    pred: &dyn Predicate,
    universe: &[Position],
    consts: &[i64],
    current: &[Position],
    perm: &[usize],
) -> Option<Vec<Position>> {
    let n = current.len();
    let mut tuple = vec![0usize; n];
    loop {
        let cand: Vec<Position> = tuple.iter().map(|&i| universe[i]).collect();
        let mut bounded = true;
        for k in 0..n - 1 {
            let (ik, ik1) = (perm[k], perm[k + 1]);
            if cand[ik].offset < current[ik].offset || cand[ik].offset > cand[ik1].offset {
                bounded = false;
                break;
            }
        }
        let last = perm[n - 1];
        if cand[last].offset < current[perm[0]].offset || cand[last].offset > current[last].offset {
            bounded = false;
        }
        if bounded && pred.eval(&cand, consts) {
            return Some(cand);
        }
        if !next_tuple(&mut tuple, universe.len()) {
            return None;
        }
    }
}

/// A declared [`crate::GapBound`] must be (a) *sound*: every satisfying
/// pair of `universe` is at most `max` offsets apart, since the word-pair
/// index filters on exactly that; and, when declared exact, (b) *tight*:
/// every pair of distinct positions at most `max` apart satisfies the
/// predicate in both argument orders, since an exact bound replaces it.
/// Only a two-argument predicate may declare a bound. Returns the first
/// violating pair (empty for a declaration of another arity), if any.
pub fn check_gap_bound(
    pred: &dyn Predicate,
    universe: &[Position],
    consts: &[i64],
) -> Option<Vec<Position>> {
    let bound = pred.gap_bound(consts)?;
    if pred.arity() != 2 {
        return Some(Vec::new());
    }
    for &x in universe {
        for &y in universe {
            let gap = x.offset.abs_diff(y.offset);
            let holds = pred.eval(&[x, y], consts);
            let unsound = holds && gap > bound.max;
            let loose = bound.exact
                && (1..=bound.max).contains(&gap)
                && !(holds && pred.eval(&[y, x], consts));
            if unsound || loose {
                return Some(vec![x, y]);
            }
        }
    }
    None
}

/// Odometer-style tuple enumeration; returns false when wrapped around.
fn next_tuple(tuple: &mut [usize], base: usize) -> bool {
    for slot in tuple.iter_mut() {
        *slot += 1;
        if *slot < base {
            return true;
        }
        *slot = 0;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::*;

    fn universe() -> Vec<Position> {
        // Structured universe: 3 paragraphs, 2 sentences each.
        (0u32..12)
            .map(|o| Position::new(o * 3, o / 2, o / 4))
            .collect()
    }

    #[test]
    fn positive_builtins_have_sound_advances() {
        let u = universe();
        for mode in [AdvanceMode::Conservative, AdvanceMode::Aggressive] {
            assert_eq!(
                check_positive_advance_sound(&DistancePred, &u, &[4], mode),
                None
            );
            assert_eq!(
                check_positive_advance_sound(&OrderedPred, &u, &[], mode),
                None
            );
            assert_eq!(
                check_positive_advance_sound(&SameParaPred, &u, &[], mode),
                None
            );
            assert_eq!(
                check_positive_advance_sound(&SameSentPred, &u, &[], mode),
                None
            );
            assert_eq!(
                check_positive_advance_sound(&WindowPred::new(2), &u, &[7], mode),
                None
            );
            assert_eq!(
                check_positive_advance_sound(&SamePosPred, &u, &[], mode),
                None
            );
        }
    }

    #[test]
    fn negative_builtins_satisfy_negative_property() {
        let u = universe();
        assert_eq!(check_negative_property(&NotDistancePred, &u, &[4]), None);
        assert_eq!(check_negative_property(&NotOrderedPred, &u, &[]), None);
        assert_eq!(check_negative_property(&DiffPosPred, &u, &[]), None);
        assert_eq!(check_negative_property(&NotSameParaPred, &u, &[]), None);
        assert_eq!(check_negative_property(&NotSameSentPred, &u, &[]), None);
    }

    #[test]
    fn diffpos_fails_the_positive_property() {
        // diffpos has no positive advance at all; the checker reports the
        // diagonal tuple as the witness.
        let u = universe();
        let witness = check_positive_advance_sound(&DiffPosPred, &u, &[], AdvanceMode::Aggressive);
        assert!(witness.is_some());
    }

    /// Every built-in's declaration, over every pair of a contiguous
    /// universe and constants on both sides of each bound's edge cases.
    #[test]
    fn declared_gap_bounds_are_sound_and_exact_ones_tight() {
        // Offsets 0..14, two sentences a paragraph.
        let u: Vec<Position> = (0u32..14).map(|o| Position::new(o, o / 3, o / 6)).collect();
        let mut preds = builtins();
        preds.push(std::sync::Arc::new(WindowPred::new(3)));
        for pred in &preds {
            let consts: Vec<Vec<i64>> = match pred.num_consts() {
                0 => vec![vec![]],
                _ => (-2..=15).map(|c| vec![c]).collect(),
            };
            for c in &consts {
                assert_eq!(
                    check_gap_bound(pred.as_ref(), &u, c),
                    None,
                    "{}{c:?}",
                    pred.name()
                );
            }
        }
        let bound = |pred: &dyn Predicate, c: i64| pred.gap_bound(&[c]).map(|b| (b.max, b.exact));
        assert_eq!(bound(&DistancePred, 3), Some((4, true)));
        assert_eq!(bound(&DistancePred, -1), None);
        assert_eq!(bound(&WindowPred::new(2), 3), Some((3, true)));
        assert_eq!(bound(&WindowPred::new(2), 0), None);
        assert_eq!(bound(&WindowPred::new(3), 3), None);
        assert_eq!(bound(&ExactGapPred, 3), Some((4, false)));
        assert_eq!(bound(&NotDistancePred, 3), None);
        assert_eq!(OrderedPred.gap_bound(&[]), None);
    }

    /// `distance` declaring one gap too few is unsound; `exact_gap`
    /// declaring its bound exact is loose.
    #[test]
    fn wrong_gap_bounds_are_caught() {
        #[derive(Debug)]
        struct Declares(&'static dyn Predicate, i64, bool);
        impl Predicate for Declares {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn arity(&self) -> usize {
                2
            }
            fn num_consts(&self) -> usize {
                1
            }
            fn kind(&self) -> crate::PredKind {
                self.0.kind()
            }
            fn eval(&self, positions: &[Position], consts: &[i64]) -> bool {
                self.0.eval(positions, consts)
            }
            fn gap_bound(&self, consts: &[i64]) -> Option<crate::GapBound> {
                Some(crate::GapBound {
                    max: (consts[0] + self.1) as u32,
                    exact: self.2,
                })
            }
        }
        let u: Vec<Position> = (0u32..8).map(Position::flat).collect();
        let unsound = Declares(&DistancePred, 0, true);
        assert!(check_gap_bound(&unsound, &u, &[3]).is_some());
        let loose = Declares(&ExactGapPred, 1, true);
        assert!(check_gap_bound(&loose, &u, &[3]).is_some());
        assert_eq!(
            check_gap_bound(&Declares(&ExactGapPred, 1, false), &u, &[3]),
            None
        );
    }

    #[test]
    fn exact_gap_fails_both_properties() {
        // g = 5 means a satisfied pair is 6 offsets apart, which exists in
        // the multiples-of-3 universe; the failing pair (0, 33) then has a
        // satisfying tuple strictly inside its bounded region.
        let u = universe();
        assert!(
            check_positive_advance_sound(&ExactGapPred, &u, &[5], AdvanceMode::Aggressive)
                .is_some()
        );
        assert!(check_negative_property(&ExactGapPred, &u, &[5]).is_some());
    }
}
