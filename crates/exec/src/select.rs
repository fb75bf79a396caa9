//! Predicate selection cursors.
//!
//! Positive predicates follow Algorithm 2: `advancePosUntilSat` repeatedly
//! evaluates the predicate and, on failure, advances the cursor named by the
//! predicate's `f_i` function. Negative predicates follow Algorithm 7: the
//! selection first restores the evaluation thread's ordering among its
//! argument columns, then — on failure — moves only the cursor holding the
//! *largest* position in that ordering. Per-thread enforcement of the
//! ordering at the predicate's own arguments is exactly what makes the
//! negative-advance skip sound (Section 5.6.4); tuples violating the
//! ordering are found by the thread with the matching permutation.

use crate::cursor::FtCursor;
use ftsl_index::AccessCounters;
use ftsl_model::{NodeId, Position};
use ftsl_predicates::{AdvanceMode, Predicate};
use std::sync::Arc;

/// σ_pred over a streaming input.
pub struct SelectCursor<'a> {
    input: Box<dyn FtCursor + 'a>,
    pred: Arc<dyn Predicate>,
    arg_cols: Vec<usize>,
    consts: Vec<i64>,
    mode: AdvanceMode,
    /// For negative predicates: argument indices sorted by the evaluation
    /// thread's ordering rank, ascending. `None` for positive predicates.
    neg_order: Option<Vec<usize>>,
    /// Scratch buffer for predicate arguments.
    args: Vec<Position>,
}

impl<'a> SelectCursor<'a> {
    /// A positive-predicate selection (Algorithm 2).
    pub fn positive(
        input: Box<dyn FtCursor + 'a>,
        pred: Arc<dyn Predicate>,
        arg_cols: Vec<usize>,
        consts: Vec<i64>,
        mode: AdvanceMode,
    ) -> Self {
        let n = arg_cols.len();
        SelectCursor {
            input,
            pred,
            arg_cols,
            consts,
            mode,
            neg_order: None,
            args: vec![Position::flat(0); n],
        }
    }

    /// A negative-predicate selection (Algorithm 7). `neg_order` lists the
    /// predicate's argument indices from smallest to largest thread rank.
    pub fn negative(
        input: Box<dyn FtCursor + 'a>,
        pred: Arc<dyn Predicate>,
        arg_cols: Vec<usize>,
        consts: Vec<i64>,
        neg_order: Vec<usize>,
    ) -> Self {
        let n = arg_cols.len();
        SelectCursor {
            input,
            pred,
            arg_cols,
            consts,
            mode: AdvanceMode::Aggressive,
            neg_order: Some(neg_order),
            args: vec![Position::flat(0); n],
        }
    }

    fn load_args(&mut self) {
        for (slot, &col) in self.args.iter_mut().zip(&self.arg_cols) {
            *slot = self.input.position(col);
        }
    }

    /// `advancePosUntilSat` (Algorithm 2 / Algorithm 7).
    fn advance_until_sat(&mut self) -> bool {
        loop {
            self.load_args();
            // Negative mode: restore the thread ordering among our argument
            // columns before judging the predicate.
            if let Some(order) = self.neg_order.as_ref() {
                let mut repair: Option<(usize, u32)> = None;
                for w in order.windows(2) {
                    let (earlier, later) = (w[0], w[1]);
                    if self.args[later].offset < self.args[earlier].offset {
                        repair = Some((later, self.args[earlier].offset));
                        break;
                    }
                }
                if let Some((arg_idx, min)) = repair {
                    if !self.input.advance_position(self.arg_cols[arg_idx], min) {
                        return false;
                    }
                    continue;
                }
            }
            if self.pred.eval(&self.args, &self.consts) {
                return true;
            }
            let adv = match self.neg_order.as_ref() {
                None => self
                    .pred
                    .positive_advance(&self.args, &self.consts, self.mode)
                    .expect("positive predicate provides advances"),
                Some(order) => {
                    let move_arg = *order.last().expect("non-empty ordering");
                    self.pred
                        .negative_advance(&self.args, &self.consts, move_arg)
                        .expect("negative predicate provides advances")
                }
            };
            if !self
                .input
                .advance_position(self.arg_cols[adv.column], adv.min_offset)
            {
                return false;
            }
        }
    }
}

impl FtCursor for SelectCursor<'_> {
    fn arity(&self) -> usize {
        self.input.arity()
    }

    fn advance_node(&mut self) -> Option<NodeId> {
        // Algorithm 2 lines 2-6.
        loop {
            self.input.advance_node()?;
            if self.advance_until_sat() {
                return self.input.node();
            }
        }
    }

    fn node(&self) -> Option<NodeId> {
        self.input.node()
    }

    fn position(&self, col: usize) -> Position {
        self.input.position(col)
    }

    fn advance_position(&mut self, col: usize, min_offset: u32) -> bool {
        // Algorithm 2 lines 8-12.
        if !self.input.advance_position(col, min_offset) {
            return false;
        }
        self.advance_until_sat()
    }

    fn seek_node(&mut self, target: NodeId) -> Option<NodeId> {
        if let Some(n) = self.input.node() {
            if n >= target {
                return Some(n);
            }
        }
        // Seek the input past the non-candidate range, then fall back to the
        // regular satisfy-or-advance loop from the landing node.
        self.input.seek_node(target)?;
        if self.advance_until_sat() {
            return self.input.node();
        }
        self.advance_node()
    }

    fn counters(&self) -> AccessCounters {
        self.input.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::ScanCursor;
    use crate::join::JoinCursor;
    use ftsl_index::IndexBuilder;
    use ftsl_model::{Corpus, NodeId};
    use ftsl_predicates::PredicateRegistry;

    fn pred(reg: &PredicateRegistry, name: &str) -> Arc<dyn Predicate> {
        reg.get_shared(reg.lookup(name).unwrap())
    }

    fn two_token_join<'a>(
        corpus: &Corpus,
        index: &'a ftsl_index::InvertedIndex,
        t1: &str,
        t2: &str,
    ) -> Box<dyn FtCursor + 'a> {
        let a = corpus.token_id(t1).unwrap();
        let b = corpus.token_id(t2).unwrap();
        Box::new(JoinCursor::new(
            Box::new(ScanCursor::new(index.block_list(a))),
            Box::new(ScanCursor::new(index.block_list(b))),
        ))
    }

    #[test]
    fn distance_selection_matches_section_5_5_1_walkthrough() {
        // Positions mirror Figure 2: usability at 3,12,39; software at 25,
        // 29, 42 in node 0 — only (39, 42) is within distance 5.
        let text =
            "u x x x x x x x x x x x u x x x x x x x x x x x x s x x x s x x x x x x x x x u x x s";
        let corpus = Corpus::from_texts(&[text]);
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();
        let join = two_token_join(&corpus, &index, "u", "s");
        let mut sel = SelectCursor::positive(
            join,
            pred(&reg, "distance"),
            vec![0, 1],
            vec![5],
            AdvanceMode::Aggressive,
        );
        assert_eq!(sel.advance_node(), Some(NodeId(0)));
        assert_eq!(sel.position(0).offset, 39);
        assert_eq!(sel.position(1).offset, 42);
        assert_eq!(sel.advance_node(), None);
    }

    #[test]
    fn selection_skips_nodes_without_solutions() {
        let corpus = Corpus::from_texts(&[
            "a x x x x x x x x b", // too far for distance 2
            "a b",                 // adjacent
        ]);
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();
        let join = two_token_join(&corpus, &index, "a", "b");
        let mut sel = SelectCursor::positive(
            join,
            pred(&reg, "distance"),
            vec![0, 1],
            vec![2],
            AdvanceMode::Aggressive,
        );
        assert_eq!(sel.advance_node(), Some(NodeId(1)));
        assert_eq!(sel.advance_node(), None);
    }

    #[test]
    fn negative_selection_finds_wide_gaps() {
        // not_distance(a, b, 4): need more than 4 intervening tokens.
        let corpus = Corpus::from_texts(&[
            "a b",             // gap 0: no
            "a x x x x x x b", // 6 intervening: yes
            "b x x x x x x a", // reversed, 6 intervening: yes
        ]);
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();

        let mut found = Vec::new();
        // Thread 1: order (arg0 <= arg1); thread 2: (arg1 <= arg0).
        for order in [vec![0usize, 1], vec![1, 0]] {
            let join = two_token_join(&corpus, &index, "a", "b");
            let mut sel = SelectCursor::negative(
                join,
                pred(&reg, "not_distance"),
                vec![0, 1],
                vec![4],
                order,
            );
            while let Some(n) = sel.advance_node() {
                found.push(n.0);
            }
        }
        found.sort_unstable();
        found.dedup();
        assert_eq!(found, vec![1, 2]);
    }
}
