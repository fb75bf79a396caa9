//! Differential property test: both kinds of list cursor — a posting
//! list's [`ftsl_index::BlockCursor`] and a pair list's
//! [`ftsl_index::PairCursor`], one skip-list walk over one block codec —
//! agree with one naive linear-scan reference on results **and access
//! counters** under random interleavings of `next_entry` / `seek` /
//! `skip_block` / `node`.
//!
//! The counters are the workspace's machine-independent cost model, so
//! they must account logical accesses exactly however the cursor batches
//! its bookkeeping: every entry returned is `entries` (and, on a pair
//! list, `pair_entries`), every entry passed over is `skipped`, and every
//! block stepped over whole is `blocks_skipped`. (This test caught a real
//! bug: the block cursor's deferred entry-run accounting lost a run when a
//! seek unpacked a new block before the landing folded the old one.)
//!
//! Trials: `FTSL_PROPTEST_CASES`, default 500.

use ftsl_index::block::{PostingArena, BLOCK_ENTRIES};
use ftsl_index::{
    AccessCounters, BlockCursor, IndexBuilder, PairConfig, PairCursor, PairLookup, PostingList,
};
use ftsl_model::{Corpus, NodeId, Position};
use ftsl_testkit::prop_cases;

/// The moves both cursor kinds share, plus each kind's per-entry value
/// (a posting's term frequency, a pair's gap).
trait Walk {
    fn next_entry(&mut self) -> Option<NodeId>;
    fn seek(&mut self, target: NodeId) -> Option<NodeId>;
    fn skip_block(&mut self) -> Option<NodeId>;
    fn node(&self) -> Option<NodeId>;
    fn value(&mut self) -> u32;
    fn counters(&self) -> AccessCounters;
}

impl Walk for BlockCursor<'_> {
    fn next_entry(&mut self) -> Option<NodeId> {
        BlockCursor::next_entry(self)
    }
    fn seek(&mut self, target: NodeId) -> Option<NodeId> {
        BlockCursor::seek(self, target)
    }
    fn skip_block(&mut self) -> Option<NodeId> {
        BlockCursor::skip_block(self)
    }
    fn node(&self) -> Option<NodeId> {
        BlockCursor::node(self)
    }
    fn value(&mut self) -> u32 {
        self.tf()
    }
    fn counters(&self) -> AccessCounters {
        BlockCursor::counters(self)
    }
}

impl Walk for PairCursor<'_> {
    fn next_entry(&mut self) -> Option<NodeId> {
        PairCursor::next_entry(self)
    }
    fn seek(&mut self, target: NodeId) -> Option<NodeId> {
        PairCursor::seek(self, target)
    }
    fn skip_block(&mut self) -> Option<NodeId> {
        PairCursor::skip_block(self)
    }
    fn node(&self) -> Option<NodeId> {
        PairCursor::node(self)
    }
    fn value(&mut self) -> u32 {
        self.gap()
    }
    fn counters(&self) -> AccessCounters {
        PairCursor::counters(self)
    }
}

/// The reference cursor: an index into the `(node, value)` entries, moved
/// one entry at a time, counting as the contract says.
struct Naive<'a> {
    list: &'a [(u32, u32)],
    /// Index of the next entry to look at (the list's length once done).
    next: usize,
    /// Index of the current entry.
    cur: Option<usize>,
    started: bool,
    entries: u64,
    skipped: u64,
    blocks_skipped: u64,
}

impl<'a> Naive<'a> {
    fn new(list: &'a [(u32, u32)]) -> Self {
        Naive {
            list,
            next: 0,
            cur: None,
            started: false,
            entries: 0,
            skipped: 0,
            blocks_skipped: 0,
        }
    }

    fn blocks(&self) -> usize {
        self.list.len().div_ceil(BLOCK_ENTRIES)
    }

    fn node(&self) -> Option<NodeId> {
        self.cur.map(|i| NodeId(self.list[i].0))
    }

    /// Land on entry `i`, or run off the end when there is none.
    fn land(&mut self, i: Option<usize>) -> Option<NodeId> {
        self.started = true;
        self.cur = i;
        match i {
            Some(i) => {
                self.entries += 1;
                self.next = i + 1;
            }
            None => self.next = self.list.len(),
        }
        self.node()
    }

    fn next_entry(&mut self) -> Option<NodeId> {
        let i = (self.next < self.list.len()).then_some(self.next);
        self.land(i)
    }

    fn seek(&mut self, target: NodeId) -> Option<NodeId> {
        if self.node().is_some_and(|n| n >= target) {
            return self.node();
        }
        let from = self.next;
        let landing = (from..self.list.len()).find(|&i| self.list[i].0 >= target.0);
        let to = landing.unwrap_or(self.list.len());
        self.skipped += (to - from) as u64;
        // Blocks passed over whole: those from the first one the walk had
        // not entered up to the landing block (or the end).
        let to_block = landing.map_or(self.blocks(), |i| i / BLOCK_ENTRIES);
        let entered = from.div_ceil(BLOCK_ENTRIES);
        self.blocks_skipped += to_block.saturating_sub(entered) as u64;
        self.land(landing)
    }

    fn skip_block(&mut self) -> Option<NodeId> {
        let block = match self.cur {
            Some(i) => i / BLOCK_ENTRIES,
            None if !self.started && !self.list.is_empty() => 0,
            None => return None,
        };
        let next = block + 1;
        let first = (next * BLOCK_ENTRIES).min(self.list.len());
        let passed = (first - self.next) as u64;
        self.skipped += passed;
        self.blocks_skipped += u64::from(passed > 0);
        self.land((next < self.blocks()).then_some(first))
    }
}

fn rng(seed: u64) -> impl FnMut() -> u32 {
    let mut state = seed;
    move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as u32
    }
}

/// Drive `cursor` and a fresh reference over `list` through `ops` (each an
/// op code and a seek target), comparing results and counters after every
/// step.
fn drive(
    kind: &str,
    trial: usize,
    list: &[(u32, u32)],
    ops: &[(u32, u32)],
    pair: bool,
    cursor: &mut impl Walk,
) {
    let mut naive = Naive::new(list);
    for (step, &(op, target)) in ops.iter().enumerate() {
        let at = || format!("{kind} trial {trial} step {step}: {:?}", &ops[..=step]);
        match op {
            0 => assert_eq!(cursor.next_entry(), naive.next_entry(), "{}", at()),
            1 => assert_eq!(
                cursor.seek(NodeId(target)),
                naive.seek(NodeId(target)),
                "{}",
                at()
            ),
            2 => assert_eq!(cursor.skip_block(), naive.skip_block(), "{}", at()),
            _ => {
                assert_eq!(cursor.node(), naive.node(), "{}", at());
                if let Some(i) = naive.cur {
                    assert_eq!(cursor.value(), list[i].1, "{}", at());
                }
            }
        }
        let c = cursor.counters();
        let pair_entries = if pair { naive.entries } else { 0 };
        assert_eq!(
            (c.entries, c.skipped, c.blocks_skipped, c.pair_entries),
            (
                naive.entries,
                naive.skipped,
                naive.blocks_skipped,
                pair_entries
            ),
            "counters diverge: {}",
            at()
        );
    }
}

/// The pair list `(a, b)` of a corpus holding, for each `(node, gap)`
/// entry, document `node` with `b` `gap` offsets after `a` (and empty
/// documents between), as its index builds it.
fn pair_corpus(list: &[(u32, u32)]) -> Corpus {
    let last = list.last().map_or(0, |&(node, _)| node);
    let mut texts = vec![String::new(); last as usize + 1];
    for &(node, gap) in list {
        texts[node as usize] = format!("a {}b", "x ".repeat(gap as usize - 1));
    }
    Corpus::from_texts(&texts)
}

#[test]
fn counters_agree_on_random_op_sequences() {
    let mut rng = rng(0x12345678);
    for trial in 0..prop_cases(500) as usize {
        let n = 1 + rng() % 400;
        let stride = 1 + rng() % 5;
        let mut node = rng() % 3;
        let list: Vec<(u32, u32)> = (0..n)
            .map(|_| {
                let entry = (node, 1 + rng() % 3);
                node += 1 + rng() % stride;
                entry
            })
            .collect();
        let ops: Vec<(u32, u32)> = (0..40).map(|_| (rng() % 4, rng() % (node + 10))).collect();

        let postings = PostingList::from_entries(
            list.iter()
                .map(|&(node, tf)| (NodeId(node), (0..tf).map(Position::flat).collect()))
                .collect(),
        );
        let arena = PostingArena::from_posting(&postings);
        drive(
            "posting",
            trial,
            &list,
            &ops,
            false,
            &mut arena.list(0).cursor(),
        );

        let corpus = pair_corpus(&list);
        let index = IndexBuilder::new()
            .pair_config(PairConfig {
                window: 4,
                df_cutoff: 0,
            })
            .build(&corpus);
        let (a, b) = (corpus.token_id("a").unwrap(), corpus.token_id("b").unwrap());
        let PairLookup::List(pairs) = index.pairs().lookup(a, b) else {
            panic!("trial {trial}: the pair (a, b) is indexed");
        };
        assert_eq!(pairs.to_entries(), list, "trial {trial}");
        drive("pair", trial, &list, &ops, true, &mut pairs.cursor());
    }
}
