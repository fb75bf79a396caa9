//! Differential property test: [`ftsl_index::block::BlockCursor`] agrees
//! with a naive linear-scan reference on results **and access counters**
//! under random interleavings of `next_entry`/`seek`/`node`.
//!
//! The counters are the workspace's machine-independent cost model, so
//! they must account logical accesses exactly however the cursor batches
//! its bookkeeping: every entry returned is `entries`, every entry a seek
//! bypasses is `skipped`. (This test caught a real bug: the block cursor's
//! deferred entry-run accounting lost a run when a seek unpacked a new
//! block before the landing folded the old one.)

use ftsl_index::block::PostingArena;
use ftsl_index::PostingList;
use ftsl_model::{NodeId, Position};

fn sample(n: u32, stride: u32) -> PostingList {
    PostingList::from_entries(
        (0..n)
            .map(|i| (NodeId(i * stride), vec![Position::flat(i)]))
            .collect(),
    )
}

/// The reference cursor: an index into the decoded list, moved one entry
/// at a time, counting as the contract says.
struct Naive<'a> {
    list: &'a PostingList,
    /// Index of the next entry to look at.
    next: usize,
    node: Option<NodeId>,
    entries: u64,
    skipped: u64,
}

impl Naive<'_> {
    fn next_entry(&mut self) -> Option<NodeId> {
        self.node = (self.next < self.list.num_entries()).then(|| {
            self.entries += 1;
            self.next += 1;
            self.list.node_of(self.next - 1)
        });
        self.node
    }

    fn seek(&mut self, target: NodeId) -> Option<NodeId> {
        if self.node.is_some_and(|n| n >= target) {
            return self.node;
        }
        while self.next < self.list.num_entries() && self.list.node_of(self.next) < target {
            self.skipped += 1;
            self.next += 1;
        }
        self.next_entry()
    }
}

#[test]
fn counters_agree_on_random_op_sequences() {
    let mut state = 0x12345678u64;
    let mut rng = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as u32
    };
    for trial in 0..500 {
        let n = 1 + rng() % 400;
        let stride = 1 + rng() % 5;
        let list = sample(n, stride);
        let arena = PostingArena::from_posting(&list);
        let blocks = arena.list(0);
        let mut naive = Naive {
            list: &list,
            next: 0,
            node: None,
            entries: 0,
            skipped: 0,
        };
        let mut blk = blocks.cursor();
        let mut ops = Vec::new();
        for _ in 0..40 {
            let op = rng() % 3;
            ops.push(op);
            match op {
                0 => {
                    assert_eq!(
                        naive.next_entry(),
                        blk.next_entry(),
                        "trial {trial} {ops:?}"
                    );
                }
                1 => {
                    let t = NodeId(rng() % (n * stride + 10));
                    assert_eq!(naive.seek(t), blk.seek(t), "trial {trial} {ops:?}");
                }
                _ => {
                    assert_eq!(naive.node, blk.node(), "trial {trial} {ops:?}");
                }
            }
            let c = blk.counters();
            assert_eq!(
                (naive.entries, naive.skipped),
                (c.entries, c.skipped),
                "counters diverge: trial {trial} {ops:?}"
            );
        }
    }
}
