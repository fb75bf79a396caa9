//! Random write histories for the differential suites: a sequence of
//! adds, deletes, flushes, merges and reads replayed against an engine,
//! with the bookkeeping needed to rebuild the survivors from scratch.
//! Reads between writes split the write buffer into chunks, so histories
//! also reach buffered deletes in an older chunk, flushes after several
//! chunks, and the collapse back to one chunk at the merge fan-in.

use ftsl_core::{Ftsl, LiveConfig};
use ftsl_model::NodeId;
use proptest::prelude::*;
use std::collections::HashMap;

pub const VOCAB: [&str; 6] = ["alpha", "beta", "gamma", "delta", "eps", "zeta"];

/// One mutation against the engine.
#[derive(Clone, Debug)]
pub enum Op {
    /// Add a document rendered from vocabulary indices (6/7 insert sentence
    /// breaks, 8 paragraph breaks, so positional predicates have structure).
    Add(Vec<usize>),
    /// Delete the `i % docs`-th ever-added document (no-op when already
    /// deleted).
    Delete(usize),
    /// Seal the write buffer.
    Flush,
    /// One round of the tiered merge policy.
    MergeTier,
    /// Full compaction.
    MergeAll,
    /// Snapshot mid-history and search one vocabulary token, checked
    /// against the live documents holding it.
    Read(usize),
}

pub fn render(tokens: &[usize]) -> String {
    let mut text = String::new();
    for &t in tokens {
        match t {
            0..=5 => {
                text.push_str(VOCAB[t]);
                text.push(' ');
            }
            6 | 7 => text.push_str(". "),
            _ => text.push_str("\n\n"),
        }
    }
    text
}

pub fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            5 => proptest::collection::vec(0usize..9, 0..12).prop_map(Op::Add),
            3 => (0usize..64).prop_map(Op::Delete),
            2 => Just(Op::Flush),
            1 => Just(Op::MergeTier),
            1 => Just(Op::MergeAll),
            3 => (0usize..VOCAB.len()).prop_map(Op::Read),
        ],
        1..32,
    )
}

pub fn manual_config() -> LiveConfig {
    LiveConfig {
        background_merge: false,
        // Small fan-in and threshold so random sequences actually exercise
        // auto-flush and tiered merging, and snapshots have several
        // segments with tombstones in them. Fan-in 3 lets the write buffer
        // show two chunks before they collapse into one.
        flush_threshold: 6,
        merge_fanin: 3,
    }
}

/// Every document ever added: `(global id, text, still alive)`.
pub type Docs = Vec<(u32, String, bool)>;

pub fn apply_one(engine: &Ftsl, op: &Op, docs: &mut Docs) {
    match op {
        Op::Add(tokens) => {
            let text = render(tokens);
            let node = engine.add(&text);
            docs.push((node.0, text, true));
        }
        Op::Delete(i) => {
            if !docs.is_empty() {
                let i = i % docs.len();
                if docs[i].2 {
                    assert!(engine.delete(NodeId(docs[i].0)), "live doc must delete");
                    docs[i].2 = false;
                }
            }
        }
        Op::Flush => {
            engine.flush();
        }
        Op::MergeTier => {
            engine.live_index().maybe_merge();
        }
        Op::MergeAll => {
            engine.merge();
        }
        Op::Read(t) => {
            let token = VOCAB[*t];
            let hits = engine
                .search(&format!("'{token}'"))
                .expect("mid-history read");
            let want: Vec<u32> = docs
                .iter()
                .filter(|(_, text, alive)| *alive && text.split_whitespace().any(|w| w == token))
                .map(|(g, _, _)| *g)
                .collect();
            assert_eq!(hits.node_ids(), want, "mid-history read of '{token}'");
        }
    }
}

/// The surviving `(global id, text)` pairs in ascending global order.
pub fn survivors(docs: &Docs) -> Vec<(u32, String)> {
    docs.iter()
        .filter(|(_, _, alive)| *alive)
        .map(|(g, t, _)| (*g, t.clone()))
        .collect()
}

/// Replay `ops` on a fresh engine; returns it plus the survivors.
pub fn apply(ops: &[Op]) -> (Ftsl, Vec<(u32, String)>) {
    let engine = Ftsl::with_config(manual_config());
    let mut docs = Docs::new();
    for op in ops {
        apply_one(&engine, op, &mut docs);
    }
    let survivors = survivors(&docs);
    (engine, survivors)
}

/// Global id in the churned engine → dense id in a rebuild of `survivors`.
pub fn dense_ids(survivors: &[(u32, String)]) -> HashMap<u32, u32> {
    survivors
        .iter()
        .enumerate()
        .map(|(dense, &(global, _))| (global, dense as u32))
        .collect()
}
