//! One vocabulary per live index: the write buffer, every segment it seals
//! (buffer chunks and flushes), every merge output, every snapshot and a
//! decoded manifest hold the same `TokenInterner` allocation, and the
//! buffer copies it only when it interns while it is shared.

use ftsl_index::live::{LiveConfig, LiveIndex};
use ftsl_index::manifest;
use ftsl_model::NodeId;
use std::sync::Arc;

fn manual() -> LiveConfig {
    LiveConfig {
        background_merge: false,
        ..LiveConfig::default()
    }
}

/// A buffer chunk and a merge share the writer's vocabulary rather than
/// copying it; the writer copies it only when it interns again, so what a
/// segment holds never changes.
#[test]
fn segments_share_one_vocabulary_after_merge_all() {
    let live = LiveIndex::with_config(manual());
    for i in 0..3 {
        live.add_document(&format!("shared tok{i}"));
        live.flush();
    }
    live.add_document("buffered newest");
    let before = live.snapshot();
    let chunk = before.segments().last().unwrap().data().corpus();
    assert!(std::ptr::eq(
        Arc::as_ptr(chunk.interner()),
        before.vocabulary()
    ));
    let first = before.segments()[0].data().corpus().interner();
    assert!(
        !std::ptr::eq(Arc::as_ptr(first), before.vocabulary()),
        "copied on intern"
    );
    assert_eq!(first.get("tok1"), None, "a sealed vocabulary never grows");

    assert!(live.merge_all());
    let snap = live.snapshot();
    assert_eq!(snap.num_segments(), 1);
    let merged = snap.segments()[0].data();
    assert!(std::ptr::eq(
        Arc::as_ptr(merged.corpus().interner()),
        snap.vocabulary()
    ));
    assert_eq!(merged.index().num_tokens(), snap.vocabulary().len());
    assert!(snap.vocabulary().get("newest").is_some());
}

/// A merge takes the writer's vocabulary when it is taken, so its output
/// can be wider than every input: tokens only the buffer uses get empty
/// lists there.
#[test]
fn merge_output_takes_the_writers_vocabulary() {
    let live = LiveIndex::with_config(LiveConfig {
        merge_fanin: 2,
        ..manual()
    });
    live.add_document("alpha");
    live.flush();
    live.add_document("beta");
    live.flush();
    live.add_document("gamma buffered");
    assert!(live.maybe_merge());
    let snap = live.snapshot();
    let merged = snap.segments()[0].data();
    assert_eq!(merged.num_docs(), 2);
    let gamma = snap.vocabulary().get("gamma").unwrap();
    assert_eq!(merged.index().num_tokens(), snap.vocabulary().len());
    assert_eq!(merged.index().df(gamma), 0);
}

/// Decoding interns the name table once, and every segment and a snapshot
/// share that one allocation.
#[test]
fn decoded_segments_share_one_vocabulary() {
    let live = LiveIndex::with_config(manual());
    live.add_document("usability of a software");
    live.flush();
    live.add_document("task completion experiment");
    live.flush();
    live.delete_node(NodeId(0));
    live.add_document("buffered document, flushed by encode");
    let back = manifest::decode_with(manifest::encode(&live), manual()).expect("decode");
    let snap = back.snapshot();
    assert_eq!(snap.num_segments(), 3);
    for seg in snap.segments() {
        let shared = seg.data().corpus().interner();
        assert!(
            std::ptr::eq(Arc::as_ptr(shared), snap.vocabulary()),
            "one allocation"
        );
        assert!(seg.data().index().num_tokens() <= shared.len());
    }
    let first = snap.segments()[0].data();
    assert!(first.index().num_tokens() < snap.vocabulary().len());
}
