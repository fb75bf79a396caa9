//! Live segmented indexing: add and delete documents while serving every
//! query language, then persist the segment set and reload it.
//!
//! ```sh
//! cargo run --example live_updates
//! ```

use ftsl::core::{Ftsl, LiveConfig, RankModel};
use ftsl::index::{manifest, LiveIndex};
use ftsl::model::NodeId;

fn main() {
    // A live engine: writes buffer in memory, flushes seal them into
    // immutable segments, deletes tombstone, a background thread compacts.
    let engine = Ftsl::with_config(LiveConfig {
        flush_threshold: 4, // tiny, so this demo produces several segments
        ..LiveConfig::default()
    });

    println!("== writes ==");
    let ids: Vec<NodeId> = [
        "usability of a software measures how well the software supports users",
        "an efficient algorithm for task completion",
        "software task completion with efficient usability testing",
        "information retrieval systems rank documents by relevance",
        "full text search languages trade expressiveness for performance",
        "usability testing is part of software engineering practice",
    ]
    .iter()
    .map(|text| engine.add(text))
    .collect();
    println!(
        "added {} documents, ids {:?}..{:?}",
        ids.len(),
        ids[0],
        ids[5]
    );

    // Every engine of the paper runs over the live snapshot: BOOL...
    let hits = engine.search("'software' AND 'usability'").unwrap();
    println!("BOOL  'software' AND 'usability' -> {:?}", hits.node_ids());
    // ...positional predicates (PPRED)...
    let hits = engine
        .search(
            "SOME p1 SOME p2 (p1 HAS 'task' AND p2 HAS 'completion' \
             AND ordered(p1,p2) AND distance(p1,p2,0))",
        )
        .unwrap();
    println!("PPRED task..completion adjacent -> {:?}", hits.node_ids());
    // ...and ranked retrieval with collection-wide statistics.
    let top = engine
        .search_top_k("'software' OR 'usability'", RankModel::TfIdf, 3)
        .unwrap();
    println!("top-3 tf-idf:");
    for (node, score) in &top.hits {
        println!("  {score:.5}  node {}", node.0);
    }

    println!("\n== deletes are visible immediately; ids stay stable ==");
    engine.delete(ids[0]);
    let hits = engine.search("'software' AND 'usability'").unwrap();
    println!("after delete(0)              -> {:?}", hits.node_ids());
    let replacement = engine.add("a replacement document about software usability");
    println!("replacement got fresh id       {:?}", replacement);

    println!("\n== segments ==");
    engine.flush();
    for r in engine.segment_reports() {
        println!(
            "segment {:>2}: {} docs, {} tombstones, live ratio {:.2}, {}B resident",
            r.id,
            r.docs,
            r.tombstones,
            r.live_ratio(),
            r.resident_bytes
        );
    }
    // A held snapshot pins its view while the collection moves on.
    let pinned = engine.snapshot();
    engine.delete(ids[2]);
    println!(
        "pinned snapshot still sees {} live docs; fresh queries see {}",
        pinned.live_doc_count(),
        engine.snapshot().live_doc_count()
    );

    // Compact: tombstoned documents are physically dropped, survivors keep
    // their global ids.
    engine.merge();
    let reports = engine.segment_reports();
    println!(
        "after merge: {} segment(s), {} tombstones",
        reports.len(),
        reports.iter().map(|r| r.tombstones).sum::<usize>()
    );

    println!("\n== manifest v8 round-trip ==");
    let bytes = manifest::encode(engine.live_index());
    println!("encoded manifest: {} bytes", bytes.len());
    let reloaded: LiveIndex = manifest::decode(bytes).expect("valid manifest");
    println!(
        "reloaded: {} live docs, {} segment(s); next add gets id {:?}",
        reloaded.live_doc_count(),
        reloaded.segment_count(),
        reloaded.add_document("added after reload")
    );
}
