//! Quickstart: index a few documents and query them in all three languages.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use ftsl::core::{Ftsl, RankModel};
use ftsl::exec::engine::EngineKind;
use ftsl::lang::Mode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The corpus: the paper's Figure 1 book element plus a few articles.
    let engine = Ftsl::from_texts(&[
        ftsl::model::corpus::figure1_book_text(),
        "an efficient algorithm guarantees task completion in bounded time",
        "software testing requires careful usability testing of the software",
        "completion of the task was efficient. the software helped",
    ]);

    let snapshot = engine.snapshot();
    println!("indexed {} documents", snapshot.live_doc_count());
    // The texts above were sealed as the engine's first segment.
    let stats = snapshot.segments()[0].data().index().stats();
    println!(
        "index: vocabulary={} entries_per_token<={} pos_per_entry<={}\n",
        stats.vocabulary, stats.entries_per_token, stats.pos_per_entry
    );

    // BOOL: keyword conjunction with negation (Section 4.1).
    let hits = engine.search_with(
        "'software' AND NOT 'algorithm'",
        Mode::Bool,
        EngineKind::Auto,
    )?;
    println!(
        "BOOL  'software' AND NOT 'algorithm'   -> nodes {:?} via {}",
        hits.node_ids(),
        hits.engine
    );

    // DIST: proximity search (Section 4.2).
    let hits = engine.search_with(
        "dist('task', 'completion', 0)",
        Mode::Dist,
        EngineKind::Auto,
    )?;
    println!(
        "DIST  dist('task','completion',0)      -> nodes {:?} via {}",
        hits.node_ids(),
        hits.engine
    );

    // COMP: position variables and predicates (Section 4.3).
    let comp = "SOME p1 SOME p2 (p1 HAS 'usability' AND p2 HAS 'software' \
                AND samepara(p1,p2) AND distance(p1,p2,5))";
    let hits = engine.search(comp)?;
    println!(
        "COMP  usability near software          -> nodes {:?} via {}",
        hits.node_ids(),
        hits.engine
    );

    // Ranked retrieval with the Section 3 scoring framework.
    let ranked = engine.search_ranked("'software' AND 'usability'", RankModel::TfIdf)?;
    println!("\nTF-IDF ranking for 'software' AND 'usability':");
    for (node, score) in &ranked.hits {
        println!("  node {node}: {score:.5}");
    }

    // How a query is executed.
    println!("\n{}", engine.explain(comp)?);
    Ok(())
}
