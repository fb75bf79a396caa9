//! The Section 3 scoring framework in action: TF-IDF (3.1) and the
//! probabilistic relational algebra (3.2) ranking the same result sets,
//! and a top-k, which is the ranking truncated to k.

use ftsl::core::{Ftsl, RankModel};
use ftsl::index::IndexBuilder;
use ftsl::model::Corpus;
use ftsl::scoring::classic::classic_tfidf;
use ftsl::scoring::{ScoreStats, TfIdfModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let texts = [
        "usability",                                            // short, focused
        "usability usability usability of software interfaces", // repetitive
        "software usability in long documents about many other topics entirely",
        "software engineering without the other keyword",
        "unrelated text",
    ];
    let engine = Ftsl::from_texts(&texts);

    println!("== TF-IDF ranking (propagated through the algebra) ==");
    let ranked = engine.search_ranked("'usability' AND 'software'", RankModel::TfIdf)?;
    for (node, score) in &ranked.hits {
        println!("  node {node}: {score:.5}");
    }

    // Theorem 2, demonstrated: the propagated scores equal classic cosine
    // TF-IDF for conjunctive queries. The oracle reads a corpus and index
    // of its own, not the engine's.
    let corpus = Corpus::from_texts(&texts);
    let index = IndexBuilder::new().build(&corpus);
    let stats = ScoreStats::compute(&corpus, &index);
    let model = TfIdfModel::for_query(&["usability", "software"], &corpus, &stats);
    let classic = classic_tfidf(&["usability", "software"], &corpus, &stats, &model);
    println!("\n== classic cosine TF-IDF (the Theorem 2 oracle) ==");
    for (node, score) in &classic {
        println!("  node {node}: {score:.5}");
    }
    for (node, score) in &ranked.hits {
        let reference = classic.iter().find(|(n, _)| n == node).unwrap().1;
        assert!((score - reference).abs() < 1e-9, "Theorem 2 violated!");
    }
    println!("(propagated == classic on the conjunctive result set ✓)");

    println!("\n== probabilistic (PRA) ranking ==");
    let ranked = engine.search_ranked("'usability' AND 'software'", RankModel::Pra)?;
    for (node, score) in &ranked.hits {
        println!("  node {node}: {score:.5}");
    }

    // A top-k is the ranked answer truncated to k: `NOT` ranks only the
    // nodes it admits, so node 1, which mentions interfaces, never shows.
    println!("\n== PRA top-2 of 'usability' AND NOT 'interfaces' ==");
    let query = "'usability' AND NOT 'interfaces'";
    let top = engine.search_top_k(query, RankModel::Pra, 2)?;
    for (node, score) in &top.hits {
        println!("  node {node}: {score:.5}");
    }
    let ranked = engine.search_ranked(query, RankModel::Pra)?;
    assert_eq!(top.hits, ranked.hits[..2], "top-k is the ranking truncated");
    assert!(top.hits.iter().all(|(node, _)| node.0 != 1));
    println!("(top-k == the first 2 of search_ranked ✓)");
    Ok(())
}
