//! The Section 3 scoring framework in action: TF-IDF (3.1) and the
//! probabilistic relational algebra (3.2) ranking the same result sets,
//! plus the scored BOOL engine of Section 5.3.

use ftsl::core::{Ftsl, RankModel};
use ftsl::index::IndexBuilder;
use ftsl::lang::{parse, Mode};
use ftsl::model::Corpus;
use ftsl::scoring::bool_scores::run_bool_scored;
use ftsl::scoring::classic::classic_tfidf;
use ftsl::scoring::{PraModel, ScoreStats, TfIdfModel};

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

    println!("\n== scored BOOL merge engine (Section 5.3) ==");
    let q = parse("'usability' OR 'software'", Mode::Bool).expect("parses");
    let pra = PraModel::new(&corpus, &stats);
    let scored = run_bool_scored(&q, &corpus, &index, &stats, &pra).expect("bool query");
    for (node, score) in &scored {
        println!("  node {node}: {score:.5}");
    }
    Ok(())
}
