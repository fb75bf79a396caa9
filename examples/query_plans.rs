//! Figure 4 reproduced: the operator tree for the paper's running COMP
//! query, plus the plans of each engine tier. Every tree is a full-text
//! algebra expression, printed in one language: the streaming engines'
//! plans (BOOL, PPRED, NPRED) as their lowering builds them — `SOME`
//! projections composed, predicate selections over the join, a closed
//! `NOT` as a filter over `SearchContext` — and COMP's as Lemma 2
//! translates it, pushed down.

use ftsl::core::Ftsl;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = Ftsl::from_texts(&[
        "usability of a software measures how well the software supports users.\n\n\
         more on the usability of this software follows",
    ]);

    // Section 5.4's example: usability and software in the same paragraph,
    // not in the same sentence, within 5 words.
    let figure4 = "SOME p1 SOME p2 (p1 HAS 'usability' AND p2 HAS 'software' \
                   AND samepara(p1,p2) AND distance(p1,p2,5))";
    println!("=== Figure 4 query (positive predicates -> PPRED streaming plan) ===");
    println!("{}", engine.explain(figure4)?);

    let with_negation = "SOME p1 SOME p2 (p1 HAS 'usability' AND p2 HAS 'software' \
                         AND not_samesent(p1,p2) AND distance(p1,p2,5))";
    println!("=== with a negative predicate (NPRED) ===");
    println!("{}", engine.explain(with_negation)?);

    let comp_only = "SOME p1 (p1 HAS 'usability' AND NOT distance(p1,p1,0)) \
                     OR EVERY p2 (p2 HAS 'software')";
    println!("=== COMP-only query (materialized algebra) ===");
    println!("{}", engine.explain(comp_only)?);

    let bool_query = "('software' AND 'users' AND NOT 'testing') OR NOT 'usability'";
    println!("=== BOOL query (the streaming plan with no predicate) ===");
    println!("{}", engine.explain(bool_query)?);

    Ok(())
}
