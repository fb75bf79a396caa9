//! A tour of the language hierarchy (Figure 3): the same corpus queried at
//! every expressiveness level, showing the classifier, the dispatched
//! engine, and the work counters.

use ftsl::core::Ftsl;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = Ftsl::from_texts(&[
        "the usability test went well. the test of the software followed",
        "software usability depends on testing",
        "a test is a test",
        "usability and nothing else",
        "software. software! software? and a test",
    ]);

    let queries: &[(&str, &str)] = &[
        ("BOOL-NONEG", "'test' AND 'usability' OR 'software'"),
        ("BOOL", "NOT 'test' AND ANY"),
        ("DIST", "dist('usability', 'test', 3)"),
        (
            "PPRED",
            "SOME p1 SOME p2 (p1 HAS 'software' AND p2 HAS 'test' AND samesent(p1,p2))",
        ),
        (
            "NPRED",
            "SOME p1 SOME p2 (p1 HAS 'test' AND p2 HAS 'test' AND diffpos(p1,p2))",
        ),
        ("COMP", "EVERY p1 (p1 HAS 'software' OR p1 HAS 'test')"),
    ];

    println!(
        "{:<12} {:<22} {:<8} {:>8} {:>10} {:>8}",
        "expected", "matched nodes", "engine", "entries", "positions", "tuples"
    );
    println!("{}", "-".repeat(74));
    for (expected, q) in queries {
        let out = engine.search(q)?;
        println!(
            "{:<12} {:<22} {:<8} {:>8} {:>10} {:>8}",
            format!("{expected}/{}", out.class),
            format!("{:?}", out.node_ids()),
            out.engine.to_string(),
            out.counters.entries,
            out.counters.positions,
            out.counters.tuples,
        );
    }

    println!();
    println!("Each level adds expressiveness at a complexity price (Figure 3):");
    println!("BOOL joins and filters node lists on the streaming cursors; PPRED adds");
    println!("positional predicates in the same single scan; NPRED pays per-ordering");
    println!("scans for negation; COMP materializes the full algebra and is the only");
    println!("engine for EVERY/general predicates.");
    Ok(())
}
