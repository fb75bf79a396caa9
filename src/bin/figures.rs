//! Regenerate the paper's evaluation figures as text tables.
//!
//! ```text
//! figures [fig3|fig5|fig6|fig7|fig8|all] [--scale small|medium|full] [--reps N]
//! ```
//!
//! * **fig5** — evaluation time vs. number of query tokens (1–5, default 3);
//! * **fig6** — evaluation time vs. number of predicates (0–4, default 2);
//! * **fig7** — evaluation time vs. number of context nodes;
//! * **fig8** — evaluation time vs. positions per inverted-list entry;
//! * **fig3** — the complexity hierarchy, validated with access counters.
//!
//! Engine series follow the paper's legends (BOOL, PPRED-POS, NPRED-POS,
//! NPRED-NEG, COMP-POS, COMP-NEG). COMP points whose estimated
//! materialization exceeds the tuple budget print as `(skip)`.

use ftsl::figures::{build_env, fmt_duration, measure, BenchEnv, EnvSpec, Series};
use std::time::Instant;

struct Args {
    figures: Vec<String>,
    scale: String,
    reps: usize,
}

fn parse_args() -> Args {
    let mut figures = Vec::new();
    let mut scale = "medium".to_string();
    let mut reps = 3usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => scale = args.next().unwrap_or_else(|| "medium".into()),
            "--reps" => reps = args.next().and_then(|v| v.parse().ok()).unwrap_or(3),
            "all" => figures.extend(["fig3", "fig5", "fig6", "fig7", "fig8"].map(String::from)),
            f if f.starts_with("fig") => figures.push(f.to_string()),
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    if figures.is_empty() {
        figures.extend(["fig3", "fig5", "fig6", "fig7", "fig8"].map(String::from));
    }
    Args {
        figures,
        scale,
        reps,
    }
}

fn spec_for(scale: &str) -> EnvSpec {
    match scale {
        "small" => EnvSpec::small(),
        "full" => EnvSpec::full(),
        _ => EnvSpec::medium(),
    }
}

fn main() {
    let args = parse_args();
    let base = spec_for(&args.scale);
    println!(
        "# FTSL figure regeneration (scale={}, reps={})",
        args.scale, args.reps
    );
    println!(
        "# base corpus: cnodes={} occurrences/entry={} doc_fraction={}",
        base.cnodes, base.occurrences, base.doc_fraction
    );

    for fig in &args.figures {
        match fig.as_str() {
            "fig3" => fig3(base, args.reps),
            "fig5" => fig5(base, args.reps),
            "fig6" => fig6(base, args.reps),
            "fig7" => fig7(base, args.reps),
            "fig8" => fig8(base, args.reps),
            other => eprintln!("unknown figure {other}"),
        }
    }
}

fn header(title: &str, x_label: &str) {
    println!();
    println!("## {title}");
    print!("{x_label:>10} |");
    for s in Series::ALL {
        print!("{:>10}", s.label());
    }
    println!();
    println!("{}", "-".repeat(10 + 2 + 10 * Series::ALL.len()));
}

fn row(env: &BenchEnv, x: impl std::fmt::Display, toks: usize, preds: usize, reps: usize) {
    print!("{x:>10} |");
    for s in Series::ALL {
        let m = measure(env, s, toks, preds, reps);
        print!("{}", fmt_duration(m.time, m.skipped));
    }
    println!();
}

/// Figure 5: varying the number of query tokens (1-5, preds_Q = 2).
fn fig5(base: EnvSpec, reps: usize) {
    let start = Instant::now();
    let env = build_env(base);
    eprintln!("[fig5] corpus built in {:?}", start.elapsed());
    header(
        "Figure 5 — evaluation time vs. query tokens (preds_Q = 2)",
        "toks_Q",
    );
    for toks in 1..=5 {
        row(&env, toks, toks, 2, reps);
    }
}

/// Figure 6: varying the number of predicates (0-4, toks_Q = 3).
fn fig6(base: EnvSpec, reps: usize) {
    let env = build_env(base);
    header(
        "Figure 6 — evaluation time vs. predicates (toks_Q = 3)",
        "preds_Q",
    );
    for preds in 0..=4 {
        row(&env, preds, 3, preds, reps);
    }
}

/// Figure 7: varying the number of context nodes (toks_Q = 3, preds_Q = 2).
/// Paper values: 2 500 / 6 000 / 10 000; scaled proportionally to the
/// configured base size.
fn fig7(base: EnvSpec, reps: usize) {
    header("Figure 7 — evaluation time vs. context nodes", "cnodes");
    let fractions = [2_500.0 / 6_000.0, 1.0, 10_000.0 / 6_000.0];
    for f in fractions {
        let cnodes = ((base.cnodes as f64) * f) as usize;
        let env = build_env(EnvSpec { cnodes, ..base });
        row(&env, cnodes, 3, 2, reps);
    }
}

/// Figure 8: varying positions per inverted-list entry (5 / 25 / 125 at
/// paper scale; proportional at other scales).
fn fig8(base: EnvSpec, reps: usize) {
    header(
        "Figure 8 — evaluation time vs. positions per entry",
        "pos/entry",
    );
    let occurrences = [
        (base.occurrences / 5).max(1),
        base.occurrences,
        base.occurrences * 5,
    ];
    for occ in occurrences {
        let env = build_env(EnvSpec {
            occurrences: occ,
            ..base
        });
        row(&env, occ, 3, 2, reps);
    }
}

/// Figure 3: the complexity hierarchy, validated with machine-independent
/// access counters instead of wall time.
fn fig3(base: EnvSpec, reps: usize) {
    let env = build_env(base);
    println!();
    println!("## Figure 3 — complexity hierarchy (access counters, toks_Q=3, preds_Q=2)");
    println!(
        "{:>10} | {:>12} {:>12} {:>12} {:>10} {:>8}",
        "series", "entries", "positions", "tuples", "time", "hits"
    );
    println!("{}", "-".repeat(74));
    for s in Series::ALL {
        let m = measure(&env, s, 3, 2, reps);
        if m.skipped {
            println!("{:>10} | (skipped: over tuple budget)", s.label());
            continue;
        }
        println!(
            "{:>10} | {:>12} {:>12} {:>12} {:>10} {:>8}",
            s.label(),
            m.counters.entries,
            m.counters.positions,
            m.counters.tuples,
            fmt_duration(m.time, false).trim(),
            m.hits
        );
    }
    println!();
    println!("expected ordering (paper): BOOL ≤ PPRED ≤ NPRED ≤ COMP in positions touched;");
    println!("COMP additionally materializes tuples (its `tuples` column dominates).");
}
