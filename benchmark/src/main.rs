//! The repo benchmark. See README.md for the glossary and the commands.
//!
//! ```text
//! ftsl-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ftsl-benchmark run [--seed n] [--seconds s] [--runs r] [--sets k] [--workload w] [--smoke]
//! ftsl-benchmark check-determinism [--seed n] [--smoke]
//! ftsl-benchmark compare <results-a.json> <results-b.json>
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload, one run,
//! the result as one JSON object on the last line.

mod check;
mod corpus;
mod json;
mod ledger;
mod queries;
mod report;
mod rng;
mod sizes;
mod stats;
mod sut;
mod trace;
mod workloads;

use json::Json;
use sizes::Sizes;
use std::path::Path;
use std::process::ExitCode;
use workloads::Workload;

// Counts allocations per thread (`serve.allocs_per_req`, `serve.hit_allocs`).
// Installed for every run, traced or not, so both pay the same for it.
#[global_allocator]
static ALLOC: sut::CountingAlloc = sut::CountingAlloc;

struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    sets: usize,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: check::GOLDEN_SEED,
        seconds: 10.0,
        trace: false,
        runs: 3,
        sets: 1,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--sets" => {
                args.sets = value("--sets")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            "--smoke" => args.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ if args.command.is_none() => args.command = Some(arg),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

fn sizes_of(args: &Args) -> Sizes {
    if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::standard()
    }
}

/// One workload, one run, the driver's output contract.
fn driver(args: &Args) -> Result<bool, String> {
    let workload = args.workload.ok_or("--workload is required")?;
    let sizes = sizes_of(args);
    let outcome = workloads::run(workload, &sizes, args.seed, args.seconds, args.trace)?;
    report::print_table(workload, args.trace, &outcome);
    report::write_trace(workload, &outcome, sizes.trace_requests as u32 + 1)?;
    println!("{}", report::result_line(&outcome));
    Ok(outcome.checks.failed == 0)
}

/// One driver-mode run in a process of its own, as the driver would start
/// it: a fresh heap for `resident_mb`, and nothing the previous run warmed.
/// Its output is passed through; its result line is read back.
fn run_child(
    args: &Args,
    workload: Workload,
    seed: u64,
    trace: bool,
) -> Result<(bool, Vec<report::Measured>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = command
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let (correct, metrics) = report::parse_result_line(line)?;
    Ok((correct && output.status.success(), metrics))
}

/// Every workload (or one): `--runs` untraced runs on consecutive seeds,
/// then a traced pass; `--sets` repeats the lot and writes one results
/// file per set.
fn run_all(args: &Args) -> Result<bool, String> {
    let declared = report::declared()?;
    let which: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    for set in 1..=args.sets {
        let mut results = report::ResultSet::default();
        for &workload in &which {
            let untraced = (0..args.runs as u64).map(|run| (args.seed + run, false));
            for (seed, trace) in untraced.chain([(args.seed, true)]) {
                let (correct, metrics) = run_child(args, workload, seed, trace)?;
                for problem in report::undeclared(&declared, &metrics, trace) {
                    println!("! {problem}");
                    ok = false;
                }
                ok &= correct;
                results.add(workload, &metrics);
            }
        }
        let settings = Json::obj([
            ("seed", Json::Num(args.seed as f64)),
            ("runs", Json::Num(args.runs as f64)),
            ("seconds", Json::Num(args.seconds)),
            (
                "sizes",
                Json::Str(if args.smoke { "smoke" } else { "standard" }.into()),
            ),
        ]);
        let path = report::write_results(&results, settings)?;
        println!(
            "# set {set} of {}: results written to {}",
            args.sets,
            path.display()
        );
    }
    println!(
        "{}",
        Json::obj([("ok", Json::Bool(ok)), ("claim", Json::Null)]).render()
    );
    Ok(ok)
}

/// `zipf_cold` twice on one seed: same answers, same work counters.
fn check_determinism(args: &Args) -> Result<bool, String> {
    let sizes = sizes_of(args);
    let mut runs = Vec::new();
    for _ in 0..2 {
        let outcome = workloads::run(
            Workload::ZipfCold,
            &sizes,
            args.seed,
            args.seconds.min(2.0),
            true,
        )?;
        // The exact work counters; `serve.allocs_per_req` also ends in
        // `_per_req` but comes from a timed, two-client pass.
        let counts: Vec<(String, f64)> = outcome
            .metrics
            .iter()
            .filter(|m| m.name.ends_with("_per_req") && !m.name.starts_with("serve."))
            .map(|m| (m.name.clone(), m.value))
            .collect();
        runs.push((outcome.checks.failed, outcome.checks.answers, counts));
    }
    let same = runs[0] == runs[1] && runs[0].0 == 0;
    let (_, answers, counts) = &runs[0];
    println!("answers checksum {:016x}", answers.map_or(0, |d| d.0));
    for (name, value) in counts {
        println!("{name:<36} {value}");
    }
    println!(
        "{}",
        if same {
            "deterministic: answers checked, counters identical on both runs"
        } else {
            "NOT deterministic"
        }
    );
    Ok(same)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.command.as_deref() {
        None => driver(&args),
        Some("run") => run_all(&args),
        Some("check-determinism") => check_determinism(&args),
        Some("compare") => match args.positional.as_slice() {
            [a, b] => report::compare(Path::new(a), Path::new(b)),
            _ => Err("compare takes two results files".into()),
        },
        Some(other) => Err(format!("unknown command {other}")),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ftsl-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
