//! `perf`: one seeded benchmark, four workloads, end-to-end and
//! per-layer metrics (see `perfbench/README.md` and `BENCHMARK.json`).
//!
//! ```text
//! perf --workload <name> --seed N --seconds S --trace <0|1>   one run, one result line
//! perf [--seed N] [--seconds S] [--repeat R] [--quick]        every workload, both passes
//! perf compare <a.json> <b.json> [--baseline <out.json>]      two run sets against the bounds
//! ```

mod analytic;
mod ingest;
mod scan;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use seqdb_perf::compare;
use seqdb_perf::json::Json;
use seqdb_perf::run::{self, RunConfig};
use seqdb_perf::spec::{Outcome, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: u64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        repeat: 1,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value("--workload")?),
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                out.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                out.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--quick" => out.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.quick && !seconds_given {
        out.seconds = 2.0;
    }
    if !(out.seconds > 0.0 && out.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if let Some(w) = &out.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    Ok(out)
}

/// The benchmark works under the build directory, inside the checkout:
/// `$CARGO_TARGET_DIR/seqdb-bench/perf`, or `target/seqdb-bench/perf`.
fn work_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let base = if base.is_absolute() {
        base
    } else {
        std::env::current_dir()
            .expect("current directory is readable")
            .join(base)
    };
    base.join("seqdb-bench").join("perf")
}

fn run_one(workload: &str, args: &Args, seed: u64, trace: bool) -> Outcome {
    let trace_dir = work_dir();
    let dir = trace_dir.join(format!("run-{}-{workload}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
    // In-memory databases keep their FileStream and temp space under the
    // system temp directory; point that into the checkout too.
    std::env::set_var("TMPDIR", &dir);
    let cfg = RunConfig {
        seed,
        seconds: args.seconds,
        trace,
        quick: args.quick,
        clients: run::nproc(),
        dir: dir.clone(),
        trace_dir,
    };
    let out = match workload {
        "analytic-inproc" => analytic::run(&cfg),
        "wire-oltp" => wire::run(&cfg),
        "scan-cold" => scan::run(&cfg),
        "ingest-durable" => ingest::run(&cfg),
        other => unreachable!("workload {other} passed validation"),
    };
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// One run in a process of its own, exactly as the benchmark command
/// runs it, so `VmHWM` and the process-global counters belong to that
/// workload alone. Returns the parsed result line.
fn run_child(workload: &str, args: &Args, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // Standard error passes through; the child is waited for here.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result line ({})", output.status))?;
    Json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))
}

/// Every workload, untraced then traced, `repeat` times on consecutive
/// seeds: the run set `compare` and `perfbench/baseline.json` are made of.
fn run_suite(args: &Args) -> Result<(Json, u64), String> {
    let mut failed = 0.0;
    let mut runs = Vec::new();
    for r in 0..args.repeat {
        let seed = args.seed + r;
        let mut workloads = Vec::new();
        for w in WORKLOADS {
            let e2e = run_child(w, args, seed, false)?;
            let layer = run_child(w, args, seed, true)?;
            let count = |result: &Json, key: &str| result.get(key).and_then(Json::as_f64);
            let run_failed =
                count(&e2e, "failed").unwrap_or(1.0) + count(&layer, "failed").unwrap_or(1.0);
            failed += run_failed;
            let metrics = |result: &Json| result.get("metrics").cloned().unwrap_or(Json::Null);
            workloads.push((
                w,
                Json::obj([
                    (
                        "attempted",
                        Json::Num(count(&e2e, "attempted").unwrap_or(0.0)),
                    ),
                    ("failed", Json::Num(run_failed)),
                    ("end_to_end", metrics(&e2e)),
                    ("per_layer", metrics(&layer)),
                ]),
            ));
        }
        runs.push(Json::obj([
            ("seed", Json::Num(seed as f64)),
            ("workloads", Json::obj(workloads)),
        ]));
    }
    let doc = Json::obj([
        ("seconds", Json::Num(args.seconds)),
        ("quick", Json::Bool(args.quick)),
        ("nproc", Json::Num(run::nproc() as f64)),
        ("runs", Json::Arr(runs)),
    ]);
    Ok((doc, failed as u64))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::main(&argv[1..]) {
            Ok(regressed) => ExitCode::from(u8::from(regressed)),
            Err(e) => {
                eprintln!("perf compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let failed = match &args.workload {
        Some(w) => {
            let out = run_one(w, &args, args.seed, args.trace);
            println!("{}", out.result_line(args.trace));
            out.failed
        }
        None => match run_suite(&args) {
            Ok((doc, failed)) => {
                print!("{}", doc.render_pretty());
                failed
            }
            Err(e) => {
                eprintln!("perf: {e}");
                return ExitCode::from(2);
            }
        },
    };
    if failed > 0 {
        eprintln!("perf: {failed} operations returned a wrong result or an error");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
