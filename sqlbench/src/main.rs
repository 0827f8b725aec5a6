//! End-to-end SQL benchmark for the temporal-aggregates workspace.
//!
//! ```text
//! cargo run --release --manifest-path sqlbench/Cargo.toml -- \
//!     --workload <cold_sql|warm_session|extremes> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every statement goes through the public SQL entry point
//! (`tempagg_sql::execute_statement` over a `Catalog`) and its output is
//! checked against an oracle that shares no code with the program
//! (`oracle.rs`). With `--trace 0` the run prints the end-to-end metrics;
//! with `--trace 1` it runs the same rounds untraced and then traced,
//! replays each statement's layer calls inside spans, and prints the
//! per-layer metrics. The last line of standard output is the result
//! object. Files are written under `.bench_data/` in the working
//! directory and removed at exit, except the trace dump.

mod check;
mod cold_sql;
mod extremes;
mod layers;
mod oracle;
mod run;
mod trace;
mod warm_session;

use run::Session;
use std::path::PathBuf;
use std::process::ExitCode;

/// Where runs keep their files, relative to the working directory.
pub const DATA_DIR: &str = ".bench_data";

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Output of a short-lived helper command, or `None`. Each child is
/// waited for.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Host metadata: plans depend on the core count, because
/// `PlannerConfig::default` asks `available_parallelism`.
fn print_host() {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only ask git inside a git checkout, so it never searches outside
    // the working directory.
    let git = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        None
    }
    .unwrap_or_else(|| "unknown (not a git checkout)".into());
    // The SQL layer plans with `CostModel::default()`, the compiled-in
    // calibration; say whether the checkout's calibration.json agrees.
    let defaults = tempagg_plan::Calibration::default();
    let file = match tempagg_plan::Calibration::load(std::path::Path::new("calibration.json")) {
        Ok(c) if c == defaults => "calibration.json equals them",
        Ok(_) => "calibration.json differs and is not read by the SQL planner",
        Err(_) => "no readable calibration.json",
    };
    println!("host: cores={cores} rustc=\"{rustc}\" git={git}");
    println!("calibration: compiled-in defaults (CostModel::default); {file}");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sqlbench: {e}");
            return ExitCode::from(2);
        }
    };
    print_host();
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let data = PathBuf::from(DATA_DIR);
    if let Err(e) = std::fs::create_dir_all(&data) {
        eprintln!("sqlbench: cannot create {}: {e}", data.display());
        return ExitCode::from(2);
    }
    let mut session = Session::new(args.trace);
    let outcome = match args.workload.as_str() {
        "cold_sql" => cold_sql::run(&args, &data, &mut session),
        "warm_session" => warm_session::run(&args, &mut session),
        "extremes" => extremes::run(&args, &mut session),
        other => Err(format!("unknown workload {other}")),
    };
    let metrics = match outcome {
        Ok(m) => m,
        Err(e) => {
            eprintln!("sqlbench: {e}");
            return ExitCode::from(1);
        }
    };
    if args.trace {
        let path = data.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match std::fs::write(&path, session.tracer.dump()) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("sqlbench: cannot write {}: {e}", path.display()),
        }
    }
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    println!("{}", run::result_line(&session, &metrics));
    ExitCode::SUCCESS
}
