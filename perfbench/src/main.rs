//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pipeline-fir|dag-multirate|dag-large> --seed <n> \
//!     --seconds <s> --trace <0|1> [--dag-seed <n>] [--smoke] [--corrupt-oracle]
//! ```
//!
//! The last line of standard output is the result object; everything
//! above it is the human-readable report. The exit code is 0 only when
//! every job matched the serial oracle and every check passed.

use ccs_perfbench::{run, Options};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> String {
    "usage: ccs-perfbench --workload NAME --seed N --seconds S --trace 0|1 \
     [--dag-seed N] [--smoke] [--corrupt-oracle]"
        .to_string()
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::new("", 0, 10.0, false);
    let mut it = args.iter();
    let mut seen_workload = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                opts.workload = value()?.clone();
                seen_workload = true;
            }
            "--seed" => opts.seed = number(value()?)?,
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse()
                    .map_err(|_| format!("--seconds: not a number: {v}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {v}"));
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                }
            }
            "--dag-seed" => opts.dag_seed = Some(number(value()?)?),
            "--smoke" => opts.smoke = true,
            "--corrupt-oracle" => opts.corrupt_oracle = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if !seen_workload {
        return Err(format!("--workload is required\n{}", usage()));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    opts.out_dir = Some(Path::new(env!("CARGO_MANIFEST_DIR")).join("out"));
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "host {}",
        serde_json::to_string(&outcome.host).unwrap_or_default()
    );
    for line in &outcome.report {
        println!("{line}");
    }
    for &(name, value, unit) in &outcome.metrics {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    for e in &outcome.errors {
        eprintln!("error: {e}");
    }
    match serde_json::to_string(&outcome.result_json()) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("cannot render the result: {e:?}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
