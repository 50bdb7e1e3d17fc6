//! `limbabench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints human-readable detail, then one JSON result line. Exits 0
//! when every unit passed its correctness check, 1 when any failed, and
//! 2 without a result line on bad arguments or a failed setup.

use std::path::PathBuf;
use std::process::ExitCode;

use limbabench::{alloc::CountingAlloc, Options, Size, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;
/// Measured seconds when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
        size: Size::FULL,
        state_dir: PathBuf::from(".bench_state"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("limbabench: {e}");
            eprintln!("usage: limbabench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let outcome = match limbabench::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("limbabench: {}: {e}", opts.workload.name());
            return ExitCode::from(2);
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for (metric, value) in &outcome.metrics {
        println!("{:<28} {value:>14.6} {}", metric.name, metric.unit);
    }
    for e in &outcome.errors {
        eprintln!("failed unit: {e}");
    }
    println!("{}", outcome.json());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
