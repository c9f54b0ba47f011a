//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints every metric as `name = value unit`, then
//! one JSON line `{"correct", "attempted", "failed", "metrics"}`. Exits 1
//! when any correctness check fails and 2 on bad arguments.

use perfbench::workload::{find, WORKLOADS};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(def) = find(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let report = match perfbench::run(
        def,
        args.seed,
        Duration::from_secs(args.seconds),
        args.trace,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        def.name, args.seed, args.seconds, args.trace as u8
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{}", report.to_json());
    match report.correct() {
        true => ExitCode::SUCCESS,
        false => ExitCode::FAILURE,
    }
}
