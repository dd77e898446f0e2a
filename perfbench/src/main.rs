//! Command-line entry point; see the library docs for the output format.

use std::process::ExitCode;

use perfbench::json::Object;
use perfbench::workload::{run, Config, Workload};

const USAGE: &str =
    "usage: perfbench --workload <ingest|ingest-retain> --seed <n> --seconds <n> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
        root,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut metrics = Object::new();
    for (metric, value) in &outcome.metrics {
        let mut entry = Object::new();
        entry.num("value", *value);
        entry.str("unit", metric.unit);
        metrics.obj(metric.name, entry);
    }
    let mut result = Object::new();
    result.bool("correct", outcome.tally.all_passed());
    result.int("attempted", outcome.tally.attempted);
    result.int("failed", outcome.tally.failed);
    result.obj("metrics", metrics);
    let mut detail = Object::new();
    detail.obj("perfbench", outcome.detail);
    println!("{}", detail.render());
    println!("{}", result.render());
    ExitCode::SUCCESS
}
