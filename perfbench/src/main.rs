//! Command line of the paper-workload benchmark:
//!
//! ```text
//! doclite-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a report line (metadata, sample counts, fingerprints) and then,
//! as the last line, `{"correct", "attempted", "failed", "metrics"}`.

use doclite_perfbench::json::Json;
use doclite_perfbench::{run, Options, Workload};
use std::process::ExitCode;

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        sf: workload.scale_factor(),
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        setups: SETUPS,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("doclite-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("doclite-perfbench: setup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &out.gate.errors {
        eprintln!("doclite-perfbench: {e}");
    }
    println!("{}", Json::obj([("report", out.report)]));
    let metrics = out.metrics.into_iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    });
    let result = Json::obj([
        ("correct", Json::Bool(out.gate.failed == 0)),
        ("attempted", Json::Int(out.gate.attempted as i64)),
        ("failed", Json::Int(out.gate.failed as i64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}
