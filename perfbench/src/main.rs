//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints the run record as one JSON line, then the result as the last
//! line of standard output: `{"correct", "attempted", "failed", "metrics"}`.

use std::process::ExitCode;

use perfbench::{result_line, run, Config, Size, WORKLOADS};

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        size: Size::Full,
        corrupt_trial: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = number()?,
            "--seconds" => cfg.seconds = number()?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if cfg.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            println!("{{\"record\": {}}}", report.record);
            println!("{}", result_line(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
