//! Command line of the co-simulation benchmark:
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. `all` runs each workload in a child process of its own, one
//! after another, so that each one's peak memory is its own.

use std::process::{Command, ExitCode};

use dmi_perfbench::report::{host_fingerprint, human_lines, json_line};
use dmi_perfbench::workloads::{run, Expect, RunCfg, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of all, {}",
            Workload::ALL.map(|w| w.name()).join(", ")
        ));
    }
    Ok(args)
}

/// Runs every workload in its own child process and merges their
/// results, prefixing each metric with the workload name.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut merged = Vec::new();
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!("{} exited with {}", w.name(), out.status));
        }
        let lines: Vec<&str> = text.lines().collect();
        for line in &lines[..lines.len().saturating_sub(1)] {
            println!("{line}");
            let mut f = line.split(' ');
            match (f.next(), f.next(), f.next(), f.next(), f.next()) {
                (Some(_), Some("metric"), Some(name), Some(value), Some(unit))
                    if name != "failed_ratio" =>
                {
                    let value = value.parse().map_err(|e| format!("{line}: {e}"))?;
                    merged.push((format!("{}.{name}", w.name()), value, unit.to_string()));
                }
                (Some(_), Some("result"), Some(c), Some(a), Some(f)) => {
                    let num = |s: &str, key: &str| {
                        s.strip_prefix(key).and_then(|v| v.parse::<u64>().ok())
                    };
                    correct &= c == "correct=true";
                    attempted += num(a, "attempted=").ok_or("bad result line")?;
                    failed += num(f, "failed=").ok_or("bad result line")?;
                }
                _ => {}
            }
        }
    }
    println!("{}", json_line(correct, attempted, failed, &merged));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_fingerprint());
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let w = Workload::parse(&args.workload).expect("validated");
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = run(w, &cfg, &Expect::pinned());
    println!(
        "{} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in human_lines(w.name(), &outcome) {
        println!("{line}");
    }
    let metrics: Vec<(String, f64, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.value, m.unit.to_string()))
        .collect();
    println!(
        "{}",
        json_line(outcome.correct, outcome.attempted, outcome.failed, &metrics)
    );
    ExitCode::SUCCESS
}
