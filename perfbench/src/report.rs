//! The benchmark's output: human-readable lines, then one JSON object
//! as the last line of standard output.

use crate::workloads::Outcome;

/// `nproc`, the compiler that built the benchmark, and the CPU model.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "host nproc={nproc} rustc=\"{}\" cpu=\"{cpu}\"",
        env!("PERFBENCH_RUSTC_VERSION")
    )
}

/// The human-readable report: one `metric` line per metric, then a
/// `result` line, each prefixed by the workload name.
pub fn human_lines(workload: &str, o: &Outcome) -> Vec<String> {
    let mut lines: Vec<String> = o
        .notes
        .iter()
        .map(|n| format!("{workload} note {n}"))
        .collect();
    for m in &o.metrics {
        lines.push(format!(
            "{workload} metric {} {} {}",
            m.name, m.value, m.unit
        ));
    }
    lines.push(format!(
        "{workload} metric failed_ratio {} ratio",
        if o.attempted == 0 {
            1.0
        } else {
            o.failed as f64 / o.attempted as f64
        }
    ));
    lines.push(format!(
        "{workload} result correct={} attempted={} failed={}",
        o.correct, o.attempted, o.failed
    ));
    lines
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with each metric given as `(name, value, unit)`.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
