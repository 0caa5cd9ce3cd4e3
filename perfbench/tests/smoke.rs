//! The benchmark's own checks: every metric `BENCHMARK.json` declares is
//! printed with its unit on every workload, and a corrupted expected
//! value is counted as a failure.

use dmi_gsm::pipeline::{self, PipelineCfg};
use dmi_perfbench::report::human_lines;
use dmi_perfbench::workloads::{run, Expect, Outcome, RunCfg, Workload, DEFAULT_SEED};

/// The shortest run: the warm-up plus the minimum timed iterations.
fn quick(w: Workload, seed: u64, trace: bool, expect: &Expect) -> Outcome {
    run(
        w,
        &RunCfg {
            seed,
            seconds: 1e-3,
            trace,
        },
        expect,
    )
}

/// `(name, unit)` of each metric in one section of `BENCHMARK.json`,
/// which lists one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let field = |line: &str, key: &str| {
        let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = line[start..].find('"')?;
        Some(line[start..start + len].to_string())
    };
    let mut current = "";
    let mut out = Vec::new();
    for line in text.lines() {
        for s in ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""] {
            if line.contains(s) {
                current = s;
            }
        }
        if current.trim_matches('"') == section {
            if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
                out.push((name, unit));
            }
        }
    }
    assert!(!out.is_empty(), "no {section} metrics in BENCHMARK.json");
    out
}

#[test]
fn every_declared_metric_prints_with_its_unit() {
    for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
        let want = declared(section);
        for w in Workload::ALL {
            let o = quick(w, 1, trace, &Expect::pinned());
            assert!(o.correct, "{} trace={trace}: {:?}", w.name(), o.notes);
            assert_eq!(o.failed, 0);
            assert!(o.attempted >= 3);
            let lines = human_lines(w.name(), &o);
            for (name, unit) in &want {
                let prefix = format!("{} metric {name} ", w.name());
                let line = lines
                    .iter()
                    .find(|l| l.starts_with(&prefix))
                    .unwrap_or_else(|| panic!("{} trace={trace}: no {name}", w.name()));
                let mut f = line[prefix.len()..].split(' ');
                let value: f64 = f
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("numeric value");
                assert!(value.is_finite(), "{line}");
                assert_eq!(f.next(), Some(unit.as_str()), "{line}");
            }
            // The result line's metrics are exactly the declared ones.
            let names: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
            let want_names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, want_names, "{} trace={trace}", w.name());
            if !trace {
                assert!(o.metrics.iter().all(|m| m.value > 0.0), "{:?}", o.metrics);
            }
        }
    }
}

#[test]
fn traced_layers_show_each_workloads_contrast() {
    let layer = |w: Workload| {
        let o = quick(w, DEFAULT_SEED, true, &Expect::pinned());
        assert!(o.correct, "{}: {:?}", w.name(), o.notes);
        move |name: &str| o.metrics.iter().find(|m| m.name == name).expect(name).value
    };
    let gsm = layer(Workload::GsmPipeline);
    let dsm = layer(Workload::DsmChurn);
    let dma = layer(Workload::DmaStream);
    let farm = layer(Workload::FarmSweep);
    assert_eq!(dma("iss.instructions"), 0.0);
    assert!(dsm("core.tlb_hit_ratio") < gsm("core.tlb_hit_ratio"));
    assert!(gsm("core.allocs_frees") < 0.01 * dsm("core.allocs_frees"));
    for other in [&gsm, &dsm, &dma] {
        assert_eq!(other("system.checkpoint_s"), 0.0);
    }
    assert!(farm("system.checkpoint_s") > 0.0);
}

#[test]
fn wrong_gsm_checksum_fails_every_iteration() {
    let mut expect = Expect::pinned();
    expect.gsm_reference = |cfg: &PipelineCfg| pipeline::expected_checksum(cfg) ^ 1;
    let o = quick(Workload::GsmPipeline, 3, false, &expect);
    assert!(!o.correct);
    assert!(o.attempted > 0);
    assert_eq!(o.failed, o.attempted);
}

#[test]
fn wrong_leg_fingerprint_fails_that_leg() {
    let mut expect = Expect::pinned();
    expect.farm_legs[2].fingerprint ^= 1;
    let o = quick(Workload::FarmSweep, DEFAULT_SEED, false, &expect);
    assert!(!o.correct);
    // One leg in eight fails, in every farm run.
    assert_eq!(o.failed * 8, o.attempted);
}

#[test]
fn wrong_pinned_statistics_fail_on_the_default_seed_only() {
    let mut expect = Expect::pinned();
    for (_, sig) in &mut expect.sim {
        sig.events += 1;
    }
    let o = quick(Workload::DmaStream, DEFAULT_SEED, false, &expect);
    assert!(!o.correct);
    assert_eq!(o.failed, o.attempted);
    let o = quick(Workload::DmaStream, DEFAULT_SEED + 1, false, &expect);
    assert!(o.correct, "{:?}", o.notes);
}
