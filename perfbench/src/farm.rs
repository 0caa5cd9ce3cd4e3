//! The `farm_sweep` workload: the stock catalog through `run_farm`, and
//! in traced runs a sequential replay of every leg.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dmi_farm::{
    leg_fingerprint, run_farm, Catalog, FarmConfig, FarmReport, Registry, ScenarioOutcome,
};
use dmi_system::{McSystem, StopCause, StopCondition};

use crate::layers::Spans;
use crate::metrics::{end_to_end, layer_metrics, FarmLayers, LayerInput};
use crate::observe::{observe_mc, Observed, Tally};
use crate::stats::median;
use crate::workloads::{Expect, Outcome, RunCfg};

/// Worker threads of the farm: the host the benchmark was defined on has
/// two cores.
const FARM_WORKERS: usize = 2;

/// Legs whose factories generate GSM stage programs (codegen charged to
/// `gsm`); every other leg's programs come from `dmi-sw`.
fn is_gsm_leg(system: &str) -> bool {
    matches!(system, "gsm_headline" | "faults")
}

fn farm_cfg() -> FarmConfig {
    FarmConfig {
        workers: FARM_WORKERS,
        ..FarmConfig::default()
    }
}

/// Checks a farm report against the pinned legs, one check per leg, and
/// returns the cycles the legs ended on, summed.
fn check_farm(report: &FarmReport, expect: &Expect, tally: &mut Tally, iter: u32) -> u64 {
    let mut cycles = 0;
    for (i, leg) in report.legs.iter().enumerate() {
        let pin = expect.farm_legs.get(i);
        let ok = match &leg.outcome {
            ScenarioOutcome::Completed {
                fingerprint,
                cycles: c,
                ..
            } => {
                cycles += c;
                pin.is_some_and(|p| {
                    p.name == leg.name && p.fingerprint == *fingerprint && p.cycles == *c
                })
            }
            _ => false,
        };
        tally.check(ok, || {
            format!(
                "farm iteration {iter} leg {}: {}",
                leg.name,
                leg.outcome.brief()
            )
        });
    }
    cycles
}

/// A registry whose factories add their host time to `codegen_ns`.
fn timed_registry(inner: Arc<Registry>, codegen_ns: Arc<AtomicU64>) -> Registry {
    let mut r = Registry::new();
    let keys: Vec<String> = inner.keys().map(String::from).collect();
    for key in keys {
        let (inner, sink, k) = (inner.clone(), codegen_ns.clone(), key.clone());
        r.register(key, move || {
            let t = Instant::now();
            let b = (inner.get(&k).expect("registered key"))();
            sink.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            b
        });
    }
    r
}

/// What a standalone, sequential replay of every leg measured.
#[derive(Default)]
struct Replay {
    legs_s: f64,
    snapshot_bytes: u64,
    obs: Observed,
    /// Legs that ended with a CPU exit code other than 0.
    failing_cpu_legs: Vec<String>,
}

/// Replays every catalog leg on this thread the way a farm worker runs
/// it (checkpoint-interval slices, a checkpoint after each), timing
/// codegen, build, each slice and each checkpoint as spans, and checks
/// that each leg ends on the farm's fingerprint and cycle.
fn replay_legs(
    catalog: &Catalog,
    registry: &Registry,
    farm: &FarmReport,
    spans: &mut Spans,
    iter: u32,
    root: usize,
    tally: &mut Tally,
) -> Replay {
    let mut out = Replay::default();
    let mut legs = Vec::new();
    for (spec, leg) in catalog.scenarios.iter().zip(&farm.legs) {
        let leg_span = spans.begin("farm.leg", iter, Some(root));
        let factory = registry.get(&spec.system).expect("catalog leg in registry");
        let cg = if is_gsm_leg(&spec.system) {
            "gsm.codegen"
        } else {
            "sw.codegen"
        };
        let s = spans.begin(cg, iter, Some(leg_span));
        let builder = factory();
        spans.end(s);
        let s = spans.begin("system.build", iter, Some(leg_span));
        let mut sys = builder.build().expect("catalog systems build");
        spans.end(s);
        if let Some(on) = spec.fault_injection {
            sys.set_fault_injection(on);
        }
        let checkpoint = |sys: &mut McSystem, spans: &mut Spans| {
            let s = spans.begin("system.checkpoint", iter, Some(leg_span));
            let snap = sys.checkpoint();
            spans.end(s);
            snap.payload_bytes() as u64
        };
        loop {
            let done = sys.total_cycles();
            if done >= spec.cycles {
                break;
            }
            let step = spec
                .checkpoint_every
                .map_or(spec.cycles - done, |ck| ck.max(1).min(spec.cycles - done));
            let s = spans.begin("run", iter, Some(leg_span));
            let report = sys.run_until(&StopCondition::cycles(step));
            spans.end(s);
            if spec.checkpoint_every.is_some() {
                out.snapshot_bytes += checkpoint(&mut sys, spans);
            }
            if report.cause != StopCause::CycleBudget {
                break;
            }
        }
        let s = spans.begin("system.checkpoint", iter, Some(leg_span));
        let fingerprint = leg_fingerprint(&mut sys);
        spans.end(s);
        let cycles = sys.total_cycles();
        let same = matches!(&leg.outcome, ScenarioOutcome::Completed { fingerprint: f, cycles: c, .. }
            if *f == fingerprint && *c == cycles);
        tally.check(same, || {
            format!(
                "replayed leg {} ended {cycles} fp={fingerprint:08x}, farm: {}",
                spec.name,
                leg.outcome.brief()
            )
        });

        let report = sys.report_now();
        if report.cpus.iter().any(|c| c.exit_code != 0) {
            out.failing_cpu_legs.push(spec.name.clone());
        }
        legs.push(observe_mc(&sys, &report, None));
        out.legs_s += spans.end(leg_span);
    }
    out.obs = Observed::sum(&legs);
    out
}

pub(crate) fn run_farm_sweep(cfg: &RunCfg, expect: &Expect) -> Outcome {
    let registry = Arc::new(dmi_bench::scenarios::farm_registry());
    let catalog = dmi_bench::scenarios::farm_catalog();
    let codegen_ns = Arc::new(AtomicU64::new(0));
    let traced_registry = Arc::new(timed_registry(registry.clone(), codegen_ns.clone()));

    let mut spans = Spans::default();
    let mut tally = Tally::default();
    let mut setup = Vec::new();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut overhead = Vec::new();
    let mut cycles = 0u64;
    let mut last = None;

    let started = Instant::now();
    let mut iter = 0u32;
    while iter == 0 || started.elapsed().as_secs_f64() < cfg.seconds || iter < 3 {
        let root = spans.begin("iteration", iter, None);
        // Set-up as a leg pays it: each leg's codegen and build.
        let s = spans.begin("setup", iter, Some(root));
        for spec in &catalog.scenarios {
            let factory = registry.get(&spec.system).expect("catalog leg in registry");
            drop(factory().build().expect("catalog systems build"));
        }
        let t_setup = spans.end(s);

        let s = spans.begin("farm", iter, Some(root));
        let report = run_farm(&catalog, registry.clone(), &farm_cfg()).expect("farm runs");
        let wall = spans.end(s);
        cycles = check_farm(&report, expect, &mut tally, iter);
        if iter > 0 {
            setup.push(t_setup);
            walls.push(wall);
        }

        if cfg.trace {
            let s = spans.begin("farm.traced", iter, Some(root));
            let traced =
                run_farm(&catalog, traced_registry.clone(), &farm_cfg()).expect("farm runs");
            let t_wall = spans.end(s);
            check_farm(&traced, expect, &mut tally, iter);
            let replay = replay_legs(
                &catalog, &registry, &report, &mut spans, iter, root, &mut tally,
            );
            if iter > 0 {
                traced_walls.push(t_wall);
                overhead.push(1.0 - replay.legs_s / (FARM_WORKERS as f64 * wall));
            }
            last = Some((replay, report));
        }
        spans.end(root);
        iter += 1;
    }

    let mut notes = tally.notes;
    notes.push("farm_sweep has no seeded input: the stock catalog is fixed".into());
    notes.push(format!(
        "simulated cycles per sweep (sum over legs): {cycles}"
    ));
    let metrics = if cfg.trace {
        let (replay, report) = last.expect("at least one traced iteration");
        notes.extend(spans.summary());
        notes.push(format!(
            "component host times are not decomposed on farm_sweep (the farm builds its systems); \
             factory codegen inside the traced farm: {:.6} s total",
            codegen_ns.load(Ordering::Relaxed) as f64 * 1e-9
        ));
        notes.push(format!(
            "known defect, pinned as it is: legs {:?} end with a CPU exit code other than 0, \
             yet the farm reports them Completed (ScenarioOutcome carries no exit codes)",
            replay.failing_cpu_legs
        ));
        layer_metrics(&LayerInput {
            obs: &replay.obs,
            times: None,
            build_s: median(&spans.per_iter("system.build")),
            gsm_codegen_s: median(&spans.per_iter("gsm.codegen")),
            sw_codegen_s: median(&spans.per_iter("sw.codegen")),
            checkpoint_s: median(&spans.per_iter("system.checkpoint")),
            snapshot_bytes: replay.snapshot_bytes,
            farm: Some(FarmLayers {
                attempts: report.legs.iter().map(|l| u64::from(l.attempts)).sum(),
                retried: u64::from(report.retried),
                overhead_ratio: median(&overhead),
            }),
            trace_overhead: median(&traced_walls) / median(&walls) - 1.0,
        })
    } else {
        let legs = catalog.len() as f64;
        end_to_end(
            cycles as f64 / median(&walls),
            &walls,
            legs * walls.len() as f64 / walls.iter().sum::<f64>(),
            &setup,
            &mut notes,
        )
    };
    Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    }
}
