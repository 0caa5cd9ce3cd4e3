//! The four benchmark workloads, the values pinned for the default seed,
//! and the run loop of the three single-system workloads.
//!
//! Why each workload exists, and which layer metric should move which
//! end-to-end metric on it, is written down in `README.md`.

use std::rc::Rc;
use std::sync::{Barrier, OnceLock};
use std::time::Instant;

use dmi_gsm::pipeline::{self, PipelineCfg};
use dmi_interconnect::CrossbarConfig;
use dmi_masters::{BurstSpec, DmaConfig, DmaKind};
use dmi_sw::{workloads as sw, WorkloadCfg};
use dmi_system::{mem_base, CpuSpec, InterconnectKind, MemSpec};

use crate::design::Design;
use crate::layers::{Layer, LayerClock, Spans};
use crate::metrics::{end_to_end, layer_metrics, LayerInput, LayerTimes};
use crate::observe::{observe_mc, observe_traced, sig_ok, Observed, Tally};
use crate::stats::{median, ratio};

/// The seed whose simulated statistics are pinned in [`Expect::pinned`].
pub const DEFAULT_SEED: u64 = 0;

/// Frames the GSM pipeline encodes per iteration.
const GSM_FRAMES: u32 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GsmPipeline,
    DsmChurn,
    DmaStream,
    FarmSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::GsmPipeline,
        Workload::DsmChurn,
        Workload::DmaStream,
        Workload::FarmSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GsmPipeline => "gsm_pipeline",
            Workload::DsmChurn => "dsm_churn",
            Workload::DmaStream => "dma_stream",
            Workload::FarmSweep => "farm_sweep",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How one benchmark run is driven.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    /// Host seconds of timed iterations.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

/// Simulated statistics of one iteration. They depend on the seed only,
/// so they must repeat exactly across iterations, across the traced and
/// untraced builds, and across commits that claim only host speed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimSig {
    pub cycles: u64,
    pub instructions: u64,
    pub events: u64,
    pub wakes: u64,
    pub deltas: u64,
    pub backend_ops: u64,
    pub bus_transactions: u64,
}

/// The identity of one finished farm leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LegPin {
    pub name: &'static str,
    pub fingerprint: u32,
    pub cycles: u64,
}

/// Expected outputs every iteration is checked against.
#[derive(Debug, Clone)]
pub struct Expect {
    /// Simulated statistics of the default seed, per workload.
    pub sim: Vec<(Workload, SimSig)>,
    /// Every leg of the stock farm catalog, in catalog order.
    pub farm_legs: Vec<LegPin>,
    /// The host reference for the GSM pipeline's output checksum.
    pub gsm_reference: fn(&PipelineCfg) -> u32,
}

impl Expect {
    /// The pinned values. The `memory_models` leg's pin includes a known
    /// defect, kept visible on purpose: its CPU 2 runs the DSM-protocol
    /// `scalar_rw` program against a raw static table and exits 1, yet
    /// the farm reports the leg `Completed` because `ScenarioOutcome`
    /// carries no exit codes.
    pub fn pinned() -> Expect {
        Expect {
            sim: vec![
                (
                    Workload::GsmPipeline,
                    SimSig {
                        cycles: 779_543,
                        instructions: 892_324,
                        events: 6_236_354,
                        wakes: 4_677_269,
                        deltas: 2_338_633,
                        backend_ops: 24_998,
                        bus_transactions: 87_904,
                    },
                ),
                (
                    Workload::DsmChurn,
                    SimSig {
                        cycles: 438_924,
                        instructions: 238_443,
                        events: 4_389_253,
                        wakes: 3_511_406,
                        deltas: 1_316_777,
                        backend_ops: 19_240,
                        bus_transactions: 75_560,
                    },
                ),
                (
                    Workload::DmaStream,
                    SimSig {
                        cycles: 222_977,
                        instructions: 0,
                        events: 2_006_804,
                        wakes: 1_560_851,
                        deltas: 668_935,
                        backend_ops: 53_250,
                        bus_transactions: 69_898,
                    },
                ),
            ],
            farm_legs: [
                ("quickstart", 0x0d0f_6656, 854),
                ("gsm_headline", 0xbe21_8bbd, 436_964),
                ("memory_models", 0x4e89_e4c9, 927),
                ("dma_crossbar", 0x8d03_08d9, 1_537),
                ("faults", 0x45d3_400a, 436_956),
                ("dma_burst", 0x6c44_401d, 16_797),
                ("lossy_dma", 0x2af6_f9a4, 5_741),
                ("alloc_deep", 0xf98d_768c, 14_281),
            ]
            .map(|(name, fingerprint, cycles)| LegPin {
                name,
                fingerprint,
                cycles,
            })
            .to_vec(),
            gsm_reference: pipeline::expected_checksum,
        }
    }

    fn sim_pin(&self, w: Workload) -> Option<SimSig> {
        self.sim.iter().find(|(k, _)| *k == w).map(|(_, s)| *s)
    }
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one benchmark run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

// ---------------------------------------------------------------------------
// Inputs

/// SplitMix64: derives independent workload parameters from the seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A generated system plus what its output is checked against.
struct Case {
    design: Design,
    gsm: Option<PipelineCfg>,
}

fn gsm_cfg(seed: u64) -> PipelineCfg {
    PipelineCfg {
        n_frames: GSM_FRAMES,
        mem_bases: vec![mem_base(0)],
        seed: mix(seed, 1) as u32,
    }
}

/// Program generation: the part of set-up that depends on the seed.
fn codegen(w: Workload, seed: u64) -> Case {
    let bus = InterconnectKind::SharedBus(Default::default());
    match w {
        Workload::GsmPipeline => {
            let cfg = gsm_cfg(seed);
            let cpus = pipeline::stage_programs(&cfg)
                .into_iter()
                .map(CpuSpec::new)
                .collect();
            Case {
                design: Design {
                    cpus,
                    dmas: vec![],
                    mems: vec![MemSpec::wrapper(mem_base(0))],
                    interconnect: bus,
                },
                gsm: Some(cfg),
            }
        }
        Workload::DsmChurn => {
            let wrapper = mem_base(0);
            let heap = mem_base(1);
            let mut cpus = Vec::new();
            // Long lists: the live pointer table far outgrows the TLB.
            for i in 0..3u64 {
                let nodes = 960 + (mix(seed, 10 + i) % 81) as u32;
                cpus.push(sw::linked_list(&WorkloadCfg::at(wrapper).iterations(nodes)));
            }
            // Alloc/free churn beside the lists, on the same table.
            cpus.push(sw::alloc_churn(
                &WorkloadCfg::at(wrapper)
                    .iterations(600)
                    .buf_words(8 + (mix(seed, 20) % 17) as u32),
            ));
            // The paper's in-simulation allocator baseline, kept small.
            cpus.push(sw::alloc_churn(
                &WorkloadCfg::at(heap)
                    .iterations(100)
                    .buf_words(8 + (mix(seed, 21) % 17) as u32),
            ));
            Case {
                design: Design {
                    cpus: cpus.into_iter().map(CpuSpec::new).collect(),
                    dmas: vec![],
                    mems: vec![MemSpec::wrapper(wrapper), MemSpec::simheap(heap)],
                    interconnect: bus,
                },
                gsm: None,
            }
        }
        Workload::DmaStream => {
            const WORDS: u32 = 1024;
            let dma = |j: u64, dst: u32, at: Option<u32>| DmaConfig {
                kind: DmaKind::Fill {
                    seed: mix(seed, 30 + j) as u32,
                },
                dst,
                words: WORDS,
                passes: 12,
                burst: Some(BurstSpec {
                    beats: 16,
                    verify: true,
                    at,
                }),
                ..DmaConfig::default()
            };
            Case {
                design: Design {
                    cpus: vec![],
                    dmas: vec![
                        dma(0, mem_base(0), None),
                        dma(1, mem_base(0), None),
                        dma(2, mem_base(1), Some(0)),
                        dma(3, mem_base(1), Some(WORDS * 4)),
                    ],
                    mems: vec![
                        MemSpec::wrapper(mem_base(0)),
                        MemSpec::static_protocol(mem_base(1)),
                    ],
                    interconnect: InterconnectKind::Crossbar(CrossbarConfig::default()),
                },
                gsm: None,
            }
        }
        Workload::FarmSweep => {
            unreachable!("the farm sweep builds its legs from the farm registry")
        }
    }
}

// ---------------------------------------------------------------------------
// Runs

/// Runs `w` for `cfg.seconds` of timed iterations and checks every one.
pub fn run(w: Workload, cfg: &RunCfg, expect: &Expect) -> Outcome {
    match w {
        Workload::FarmSweep => crate::farm::run_farm_sweep(cfg, expect),
        _ => run_system(w, cfg, expect),
    }
}

/// Simulations per timed iteration of the single-system workloads: one
/// per core of the two-core host the benchmark was defined on. An
/// iteration ends when all its simulations have finished. A single
/// simulation next to an idle core was not a steady measurement on that
/// host (see `README.md`); a batch that keeps every core busy, the way
/// the farm does, was.
const LANES: usize = 2;

/// Timed set-ups (codegen plus build) of a single-system workload run,
/// after one warm-up.
const SETUPS: u32 = 20;

/// What one simulation of an iteration measured.
struct LaneOut {
    /// The whole lane, waits for the other lanes included.
    lane_s: f64,
    run_s: f64,
    obs: Observed,
    /// The decorated twin's run time, layer times and observation.
    traced: Option<(f64, LayerTimes, Observed)>,
}

/// One simulation of an iteration: codegen and build, then — in step
/// with the other lanes — run and check; in traced runs, the decorated
/// twin of the same system after it.
fn lane(w: Workload, seed: u64, expected: Option<u32>, trace: bool, start: &Barrier) -> LaneOut {
    let begun = Instant::now();
    let case = codegen(w, seed);
    let gsm_check = case.gsm.as_ref().zip(expected);
    let traced_design = trace.then(|| case.design.clone());
    let mut sys = case
        .design
        .into_builder()
        .build()
        .expect("benchmark designs are valid");
    start.wait();
    let t = Instant::now();
    let report = sys.run(u64::MAX / 4);
    let run_s = t.elapsed().as_secs_f64();
    let obs = observe_mc(&sys, &report, gsm_check);
    drop(sys);

    let traced = traced_design.map(|design| {
        let clock = Rc::new(LayerClock::default());
        let mut ts = design.into_traced(&clock);
        start.wait();
        let t = Instant::now();
        ts.run_to_end();
        let run = t.elapsed().as_secs_f64();
        let times = LayerTimes {
            run,
            tracing: clock.overhead_seconds(),
            iss: clock.seconds(Layer::Iss),
            module: clock.seconds(Layer::Module),
            backend: clock.seconds(Layer::Backend),
            interconnect: clock.seconds(Layer::Interconnect),
            masters: clock.seconds(Layer::Masters),
        };
        (run, times, observe_traced(&ts, gsm_check))
    });
    LaneOut {
        lane_s: begun.elapsed().as_secs_f64(),
        run_s,
        obs,
        traced,
    }
}

/// The closed loop of a single-system workload: an untimed warm-up
/// iteration, then timed ones until `cfg.seconds` have passed.
fn run_system(w: Workload, cfg: &RunCfg, expect: &Expect) -> Outcome {
    let pin = (cfg.seed == DEFAULT_SEED)
        .then(|| expect.sim_pin(w))
        .flatten();
    let expected = (w == Workload::GsmPipeline).then(|| (expect.gsm_reference)(&gsm_cfg(cfg.seed)));
    // Set-up before the build, charged to the crate that does it.
    let codegen_span = match w {
        Workload::GsmPipeline => "gsm.codegen",
        Workload::DsmChurn => "sw.codegen",
        _ => "masters.config",
    };
    let lanes = LANES.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let start = Barrier::new(lanes);

    // Set-up is timed on its own, one system after another: inside the
    // loop, each build would inherit a heap state left by the previous
    // iteration's run, and set-up times swung by 2x between runs.
    let mut spans = Spans::default();
    let mut setup = Vec::new();
    for i in 0..=SETUPS {
        let root = spans.begin("setup", i, None);
        let s = spans.begin(codegen_span, i, Some(root));
        let case = codegen(w, cfg.seed);
        let t_codegen = spans.end(s);
        let s = spans.begin("system.build", i, Some(root));
        let sys = case
            .design
            .into_builder()
            .build()
            .expect("benchmark designs are valid");
        let t_build = spans.end(s);
        drop(sys);
        spans.end(root);
        if i > 0 {
            setup.push(t_codegen + t_build);
        }
    }

    let mut tally = Tally::default();
    let first = OnceLock::new();
    let mut runs = Vec::new();
    let mut traced_runs = Vec::new();
    let mut layer_times = Vec::new();
    let mut last_traced = Observed::default();

    let started = Instant::now();
    let mut iter = 0u32;
    while iter == 0 || started.elapsed().as_secs_f64() < cfg.seconds || iter < 3 {
        let root = spans.begin("iteration", iter, None);
        let outs: Vec<LaneOut> = std::thread::scope(|scope| {
            let lane = || lane(w, cfg.seed, expected, cfg.trace, &start);
            let others: Vec<_> = (1..lanes).map(|_| scope.spawn(lane)).collect();
            let mut outs = vec![lane()];
            outs.extend(others.into_iter().map(|h| h.join().expect("lane thread")));
            outs
        });
        spans.end(root);
        for (k, o) in outs.iter().enumerate() {
            // Lanes overlap in time, so each is a root span of its own
            // carrying the iteration id.
            let lane = spans.record("lane", iter, None, o.lane_s);
            spans.record("run", iter, Some(lane), o.run_s);
            let ok = o.obs.ok && sig_ok(o.obs.sig(), &first, pin);
            tally.check(ok, || {
                format!("{} iteration {iter} lane {k}: {:?}", w.name(), o.obs.sig())
            });
            if let Some((run, times, tobs)) = &o.traced {
                spans.record("run.traced", iter, Some(lane), *run);
                let same = tobs.ok && first.get() == Some(&tobs.sig());
                tally.check(same, || {
                    format!(
                        "{} traced iteration {iter} lane {k}: {:?}",
                        w.name(),
                        tobs.sig()
                    )
                });
                if iter > 0 {
                    layer_times.push(*times);
                }
                last_traced = tobs.clone();
            }
        }
        if iter > 0 {
            // An iteration's simulations start together; it ends when the
            // slowest one does.
            let slowest =
                |f: fn(&LaneOut) -> Option<f64>| outs.iter().filter_map(f).fold(0.0, f64::max);
            runs.push(slowest(|o| Some(o.run_s)));
            if cfg.trace {
                traced_runs.push(slowest(|o| o.traced.as_ref().map(|t| t.0)));
            }
        }
        iter += 1;
    }

    let first = first.get().copied();
    let cycles = first.map_or(0, |s| s.cycles) as f64;
    let mut notes = tally.notes;
    notes.push(format!(
        "{lanes} simulations per iteration, each simulating: {first:?}"
    ));
    let metrics = if cfg.trace {
        notes.extend(spans.summary());
        let times =
            |f: fn(&LayerTimes) -> f64| median(&layer_times.iter().map(f).collect::<Vec<_>>());
        let lt = LayerTimes {
            run: times(|t| t.run),
            tracing: times(|t| t.tracing),
            iss: times(|t| t.iss),
            module: times(|t| t.module),
            backend: times(|t| t.backend),
            interconnect: times(|t| t.interconnect),
            masters: times(|t| t.masters),
        };
        let kernel_self = times(|t| t.kernel_self());
        layer_metrics(&LayerInput {
            obs: &last_traced,
            times: Some((lt, kernel_self)),
            build_s: median(&spans.each("system.build")),
            gsm_codegen_s: median(&spans.each("gsm.codegen")),
            sw_codegen_s: median(&spans.each("sw.codegen")),
            checkpoint_s: 0.0,
            snapshot_bytes: 0,
            farm: None,
            trace_overhead: ratio(median(&traced_runs), median(&runs)) - 1.0,
        })
    } else {
        end_to_end(
            cycles / median(&runs),
            &runs,
            (lanes * runs.len()) as f64 / runs.iter().sum::<f64>(),
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
