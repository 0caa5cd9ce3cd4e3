//! What a finished system shows — its simulated statistics, whether
//! its output is correct, the per-layer counts — and the tally of checks.

use std::sync::OnceLock;

use dmi_core::{MemStats, MemoryModule, WrapperBackend};
use dmi_gsm::pipeline::{self, PipelineCfg, PipelineResult, RESULT_MAGIC};
use dmi_interconnect::{BusStats, MasterStats};
use dmi_iss::CpuComponent;
use dmi_kernel::Simulator;
use dmi_masters::DmaComponent;
use dmi_system::{McSystem, RunReport};

use crate::design::TracedSystem;
use crate::workloads::SimSig;

/// What one finished system shows: its simulated statistics, whether
/// its output is correct, and the per-layer counts.
#[derive(Debug, Clone, Default)]
pub(crate) struct Observed {
    pub(crate) sig: Option<SimSig>,
    pub(crate) ok: bool,
    pub(crate) quiet_toggles: u64,
    pub(crate) clock_toggles: u64,
    pub(crate) icache_hits: u64,
    pub(crate) icache_misses: u64,
    pub(crate) cpu_bus_wait: u64,
    pub(crate) cpu_active: u64,
    pub(crate) mem: MemStats,
    pub(crate) bus: BusStats,
    pub(crate) masters: MasterStats,
}

impl Observed {
    pub(crate) fn sig(&self) -> SimSig {
        self.sig.expect("observed system")
    }

    /// Several systems' observations added up (the farm's legs).
    pub(crate) fn sum(all: &[Observed]) -> Observed {
        let mut t = Observed {
            ok: all.iter().all(|o| o.ok),
            ..Observed::default()
        };
        let mut sig = SimSig::default();
        for o in all {
            let s = o.sig();
            sig.cycles += s.cycles;
            sig.instructions += s.instructions;
            sig.events += s.events;
            sig.wakes += s.wakes;
            sig.deltas += s.deltas;
            sig.backend_ops += s.backend_ops;
            sig.bus_transactions += s.bus_transactions;
            t.quiet_toggles += o.quiet_toggles;
            t.clock_toggles += o.clock_toggles;
            t.icache_hits += o.icache_hits;
            t.icache_misses += o.icache_misses;
            t.cpu_bus_wait += o.cpu_bus_wait;
            t.cpu_active += o.cpu_active;
            t.bus.transactions += o.bus.transactions;
            t.bus.busy_cycles += o.bus.busy_cycles;
            t.bus.idle_cycles += o.bus.idle_cycles;
            t.bus.master_wait_cycles.extend(&o.bus.master_wait_cycles);
            t.masters.transactions += o.masters.transactions;
            t.masters.bus_wait_cycles += o.masters.bus_wait_cycles;
            t.masters.retries += o.masters.retries;
        }
        t.sig = Some(sig);
        t.mem = sum_mem(&all.iter().map(|o| o.mem).collect::<Vec<_>>());
        t
    }
}

fn backend_ops(s: &MemStats) -> u64 {
    s.allocs + s.frees + s.reads + s.writes + s.burst_beats
}

fn sum_mem(all: &[MemStats]) -> MemStats {
    let mut t = MemStats::default();
    for s in all {
        t.allocs += s.allocs;
        t.frees += s.frees;
        t.reads += s.reads;
        t.writes += s.writes;
        t.burst_beats += s.burst_beats;
        t.errors += s.errors;
        t.tlb_hits += s.tlb_hits;
        t.tlb_misses += s.tlb_misses;
        t.host.bytes_allocated += s.host.bytes_allocated;
    }
    t
}

/// Checks and counts one finished system, however it was built.
#[allow(clippy::too_many_arguments)]
fn observe(
    sim: &Simulator,
    cycles: u64,
    cpus: &[&CpuComponent],
    masters: &[MasterStats],
    mems: &[MemStats],
    bus: BusStats,
    mem0: Option<&MemoryModule>,
    gsm: Option<(&PipelineCfg, u32)>,
) -> Observed {
    let mut o = Observed::default();
    let k = sim.stats();
    let fast = sim.fast_path_stats();
    o.quiet_toggles = fast.quiet_toggles;
    o.clock_toggles = fast.clock_toggles;
    let mut instructions = 0;
    for c in cpus {
        let s = c.core().stats();
        instructions += s.instructions;
        o.icache_hits += s.icache_hits;
        o.icache_misses += s.icache_misses;
        o.cpu_bus_wait += c.stats().bus_wait_cycles;
        o.cpu_active += c.stats().active_cycles;
    }
    for s in masters {
        o.masters.transactions += s.transactions;
        o.masters.bus_wait_cycles += s.bus_wait_cycles;
        o.masters.retries += s.retries;
    }
    o.mem = sum_mem(mems);
    o.sig = Some(SimSig {
        cycles,
        instructions,
        events: k.events,
        wakes: k.wakes,
        deltas: k.deltas,
        backend_ops: backend_ops(&o.mem),
        bus_transactions: bus.transactions,
    });
    o.bus = bus;

    // Every CPU exits 0 (the software checks its own data) and every
    // master finishes; burst DMAs read their blocks back and must find
    // their fill pattern.
    o.ok = cpus
        .iter()
        .all(|c| c.core().is_halted() && c.core().exit_code() == 0)
        && masters.iter().all(|s| s.done && s.fault.is_none());
    for (id, _) in sim.components() {
        if let Some(d) = sim.component::<DmaComponent>(id) {
            let s = d.stats();
            o.ok &= s.verify_mismatches == 0 && s.protocol_errors == 0;
        }
    }
    if let Some((cfg, expected)) = gsm {
        let result = mem0
            .and_then(|m| m.backend().as_any().downcast_ref::<WrapperBackend>())
            .and_then(pipeline::extract_result);
        o.ok &= result
            == Some(PipelineResult {
                magic: RESULT_MAGIC,
                frames: cfg.n_frames,
                checksum: expected,
            });
    }
    o
}

pub(crate) fn observe_mc(
    sys: &McSystem,
    report: &RunReport,
    gsm: Option<(&PipelineCfg, u32)>,
) -> Observed {
    let cpus: Vec<&CpuComponent> = (0..sys.cpu_count()).map(|i| sys.cpu(i)).collect();
    let masters: Vec<MasterStats> = report.masters.iter().map(|m| m.stats).collect();
    let mems: Vec<MemStats> = report.mems.iter().map(|m| m.backend).collect();
    let mut o = observe(
        sys.simulator(),
        sys.total_cycles(),
        &cpus,
        &masters,
        &mems,
        report.bus.clone(),
        sys.memory(0),
        gsm,
    );
    o.ok &= report.all_ok();
    o
}

pub(crate) fn observe_traced(ts: &TracedSystem, gsm: Option<(&PipelineCfg, u32)>) -> Observed {
    let cpus: Vec<&CpuComponent> = (0..ts.cpu_ids.len()).map(|i| ts.cpu(i)).collect();
    let mems: Vec<MemStats> = (0..ts.mem_ids.len())
        .map(|j| {
            ts.memory(j)
                .map(|m| m.backend().stats())
                .unwrap_or_default()
        })
        .collect();
    observe(
        &ts.sim,
        ts.cycles(),
        &cpus,
        &ts.master_stats(),
        &mems,
        ts.bus_stats(),
        ts.memory(0),
        gsm,
    )
}

/// Counts iterations and the ones that failed a check.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) notes: Vec<String>,
}

impl Tally {
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }
}

/// An iteration passes when its output is correct and its simulated
/// statistics equal the first finished iteration's (in any lane) and, on
/// the default seed, the pinned ones.
pub(crate) fn sig_ok(sig: SimSig, first: &OnceLock<SimSig>, pin: Option<SimSig>) -> bool {
    sig == *first.get_or_init(|| sig) && pin.is_none_or(|p| p == sig)
}
