//! Turning one run's measurements into the named metrics it prints.

use crate::observe::Observed;
use crate::stats::{median, ratio, tail};
use crate::workloads::Metric;

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Per-layer host seconds of one traced iteration.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LayerTimes {
    pub(crate) run: f64,
    /// Clock reads of the sampled calls, charged to no layer.
    pub(crate) tracing: f64,
    pub(crate) iss: f64,
    pub(crate) module: f64,
    pub(crate) backend: f64,
    pub(crate) interconnect: f64,
    pub(crate) masters: f64,
}

impl LayerTimes {
    pub(crate) fn kernel_self(&self) -> f64 {
        self.run - self.tracing - self.iss - self.module - self.interconnect - self.masters
    }
}

pub(crate) fn end_to_end(
    cycles_per_s: f64,
    iter_s: &[f64],
    legs_per_s: f64,
    setup: &[f64],
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let (tail_s, pct, n) = tail(iter_s).unwrap_or_else(|| {
        let max = iter_s.iter().copied().fold(0.0, f64::max);
        (max, 100.0, iter_s.len())
    });
    notes.push(format!(
        "iter_s_tail is the p{pct:.1} of {n} timed iterations (median {:.6} s)",
        median(iter_s)
    ));
    vec![
        m("sim_cycles_per_s", cycles_per_s, "cycles/s"),
        m("iter_s_tail", tail_s, "s"),
        m("legs_per_s", legs_per_s, "1/s"),
        m("setup_s", median(setup), "s"),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Peak resident memory of this process, which runs one workload only.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub(crate) struct FarmLayers {
    pub(crate) attempts: u64,
    pub(crate) retried: u64,
    pub(crate) overhead_ratio: f64,
}

pub(crate) struct LayerInput<'a> {
    pub(crate) obs: &'a Observed,
    /// Traced layer times and the kernel's self time; `None` where the
    /// components could not be decorated (farm legs).
    pub(crate) times: Option<(LayerTimes, f64)>,
    pub(crate) build_s: f64,
    pub(crate) gsm_codegen_s: f64,
    pub(crate) sw_codegen_s: f64,
    pub(crate) checkpoint_s: f64,
    pub(crate) snapshot_bytes: u64,
    pub(crate) farm: Option<FarmLayers>,
    pub(crate) trace_overhead: f64,
}

pub(crate) fn layer_metrics(i: &LayerInput<'_>) -> Vec<Metric> {
    let o = i.obs;
    let sig = o.sig.unwrap_or_default();
    let (lt, kernel_self) = i.times.unwrap_or_default();
    let ns = |secs: f64, n: u64| ratio(secs * 1e9, n as f64);
    let core_s = lt.module;
    let farm = i.farm.as_ref();
    vec![
        m("kernel.events", sig.events as f64, "count"),
        m("kernel.wakes", sig.wakes as f64, "count"),
        m("kernel.deltas", sig.deltas as f64, "count"),
        m(
            "kernel.events_per_cycle",
            ratio(sig.events as f64, sig.cycles as f64),
            "events/cycle",
        ),
        m(
            "kernel.quiet_toggle_ratio",
            ratio(o.quiet_toggles as f64, o.clock_toggles as f64),
            "ratio",
        ),
        m("kernel.self_s", kernel_self, "s"),
        m("kernel.ns_per_event", ns(kernel_self, sig.events), "ns"),
        m("iss.instructions", sig.instructions as f64, "count"),
        m(
            "iss.ipc",
            ratio(sig.instructions as f64, o.cpu_active as f64),
            "instr/cycle",
        ),
        m(
            "iss.icache_hit_ratio",
            ratio(
                o.icache_hits as f64,
                (o.icache_hits + o.icache_misses) as f64,
            ),
            "ratio",
        ),
        m("iss.bus_wait_cycles", o.cpu_bus_wait as f64, "cycles"),
        m("iss.self_s", lt.iss, "s"),
        m("iss.ns_per_instr", ns(lt.iss, sig.instructions), "ns"),
        m("core.ops", sig.backend_ops as f64, "count"),
        m(
            "core.allocs_frees",
            (o.mem.allocs + o.mem.frees) as f64,
            "count",
        ),
        m("core.tlb_hit_ratio", o.mem.tlb_hit_rate(), "ratio"),
        m("core.errors", o.mem.errors as f64, "count"),
        m(
            "core.host_bytes_allocated",
            o.mem.host.bytes_allocated as f64,
            "bytes",
        ),
        m("core.module_self_s", lt.module - lt.backend, "s"),
        m("core.backend_s", lt.backend, "s"),
        m("core.ns_per_op", ns(core_s, sig.backend_ops), "ns"),
        m(
            "interconnect.transactions",
            o.bus.transactions as f64,
            "count",
        ),
        m(
            "interconnect.master_wait_cycles",
            o.bus.master_wait_cycles.iter().sum::<u64>() as f64,
            "cycles",
        ),
        m("interconnect.busy_ratio", o.bus.utilisation(), "ratio"),
        m("interconnect.self_s", lt.interconnect, "s"),
        m(
            "masters.transactions",
            o.masters.transactions as f64,
            "count",
        ),
        m(
            "masters.bus_wait_cycles",
            o.masters.bus_wait_cycles as f64,
            "cycles",
        ),
        m("masters.retries", o.masters.retries as f64, "count"),
        m("masters.self_s", lt.masters, "s"),
        m("system.build_s", i.build_s, "s"),
        m("gsm.codegen_s", i.gsm_codegen_s, "s"),
        m("sw.codegen_s", i.sw_codegen_s, "s"),
        m("system.checkpoint_s", i.checkpoint_s, "s"),
        m("system.snapshot_bytes", i.snapshot_bytes as f64, "bytes"),
        m(
            "farm.attempts",
            farm.map_or(0.0, |f| f.attempts as f64),
            "count",
        ),
        m(
            "farm.retried",
            farm.map_or(0.0, |f| f.retried as f64),
            "count",
        ),
        m(
            "farm.overhead_ratio",
            farm.map_or(0.0, |f| f.overhead_ratio),
            "ratio",
        ),
        m("trace.overhead_ratio", i.trace_overhead, "ratio"),
    ]
}
