//! Host-time attribution from outside the simulator: timing decorators
//! around each kernel [`Component`] and each memory [`DsmBackend`], and
//! a span log for the coarse phases (codegen, build, run, checkpoint,
//! farm leg replay).
//!
//! Wakes run millions of times per iteration, so they are neither all
//! timed nor stored as spans: each decorated component times a random
//! one in [`SAMPLE_EVERY`] of its calls and sums them, and its host time
//! is estimated as the sampled time scaled by calls over sampled calls.
//! Timing every call would cost two clock reads per wake, several times
//! the work of a typical wake.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use dmi_core::{BeatResult, BlockResult, BurstInfo, DsmBackend, MemStats, OpResult, Request};
use dmi_kernel::{Component, Ctx, SnapshotError, StateReader, StateWriter};

/// Mean spacing of timed calls.
pub const SAMPLE_EVERY: u64 = 16;

/// Which crate a timed component or backend belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `dmi-iss`: CPU components and the halt monitor.
    Iss,
    /// `dmi-core` memory modules (front-end FSMs), backend time included.
    Module,
    /// `dmi-core` memory backends, called from inside module wakes.
    Backend,
    /// `dmi-interconnect`: shared bus or crossbar.
    Interconnect,
    /// `dmi-masters`: DMA engines.
    Masters,
}

/// Call and sampled-time sums of one component or backend.
#[derive(Debug)]
struct Acc {
    calls: Cell<u64>,
    sampled: Cell<u64>,
    sampled_ns: Cell<u64>,
    /// LCG state choosing the sampled calls, so sampling cannot lock onto
    /// a component's periodic behaviour.
    rng: Cell<u64>,
}

impl Acc {
    fn new(seed: u64) -> Self {
        Acc {
            calls: Cell::new(0),
            sampled: Cell::new(0),
            sampled_ns: Cell::new(0),
            rng: Cell::new(seed),
        }
    }

    /// Counts a call and returns whether to time it.
    #[inline]
    fn sample(&self) -> bool {
        self.calls.set(self.calls.get() + 1);
        let x = self
            .rng
            .get()
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.rng.set(x);
        (x >> 32).is_multiple_of(SAMPLE_EVERY)
    }

    #[inline]
    fn add(&self, since: Instant) {
        self.sampled_ns
            .set(self.sampled_ns.get() + since.elapsed().as_nanos() as u64);
        self.sampled.set(self.sampled.get() + 1);
    }

    /// Estimated host seconds over all calls, the clock's own cost inside
    /// each sample taken out.
    fn seconds(&self) -> f64 {
        let sampled = self.sampled.get();
        if sampled == 0 {
            return 0.0;
        }
        let own = (self.sampled_ns.get() as f64 - sampled as f64 * clock_cost().inside_ns).max(0.0);
        own * 1e-9 * self.calls.get() as f64 / sampled as f64
    }
}

/// What timing one call costs on this host, measured once on an empty
/// timed region.
#[derive(Debug, Clone, Copy)]
struct ClockCost {
    /// Nanoseconds a timed empty region reports.
    inside_ns: f64,
    /// Wall nanoseconds one timed region adds to a run.
    total_ns: f64,
}

fn clock_cost() -> ClockCost {
    static COST: std::sync::OnceLock<ClockCost> = std::sync::OnceLock::new();
    *COST.get_or_init(|| {
        const N: u32 = 20_000;
        let mut inside = Duration::ZERO;
        let t0 = Instant::now();
        for _ in 0..N {
            let t = Instant::now();
            inside += std::hint::black_box(t).elapsed();
        }
        let total = t0.elapsed();
        ClockCost {
            inside_ns: inside.as_nanos() as f64 / f64::from(N),
            total_ns: total.as_nanos() as f64 / f64::from(N),
        }
    })
}

/// Times `f` when `acc` samples this call.
#[inline]
fn timed<R>(acc: &Acc, f: impl FnOnce() -> R) -> R {
    if acc.sample() {
        let t = Instant::now();
        let r = f();
        acc.add(t);
        r
    } else {
        f()
    }
}

/// Per-component host-time accumulators of one traced system.
#[derive(Debug, Default)]
pub struct LayerClock {
    accs: RefCell<Vec<(Layer, Rc<Acc>)>>,
}

impl LayerClock {
    fn register(&self, layer: Layer) -> Rc<Acc> {
        let mut accs = self.accs.borrow_mut();
        let acc = Rc::new(Acc::new(accs.len() as u64 + 1));
        accs.push((layer, acc.clone()));
        acc
    }

    /// Wraps `inner` so its wakes are charged to `layer`.
    pub fn wrap(&self, layer: Layer, inner: Box<dyn Component>) -> Box<dyn Component> {
        Box::new(TimedComponent {
            acc: self.register(layer),
            inner,
        })
    }

    /// Host seconds the sampled clock reads themselves added to the run.
    pub fn overhead_seconds(&self) -> f64 {
        let sampled: u64 = self
            .accs
            .borrow()
            .iter()
            .map(|(_, a)| a.sampled.get())
            .sum();
        sampled as f64 * clock_cost().total_ns * 1e-9
    }

    /// Estimated host seconds charged to `layer` so far.
    pub fn seconds(&self, layer: Layer) -> f64 {
        self.accs
            .borrow()
            .iter()
            .filter(|(l, _)| *l == layer)
            .map(|(_, acc)| acc.seconds())
            .fold(0.0, |a, b| a + b)
    }
}

/// A component whose wakes are timed; everything else delegates, so
/// `Simulator::component::<T>` still reaches the inner component.
struct TimedComponent {
    inner: Box<dyn Component>,
    acc: Rc<Acc>,
}

impl Component for TimedComponent {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn wake(&mut self, ctx: &mut Ctx<'_>) {
        timed(&self.acc, || self.inner.wake(ctx))
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }

    fn save_state(&self, w: &mut StateWriter) {
        self.inner.save_state(w)
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.inner.load_state(r)
    }
}

/// A memory backend whose operations are timed. Every trait method is
/// forwarded, the batched burst calls included, so the module takes the
/// same paths it takes with the bare backend.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Box<dyn DsmBackend>,
    acc: Rc<Acc>,
}

impl TimedBackend {
    pub fn new(inner: Box<dyn DsmBackend>, clock: Rc<LayerClock>) -> Self {
        TimedBackend {
            acc: clock.register(Layer::Backend),
            inner,
        }
    }
}

impl DsmBackend for TimedBackend {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn execute(&mut self, req: &Request) -> OpResult {
        timed(&self.acc, || self.inner.execute(req))
    }

    fn burst_write_beat(&mut self, master: u8, value: u32) -> BeatResult {
        timed(&self.acc, || self.inner.burst_write_beat(master, value))
    }

    fn burst_read_beat(&mut self, master: u8) -> BeatResult {
        timed(&self.acc, || self.inner.burst_read_beat(master))
    }

    fn burst_info(&self, master: u8) -> Option<BurstInfo> {
        self.inner.burst_info(master)
    }

    fn burst_read_block(&mut self, master: u8, out: &mut [u32]) -> BlockResult {
        timed(&self.acc, || self.inner.burst_read_block(master, out))
    }

    fn burst_write_block(&mut self, master: u8, values: &[u32]) -> BlockResult {
        timed(&self.acc, || self.inner.burst_write_block(master, values))
    }

    fn free_bytes(&self) -> u32 {
        self.inner.free_bytes()
    }

    fn stats(&self) -> MemStats {
        self.inner.stats()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn save_state(&self, w: &mut StateWriter) {
        self.inner.save_state(w)
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.inner.load_state(r)
    }
}

/// One timed phase: its name, the iteration it belongs to, and the span
/// that caused it.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    iter: u32,
    parent: Option<usize>,
    start: Instant,
    dur: Duration,
}

/// In-memory span log of one benchmark run.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    pub fn begin(&mut self, name: &'static str, iter: u32, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name,
            iter,
            parent,
            start: Instant::now(),
            dur: Duration::ZERO,
        });
        self.spans.len() - 1
    }

    /// Adds a span measured elsewhere (on another thread), `secs` long,
    /// and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        iter: u32,
        parent: Option<usize>,
        secs: f64,
    ) -> usize {
        let id = self.begin(name, iter, parent);
        self.spans[id].dur = Duration::from_secs_f64(secs);
        id
    }

    /// The seconds of every timed (not warm-up) span named `name`.
    pub fn each(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.iter > 0)
            .map(|s| s.dur.as_secs_f64())
            .collect()
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let s = &mut self.spans[id];
        s.dur = s.start.elapsed();
        s.dur.as_secs_f64()
    }

    /// Per timed iteration (iteration 0 is the warm-up), the summed
    /// seconds of every span named `name`, for the iterations in which it
    /// occurs at all.
    pub fn per_iter(&self, name: &str) -> Vec<f64> {
        let mut out: Vec<(u32, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name && s.iter > 0) {
            match out.last_mut() {
                Some((it, sum)) if *it == s.iter => *sum += s.dur.as_secs_f64(),
                _ => out.push((s.iter, s.dur.as_secs_f64())),
            }
        }
        out.into_iter().map(|(_, v)| v).collect()
    }

    /// One line per span name: how many spans, their total seconds, and
    /// their self time (total minus the time their child spans cover).
    pub fn summary(&self) -> Vec<String> {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur.as_secs_f64();
            }
        }
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let (mut n, mut total, mut own) = (0, 0.0, 0.0);
                for (i, s) in self
                    .spans
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.name == name)
                {
                    n += 1;
                    total += s.dur.as_secs_f64();
                    own += s.dur.as_secs_f64() - covered[i];
                }
                format!("span {name}: {n} spans, {total:.6} s, self {own:.6} s")
            })
            .collect()
    }
}
