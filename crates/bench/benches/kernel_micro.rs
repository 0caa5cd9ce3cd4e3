//! Simulation-kernel microbenches: raw event throughput and signal commit
//! cost — the substrate overheads all experiments sit on.

use criterion::{criterion_group, criterion_main, Criterion};
use dmi_kernel::{Component, Ctx, Edge, Simulator, Wire};

struct Toggler {
    clk: Wire,
    out: Wire,
    state: bool,
}
impl Component for Toggler {
    fn name(&self) -> &str {
        "toggler"
    }
    fn wake(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.is_signal(self.clk) {
            self.state = !self.state;
            ctx.write_bit(self.out, self.state);
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn kernel(c: &mut Criterion) {
    for n in [16usize, 256] {
        c.bench_function(&format!("kernel_1k_cycles_{n}_components"), |b| {
            b.iter(|| {
                let mut sim = Simulator::new();
                let clk = sim.add_clock("clk", 2);
                for i in 0..n {
                    let out = sim.wire(format!("t{i}"), 1);
                    let id = sim.add_component(Box::new(Toggler {
                        clk,
                        out,
                        state: false,
                    }));
                    sim.subscribe(id, clk, Edge::Rising);
                }
                sim.run_for(2000);
                sim.stats().events
            });
        });
    }

    // Subscriber fan-out with mixed edge filters: one clock whose
    // subscribers are split between Rising, Falling and Any (every fourth
    // also subscribed Any a second time, which the per-edge wake lists
    // fold into one entry), plus an 8-bit Any chain where each component
    // also watches the outputs of its two predecessors. Each clock wake
    // rewrites the component's output, so the delta after every edge
    // commits a burst of changes that reach most components twice — the
    // per-delta wake dedupe's work.
    struct Mixed {
        clk: Wire,
        out: Wire,
        n: u64,
    }
    impl Component for Mixed {
        fn name(&self) -> &str {
            "mixed"
        }
        fn wake(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.is_signal(self.clk) {
                self.n += 1;
                ctx.write(self.out, self.n);
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }
    c.bench_function("kernel_1k_cycles_64_components_mixed_edges", |b| {
        b.iter(|| {
            let mut sim = Simulator::new();
            let clk = sim.add_clock("clk", 2);
            let outs: Vec<Wire> = (0..64).map(|i| sim.wire(format!("m{i}"), 8)).collect();
            for (i, &out) in outs.iter().enumerate() {
                let id = sim.add_component(Box::new(Mixed { clk, out, n: 0 }));
                sim.subscribe(id, clk, [Edge::Rising, Edge::Falling, Edge::Any][i % 3]);
                if i % 4 == 0 {
                    sim.subscribe(id, clk, Edge::Any);
                }
                for back in [1, 2] {
                    if i >= back {
                        sim.subscribe(id, outs[i - back], Edge::Any);
                    }
                }
            }
            sim.run_for(2000);
            sim.stats().events
        });
    });

    // Timer storm: `n` components with no clock at all, each re-arming a
    // 1-tick timer on every wake — every tick dispatches `n` queued
    // events at the same (time, delta) key, the densest queued-dispatch
    // pattern the kernel serves. Kept as the sentinel behind the PR 5
    // decision to dispatch queued events one per `Ctx` frame: a hoisted
    // shared frame for same-key runs measured at parity here (queue
    // churn dominates, not frame construction) while costing the
    // clocked benches 5-12 % from codegen layout alone.
    struct TimerStorm {
        fired: u64,
    }
    impl Component for TimerStorm {
        fn name(&self) -> &str {
            "storm"
        }
        fn wake(&mut self, ctx: &mut Ctx<'_>) {
            self.fired += 1;
            ctx.schedule_in(1, 0);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }
    for n in [64usize, 256] {
        c.bench_function(&format!("kernel_1k_ticks_timer_storm_{n}"), |b| {
            b.iter(|| {
                let mut sim = Simulator::new();
                for _ in 0..n {
                    sim.add_component(Box::new(TimerStorm { fired: 0 }));
                }
                sim.run_for(1000);
                sim.stats().events
            });
        });
    }

    // Raw event-queue churn: a standing population of `n` pending timers,
    // each pop rescheduling a few ticks ahead — the classic discrete-event
    // "hold" pattern the time wheel exists for. Benchmarked on both queue
    // implementations to document the crossover.
    use dmi_kernel::{EventKind, EventQueue, Queue, SimTime, WheelQueue};
    fn hold_bench<Q: Queue>(b: &mut criterion::Bencher, q: &mut Q, n: usize) {
        let mut now = 0u64;
        for i in 0..n {
            q.push(
                SimTime::from_ticks(1 + (i as u64 * 7) % 97),
                0,
                EventKind::ClockToggle(i),
            );
        }
        let mut salt = 0u64;
        b.iter(|| {
            let ev = q.pop().expect("standing population");
            now = ev.time.ticks();
            salt = salt.wrapping_mul(6364136223846793005).wrapping_add(13);
            q.push(SimTime::from_ticks(now + 1 + salt % 97), 0, ev.kind);
            now
        });
    }
    for n in [64usize, 1024, 8192] {
        c.bench_function(&format!("event_queue_hold_{n}_pending/heap"), |b| {
            hold_bench(b, &mut EventQueue::new(), n);
        });
        c.bench_function(&format!("event_queue_hold_{n}_pending/wheel"), |b| {
            hold_bench(b, &mut WheelQueue::new(), n);
        });
    }
}

criterion_group!(benches, kernel);
criterion_main!(benches);
