//! System descriptions the benchmark can lower two ways: through
//! [`SystemBuilder`] (the untraced path users take) or hand-wired from
//! the crates' public constructors with every component and memory
//! backend wrapped in a timing decorator (the traced path).
//!
//! The hand-wired lowering repeats `SystemBuilder::build`'s wiring
//! order — clock, masters, memories, interconnect, halt monitor — so
//! the two systems simulate identically; the benchmark checks that on
//! every traced iteration.

use std::rc::Rc;

use dmi_core::{
    MemoryModule, SimHeapBackend, SlavePorts, StaticTableBackend, StaticTableMemory, WrapperBackend,
};
use dmi_interconnect::{
    AddressMap, BusMaster, Crossbar, MasterIf, MasterProbe, MasterWiring, SharedBus, SlaveIf,
};
use dmi_iss::{BusMasterPorts, CpuComponent, CpuCore, HaltMonitor, LocalMemory};
use dmi_kernel::{ComponentId, Edge, Simulator};
use dmi_masters::{DmaConfig, DmaEngine};
use dmi_system::{CpuSpec, InterconnectKind, MemModelKind, MemSpec, SystemBuilder};

use crate::layers::{Layer, LayerClock, TimedBackend};

/// One system: CPUs, then DMA engines, in bus-master order; memories in
/// address-map order; one interconnect on the default clock.
#[derive(Debug, Clone)]
pub struct Design {
    pub cpus: Vec<CpuSpec>,
    pub dmas: Vec<DmaConfig>,
    pub mems: Vec<MemSpec>,
    pub interconnect: InterconnectKind,
}

/// The default clock period of [`SystemBuilder::new`].
const CLOCK_PERIOD: u64 = 2;

impl Design {
    pub fn into_builder(self) -> SystemBuilder {
        let mut b = SystemBuilder::new().interconnect(self.interconnect);
        for cpu in self.cpus {
            b.add_cpu(cpu);
        }
        for dma in self.dmas {
            b.add_master(Box::new(DmaEngine::new(dma)));
        }
        for mem in self.mems {
            b.add_memory(mem);
        }
        b
    }

    /// Hand-wires the system with every component (and every memory
    /// backend) reporting its host time to `clock`.
    pub fn into_traced(self, clock: &Rc<LayerClock>) -> TracedSystem {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", CLOCK_PERIOD);
        let mut master_ifs = Vec::new();
        let mut finish = Vec::new();
        let mut cpu_ids = Vec::new();
        let mut dma_ids = Vec::new();

        for (i, spec) in self.cpus.into_iter().enumerate() {
            let ports = BusMasterPorts::declare(&mut sim, &format!("cpu{i}.bus"));
            let halted = sim.wire(format!("cpu{i}.halted"), 1);
            let mut core = CpuCore::new(i as u32, LocalMemory::new(0, spec.local_mem_size));
            core.set_predecode(spec.predecode);
            core.load_program(&spec.program);
            let comp = CpuComponent::new(format!("cpu{i}"), core, clk, ports, halted);
            let id = sim.add_component(clock.wrap(Layer::Iss, Box::new(comp)));
            sim.subscribe(id, clk, Edge::Rising);
            cpu_ids.push(id);
            finish.push(halted);
            master_ifs.push(MasterIf::from(ports));
        }
        for (n, cfg) in self.dmas.into_iter().enumerate() {
            let spec: Box<dyn BusMaster> = Box::new(DmaEngine::new(cfg));
            let name = format!("{}{n}", spec.kind());
            let ports = MasterIf::declare(&mut sim, &format!("{name}.bus"));
            let done = sim.wire(format!("{name}.done"), 1);
            let probe = spec.probe();
            let comp = spec.into_component(name, MasterWiring { clk, ports, done });
            let id = sim.add_component(clock.wrap(Layer::Masters, comp));
            sim.subscribe(id, clk, Edge::Rising);
            dma_ids.push((id, probe));
            finish.push(done);
            master_ifs.push(ports);
        }

        let mut mem_ids = Vec::new();
        let mut slave_ifs = Vec::new();
        let mut map = AddressMap::new();
        for (j, spec) in self.mems.iter().enumerate() {
            let ports = SlavePorts::declare(&mut sim, &format!("mem{j}.s"));
            map.try_add(spec.base, spec.window, j)
                .expect("benchmark designs have disjoint windows");
            let backend: Box<dyn dmi_core::DsmBackend> = match spec.model {
                MemModelKind::Wrapper(w) => Box::new(WrapperBackend::new(w)),
                MemModelKind::SimHeap(h) => Box::new(SimHeapBackend::new(h)),
                MemModelKind::StaticProtocol(s) => Box::new(StaticTableBackend::new(s)),
                MemModelKind::Static(s) => {
                    let comp = StaticTableMemory::new(format!("mem{j}"), clk, ports, spec.base, s);
                    let id = sim.add_component(clock.wrap(Layer::Module, Box::new(comp)));
                    sim.subscribe(id, clk, Edge::Rising);
                    mem_ids.push(id);
                    slave_ifs.push(slave_if(&ports));
                    continue;
                }
            };
            let backend = Box::new(TimedBackend::new(backend, clock.clone()));
            let module = MemoryModule::new(format!("mem{j}"), clk, ports, spec.base, backend);
            let id = sim.add_component(clock.wrap(Layer::Module, Box::new(module)));
            sim.subscribe(id, clk, Edge::Rising);
            mem_ids.push(id);
            slave_ifs.push(slave_if(&ports));
        }

        let (bus_id, crossbar) = match self.interconnect {
            InterconnectKind::SharedBus(cfg) => {
                let bus = SharedBus::new("bus", clk, master_ifs, slave_ifs, map, cfg);
                (
                    sim.add_component(clock.wrap(Layer::Interconnect, Box::new(bus))),
                    false,
                )
            }
            InterconnectKind::Crossbar(cfg) => {
                let xbar = Crossbar::with_config("xbar", clk, master_ifs, slave_ifs, map, cfg);
                (
                    sim.add_component(clock.wrap(Layer::Interconnect, Box::new(xbar))),
                    true,
                )
            }
        };
        sim.subscribe(bus_id, clk, Edge::Rising);

        let mon =
            sim.add_component(clock.wrap(Layer::Iss, Box::new(HaltMonitor::new(finish.clone()))));
        for w in finish {
            sim.subscribe(mon, w, Edge::Rising);
        }

        TracedSystem {
            sim,
            cpu_ids,
            dma_ids,
            mem_ids,
            bus_id,
            crossbar,
        }
    }
}

fn slave_if(p: &SlavePorts) -> SlaveIf {
    SlaveIf {
        req: p.req,
        we: p.we,
        size: p.size,
        addr: p.addr,
        wdata: p.wdata,
        master: p.master,
        ack: p.ack,
        rdata: p.rdata,
    }
}

/// A hand-wired system built by [`Design::into_traced`].
pub struct TracedSystem {
    pub sim: Simulator,
    pub cpu_ids: Vec<ComponentId>,
    pub dma_ids: Vec<(ComponentId, MasterProbe)>,
    pub mem_ids: Vec<ComponentId>,
    pub bus_id: ComponentId,
    pub crossbar: bool,
}

impl TracedSystem {
    /// Runs until every CPU halts and every master finishes, as
    /// `McSystem::run` does with an unbounded budget.
    pub fn run_to_end(&mut self) {
        self.sim
            .run_until_stopped((u64::MAX / 4).saturating_mul(CLOCK_PERIOD));
    }

    pub fn cycles(&self) -> u64 {
        self.sim.time().ticks() / CLOCK_PERIOD
    }

    pub fn cpu(&self, i: usize) -> &CpuComponent {
        self.sim.component(self.cpu_ids[i]).expect("cpu component")
    }

    pub fn memory(&self, j: usize) -> Option<&MemoryModule> {
        self.sim.component(self.mem_ids[j])
    }

    pub fn bus_stats(&self) -> dmi_interconnect::BusStats {
        if self.crossbar {
            self.sim
                .component::<Crossbar>(self.bus_id)
                .expect("crossbar")
                .stats()
        } else {
            self.sim
                .component::<SharedBus>(self.bus_id)
                .expect("bus")
                .stats()
        }
    }

    pub fn master_stats(&self) -> Vec<dmi_interconnect::MasterStats> {
        self.dma_ids
            .iter()
            .map(|(id, probe)| {
                self.sim
                    .component_any(*id)
                    .and_then(probe)
                    .unwrap_or_default()
            })
            .collect()
    }
}
