//! The SimARM CPU core: a cycle-approximate interpreter.
//!
//! `CpuCore` is deliberately kernel-independent: it executes one instruction
//! per [`CpuCore::step`] call against its private memory and an [`ExtBus`]
//! for everything outside it. The co-simulation component
//! ([`crate::CpuComponent`]) wraps a core and maps step results onto
//! simulated clock cycles; unit tests drive cores directly.
//!
//! ## Two dispatch engines
//!
//! The core carries two observably identical execution engines, selected at
//! run time with [`CpuCore::set_predecode`]:
//!
//! * the **reference interpreter** — the original word-at-a-time path:
//!   fetch, [`decode`] into the [`Instr`] AST, walk its nested operand/
//!   addressing-mode matches. Simple, obviously faithful, slow.
//! * the **predecoded engine** (default) — fetches through a per-core
//!   *decoded-instruction cache*: each line holds the [`MicroOp`] flattened
//!   form of one program word, so the hot loop replaces `decode` plus the
//!   nested match walk with one direct-mapped probe and one flat dispatch.
//!
//! Both engines charge identical cycles, update identical statistics and
//! raise identical faults; `tests/predecode_equivalence.rs` property-tests
//! that over the whole encodable instruction space.
//!
//! ## Decoded-instruction cache correctness
//!
//! A cache line is a *hint*, never an authority (the same discipline as the
//! pointer-table TLB in `dmi-core`). Each line records the raw instruction
//! word it was decoded from plus the [`LocalMemory`] write *generation* it
//! was last validated at:
//!
//! * generation unchanged → memory untouched since validation → the line is
//!   provably current and the fetch is skipped entirely;
//! * generation moved (any local write — data or code) → the line
//!   revalidates by refetching the word and comparing; a match refreshes
//!   the line, a mismatch (self-modifying code) re-decodes.
//!
//! A stale line can therefore cost a refetch, never a wrong execution, and
//! functional results are bit-identical with the cache on or off.
//!
//! ## External accesses and the retry protocol
//!
//! When an instruction touches the external window the core *attempts* the
//! access through the bus. If the bus answers [`ExtResult::Stall`], the core
//! returns [`StepEvent::Stalled`] **without committing any state** — the
//! program counter still points at the instruction. The caller re-invokes
//! `step` once the bus has a response ready; the instruction then re-executes
//! and completes. Because operands cannot change while the CPU is stalled,
//! the retry is exact. Only single-beat transfers may go external: block
//! transfers (LDM/STM) into the window fault, as the shared-memory API uses
//! scalar MMIO operations only.

use dmi_isa::{
    decode, predecode_word, AddrMode, DecodeError, DpOp, Instr, MemSize, MicroOp, MulOp,
    MultiMode, Offset, Operand2, Program, Reg, ShiftKind, UopKind, UopOffset,
};

use crate::bus::{ExtBus, ExtResult, ExtWidth};
use crate::flags::{add_with_carry, Flags};
use crate::localmem::LocalMemory;
use crate::syscall::{Console, Syscall};

/// Default state of the predecode engine, read once per core from the
/// `DMI_PREDECODE` environment variable (`"0"` or `"off"` selects the
/// reference interpreter). CI uses this to run the whole test suite on
/// both dispatch paths without code changes.
pub fn predecode_default() -> bool {
    match std::env::var("DMI_PREDECODE") {
        Ok(v) => !(v == "0" || v.eq_ignore_ascii_case("off")),
        Err(_) => true,
    }
}

/// Per-instruction-class base cycle costs of the timing model.
///
/// External accesses add the bus transaction latency on top of the base
/// cost, because the core retries the instruction when the bus answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleCosts {
    /// Data-processing (ALU) operations.
    pub alu: u64,
    /// 32-bit multiply (MUL/MLA).
    pub mul: u64,
    /// 64-bit multiply (UMULL/SMULL/UMLAL/SMLAL).
    pub mull: u64,
    /// Single load, local.
    pub load: u64,
    /// Single store, local.
    pub store: u64,
    /// Taken branch (including any write to `pc`).
    pub branch: u64,
    /// Block transfer base cost.
    pub ldm_base: u64,
    /// Block transfer per-register cost.
    pub ldm_per_reg: u64,
    /// Software interrupt.
    pub swi: u64,
    /// Condition-false (skipped) instruction.
    pub skipped: u64,
}

impl Default for CycleCosts {
    fn default() -> Self {
        CycleCosts {
            alu: 1,
            mul: 3,
            mull: 4,
            load: 2,
            store: 1,
            branch: 2,
            ldm_base: 1,
            ldm_per_reg: 1,
            swi: 3,
            skipped: 1,
        }
    }
}

/// An unrecoverable execution error. Faults are sticky: once raised, every
/// further `step` returns the same fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpuFault {
    /// Instruction fetch outside private memory.
    FetchOutOfRange(u32),
    /// The fetched word is not a valid instruction.
    Undefined {
        /// Address of the word.
        addr: u32,
        /// The decode failure.
        err: DecodeError,
    },
    /// Data access outside private memory and below the external window.
    DataAbort {
        /// Faulting address.
        addr: u32,
    },
    /// Misaligned data access.
    Unaligned {
        /// Faulting address.
        addr: u32,
        /// Required alignment in bytes.
        align: u32,
    },
    /// The external bus reported no device at this address.
    ExternalFault {
        /// Faulting address.
        addr: u32,
    },
    /// Block transfer targeting the external window.
    ExternalBlockTransfer {
        /// Faulting address.
        addr: u32,
    },
    /// SWI with an unknown call number.
    UnknownSyscall(u16),
    /// `pc` used as the destination of an instruction that cannot branch.
    InvalidPcUse {
        /// Address of the instruction.
        addr: u32,
    },
}

impl std::fmt::Display for CpuFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpuFault::FetchOutOfRange(a) => write!(f, "instruction fetch at {a:#010x} out of range"),
            CpuFault::Undefined { addr, err } => {
                write!(f, "undefined instruction at {addr:#010x}: {err}")
            }
            CpuFault::DataAbort { addr } => write!(f, "data abort at {addr:#010x}"),
            CpuFault::Unaligned { addr, align } => {
                write!(f, "unaligned {align}-byte access at {addr:#010x}")
            }
            CpuFault::ExternalFault { addr } => {
                write!(f, "external bus fault at {addr:#010x}")
            }
            CpuFault::ExternalBlockTransfer { addr } => {
                write!(f, "block transfer into external window at {addr:#010x}")
            }
            CpuFault::UnknownSyscall(n) => write!(f, "unknown syscall #{n}"),
            CpuFault::InvalidPcUse { addr } => {
                write!(f, "invalid pc destination at {addr:#010x}")
            }
        }
    }
}

impl std::error::Error for CpuFault {}

/// Writes a [`CpuFault`] as a variant tag plus its payload.
fn save_cpu_fault(w: &mut dmi_kernel::StateWriter, f: &CpuFault) {
    match f {
        CpuFault::FetchOutOfRange(addr) => {
            w.put_u8(0);
            w.put_u32(*addr);
        }
        CpuFault::Undefined { addr, err } => {
            w.put_u8(1);
            w.put_u32(*addr);
            let (tag, word) = match *err {
                DecodeError::ReservedBits(x) => (0u8, x),
                DecodeError::InvalidMulOp(x) => (1, x),
                DecodeError::InvalidMemSize(x) => (2, x),
                DecodeError::SignedStore(x) => (3, x),
                DecodeError::InvalidAddrMode(x) => (4, x),
                DecodeError::EmptyRegList(x) => (5, x),
                DecodeError::InvalidSysOp(x) => (6, x),
            };
            w.put_u8(tag);
            w.put_u32(word);
        }
        CpuFault::DataAbort { addr } => {
            w.put_u8(2);
            w.put_u32(*addr);
        }
        CpuFault::Unaligned { addr, align } => {
            w.put_u8(3);
            w.put_u32(*addr);
            w.put_u32(*align);
        }
        CpuFault::ExternalFault { addr } => {
            w.put_u8(4);
            w.put_u32(*addr);
        }
        CpuFault::ExternalBlockTransfer { addr } => {
            w.put_u8(5);
            w.put_u32(*addr);
        }
        CpuFault::UnknownSyscall(n) => {
            w.put_u8(6);
            w.put_u32(u32::from(*n));
        }
        CpuFault::InvalidPcUse { addr } => {
            w.put_u8(7);
            w.put_u32(*addr);
        }
    }
}

/// Reads back a [`CpuFault`] written by [`save_cpu_fault`].
fn load_cpu_fault(
    r: &mut dmi_kernel::StateReader<'_>,
) -> Result<CpuFault, dmi_kernel::SnapshotError> {
    let tag = r.get_u8("cpu fault tag")?;
    Ok(match tag {
        0 => CpuFault::FetchOutOfRange(r.get_u32("fault addr")?),
        1 => {
            let addr = r.get_u32("fault addr")?;
            let etag = r.get_u8("decode error tag")?;
            let word = r.get_u32("decode error word")?;
            let err = match etag {
                0 => DecodeError::ReservedBits(word),
                1 => DecodeError::InvalidMulOp(word),
                2 => DecodeError::InvalidMemSize(word),
                3 => DecodeError::SignedStore(word),
                4 => DecodeError::InvalidAddrMode(word),
                5 => DecodeError::EmptyRegList(word),
                6 => DecodeError::InvalidSysOp(word),
                _ => {
                    return Err(dmi_kernel::SnapshotError::Corrupt {
                        context: format!("unknown decode error tag {etag}"),
                    })
                }
            };
            CpuFault::Undefined { addr, err }
        }
        2 => CpuFault::DataAbort {
            addr: r.get_u32("fault addr")?,
        },
        3 => CpuFault::Unaligned {
            addr: r.get_u32("fault addr")?,
            align: r.get_u32("fault align")?,
        },
        4 => CpuFault::ExternalFault {
            addr: r.get_u32("fault addr")?,
        },
        5 => CpuFault::ExternalBlockTransfer {
            addr: r.get_u32("fault addr")?,
        },
        6 => {
            let n = r.get_u32("fault syscall")?;
            let n = u16::try_from(n).map_err(|_| dmi_kernel::SnapshotError::Corrupt {
                context: format!("syscall number {n} out of range"),
            })?;
            CpuFault::UnknownSyscall(n)
        }
        7 => CpuFault::InvalidPcUse {
            addr: r.get_u32("fault addr")?,
        },
        _ => {
            return Err(dmi_kernel::SnapshotError::Corrupt {
                context: format!("unknown cpu fault tag {tag}"),
            })
        }
    })
}

/// Result of one `step` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepEvent {
    /// The instruction committed, consuming this many cycles.
    Executed {
        /// Base cycle cost charged by the timing model.
        cycles: u64,
    },
    /// An external access is in flight; nothing committed. Retry later.
    Stalled,
    /// The CPU has halted (idempotent).
    Halted,
    /// A sticky fault (idempotent).
    Fault(CpuFault),
}

/// Execution statistics of one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Committed instructions.
    pub instructions: u64,
    /// Committed loads (any width, local or external).
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Completed external reads.
    pub ext_reads: u64,
    /// Completed external writes.
    pub ext_writes: u64,
    /// Taken branches (including pc writes).
    pub branches: u64,
    /// Executed software interrupts.
    pub swis: u64,
    /// Instructions skipped by a false condition.
    pub cond_skipped: u64,
    /// Fetches served by the decoded-instruction cache (predecode engine
    /// only; zero on the reference path).
    pub icache_hits: u64,
    /// Fetches that decoded and filled a cache line (predecode engine
    /// only).
    pub icache_misses: u64,
}

impl CpuStats {
    /// Decoded-instruction-cache hit rate (0.0 when no cached fetches were
    /// served, e.g. on the reference path).
    pub fn icache_hit_rate(&self) -> f64 {
        let total = self.icache_hits + self.icache_misses;
        if total == 0 {
            0.0
        } else {
            self.icache_hits as f64 / total as f64
        }
    }
}

/// Sentinel tag marking an unused cache line (no valid word index reaches
/// it: indices are bounded by `local size / 4` < 2^30).
const IC_EMPTY: u32 = u32::MAX;

/// Cache lines for the smallest memories (power of two).
const IC_MIN_LINES: usize = 64;

/// Line-count cap: 16k lines cover a 64 KiB code working set — far beyond
/// the workloads here. At 40 B a line that is 640 KiB of lines per core
/// at most, of which only the pages holding fetched words are resident.
const IC_MAX_LINES: usize = 1 << 14;

/// Lines per page of line storage (10 KiB): the unit the cache allocates
/// in, on the first fill of any line in the page.
const IC_PAGE_LINES: usize = 256;

#[derive(Debug, Clone, Copy)]
struct IcLine {
    /// Word index (`(pc - base) / 4`) this line describes; [`IC_EMPTY`]
    /// when unused.
    tag: u32,
    /// Raw instruction word the micro-op was decoded from.
    word: u32,
    /// Local-memory generation the line was last validated at.
    gen: u64,
    /// The predecoded operation.
    op: MicroOp,
}

const IC_EMPTY_LINE: IcLine = IcLine {
    tag: IC_EMPTY,
    word: 0,
    gen: 0,
    op: MicroOp {
        cond: dmi_isa::Cond::Nv,
        kind: UopKind::Nop,
    },
};

/// The decoded-instruction cache: direct-mapped over word indices. The
/// lines live in pages allocated on first fill, so building or restoring
/// a core writes no lines and the resident size follows the code the
/// core fetches, not the size of its private memory.
#[derive(Debug)]
struct ICache {
    /// The lines, [`IC_PAGE_LINES`] per page; a page never filled is
    /// `None` and reads as empty lines.
    pages: Box<[Option<Box<[IcLine; IC_PAGE_LINES]>>]>,
    /// Line count minus one (the line count is a power of two): maps a
    /// word index to its line.
    mask: usize,
    /// Addressable instruction words in local memory (`size / 4`); word
    /// indices at or above this cannot be fetched as a full word.
    words: u32,
    /// Predicted next fetch: after a lookup at `pc`, the sequential
    /// successor `(pc + 4, widx + 1)`. A matching prediction skips the
    /// range/alignment computation of the full lookup (the fused
    /// fetch+predecode fast path).
    fused_pc: u32,
    fused_widx: u32,
}

impl ICache {
    fn new(mem_size: u32) -> Self {
        let words = mem_size / 4;
        let len = (words as usize)
            .next_power_of_two()
            .clamp(IC_MIN_LINES, IC_MAX_LINES);
        ICache {
            pages: vec![None; len.div_ceil(IC_PAGE_LINES)].into_boxed_slice(),
            mask: len - 1,
            words,
            fused_pc: 0,
            // `fused_widx >= words` never matches, so the predictor starts
            // cold without a separate validity flag.
            fused_widx: u32::MAX,
        }
    }

    #[inline]
    fn slot(&self, widx: u32) -> usize {
        (widx as usize) & self.mask
    }

    /// The line at `slot`.
    #[inline]
    fn line(&self, slot: usize) -> IcLine {
        match &self.pages[slot / IC_PAGE_LINES] {
            Some(page) => page[slot % IC_PAGE_LINES],
            None => IC_EMPTY_LINE,
        }
    }

    /// The line at `slot` for writing, allocating its page on first use.
    #[inline]
    fn line_mut(&mut self, slot: usize) -> &mut IcLine {
        let page = self.pages[slot / IC_PAGE_LINES]
            .get_or_insert_with(|| Box::new([IC_EMPTY_LINE; IC_PAGE_LINES]));
        &mut page[slot % IC_PAGE_LINES]
    }

    /// Records the sequential successor of a completed lookup.
    #[inline]
    fn predict(&mut self, pc: u32, widx: u32) {
        self.fused_pc = pc.wrapping_add(4);
        self.fused_widx = widx + 1; // >= words naturally invalidates
    }
}

/// The CPU core state and interpreter.
#[derive(Debug)]
pub struct CpuCore {
    id: u32,
    regs: [u32; 16],
    flags: Flags,
    local: LocalMemory,
    ext_base: u32,
    costs: CycleCosts,
    halted: bool,
    exit_code: u32,
    cycles: u64,
    console: Console,
    stats: CpuStats,
    fault: Option<CpuFault>,
    icache: ICache,
    predecode: bool,
}

impl CpuCore {
    /// Default start of the external (shared) window.
    pub const DEFAULT_EXT_BASE: u32 = 0x8000_0000;

    /// Creates a core with the given hardware id and private memory.
    /// `sp` starts at the top of private memory; `pc` at its base.
    pub fn new(id: u32, local: LocalMemory) -> Self {
        let sp = local.base() + local.size();
        let pc = local.base();
        let mut regs = [0u32; 16];
        regs[13] = sp;
        regs[15] = pc;
        let icache = ICache::new(local.size());
        CpuCore {
            id,
            regs,
            flags: Flags::default(),
            local,
            ext_base: Self::DEFAULT_EXT_BASE,
            costs: CycleCosts::default(),
            halted: false,
            exit_code: 0,
            cycles: 0,
            console: Console::new(),
            stats: CpuStats::default(),
            fault: None,
            icache,
            predecode: predecode_default(),
        }
    }

    /// Overrides the external-window base address.
    pub fn set_ext_base(&mut self, base: u32) {
        self.ext_base = base;
    }

    /// Overrides the timing model.
    pub fn set_costs(&mut self, costs: CycleCosts) {
        self.costs = costs;
    }

    /// Selects the dispatch engine: predecoded micro-ops with the
    /// decoded-instruction cache (`true`, the default) or the reference
    /// word-at-a-time interpreter (`false`). Both are observably
    /// identical; the switch exists for A/B measurement and differential
    /// testing.
    pub fn set_predecode(&mut self, on: bool) {
        self.predecode = on;
    }

    /// Which dispatch engine is active.
    pub fn predecode_enabled(&self) -> bool {
        self.predecode
    }

    /// Loads a program into private memory and jumps to its base.
    pub fn load_program(&mut self, program: &Program) {
        self.local.load_program(program);
        self.regs[15] = program.base();
    }

    /// The hardware id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Reads a register (raw value; no pc adjustment).
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index() as usize]
    }

    /// Writes a register.
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        self.regs[r.index() as usize] = value;
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.regs[15]
    }

    /// Jumps to an address.
    pub fn set_pc(&mut self, pc: u32) {
        self.regs[15] = pc;
    }

    /// The condition flags.
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// Overwrites the NZCV flags (test setup, e.g. differential harnesses
    /// that must start both engines from an arbitrary flag state).
    pub fn set_flags(&mut self, flags: Flags) {
        self.flags = flags;
    }

    /// Whether the core has executed a halt.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Exit code passed to the halt syscall (`r0`).
    pub fn exit_code(&self) -> u32 {
        self.exit_code
    }

    /// Cycles consumed so far under the timing model.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Execution statistics.
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// Console output captured from SWI services.
    pub fn console(&self) -> &Console {
        &self.console
    }

    /// The sticky fault, if any.
    pub fn fault(&self) -> Option<&CpuFault> {
        self.fault.as_ref()
    }

    /// Private memory (diagnostics and loaders).
    pub fn local(&self) -> &LocalMemory {
        &self.local
    }

    /// Mutable private memory (test setup). Safe with the decoded-
    /// instruction cache: every mutation moves the memory's write
    /// generation, which forces cache lines to revalidate.
    pub fn local_mut(&mut self) -> &mut LocalMemory {
        &mut self.local
    }

    /// Serializes the architectural and accounting state: registers,
    /// flags, private memory (including its write generations), halt
    /// state, cycle counter, console output, statistics and any sticky
    /// fault. The decoded-instruction cache is *not* serialized — it is
    /// a validated cache rebuilt lazily after restore, so
    /// `icache_hits`/`icache_misses` legitimately diverge between a
    /// restored and a continuous run while every architectural effect
    /// stays bit-identical.
    pub fn save_state(&self, w: &mut dmi_kernel::StateWriter) {
        for r in &self.regs {
            w.put_u32(*r);
        }
        w.put_bool(self.flags.n);
        w.put_bool(self.flags.z);
        w.put_bool(self.flags.c);
        w.put_bool(self.flags.v);
        self.local.save_state(w);
        w.put_bool(self.halted);
        w.put_u32(self.exit_code);
        w.put_u64(self.cycles);
        w.put_bytes(self.console.bytes());
        w.put_u64(self.stats.instructions);
        w.put_u64(self.stats.loads);
        w.put_u64(self.stats.stores);
        w.put_u64(self.stats.ext_reads);
        w.put_u64(self.stats.ext_writes);
        w.put_u64(self.stats.branches);
        w.put_u64(self.stats.swis);
        w.put_u64(self.stats.cond_skipped);
        w.put_u64(self.stats.icache_hits);
        w.put_u64(self.stats.icache_misses);
        match &self.fault {
            None => w.put_bool(false),
            Some(f) => {
                w.put_bool(true);
                save_cpu_fault(w, f);
            }
        }
    }

    /// Restores state written by [`CpuCore::save_state`] onto a core
    /// with the same memory geometry, resetting the decoded-instruction
    /// cache cold: its line pages are dropped, not refilled, and come
    /// back one page per first fill. The restored `icache_hits` and
    /// `icache_misses` then count from the saved values over a cold
    /// cache, so they can differ from a continuous run's.
    pub fn load_state(
        &mut self,
        r: &mut dmi_kernel::StateReader<'_>,
    ) -> Result<(), dmi_kernel::SnapshotError> {
        for reg in &mut self.regs {
            *reg = r.get_u32("cpu register")?;
        }
        self.flags.n = r.get_bool("cpu flag n")?;
        self.flags.z = r.get_bool("cpu flag z")?;
        self.flags.c = r.get_bool("cpu flag c")?;
        self.flags.v = r.get_bool("cpu flag v")?;
        self.local.load_state(r)?;
        self.halted = r.get_bool("cpu halted")?;
        self.exit_code = r.get_u32("cpu exit_code")?;
        self.cycles = r.get_u64("cpu cycles")?;
        self.console
            .restore_bytes(r.get_bytes("cpu console")?.to_vec());
        self.stats.instructions = r.get_u64("cpu stats.instructions")?;
        self.stats.loads = r.get_u64("cpu stats.loads")?;
        self.stats.stores = r.get_u64("cpu stats.stores")?;
        self.stats.ext_reads = r.get_u64("cpu stats.ext_reads")?;
        self.stats.ext_writes = r.get_u64("cpu stats.ext_writes")?;
        self.stats.branches = r.get_u64("cpu stats.branches")?;
        self.stats.swis = r.get_u64("cpu stats.swis")?;
        self.stats.cond_skipped = r.get_u64("cpu stats.cond_skipped")?;
        self.stats.icache_hits = r.get_u64("cpu stats.icache_hits")?;
        self.stats.icache_misses = r.get_u64("cpu stats.icache_misses")?;
        self.fault = if r.get_bool("cpu fault flag")? {
            Some(load_cpu_fault(r)?)
        } else {
            None
        };
        self.icache = ICache::new(self.local.size());
        Ok(())
    }

    #[inline]
    fn is_external(&self, addr: u32) -> bool {
        addr >= self.ext_base
    }

    /// Register read with pc-relative semantics: `pc` reads as the address
    /// of the current instruction plus 8.
    #[inline]
    fn read_op(&self, r: Reg) -> u32 {
        if r.is_pc() {
            self.regs[15].wrapping_add(8)
        } else {
            self.regs[r.index() as usize]
        }
    }

    fn raise(&mut self, fault: CpuFault) -> StepEvent {
        self.fault = Some(fault.clone());
        StepEvent::Fault(fault)
    }

    fn done(&mut self, cycles: u64) -> StepEvent {
        self.cycles += cycles;
        self.stats.instructions += 1;
        StepEvent::Executed { cycles }
    }

    #[inline]
    fn advance(&mut self) {
        self.regs[15] = self.regs[15].wrapping_add(4);
    }

    /// Barrel shift of a register value by a constant amount (the
    /// `Operand2::Reg` path), returning value and carry-out.
    #[inline]
    fn shift_reg(&self, rm: Reg, shift: ShiftKind, amount: u8) -> (u32, Option<bool>) {
        let v = self.read_op(rm);
        if amount == 0 {
            return (v, None);
        }
        let a = amount as u32;
        match shift {
            ShiftKind::Lsl => (v << a, Some(v & (1 << (32 - a)) != 0)),
            ShiftKind::Lsr => (v >> a, Some(v & (1 << (a - 1)) != 0)),
            ShiftKind::Asr => (((v as i32) >> a) as u32, Some(v & (1 << (a - 1)) != 0)),
            ShiftKind::Ror => (v.rotate_right(a), Some(v & (1 << (a - 1)) != 0)),
        }
    }

    /// Computes the barrel-shifter output and its carry-out (when defined).
    fn shifter(&self, op2: Operand2) -> (u32, Option<bool>) {
        match op2 {
            Operand2::Imm { imm8, rot } => {
                let v = (imm8 as u32).rotate_right(rot as u32 * 2);
                let carry = if rot != 0 {
                    Some(v & 0x8000_0000 != 0)
                } else {
                    None
                };
                (v, carry)
            }
            Operand2::Reg { rm, shift, amount } => self.shift_reg(rm, shift, amount),
        }
    }

    /// Executes one instruction. See the module docs for the stall/retry
    /// contract on external accesses and the dispatch-engine selection.
    pub fn step(&mut self, ext: &mut dyn ExtBus) -> StepEvent {
        if let Some(f) = &self.fault {
            return StepEvent::Fault(f.clone());
        }
        if self.halted {
            return StepEvent::Halted;
        }
        if self.predecode {
            self.step_predecoded(ext)
        } else {
            self.step_reference(ext)
        }
    }

    /// The predecoded engine: fetch through the decoded-instruction cache,
    /// dispatch one flat match over the micro-op.
    fn step_predecoded(&mut self, ext: &mut dyn ExtBus) -> StepEvent {
        let pc = self.regs[15];
        let gen = self.local.generation();

        // Resolve the cacheable word index: the fused fast path reuses the
        // successor predicted by the previous fetch; otherwise derive it
        // from scratch (and bypass the cache for unaligned or out-of-range
        // program counters, which mirror the reference fetch exactly).
        let widx = if pc == self.icache.fused_pc && self.icache.fused_widx < self.icache.words {
            self.icache.fused_widx
        } else {
            let off = pc.wrapping_sub(self.local.base());
            let size = self.local.size();
            if off & 3 == 0 && off < size && size - off >= 4 {
                off >> 2
            } else {
                // Not cacheable: fetch and predecode in place.
                let word = match self.local.read32(pc) {
                    Ok(w) => w,
                    Err(_) => return self.raise(CpuFault::FetchOutOfRange(pc)),
                };
                let op = match predecode_word(word) {
                    Ok(op) => op,
                    Err(err) => return self.raise(CpuFault::Undefined { addr: pc, err }),
                };
                return self.exec_uop(ext, op);
            }
        };

        let slot = self.icache.slot(widx);
        let line = self.icache.line(slot);
        if line.tag == widx {
            if line.gen == gen {
                // Memory untouched since validation: the line is provably
                // current — skip the fetch entirely.
                self.stats.icache_hits += 1;
                self.icache.predict(pc, widx);
                return self.exec_uop(ext, line.op);
            }
            // Generation moved: if the memory's dirty window proves no
            // write since validation touched this word, the line is
            // current without a fetch — the fast path store-heavy loops
            // stay on (stores land in data, fetches in code). Otherwise
            // revalidate against the live word (self-modifying-code
            // safety — see the module docs).
            if self.local.untouched_since(line.gen, pc, 4) {
                self.icache.line_mut(slot).gen = gen;
                self.stats.icache_hits += 1;
                self.icache.predict(pc, widx);
                return self.exec_uop(ext, line.op);
            }
            let word = self.local.read32(pc).expect("cacheable range");
            if line.word == word {
                self.icache.line_mut(slot).gen = gen;
                self.stats.icache_hits += 1;
                self.icache.predict(pc, widx);
                return self.exec_uop(ext, line.op);
            }
        }

        // Miss: fetch, predecode, fill.
        self.stats.icache_misses += 1;
        let word = self.local.read32(pc).expect("cacheable range");
        let op = match predecode_word(word) {
            Ok(op) => op,
            Err(err) => return self.raise(CpuFault::Undefined { addr: pc, err }),
        };
        *self.icache.line_mut(slot) = IcLine {
            tag: widx,
            word,
            gen,
            op,
        };
        self.icache.predict(pc, widx);
        self.exec_uop(ext, op)
    }

    /// Executes one predecoded micro-op: one condition check, one flat
    /// dispatch. Hot arms (ALU, branch, load/store) lead.
    fn exec_uop(&mut self, ext: &mut dyn ExtBus, uop: MicroOp) -> StepEvent {
        if !self.flags.check(uop.cond) {
            self.stats.cond_skipped += 1;
            self.advance();
            return self.done(self.costs.skipped);
        }
        match uop.kind {
            UopKind::AluImm {
                op, s, rd, rn, imm, carry,
            } => self.exec_alu(op, s, rd, rn, imm, carry),
            UopKind::AluReg {
                op, s, rd, rn, rm, shift, amount,
            } => {
                let (op2v, carry) = self.shift_reg(rm, shift, amount);
                self.exec_alu(op, s, rd, rn, op2v, carry)
            }
            UopKind::Branch { link, delta } => {
                let target = self.regs[15].wrapping_add(delta);
                if link {
                    self.regs[14] = self.regs[15].wrapping_add(4);
                }
                self.regs[15] = target;
                self.stats.branches += 1;
                self.done(self.costs.branch)
            }
            UopKind::Load {
                size, rd, rn, offset, writeback, post,
            } => {
                let rnv = self.read_op(rn);
                let indexed = rnv.wrapping_add(self.offset_value(offset));
                let addr = if post { rnv } else { indexed };
                self.exec_ldst_at(ext, true, size, rd, rn, indexed, addr, writeback)
            }
            UopKind::Store {
                size, rd, rn, offset, writeback, post,
            } => {
                let rnv = self.read_op(rn);
                let indexed = rnv.wrapping_add(self.offset_value(offset));
                let addr = if post { rnv } else { indexed };
                self.exec_ldst_at(ext, false, size, rd, rn, indexed, addr, writeback)
            }
            UopKind::Mul32 {
                acc, s, rd, rn, rs, rm,
            } => {
                let mut r = self.read_op(rm).wrapping_mul(self.read_op(rs));
                if acc {
                    r = r.wrapping_add(self.read_op(rn));
                }
                self.regs[rd.index() as usize] = r;
                if s {
                    self.flags.set_nz(r);
                }
                self.advance();
                self.done(self.costs.mul)
            }
            UopKind::Mul64 {
                signed, acc, s, rd, rn, rs, rm,
            } => {
                let rmv = self.read_op(rm);
                let rsv = self.read_op(rs);
                let product = if signed {
                    ((rmv as i32 as i64).wrapping_mul(rsv as i32 as i64)) as u64
                } else {
                    (rmv as u64).wrapping_mul(rsv as u64)
                };
                let a = if acc {
                    ((self.regs[rd.index() as usize] as u64) << 32)
                        | self.regs[rn.index() as usize] as u64
                } else {
                    0
                };
                let r = product.wrapping_add(a);
                self.regs[rn.index() as usize] = r as u32; // low
                self.regs[rd.index() as usize] = (r >> 32) as u32; // high
                if s {
                    self.flags.set_nz64(r);
                }
                self.advance();
                self.done(self.costs.mull)
            }
            UopKind::BranchReg { link, rm } => {
                let target = self.read_op(rm) & !3;
                if link {
                    self.regs[14] = self.regs[15].wrapping_add(4);
                }
                self.regs[15] = target;
                self.stats.branches += 1;
                self.done(self.costs.branch)
            }
            UopKind::LoadMulti {
                rn, list, writeback, db,
            } => self.exec_ldstm_flat(true, db, writeback, rn, list),
            UopKind::StoreMulti {
                rn, list, writeback, db,
            } => self.exec_ldstm_flat(false, db, writeback, rn, list),
            UopKind::MovImm16 { top, rd, imm } => {
                let old = self.regs[rd.index() as usize];
                self.regs[rd.index() as usize] = if top {
                    (old & 0x0000_FFFF) | ((imm as u32) << 16)
                } else {
                    imm as u32
                };
                self.advance();
                self.done(self.costs.alu)
            }
            UopKind::Clz { rd, rm } => {
                let v = self.read_op(rm).leading_zeros();
                self.regs[rd.index() as usize] = v;
                self.advance();
                self.done(self.costs.alu)
            }
            UopKind::Swi { imm } => self.exec_swi(imm),
            UopKind::Nop => {
                self.advance();
                self.done(self.costs.alu)
            }
            UopKind::PcFault => {
                let pc = self.regs[15];
                self.raise(CpuFault::InvalidPcUse { addr: pc })
            }
        }
    }

    #[inline]
    fn offset_value(&self, offset: UopOffset) -> u32 {
        match offset {
            UopOffset::Imm(v) => v,
            UopOffset::RegAdd(rm) => self.read_op(rm),
            UopOffset::RegSub(rm) => self.read_op(rm).wrapping_neg(),
        }
    }

    /// The reference engine: the original fetch → [`decode`] → nested-match
    /// interpreter, kept verbatim as the behavioural oracle for the
    /// predecoded path (and selectable at run time for A/B measurement).
    fn step_reference(&mut self, ext: &mut dyn ExtBus) -> StepEvent {
        let pc = self.regs[15];
        let word = match self.local.read32(pc) {
            Ok(w) => w,
            Err(_) => return self.raise(CpuFault::FetchOutOfRange(pc)),
        };
        let instr = match decode(word) {
            Ok(i) => i,
            Err(err) => return self.raise(CpuFault::Undefined { addr: pc, err }),
        };
        if !self.flags.check(instr.cond()) {
            self.stats.cond_skipped += 1;
            self.advance();
            return self.done(self.costs.skipped);
        }
        match instr {
            Instr::Dp {
                op, s, rd, rn, op2, ..
            } => self.exec_dp(op, s, rd, rn, op2),
            Instr::Mul {
                op, s, rd, rn, rs, rm, ..
            } => self.exec_mul(op, s, rd, rn, rs, rm),
            Instr::LdSt {
                load,
                size,
                rd,
                rn,
                offset,
                up,
                mode,
                ..
            } => self.exec_ldst(ext, load, size, rd, rn, offset, up, mode),
            Instr::LdStM {
                load,
                mode,
                writeback,
                rn,
                list,
                ..
            } => self.exec_ldstm(load, mode, writeback, rn, list),
            Instr::Branch { link, offset, .. } => {
                let target = self
                    .regs[15]
                    .wrapping_add(8)
                    .wrapping_add((offset as u32).wrapping_mul(4));
                if link {
                    self.regs[14] = self.regs[15].wrapping_add(4);
                }
                self.regs[15] = target;
                self.stats.branches += 1;
                self.done(self.costs.branch)
            }
            Instr::Bx { link, rm, .. } => {
                let target = self.read_op(rm) & !3;
                if link {
                    self.regs[14] = self.regs[15].wrapping_add(4);
                }
                self.regs[15] = target;
                self.stats.branches += 1;
                self.done(self.costs.branch)
            }
            Instr::Swi { imm, .. } => self.exec_swi(imm),
            Instr::Nop { .. } => {
                self.advance();
                self.done(self.costs.alu)
            }
            Instr::Clz { rd, rm, .. } => {
                if rd.is_pc() {
                    return self.raise(CpuFault::InvalidPcUse { addr: pc });
                }
                let v = self.read_op(rm).leading_zeros();
                self.regs[rd.index() as usize] = v;
                self.advance();
                self.done(self.costs.alu)
            }
            Instr::MovW { top, rd, imm, .. } => {
                if rd.is_pc() {
                    return self.raise(CpuFault::InvalidPcUse { addr: pc });
                }
                let old = self.regs[rd.index() as usize];
                self.regs[rd.index() as usize] = if top {
                    (old & 0x0000_FFFF) | ((imm as u32) << 16)
                } else {
                    imm as u32
                };
                self.advance();
                self.done(self.costs.alu)
            }
        }
    }

    /// ALU execution from a resolved operand-2 value (shared by both
    /// engines; the predecoded path arrives here with the shifter already
    /// folded away for immediates).
    fn exec_alu(
        &mut self,
        op: DpOp,
        s: bool,
        rd: Reg,
        rn: Reg,
        op2v: u32,
        shifter_carry: Option<bool>,
    ) -> StepEvent {
        let rnv = self.read_op(rn);
        let c_in = self.flags.c;

        // (result, arithmetic carry/overflow if any)
        let (result, arith): (u32, Option<(bool, bool)>) = match op {
            DpOp::And | DpOp::Tst => (rnv & op2v, None),
            DpOp::Eor | DpOp::Teq => (rnv ^ op2v, None),
            DpOp::Sub | DpOp::Cmp => {
                let (r, c, v) = add_with_carry(rnv, !op2v, true);
                (r, Some((c, v)))
            }
            DpOp::Rsb => {
                let (r, c, v) = add_with_carry(op2v, !rnv, true);
                (r, Some((c, v)))
            }
            DpOp::Add | DpOp::Cmn => {
                let (r, c, v) = add_with_carry(rnv, op2v, false);
                (r, Some((c, v)))
            }
            DpOp::Adc => {
                let (r, c, v) = add_with_carry(rnv, op2v, c_in);
                (r, Some((c, v)))
            }
            DpOp::Sbc => {
                let (r, c, v) = add_with_carry(rnv, !op2v, c_in);
                (r, Some((c, v)))
            }
            DpOp::Rsc => {
                let (r, c, v) = add_with_carry(op2v, !rnv, c_in);
                (r, Some((c, v)))
            }
            DpOp::Orr => (rnv | op2v, None),
            DpOp::Mov => (op2v, None),
            DpOp::Bic => (rnv & !op2v, None),
            DpOp::Mvn => (!op2v, None),
        };

        // Compares always update flags; other ops only with S.
        if s || op.is_compare() {
            self.flags.set_nz(result);
            match arith {
                Some((c, v)) => {
                    self.flags.c = c;
                    self.flags.v = v;
                }
                None => {
                    if let Some(c) = shifter_carry {
                        self.flags.c = c;
                    }
                }
            }
        }

        if op.is_compare() {
            self.advance();
            return self.done(self.costs.alu);
        }
        if rd.is_pc() {
            self.regs[15] = result & !3;
            self.stats.branches += 1;
            return self.done(self.costs.branch);
        }
        self.regs[rd.index() as usize] = result;
        self.advance();
        self.done(self.costs.alu)
    }

    fn exec_dp(&mut self, op: DpOp, s: bool, rd: Reg, rn: Reg, op2: Operand2) -> StepEvent {
        let (op2v, shifter_carry) = self.shifter(op2);
        self.exec_alu(op, s, rd, rn, op2v, shifter_carry)
    }

    fn exec_mul(&mut self, op: MulOp, s: bool, rd: Reg, rn: Reg, rs: Reg, rm: Reg) -> StepEvent {
        let pc = self.regs[15];
        if rd.is_pc() || (op.is_long() && rn.is_pc()) || (op == MulOp::Mla && rn.is_pc()) {
            return self.raise(CpuFault::InvalidPcUse { addr: pc });
        }
        let rmv = self.read_op(rm);
        let rsv = self.read_op(rs);
        match op {
            MulOp::Mul | MulOp::Mla => {
                let mut r = rmv.wrapping_mul(rsv);
                if op == MulOp::Mla {
                    r = r.wrapping_add(self.read_op(rn));
                }
                self.regs[rd.index() as usize] = r;
                if s {
                    self.flags.set_nz(r);
                }
                self.advance();
                self.done(self.costs.mul)
            }
            MulOp::Umull | MulOp::Umlal | MulOp::Smull | MulOp::Smlal => {
                let product = match op {
                    MulOp::Umull | MulOp::Umlal => (rmv as u64).wrapping_mul(rsv as u64),
                    _ => ((rmv as i32 as i64).wrapping_mul(rsv as i32 as i64)) as u64,
                };
                let acc = if matches!(op, MulOp::Umlal | MulOp::Smlal) {
                    ((self.regs[rd.index() as usize] as u64) << 32)
                        | self.regs[rn.index() as usize] as u64
                } else {
                    0
                };
                let r = product.wrapping_add(acc);
                self.regs[rn.index() as usize] = r as u32; // low
                self.regs[rd.index() as usize] = (r >> 32) as u32; // high
                if s {
                    self.flags.set_nz64(r);
                }
                self.advance();
                self.done(self.costs.mull)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_ldst(
        &mut self,
        ext: &mut dyn ExtBus,
        load: bool,
        size: MemSize,
        rd: Reg,
        rn: Reg,
        offset: Offset,
        up: bool,
        mode: AddrMode,
    ) -> StepEvent {
        let rnv = self.read_op(rn);
        let offv = match offset {
            Offset::Imm(v) => v as u32,
            Offset::Reg(rm) => self.read_op(rm),
        };
        let indexed = if up {
            rnv.wrapping_add(offv)
        } else {
            rnv.wrapping_sub(offv)
        };
        let addr = match mode {
            AddrMode::Offset | AddrMode::PreIndex => indexed,
            AddrMode::PostIndex => rnv,
        };
        self.exec_ldst_at(
            ext,
            load,
            size,
            rd,
            rn,
            indexed,
            addr,
            mode != AddrMode::Offset,
        )
    }

    /// Load/store execution from a resolved effective address (shared by
    /// both engines).
    #[allow(clippy::too_many_arguments)]
    fn exec_ldst_at(
        &mut self,
        ext: &mut dyn ExtBus,
        load: bool,
        size: MemSize,
        rd: Reg,
        rn: Reg,
        indexed: u32,
        addr: u32,
        writeback: bool,
    ) -> StepEvent {
        let width = size.bytes();
        if !addr.is_multiple_of(width) {
            return self.raise(CpuFault::Unaligned { addr, align: width });
        }

        let value: u32;
        if self.is_external(addr) {
            let ext_width = match size {
                MemSize::Byte | MemSize::SByte => ExtWidth::Byte,
                MemSize::Half | MemSize::SHalf => ExtWidth::Half,
                MemSize::Word => ExtWidth::Word,
            };
            let result = if load {
                ext.ext_read(addr, ext_width)
            } else {
                ext.ext_write(addr, self.read_op(rd) & width_mask(width), ext_width)
            };
            match result {
                ExtResult::Stall => return StepEvent::Stalled,
                ExtResult::Fault => return self.raise(CpuFault::ExternalFault { addr }),
                ExtResult::Done(v) => {
                    if load {
                        self.stats.ext_reads += 1;
                    } else {
                        self.stats.ext_writes += 1;
                    }
                    value = extend(v, size);
                }
            }
        } else {
            let r = if load {
                match width {
                    1 => self.local.read8(addr).map(|v| v as u32),
                    2 => self.local.read16(addr).map(|v| v as u32),
                    _ => self.local.read32(addr),
                }
            } else {
                let sv = self.read_op(rd);
                match width {
                    1 => self.local.write8(addr, sv as u8).map(|()| 0),
                    2 => self.local.write16(addr, sv as u16).map(|()| 0),
                    _ => self.local.write32(addr, sv).map(|()| 0),
                }
            };
            match r {
                Ok(v) => value = extend(v, size),
                Err(_) => return self.raise(CpuFault::DataAbort { addr }),
            }
        }

        // Commit phase: writeback, destination, pc.
        if writeback {
            self.regs[rn.index() as usize] = indexed;
        }
        let mut branched = false;
        if load {
            self.stats.loads += 1;
            if rd.is_pc() {
                self.regs[15] = value & !3;
                self.stats.branches += 1;
                branched = true;
            } else {
                // On rd == rn with writeback, the loaded value wins.
                self.regs[rd.index() as usize] = value;
            }
        } else {
            self.stats.stores += 1;
        }
        if !branched {
            self.advance();
        }
        let cost = if load {
            self.costs.load
        } else {
            self.costs.store
        };
        self.done(if branched { cost + self.costs.branch } else { cost })
    }

    fn exec_ldstm(
        &mut self,
        load: bool,
        mode: MultiMode,
        writeback: bool,
        rn: Reg,
        list: u16,
    ) -> StepEvent {
        self.exec_ldstm_flat(load, mode == MultiMode::Db, writeback, rn, list)
    }

    /// Block-transfer execution with the address progression reduced to a
    /// boolean (shared by both engines).
    fn exec_ldstm_flat(
        &mut self,
        load: bool,
        db: bool,
        writeback: bool,
        rn: Reg,
        list: u16,
    ) -> StepEvent {
        let rnv = self.read_op(rn);
        let count = list.count_ones();
        let start = if db { rnv.wrapping_sub(4 * count) } else { rnv };
        if start % 4 != 0 {
            return self.raise(CpuFault::Unaligned {
                addr: start,
                align: 4,
            });
        }
        if self.is_external(start) || self.is_external(start.wrapping_add(4 * count - 1)) {
            return self.raise(CpuFault::ExternalBlockTransfer { addr: start });
        }

        // Pre-read stored values (so a base in the list stores its original
        // value regardless of writeback ordering).
        let mut addr = start;
        if load {
            let mut loaded: Vec<(Reg, u32)> = Vec::with_capacity(count as usize);
            for i in 0..16 {
                if list & (1 << i) != 0 {
                    match self.local.read32(addr) {
                        Ok(v) => loaded.push((Reg::new(i), v)),
                        Err(_) => return self.raise(CpuFault::DataAbort { addr }),
                    }
                    addr = addr.wrapping_add(4);
                }
            }
            if writeback {
                let final_base = if db {
                    start
                } else {
                    rnv.wrapping_add(4 * count)
                };
                self.regs[rn.index() as usize] = final_base;
            }
            let mut branched = false;
            for (r, v) in loaded {
                if r.is_pc() {
                    self.regs[15] = v & !3;
                    self.stats.branches += 1;
                    branched = true;
                } else {
                    self.regs[r.index() as usize] = v;
                }
            }
            self.stats.loads += count as u64;
            if !branched {
                self.advance();
            }
            self.done(self.costs.ldm_base + self.costs.ldm_per_reg * count as u64)
        } else {
            for i in 0..16 {
                if list & (1 << i) != 0 {
                    let v = self.read_op(Reg::new(i));
                    if self.local.write32(addr, v).is_err() {
                        return self.raise(CpuFault::DataAbort { addr });
                    }
                    addr = addr.wrapping_add(4);
                }
            }
            if writeback {
                let final_base = if db {
                    start
                } else {
                    rnv.wrapping_add(4 * count)
                };
                self.regs[rn.index() as usize] = final_base;
            }
            self.stats.stores += count as u64;
            self.advance();
            self.done(self.costs.ldm_base + self.costs.ldm_per_reg * count as u64)
        }
    }

    fn exec_swi(&mut self, imm: u16) -> StepEvent {
        let Some(call) = Syscall::from_imm(imm) else {
            return self.raise(CpuFault::UnknownSyscall(imm));
        };
        self.stats.swis += 1;
        match call {
            Syscall::Halt => {
                self.halted = true;
                self.exit_code = self.regs[0];
                self.advance();
                self.done(self.costs.swi)
            }
            Syscall::PutChar => {
                self.console.put(self.regs[0] as u8);
                self.advance();
                self.done(self.costs.swi)
            }
            Syscall::Cycles => {
                self.regs[0] = self.cycles as u32;
                self.regs[1] = (self.cycles >> 32) as u32;
                self.advance();
                self.done(self.costs.swi)
            }
            Syscall::PutInt => {
                let text = format!("{}\n", self.regs[0] as i32);
                self.console.put_str(&text);
                self.advance();
                self.done(self.costs.swi)
            }
            Syscall::CpuId => {
                self.regs[0] = self.id;
                self.advance();
                self.done(self.costs.swi)
            }
        }
    }

    /// Runs until halt, fault, or `max_steps` instructions. Intended for
    /// tests and stand-alone (non-co-simulated) execution; stalls from the
    /// bus are returned as-is.
    pub fn run(&mut self, ext: &mut dyn ExtBus, max_steps: u64) -> StepEvent {
        for _ in 0..max_steps {
            match self.step(ext) {
                StepEvent::Executed { .. } => {}
                other => return other,
            }
        }
        StepEvent::Executed { cycles: 0 }
    }
}

#[inline]
fn width_mask(width: u32) -> u32 {
    match width {
        1 => 0xFF,
        2 => 0xFFFF,
        _ => u32::MAX,
    }
}

/// Zero/sign-extends a loaded raw value according to the memory size.
#[inline]
fn extend(v: u32, size: MemSize) -> u32 {
    match size {
        MemSize::Byte => v & 0xFF,
        MemSize::Half => v & 0xFFFF,
        MemSize::Word => v,
        MemSize::SByte => v as u8 as i8 as i32 as u32,
        MemSize::SHalf => v as u16 as i16 as i32 as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmi_gsm::pipeline::{stage_programs, PipelineCfg};

    /// Indices of the allocated line pages.
    fn resident_pages(cpu: &CpuCore) -> Vec<usize> {
        (0..cpu.icache.pages.len())
            .filter(|&i| cpu.icache.pages[i].is_some())
            .collect()
    }

    /// The cache's resident size follows the code a core fetches: nothing
    /// at construction, the pages of the program's words after a GSM
    /// stage runs to halt, and nothing again after a restore.
    #[test]
    fn icache_pages_follow_the_fetched_code() {
        const MEM: u32 = 0x8000_0000;
        let cfg = PipelineCfg {
            n_frames: 1,
            mem_bases: vec![MEM],
            seed: 0x5EED,
        };
        // Stage 0 only writes to shared memory and reads back zero flags
        // and vptrs, so a flat register block lets it run alone.
        let program = &stage_programs(&cfg)[0];
        let mut cpu = CpuCore::new(0, LocalMemory::new(0, 0x4_0000));
        cpu.set_predecode(true);
        assert_eq!(cpu.icache.pages.len(), IC_MAX_LINES / IC_PAGE_LINES);
        // The sizes the docs quote: 40 B lines, 10 KiB pages.
        assert_eq!(std::mem::size_of::<IcLine>() * IC_PAGE_LINES, 10 << 10);
        assert!(
            resident_pages(&cpu).is_empty(),
            "a fresh core owns no pages"
        );

        cpu.load_program(program);
        let mut bus = crate::FlatBus::new(MEM, 0x20);
        assert_eq!(cpu.run(&mut bus, 50_000_000), StepEvent::Halted);
        assert_eq!(cpu.exit_code(), 0);

        let words = program.words().len();
        let first = program.base() as usize / 4;
        let pages = resident_pages(&cpu);
        assert!(!pages.is_empty());
        assert!(
            pages.len() <= words.div_ceil(IC_PAGE_LINES) + 1,
            "{} pages for {words} program words",
            pages.len()
        );
        // Every resident page was filled, and only with program words.
        for page in pages {
            let lines = cpu.icache.pages[page].as_deref().expect("resident");
            let tags: Vec<u32> = lines
                .iter()
                .map(|l| l.tag)
                .filter(|&t| t != IC_EMPTY)
                .collect();
            assert!(!tags.is_empty(), "page {page} was never filled");
            assert!(
                tags.iter()
                    .all(|&t| (first..first + words).contains(&(t as usize))),
                "page {page} holds a line outside the program"
            );
        }

        let mut w = dmi_kernel::StateWriter::new();
        cpu.save_state(&mut w);
        let bytes = w.into_bytes();
        cpu.load_state(&mut dmi_kernel::StateReader::new(&bytes))
            .expect("restore");
        assert!(resident_pages(&cpu).is_empty(), "a restore starts cold");
    }
}
