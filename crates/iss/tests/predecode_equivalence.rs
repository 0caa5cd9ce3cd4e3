//! Differential tests of the two dispatch engines: for every encodable
//! instruction, executing the predecoded micro-op (decoded-instruction
//! cache on) and interpreting the word through the reference path must
//! produce identical architectural state, cycle charges, statistics and
//! fault behaviour. Includes the self-modifying-code invalidation
//! regression tests for the cache.

use dmi_isa::{decode, Asm, Cond, Reg};
use dmi_iss::{CpuCore, ExtBus, FlatBus, LocalMemory, StepEvent};
use proptest::prelude::*;

const MEM_SIZE: u32 = 0x1000;
const CODE_BASE: u32 = 0x100;
const EXT_BASE: u32 = CpuCore::DEFAULT_EXT_BASE;
const EXT_SIZE: u32 = 0x100;

/// Everything observable about a core after a step sequence.
#[derive(Debug, PartialEq)]
struct Observation {
    events: Vec<StepEvent>,
    regs: Vec<u32>,
    nzcv: (bool, bool, bool, bool),
    cycles: u64,
    halted: bool,
    exit_code: u32,
    console: String,
    // Dispatch counters deliberately excluded: they differ by design.
    instructions: u64,
    loads: u64,
    stores: u64,
    ext_reads: u64,
    ext_writes: u64,
    branches: u64,
    swis: u64,
    cond_skipped: u64,
    fault: Option<String>,
    local_mem: Vec<u8>,
    ext_mem: Vec<u32>,
    ext_accesses: u64,
}

fn observe(cpu: &CpuCore, bus: &mut FlatBus, events: Vec<StepEvent>) -> Observation {
    let s = cpu.stats();
    let f = cpu.flags();
    let ext_mem = (0..EXT_SIZE / 4)
        .map(|i| match bus.ext_read(EXT_BASE + i * 4, dmi_iss::ExtWidth::Word) {
            dmi_iss::ExtResult::Done(v) => v,
            other => panic!("flat bus readback failed: {other:?}"),
        })
        .collect();
    Observation {
        events,
        regs: (0..16).map(|i| cpu.reg(Reg::new(i))).collect(),
        nzcv: (f.n, f.z, f.c, f.v),
        cycles: cpu.cycles(),
        halted: cpu.is_halted(),
        exit_code: cpu.exit_code(),
        console: cpu.console().text(),
        instructions: s.instructions,
        loads: s.loads,
        stores: s.stores,
        ext_reads: s.ext_reads,
        ext_writes: s.ext_writes,
        branches: s.branches,
        swis: s.swis,
        cond_skipped: s.cond_skipped,
        fault: cpu.fault().map(|f| f.to_string()),
        local_mem: cpu.local().read_slice(0, MEM_SIZE as usize).unwrap().to_vec(),
        ext_mem,
        ext_accesses: bus.accesses,
    }
}

/// Builds a core + bus pair: program words at `CODE_BASE`, registers and
/// flags from the given seeds, data pattern in local and external memory.
fn setup(words: &[u32], regs: &[u32; 13], flags: u8, predecode: bool) -> (CpuCore, FlatBus) {
    let mut cpu = CpuCore::new(0, LocalMemory::new(0, MEM_SIZE));
    cpu.set_predecode(predecode);
    // Deterministic data pattern so wild loads read defined values.
    for a in (0..MEM_SIZE).step_by(4) {
        cpu.local_mut()
            .write32(a, a.wrapping_mul(0x9E37_79B9))
            .unwrap();
    }
    let mut a = Asm::new();
    for &w in words {
        a.word(w);
    }
    cpu.load_program(&a.assemble(CODE_BASE).unwrap());
    for (i, &v) in regs.iter().enumerate() {
        cpu.set_reg(Reg::new(i as u8), v);
    }
    // r13 (sp) keeps its reset value; r14 gets a fixed link address.
    cpu.set_reg(Reg::LR, CODE_BASE + 0x40);
    let mut bus = FlatBus::new(EXT_BASE, EXT_SIZE);
    for i in 0..EXT_SIZE / 4 {
        bus.ext_write(
            EXT_BASE + i * 4,
            0xABu32.wrapping_mul(i + 1),
            dmi_iss::ExtWidth::Word,
        );
    }
    bus.accesses = 0;
    cpu.set_flags(dmi_iss::Flags {
        n: flags & 1 != 0,
        z: flags & 2 != 0,
        c: flags & 4 != 0,
        v: flags & 8 != 0,
    });
    (cpu, bus)
}

/// Runs the same program on both engines and returns their observations.
fn run_both(words: &[u32], regs: &[u32; 13], flags: u8, steps: u32) -> (Observation, Observation) {
    let run = |predecode: bool| {
        let (mut cpu, mut bus) = setup(words, regs, flags, predecode);
        let mut events = Vec::new();
        for _ in 0..steps {
            let ev = cpu.step(&mut bus);
            let stop = !matches!(ev, StepEvent::Executed { .. });
            events.push(ev);
            if stop {
                break;
            }
        }
        observe(&cpu, &mut bus, events)
    };
    (run(true), run(false))
}

/// Register-value strategy biased toward addresses that exercise local
/// loads/stores, the external window, and boundary conditions.
fn reg_value() -> impl Strategy<Value = u32> {
    prop_oneof![
        3 => (0u32..MEM_SIZE).prop_map(|v| v & !3),
        2 => 0u32..MEM_SIZE,
        2 => (0u32..EXT_SIZE).prop_map(|v| EXT_BASE + (v & !3)),
        1 => Just(MEM_SIZE - 4),
        1 => Just(EXT_BASE),
        1 => any::<u32>(),
        1 => 0u32..64,
    ]
}

fn reg_file() -> impl Strategy<Value = [u32; 13]> {
    proptest::collection::vec(reg_value(), 13).prop_map(|v| {
        let mut r = [0u32; 13];
        r.copy_from_slice(&v);
        r
    })
}

/// Instruction-word strategy: random words filtered to valid encodings,
/// with half the cases forced to condition AL so they actually execute.
fn instr_word() -> impl Strategy<Value = u32> {
    (any::<u32>(), any::<bool>()).prop_filter_map("undecodable word", |(w, force_al)| {
        let w = if force_al { (w & 0x0FFF_FFFF) | 0xE000_0000 } else { w };
        decode(w).ok().map(|_| w)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// Single arbitrary instruction: both engines observe identically.
    #[test]
    fn single_instruction_equivalence(
        word in instr_word(),
        regs in reg_file(),
        flags in 0u8..16,
    ) {
        let (pre, refr) = run_both(&[word], &regs, flags, 1);
        prop_assert_eq!(
            &pre, &refr,
            "engines diverged on word {:#010x} ({})",
            word,
            dmi_isa::disasm(word)
        );
    }

    /// Short straight-line-with-jumps programs: trajectories match over
    /// many steps (exercises cache fills, hits, the fused sequential path
    /// and incidental self-modification by wild stores).
    #[test]
    fn program_trajectory_equivalence(
        words in proptest::collection::vec(instr_word(), 1..24),
        regs in reg_file(),
        flags in 0u8..16,
    ) {
        let (pre, refr) = run_both(&words, &regs, flags, 200);
        prop_assert_eq!(&pre, &refr, "engines diverged on program {:x?}", words);
    }
}

/// The cache must observe stores that rewrite upcoming instructions:
/// execute a loop body once, overwrite one of its instructions from the
/// loop itself, and require the rewritten semantics on the next pass.
#[test]
fn self_modifying_code_invalidates_cache() {
    let run = |predecode: bool| {
        let mut a = Asm::new();
        // r4 counts passes; r1 is the observed payload.
        a.li(Reg::R4, 0);
        a.label("loop");
        a.label("target");
        a.mov(Reg::R1, 7u32.into()); // the instruction that gets rewritten
        // After the first pass, overwrite `target` with `mov r1, #42`.
        a.li(Reg::R0, 0); // patched below with the new encoding
        a.li(Reg::R2, 0); // patched below with the target address
        a.str(Reg::R0, Reg::R2, 0);
        a.add(Reg::R4, Reg::R4, 1u32.into());
        a.cmp(Reg::R4, 2u32.into());
        a.b_cond(Cond::Lt, "loop");
        a.swi(0);
        let mut p = a.assemble(CODE_BASE).unwrap();
        let target = p.symbol("target").unwrap();
        // Patch the immates now that addresses are known.
        let new_instr = dmi_isa::encode(&dmi_isa::Instr::Dp {
            cond: Cond::Al,
            op: dmi_isa::DpOp::Mov,
            s: false,
            rd: Reg::R1,
            rn: Reg::R0,
            op2: dmi_isa::Operand2::Imm { imm8: 42, rot: 0 },
        });
        // Rebuild with the real constants.
        let mut a = Asm::new();
        a.li(Reg::R4, 0);
        a.label("loop");
        a.label("target");
        a.mov(Reg::R1, 7u32.into());
        a.li(Reg::R0, new_instr);
        a.li(Reg::R2, target);
        a.str(Reg::R0, Reg::R2, 0);
        a.add(Reg::R4, Reg::R4, 1u32.into());
        a.cmp(Reg::R4, 2u32.into());
        a.b_cond(Cond::Lt, "loop");
        a.swi(0);
        p = a.assemble(CODE_BASE).unwrap();

        let mut cpu = CpuCore::new(0, LocalMemory::new(0, MEM_SIZE));
        cpu.set_predecode(predecode);
        cpu.load_program(&p);
        let ev = cpu.run(&mut dmi_iss::NoBus, 10_000);
        assert_eq!(ev, StepEvent::Halted, "program must halt ({ev:?})");
        (cpu.reg(Reg::R1), cpu.reg(Reg::R4), cpu.cycles(), cpu.stats())
    };
    let (r1_pre, passes_pre, cycles_pre, stats_pre) = run(true);
    let (r1_ref, passes_ref, cycles_ref, _) = run(false);
    assert_eq!(passes_pre, 2);
    assert_eq!(
        r1_pre, 42,
        "second pass must execute the rewritten instruction"
    );
    assert_eq!((r1_pre, passes_pre, cycles_pre), (r1_ref, passes_ref, cycles_ref));
    assert_eq!((stats_pre.icache_hits, stats_pre.icache_misses), (7, 11));
}

/// A store into already-cached code immediately before re-execution: the
/// generation check alone (without the word compare) would serve the stale
/// micro-op.
#[test]
fn store_to_cached_line_takes_effect_next_fetch() {
    let mut a = Asm::new();
    // Pass 0: r5 = 1, executes `add r1, r1, #1` at `patch`.
    // Then overwrite `patch` with `add r1, r1, #9` and loop once more.
    let add9 = dmi_isa::encode(&dmi_isa::Instr::Dp {
        cond: Cond::Al,
        op: dmi_isa::DpOp::Add,
        s: false,
        rd: Reg::R1,
        rn: Reg::R1,
        op2: dmi_isa::Operand2::Imm { imm8: 9, rot: 0 },
    });
    a.li(Reg::R1, 0);
    a.li(Reg::R4, 0);
    a.label("loop");
    a.label("patch");
    a.add(Reg::R1, Reg::R1, 1u32.into());
    a.li(Reg::R0, add9);
    a.adr(Reg::R2, "patch");
    a.str(Reg::R0, Reg::R2, 0);
    a.add(Reg::R4, Reg::R4, 1u32.into());
    a.cmp(Reg::R4, 3u32.into());
    a.b_cond(Cond::Lt, "loop");
    a.swi(0);
    let p = a.assemble(CODE_BASE).unwrap();

    for predecode in [true, false] {
        let mut cpu = CpuCore::new(0, LocalMemory::new(0, MEM_SIZE));
        cpu.set_predecode(predecode);
        cpu.load_program(&p);
        assert_eq!(cpu.run(&mut dmi_iss::NoBus, 10_000), StepEvent::Halted);
        // Pass 1 adds 1, passes 2 and 3 add 9 each.
        assert_eq!(
            cpu.reg(Reg::R1),
            19,
            "predecode={predecode}: rewritten add must execute on later passes"
        );
        let s = cpu.stats();
        let expected = if predecode { (17, 13) } else { (0, 0) };
        assert_eq!((s.icache_hits, s.icache_misses), expected);
    }
}

/// Dispatch counters: the cached path reports hits after the first pass
/// over a loop; the reference path reports none.
#[test]
fn icache_counters_surface() {
    let mut a = Asm::new();
    a.li(Reg::R0, 50);
    a.label("loop");
    a.sub(Reg::R0, Reg::R0, 1u32.into());
    a.cmp(Reg::R0, 0u32.into());
    a.b_cond(Cond::Ne, "loop");
    a.swi(0);
    let p = a.assemble(0).unwrap();

    let mut cpu = CpuCore::new(0, LocalMemory::new(0, MEM_SIZE));
    cpu.set_predecode(true);
    cpu.load_program(&p);
    assert_eq!(cpu.run(&mut dmi_iss::NoBus, 100_000), StepEvent::Halted);
    let s = cpu.stats();
    assert!(s.icache_hits > 100, "loop iterations must hit: {s:?}");
    assert!(
        s.icache_misses <= 8,
        "only the first pass should miss: {s:?}"
    );
    assert!(s.icache_hit_rate() > 0.9);

    let mut cpu = CpuCore::new(0, LocalMemory::new(0, MEM_SIZE));
    cpu.set_predecode(false);
    cpu.load_program(&p);
    assert_eq!(cpu.run(&mut dmi_iss::NoBus, 100_000), StepEvent::Halted);
    let s = cpu.stats();
    assert_eq!((s.icache_hits, s.icache_misses), (0, 0));
    assert_eq!(s.icache_hit_rate(), 0.0);
}

// Exact `(icache_hits, icache_misses)` pins on programs where the cache's
// geometry decides the counts: any change to the line count, the mapping
// rule or the validation protocol moves them. The counters are hashed
// into snapshots and leg fingerprints, so they must not move by accident.

/// Runs `p` on a fresh predecoding core over `mem_size` bytes of private
/// memory to halt and returns the cache counters.
fn icache_counts(p: &dmi_isa::Program, mem_size: u32) -> (u64, u64) {
    let mut cpu = CpuCore::new(0, LocalMemory::new(0, mem_size));
    cpu.set_predecode(true);
    cpu.load_program(p);
    assert_eq!(cpu.run(&mut dmi_iss::NoBus, 1_000_000), StepEvent::Halted);
    let s = cpu.stats();
    (s.icache_hits, s.icache_misses)
}

/// Code blocks one line count apart (256 KiB of private memory caps the
/// cache at 16k lines, 64 KiB of code) evict each other on every pass of
/// the loop that calls from one into the other; a block half a line count
/// away shares no line with either, so a smaller cap would move the
/// counts too.
#[test]
fn icache_conflict_misses_are_pinned() {
    const LINES: u32 = 1 << 14;
    let mut a = Asm::new();
    a.li(Reg::R0, 20);
    a.label("loop");
    let loop_word = a.len() as u32;
    a.bl("far"); // shares a line with far's first add
    a.bl("half"); // ... its second add
    a.sub(Reg::R0, Reg::R0, 1u32.into()); // ... its return
    a.cmp(Reg::R0, 0u32.into());
    a.b_cond(Cond::Ne, "loop");
    a.swi(0);
    a.zeros((loop_word + LINES / 2) as usize - a.len());
    a.label("half");
    a.add(Reg::R2, Reg::R2, 1u32.into());
    a.ret();
    a.zeros((loop_word + LINES) as usize - a.len());
    a.label("far");
    a.add(Reg::R1, Reg::R1, 1u32.into());
    a.add(Reg::R1, Reg::R1, 1u32.into());
    a.ret();
    let p = a.assemble(CODE_BASE).unwrap();
    let loop_addr = p.symbol("loop").unwrap();
    assert_eq!(p.symbol("half").unwrap() - loop_addr, LINES * 2);
    assert_eq!(p.symbol("far").unwrap() - loop_addr, LINES * 4);
    // Every pass misses on far's three words and the three loop words
    // that share their lines; after the first pass the other four hit.
    assert_eq!(icache_counts(&p, 0x4_0000), (76, 126));
}

/// A loop whose straight-line body crosses a 256-line page boundary
/// (word 256, byte 0x400) misses once per word and hits on every later
/// pass on both sides of the boundary.
#[test]
fn icache_counts_across_a_page_boundary_are_pinned() {
    let mut a = Asm::new();
    a.li(Reg::R4, 0);
    a.label("loop");
    for _ in 0..200 {
        a.add(Reg::R1, Reg::R1, 1u32.into());
    }
    a.add(Reg::R4, Reg::R4, 1u32.into());
    a.cmp(Reg::R4, 3u32.into());
    a.b_cond(Cond::Lt, "loop");
    a.swi(0);
    let p = a.assemble(0x300).unwrap();
    assert!(p.base() < 0x400 && p.base() + p.len_bytes() > 0x400);
    assert_eq!(icache_counts(&p, MEM_SIZE), (406, 205));
}

/// Fetches the cache cannot hold — an unaligned `pc`, a `pc` whose word
/// would run past the end of private memory, and a `pc` outside it —
/// bypass the cache: they execute or fault exactly as on the reference
/// path and leave both counters untouched, even over cached words.
#[test]
fn uncacheable_fetches_bypass_the_cache() {
    // Zeroed memory decodes as `andeq r0, r0, r0`: with Z clear every
    // fetch, aligned or not, executes as a skipped instruction.
    let mut cpu = CpuCore::new(0, LocalMemory::new(0, MEM_SIZE));
    cpu.set_predecode(true);
    let run = |cpu: &mut CpuCore, pc: u32| {
        cpu.set_pc(pc);
        for _ in 0..16 {
            assert!(matches!(
                cpu.step(&mut dmi_iss::NoBus),
                StepEvent::Executed { .. }
            ));
        }
        assert_eq!(cpu.pc(), pc + 64);
        let s = cpu.stats();
        (s.icache_hits, s.icache_misses)
    };
    assert_eq!(run(&mut cpu, 0x802), (0, 0), "unaligned, cold");
    assert_eq!(run(&mut cpu, 0x800), (0, 16), "aligned fills");
    assert_eq!(run(&mut cpu, 0x800), (16, 16), "aligned hits");
    assert_eq!(
        run(&mut cpu, 0x802),
        (16, 16),
        "unaligned over cached words"
    );
    assert_eq!(cpu.stats().instructions, 64);

    // Private memory at 0x100: the last half word, one past the end, and
    // below the base.
    for pc in [0x100 + MEM_SIZE - 2, 0x100 + MEM_SIZE, 0] {
        let mut cpu = CpuCore::new(0, LocalMemory::new(0x100, MEM_SIZE));
        cpu.set_predecode(true);
        cpu.set_pc(pc);
        let ev = cpu.step(&mut dmi_iss::NoBus);
        assert_eq!(
            ev,
            StepEvent::Fault(dmi_iss::CpuFault::FetchOutOfRange(pc)),
            "pc {pc:#x}"
        );
        let s = cpu.stats();
        assert_eq!((s.icache_hits, s.icache_misses), (0, 0));
    }
}

/// A core restored from a mid-program save starts its cache cold: the
/// restored counters continue from the saved ones, and the rest of the
/// run re-misses every word the loop still fetches.
#[test]
fn restored_core_starts_the_cache_cold() {
    let mut a = Asm::new();
    a.li(Reg::R0, 50);
    a.label("loop");
    a.sub(Reg::R0, Reg::R0, 1u32.into());
    a.cmp(Reg::R0, 0u32.into());
    a.b_cond(Cond::Ne, "loop");
    a.swi(0);
    let p = a.assemble(CODE_BASE).unwrap();
    assert_eq!(icache_counts(&p, MEM_SIZE), (147, 5), "straight run");

    let mut cpu = CpuCore::new(0, LocalMemory::new(0, MEM_SIZE));
    cpu.set_predecode(true);
    cpu.load_program(&p);
    for _ in 0..40 {
        cpu.step(&mut dmi_iss::NoBus);
    }
    let s = cpu.stats();
    assert_eq!((s.icache_hits, s.icache_misses), (36, 4), "at the save");
    let mut w = dmi_kernel::StateWriter::new();
    cpu.save_state(&mut w);
    let bytes = w.into_bytes();

    // Restored into a fresh core, and back into the original core after
    // it ran to halt with every loop line cached: both start cold.
    let mut fresh = CpuCore::new(0, LocalMemory::new(0, MEM_SIZE));
    fresh.set_predecode(true);
    assert_eq!(cpu.run(&mut dmi_iss::NoBus, 1_000_000), StepEvent::Halted);
    for (restored, what) in [(&mut fresh, "fresh core"), (&mut cpu, "warm core")] {
        let mut r = dmi_kernel::StateReader::new(&bytes);
        restored.load_state(&mut r).unwrap();
        r.finish("cpu").unwrap();
        assert_eq!(
            restored.run(&mut dmi_iss::NoBus, 1_000_000),
            StepEvent::Halted
        );
        let s = restored.stats();
        assert_eq!((s.icache_hits, s.icache_misses), (144, 8), "{what}");
    }
}
