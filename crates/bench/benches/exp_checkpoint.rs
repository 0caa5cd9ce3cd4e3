//! State-capture cost: what a full-system checkpoint costs to take,
//! serialize and restore as the system grows, what the CRC-32 behind
//! every snapshot and leg fingerprint costs, and what warm-forking is
//! worth — M continuations fanned out of one mid-run checkpoint versus
//! M cold runs that each repeat the warmup.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dmi_bench::scenarios;
use dmi_farm::leg_fingerprint;
use dmi_kernel::crc32;
use dmi_sw::{workloads, WorkloadCfg};
use dmi_system::{
    mem_base, CpuSpec, McSystem, MemSpec, Snapshot, StopCondition, SystemBuilder,
};

/// `n` CPUs churning allocations against one wrapper memory — the
/// system-size axis for the save/load cost curve.
fn churn_system(n: usize) -> McSystem {
    let wl = WorkloadCfg {
        mem_base: mem_base(0),
        iterations: 200,
        ..WorkloadCfg::default()
    };
    let mut b = SystemBuilder::new();
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    for _ in 0..n {
        b.add_cpu(CpuSpec::new(workloads::alloc_churn(&wl)));
    }
    b.build().expect("churn system")
}

/// The headline GSM pipeline (2 frames, 1 wrapper memory, seed 0x5EED).
fn gsm_system() -> McSystem {
    scenarios::gsm_headline()
        .build()
        .expect("gsm pipeline system")
}

/// The CRC-32 kernel on its own (1 MiB; median ns / 1,048,576 is ns per
/// byte), and the farm's leg fingerprint — a checkpoint, its encoding
/// and a CRC over it — on the headline system at cycle 200k.
fn crc_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp_checkpoint/crc");
    g.sample_size(20);
    let buf: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(0x9E37_79B1) >> 24) as u8)
        .collect();
    g.bench_function("crc32_1MiB", |b| b.iter(|| crc32(black_box(&buf))));

    let mut sys = gsm_system();
    sys.run_until(&StopCondition::cycles(200_000));
    let first = leg_fingerprint(&mut sys);
    g.bench_function("leg_fingerprint_gsm_headline_200k", |b| {
        b.iter(|| assert_eq!(leg_fingerprint(&mut sys), first));
    });
    g.finish();
}

/// Checkpoint/serialize/restore cost as the component roster grows.
fn save_load_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp_checkpoint/save_load");
    g.sample_size(20);
    for n in [1usize, 4, 8] {
        let mut sys = churn_system(n);
        sys.run_until(&StopCondition::cycles(5_000));
        let bytes = sys.checkpoint().to_bytes();
        eprintln!("exp_checkpoint: {n} cpus -> {} snapshot bytes", bytes.len());

        g.bench_with_input(BenchmarkId::new("checkpoint", n), &n, |b, _| {
            b.iter(|| sys.checkpoint().section_count());
        });
        g.bench_with_input(BenchmarkId::new("to_bytes", n), &n, |b, _| {
            let snap = sys.checkpoint();
            b.iter(|| snap.to_bytes().len());
        });
        g.bench_with_input(BenchmarkId::new("from_bytes", n), &n, |b, _| {
            b.iter(|| Snapshot::from_bytes(&bytes).expect("parse").section_count());
        });
        g.bench_with_input(BenchmarkId::new("restore", n), &n, |b, _| {
            let snap = sys.checkpoint();
            let mut twin = churn_system(n);
            b.iter(|| twin.restore(&snap).expect("restore"));
        });
    }
    g.finish();
}

/// Warm-fork A/B on the headline run: 8 continuations from one
/// checkpoint at cycle 200k versus 8 cold runs repeating the warmup.
fn warm_fork(c: &mut Criterion) {
    const SPLIT: u64 = 200_000;
    const M: usize = 8;

    let mut warm = gsm_system();
    let first = warm.run_until(&StopCondition::cycles(SPLIT));
    assert_eq!(first.sim_cycles, SPLIT);
    let snap = warm.checkpoint();

    let mut g = c.benchmark_group("exp_checkpoint/fork_ab");
    g.sample_size(10);
    g.bench_function(BenchmarkId::new("warm_fork", M), |b| {
        b.iter(|| {
            let systems = McSystem::fork(&snap, M, |_| gsm_system()).expect("fork");
            let mut total = 0u64;
            for mut sys in systems {
                let r = sys.run(u64::MAX / 4);
                assert!(r.all_ok(), "{}", r.summary());
                total += r.sim_cycles;
            }
            total
        });
    });
    g.bench_function(BenchmarkId::new("cold_runs", M), |b| {
        b.iter(|| {
            let mut total = 0u64;
            for _ in 0..M {
                let mut sys = gsm_system();
                let r = sys.run(u64::MAX / 4);
                assert!(r.all_ok(), "{}", r.summary());
                total += r.sim_cycles;
            }
            total
        });
    });
    g.finish();
}

criterion_group!(benches, save_load_cost, crc_cost, warm_fork);
criterion_main!(benches);
