//! The stock farm catalog's leg identities, pinned in the workspace.
//!
//! Each leg's fingerprint is a CRC-32 over its final snapshot bytes, so
//! any change to the snapshot encoding, to the CRC, or to a scenario's
//! simulated behaviour moves it. The same values are pinned by the
//! `farm_sweep` workload of the out-of-workspace benchmark
//! (`perfbench/src/workloads.rs`); this test catches a drift in
//! `cargo test --workspace` instead of only in a benchmark run.
//!
//! ROADMAP item 2 (dropping cache telemetry from the snapshot) will move
//! these fingerprints on purpose; update both pin sets together then.

use std::sync::Arc;

use dmi_bench::scenarios::{farm_catalog, farm_registry};
use dmi_farm::{run_farm, FarmConfig, ScenarioOutcome};

/// `(leg name, leg_fingerprint, end cycle)` in catalog order.
const PINS: [(&str, u32, u64); 8] = [
    ("quickstart", 0x0d0f_6656, 854),
    ("gsm_headline", 0xbe21_8bbd, 436_964),
    ("memory_models", 0x4e89_e4c9, 927),
    ("dma_crossbar", 0x8d03_08d9, 1_537),
    ("faults", 0x45d3_400a, 436_956),
    ("dma_burst", 0x6c44_401d, 16_797),
    ("lossy_dma", 0x2af6_f9a4, 5_741),
    ("alloc_deep", 0xf98d_768c, 14_281),
];

#[test]
fn stock_catalog_legs_end_on_their_pinned_fingerprints() {
    let report = run_farm(
        &farm_catalog(),
        Arc::new(farm_registry()),
        &FarmConfig::default(),
    )
    .expect("farm runs");
    let got: Vec<(&str, u32, u64)> = report
        .legs
        .iter()
        .map(|leg| match &leg.outcome {
            ScenarioOutcome::Completed {
                fingerprint,
                cycles,
                ..
            } => (leg.name.as_str(), *fingerprint, *cycles),
            other => panic!("leg {} did not complete: {}", leg.name, other.brief()),
        })
        .collect();
    assert_eq!(got, PINS);
}
