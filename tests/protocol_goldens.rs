//! Golden logical results of the reliable-delivery / checkpoint protocol
//! on the simulator: the four configurations the benchmark's `faulty_sim`
//! workload runs (reliable delivery, seeded drop/dup/delay, independent
//! checkpoints, checkpoints plus a scripted crash) on the Gauss-Seidel
//! wavefront, s=4, iPSC/2 costs, compile-time resolution and
//! Optimized III b=8.
//!
//! The benchmark checks makespan and program messages only, and leaves
//! the seeded-fault runs out of its logical totals. This pins everything
//! a host-time change to the protocol path must not move: every
//! processor's final clock and op count, the per-triple message counts,
//! the whole `FaultReport` and the whole `RecoveryReport`. The literals
//! were generated before the protocol loop was touched; a change that
//! has to edit one has changed a logical result.

use pdc_bench::{build_wavefront, Variant};
use pdc_core::driver;
use pdc_machine::{CheckpointCfg, CostModel, FaultPlan, ProcId, RelConfig, RunReport};
use pdc_mapping::Dist;
use pdc_spmd::run::SpmdMachine;
use pdc_spmd::Scalar;

const PROCS: usize = 4;

/// The protocol layers of one run, as `perfbench/src/adapter.rs` sets
/// them up.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Reliable,
    Faulty { seed: u64 },
    Checkpointed,
    Crashed,
}

fn run(variant: Variant, n: usize, mode: Mode) -> RunReport {
    let prog = build_wavefront(variant, n, PROCS);
    let m = SpmdMachine::new(&prog, CostModel::ipsc2()).expect("program lowers");
    let ckpt = CheckpointCfg::every(2_048);
    let mut m = match mode {
        Mode::Reliable => m.with_reliable_delivery(RelConfig::default()),
        Mode::Faulty { seed } => m.with_faults_cfg(
            FaultPlan::seeded(seed)
                .with_drops(20)
                .with_dups(20)
                .with_delays(20, 500),
            RelConfig::default(),
        ),
        Mode::Checkpointed => m.with_checkpoints(ckpt),
        Mode::Crashed => m.with_checkpoints(ckpt).with_faults_cfg(
            FaultPlan::seeded(0).with_crash(ProcId(1), 1_000),
            RelConfig::default(),
        ),
    };
    m.preset_var("n", Scalar::Int(n as i64));
    m.preload_array("Old", Dist::ColumnCyclic, &driver::standard_input(n, n));
    let report = m
        .run()
        .unwrap_or_else(|e| panic!("{variant} n={n} {mode:?}: {e}"))
        .report;
    assert_eq!(report.undelivered, 0, "{variant} n={n} {mode:?}");
    report
}

/// Everything pinned about one run, one line.
fn said(r: &RunReport) -> String {
    let clocks: Vec<u64> = r.stats.clocks.iter().map(|t| t.0).collect();
    let ops: Vec<u64> = r.stats.procs.iter().map(|p| p.ops).collect();
    let pairs: Vec<(usize, usize, u32, u64)> = r
        .pair_messages
        .iter()
        .map(|(&(src, dst, tag), &count)| (src.0, dst.0, tag.0, count))
        .collect();
    format!(
        "makespan {} clocks {clocks:?} ops {ops:?} pairs {pairs:?} {:?} {:?}",
        r.stats.makespan().0,
        r.fault,
        r.recovery
    )
}

/// Run every `(variant, n, mode)` and compare with its golden line; on a
/// mismatch print the whole table as it would have to read.
fn check(cases: &[(Variant, usize, Mode, &str)]) {
    let actual: Vec<String> = cases
        .iter()
        .map(|&(variant, n, mode, _)| said(&run(variant, n, mode)))
        .collect();
    let same = cases.iter().zip(&actual).all(|(c, a)| c.3 == a);
    if !same {
        for ((variant, n, mode, _), a) in cases.iter().zip(&actual) {
            eprintln!("{variant} n={n} {mode:?}:\n    \"{a}\",");
        }
    }
    for ((variant, n, mode, expected), a) in cases.iter().zip(&actual) {
        assert_eq!(a, expected, "{variant} n={n} {mode:?}");
    }
}

const CTR: Variant = Variant::CompileTime;
const OPT3: Variant = Variant::OptimizedIII { blksize: 8 };

/// The benchmark derives its fault seeds as `seed ^ 0xFA17`.
const fn faulty(seed: u64) -> Mode {
    Mode::Faulty {
        seed: seed ^ 0xFA17,
    }
}

#[test]
fn compile_time_resolution_n64_all_four_configurations() {
    check(&[
        (
            CTR,
            64,
            Mode::Reliable,
            "makespan 5950450 clocks [5845686, 5949916, 5950450, 5849114] ops [109670, 111523, 111399, 109298] pairs [(0, 1, 385, 992), (0, 3, 387, 930), (1, 0, 387, 930), (1, 2, 385, 992), (2, 1, 387, 992), (2, 3, 385, 930), (3, 0, 385, 930), (3, 2, 387, 992)] Some(FaultReport { injected: FaultCounts { drops: 0, dups: 0, delays: 0, reorders: 0, stalls: 0, stall_cycles: 0, crashes: 0 }, retransmits: 6832, acks_sent: 185, dup_frames_dropped: 6832, max_gap: 0, raw_leftover: 0 }) None",
        ),
        (
            CTR,
            64,
            faulty(1),
            "makespan 7867556 clocks [7570016, 7724576, 7867556, 7858833] ops [109670, 111523, 111399, 109298] pairs [(0, 1, 385, 992), (0, 3, 387, 930), (1, 0, 387, 930), (1, 2, 385, 992), (2, 1, 387, 992), (2, 3, 385, 930), (3, 0, 385, 930), (3, 2, 387, 992)] Some(FaultReport { injected: FaultCounts { drops: 350, dups: 323, delays: 341, reorders: 0, stalls: 0, stall_cycles: 0, crashes: 0 }, retransmits: 9095, acks_sent: 225, dup_frames_dropped: 9067, max_gap: 49, raw_leftover: 0 }) None",
        ),
        (
            CTR,
            64,
            faulty(2),
            "makespan 7342177 clocks [7111322, 7339046, 7342177, 7269272] ops [109670, 111523, 111399, 109298] pairs [(0, 1, 385, 992), (0, 3, 387, 930), (1, 0, 387, 930), (1, 2, 385, 992), (2, 1, 387, 992), (2, 3, 385, 930), (3, 0, 385, 930), (3, 2, 387, 992)] Some(FaultReport { injected: FaultCounts { drops: 316, dups: 328, delays: 324, reorders: 0, stalls: 0, stall_cycles: 0, crashes: 0 }, retransmits: 9229, acks_sent: 211, dup_frames_dropped: 9242, max_gap: 49, raw_leftover: 0 }) None",
        ),
        (
            CTR,
            64,
            faulty(3),
            "makespan 7562361 clocks [7337715, 7561827, 7562361, 7493251] ops [109670, 111523, 111399, 109298] pairs [(0, 1, 385, 992), (0, 3, 387, 930), (1, 0, 387, 930), (1, 2, 385, 992), (2, 1, 387, 992), (2, 3, 385, 930), (3, 0, 385, 930), (3, 2, 387, 992)] Some(FaultReport { injected: FaultCounts { drops: 327, dups: 347, delays: 334, reorders: 0, stalls: 0, stall_cycles: 0, crashes: 0 }, retransmits: 9398, acks_sent: 205, dup_frames_dropped: 9417, max_gap: 49, raw_leftover: 0 }) None",
        ),
        (
            CTR,
            64,
            Mode::Checkpointed,
            "makespan 6009578 clocks [5905737, 6009446, 6009578, 5909448] ops [109670, 111523, 111399, 109298] pairs [(0, 1, 385, 992), (0, 3, 387, 930), (1, 0, 387, 930), (1, 2, 385, 992), (2, 1, 387, 992), (2, 3, 385, 930), (3, 0, 385, 930), (3, 2, 387, 992)] Some(FaultReport { injected: FaultCounts { drops: 0, dups: 0, delays: 0, reorders: 0, stalls: 0, stall_cycles: 0, crashes: 0 }, retransmits: 7081, acks_sent: 270, dup_frames_dropped: 7081, max_gap: 0, raw_leftover: 0 }) Some(RecoveryReport { checkpoints_taken: 52, bytes_snapshotted: 1658098, crashes_survived: 0, replayed_ops: 0, replay_frames: 0, recovery_cycles: 0 })",
        ),
        (
            CTR,
            64,
            Mode::Crashed,
            "makespan 6137059 clocks [6026990, 6136927, 6137059, 6030820] ops [109670, 112523, 111399, 109298] pairs [(0, 1, 385, 992), (0, 3, 387, 930), (1, 0, 387, 930), (1, 2, 385, 992), (2, 1, 387, 992), (2, 3, 385, 930), (3, 0, 385, 930), (3, 2, 387, 992)] Some(FaultReport { injected: FaultCounts { drops: 0, dups: 0, delays: 0, reorders: 0, stalls: 0, stall_cycles: 0, crashes: 1 }, retransmits: 7085, acks_sent: 284, dup_frames_dropped: 6892, max_gap: 0, raw_leftover: 0 }) Some(RecoveryReport { checkpoints_taken: 54, bytes_snapshotted: 1691159, crashes_survived: 1, replayed_ops: 1000, replay_frames: 0, recovery_cycles: 10000 })",
        ),
    ]);
}

#[test]
fn optimized_iii_n64_all_four_configurations() {
    check(&[
        (
            OPT3,
            64,
            Mode::Reliable,
            "makespan 459265 clocks [456265, 458807, 459265, 449254] ops [108986, 110791, 111061, 108170] pairs [(0, 1, 385, 128), (0, 3, 387, 15), (1, 0, 387, 15), (1, 2, 385, 128), (2, 1, 387, 16), (2, 3, 385, 120), (3, 0, 385, 120), (3, 2, 387, 16)] Some(FaultReport { injected: FaultCounts { drops: 0, dups: 0, delays: 0, reorders: 0, stalls: 0, stall_cycles: 0, crashes: 0 }, retransmits: 0, acks_sent: 186, dup_frames_dropped: 0, max_gap: 0, raw_leftover: 0 }) None",
        ),
        (
            OPT3,
            64,
            faulty(1),
            "makespan 879961 clocks [875313, 877051, 879961, 871141] ops [108986, 110791, 111061, 108170] pairs [(0, 1, 385, 128), (0, 3, 387, 15), (1, 0, 387, 15), (1, 2, 385, 128), (2, 1, 387, 16), (2, 3, 385, 120), (3, 0, 385, 120), (3, 2, 387, 16)] Some(FaultReport { injected: FaultCounts { drops: 22, dups: 21, delays: 9, reorders: 0, stalls: 0, stall_cycles: 0, crashes: 0 }, retransmits: 16, acks_sent: 207, dup_frames_dropped: 15, max_gap: 7, raw_leftover: 0 }) None",
        ),
        (
            OPT3,
            64,
            faulty(2),
            "makespan 743229 clocks [727470, 742271, 743229, 728118] ops [108986, 110791, 111061, 108170] pairs [(0, 1, 385, 128), (0, 3, 387, 15), (1, 0, 387, 15), (1, 2, 385, 128), (2, 1, 387, 16), (2, 3, 385, 120), (3, 0, 385, 120), (3, 2, 387, 16)] Some(FaultReport { injected: FaultCounts { drops: 13, dups: 13, delays: 11, reorders: 0, stalls: 0, stall_cycles: 0, crashes: 0 }, retransmits: 8, acks_sent: 206, dup_frames_dropped: 11, max_gap: 5, raw_leftover: 0 }) None",
        ),
        (
            OPT3,
            64,
            faulty(3),
            "makespan 680229 clocks [676827, 679771, 680229, 670849] ops [108986, 110791, 111061, 108170] pairs [(0, 1, 385, 128), (0, 3, 387, 15), (1, 0, 387, 15), (1, 2, 385, 128), (2, 1, 387, 16), (2, 3, 385, 120), (3, 0, 385, 120), (3, 2, 387, 16)] Some(FaultReport { injected: FaultCounts { drops: 10, dups: 16, delays: 10, reorders: 0, stalls: 0, stall_cycles: 0, crashes: 0 }, retransmits: 10, acks_sent: 198, dup_frames_dropped: 15, max_gap: 5, raw_leftover: 0 }) None",
        ),
        (
            OPT3,
            64,
            Mode::Checkpointed,
            "makespan 495930 clocks [484954, 487898, 495930, 486004] ops [108986, 110791, 111061, 108170] pairs [(0, 1, 385, 128), (0, 3, 387, 15), (1, 0, 387, 15), (1, 2, 385, 128), (2, 1, 387, 16), (2, 3, 385, 120), (3, 0, 385, 120), (3, 2, 387, 16)] Some(FaultReport { injected: FaultCounts { drops: 0, dups: 0, delays: 0, reorders: 0, stalls: 0, stall_cycles: 0, crashes: 0 }, retransmits: 0, acks_sent: 240, dup_frames_dropped: 0, max_gap: 0, raw_leftover: 0 }) Some(RecoveryReport { checkpoints_taken: 12, bytes_snapshotted: 444714, crashes_survived: 0, replayed_ops: 0, replay_frames: 0, recovery_cycles: 0 })",
        ),
        (
            OPT3,
            64,
            Mode::Crashed,
            "makespan 512975 clocks [501999, 504943, 512975, 503049] ops [108986, 111791, 111061, 108170] pairs [(0, 1, 385, 128), (0, 3, 387, 15), (1, 0, 387, 15), (1, 2, 385, 128), (2, 1, 387, 16), (2, 3, 385, 120), (3, 0, 385, 120), (3, 2, 387, 16)] Some(FaultReport { injected: FaultCounts { drops: 0, dups: 0, delays: 0, reorders: 0, stalls: 0, stall_cycles: 0, crashes: 1 }, retransmits: 9, acks_sent: 252, dup_frames_dropped: 0, max_gap: 0, raw_leftover: 0 }) Some(RecoveryReport { checkpoints_taken: 12, bytes_snapshotted: 439790, crashes_survived: 1, replayed_ops: 1000, replay_frames: 0, recovery_cycles: 10000 })",
        ),
    ]);
}

#[test]
fn compile_time_resolution_n128_checkpointed_and_crashed() {
    check(&[
        (
            CTR,
            128,
            Mode::Checkpointed,
            "makespan 33339725 clocks [33047884, 33339593, 33339725, 33256472] ops [446582, 450355, 450103, 445826] pairs [(0, 1, 385, 4032), (0, 3, 387, 3906), (1, 0, 387, 3906), (1, 2, 385, 4032), (2, 1, 387, 4032), (2, 3, 385, 3906), (3, 0, 385, 3906), (3, 2, 387, 4032)] Some(FaultReport { injected: FaultCounts { drops: 0, dups: 0, delays: 0, reorders: 0, stalls: 0, stall_cycles: 0, crashes: 0 }, retransmits: 53268, acks_sent: 707, dup_frames_dropped: 53268, max_gap: 0, raw_leftover: 0 }) Some(RecoveryReport { checkpoints_taken: 76, bytes_snapshotted: 8918400, crashes_survived: 0, replayed_ops: 0, replay_frames: 0, recovery_cycles: 0 })",
        ),
        (
            CTR,
            128,
            Mode::Crashed,
            "makespan 33291998 clocks [33102367, 33291866, 33291998, 33259247] ops [446582, 451355, 450103, 445826] pairs [(0, 1, 385, 4032), (0, 3, 387, 3906), (1, 0, 387, 3906), (1, 2, 385, 4032), (2, 1, 387, 4032), (2, 3, 385, 3906), (3, 0, 385, 3906), (3, 2, 387, 4032)] Some(FaultReport { injected: FaultCounts { drops: 0, dups: 0, delays: 0, reorders: 0, stalls: 0, stall_cycles: 0, crashes: 1 }, retransmits: 53276, acks_sent: 704, dup_frames_dropped: 53276, max_gap: 0, raw_leftover: 0 }) Some(RecoveryReport { checkpoints_taken: 76, bytes_snapshotted: 8922147, crashes_survived: 1, replayed_ops: 1000, replay_frames: 0, recovery_cycles: 10000 })",
        ),
    ]);
}

#[test]
fn optimized_iii_n128_checkpointed_and_crashed() {
    check(&[
        (
            OPT3,
            128,
            Mode::Checkpointed,
            "makespan 1883061 clocks [1861527, 1865275, 1883061, 1863985] ops [441418, 445079, 445605, 439762] pairs [(0, 1, 385, 512), (0, 3, 387, 31), (1, 0, 387, 31), (1, 2, 385, 512), (2, 1, 387, 32), (2, 3, 385, 496), (3, 0, 385, 496), (3, 2, 387, 32)] Some(FaultReport { injected: FaultCounts { drops: 0, dups: 0, delays: 0, reorders: 0, stalls: 0, stall_cycles: 0, crashes: 0 }, retransmits: 0, acks_sent: 632, dup_frames_dropped: 0, max_gap: 0, raw_leftover: 0 }) Some(RecoveryReport { checkpoints_taken: 12, bytes_snapshotted: 1733794, crashes_survived: 0, replayed_ops: 0, replay_frames: 0, recovery_cycles: 0 })",
        ),
        (
            OPT3,
            128,
            Mode::Crashed,
            "makespan 1883463 clocks [1861929, 1865677, 1883463, 1864387] ops [441418, 446079, 445605, 439762] pairs [(0, 1, 385, 512), (0, 3, 387, 31), (1, 0, 387, 31), (1, 2, 385, 512), (2, 1, 387, 32), (2, 3, 385, 496), (3, 0, 385, 496), (3, 2, 387, 32)] Some(FaultReport { injected: FaultCounts { drops: 0, dups: 0, delays: 0, reorders: 0, stalls: 0, stall_cycles: 0, crashes: 1 }, retransmits: 0, acks_sent: 636, dup_frames_dropped: 0, max_gap: 0, raw_leftover: 0 }) Some(RecoveryReport { checkpoints_taken: 12, bytes_snapshotted: 1733679, crashes_survived: 1, replayed_ops: 1000, replay_frames: 0, recovery_cycles: 10000 })",
        ),
    ]);
}
