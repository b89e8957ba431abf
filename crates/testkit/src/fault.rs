//! Seeded generators for machine fault plans.
//!
//! Property tests want "a random but reproducible amount of network
//! damage". [`fault_plan`] draws a [`FaultPlan`] from a testkit [`Rng`]:
//! the plan itself is then a pure function of its own embedded seed, so a
//! failing case reproduces from the single testkit seed the runner prints.
//!
//! Plans generated here are always *recoverable*: the per-triple fault
//! budget stays well below the reliability layer's default retry limit, so
//! a correct protocol implementation must always converge. Black holes
//! (which starve a stream forever) are deliberately not generated — tests
//! that want a guaranteed [`RetriesExhausted`](pdc_machine::MachineError)
//! construct one explicitly.

use crate::Rng;
use pdc_machine::{FaultPlan, ProcId};

/// The seeds a seeded fault sweep runs: `PDC_FAULT_SEEDS` when set
/// (comma-separated integers, e.g. `PDC_FAULT_SEEDS=1,2,3`), else
/// `default`. The workspace's one test environment variable: CI sweeps a
/// seed matrix through it, and a failure names the seeds to replay.
///
/// # Panics
///
/// Panics on a token that is not an integer, naming it.
pub fn seeds(default: &[u64]) -> Vec<u64> {
    match std::env::var("PDC_FAULT_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad seed `{t}` in PDC_FAULT_SEEDS"))
            })
            .collect(),
        Err(_) => default.to_vec(),
    }
}

/// Draw a recoverable fault plan. The mix of drop/duplicate/delay/reorder
/// probabilities is random but sums to at most 600‰, and the per-triple
/// budget is at most 4 faults — far below the default 16 retries, so every
/// stream always gets through.
pub fn fault_plan(rng: &mut Rng) -> FaultPlan {
    let drop_pm = rng.range_i64(0, 300) as u32;
    let dup_pm = rng.range_i64(0, 150) as u32;
    let delay_pm = rng.range_i64(0, 100) as u32;
    let reorder_pm = rng.range_i64(0, 50) as u32;
    let delay_cycles = rng.range_i64(100, 20_000) as u64;
    let budget = rng.range_i64(1, 5) as u32;
    FaultPlan::seeded(rng.next_u64())
        .with_drops(drop_pm)
        .with_dups(dup_pm)
        .with_delays(delay_pm, delay_cycles)
        .with_reorders(reorder_pm)
        .with_fault_budget(budget)
}

/// Like [`fault_plan`], with a processor stall thrown in: some processor
/// freezes for a while early in its run. `n_procs` bounds the stalled
/// processor id.
pub fn fault_plan_with_stall(rng: &mut Rng, n_procs: usize) -> FaultPlan {
    let plan = fault_plan(rng);
    let proc = ProcId(rng.range_usize(0, n_procs));
    let at_op = rng.range_i64(0, 50) as u64;
    let cycles = rng.range_i64(1_000, 100_000) as u64;
    plan.with_stall(proc, at_op, cycles)
}

/// Draw a crash plan: one scripted processor crash early in the run
/// (charged op 0–29), with no message-level damage, so differential
/// recovery tests isolate the checkpoint/restart path. The early crash
/// point keeps the victim's peers alive through the recovery window —
/// replay needs someone on the other end of the retransmit path.
pub fn crash_plan(rng: &mut Rng, n_procs: usize) -> FaultPlan {
    let proc = ProcId(rng.range_usize(0, n_procs));
    let at_op = rng.range_i64(0, 30) as u64;
    FaultPlan::seeded(rng.next_u64()).with_crash(proc, at_op)
}

/// Like [`crash_plan`] layered on a recoverable lossy plan
/// ([`fault_plan`]): the crashed processor restarts *while* the fabric is
/// dropping and duplicating frames, the hardest recovery case the
/// protocol must still get right.
pub fn crash_plan_with_losses(rng: &mut Rng, n_procs: usize) -> FaultPlan {
    let plan = fault_plan(rng);
    let proc = ProcId(rng.range_usize(0, n_procs));
    let at_op = rng.range_i64(0, 30) as u64;
    plan.with_crash(proc, at_op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_plans_are_recoverable() {
        let mut rng = Rng::from_seed(0xfa01);
        for _ in 0..100 {
            let plan = fault_plan(&mut rng);
            assert!(plan.max_faults_per_triple <= 4);
            assert!(plan.drop_pm + plan.dup_pm + plan.delay_pm + plan.reorder_pm <= 600);
            assert!(plan.black_holes.is_empty());
        }
    }

    #[test]
    fn generated_plans_are_reproducible() {
        let plan_a = fault_plan(&mut Rng::from_seed(7));
        let plan_b = fault_plan(&mut Rng::from_seed(7));
        assert_eq!(plan_a, plan_b);
    }

    #[test]
    fn crash_plans_are_early_scripted_and_reproducible() {
        let mut rng = Rng::from_seed(0xcc);
        for _ in 0..50 {
            let plan = crash_plan(&mut rng, 4);
            assert_eq!(plan.crashes.len(), 1);
            assert!(plan.crashes[0].proc.0 < 4);
            assert!(plan.crashes[0].at_op < 30);
            assert_eq!(plan.drop_pm, 0, "crash-only plans carry no losses");
        }
        assert_eq!(
            crash_plan(&mut Rng::from_seed(9), 3),
            crash_plan(&mut Rng::from_seed(9), 3)
        );
        let lossy = crash_plan_with_losses(&mut Rng::from_seed(1), 4);
        assert_eq!(lossy.crashes.len(), 1);
        assert!(lossy.max_faults_per_triple <= 4);
    }

    #[test]
    fn stall_plans_name_a_valid_processor() {
        let mut rng = Rng::from_seed(3);
        for _ in 0..50 {
            let plan = fault_plan_with_stall(&mut rng, 4);
            assert_eq!(plan.stalls.len(), 1);
            assert!(plan.stalls[0].proc.0 < 4);
        }
    }
}
