//! What a run hands back, and the one place it is put together.

use crate::checkpoint::RecoveryReport;
use crate::cpu::{machine_stats, Cpu};
use crate::fault::FaultCounts;
use crate::message::{ProcId, Tag};
use crate::reliable::{Deadline, RelEndpoint};
use crate::stats::{FaultReport, MachineStats};
use crate::trace::Trace;
use pdc_metrics::MetricsSnapshot;
use std::collections::BTreeMap;

/// Outcome of a completed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Final statistics snapshot (clocks, traffic, per-processor counters).
    pub stats: MachineStats,
    /// Total scheduler steps executed across all processes.
    pub steps: u64,
    /// Messages left in the network after all processes finished. A clean
    /// run leaves zero; a non-zero count usually means mismatched
    /// send/receive loops in generated code.
    pub undelivered: usize,
    /// Cumulative messages sent per `(src, dst, tag)` triple over the
    /// whole run. Because FIFO order within a typed channel is exactly
    /// program order on the sender, these counts are identical across
    /// execution backends and are the key invariant the differential
    /// tests compare. Under the reliability layer these are the
    /// *program-level* counts — retransmissions and acks are protocol
    /// traffic and tallied in [`fault`](RunReport::fault) instead.
    pub pair_messages: BTreeMap<(ProcId, ProcId, Tag), u64>,
    /// The triples behind [`undelivered`](RunReport::undelivered), with
    /// queue depths — diagnostic parity between the backends.
    pub pending: Vec<(ProcId, ProcId, Tag, usize)>,
    /// Fault-injection and reliable-delivery accounting; `None` when the
    /// run used the raw fabric.
    pub fault: Option<FaultReport>,
    /// Checkpoint/restart accounting; `None` unless
    /// [`RunConfig::checkpoints`](crate::RunConfig::checkpoints) was set.
    pub recovery: Option<RecoveryReport>,
    /// The event trace of the run — empty unless
    /// [`RunConfig::trace_cap`](crate::RunConfig::trace_cap) was set.
    /// Check [`Trace::dropped`] before treating it as complete: a bounded
    /// trace silently truncates at its cap.
    pub trace: Trace,
    /// Metrics snapshot at the end of the run. Always present: the
    /// flight recorder is always on, so even a metrics-off run carries
    /// each processor's recent history. Full counters/histograms need
    /// [`RunConfig::metrics`](crate::RunConfig::metrics) (check
    /// [`MetricsSnapshot::full`](pdc_metrics::MetricsSnapshot)).
    pub metrics: MetricsSnapshot,
}

/// Messages per `(src, dst, tag)` triple.
pub(crate) type PairCounts = BTreeMap<(ProcId, ProcId, Tag), u64>;

/// Who sent and who consumed what, as the path that ran observed it:
/// the simulator's channel table, the raw endpoints' maps, or the
/// protocol cores' program-level ledgers (which are checkpointed state,
/// so they live in the cores).
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    pub(crate) sent: PairCounts,
    pub(crate) recvd: PairCounts,
    /// What the protocol did; `None` on the raw fabric.
    pub(crate) fault: Option<FaultReport>,
    pub(crate) recovery: Option<RecoveryReport>,
}

impl Ledger {
    /// The ledger of a run under the reliable-delivery protocol: the
    /// cores' program-level counts and protocol tallies, the faults the
    /// plan `injected`, and the `raw_leftover` frames still in the
    /// transport.
    pub(crate) fn protocol<'a, T: Deadline + 'a>(
        cores: impl Iterator<Item = &'a RelEndpoint<T>>,
        injected: FaultCounts,
        raw_leftover: usize,
        checkpointed: bool,
    ) -> Ledger {
        let mut ledger = Ledger {
            recovery: checkpointed.then(RecoveryReport::default),
            ..Ledger::default()
        };
        let mut fault = FaultReport {
            injected,
            raw_leftover,
            ..FaultReport::default()
        };
        for core in cores {
            core.tally(&mut ledger.sent, &mut ledger.recvd, &mut fault);
            if let (Some(total), Some(r)) = (ledger.recovery.as_mut(), core.recovery()) {
                total.merge(r);
            }
        }
        ledger.fault = Some(fault);
        ledger
    }
}

impl RunReport {
    /// Put a report together from the processors of a run (index-aligned
    /// with processor ids), the steps they took, the finished trace and
    /// metrics, the transport's in-flight high-water mark, and the
    /// traffic ledger.
    pub(crate) fn assemble(
        cpus: &[Cpu],
        steps: u64,
        trace: Trace,
        metrics: MetricsSnapshot,
        max_in_flight: u64,
        ledger: Ledger,
    ) -> RunReport {
        let pending: Vec<_> = ledger
            .sent
            .iter()
            .filter_map(|(&(src, dst, tag), &s)| {
                let r = ledger.recvd.get(&(src, dst, tag)).copied().unwrap_or(0);
                (s > r).then_some((src, dst, tag, (s - r) as usize))
            })
            .collect();
        RunReport {
            stats: machine_stats(cpus, max_in_flight),
            steps,
            undelivered: pending.iter().map(|&(_, _, _, k)| k).sum(),
            pair_messages: ledger.sent,
            pending,
            fault: ledger.fault,
            recovery: ledger.recovery,
            trace,
            metrics,
        }
    }
}
