//! The one description of how a machine is run.
//!
//! A [`RunConfig`] is a plain value: which backend executes, what the
//! fabric does to traffic, which protocol recovers from it, what is
//! observed, and the few sizing knobs the drivers have. The driver
//! (`Job`, `Compiled`), the SPMD harness (`SpmdMachine`) and both run
//! loops ([`Scheduler`](crate::Scheduler),
//! [`ThreadedRunner`](crate::ThreadedRunner)) hold or borrow the same
//! struct, so an option set once reaches whichever backend runs.

use crate::checkpoint::CheckpointCfg;
use crate::error::MachineError;
use crate::fault::FaultPlan;
use crate::reliable::RelConfig;
use crate::threaded::{Backend, DEFAULT_RECV_TIMEOUT};
use crate::trace::Trace;
use pdc_metrics::MetricsRegistry;
use std::sync::Arc;
use std::time::Duration;

/// How much a run records into its metrics registry.
#[derive(Debug, Clone, Default)]
pub enum MetricsMode {
    /// Only the always-on flight recorder.
    #[default]
    FlightOnly,
    /// Counters, histograms and per-channel traffic tables, in a registry
    /// private to the run; read them from
    /// [`RunReport::metrics`](crate::RunReport::metrics).
    Full,
    /// Full recording into a caller-owned registry (one shard per
    /// processor), so another thread can
    /// [`snapshot`](MetricsRegistry::snapshot) it while the run executes.
    Shared(Arc<MetricsRegistry>),
}

impl MetricsMode {
    /// The registry an `n`-processor run records into.
    pub(crate) fn registry(&self, n: usize) -> Arc<MetricsRegistry> {
        match self {
            MetricsMode::FlightOnly => Arc::new(MetricsRegistry::flight_only(n)),
            MetricsMode::Full => Arc::new(MetricsRegistry::new(n)),
            MetricsMode::Shared(r) => Arc::clone(r),
        }
    }
}

/// Everything that decides *how* a set of processes is executed, and
/// nothing about *what* they compute. [`Default`] is a fault-free,
/// unobserved run on the simulator.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which backend executes, for callers that dispatch on it
    /// (`SpmdMachine::run`). A [`ThreadedRunner`](crate::ThreadedRunner)
    /// always runs threads and reads only the receive timeout from here
    /// ([`DEFAULT_RECV_TIMEOUT`] when this says `Simulated`).
    pub backend: Backend,
    /// What the fabric does to traffic and processors. A plan that
    /// injects something puts the run under the reliable-delivery
    /// protocol (see [`protocol`](RunConfig::protocol)).
    pub faults: FaultPlan,
    /// Retransmission policy. `Some` forces the reliable-delivery
    /// protocol on even with nothing to recover from; `None` uses
    /// [`RelConfig::default`] whenever the protocol is needed.
    pub reliable: Option<RelConfig>,
    /// Checkpoint/restart policy; `None` takes no checkpoints, so an
    /// injected crash kills the run. Rides on the reliable protocol.
    /// Coordinated mode is simulator-only.
    pub checkpoints: Option<CheckpointCfg>,
    /// Event-trace buffer cap (keep-oldest); `None` disables tracing. The
    /// cap is global on the simulator and per processor on threads.
    pub trace_cap: Option<usize>,
    /// What the metrics registry records.
    pub metrics: MetricsMode,
    /// Runaway guard: total steps on the simulator, steps *per processor*
    /// on threads (which cannot share a counter without serializing).
    pub step_budget: u64,
    /// Simulator steps per scheduling turn. Results do not depend on it;
    /// it bounds in-flight traffic.
    pub quantum: u64,
    /// Threaded per-link ring capacity in words (a power of two ≥ 8);
    /// `None` sizes the rings from the processor count. Results do not
    /// depend on it.
    pub ring_words: Option<usize>,
    /// Per-processor slowdown factors (§5.4's heterogeneous machine):
    /// processor `p` takes `slowdowns[p]` cycles for every nominal cycle
    /// of local work. Empty means every processor runs at nominal speed.
    pub slowdowns: Vec<u64>,
}

/// What [`Scheduler::new`](crate::Scheduler::new) and
/// [`ThreadedRunner::new`](crate::ThreadedRunner::new) borrow.
pub(crate) static DEFAULT: RunConfig = RunConfig::new();

impl RunConfig {
    /// [`Default`], as a constant for [`DEFAULT`].
    const fn new() -> Self {
        RunConfig {
            backend: Backend::Simulated,
            faults: FaultPlan::none(),
            reliable: None,
            checkpoints: None,
            trace_cap: None,
            metrics: MetricsMode::FlightOnly,
            step_budget: u64::MAX,
            quantum: 4096,
            ring_words: None,
            slowdowns: Vec::new(),
        }
    }

    /// The one protocol-selection rule: a fault plan that injects
    /// something, an explicit retransmission policy, or a checkpoint
    /// policy puts the run on the reliable-delivery loop under the policy
    /// returned here (the default one unless
    /// [`reliable`](RunConfig::reliable) says otherwise); `None` runs the
    /// raw fabric.
    pub fn protocol(&self) -> Option<RelConfig> {
        let needed =
            !self.faults.is_none() || self.reliable.is_some() || self.checkpoints.is_some();
        needed.then(|| self.reliable.unwrap_or_default())
    }

    /// A fresh trace buffer as [`trace_cap`](RunConfig::trace_cap) says.
    pub(crate) fn trace(&self) -> Trace {
        self.trace_cap.map_or_else(Trace::disabled, Trace::bounded)
    }

    /// Processor `p`'s slowdown factor (1 when none were given).
    pub(crate) fn slowdown(&self, p: usize) -> u64 {
        self.slowdowns.get(p).copied().unwrap_or(1)
    }

    /// The threaded backend's wall-clock receive timeout.
    pub(crate) fn recv_timeout(&self) -> Duration {
        match self.backend {
            Backend::Threaded { recv_timeout } => recv_timeout,
            Backend::Simulated => DEFAULT_RECV_TIMEOUT,
        }
    }

    /// Check the configuration against an `n`-processor run, on OS
    /// threads or on the simulator. Both run loops call this once, on
    /// entry.
    pub(crate) fn validate(&self, n: usize, threads: bool) -> Result<(), MachineError> {
        let bad = |reason: String| Err(MachineError::InvalidConfig { reason });
        if self.quantum == 0 {
            return bad("the scheduling quantum must be positive".into());
        }
        if !self.slowdowns.is_empty() && self.slowdowns.len() != n {
            let given = self.slowdowns.len();
            return bad(format!("{given} slowdown factors for {n} processors"));
        }
        if self.slowdowns.contains(&0) {
            return bad("slowdown factors must be positive".into());
        }
        if let MetricsMode::Shared(r) = &self.metrics {
            if r.n_procs() != n {
                let shards = r.n_procs();
                return bad(format!(
                    "a metrics registry with {shards} shards for {n} processors"
                ));
            }
        }
        if threads {
            // Barrier-aligned global snapshots need the simulator's round
            // structure; real threads have no global step boundary.
            if self.checkpoints.is_some_and(|c| c.coordinated) {
                return bad("coordinated checkpoints are simulator-only; \
                     use independent mode on threads"
                    .into());
            }
            if let Some(words) = self.ring_words {
                if !(words.is_power_of_two() && words >= 8) {
                    return bad(format!("ring capacity {words} is not a power of two >= 8"));
                }
            }
        }
        Ok(())
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ProcId;

    #[test]
    fn protocol_selection_truth_table() {
        let lossy = FaultPlan::seeded(1).with_drops(10);
        let custom = RelConfig {
            max_retries: 3,
            ..RelConfig::default()
        };
        let ckpt = CheckpointCfg::every(64);
        // (plan, reliable, checkpoints) -> protocol
        let table = [
            (FaultPlan::none(), None, None, None),
            (FaultPlan::none(), Some(custom), None, Some(custom)),
            (
                FaultPlan::none(),
                None,
                Some(ckpt),
                Some(RelConfig::default()),
            ),
            (FaultPlan::none(), Some(custom), Some(ckpt), Some(custom)),
            (lossy.clone(), None, None, Some(RelConfig::default())),
            (lossy.clone(), Some(custom), None, Some(custom)),
            (lossy.clone(), None, Some(ckpt), Some(RelConfig::default())),
            (lossy, Some(custom), Some(ckpt), Some(custom)),
        ];
        for (faults, reliable, checkpoints, want) in table {
            let cfg = RunConfig {
                faults,
                reliable,
                checkpoints,
                ..RunConfig::default()
            };
            assert_eq!(cfg.protocol(), want, "{cfg:?}");
        }
        // A plan that only carries a seed, or a crash rate without a
        // budget, injects nothing: still the raw fast path.
        for faults in [
            FaultPlan::seeded(9),
            FaultPlan::seeded(9).with_crash_rate(500, 0),
        ] {
            let cfg = RunConfig {
                faults,
                ..RunConfig::default()
            };
            assert_eq!(cfg.protocol(), None);
        }
        // Stalls and crashes are faults too.
        let cfg = RunConfig {
            faults: FaultPlan::seeded(0).with_crash(ProcId(0), 4),
            ..RunConfig::default()
        };
        assert_eq!(cfg.protocol(), Some(RelConfig::default()));
    }

    #[test]
    fn slowdown_length_and_sign_checked() {
        for slowdowns in [vec![1], vec![1, 0]] {
            let cfg = RunConfig {
                slowdowns,
                ..RunConfig::default()
            };
            for threads in [false, true] {
                let err = cfg.validate(2, threads).unwrap_err();
                assert!(matches!(err, MachineError::InvalidConfig { .. }), "{err}");
            }
        }
        assert_eq!(RunConfig::default().slowdown(5), 1);
    }

    #[test]
    fn default_is_valid_everywhere_and_const() {
        for threads in [false, true] {
            assert_eq!(RunConfig::default().validate(4, threads), Ok(()));
        }
        assert_eq!(DEFAULT.protocol(), None);
        assert_eq!(DEFAULT.recv_timeout(), DEFAULT_RECV_TIMEOUT);
    }
}
