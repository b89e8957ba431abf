//! A deterministic discrete-event simulator of a message-passing
//! multiprocessor, in the style of the Intel iPSC/2 or NCUBE machines the
//! paper targets (§2.2).
//!
//! The machine model is deliberately simple, exactly as the paper assumes:
//!
//! * `n` processors, each running one process;
//! * communication cost is *independent of the identities* of the
//!   processors — packing/unpacking dominates time-of-flight, so access
//!   cost is "binary": local is cheap, every non-local access costs the
//!   same;
//! * sends are asynchronous (`csend` returns once the message is handed to
//!   the transport) and receives block until a matching message exists;
//! * messages are matched by *(source, destination, tag)* with FIFO order
//!   within a triple, mirroring the typed `csend`/`crecv` of the Intel NX
//!   system used in the paper's Appendix A programs.
//!
//! Simulated time is tracked with per-processor logical clocks, advanced
//! by [`CostModel`]-determined amounts under rules written once for both
//! backends (DESIGN §5b, "The logical processor"): a send costs start-up
//! plus per-word packing and stamps the message with its arrival time, a
//! receive waits for that stamp and pays the unpacking. The resulting
//! *makespan* (maximum final clock) is the quantity the paper's Figures 6
//! and 7 plot, and it is exactly reproducible run to run.
//!
//! The crate is independent of the language and compiler layers: anything
//! that implements [`Process`] can be scheduled with [`Scheduler`]. The
//! SPMD virtual machine in `pdc-spmd` is the production client; the unit
//! tests here drive the fabric with small hand-written processes.
//!
//! # Examples
//!
//! ```
//! use pdc_machine::{CostModel, Fabric, Machine, ProcId, Tag};
//!
//! let mut m = Machine::new(2, CostModel::ipsc2());
//! m.send_ref(ProcId(0), ProcId(1), Tag(7), &[41, 42]);
//! let mut words = Vec::new();
//! assert!(m.try_recv_into(ProcId(1), ProcId(0), Tag(7), &mut words));
//! assert_eq!(words, [41, 42]);
//! assert_eq!(m.stats().network.messages, 1);
//! ```

pub mod checkpoint;
mod config;
mod cost;
mod cpu;
mod error;
mod fabric;
pub mod fault;
mod message;
mod network;
mod reliable;
mod report;
pub mod ring;
mod sched;
#[cfg(test)]
mod scripted;
mod stats;
pub mod threaded;
mod trace;
pub mod trace_analysis;
pub mod trace_chrome;

pub use checkpoint::{Checkpoint, CheckpointCfg, RecoveryReport};
pub use config::{MetricsMode, RunConfig};
pub use cost::CostModel;
pub use error::MachineError;
pub use fabric::{Fabric, Machine};
pub use fault::{Crash, FaultCounts, FaultDecision, FaultPlan, FaultState, Stall};
pub use message::{ProcId, Tag, Time, Word};
pub use reliable::{ack_tag, RelConfig, ACK_TAG_BIT};
pub use report::RunReport;
pub use sched::{Process, Scheduler, Step};
pub use stats::{FaultReport, MachineStats, NetworkStats, ProcStats};
pub use threaded::{Backend, ThreadedRunner, DEFAULT_RECV_TIMEOUT};
pub use trace::{render_gantt as trace_render, DropPolicy, Event, EventKind, Trace};
pub use trace_analysis::{
    analyze, CommEdge, CriticalPath, PathSegment, ProcProfile, TraceAnalysis,
};
pub use trace_chrome::{
    chrome_trace, chrome_trace_with_metrics, validate_chrome_trace, ChromeStats,
};

/// Runtime metrics layer (re-exported from `pdc-metrics`): lock-free
/// sharded counters/histograms and the always-on flight recorder both
/// backends populate. See [`MetricsRegistry`] and
/// [`RunReport::metrics`](crate::RunReport).
pub use pdc_metrics as metrics;
pub use pdc_metrics::{Ctr, FlightEvent, FlightKind, MetricsRegistry, MetricsSnapshot};
