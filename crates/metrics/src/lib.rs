//! Lock-free runtime metrics for the PDC runtime: cache-line-padded
//! per-processor shards of counters, log-linear histograms, and
//! per-channel traffic tables behind a [`MetricsRegistry`], plus an
//! always-on bounded [`FlightRecorder`] of recent coarse events.
//!
//! Design constraints, in order:
//!
//! 1. **The record path never allocates, never locks, and never blocks**
//!    — a counter bump is one relaxed `fetch_add` on a shard owned by
//!    the recording processor, so the threaded backend's hot send path
//!    keeps its cache lines to itself.
//! 2. **Reads may race.** A live sampler (the `monitor` bench) reads
//!    shards while their owners write; every exported quantity is
//!    monotone, so samples are usable mid-run and exact after the run
//!    quiesces.
//! 3. **Logical vs physical.** Counters that depend only on the program
//!    ([`Ctr::is_logical`]) must agree between the deterministic
//!    simulator and the threaded backend, which makes backend parity
//!    mechanically checkable ([`MetricsSnapshot::logical`]). Physical
//!    counters (parks, stalls, retransmission races, ring pressure)
//!    describe one backend's execution and are excluded from parity.
//! 4. **Always-on crash visibility.** The [`FlightRecorder`] records
//!    even when full metrics are off (one cursor bump + three relaxed
//!    stores), so a deadlocked or crashed run can explain its recent
//!    history without a rerun under tracing.
//!
//! This crate is std-only and has no dependencies; the machine layer
//! re-exports the types its clients need.

mod channels;
mod flight;
mod hist;
pub mod json;
mod registry;
mod snapshot;

pub use channels::{ChannelTable, CHANNEL_SLOTS};
pub use flight::{FlightEvent, FlightKind, FlightRecorder, FLIGHT_SLOTS, NO_PEER};
pub use hist::{bucket_lo, bucket_of, Hist, HistSnapshot, N_BUCKETS};
pub use registry::{CachePadded, Ctr, MetricsRegistry, N_CTRS};
pub use snapshot::{LogicalMetrics, LogicalProc, MetricsSnapshot, ProcMetrics, TripleTotals};
