//! Plain-data snapshots of a registry, with deterministic exports: a
//! Prometheus-style text exposition and a stable JSON document. Both
//! are byte-deterministic for a given snapshot (BTree ordering, no
//! floats), so goldens and self-validating benches can diff them.

use crate::flight::FlightEvent;
use crate::hist::HistSnapshot;
use crate::json::Json;
use crate::registry::{Ctr, N_CTRS};

/// Everything one processor recorded.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProcMetrics {
    /// Counter values indexed by [`Ctr`] discriminant.
    pub ctrs: Vec<u64>,
    /// Payload words per program-level frame.
    pub frame_words: HistSnapshot,
    /// Ring occupancy (words queued) sampled at each enqueue
    /// (threaded backend only; empty on the simulator).
    pub ring_occupancy: HistSnapshot,
    /// Outgoing channels as `(dst, tag, frames, words)`.
    pub out_channels: Vec<(u64, u64, u64, u64)>,
    /// Incoming channels as `(src, tag, frames, words)`.
    pub in_channels: Vec<(u64, u64, u64, u64)>,
    /// Frames whose per-channel split was lost to table overflow.
    pub channel_overflow: u64,
    /// The retained flight-recorder events, oldest first.
    pub flight: Vec<FlightEvent>,
    /// Total flight events ever recorded (≥ `flight.len()`).
    pub flight_recorded: u64,
}

impl ProcMetrics {
    /// Counter value by name.
    pub fn get(&self, c: Ctr) -> u64 {
        self.ctrs.get(c as usize).copied().unwrap_or(0)
    }
}

/// A point-in-time copy of a [`MetricsRegistry`](crate::MetricsRegistry).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Was the registry recording full metrics (vs flight-recorder
    /// only)?
    pub full: bool,
    /// Per-processor shards.
    pub procs: Vec<ProcMetrics>,
}

/// The backend-independent projection of a snapshot: logical counters,
/// the frame-size histogram, and the per-channel tables. Two runs of
/// the same program on the simulator and the threaded backend must
/// compare equal here (fault-free runs; physical metrics — parks,
/// stalls, retransmits, ring occupancy — are excluded by construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicalMetrics {
    /// One entry per processor.
    pub procs: Vec<LogicalProc>,
}

/// One processor's logical projection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicalProc {
    /// Logical `(counter name, value)` pairs in [`Ctr::ALL`] order.
    pub ctrs: Vec<(&'static str, u64)>,
    /// Payload words per program-level frame.
    pub frame_words: HistSnapshot,
    /// Outgoing channels as `(dst, tag, frames, words)`.
    pub out_channels: Vec<(u64, u64, u64, u64)>,
    /// Incoming channels as `(src, tag, frames, words)`.
    pub in_channels: Vec<(u64, u64, u64, u64)>,
}

/// Aggregated per-channel totals: `((src, dst, tag), (frames, words))`,
/// sorted by the triple.
pub type TripleTotals = Vec<((u64, u64, u64), (u64, u64))>;

impl MetricsSnapshot {
    /// Sum a counter over all processors.
    pub fn total(&self, c: Ctr) -> u64 {
        self.procs.iter().map(|p| p.get(c)).sum()
    }

    /// Aggregate per-channel outgoing traffic over all processors as
    /// `(src, dst, tag) → (frames, words)`, sorted.
    pub fn out_by_triple(&self) -> TripleTotals {
        let mut v: Vec<_> = self
            .procs
            .iter()
            .enumerate()
            .flat_map(|(src, p)| {
                p.out_channels
                    .iter()
                    .map(move |&(dst, tag, frames, words)| {
                        ((src as u64, dst, tag), (frames, words))
                    })
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// The backend-parity projection (see [`LogicalMetrics`]).
    pub fn logical(&self) -> LogicalMetrics {
        LogicalMetrics {
            procs: self
                .procs
                .iter()
                .map(|p| LogicalProc {
                    ctrs: Ctr::ALL
                        .into_iter()
                        .filter(|c| c.is_logical())
                        .map(|c| (c.name(), p.get(c)))
                        .collect(),
                    frame_words: p.frame_words.clone(),
                    out_channels: p.out_channels.clone(),
                    in_channels: p.in_channels.clone(),
                })
                .collect(),
        }
    }

    /// Prometheus-style text exposition: one `pdc_*` family per
    /// counter with a `proc` label, plus histogram families with
    /// cumulative `le` buckets. Deterministic byte-for-byte.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for c in Ctr::ALL {
            out.push_str(&format!("# TYPE pdc_{} counter\n", c.name()));
            for (p, pm) in self.procs.iter().enumerate() {
                out.push_str(&format!("pdc_{}{{proc=\"{p}\"}} {}\n", c.name(), pm.get(c)));
            }
        }
        for (family, pick) in [
            (
                "frame_words",
                (|pm: &ProcMetrics| &pm.frame_words) as fn(&ProcMetrics) -> &HistSnapshot,
            ),
            ("ring_occupancy", |pm: &ProcMetrics| &pm.ring_occupancy),
        ] {
            out.push_str(&format!("# TYPE pdc_{family} histogram\n"));
            for (p, pm) in self.procs.iter().enumerate() {
                let h = pick(pm);
                let mut cum = 0;
                for &(lo, n) in &h.buckets {
                    cum += n;
                    out.push_str(&format!(
                        "pdc_{family}_bucket{{proc=\"{p}\",le=\"{lo}\"}} {cum}\n"
                    ));
                }
                out.push_str(&format!(
                    "pdc_{family}_bucket{{proc=\"{p}\",le=\"+Inf\"}} {}\n",
                    h.count
                ));
                out.push_str(&format!("pdc_{family}_sum{{proc=\"{p}\"}} {}\n", h.sum));
                out.push_str(&format!("pdc_{family}_count{{proc=\"{p}\"}} {}\n", h.count));
            }
        }
        out
    }

    /// Deterministic JSON document of the whole snapshot.
    pub fn metrics_json(&self) -> String {
        let procs = self.procs.iter().map(|pm| {
            let flight = pm.flight.iter().map(|ev| {
                Json::obj([
                    ("kind", ev.kind.name().into()),
                    ("peer", ev.peer.into()),
                    ("tag", ev.tag.into()),
                    ("value", ev.value.into()),
                    ("time", ev.time.into()),
                ])
            });
            Json::obj([
                (
                    "ctrs",
                    Json::obj(Ctr::ALL.map(|c| (c.name(), pm.get(c).into()))),
                ),
                ("frame_words", hist_json(&pm.frame_words)),
                ("ring_occupancy", hist_json(&pm.ring_occupancy)),
                ("out", channels_json(&pm.out_channels)),
                ("in", channels_json(&pm.in_channels)),
                ("channel_overflow", pm.channel_overflow.into()),
                ("flight_recorded", pm.flight_recorded.into()),
                ("flight", flight.collect()),
            ])
        });
        Json::obj([
            ("full", self.full.into()),
            ("n_procs", self.procs.len().into()),
            ("procs", procs.collect()),
        ])
        .to_string()
    }
}

fn hist_json(h: &HistSnapshot) -> Json {
    Json::obj([
        ("count", h.count.into()),
        ("sum", h.sum.into()),
        ("max", h.max.into()),
        (
            "buckets",
            h.buckets
                .iter()
                .map(|&(lo, n)| Json::from_iter([lo, n]))
                .collect(),
        ),
    ])
}

fn channels_json(chans: &[(u64, u64, u64, u64)]) -> Json {
    chans
        .iter()
        .map(|&(peer, tag, frames, words)| Json::from_iter([peer, tag, frames, words]))
        .collect()
}

/// Compile-time guard that `ctrs` vectors are sized right.
pub(crate) fn ctrs_vec() -> Vec<u64> {
    vec![0; N_CTRS]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exports_are_deterministic_and_wellformed() {
        let mut snap = MetricsSnapshot {
            full: true,
            procs: vec![ProcMetrics::default(), ProcMetrics::default()],
        };
        snap.procs[0].ctrs = ctrs_vec();
        snap.procs[0].ctrs[Ctr::FramesSent as usize] = 3;
        snap.procs[0].out_channels = vec![(1, 7, 3, 12)];
        let text = snap.prometheus_text();
        assert!(text.contains("pdc_frames_sent{proc=\"0\"} 3"));
        assert!(text.contains("# TYPE pdc_frame_words histogram"));
        let json = snap.metrics_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"frames_sent\":3"));
        assert_eq!(json, snap.metrics_json(), "export must be deterministic");
        assert_eq!(
            snap.out_by_triple(),
            vec![((0, 1, 7), (3, 12))],
            "triple aggregation"
        );
    }
}
