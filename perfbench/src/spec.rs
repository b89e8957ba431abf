//! The metric tables: every name the benchmark reports, with its unit,
//! direction and bound. `BENCHMARK.json` at the repository root lists the
//! same names; a unit test keeps the two in step.

/// A reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, unique over both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; 0 for per-layer
    /// metrics, which carry no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        bound: 0.0,
    }
}

const fn layer_up(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
        bound: 0.0,
    }
}

/// What a user of the system sees, per workload. The logical metrics are
/// checked for exact equality inside every run; their bound here is the
/// tightest the file format expresses safely. The other bounds are three
/// times the widest run-to-run quartile spread seen on the sandbox this
/// was written on (times 1.7 %, memory 1.8 %, set-up 5.7 %), rounded up.
pub const END_TO_END: [Metric; 6] = [
    e2e("e2e_s", "s", false, 0.06),
    e2e("points_per_s", "points/s", true, 0.06),
    e2e("logical_makespan_cycles", "cycles", false, 0.001),
    e2e("logical_messages", "messages", false, 0.001),
    e2e("peak_rss_mib", "MiB", false, 0.10),
    e2e("setup_s", "s", false, 0.25),
];

/// Single layers, from the traced pass. `share.*` and `phase.*` come from
/// the workload's own spans; the rest are the fixed layer probes (see
/// `probes.rs`), the same in every workload's traced run.
pub const PER_LAYER: [Metric; 83] = [
    // The workload's trace: each layer's self time and each phase's time
    // as a share of the traced iteration.
    layer("share.lang", "%"),
    layer("share.core", "%"),
    layer("share.depend", "%"),
    layer("share.opt", "%"),
    layer("share.report", "%"),
    layer("share.analyze", "%"),
    layer("share.tune", "%"),
    layer("share.spmd", "%"),
    layer("share.machine", "%"),
    layer("share.bench", "%"),
    layer("phase.compile", "%"),
    layer("phase.tune", "%"),
    layer("phase.run", "%"),
    layer("bench.self_sum_ratio", "ratio"),
    layer("bench.trace_overhead_ratio", "ratio"),
    layer("bench.spans_per_iteration", "count"),
    layer("bench.warmup_s", "s"),
    // pdc-lang
    layer("lang.parse_s", "s"),
    layer("lang.tokens", "count"),
    layer("lang.interp_ns_per_point", "ns"),
    // pdc-core
    layer("core.inline_s", "s"),
    layer("core.analysis_s", "s"),
    layer("core.codegen_runtime_s", "s"),
    layer("core.codegen_compile_time_s", "s"),
    layer("core.spmd_stmts", "count"),
    layer("core.driver_other_s", "s"),
    // pdc-depend (through pdc-analyze's remarks)
    layer("depend.analyze_s", "s"),
    layer("depend.dependences", "count"),
    // pdc-opt
    layer("opt.o1_s", "s"),
    layer("opt.o2_s", "s"),
    layer("opt.o3_s", "s"),
    layer_up("opt.applied", "count"),
    layer("opt.spmd_stmts_after", "count"),
    // pdc-report
    layer("report.predict_s", "s"),
    layer("report.estimate_s", "s"),
    layer("report.walk_ns_per_point", "ns"),
    // pdc-analyze
    layer("analyze.verify_s", "s"),
    // pdc-tune
    layer("tune.search_s", "s"),
    layer("tune.candidates", "count"),
    layer_up("tune.viable", "count"),
    layer("tune.ms_per_candidate", "ms"),
    // pdc-mapping
    layer("mapping.owner_ns_per_call", "ns"),
    // pdc-spmd
    layer("spmd.lower_s", "s"),
    layer("spmd.instrs", "count"),
    layer("spmd.preload_s", "s"),
    layer("spmd.gather_s", "s"),
    layer("spmd.vm_ops", "count"),
    layer("spmd.vm_ns_per_op", "ns"),
    // pdc-machine: raw fabrics
    layer("machine.sim.run_s", "s"),
    layer("machine.threaded.run_s", "s"),
    layer("machine.messages", "messages"),
    layer("machine.words", "words"),
    layer("machine.sim.ns_per_message", "ns"),
    layer("machine.sim.ns_per_word", "ns"),
    layer("machine.threaded.ns_per_message", "ns"),
    layer("machine.threaded.ns_per_word", "ns"),
    layer("machine.threaded.pingpong_ns", "ns"),
    layer("machine.sim.s8_over_s1", "ratio"),
    layer("machine.threaded_over_sim", "ratio"),
    layer("machine.threaded.parks", "count"),
    layer("machine.threaded.spin_wakes", "count"),
    layer("machine.threaded.enqueue_stalls", "count"),
    // pdc-machine: reliable delivery
    layer("machine.raw.run_s", "s"),
    layer("machine.reliable.run_s", "s"),
    layer("machine.reliable.overhead_ratio", "ratio"),
    layer("machine.faulty.run_s", "s"),
    layer("machine.faulty.makespan_cycles", "cycles"),
    layer("machine.faulty.retransmits", "count"),
    layer("machine.reliable.acks", "count"),
    // pdc-machine: checkpoint and restart
    layer("machine.ckpt.run_s", "s"),
    layer("machine.ckpt.overhead_ratio", "ratio"),
    layer("machine.ckpt.checkpoints", "count"),
    layer("machine.ckpt.bytes", "bytes"),
    layer("machine.recovery.run_s", "s"),
    layer_up("machine.recovery.crashes_survived", "count"),
    layer("machine.recovery.replayed_ops", "count"),
    // observability tax
    layer("metrics.overhead_ratio", "ratio"),
    layer("machine.trace.overhead_ratio", "ratio"),
    // the probes themselves
    layer("bench.probes_s", "s"),
    layer("bench.host_parallelism", "count"),
    layer("bench.traced_iterations", "count"),
    layer("bench.traced_e2e_s", "s"),
    layer("bench.untraced_e2e_s", "s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{parse_json, Json};
    use crate::workloads::WORKLOADS;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_limits_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(well_formed(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    fn names(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} missing"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_num),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        let better = |m: &Metric| {
            if m.higher_is_better {
                "higher"
            } else {
                "lower"
            }
            .to_owned()
        };
        let want_e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    better(m),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(names(&doc, "end_to_end"), want_e2e);
        let want_layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned(), better(m), None))
            .collect();
        assert_eq!(names(&doc, "per_layer"), want_layers);
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                (s("name"), s("why"))
            })
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| ((*n).to_owned(), (*w).to_owned()))
            .collect();
        assert_eq!(workloads, want);
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
    }
}
