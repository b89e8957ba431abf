//! The layer probes: small fixed measurements of single layers, run in
//! every traced pass whatever the workload, so that each per-layer metric
//! has the same meaning everywhere.
//!
//! Sizes: the five versions at n=128 on 8 simulated processors (the
//! paper's experiment) unless a probe says otherwise; threaded probes use
//! 2 processors so that no more threads run than the smallest supported
//! host has cores. Every probe that runs a program checks its output and
//! logical numbers; a miss is returned as a failure, not as a metric.

use crate::adapter::{
    self, Backend, Built, Cost, Inputs, Kernel, Mode, Plan, Prog, Ran, Reference, RunCfg,
};
use crate::spans::{totals_by_name, Recorder};
use crate::stats::median;
use crate::workloads::five_versions;
use std::collections::BTreeMap;
use std::time::Instant;

const N: usize = 128;
const S: usize = 8;
/// Repetitions of the compile-and-run pipeline probe.
const PIPELINE_REPS: usize = 3;
/// Repetitions of each run-only probe.
const RUN_REPS: usize = 3;

/// Probe results by metric name, and one line per failed check.
#[derive(Default)]
pub struct Probed {
    /// Metric values.
    pub values: BTreeMap<&'static str, f64>,
    /// Checks attempted.
    pub attempted: u64,
    /// Failed checks.
    pub failures: Vec<String>,
}

impl Probed {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failures.push(format!("probe: {what}"));
        }
    }

    /// Check a run against the reference and an expected logical result.
    fn check_run(&mut self, what: &str, ran: &Ran, reference: &Reference, like: Option<&Ran>) {
        let same_logic = like.is_none_or(|l| l.messages == ran.messages);
        self.check(
            what,
            ran.undelivered == 0 && adapter::mismatch(&ran.grid, reference).is_none() && same_logic,
        );
    }
}

fn median_secs(reps: usize, mut f: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let samples = (0..reps)
        .map(|_| f())
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&samples))
}

fn compile_plain(prog: &Prog) -> Result<Built, String> {
    adapter::build(prog, &mut Recorder::off())
}

fn run_secs(
    built: &Built,
    inputs: &Inputs,
    cfg: RunCfg,
    reps: usize,
) -> Result<(f64, Ran), String> {
    let mut last = None;
    let secs = median_secs(reps, || {
        let ran = adapter::execute(built, inputs, cfg, &mut Recorder::off())?;
        let s = ran.run_secs;
        last = Some(ran);
        Ok(s)
    })?;
    Ok((secs, last.expect("at least one repetition")))
}

/// Run every probe. `seed` generates the inputs and the fault schedule.
pub fn run(seed: u64) -> Result<Probed, String> {
    let t0 = Instant::now();
    let mut out = Probed::default();
    let inputs = adapter::gen_inputs(N, seed);
    let reference = adapter::sequential(Kernel::GaussSeidel, &inputs)?;
    let points = ((N - 2) * (N - 2)) as f64;

    // The front end and the reference interpreter.
    out.set(
        "lang.tokens",
        adapter::token_count(Kernel::GaussSeidel)? as f64,
    );
    out.set(
        "lang.interp_ns_per_point",
        median_secs(RUN_REPS, || {
            let t = Instant::now();
            adapter::sequential(Kernel::GaussSeidel, &inputs)?;
            Ok(t.elapsed().as_secs_f64())
        })? * 1e9
            / points,
    );
    out.set(
        "depend.dependences",
        adapter::dependences(Kernel::GaussSeidel, N)? as f64,
    );

    // The pipeline, phase by phase: medians of the spans of each call,
    // keyed by the version that made them.
    let versions = five_versions(N, S);
    let mut spans: BTreeMap<(usize, &'static str), Vec<f64>> = BTreeMap::new();
    let mut built: Vec<Built> = Vec::new();
    for rep in 0..PIPELINE_REPS {
        built.clear();
        for (v, prog) in versions.iter().enumerate() {
            let mut rec = Recorder::on();
            let b = adapter::build(prog, &mut rec)?;
            if v == 4 {
                let ran = adapter::execute(&b, &inputs, RunCfg::raw(Backend::Simulated), &mut rec)?;
                if rep == 0 {
                    out.check_run(prog.label, &ran, &reference, None);
                    out.check(
                        "static prediction equals the run",
                        ran.messages == b.predicted_messages() && ran.words == b.predicted_words(),
                    );
                }
            }
            for (name, secs) in totals_by_name(&rec.spans) {
                spans.entry((v, name)).or_default().push(secs);
            }
            built.push(b);
        }
    }
    let phase =
        |v: usize, name: &'static str| spans.get(&(v, name)).map_or(f64::NAN, |x| median(x));
    // Phases every version runs are read from Optimized III (4), whose
    // pipeline is the longest; the static walk from compile-time res. (1),
    // whose element-wise messages make it the heaviest.
    for (metric, v, span) in [
        ("lang.parse_s", 4, "lang.parse"),
        ("core.inline_s", 4, "core.inline"),
        ("core.analysis_s", 4, "core.analysis"),
        ("core.codegen_runtime_s", 0, "core.codegen_runtime"),
        (
            "core.codegen_compile_time_s",
            4,
            "core.codegen_compile_time",
        ),
        ("depend.analyze_s", 4, "depend.remarks"),
        ("opt.o1_s", 2, "opt.o1"),
        ("opt.o2_s", 3, "opt.o2"),
        ("opt.o3_s", 4, "opt.o3"),
        ("report.predict_s", 1, "report.predict"),
        ("analyze.verify_s", 4, "analyze.verify"),
        ("spmd.lower_s", 4, "spmd.lower"),
        ("spmd.preload_s", 4, "spmd.preload"),
        ("spmd.gather_s", 4, "spmd.gather"),
    ] {
        out.set(metric, phase(v, span));
    }
    let (sim_s8, raw_run) = run_secs(
        &built[1],
        &inputs,
        RunCfg::raw(Backend::Simulated),
        RUN_REPS,
    )?;
    out.check_run("compile-time res.", &raw_run, &reference, None);
    out.set("machine.sim.run_s", sim_s8);
    out.set("machine.messages", raw_run.messages as f64);
    out.set("machine.words", raw_run.words as f64);
    out.set(
        "report.walk_ns_per_point",
        phase(1, "report.predict") * 1e9 / points,
    );
    out.set("core.spmd_stmts", built[1].stmts() as f64);
    out.set("opt.spmd_stmts_after", built[4].stmts() as f64);
    out.set("opt.applied", built[4].opt_applied as f64);
    out.set("spmd.instrs", built[4].instrs()? as f64);

    // The static makespan model, checked against the run it predicts.
    let t = Instant::now();
    let estimated = adapter::estimate_makespan(&built[1]);
    out.set("report.estimate_s", t.elapsed().as_secs_f64());
    out.check(
        "static makespan equals the run",
        estimated == raw_run.makespan,
    );

    // What `driver::compile` spends outside the separately timed phases.
    let whole = median_secs(PIPELINE_REPS, || {
        let t = Instant::now();
        compile_plain(&versions[4])?;
        Ok(t.elapsed().as_secs_f64())
    })?;
    let phases: f64 = [
        "lang.parse",
        "core.inline",
        "core.analysis",
        "depend.remarks",
        "core.codegen_compile_time",
        "opt.o3",
        "report.predict",
        "analyze.verify",
    ]
    .into_iter()
    .map(|name| phase(4, name))
    .sum();
    out.set("core.driver_other_s", whole - phases);

    // One decomposition search.
    let tuned = Prog {
        label: "tune wavefront/iPSC-2",
        kernel: Kernel::GaussSeidel,
        n: 32,
        s: 4,
        plan: Plan::Tuned(Cost::Ipsc2),
    };
    let mut summary = None;
    let search = median_secs(RUN_REPS, || {
        let t = Instant::now();
        summary = compile_plain(&tuned)?.tune;
        Ok(t.elapsed().as_secs_f64())
    })?;
    let summary = summary.ok_or("the search returned no result")?;
    out.set("tune.search_s", search);
    out.set("tune.candidates", summary.candidates as f64);
    out.set("tune.viable", summary.viable as f64);
    out.set(
        "tune.ms_per_candidate",
        search * 1e3 / summary.candidates as f64,
    );

    out.set(
        "mapping.owner_ns_per_call",
        adapter::owner_ns_per_call(N, S),
    );

    // VM dispatch: Optimized III on one processor sends nothing.
    let one = compile_plain(&Prog {
        s: 1,
        ..versions[4]
    })?;
    let (secs, ran) = run_secs(&one, &inputs, RunCfg::raw(Backend::Simulated), RUN_REPS)?;
    out.check_run("optimized III, s=1", &ran, &reference, None);
    out.check("one processor sends nothing", ran.messages == 0);
    out.set("spmd.vm_ops", ran.steps as f64);
    out.set("spmd.vm_ns_per_op", secs * 1e9 / ran.steps as f64);

    // The simulator's cost of having more processors for the same work.
    let one = compile_plain(&Prog {
        s: 1,
        ..versions[1]
    })?;
    let (sim_s1, ran) = run_secs(&one, &inputs, RunCfg::raw(Backend::Simulated), RUN_REPS)?;
    out.check_run("compile-time res., s=1", &ran, &reference, None);
    out.set("machine.sim.s8_over_s1", sim_s8 / sim_s1);

    // Both machines on the n=512, s=2 program of `scale_sim`.
    let big = Prog {
        n: 512,
        s: 2,
        ..versions[1]
    };
    let big_inputs = adapter::gen_inputs(big.n, seed);
    let big_reference = adapter::sequential(big.kernel, &big_inputs)?;
    let big_built = compile_plain(&big)?;
    let (sim, on_sim) = run_secs(&big_built, &big_inputs, RunCfg::raw(Backend::Simulated), 1)?;
    let (thr, on_threads) = run_secs(&big_built, &big_inputs, RunCfg::raw(Backend::Threaded), 1)?;
    out.check_run("n=512 simulated", &on_sim, &big_reference, None);
    out.check_run("n=512 threaded", &on_threads, &big_reference, Some(&on_sim));
    out.check(
        "simulator and threads agree on the makespan",
        on_sim.makespan == on_threads.makespan,
    );
    out.set("machine.threaded.run_s", thr);
    out.set("machine.threaded_over_sim", thr / sim);

    // How the threads waited (metrics on, small run).
    let two = compile_plain(&Prog {
        s: 2,
        ..versions[1]
    })?;
    let cfg = RunCfg {
        metrics: true,
        ..RunCfg::raw(Backend::Threaded)
    };
    let (_, ran) = run_secs(&two, &inputs, cfg, 1)?;
    out.check_run("n=128 threaded with metrics", &ran, &reference, None);
    out.set("machine.threaded.parks", ran.waits[0] as f64);
    out.set("machine.threaded.spin_wakes", ran.waits[1] as f64);
    out.set("machine.threaded.enqueue_stalls", ran.waits[2] as f64);

    // The fabrics alone, no VM: cost per message and per extra word.
    const MESSAGES: u64 = 20_000;
    for (backend, nprocs, per_message, per_word) in [
        (
            Backend::Simulated,
            S,
            "machine.sim.ns_per_message",
            "machine.sim.ns_per_word",
        ),
        (
            Backend::Threaded,
            2,
            "machine.threaded.ns_per_message",
            "machine.threaded.ns_per_word",
        ),
    ] {
        let sent = (MESSAGES * nprocs as u64) as f64;
        let ns = |words| -> Result<f64, String> {
            Ok(median_secs(RUN_REPS, || {
                adapter::ring_seconds(backend, nprocs, MESSAGES, words, 64)
            })? * 1e9
                / sent)
        };
        let (short, long) = (ns(1)?, ns(64)?);
        out.set(per_message, short);
        out.set(per_word, (long - short) / 63.0);
    }
    const ROUNDS: u64 = 20_000;
    out.set(
        "machine.threaded.pingpong_ns",
        median_secs(RUN_REPS, || {
            adapter::ring_seconds(Backend::Threaded, 2, ROUNDS, 1, 1)
        })? * 1e9
            / ROUNDS as f64,
    );

    // The protocol layers over the same program (n=128, s=4).
    let four = compile_plain(&Prog {
        s: 4,
        ..versions[1]
    })?;
    let mode = |mode| -> Result<(f64, Ran), String> {
        run_secs(&four, &inputs, RunCfg::simulated(mode), RUN_REPS)
    };
    let (raw, raw_ran) = mode(Mode::Raw)?;
    let (reliable, reliable_ran) = mode(Mode::Reliable)?;
    let (faulty, faulty_ran) = mode(Mode::Faulty { seed })?;
    let (ckpt, ckpt_ran) = mode(Mode::Checkpointed)?;
    let (crashed, crashed_ran) = mode(Mode::Crashed)?;
    for (what, ran) in [
        ("raw", &raw_ran),
        ("reliable", &reliable_ran),
        ("faulty", &faulty_ran),
        ("checkpointed", &ckpt_ran),
        ("crashed", &crashed_ran),
    ] {
        out.check_run(what, ran, &reference, Some(&raw_ran));
    }
    out.check(
        "the scripted crash is survived",
        crashed_ran.crashes_survived == 1,
    );
    out.set("machine.raw.run_s", raw);
    out.set("machine.reliable.run_s", reliable);
    out.set("machine.reliable.overhead_ratio", reliable / raw);
    out.set("machine.reliable.acks", reliable_ran.acks as f64);
    out.set("machine.faulty.run_s", faulty);
    out.set("machine.faulty.makespan_cycles", faulty_ran.makespan as f64);
    out.set("machine.faulty.retransmits", faulty_ran.retransmits as f64);
    out.set("machine.ckpt.run_s", ckpt);
    out.set("machine.ckpt.overhead_ratio", ckpt / reliable);
    out.set("machine.ckpt.checkpoints", ckpt_ran.checkpoints as f64);
    out.set("machine.ckpt.bytes", ckpt_ran.checkpoint_bytes as f64);
    out.set("machine.recovery.run_s", crashed);
    out.set(
        "machine.recovery.crashes_survived",
        crashed_ran.crashes_survived as f64,
    );
    out.set(
        "machine.recovery.replayed_ops",
        crashed_ran.replayed_ops as f64,
    );

    // What turning the observability layers on costs the same run.
    for (metric, metrics, trace) in [
        ("metrics.overhead_ratio", true, false),
        ("machine.trace.overhead_ratio", false, true),
    ] {
        let cfg = RunCfg {
            metrics,
            trace,
            ..RunCfg::raw(Backend::Simulated)
        };
        let (secs, ran) = run_secs(&built[1], &inputs, cfg, RUN_REPS)?;
        out.check_run(metric, &ran, &reference, Some(&raw_run));
        out.set(metric, secs / sim_s8);
    }

    out.set("bench.probes_s", t0.elapsed().as_secs_f64());
    Ok(out)
}
