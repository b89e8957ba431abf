//! The four workloads: what one iteration does, how it is set up, and how
//! its outputs are checked.
//!
//! Every workload is a closed loop with one client: the next iteration
//! starts when the previous one is done and checked. An iteration is a
//! fixed list of *ops*; one op is one program's compile (where the
//! workload times it) plus its run, and is checked on its own.

use crate::adapter::{
    self, Backend, Built, Cost, Inputs, Kernel, Mode, Plan, Prog, Ran, Reference, RunCfg, Version,
};
use crate::spans::Recorder;
use std::collections::btree_map::{BTreeMap, Entry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

/// One program's part of an iteration.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Index into [`Workload::progs`].
    pub prog: usize,
    /// How to run the compiled program; `None` compiles only.
    pub run: Option<RunCfg>,
    /// Run the program on OS threads too when the baseline is made, and
    /// require the same output, makespan and messages as the timed run.
    pub also_on_threads: bool,
    /// The paper's message count for this program, where it states one.
    pub expect_messages: Option<u64>,
    /// Whether the op's logical makespan and messages count towards the
    /// workload's logical totals. The seeded-fault runs do not: their
    /// makespan is a function of `--seed`, not only of the code.
    pub in_logical_totals: bool,
}

/// A workload: its programs and the ops of one iteration.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The programs it compiles.
    pub progs: Vec<Prog>,
    /// One iteration.
    pub ops: Vec<Op>,
    /// Compile in set-up instead of in every iteration.
    pub precompiled: bool,
}

/// Names of the workloads, in the order they run, with why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "fig67_sim",
        "The paper's Fig. 6/7: source to gathered result, five versions, n=128, 8 simulated processors; 31,752 one-word messages make the simulator's network and scheduler do most of the run.",
    ),
    (
        "scale_sim",
        "n=512 on 2 simulated processors: 520,200 messages, a 100 MiB working set, and static models that walk 260,100 points, so compile is two fifths of the time; checked against OS threads once per run.",
    ),
    (
        "compile_tune",
        "Compile only: five versions at n=128 and three 72-candidate decomposition searches at n=32; all time is front end, codegen, optimizer, static models and tuner, none in the machine or the VM.",
    ),
    (
        "faulty_sim",
        "Compiled in set-up, run under reliable delivery, seeded drop/dup/delay, checkpoints, and checkpoints plus a crash: the machine's protocol paths, which fig67_sim's raw fabric never enters.",
    ),
];

fn wavefront(label: &'static str, n: usize, s: usize, version: Version) -> Prog {
    Prog {
        label,
        kernel: Kernel::GaussSeidel,
        n,
        s,
        plan: Plan::Fixed(version),
    }
}

/// The five versions of Figures 6 and 7 at size `n` on `s` processors.
pub fn five_versions(n: usize, s: usize) -> Vec<Prog> {
    vec![
        wavefront("run-time res.", n, s, Version::RuntimeRes),
        wavefront("compile-time res.", n, s, Version::CompileTimeRes),
        wavefront("optimized I", n, s, Version::OptimizedI),
        wavefront("optimized II", n, s, Version::OptimizedII),
        wavefront("optimized III b=8", n, s, Version::OptimizedIII),
    ]
}

fn op(prog: usize, run: Option<RunCfg>) -> Op {
    Op {
        prog,
        run,
        also_on_threads: false,
        expect_messages: None,
        in_logical_totals: true,
    }
}

/// The workload called `name`; `seed` selects the fault schedule of the
/// seeded-fault runs.
pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let sim = Some(RunCfg::raw(Backend::Simulated));
    Some(match name {
        "fig67_sim" => {
            let mut ops: Vec<Op> = (0..5).map(|p| op(p, sim)).collect();
            // Footnote 3 of the paper.
            ops[1].expect_messages = Some(31_752);
            ops[4].expect_messages = Some(2_142);
            Workload {
                name: "fig67_sim",
                progs: five_versions(128, 8),
                ops,
                precompiled: false,
            }
        }
        "scale_sim" => Workload {
            name: "scale_sim",
            progs: vec![
                wavefront("compile-time res.", 512, 2, Version::CompileTimeRes),
                wavefront("optimized III b=8", 512, 2, Version::OptimizedIII),
            ],
            ops: (0..2)
                .map(|p| Op {
                    also_on_threads: true,
                    ..op(p, sim)
                })
                .collect(),
            precompiled: false,
        },
        "compile_tune" => {
            let tuned = |label, kernel, cost| Prog {
                label,
                kernel,
                n: 32,
                s: 4,
                plan: Plan::Tuned(cost),
            };
            let mut progs = five_versions(128, 8);
            progs.push(tuned(
                "tune wavefront/iPSC-2",
                Kernel::GaussSeidel,
                Cost::Ipsc2,
            ));
            progs.push(tuned(
                "tune wavefront/shared-memory",
                Kernel::GaussSeidel,
                Cost::SharedMemory,
            ));
            progs.push(tuned("tune jacobi/iPSC-2", Kernel::Jacobi, Cost::Ipsc2));
            Workload {
                name: "compile_tune",
                ops: (0..progs.len()).map(|p| op(p, None)).collect(),
                progs,
                precompiled: false,
            }
        }
        "faulty_sim" => {
            let modes = [
                Mode::Reliable,
                Mode::Faulty {
                    seed: seed ^ 0xFA17,
                },
                Mode::Checkpointed,
                Mode::Crashed,
            ];
            let mut ops = Vec::new();
            for p in 0..2 {
                for mode in modes {
                    ops.push(Op {
                        in_logical_totals: !matches!(mode, Mode::Faulty { .. }),
                        ..op(p, Some(RunCfg::simulated(mode)))
                    });
                }
            }
            Workload {
                name: "faulty_sim",
                progs: vec![
                    wavefront("compile-time res.", 128, 4, Version::CompileTimeRes),
                    wavefront("optimized III b=8", 128, 4, Version::OptimizedIII),
                ],
                ops,
                precompiled: true,
            }
        }
        _ => return None,
    })
}

impl Workload {
    /// Grid points one iteration processes: the interior points of every
    /// op's program (a compile-only op processes them statically).
    pub fn points_per_iteration(&self) -> u64 {
        self.ops.iter().map(|o| self.progs[o.prog].points()).sum()
    }
}

/// What set-up leaves for the iterations: inputs and sequential
/// references per program, and the compiled programs of a precompiled
/// workload.
pub struct Setup {
    inputs: Vec<Rc<Inputs>>,
    refs: Vec<Rc<Reference>>,
    /// Compiled programs, when the workload compiles in set-up.
    pub built: Vec<Option<Built>>,
}

/// Generate the inputs from `seed`, run the sequential interpreter on
/// them for the reference outputs, and compile if the workload compiles
/// ahead of its iterations.
pub fn setup(w: &Workload, seed: u64) -> Result<Setup, String> {
    // Programs of one kernel and size share their inputs and reference.
    let mut made: BTreeMap<(Kernel, usize), (Rc<Inputs>, Rc<Reference>)> = BTreeMap::new();
    let mut inputs = Vec::new();
    let mut refs = Vec::new();
    let mut built = Vec::new();
    for prog in &w.progs {
        let key = (prog.kernel, prog.n);
        if let Entry::Vacant(slot) = made.entry(key) {
            let inp = adapter::gen_inputs(prog.n, seed);
            let reference = adapter::sequential(prog.kernel, &inp)?;
            slot.insert((Rc::new(inp), Rc::new(reference)));
        }
        let (inp, reference) = &made[&key];
        inputs.push(Rc::clone(inp));
        refs.push(Rc::clone(reference));
        built.push(if w.precompiled {
            Some(adapter::build(prog, &mut Recorder::off())?)
        } else {
            None
        });
    }
    Ok(Setup {
        inputs,
        refs,
        built,
    })
}

/// What one op produced.
pub struct OpOut {
    /// The program compiled in this op (not for precompiled workloads).
    pub built: Option<Built>,
    /// The run, unless the op only compiles.
    pub ran: Option<Ran>,
}

/// One iteration: its wall time and every op's result.
pub struct IterOut {
    /// Wall seconds of the whole iteration, checks excluded.
    pub secs: f64,
    /// One entry per op of the workload; `Err` for an op that failed or
    /// panicked.
    pub ops: Vec<Result<OpOut, String>>,
}

/// Run one iteration of `w`. Spans are recorded when `rec` is on:
/// `bench.iteration` > `bench.op` > `bench.compile` | `bench.tune` |
/// `bench.run` > one span per call into a layer.
pub fn iterate(w: &Workload, setup: &Setup, rec: &mut Recorder) -> IterOut {
    let t0 = Instant::now();
    let ops = rec.span("bench.iteration", |rec| {
        w.ops
            .iter()
            .map(|op| {
                rec.next_op();
                rec.span("bench.op", |rec| {
                    catch_unwind(AssertUnwindSafe(|| run_op(w, setup, op, rec)))
                        .unwrap_or_else(|_| Err("panicked".to_owned()))
                })
            })
            .collect()
    });
    IterOut {
        secs: t0.elapsed().as_secs_f64(),
        ops,
    }
}

fn run_op(w: &Workload, setup: &Setup, op: &Op, rec: &mut Recorder) -> Result<OpOut, String> {
    let prog = &w.progs[op.prog];
    let built = if w.precompiled {
        None
    } else {
        let phase = match prog.plan {
            Plan::Fixed(_) => "bench.compile",
            Plan::Tuned(_) => "bench.tune",
        };
        Some(rec.span(phase, |rec| adapter::build(prog, rec))?)
    };
    let ran = match op.run {
        None => None,
        Some(cfg) => {
            let code = built
                .as_ref()
                .or(setup.built[op.prog].as_ref())
                .ok_or("nothing compiled for this op")?;
            Some(rec.span("bench.run", |rec| {
                adapter::execute(code, &setup.inputs[op.prog], cfg, rec)
            })?)
        }
    };
    Ok(OpOut { built, ran })
}

/// What the first checked iteration established; every later iteration
/// must reproduce it exactly.
pub struct Baseline {
    built: Vec<Option<Built>>,
    /// Per op: logical makespan and program-level messages of its run, or
    /// the static prediction of a compile-only op.
    logical: Vec<(u64, u64)>,
}

impl Baseline {
    /// Σ logical makespan and Σ program-level messages over the ops that
    /// count towards the workload's logical totals.
    pub fn logical_totals(&self, w: &Workload) -> (u64, u64) {
        w.ops
            .iter()
            .zip(&self.logical)
            .filter(|(op, _)| op.in_logical_totals)
            .fold((0, 0), |(mk, msg), (_, l)| (mk + l.0, msg + l.1))
    }
}

/// What is wrong with one run of `code`, if anything.
fn judge_run(r: &Ran, code: Option<&Built>, reference: &Reference, problems: &mut Vec<String>) {
    if r.undelivered != 0 {
        problems.push(format!("{} messages undelivered", r.undelivered));
    }
    if let Some(m) = adapter::mismatch(&r.grid, reference) {
        problems.push(format!(
            "output differs from the sequential interpreter at {m}"
        ));
    }
    if let Some(code) = code {
        if r.messages != code.predicted_messages() {
            problems.push(format!(
                "{} messages, statically predicted {}",
                r.messages,
                code.predicted_messages()
            ));
        }
    }
}

/// Check one iteration, op by op, and return one line per failed op.
///
/// An op fails if it errored or panicked, left messages undelivered,
/// gathered a grid that differs from the sequential interpreter's, missed
/// the paper's message count or its own static prediction, or disagrees
/// with the first checked iteration in code, remark stream, makespan or
/// message count. The first call establishes that baseline; on it, a
/// compile-only op's program is also run once on the simulator, and an
/// op marked [`Op::also_on_threads`] once on the threaded backend, which
/// must agree with the simulator on output, makespan and messages.
pub fn check(
    w: &Workload,
    setup: &Setup,
    out: IterOut,
    baseline: &mut Option<Baseline>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut builts = Vec::new();
    let mut logicals = Vec::new();
    for (k, (op, result)) in w.ops.iter().zip(out.ops).enumerate() {
        let prog = &w.progs[op.prog];
        let (built, ran, mut problems) = match result {
            Ok(OpOut { built, ran }) => (built, ran, Vec::new()),
            Err(e) => (None, None, vec![e]),
        };
        let code = built.as_ref().or(setup.built[op.prog].as_ref());
        let reference = &setup.refs[op.prog];
        if let Some(r) = &ran {
            judge_run(r, code, reference, &mut problems);
        }
        let logical = match (&ran, code) {
            (Some(r), _) => (r.makespan, r.messages),
            (None, Some(code)) => (
                code.tune.as_ref().map_or(0, |t| t.makespan),
                code.predicted_messages(),
            ),
            (None, None) => (0, 0),
        };
        // The once-per-run second opinion on another machine.
        let second = match (baseline.is_none(), op.run, op.also_on_threads) {
            (true, None, _) => Some(Backend::Simulated),
            (true, Some(_), true) => Some(Backend::Threaded),
            _ => None,
        };
        if let (Some(backend), Some(code)) = (second, code) {
            let cfg = RunCfg::raw(backend);
            match adapter::execute(code, &setup.inputs[op.prog], cfg, &mut Recorder::off()) {
                Ok(r) => {
                    judge_run(&r, Some(code), reference, &mut problems);
                    if ran.is_some() && (r.makespan, r.messages) != logical {
                        problems.push(format!(
                            "{backend:?} (makespan, messages) {:?}, timed run {logical:?}",
                            (r.makespan, r.messages)
                        ));
                    }
                }
                Err(e) => problems.push(format!("does not run on {backend:?}: {e}")),
            }
        }
        if let Some(want) = op.expect_messages {
            if logical.1 != want {
                problems.push(format!("{} messages, the paper counts {want}", logical.1));
            }
        }
        if let Some(base) = baseline {
            if logical != base.logical[k] {
                problems.push(format!(
                    "logical (makespan, messages) {logical:?}, first iteration {:?}",
                    base.logical[k]
                ));
            }
            if let (Some(b), Some(first)) = (&built, &base.built[k]) {
                if !b.same_code(first) {
                    problems.push("compiled code differs from the first iteration's".to_owned());
                }
                if b.remarks_json.is_some()
                    && first.remarks_json.is_some()
                    && b.remarks_json != first.remarks_json
                {
                    problems.push("remark stream differs from the first iteration's".to_owned());
                }
            }
        }
        if !problems.is_empty() {
            failures.push(format!(
                "{} op {k} ({}): {}",
                w.name,
                prog.label,
                problems.join("; ")
            ));
        }
        builts.push(built);
        logicals.push(logical);
    }
    if baseline.is_none() {
        *baseline = Some(Baseline {
            built: builts,
            logical: logicals,
        });
    }
    failures
}

/// Whether two set-ups compiled the same code with the same remark
/// stream (the determinism check of a precompiled workload).
pub fn same_builds(a: &Setup, b: &Setup) -> bool {
    a.built.iter().zip(&b.built).all(|pair| match pair {
        (Some(x), Some(y)) => x.same_code(y) && x.remarks_json == y.remarks_json,
        (None, None) => true,
        _ => false,
    })
}
