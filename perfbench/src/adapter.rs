//! The only file of the benchmark that calls into a `pdc-*` crate.
//!
//! The benchmark is frozen between the changes it judges, so the public
//! surface it depends on is listed here in full; a later API change has
//! to keep these items or edit this one file.
//!
//! * `pdc-lang`: `parse`, `lexer::lex`, `Program`, `value::Value`
//! * `pdc-core`: `programs::{GAUSS_SEIDEL, JACOBI, wavefront_decomposition}`;
//!   `driver::{Job, Strategy, Inputs, compile, run_sequential,
//!   first_mismatch}` with `Job::{new, with_const, with_opt_level,
//!   with_auto_decomposition_under}`, the `Job` fields `program`, `entry`,
//!   `decomp`, `param_maps`, `mode`, `const_params`, `extent_overrides`,
//!   `opt_level`, and `Compiled::{spmd, analysis, prediction, opt_report,
//!   tune, remarks_json, static_env}`; `inline::inline_program`;
//!   `analysis::Analysis::{build, arrays, inst}`;
//!   `runtime_res::compile`; `compile_time::compile`
//! * `pdc-depend`: `ast::{nests, analyze_for_env}`, `DependenceInfo::{deps,
//!   exact}`
//! * `pdc-analyze`: `depend_remarks`, `analyze`
//! * `pdc-opt`: `optimize`, `OptLevel`, `OptReport`
//! * `pdc-report`: `predict`, `estimate`, `Prediction::{total_messages,
//!   total_words}`, `MakespanEstimate::makespan`
//! * `pdc-tune`: `SearchSpace::from_seed`, `enumerate`, `search`,
//!   `CandidateProgram`, `TuneResult::{evaluated, winner, winner_score,
//!   viable}`
//! * `pdc-mapping`: `Dist`, `DistInstance::{new, owner, local}`
//! * `pdc-istructure`: `IMatrix::{new, write}`
//! * `pdc-spmd`: `ir::SpmdProgram::{n_procs, body, stmt_count}`,
//!   `lower::lower`, `Scalar`, `run::SpmdMachine::{new, with_backend,
//!   with_reliable_delivery, with_faults_cfg, with_checkpoints,
//!   with_metrics, with_trace, preset_var, preload_array, run, gather}`
//! * `pdc-machine`: `Backend`, `CostModel::{ipsc2, shared_memory}`,
//!   `FaultPlan::{seeded, with_drops, with_dups, with_delays, with_crash}`,
//!   `RelConfig`, `CheckpointCfg::every`, `RunReport`, `Ctr`, `Process`,
//!   `Step`, `Fabric::{send_ref, try_recv_into}`, `Machine::new`,
//!   `Scheduler::{new, run}`, `ThreadedRunner::{new, run}`,
//!   `trace_chrome::{parse_json, Json}`

use crate::spans::Recorder;
use pdc_core::analysis::Analysis;
use pdc_core::driver::{self, Compiled, Job, Strategy};
use pdc_core::{compile_time, inline, programs, runtime_res};
use pdc_istructure::IMatrix;
use pdc_lang::Program;
use pdc_machine::{
    CheckpointCfg, CostModel, Ctr, Fabric, FaultPlan, Machine, MachineError, ProcId, Process,
    RelConfig, RunReport, Scheduler, Step, Tag, ThreadedRunner, Word,
};
use pdc_mapping::{Dist, DistInstance};
use pdc_opt::OptLevel;
use pdc_spmd::ir::SpmdProgram;
use pdc_spmd::run::SpmdMachine;
use pdc_spmd::Scalar;
use std::collections::BTreeMap;
use std::time::Instant;

pub use pdc_core::driver::Inputs;
pub use pdc_lang::value::Value as Reference;
pub use pdc_machine::trace_chrome::{parse_json, Json};

/// A global matrix of machine scalars.
pub type Grid = IMatrix<Scalar>;

/// The ops between checkpoints in the checkpointed modes.
const CHECKPOINT_INTERVAL_OPS: u64 = 2_048;
/// The scripted crash: this processor, at this charged op.
const CRASH: (usize, u64) = (1, 1_000);
/// Strip-mining block size of Optimized III, as in the paper's Fig. 7.
const BLKSIZE: usize = 8;

/// A source program of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kernel {
    /// Figure 1: the Gauss-Seidel wavefront.
    GaussSeidel,
    /// The Jacobi sweep: same stencil, no wavefront dependence.
    Jacobi,
}

impl Kernel {
    /// The source text.
    pub fn source(self) -> &'static str {
        match self {
            Kernel::GaussSeidel => programs::GAUSS_SEIDEL,
            Kernel::Jacobi => programs::JACOBI,
        }
    }

    fn entry(self) -> &'static str {
        match self {
            Kernel::GaussSeidel => "gs_iteration",
            Kernel::Jacobi => "jacobi",
        }
    }
}

/// The five program versions of the paper's Figures 6 and 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// §3.1 run-time resolution.
    RuntimeRes,
    /// §3.2 compile-time resolution.
    CompileTimeRes,
    /// Optimized I (vectorized).
    OptimizedI,
    /// Optimized II (jammed).
    OptimizedII,
    /// Optimized III (strip-mined, b = 8).
    OptimizedIII,
}

impl Version {
    fn strategy(self) -> Strategy {
        match self {
            Version::RuntimeRes => Strategy::Runtime,
            _ => Strategy::CompileTime,
        }
    }

    fn level(self) -> Option<OptLevel> {
        match self {
            Version::RuntimeRes => None,
            Version::CompileTimeRes => Some(OptLevel::O0),
            Version::OptimizedI => Some(OptLevel::O1),
            Version::OptimizedII => Some(OptLevel::O2),
            Version::OptimizedIII => Some(OptLevel::O3 { blksize: BLKSIZE }),
        }
    }
}

/// The machine cost model a decomposition search scores under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cost {
    /// The paper's iPSC/2-style model (expensive messages).
    Ipsc2,
    /// Cheap communication.
    SharedMemory,
}

impl Cost {
    fn model(self) -> CostModel {
        match self {
            Cost::Ipsc2 => CostModel::ipsc2(),
            Cost::SharedMemory => CostModel::shared_memory(),
        }
    }
}

/// What to compile: a fixed version of a kernel, or a search for its
/// decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// Compile this version under the paper's column-cyclic decomposition.
    Fixed(Version),
    /// `Job::with_auto_decomposition_under`: search decompositions and the
    /// optimization ladder, scored under this cost model.
    Tuned(Cost),
}

/// One program to compile: kernel, problem size, machine size, plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prog {
    /// Name in reports.
    pub label: &'static str,
    /// The source program.
    pub kernel: Kernel,
    /// Grid side.
    pub n: usize,
    /// Processors.
    pub s: usize,
    /// How to compile it.
    pub plan: Plan,
}

impl Prog {
    /// Interior grid points one sweep updates.
    pub fn points(&self) -> u64 {
        ((self.n - 2) * (self.n - 2)) as u64
    }

    fn job<'a>(&self, program: &'a Program) -> Job<'a> {
        let job = Job::new(
            program,
            self.kernel.entry(),
            programs::wavefront_decomposition(self.s),
        )
        .with_const("n", self.n as i64);
        match self.plan {
            Plan::Fixed(v) => match v.level() {
                Some(level) => job.with_opt_level(level),
                None => job,
            },
            Plan::Tuned(cost) => job.with_auto_decomposition_under(cost.model()),
        }
    }

    fn strategy(&self) -> Strategy {
        match self.plan {
            Plan::Fixed(v) => v.strategy(),
            Plan::Tuned(_) => Strategy::CompileTime,
        }
    }
}

/// What a decomposition search found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneSummary {
    /// Candidates enumerated.
    pub candidates: usize,
    /// Candidates that scored.
    pub viable: usize,
    /// Label of the winner.
    pub winner: String,
    /// The winner's exact predicted makespan.
    pub makespan: u64,
    /// The winner's exact predicted message count.
    pub messages: u64,
}

impl TuneSummary {
    fn of(result: &pdc_tune::TuneResult) -> TuneSummary {
        let score = result.winner_score();
        TuneSummary {
            candidates: result.evaluated.len(),
            viable: result.viable(),
            winner: result.winner().candidate.label.clone(),
            makespan: score.makespan,
            messages: score.messages,
        }
    }
}

/// A compiled program with what is needed to run and to judge it.
#[derive(Debug, Clone)]
pub struct Built {
    /// The per-processor target program.
    pub spmd: SpmdProgram,
    /// Transformations the optimizer applied.
    pub opt_applied: usize,
    /// The remark stream as JSON (`driver::compile` only).
    pub remarks_json: Option<String>,
    /// The search, for [`Plan::Tuned`].
    pub tune: Option<TuneSummary>,
    prediction: pdc_report::Prediction,
    dists: BTreeMap<String, Dist>,
    env: BTreeMap<String, i64>,
    arrays: BTreeMap<String, DistInstance>,
}

impl Built {
    /// Whether two compilations of one [`Prog`] produced the same code,
    /// prediction and search result.
    pub fn same_code(&self, other: &Built) -> bool {
        self.spmd == other.spmd
            && self.predicted_messages() == other.predicted_messages()
            && self.predicted_words() == other.predicted_words()
            && self.tune == other.tune
    }

    /// Statically predicted messages of the final code.
    pub fn predicted_messages(&self) -> u64 {
        self.prediction.total_messages()
    }

    /// Statically predicted payload words of the final code.
    pub fn predicted_words(&self) -> u64 {
        self.prediction.total_words()
    }

    /// Statement nodes of the target program.
    pub fn stmts(&self) -> usize {
        self.spmd.stmt_count()
    }

    /// Bytecode instructions over all processors.
    pub fn instrs(&self) -> Result<usize, String> {
        (0..self.spmd.n_procs())
            .map(|p| {
                pdc_spmd::lower::lower(self.spmd.body(p))
                    .map(|c| c.instrs.len())
                    .map_err(|e| e.to_string())
            })
            .sum()
    }

    fn from_compiled(c: Compiled, job: &Job<'_>) -> Built {
        let (env, arrays) = c.static_env(&job.const_params);
        let remarks_json = Some(c.remarks_json());
        let tune = c.tune.as_ref().map(TuneSummary::of);
        Built {
            opt_applied: applied(&c.opt_report),
            remarks_json,
            tune,
            dists: dists_of(&c.analysis),
            env,
            arrays,
            spmd: c.spmd,
            prediction: c.prediction,
        }
    }
}

fn applied(r: &pdc_opt::OptReport) -> usize {
    r.vectorized + r.jammed + r.stripped
}

fn dists_of(analysis: &Analysis) -> BTreeMap<String, Dist> {
    analysis
        .arrays()
        .iter()
        .map(|(name, info)| (name.clone(), info.dist.clone()))
        .collect()
}

/// From the source text to a compiled program: `pdc_lang::parse`, then
/// [`compile`].
pub fn build(prog: &Prog, rec: &mut Recorder) -> Result<Built, String> {
    let program = rec
        .span("lang.parse", |_| pdc_lang::parse(prog.kernel.source()))
        .map_err(|e| e.to_string())?;
    compile(prog, &program, rec)
}

/// Tokens in the kernel's source text.
pub fn token_count(kernel: Kernel) -> Result<usize, String> {
    pdc_lang::lexer::lex(kernel.source())
        .map(|t| t.len())
        .map_err(|e| e.to_string())
}

/// Dependences the exact analysis finds over the kernel's loop nests.
pub fn dependences(kernel: Kernel, n: usize) -> Result<usize, String> {
    let program = pdc_lang::parse(kernel.source()).map_err(|e| e.to_string())?;
    let env = BTreeMap::from([("n".to_owned(), n as i64)]);
    Ok(pdc_depend::ast::nests(&program)
        .into_iter()
        .map(|(_, nest)| pdc_depend::ast::analyze_for_env(nest, &env).deps.len())
        .sum())
}

/// Compile `prog`. With the recorder off this is `driver::compile`; with
/// it on, the same pipeline is called phase by phase through the crates'
/// public functions, one span per phase (no remark stream is built, so
/// [`Built::remarks_json`] is `None`). The caller checks that both give
/// the same code.
fn compile(prog: &Prog, program: &Program, rec: &mut Recorder) -> Result<Built, String> {
    let job = prog.job(program);
    if !rec.is_on() {
        let compiled = driver::compile(&job, prog.strategy()).map_err(|e| e.to_string())?;
        return Ok(Built::from_compiled(compiled, &job));
    }
    match job.auto_decomposition {
        None => compile_phased(&job, prog.strategy(), None, rec),
        Some(cost) => search_phased(&job, prog.strategy(), &cost, rec),
    }
}

/// The job's compile-time constants, as the static models take them.
fn const_env(job: &Job<'_>) -> BTreeMap<String, i64> {
    job.const_params
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// `driver::compile` for a fixed decomposition, phase by phase.
/// `verify` overrides the default of verifying at O1 and above.
fn compile_phased(
    job: &Job<'_>,
    strategy: Strategy,
    verify: Option<bool>,
    rec: &mut Recorder,
) -> Result<Built, String> {
    let inlined = rec
        .span("core.inline", |_| {
            inline::inline_program(
                job.program,
                job.entry,
                &job.decomp,
                &job.param_maps,
                job.mode,
            )
        })
        .map_err(|e| e.to_string())?;
    let analysis = rec
        .span("core.analysis", |_| {
            Analysis::build(
                &inlined,
                &job.decomp,
                &job.const_params,
                &job.extent_overrides,
            )
        })
        .map_err(|e| e.to_string())?;
    let env = const_env(job);
    rec.span("depend.remarks", |_| {
        std::hint::black_box(pdc_analyze::depend_remarks(
            &inlined.body,
            &job.decomp,
            &env,
        ));
    });
    let spmd = match strategy {
        Strategy::Runtime => rec.span("core.codegen_runtime", |_| {
            runtime_res::compile(&inlined, &analysis)
        }),
        Strategy::CompileTime => rec.span("core.codegen_compile_time", |_| {
            compile_time::compile(&inlined, &analysis)
        }),
    }
    .map_err(|e| e.to_string())?;
    let (spmd, opt_applied) = match job.opt_level {
        None => (spmd, 0),
        Some(level) => {
            let name = match level {
                OptLevel::O0 => "opt.o0",
                OptLevel::O1 => "opt.o1",
                OptLevel::O2 => "opt.o2",
                OptLevel::O3 { .. } => "opt.o3",
            };
            let (out, report) = rec.span(name, |_| pdc_opt::optimize(&spmd, level));
            (out, applied(&report))
        }
    };
    let mut arrays = BTreeMap::new();
    for name in analysis.arrays().keys() {
        if let Ok(inst) = analysis.inst(name) {
            arrays.insert(name.clone(), inst);
        }
    }
    let prediction = rec.span("report.predict", |_| {
        pdc_report::predict(&spmd, &env, &arrays)
    });
    let verify = verify.unwrap_or(!matches!(job.opt_level, None | Some(OptLevel::O0)));
    if verify {
        let report = rec.span("analyze.verify", |_| {
            pdc_analyze::analyze(&spmd, &env, &arrays)
        });
        if report.exact && report.has_errors() {
            return Err("static analysis found errors".to_owned());
        }
    }
    Ok(Built {
        opt_applied,
        remarks_json: None,
        tune: None,
        dists: dists_of(&analysis),
        env,
        arrays,
        spmd,
        prediction,
    })
}

/// `driver::compile` with a decomposition search, phase by phase: the
/// same candidate space, legality pre-filter, scoring and winner
/// recompilation as the driver's, with every candidate's compile recorded
/// under the search's span.
fn search_phased(
    job: &Job<'_>,
    strategy: Strategy,
    cost: &CostModel,
    rec: &mut Recorder,
) -> Result<Built, String> {
    let result = rec.span("tune.search", |rec| {
        let space = pdc_tune::SearchSpace::from_seed(&job.decomp, job.opt_level);
        let candidates = pdc_tune::enumerate(&space);
        let env = const_env(job);
        let inexact = rec.span("depend.nests", |_| {
            pdc_depend::ast::nests(job.program)
                .into_iter()
                .any(|(_, nest)| !pdc_depend::ast::analyze_for_env(nest, &env).exact)
        });
        pdc_tune::search(candidates, cost, |cand| {
            if inexact && !matches!(cand.opt_level, None | Some(OptLevel::O0)) {
                return Err("illegal: dependence analysis inexact".to_owned());
            }
            let mut cjob = job.clone();
            cjob.auto_decomposition = None;
            cjob.decomp = cand.decomp.clone();
            cjob.opt_level = cand.opt_level;
            let built = compile_phased(&cjob, strategy, Some(false), rec)
                .map_err(|e| format!("compile failed: {e}"))?;
            Ok(pdc_tune::CandidateProgram {
                prediction: Some(built.prediction),
                spmd: built.spmd,
                env: built.env,
                arrays: built.arrays,
            })
        })
    });
    let result = result.map_err(|e| e.to_string())?;
    let winner = result.winner();
    let mut fjob = job.clone();
    fjob.auto_decomposition = None;
    fjob.decomp = winner.candidate.decomp.clone();
    fjob.opt_level = winner.candidate.opt_level;
    let mut built = compile_phased(&fjob, strategy, None, rec)?;
    built.tune = Some(TuneSummary::of(&result));
    Ok(built)
}

/// `pdc_report::estimate`: the exact static makespan of `built` under the
/// iPSC/2 model.
pub fn estimate_makespan(built: &Built) -> u64 {
    pdc_report::estimate(&built.spmd, &built.env, &built.arrays, &CostModel::ipsc2()).makespan()
}

/// The input grid for `seed`: pseudo-random integers below 97, like the
/// repository's standard input but different for every seed.
pub fn gen_inputs(n: usize, seed: u64) -> Inputs {
    let mut state = seed ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut grid = Grid::new(n, n);
    for i in 1..=n as i64 {
        for j in 1..=n as i64 {
            grid.write(i, j, Scalar::Int((next() % 97) as i64))
                .expect("fresh matrix accepts first writes");
        }
    }
    Inputs::new()
        .scalar("n", Scalar::Int(n as i64))
        .array("Old", grid)
}

/// The reference result: the sequential interpreter, which shares no code
/// with the compiler or the machines under test.
pub fn sequential(kernel: Kernel, inputs: &Inputs) -> Result<Reference, String> {
    let program = pdc_lang::parse(kernel.source()).map_err(|e| e.to_string())?;
    driver::run_sequential(&program, kernel.entry(), inputs).map_err(|e| e.to_string())
}

/// Where a gathered grid first differs from the reference, if anywhere.
pub fn mismatch(gathered: &Grid, reference: &Reference) -> Option<String> {
    driver::first_mismatch(gathered, reference)
        .map(|(i, j, got, want)| format!("[{i},{j}]: gathered {got:?}, sequential {want:?}"))
}

/// Which machine runs the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The deterministic simulator (one host thread).
    Simulated,
    /// One OS thread per processor over the ring fabric.
    Threaded,
}

/// How the machine layer is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The raw fabric.
    Raw,
    /// Reliable delivery with nothing to recover from.
    Reliable,
    /// Reliable delivery over seeded drops, duplicates and delays.
    Faulty {
        /// Seed of the fault plan.
        seed: u64,
    },
    /// Checkpoints every 2,048 ops, no crash.
    Checkpointed,
    /// Checkpoints plus the scripted crash of P1.
    Crashed,
}

/// One execution's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunCfg {
    /// The machine.
    pub backend: Backend,
    /// The protocol layers in use.
    pub mode: Mode,
    /// `SpmdMachine::with_metrics`.
    pub metrics: bool,
    /// `SpmdMachine::with_trace` with a cap that holds every event.
    pub trace: bool,
}

impl RunCfg {
    /// The raw fabric of `backend`, no observability.
    pub fn raw(backend: Backend) -> Self {
        RunCfg {
            backend,
            mode: Mode::Raw,
            metrics: false,
            trace: false,
        }
    }

    /// The simulator in `mode`.
    pub fn simulated(mode: Mode) -> Self {
        RunCfg {
            mode,
            ..RunCfg::raw(Backend::Simulated)
        }
    }
}

/// The result of one execution.
#[derive(Debug)]
pub struct Ran {
    /// The gathered `New`.
    pub grid: Grid,
    /// Logical makespan in cycles.
    pub makespan: u64,
    /// Program-level messages (protocol traffic excluded).
    pub messages: u64,
    /// Payload words on the fabric.
    pub words: u64,
    /// VM instructions executed over all processors.
    pub steps: u64,
    /// Messages left in the network.
    pub undelivered: usize,
    /// Wall time of `SpmdMachine::run` alone.
    pub run_secs: f64,
    /// Reliable layer: frames retransmitted.
    pub retransmits: u64,
    /// Reliable layer: acknowledgements sent.
    pub acks: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Bytes snapshotted.
    pub checkpoint_bytes: u64,
    /// Crashes recovered from.
    pub crashes_survived: u64,
    /// Ops re-executed after restarts.
    pub replayed_ops: u64,
    /// Threaded fabric: parks, spin wake-ups, enqueue stalls (metrics on).
    pub waits: [u64; 3],
}

/// Lower, preload, run and gather `built` on `inputs` under the iPSC/2
/// cost model — the steps of `driver::execute_on`, one span each.
pub fn execute(
    built: &Built,
    inputs: &Inputs,
    cfg: RunCfg,
    rec: &mut Recorder,
) -> Result<Ran, String> {
    let mut m = rec
        .span("spmd.lower", |_| {
            SpmdMachine::new(&built.spmd, CostModel::ipsc2())
        })
        .map_err(|e| e.to_string())?;
    if cfg.backend == Backend::Threaded {
        m = m.with_backend(pdc_machine::Backend::threaded());
    }
    let ckpt = CheckpointCfg::every(CHECKPOINT_INTERVAL_OPS);
    m = match cfg.mode {
        Mode::Raw => m,
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
            FaultPlan::seeded(0).with_crash(ProcId(CRASH.0), CRASH.1),
            RelConfig::default(),
        ),
    };
    if cfg.metrics {
        m = m.with_metrics();
    }
    if cfg.trace {
        m = m.with_trace(1 << 22);
    }
    rec.span("spmd.preload", |_| -> Result<(), String> {
        for (name, v) in &inputs.scalars {
            m.preset_var(name, *v);
        }
        for (name, data) in &inputs.arrays {
            let dist = built
                .dists
                .get(name)
                .ok_or_else(|| format!("input array `{name}` has no distribution"))?;
            m.preload_array(name, dist.clone(), data);
        }
        Ok(())
    })?;
    let run_name = match cfg.backend {
        Backend::Simulated => "machine.sim.run",
        Backend::Threaded => "machine.threaded.run",
    };
    let t0 = Instant::now();
    let outcome = rec.span(run_name, |_| m.run()).map_err(|e| e.to_string())?;
    let run_secs = t0.elapsed().as_secs_f64();
    let grid = rec
        .span("spmd.gather", |_| m.gather("New"))
        .map_err(|e| e.to_string())?;
    let r: RunReport = outcome.report;
    let fault = r.fault.unwrap_or_default();
    let recovery = r.recovery.unwrap_or_default();
    Ok(Ran {
        grid,
        makespan: r.stats.makespan().0,
        messages: r.pair_messages.values().sum(),
        words: r.stats.network.words,
        steps: r.steps,
        undelivered: r.undelivered,
        run_secs,
        retransmits: fault.retransmits,
        acks: fault.acks_sent,
        checkpoints: recovery.checkpoints_taken,
        checkpoint_bytes: recovery.bytes_snapshotted,
        crashes_survived: recovery.crashes_survived,
        replayed_ops: recovery.replayed_ops,
        waits: [Ctr::Parks, Ctr::SpinWakes, Ctr::EnqueueStalls].map(|c| r.metrics.total(c)),
    })
}

/// Mean nanoseconds of one `DistInstance::owner` + `local` pair over every
/// cell of an `n × n` grid, for the column-cyclic and 2-d block
/// distributions on `s` processors.
pub fn owner_ns_per_call(n: usize, s: usize) -> f64 {
    let insts = [
        DistInstance::new(Dist::ColumnCyclic, n, n, s),
        DistInstance::new(
            Dist::Block2d {
                prows: 2,
                pcols: s / 2,
            },
            n,
            n,
            s,
        ),
    ];
    let t0 = Instant::now();
    for inst in &insts {
        for i in 1..=n as i64 {
            for j in 1..=n as i64 {
                std::hint::black_box((inst.owner(i, j), inst.local(i, j)));
            }
        }
    }
    t0.elapsed().as_secs_f64() * 1e9 / (2 * n * n) as f64
}

/// A VM-free process for timing the fabrics alone: every processor
/// streams `total` messages of `payload.len()` words to its right
/// neighbour, at most `window` ahead of what it has received from its
/// left one. `window = 1` on two processors is a ping-pong.
struct RingProcess {
    nprocs: usize,
    total: u64,
    window: u64,
    sent: u64,
    received: u64,
    payload: Vec<Word>,
    inbox: Vec<Word>,
}

const RING_TAG: Tag = Tag(1);

impl Process for RingProcess {
    fn step(&mut self, fabric: &mut dyn Fabric, me: ProcId) -> Result<Step, MachineError> {
        let right = ProcId((me.0 + 1) % self.nprocs);
        let left = ProcId((me.0 + self.nprocs - 1) % self.nprocs);
        // Processor 0 opens each round and the others answer, so a window
        // of one is a strict relay round the ring.
        let lead = self.window - u64::from(me.0 != 0);
        if self.sent < self.total && self.sent < self.received + lead {
            fabric.send_ref(me, right, RING_TAG, &self.payload);
            self.sent += 1;
            return Ok(Step::Ran);
        }
        if self.received < self.total {
            if fabric.try_recv_into(me, left, RING_TAG, &mut self.inbox) {
                self.received += 1;
                return Ok(Step::Ran);
            }
            return Ok(Step::BlockedOnRecv {
                src: left,
                tag: RING_TAG,
            });
        }
        if self.sent < self.total {
            fabric.send_ref(me, right, RING_TAG, &self.payload);
            self.sent += 1;
            return Ok(Step::Ran);
        }
        Ok(Step::Done)
    }
}

/// Wall seconds for `nprocs` [`RingProcess`]es to pass `total` messages
/// of `words` words each round the ring on `backend`, through
/// `Scheduler::run` or `ThreadedRunner::run`. Checks that every message
/// was counted and none is left.
pub fn ring_seconds(
    backend: Backend,
    nprocs: usize,
    total: u64,
    words: usize,
    window: u64,
) -> Result<f64, String> {
    let mut procs: Vec<RingProcess> = (0..nprocs)
        .map(|_| RingProcess {
            nprocs,
            total,
            window,
            sent: 0,
            received: 0,
            payload: vec![7; words],
            inbox: Vec::with_capacity(words),
        })
        .collect();
    let t0 = Instant::now();
    let report = match backend {
        Backend::Simulated => {
            let mut machine = Machine::new(nprocs, CostModel::ipsc2());
            let mut refs: Vec<&mut dyn Process> =
                procs.iter_mut().map(|p| p as &mut dyn Process).collect();
            Scheduler::new().run(&mut machine, &mut refs)
        }
        Backend::Threaded => ThreadedRunner::new(CostModel::ipsc2()).run(&mut procs),
    }
    .map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    let expected = total * nprocs as u64;
    if report.stats.network.messages != expected || report.undelivered != 0 {
        return Err(format!(
            "ring on {backend:?}: {} of {expected} messages, {} undelivered",
            report.stats.network.messages, report.undelivered
        ));
    }
    Ok(secs)
}
