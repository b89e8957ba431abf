//! The differential spine: every way of running a program computes what
//! the sequential program computes, and any two runs of one program agree
//! on everything the difference between them cannot change (DESIGN "The
//! differential spine").
//!
//! A [`Scenario`] is a source program compiled for a decomposition, with
//! its inputs; it compiles once and runs the sequential interpreter once.
//! [`run_spmd`] runs a program written directly in the SPMD IR. A run
//! sits at a [`Point`] built from [`Axis`] values, and
//! [`assert_observably_equal`] states once, per kind of pair, what two
//! runs must agree on. A new axis is one more [`Axis`] variant.
//!
//! One test target per equality, each opening with `mod differential;`:
//! `backend_equivalence` (simulator == threads), `fault_injection`
//! (damaged or crashed == clean), `protocol_batch_equivalence` (stepped ==
//! batched), `metrics` (predicted == ledger == metrics == trace),
//! `random_programs` (generated programs through every equality) and
//! `jacobi_distributions` (every compiled variant == the interpreter).
//! Fault seeds come from `PDC_FAULT_SEEDS` ([`pdc_testkit::fault::seeds`]).
//!
//! Each target uses part of the harness, and these imports are its
//! prelude.
#![allow(dead_code, unused_imports)]

pub use pdc_core::driver::{self, Compiled, Execution, Inputs, Job, Strategy};
pub use pdc_core::programs;
pub use pdc_istructure::IMatrix;
pub use pdc_lang::{value::Value, Program};
pub use pdc_machine::{
    Backend, CheckpointCfg, CostModel, Event, EventKind, Fabric, FaultPlan, Machine, MachineError,
    MetricsMode, ProcId, Process, RelConfig, RunConfig, RunReport, Scheduler, Step, Tag,
    ThreadedRunner, Time,
};
pub use pdc_mapping::{Decomposition, Dist, ScalarMap};
pub use pdc_opt::OptLevel;
pub use pdc_spmd::ir::{RecvTarget, SExpr, SStmt, SpmdProgram};
pub use pdc_spmd::{lower::lower, vm::ProcVm, Scalar, SpmdError};
pub use pdc_testkit::Rng;
use std::cell::OnceCell;
use std::fmt;
pub use std::sync::Arc;
pub use std::time::Duration;

/// One coordinate of a run; [`at`] places a run by a list of them. An
/// axis left out keeps the plain run's value: simulated, raw fabric,
/// batched, default quantum and step budget, nominal speed, unobserved,
/// rings sized by the machine.
#[derive(Clone, Debug)]
pub enum Axis {
    /// The backend that executes.
    On(Backend),
    /// Damage to the fabric and the processors. A plan that injects
    /// something puts the run under the reliable-delivery protocol.
    Faults(FaultPlan),
    /// The reliable-delivery protocol under this policy, damage or not.
    Reliable(RelConfig),
    /// Checkpoint/restart, on the protocol.
    Checkpoints(CheckpointCfg),
    /// Processes that offer only `step`: the loop acts after every
    /// instruction, as before the VM ran in batches.
    Stepped,
    /// Simulator steps per scheduling turn.
    Quantum(u64),
    /// Per-processor slowdown factors.
    Slowdowns(Vec<u64>),
    /// Every event traced and full metrics recorded.
    Observed,
    /// Threaded ring capacity in words.
    RingWords(usize),
    /// The runaway guard.
    StepBudget(u64),
}

/// Where a run sits on every axis.
#[derive(Clone, Debug, Default)]
pub struct Point {
    pub config: RunConfig,
    pub stepped: bool,
}

/// The plain run moved along `axes`.
pub fn at(axes: impl IntoIterator<Item = Axis>) -> Point {
    let mut point = Point::default();
    for axis in axes {
        let c = &mut point.config;
        match axis {
            Axis::On(backend) => c.backend = backend,
            Axis::Faults(plan) => c.faults = plan,
            Axis::Reliable(rel) => c.reliable = Some(rel),
            Axis::Checkpoints(ckpt) => c.checkpoints = Some(ckpt),
            Axis::Stepped => point.stepped = true,
            Axis::Quantum(quantum) => c.quantum = quantum,
            Axis::Slowdowns(slowdowns) => c.slowdowns = slowdowns,
            Axis::Observed => {
                c.trace_cap = Some(1 << 20);
                c.metrics = MetricsMode::Full;
            }
            Axis::RingWords(words) => c.ring_words = Some(words),
            Axis::StepBudget(budget) => c.step_budget = budget,
        }
    }
    point
}

/// OS threads with the default receive timeout.
pub fn threads() -> Axis {
    Axis::On(Backend::threaded())
}

/// Retransmit after 2 ms of wall clock instead of 20, so that lossy and
/// recovering runs on threads stay fast.
pub fn test_rel() -> RelConfig {
    RelConfig {
        rto_wall: Duration::from_millis(2),
        ..RelConfig::default()
    }
}

/// What one run said: its whole report, and what the program computed.
#[derive(Debug)]
pub struct Run {
    pub report: RunReport,
    /// A compiled scenario's output array `New`, gathered.
    pub gathered: Option<IMatrix<Scalar>>,
    /// Per processor: the watched variables, and its segment of `A`.
    pub procs: Vec<ProcState>,
}

/// One processor's watched variables, and its segment of `A`.
type ProcState = (Vec<Option<Scalar>>, Option<IMatrix<Scalar>>);

impl Run {
    pub fn read(
        report: RunReport,
        gathered: Option<IMatrix<Scalar>>,
        vms: &[&ProcVm],
        watch: &[impl AsRef<str>],
    ) -> Run {
        let procs = vms
            .iter()
            .map(|vm| {
                let vars = watch.iter().map(|v| vm.var(v.as_ref())).collect();
                (vars, vm.array("A").map(|a| a.local.clone()))
            })
            .collect();
        Run {
            report,
            gathered,
            procs,
        }
    }

    /// The trace, which must hold every event.
    pub fn events(&self) -> Vec<&Event> {
        let trace = &self.report.trace;
        assert_eq!(trace.dropped(), 0, "the trace cap holds every event");
        trace.events().collect()
    }
}

/// What two runs of one program may differ in: everything else, they
/// must agree on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Ignoring {
    /// Nothing (stepped vs batched; a simulator run vs its replay).
    Nothing,
    /// The host's interleaving of the processors (simulator vs threads,
    /// one quantum vs another): steps taken, the merged order of the
    /// trace, physical metrics, protocol tallies.
    Schedule,
    /// Damage and its repair (a faulty or crashed run vs a clean one, or
    /// two faulty runs on different backends): everything but what the
    /// program computed and the messages it sent.
    Damage,
}

/// The one statement of the spine's equalities.
pub fn assert_observably_equal(a: &Run, b: &Run, ignoring: Ignoring, label: &str) {
    let (ra, rb) = (&a.report, &b.report);
    assert_eq!(a.gathered, b.gathered, "{label}: gathered output");
    assert_eq!(a.procs, b.procs, "{label}: variables and segments");
    assert_eq!(
        ra.pair_messages, rb.pair_messages,
        "{label}: per-(src, dst, tag) messages"
    );
    assert_eq!(ra.undelivered, rb.undelivered, "{label}: undelivered");
    if ignoring == Ignoring::Damage {
        return;
    }
    assert_eq!(ra.pending, rb.pending, "{label}: pending triples");
    // The makespan is the largest clock.
    assert_eq!(ra.stats.clocks, rb.stats.clocks, "{label}: clocks");
    let net = |r: &RunReport| (r.stats.network.messages, r.stats.network.words);
    assert_eq!(net(ra), net(rb), "{label}: network totals");
    assert_eq!(
        ra.metrics.logical(),
        rb.metrics.logical(),
        "{label}: logical metrics"
    );
    assert_eq!(
        ra.stats.procs, rb.stats.procs,
        "{label}: per-processor counters"
    );
    assert_eq!(by_proc(a), by_proc(b), "{label}: each processor's events");
    if ignoring == Ignoring::Schedule {
        return;
    }
    // The small parts first: a whole-report diff is unreadable.
    assert_eq!(ra.stats, rb.stats, "{label}: stats");
    assert_eq!(ra.steps, rb.steps, "{label}: steps");
    assert_eq!(ra.fault, rb.fault, "{label}: fault report");
    assert_eq!(ra.recovery, rb.recovery, "{label}: recovery report");
    assert_eq!(a.events(), b.events(), "{label}: trace");
    assert_eq!(ra.metrics, rb.metrics, "{label}: metrics");
}

/// Each processor's events, in its own order.
fn by_proc(run: &Run) -> Vec<Vec<(Time, &EventKind)>> {
    let mut events = vec![Vec::new(); run.procs.len()];
    for e in run.events() {
        events[e.proc.0].push((e.at, &e.kind));
    }
    events
}

/// A VM that offers only `step`: both batch entry points fall back to
/// the provided batch of one ([`Axis::Stepped`]).
struct Stepped(ProcVm);

impl Process for Stepped {
    fn step(&mut self, fabric: &mut dyn Fabric, me: ProcId) -> Result<Step, MachineError> {
        self.0.step(fabric, me)
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        self.0.snapshot()
    }

    fn restore(&mut self, state: &[u8]) -> bool {
        self.0.restore(state)
    }
}

/// Run one process per processor on `point`'s backend.
fn drive<P: Process + Send>(procs: &mut [P], point: &Point) -> Result<RunReport, MachineError> {
    let (cost, config) = (CostModel::ipsc2(), &point.config);
    match config.backend {
        Backend::Simulated => {
            let mut machine = Machine::new(procs.len(), cost);
            let mut refs: Vec<&mut dyn Process> = procs.iter_mut().map(|p| p as _).collect();
            Scheduler::with_config(config).run(&mut machine, &mut refs)
        }
        Backend::Threaded { .. } => ThreadedRunner::with_config(cost, config).run(procs),
    }
}

/// Run an SPMD program at `point`, reading back the variables `watch`.
pub fn run_spmd(prog: &SpmdProgram, point: &Point, watch: &[&str]) -> Result<Run, MachineError> {
    let code = |p| Arc::new(lower(prog.body(p)).expect("lowers"));
    let mut vms: Vec<ProcVm> = (0..prog.n_procs())
        .map(|p| ProcVm::new(code(p), &CostModel::ipsc2()))
        .collect();
    let report = if point.stepped {
        let mut stepped: Vec<Stepped> = vms.into_iter().map(Stepped).collect();
        let report = drive(&mut stepped, point);
        vms = stepped.into_iter().map(|s| s.0).collect();
        report
    } else {
        drive(&mut vms, point)
    };
    let vms: Vec<&ProcVm> = vms.iter().collect();
    Ok(Run::read(report?, None, &vms, watch))
}

/// `send values to to on tag`, in the SPMD IR.
pub fn send(to: SExpr, tag: u32, values: Vec<SExpr>) -> SStmt {
    SStmt::Send { to, tag, values }
}

/// `receive from from on tag into vars`, in the SPMD IR.
pub fn recv(from: SExpr, tag: u32, vars: &[&str]) -> SStmt {
    let into = vars
        .iter()
        .map(|v| RecvTarget::Var(v.to_string()))
        .collect();
    SStmt::Recv { from, tag, into }
}

/// A source program compiled for a decomposition, with its inputs: the
/// grid `Old` (its side is the constant `n`) when it has one.
pub struct Scenario {
    name: String,
    program: Program,
    entry: &'static str,
    decomp: Decomposition,
    grid: Option<IMatrix<Scalar>>,
    pub strategy: Strategy,
    opt: Option<OptLevel>,
    tuned: bool,
    watch: Vec<String>,
    compiled: OnceCell<Compiled>,
    oracle: OnceCell<Value>,
}

impl Scenario {
    /// `entry` of `program` under `decomp`, compiled by run-time
    /// resolution.
    pub fn new(
        name: impl Into<String>,
        program: Program,
        entry: &'static str,
        decomp: Decomposition,
    ) -> Self {
        Scenario {
            name: name.into(),
            program,
            entry,
            decomp,
            grid: None,
            strategy: Strategy::Runtime,
            opt: None,
            tuned: false,
            watch: Vec::new(),
            compiled: OnceCell::new(),
            oracle: OnceCell::new(),
        }
    }

    /// Jacobi with both arrays under `dist` on `s` processors, n = 8.
    pub fn jacobi(dist: Dist, s: usize) -> Self {
        let decomp = Decomposition::new(s)
            .array("New", dist.clone())
            .array("Old", dist.clone());
        Scenario::new(
            format!("jacobi/{dist}/p{s}"),
            programs::jacobi(),
            "jacobi",
            decomp,
        )
        .n(8)
    }

    /// The Gauss–Seidel wavefront, column-cyclic on `s` processors, n = 8.
    pub fn wavefront(s: usize) -> Self {
        let decomp = programs::wavefront_decomposition(s);
        Scenario::new(
            format!("wavefront/p{s}"),
            programs::gauss_seidel(),
            "gs_iteration",
            decomp,
        )
        .n(8)
    }

    /// On the standard `n × n` input.
    pub fn n(self, n: usize) -> Self {
        self.grid(driver::standard_input(n, n))
    }

    pub fn grid(mut self, grid: IMatrix<Scalar>) -> Self {
        self.grid = Some(grid);
        self
    }

    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    pub fn opt(mut self, level: OptLevel) -> Self {
        self.opt = Some(level);
        self
    }

    /// With the decomposition the tuner picks.
    pub fn tuned(mut self) -> Self {
        self.tuned = true;
        self
    }

    /// Read these variables back from every processor.
    pub fn watch(mut self, vars: Vec<String>) -> Self {
        self.watch = vars;
        self
    }

    pub fn job(&self) -> Job<'_> {
        let mut job = Job::new(&self.program, self.entry, self.decomp.clone());
        if let Some(grid) = &self.grid {
            job = job.with_const("n", grid.rows() as i64);
            job.extent_overrides
                .insert("Old".into(), (grid.rows(), grid.cols()));
        }
        if let Some(level) = self.opt {
            job = job.with_opt_level(level);
        }
        if self.tuned {
            job = job.with_auto_decomposition();
        }
        job
    }

    pub fn compiled(&self) -> &Compiled {
        self.compiled.get_or_init(|| {
            driver::compile(&self.job(), self.strategy).unwrap_or_else(|e| panic!("{self}: {e}"))
        })
    }

    pub fn inputs(&self) -> Inputs {
        match &self.grid {
            Some(grid) => Inputs::new()
                .scalar("n", Scalar::Int(grid.rows() as i64))
                .array("Old", grid.clone()),
            None => Inputs::new(),
        }
    }

    /// What the sequential interpreter computes.
    pub fn oracle(&self) -> &Value {
        self.oracle.get_or_init(|| {
            driver::run_sequential(&self.program, self.entry, &self.inputs()).expect("sequential")
        })
    }

    /// Run `spmd` — the compiled program, or another translation of the
    /// same source — on the scenario's inputs at `point`.
    pub fn execute_with(&self, spmd: &SpmdProgram, point: &Point) -> Result<Execution, SpmdError> {
        assert!(
            !point.stepped,
            "stepped runs take an SPMD program (run_spmd)"
        );
        let mut compiled = self.compiled().clone();
        compiled.spmd = spmd.clone();
        compiled.run = point.config.clone();
        driver::execute(&compiled, &self.inputs(), CostModel::ipsc2())
    }

    pub fn execute(&self, point: &Point) -> Result<Execution, SpmdError> {
        self.execute_with(&self.compiled().spmd, point)
    }

    pub fn try_run(&self, point: &Point) -> Result<Run, SpmdError> {
        self.execute(point).map(|exec| self.read(exec))
    }

    pub fn run(&self, point: &Point) -> Run {
        self.run_with(&self.compiled().spmd, point)
    }

    pub fn run_with(&self, spmd: &SpmdProgram, point: &Point) -> Run {
        let exec = self.execute_with(spmd, point);
        self.read(exec.unwrap_or_else(|e| panic!("{self} at {point:?}: {e}")))
    }

    fn read(&self, exec: Execution) -> Run {
        let Execution {
            outcome,
            machine,
            n_procs,
            ..
        } = exec;
        let gathered = self
            .grid
            .as_ref()
            .map(|_| machine.gather("New").expect("gathers"));
        let vms: Vec<&ProcVm> = (0..n_procs).map(|p| machine.vm(p)).collect();
        Run::read(outcome.report, gathered, &vms, &self.watch)
    }

    /// The run computed the sequential result and delivered everything.
    pub fn assert_correct(&self, run: &Run) {
        assert_eq!(run.report.undelivered, 0, "{self}: undelivered");
        assert_eq!(run.report.pending, vec![], "{self}: pending triples");
        if let Some(gathered) = &run.gathered {
            let mismatch = driver::first_mismatch(gathered, self.oracle());
            assert_eq!(
                mismatch, None,
                "{self}: output differs from the sequential program"
            );
        }
    }

    /// Run on the simulator and on threads at `point` (its threaded
    /// backend, if it names one): both correct, and equal up to
    /// `ignoring`.
    pub fn on_both(&self, point: &Point, ignoring: Ignoring) -> (Run, Run) {
        let threaded = match point.config.backend {
            Backend::Simulated => Backend::threaded(),
            threaded => threaded,
        };
        let [sim, thr] = [Backend::Simulated, threaded].map(|backend| {
            let mut point = point.clone();
            point.config.backend = backend;
            let run = self.run(&point);
            self.assert_correct(&run);
            run
        });
        assert_observably_equal(&sim, &thr, ignoring, &format!("{self} at {point:?}"));
        (sim, thr)
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Scenario {
            name,
            strategy,
            opt,
            tuned,
            ..
        } = self;
        let n = self.grid.as_ref().map_or(0, IMatrix::rows);
        write!(f, "{name} ({strategy:?}, {opt:?}, n = {n}, tuned: {tuned})")
    }
}

/// The paper's kernels at n = 8 on one to eight processors: Jacobi
/// column-cyclic and on a 2 × 2 grid, the wavefront, and the heat sweep
/// (the wavefront from a grid with hot edges).
pub fn paper_workloads(strategy: Strategy) -> Vec<Scenario> {
    let mut out: Vec<Scenario> = [1, 3, 8]
        .map(|s| Scenario::jacobi(Dist::ColumnCyclic, s))
        .into();
    out.extend([2, 4].map(Scenario::wavefront));
    out.push(Scenario::jacobi(Dist::Block2d { prows: 2, pcols: 2 }, 4));
    let mut heat = Scenario::wavefront(4).grid(hot_edge_grid(8));
    heat.name = "heat/hot-edge-sweep/p4".into();
    out.extend([heat, Scenario::jacobi(Dist::ColumnCyclic, 4)]);
    out.into_iter().map(|sc| sc.strategy(strategy)).collect()
}

/// The workload of [`paper_workloads`] called `name`.
pub fn paper_workload(name: &str, strategy: Strategy) -> Scenario {
    let mut all = paper_workloads(strategy).into_iter();
    all.find(|sc| sc.name == name).expect("a paper workload")
}

/// Hot edges, cold interior: the heat equation's starting grid.
fn hot_edge_grid(n: usize) -> IMatrix<Scalar> {
    let mut grid = IMatrix::new(n, n);
    for i in 1..=n as i64 {
        for j in 1..=n as i64 {
            let edge = i == 1 || j == 1 || i == n as i64 || j == n as i64;
            grid.write(i, j, Scalar::Int(if edge { 1000 } else { 0 }))
                .expect("fresh matrix");
        }
    }
    grid
}

/// The five Fig. 6/7 translations of the wavefront on `s` processors.
pub fn fig67(n: usize, s: usize) -> Vec<Scenario> {
    let ct = || Scenario::wavefront(s).n(n).strategy(Strategy::CompileTime);
    vec![
        Scenario::wavefront(s).n(n),
        ct().opt(OptLevel::O0),
        ct().opt(OptLevel::O1),
        ct().opt(OptLevel::O2),
        ct().opt(OptLevel::O3 { blksize: 4 }),
    ]
}

/// A random distribution from the block, cyclic, block-cyclic and 2-D
/// grid families the paper's introduction motivates, for `nprocs`.
pub fn random_dist(rng: &mut Rng, nprocs: usize) -> Dist {
    match rng.range_usize(0, 7) {
        0 => Dist::ColumnCyclic,
        1 => Dist::RowCyclic,
        2 => Dist::ColumnBlock,
        3 => Dist::RowBlock,
        4 => Dist::ColumnBlockCyclic {
            block: rng.range_usize(1, 4),
        },
        5 => Dist::RowBlockCyclic {
            block: rng.range_usize(1, 4),
        },
        _ => {
            // A 2-D grid needs prows * pcols == nprocs; pick a divisor.
            let divisors: Vec<usize> = (1..=nprocs).filter(|d| nprocs.is_multiple_of(*d)).collect();
            let prows = divisors[rng.range_usize(0, divisors.len())];
            Dist::Block2d {
                prows,
                pcols: nprocs / prows,
            }
        }
    }
}

/// A random straight-line scalar program: `let x0 = 3; let x1 = 10;`,
/// then 1–11 statements each combining two earlier variables (sum,
/// difference, min, max or `2a + k`), each pinned to a random one of
/// `owners` processors or replicated. Returns the source, every
/// variable's value computed directly, and each variable's mapping
/// (`None` for replicated) before it is taken modulo the machine size.
pub fn random_scalar_program(
    rng: &mut Rng,
    owners: usize,
) -> (Program, String, Vec<i64>, Vec<Option<usize>>) {
    let mut src = String::from("procedure main() {\n    let x0 = 3;\n    let x1 = 10;\n");
    let (mut values, mut maps) = (vec![3, 10], vec![None, None]);
    for idx in 2..rng.range_usize(1, 12) + 2 {
        let (a, b) = (rng.range_usize(0, 8) % idx, rng.range_usize(0, 8) % idx);
        let (op, k) = (rng.range_usize(0, 5), rng.range_i64(-50, 50));
        let (expr, val) = match op {
            0 => (format!("x{a} + x{b}"), values[a] + values[b]),
            1 => (format!("x{a} - x{b}"), values[a] - values[b]),
            2 => (format!("min(x{a}, x{b})"), values[a].min(values[b])),
            3 => (format!("max(x{a}, x{b})"), values[a].max(values[b])),
            _ => (format!("2 * x{a} + {k}"), 2 * values[a] + k),
        };
        src.push_str(&format!("    let x{idx} = {expr};\n"));
        values.push(val);
        maps.push(rng.bool().then(|| rng.range_usize(0, owners)));
    }
    src.push_str(&format!("    return x{};\n}}\n", values.len() - 1));
    let program = pdc_lang::parse(&src).expect("generated source parses");
    (program, src, values, maps)
}

/// The random scalar program on `nprocs` processors, as a scenario that
/// reads every variable back.
pub fn scalar_scenario(
    program: Program,
    maps: &[Option<usize>],
    nprocs: usize,
    strategy: Strategy,
) -> Scenario {
    let mut d = Decomposition::new(nprocs);
    for (i, map) in maps.iter().enumerate() {
        if let Some(p) = map {
            d = d.scalar(format!("x{i}"), ScalarMap::On(p % nprocs));
        }
    }
    let watch = (0..maps.len()).map(|i| format!("x{i}")).collect();
    Scenario::new("scalar", program, "main", d)
        .strategy(strategy)
        .watch(watch)
}

/// A random straight-line communication pattern over 2–4 processors:
/// point-to-point messages with uniquely tagged sends and receives
/// spliced into each endpoint's statement list at random positions.
/// Random placement makes receives frequently precede the sends that
/// would unblock their peer, so the family naturally contains both
/// deadlock-free programs and genuine deadlock cycles; on top of that a
/// message sometimes loses its receive (orphan) and a processor
/// sometimes gains a receive nothing ever sends (starvation). Message
/// `m` lands in `v{m}`, a starved receive in `w{m}`.
pub fn random_comm_program(rng: &mut Rng) -> SpmdProgram {
    let nprocs = rng.range_usize(2, 5);
    // A processor other than `p`: a uniform draw, moved off `p`.
    let peer = |rng: &mut Rng, p: usize| match rng.range_usize(0, nprocs) {
        q if q == p => (q + 1) % nprocs,
        q => q,
    };
    let mut bodies: Vec<Vec<SStmt>> = vec![Vec::new(); nprocs];
    for m in 0..rng.range_usize(1, 8) {
        let src = rng.range_usize(0, nprocs);
        let dst = peer(rng, src);
        let tag = 10 + m as u32;
        let at = rng.range_usize(0, bodies[src].len() + 1);
        let to = SExpr::int(dst as i64);
        bodies[src].insert(at, send(to, tag, vec![SExpr::int(m as i64)]));
        if rng.range_usize(0, 10) > 0 {
            let at = rng.range_usize(0, bodies[dst].len() + 1);
            bodies[dst].insert(at, recv(SExpr::int(src as i64), tag, &[&format!("v{m}")]));
        }
        if rng.range_usize(0, 10) == 0 {
            let p = rng.range_usize(0, nprocs);
            let q = SExpr::int(peer(rng, p) as i64);
            let at = rng.range_usize(0, bodies[p].len() + 1);
            bodies[p].insert(at, recv(q, 100 + m as u32, &[&format!("w{m}")]));
        }
    }
    SpmdProgram::new(bodies)
}
