//! End-to-end pipeline: compile → distribute inputs → simulate → gather →
//! (optionally) check against the sequential interpreter.

use crate::analysis::{Analysis, EvalOwner};
use crate::compile_time;
use crate::inline::{inline_program, Inlined, ParamMapMode, ParamMaps};
use crate::runtime_res;
use crate::CoreError;
use pdc_analyze::{AnalysisReport, Analyzer};
use pdc_istructure::IMatrix;
use pdc_lang::ast::{Block, Stmt};
use pdc_lang::interp::Interpreter;
use pdc_lang::value::Value;
use pdc_lang::Program;
use pdc_machine::{Backend, CostModel, ProcId, RunConfig, Tag};
use pdc_mapping::{Decomposition, DistInstance};
use pdc_opt::{optimize_with_remarks, OptLevel, OptReport};
use pdc_report::interp::{self, Events, Tee};
use pdc_report::{CostSink, Phase, Prediction, Remark, RemarkKind, RemarkSink};
use pdc_spmd::ir::SpmdProgram;
use pdc_spmd::run::{RunOutcome, SpmdMachine};
use pdc_spmd::{Scalar, SpmdError};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Which code generator to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// §3.1: one generic guarded program on every processor.
    Runtime,
    /// §3.2: per-processor specialization with solved loop bounds.
    CompileTime,
}

/// A compilation job: the program plus everything the compiler needs to
/// know about the target configuration.
#[derive(Debug, Clone)]
pub struct Job<'a> {
    /// The source program.
    pub program: &'a Program,
    /// Entry procedure name.
    pub entry: &'a str,
    /// The domain decomposition (includes the machine size).
    pub decomp: Decomposition,
    /// Declared parameter mappings for procedures (§5.1).
    pub param_maps: ParamMaps,
    /// Mapping-polymorphism mode (§5.1).
    pub mode: ParamMapMode,
    /// Compile-time-known scalar parameters (e.g. `n = 128`), used to
    /// fold allocation extents for the block distribution families.
    pub const_params: HashMap<String, i64>,
    /// Explicit extents for input arrays (alternative to `const_params`).
    pub extent_overrides: HashMap<String, (usize, usize)>,
    /// How [`execute`] runs the compiled program: backend, fault plan,
    /// reliable-delivery and checkpoint policies, tracing, metrics (see
    /// [`RunConfig`] and DESIGN §5b "Run configuration"). The default is
    /// a fault-free, unobserved run on the simulator. Compilation does
    /// not read it.
    pub run: RunConfig,
    /// Optimization level for the generated code; `None` (the default)
    /// leaves the resolver output untouched (equivalent to
    /// [`OptLevel::O0`] but skips the pipeline entirely).
    pub opt_level: Option<OptLevel>,
    /// Run the static communication-safety analyzer (`pdc-analyze`) over
    /// the final code. `None` (the default) enables it at O1 and above;
    /// `Some(false)` disables it, `Some(true)` forces it on. When the
    /// analysis is exact and finds errors, [`compile`] returns
    /// [`CoreError::StaticAnalysis`] instead of letting the program
    /// deadlock or fault at run time.
    pub verify_static: Option<bool>,
    /// Search for the decomposition automatically instead of trusting
    /// [`Job::decomp`] verbatim. When set, [`compile`] enumerates the
    /// candidate space around the seed decomposition ([`Job::decomp`]
    /// supplies the machine size, the arrays to distribute, and the
    /// scalars whose placement is swept), scores every candidate with
    /// the exact static cost and makespan models under this
    /// [`CostModel`], and compiles the winner. The search is recorded as
    /// [`Phase::Tune`] remarks and in [`Compiled::tune`].
    pub auto_decomposition: Option<CostModel>,
}

impl<'a> Job<'a> {
    /// A job with default options.
    pub fn new(program: &'a Program, entry: &'a str, decomp: Decomposition) -> Self {
        Job {
            program,
            entry,
            decomp,
            param_maps: ParamMaps::new(),
            mode: ParamMapMode::Monomorphic,
            const_params: HashMap::new(),
            extent_overrides: HashMap::new(),
            run: RunConfig::default(),
            opt_level: None,
            verify_static: None,
            auto_decomposition: None,
        }
    }

    /// Record a compile-time-known scalar parameter.
    pub fn with_const(mut self, name: impl Into<String>, value: i64) -> Self {
        self.const_params.insert(name.into(), value);
        self
    }

    /// Set how [`execute`] runs the compiled program.
    pub fn with_run(mut self, run: RunConfig) -> Self {
        self.run = run;
        self
    }

    /// Run the §4 optimization pipeline on the generated code at the
    /// given level (the paper's Optimized I/II/III variants).
    pub fn with_opt_level(mut self, level: OptLevel) -> Self {
        self.opt_level = Some(level);
        self
    }

    /// Force the static communication-safety analyzer on or off
    /// (defaults to on at O1 and above). See [`Job::verify_static`].
    pub fn with_verify_static(mut self, enabled: bool) -> Self {
        self.verify_static = Some(enabled);
        self
    }

    /// Search for the best decomposition automatically under the iPSC/2
    /// cost model instead of compiling [`Job::decomp`] verbatim. See
    /// [`Job::auto_decomposition`].
    pub fn with_auto_decomposition(self) -> Self {
        self.with_auto_decomposition_under(CostModel::ipsc2())
    }

    /// Like [`Job::with_auto_decomposition`], scoring candidates under
    /// an explicit machine cost model.
    pub fn with_auto_decomposition_under(mut self, cost: CostModel) -> Self {
        self.auto_decomposition = Some(cost);
        self
    }
}

/// A compiled program bundled with the analysis that produced it (needed
/// later to distribute inputs consistently).
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The per-processor target program.
    pub spmd: SpmdProgram,
    /// The mapping analysis.
    pub analysis: Analysis,
    /// The inlined source (kept for diagnostics and tests).
    pub inlined: Inlined,
    /// The run configuration the job requested (used by [`execute`]).
    pub run: RunConfig,
    /// The full remark stream, in pipeline order: analysis, resolution,
    /// optimization passes, cost model.
    pub remarks: Vec<Remark>,
    /// What the optimization pipeline did (all-zero when the job set no
    /// [`Job::with_opt_level`]).
    pub opt_report: OptReport,
    /// Static per-channel message-cost prediction for the *final* code
    /// (after optimization). Verified against observation by
    /// [`Execution::verify_predictions`].
    pub prediction: Prediction,
    /// Static communication-safety analysis of the final code (`None`
    /// when the job disabled it or the default left it off below O1).
    /// When present and [`verified`](AnalysisReport::verified), the
    /// program provably cannot deadlock, orphan messages, or double-write
    /// an I-structure element for this problem size.
    pub verification: Option<AnalysisReport>,
    /// Source span of each assignment statement, keyed by statement id
    /// (`sid = tag / TAG_STRIDE`). Used to resolve IR-level remarks and
    /// trace tags back to source.
    pub stmt_spans: BTreeMap<u32, pdc_lang::Span>,
    /// The decomposition search, when the job asked for
    /// [`Job::with_auto_decomposition`]: every candidate with its exact
    /// score or rejection reason, and the winner this compilation used.
    pub tune: Option<pdc_tune::TuneResult>,
}

impl Compiled {
    /// The remark stream rendered as human-readable text.
    pub fn remarks_text(&self) -> String {
        pdc_report::render_text(&self.remarks)
    }

    /// Resolve a communication tag back to the source span of the
    /// assignment it implements (`sid = tag / TAG_STRIDE`). Used to
    /// anchor analyzer diagnostics and trace events to source.
    pub fn resolve_tag_span(&self, tag: u32) -> Option<pdc_lang::Span> {
        self.stmt_spans
            .get(&(tag / compile_time::TAG_STRIDE))
            .copied()
    }

    /// The static environment (scalar constants and preloaded-array
    /// instances) the cost model and analyzer interpreted this program
    /// under — for re-running either over a mutated copy in tests.
    pub fn static_env(
        &self,
        const_params: &HashMap<String, i64>,
    ) -> (BTreeMap<String, i64>, BTreeMap<String, DistInstance>) {
        static_env(&self.analysis, const_params)
    }

    /// The source span of the first write to `array` in the inlined
    /// program — the anchor for double-write diagnostics, whose IR
    /// statements carry no communication tags.
    pub fn resolve_array_span(&self, array: &str) -> Option<pdc_lang::Span> {
        array_write_span(&self.inlined.body, array)
    }

    /// The remark stream as deterministic JSON.
    pub fn remarks_json(&self) -> String {
        pdc_report::remarks_json(&self.remarks)
    }
}

/// Compile `job`: inline, analyze, generate, optimize, then run the
/// static models over the final code.
///
/// # Errors
///
/// Any [`CoreError`] from inlining, analysis, or code generation, and
/// [`CoreError::StaticAnalysis`] when the safety analyzer proves the
/// generated code faulty.
pub fn compile(job: &Job<'_>, strategy: Strategy) -> Result<Compiled, CoreError> {
    if job.auto_decomposition.is_some() {
        return compile_auto(job, strategy);
    }
    back_half(front_half(job, strategy)?, job, &mut ())
}

/// The final code of one compile, before any static model has looked at
/// it — all a tuner candidate needs, since the search scores the code
/// itself.
struct Front {
    inlined: Inlined,
    analysis: Analysis,
    spmd: SpmdProgram,
    stmt_spans: BTreeMap<u32, pdc_lang::Span>,
    opt_report: OptReport,
    /// Analysis, dependence, resolution and optimization remarks, spans
    /// resolved.
    remarks: Vec<Remark>,
}

/// The front half of the pipeline: inline, analyze, generate, optimize.
/// Walks nothing.
fn front_half(job: &Job<'_>, strategy: Strategy) -> Result<Front, CoreError> {
    let inlined = inline_program(
        job.program,
        job.entry,
        &job.decomp,
        &job.param_maps,
        job.mode,
    )?;
    let analysis = Analysis::build(
        &inlined,
        &job.decomp,
        &job.const_params,
        &job.extent_overrides,
    )?;
    let mut sink = RemarkSink::new();
    emit_analysis_remarks(&inlined.body, &analysis, &mut sink);
    let denv: BTreeMap<String, i64> = job
        .const_params
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    for r in pdc_analyze::depend_remarks(&inlined.body, &job.decomp, &denv) {
        sink.emit(r);
    }
    let (spmd, stmt_spans) = match strategy {
        Strategy::Runtime => runtime_res::compile_with_remarks(&inlined, &analysis, &mut sink)?,
        Strategy::CompileTime => {
            compile_time::compile_with_remarks(&inlined, &analysis, &mut sink)?
        }
    };
    let (spmd, opt_report) = match job.opt_level {
        Some(level) => optimize_with_remarks(&spmd, level, &mut sink),
        None => (spmd, OptReport::default()),
    };
    let mut remarks = sink.into_remarks();
    // Optimization passes run on the SPMD IR, which carries no spans;
    // their remarks name the communication tag instead. Statement ids are
    // processor-independent, so `tag / TAG_STRIDE` resolves the source
    // statement.
    for r in &mut remarks {
        if r.span.is_none() {
            if let Some(tag) = r.tag {
                if let Some(span) = stmt_spans.get(&(tag / compile_time::TAG_STRIDE)) {
                    r.span = Some(*span);
                }
            }
        }
    }
    Ok(Front {
        inlined,
        analysis,
        spmd,
        stmt_spans,
        opt_report,
        remarks,
    })
}

/// The back half: the static models over the final code — the cost
/// model always, the safety analyzer when the job verifies — as sinks of
/// **one** abstract walk. `tap` rides on that walk too (`()` in
/// production; the unit tests count processor walks with it), so every
/// walk this function makes must include it.
fn back_half<T: Events>(front: Front, job: &Job<'_>, tap: &mut T) -> Result<Compiled, CoreError> {
    let Front {
        inlined,
        analysis,
        spmd,
        stmt_spans,
        opt_report,
        mut remarks,
    } = front;
    let verify = job
        .verify_static
        .unwrap_or(!matches!(job.opt_level, None | Some(OptLevel::O0)));
    let (env, arrays) = static_env(&analysis, &job.const_params);
    let resolved = interp::resolve(&spmd, &env, &arrays);
    let mut cost = CostSink::new(resolved.n_procs());
    let mut analyzer = verify.then(|| Analyzer::new(&resolved));
    match &mut analyzer {
        Some(analyzer) => resolved.walk(&mut Tee {
            a: tap,
            b: &mut Tee {
                a: &mut cost,
                b: analyzer,
            },
        }),
        None => resolved.walk(&mut Tee {
            a: tap,
            b: &mut cost,
        }),
    }
    let prediction = cost.finish();
    cost_remarks(&prediction, &mut remarks);
    let verification = match analyzer {
        Some(analyzer) => {
            let report = analyzer.finish();
            for mut r in report.remarks() {
                // Tag-carrying findings resolve spans like optimizer
                // remarks; double writes carry the array instead — anchor
                // them to the first source write of that array.
                if r.span.is_none() {
                    if let Some(tag) = r.tag {
                        r.span = stmt_spans.get(&(tag / compile_time::TAG_STRIDE)).copied();
                    }
                }
                remarks.push(r);
            }
            for d in &report.diagnostics {
                if let (None, Some(array)) = (d.tag, &d.array) {
                    if let Some(span) = array_write_span(&inlined.body, array) {
                        if let Some(r) = remarks.iter_mut().rev().find(|r| {
                            r.phase == Phase::Analyze && r.span.is_none() && r.message == d.message
                        }) {
                            r.span = Some(span);
                        }
                    }
                }
            }
            if report.exact && report.has_errors() {
                return Err(CoreError::StaticAnalysis {
                    diagnostics: report.errors().cloned().collect(),
                });
            }
            Some(report)
        }
        None => None,
    };
    Ok(Compiled {
        spmd,
        analysis,
        inlined,
        run: job.run.clone(),
        remarks,
        opt_report,
        prediction,
        verification,
        stmt_spans,
        tune: None,
    })
}

/// Run the automatic decomposition search ([`Job::auto_decomposition`])
/// and compile the winner.
///
/// Candidates are compiled through the front half only and scored by
/// [`pdc_tune::search`], whose single walk per candidate yields both the
/// message counts and the makespan; the winning
/// decomposition and optimization level are then compiled under the
/// job's own settings. The whole search is appended to the remark
/// stream as [`Phase::Tune`]: one `applied` remark for the selection,
/// one `missed` remark per losing candidate with its exact score or
/// rejection reason — deterministic, so the remark JSON is byte-stable
/// across runs.
fn compile_auto(job: &Job<'_>, strategy: Strategy) -> Result<Compiled, CoreError> {
    let cost = job
        .auto_decomposition
        .expect("compile_auto requires auto_decomposition");
    let space = pdc_tune::SearchSpace::from_seed(&job.decomp, job.opt_level);
    let candidates = pdc_tune::enumerate(&space);
    let searched = candidates.len();
    // Source-level legality pre-filter: when the exact dependence
    // analysis cannot prove the source nests (non-affine subscripts,
    // unresolved bounds), every optimization pass will refuse to fire,
    // so candidates that turn the optimizer on cannot beat their O0
    // twin — reject them before compiling and costing, with the
    // analysis's own reason as the rejection witness.
    let denv: BTreeMap<String, i64> = job
        .const_params
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    let dep_inexact: Option<String> =
        pdc_depend::ast::nests(job.program)
            .into_iter()
            .find_map(|(proc, nest)| {
                let info = pdc_depend::ast::analyze_for_env(nest, &denv);
                (!info.exact).then(|| {
                    let why = info
                        .notes
                        .first()
                        .cloned()
                        .unwrap_or_else(|| "subscripts or bounds are not affine".into());
                    format!("procedure `{proc}`: {why}")
                })
            });
    let result = pdc_tune::search(candidates, &cost, |cand| {
        if !matches!(cand.opt_level, None | Some(OptLevel::O0)) {
            if let Some(why) = &dep_inexact {
                return Err(format!("illegal: dependence analysis inexact: {why}"));
            }
        }
        candidate_program(job, strategy, cand)
    })
    .map_err(|e| CoreError::Tune {
        message: e.to_string(),
    })?;

    let winner = result.winner();
    let mut fjob = job.clone();
    fjob.auto_decomposition = None;
    fjob.decomp = winner.candidate.decomp.clone();
    fjob.opt_level = winner.candidate.opt_level;
    let mut compiled = compile(&fjob, strategy)?;

    let score = result.winner_score();
    compiled.remarks.push(
        Remark::new(
            Phase::Tune,
            RemarkKind::Applied,
            format!("selected decomposition `{}`", winner.candidate.label),
        )
        .detail("candidates", searched)
        .detail("viable", result.viable())
        .detail("makespan", score.makespan)
        .detail("messages", score.messages)
        .detail("words", score.words),
    );
    for (i, e) in result.evaluated.iter().enumerate() {
        if i == result.winner {
            continue;
        }
        let r = Remark::new(
            Phase::Tune,
            RemarkKind::Missed,
            format!("candidate `{}`", e.candidate.label),
        );
        compiled.remarks.push(match &e.outcome {
            Ok(s) => r
                .detail("makespan", s.makespan)
                .detail("messages", s.messages)
                .detail("words", s.words),
            Err(reason) => r.detail("rejected", reason),
        });
    }
    compiled.tune = Some(result);
    Ok(compiled)
}

/// One candidate of the decomposition search, compiled as far as the
/// search needs: the final code and its static environment. No model
/// runs here — exactness pruning in the search already rejects anything
/// the models cannot fully evaluate, and the winner is compiled again,
/// and verified, under the job's own settings.
fn candidate_program(
    job: &Job<'_>,
    strategy: Strategy,
    cand: &pdc_tune::Candidate,
) -> Result<pdc_tune::CandidateProgram, String> {
    let mut cjob = job.clone();
    cjob.auto_decomposition = None;
    cjob.decomp = cand.decomp.clone();
    cjob.opt_level = cand.opt_level;
    let front = front_half(&cjob, strategy).map_err(|e| format!("compile failed: {e}"))?;
    let (env, arrays) = static_env(&front.analysis, &cjob.const_params);
    Ok(pdc_tune::CandidateProgram {
        spmd: front.spmd,
        env,
        arrays,
        prediction: None,
    })
}

/// The scalar environment and preloaded-array instances the static
/// models (cost prediction, safety analysis) interpret the final code
/// under.
fn static_env(
    analysis: &Analysis,
    const_params: &HashMap<String, i64>,
) -> (BTreeMap<String, i64>, BTreeMap<String, DistInstance>) {
    let env: BTreeMap<String, i64> = const_params.iter().map(|(k, v)| (k.clone(), *v)).collect();
    let mut arrays: BTreeMap<String, DistInstance> = BTreeMap::new();
    for name in analysis.arrays().keys() {
        if let Ok(inst) = analysis.inst(name) {
            arrays.insert(name.clone(), inst);
        }
    }
    (env, arrays)
}

/// The source span of the first write to `array` in the inlined program
/// — the anchor for double-write diagnostics, whose IR statements carry
/// no tags.
fn array_write_span(block: &Block, array: &str) -> Option<pdc_lang::Span> {
    for stmt in &block.stmts {
        match stmt {
            Stmt::ArrayWrite { array: a, span, .. } if a == array => return Some(*span),
            Stmt::For { body, .. } => {
                if let Some(s) = array_write_span(body, array) {
                    return Some(s);
                }
            }
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                if let Some(s) = array_write_span(then_blk, array) {
                    return Some(s);
                }
                if let Some(b) = else_blk {
                    if let Some(s) = array_write_span(b, array) {
                        return Some(s);
                    }
                }
            }
            _ => {}
        }
    }
    None
}

/// Walk the inlined source and emit one [`Phase::Analysis`] remark per
/// assignment: who evaluates it and who owns each coercible operand —
/// the *evaluators*/*participants* attributes of §3.2 made visible.
fn emit_analysis_remarks(block: &Block, analysis: &Analysis, sink: &mut RemarkSink) {
    fn owner_desc(o: &EvalOwner) -> String {
        match o {
            EvalOwner::All => "ALL".to_owned(),
            EvalOwner::Expr(e) => e.to_string(),
            EvalOwner::Dynamic => "run-time".to_owned(),
        }
    }
    for stmt in &block.stmts {
        if let Ok(Some(roles)) = analysis.roles(stmt) {
            let remote = roles
                .operands
                .iter()
                .filter(|o| o.owner != roles.eval)
                .count();
            let mut r = if roles.eval == EvalOwner::Dynamic {
                Remark::new(
                    Phase::Analysis,
                    RemarkKind::Missed,
                    "left-hand-side owner is not statically analyzable; \
                     only run-time resolution is possible",
                )
            } else {
                Remark::new(
                    Phase::Analysis,
                    RemarkKind::Applied,
                    format!("evaluator {}", owner_desc(&roles.eval)),
                )
            }
            .with_span(stmt.span())
            .detail("operands", roles.operands.len())
            .detail("coercible", remote);
            for (k, op) in roles.operands.iter().enumerate() {
                r = r.detail(format!("owner{k}"), owner_desc(&op.owner));
            }
            sink.emit(r);
        }
        match stmt {
            Stmt::For { body, .. } => emit_analysis_remarks(body, analysis, sink),
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                emit_analysis_remarks(then_blk, analysis, sink);
                if let Some(b) = else_blk {
                    emit_analysis_remarks(b, analysis, sink);
                }
            }
            _ => {}
        }
    }
}

/// Append the cost model's remarks for `prediction`.
fn cost_remarks(prediction: &Prediction, remarks: &mut Vec<Remark>) {
    remarks.push(
        Remark::new(
            Phase::CostModel,
            RemarkKind::Applied,
            format!(
                "predicted {} message(s), {} payload word(s) over {} channel(s)",
                prediction.total_messages(),
                prediction.total_words(),
                prediction.sends.len()
            ),
        )
        .detail("exact", prediction.exact)
        .detail("balanced", prediction.protocol_consistent()),
    );
    for note in &prediction.notes {
        remarks.push(Remark::new(
            Phase::CostModel,
            RemarkKind::Missed,
            note.clone(),
        ));
    }
}

/// Input bindings for an execution.
#[derive(Debug, Clone, Default)]
pub struct Inputs {
    /// Scalar entry parameters.
    pub scalars: Vec<(String, Scalar)>,
    /// Array entry parameters (global matrices, distributed per the
    /// decomposition before the run).
    pub arrays: Vec<(String, IMatrix<Scalar>)>,
}

impl Inputs {
    /// No inputs.
    pub fn new() -> Self {
        Inputs::default()
    }

    /// Bind a scalar parameter.
    pub fn scalar(mut self, name: impl Into<String>, v: Scalar) -> Self {
        self.scalars.push((name.into(), v));
        self
    }

    /// Bind an array parameter.
    pub fn array(mut self, name: impl Into<String>, m: IMatrix<Scalar>) -> Self {
        self.arrays.push((name.into(), m));
        self
    }
}

/// The result of simulating a compiled program.
#[derive(Debug)]
pub struct Execution {
    /// Scheduler/fabric report (`outcome.report.stats.makespan()` is the
    /// simulated time).
    pub outcome: RunOutcome,
    /// The machine, for gathers and white-box inspection.
    pub machine: SpmdMachine,
    /// The static cost prediction carried over from [`Compiled`], so the
    /// run can be checked against it with
    /// [`Execution::verify_predictions`].
    pub prediction: Prediction,
    /// Number of processors the program was compiled for.
    pub n_procs: usize,
}

/// Outcome of checking a static [`Prediction`] against an actual run.
#[derive(Debug, Clone, Default)]
pub struct PredictionReport {
    /// Distinct `(src, dst, tag)` channels compared (union of predicted
    /// and observed).
    pub checked_channels: usize,
    /// Human-readable discrepancies; empty iff the prediction held.
    pub mismatches: Vec<String>,
    /// Whether the model claimed exactness ([`Prediction::exact`]). An
    /// inexact prediction may legitimately mismatch.
    pub statically_exact: bool,
    /// Whether the per-channel word counts were additionally checked
    /// against the event trace's communication matrix (requires a
    /// complete trace).
    pub trace_checked: bool,
}

impl PredictionReport {
    /// Did every check pass?
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

impl Execution {
    /// Gather a distributed array by name.
    ///
    /// # Errors
    ///
    /// See [`SpmdMachine::gather`].
    pub fn gather(&self, name: &str) -> Result<IMatrix<Scalar>, SpmdError> {
        self.machine.gather(name)
    }

    /// Total messages exchanged (the footnote-3 metric).
    pub fn messages(&self) -> u64 {
        self.outcome.report.stats.network.messages
    }

    /// Simulated execution time in cycles (the Figures 6/7 metric).
    pub fn makespan(&self) -> u64 {
        self.outcome.report.stats.makespan().0
    }

    /// The event trace of the run (empty unless the job's
    /// [`RunConfig::trace_cap`] enabled tracing).
    pub fn trace(&self) -> &pdc_machine::Trace {
        &self.outcome.report.trace
    }

    /// The runtime-metrics snapshot of the run. Always present; unless
    /// the job's [`RunConfig::metrics`] asked for more, only the always-on
    /// flight recorder has content (`full` is false).
    pub fn metrics(&self) -> &pdc_machine::MetricsSnapshot {
        &self.outcome.report.metrics
    }

    /// Check the compile-time cost prediction against what the run
    /// actually did:
    ///
    /// 1. per-`(src, dst, tag)` message counts vs. the scheduler's
    ///    [`pair_messages`](pdc_machine::RunReport::pair_messages)
    ///    (program-level counts, so this holds under fault injection
    ///    too);
    /// 2. total payload words vs. the fabric counters (fault-free runs
    ///    only — retransmissions inflate the raw counters);
    /// 3. when a complete event trace is present, per-channel messages
    ///    *and* words vs. the trace's communication matrix.
    ///
    /// On a fault-free simulator run of a program the model marked
    /// [`exact`](Prediction::exact), every check must pass.
    pub fn verify_predictions(&self) -> PredictionReport {
        let pred = &self.prediction;
        let mut rep = PredictionReport {
            statically_exact: pred.exact,
            ..PredictionReport::default()
        };
        let observed = &self.outcome.report.pair_messages;
        let mut keys: BTreeSet<(usize, usize, u32)> = pred.sends.keys().copied().collect();
        keys.extend(observed.keys().map(|(s, d, t)| (s.0, d.0, t.0)));
        for k in keys {
            rep.checked_channels += 1;
            let want = pred.sends.get(&k).map_or(0, |c| c.messages);
            let got = observed
                .get(&(ProcId(k.0), ProcId(k.1), Tag(k.2)))
                .copied()
                .unwrap_or(0);
            if want != got {
                rep.mismatches.push(format!(
                    "P{}->P{} tag {}: predicted {} message(s), observed {}",
                    k.0, k.1, k.2, want, got
                ));
            }
        }
        if self.outcome.report.fault.is_none() {
            let want = pred.total_words();
            let got = self.outcome.report.stats.network.words;
            if want != got {
                rep.mismatches.push(format!(
                    "total payload: predicted {want} word(s), observed {got}"
                ));
            }
        }
        let trace = &self.outcome.report.trace;
        if !trace.is_empty() && trace.dropped() == 0 {
            rep.trace_checked = true;
            let analysis = pdc_machine::trace_analysis::analyze(trace, self.n_procs);
            let traced: BTreeMap<(usize, usize, u32), (u64, u64)> = analysis
                .comm
                .iter()
                .map(|e| ((e.src.0, e.dst.0, e.tag.0), (e.messages, e.words)))
                .collect();
            let mut keys: BTreeSet<(usize, usize, u32)> = pred.sends.keys().copied().collect();
            keys.extend(traced.keys().copied());
            for k in keys {
                let want = pred.sends.get(&k).copied().unwrap_or_default();
                let (got_m, got_w) = traced.get(&k).copied().unwrap_or((0, 0));
                if want.messages != got_m || want.words != got_w {
                    rep.mismatches.push(format!(
                        "trace P{}->P{} tag {}: predicted {} message(s)/{} word(s), \
                         traced {got_m}/{got_w}",
                        k.0, k.1, k.2, want.messages, want.words
                    ));
                }
            }
        }
        rep
    }
}

/// Run a compiled program as its [`Job::run`] configuration says.
///
/// # Errors
///
/// Lowering and machine errors as [`SpmdError`].
pub fn execute(
    compiled: &Compiled,
    inputs: &Inputs,
    cost: CostModel,
) -> Result<Execution, SpmdError> {
    execute_on(compiled, inputs, cost, compiled.run.backend)
}

/// Like [`execute`] but on `backend` whatever the job selected, for
/// differential tests that run one compilation on both backends.
///
/// # Errors
///
/// Lowering and machine errors as [`SpmdError`].
pub fn execute_on(
    compiled: &Compiled,
    inputs: &Inputs,
    cost: CostModel,
    backend: Backend,
) -> Result<Execution, SpmdError> {
    let mut machine = SpmdMachine::new(&compiled.spmd, cost)?.with_config(RunConfig {
        backend,
        ..compiled.run.clone()
    });
    for (name, v) in &inputs.scalars {
        machine.preset_var(name, *v);
    }
    for (name, data) in &inputs.arrays {
        let dist = compiled
            .analysis
            .array(name)
            .map_err(|e| SpmdError::Gather {
                message: e.to_string(),
            })?
            .dist
            .clone();
        machine.preload_array(name, dist, data);
    }
    let outcome = machine.run()?;
    Ok(Execution {
        outcome,
        machine,
        prediction: compiled.prediction.clone(),
        n_procs: compiled.spmd.n_procs(),
    })
}

/// Run the *sequential* program on the same inputs with the reference
/// interpreter — the semantics every compiled execution must match.
///
/// # Errors
///
/// Any interpreter error, as [`CoreError::Lang`].
pub fn run_sequential(program: &Program, entry: &str, inputs: &Inputs) -> Result<Value, CoreError> {
    let proc = program.proc(entry).ok_or_else(|| CoreError::NoEntry {
        name: entry.to_owned(),
    })?;
    let mut args = Vec::new();
    for p in &proc.params {
        if let Some((_, v)) = inputs.scalars.iter().find(|(n, _)| n == p) {
            args.push(Value::from(*v));
        } else if let Some((_, m)) = inputs.arrays.iter().find(|(n, _)| n == p) {
            args.push(matrix_to_value(m));
        } else {
            return Err(CoreError::Unsupported {
                message: format!("no input bound for parameter `{p}`"),
                span: proc.span,
            });
        }
    }
    let mut interp = Interpreter::new(program);
    interp.run(entry, &args).map_err(CoreError::Lang)
}

/// Convert a scalar matrix to an interpreter matrix value.
pub fn matrix_to_value(m: &IMatrix<Scalar>) -> Value {
    let out = Value::new_matrix(m.rows(), m.cols());
    if let Value::Matrix(h) = &out {
        let mut h = h.borrow_mut();
        for i in 1..=m.rows() as i64 {
            for j in 1..=m.cols() as i64 {
                if let Some(v) = m.peek(i, j) {
                    h.write(i, j, Value::from(*v)).expect("fresh matrix");
                }
            }
        }
    }
    out
}

/// Compare a gathered matrix against a sequential matrix result,
/// returning the first mismatch as `(i, j, gathered, sequential)`.
pub fn first_mismatch(
    gathered: &IMatrix<Scalar>,
    sequential: &Value,
) -> Option<(i64, i64, Option<Scalar>, Option<Value>)> {
    let Value::Matrix(h) = sequential else {
        return Some((0, 0, None, Some(sequential.clone())));
    };
    let h = h.borrow();
    if (h.rows(), h.cols()) != (gathered.rows(), gathered.cols()) {
        return Some((0, 0, None, None));
    }
    for i in 1..=gathered.rows() as i64 {
        for j in 1..=gathered.cols() as i64 {
            let g = gathered.peek(i, j).copied();
            let s = h.peek(i, j).cloned();
            let same = match (&g, &s) {
                (None, None) => true,
                (Some(gv), Some(sv)) => &Value::from(*gv) == sv,
                _ => false,
            };
            if !same {
                return Some((i, j, g, s));
            }
        }
    }
    None
}

/// Build a deterministic input matrix: `cell(i,j) = (i*31 + j*17) mod 97`.
/// Used by tests, examples, and benches as the standard workload.
pub fn standard_input(rows: usize, cols: usize) -> IMatrix<Scalar> {
    let mut m = IMatrix::new(rows, cols);
    for i in 1..=rows as i64 {
        for j in 1..=cols as i64 {
            m.write(i, j, Scalar::Int((i * 31 + j * 17) % 97))
                .expect("fresh matrix");
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;

    #[test]
    fn runtime_resolution_gs_matches_sequential() {
        let program = programs::gauss_seidel();
        let n = 8usize;
        let s = 4usize;
        let job = Job::new(
            &program,
            "gs_iteration",
            programs::wavefront_decomposition(s),
        )
        .with_const("n", n as i64);
        let compiled = compile(&job, Strategy::Runtime).unwrap();
        let inputs = Inputs::new()
            .scalar("n", Scalar::Int(n as i64))
            .array("Old", standard_input(n, n));
        let exec = execute(&compiled, &inputs, CostModel::zero()).unwrap();
        let gathered = exec.gather("New").unwrap();
        let seq = run_sequential(&program, "gs_iteration", &inputs).unwrap();
        assert_eq!(first_mismatch(&gathered, &seq), None);
        // Interior coercion traffic exists.
        assert!(exec.messages() > 0);
        assert_eq!(exec.outcome.report.undelivered, 0);
    }

    #[test]
    fn runtime_resolution_message_count_formula() {
        // Two remote operands per interior point: 2 * (n-2)^2 messages,
        // minus the points whose neighbour columns coincide... with
        // column-cyclic on s >= 2 every interior point's New[i,j-1] and
        // Old[i,j+1] are remote, giving exactly 2 (n-2)^2 messages
        // (boundary-copy statements are always local).
        let program = programs::gauss_seidel();
        let n = 10usize;
        for s in [2usize, 5] {
            let job = Job::new(
                &program,
                "gs_iteration",
                programs::wavefront_decomposition(s),
            )
            .with_const("n", n as i64);
            let compiled = compile(&job, Strategy::Runtime).unwrap();
            let inputs = Inputs::new()
                .scalar("n", Scalar::Int(n as i64))
                .array("Old", standard_input(n, n));
            let exec = execute(&compiled, &inputs, CostModel::zero()).unwrap();
            assert_eq!(exec.messages(), 2 * (n as u64 - 2).pow(2), "s = {s}");
        }
    }

    #[test]
    fn single_processor_needs_no_messages() {
        let program = programs::gauss_seidel();
        let n = 6usize;
        let job = Job::new(
            &program,
            "gs_iteration",
            programs::wavefront_decomposition(1),
        )
        .with_const("n", n as i64);
        let compiled = compile(&job, Strategy::Runtime).unwrap();
        let inputs = Inputs::new()
            .scalar("n", Scalar::Int(n as i64))
            .array("Old", standard_input(n, n));
        let exec = execute(&compiled, &inputs, CostModel::ipsc2()).unwrap();
        assert_eq!(exec.messages(), 0);
        let gathered = exec.gather("New").unwrap();
        let seq = run_sequential(&program, "gs_iteration", &inputs).unwrap();
        assert_eq!(first_mismatch(&gathered, &seq), None);
    }

    #[test]
    fn figure4_runtime_distributes_scalars() {
        let program = programs::figure4();
        let job = Job::new(&program, "main", programs::figure4_decomposition(4));
        let compiled = compile(&job, Strategy::Runtime).unwrap();
        let exec = execute(&compiled, &Inputs::new(), CostModel::ipsc2()).unwrap();
        // a: P1 -> P3 and b: P2 -> P3 — exactly two messages.
        assert_eq!(exec.messages(), 2);
        assert_eq!(exec.machine.vm(3).var("c"), Some(Scalar::Int(12)));
        // Non-evaluators never define c.
        assert_eq!(exec.machine.vm(0).var("c"), None);
    }

    /// A tap for [`back_half`]: which processors' walks it rode on.
    #[derive(Default)]
    struct WalkedProcs(Vec<usize>);

    impl Events for WalkedProcs {
        fn proc_begin(&mut self, proc: usize) {
            self.0.push(proc);
        }
    }

    #[test]
    fn verified_compile_walks_each_processor_once() {
        let program = programs::gauss_seidel();
        let s = 4usize;
        let job = Job::new(
            &program,
            "gs_iteration",
            programs::wavefront_decomposition(s),
        )
        .with_const("n", 16)
        .with_opt_level(OptLevel::O2);
        let mut tap = WalkedProcs::default();
        let compiled = back_half(
            front_half(&job, Strategy::CompileTime).unwrap(),
            &job,
            &mut tap,
        )
        .unwrap();
        // Both models ran …
        assert!(compiled.prediction.exact);
        assert!(compiled.verification.as_ref().unwrap().verified());
        // … on one walk: every processor begun once, in order.
        assert_eq!(tap.0, (0..s).collect::<Vec<_>>());
        // And the walk they shared tells each what its own would have.
        let (env, arrays) = compiled.static_env(&job.const_params);
        let solo = pdc_report::predict(&compiled.spmd, &env, &arrays);
        assert_eq!(compiled.prediction.sends, solo.sends);
        assert_eq!(compiled.prediction.recvs, solo.recvs);
        let solo = pdc_analyze::analyze(&compiled.spmd, &env, &arrays);
        let fused = compiled.verification.unwrap();
        assert_eq!(fused.channels, solo.channels);
        assert_eq!(fused.diagnostics, solo.diagnostics);
    }

    #[test]
    fn tuner_candidate_is_compiled_without_a_walk() {
        // The candidate closure hands the search unscored code; the
        // search's own `predict_and_estimate` is then the candidate's one
        // walk. Nothing on the way here takes a sink, so nothing walked.
        let program = programs::gauss_seidel();
        let job = Job::new(
            &program,
            "gs_iteration",
            programs::wavefront_decomposition(4),
        )
        .with_const("n", 16)
        .with_auto_decomposition();
        let space = pdc_tune::SearchSpace::from_seed(&job.decomp, Some(OptLevel::O2));
        let cand = &pdc_tune::enumerate(&space)[0];
        let prog = candidate_program(&job, Strategy::CompileTime, cand).unwrap();
        assert!(prog.prediction.is_none());
        // It is the code a full compile of the candidate produces.
        let mut cjob = job.clone();
        cjob.auto_decomposition = None;
        cjob.decomp = cand.decomp.clone();
        cjob.opt_level = cand.opt_level;
        let full = compile(&cjob, Strategy::CompileTime).unwrap();
        assert_eq!(prog.spmd, full.spmd);
        assert_eq!((prog.env, prog.arrays), full.static_env(&cjob.const_params));
    }
}

/// Build a [`Decomposition`] from the program's own `map { … }` header —
/// the italicized annotations of the paper's Figure 1, carried in source
/// form — for a machine of `nprocs` processors.
///
/// # Errors
///
/// [`CoreError::Unsupported`] if a named processor or 2-D grid does not
/// fit the machine.
pub fn decomposition_from_source(
    program: &Program,
    nprocs: usize,
) -> Result<Decomposition, CoreError> {
    use pdc_lang::ast::DistSpec;
    use pdc_mapping::{Dist, ScalarMap};
    let mut d = Decomposition::new(nprocs);
    for decl in &program.map_decls {
        let bad = |message: String| CoreError::Unsupported {
            message,
            span: decl.span,
        };
        match decl.spec {
            DistSpec::All => {
                // `all` works for scalars and arrays alike; record both.
                d = d
                    .scalar(decl.name.clone(), ScalarMap::All)
                    .array(decl.name.clone(), Dist::Replicated);
            }
            DistSpec::Proc(p) => {
                if p >= nprocs {
                    return Err(bad(format!(
                        "`{}` is mapped to P{p}, but the machine has {nprocs} processors",
                        decl.name
                    )));
                }
                d = d
                    .scalar(decl.name.clone(), ScalarMap::On(p))
                    .array(decl.name.clone(), Dist::OnProcessor(p));
            }
            DistSpec::ColumnCyclic => d = d.array(decl.name.clone(), Dist::ColumnCyclic),
            DistSpec::RowCyclic => d = d.array(decl.name.clone(), Dist::RowCyclic),
            DistSpec::ColumnBlock => d = d.array(decl.name.clone(), Dist::ColumnBlock),
            DistSpec::RowBlock => d = d.array(decl.name.clone(), Dist::RowBlock),
            DistSpec::ColumnBlockCyclic(b) => {
                d = d.array(decl.name.clone(), Dist::ColumnBlockCyclic { block: b })
            }
            DistSpec::RowBlockCyclic(b) => {
                d = d.array(decl.name.clone(), Dist::RowBlockCyclic { block: b })
            }
            DistSpec::Block2d(pr, pc) => {
                if pr * pc != nprocs {
                    return Err(bad(format!(
                        "`{}` uses a {pr}x{pc} grid, but the machine has {nprocs} processors",
                        decl.name
                    )));
                }
                d = d.array(
                    decl.name.clone(),
                    Dist::Block2d {
                        prows: pr,
                        pcols: pc,
                    },
                )
            }
        }
    }
    Ok(d)
}

#[cfg(test)]
mod map_decl_tests {
    use super::*;
    use pdc_mapping::{Dist, ScalarMap};

    #[test]
    fn source_map_block_builds_decomposition() {
        let program = pdc_lang::parse(
            "map {
                New : column_cyclic;
                Old : column_block_cyclic(2);
                c : all;
                x : proc(1);
                G : block2d(2, 2);
             }
             procedure main() { return 0; }",
        )
        .unwrap();
        let d = decomposition_from_source(&program, 4).unwrap();
        assert_eq!(d.array_dist("New"), Some(Dist::ColumnCyclic));
        assert_eq!(
            d.array_dist("Old"),
            Some(Dist::ColumnBlockCyclic { block: 2 })
        );
        assert_eq!(d.scalar_map("c"), ScalarMap::All);
        assert_eq!(d.scalar_map("x"), ScalarMap::On(1));
        assert_eq!(
            d.array_dist("G"),
            Some(Dist::Block2d { prows: 2, pcols: 2 })
        );
    }

    #[test]
    fn out_of_range_processor_rejected() {
        let program =
            pdc_lang::parse("map { x : proc(9); } procedure main() { return 0; }").unwrap();
        let err = decomposition_from_source(&program, 4).unwrap_err();
        assert!(err.to_string().contains("P9"));
    }

    #[test]
    fn wrong_grid_rejected() {
        let program =
            pdc_lang::parse("map { G : block2d(3, 3); } procedure main() { return 0; }").unwrap();
        let err = decomposition_from_source(&program, 4).unwrap_err();
        assert!(err.to_string().contains("3x3 grid"));
    }

    #[test]
    fn source_mapped_wavefront_compiles_and_runs() {
        // The whole pipeline driven from source-level mappings alone.
        let src = format!(
            "map {{ New : column_cyclic; Old : column_cyclic; }}\n{}",
            crate::programs::GAUSS_SEIDEL
        );
        let program = pdc_lang::parse(&src).unwrap();
        let n = 8usize;
        let decomp = decomposition_from_source(&program, 2).unwrap();
        let job = Job::new(&program, "gs_iteration", decomp).with_const("n", n as i64);
        let compiled = compile(&job, Strategy::CompileTime).unwrap();
        let inputs = Inputs::new()
            .scalar("n", Scalar::Int(n as i64))
            .array("Old", standard_input(n, n));
        let exec = execute(&compiled, &inputs, CostModel::ipsc2()).unwrap();
        let gathered = exec.gather("New").unwrap();
        let seq = run_sequential(&program, "gs_iteration", &inputs).unwrap();
        assert_eq!(first_mismatch(&gathered, &seq), None);
    }
}
