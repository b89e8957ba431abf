//! What the reliable-delivery / checkpoint protocol costs on the
//! simulator: in *host* time, per frame and per checkpoint, and in
//! logical cycles and wire traffic.
//!
//! Two programs of the paper — compile-time resolution (one message per
//! element) and Optimized III b=8 (block messages) — on the Gauss-Seidel
//! wavefront, each under five uses of the machine layer:
//!
//! * **raw** — the raw fabric;
//! * **reliable** — the protocol with nothing to recover from;
//! * **faulty** — seeded drops, duplicates and delays (20 ‰ each);
//! * **checkpointed** — independent checkpoints every 2,048 ops;
//! * **crashed** — the same plus a scripted crash of P1 at op 1,000.
//!
//! For each it prints wall milliseconds of `Scheduler::run` (the fastest
//! of a few runs), nanoseconds per VM instruction, nanoseconds per
//! program message over the raw run, microseconds per checkpoint over the
//! reliable run, and how the scheduler cut the run into batches; then the
//! logical cost: makespan and its ratio to the raw run, the frames and
//! words on the wire (acks and retransmissions included), retransmits
//! and acks. It checks that every mode gathers the sequential
//! interpreter's result and that the fault-free modes agree on the
//! program's messages, and writes `BENCH_protocol_cost.json`.
//!
//! Usage: `cargo run --release -p pdc-bench --bin protocol_cost [n] [s]`

use pdc_bench::{build_wavefront, print_table, Variant};
use pdc_core::driver::{self, Inputs};
use pdc_core::programs;
use pdc_istructure::IMatrix;
use pdc_machine::metrics::json::Json;
use pdc_machine::{
    CheckpointCfg, CostModel, Fabric, FaultPlan, Machine, MachineError, ProcId, Process, RelConfig,
    RunConfig, RunReport, Scheduler, Step,
};
use pdc_mapping::{Dist, OwnerSet};
use pdc_spmd::lower::{lower, Code};
use pdc_spmd::vm::{DistArray, ProcVm};
use pdc_spmd::Scalar;
use std::sync::Arc;
use std::time::Instant;

/// Timed runs per configuration; the fastest is reported.
const RUNS: usize = 5;

/// The five uses of the machine layer, configured as `perfbench`'s
/// `faulty_sim` configures them; the raw run comes first.
fn modes() -> [(&'static str, RunConfig); 5] {
    let reliable = Some(RelConfig::default());
    let checkpoints = Some(CheckpointCfg::every(2_048));
    let raw = RunConfig::default;
    [
        ("raw", raw()),
        ("reliable", RunConfig { reliable, ..raw() }),
        (
            "faulty",
            RunConfig {
                faults: FaultPlan::seeded(1 ^ 0xFA17)
                    .with_drops(20)
                    .with_dups(20)
                    .with_delays(20, 500),
                reliable,
                ..raw()
            },
        ),
        (
            "checkpointed",
            RunConfig {
                checkpoints,
                ..raw()
            },
        ),
        (
            "crashed",
            RunConfig {
                faults: FaultPlan::seeded(0).with_crash(ProcId(1), 1_000),
                reliable,
                checkpoints,
                ..raw()
            },
        ),
    ]
}

/// A VM that counts how the scheduler drives it: calls into any of the
/// three step entry points, and the instructions they executed.
struct Counted {
    vm: ProcVm,
    batches: u64,
    instrs: u64,
}

impl Counted {
    fn note(
        &mut self,
        out: Result<(u64, Step), MachineError>,
    ) -> Result<(u64, Step), MachineError> {
        self.batches += 1;
        self.instrs += out.as_ref().map_or(0, |(ran, _)| *ran);
        out
    }
}

impl Process for Counted {
    fn step(&mut self, fabric: &mut dyn Fabric, me: ProcId) -> Result<Step, MachineError> {
        let out = self.vm.step(fabric, me).map(|step| (1, step));
        self.note(out).map(|(_, step)| step)
    }

    fn step_batch(
        &mut self,
        fabric: &mut dyn Fabric,
        me: ProcId,
        max: u64,
    ) -> Result<(u64, Step), MachineError> {
        let out = self.vm.step_batch(fabric, me, max);
        self.note(out)
    }

    fn step_batch_until(
        &mut self,
        fabric: &mut dyn Fabric,
        me: ProcId,
        max: u64,
        min_ops: u64,
        min_cycles: u64,
    ) -> Result<(u64, Step), MachineError> {
        let out = self
            .vm
            .step_batch_until(fabric, me, max, min_ops, min_cycles);
        self.note(out)
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        self.vm.snapshot()
    }

    fn restore(&mut self, state: &[u8]) -> bool {
        self.vm.restore(state)
    }
}

/// Fresh VMs for `code` with `Old` resident column-cyclically, as
/// `SpmdMachine::preload_array` leaves it.
fn load(code: &[Arc<Code>], n: usize, input: &IMatrix<Scalar>) -> Vec<Counted> {
    let s = code.len();
    let mut segments: Vec<DistArray> = (0..s)
        .map(|_| DistArray::alloc(Dist::ColumnCyclic, n, n, s))
        .collect();
    let inst = segments[0].inst.clone();
    for i in 1..=n as i64 {
        for j in 1..=n as i64 {
            let (OwnerSet::One(p), Some(v)) = (inst.owner(i, j), input.peek(i, j)) else {
                unreachable!("column-cyclic cells have one owner and the input is full");
            };
            let (li, lj) = inst.local(i, j);
            segments[p].local.write(li, lj, *v).expect("fresh segment");
        }
    }
    let cost = CostModel::ipsc2();
    let vms = code.iter().zip(segments).map(|(code, segment)| {
        let mut vm = ProcVm::new(Arc::clone(code), &cost);
        vm.preset_var("n", Scalar::Int(n as i64));
        vm.preload_array("Old", segment);
        Counted {
            vm,
            batches: 0,
            instrs: 0,
        }
    });
    vms.collect()
}

/// `New`, read back from its owners.
fn gather(vms: &[Counted], n: usize) -> IMatrix<Scalar> {
    let mut out = IMatrix::new(n, n);
    let segments: Vec<&DistArray> = vms
        .iter()
        .map(|c| c.vm.array("New").expect("New is allocated everywhere"))
        .collect();
    for i in 1..=n as i64 {
        for j in 1..=n as i64 {
            let OwnerSet::One(p) = segments[0].inst.owner(i, j) else {
                unreachable!("column-cyclic cells have one owner");
            };
            let (li, lj) = segments[p].inst.local(i, j);
            if let Some(v) = segments[p].local.peek(li, lj) {
                out.write(i, j, *v).expect("fresh gather target");
            }
        }
    }
    out
}

/// One configuration's numbers.
struct Row {
    mode: &'static str,
    wall_ms: f64,
    report: RunReport,
    batches: u64,
    instrs: u64,
}

impl Row {
    fn messages(&self) -> u64 {
        self.report.pair_messages.values().sum()
    }

    fn checkpoints(&self) -> u64 {
        self.report.recovery.map_or(0, |r| r.checkpoints_taken)
    }
}

fn main() {
    let [n, s] = pdc_bench::args([("n", 128), ("s", 4)]);
    let input = driver::standard_input(n, n);
    let inputs = Inputs::new()
        .scalar("n", Scalar::Int(n as i64))
        .array("Old", input.clone());
    let sequential = driver::run_sequential(&programs::gauss_seidel(), "gs_iteration", &inputs)
        .expect("sequential run");
    let mut errors: Vec<String> = Vec::new();
    let mut records = Vec::new();
    for variant in [Variant::CompileTime, Variant::OptimizedIII { blksize: 8 }] {
        let prog = build_wavefront(variant, n, s);
        let code: Vec<Arc<Code>> = (0..s)
            .map(|p| Arc::new(lower(prog.body(p)).expect("program lowers")))
            .collect();
        let rows: Vec<Row> = modes()
            .iter()
            .map(|(mode, config)| {
                let mut best: Option<Row> = None;
                for _ in 0..RUNS {
                    let mut vms = load(&code, n, &input);
                    let mut machine = Machine::new(s, CostModel::ipsc2());
                    let mut refs: Vec<&mut dyn Process> =
                        vms.iter_mut().map(|v| v as &mut dyn Process).collect();
                    let t0 = Instant::now();
                    let report = Scheduler::with_config(config)
                        .run(&mut machine, &mut refs)
                        .unwrap_or_else(|e| panic!("{variant} {mode}: {e}"));
                    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                    if driver::first_mismatch(&gather(&vms, n), &sequential).is_some() {
                        errors.push(format!("{variant} {mode}: not the sequential result"));
                    }
                    if best.as_ref().is_none_or(|b| wall_ms < b.wall_ms) {
                        best = Some(Row {
                            mode,
                            wall_ms,
                            report,
                            batches: vms.iter().map(|v| v.batches).sum(),
                            instrs: vms.iter().map(|v| v.instrs).sum(),
                        });
                    }
                }
                best.expect("at least one run")
            })
            .collect();

        let (raw, reliable) = (&rows[0], &rows[1]);
        for r in [reliable, &rows[3]] {
            if r.messages() != raw.messages() {
                errors.push(format!(
                    "{variant}: {} program messages {}, raw {}",
                    r.mode,
                    r.messages(),
                    raw.messages()
                ));
            }
        }
        let mut host = Vec::new();
        let mut logical = Vec::new();
        for r in &rows {
            if r.instrs != r.report.steps {
                errors.push(format!("{variant} {}: instruction counts differ", r.mode));
            }
            let ns_per_instr = r.wall_ms * 1e6 / r.report.steps as f64;
            let ns_per_message = (r.wall_ms - raw.wall_ms) * 1e6 / r.messages() as f64;
            let us_per_checkpoint = match r.checkpoints() {
                0 => 0.0,
                taken => (r.wall_ms - reliable.wall_ms) * 1e3 / taken as f64,
            };
            let per_batch = r.instrs as f64 / r.batches as f64;
            let makespan = r.report.stats.makespan().0;
            let makespan_over_raw = makespan as f64 / raw.report.stats.makespan().0 as f64;
            let wire = r.report.stats.network;
            let fault = r.report.fault.unwrap_or_default();
            host.push((
                r.mode.to_string(),
                vec![
                    format!("{:.2}", r.wall_ms),
                    format!("{:.2}x", r.wall_ms / raw.wall_ms),
                    format!("{ns_per_instr:.1}"),
                    format!("{ns_per_message:.0}"),
                    r.checkpoints().to_string(),
                    format!("{us_per_checkpoint:.0}"),
                    r.batches.to_string(),
                    format!("{per_batch:.1}"),
                ],
            ));
            logical.push((
                r.mode.to_string(),
                vec![
                    makespan.to_string(),
                    format!("{makespan_over_raw:.4}x"),
                    wire.messages.to_string(),
                    wire.words.to_string(),
                    fault.retransmits.to_string(),
                    fault.acks_sent.to_string(),
                ],
            ));
            records.push(Json::obj([
                ("variant", variant.to_string().into()),
                ("mode", r.mode.into()),
                ("wall_ms", r.wall_ms.into()),
                ("over_raw", (r.wall_ms / raw.wall_ms).into()),
                ("instructions", r.report.steps.into()),
                ("ns_per_instruction", ns_per_instr.into()),
                ("program_messages", r.messages().into()),
                ("ns_per_message_over_raw", ns_per_message.into()),
                ("checkpoints", r.checkpoints().into()),
                ("us_per_checkpoint", us_per_checkpoint.into()),
                ("batches", r.batches.into()),
                ("instructions_per_batch", per_batch.into()),
                ("makespan", makespan.into()),
                ("makespan_over_raw", makespan_over_raw.into()),
                ("wire_messages", wire.messages.into()),
                ("wire_words", wire.words.into()),
                ("retransmits", fault.retransmits.into()),
                ("acks", fault.acks_sent.into()),
            ]));
        }
        let columns = [
            "wall ms",
            "vs raw",
            "ns/instr",
            "ns/msg over raw",
            "ckpts",
            "µs/ckpt",
            "batches",
            "instr/batch",
        ];
        print_table(
            &format!("{variant}, {n}x{n} wavefront on {s} simulated processors: host time"),
            &columns.map(String::from),
            &host,
        );
        let columns = [
            "makespan",
            "vs raw",
            "wire msgs",
            "wire words",
            "rexmit",
            "acks",
        ];
        print_table(
            &format!("{variant}: logical cost (cycles, frames on the wire)"),
            &columns.map(String::from),
            &logical,
        );
    }
    let doc = Json::obj([
        ("bench", "protocol_cost".into()),
        ("n", n.into()),
        ("nprocs", s.into()),
        ("runs", Json::Arr(records)),
        ("self_validated", errors.is_empty().into()),
    ]);
    std::fs::write("BENCH_protocol_cost.json", format!("{doc:#}\n"))
        .expect("write BENCH_protocol_cost.json");
    println!("\nwrote BENCH_protocol_cost.json");

    if !errors.is_empty() {
        eprintln!("\nself-validation FAILED:");
        for e in &errors {
            eprintln!("  - {e}");
        }
        std::process::exit(1);
    }
    println!(
        "self-validation passed: every mode gathers the sequential result, fault-free modes \
         agree on the program's messages"
    );
}
