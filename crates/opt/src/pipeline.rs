//! The optimization pipeline: the paper's Optimized I / II / III levels.

use crate::jam::jam;
use crate::strip::strip_mine;
use crate::vectorize::vectorize;
use pdc_report::RemarkSink;
use pdc_spmd::ir::SpmdProgram;
use std::fmt;

/// How far to optimize compile-time-resolution output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevel {
    /// No optimization: raw compile-time resolution.
    O0,
    /// *Optimized I*: vectorize read-only value streams (A.2).
    O1,
    /// *Optimized II*: + loop jamming — pipeline compute and send (A.3).
    O2,
    /// *Optimized III*: + strip mining with this block size (A.4).
    O3 {
        /// Rows per block of the pipelined new-value streams.
        blksize: usize,
    },
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptLevel::O0 => write!(f, "compile-time"),
            OptLevel::O1 => write!(f, "optimized I (vectorized)"),
            OptLevel::O2 => write!(f, "optimized II (jammed)"),
            OptLevel::O3 { blksize } => write!(f, "optimized III (blocked, b={blksize})"),
        }
    }
}

/// What the pipeline did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptReport {
    /// Send loops combined by vectorization.
    pub vectorized: usize,
    /// Producer/sender pairs fused by jamming.
    pub jammed: usize,
    /// Loops blocked by strip mining.
    pub stripped: usize,
}

/// Run the pipeline at the requested level.
pub fn optimize(prog: &SpmdProgram, level: OptLevel) -> (SpmdProgram, OptReport) {
    optimize_with_remarks(prog, level, &mut RemarkSink::new())
}

/// [`optimize`], additionally collecting each pass's Applied/Missed
/// remarks into `sink` (vectorize, then jam, then strip, as far as the
/// level runs them).
pub fn optimize_with_remarks(
    prog: &SpmdProgram,
    level: OptLevel,
    sink: &mut RemarkSink,
) -> (SpmdProgram, OptReport) {
    let mut report = OptReport::default();
    let mut out = prog.clone();
    if level == OptLevel::O0 {
        return (out, report);
    }
    let (v, n) = vectorize(&out, sink);
    out = v;
    report.vectorized = n;
    if level == OptLevel::O1 {
        return (out, report);
    }
    let (j, n) = jam(&out, sink);
    out = j;
    report.jammed = n;
    if level == OptLevel::O2 {
        return (out, report);
    }
    if let OptLevel::O3 { blksize } = level {
        let (s, n) = strip_mine(&out, blksize, sink);
        out = s;
        report.stripped = n;
    }
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_core::driver::{self, Inputs, Job, Strategy};
    use pdc_core::programs;
    use pdc_machine::CostModel;
    use pdc_spmd::run::SpmdMachine;
    use pdc_spmd::Scalar;

    struct Run {
        msgs: u64,
        makespan: u64,
        ok: bool,
    }

    fn run_level(n: usize, s: usize, level: OptLevel) -> Run {
        let program = programs::gauss_seidel();
        let job = Job::new(
            &program,
            "gs_iteration",
            programs::wavefront_decomposition(s),
        )
        .with_const("n", n as i64);
        let compiled = driver::compile(&job, Strategy::CompileTime).unwrap();
        let (opt, _) = optimize(&compiled.spmd, level);
        let mut m = SpmdMachine::new(&opt, CostModel::ipsc2()).unwrap();
        m.preset_var("n", Scalar::Int(n as i64));
        m.preload_array(
            "Old",
            pdc_mapping::Dist::ColumnCyclic,
            &driver::standard_input(n, n),
        );
        let out = m.run().unwrap();
        let gathered = m.gather("New").unwrap();
        let inputs = Inputs::new()
            .scalar("n", Scalar::Int(n as i64))
            .array("Old", driver::standard_input(n, n));
        let seq = driver::run_sequential(&program, "gs_iteration", &inputs).unwrap();
        Run {
            msgs: out.report.stats.network.messages,
            makespan: out.report.stats.makespan().0,
            ok: driver::first_mismatch(&gathered, &seq).is_none() && out.report.undelivered == 0,
        }
    }

    #[test]
    fn all_levels_compute_the_right_answer() {
        for s in [2usize, 3, 4] {
            for level in [
                OptLevel::O0,
                OptLevel::O1,
                OptLevel::O2,
                OptLevel::O3 { blksize: 3 },
            ] {
                let r = run_level(10, s, level);
                assert!(r.ok, "wrong result at s={s}, {level}");
            }
        }
    }

    #[test]
    fn each_level_reduces_messages_or_time() {
        let n = 16usize;
        let s = 4usize;
        let o0 = run_level(n, s, OptLevel::O0);
        let o1 = run_level(n, s, OptLevel::O1);
        let o2 = run_level(n, s, OptLevel::O2);
        let o3 = run_level(n, s, OptLevel::O3 { blksize: 4 });
        // Vectorizing the old columns removes many messages.
        assert!(o1.msgs < o0.msgs, "O1 {} vs O0 {}", o1.msgs, o0.msgs);
        assert!(o1.makespan < o0.makespan);
        // Jamming keeps message count but improves the pipeline.
        assert_eq!(o2.msgs, o1.msgs);
        assert!(
            o2.makespan < o1.makespan,
            "O2 {} vs O1 {}",
            o2.makespan,
            o1.makespan
        );
        // Blocking trades a few pipeline stalls for far fewer messages.
        assert!(o3.msgs < o2.msgs);
        assert!(
            o3.makespan < o2.makespan,
            "O3 {} vs O2 {}",
            o3.makespan,
            o2.makespan
        );
    }
}
