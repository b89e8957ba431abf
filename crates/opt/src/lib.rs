//! The message-passing optimizations of §4 and Appendix A.
//!
//! Compile-time resolution produces code that is specialized but
//! communicates one element per message; on an iPSC/2-class machine,
//! where message start-up dominates, that is disastrous. The paper
//! obtains the handwritten program's performance by applying three
//! classical transformations to the generated code:
//!
//! * **vectorization** ([`mod@vectorize`]) — Appendix A.2, *Optimized I*:
//!   element-wise sends of a *read-only* array (the `Old` values, which
//!   "are not changed during the execution of the loop") combine into one
//!   message per column; the matching receives become one block receive;
//! * **loop jamming** ([`mod@jam`]) — Appendix A.3, *Optimized II*: the
//!   send loop for freshly computed values fuses into the loop that
//!   computes them, so "new values are sent off as soon as they are
//!   computed" — this is what releases the wavefront parallelism;
//! * **strip mining** ([`strip_mine`]) — Appendix A.4, *Optimized III*:
//!   the fused compute/send loop is blocked so new values travel in
//!   blocks of `blksize`, "a compromise between decreasing the number of
//!   messages and exploiting parallelism";
//! * **loop interchange** ([`mod@interchange`]) — §4's closing remark: a
//!   source program whose loops run against the distribution is
//!   interchanged so the iteration order aligns with the mapping.
//!
//! The first three are IR-to-IR passes applied *uniformly* to every
//! processor's code, which keeps both sides of each tagged communication
//! stream consistent. Each pass consults the exact dependence framework
//! in [`pdc_depend`] for its legality conditions and leaves non-matching
//! code untouched; [`OptReport`] records what fired, and every Applied or
//! Missed remark carries the witnessing legality fact (a direction
//! vector, a read-only proof, or the blocking dependence).

/// Canonical-form subscript algebra, re-exported from the dependence
/// framework so existing `pdc_opt::canon::…` paths keep working.
pub use pdc_depend::canon;
pub mod interchange;
pub mod jam;
pub mod pipeline;
pub mod strip;
pub mod vectorize;

pub use interchange::interchange;
pub use jam::jam;
pub use pipeline::{optimize, optimize_with_remarks, OptLevel, OptReport};
pub use strip::strip_mine;
pub use vectorize::vectorize;
