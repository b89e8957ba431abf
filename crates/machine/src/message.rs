//! Identifiers, simulated time, and the message record.

use std::fmt;

/// Index of a processor, `0 .. n`.
///
/// Printed as `P<k>`; the paper numbers processors `P1, P2, …` but all
/// arithmetic in the mapping functions is zero-based (`j mod S`), so we keep
/// zero-based ids throughout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub usize);

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Message type, in the sense of the Intel NX `csend(type, …)` argument.
///
/// The compiler assigns a distinct tag to each (statement, operand) stream
/// so that pipelined streams between the same pair of processors cannot
/// interleave incorrectly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag(pub u32);

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Simulated time, in abstract machine cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time(pub u64);

impl Time {
    /// The origin of simulated time.
    pub const ZERO: Time = Time(0);

    /// Saturating addition of a cost.
    pub fn plus(self, cycles: u64) -> Time {
        Time(self.0.saturating_add(cycles))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

/// One machine word of payload. Values of the source language are encoded
/// into words by the SPMD layer (integers directly, floats via their bit
/// pattern).
pub type Word = i64;

/// A message queued on its `(src, dst, tag)` channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Message {
    /// Payload words.
    pub payload: Vec<Word>,
    /// Time the message becomes visible at the destination.
    pub arrives_at: Time,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(ProcId(3).to_string(), "P3");
        assert_eq!(Tag(9).to_string(), "t9");
        assert_eq!(Time(12).to_string(), "12cy");
    }

    #[test]
    fn time_plus_saturates() {
        assert_eq!(Time(5).plus(7), Time(12));
        assert_eq!(Time(u64::MAX).plus(1), Time(u64::MAX));
    }
}
