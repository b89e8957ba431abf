//! The machine cost model.

/// Cycle costs charged by the simulator for each kind of action.
///
/// The defaults ([`CostModel::ipsc2`]) put the machine in the regime the
/// paper describes: *"Message-passing systems typically take hundreds to
/// thousands of cycles to deliver messages"* (§1), with a large fixed
/// start-up cost per message and a small per-word cost — the property that
/// makes message combining (§4) profitable.
///
/// All costs are in abstract cycles; only ratios matter for the shape of
/// the reproduced figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// One arithmetic/logical operation.
    pub alu_op: u64,
    /// One local memory access (scalar load/store).
    pub mem_op: u64,
    /// One I-structure read or write (tag check + access).
    pub istruct_op: u64,
    /// Loop bookkeeping per iteration (increment, compare, branch).
    pub loop_overhead: u64,
    /// Fixed cost paid by the sender per message (packing + system call).
    pub send_startup: u64,
    /// Additional sender cost per payload word.
    pub send_per_word: u64,
    /// Network transit time from send completion to availability at the
    /// destination; identical for every processor pair (§2.2).
    pub flight: u64,
    /// Fixed cost paid by the receiver per message (unpacking).
    pub recv_overhead: u64,
    /// Additional receiver cost per payload word.
    pub recv_per_word: u64,
}

impl CostModel {
    /// Parameters calibrated to the Intel iPSC/2 regime: message start-up
    /// about three orders of magnitude above an ALU operation.
    ///
    /// The real iPSC/2 had a ~350 µs small-message latency against ~0.1 µs
    /// instruction times; we use 1,000 cycles of sender start-up plus 400
    /// cycles of receiver overhead and 100 cycles of flight so a one-word
    /// round trip costs ≈1,500 cycles.
    pub fn ipsc2() -> Self {
        CostModel {
            alu_op: 1,
            mem_op: 1,
            istruct_op: 3,
            loop_overhead: 2,
            send_startup: 1000,
            send_per_word: 2,
            flight: 100,
            recv_overhead: 400,
            recv_per_word: 2,
        }
    }

    /// A zero-cost model: every action is free. Useful when only message
    /// *counts* are of interest (the footnote-3 table) or when testing VM
    /// semantics independently of timing.
    pub fn zero() -> Self {
        CostModel {
            alu_op: 0,
            mem_op: 0,
            istruct_op: 0,
            loop_overhead: 0,
            send_startup: 0,
            send_per_word: 0,
            flight: 0,
            recv_overhead: 0,
            recv_per_word: 0,
        }
    }

    /// A shared-memory-like regime: non-local access costs tens of cycles
    /// (§1: *"the cost of accessing a non-local data item is on the order
    /// of tens of cycles"*). Used by the ablation bench that asks whether
    /// the optimizations still matter when messages are cheap.
    pub fn shared_memory() -> Self {
        CostModel {
            alu_op: 1,
            mem_op: 1,
            istruct_op: 3,
            loop_overhead: 2,
            send_startup: 20,
            send_per_word: 1,
            flight: 5,
            recv_overhead: 10,
            recv_per_word: 1,
        }
    }

    /// Sender-side cost of a message of `words` payload words.
    pub fn send_cost(&self, words: usize) -> u64 {
        self.send_startup + self.send_per_word * words as u64
    }

    /// Receiver-side cost of a message of `words` payload words.
    pub fn recv_cost(&self, words: usize) -> u64 {
        self.recv_overhead + self.recv_per_word * words as u64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::ipsc2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipsc2_is_startup_dominated() {
        let c = CostModel::ipsc2();
        // Sending 100 one-word messages must cost much more than one
        // 100-word message — the premise of the vectorization optimization.
        let many = 100 * c.send_cost(1);
        let one = c.send_cost(100);
        assert!(many > 10 * one);
    }

    #[test]
    fn zero_model_is_free() {
        let c = CostModel::zero();
        assert_eq!(c.send_cost(1000), 0);
        assert_eq!(c.recv_cost(1000), 0);
    }

    #[test]
    fn default_is_ipsc2() {
        assert_eq!(CostModel::default(), CostModel::ipsc2());
    }

    #[test]
    fn shared_memory_messages_are_cheap() {
        let sm = CostModel::shared_memory();
        let mp = CostModel::ipsc2();
        assert!(sm.send_cost(1) * 10 < mp.send_cost(1));
    }
}
