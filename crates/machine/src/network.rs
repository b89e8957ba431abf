//! Typed FIFO channels between processor pairs.

use crate::message::{Message, ProcId, Tag, Time, Word};
use crate::report::Ledger;
use std::collections::VecDeque;

/// "No channel" in the pair table and at the end of a pair's chain.
const NONE: u32 = u32::MAX;

/// One `(src, dst, tag)` FIFO.
#[derive(Debug)]
struct Channel {
    src: ProcId,
    dst: ProcId,
    tag: Tag,
    queue: VecDeque<Message>,
    /// Messages ever deposited — never decremented on take. Differential
    /// tests compare these counts across execution backends.
    delivered: u64,
    /// The next channel of the same `(src, dst)` pair, or [`NONE`].
    next: u32,
}

/// The interconnect: one FIFO queue per `(src, dst, tag)` triple.
///
/// Matching on a triple reproduces the Intel NX semantics the paper's
/// generated code relies on: `crecv(type, …)` consumes the oldest pending
/// message of that type from the named source. Because each communication
/// stream created by the compiler gets its own tag, FIFO order within a
/// triple is exactly program order on the sender.
///
/// Triples are interned on first delivery into a dense channel table: a
/// processor pair indexes the head of its (short) chain of tags, so
/// [`deliver`](Network::deliver), [`take`](Network::take) and
/// [`has_pending`](Network::has_pending) hash nothing and cost the same
/// on any machine size. Payload buffers handed back through
/// [`recycle`](Network::recycle) are reused by
/// [`deliver`](Network::deliver), so steady-state traffic
/// allocates nothing.
#[derive(Debug)]
pub(crate) struct Network {
    n: usize,
    /// Head of the channel chain of each ordered pair, at `src * n + dst`.
    heads: Vec<u32>,
    channels: Vec<Channel>,
    /// Messages queued right now, over all channels, and the most there
    /// ever were.
    in_flight: usize,
    max_in_flight: usize,
    /// Recycled payload buffers.
    free: Vec<Vec<Word>>,
}

impl Network {
    /// An empty interconnect between `n` processors.
    pub(crate) fn new(n: usize) -> Self {
        Network {
            n,
            heads: vec![NONE; n * n],
            channels: Vec::new(),
            in_flight: 0,
            max_in_flight: 0,
            free: Vec::new(),
        }
    }

    /// The channel of a triple, if anything was ever delivered on it.
    fn find(&self, src: ProcId, dst: ProcId, tag: Tag) -> Option<usize> {
        let mut at = *self.heads.get(src.0 * self.n + dst.0)?;
        while at != NONE {
            let ch = &self.channels[at as usize];
            if ch.tag == tag {
                return Some(at as usize);
            }
            at = ch.next;
        }
        None
    }

    /// The channel of a triple, interned if new.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is outside the machine.
    fn intern(&mut self, src: ProcId, dst: ProcId, tag: Tag) -> usize {
        if let Some(at) = self.find(src, dst, tag) {
            return at;
        }
        assert!(
            src.0 < self.n && dst.0 < self.n,
            "{src} -> {dst} is outside the machine"
        );
        let at = self.channels.len();
        let head = &mut self.heads[src.0 * self.n + dst.0];
        self.channels.push(Channel {
            src,
            dst,
            tag,
            queue: VecDeque::new(),
            delivered: 0,
            next: *head,
        });
        *head = u32::try_from(at).expect("fewer than 2^32 channels");
        at
    }

    /// Deposit a copy of `payload` — made in a recycled buffer when one
    /// is free — on `(src, dst, tag)`, carrying the arrival stamp the
    /// sending processor computed.
    pub(crate) fn deliver(
        &mut self,
        src: ProcId,
        dst: ProcId,
        tag: Tag,
        payload: &[Word],
        arrives_at: Time,
    ) {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(payload);
        let at = self.intern(src, dst, tag);
        let ch = &mut self.channels[at];
        ch.delivered += 1;
        ch.queue.push_back(Message {
            payload: buf,
            arrives_at,
        });
        self.in_flight += 1;
        self.max_in_flight = self.max_in_flight.max(self.in_flight);
    }

    /// Hand back the payload buffer of a consumed message for reuse.
    pub(crate) fn recycle(&mut self, buf: Vec<Word>) {
        self.free.push(buf);
    }

    /// Pop the oldest message matching `(src, dst, tag)`, if any.
    pub(crate) fn take(&mut self, src: ProcId, dst: ProcId, tag: Tag) -> Option<Message> {
        let at = self.find(src, dst, tag)?;
        let msg = self.channels[at].queue.pop_front()?;
        self.in_flight -= 1;
        Some(msg)
    }

    /// Is a matching message pending?
    pub(crate) fn has_pending(&self, src: ProcId, dst: ProcId, tag: Tag) -> bool {
        self.find(src, dst, tag)
            .is_some_and(|at| !self.channels[at].queue.is_empty())
    }

    /// Number of messages currently queued (all triples).
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// High-water mark of simultaneously queued messages.
    pub(crate) fn max_in_flight(&self) -> u64 {
        self.max_in_flight as u64
    }

    /// Cumulative messages deposited and consumed per `(src, dst, tag)`
    /// channel — the raw simulator's traffic ledger. (A discarded message
    /// counts as consumed; discards only happen under the protocol, whose
    /// own ledger is the one reported.)
    pub(crate) fn ledger(&self) -> Ledger {
        let counts = |of: fn(&Channel) -> u64| {
            self.channels
                .iter()
                .map(|ch| ((ch.src, ch.dst, ch.tag), of(ch)))
                .collect()
        };
        Ledger {
            sent: counts(|ch| ch.delivered),
            recvd: counts(|ch| ch.delivered - ch.queue.len() as u64),
            ..Ledger::default()
        }
    }

    /// The `(src, tag)` of every channel with messages queued for `dst`,
    /// in no particular order.
    pub(crate) fn waiting_for(&self, dst: ProcId) -> impl Iterator<Item = (ProcId, Tag)> + '_ {
        self.channels
            .iter()
            .filter(move |ch| ch.dst == dst && !ch.queue.is_empty())
            .map(|ch| (ch.src, ch.tag))
    }

    /// Drop the queued messages of every channel `doomed` selects,
    /// returning how many were discarded. The cumulative counts are *not*
    /// rewound — deliveries happened, recovery merely invalidates them.
    fn discard(&mut self, doomed: impl Fn(&Channel) -> bool) -> usize {
        let mut dropped = 0;
        for ch in self.channels.iter_mut().filter(|ch| doomed(ch)) {
            dropped += ch.queue.len();
            self.free.extend(ch.queue.drain(..).map(|m| m.payload));
        }
        self.in_flight -= dropped;
        dropped
    }

    /// Drop every queued message destined for `dst`, returning how many
    /// were discarded. Used by crash recovery: frames in flight toward a
    /// crashed processor are addressed to its dead incarnation and must
    /// not survive into the restored one (the reliable layer's
    /// retransmit path regenerates them).
    pub(crate) fn discard_to(&mut self, dst: ProcId) -> usize {
        self.discard(|ch| ch.dst == dst)
    }

    /// Drop every queued message (all triples), returning how many were
    /// discarded. Used by coordinated-checkpoint recovery, where the
    /// whole machine rolls back to a consistent cut and deterministic
    /// re-execution regenerates all in-flight traffic.
    pub(crate) fn discard_all(&mut self) -> usize {
        self.discard(|_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(n: &mut Network, src: usize, dst: usize, tag: u32, payload: &[Word]) {
        n.deliver(ProcId(src), ProcId(dst), Tag(tag), payload, Time::ZERO);
    }

    #[test]
    fn fifo_within_triple() {
        let mut n = Network::new(2);
        deliver(&mut n, 0, 1, 5, &[10]);
        deliver(&mut n, 0, 1, 5, &[20]);
        assert_eq!(n.take(ProcId(0), ProcId(1), Tag(5)).unwrap().payload, [10]);
        assert_eq!(n.take(ProcId(0), ProcId(1), Tag(5)).unwrap().payload, [20]);
        assert!(n.take(ProcId(0), ProcId(1), Tag(5)).is_none());
    }

    #[test]
    fn tags_are_independent_streams() {
        let mut n = Network::new(2);
        deliver(&mut n, 0, 1, 1, &[100]);
        deliver(&mut n, 0, 1, 2, &[200]);
        // Taking tag 2 first does not disturb tag 1.
        assert_eq!(n.take(ProcId(0), ProcId(1), Tag(2)).unwrap().payload, [200]);
        assert_eq!(n.take(ProcId(0), ProcId(1), Tag(1)).unwrap().payload, [100]);
    }

    #[test]
    fn messages_carry_their_stamp_and_count_in_flight() {
        let mut n = Network::new(2);
        n.deliver(ProcId(0), ProcId(1), Tag(0), &[1, 2, 3], Time(8));
        deliver(&mut n, 1, 0, 0, &[9]);
        assert_eq!(n.max_in_flight(), 2);
        assert_eq!(n.in_flight(), 2);
        let msg = n.take(ProcId(0), ProcId(1), Tag(0)).unwrap();
        assert_eq!(msg.arrives_at, Time(8));
        assert_eq!(msg.payload, [1, 2, 3]);
    }

    #[test]
    fn counters_follow_takes_and_discards() {
        let mut n = Network::new(3);
        for tag in [7, 7, 1 << 31, 2] {
            deliver(&mut n, 0, 1, tag, &[0]);
        }
        deliver(&mut n, 2, 1, 7, &[0]);
        deliver(&mut n, 1, 0, 7, &[0]);
        assert_eq!(n.in_flight(), 6);
        assert!(n.has_pending(ProcId(0), ProcId(1), Tag(1 << 31)));
        assert!(!n.has_pending(ProcId(0), ProcId(2), Tag(7)));
        assert!(n.take(ProcId(0), ProcId(1), Tag(3)).is_none());
        let taken = n.take(ProcId(0), ProcId(1), Tag(7)).unwrap();
        assert_eq!(n.in_flight(), 5);
        let Ledger { sent, recvd, .. } = n.ledger();
        assert_eq!(sent[&(ProcId(0), ProcId(1), Tag(7))], 2);
        assert_eq!(recvd[&(ProcId(0), ProcId(1), Tag(7))], 1);
        assert_eq!(recvd[&(ProcId(2), ProcId(1), Tag(7))], 0);
        let mut waiting: Vec<_> = n.waiting_for(ProcId(1)).collect();
        waiting.sort();
        let expected = [
            (ProcId(0), Tag(2)),
            (ProcId(0), Tag(7)),
            (ProcId(0), Tag(1 << 31)),
            (ProcId(2), Tag(7)),
        ];
        assert_eq!(waiting, expected);
        assert_eq!(n.discard_to(ProcId(1)), 4);
        assert_eq!(n.in_flight(), 1);
        assert_eq!(n.waiting_for(ProcId(1)).count(), 0);
        assert_eq!(
            n.waiting_for(ProcId(0)).collect::<Vec<_>>(),
            [(ProcId(1), Tag(7))]
        );
        assert_eq!(n.discard_all(), 1);
        assert_eq!(n.in_flight(), 0);
        // Cumulative counts and the high-water mark are not rewound.
        assert_eq!(n.ledger().sent.values().sum::<u64>(), 6);
        assert_eq!(n.max_in_flight(), 6);
        // A recycled buffer carries exactly the new payload.
        n.recycle(taken.payload);
        deliver(&mut n, 0, 1, 7, &[5, 6]);
        assert_eq!(
            n.take(ProcId(0), ProcId(1), Tag(7)).unwrap().payload,
            [5, 6]
        );
    }
}
