//! Lock-free SPSC word rings: the threaded backend's interconnect.
//!
//! The first threaded backend moved every message through
//! `std::sync::mpsc` — one heap-allocated `Vec<Word>` plus one channel
//! node per send, and one futex wake per message. On the fine-grained
//! wavefront traffic the paper's decompositions generate (§4: send each
//! value as soon as it is produced), that overhead dwarfs the payload
//! work and the threaded backend *loses* to the sequential simulator.
//!
//! This module replaces the channel with the classic single-producer /
//! single-consumer ring buffer:
//!
//! * one preallocated power-of-two ring of raw `u64` words per ordered
//!   `(src, dst)` processor pair — no allocation on the wire, ever;
//! * head and tail indices on separate cache lines (`CachePadded`),
//!   each written by exactly one side, read by the other through a
//!   cached copy that is only refreshed on apparent-full / apparent-
//!   empty, so the steady state is plain loads and stores;
//! * *batched publication*: a frame's words are copied in and the tail
//!   is published once per frame (or once per chunk when the frame must
//!   be split around a full ring), not once per word;
//! * *wakeup batching* through a [`Doorbell`]: consumers park on their
//!   doorbell only after re-checking every inbox, and producers ring it
//!   with a single atomic load in the fast path — a parked peer costs
//!   one `unpark`, a running peer costs no syscall at all.
//!
//! # Wire frame layout
//!
//! Messages travel as flat frames of `u64` words:
//!
//! ```text
//! w0: (payload_len << 32) | tag
//! w1: arrival stamp (logical Time)
//! w2..: payload words
//! ```
//!
//! Source and destination are implied by ring identity (there is one
//! ring per ordered pair), so no addressing bytes travel at all. The
//! consumer reassembles frames incrementally — a frame larger than the
//! ring is streamed through it chunk by chunk.

use crate::message::Word;
use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::Instant;

/// Pad-and-align wrapper keeping one atomic per cache line, so the
/// producer's tail writes never invalidate the consumer's head line.
/// 128 bytes covers the adjacent-line prefetcher on x86 and the 128-byte
/// lines on some aarch64 parts.
#[repr(align(128))]
#[derive(Debug, Default)]
struct CachePadded<T>(T);

/// Shared core of one ring: the buffer plus the two monotone positions.
/// `head` is written only by the consumer, `tail` only by the producer;
/// both grow without bound and are reduced mod capacity via `mask`.
#[derive(Debug)]
struct RingCore {
    mask: u64,
    buf: Box<[UnsafeCell<u64>]>,
    /// Consumer position: everything below it has been read.
    head: CachePadded<AtomicU64>,
    /// Producer position: everything below it has been published.
    tail: CachePadded<AtomicU64>,
}

// One side writes a slot strictly before publishing it via `tail`
// (Release) and the other reads it strictly after observing that publish
// (Acquire), so no slot is ever accessed concurrently.
unsafe impl Send for RingCore {}
unsafe impl Sync for RingCore {}

/// Producer half of a word ring. `!Clone` — exactly one producer.
#[derive(Debug)]
pub struct RingTx {
    core: Arc<RingCore>,
    /// Local copy of the producer position (authoritative).
    tail: u64,
    /// Last observed consumer position; refreshed only when the ring
    /// looks full, so steady-state pushes never touch the head line.
    cached_head: u64,
}

/// Consumer half of a word ring. `!Clone` — exactly one consumer.
#[derive(Debug)]
pub struct RingRx {
    core: Arc<RingCore>,
    /// Local copy of the consumer position (authoritative).
    head: u64,
    /// Last observed producer position; refreshed only when the ring
    /// looks empty.
    cached_tail: u64,
}

/// A preallocated SPSC ring of `capacity` raw words. `capacity` must be
/// a power of two (and at least 8 so a frame header always fits).
///
/// # Panics
///
/// Panics on a non-power-of-two or undersized capacity.
pub fn ring(capacity: usize) -> (RingTx, RingRx) {
    assert!(
        capacity.is_power_of_two() && capacity >= 8,
        "ring capacity must be a power of two >= 8, got {capacity}"
    );
    let core = Arc::new(RingCore {
        mask: capacity as u64 - 1,
        buf: (0..capacity).map(|_| UnsafeCell::new(0)).collect(),
        head: CachePadded(AtomicU64::new(0)),
        tail: CachePadded(AtomicU64::new(0)),
    });
    (
        RingTx {
            core: Arc::clone(&core),
            tail: 0,
            cached_head: 0,
        },
        RingRx {
            core,
            head: 0,
            cached_tail: 0,
        },
    )
}

impl RingTx {
    /// Word capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.core.buf.len()
    }

    /// Free slots, refreshing the cached head if the ring looks full.
    fn free(&mut self) -> usize {
        let cap = self.core.buf.len() as u64;
        if self.tail - self.cached_head == cap {
            self.cached_head = self.core.head.0.load(Ordering::Acquire);
        }
        (cap - (self.tail - self.cached_head)) as usize
    }

    /// Words currently queued (produced but not yet consumed), from the
    /// producer's point of view: one Acquire load of the live head, no
    /// cache update. Metrics probe — the consumer may already have
    /// drained what this reports.
    pub fn occupancy(&self) -> u64 {
        self.tail - self.core.head.0.load(Ordering::Acquire)
    }

    /// Copy as many leading words of `words` into the ring as fit and
    /// publish them with a single Release store. Returns how many were
    /// written (possibly zero).
    pub fn push(&mut self, words: &[u64]) -> usize {
        let k = self.free().min(words.len());
        if k == 0 {
            return 0;
        }
        for (i, &w) in words[..k].iter().enumerate() {
            let slot = ((self.tail + i as u64) & self.core.mask) as usize;
            // SAFETY: slots in [tail, tail+k) are unpublished and owned
            // by the producer until the Release store below.
            unsafe { *self.core.buf[slot].get() = w };
        }
        self.tail += k as u64;
        self.core.tail.0.store(self.tail, Ordering::Release);
        k
    }
}

impl RingRx {
    /// Words available to read, refreshing the cached tail if the ring
    /// looks empty.
    fn available(&mut self) -> usize {
        if self.cached_tail == self.head {
            self.cached_tail = self.core.tail.0.load(Ordering::Acquire);
        }
        (self.cached_tail - self.head) as usize
    }

    /// Read one word without publishing the consumed slot yet; callers
    /// batch the head publication via [`commit`](RingRx::commit).
    fn pop(&mut self) -> u64 {
        debug_assert!(self.cached_tail > self.head);
        let slot = (self.head & self.core.mask) as usize;
        // SAFETY: slots below the Acquire-observed tail are published
        // and owned by the consumer until `commit` releases them.
        let w = unsafe { *self.core.buf[slot].get() };
        self.head += 1;
        w
    }

    /// Publish every slot consumed so far back to the producer.
    fn commit(&mut self) {
        self.core.head.0.store(self.head, Ordering::Release);
    }
}

const BELL_EMPTY: u32 = 0;
const BELL_PARKED: u32 = 1;
const BELL_NOTIFIED: u32 = 2;

/// Wakeup batching: one doorbell per endpoint, rung by peers after they
/// publish work (frames or a status change) for it.
///
/// The consumer protocol is: [`prepare`](Doorbell::prepare), then
/// re-check every wake source (inboxes *and* peer statuses), then either
/// [`cancel`](Doorbell::cancel) (something arrived) or
/// [`park_until`](Doorbell::park_until). The producer's
/// [`ring`](Doorbell::ring) and the consumer's `prepare` both issue
/// `SeqCst` fences, so at least one side observes the other — a publish
/// concurrent with an arming either gets consumed by the re-check or
/// wakes the park. Missed wakeups are therefore impossible, and parks
/// always carry a deadline anyway.
#[derive(Debug, Default)]
pub struct Doorbell {
    state: AtomicU32,
    owner: OnceLock<Thread>,
}

impl Doorbell {
    /// A fresh, unowned doorbell.
    pub fn new() -> Self {
        Doorbell::default()
    }

    /// Bind the doorbell to the calling thread. Must be called by the
    /// owning thread before its first `park_until`.
    pub fn register(&self) {
        let _ = self.owner.set(std::thread::current());
    }

    /// Ring the bell: wake the owner iff it is parked (or about to
    /// park). Fast path for a running owner is one atomic load.
    pub fn ring(&self) {
        fence(Ordering::SeqCst);
        if self.state.load(Ordering::SeqCst) == BELL_PARKED
            && self.state.swap(BELL_NOTIFIED, Ordering::SeqCst) == BELL_PARKED
        {
            if let Some(t) = self.owner.get() {
                t.unpark();
            }
        }
    }

    /// Arm the bell before the pre-park re-check.
    pub fn prepare(&self) {
        self.state.store(BELL_PARKED, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// Disarm without parking (the re-check found work).
    pub fn cancel(&self) {
        self.state.store(BELL_EMPTY, Ordering::SeqCst);
    }

    /// Park the owning thread until `deadline`, a ring, or a spurious
    /// wakeup — whichever comes first. The caller loops and re-checks
    /// its wake sources regardless of why it woke.
    pub fn park_until(&self, deadline: Instant) {
        if self.state.load(Ordering::SeqCst) == BELL_PARKED {
            let now = Instant::now();
            if deadline > now {
                std::thread::park_timeout(deadline - now);
            }
        }
        self.state.store(BELL_EMPTY, Ordering::SeqCst);
    }
}

/// Encode a frame header: `(payload_len << 32) | tag`.
fn header(tag: u32, len: usize) -> u64 {
    debug_assert!(len < (1 << 32), "payload too large for a frame header");
    ((len as u64) << 32) | tag as u64
}

/// Producer end of one directed processor pair: frames in, words out.
#[derive(Debug)]
pub struct FrameTx {
    tx: RingTx,
}

impl FrameTx {
    /// Wrap a ring producer.
    pub fn new(tx: RingTx) -> Self {
        FrameTx { tx }
    }

    /// Words currently queued in the underlying ring (metrics probe;
    /// see [`RingTx::occupancy`]).
    pub fn occupancy(&self) -> u64 {
        self.tx.occupancy()
    }

    /// Write one `[header, arrives, payload…]` frame, blocking through
    /// `stall` while the ring is full. `stall` is the caller's "make
    /// progress" hook — ring the peer's doorbell, drain own inboxes (a
    /// mutually-full pair would otherwise deadlock), yield — and returns
    /// `false` to abandon the send (the peer is gone and will never
    /// drain this ring again; a half-written frame is then harmless
    /// because nobody reads it). Returns whether the frame was fully
    /// published.
    pub fn send(
        &mut self,
        tag: u32,
        arrives: u64,
        payload: &[Word],
        mut stall: impl FnMut() -> bool,
    ) -> bool {
        let hdr = [header(tag, payload.len()), arrives];
        // Fast path: everything fits — one copy, one publication.
        if self.tx.free() >= 2 + payload.len() {
            let mut k = self.tx.push(&hdr);
            debug_assert_eq!(k, 2);
            // Word is i64 on the program side; the wire carries raw bits.
            for chunk in payload.chunks(64) {
                let words: Vec<u64> = chunk.iter().map(|&w| w as u64).collect();
                k = self.tx.push(&words);
                debug_assert_eq!(k, chunk.len());
            }
            return true;
        }
        // Slow path: stream the frame through chunk by chunk.
        let mut done = 0;
        while done < 2 {
            done += self.tx.push(&hdr[done..]);
            if done < 2 && !stall() {
                return false;
            }
        }
        let mut off = 0;
        let mut scratch = [0u64; 64];
        while off < payload.len() {
            let n = (payload.len() - off).min(scratch.len());
            for (s, &w) in scratch.iter_mut().zip(&payload[off..off + n]) {
                *s = w as u64;
            }
            let mut written = 0;
            while written < n {
                written += self.tx.push(&scratch[written..n]);
                if written < n && !stall() {
                    return false;
                }
            }
            off += n;
        }
        true
    }
}

/// In-progress frame on the consumer side: a frame may arrive split
/// across several publishes (or several drain calls) when it is larger
/// than the free space — or the whole ring.
#[derive(Debug)]
struct Partial {
    tag: u32,
    arrives: u64,
    remaining: usize,
    words: Vec<Word>,
}

/// Consumer end of one directed processor pair: words in, frames out.
#[derive(Debug)]
pub struct FrameRx {
    rx: RingRx,
    /// A header word read while its arrival stamp was still in flight.
    pending_hdr: Option<u64>,
    /// Frame under reassembly.
    cur: Option<Partial>,
}

impl FrameRx {
    /// Wrap a ring consumer.
    pub fn new(rx: RingRx) -> Self {
        FrameRx {
            rx,
            pending_hdr: None,
            cur: None,
        }
    }

    /// Drain every fully-arrived frame, handing each to `deliver` as
    /// `(tag, arrives, payload)`. Payload buffers come from `pool`.
    /// Returns the number of frames delivered; consumed slots are
    /// published back to the producer once per call.
    pub fn drain(
        &mut self,
        pool: &mut BufPool,
        mut deliver: impl FnMut(u32, u64, Vec<Word>),
    ) -> usize {
        let mut delivered = 0;
        loop {
            let mut avail = self.rx.available();
            if avail == 0 {
                break;
            }
            if self.cur.is_none() {
                if self.pending_hdr.is_none() {
                    self.pending_hdr = Some(self.rx.pop());
                    avail -= 1;
                    if avail == 0 {
                        continue; // re-poll for the arrival stamp
                    }
                }
                let w0 = self.pending_hdr.take().expect("header just read");
                let arrives = self.rx.pop();
                avail -= 1;
                let len = (w0 >> 32) as usize;
                let mut words = pool.get();
                words.reserve(len);
                self.cur = Some(Partial {
                    tag: w0 as u32,
                    arrives,
                    remaining: len,
                    words,
                });
            }
            let p = self.cur.as_mut().expect("frame in progress");
            let take = avail.min(p.remaining);
            for _ in 0..take {
                p.words.push(self.rx.pop() as Word);
            }
            p.remaining -= take;
            if p.remaining == 0 {
                let done = self.cur.take().expect("frame complete");
                deliver(done.tag, done.arrives, done.words);
                delivered += 1;
            }
        }
        self.rx.commit();
        delivered
    }
}

/// Recycler for payload buffers: the consume path returns spent `Vec`s
/// here and the reassembly path reuses them, so steady-state traffic
/// allocates nothing.
#[derive(Debug, Default)]
pub struct BufPool {
    free: Vec<Vec<Word>>,
}

/// Buffers retained per endpoint; beyond this, returns are dropped.
const POOL_CAP: usize = 256;

impl BufPool {
    /// An empty pool.
    pub fn new() -> Self {
        BufPool::default()
    }

    /// A cleared buffer, recycled if one is available.
    pub fn get(&mut self) -> Vec<Word> {
        self.free.pop().unwrap_or_default()
    }

    /// Return a spent buffer for reuse.
    pub fn put(&mut self, mut buf: Vec<Word>) {
        if self.free.len() < POOL_CAP {
            buf.clear();
            self.free.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn collect(rx: &mut FrameRx, pool: &mut BufPool) -> Vec<(u32, u64, Vec<Word>)> {
        let mut out = Vec::new();
        rx.drain(pool, |tag, at, words| out.push((tag, at, words)));
        out
    }

    #[test]
    fn rejects_bad_capacities() {
        for cap in [0, 3, 6, 12, 100] {
            assert!(std::panic::catch_unwind(|| ring(cap)).is_err(), "{cap}");
        }
        let (tx, _rx) = ring(8);
        assert_eq!(tx.capacity(), 8);
    }

    #[test]
    fn words_round_trip_in_order() {
        let (mut tx, mut rx) = ring(16);
        assert_eq!(tx.push(&[1, 2, 3]), 3);
        rx.cached_tail = rx.core.tail.0.load(Ordering::Acquire);
        assert_eq!(rx.available(), 3);
        assert_eq!(rx.pop(), 1);
        assert_eq!(rx.pop(), 2);
        assert_eq!(rx.pop(), 3);
        rx.commit();
        assert_eq!(rx.available(), 0);
    }

    #[test]
    fn push_fills_to_capacity_boundary_and_no_further() {
        let (mut tx, mut rx) = ring(8);
        let words: Vec<u64> = (0..10).collect();
        // Exactly capacity words fit; the rest are refused.
        assert_eq!(tx.push(&words), 8);
        assert_eq!(tx.push(&[99]), 0, "full ring accepts nothing");
        // Free one slot: exactly one more fits.
        assert_eq!(rx.available(), 8);
        assert_eq!(rx.pop(), 0);
        rx.commit();
        assert_eq!(tx.push(&[99, 100]), 1);
        let mut got = Vec::new();
        while got.len() < 8 {
            // `available` refreshes the cached tail; `pop` alone must only
            // be called while it reports words outstanding.
            while rx.available() > 0 {
                got.push(rx.pop());
            }
            rx.commit();
        }
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6, 7, 99]);
    }

    #[test]
    fn wraparound_preserves_order_across_many_laps() {
        let (mut tx, mut rx) = ring(8);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        // 1000 words through an 8-slot ring: >120 wraps.
        while next_out < 1000 {
            while next_in < 1000 && tx.push(&[next_in]) == 1 {
                next_in += 1;
            }
            while rx.available() > 0 {
                assert_eq!(rx.pop(), next_out);
                next_out += 1;
            }
            rx.commit();
        }
        assert_eq!(next_in, 1000);
    }

    #[test]
    fn frames_round_trip_through_small_ring() {
        // Ring smaller than the frame: send must chunk, drain must
        // reassemble across partial reads.
        let (tx, rx) = ring(8);
        let mut ftx = FrameTx::new(tx);
        let mut frx = FrameRx::new(rx);
        let mut pool = BufPool::new();
        let payload: Vec<Word> = (0..50).map(|i| i - 25).collect();
        let mut done = false;
        let mut got = Vec::new();
        // Single-threaded: the stall hook drains the consumer side.
        let sent = {
            let got = &mut got;
            let done = &mut done;
            ftx.send(7, 42, &payload, || {
                frx.drain(&mut pool, |tag, at, words| {
                    assert_eq!((tag, at), (7, 42));
                    got.extend(words);
                    *done = true;
                });
                true
            })
        };
        assert!(sent);
        frx.drain(&mut pool, |tag, at, words| {
            assert_eq!((tag, at), (7, 42));
            got.extend(words);
            done = true;
        });
        assert!(done);
        assert_eq!(got, payload);
    }

    #[test]
    fn many_frames_with_distinct_tags_and_stamps() {
        let (tx, rx) = ring(64);
        let mut ftx = FrameTx::new(tx);
        let mut frx = FrameRx::new(rx);
        let mut pool = BufPool::new();
        let mut expect = Vec::new();
        for i in 0..200u64 {
            let payload: Vec<Word> = (0..(i % 7) as Word).collect();
            expect.push((i as u32, i * 3, payload.clone()));
            assert!(ftx.send(i as u32, i * 3, &payload, || {
                // Ring full mid-burst: drain into a side buffer.
                true
            }));
            if i % 5 == 4 {
                for (tag, at, words) in collect(&mut frx, &mut pool) {
                    let (etag, eat, ewords) = expect.remove(0);
                    assert_eq!((tag, at, &words), (etag, eat, &ewords));
                    pool.put(words);
                }
            }
        }
        for (tag, at, words) in collect(&mut frx, &mut pool) {
            let (etag, eat, ewords) = expect.remove(0);
            assert_eq!((tag, at, &words), (etag, eat, &ewords));
        }
        assert!(expect.is_empty());
    }

    #[test]
    fn empty_payload_frames_carry_header_only() {
        let (tx, rx) = ring(8);
        let mut ftx = FrameTx::new(tx);
        let mut frx = FrameRx::new(rx);
        let mut pool = BufPool::new();
        let mut got = Vec::new();
        // Drain every third send: an 8-word ring holds at most four
        // header-only frames, so the producer alone would wedge.
        for i in 0..20 {
            assert!(ftx.send(3, i, &[], || true));
            if i % 3 == 0 {
                frx.drain(&mut pool, |tag, at, words| got.push((tag, at, words)));
            }
        }
        got.extend(collect(&mut frx, &mut pool));
        assert_eq!(got.len(), 20);
        for (i, (tag, at, words)) in got.into_iter().enumerate() {
            assert_eq!((tag, at), (3, i as u64));
            assert!(words.is_empty());
        }
    }

    #[test]
    fn abandoned_send_returns_false_when_stall_gives_up() {
        let (tx, _rx) = ring(8);
        let mut ftx = FrameTx::new(tx);
        let payload: Vec<Word> = (0..100).collect();
        let mut stalls = 0;
        assert!(!ftx.send(1, 0, &payload, || {
            stalls += 1;
            false
        }));
        assert_eq!(stalls, 1, "gives up on the first refused stall");
    }

    #[test]
    fn cross_thread_stream_is_fifo_and_complete() {
        let (tx, rx) = ring(32);
        let mut ftx = FrameTx::new(tx);
        let mut frx = FrameRx::new(rx);
        let bell = Arc::new(Doorbell::new());
        let bell2 = Arc::clone(&bell);
        const N: u64 = 5_000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let payload: Vec<Word> = (0..(i % 11) as Word).map(|w| w + i as Word).collect();
                assert!(ftx.send((i % 13) as u32, i, &payload, || {
                    bell2.ring();
                    std::thread::yield_now();
                    true
                }));
                bell2.ring();
            }
        });
        bell.register();
        let mut pool = BufPool::new();
        let mut seen = 0u64;
        while seen < N {
            frx.drain(&mut pool, |tag, at, words| {
                assert_eq!(at, seen);
                assert_eq!(tag, (seen % 13) as u32);
                let expect: Vec<Word> =
                    (0..(seen % 11) as Word).map(|w| w + seen as Word).collect();
                assert_eq!(words, expect);
                seen += 1;
            });
            if seen < N {
                bell.prepare();
                let more = {
                    let mut any = false;
                    frx.drain(&mut pool, |_, at, _words| {
                        assert_eq!(at, seen);
                        seen += 1;
                        any = true;
                    });
                    any
                };
                if more {
                    bell.cancel();
                } else {
                    bell.park_until(Instant::now() + std::time::Duration::from_millis(50));
                }
            }
        }
        producer.join().unwrap();
        assert_eq!(seen, N);
    }

    #[test]
    fn doorbell_wakes_a_parked_thread() {
        let bell = Arc::new(Doorbell::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (b, f) = (Arc::clone(&bell), Arc::clone(&flag));
        let t = std::thread::spawn(move || {
            b.register();
            loop {
                b.prepare();
                if f.load(Ordering::SeqCst) {
                    b.cancel();
                    return;
                }
                // Deadline far away: a missed wakeup would hang the test.
                b.park_until(Instant::now() + std::time::Duration::from_secs(30));
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        flag.store(true, Ordering::SeqCst);
        bell.ring();
        t.join().unwrap();
    }

    #[test]
    fn buf_pool_recycles_and_caps() {
        let mut pool = BufPool::new();
        let mut b = pool.get();
        b.extend_from_slice(&[1, 2, 3]);
        let cap = b.capacity();
        pool.put(b);
        let b2 = pool.get();
        assert!(b2.is_empty(), "recycled buffers come back cleared");
        assert_eq!(b2.capacity(), cap, "allocation is reused");
    }
}
