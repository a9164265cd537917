//! Ring buffers over real memory.
//!
//! [`Ring`] is the single-threaded channel used by the serial executor;
//! [`SpscRing`] is a lock-free single-producer single-consumer ring used
//! by the `ccs-exec` batch executor. Both store items contiguously in a fixed
//! `Box<[f32]>`, so channel traffic has the predictable layout the
//! paper's model assumes.
//!
//! Capacities are rounded up to a power of two so every index
//! computation is a bitmask instead of a `%`. On top of the per-item
//! slice API both rings expose a zero-copy batch protocol:
//!
//! - producer: [`reserve`](SpscRing::reserve)`(n)` hands back at most
//!   two contiguous writable slices covering the next `n` free slots
//!   (two when the window wraps the end of the buffer), and
//!   [`commit`](SpscRing::commit)`(n)` publishes them;
//! - consumer: [`peek`](SpscRing::peek)`(n)` hands back the oldest `n`
//!   queued items as at most two contiguous readable slices, and
//!   [`release`](SpscRing::release)`(n)` retires them.
//!
//! The old `push_slice`/`pop_slice` calls are thin wrappers over this
//! protocol (`copy_from_slice` per segment), so the batch path is the
//! only code that touches the buffer.

use crossbeam::utils::CachePadded;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Round a requested capacity up to the next power of two.
fn pow2_capacity(capacity: usize) -> usize {
    assert!(capacity > 0);
    capacity.next_power_of_two()
}

/// Split the window `[pos, pos + n)` of `buf` (mod its length) into at
/// most two contiguous index ranges.
#[inline]
fn split_ranges(
    cap: usize,
    pos: usize,
    n: usize,
) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
    let first = n.min(cap - pos);
    (pos..pos + first, 0..n - first)
}

/// A fixed-capacity single-threaded FIFO of `f32` items.
///
/// The capacity is rounded up to a power of two; [`Ring::capacity`]
/// reports the rounded value.
#[derive(Debug)]
pub struct Ring {
    buf: Box<[f32]>,
    /// Index of the oldest item.
    head: usize,
    len: usize,
}

impl Ring {
    pub fn new(capacity: usize) -> Ring {
        let capacity = pow2_capacity(capacity);
        Ring {
            buf: vec![0.0; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn space(&self) -> usize {
        self.buf.len() - self.len
    }

    /// Producer half of the batch protocol: writable slices over the
    /// next `n` free slots (second slice empty unless the window wraps).
    /// Panics if there is not enough space. Nothing is published until
    /// [`commit`](Ring::commit).
    pub fn reserve(&mut self, n: usize) -> (&mut [f32], &mut [f32]) {
        assert!(n <= self.space(), "ring overflow");
        let cap = self.buf.len();
        let pos = (self.head + self.len) & (cap - 1);
        let (a, b) = split_ranges(cap, pos, n);
        // Split borrow: the wrapped range starts at 0 and ends at or
        // before `pos`, so the two ranges never overlap.
        let (lo, hi) = self.buf.split_at_mut(pos);
        (&mut hi[..a.len()], &mut lo[b])
    }

    /// Publish `n` previously reserved items.
    pub fn commit(&mut self, n: usize) {
        assert!(n <= self.space(), "ring overflow");
        self.len += n;
    }

    /// Consumer half of the batch protocol: readable slices over the
    /// oldest `n` queued items. Panics if fewer are queued. Items stay
    /// queued until [`release`](Ring::release).
    pub fn peek(&self, n: usize) -> (&[f32], &[f32]) {
        assert!(n <= self.len, "ring underflow");
        let cap = self.buf.len();
        let (a, b) = split_ranges(cap, self.head, n);
        (&self.buf[a], &self.buf[b])
    }

    /// Retire `n` previously peeked items.
    pub fn release(&mut self, n: usize) {
        assert!(n <= self.len, "ring underflow");
        self.head = (self.head + n) & (self.buf.len() - 1);
        self.len -= n;
    }

    /// Append all of `items`; panics if there is not enough space.
    pub fn push_slice(&mut self, items: &[f32]) {
        let (a, b) = self.reserve(items.len());
        let (x, y) = items.split_at(a.len());
        a.copy_from_slice(x);
        b.copy_from_slice(y);
        self.commit(items.len());
    }

    /// Remove `out.len()` items into `out`; panics if too few available.
    pub fn pop_slice(&mut self, out: &mut [f32]) {
        let n = out.len();
        {
            let (a, b) = self.peek(n);
            out[..a.len()].copy_from_slice(a);
            out[a.len()..].copy_from_slice(b);
        }
        self.release(n);
    }
}

/// A fixed-capacity lock-free SPSC FIFO of `f32` items.
///
/// The capacity is rounded up to a power of two; [`SpscRing::capacity`]
/// reports the rounded value.
///
/// Safety contract: at any instant at most one thread performs
/// `reserve`/`commit`/`push_*` and at most one thread performs
/// `peek`/`release`/`pop_*`. The `ccs-exec` batch executor guarantees
/// this by giving each segment, with its incident ring endpoints, to
/// exactly one worker at a time; a migrating segment is handed over
/// through a mutex, which provides the necessary happens-before edges
/// between successive owners.
///
/// False-sharing note: `head` and `tail` are each `CachePadded`, i.e.
/// sized and aligned to a full cache line, so the immutable `buf`
/// pointer and `mask` words can never share a line with either counter
/// (a padded field occupies its lines exclusively); producer and
/// consumer only contend on the lines they must. A unit test pins the
/// padding assumption.
pub struct SpscRing {
    buf: UnsafeCell<Box<[f32]>>,
    /// `capacity - 1`; capacity is a power of two.
    mask: usize,
    /// Total items ever pushed (monotone).
    tail: CachePadded<AtomicUsize>,
    /// Total items ever popped (monotone).
    head: CachePadded<AtomicUsize>,
}

// SAFETY: coordination protocol above; indices are atomics and the data
// race on buf is prevented by the head/tail discipline (producer writes
// only unoccupied slots, consumer reads only occupied slots).
unsafe impl Sync for SpscRing {}
unsafe impl Send for SpscRing {}

impl SpscRing {
    pub fn new(capacity: usize) -> SpscRing {
        let capacity = pow2_capacity(capacity);
        SpscRing {
            buf: UnsafeCell::new(vec![0.0; capacity].into_boxed_slice()),
            mask: capacity - 1,
            tail: CachePadded::new(AtomicUsize::new(0)),
            head: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        tail - head
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn space(&self) -> usize {
        self.capacity() - self.len()
    }

    /// Producer half of the batch protocol: writable slices over the
    /// next `n` free slots (second slice empty unless the window wraps
    /// the end of the buffer). Panics on overflow (the executor checks
    /// space before claiming work). Nothing is visible to the consumer
    /// until [`commit`](SpscRing::commit).
    ///
    /// This is the ring's only unsafe buffer-access surface: every
    /// write path (`push_slice`, [`first_touch`](SpscRing::first_touch))
    /// goes through it.
    #[allow(clippy::mut_from_ref)] // SPSC contract: one producer thread.
    pub fn reserve(&self, n: usize) -> (&mut [f32], &mut [f32]) {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        assert!(n <= self.capacity() - (tail - head), "spsc overflow");
        let pos = tail & self.mask;
        let (a, b) = split_ranges(self.capacity(), pos, n);
        // SAFETY: slots [tail, tail+n) are unoccupied; only this
        // producer writes them, and the split borrow below hands out
        // disjoint ranges.
        let buf = unsafe { &mut *self.buf.get() };
        let (lo, hi) = buf.split_at_mut(pos);
        (&mut hi[..a.len()], &mut lo[b])
    }

    /// Publish `n` previously reserved items to the consumer.
    pub fn commit(&self, n: usize) {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        assert!(n <= self.capacity() - (tail - head), "spsc overflow");
        self.tail.store(tail + n, Ordering::Release);
    }

    /// Consumer half of the batch protocol: readable slices over the
    /// oldest `n` queued items (second slice empty unless the window
    /// wraps). Panics on underflow. Items stay queued until
    /// [`release`](SpscRing::release).
    pub fn peek(&self, n: usize) -> (&[f32], &[f32]) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        assert!(n <= tail - head, "spsc underflow");
        let pos = head & self.mask;
        let (a, b) = split_ranges(self.capacity(), pos, n);
        // SAFETY: slots [head, head+n) are occupied and stable; only
        // this consumer reads them.
        let buf = unsafe { &*self.buf.get() };
        (&buf[a], &buf[b])
    }

    /// Retire `n` previously peeked items, freeing their slots.
    pub fn release(&self, n: usize) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        assert!(n <= tail - head, "spsc underflow");
        self.head.store(head + n, Ordering::Release);
    }

    /// Fault in the ring's backing pages from the *calling* thread by
    /// writing one item per page (plus the last slot), so that under
    /// first-touch NUMA policy the buffer's memory lands on the
    /// caller's node. The parallel executor calls this from each ring's
    /// **consumer** worker after pinning and before any data flows,
    /// behind a start barrier.
    ///
    /// Implemented on the reserve path: the ring must be empty (it is
    /// pre-run), so `reserve(capacity)` spans the whole buffer; the
    /// touch writes zeros over the zeros already there and never
    /// commits, so a correctly sequenced touch is invisible to the data
    /// stream. Safety contract is the producer side's: no concurrent
    /// push while this runs.
    pub fn first_touch(&self) {
        /// One 4 KiB page of `f32` items.
        const PAGE_ITEMS: usize = 4096 / std::mem::size_of::<f32>();
        assert!(self.is_empty(), "first_touch on a non-empty ring");
        let (a, b) = self.reserve(self.capacity());
        for part in [a, b] {
            let mut i = 0;
            while i < part.len() {
                // Volatile so the "write zero over zero" is not elided.
                unsafe { std::ptr::write_volatile(&mut part[i], 0.0) };
                i += PAGE_ITEMS;
            }
            if let Some(last) = part.last_mut() {
                unsafe { std::ptr::write_volatile(last, 0.0) };
            }
        }
    }

    /// Producer side: append all items; panics on overflow (the executor
    /// checks space before claiming work).
    pub fn push_slice(&self, items: &[f32]) {
        let (a, b) = self.reserve(items.len());
        let (x, y) = items.split_at(a.len());
        a.copy_from_slice(x);
        b.copy_from_slice(y);
        self.commit(items.len());
    }

    /// Consumer side: remove `out.len()` items; panics on underflow.
    pub fn pop_slice(&self, out: &mut [f32]) {
        let n = out.len();
        {
            let (a, b) = self.peek(n);
            out[..a.len()].copy_from_slice(a);
            out[a.len()..].copy_from_slice(b);
        }
        self.release(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_fifo_order_with_wraparound() {
        let mut r = Ring::new(4);
        r.push_slice(&[1.0, 2.0, 3.0]);
        let mut out = [0.0; 2];
        r.pop_slice(&mut out);
        assert_eq!(out, [1.0, 2.0]);
        r.push_slice(&[4.0, 5.0, 6.0]); // wraps
        assert_eq!(r.len(), 4);
        let mut out4 = [0.0; 4];
        r.pop_slice(&mut out4);
        assert_eq!(out4, [3.0, 4.0, 5.0, 6.0]);
        assert!(r.is_empty());
        assert_eq!(r.capacity(), 4);
    }

    #[test]
    fn capacities_round_up_to_powers_of_two() {
        assert_eq!(Ring::new(1).capacity(), 1);
        assert_eq!(Ring::new(3).capacity(), 4);
        assert_eq!(Ring::new(4).capacity(), 4);
        assert_eq!(Ring::new(10).capacity(), 16);
        assert_eq!(SpscRing::new(3).capacity(), 4);
        assert_eq!(SpscRing::new(16).capacity(), 16);
        assert_eq!(SpscRing::new(3000).capacity(), 4096);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn ring_overflow_panics() {
        let mut r = Ring::new(2);
        r.push_slice(&[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn ring_underflow_panics() {
        let mut r = Ring::new(2);
        let mut out = [0.0];
        r.pop_slice(&mut out);
    }

    #[test]
    #[should_panic(expected = "spsc overflow")]
    fn spsc_reserve_overflow_panics() {
        let r = SpscRing::new(4);
        r.push_slice(&[1.0, 2.0, 3.0]);
        let _ = r.reserve(2);
    }

    #[test]
    #[should_panic(expected = "spsc underflow")]
    fn spsc_peek_underflow_panics() {
        let r = SpscRing::new(4);
        r.push_slice(&[1.0]);
        let _ = r.peek(2);
    }

    #[test]
    fn spsc_single_thread_semantics() {
        let r = SpscRing::new(8);
        r.push_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.space(), 5);
        let mut out = [0.0; 3];
        r.pop_slice(&mut out);
        assert_eq!(out, [1.0, 2.0, 3.0]);
        assert!(r.is_empty());
    }

    #[test]
    fn spsc_first_touch_is_invisible_to_the_stream() {
        // Touch a ring larger than one page, then stream through it:
        // contents and accounting must be exactly as without the touch.
        let r = SpscRing::new(3000);
        r.first_touch();
        assert!(r.is_empty());
        let items: Vec<f32> = (0..2500).map(|i| i as f32).collect();
        r.push_slice(&items);
        let mut out = vec![0.0f32; 2500];
        r.pop_slice(&mut out);
        assert_eq!(out, items);
        // Tiny rings (shorter than a page) are touched too.
        let small = SpscRing::new(3);
        small.first_touch();
        small.push_slice(&[7.0]);
        let mut one = [0.0f32];
        small.pop_slice(&mut one);
        assert_eq!(one, [7.0]);
    }

    #[test]
    fn spsc_first_touch_covers_a_wrapped_reserve_window() {
        // Stream a few items through first so head/tail sit mid-buffer:
        // the touch's full-capacity reserve window wraps and must still
        // be invisible.
        let r = SpscRing::new(8);
        r.push_slice(&[1.0, 2.0, 3.0]);
        let mut out = [0.0f32; 3];
        r.pop_slice(&mut out);
        r.first_touch();
        assert!(r.is_empty());
        let items: Vec<f32> = (0..8).map(|i| i as f32).collect();
        r.push_slice(&items);
        let mut back = vec![0.0f32; 8];
        r.pop_slice(&mut back);
        assert_eq!(back, items);
    }

    #[test]
    fn cache_padding_isolates_the_counters() {
        // The false-sharing audit in the struct docs rests on
        // `CachePadded` filling whole cache lines; pin that here so a
        // vendored-shim regression is caught.
        assert!(std::mem::align_of::<CachePadded<AtomicUsize>>() >= 64);
        assert!(std::mem::size_of::<CachePadded<AtomicUsize>>() >= 64);
        assert_eq!(
            std::mem::size_of::<CachePadded<AtomicUsize>>()
                % std::mem::align_of::<CachePadded<AtomicUsize>>(),
            0
        );
    }

    /// Exhaustive wraparound check: for small capacities, every
    /// (offset, batch length) pair must round-trip through
    /// reserve/commit + peek/release with the correct two-slice split.
    #[test]
    fn batch_api_exhaustive_offsets_ring() {
        for cap in [1usize, 2, 4, 8] {
            for offset in 0..cap {
                for n in 0..=cap {
                    let mut r = Ring::new(cap);
                    // Advance head to `offset` with a throwaway stream.
                    let junk = vec![9.0f32; offset];
                    r.push_slice(&junk);
                    let mut sink = vec![0.0f32; offset];
                    r.pop_slice(&mut sink);
                    // Write 0..n through reserve, check split shape.
                    {
                        let (a, b) = r.reserve(n);
                        assert_eq!(a.len() + b.len(), n);
                        assert!(b.is_empty() || a.len() == cap - offset);
                        for (i, slot) in a.iter_mut().chain(b.iter_mut()).enumerate() {
                            *slot = i as f32;
                        }
                    }
                    r.commit(n);
                    assert_eq!(r.len(), n);
                    let (a, b) = r.peek(n);
                    let got: Vec<f32> = a.iter().chain(b.iter()).copied().collect();
                    let want: Vec<f32> = (0..n).map(|i| i as f32).collect();
                    assert_eq!(got, want, "cap={cap} offset={offset} n={n}");
                    r.release(n);
                    assert!(r.is_empty());
                }
            }
        }
    }

    #[test]
    fn batch_api_exhaustive_offsets_spsc() {
        for cap in [1usize, 2, 4, 8] {
            for offset in 0..cap {
                for n in 0..=cap {
                    let r = SpscRing::new(cap);
                    let junk = vec![9.0f32; offset];
                    r.push_slice(&junk);
                    let mut sink = vec![0.0f32; offset];
                    r.pop_slice(&mut sink);
                    {
                        let (a, b) = r.reserve(n);
                        assert_eq!(a.len() + b.len(), n);
                        assert!(b.is_empty() || a.len() == cap - offset);
                        for (i, slot) in a.iter_mut().chain(b.iter_mut()).enumerate() {
                            *slot = i as f32;
                        }
                    }
                    r.commit(n);
                    assert_eq!(r.len(), n);
                    let (a, b) = r.peek(n);
                    let got: Vec<f32> = a.iter().chain(b.iter()).copied().collect();
                    let want: Vec<f32> = (0..n).map(|i| i as f32).collect();
                    assert_eq!(got, want, "cap={cap} offset={offset} n={n}");
                    r.release(n);
                    assert!(r.is_empty());
                }
            }
        }
    }

    #[test]
    fn spsc_cross_thread_stream() {
        let r = SpscRing::new(16);
        let total = 10_000usize;
        crossbeam::scope(|s| {
            s.spawn(|_| {
                let mut sent = 0usize;
                while sent < total {
                    let n = (total - sent).min(r.space()).min(4);
                    if n == 0 {
                        std::hint::spin_loop();
                        continue;
                    }
                    let chunk: Vec<f32> = (sent..sent + n).map(|i| i as f32).collect();
                    r.push_slice(&chunk);
                    sent += n;
                }
            });
            s.spawn(|_| {
                let mut got = 0usize;
                let mut buf = [0.0f32; 4];
                while got < total {
                    let n = (total - got).min(r.len()).min(4);
                    if n == 0 {
                        std::hint::spin_loop();
                        continue;
                    }
                    r.pop_slice(&mut buf[..n]);
                    for (i, &x) in buf[..n].iter().enumerate() {
                        assert_eq!(x, (got + i) as f32);
                    }
                    got += n;
                }
            });
        })
        .unwrap();
    }

    /// The batch-protocol mirror of `spsc_cross_thread_stream`: the
    /// producer writes in place through reserve/commit, the consumer
    /// verifies in place through peek/release — no staging copies.
    #[test]
    fn spsc_cross_thread_reserve_commit_stream() {
        let r = SpscRing::new(16);
        let total = 10_000usize;
        crossbeam::scope(|s| {
            s.spawn(|_| {
                let mut sent = 0usize;
                while sent < total {
                    let n = (total - sent).min(r.space()).min(5);
                    if n == 0 {
                        std::hint::spin_loop();
                        continue;
                    }
                    {
                        let (a, b) = r.reserve(n);
                        for (i, slot) in a.iter_mut().chain(b.iter_mut()).enumerate() {
                            *slot = (sent + i) as f32;
                        }
                    }
                    r.commit(n);
                    sent += n;
                }
            });
            s.spawn(|_| {
                let mut got = 0usize;
                while got < total {
                    let n = (total - got).min(r.len()).min(3);
                    if n == 0 {
                        std::hint::spin_loop();
                        continue;
                    }
                    {
                        let (a, b) = r.peek(n);
                        for (i, &x) in a.iter().chain(b.iter()).enumerate() {
                            assert_eq!(x, (got + i) as f32);
                        }
                    }
                    r.release(n);
                    got += n;
                }
            });
        })
        .unwrap();
    }

    #[test]
    fn spsc_wraparound_many_times() {
        let r = SpscRing::new(3);
        let mut out = [0.0f32; 2];
        for round in 0..100 {
            r.push_slice(&[round as f32, round as f32 + 0.5]);
            r.pop_slice(&mut out);
            assert_eq!(out, [round as f32, round as f32 + 0.5]);
        }
    }
}
