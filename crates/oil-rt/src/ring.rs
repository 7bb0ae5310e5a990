//! Lock-free bounded single-producer/single-consumer ring buffers.
//!
//! The runtime's value streams flow through these rings: one per buffer of
//! the runtime graph in the self-timed engine, and one per buffer that
//! crosses a worker boundary in the static-order engine (every other buffer
//! there is an unsynchronised local deque). The implementation is the
//! classic Lamport ring: a power-of-two store indexed by two monotonically
//! increasing counters through a mask, where the producer only writes `tail`
//! and the consumer only writes `head`, so a release store on one side
//! paired with an acquire load on the other is the entire synchronisation
//! protocol of the lock-free fast path — no locks, no CAS. The *logical*
//! capacity (the CTA bound, or a schedule's proven level) is enforced on the
//! counters; the store is merely rounded up so indexing is a mask.
//!
//! Three things keep the two endpoints off each other's cache lines:
//! `head`, `tail` and the two `Waiter`s each sit on a line of their own;
//! each endpoint keeps its own index in its handle and a *cached* copy of
//! the opposite one, so an uncongested `push`/`pop` touches the peer's line
//! only when the cached view says full/empty; and a whole block moves with
//! [`Producer::push_slice`] / [`Consumer::pop_slice`] — one acquire of the
//! opposite index, at most two contiguous copies, one release store and at
//! most one wake-up per chunk — which is how the static-order engine hands
//! a schedule period's crossing tokens over in one transfer.
//!
//! Endpoints that must *wait* for the other side ([`Producer::push_wait`],
//! [`Consumer::pop_wait`] and the slice operations) spin briefly, then
//! alternate re-checks with `yield_now` until [`WAIT_SPIN_BUDGET`] has
//! elapsed, and only then park. A parked thread costs its peer a mutex and
//! an `unpark` system call, so the budget is sized to outlast the stalls of
//! a balanced pipeline (a few schedule periods) and parking is left to the
//! genuinely idle. A parked slice transfer publishes how many slots it is
//! waiting for (at most half the capacity) and slice operations on the
//! other side wake it only once that much is there, not token by token.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Iterations of the hot spin phase of a blocking wait.
pub const WAIT_SPINS: usize = 64;
/// How long a blocking wait keeps polling (re-check, `yield_now`) before it
/// parks. Bounded by elapsed time, not iterations: what matters is whether
/// the peer's stall is shorter than a park/unpark round trip plus the
/// system call it costs the peer.
pub const WAIT_SPIN_BUDGET: Duration = Duration::from_micros(100);
/// Upper bound of one park in a blocking wait. The wake protocol unparks
/// eagerly; the timeout bounds the latency of a missed `abort` signal and
/// of the one race the fast path leaves open (see [`Waiter`]).
const WAIT_PARK: Duration = Duration::from_micros(200);

/// Blocked-path statistics of one ring endpoint, filled by the `*_observed`
/// and slice operations when the caller passes one (`oil_rt::trace`,
/// `oil_rt::metrics`). The unblocked fast path never touches these — a wait
/// is counted only after the lock-free attempt has already failed once, so
/// observation cannot perturb an uncongested ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Operations that entered the blocked path at all.
    pub waits: u64,
    /// `yield_now` calls taken after the hot spin phase was exhausted.
    pub spin_yields: u64,
    /// `park_timeout` calls taken after the spin budget was exhausted.
    pub parks: u64,
    /// Total nanoseconds spent blocked (from first failure to success or
    /// abort).
    pub wait_ns: u64,
}

/// Keeps its content on cache lines of its own (two, covering the adjacent-
/// line prefetcher), so the endpoints' indices and waiters never false-share.
#[repr(align(128))]
#[derive(Default)]
struct Padded<T>(T);

/// A registered parked thread waiting for the opposite endpoint to make
/// room/data. `engaged` is the fast-path gate: the opposite endpoint pays
/// one load of a line nobody writes while nobody waits, and takes the mutex
/// only to hand the wake-up over.
///
/// The waiter re-checks the ring after registering, and the waker checks
/// `engaged` after publishing its index; without a full fence on the
/// per-token fast path those two store→load pairs can still both miss each
/// other. That race costs one [`WAIT_PARK`] timeout, never a hang.
#[derive(Default)]
struct Waiter {
    engaged: AtomicBool,
    /// Slots (tokens or free space) the parked thread is waiting for; slice
    /// operations on the other side wake it only once that many exist.
    want: AtomicUsize,
    thread: Mutex<Option<Thread>>,
}

impl Waiter {
    /// Register the current thread as waiting for `want` slots. Must be
    /// followed by a re-check of the ring state before parking: a wake
    /// between the re-check and the park leaves the park token set, so the
    /// park returns immediately.
    fn register(&self, want: usize) {
        *self.thread.lock().expect("ring waiter poisoned") = Some(std::thread::current());
        // Published by the `engaged` store below: a waker reads `want` only
        // after it has loaded `engaged == true`.
        self.want.store(want, Ordering::Relaxed);
        self.engaged.store(true, Ordering::SeqCst);
    }

    fn unregister(&self) {
        self.engaged.store(false, Ordering::SeqCst);
        self.thread.lock().expect("ring waiter poisoned").take();
    }

    /// Wake the registered thread, if any, once `available` slots cover what
    /// it is waiting for.
    #[inline]
    fn wake(&self, available: usize) {
        if self.engaged.load(Ordering::SeqCst) {
            self.wake_engaged(available);
        }
    }

    #[cold]
    fn wake_engaged(&self, available: usize) {
        if available < self.want.load(Ordering::Relaxed) {
            return;
        }
        if let Some(t) = self.thread.lock().expect("ring waiter poisoned").take() {
            self.engaged.store(false, Ordering::SeqCst);
            t.unpark();
        }
    }
}

/// The blocked path shared by every waiting operation: poll `ready` — a
/// hot spin, then re-checks interleaved with `yield_now` until
/// [`WAIT_SPIN_BUDGET`] has elapsed, then park on `waiter` (registered as
/// waiting for `want` slots) between re-checks. Returns `false` when
/// `abort` turned true before `ready` did.
#[cold]
fn block_until(
    waiter: &Waiter,
    want: usize,
    mut ready: impl FnMut() -> bool,
    abort: &mut impl FnMut() -> bool,
    mut stats: Option<&mut WaitStats>,
) -> bool {
    let started = Instant::now();
    if let Some(s) = stats.as_deref_mut() {
        s.waits += 1;
    }
    let mut spins = 0usize;
    let outcome = loop {
        if ready() {
            break true;
        }
        if spins < WAIT_SPINS {
            spins += 1;
            std::hint::spin_loop();
            continue;
        }
        if abort() {
            break false;
        }
        if started.elapsed() < WAIT_SPIN_BUDGET {
            if let Some(s) = stats.as_deref_mut() {
                s.spin_yields += 1;
            }
            std::thread::yield_now();
            continue;
        }
        waiter.register(want);
        // Re-check after registering: the peer's operation between the
        // failed check and the registration would otherwise be a lost
        // wakeup.
        if ready() {
            waiter.unregister();
            break true;
        }
        if let Some(s) = stats.as_deref_mut() {
            s.parks += 1;
        }
        std::thread::park_timeout(WAIT_PARK);
        waiter.unregister();
    };
    if let Some(s) = stats {
        s.wait_ns += started.elapsed().as_nanos() as u64;
    }
    outcome
}

struct Inner<T> {
    /// `capacity.next_power_of_two()` slots, indexed through `mask`.
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// The logical bound on `tail - head`.
    capacity: usize,
    /// Next slot to pop (only advanced by the consumer).
    head: Padded<AtomicUsize>,
    /// Next slot to push (only advanced by the producer).
    tail: Padded<AtomicUsize>,
    /// A consumer parked waiting for data, woken by a push.
    pop_waiter: Padded<Waiter>,
    /// A producer parked waiting for space, woken by a pop.
    push_waiter: Padded<Waiter>,
}

impl<T> Inner<T> {
    /// Pointer to the slot absolute index `at` maps to.
    #[inline]
    fn slot(&self, at: usize) -> *mut T {
        // SAFETY: `mask` is `buf.len() - 1`, so the offset is in bounds. The
        // pointer is derived from the whole store (not one element), so a
        // block copy may run on from it to the end of the store.
        let cell = unsafe { self.buf.as_ptr().add(at & self.mask) };
        UnsafeCell::raw_get(cell).cast()
    }

    /// What a parked slice transfer of `remaining` slots waits for.
    #[inline]
    fn watermark(&self, remaining: usize) -> usize {
        remaining.min((self.capacity / 2).max(1))
    }
}

// SAFETY: the producer/consumer split guarantees each slot is accessed by at
// most one thread at a time: a slot is written by the producer strictly
// before the tail release-store that publishes it, and read by the consumer
// strictly before the head release-store that retires it. The indices and
// waiters are atomics and a mutex. `T: Send` because values cross from the
// producer's thread to the consumer's.
unsafe impl<T: Send> Sync for Inner<T> {}
// SAFETY: as above; `Inner` owns its slots.
unsafe impl<T: Send> Send for Inner<T> {}

/// Create a bounded SPSC ring of the given capacity, returning the two
/// endpoint handles. Each handle can move to (at most) one thread.
///
/// # Panics
/// Panics if `capacity` is zero.
pub fn spsc<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "an SPSC ring needs at least one slot");
    let size = capacity.next_power_of_two();
    let inner = Arc::new(Inner {
        buf: (0..size)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect(),
        mask: size - 1,
        capacity,
        head: Padded(AtomicUsize::new(0)),
        tail: Padded(AtomicUsize::new(0)),
        pop_waiter: Padded(Waiter::default()),
        push_waiter: Padded(Waiter::default()),
    });
    (
        Producer {
            inner: Arc::clone(&inner),
            tail: 0,
            head_seen: 0,
        },
        Consumer {
            inner,
            head: 0,
            tail_seen: 0,
        },
    )
}

/// The producing endpoint of an SPSC ring.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
    /// This endpoint's own index (mirrors `inner.tail`).
    tail: usize,
    /// The consumer's index as last loaded; refreshed only when it says the
    /// ring is full.
    head_seen: usize,
}

/// The consuming endpoint of an SPSC ring.
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
    /// This endpoint's own index (mirrors `inner.head`).
    head: usize,
    /// The producer's index as last loaded; refreshed only when it says the
    /// ring is empty.
    tail_seen: usize,
}

impl<T> Producer<T> {
    /// Free slots, refreshing the cached consumer index only when the cached
    /// view has fewer than `need`.
    #[inline]
    fn free(&mut self, need: usize) -> usize {
        let capacity = self.inner.capacity;
        let mut free = capacity - self.tail.wrapping_sub(self.head_seen);
        if free < need {
            self.head_seen = self.inner.head.0.load(Ordering::Acquire);
            free = capacity - self.tail.wrapping_sub(self.head_seen);
        }
        free
    }

    /// Publish `n` freshly written slots.
    #[inline]
    fn publish(&mut self, n: usize) {
        self.tail = self.tail.wrapping_add(n);
        self.inner.tail.0.store(self.tail, Ordering::Release);
    }

    /// Wait until at least one slot is free; `false` when aborted first.
    fn wait_for_space(
        &mut self,
        remaining: usize,
        abort: &mut impl FnMut() -> bool,
        stats: Option<&mut WaitStats>,
    ) -> bool {
        let (inner, tail) = (&*self.inner, self.tail);
        let mut head = self.head_seen;
        let ready = || {
            head = inner.head.0.load(Ordering::Acquire);
            tail.wrapping_sub(head) < inner.capacity
        };
        let want = inner.watermark(remaining);
        let ok = block_until(&inner.push_waiter.0, want, ready, abort, stats);
        self.head_seen = head;
        ok
    }

    /// Push a value, or hand it back if the ring is full.
    #[inline]
    pub fn push(&mut self, value: T) -> Result<(), T> {
        if self.free(1) == 0 {
            return Err(value);
        }
        // SAFETY: the slot is unpublished (tail not yet advanced past it and
        // `free` proved the consumer has retired it), so the consumer cannot
        // touch it; `write` does not drop the stale content.
        unsafe { self.inner.slot(self.tail).write(value) };
        self.publish(1);
        self.inner.pop_waiter.0.wake(usize::MAX);
        Ok(())
    }

    /// Push a value, waiting for space: a hot spin, then polling with
    /// `yield_now` until [`WAIT_SPIN_BUDGET`] has elapsed, then park until
    /// the consumer pops (or the park timeout re-checks `abort`). Returns
    /// the value if `abort` turned true while the ring was still full — the
    /// wait never spins unboundedly on a consumer that is gone.
    pub fn push_wait(&mut self, value: T, abort: impl FnMut() -> bool) -> Result<(), T> {
        self.push_wait_observed(value, abort, None)
    }

    /// [`Self::push_wait`] with blocked-path telemetry: when `stats` is
    /// given, the wait is counted and timed into it. The unblocked path pays
    /// nothing beyond the `Option` test.
    pub fn push_wait_observed(
        &mut self,
        value: T,
        mut abort: impl FnMut() -> bool,
        mut stats: Option<&mut WaitStats>,
    ) -> Result<(), T> {
        let mut value = value;
        loop {
            match self.push(value) {
                Ok(()) => return Ok(()),
                Err(back) => value = back,
            }
            if !self.wait_for_space(1, &mut abort, stats.as_deref_mut()) {
                return Err(value);
            }
        }
    }

    /// Number of values currently in the ring.
    pub fn len(&self) -> usize {
        self.tail
            .wrapping_sub(self.inner.head.0.load(Ordering::Acquire))
    }

    /// True when no value is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Free slots remaining.
    pub fn space(&self) -> usize {
        self.capacity() - self.len()
    }
}

impl<T: Copy> Producer<T> {
    /// Push as many leading `values` as fit right now — one acquire of the
    /// consumer's index at most, up to two contiguous copies, one release
    /// store — and return how many that was. Wakes a parked consumer once
    /// the ring holds what it is waiting for.
    fn push_chunk(&mut self, values: &[T]) -> usize {
        let n = self.free(values.len()).min(values.len());
        if n == 0 {
            return 0;
        }
        let inner = &*self.inner;
        let at = self.tail & inner.mask;
        let first = n.min(inner.buf.len() - at);
        // SAFETY: the `n` slots from `tail` on are unpublished and retired
        // (`free` proved `n <= capacity - (tail - head)`), so only this
        // thread touches them; `first <= buf.len() - at` and `n - first <=
        // at` keep both copies inside the store, and `values` holds at
        // least `n` elements. `T: Copy`, so overwriting drops nothing.
        unsafe {
            std::ptr::copy_nonoverlapping(values.as_ptr(), inner.slot(self.tail), first);
            std::ptr::copy_nonoverlapping(values.as_ptr().add(first), inner.slot(0), n - first);
        }
        self.publish(n);
        let level = self.tail.wrapping_sub(self.head_seen);
        self.inner.pop_waiter.0.wake(level);
        n
    }

    /// Push all of `values`, in order, as one block transfer: chunks go in
    /// through whatever space exists, and the call waits (as
    /// [`Self::push_wait`] does) whenever the ring is full. `Err(moved)`
    /// reports how many values had been pushed when `abort` turned true.
    pub fn push_slice(
        &mut self,
        values: &[T],
        mut abort: impl FnMut() -> bool,
        mut stats: Option<&mut WaitStats>,
    ) -> Result<(), usize> {
        let mut moved = self.push_chunk(values);
        while moved < values.len() {
            let remaining = values.len() - moved;
            if !self.wait_for_space(remaining, &mut abort, stats.as_deref_mut()) {
                return Err(moved);
            }
            moved += self.push_chunk(&values[moved..]);
        }
        Ok(())
    }
}

impl<T> Consumer<T> {
    /// Buffered values, refreshing the cached producer index only when the
    /// cached view has fewer than `need`.
    #[inline]
    fn available(&mut self, need: usize) -> usize {
        let mut available = self.tail_seen.wrapping_sub(self.head);
        if available < need {
            self.tail_seen = self.inner.tail.0.load(Ordering::Acquire);
            available = self.tail_seen.wrapping_sub(self.head);
        }
        available
    }

    /// Retire `n` slots already read.
    #[inline]
    fn retire(&mut self, n: usize) {
        self.head = self.head.wrapping_add(n);
        self.inner.head.0.store(self.head, Ordering::Release);
    }

    /// Wait until at least one value is buffered; `false` when aborted first.
    fn wait_for_data(
        &mut self,
        remaining: usize,
        abort: &mut impl FnMut() -> bool,
        stats: Option<&mut WaitStats>,
    ) -> bool {
        let (inner, head) = (&*self.inner, self.head);
        let mut tail = self.tail_seen;
        let ready = || {
            tail = inner.tail.0.load(Ordering::Acquire);
            tail != head
        };
        let want = inner.watermark(remaining);
        let ok = block_until(&inner.pop_waiter.0, want, ready, abort, stats);
        self.tail_seen = tail;
        ok
    }

    /// Pop the oldest value, or `None` when the ring is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        if self.available(1) == 0 {
            return None;
        }
        // SAFETY: the slot is published (`available` saw the producer's
        // release store past it) and not yet retired, so it is initialised
        // and the producer cannot touch it; retiring it below hands the
        // (moved-out) slot back.
        let value = unsafe { self.inner.slot(self.head).read() };
        self.retire(1);
        self.inner.push_waiter.0.wake(usize::MAX);
        Some(value)
    }

    /// Pop a value, waiting for one to arrive: a hot spin, then polling
    /// with `yield_now` until [`WAIT_SPIN_BUDGET`] has elapsed, then park
    /// until the producer pushes (or the park timeout re-checks `abort`).
    /// Returns `None` only when `abort` turned true while the ring was
    /// still empty.
    pub fn pop_wait(&mut self, abort: impl FnMut() -> bool) -> Option<T> {
        self.pop_wait_observed(abort, None)
    }

    /// [`Self::pop_wait`] with blocked-path telemetry: when `stats` is
    /// given, the wait is counted and timed into it.
    pub fn pop_wait_observed(
        &mut self,
        mut abort: impl FnMut() -> bool,
        mut stats: Option<&mut WaitStats>,
    ) -> Option<T> {
        loop {
            if let Some(v) = self.pop() {
                return Some(v);
            }
            if !self.wait_for_data(1, &mut abort, stats.as_deref_mut()) {
                return None;
            }
        }
    }

    /// Number of values currently in the ring.
    pub fn len(&self) -> usize {
        self.inner
            .tail
            .0
            .load(Ordering::Acquire)
            .wrapping_sub(self.head)
    }

    /// True when no value is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }
}

impl<T: Copy> Consumer<T> {
    /// Append up to `n` buffered values to `into` — one acquire of the
    /// producer's index at most, up to two contiguous copies, one release
    /// store — and return how many that was. Wakes a parked producer once
    /// the ring has the room it is waiting for.
    fn pop_chunk(&mut self, n: usize, into: &mut Vec<T>) -> usize {
        let n = self.available(n).min(n);
        if n == 0 {
            return 0;
        }
        let inner = &*self.inner;
        let at = self.head & inner.mask;
        let first = n.min(inner.buf.len() - at);
        into.reserve(n);
        // SAFETY: the `n` slots from `head` on are published and unretired
        // (`available` saw the producer's release store past them), so they
        // are initialised and the producer cannot touch them; `first <=
        // buf.len() - at` and `n - first <= at` keep both copies inside the
        // store; `reserve(n)` made room for `n` more elements past `len`,
        // which the copies initialise before `set_len` exposes them.
        unsafe {
            let dst = into.as_mut_ptr().add(into.len());
            std::ptr::copy_nonoverlapping(inner.slot(self.head).cast_const(), dst, first);
            std::ptr::copy_nonoverlapping(inner.slot(0).cast_const(), dst.add(first), n - first);
            into.set_len(into.len() + n);
        }
        self.retire(n);
        let free = self.inner.capacity - self.tail_seen.wrapping_sub(self.head);
        self.inner.push_waiter.0.wake(free);
        n
    }

    /// Append the next `n` values to `into`, in order, as one block
    /// transfer: chunks come out as they arrive, and the call waits (as
    /// [`Self::pop_wait`] does) whenever the ring is empty. `Err(moved)`
    /// reports how many values had been appended when `abort` turned true.
    pub fn pop_slice(
        &mut self,
        n: usize,
        into: &mut Vec<T>,
        mut abort: impl FnMut() -> bool,
        mut stats: Option<&mut WaitStats>,
    ) -> Result<(), usize> {
        let mut moved = self.pop_chunk(n, into);
        while moved < n {
            if !self.wait_for_data(n - moved, &mut abort, stats.as_deref_mut()) {
                return Err(moved);
            }
            moved += self.pop_chunk(n - moved, into);
        }
        Ok(())
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        // Drain remaining values so their destructors run. The producer may
        // still push afterwards; those values leak their destructor only if
        // T needs Drop and the producer outlives the consumer — the runtime
        // always drops producers first, and the value types it uses are
        // Copy anyway.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_and_capacity_bound() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        assert!(rx.pop().is_none());
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(99), "full ring must reject");
        assert_eq!(tx.len(), 4);
        assert_eq!(tx.space(), 0);
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert!(rx.is_empty());
    }

    #[test]
    fn wraparound_preserves_order() {
        let (mut tx, mut rx) = spsc::<usize>(3);
        for round in 0..100 {
            tx.push(2 * round).unwrap();
            tx.push(2 * round + 1).unwrap();
            assert_eq!(rx.pop(), Some(2 * round));
            assert_eq!(rx.pop(), Some(2 * round + 1));
        }
    }

    #[test]
    fn cross_thread_transfer_is_lossless_and_ordered() {
        const N: u64 = if cfg!(miri) { 2_000 } else { 200_000 };
        let (mut tx, mut rx) = spsc::<u64>(64);
        let producer = thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                loop {
                    match tx.push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        let mut expected = 0u64;
        while expected < N {
            if let Some(v) = rx.pop() {
                assert_eq!(v, expected, "values must arrive in push order");
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert!(rx.pop().is_none());
    }

    #[test]
    fn blocking_waits_transfer_without_burning_cpu() {
        const N: u64 = if cfg!(miri) { 1_000 } else { 50_000 };
        let (mut tx, mut rx) = spsc::<u64>(8);
        let producer = thread::spawn(move || {
            for i in 0..N {
                tx.push_wait(i, || false).expect("never aborted");
            }
        });
        for expected in 0..N {
            assert_eq!(rx.pop_wait(|| false), Some(expected));
        }
        producer.join().unwrap();
        assert!(rx.pop().is_none());
    }

    #[test]
    fn parked_consumer_is_woken_by_a_late_push() {
        let (mut tx, mut rx) = spsc::<u32>(2);
        let consumer = thread::spawn(move || rx.pop_wait(|| false));
        // Sleep well past the spin+yield phases so the consumer parks.
        thread::sleep(std::time::Duration::from_millis(50));
        tx.push(7).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(7));
    }

    #[test]
    fn parked_producer_is_woken_by_a_late_pop() {
        let (mut tx, mut rx) = spsc::<u32>(1);
        tx.push(1).unwrap();
        let producer = thread::spawn(move || tx.push_wait(2, || false));
        thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(rx.pop(), Some(1));
        assert!(producer.join().unwrap().is_ok());
        assert_eq!(rx.pop(), Some(2));
    }

    #[test]
    fn aborted_waits_hand_the_state_back() {
        use std::sync::atomic::AtomicBool;
        let (mut tx, mut rx) = spsc::<u32>(1);
        assert_eq!(rx.pop_wait(|| true), None, "empty + aborted");
        tx.push(1).unwrap();
        assert_eq!(tx.push_wait(2, || true), Err(2), "full + aborted");
        // An abort flag that flips while parked is honoured promptly.
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let consumer = thread::spawn(move || {
            let mut rx = rx;
            rx.pop();
            rx.pop_wait(move || stop2.load(Ordering::SeqCst))
        });
        thread::sleep(std::time::Duration::from_millis(30));
        stop.store(true, Ordering::SeqCst);
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn observed_waits_count_only_the_blocked_path() {
        let (mut tx, mut rx) = spsc::<u32>(2);
        let mut stats = WaitStats::default();
        // Uncongested pushes and pops never touch the statistics.
        tx.push_wait_observed(1, || false, Some(&mut stats))
            .unwrap();
        assert_eq!(rx.pop_wait_observed(|| false, Some(&mut stats)), Some(1));
        assert_eq!(stats, WaitStats::default());
        // A blocked push against a full ring is counted and timed.
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(tx.push_wait_observed(3, || true, Some(&mut stats)), Err(3));
        assert_eq!(stats.waits, 1);
        // A parked consumer woken by a late push accumulates yields/parks.
        let mut stats = WaitStats::default();
        let consumer = thread::spawn(move || {
            rx.pop();
            rx.pop();
            let v = rx.pop_wait_observed(|| false, Some(&mut stats));
            (v, stats)
        });
        thread::sleep(std::time::Duration::from_millis(50));
        tx.push(9).unwrap();
        let (v, stats) = consumer.join().unwrap();
        assert_eq!(v, Some(9));
        assert_eq!(stats.waits, 1);
        assert!(stats.parks > 0, "a 50ms stall must reach the park phase");
        assert!(stats.wait_ns > 0);
    }

    #[test]
    fn drop_runs_destructors_of_buffered_values() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Tracked;
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, rx) = spsc::<Tracked>(8);
        for _ in 0..5 {
            tx.push(Tracked).unwrap();
        }
        drop(tx);
        drop(rx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    impl<T> Producer<T> {
        fn consumer_parked(&self) -> bool {
            self.inner.pop_waiter.0.engaged.load(Ordering::SeqCst)
        }
    }

    impl<T> Consumer<T> {
        fn producer_parked(&self) -> bool {
            self.inner.push_waiter.0.engaged.load(Ordering::SeqCst)
        }
    }

    /// Block (politely) until the peer has registered as parked.
    fn until(parked: impl Fn() -> bool) {
        while !parked() {
            thread::yield_now();
        }
    }

    #[test]
    fn the_logical_capacity_holds_on_a_rounded_up_store() {
        // Five slots live in a store of eight; the bound is still five.
        let (mut tx, mut rx) = spsc::<u32>(5);
        assert_eq!(tx.capacity(), 5);
        assert_eq!(tx.push_chunk(&[0, 1, 2, 3, 4, 5, 6]), 5);
        assert_eq!(tx.push(9), Err(9));
        assert_eq!((tx.len(), tx.space(), rx.len()), (5, 0, 5));
        assert_eq!(rx.pop(), Some(0));
        assert_eq!(tx.push(9), Ok(()));
        assert_eq!(tx.push_chunk(&[10]), 0, "full again");
    }

    #[test]
    fn slices_wrap_around_and_keep_order() {
        let (mut tx, mut rx) = spsc::<u32>(5);
        let (mut next, mut expected) = (0u32, 0u32);
        let mut out = Vec::new();
        for round in 0..60 {
            // Block sizes 1..=5 walk the write position over every offset of
            // the store, so both the one-copy and the two-copy case occur.
            let n = 1 + round % 5;
            let block: Vec<u32> = (next..next + n).collect();
            next += n;
            assert_eq!(tx.push_chunk(&block), n as usize);
            out.clear();
            assert_eq!(rx.pop_chunk(8, &mut out), n as usize, "only what is there");
            for v in &out {
                assert_eq!(*v, expected);
                expected += 1;
            }
        }
        assert!(rx.is_empty() && rx.pop_chunk(1, &mut out) == 0);
    }

    #[test]
    fn a_transfer_larger_than_the_capacity_chunks_through() {
        const N: u32 = if cfg!(miri) { 500 } else { 50_000 };
        let (mut tx, mut rx) = spsc::<u32>(7);
        let producer = thread::spawn(move || {
            let block: Vec<u32> = (0..N).collect();
            tx.push_slice(&block, || false, None)
        });
        let mut out = vec![u32::MAX];
        rx.pop_slice(N as usize, &mut out, || false, None)
            .expect("never aborted");
        assert_eq!(producer.join().unwrap(), Ok(()));
        assert_eq!(out[0], u32::MAX, "pop_slice appends");
        assert!(out[1..].iter().copied().eq(0..N));
        assert!(rx.pop().is_none());
    }

    #[test]
    fn a_parked_consumer_is_woken_by_a_slice() {
        let (mut tx, mut rx) = spsc::<u32>(8);
        let consumer = thread::spawn(move || {
            let (mut out, mut stats) = (Vec::new(), WaitStats::default());
            let popped = rx.pop_slice(6, &mut out, || false, Some(&mut stats));
            (popped, out, stats)
        });
        until(|| tx.consumer_parked());
        tx.push_slice(&[1, 2, 3, 4, 5, 6], || false, None).unwrap();
        let (popped, out, stats) = consumer.join().unwrap();
        assert_eq!((popped, out), (Ok(()), vec![1, 2, 3, 4, 5, 6]));
        assert!(stats.waits >= 1 && stats.parks >= 1, "{stats:?}");
    }

    #[test]
    fn a_parked_producer_is_woken_by_a_slice() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        assert_eq!(tx.push_chunk(&[0, 1, 2, 3]), 4);
        let producer = thread::spawn(move || {
            let mut stats = WaitStats::default();
            let pushed = tx.push_slice(&[4, 5, 6, 7, 8, 9], || false, Some(&mut stats));
            (pushed, stats)
        });
        until(|| rx.producer_parked());
        let mut out = Vec::new();
        rx.pop_slice(10, &mut out, || false, None).unwrap();
        let (pushed, stats) = producer.join().unwrap();
        assert_eq!(pushed, Ok(()));
        assert!(out.iter().copied().eq(0..10));
        assert!(stats.parks >= 1, "{stats:?}");
    }

    #[test]
    fn an_aborted_slice_reports_what_moved() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        let block: Vec<u32> = (0..10).collect();
        let mut stats = WaitStats::default();
        assert_eq!(tx.push_slice(&block, || true, Some(&mut stats)), Err(4));
        assert_eq!(stats.waits, 1);
        let mut out = Vec::new();
        assert_eq!(rx.pop_slice(10, &mut out, || true, None), Err(4));
        assert_eq!(out, [0, 1, 2, 3]);
        // The ring is intact: the transfer can resume where it stopped.
        assert_eq!(tx.push_slice(&block[4..8], || true, None), Ok(()));
        assert_eq!(rx.pop_slice(4, &mut out, || true, None), Ok(()));
        assert!(out.iter().copied().eq(0..8));
    }

    #[test]
    fn random_block_sizes_cross_threads_ordered_and_lossless() {
        const N: u64 = if cfg!(miri) { 3_000 } else { 1_000_000 };
        // xorshift64*: seeded, so a failure reproduces.
        fn next(state: &mut u64) -> usize {
            *state ^= *state >> 12;
            *state ^= *state << 25;
            *state ^= *state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize
        }
        let (mut tx, mut rx) = spsc::<u64>(96);
        let producer = thread::spawn(move || {
            let (mut rng, mut sent) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
            let mut block = Vec::new();
            while sent < N {
                // Blocks up to ~3x the capacity; every tenth token goes
                // through the single-token path.
                let n = (1 + next(&mut rng) % 300).min((N - sent) as usize) as u64;
                if n.is_multiple_of(10) {
                    tx.push_wait(sent, || false).unwrap();
                    sent += 1;
                    continue;
                }
                block.clear();
                block.extend(sent..sent + n);
                tx.push_slice(&block, || false, None).unwrap();
                sent += n;
            }
        });
        let (mut rng, mut seen) = (0xD1B5_4A32_D192_ED03u64, 0u64);
        let mut block = Vec::new();
        while seen < N {
            let n = (1 + next(&mut rng) % 300).min((N - seen) as usize);
            block.clear();
            if n.is_multiple_of(7) {
                block.push(rx.pop_wait(|| false).unwrap());
            } else {
                rx.pop_slice(n, &mut block, || false, None).unwrap();
            }
            for &v in &block {
                assert_eq!(v, seen, "values must arrive in push order");
                seen += 1;
            }
        }
        producer.join().unwrap();
        assert!(rx.pop().is_none());
    }
}
