//! Stable-order event queue.
//!
//! The queue is generic over the event payload: domain crates define an
//! event `enum`, drive their own pop loop and match on each event, keeping
//! all mutable state in one place. Events scheduled for the same instant
//! are delivered in scheduling-stamp order, then insertion order, which
//! makes every run deterministic given a fixed seed. The stamp is the
//! clock at insertion unless the caller supplies one
//! ([`EventQueue::schedule_stamped`]), so by default ties break FIFO.
//!
//! # Implementation: a binary heap
//!
//! The queue is a `std` [`BinaryHeap`] ordered by the key
//! `(time, stamp, seq)`, where `seq` is a monotone insertion counter.
//! No two events share a `seq`, so the key is a total order and the pop
//! order is the key's, never an accident of heap sift order (pinned by
//! `ties_break_by_insertion_order`, `ties_break_by_stamp_first` and the
//! differential property tests in `tests/proptest_kernel.rs`).
//!
//! A heap suffices because each queue holds few events: the event loop
//! runs as port-group shards, and NIC trains move a host's back-to-back
//! packets without queue events. A bucketed ladder queue measured no
//! faster on those populations.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event payload scheduled for a specific instant.
struct Scheduled<E> {
    time: SimTime,
    stamp: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Scheduled<E> {
    /// The total order of delivery: time first, then stamp, then
    /// insertion order.
    #[inline]
    fn key(&self) -> (SimTime, SimTime, u64) {
        (self.time, self.stamp, self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    /// Reversed, so the max-heap's top is the earliest key.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A future-event list with a monotonically advancing clock.
///
/// Invariants:
/// * [`EventQueue::pop`] never returns events out of `(time, stamp, seq)`
///   order — plain [`EventQueue::schedule_at`] stamps the current clock,
///   so without explicit stamps that is FIFO among equal times;
/// * the clock (`now`) never moves backwards;
/// * scheduling an event strictly in the past is a logic error and panics.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at t = 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` for the absolute instant `at`, stamped with
    /// the current clock: equal-time events pop in insertion order.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock: an event in the
    /// past indicates a bug in the caller's timing logic, and silently
    /// reordering it would corrupt the run.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        self.schedule_stamped(at, self.now, payload);
    }

    /// Schedules `payload` for `at` with an explicit scheduling stamp:
    /// among events due at the same instant, lower stamps pop first
    /// (insertion order breaks stamp ties). Lets a caller that feeds one
    /// queue from several clocks replay equal-time events in the order a
    /// single global queue would have inserted them.
    ///
    /// # Panics
    /// As [`schedule_at`](Self::schedule_at).
    pub fn schedule_stamped(&mut self, at: SimTime, stamp: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled {
            time: at,
            stamp,
            seq,
            payload,
        });
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.time >= self.now, "event queue clock went backwards");
        self.now = ev.time;
        Some((ev.time, ev.payload))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// The `(time, stamp)` of the earliest pending event, if any.
    pub fn peek_key(&self) -> Option<(SimTime, SimTime)> {
        self.heap.peek().map(|s| (s.time, s.stamp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), "c");
        q.schedule_at(SimTime::from_nanos(10), "a");
        q.schedule_at(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    /// Explicit stamps order equal-time events ahead of insertion order;
    /// equal stamps stay FIFO, and time still comes first.
    #[test]
    fn ties_break_by_stamp_first() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(50);
        q.schedule_stamped(t, SimTime::from_nanos(30), "c");
        q.schedule_stamped(t, SimTime::from_nanos(10), "a");
        q.schedule_stamped(SimTime::from_nanos(40), SimTime::from_nanos(35), "first");
        q.schedule_stamped(t, SimTime::from_nanos(30), "d");
        q.schedule_stamped(t, SimTime::from_nanos(20), "b");
        assert_eq!(
            q.peek_key(),
            Some((SimTime::from_nanos(40), SimTime::from_nanos(35)))
        );
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["first", "a", "b", "c", "d"]);
    }

    /// The FIFO tie-break must survive *interleaved* pops and pushes at
    /// the same instant: an event scheduled after a pop comes out after
    /// every equal-time event already pending.
    #[test]
    fn ties_break_by_insertion_order_under_interleaving() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(40);
        q.schedule_at(t, 0);
        q.schedule_at(t, 1);
        assert_eq!(q.pop(), Some((t, 0)));
        // Scheduled *after* the first pop, still at the same instant:
        // must come out after everything already pending at t.
        q.schedule_at(t, 2);
        q.schedule_at(t + SimDuration::from_nanos(1), 3);
        q.schedule_at(t, 4);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
        assert_eq!(q.pop(), Some((t, 4)));
        assert_eq!(q.pop(), Some((t + SimDuration::from_nanos(1), 3)));
        assert_eq!(q.pop(), None);
    }

    /// A same-instant flood behind an earlier event keeps insertion
    /// order: only `seq` tells its events apart.
    #[test]
    fn same_instant_flood_stays_fifo() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(1), usize::MAX);
        let t = SimTime::from_micros(10);
        let n = 384;
        for i in 0..n {
            q.schedule_at(t, i);
        }
        assert_eq!(q.pop().unwrap().1, usize::MAX);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    /// Events spanning nanoseconds to seconds, scheduled out of order,
    /// pop in exact `(time, insertion)` order.
    #[test]
    fn wide_time_span_pops_in_order() {
        let mut q = EventQueue::new();
        let mut times = Vec::new();
        let mut x = 9_301u64;
        for i in 0..5_000u64 {
            // Deterministic LCG mix of near and far times.
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(17);
            let t = match i % 4 {
                0 => x % 1_000,                     // ns-scale
                1 => 1_000_000 + x % 1_000_000,     // ms-scale
                2 => x % 50_000,                    // µs-scale
                _ => 1_000_000_000 + x % 1_000_000, // s-scale
            };
            times.push(t);
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last = (SimTime::ZERO, 0u64);
        let mut count = 0;
        while let Some((t, i)) = q.pop() {
            assert!(
                (t, i) >= last,
                "order violated: {:?} after {:?}",
                (t, i),
                last
            );
            assert_eq!(t.as_nanos(), times[i as usize]);
            last = (t, i);
            count += 1;
        }
        assert_eq!(count, 5_000);
    }

    /// A drained queue takes new events at any later time, near or far,
    /// and keeps its clock.
    #[test]
    fn drain_and_reuse_is_clean() {
        let mut q = EventQueue::new();
        for i in 0..300u64 {
            q.schedule_at(SimTime::from_nanos(i * 7), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.peek_key(), None);
        assert_eq!(q.now(), SimTime::from_nanos(299 * 7));
        // Re-seed far beyond the old span, then just after `now`.
        q.schedule_at(SimTime::from_millis(5), 1_000);
        q.schedule_at(SimTime::from_micros(3), 1_001);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(3)));
        assert_eq!(q.pop().unwrap().1, 1_001);
        assert_eq!(q.pop().unwrap().1, 1_000);
        assert!(q.pop().is_none());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule_at(SimTime::from_nanos(9), ());
    }

    #[test]
    fn extreme_timestamps_are_handled() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(u64::MAX), 2);
        q.schedule_at(SimTime::from_nanos(u64::MAX - 1), 1);
        q.schedule_at(SimTime::from_nanos(0), 0);
        q.schedule_at(SimTime::from_nanos(u64::MAX), 3);
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.now(), SimTime::MAX);
    }
}
