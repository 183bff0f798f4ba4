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
//! # Implementation: a ladder queue
//!
//! The queue is a [ladder queue](https://doi.org/10.1145/1103323.1103324)
//! rather than a binary heap: events are spread into time buckets on
//! insert (O(1)) and each bucket is sorted lazily, only when the pop
//! frontier reaches it. For the simulator's event mix — millions of
//! packet events ~1 µs ahead of `now`, plus a thin tail of epoch/app
//! timers ms ahead — this replaces the heap's ~log n pointer-chasing
//! sift per event with an append plus an amortized short sort of one
//! cache-resident bucket.
//!
//! Ordering is **exactly** the heap's: every event carries a stamp and a
//! monotone sequence number, buckets are sorted by the full
//! `(time, stamp, seq)` key, and pops always come from the sorted
//! `bottom` run. The tie-break at equal timestamps is therefore an
//! explicit invariant of the data structure (pinned by
//! `ties_break_by_insertion_order`, `ties_break_by_stamp_first` and the
//! differential property test in `tests/proptest_kernel.rs`), not an
//! accident of heap sift order — swapping the backing store cannot
//! reorder equal-time events.
//!
//! Structure, nearest first:
//!
//! * `bottom` — the imminent events, a ring buffer sorted *descending*
//!   by `(time, stamp, seq)` and popped from the back (a pop is O(1), an
//!   insert shifts whichever side of the ring is shorter — so both a
//!   near-`now` event and a same-instant append are cheap);
//! * `rungs` — a stack of bucket arrays. Rung 0 spans every event known
//!   when it was built; each deeper rung subdivides one overfull bucket
//!   of its parent, so dense clusters are spread recursively instead of
//!   sorted as one huge batch;
//! * `overflow` — events beyond rung 0's span, untouched until the rung
//!   drains, then re-spread into a fresh rung 0.

use std::collections::VecDeque;

use crate::time::{SimDuration, SimTime};

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

/// Most buckets rung 0 may use (it is rebuilt from `overflow` and spans
/// all pending times; the actual count scales with the population so a
/// sparse queue does not pay empty-bucket scans).
const BASE_BUCKETS: usize = 1024;
/// Buckets in a spread rung (subdivides one parent bucket).
const SUB_BUCKETS: usize = 64;
/// A bucket reaching the pop frontier with more events than this (and a
/// width above one nanosecond) is spread into a deeper rung instead of
/// sorted directly.
const SPREAD_THRESHOLD: usize = 96;
/// An exhausted ladder whose overflow is at most this many events skips
/// bucketing and sorts the overflow straight into `bottom`: for sparse
/// queues (a shard's few NIC/ingress events, slow-mode runs idle between
/// grant bursts) the ladder degenerates into one small sorted run, which
/// then takes every later insert, instead of paying rung bookkeeping per
/// event. Safe only because of the spill valve below.
const DIRECT_SORT: usize = 96;
/// When merge-inserts grow `bottom` beyond this, its far half is spilled
/// into a fresh deepest rung and `bottom_limit` lowered. This is the
/// valve that keeps the sorted run small when a dense burst arrives
/// while `bottom_limit` sits far in the future (after a sparse direct
/// sort or a coarse bucket) — without it each insert would shift an
/// ever-growing tail, degenerating into an O(n²) insertion list.
const SPILL_THRESHOLD: usize = 256;
/// A merge-insert that has to shift more than this many events also
/// trips the valve: an interleaved burst lands mid-run, where every
/// further insert would shift as much again.
const SPILL_SHIFT: usize = 32;

/// One level of the ladder: `buckets[i]` holds events with
/// `start + i·width <= t < start + (i+1)·width`, unsorted.
struct Rung<E> {
    start: u64,
    width: u64,
    /// Exclusive end of this rung's coverage (saturating).
    end: u64,
    /// First bucket the pop frontier has not passed yet.
    cur: usize,
    /// Buckets in use this activation (`buckets.len()` may be larger —
    /// rungs are pooled and keep their allocations).
    nbuckets: usize,
    buckets: Vec<Vec<Scheduled<E>>>,
}

impl<E> Rung<E> {
    fn new() -> Self {
        Rung {
            start: 0,
            width: 1,
            end: 0,
            cur: 0,
            nbuckets: 0,
            buckets: Vec::new(),
        }
    }

    /// Re-arms the rung to cover `[start, start + nbuckets·width)`,
    /// clamped to `end_cap`. The clamp matters for spread rungs: their
    /// bucket grid may overhang the parent bucket's range by up to one
    /// sub-bucket, and an unclamped `end` would steal later-scheduled
    /// events that belong to the parent's *next* (undrained) bucket —
    /// delivering them ahead of earlier times already waiting there.
    fn arm(&mut self, start: u64, width: u64, nbuckets: usize, end_cap: u64) {
        debug_assert!(width >= 1);
        self.start = start;
        self.width = width;
        self.end = start
            .saturating_add(width.saturating_mul(nbuckets as u64))
            .min(end_cap);
        self.cur = 0;
        self.nbuckets = nbuckets;
        if self.buckets.len() < nbuckets {
            self.buckets.resize_with(nbuckets, Vec::new);
        }
    }

    #[inline]
    fn bucket_of(&self, t: u64) -> usize {
        // `t < self.end` is deliberately not asserted: when the grid
        // span saturates (events near `u64::MAX`), `end` clamps to the
        // maximum while the ceil-sized width still maps every
        // distributed timestamp into a valid bucket — the index bound
        // below is the real invariant.
        debug_assert!(t >= self.start);
        let idx = ((t - self.start) / self.width) as usize;
        debug_assert!(idx < self.nbuckets, "ladder bucket index out of range");
        idx
    }
}

/// A future-event list with a monotonically advancing clock.
///
/// Invariants:
/// * [`EventQueue::pop`] never returns events out of `(time, stamp, seq)`
///   order — plain [`EventQueue::schedule_at`] stamps the current clock,
///   so without explicit stamps that is FIFO among equal times;
/// * the clock (`now`) never moves backwards;
/// * scheduling an event strictly in the past is a logic error and panics;
/// * whenever the queue is non-empty, `bottom` is non-empty and its last
///   element is the global minimum `(time, stamp, seq)`.
pub struct EventQueue<E> {
    /// Imminent events, sorted descending by `(time, stamp, seq)`; popped from
    /// the back. Covers times strictly below `bottom_limit`. A ring
    /// buffer so merge-inserts shift the shorter side: a same-instant
    /// flood keeps appending at the front for O(1) each, where a `Vec`
    /// would memmove the whole equal-time group per insert.
    bottom: VecDeque<Scheduled<E>>,
    /// Exclusive upper bound of the range `bottom` is responsible for:
    /// a newly scheduled event below it must be merge-inserted here.
    bottom_limit: u64,
    /// The rung stack; `rungs[..depth]` are active, deepest last. Spare
    /// rungs keep their bucket allocations for reuse.
    rungs: Vec<Rung<E>>,
    depth: usize,
    /// Events at or beyond rung 0's coverage, unsorted.
    overflow: Vec<Scheduled<E>>,
    len: usize,
    seq: u64,
    now: SimTime,
    scheduled_total: u64,
    /// Structural-path counters (see the accessors below): cheap enough
    /// to maintain unconditionally, deterministic for a fixed event
    /// sequence, and the only visibility into which ladder paths a
    /// workload actually exercises.
    spreads: u64,
    spills: u64,
    direct_sorts: u64,
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
            bottom: VecDeque::new(),
            bottom_limit: 0,
            rungs: Vec::new(),
            depth: 0,
            overflow: Vec::new(),
            len: 0,
            seq: 0,
            now: SimTime::ZERO,
            scheduled_total: 0,
            spreads: 0,
            spills: 0,
            direct_sorts: 0,
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
        self.scheduled_total += 1;
        self.len += 1;
        let ev = Scheduled {
            time: at,
            stamp,
            seq,
            payload,
        };
        let t = at.as_nanos();
        if self.len == 1 {
            // Empty queue: the event becomes the whole bottom run. The
            // ladder is guaranteed idle here (it is reset when the queue
            // drains), so widening `bottom_limit` cannot strand an event
            // in a passed bucket.
            debug_assert!(self.depth == 0 && self.overflow.is_empty());
            self.bottom.push_back(ev);
            self.bottom_limit = t.saturating_add(1);
            return;
        }
        if t < self.bottom_limit {
            // The pop frontier already owns this range: merge-insert.
            // Descending order means the shifted tail is exactly the
            // events delivered *before* this one — for the common
            // "schedule at `now`" case that is just the same-instant
            // events already pending, typically a handful.
            let key = (at, stamp, seq);
            let pos = self.bottom.partition_point(|e| e.key() > key);
            let shift = pos.min(self.bottom.len() - pos);
            self.bottom.insert(pos, ev);
            if self.bottom.len() > SPILL_THRESHOLD || shift > SPILL_SHIFT {
                self.spill_bottom();
            }
            return;
        }
        // Deepest rung first: deeper rungs cover earlier sub-ranges, so
        // the first rung whose span contains `t` is the right home.
        for d in (0..self.depth).rev() {
            if t < self.rungs[d].end {
                let idx = self.rungs[d].bucket_of(t);
                self.rungs[d].buckets[idx].push(ev);
                return;
            }
        }
        self.overflow.push(ev);
    }

    /// Schedules `payload` for `delay` after the current clock.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ev = self.bottom.pop_back()?;
        debug_assert!(ev.time >= self.now, "event queue clock went backwards");
        self.now = ev.time;
        self.len -= 1;
        if self.bottom.is_empty() {
            if self.len == 0 {
                self.reset_structure();
            } else {
                self.replenish();
            }
        }
        Some((ev.time, ev.payload))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.bottom.back().map(|s| s.time)
    }

    /// The `(time, stamp)` of the earliest pending event, if any.
    pub fn peek_key(&self) -> Option<(SimTime, SimTime)> {
        self.bottom.back().map(|s| (s.time, s.stamp))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Dense buckets spread into deeper rungs (the recursive-subdivision
    /// path in `replenish`). A workload that never spreads fits each
    /// frontier bucket in one short sort.
    pub fn spread_count(&self) -> u64 {
        self.spreads
    }

    /// Oversized bottom runs spilled back into a fresh deepest rung (the
    /// valve that guards against O(n²) merge-inserts under a far
    /// `bottom_limit`).
    pub fn spill_count(&self) -> u64 {
        self.spills
    }

    /// Sparse replenishes that sorted the overflow straight into `bottom`
    /// without building a rung (the slow-mode idle path).
    pub fn direct_sort_count(&self) -> u64 {
        self.direct_sorts
    }

    /// Drops all pending events without advancing the clock.
    pub fn clear(&mut self) {
        self.bottom.clear();
        for r in &mut self.rungs[..self.depth] {
            for b in &mut r.buckets {
                b.clear();
            }
        }
        self.overflow.clear();
        self.len = 0;
        self.reset_structure();
    }

    /// Puts the ladder into its canonical empty state (no active rungs,
    /// `bottom_limit` at zero) so stale coverage can never swallow a new
    /// event into an already-passed bucket.
    fn reset_structure(&mut self) {
        debug_assert!(self.bottom.is_empty() && self.overflow.is_empty());
        self.depth = 0;
        self.bottom_limit = 0;
    }

    /// Restores the "`bottom` non-empty" invariant: walks the deepest
    /// rung to the next non-empty bucket, spreading overfull buckets
    /// into deeper rungs, rebuilding rung 0 from `overflow` when the
    /// ladder is exhausted. Caller guarantees `len > 0`.
    fn replenish(&mut self) {
        debug_assert!(self.bottom.is_empty() && self.len > 0);
        loop {
            if self.depth == 0 {
                debug_assert!(!self.overflow.is_empty(), "events lost by the ladder");
                if self.overflow.len() <= DIRECT_SORT {
                    // Sparse population: one sorted run, no rung. The run
                    // holds every pending event, so it owns all of time:
                    // later events merge-insert into it (cheap — they land
                    // near its far end) rather than collecting in
                    // `overflow` for another sort. A dense burst is
                    // handed back to a rung by the spill valve.
                    self.direct_sorts += 1;
                    let mut batch = std::mem::take(&mut self.overflow);
                    batch.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                    self.bottom_limit = u64::MAX;
                    self.bottom = VecDeque::from(batch);
                    return;
                }
                self.rebuild_base_rung();
            }
            let r = &mut self.rungs[self.depth - 1];
            let mut cur = r.cur;
            while cur < r.nbuckets && r.buckets[cur].is_empty() {
                cur += 1;
            }
            if cur == r.nbuckets {
                // This rung is drained; resume its parent (or, at depth
                // 0, fall through to an overflow rebuild next loop).
                self.bottom_limit = r.end;
                self.depth -= 1;
                continue;
            }
            r.cur = cur + 1;
            let bucket_start = r.start.saturating_add(r.width.saturating_mul(cur as u64));
            // The last bucket's grid cell may overhang the rung's clamped
            // coverage; the bucket only *owns* times below `r.end`, and
            // claiming more (via `bottom_limit` or a spread rung's span)
            // would pull later-scheduled events ahead of equal-or-earlier
            // ones waiting in the parent's next bucket.
            let bucket_end = r
                .start
                .saturating_add(r.width.saturating_mul(cur as u64 + 1))
                .min(r.end);
            if r.buckets[cur].len() > SPREAD_THRESHOLD && r.width > 1 {
                // Dense bucket: spread it one level finer instead of
                // sorting a big batch.
                let events = std::mem::take(&mut r.buckets[cur]);
                let width = (r.width - 1) / SUB_BUCKETS as u64 + 1;
                let nbuckets = ((r.width - 1) / width + 1) as usize;
                self.spreads += 1;
                self.push_rung(bucket_start, width, nbuckets, bucket_end);
                let rung = &mut self.rungs[self.depth - 1];
                for ev in events {
                    let idx = rung.bucket_of(ev.time.as_nanos());
                    rung.buckets[idx].push(ev);
                }
                continue;
            }
            // Normal case: this bucket becomes the new bottom run (both
            // conversions are O(1) and move no elements; the old
            // bottom's allocation is recycled as the bucket's future
            // backing store).
            let mut batch = std::mem::take(&mut r.buckets[cur]);
            r.buckets[cur] = Vec::from(std::mem::take(&mut self.bottom));
            batch.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            self.bottom = VecDeque::from(batch);
            self.bottom_limit = bucket_end;
            return;
        }
    }

    /// Moves the far (front) half of an oversized `bottom` into a fresh
    /// deepest rung covering `[split, bottom_limit)` — or, with no rung
    /// active, `[split, last event]`, later times going to `overflow` —
    /// and lowers `bottom_limit` to the split. Legal because a deeper
    /// rung always covers times *below* every shallower rung's undrained
    /// frontier — exactly where these events sit — so pop order is
    /// preserved; the split is taken at a strict time boundary so
    /// equal-time FIFO runs are never torn apart.
    fn spill_bottom(&mut self) {
        // `bottom` is descending: the front half holds the latest times.
        let mid_time = self.bottom[self.bottom.len() / 2].time;
        let cut = self.bottom.partition_point(|e| e.time > mid_time);
        if cut == 0 {
            // Everything from the front shares one timestamp: no legal
            // split point. Letting the run grow is fine — a same-instant
            // flood appends at the ring's front for O(1) each.
            return;
        }
        let start = mid_time.as_nanos().saturating_add(1);
        // With no rung active, nothing shallower owns the times past the
        // run's last event: the spill rung stops there and later times go
        // to `overflow`, instead of slicing up all of `[start, limit)`.
        let end = match self.depth {
            0 => self.bottom[0].time.as_nanos().saturating_add(1),
            _ => self.bottom_limit,
        };
        debug_assert!(start < end, "spill range must be non-empty");
        let span = end - start;
        let width = (span - 1) / SUB_BUCKETS as u64 + 1;
        let nbuckets = ((span - 1) / width + 1) as usize;
        self.spills += 1;
        self.push_rung(start, width, nbuckets, end);
        let rung = self.depth - 1;
        for ev in self.bottom.drain(..cut) {
            let idx = self.rungs[rung].bucket_of(ev.time.as_nanos());
            self.rungs[rung].buckets[idx].push(ev);
        }
        self.bottom_limit = start;
    }

    /// Activates a (possibly recycled) rung covering
    /// `[start, start + nbuckets·width)` (clamped to `end_cap`) as the
    /// new deepest level.
    fn push_rung(&mut self, start: u64, width: u64, nbuckets: usize, end_cap: u64) {
        if self.depth == self.rungs.len() {
            self.rungs.push(Rung::new());
        }
        self.rungs[self.depth].arm(start, width, nbuckets, end_cap);
        self.depth += 1;
    }

    /// Re-spreads the whole overflow into a fresh rung 0 sized to its
    /// actual time span, so bucket width adapts to the pending-event
    /// distribution each rebuild.
    fn rebuild_base_rung(&mut self) {
        debug_assert!(self.depth == 0 && !self.overflow.is_empty());
        let mut min = u64::MAX;
        let mut max = 0u64;
        for e in &self.overflow {
            let t = e.time.as_nanos();
            min = min.min(t);
            max = max.max(t);
        }
        // Bucket count tracks the population (~1 event per bucket up to
        // the cap) so the drain scan never visits far more buckets than
        // there are events.
        let nbuckets = self.overflow.len().next_power_of_two().min(BASE_BUCKETS);
        let width = (max - min) / nbuckets as u64 + 1;
        self.push_rung(min, width, nbuckets, u64::MAX);
        let rung = &mut self.rungs[0];
        for ev in self.overflow.drain(..) {
            let idx = rung.bucket_of(ev.time.as_nanos());
            rung.buckets[idx].push(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    /// the same instant — the case where a lazily-sorted structure could
    /// deliver a late-scheduled event ahead of an earlier equal-time one.
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

    /// A same-instant flood larger than the spread threshold: width-1
    /// buckets cannot subdivide, so the ladder must sort the batch and
    /// still respect insertion order.
    #[test]
    fn same_instant_flood_stays_fifo() {
        let mut q = EventQueue::new();
        // Force the flood through the ladder (not the bottom fast path)
        // by anchoring an earlier event first.
        q.schedule_at(SimTime::from_nanos(1), usize::MAX);
        let t = SimTime::from_micros(10);
        let n = 4 * SPREAD_THRESHOLD;
        for i in 0..n {
            q.schedule_at(t, i);
        }
        assert_eq!(q.pop().unwrap().1, usize::MAX);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    /// Events spanning nanoseconds to seconds exercise the overflow →
    /// rung rebuild path and deep spreading; order must stay exact.
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

    /// Draining the queue and reusing it must not leave stale ladder
    /// coverage that swallows new events.
    #[test]
    fn drain_and_reuse_is_clean() {
        let mut q = EventQueue::new();
        for i in 0..300u64 {
            q.schedule_at(SimTime::from_nanos(i * 7), i);
        }
        while q.pop().is_some() {}
        assert!(q.is_empty());
        // Re-seed far beyond the old span, then just after `now`.
        q.schedule_at(SimTime::from_millis(5), 1_000);
        q.schedule_at(SimTime::from_micros(3), 1_001);
        assert_eq!(q.pop().unwrap().1, 1_001);
        assert_eq!(q.pop().unwrap().1, 1_000);
        assert!(q.pop().is_none());
    }

    /// A dense ascending burst scheduled while `bottom_limit` sits far in
    /// the future (one lone timer pinned it) must trigger the spill valve
    /// and still pop in exact order.
    #[test]
    fn dense_burst_under_far_bottom_limit_spills_and_stays_ordered() {
        let mut q = EventQueue::new();
        // Lone far timer: bottom_limit ratchets to +1 ms.
        q.schedule_at(SimTime::from_millis(1), u64::MAX);
        // Grant-burst pattern: thousands of ascending near events.
        let n = 4 * SPILL_THRESHOLD as u64;
        for i in 0..n {
            q.schedule_at(SimTime::from_nanos(500 + i * 3), i);
        }
        let mut last = (SimTime::ZERO, 0u64);
        for _ in 0..n {
            let (t, i) = q.pop().unwrap();
            assert!((t, i) > last || last == (SimTime::ZERO, 0));
            last = (t, i);
        }
        assert_eq!(q.pop().unwrap().1, u64::MAX);
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
    fn schedule_after_uses_current_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.pop();
        q.schedule_after(SimDuration::from_nanos(5), 2);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(15));
    }

    /// The structural-path counters observe the paths the dedicated
    /// ordering tests force: a dense burst under a far `bottom_limit`
    /// spills, a sparse drain direct-sorts, a same-instant flood spreads
    /// (then falls back to a direct sort of width-1 buckets).
    #[test]
    fn structural_counters_track_ladder_paths() {
        let mut q = EventQueue::new();
        assert_eq!(
            (q.spread_count(), q.spill_count(), q.direct_sort_count()),
            (0, 0, 0)
        );
        // Spill: dense ascending burst while a lone timer holds
        // `bottom_limit` a millisecond out.
        q.schedule_at(SimTime::from_millis(1), u64::MAX);
        for i in 0..4 * SPILL_THRESHOLD as u64 {
            q.schedule_at(SimTime::from_nanos(500 + i * 3), i);
        }
        while q.pop().is_some() {}
        assert!(q.spill_count() >= 1, "dense burst must trip the valve");
        // Direct sort: a drained ladder with a tiny overflow population.
        let spills = q.spill_count();
        q.schedule_at(SimTime::from_millis(2), 1);
        q.schedule_at(SimTime::from_millis(3), 2);
        q.pop();
        assert!(q.direct_sort_count() >= 1, "sparse replenish direct-sorts");
        while q.pop().is_some() {}
        // Spread: an overflow rebuild whose buckets exceed the threshold.
        let n = 4 * SPREAD_THRESHOLD as u64;
        q.schedule_at(SimTime::from_millis(4), u64::MAX);
        for i in 0..n {
            q.schedule_at(SimTime::from_millis(10) + SimDuration::from_nanos(i / 8), i);
        }
        while q.pop().is_some() {}
        assert!(q.spread_count() >= 1, "dense bucket must spread");
        assert_eq!(q.spill_count(), spills, "no further spills expected");
    }

    #[test]
    fn scheduled_total_counts_everything() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(1), ());
        q.schedule_at(SimTime::from_nanos(2), ());
        q.pop();
        q.clear();
        assert_eq!(q.scheduled_total(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn extreme_timestamps_are_handled() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(u64::MAX), 2);
        q.schedule_at(SimTime::from_nanos(u64::MAX - 1), 1);
        q.schedule_at(SimTime::from_nanos(0), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.now(), SimTime::MAX);
    }

    /// A rung rebuild whose span reaches `u64::MAX` saturates the grid's
    /// `end`; events at the extreme timestamp must still land in a valid
    /// bucket and pop in order (more than `DIRECT_SORT` events force the
    /// bucketing path, which the small-population test above skips).
    #[test]
    fn saturated_rung_span_keeps_extreme_timestamps() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, 0u64);
        let n = 3 * DIRECT_SORT as u64;
        for i in 1..n {
            q.schedule_at(SimTime::from_nanos(i * 1_000), i);
        }
        q.schedule_at(SimTime::from_nanos(u64::MAX), n);
        q.schedule_at(SimTime::from_nanos(u64::MAX), n + 1);
        for want in 0..=n + 1 {
            assert_eq!(q.pop().unwrap().1, want);
        }
        assert!(q.pop().is_none());
    }
}
