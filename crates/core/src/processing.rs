//! Processing logic: the VOQ subsystem of Figure 2.
//!
//! "Incoming packets … are classified into flows based on configurable
//! look-up rules and placed into their respective Virtual Output Queue
//! (VOQ). As the status of a VOQ changes, the subsystem generates
//! scheduling requests and transmits packets upon receiving transmission
//! grants."
//!
//! No look-up runs here: a flow's class is set when the flow is generated
//! (from the flow-size threshold), so by the time bytes reach the VOQ
//! bank they carry their class and egress. This module owns the VOQs of
//! the pairs that traffic reaches, the request generation (dirty-pair
//! tracking), and grant execution.
//!
//! One bank serves both scheduler placements. Under hardware placement
//! it is the switch's buffer: a packet enters at switch arrival, within
//! `voq_capacity`, and a slot's activation cuts what fits its budget.
//! Under software placement it is host memory: a host queues a whole
//! flow (or gated app send) with no capacity check, and cuts what its NIC
//! can send within a grant's window as its own clock sees it.
//!
//! A bank keeps state only for the pairs its traffic reaches: a record is
//! made when a pair's first bytes are queued, so a run's VOQ state
//! grows with the pairs its traffic touches, not with n². The trade-off
//! is on dense traffic: a pair costs a record of at most 40 B plus a
//! hash-map entry (8 B and a control byte), where a dense `n × n` array
//! of 32 B records would cost 32 B. No workload runs a large dense exact
//! fabric (sweep-grid is dense at 16/32 ports, kilofabric's multi-ring
//! sends to 4 of 1024/2048 destinations per source), so there is one
//! layout and no switch between two.

use xds_metrics::FastHashMap;
use xds_net::Packet;
use xds_sim::SimTime;

use crate::demand::{DemandMatrix, SchedRequest};
use crate::pool::{Fifo, Pool, Staged};

/// One pair's VOQ record: its run FIFO, byte counts and dirty flag.
#[derive(Debug)]
struct PairState {
    /// Cumulative bytes ever enqueued (for rate estimators).
    arrived_total: u64,
    /// Bytes queued now.
    queued: u64,
    /// The pair's packets, as an intrusive FIFO of runs in the shared
    /// pool.
    fifo: Fifo,
    /// The pair's global ports.
    src: u32,
    dst: u32,
    /// Whether this pair is in the dirty list.
    dirty: bool,
}

// A record stays within 40 B: on a dense fabric it costs at most 8 B a
// pair more than a dense array's 32 B entry (plus its map entry).
const _: () = assert!(std::mem::size_of::<PairState>() <= 40);

/// Entries in the lookup cache, which is direct-mapped by source port.
const CACHE_LEN: usize = 64;

/// An empty cache line: no pair has this key (keys are below
/// `n² < 2³² − 1`).
const NO_KEY: u32 = u32::MAX;

/// The VOQ bank plus request bookkeeping.
///
/// Records live in a slab in first-touch order and are found through a
/// deterministic fast-hash map keyed by the global pair `src·n + dst`.
/// In front of the map sits a small cache, direct-mapped by source port,
/// holding the key and slot of the pair each source last enqueued to: a
/// host sends a flow's packets back-to-back, so the common enqueue — and
/// a grant to the pair its source is feeding — makes no hash probe. A
/// record, once made, stays: a drained pair keeps its cumulative byte
/// count, and a pair without one reads as an empty VOQ.
///
/// Each VOQ is an intrusive FIFO of *runs* in one shared **run pool**
/// ([`Pool`] — a free-list slab of 4-entry chunks), each run holding one
/// flow's consecutive packets. An arriving packet that continues its
/// VOQ's tail run (same flow, the next `seq`, after a full segment) only
/// grows that run's byte count; any other packet opens a new run, and a
/// host's whole flow is one run from the start. A grant cuts packets off
/// the front run, so the bank hands out exactly the packets it was given
/// (or a flow's eager packetization), in order, while a backlog costs one
/// pool slot per run rather than per packet. Queued bytes are maintained
/// incrementally, and dirty pairs are kept in an explicit list, so
/// request generation touches only the pairs that changed.
///
/// A bank holds whatever pairs it is handed: a sharded core gives each
/// shard its own bank and routes a packet to the bank of the shard that
/// owns its source, so the banks' records partition the fabric's pairs.
#[derive(Debug)]
pub struct ProcessingLogic {
    n: usize,
    voq_capacity: u64,
    /// Shared chunk pool backing every VOQ FIFO.
    pool: Pool<Staged>,
    /// The records, in first-touch order.
    pairs: Vec<PairState>,
    /// Pair key `src·n + dst` → slot in `pairs`.
    slots: FastHashMap<u32, u32>,
    /// `(key, slot)` of the pair source `s` last enqueued to, at
    /// `s % CACHE_LEN`. Boxed: a sharded core keeps one bank per shard
    /// and walks every shard each epoch, so the bank stays small.
    cache: Box<[(u32, u32); CACHE_LEN]>,
    /// The pairs flagged dirty as `key << 32 | slot`, unsorted (sorted on
    /// take, so requests come out in ascending `(src, dst)` order).
    dirty_list: Vec<u64>,
    /// Incrementally-maintained sum of `queued` (O(1) ground-truth total).
    total_queued: u64,
}

impl ProcessingLogic {
    /// Creates an empty VOQ bank for an `n`-port fabric with
    /// `voq_capacity` bytes per switch queue. It holds no record until
    /// bytes are queued.
    pub fn new(n: usize, voq_capacity: u64) -> Self {
        assert!(n >= 2, "need at least 2 ports");
        // Ports are 16-bit, so a key `src·n + dst` fits in 32 bits.
        assert!(n < 1 << 16, "{n} ports: at most 65,535");
        assert!(voq_capacity > 0, "queue capacity must be positive");
        ProcessingLogic {
            n,
            voq_capacity,
            pool: Pool::new(),
            pairs: Vec::new(),
            slots: FastHashMap::default(),
            cache: Box::new([(NO_KEY, 0); CACHE_LEN]),
            dirty_list: Vec::new(),
            total_queued: 0,
        }
    }

    /// Port count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of pairs the bank holds a record for: the distinct
    /// `(src, dst)` pairs that have had bytes queued (a packet admitted,
    /// or a host's run pushed).
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    fn key(&self, src: usize, dst: usize) -> u32 {
        debug_assert!(src < self.n && dst < self.n);
        (src * self.n + dst) as u32
    }

    /// The record of pair `key` from source `src`, if the bank holds one:
    /// the source's cache line first, then the map.
    #[inline]
    fn slot(&self, key: u32, src: usize) -> Option<usize> {
        let (cached, slot) = self.cache[src % CACHE_LEN];
        if cached == key {
            return Some(slot as usize);
        }
        self.slots.get(&key).map(|&s| s as usize)
    }

    /// Makes the record of pair `key`.
    fn insert(&mut self, key: u32, src: usize, dst: usize) -> usize {
        let slot = self.pairs.len() as u32;
        self.pairs.push(PairState {
            arrived_total: 0,
            queued: 0,
            fifo: Fifo::new(),
            src: src as u32,
            dst: dst as u32,
            dirty: false,
        });
        self.slots.insert(key, slot);
        slot as usize
    }

    #[inline]
    fn mark_dirty(&mut self, key: u32, slot: usize) {
        let pair = &mut self.pairs[slot];
        if !pair.dirty {
            pair.dirty = true;
            self.dirty_list.push((key as u64) << 32 | slot as u64);
        }
    }

    /// Enqueues a packet into VOQ `(packet.src, packet.dst)`, appending
    /// it to the VOQ's tail run when it continues that run. The pair's
    /// first admitted packet makes its record.
    ///
    /// On overflow the packet is returned — it is rejected *before*
    /// admission, so it never owns a pool chunk or makes a record, and
    /// the caller has nothing to release (the caller counts the drop).
    pub fn enqueue(&mut self, p: Packet) -> Result<(), Packet> {
        let (src, dst) = (p.src.index(), p.dst.index());
        let found = self.slot(self.key(src, dst), src);
        let queued = found.map_or(0, |s| self.pairs[s].queued);
        if queued + p.bytes as u64 > self.voq_capacity {
            return Err(p);
        }
        let (pool, fifo) = self.book(src, dst, found, p.bytes as u64);
        if !pool.back_mut(fifo).is_some_and(|run| run.append(&p)) {
            pool.push(fifo, Staged::of_packet(&p));
        }
        Ok(())
    }

    /// Admits the packets of `run` — packets of one size, as a host's NIC
    /// sends them back to back ([`Pool::cut_front_n`]) — exactly as one
    /// [`enqueue`](Self::enqueue) each would: the prefix that fits
    /// `voq_capacity` joins the VOQ's tail run where it continues it (or
    /// opens one run), and the rest is rejected. Returns how many packets
    /// were admitted; the caller counts the others as drops. A run that
    /// admits nothing makes no record.
    pub(crate) fn enqueue_run(&mut self, mut run: Staged) -> u64 {
        let (src, dst) = (run.src.index(), run.dst.index());
        let found = self.slot(self.key(src, dst), src);
        let queued = found.map_or(0, |s| self.pairs[s].queued);
        let (k, bytes) = (run.same_size_len(), run.front_bytes() as u64);
        // The packets fit one after another until one would overflow;
        // every later one is as large, so it overflows too.
        let fit = match self.voq_capacity.checked_sub(queued) {
            None => 0,
            Some(_) if bytes == 0 => k,
            Some(room) => k.min(room / bytes),
        };
        if fit == 0 {
            return 0;
        }
        run.left = fit * bytes;
        let (pool, fifo) = self.book(src, dst, found, fit * bytes);
        if !pool
            .back_mut(fifo)
            .is_some_and(|tail| tail.append_run(&run))
        {
            pool.push(fifo, run.opened());
        }
        fit
    }

    /// Queues a whole run — a flow or gated app send a host holds for a
    /// grant — on its pair's VOQ as one entry, with no capacity check:
    /// host memory is unbounded, so `voq_capacity` bounds switch VOQs
    /// only. The pair's first run makes its record.
    pub(crate) fn push_run(&mut self, run: Staged) {
        let (src, dst) = (run.src.index(), run.dst.index());
        let found = self.slot(self.key(src, dst), src);
        let (pool, fifo) = self.book(src, dst, found, run.left);
        pool.push(fifo, run);
    }

    /// Books `bytes` arriving on `(src, dst)` (whose record is `found`, or
    /// made here) and lends the pair's FIFO and the pool to queue them.
    fn book(
        &mut self,
        src: usize,
        dst: usize,
        found: Option<usize>,
        bytes: u64,
    ) -> (&mut Pool<Staged>, &mut Fifo) {
        let key = self.key(src, dst);
        let slot = match found {
            Some(slot) => slot,
            None => self.insert(key, src, dst),
        };
        self.cache[src % CACHE_LEN] = (key, slot as u32);
        self.mark_dirty(key, slot);
        let pair = &mut self.pairs[slot];
        pair.arrived_total += bytes;
        pair.queued += bytes;
        self.total_queued += bytes;
        (&mut self.pool, &mut pair.fifo)
    }

    /// Bytes queued for `(src, dst)`.
    pub fn queued_bytes(&self, src: usize, dst: usize) -> u64 {
        self.slot(self.key(src, dst), src)
            .map_or(0, |s| self.pairs[s].queued)
    }

    /// Total bytes across all VOQs (O(1): maintained incrementally).
    pub fn total_bytes(&self) -> u64 {
        debug_assert_eq!(
            self.total_queued,
            self.pairs.iter().map(|p| p.queued).sum::<u64>()
        );
        self.total_queued
    }

    /// Writes the true occupancy (ground truth for E6) of every pair the
    /// bank holds into `out`, leaving every other cell alone. A pair
    /// without a record has queued nothing, and records are never
    /// removed, so a matrix that starts at zero and is handed to the same
    /// banks epoch after epoch always holds the whole occupancy: banks
    /// whose records partition the fabric's pairs fill it exactly once.
    pub fn occupancy_into(&self, out: &mut DemandMatrix) {
        for p in &self.pairs {
            out.set(p.src as usize, p.dst as usize, p.queued);
        }
    }

    /// Drains the dirty set into scheduling requests — what the paper's
    /// "subsystem generates scheduling requests" step produces — appended
    /// to a reused buffer in ascending `(src, dst)` order. Only the dirty
    /// list is visited (sorted by pair key, so the order matches a full
    /// row-major scan). Runs once per epoch, so it doubles as the pool's
    /// conservation checkpoint.
    pub fn take_requests_into(&mut self, now: SimTime, out: &mut Vec<SchedRequest>) {
        self.pool.debug_assert_conserved();
        self.dirty_list.sort_unstable();
        for &entry in &self.dirty_list {
            let pair = &mut self.pairs[entry as u32 as usize];
            debug_assert!(pair.dirty);
            pair.dirty = false;
            out.push(SchedRequest {
                src: pair.src as usize,
                dst: pair.dst as usize,
                queued_bytes: pair.queued,
                arrived_bytes_total: pair.arrived_total,
                at: now,
            });
        }
        self.dirty_list.clear();
    }

    /// Executes a grant: cuts packets off the front of `(src, dst)`, in
    /// arrival order, while `accept` takes the next packet's size in
    /// bytes (a slot's byte budget, or a host's window), appending them
    /// to a reused buffer. The VOQ is marked dirty when a packet leaves,
    /// so the change is reported in the next request wave. A grant on a
    /// pair without a record does nothing.
    pub fn grant_into(
        &mut self,
        src: usize,
        dst: usize,
        accept: impl FnMut(u64) -> bool,
        out: &mut Vec<Packet>,
    ) {
        let key = self.key(src, dst);
        let Some(slot) = self.slot(key, src) else {
            return;
        };
        let pair = &mut self.pairs[slot];
        let before = out.len();
        let used = self.pool.cut_while_into(&mut pair.fifo, accept, out);
        pair.queued -= used;
        self.total_queued -= used;
        if out.len() > before {
            self.mark_dirty(key, slot);
        }
    }

    /// The backing pool's conservation counters, for tests and epoch
    /// assertions: `(live runs, chunks in use)`.
    pub fn pool_occupancy(&self) -> (u64, usize) {
        (self.pool.live(), self.pool.chunks_in_use())
    }

    /// The backing pool's always-on conservation ledger, harvested into
    /// the run's counter registry: `(allocs, frees, live peak, chunk
    /// growths)`, counted in runs.
    pub fn pool_ledger(&self) -> (u64, u64, u64, u64) {
        (
            self.pool.alloc_count(),
            self.pool.free_count(),
            self.pool.live_peak(),
            self.pool.chunk_growth_count(),
        )
    }

    /// Release-mode conservation audit of the backing pool (see
    /// [`Pool::check_conserved`]).
    pub fn check_pool_conserved(&self) -> Result<(), String> {
        self.pool.check_conserved()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::byte_budget;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, VecDeque};
    use xds_net::{PortNo, TrafficClass};
    use xds_sim::SimRng;

    /// `seq` doubles as the packet's FIFO marker.
    fn pkt(seq: u32, src: usize, dst: usize, bytes: u32) -> Packet {
        Packet::new(
            seq as u64,
            PortNo::from(src),
            PortNo::from(dst),
            bytes,
            TrafficClass::Bulk,
            SimTime::ZERO,
            seq,
        )
    }

    fn requests(p: &mut ProcessingLogic, at: u64) -> Vec<SchedRequest> {
        let mut out = Vec::new();
        p.take_requests_into(SimTime::from_nanos(at), &mut out);
        out
    }

    fn grant(p: &mut ProcessingLogic, src: usize, dst: usize, budget: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        p.grant_into(src, dst, byte_budget(budget), &mut out);
        out
    }

    fn occupancy(p: &ProcessingLogic) -> DemandMatrix {
        let mut m = DemandMatrix::zero(p.n());
        p.occupancy_into(&mut m);
        m
    }

    #[test]
    fn enqueue_routes_to_the_right_voq() {
        let mut p = ProcessingLogic::new(4, 10_000);
        p.enqueue(pkt(1, 0, 2, 1500)).unwrap();
        p.enqueue(pkt(2, 3, 1, 500)).unwrap();
        assert_eq!(p.queued_bytes(0, 2), 1500);
        assert_eq!(p.queued_bytes(3, 1), 500);
        assert_eq!(p.queued_bytes(0, 1), 0);
        assert_eq!(p.total_bytes(), 2000);
        assert_eq!(p.pair_count(), 2, "one record per pair reached");
    }

    #[test]
    fn requests_only_for_changed_pairs() {
        let mut p = ProcessingLogic::new(4, 10_000);
        p.enqueue(pkt(1, 0, 2, 1500)).unwrap();
        let reqs = requests(&mut p, 5);
        assert_eq!(reqs.len(), 1);
        assert_eq!((reqs[0].src, reqs[0].dst), (0, 2));
        assert_eq!(reqs[0].queued_bytes, 1500);
        assert_eq!(reqs[0].arrived_bytes_total, 1500);
        // Nothing changed: no requests.
        assert!(requests(&mut p, 6).is_empty());
        // A dequeue is a status change too.
        let got = grant(&mut p, 0, 2, 10_000);
        assert_eq!(got.len(), 1);
        let reqs = requests(&mut p, 7);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].queued_bytes, 0);
        assert_eq!(
            reqs[0].arrived_bytes_total, 1500,
            "cumulative survives drain"
        );
    }

    #[test]
    fn dequeue_respects_budget_and_order() {
        // Five full segments of one flow: one run, which the budget splits.
        let mut p = ProcessingLogic::new(2, 100_000);
        for i in 0..5 {
            let mut seg = pkt(i, 0, 1, 1500);
            seg.flow = 9;
            p.enqueue(seg).unwrap();
        }
        assert_eq!(p.pool_occupancy().0, 1, "one run");
        let got = grant(&mut p, 0, 1, 4000); // fits 2 × 1500
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].seq, 0);
        assert_eq!(got[1].seq, 1);
        assert_eq!(p.queued_bytes(0, 1), 4500);
        // Budget smaller than one packet: nothing moves.
        assert!(grant(&mut p, 0, 1, 100).is_empty());
        let rest = grant(&mut p, 0, 1, u64::MAX);
        assert_eq!(rest.iter().map(|q| q.seq).collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!(p.pool_occupancy(), (0, 0));
    }

    #[test]
    fn overflow_counts_drops() {
        let mut p = ProcessingLogic::new(2, 2000);
        p.enqueue(pkt(1, 0, 1, 1500)).unwrap();
        let rejected = p.enqueue(pkt(2, 0, 1, 1500)).unwrap_err();
        assert_eq!(rejected.seq, 2);
        assert_eq!(p.queued_bytes(0, 1), 1500, "the drop queued nothing");
        // The drop still dirties nothing extra — occupancy didn't change.
        let reqs = requests(&mut p, 0);
        assert_eq!(reqs.len(), 1, "only the successful enqueue is reported");
    }

    #[test]
    fn rejected_packets_never_touch_the_pool() {
        let mut p = ProcessingLogic::new(2, 2000);
        p.enqueue(pkt(1, 0, 1, 1500)).unwrap();
        let occupancy = p.pool_occupancy();
        for i in 0..10 {
            assert!(p.enqueue(pkt(10 + i, 0, 1, 1500)).is_err());
        }
        assert_eq!(
            p.pool_occupancy(),
            occupancy,
            "a pre-admission drop must not allocate or free chunks"
        );
        // A first packet too big for an empty queue makes no record.
        assert!(p.enqueue(pkt(20, 1, 0, 2001)).is_err());
        assert_eq!(p.pair_count(), 1);
        assert!(requests(&mut p, 0).iter().all(|r| (r.src, r.dst) == (0, 1)));
        // Drain and verify every chunk is released exactly once.
        let got = grant(&mut p, 0, 1, u64::MAX);
        assert_eq!(got.len(), 1);
        assert_eq!(p.pool_occupancy(), (0, 0));
    }

    #[test]
    fn a_grant_on_a_pair_without_a_record_does_nothing() {
        let mut p = ProcessingLogic::new(4, 10_000);
        p.enqueue(pkt(1, 0, 2, 700)).unwrap();
        requests(&mut p, 0);
        assert!(grant(&mut p, 1, 3, u64::MAX).is_empty());
        assert!(grant(&mut p, 0, 3, u64::MAX).is_empty());
        assert_eq!(p.pair_count(), 1, "a grant makes no record");
        assert!(requests(&mut p, 1).is_empty(), "and dirties nothing");
        assert_eq!(p.pool_ledger(), (1, 0, 1, 1));
        p.check_pool_conserved().unwrap();
    }

    #[test]
    fn a_drained_pair_keeps_its_record_and_cumulative_bytes() {
        let mut p = ProcessingLogic::new(4, 10_000);
        p.enqueue(pkt(1, 3, 1, 600)).unwrap();
        assert_eq!(grant(&mut p, 3, 1, u64::MAX).len(), 1);
        assert_eq!(p.queued_bytes(3, 1), 0);
        let mut m = DemandMatrix::zero(4);
        m.set(3, 1, 99);
        p.occupancy_into(&mut m);
        assert_eq!(m.get(3, 1), 0, "a drained record still writes its cell");
        p.enqueue(pkt(2, 3, 1, 400)).unwrap();
        assert_eq!(p.pair_count(), 1, "the refill reuses the record");
        let reqs = requests(&mut p, 0);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].queued_bytes, 400);
        assert_eq!(reqs[0].arrived_bytes_total, 1000, "arrivals continue");
    }

    #[test]
    fn banks_fed_disjoint_rows_match_one_bank_fed_all() {
        // One 4-port bank fed every packet vs two banks fed the disjoint
        // source rows {0, 3} and {1, 2}: identical requests after a
        // (src, dst) merge, identical totals, identical occupancy when
        // unioned.
        let mut whole = ProcessingLogic::new(4, 10_000);
        let mut a = ProcessingLogic::new(4, 10_000);
        let mut b = ProcessingLogic::new(4, 10_000);
        let feed = [
            (1u32, 0usize, 2usize, 700u32),
            (2, 3, 1, 500),
            (3, 1, 0, 300),
            (4, 0, 1, 200),
        ];
        for &(id, s, d, bytes) in &feed {
            whole.enqueue(pkt(id, s, d, bytes)).unwrap();
            let shard = if s == 0 || s == 3 { &mut a } else { &mut b };
            shard.enqueue(pkt(id, s, d, bytes)).unwrap();
        }
        assert_eq!(a.total_bytes() + b.total_bytes(), whole.total_bytes());
        assert_eq!(a.pair_count() + b.pair_count(), whole.pair_count());
        let want = requests(&mut whole, 0);
        let mut got = requests(&mut a, 0);
        got.extend(requests(&mut b, 0));
        got.sort_unstable_by_key(|r| (r.src, r.dst));
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                (g.src, g.dst, g.queued_bytes),
                (w.src, w.dst, w.queued_bytes)
            );
        }
        let mut union = DemandMatrix::zero(4);
        a.occupancy_into(&mut union);
        b.occupancy_into(&mut union);
        let full = occupancy(&whole);
        for s in 0..4 {
            for d in 0..4 {
                assert_eq!(union.get(s, d), full.get(s, d), "cell ({s},{d})");
            }
        }
        // Dequeue through the shard keeps pool conservation local.
        assert_eq!(grant(&mut a, 0, 2, u64::MAX).len(), 1);
        a.check_pool_conserved().unwrap();
    }

    #[test]
    fn untouched_bank_is_inert() {
        let mut p = ProcessingLogic::new(4, 10_000);
        assert_eq!(p.total_bytes(), 0);
        assert_eq!(p.pair_count(), 0);
        assert_eq!(p.queued_bytes(2, 3), 0);
        assert_eq!(p.pool_ledger(), (0, 0, 0, 0));
        let mut m = DemandMatrix::zero(4);
        p.occupancy_into(&mut m);
        assert_eq!(m.total(), 0);
        assert!(requests(&mut p, 0).is_empty());
    }

    #[test]
    fn occupancy_matches_queued_bytes() {
        let mut p = ProcessingLogic::new(3, 10_000);
        p.enqueue(pkt(1, 0, 1, 100)).unwrap();
        p.enqueue(pkt(2, 0, 1, 200)).unwrap();
        p.enqueue(pkt(3, 2, 0, 300)).unwrap();
        let m = occupancy(&p);
        assert_eq!(m.get(0, 1), 300);
        assert_eq!(m.get(2, 0), 300);
        assert_eq!(m.total(), 600);
    }

    const MTU: u32 = 1500;
    /// The differential's fabric, and the ports it drives: scattered
    /// across it, so sources 0, 64 and 128 share a line of the bank's
    /// source-indexed cache and most pairs stay without a record for a
    /// while.
    const FABRIC: usize = 136;
    const PORTS: [usize; 6] = [0, 5, 64, 69, 128, 133];

    /// One pair of the reference: a plain packet FIFO.
    #[derive(Default)]
    struct RefPair {
        fifo: VecDeque<Packet>,
        queued: u64,
        arrived: u64,
        dirty: bool,
    }

    /// The reference the banks must reproduce: one plain packet FIFO per
    /// pair that has admitted a packet, with the bank's admission,
    /// request and grant rules.
    struct Reference {
        capacity: u64,
        pairs: BTreeMap<(usize, usize), RefPair>,
    }

    impl Reference {
        fn queued(&self, src: usize, dst: usize) -> u64 {
            self.pairs.get(&(src, dst)).map_or(0, |q| q.queued)
        }

        fn enqueue(&mut self, p: Packet) -> Result<(), Packet> {
            let key = (p.src.index(), p.dst.index());
            let bytes = p.bytes as u64;
            if self.queued(key.0, key.1) + bytes > self.capacity {
                return Err(p);
            }
            let q = self.pairs.entry(key).or_default();
            q.fifo.push_back(p);
            q.queued += bytes;
            q.arrived += bytes;
            q.dirty = true;
            Ok(())
        }

        fn grant(&mut self, src: usize, dst: usize, budget: u64) -> Vec<Packet> {
            let mut out = Vec::new();
            let Some(q) = self.pairs.get_mut(&(src, dst)) else {
                return out;
            };
            let mut used = 0;
            while let Some(p) = q.fifo.front() {
                if used + p.bytes as u64 > budget {
                    break;
                }
                used += p.bytes as u64;
                out.extend(q.fifo.pop_front());
            }
            q.queued -= used;
            // Any packet leaving is a status change, empty ones too.
            q.dirty |= !out.is_empty();
            out
        }

        /// A host's whole run: every packet it cuts into, with no
        /// capacity check. Pushing a run of no bytes still makes the
        /// pair's record and queues its one empty packet.
        fn push_run(&mut self, packets: impl Iterator<Item = Packet>) {
            for p in packets {
                let q = self
                    .pairs
                    .entry((p.src.index(), p.dst.index()))
                    .or_default();
                q.queued += p.bytes as u64;
                q.arrived += p.bytes as u64;
                q.fifo.push_back(p);
                q.dirty = true;
            }
        }

        /// The dirty pairs of source rows `rows`, in `(src, dst)` order.
        fn requests(&mut self, rows: &[usize], at: SimTime) -> Vec<SchedRequest> {
            let mut out = Vec::new();
            for (&(src, dst), q) in &mut self.pairs {
                if rows.contains(&src) && std::mem::take(&mut q.dirty) {
                    out.push(SchedRequest {
                        src,
                        dst,
                        queued_bytes: q.queued,
                        arrived_bytes_total: q.arrived,
                        at,
                    });
                }
            }
            out
        }
    }

    /// A flow size from the edge set: 0, 1, mtu − 1, mtu, mtu + 1 or
    /// k·mtu + r.
    fn flow_bytes(rng: &mut SimRng) -> u64 {
        let m = MTU as u64;
        match rng.below(6) {
            0 => 0,
            1 => 1,
            2 => m - 1,
            3 => m,
            4 => m + 1,
            _ => rng.range_u64(2, 7) * m + rng.below(m),
        }
    }

    /// A grant budget from 0 to `u64::MAX`, mostly sizes that split runs.
    fn budget(rng: &mut SimRng) -> u64 {
        let m = MTU as u64;
        match rng.below(8) {
            0 => 0,
            1 => 1,
            2 => m - 1,
            3 => m,
            4 => m + 1,
            5 => 2 * m + rng.below(m),
            6 => rng.below(8 * m),
            _ => u64::MAX,
        }
    }

    fn class(rng: &mut SimRng) -> TrafficClass {
        [
            TrafficClass::Interactive,
            TrafficClass::Short,
            TrafficClass::Bulk,
        ][rng.below_usize(3)]
    }

    /// A pool's conservation ledger: `(allocs, frees, live peak, chunk
    /// growths, live)`.
    fn ledger(pool: &Pool<Staged>) -> (u64, u64, u64, u64, u64) {
        (
            pool.alloc_count(),
            pool.free_count(),
            pool.live_peak(),
            pool.chunk_growth_count(),
            pool.live(),
        )
    }

    /// Drives `banks` banks, each fed the packets and grants of the
    /// scattered source rows a random assignment gives it, and one
    /// reference with one random stream of `steps` batches, and fails on
    /// the first disagreement. A *train* moves `k` same-size packets of a
    /// flow at once (`cut_front_n`, then `enqueue_run`); a twin set of
    /// banks and host pool takes each train as `k` single cuts and
    /// enqueues, and must agree with the train side on every later
    /// grant, admission, drop, record, request and pool ledger.
    fn run_differential(
        seed: u64,
        banks: usize,
        capacity: u64,
        steps: usize,
    ) -> Result<(), String> {
        let mut rng = SimRng::new(seed);
        let owner: Vec<usize> = PORTS.iter().map(|_| rng.below_usize(banks)).collect();
        let bank_of = |src: usize| owner[PORTS.iter().position(|&p| p == src).expect("driven")];
        let rows: Vec<Vec<usize>> = (0..banks)
            .map(|b| PORTS.into_iter().filter(|&p| bank_of(p) == b).collect())
            .collect();
        let new_banks = || -> Vec<ProcessingLogic> {
            (0..banks)
                .map(|_| ProcessingLogic::new(FABRIC, capacity))
                .collect()
        };
        let (mut bank, mut twin) = (new_banks(), new_banks());
        let mut reference = Reference {
            capacity,
            pairs: BTreeMap::new(),
        };
        // Reused across batches, as the runtime reuses its ground truth.
        let mut occ = DemandMatrix::zero(FABRIC);
        // Flows being cut, each a one-entry queue in the train side's host
        // pool and one in the twin's; app sends and pushed runs are cut
        // from a third.
        let (mut pool, mut twin_pool, mut scratch) = (Pool::new(), Pool::new(), Pool::new());
        let mut flows: Vec<(Fifo, Fifo)> = Vec::new();
        let mut next_flow = 0u64;
        let mut now = 0u64;
        let (mut granted, mut twin_granted, mut reqs, mut twin_reqs) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for step in 0..steps {
            now += rng.below(100);
            let at = SimTime::from_nanos(now);
            let pair = |rng: &mut SimRng| {
                (
                    PORTS[rng.below_usize(PORTS.len())],
                    PORTS[rng.below_usize(PORTS.len())],
                )
            };
            for _ in 0..rng.range_u64(1, 9) {
                let mut offered = None;
                match rng.below(12) {
                    // A new flow, cut later packet by packet or train by
                    // train, interleaved with every other flow in flight.
                    0 | 1 => {
                        let (s, d) = pair(&mut rng);
                        next_flow += 1;
                        let entry = Staged::new(
                            next_flow,
                            PortNo::from(s),
                            PortNo::from(d),
                            flow_bytes(&mut rng),
                            class(&mut rng),
                            at,
                            MTU,
                        );
                        let (mut q, mut tq) = (Fifo::new(), Fifo::new());
                        pool.push(&mut q, entry);
                        twin_pool.push(&mut tq, entry);
                        flows.push((q, tq));
                    }
                    // An app-style send: one packet reusing (flow, seq 0).
                    2 => {
                        let (s, d) = pair(&mut rng);
                        let bytes = [0, 1, 200, MTU][rng.below_usize(4)];
                        let mut q = Fifo::new();
                        let send = Staged::new(
                            1 << 40,
                            PortNo::from(s),
                            PortNo::from(d),
                            bytes as u64,
                            TrafficClass::Interactive,
                            at,
                            bytes,
                        );
                        scratch.push(&mut q, send);
                        offered = scratch.cut_front(&mut q);
                    }
                    // The next packet of a flow in flight.
                    3..=6 => {
                        if !flows.is_empty() {
                            let k = rng.below_usize(flows.len());
                            let (q, tq) = &mut flows[k];
                            offered = pool.cut_front(q);
                            prop_assert_eq!(offered, twin_pool.cut_front(tq));
                            if q.is_empty() {
                                flows.swap_remove(k);
                            }
                        }
                    }
                    // A train: the next k same-size packets of a flow in
                    // flight — all its full segments left, or fewer, or
                    // its short tail — against k cuts and enqueues.
                    7 | 8 => {
                        if !flows.is_empty() {
                            let f = rng.below_usize(flows.len());
                            let (q, tq) = &mut flows[f];
                            let same = pool.front(q).expect("in flight").same_size_len();
                            let k = if rng.below(2) == 0 {
                                same
                            } else {
                                rng.range_u64(1, same + 1)
                            };
                            let run = pool.cut_front_n(q, k).expect("in flight");
                            let src = run.src.index();
                            let admitted = bank[bank_of(src)].enqueue_run(run);
                            let mut want = 0;
                            for _ in 0..k {
                                let p = twin_pool.cut_front(tq).expect("in flight");
                                let got = twin[bank_of(src)].enqueue(p);
                                prop_assert_eq!(
                                    got,
                                    reference.enqueue(p),
                                    "step {}: {:?}",
                                    step,
                                    p
                                );
                                want += u64::from(got.is_ok());
                            }
                            prop_assert_eq!(admitted, want, "step {}: train of {}", step, k);
                            prop_assert_eq!(q.is_empty(), tq.is_empty());
                            if q.is_empty() {
                                flows.swap_remove(f);
                            }
                        }
                    }
                    // A host's whole flow, queued as one run past the
                    // capacity check, which later packets of other flows
                    // meet.
                    9 => {
                        let (s, d) = pair(&mut rng);
                        next_flow += 1;
                        let run = Staged::new(
                            next_flow,
                            PortNo::from(s),
                            PortNo::from(d),
                            flow_bytes(&mut rng),
                            class(&mut rng),
                            at,
                            MTU,
                        );
                        let mut q = Fifo::new();
                        scratch.push(&mut q, run);
                        reference.push_run(std::iter::from_fn(|| scratch.cut_front(&mut q)));
                        bank[bank_of(s)].push_run(run);
                        twin[bank_of(s)].push_run(run);
                    }
                    // A grant with a budget that may split a run, drain a
                    // pair (which later flows refill) or hit a pair that
                    // has no record yet.
                    _ => {
                        let (s, d) = pair(&mut rng);
                        let b = budget(&mut rng);
                        granted.clear();
                        twin_granted.clear();
                        bank[bank_of(s)].grant_into(s, d, byte_budget(b), &mut granted);
                        twin[bank_of(s)].grant_into(s, d, byte_budget(b), &mut twin_granted);
                        let want = reference.grant(s, d, b);
                        prop_assert_eq!(
                            &granted,
                            &want,
                            "step {}: grant ({}, {}) of {}",
                            step,
                            s,
                            d,
                            b
                        );
                        prop_assert_eq!(&twin_granted, &want, "step {}: twin grant", step);
                    }
                }
                if let Some(p) = offered {
                    // A VOQ-full drop leaves a seq gap in its flow.
                    let got = bank[bank_of(p.src.index())].enqueue(p);
                    prop_assert_eq!(got, reference.enqueue(p), "step {}: enqueue {:?}", step, p);
                    prop_assert_eq!(got, twin[bank_of(p.src.index())].enqueue(p));
                }
            }
            for (b, bk) in bank.iter().enumerate() {
                for s in PORTS {
                    for d in PORTS {
                        let want = if bank_of(s) == b {
                            reference.queued(s, d)
                        } else {
                            0
                        };
                        prop_assert_eq!(bk.queued_bytes(s, d), want, "bank {} ({}, {})", b, s, d);
                    }
                }
            }
            let total: u64 = reference.pairs.values().map(|q| q.queued).sum();
            prop_assert_eq!(bank.iter().map(|b| b.total_bytes()).sum::<u64>(), total);
            prop_assert_eq!(
                bank.iter().map(|b| b.pair_count()).sum::<usize>(),
                reference.pairs.len(),
                "step {}: records",
                step
            );
            prop_assert_eq!(
                ledger(&pool),
                ledger(&twin_pool),
                "step {}: host pools",
                step
            );
            for (b, (bk, tw)) in bank.iter_mut().zip(&mut twin).enumerate() {
                reqs.clear();
                bk.take_requests_into(at, &mut reqs);
                prop_assert_eq!(
                    &reqs,
                    &reference.requests(&rows[b], at),
                    "step {}: bank {} requests",
                    step,
                    b
                );
                twin_reqs.clear();
                tw.take_requests_into(at, &mut twin_reqs);
                prop_assert_eq!(&twin_reqs, &reqs, "step {}: twin {} requests", step, b);
                prop_assert_eq!(
                    bk.pair_count(),
                    tw.pair_count(),
                    "step {}: twin records",
                    step
                );
                prop_assert_eq!(
                    bk.pool_ledger(),
                    tw.pool_ledger(),
                    "step {}: bank {} pool vs its twin",
                    step,
                    b
                );
                prop_assert_eq!(bk.pool_occupancy(), tw.pool_occupancy());
                bk.occupancy_into(&mut occ);
                bk.check_pool_conserved()?;
            }
            for s in PORTS {
                for d in PORTS {
                    prop_assert_eq!(occ.get(s, d), reference.queued(s, d), "cell ({}, {})", s, d);
                }
            }
            prop_assert_eq!(occ.total(), total, "step {}: stray occupancy", step);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The run banks hand out exactly the packets a per-pair packet
        /// FIFO would: same packets, all fields, same order, same
        /// admission, requests, byte counts, records and occupancy, with
        /// hosts' whole runs pushed among the admitted packets, trains of
        /// same-size packets admitted at once as their packets one by one
        /// would be, and the fabric's source rows split over one to three
        /// banks.
        #[test]
        fn run_bank_matches_a_packet_fifo_per_pair(
            seed in any::<u64>(),
            banks in 1usize..4,
            cap in 0usize..3,
        ) {
            let capacity = [3 * MTU as u64 + 100, 12 * MTU as u64, 1 << 40][cap];
            run_differential(seed, banks, capacity, 200)?;
        }
    }
}
