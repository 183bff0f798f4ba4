//! Processing logic: the VOQ subsystem of Figure 2.
//!
//! "Incoming packets … are classified into flows based on configurable
//! look-up rules and placed into their respective Virtual Output Queue
//! (VOQ). As the status of a VOQ changes, the subsystem generates
//! scheduling requests and transmits packets upon receiving transmission
//! grants."
//!
//! No look-up runs here: a flow's class is set when the flow is generated
//! (from the flow-size threshold), so by the time a packet reaches the VOQ
//! bank it carries its class and egress. This module owns the N×N
//! queues, the request generation (dirty-pair tracking), and grant
//! execution (budgeted dequeue).

use xds_net::Packet;
use xds_sim::SimTime;

use crate::demand::{DemandMatrix, SchedRequest};
use crate::pool::{Fifo, Pool, Staged};

/// Per-pair bookkeeping kept beside the dense occupancy array.
#[derive(Debug, Default)]
struct PairState {
    /// Cumulative bytes ever enqueued (for rate estimators).
    arrived_total: u64,
    /// The pair's packets, as an intrusive FIFO of runs in the shared
    /// pool.
    fifo: Fifo,
    queued: u64,
    /// Whether this pair is in the dirty list.
    dirty: bool,
}

/// The VOQ bank plus request bookkeeping.
///
/// Storage is built for the per-packet hot path: all `n²` VOQs share one
/// **run pool** ([`Pool`] — a free-list slab of 4-entry chunks) and each
/// VOQ is an intrusive FIFO of *runs*, each holding one flow's
/// consecutive packets. An arriving packet that continues its VOQ's
/// tail run (same flow, the next `seq`, after a full segment) only grows
/// that run's byte count; any other packet opens a new run. A grant cuts
/// packets off the front run, so the bank hands out exactly the packets
/// it was given, in order, while a backlog costs one pool slot per run
/// rather than per packet. Each pair's record is one compact struct, and
/// queued bytes are maintained incrementally, so the per-epoch
/// ground-truth snapshot is a flat copy, and dirty pairs are kept in an
/// explicit list so request generation touches only the pairs that
/// changed — at 256 ports and above full-matrix scans and scattered
/// per-queue state dominated both the epoch loop and the packet path.
#[derive(Debug)]
pub struct ProcessingLogic {
    n: usize,
    voq_capacity: u64,
    /// Shared chunk pool backing every VOQ FIFO.
    pool: Pool<Staged>,
    pairs: Vec<PairState>,
    /// Indices currently flagged dirty, unsorted (sorted on take).
    dirty_list: Vec<u32>,
    /// Incrementally-maintained sum of `queued` (O(1) ground-truth total).
    total_queued: u64,
    /// Row-windowed banks (sharded cores): the sorted global source rows
    /// this bank owns (`rows[local] = global`) and the inverse map
    /// (`row_of[global] = local`, `u32::MAX` for rows owned elsewhere).
    /// `None` means the bank covers all `n` rows (the full layout) and
    /// indexes without the extra lookup.
    rows: Option<(Vec<u32>, Vec<u32>)>,
}

impl ProcessingLogic {
    /// Creates an `n × n` VOQ bank with `voq_capacity` bytes per queue.
    pub fn new(n: usize, voq_capacity: u64) -> Self {
        Self::with_rows(n, voq_capacity, (0..n).collect())
    }

    /// Creates a bank owning only the given *source rows* of an `n × n`
    /// fabric — a shard's slice of the VOQ matrix. Storage is
    /// `rows.len() × n` instead of `n²`, so K shards of an n-port fabric
    /// together use the full footprint while each stays cache-compact.
    /// `rows` is sorted internally, so request order (ascending global
    /// `(src, dst)`) is preserved regardless of input order; an empty
    /// `rows` yields an inert bank (every accessor returns zeroes), and
    /// all `n` rows yield exactly [`new`](Self::new)'s bank.
    ///
    /// # Panics
    /// Panics if a row index repeats or is out of range.
    pub fn with_rows(n: usize, voq_capacity: u64, mut rows: Vec<usize>) -> Self {
        assert!(n >= 2, "need at least 2 ports");
        assert!(voq_capacity > 0, "queue capacity must be positive");
        rows.sort_unstable();
        let mut row_of = vec![u32::MAX; n];
        for (local, &global) in rows.iter().enumerate() {
            assert!(global < n, "row {global} out of range for {n} ports");
            assert!(row_of[global] == u32::MAX, "row {global} owned twice");
            row_of[global] = local as u32;
        }
        let nlocal = rows.len();
        ProcessingLogic {
            n,
            voq_capacity,
            pool: Pool::new(),
            pairs: (0..nlocal * n).map(|_| PairState::default()).collect(),
            dirty_list: Vec::new(),
            total_queued: 0,
            // Owning every row (a single-shard core), the bank is the
            // full layout and indexes without the row lookup.
            rows: (nlocal < n).then(|| (rows.iter().map(|&r| r as u32).collect(), row_of)),
        }
    }

    /// Port count.
    pub fn n(&self) -> usize {
        self.n
    }

    fn idx(&self, src: usize, dst: usize) -> usize {
        debug_assert!(src < self.n && dst < self.n);
        let row = match &self.rows {
            None => src,
            Some((_, row_of)) => {
                let local = row_of[src];
                // A foreign row maps to u32::MAX and lands far outside
                // `pairs`, so the slice bounds check still catches it.
                debug_assert!(local != u32::MAX, "source row {src} not owned by this bank");
                local as usize
            }
        };
        row * self.n + dst
    }

    /// Maps a local pair index back to its global `(src, dst)`.
    #[inline]
    fn pair_of(&self, idx: usize) -> (usize, usize) {
        let (row, dst) = (idx / self.n, idx % self.n);
        let src = match &self.rows {
            None => row,
            Some((rows, _)) => rows[row] as usize,
        };
        (src, dst)
    }

    #[inline]
    fn mark_dirty(&mut self, idx: usize) {
        if !self.pairs[idx].dirty {
            self.pairs[idx].dirty = true;
            self.dirty_list.push(idx as u32);
        }
    }

    /// Enqueues a packet into VOQ `(packet.src, packet.dst)`, appending
    /// it to the VOQ's tail run when it continues that run.
    ///
    /// On overflow the packet is returned — it is rejected *before*
    /// admission, so it never owns a pool chunk and the caller has
    /// nothing to release (the caller counts the drop).
    pub fn enqueue(&mut self, p: Packet) -> Result<(), Packet> {
        let idx = self.idx(p.src.index(), p.dst.index());
        let bytes = p.bytes as u64;
        if self.pairs[idx].queued + bytes > self.voq_capacity {
            return Err(p);
        }
        let pair = &mut self.pairs[idx];
        let appended = self
            .pool
            .back_mut(&pair.fifo)
            .is_some_and(|run| run.append(&p));
        if !appended {
            self.pool.push(&mut pair.fifo, Staged::of_packet(&p));
        }
        pair.arrived_total += bytes;
        pair.queued += bytes;
        self.total_queued += bytes;
        self.mark_dirty(idx);
        Ok(())
    }

    /// Bytes queued for `(src, dst)`.
    pub fn queued_bytes(&self, src: usize, dst: usize) -> u64 {
        self.pairs[self.idx(src, dst)].queued
    }

    /// Total bytes across all VOQs (O(1): maintained incrementally).
    pub fn total_bytes(&self) -> u64 {
        debug_assert_eq!(
            self.total_queued,
            self.pairs.iter().map(|p| p.queued).sum::<u64>()
        );
        self.total_queued
    }

    /// Writes the true occupancy (ground truth for E6) into a caller-owned
    /// matrix, overwriting every cell. The occupancy is maintained
    /// incrementally, so this is a flat copy.
    ///
    /// # Panics
    /// Panics on a row-windowed bank (it cannot overwrite rows it does
    /// not own) — use [`occupancy_rows_into`](Self::occupancy_rows_into).
    pub fn occupancy_into(&self, out: &mut DemandMatrix) {
        assert!(
            self.rows.is_none(),
            "row-windowed bank: use occupancy_rows_into"
        );
        out.fill_from(self.pairs.iter().map(|p| p.queued));
    }

    /// Writes the occupancy of the rows this bank owns into `out`,
    /// overwriting every cell of those rows and leaving the rest alone.
    /// A set of shards whose row windows partition the fabric covers the
    /// whole matrix exactly once, reproducing
    /// [`occupancy_into`](Self::occupancy_into).
    pub fn occupancy_rows_into(&self, out: &mut DemandMatrix) {
        if self.rows.is_none() {
            return self.occupancy_into(out);
        }
        for (idx, p) in self.pairs.iter().enumerate() {
            let (src, dst) = self.pair_of(idx);
            out.set(src, dst, p.queued);
        }
    }

    /// Drains the dirty set into scheduling requests — what the paper's
    /// "subsystem generates scheduling requests" step produces — appended
    /// to a reused buffer in `(src, dst)` scan order. Only the dirty list
    /// is visited (sorted so the order matches a full row-major scan),
    /// not the whole `n²` matrix. Runs once per epoch, so it doubles as
    /// the pool's conservation checkpoint.
    pub fn take_requests_into(&mut self, now: SimTime, out: &mut Vec<SchedRequest>) {
        self.pool.debug_assert_conserved();
        self.dirty_list.sort_unstable();
        for k in 0..self.dirty_list.len() {
            let idx = self.dirty_list[k] as usize;
            debug_assert!(self.pairs[idx].dirty);
            self.pairs[idx].dirty = false;
            let (src, dst) = self.pair_of(idx);
            out.push(SchedRequest {
                src,
                dst,
                queued_bytes: self.pairs[idx].queued,
                arrived_bytes_total: self.pairs[idx].arrived_total,
                at: now,
            });
        }
        self.dirty_list.clear();
    }

    /// Executes a grant: cuts packets off the front of `(src, dst)`, in
    /// arrival order, while their total size fits within `budget_bytes`
    /// (a slot's capacity), appending them to a reused buffer (the
    /// grant-execution hot path runs once per matched pair per slot). The
    /// VOQ is marked dirty so the occupancy drop is reported in the next
    /// request wave.
    pub fn dequeue_upto_into(
        &mut self,
        src: usize,
        dst: usize,
        budget_bytes: u64,
        out: &mut Vec<Packet>,
    ) {
        let idx = self.idx(src, dst);
        let used = self
            .pool
            .cut_upto_into(&mut self.pairs[idx].fifo, budget_bytes, out);
        if used > 0 {
            self.pairs[idx].queued -= used;
            self.total_queued -= used;
            self.mark_dirty(idx);
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
    use proptest::prelude::*;
    use std::collections::VecDeque;
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
        p.dequeue_upto_into(src, dst, budget, &mut out);
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
        // Drain and verify every chunk is released exactly once.
        let got = grant(&mut p, 0, 1, u64::MAX);
        assert_eq!(got.len(), 1);
        assert_eq!(p.pool_occupancy(), (0, 0));
    }

    #[test]
    fn row_windowed_bank_matches_the_dense_bank_on_its_rows() {
        // One dense 4-port bank vs two row-windowed shards covering
        // {0, 3} and {1, 2}: identical requests after a (src, dst) merge,
        // identical totals, identical occupancy when unioned.
        let mut dense = ProcessingLogic::new(4, 10_000);
        let mut a = ProcessingLogic::with_rows(4, 10_000, vec![3, 0]); // sorted internally
        let mut b = ProcessingLogic::with_rows(4, 10_000, vec![1, 2]);
        let feed = [
            (1u32, 0usize, 2usize, 700u32),
            (2, 3, 1, 500),
            (3, 1, 0, 300),
            (4, 0, 1, 200),
        ];
        for &(id, s, d, bytes) in &feed {
            dense.enqueue(pkt(id, s, d, bytes)).unwrap();
            let shard = if s == 0 || s == 3 { &mut a } else { &mut b };
            shard.enqueue(pkt(id, s, d, bytes)).unwrap();
        }
        assert_eq!(a.total_bytes() + b.total_bytes(), dense.total_bytes());
        let want = requests(&mut dense, 0);
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
        a.occupancy_rows_into(&mut union);
        b.occupancy_rows_into(&mut union);
        let full = occupancy(&dense);
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
    fn empty_row_window_is_inert() {
        let p = ProcessingLogic::with_rows(4, 10_000, Vec::new());
        assert_eq!(p.total_bytes(), 0);
        assert_eq!(p.pool_ledger(), (0, 0, 0, 0));
        let mut m = DemandMatrix::zero(4);
        p.occupancy_rows_into(&mut m);
        assert_eq!(m.total(), 0);
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
    const PORTS: usize = 4;

    /// The reference the run bank must reproduce: one plain packet FIFO
    /// per pair, with the bank's admission, request and grant rules.
    struct Reference {
        capacity: u64,
        fifos: Vec<VecDeque<Packet>>,
        queued: Vec<u64>,
        arrived: Vec<u64>,
        dirty: Vec<bool>,
    }

    impl Reference {
        fn new(capacity: u64) -> Self {
            let pairs = PORTS * PORTS;
            Reference {
                capacity,
                fifos: vec![VecDeque::new(); pairs],
                queued: vec![0; pairs],
                arrived: vec![0; pairs],
                dirty: vec![false; pairs],
            }
        }

        fn enqueue(&mut self, p: Packet) -> Result<(), Packet> {
            let i = p.src.index() * PORTS + p.dst.index();
            let bytes = p.bytes as u64;
            if self.queued[i] + bytes > self.capacity {
                return Err(p);
            }
            self.fifos[i].push_back(p);
            self.queued[i] += bytes;
            self.arrived[i] += bytes;
            self.dirty[i] = true;
            Ok(())
        }

        fn grant(&mut self, src: usize, dst: usize, budget: u64) -> Vec<Packet> {
            let i = src * PORTS + dst;
            let mut used = 0;
            let mut out = Vec::new();
            while let Some(p) = self.fifos[i].front() {
                if used + p.bytes as u64 > budget {
                    break;
                }
                used += p.bytes as u64;
                out.extend(self.fifos[i].pop_front());
            }
            if used > 0 {
                self.queued[i] -= used;
                self.dirty[i] = true;
            }
            out
        }

        fn requests(&mut self, rows: &[usize], at: SimTime) -> Vec<SchedRequest> {
            let mut out = Vec::new();
            for &src in rows {
                for dst in 0..PORTS {
                    let i = src * PORTS + dst;
                    if std::mem::take(&mut self.dirty[i]) {
                        out.push(SchedRequest {
                            src,
                            dst,
                            queued_bytes: self.queued[i],
                            arrived_bytes_total: self.arrived[i],
                            at,
                        });
                    }
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

    /// Drives the bank and the reference with one random stream of
    /// `steps` batches and fails on the first disagreement.
    fn run_differential(
        seed: u64,
        windowed: bool,
        capacity: u64,
        steps: usize,
    ) -> Result<(), String> {
        let mut rng = SimRng::new(seed);
        let rows: Vec<usize> = if windowed {
            let rows: Vec<usize> = (0..PORTS).filter(|_| rng.bool(0.5)).collect();
            if rows.is_empty() || rows.len() == PORTS {
                vec![1, 3]
            } else {
                rows
            }
        } else {
            (0..PORTS).collect()
        };
        let mut bank = if windowed {
            ProcessingLogic::with_rows(PORTS, capacity, rows.clone())
        } else {
            ProcessingLogic::new(PORTS, capacity)
        };
        let mut reference = Reference::new(capacity);
        let mut pool = Pool::new();
        // Flows being cut, each its own one-entry queue.
        let mut flows: Vec<Fifo> = Vec::new();
        let mut next_flow = 0u64;
        let mut now = 0u64;
        let (mut granted, mut reqs) = (Vec::new(), Vec::new());
        for step in 0..steps {
            now += rng.below(100);
            let at = SimTime::from_nanos(now);
            let pair =
                |rng: &mut SimRng| (rows[rng.below_usize(rows.len())], rng.below_usize(PORTS));
            for _ in 0..rng.range_u64(1, 9) {
                let mut offered = None;
                match rng.below(10) {
                    // A new flow, cut later packet by packet, interleaved
                    // with every other flow in flight.
                    0 | 1 => {
                        let (s, d) = pair(&mut rng);
                        next_flow += 1;
                        let mut q = Fifo::new();
                        let entry = Staged::new(
                            next_flow,
                            PortNo::from(s),
                            PortNo::from(d),
                            flow_bytes(&mut rng),
                            class(&mut rng),
                            at,
                            MTU,
                        );
                        pool.push(&mut q, entry);
                        flows.push(q);
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
                        pool.push(&mut q, send);
                        offered = pool.cut_front(&mut q);
                    }
                    // The next packet of a flow in flight.
                    3..=7 => {
                        if !flows.is_empty() {
                            let k = rng.below_usize(flows.len());
                            offered = pool.cut_front(&mut flows[k]);
                            if flows[k].is_empty() {
                                flows.swap_remove(k);
                            }
                        }
                    }
                    // A grant with a budget that may split a run.
                    _ => {
                        let (s, d) = pair(&mut rng);
                        let b = budget(&mut rng);
                        granted.clear();
                        bank.dequeue_upto_into(s, d, b, &mut granted);
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
                    }
                }
                if let Some(p) = offered {
                    // A VOQ-full drop leaves a seq gap in its flow.
                    let got = bank.enqueue(p);
                    prop_assert_eq!(got, reference.enqueue(p), "step {}: enqueue {:?}", step, p);
                }
            }
            for &s in &rows {
                for d in 0..PORTS {
                    prop_assert_eq!(bank.queued_bytes(s, d), reference.queued[s * PORTS + d]);
                }
            }
            prop_assert_eq!(bank.total_bytes(), reference.queued.iter().sum::<u64>());
            reqs.clear();
            bank.take_requests_into(at, &mut reqs);
            prop_assert_eq!(
                &reqs,
                &reference.requests(&rows, at),
                "step {}: requests",
                step
            );
            bank.check_pool_conserved()?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The run bank hands out exactly the packets a per-pair packet
        /// FIFO would: same packets, all fields, same order, same
        /// admission, requests and byte counts.
        #[test]
        fn run_bank_matches_a_packet_fifo_per_pair(
            seed in any::<u64>(),
            windowed in any::<bool>(),
            cap in 0usize..3,
        ) {
            let capacity = [3 * MTU as u64 + 100, 12 * MTU as u64, 1 << 40][cap];
            run_differential(seed, windowed, capacity, 200)?;
        }
    }
}
