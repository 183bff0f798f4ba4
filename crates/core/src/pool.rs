//! The chunked pool: one slab of 4-entry chunks backing any number of
//! intrusive FIFOs of one entry type, and the `Staged` run that both of
//! its users queue.
//!
//! Two pools use it, and both hold 40-byte `Staged` entries, each a run
//! of one flow's consecutive packets. Each shard's hosts stage a whole
//! flow (or app send) as one entry in their staging queues (in
//! [`crate::runtime`]). The VOQ bank
//! ([`crate::processing::ProcessingLogic`]) keeps a FIFO of runs per
//! pair: under hardware placement it appends an arriving packet to its
//! VOQ's tail run when the packet continues it, and under software
//! placement a host queues a whole flow (or gated app send) there as one
//! run. Whoever sends cuts one packet off the front run each time one
//! leaves. A queue is a [`Fifo`] — a 12-byte header naming a chunk list
//! inside the pool — so moving an entry touches one pool slot and one
//! compact header, enqueue order is preserved exactly, and freed chunks
//! recycle through a FIFO free list (chunks freed together are reused
//! together, keeping traversals in allocation order).
//!
//! The pool tracks live entries and in-use chunks so callers can assert
//! **occupancy conservation** at epoch boundaries: every chunk is either
//! on the free list or reachable from exactly one FIFO, and a packet
//! dropped *before* admission never touches the pool (so it cannot leak
//! or double-free a chunk).

use xds_net::{Packet, PortNo, TrafficClass};
use xds_sim::SimTime;

const NIL: u32 = u32::MAX;

/// Entries per pool chunk: four 40-byte runs plus the link fit in three
/// cache lines, and a FIFO touches a new chunk only every fourth entry.
pub const CHUNK_LEN: usize = 4;

/// A pooled block of consecutive entries belonging to one FIFO, linked
/// into that FIFO's chunk list.
#[derive(Debug, Clone)]
struct Chunk<T> {
    items: [T; CHUNK_LEN],
    next: u32,
}

/// An intrusive FIFO inside a [`Pool`]: chunk-list head and tail plus the
/// live offsets within them. Plain data — copying the header without
/// transferring ownership of the chunks is a logic error, so it is
/// deliberately not `Clone`/`Copy`.
#[derive(Debug)]
pub struct Fifo {
    /// Chunk FIFO head/tail (`NIL` when empty).
    head: u32,
    tail: u32,
    /// First live entry within the head chunk.
    head_off: u8,
    /// Live entries within the tail chunk.
    tail_len: u8,
}

// Each host keeps three headers and each VOQ record one (within its
// 40 B): they stay 12 bytes.
const _: () = assert!(std::mem::size_of::<Fifo>() == 12);

impl Default for Fifo {
    fn default() -> Self {
        Self::new()
    }
}

impl Fifo {
    /// An empty FIFO (owns no chunks).
    pub const fn new() -> Self {
        Fifo {
            head: NIL,
            tail: NIL,
            head_off: 0,
            tail_len: 0,
        }
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }
}

/// The shared chunk slab plus its free list and conservation counters.
#[derive(Debug)]
pub struct Pool<T: Copy> {
    chunks: Vec<Chunk<T>>,
    /// Free chunks form a FIFO through `next`.
    free_head: u32,
    free_tail: u32,
    free_chunks: usize,
    live: u64,
    /// Always-on conservation accounting (plain u64 increments, kept in
    /// release builds): `allocs - frees == live` is the leak invariant
    /// [`check_conserved`](Self::check_conserved) enforces at end of run,
    /// and the peaks feed the flight-recorder counter registry.
    allocs: u64,
    frees: u64,
    live_peak: u64,
    chunk_growths: u64,
}

impl<T: Copy> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> Pool<T> {
    /// Creates an empty pool; chunks are allocated on demand and recycled
    /// forever after.
    pub fn new() -> Self {
        Pool {
            chunks: Vec::new(),
            free_head: NIL,
            free_tail: NIL,
            free_chunks: 0,
            live: 0,
            allocs: 0,
            frees: 0,
            live_peak: 0,
            chunk_growths: 0,
        }
    }

    /// Takes a chunk off the free FIFO (or grows the slab), seeding every
    /// slot with `x` (slot 0 is the live one; the rest are overwritten as
    /// the chunk fills).
    #[inline]
    fn alloc_chunk(&mut self, x: T) -> u32 {
        if self.free_head != NIL {
            let c = self.free_head;
            self.free_head = self.chunks[c as usize].next;
            if self.free_head == NIL {
                self.free_tail = NIL;
            }
            self.free_chunks -= 1;
            let chunk = &mut self.chunks[c as usize];
            chunk.items[0] = x;
            chunk.next = NIL;
            c
        } else {
            assert!(self.chunks.len() < NIL as usize, "pool overflow");
            self.chunk_growths += 1;
            self.chunks.push(Chunk {
                items: [x; CHUNK_LEN],
                next: NIL,
            });
            (self.chunks.len() - 1) as u32
        }
    }

    /// Returns a chunk to the free FIFO. Every chunk is freed exactly
    /// once per use: only the dequeue paths below call this, always on a
    /// chunk they have just unlinked from a FIFO.
    #[inline]
    fn free_chunk(&mut self, c: u32) {
        self.chunks[c as usize].next = NIL;
        if self.free_tail == NIL {
            self.free_head = c;
        } else {
            self.chunks[self.free_tail as usize].next = c;
        }
        self.free_tail = c;
        self.free_chunks += 1;
    }

    /// Appends `x` to the back of `f`.
    #[inline]
    pub fn push(&mut self, f: &mut Fifo, x: T) {
        if f.tail != NIL && (f.tail_len as usize) < CHUNK_LEN {
            // Fast path: room in the tail chunk.
            self.chunks[f.tail as usize].items[f.tail_len as usize] = x;
            f.tail_len += 1;
        } else {
            let c = self.alloc_chunk(x);
            if f.tail == NIL {
                f.head = c;
                f.head_off = 0;
            } else {
                self.chunks[f.tail as usize].next = c;
            }
            f.tail = c;
            f.tail_len = 1;
        }
        self.live += 1;
        self.allocs += 1;
        if self.live > self.live_peak {
            self.live_peak = self.live;
        }
    }

    /// The entry at the front of `f`, if any.
    #[inline]
    pub fn front<'a>(&'a self, f: &Fifo) -> Option<&'a T> {
        if f.head == NIL {
            return None;
        }
        Some(&self.chunks[f.head as usize].items[f.head_off as usize])
    }

    /// The entry at the front of `f`, mutably, if any: a host cuts the
    /// next packet off a staged flow in place.
    #[inline]
    pub fn front_mut<'a>(&'a mut self, f: &Fifo) -> Option<&'a mut T> {
        if f.head == NIL {
            return None;
        }
        Some(&mut self.chunks[f.head as usize].items[f.head_off as usize])
    }

    /// The entry at the back of `f`, mutably, if any: the VOQ bank
    /// appends an arriving packet to its tail run in place.
    #[inline]
    pub fn back_mut<'a>(&'a mut self, f: &Fifo) -> Option<&'a mut T> {
        if f.tail == NIL {
            return None;
        }
        Some(&mut self.chunks[f.tail as usize].items[f.tail_len as usize - 1])
    }

    /// Removes and returns the front entry of `f`, releasing its chunk
    /// to the free list when the last live entry leaves it.
    #[inline]
    pub fn pop(&mut self, f: &mut Fifo) -> Option<T> {
        if f.head == NIL {
            return None;
        }
        let head = f.head;
        let x = self.chunks[head as usize].items[f.head_off as usize];
        f.head_off += 1;
        self.live -= 1;
        self.frees += 1;
        let exhausted = if f.head == f.tail {
            f.head_off == f.tail_len
        } else {
            f.head_off as usize == CHUNK_LEN
        };
        if exhausted {
            let next = self.chunks[head as usize].next;
            self.free_chunk(head);
            if f.head == f.tail {
                *f = Fifo::new();
            } else {
                f.head = next;
                f.head_off = 0;
            }
        }
        Some(x)
    }

    /// Entries currently queued across every FIFO backed by this pool.
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Chunks currently reachable from some FIFO (not on the free list).
    pub fn chunks_in_use(&self) -> usize {
        self.chunks.len() - self.free_chunks
    }

    /// Entries ever pushed into this pool.
    pub fn alloc_count(&self) -> u64 {
        self.allocs
    }

    /// Entries ever popped/drained out of this pool.
    pub fn free_count(&self) -> u64 {
        self.frees
    }

    /// High-water mark of simultaneously live entries.
    pub fn live_peak(&self) -> u64 {
        self.live_peak
    }

    /// Slab growth events (a chunk allocated because the free list was
    /// empty).
    pub fn chunk_growth_count(&self) -> u64 {
        self.chunk_growths
    }

    /// The always-on end-of-run leak check: verifies the alloc/free
    /// ledger balances against the live count, and that chunk occupancy
    /// bounds hold. Unlike
    /// [`debug_assert_conserved`](Self::debug_assert_conserved) this
    /// runs (and fails) in release builds too — a leak must error the
    /// run, not silently pass once debug assertions compile out. Returns
    /// a one-line description of the first violated invariant.
    pub fn check_conserved(&self) -> Result<(), String> {
        if self.allocs.checked_sub(self.frees) != Some(self.live) {
            return Err(format!(
                "pool leak: {} allocs - {} frees != {} live entries",
                self.allocs, self.frees, self.live
            ));
        }
        let in_use = self.chunks_in_use() as u64;
        if !(in_use <= self.live && self.live <= in_use * CHUNK_LEN as u64) {
            return Err(format!(
                "pool occupancy violated: {} live entries across {in_use} in-use chunks",
                self.live
            ));
        }
        if self.live == 0 && in_use != 0 {
            return Err(format!(
                "pool leak: {in_use} chunks in use with zero live entries"
            ));
        }
        Ok(())
    }

    /// Debug-asserts occupancy conservation: every in-use chunk holds
    /// between one and [`CHUNK_LEN`] live entries, and an empty pool has
    /// released every chunk to the free list. A chunk freed twice (or a
    /// drop path that forgot to release one) breaks these bounds. Called
    /// by the runtime once per scheduler epoch; compiles to nothing in
    /// release builds.
    #[inline]
    pub fn debug_assert_conserved(&self) {
        let in_use = self.chunks_in_use() as u64;
        debug_assert!(
            in_use <= self.live && self.live <= in_use * CHUNK_LEN as u64,
            "pool occupancy violated: {} live entries across {} in-use chunks",
            self.live,
            in_use,
        );
        debug_assert!(
            self.live > 0 || in_use == 0,
            "pool leak: {in_use} chunks in use with zero live entries",
        );
    }
}

/// A run of one flow's consecutive packets, not yet cut: flow id, ports,
/// class, creation time, bytes left, next `seq` and segment size. Hosts
/// stage a whole flow or app send as one run, and under software
/// placement queue it whole in the VOQ bank; under hardware placement the
/// bank grows its tail run by each packet that continues it
/// ([`append`](Self::append)).
/// Whoever sends cuts one packet off the front run at a time, so a queue
/// holds one pool slot per run however many packets it becomes.
///
/// Cutting reproduces eager packetization exactly: packet `seq` carries
/// `min(left, seg)` bytes — full segments, then the tail — and the
/// run's creation time, and each queue is FIFO over whole runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Staged {
    flow: u64,
    created: SimTime,
    /// Bytes not yet cut into packets.
    pub(crate) left: u64,
    pub(crate) src: PortNo,
    pub(crate) dst: PortNo,
    class: TrafficClass,
    /// `seq` of the next packet.
    seq: u32,
    /// Segment size: the MTU for a flow, the packet size for an app send,
    /// the first packet's size for a run built from arriving packets.
    seg: u32,
}

// Four runs and the link fit in three cache lines (see `CHUNK_LEN`).
const _: () = assert!(std::mem::size_of::<Staged>() == 40);

impl Staged {
    /// `bytes` of flow `flow` created at `created`, cut into `seg`-byte
    /// packets. A zero-byte entry still yields one (empty) packet: only
    /// app sends stage one, as a flow of no bytes stages nothing.
    pub(crate) fn new(
        flow: u64,
        src: PortNo,
        dst: PortNo,
        bytes: u64,
        class: TrafficClass,
        created: SimTime,
        seg: u32,
    ) -> Self {
        Staged {
            flow,
            created,
            left: bytes,
            src,
            dst,
            class,
            seq: 0,
            seg,
        }
    }

    /// The run of the one packet `p`, whose size is the run's segment:
    /// cutting it yields `p` back.
    pub(crate) fn of_packet(p: &Packet) -> Self {
        Staged {
            flow: p.flow,
            created: p.created,
            left: p.bytes as u64,
            src: p.src,
            dst: p.dst,
            class: p.class,
            seq: p.seq,
            seg: p.bytes,
        }
    }

    /// Size of the next packet.
    pub(crate) fn front_bytes(&self) -> u32 {
        self.left.min(self.seg as u64) as u32
    }

    /// The run's traffic class.
    pub(crate) fn class(&self) -> TrafficClass {
        self.class
    }

    /// How many packets at the front share the next packet's size: the
    /// run's full segments, or 1 when only a short tail (or one empty
    /// packet) is left.
    pub(crate) fn same_size_len(&self) -> u64 {
        match self.left.checked_div(self.seg as u64) {
            Some(full) if full > 0 => full,
            _ => 1,
        }
    }

    /// The next packet, not yet cut.
    pub(crate) fn front_packet(&self) -> Packet {
        Packet::new(
            self.flow,
            self.src,
            self.dst,
            self.front_bytes(),
            self.class,
            self.created,
            self.seq,
        )
    }

    /// Cuts the next packet off the front; the entry is spent once
    /// `left` reaches zero.
    fn cut(&mut self) -> Packet {
        let pkt = self.front_packet();
        self.left -= pkt.bytes as u64;
        self.seq = self.seq.wrapping_add(1);
        pkt
    }

    /// Cuts the next `k` packets off the front as one run, `k` at most
    /// [`same_size_len`](Self::same_size_len): cutting the returned run
    /// yields those packets, and its own `same_size_len` is `k`.
    fn cut_n(&mut self, k: u64) -> Staged {
        debug_assert!((1..=self.same_size_len()).contains(&k), "cut of {k}");
        let bytes = k * self.front_bytes() as u64;
        let run = Staged {
            left: bytes,
            ..*self
        };
        self.left -= bytes;
        self.seq = self.seq.wrapping_add(k as u32);
        run
    }

    /// Appends `p` to the back of the run when it continues it: same
    /// flow, class and creation time, `seq` right after the run's last
    /// packet, that last packet a full segment, and `p` non-empty and no
    /// larger than one. Cutting then yields the run's packets and `p`, in
    /// order. Returns whether `p` was appended. The caller keeps the run
    /// on `p`'s `(src, dst)` queue, so the ports match too.
    pub(crate) fn append(&mut self, p: &Packet) -> bool {
        // The run's k packets left are all full segments exactly when
        // `left == k · seg`, and then `p` is packet `seq + k`. Runs with
        // `left == 0` are empty packets of segment 0, which nothing fits.
        let k = p.seq.wrapping_sub(self.seq) as u64;
        let continues = p.flow == self.flow
            && p.class == self.class
            && p.created == self.created
            && p.bytes > 0
            && p.bytes <= self.seg
            && self.left == k * self.seg as u64;
        if continues {
            self.left += p.bytes as u64;
        }
        continues
    }

    /// Appends `run` — packets of one size, as [`cut_n`](Self::cut_n)
    /// cuts them — to the back of this run when its first packet
    /// continues it ([`append`](Self::append)), as one `append` per packet
    /// would. The rest then continue it too: a run of several packets is
    /// full segments of one flow, and a run of that flow that they
    /// continue was opened by a full segment, so the segments match.
    /// Returns whether `run` was appended.
    pub(crate) fn append_run(&mut self, run: &Staged) -> bool {
        let first = run.front_packet();
        if !self.append(&first) {
            return false;
        }
        let rest = run.left - first.bytes as u64;
        debug_assert!(
            rest == 0 || first.bytes == self.seg,
            "only full segments continue a run"
        );
        self.left += rest;
        true
    }

    /// The run a VOQ opens for `run`'s packets (of one size): the run of
    /// its first packet ([`of_packet`](Self::of_packet)) with the rest
    /// appended, each continuing the last.
    pub(crate) fn opened(self) -> Staged {
        Staged {
            seg: self.front_bytes(),
            ..self
        }
    }
}

impl Pool<Staged> {
    /// Cuts the next packet off the front run of `q`, popping the run
    /// when its last byte leaves.
    #[inline]
    pub(crate) fn cut_front(&mut self, q: &mut Fifo) -> Option<Packet> {
        let front = self.front_mut(q)?;
        let pkt = front.cut();
        if front.left == 0 {
            self.pop(q);
        }
        Some(pkt)
    }

    /// Cuts the next `k` packets off the front run of `q` as one run —
    /// `k` at most that run's [`Staged::same_size_len`], so they share a
    /// size — popping the run when its last byte leaves. Equals `k`
    /// calls of [`cut_front`](Self::cut_front), whose packets the
    /// returned run cuts into.
    #[inline]
    pub(crate) fn cut_front_n(&mut self, q: &mut Fifo, k: u64) -> Option<Staged> {
        let front = self.front_mut(q)?;
        let run = front.cut_n(k);
        if front.left == 0 {
            self.pop(q);
        }
        Some(run)
    }

    /// Cuts packets off the front of `q` while `accept` takes the next
    /// packet's size in bytes, appending them to `out`; returns the bytes
    /// cut. A grant may end inside a run: its rest stays at the front.
    pub(crate) fn cut_while_into(
        &mut self,
        q: &mut Fifo,
        mut accept: impl FnMut(u64) -> bool,
        out: &mut Vec<Packet>,
    ) -> u64 {
        let mut used = 0u64;
        while let Some(run) = self.front(q) {
            let b = run.front_bytes() as u64;
            if !accept(b) {
                break;
            }
            used += b;
            out.push(self.cut_front(q).expect("front exists"));
        }
        used
    }
}

/// A grant predicate for a byte budget (a slot's capacity): it takes
/// packets while their total fits within `room`.
pub(crate) fn byte_budget(mut room: u64) -> impl FnMut(u64) -> bool {
    move |b| room.checked_sub(b).map(|left| room = left).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `seq` doubles as the packet's FIFO marker.
    fn pkt(seq: u32, bytes: u32) -> Packet {
        Packet::new(
            seq as u64,
            PortNo(0),
            PortNo(1),
            bytes,
            TrafficClass::Bulk,
            SimTime::ZERO,
            seq,
        )
    }

    /// Packet `seq` of flow 7.
    fn flow_pkt(seq: u32, bytes: u32) -> Packet {
        Packet::new(
            7,
            PortNo(0),
            PortNo(1),
            bytes,
            TrafficClass::Bulk,
            SimTime::from_nanos(5),
            seq,
        )
    }

    #[test]
    fn fifo_order_across_chunk_boundaries() {
        let mut pool = Pool::new();
        let mut f = Fifo::new();
        for i in 0..11 {
            pool.push(&mut f, pkt(i, 100));
        }
        assert_eq!(pool.live(), 11);
        assert_eq!(pool.chunks_in_use(), 3);
        for i in 0..11 {
            assert_eq!(pool.front(&f).unwrap().seq, i);
            assert_eq!(pool.pop(&mut f).unwrap().seq, i);
        }
        assert!(pool.pop(&mut f).is_none());
        assert!(f.is_empty());
        pool.debug_assert_conserved();
        assert_eq!(pool.chunks_in_use(), 0, "all chunks back on the free list");
    }

    #[test]
    fn chunks_are_recycled_not_grown() {
        let mut pool = Pool::new();
        let mut f = Fifo::new();
        for round in 0..5u32 {
            for i in 0..8 {
                pool.push(&mut f, pkt(round * 8 + i, 64));
            }
            while pool.pop(&mut f).is_some() {}
        }
        assert_eq!(pool.chunks.len(), 2, "slab stays at peak footprint");
        pool.debug_assert_conserved();
    }

    #[test]
    fn interleaved_fifos_do_not_cross_talk() {
        let mut pool = Pool::new();
        let mut a = Fifo::new();
        let mut b = Fifo::new();
        for i in 0..6 {
            pool.push(&mut a, pkt(i, 10));
            pool.push(&mut b, pkt(100 + i, 10));
        }
        for i in 0..6 {
            assert_eq!(pool.pop(&mut a).unwrap().seq, i);
            assert_eq!(pool.pop(&mut b).unwrap().seq, 100 + i);
        }
        pool.debug_assert_conserved();
    }

    #[test]
    fn conservation_ledger_balances_and_catches_leaks() {
        let mut pool = Pool::new();
        let mut f = Fifo::new();
        pool.check_conserved().expect("empty pool conserves");
        for i in 0..9 {
            pool.push(&mut f, Staged::of_packet(&pkt(i, 100)));
        }
        assert_eq!(pool.alloc_count(), 9);
        assert_eq!(pool.live_peak(), 9);
        assert_eq!(pool.chunk_growth_count(), 3, "9 runs = 3 fresh chunks");
        pool.check_conserved().expect("mid-run ledger balances");
        let mut out = Vec::new();
        pool.cut_while_into(&mut f, byte_budget(u64::MAX), &mut out);
        assert_eq!(pool.free_count(), 9);
        assert_eq!(pool.live_peak(), 9, "peak survives the drain");
        pool.check_conserved().expect("drained pool conserves");
        // Re-fill reuses chunks: growth count must not move.
        for i in 0..9 {
            pool.push(&mut f, Staged::of_packet(&pkt(i, 100)));
        }
        assert_eq!(pool.chunk_growth_count(), 3);
        assert_eq!(pool.live_peak(), 9);
        // A cooked ledger is reported, not silently accepted.
        let mut bad = Pool::new();
        let mut g = Fifo::new();
        bad.push(&mut g, pkt(0, 10));
        bad.frees = 1; // simulate a free the live count never saw
        let err = bad.check_conserved().unwrap_err();
        assert!(err.contains("leak"), "{err}");
    }

    #[test]
    fn pools_hold_any_copy_entry_and_edit_the_front_in_place() {
        // `(id, remaining)`: a stand-in for a staged flow that the front
        // reader whittles down before popping it.
        let mut pool: Pool<(u32, u32)> = Pool::new();
        let mut f = Fifo::new();
        for id in 0..6 {
            pool.push(&mut f, (id, 3));
        }
        let mut order = Vec::new();
        while let Some(front) = pool.front_mut(&f) {
            front.1 -= 1;
            if front.1 == 0 {
                order.push(pool.pop(&mut f).expect("front exists").0);
            }
            pool.debug_assert_conserved();
        }
        assert_eq!(order, (0..6).collect::<Vec<_>>(), "FIFO order");
        assert_eq!(pool.front(&f), None);
        assert_eq!((pool.alloc_count(), pool.free_count()), (6, 6));
        assert_eq!(pool.live_peak(), 6);
        assert_eq!(pool.chunks_in_use(), 0);
        pool.check_conserved().expect("emptied pool conserves");
    }

    #[test]
    fn drain_budget_respects_budget_and_frees_once() {
        // One run of five full segments, then a one-packet run.
        let mut pool = Pool::new();
        let mut f = Fifo::new();
        let flow = Staged::new(
            7,
            PortNo(0),
            PortNo(1),
            7500,
            TrafficClass::Bulk,
            SimTime::ZERO,
            1500,
        );
        pool.push(&mut f, flow);
        pool.push(&mut f, Staged::of_packet(&pkt(9, 700)));
        let before_chunks = pool.chunks_in_use();
        let mut out = Vec::new();
        let used = pool.cut_while_into(&mut f, byte_budget(4000), &mut out);
        assert_eq!(used, 3000);
        assert_eq!(out.iter().map(|p| p.seq).collect::<Vec<_>>(), [0, 1]);
        // The budget split the run: its rest stays at the front.
        assert_eq!(pool.live(), 2);
        assert_eq!(pool.front(&f).map(|r| (r.seq, r.left)), Some((2, 4500)));
        assert_eq!(pool.chunks_in_use(), before_chunks);
        let used = pool.cut_while_into(&mut f, byte_budget(u64::MAX), &mut out);
        assert_eq!(used, 5200);
        assert_eq!(out.iter().map(|p| p.bytes).sum::<u32>(), 8200);
        assert_eq!(out.last().map(|p| (p.flow, p.seq)), Some((9, 9)));
        assert!(f.is_empty());
        assert_eq!(pool.chunks_in_use(), 0);
        pool.debug_assert_conserved();
        // A second drain on the empty FIFO must be a no-op, not a
        // double free.
        assert_eq!(
            pool.cut_while_into(&mut f, byte_budget(u64::MAX), &mut out),
            0
        );
        assert_eq!(pool.chunks_in_use(), 0);
    }

    #[test]
    fn runs_append_only_the_packets_that_continue_them() {
        let full = |seq| flow_pkt(seq, 1500);
        let mut run = Staged::of_packet(&full(3));
        assert!(run.append(&full(4)), "next seq, full segment");
        assert!(
            !run.append(&full(4)),
            "a repeated seq is not a continuation"
        );
        assert!(!run.append(&full(6)), "a drop gap starts a new run");
        assert!(
            !run.append(&flow_pkt(5, 0)),
            "an empty packet starts a new run"
        );
        assert!(!run.append(&flow_pkt(5, 1501)), "larger than the segment");
        let mut other = full(5);
        other.flow = 8;
        assert!(!run.append(&other), "another flow");
        let mut other = full(5);
        other.class = TrafficClass::Short;
        assert!(!run.append(&other), "another class");
        let mut other = full(5);
        other.created = SimTime::ZERO;
        assert!(!run.append(&other), "another creation time");
        assert!(run.append(&flow_pkt(5, 900)), "a short tail");
        assert!(!run.append(&full(6)), "nothing follows a short tail");
        assert!(!Staged::of_packet(&flow_pkt(0, 0)).append(&full(1)));
        let mut cut = Vec::new();
        while run.left > 0 {
            cut.push(run.cut());
        }
        assert_eq!(cut, [full(3), full(4), flow_pkt(5, 900)]);
    }
}
