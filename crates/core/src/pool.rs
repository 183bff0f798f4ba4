//! The chunked pool: one slab of 4-entry chunks backing any number of
//! intrusive FIFOs of one entry type.
//!
//! Two pools use it. The switch-side VOQ bank
//! ([`crate::processing::ProcessingLogic`]) queues 32-byte [`Packet`]
//! descriptors in a `Pool<Packet>`; each shard's hosts stage whole flows
//! in a `Pool` of 40-byte staged-flow entries (the staging queues and the
//! slow-mode host VOQs in [`crate::runtime`]), cutting one packet off the
//! front entry each time the NIC sends. A queue is a [`Fifo`] — a
//! 12-byte header naming a chunk run inside the pool — so moving an entry
//! touches one pool slot and one compact header, enqueue order is
//! preserved exactly, and freed chunks recycle through a FIFO free list
//! (runs freed together are reused together, keeping traversals in
//! allocation order).
//!
//! The pool tracks live entries and in-use chunks so callers can assert
//! **occupancy conservation** at epoch boundaries: every chunk is either
//! on the free list or reachable from exactly one FIFO, and a packet
//! dropped *before* admission never touches the pool (so it cannot leak
//! or double-free a chunk).

use xds_net::Packet;

const NIL: u32 = u32::MAX;

/// Entries per pool chunk: four packets (32 B) or staged flows (40 B)
/// plus the link fit in three cache lines, and a FIFO touches a new
/// chunk only every fourth entry.
pub const CHUNK_LEN: usize = 4;

/// A pooled run of consecutive entries belonging to one FIFO, linked into
/// that FIFO's chunk list.
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

// Slow mode keeps n² host VOQ headers: they stay 12 bytes.
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

impl Pool<Packet> {
    /// Dequeues packets from the front of `f` while their cumulative size
    /// fits within `budget_bytes`, appending them to `out`. Returns the
    /// bytes drained (grant execution's budgeted dequeue, kept here so
    /// the chunk walk stays inside the pool).
    pub fn drain_budget_into(
        &mut self,
        f: &mut Fifo,
        budget_bytes: u64,
        out: &mut Vec<Packet>,
    ) -> u64 {
        let mut head = f.head;
        if head == NIL {
            return 0;
        }
        let mut off = f.head_off;
        let tail = f.tail;
        let tail_len = f.tail_len;
        let mut used = 0u64;
        'drain: while head != NIL {
            let limit = if head == tail {
                tail_len
            } else {
                CHUNK_LEN as u8
            };
            while off < limit {
                let pkt = self.chunks[head as usize].items[off as usize];
                let b = pkt.bytes as u64;
                if used + b > budget_bytes {
                    break 'drain;
                }
                used += b;
                self.live -= 1;
                self.frees += 1;
                out.push(pkt);
                off += 1;
            }
            if head == tail {
                // Tail chunk exhausted: the FIFO is empty.
                if off == tail_len {
                    self.free_chunk(head);
                    head = NIL;
                    off = 0;
                }
                break;
            }
            let next = self.chunks[head as usize].next;
            self.free_chunk(head);
            head = next;
            off = 0;
        }
        f.head = head;
        f.head_off = off;
        if head == NIL {
            f.tail = NIL;
            f.tail_len = 0;
        }
        used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xds_net::{PortNo, TrafficClass};
    use xds_sim::SimTime;

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
            pool.push(&mut f, pkt(i, 100));
        }
        assert_eq!(pool.alloc_count(), 9);
        assert_eq!(pool.live_peak(), 9);
        assert_eq!(pool.chunk_growth_count(), 3, "9 packets = 3 fresh chunks");
        pool.check_conserved().expect("mid-run ledger balances");
        let mut out = Vec::new();
        pool.drain_budget_into(&mut f, u64::MAX, &mut out);
        assert_eq!(pool.free_count(), 9);
        assert_eq!(pool.live_peak(), 9, "peak survives the drain");
        pool.check_conserved().expect("drained pool conserves");
        // Re-fill reuses chunks: growth count must not move.
        for i in 0..9 {
            pool.push(&mut f, pkt(i, 100));
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
        let mut pool = Pool::new();
        let mut f = Fifo::new();
        for i in 0..5 {
            pool.push(&mut f, pkt(i, 1500));
        }
        let before_chunks = pool.chunks_in_use();
        let mut out = Vec::new();
        let used = pool.drain_budget_into(&mut f, 4000, &mut out);
        assert_eq!(used, 3000);
        assert_eq!(out.len(), 2);
        assert_eq!(pool.live(), 3);
        // Draining within the head chunk frees nothing yet.
        assert_eq!(pool.chunks_in_use(), before_chunks);
        let used = pool.drain_budget_into(&mut f, u64::MAX, &mut out);
        assert_eq!(used, 4500);
        assert!(f.is_empty());
        assert_eq!(pool.chunks_in_use(), 0);
        pool.debug_assert_conserved();
        // A second drain on the empty FIFO must be a no-op, not a
        // double free.
        assert_eq!(pool.drain_budget_into(&mut f, u64::MAX, &mut out), 0);
        assert_eq!(pool.chunks_in_use(), 0);
    }
}
