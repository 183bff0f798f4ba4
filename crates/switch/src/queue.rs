//! Bounded drop-tail FIFO. The runtime's VOQs and host staging queues do
//! not use it: they live in `xds_core`'s packet pool.

use std::collections::VecDeque;

use xds_net::Packet;

/// A byte- and packet-bounded FIFO. Rejects (rather than silently drops)
/// packets that don't fit, so the caller can count drops by cause.
#[derive(Debug, Clone)]
pub struct DropTailQueue {
    q: VecDeque<Packet>,
    bytes: u64,
    cap_bytes: u64,
    cap_pkts: usize,
    peak_bytes: u64,
    drops: u64,
    dropped_bytes: u64,
    enqueued_total: u64,
}

impl DropTailQueue {
    /// Creates a queue bounded by both byte and packet capacity.
    pub fn new(cap_bytes: u64, cap_pkts: usize) -> Self {
        assert!(
            cap_bytes > 0 && cap_pkts > 0,
            "queue capacity must be positive"
        );
        DropTailQueue {
            q: VecDeque::new(),
            bytes: 0,
            cap_bytes,
            cap_pkts,
            peak_bytes: 0,
            drops: 0,
            dropped_bytes: 0,
            enqueued_total: 0,
        }
    }

    /// An effectively unbounded queue (for host buffering, whose size is
    /// the thing we measure rather than cap).
    pub fn unbounded() -> Self {
        DropTailQueue::new(u64::MAX, usize::MAX)
    }

    /// Attempts to enqueue; on overflow the packet is returned to the
    /// caller and counted as a drop.
    pub fn push(&mut self, p: Packet) -> Result<(), Packet> {
        if self.bytes + p.bytes as u64 > self.cap_bytes || self.q.len() + 1 > self.cap_pkts {
            self.drops += 1;
            self.dropped_bytes += p.bytes as u64;
            return Err(p);
        }
        self.bytes += p.bytes as u64;
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        self.enqueued_total += 1;
        self.q.push_back(p);
        Ok(())
    }

    /// Dequeues the head packet.
    pub fn pop(&mut self) -> Option<Packet> {
        let p = self.q.pop_front()?;
        self.bytes -= p.bytes as u64;
        Some(p)
    }

    /// Peeks at the head packet.
    pub fn peek(&self) -> Option<&Packet> {
        self.q.front()
    }

    /// Queued bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Queued packets.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// High-water mark of queued bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// `(dropped packets, dropped bytes)`.
    pub fn drops(&self) -> (u64, u64) {
        (self.drops, self.dropped_bytes)
    }

    /// Packets ever accepted.
    pub fn enqueued_total(&self) -> u64 {
        self.enqueued_total
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
            0,
            PortNo(0),
            PortNo(1),
            bytes,
            TrafficClass::Bulk,
            SimTime::ZERO,
            seq,
        )
    }

    #[test]
    fn fifo_order() {
        let mut q = DropTailQueue::new(10_000, 10);
        q.push(pkt(1, 100)).unwrap();
        q.push(pkt(2, 100)).unwrap();
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn byte_cap_enforced() {
        let mut q = DropTailQueue::new(250, 10);
        q.push(pkt(1, 100)).unwrap();
        q.push(pkt(2, 100)).unwrap();
        let rejected = q.push(pkt(3, 100)).unwrap_err();
        assert_eq!(rejected.seq, 3);
        assert_eq!(q.drops(), (1, 100));
        assert_eq!(q.bytes(), 200);
        // After draining, capacity is available again.
        q.pop();
        q.push(pkt(4, 100)).unwrap();
    }

    #[test]
    fn packet_cap_enforced() {
        let mut q = DropTailQueue::new(u64::MAX, 2);
        q.push(pkt(1, 1)).unwrap();
        q.push(pkt(2, 1)).unwrap();
        assert!(q.push(pkt(3, 1)).is_err());
    }

    /// Drop accounting audit at the queue boundary: a rejected packet is
    /// *returned*, never stored — so the caller (who may own pooled
    /// storage for it) releases it exactly once, and accepted bytes are
    /// conserved between occupancy and the drop counters.
    #[test]
    fn rejected_packets_are_returned_and_bytes_conserved() {
        let mut q = DropTailQueue::new(1000, 100);
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for i in 0..20 {
            match q.push(pkt(i, 150)) {
                Ok(()) => accepted += 150,
                Err(p) => {
                    assert_eq!(p.seq, i, "the rejected packet comes back intact");
                    rejected += 150;
                }
            }
        }
        assert_eq!(q.bytes() + rejected, accepted + rejected);
        assert_eq!(q.drops(), (rejected / 150, rejected));
        // Draining returns every accepted byte exactly once.
        let mut drained = 0u64;
        while let Some(p) = q.pop() {
            drained += p.bytes as u64;
        }
        assert_eq!(drained, accepted);
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut q = DropTailQueue::new(10_000, 100);
        q.push(pkt(1, 400)).unwrap();
        q.push(pkt(2, 400)).unwrap();
        q.pop();
        q.push(pkt(3, 100)).unwrap();
        assert_eq!(q.peak_bytes(), 800);
        assert_eq!(q.bytes(), 500);
        assert_eq!(q.enqueued_total(), 3);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = DropTailQueue::new(1000, 10);
        q.push(pkt(7, 10)).unwrap();
        assert_eq!(q.peek().unwrap().seq, 7);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        DropTailQueue::new(0, 1);
    }
}
