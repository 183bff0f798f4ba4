//! The deterministic internal-counters registry ([`CounterSet`]).

/// How a counter combines when two registries covering disjoint parts
/// of one run (per-shard banks, per-pool ledgers) are folded together.
///
/// Merging everything as a sum is wrong for high-water marks: summing
/// `pool_live_peak` across shards would report a combined peak no single
/// pool ever reached. Each counter therefore declares its kind, and
/// [`CounterSet::merge`] dispatches on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// A tally: events across disjoint sources add.
    Sum,
    /// A high-water mark: the combined value is the largest observed.
    Max,
}

/// The flight-recorder counter registry: one `u64` per internal
/// mechanism the runtime wants to account for. Every counter is a pure
/// function of the simulated event sequence — no wall-clock, no
/// allocator state — so for a fixed spec the whole set is byte-identical
/// across runs, hosts and sweep thread counts, and exact values can be
/// pinned in tests.
///
/// The canonical name/value enumeration is [`CounterSet::items`]; it is
/// the single source of truth for every serializer (sweep JSON/CSV
/// columns, summary output), the same role `RunReport::metric_columns`
/// plays for the headline metrics. Scheduler-specific counters
/// (`sched_*`) stay zero for schedulers that do not implement the
/// observability hooks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSet {
    /// Solstice matching-memo replays (epoch-identical CSR edge sets).
    pub sched_memo_hits: u64,
    /// Hopcroft–Karp executions (matching-memo misses).
    pub sched_hk_runs: u64,
    /// Threshold probes: adjacency builds attempted while halving the
    /// admission threshold.
    pub sched_probes: u64,
    /// Largest per-epoch worklist (demand entries considered).
    pub sched_worklist_peak: u64,
    /// Largest per-epoch count of populated value buckets.
    pub sched_bucket_peak: u64,
    /// Retired with the ladder event queue (it counted rung spreads):
    /// always 0, and outside [`items`](Self::items),
    /// [`kinds`](Self::kinds) and [`merge`](Self::merge). Kept only
    /// because the repository benchmark reads it; the next change to the
    /// benchmark deletes it.
    pub queue_spreads: u64,
    /// Retired with the ladder event queue (it counted bottom-run spills):
    /// always 0, and outside [`items`](Self::items),
    /// [`kinds`](Self::kinds) and [`merge`](Self::merge). Kept only
    /// because the repository benchmark reads it; the next change to the
    /// benchmark deletes it.
    pub queue_spills: u64,
    /// Retired with the ladder event queue (it counted direct sorts):
    /// always 0, and outside [`items`](Self::items),
    /// [`kinds`](Self::kinds) and [`merge`](Self::merge). Kept only
    /// because the repository benchmark reads it; the next change to the
    /// benchmark deletes it.
    pub queue_direct_sorts: u64,
    /// Events popped from the event queues (the coordinator's and the
    /// shards'). The run's `events` also counts the events a NIC train
    /// handles without a queue event, so `events − queue_pops` is what
    /// the trains took.
    pub queue_pops: u64,
    /// Entries pushed into the pools: a staged flow or app send at a
    /// host, a run of one flow's consecutive packets in the VOQ bank
    /// (under software placement, a whole flow or gated app send a host
    /// holds for a grant).
    pub pool_allocs: u64,
    /// Entries popped from the pools.
    pub pool_frees: u64,
    /// High-water mark of live pool entries.
    pub pool_live_peak: u64,
    /// Slab chunk allocations (pool capacity growth events).
    pub pool_chunk_growths: u64,
    /// Pair records the VOQ banks hold at the end of the run: the
    /// distinct `(src, dst)` pairs that had a packet admitted to the
    /// switch's VOQs, or under software placement the pairs hosts queued
    /// gated bytes for. A pair lives in the bank of the shard owning its
    /// source, so the sum is the same for every shard map.
    pub voq_pairs: u64,
    /// Grant bursts executed (one per served port pair per slot).
    pub grant_bursts: u64,
    /// Largest single grant burst, in packets.
    pub grant_pkts_max: u64,
    /// Handler-level delivery groups recorded: one per coordinator
    /// handler that delivered an observed packet (at most one per slot;
    /// zero when the run is unobserved).
    pub delivery_batches: u64,
    /// Fault events injected by the fault plan (link failures, misfires,
    /// stalls) — zero whenever no plan is armed.
    pub fault_events_injected: u64,
    /// High-water mark of accumulated degraded-mode time, in simulated
    /// nanoseconds (time with at least one OCS port dark to faults).
    pub fault_degraded_ns_max: u64,
    /// Bytes diverted from a granted OCS burst onto the EPS slow path
    /// because the circuit was faulted or stale.
    pub fault_failover_bytes: u64,
    /// Packets dropped because a switch VOQ was at capacity
    /// (`NodeConfig::voq_capacity`). Host VOQs are unbounded and never
    /// drop.
    pub drop_voq_full: u64,
    /// Packets dropped because the EPS queue was full.
    pub drop_eps_full: u64,
    /// Packets dropped because they arrived at a dark or misconfigured
    /// OCS input (sync violation).
    pub drop_sync_violation: u64,
    /// Packets dropped because a fault-injected link was dark.
    pub drop_link_dark: u64,
}

impl CounterSet {
    /// Number of counters in the registry.
    pub const LEN: usize = 21;

    /// The canonical `(name, value)` enumeration, in stable order. Column
    /// emitters and docs must derive from this list so names cannot
    /// drift between serializers.
    pub fn items(&self) -> [(&'static str, u64); Self::LEN] {
        [
            ("sched_memo_hits", self.sched_memo_hits),
            ("sched_hk_runs", self.sched_hk_runs),
            ("sched_probes", self.sched_probes),
            ("sched_worklist_peak", self.sched_worklist_peak),
            ("sched_bucket_peak", self.sched_bucket_peak),
            ("queue_pops", self.queue_pops),
            ("pool_allocs", self.pool_allocs),
            ("pool_frees", self.pool_frees),
            ("pool_live_peak", self.pool_live_peak),
            ("pool_chunk_growths", self.pool_chunk_growths),
            ("voq_pairs", self.voq_pairs),
            ("grant_bursts", self.grant_bursts),
            ("grant_pkts_max", self.grant_pkts_max),
            ("delivery_batches", self.delivery_batches),
            ("fault_events_injected", self.fault_events_injected),
            ("fault_degraded_ns_max", self.fault_degraded_ns_max),
            ("fault_failover_bytes", self.fault_failover_bytes),
            ("drop_voq_full", self.drop_voq_full),
            ("drop_eps_full", self.drop_eps_full),
            ("drop_sync_violation", self.drop_sync_violation),
            ("drop_link_dark", self.drop_link_dark),
        ]
    }

    /// The counter names alone, in the same stable order as
    /// [`items`](Self::items) (for CSV headers).
    pub fn names() -> [&'static str; Self::LEN] {
        Self::default().items().map(|(n, _)| n)
    }

    /// Looks a counter up by its canonical name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.items()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Each counter's merge kind, aligned with [`items`](Self::items):
    /// the `*_peak` counters and `grant_pkts_max` are high-water marks,
    /// everything else is a tally.
    pub fn kinds() -> [(&'static str, CounterKind); Self::LEN] {
        use CounterKind::{Max, Sum};
        [
            ("sched_memo_hits", Sum),
            ("sched_hk_runs", Sum),
            ("sched_probes", Sum),
            ("sched_worklist_peak", Max),
            ("sched_bucket_peak", Max),
            ("queue_pops", Sum),
            ("pool_allocs", Sum),
            ("pool_frees", Sum),
            ("pool_live_peak", Max),
            ("pool_chunk_growths", Sum),
            ("voq_pairs", Sum),
            ("grant_bursts", Sum),
            ("grant_pkts_max", Max),
            ("delivery_batches", Sum),
            ("fault_events_injected", Sum),
            ("fault_degraded_ns_max", Max),
            ("fault_failover_bytes", Sum),
            ("drop_voq_full", Sum),
            ("drop_eps_full", Sum),
            ("drop_sync_violation", Sum),
            ("drop_link_dark", Sum),
        ]
    }

    /// A counter's merge kind by canonical name.
    pub fn kind_of(name: &str) -> Option<CounterKind> {
        Self::kinds()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, k)| k)
    }

    /// Folds another registry into this one with per-counter semantics:
    /// tallies add, high-water marks take the max (see
    /// [`kinds`](Self::kinds)). The default set is the merge identity.
    pub fn merge(&mut self, other: &CounterSet) {
        self.sched_memo_hits += other.sched_memo_hits;
        self.sched_hk_runs += other.sched_hk_runs;
        self.sched_probes += other.sched_probes;
        self.sched_worklist_peak = self.sched_worklist_peak.max(other.sched_worklist_peak);
        self.sched_bucket_peak = self.sched_bucket_peak.max(other.sched_bucket_peak);
        self.queue_pops += other.queue_pops;
        self.pool_allocs += other.pool_allocs;
        self.pool_frees += other.pool_frees;
        self.pool_live_peak = self.pool_live_peak.max(other.pool_live_peak);
        self.pool_chunk_growths += other.pool_chunk_growths;
        self.voq_pairs += other.voq_pairs;
        self.grant_bursts += other.grant_bursts;
        self.grant_pkts_max = self.grant_pkts_max.max(other.grant_pkts_max);
        self.delivery_batches += other.delivery_batches;
        self.fault_events_injected += other.fault_events_injected;
        self.fault_degraded_ns_max = self.fault_degraded_ns_max.max(other.fault_degraded_ns_max);
        self.fault_failover_bytes += other.fault_failover_bytes;
        self.drop_voq_full += other.drop_voq_full;
        self.drop_eps_full += other.drop_eps_full;
        self.drop_sync_violation += other.drop_sync_violation;
        self.drop_link_dark += other.drop_link_dark;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_set_enumeration_is_complete_and_stable() {
        let mut c = CounterSet::default();
        assert!(c.items().iter().all(|&(_, v)| v == 0));
        c.sched_memo_hits = 3;
        c.delivery_batches = 9;
        assert_eq!(c.get("sched_memo_hits"), Some(3));
        assert_eq!(c.get("delivery_batches"), Some(9));
        assert_eq!(c.get("not_a_counter"), None);
        let names = CounterSet::names();
        assert_eq!(names.len(), CounterSet::LEN);
        // Names are unique and stable-ordered (first/last pinned).
        let mut sorted = names.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), CounterSet::LEN);
        assert_eq!(names[0], "sched_memo_hits");
        assert_eq!(names[CounterSet::LEN - 1], "drop_link_dark");
        // The ladder queue's counters are retired: no column, no lookup,
        // and a merge leaves them at 0.
        for retired in ["queue_spreads", "queue_spills", "queue_direct_sorts"] {
            assert!(!names.contains(&retired), "{retired} is retired");
            assert_eq!(c.get(retired), None);
        }
        let mut merged = CounterSet::default();
        merged.merge(&CounterSet {
            queue_spreads: 1,
            queue_spills: 2,
            queue_direct_sorts: 3,
            ..CounterSet::default()
        });
        assert_eq!(merged, CounterSet::default());
    }

    #[test]
    fn kinds_cover_every_counter_in_items_order() {
        let names = CounterSet::names();
        let kinds = CounterSet::kinds();
        assert_eq!(kinds.len(), CounterSet::LEN);
        for (i, (n, _)) in kinds.iter().enumerate() {
            assert_eq!(*n, names[i], "kind table drifted from items order");
        }
        // Exactly the documented high-water marks merge by max.
        let maxes: Vec<_> = kinds
            .iter()
            .filter(|(_, k)| *k == CounterKind::Max)
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(
            maxes,
            [
                "sched_worklist_peak",
                "sched_bucket_peak",
                "pool_live_peak",
                "grant_pkts_max",
                "fault_degraded_ns_max"
            ]
        );
        assert_eq!(CounterSet::kind_of("pool_allocs"), Some(CounterKind::Sum));
        assert_eq!(
            CounterSet::kind_of("grant_pkts_max"),
            Some(CounterKind::Max)
        );
        assert_eq!(CounterSet::kind_of("not_a_counter"), None);
    }

    #[test]
    fn merge_sums_tallies_and_maxes_peaks() {
        let mut a = CounterSet {
            sched_memo_hits: 3,
            sched_worklist_peak: 10,
            pool_allocs: 100,
            pool_live_peak: 40,
            grant_pkts_max: 7,
            ..CounterSet::default()
        };
        let b = CounterSet {
            sched_memo_hits: 4,
            sched_worklist_peak: 6,
            pool_allocs: 50,
            pool_live_peak: 90,
            grant_pkts_max: 7,
            delivery_batches: 2,
            ..CounterSet::default()
        };
        a.merge(&b);
        assert_eq!(a.sched_memo_hits, 7, "tallies add");
        assert_eq!(a.pool_allocs, 150, "tallies add");
        assert_eq!(a.delivery_batches, 2);
        assert_eq!(a.sched_worklist_peak, 10, "peaks take the max");
        assert_eq!(a.pool_live_peak, 90, "peaks take the max");
        assert_eq!(a.grant_pkts_max, 7, "equal peaks stay put");
    }

    #[test]
    fn merge_identity_and_field_coverage() {
        // Merging the default set changes nothing (identity)…
        let mut probe = CounterSet::default();
        for (i, _) in (0..CounterSet::LEN).enumerate() {
            // Give every field a distinct non-zero value via items order.
            let v = (i as u64 + 1) * 3;
            probe = set_by_index(probe, i, v);
        }
        let before = probe;
        probe.merge(&CounterSet::default());
        assert_eq!(probe, before, "default is the merge identity");
        // …and merging a set into the default reproduces it exactly —
        // together these pin that `merge` touches every field (a field
        // skipped by the hand-written merge would stay zero here).
        let mut zero = CounterSet::default();
        zero.merge(&before);
        assert_eq!(zero, before, "merge into default must copy all fields");
    }

    /// Sets the `i`-th counter (items order) to `v` — test helper that
    /// keeps `merge_identity_and_field_coverage` exhaustive without
    /// naming all fields twice.
    fn set_by_index(mut c: CounterSet, i: usize, v: u64) -> CounterSet {
        match i {
            0 => c.sched_memo_hits = v,
            1 => c.sched_hk_runs = v,
            2 => c.sched_probes = v,
            3 => c.sched_worklist_peak = v,
            4 => c.sched_bucket_peak = v,
            5 => c.queue_pops = v,
            6 => c.pool_allocs = v,
            7 => c.pool_frees = v,
            8 => c.pool_live_peak = v,
            9 => c.pool_chunk_growths = v,
            10 => c.voq_pairs = v,
            11 => c.grant_bursts = v,
            12 => c.grant_pkts_max = v,
            13 => c.delivery_batches = v,
            14 => c.fault_events_injected = v,
            15 => c.fault_degraded_ns_max = v,
            16 => c.fault_failover_bytes = v,
            17 => c.drop_voq_full = v,
            18 => c.drop_eps_full = v,
            19 => c.drop_sync_violation = v,
            20 => c.drop_link_dark = v,
            _ => unreachable!(),
        }
        c
    }
}
