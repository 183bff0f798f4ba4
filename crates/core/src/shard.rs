//! The event loop: the fabric splits into K port groups ("shards"),
//! each owning its hosts, VOQ bank, pools and event queue.
//! Intra-shard work (flow injection, NIC pumps, switch-ingress
//! classification, slow-mode grant transmission) runs independently per
//! shard between *barriers* — the coordinator's own events (epochs, slot
//! activations, app sends, matrix rotations, faults), which own
//! cross-shard state: the scheduler, the OCS/EPS, the run's recorder
//! and the buffer tracker. This is the paper's switch: one central
//! scheduler sending grants to per-port processing logic.
//!
//! # Determinism contract
//!
//! Results are defined by equivalence, not by approximation:
//!
//! * **K = 1 is the reference.** A default build is one shard owning
//!   every port; its runs are pinned byte-for-byte by the golden traces.
//! * **Every K reproduces K = 1** on events, delivered bytes, offered
//!   bytes, decisions, drops and the scheduler-/grant-path counters, for
//!   any shard map. Three mechanisms make that exact rather than lucky:
//!   1. *Windows end at the next coordinator event, with same-instant
//!      ties broken by scheduling time.* Every event — coordinator or
//!      shard-local — is stamped with the simulation time at which it
//!      was *scheduled*. A shard processes events with `t < T_next`,
//!      plus events at exactly `T_next` whose stamp is older than the
//!      coordinator event's own stamp; same-instant events within a
//!      shard replay in stamp order. That is precisely the pop order of
//!      one global queue (insertion sequence) whenever scheduling times
//!      differ — e.g. a packet reaching the switch on the very nanosecond
//!      a slot activates is admitted first iff its NIC sent it before the
//!      slot was configured. A window is a pop loop plus *trains*: a NIC
//!      pump takes its host's next departure in the same call only when
//!      that departure is the event its shard would pop next, so the
//!      handling order is the pop order. A gated packet's switch arrival
//!      (under hardware placement) takes no queue event at all: it lands
//!      in the VOQ inside the window that covers it, taken from the
//!      host's wire when an earlier window sent the packet. Nothing reads a
//!      VOQ inside a window and a pair's VOQ takes only its source's
//!      packets, so the bank at every barrier is the one the arrival
//!      events would have built. Events tied on *both* fire and
//!      scheduling time keep coordinator-first / insertion order — still
//!      deterministic, and reachable only if one handler schedules a
//!      shard event and a coordinator event for the same future instant
//!      (today that needs the control one-way delay to exactly equal the
//!      OCS reconfiguration delay).
//!   2. *Shared-state effects are shipped, not applied.* Anything a shard-local
//!      event would do to shared state — an EPS arrival, a slow-mode
//!      circuit arrival, a drop, a buffer-tracker op — is buffered as a
//!      `(time, shard, seq)`-stamped item and replayed in that canonical
//!      order at the barrier. OCS and EPS state only changes at
//!      coordinator events, so deferred replay is exact. A landing ships
//!      at its arrival time, ahead of events that come before it, so a
//!      log that leaves time order goes through the merge even at K = 1.
//!   3. *Requests merge in global `(src, dst)` order* — the same order a
//!      full-fabric row-major scan produces — so the estimator, the
//!      scheduler and the decision-latency RNG consume identical inputs.
//!
//! Counters whose value reflects *structure* rather than behavior —
//! the coordinator's and the shards' ladder-queue and pool ledgers
//! (`queue_*`, `pool_*`; `queue_pops` too, since how far a train runs
//! depends on which events share its queue) — are merged across shards
//! with [`CounterSet::merge`] semantics (sums for tallies, max for peaks)
//! and are deterministic per `(K, seed)` but legitimately K-dependent.
//!
//! # Execution
//!
//! With K > 1, shard windows run on worker threads when the machine has
//! more than one CPU ([`ShardExec::Auto`]); on a single CPU they run
//! inline, sequentially — same results either way, because shards share
//! nothing within a window. Even inline, sharding pays on big fabrics:
//! each shard's window drains its events back-to-back against a private
//! pool and VOQ bank, instead of interleaving every port's state through
//! one global time order. K = 1 always runs inline and replays its ship
//! log in place when it is in time order.

use super::*;

/// Assignment of ports to shards. Construct with
/// [`contiguous`](ShardMap::contiguous) for the standard equal split, or
/// [`from_assignment`](ShardMap::from_assignment) for arbitrary
/// (test/proptest) layouts. The determinism contract holds for any map.
///
/// The map is the run's one port index: built once, in one pass, it
/// gives every port's shard and its index among that shard's ports, and
/// every shard's sorted port list. All shards read this one copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// `assign[port] = shard`.
    assign: Vec<u32>,
    /// `local[port]` = the port's index among its shard's ports.
    local: Vec<u32>,
    /// Every shard's ports, ascending, shard after shard: shard `s` owns
    /// `ports[starts[s]..starts[s + 1]]` (`starts` has `k + 1` entries).
    ports: Vec<u32>,
    starts: Vec<u32>,
}

impl ShardMap {
    /// Splits `n` ports into `k` contiguous, near-equal groups (shard
    /// `s` owns ports `[s·n/k, (s+1)·n/k)`). `k` is clamped to `[1, n]`.
    pub fn contiguous(n: usize, k: usize) -> Self {
        assert!(n > 0, "need at least one port");
        let k = k.clamp(1, n);
        Self::index((0..n).map(|p| (p * k / n) as u32).collect(), k)
    }

    /// Builds a map from an explicit `port → shard` table. Shard ids
    /// must be dense (`0..k` with every id used), so each lies below the
    /// port count.
    pub fn from_assignment(assign: Vec<usize>) -> Result<Self, String> {
        if assign.is_empty() {
            return Err("shard assignment is empty".into());
        }
        let ports = assign.len();
        if let Some(&s) = assign.iter().find(|&&s| s >= ports) {
            return Err(format!(
                "shard id {s} out of range: {ports} ports allow dense ids below {ports}"
            ));
        }
        let k = assign.iter().max().copied().unwrap_or(0) + 1;
        let mut used = vec![false; k];
        for &s in &assign {
            used[s] = true;
        }
        if let Some(hole) = used.iter().position(|u| !u) {
            return Err(format!("shard ids not dense: {hole} unused below {k}"));
        }
        Ok(Self::index(
            assign.into_iter().map(|s| s as u32).collect(),
            k,
        ))
    }

    /// Indexes a validated assignment with a counting sort by shard.
    /// Ports are visited in ascending order, so a port's local index is
    /// the count of its shard's ports before it, and each shard's list
    /// comes out sorted.
    fn index(assign: Vec<u32>, k: usize) -> Self {
        let mut local = vec![0u32; assign.len()];
        let mut starts = vec![0u32; k + 1];
        for (p, &s) in assign.iter().enumerate() {
            local[p] = starts[s as usize + 1];
            starts[s as usize + 1] += 1;
        }
        for s in 0..k {
            starts[s + 1] += starts[s];
        }
        let mut ports = vec![0u32; assign.len()];
        for (p, &s) in assign.iter().enumerate() {
            ports[(starts[s as usize] + local[p]) as usize] = p as u32;
        }
        ShardMap {
            assign,
            local,
            ports,
            starts,
        }
    }

    /// Number of shards.
    pub fn k(&self) -> usize {
        self.starts.len() - 1
    }

    /// Number of ports the map covers.
    pub fn ports(&self) -> usize {
        self.assign.len()
    }

    /// The shard owning `port`.
    pub fn shard_of(&self, port: usize) -> usize {
        self.assign[port] as usize
    }

    /// `port`'s index among its shard's ports.
    pub fn local_of(&self, port: usize) -> usize {
        self.local[port] as usize
    }

    /// The (sorted, ascending) global ports shard `s` owns.
    pub fn ports_of(&self, s: usize) -> &[u32] {
        &self.ports[self.starts[s] as usize..self.starts[s + 1] as usize]
    }
}

/// How shard windows execute between barriers. A single shard always
/// runs inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardExec {
    /// Worker threads (at most one per CPU) when the machine has more
    /// than one CPU; inline otherwise.
    #[default]
    Auto,
    /// Always sequential, in shard order, on the calling thread.
    Inline,
    /// Always scoped worker threads (even on one CPU — results are
    /// identical, this just exercises the concurrent path).
    Threads,
}

/// Shard-local events: the ones whose handlers touch only one port
/// group's state, shipping any effect on shared state to the barrier.
/// `li` is a host's index within its shard.
#[derive(Debug)]
enum SEv {
    /// A pre-generated flow arrives at its (shard-owned) source host.
    Inject { flow: FlowSpec },
    /// Host NIC pump: serialize the next staged packet toward the switch
    /// (and the train behind it, see `Shard::pump`).
    Pump { li: usize },
    /// An EPS-bound packet's last bit arrives at the switch ingress
    /// (gated packets land in their VOQ without an event).
    SwitchIn { pkt: Packet },
    /// (Slow mode) A grant for `(src, dst)` reaches host `src`: transmit
    /// into the window as the host's skewed clock sees it.
    HostGrant {
        src: usize,
        dst: usize,
        slot_start: SimTime,
        slot_end: SimTime,
    },
    /// (Slow mode) A host-released bulk packet arrives at the switch
    /// expecting a live circuit.
    OcsIn { pkt: Packet },
}

// A shard-queue entry is `(time, seq)` plus the stamped payload: at most
// 48 B of stamp and event keeps it within one 64 B cache line.
const _: () = assert!(std::mem::size_of::<(SimTime, SEv)>() <= 48);

/// A side effect on shared state, deferred to the next barrier.
#[derive(Debug)]
enum ShipKind {
    /// Non-gated packet reached the switch ingress: EPS admission.
    Eps(Packet),
    /// Slow-mode bulk packet arrived expecting a live circuit.
    OcsArrival(Packet),
    /// `packets` packets dropped for `cause`.
    Drop {
        cause: DropCause,
        packets: u64,
    },
    BufEnqueue {
        site: Site,
        bytes: u64,
    },
    BufRelease {
        site: Site,
        bytes: u64,
        release: SimTime,
    },
}

/// A shipped effect; its position in the shard's log is its `seq`.
#[derive(Debug)]
struct Ship {
    t: SimTime,
    kind: ShipKind,
}

/// The bound of one shard window: the next coordinator event's `(time,
/// stamp)` (`None` once no coordinator event is left) and the horizon.
#[derive(Debug, Clone, Copy)]
struct Window {
    limit: Option<(SimTime, SimTime)>,
    horizon: SimTime,
}

impl Window {
    /// Whether an event at `t` stamped `stamp` runs in this window: at or
    /// before the horizon, and before the coordinator event — at its very
    /// instant only when scheduled before it was.
    fn admits(&self, t: SimTime, stamp: SimTime) -> bool {
        t <= self.horizon
            && self
                .limit
                .is_none_or(|(lt, ls)| t < lt || (t == lt && stamp < ls))
    }

    /// The last instant at which an event runs in this window whatever
    /// its stamp.
    fn surely_by(&self) -> Option<SimTime> {
        match self.limit {
            Some((lt, _)) => lt
                .as_nanos()
                .checked_sub(1)
                .map(|t| SimTime::from_nanos(t).min(self.horizon)),
            None => Some(self.horizon),
        }
    }
}

/// A gated packet on its host's wire: sent at `sent`, reaching the switch
/// at `at`, after the window that sent it ended. It lands in its VOQ at the
/// start of the window that covers `at`.
#[derive(Debug, Clone, Copy)]
struct Wire {
    at: SimTime,
    sent: SimTime,
    /// The packet, as a run of one.
    run: Staged,
}

/// One port group: its hosts, host pool, VOQ bank and event queue.
struct Shard<'m> {
    id: usize,
    /// The run's one port index, shared by every shard: a host's index
    /// in `hosts` is its port's [`ShardMap::local_of`].
    map: &'m ShardMap,
    hosts: Vec<Host>,
    /// Backs this shard's staging queues: one entry per staged flow or
    /// app send.
    pool: Pool<Staged>,
    /// The VOQ bank of this shard's source ports — the switch's VOQs
    /// under hardware placement, the hosts' under software placement:
    /// records for the pairs their traffic reached.
    proc: ProcessingLogic,
    /// Reused buffer for the packets a host grant cuts.
    granted: Vec<Packet>,
    /// Every event is stamped with its *scheduling* time — the `now` of
    /// the handler (or coordinator) that scheduled it — and the queue
    /// pops same-instant events in stamp order: the insertion order of
    /// one global queue.
    queue: EventQueue<SEv>,
    host_tx: TxTimeCache,
    // Immutable per-run configuration copies (kept off `SimState` so a
    // window borrows nothing shared).
    is_hw: bool,
    gate_interactive: bool,
    mtu: u32,
    prop: SimDuration,
    /// The coordinator's observation flag: gates buffer-tracker ships.
    observed: bool,
    /// The running window's bound.
    window: Window,
    /// Gated packets still in flight to the switch when the window that
    /// sent them ended, in departure order.
    wire: Vec<Wire>,
    // Accounting.
    /// Events popped from the queue.
    pops: u64,
    /// Events handled without a queue event: the departures a train takes
    /// and every gated packet's switch arrival.
    trained: u64,
    /// The latest instant of any event handled.
    clock: SimTime,
    ship: Vec<Ship>,
}

impl Shard<'_> {
    fn gated(&self, class: TrafficClass) -> bool {
        class == TrafficClass::Bulk || (self.gate_interactive && class == TrafficClass::Interactive)
    }

    fn ship(&mut self, t: SimTime, kind: ShipKind) {
        self.ship.push(Ship { t, kind });
    }

    /// The shard-local index of global port `port`.
    fn local_of(&self, port: usize) -> usize {
        debug_assert_eq!(
            self.map.shard_of(port),
            self.id,
            "port {port} not owned by shard {}",
            self.id
        );
        self.map.local_of(port)
    }

    /// `at_least` is the caller's current time — it doubles as the new
    /// event's scheduling stamp.
    fn ensure_pump(&mut self, at_least: SimTime, li: usize) {
        let h = &mut self.hosts[li];
        if !h.pump_active {
            h.pump_active = true;
            let at = at_least.max(h.nic_busy_until);
            self.queue.schedule_stamped(at, at_least, SEv::Pump { li });
        }
    }

    /// Whether the window may have work here: a queued event that may
    /// fall inside it, or a packet on a wire. Events at exactly `T_next`
    /// are a *maybe* — only their scheduling stamps (inspected by
    /// `run_window`) decide — so this errs on "busy".
    fn has_work(&self, w: Window) -> bool {
        !self.wire.is_empty()
            || self
                .queue
                .peek_time()
                .is_some_and(|t| t <= w.horizon && w.limit.is_none_or(|(lt, _)| t <= lt))
    }

    /// Lands the wire's packets that reach the switch inside the window,
    /// then drains shard-local events with `t < T_next` — plus events at
    /// exactly `T_next` scheduled before the coordinator event was —
    /// capped by the horizon. The queue pops same-instant events in stamp
    /// order, so the first event at `T_next` stamped at or after the
    /// coordinator event ends the window, and everything behind it waits.
    /// NIC pumps run trains inside it (see [`pump`](Self::pump)).
    fn run_window(&mut self, w: Window) {
        self.window = w;
        self.land_wire();
        while let Some((t, stamp)) = self.queue.peek_key() {
            if !w.admits(t, stamp) {
                return;
            }
            let (_, ev) = self.queue.pop().expect("peeked");
            self.pops += 1;
            self.clock = self.clock.max(t);
            self.handle(t, ev);
        }
    }

    /// Lands every packet on the wire that reaches the switch inside the
    /// window. The wire is in departure order and a host's arrivals keep
    /// that order, so each host's packets land in order, and before any
    /// packet the host sends in this window.
    fn land_wire(&mut self) {
        if self.wire.is_empty() {
            return;
        }
        let mut wire = std::mem::take(&mut self.wire);
        wire.retain(|w| {
            let due = self.window.admits(w.at, w.sent);
            if due {
                self.land(w.run, w.at, SimDuration::ZERO);
            }
            !due
        });
        self.wire = wire;
    }

    /// Lands `run` — gated packets of one size, reaching the switch `tx`
    /// apart from `first_at` — in its source's VOQ, as one `SwitchIn`
    /// event each would: the packets that fit are admitted, the rest are
    /// `VoqFull` drops. Nothing reads a VOQ inside a window, and a pair's
    /// VOQ takes only its source's packets, in order, so landing them
    /// ahead of their arrival leaves the bank as the barrier would have
    /// found it; the shipped effects carry their arrival times.
    fn land(&mut self, run: Staged, first_at: SimTime, tx: SimDuration) {
        let k = run.same_size_len();
        let bytes = run.front_bytes() as u64;
        let fit = self.proc.enqueue_run(run);
        self.trained += k;
        self.clock = self.clock.max(first_at + tx * (k - 1));
        if self.observed {
            for i in 0..fit {
                let site = Site::Switch;
                self.ship(first_at + tx * i, ShipKind::BufEnqueue { site, bytes });
            }
        }
        if fit < k {
            let (cause, packets) = (DropCause::VoqFull, k - fit);
            self.ship(first_at + tx * fit, ShipKind::Drop { cause, packets });
        }
    }

    /// How many packets of `same` that leave back to back, `tx` apart
    /// from `now`, one train step may take: each departure after the
    /// first before the queue head's time, and each switch arrival before
    /// the window's last sure instant. Edges, where stamps decide, are
    /// left to steps of one.
    fn train_len(&self, now: SimTime, tx: SimDuration, same: u64) -> u64 {
        let tx = tx.as_nanos();
        if same == 1 || tx == 0 {
            return 1;
        }
        // The last arrival, now + k·tx + prop, comes by the window's end.
        let Some(room) = self
            .window
            .surely_by()
            .and_then(|end| end.checked_since(now + self.prop))
        else {
            return 1;
        };
        let mut k = same.min(room.as_nanos() / tx);
        // The last departure, now + (k − 1)·tx, comes before the head.
        if let Some((head, _)) = self.queue.peek_key() {
            let gap = head.saturating_since(now).as_nanos();
            k = k.min(gap.saturating_sub(1) / tx + 1);
        }
        k.max(1)
    }

    /// Host `li`'s NIC at `now`: sends the next staged packet, then runs a
    /// *train* — it takes the host's next departure in the same call
    /// whenever that departure is the next event this shard would pop
    /// (inside the window, and ahead of the queue head's `(time, stamp)`),
    /// so the order of events handled is the pop order exactly. A step
    /// moves `k` same-size gated packets at once (`k` = 1 at the edges).
    /// Gated packets never become events: they land in their VOQ when they
    /// reach the switch inside the window, or wait on the wire until the
    /// window that covers their arrival. Everything the train schedules is
    /// stamped with the train's own clock, which the queue's lags.
    fn pump(&mut self, mut now: SimTime, li: usize) {
        loop {
            let h = &mut self.hosts[li];
            if now < h.nic_busy_until {
                // A grant burst claimed the NIC; come back when free.
                let at = h.nic_busy_until;
                self.queue.schedule_stamped(at, now, SEv::Pump { li });
                return;
            }
            let Some(front) = self.pool.front(h.next_queue()) else {
                self.hosts[li].pump_active = false;
                return;
            };
            let (bytes, gated, same) = (
                front.front_bytes() as u64,
                self.gated(front.class()),
                front.same_size_len(),
            );
            let tx = self.host_tx.tx_time(bytes);
            let k = if gated {
                debug_assert!(self.is_hw, "slow mode gates bulk at hosts");
                self.train_len(now, tx, same)
            } else {
                1
            };
            let h = &mut self.hosts[li];
            let run = self
                .pool
                .cut_front_n(h.next_queue(), k)
                .expect("front exists");
            // The departures at now, now + tx, …, last; the NIC frees at
            // `sent`, where the next departure is due, stamped by `last`.
            let last = now + tx * (k - 1);
            let sent = last + tx;
            h.nic_busy_until = sent;
            self.trained += k - 1;
            let first_at = now + tx + self.prop;
            if !gated {
                let pkt = run.front_packet();
                self.queue
                    .schedule_stamped(first_at, now, SEv::SwitchIn { pkt });
            } else if k > 1 || self.window.admits(first_at, now) {
                self.land(run, first_at, tx);
            } else {
                self.wire.push(Wire {
                    at: first_at,
                    sent: now,
                    run,
                });
            }
            let next_pops = self.window.admits(sent, last)
                && self.queue.peek_key().is_none_or(|head| (sent, last) < head);
            if !next_pops {
                self.queue.schedule_stamped(sent, last, SEv::Pump { li });
                return;
            }
            self.trained += 1;
            self.clock = self.clock.max(sent);
            now = sent;
        }
    }

    fn handle(&mut self, now: SimTime, ev: SEv) {
        match ev {
            // Flow-start notification and offered-byte accounting
            // already happened coordinator-side at pre-generation.
            SEv::Inject { flow: f } => {
                let li = self.local_of(f.src.index());
                // The whole flow is one staged entry; the NIC (or a
                // slow-mode grant) cuts its packets as they leave. A flow
                // of no bytes has no packets, so it stages nothing.
                if f.bytes > 0 {
                    let entry = Staged::new(f.id, f.src, f.dst, f.bytes, f.class, now, self.mtu);
                    if self.gated(f.class) && !self.is_hw {
                        // Slow scheduling: bulk waits in host memory for
                        // a grant, as one run in the shard's VOQ bank.
                        self.proc.push_run(entry);
                        if self.observed {
                            // One enqueue of the whole flow: the
                            // tracker's peak after k same-instant
                            // enqueues is that of their sum.
                            self.ship(
                                now,
                                ShipKind::BufEnqueue {
                                    site: Site::Host,
                                    bytes: f.bytes,
                                },
                            );
                        }
                    } else {
                        self.pool.push(self.hosts[li].staging(f.class), entry);
                    }
                }
                self.ensure_pump(now, li);
            }

            SEv::Pump { li } => self.pump(now, li),

            SEv::SwitchIn { pkt } => {
                // Gated packets land from the NIC or the wire; only EPS
                // traffic arrives as an event. EPS admission reads shared
                // switch state: defer.
                debug_assert!(!self.gated(pkt.class), "gated packets land untimed");
                self.ship(now, ShipKind::Eps(pkt));
            }

            SEv::HostGrant {
                src,
                dst,
                slot_start,
                slot_end,
            } => {
                // The host obeys its own clock: a skewed host mistimes the
                // window (§2's synchronization argument). Its NIC sends
                // each packet that it can serialize before the window
                // closes, back to back.
                let li = self.local_of(src);
                let h = &self.hosts[li];
                let end_seen = h.actual_time(slot_end);
                let start = now.max(h.actual_time(slot_start)).max(h.nic_busy_until);
                let mut cursor = start;
                let fits = |bytes| {
                    let dep = cursor + self.host_tx.tx_time(bytes);
                    let fits = dep <= end_seen;
                    if fits {
                        cursor = dep;
                    }
                    fits
                };
                let mut granted = std::mem::take(&mut self.granted);
                self.proc.grant_into(src, dst, fits, &mut granted);
                // The same departures again, for the packets cut.
                let mut dep = start;
                for pkt in granted.drain(..) {
                    let bytes = pkt.bytes as u64;
                    dep += self.host_tx.tx_time(bytes);
                    if self.observed {
                        self.ship(
                            now,
                            ShipKind::BufRelease {
                                site: Site::Host,
                                bytes,
                                release: dep,
                            },
                        );
                    }
                    self.queue
                        .schedule_stamped(dep + self.prop, now, SEv::OcsIn { pkt });
                }
                self.granted = granted;
                let h = &mut self.hosts[li];
                h.nic_busy_until = h.nic_busy_until.max(dep);
            }

            SEv::OcsIn { pkt } => {
                // Circuit validation reads shared OCS state: defer.
                self.ship(now, ShipKind::OcsArrival(pkt));
            }
        }
    }
}

/// Runs the simulation to `horizon` (the body of [`HybridSim::run`]).
pub(super) fn run_sharded(sim: HybridSim, horizon: SimTime) -> RunReport {
    let HybridSim {
        mut state,
        hosts,
        shard_map: map,
        shard_exec,
    } = sim;
    state.horizon = horizon;
    let n = state.cfg.n_ports;
    assert_eq!(map.ports(), n, "shard map port-space mismatch");
    // Worker cap for threaded windows, read once per run (std re-reads
    // the cgroup quota on every call). `None` runs windows inline.
    let cpus = || std::thread::available_parallelism().map_or(1, |p| p.get());
    let workers = match shard_exec {
        _ if map.k() == 1 => None,
        ShardExec::Inline => None,
        ShardExec::Threads => Some(cpus()),
        ShardExec::Auto => Some(cpus()).filter(|&c| c > 1),
    };

    // Partition the built hosts (clock offsets were drawn in global port
    // order at build) into shards.
    let mut host_slots: Vec<Option<Host>> = hosts.into_iter().map(Some).collect();
    let map = &map;
    let mut shards: Vec<Shard> = (0..map.k())
        .map(|s| {
            let hosts = map
                .ports_of(s)
                .iter()
                .map(|&p| host_slots[p as usize].take().expect("port owned once"))
                .collect();
            Shard {
                id: s,
                map,
                hosts,
                pool: Pool::new(),
                proc: ProcessingLogic::new(n, state.cfg.voq_capacity),
                granted: Vec::new(),
                queue: EventQueue::new(),
                host_tx: state.cfg.host_link.rate.tx_cache(),
                is_hw: state.is_hw,
                gate_interactive: state.cfg.voip_on_ocs,
                mtu: state.cfg.mtu,
                prop: state.cfg.host_link.propagation,
                observed: state.observed,
                window: Window {
                    limit: None,
                    horizon,
                },
                wire: Vec::new(),
                pops: 0,
                trained: 0,
                clock: SimTime::ZERO,
                ship: Vec::new(),
            }
        })
        .collect();

    // Seed the coordinator queue. Flows are not events here: they are
    // pre-generated at barriers (the generator's draw order is one draw
    // ahead, next draw on injection). Coordinator events are stamped with
    // the coordinator clock: `ZERO` for the seeds, then the handler's
    // `now`.
    let mut cq: EventQueue<Ev> = EventQueue::new();
    if let Some(g) = &mut state.flowgen {
        let f = g.next_flow();
        if f.start <= state.flow_stop {
            state.pending_flow = Some(f);
        }
    }
    for (i, a) in state.apps.iter().enumerate() {
        cq.schedule_at(a.start, Ev::AppSend { app: i });
    }
    if let Some(cycle) = &state.matrix_cycle {
        cq.schedule_at(SimTime::ZERO + cycle.period, Ev::RotateMatrix { idx: 1 });
    }
    cq.schedule_at(SimTime::ZERO, Ev::EpochStart);
    // The fault chain, when a plan is armed. Fault events are
    // coordinator events, so every draw happens at a barrier in the same
    // order regardless of the shard map.
    if let Some(fs) = &mut state.faults {
        if let Some(at) = fs.first_fault_at() {
            cq.schedule_at(at, Ev::LinkFault);
        }
    }

    let mut coord_pops: u64 = 0;
    let mut end_time = SimTime::ZERO;
    // Stamp of the pending flow's draw: `None` for the seed draw, which
    // predates every seeded event; afterwards each draw happens as its
    // predecessor injects.
    let mut pending_sched: Option<SimTime> = None;
    let mut replay_buf: Vec<(SimTime, u32, u64, ShipKind)> = Vec::new();
    loop {
        // The next coordinator event bounds the windows. Windows never
        // schedule onto the coordinator queue, so it is still next after
        // them.
        let limit = cq.peek_key().filter(|&(t, _)| t <= horizon);
        pregen_flows(&mut state, &mut shards, map, limit, &mut pending_sched);
        run_windows(&mut shards, Window { limit, horizon }, workers);
        replay_ships(&mut state, &mut shards, &mut replay_buf);
        let Some((now, _)) = limit else { break };
        let (_, ev) = cq.pop().expect("peeked coordinator event");
        coord_pops += 1;
        end_time = end_time.max(now);
        handle_coord(&mut state, &mut shards, map, &mut cq, now, ev);
    }
    for s in &shards {
        end_time = end_time.max(s.clock);
    }

    // Fold the coordinator queue's structural ledger, then merge each
    // shard's ledger set with kind-aware semantics: tallies sum, peaks
    // max.
    let mut st = state;
    st.counters.queue_spreads = cq.spread_count();
    st.counters.queue_spills = cq.spill_count();
    st.counters.queue_direct_sorts = cq.direct_sort_count();
    st.counters.queue_pops = coord_pops;
    // The model's events: every event popped, plus the ones trains
    // handled without a queue event.
    let mut events = coord_pops;
    for s in &shards {
        events += s.pops + s.trained;
        let (a, f, pk, g) = s.proc.pool_ledger();
        let c = CounterSet {
            queue_spreads: s.queue.spread_count(),
            queue_spills: s.queue.spill_count(),
            queue_direct_sorts: s.queue.direct_sort_count(),
            queue_pops: s.pops,
            pool_allocs: s.pool.alloc_count() + a,
            pool_frees: s.pool.free_count() + f,
            // Per shard: host-pool peak (staged flows) + VOQ-bank peak
            // (runs of a flow's consecutive packets: switch-built runs,
            // or whole flows hosts hold for grants). The pools never
            // trade entries, so the sum is a deterministic combined
            // ceiling. Across shards the merge takes the max — the
            // documented peak semantic.
            pool_live_peak: s.pool.live_peak() + pk,
            pool_chunk_growths: s.pool.chunk_growth_count() + g,
            // A pair's record lives in its source's shard alone, so the
            // sum over shards is the same for every map.
            voq_pairs: s.proc.pair_count() as u64,
            ..Default::default()
        };
        st.counters.merge(&c);
        // End-of-run conservation audits, on in release builds too: a
        // pool leak is a runtime bug no report may paper over.
        if let Err(e) = s.pool.check_conserved() {
            panic!("end-of-run shard {} host pool audit failed: {e}", s.id);
        }
        if let Err(e) = s.proc.check_pool_conserved() {
            panic!("end-of-run shard {} switch pool audit failed: {e}", s.id);
        }
    }
    st.into_report(events, end_time, horizon)
}

/// Injects every pending flow due before `limit = (T_next, sched_coord)`
/// (or up to the horizon when no coordinator event remains) into its
/// source shard, drawing follow-ups in order: one draw ahead, the next
/// draw as its predecessor injects. A flow starting at exactly `T_next`
/// is due iff its draw (`pending_sched`, the previous flow's start —
/// `None` for the pre-loop seed draw) predates the coordinator event's
/// stamp: the flow's injection is stamped with its draw time, like any
/// event scheduled by a handler running then.
fn pregen_flows(
    st: &mut SimState,
    shards: &mut [Shard<'_>],
    map: &ShardMap,
    limit: Option<(SimTime, SimTime)>,
    pending_sched: &mut Option<SimTime>,
) {
    loop {
        let Some(f) = st.pending_flow.take() else {
            return;
        };
        let due = match limit {
            Some((lt, ls)) => {
                f.start < lt || (f.start == lt && pending_sched.is_none_or(|s| s < ls))
            }
            None => f.start <= st.horizon,
        };
        if !due {
            st.pending_flow = Some(f);
            return;
        }
        st.offered_bytes += f.bytes;
        st.offered_flows += 1;
        st.instr.flow_started(f.id, f.bytes, f.start);
        let s = map.shard_of(f.src.index());
        let start = f.start;
        let sched = pending_sched.unwrap_or(SimTime::ZERO);
        shards[s]
            .queue
            .schedule_stamped(start, sched, SEv::Inject { flow: f });
        *pending_sched = Some(start);
        if let Some(g) = &mut st.flowgen {
            let next = g.next_flow();
            if next.start <= st.flow_stop && next.start <= st.horizon {
                st.pending_flow = Some(next);
            }
        }
    }
}

/// Runs every busy shard's window — on worker threads when `workers` is
/// set and at least two shards have due work, inline otherwise. Shards
/// share nothing within a window, so the two modes produce identical
/// results. The threaded path caps workers at `workers` (the machine's
/// parallelism, read once per run) and hands each a contiguous slice of
/// busy shards: K is free to exceed the core count (big K pays for
/// itself in cache locality even inline — see the module docs) without
/// spawning K threads per barrier.
fn run_windows(shards: &mut [Shard<'_>], w: Window, workers: Option<usize>) {
    let Some(workers) = workers else {
        for sh in shards.iter_mut() {
            sh.run_window(w);
        }
        return;
    };
    let mut busy: Vec<&mut Shard<'_>> = shards.iter_mut().filter(|s| s.has_work(w)).collect();
    match busy.len() {
        0 => {}
        1 => busy[0].run_window(w),
        n => {
            let per = n.div_ceil(workers.min(n));
            std::thread::scope(|scope| {
                for chunk in busy.chunks_mut(per) {
                    scope.spawn(move || {
                        for sh in chunk {
                            sh.run_window(w);
                        }
                    });
                }
            });
        }
    }
}

/// Applies every shipped effect in canonical `(time, shard, seq)`
/// order — the cross-shard merge rule that pins determinism. A shard logs
/// its events' effects in time order, but a gated packet's landing ships
/// at its arrival time ahead of events that come before it. When only one
/// shard shipped — always, at K = 1 — and its log is in time order, it
/// replays in place; otherwise the logs merge through `buf`.
fn replay_ships(
    st: &mut SimState,
    shards: &mut [Shard<'_>],
    buf: &mut Vec<(SimTime, u32, u64, ShipKind)>,
) {
    let mut shipping = shards.iter_mut().filter(|s| !s.ship.is_empty());
    let Some(first) = shipping.next() else {
        return;
    };
    let second = shipping.next();
    if second.is_none() && first.ship.is_sorted_by_key(|sh| sh.t) {
        let mut log = std::mem::take(&mut first.ship);
        for sh in log.drain(..) {
            apply_ship(st, sh.t, sh.kind);
        }
        first.ship = log;
        return;
    }
    buf.clear();
    for s in std::iter::once(first).chain(second).chain(shipping) {
        let sid = s.id as u32;
        buf.extend(
            s.ship
                .drain(..)
                .zip(0u64..)
                .map(|(sh, seq)| (sh.t, sid, seq, sh.kind)),
        );
    }
    buf.sort_unstable_by_key(|&(t, sid, seq, _)| (t, sid, seq));
    for (t, _, _, kind) in buf.drain(..) {
        apply_ship(st, t, kind);
    }
}

/// Applies one shipped effect at its shard-side time `t`.
fn apply_ship(st: &mut SimState, t: SimTime, kind: ShipKind) {
    match kind {
        ShipKind::Eps(pkt) => {
            let out = pkt.dst.index();
            match st.switching.eps.enqueue(out, pkt.bytes as u64, t) {
                Ok(dep) => {
                    st.delivered_eps += pkt.bytes as u64;
                    st.record_delivery(&pkt, dep + st.cfg.host_link.propagation);
                    st.flush_deliveries();
                }
                Err(()) => st.counters.drop_eps_full += 1,
            }
        }
        ShipKind::OcsArrival(pkt) => {
            let (i, j, bytes) = (pkt.src.index(), pkt.dst.index(), pkt.bytes as u64);
            if st.faults.as_ref().is_some_and(|fs| fs.pair_failed(i, j)) {
                // The link died while the packet was in flight: the
                // light went into a dark fiber. Fault flags only change
                // at coordinator events, so the state seen here is the
                // state at `t`.
                st.counters.drop_link_dark += 1;
                return;
            }
            match st.switching.ocs.transmit(i, j, bytes, t) {
                Ok(()) => {
                    st.delivered_ocs += bytes;
                    st.record_delivery(&pkt, t + st.cfg.host_link.propagation);
                    st.flush_deliveries();
                }
                // Dark window or re-assigned circuit: the light went
                // nowhere useful.
                Err(_) => st.counters.drop_sync_violation += 1,
            }
        }
        ShipKind::Drop { cause, packets } => {
            let c = &mut st.counters;
            match cause {
                DropCause::VoqFull => c.drop_voq_full += packets,
                DropCause::EpsFull => c.drop_eps_full += packets,
                DropCause::SyncViolation => c.drop_sync_violation += packets,
                DropCause::LinkDark => c.drop_link_dark += packets,
            }
        }
        ShipKind::BufEnqueue { site, bytes } => st.buffers.on_enqueue(site, bytes, t),
        ShipKind::BufRelease {
            site,
            bytes,
            release,
        } => st.buffers.on_dequeue_at(site, bytes, release),
    }
}

/// Handles one coordinator event at a barrier, over coordinator state
/// and shard-held state alike (the coordinator owns every shard between
/// windows).
fn handle_coord(
    st: &mut SimState,
    shards: &mut [Shard<'_>],
    map: &ShardMap,
    q: &mut EventQueue<Ev>,
    now: SimTime,
    ev: Ev,
) {
    match ev {
        Ev::AppSend { app } => {
            let a = st.apps[app].clone();
            // One packet, never split: its own size is the segment.
            let entry = Staged::new(
                APP_FLOW_BASE + app as u64,
                a.src,
                a.dst,
                a.pkt_bytes as u64,
                TrafficClass::Interactive,
                now,
                a.pkt_bytes,
            );
            st.offered_bytes += a.pkt_bytes as u64;
            let host = a.src.index();
            let sh = &mut shards[map.shard_of(host)];
            if st.gated(TrafficClass::Interactive) && !st.is_hw {
                // voip_on_ocs ablation under slow scheduling: the call
                // waits in host memory for a grant like any elephant.
                sh.proc.push_run(entry);
                if st.observed {
                    st.buffers.on_enqueue(Site::Host, a.pkt_bytes as u64, now);
                }
            } else {
                let li = sh.local_of(host);
                sh.pool.push(&mut sh.hosts[li].q_inter, entry);
                sh.ensure_pump(now, li);
            }
            let next = a.next_send(now, &mut st.rng);
            if next <= st.horizon {
                q.schedule_at(next, Ev::AppSend { app });
            }
        }

        Ev::EpochStart => {
            // xlint: allow(wall-clock) — epoch phase-timing split (RunReport::phases): host-time observability, excluded from golden serialization
            let phase_t0 = std::time::Instant::now();
            // Figure 2: requests → demand estimation → algorithm. One
            // walk over the shards collects every shard's requests and
            // its queued bytes (the ground-truth backlog, O(1) a bank),
            // and audits its host pool: every chunk is on the free list
            // or reachable from exactly one staging queue (the bank's
            // pool asserts the same inside `take_requests_into`). The
            // audit is free in release builds. Requests merge into
            // global (src, dst) order — identical to a full-fabric
            // row-major scan — and land in a reused scratch buffer: this
            // loop runs every epoch and must not make n²-sized
            // allocations.
            let mut reqs = std::mem::take(&mut st.reqs_scratch);
            reqs.clear();
            let mut truth_total = 0;
            for s in shards.iter_mut() {
                s.pool.debug_assert_conserved();
                s.proc.take_requests_into(now, &mut reqs);
                truth_total += s.proc.total_bytes();
            }
            // Each shard emits its own rows in order; only rows from
            // several shards need merging.
            if shards.len() > 1 {
                reqs.sort_unstable_by_key(|r| (r.src, r.dst));
            }
            for r in &reqs {
                st.estimator.on_request(r);
            }
            st.reqs_scratch = reqs;
            // Estimators that keep the estimate materialized (the mirror)
            // lend it out via `estimate_ref`; only the ones that must
            // compute one fill the scratch matrix. The lent reference is
            // stable within the epoch, so it is re-borrowed wherever the
            // estimate is read.
            let have_ref = st.estimator.estimate_ref(now, st.cfg.epoch).is_some();
            if !have_ref {
                st.estimator
                    .estimate_into(now, st.cfg.epoch, &mut st.demand_scratch);
            }
            // Demand-error sampling. The mirror's error is identically
            // zero by construction (every occupancy change produced a
            // request), and the non-mirror ground-truth snapshot + L1
            // pass (two n² walks) runs only when the run is observed —
            // never under lean.
            let mut demand_err_rel: Option<f64> = None;
            if st.estimator_is_mirror {
                if truth_total > 0 {
                    demand_err_rel = Some(0.0);
                }
            } else if st.observed {
                // Records are never removed, so the cells the banks write
                // cover every pair that ever held bytes; the rest of the
                // scratch matrix is still zero.
                for s in shards.iter() {
                    s.proc.occupancy_into(&mut st.truth_scratch);
                }
                let estimate = match st.estimator.estimate_ref(now, st.cfg.epoch) {
                    Some(m) => m,
                    None => &st.demand_scratch,
                };
                let (err_l1, tt) = estimate.error_vs(&st.truth_scratch);
                debug_assert_eq!(tt, truth_total, "snapshot disagrees with running total");
                if truth_total > 0 {
                    demand_err_rel = Some(err_l1 as f64 / truth_total as f64);
                }
            }
            let ctx = ScheduleCtx {
                now,
                line_rate: st.cfg.line_rate,
                reconfig: st.cfg.reconfig,
                epoch: st.cfg.epoch,
                max_entries: st.cfg.max_entries,
            };
            let demand = match st.estimator.estimate_ref(now, st.cfg.epoch) {
                Some(m) => m,
                None => &st.demand_scratch,
            };
            // Graceful degradation: while ports are dark to injected
            // faults, the scheduler sees their rows/columns zeroed — it
            // never plans circuits through a dead link.
            let demand = match &mut st.faults {
                Some(fs) if fs.n_failed > 0 => fs.mask_demand(demand),
                _ => demand,
            };
            // xlint: allow(wall-clock) — phase-timing block boundary (estimate → decompose), never serialized into goldens
            let phase_t1 = std::time::Instant::now();
            st.phases.estimate += phase_t1.duration_since(phase_t0).as_nanos() as u64;
            let sched = st.scheduler.schedule(demand, &ctx);
            // Doubles as the decompose span's end when the recorder is on.
            // xlint: allow(wall-clock) — phase-timing block boundary (decompose end), never serialized into goldens
            let phase_t2 = std::time::Instant::now();
            st.phases.decompose += phase_t2.duration_since(phase_t1).as_nanos() as u64;
            if let Some(obs) = st.scheduler.take_obs() {
                st.counters.sched_memo_hits += obs.memo_hits;
                st.counters.sched_hk_runs += obs.hk_runs;
                st.counters.sched_probes += obs.probes;
                st.counters.sched_worklist_peak =
                    st.counters.sched_worklist_peak.max(obs.worklist_len);
                st.counters.sched_bucket_peak = st.counters.sched_bucket_peak.max(obs.buckets_len);
                if let Some(tr) = &mut st.trace {
                    for s in &obs.spans {
                        tr.span_between("sched", s.name, s.start, s.end, &[s.arg]);
                    }
                }
            }
            if let Some(tr) = &mut st.trace {
                // The epoch span and its two phase children reuse the
                // phase-accounting instants read above — tracing adds no
                // clock reads here, on or off.
                tr.span_between(
                    "epoch",
                    "epoch",
                    phase_t0,
                    phase_t2,
                    &[("epoch", st.decisions)],
                );
                tr.span_between("epoch", "estimate", phase_t0, phase_t1, &[]);
                tr.span_between(
                    "epoch",
                    "decompose",
                    phase_t1,
                    phase_t2,
                    &[("entries", sched.entries.len() as u64)],
                );
            }
            debug_assert!(
                sched.validate(&ctx, st.cfg.n_ports).is_ok(),
                "{} produced an invalid schedule",
                st.scheduler.name()
            );
            let mut d = st
                .cfg
                .placement
                .decision_latency(st.cfg.n_ports, &mut st.rng);
            // Scheduler stall: the decision arrives k epochs late. The
            // previous schedule's slots cover one epoch, so the fabric
            // idles until this decision lands.
            if let Some(fs) = &mut st.faults {
                if let Some(extra) = fs.draw_stall(st.cfg.epoch) {
                    d += extra;
                    st.counters.fault_events_injected += 1;
                }
            }
            st.decisions += 1;
            st.decision_ns_sum += d.as_nanos() as u128;
            st.instr.epoch(&EpochSample {
                // One sample per decision: `decisions` was just
                // incremented, so the zero-based epoch id is one source
                // of truth, not a second counter.
                epoch: st.decisions - 1,
                at: now,
                demand_err_rel,
                backlog_bytes: truth_total,
                decision_ns: d.as_nanos(),
                ocs_dark_ns: st.switching.ocs.stats().dark_time.as_nanos(),
                entries: sched.entries.len(),
            });
            if !sched.entries.is_empty() {
                let sid = st.alloc_sched(sched);
                q.schedule_at(now + d, Ev::ApplySchedule { sid });
            }
            let next = now + st.cfg.epoch.max(d);
            if next <= st.horizon {
                q.schedule_at(next, Ev::EpochStart);
            }
        }

        Ev::ApplySchedule { sid } => {
            q.schedule_at(now, Ev::SlotConfigure { sid, idx: 0 });
        }

        Ev::SlotConfigure { sid, idx } => {
            // Reconfiguration misfire: the configure may apply late (the
            // dark window stretches) or not at all (the stale permutation
            // stays up for the whole slot).
            let slot_fault = match &mut st.faults {
                Some(fs) => fs.draw_misfire(),
                None => SlotFault::None,
            };
            if slot_fault != SlotFault::None {
                st.counters.fault_events_injected += 1;
            }
            if slot_fault == SlotFault::Stale {
                st.faults
                    .as_mut()
                    .expect("stale draw implies a plan")
                    .mark_stale(sid, idx);
            }
            let entry = &st.scheds[sid].as_ref().expect("schedule slot live").entries[idx];
            let active_at = match slot_fault {
                SlotFault::None => st.switching.configure(&entry.perm, now),
                SlotFault::Late(extra) => st.switching.configure(&entry.perm, now + extra),
                // No configure happened: the slot "activates" on the
                // nominal timeline, against the stale permutation.
                SlotFault::Stale => now + st.cfg.reconfig,
            };
            let slot_end = active_at + entry.slot;
            if !st.is_hw && slot_fault != SlotFault::Stale {
                // Grants travel the control channel to the hosts. The
                // advertised window is shrunk by the guard band on both
                // edges so a host whose clock is wrong by up to `guard`
                // still lands inside the live circuit.
                let g = st.cfg.guard;
                let gs = active_at + g;
                let ge = SimTime::from_nanos(slot_end.as_nanos().saturating_sub(g.as_nanos()));
                if ge > gs {
                    // Grants fan out to each source's owning shard.
                    for (i, j) in entry.perm.pairs() {
                        shards[map.shard_of(i)].queue.schedule_stamped(
                            now + st.ctrl_oneway,
                            now,
                            SEv::HostGrant {
                                src: i,
                                dst: j,
                                slot_start: gs,
                                slot_end: ge,
                            },
                        );
                    }
                }
            }
            q.schedule_at(active_at, Ev::SlotActive { sid, idx });
        }

        Ev::SlotActive { sid, idx } => {
            // Move the schedule out of the slab for the duration of the
            // grant burst (record_delivery needs `&mut st`), and retire
            // the slot after the last entry.
            let sched = st.scheds[sid].take().expect("schedule slot live");
            let entry = &sched.entries[idx];
            let slot_end = now + entry.slot;
            // A stale slot's configure never applied: every granted pair
            // fails over. A faulted pair fails over alone.
            let stale = match &mut st.faults {
                Some(fs) => fs.take_stale(sid, idx),
                None => false,
            };
            if st.is_hw {
                // xlint: allow(wall-clock) — apply phase-timing block start (RunReport::phases), excluded from golden serialization
                let phase_t0 = std::time::Instant::now();
                // Processing logic executes grants: budgeted dequeue,
                // packets serialized at line rate onto the circuit.
                let budget = st.cfg.line_rate.bytes_in(entry.slot);
                let mut granted = std::mem::take(&mut st.grant_scratch);
                for (i, j) in entry.perm.pairs() {
                    granted.clear();
                    shards[map.shard_of(i)].proc.grant_into(
                        i,
                        j,
                        byte_budget(budget),
                        &mut granted,
                    );
                    if granted.is_empty() {
                        continue;
                    }
                    // With faults armed, stall-delayed schedules can
                    // overlap: a later schedule's configure may have
                    // darkened or re-aimed the fabric mid-slot, so the
                    // fault path probes the circuit where the clean path
                    // may assert it.
                    let diverted = stale
                        || st.faults.as_ref().is_some_and(|fs| fs.pair_failed(i, j))
                        || (st.faults.is_some() && st.switching.ocs.output_for(i, now) != Some(j));
                    if diverted {
                        // Graceful degradation: the granted burst cannot
                        // ride the circuit (dark link or stale permutation)
                        // — divert it onto the EPS slow path packet by
                        // packet instead of losing it.
                        for pkt in granted.drain(..) {
                            let bytes = pkt.bytes as u64;
                            if st.observed {
                                // The bytes leave the VOQ now either way
                                // (EPS keeps its own ledger).
                                st.release_scratch.push((now.as_nanos(), bytes));
                            }
                            match st.switching.eps.enqueue(j, bytes, now) {
                                Ok(dep) => {
                                    st.counters.fault_failover_bytes += bytes;
                                    st.delivered_eps += bytes;
                                    let deliver = dep + st.cfg.host_link.propagation;
                                    st.record_delivery(&pkt, deliver);
                                }
                                Err(()) => st.counters.drop_eps_full += 1,
                            }
                        }
                        continue;
                    }
                    // xlint: allow(wall-clock) — flight-recorder grant-burst span start, gated on trace; wall-clock stays out of goldens
                    let burst_t0 = st.trace.is_some().then(std::time::Instant::now);
                    let npkts = granted.len() as u64;
                    st.counters.grant_bursts += 1;
                    st.counters.grant_pkts_max = st.counters.grant_pkts_max.max(npkts);
                    // One circuit validation per burst (identical
                    // accounting to per-packet transmits).
                    let total: u64 = granted.iter().map(|p| p.bytes as u64).sum();
                    st.switching
                        .ocs
                        .transmit_batch(i, j, total, npkts, now)
                        .expect("granted circuit must be live");
                    st.delivered_ocs += total;
                    let mut cursor = now;
                    for pkt in granted.drain(..) {
                        let bytes = pkt.bytes as u64;
                        let dep = cursor + st.line_tx.tx_time(bytes);
                        cursor = dep;
                        if st.observed {
                            st.release_scratch.push((dep.as_nanos(), bytes));
                        }
                        st.record_delivery(&pkt, dep + st.cfg.host_link.propagation);
                    }
                    if let (Some(t0), Some(tr)) = (burst_t0, &mut st.trace) {
                        tr.span_between(
                            "slot",
                            "grant_burst",
                            t0,
                            // xlint: allow(wall-clock) — flight-recorder span end, trace-gated
                            std::time::Instant::now(),
                            &[("pkts", npkts)],
                        );
                    }
                }
                // All pairs drained the same slot: flush their releases as
                // one timestamp-coalesced batch, and close the slot's
                // delivery group.
                if st.observed {
                    let mut releases = std::mem::take(&mut st.release_scratch);
                    st.buffers.on_dequeue_at_batch(Site::Switch, &mut releases);
                    st.release_scratch = releases;
                }
                st.flush_deliveries();
                st.grant_scratch = granted;
                // xlint: allow(wall-clock) — apply phase-timing block end (RunReport::phases), excluded from golden serialization
                let phase_t1 = std::time::Instant::now();
                st.phases.apply += phase_t1.duration_since(phase_t0).as_nanos() as u64;
                if let Some(tr) = &mut st.trace {
                    // Reuses the apply-phase instants: the slot span nests
                    // the grant-burst spans recorded above.
                    tr.span_between(
                        "epoch",
                        "apply",
                        phase_t0,
                        phase_t1,
                        &[("entry", idx as u64)],
                    );
                }
            }
            if idx + 1 < sched.entries.len() {
                st.scheds[sid] = Some(sched);
                q.schedule_at(slot_end, Ev::SlotConfigure { sid, idx: idx + 1 });
            } else {
                st.free_scheds.push(sid);
            }
        }

        Ev::RotateMatrix { idx } => {
            if let (Some(cycle), Some(g)) = (&st.matrix_cycle, &mut st.flowgen) {
                g.set_matrix(cycle.matrices[idx % cycle.matrices.len()].clone());
                let next = now + cycle.period;
                if next <= st.horizon {
                    q.schedule_at(next, Ev::RotateMatrix { idx: idx + 1 });
                }
            }
        }

        Ev::LinkFault => {
            let fs = st.faults.as_mut().expect("LinkFault implies a plan");
            let (port, repair_at, next) = fs.on_link_fault(now);
            if let Some(at) = repair_at {
                st.counters.fault_events_injected += 1;
                q.schedule_at(at, Ev::LinkRepair { port });
            }
            if let Some(at) = next {
                if at <= st.horizon {
                    q.schedule_at(at, Ev::LinkFault);
                }
            }
        }

        Ev::LinkRepair { port } => {
            st.faults
                .as_mut()
                .expect("LinkRepair implies a plan")
                .on_link_repair(port, now);
        }
    }
}
