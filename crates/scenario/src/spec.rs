//! The declarative experiment point: every knob of a testbed run as plain
//! data, so experiments can be enumerated, sharded and recorded instead of
//! hand-assembled per binary.

use xds_core::config::{NodeConfig, Placement};
use xds_core::demand::{
    CountMinEstimator, DemandEstimator, EwmaEstimator, MirrorEstimator, WindowEstimator,
};
use xds_core::fault::FaultPlan;
use xds_core::instrument::InstrProfile;
use xds_core::node::Workload;
use xds_core::report::RunReport;
use xds_core::runtime::SimBuilder;
use xds_core::sched::{
    BvnScheduler, EpsOnlyScheduler, GreedyLqfScheduler, HotspotScheduler, HungarianScheduler,
    IlqfScheduler, IslipScheduler, PimScheduler, RrmScheduler, Scheduler, SolsticeScheduler,
    TdmaScheduler, WavefrontScheduler,
};
use xds_estimate::EstimateProblem;
use xds_hw::{ClockDomain, HwAlgo, HwSchedulerModel, SwSchedulerModel, SyncModel};
use xds_net::PortNo;
use xds_sim::{SimDuration, SimRng, SimTime};
use xds_traffic::{mean_flow_gap, CbrApp, FlowGenerator, FlowSizeDist, TrafficMatrix};

/// The fidelity tier a point is evaluated at: the exact event-driven
/// simulator, or the decomposed fast estimator (`xds-estimate`). A
/// second axis of every sweep — same spec, same seed, same columns,
/// different cost/accuracy trade. `sweep validate-estimates` quantifies
/// the gap per metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// Full event-driven simulation (the default).
    #[default]
    Exact,
    /// Decomposed per-link queueing estimate: orders of magnitude
    /// cheaper, approximate.
    Estimate,
}

impl Fidelity {
    /// Column value for result rows ("exact" / "estimate").
    pub fn label(self) -> &'static str {
        match self {
            Fidelity::Exact => "exact",
            Fidelity::Estimate => "estimate",
        }
    }

    /// Short tag for grid point names ("exact" / "est").
    pub fn tag(self) -> &'static str {
        match self {
            Fidelity::Exact => "exact",
            Fidelity::Estimate => "est",
        }
    }

    /// Looks a tier up by name — the CLI entry point (`--fidelity`).
    /// Accepts both the column label and the grid tag.
    pub fn from_name(name: &str) -> Option<Fidelity> {
        match name {
            "exact" => Some(Fidelity::Exact),
            "estimate" | "est" => Some(Fidelity::Estimate),
            _ => None,
        }
    }
}

/// Who talks to whom: the declarative form of `xds_traffic::TrafficMatrix`
/// (plus the rotating patterns the matrix-cycle machinery drives).
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficPattern {
    /// All-to-all uniform load.
    Uniform,
    /// Cyclic-shift permutation `src → src + shift`.
    Permutation {
        /// Destination shift (taken mod `n`, floored at 1).
        shift: usize,
    },
    /// `pairs` hot pairs carrying `fraction` of the load over a uniform
    /// background.
    Hotspot {
        /// Number of hot pairs (clamped to `n`).
        pairs: usize,
        /// Fraction of total load on the hot pairs.
        fraction: f64,
        /// Rotation offset of the hot pairs.
        offset: usize,
    },
    /// `senders` sources converging on one destination.
    Incast {
        /// Sender count (clamped to `n - 1`).
        senders: usize,
        /// Target port (taken mod `n`).
        target: usize,
    },
    /// Zipf-skewed pair popularity.
    Zipf {
        /// Skew exponent (1.0 ≈ classic Zipf).
        exponent: f64,
    },
    /// The union of several disjoint cyclic permutations (`src → src+k`
    /// for each shift `k`): demand that needs exactly `shifts.len()` OCS
    /// configurations to cover — the decomposition-budget stress case.
    MultiRing {
        /// The shifts, each taken mod `n` and floored at 1.
        shifts: Vec<usize>,
    },
    /// The `n−1` stages of an all-to-all shuffle, rotated every `period`.
    ShuffleStages {
        /// Stage rotation period.
        period: SimDuration,
    },
    /// Adversarial demand churn: a hotspot whose hot pairs jump every
    /// `period`, cycling through `steps` offsets.
    ChurnHotspot {
        /// Number of hot pairs (clamped to `n`).
        pairs: usize,
        /// Fraction of total load on the hot pairs.
        fraction: f64,
        /// Hotspot rotation period.
        period: SimDuration,
        /// Number of distinct offsets cycled through.
        steps: usize,
    },
}

impl TrafficPattern {
    /// The initial traffic matrix for an `n`-port fabric.
    pub fn matrix(&self, n: usize, rng: &mut SimRng) -> TrafficMatrix {
        match self {
            TrafficPattern::Uniform => TrafficMatrix::uniform(n),
            TrafficPattern::Permutation { shift } => {
                TrafficMatrix::permutation(n, (*shift % n).max(1))
            }
            TrafficPattern::Hotspot {
                pairs,
                fraction,
                offset,
            } => TrafficMatrix::hotspot(n, (*pairs).clamp(1, n), *fraction, *offset),
            TrafficPattern::Incast { senders, target } => {
                TrafficMatrix::incast(n, (*senders).clamp(1, n - 1), *target % n)
            }
            TrafficPattern::Zipf { exponent } => TrafficMatrix::zipf(n, *exponent, rng),
            TrafficPattern::MultiRing { shifts } => {
                let mut w = vec![0.0; n * n];
                for &k in shifts {
                    let k = (k % n).max(1);
                    for s in 0..n {
                        w[s * n + (s + k) % n] = 1.0;
                    }
                }
                TrafficMatrix::from_weights(n, w).expect("ring union is valid")
            }
            TrafficPattern::ShuffleStages { .. } => TrafficMatrix::permutation(n, 1),
            TrafficPattern::ChurnHotspot {
                pairs, fraction, ..
            } => TrafficMatrix::hotspot(n, (*pairs).clamp(1, n), *fraction, 0),
        }
    }

    /// The mid-run rotation this pattern drives, if any.
    pub fn cycle(&self, n: usize) -> Option<(SimDuration, Vec<TrafficMatrix>)> {
        match self {
            TrafficPattern::ShuffleStages { period } => {
                let stages = TrafficMatrix::shuffle_stages(n);
                (stages.len() > 1).then_some((*period, stages))
            }
            TrafficPattern::ChurnHotspot {
                pairs,
                fraction,
                period,
                steps,
            } => {
                let p = (*pairs).clamp(1, n);
                // Offsets spread evenly over the whole port space (e.g.
                // n=16, steps=8 → 0,2,4,…,14): each rotation is a jump,
                // not a one-port slide, so slow estimators cannot coast.
                let steps = (*steps).max(1);
                let stride = (n / steps).max(1);
                let cycle: Vec<TrafficMatrix> = (0..steps)
                    .map(|k| TrafficMatrix::hotspot(n, p, *fraction, (k * stride) % n))
                    .collect();
                Some((*period, cycle))
            }
            _ => None,
        }
    }

    /// Short label for tables and result rows.
    pub fn label(&self) -> String {
        match self {
            TrafficPattern::Uniform => "uniform".into(),
            TrafficPattern::Permutation { shift } => format!("perm{shift}"),
            TrafficPattern::Hotspot {
                pairs, fraction, ..
            } => format!("hotspot{pairs}x{fraction:.2}"),
            TrafficPattern::Incast { senders, .. } => format!("incast{senders}"),
            TrafficPattern::Zipf { exponent } => format!("zipf{exponent:.2}"),
            TrafficPattern::MultiRing { shifts } => format!("rings{}", shifts.len()),
            TrafficPattern::ShuffleStages { .. } => "shuffle".into(),
            TrafficPattern::ChurnHotspot { .. } => "churn".into(),
        }
    }
}

/// The pluggable scheduling algorithm, as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulerKind {
    /// No circuits: pure packet switch baseline.
    EpsOnly,
    /// Demand-oblivious static rotation.
    Tdma,
    /// Round-robin matching.
    Rrm {
        /// Request–grant–accept iterations.
        iterations: u32,
    },
    /// Parallel iterative matching (randomized).
    Pim {
        /// Request–grant–accept iterations.
        iterations: u32,
        /// Seed of the arbiter's private RNG.
        seed: u64,
    },
    /// iSLIP.
    Islip {
        /// Request–grant–accept iterations.
        iterations: u32,
    },
    /// Iterative longest-queue-first.
    Ilqf {
        /// Iterations.
        iterations: u32,
    },
    /// Wavefront arbiter.
    Wavefront,
    /// Greedy longest-queue-first maximal matching.
    GreedyLqf,
    /// Hungarian exact max-weight assignment.
    Hungarian,
    /// Birkhoff–von-Neumann decomposition.
    Bvn {
        /// Max permutations per epoch.
        perms: u32,
    },
    /// Solstice-style greedy decomposition.
    Solstice {
        /// Max permutations per epoch.
        perms: u32,
    },
    /// c-Through-style day/night hotspot offload.
    Hotspot {
        /// Demand threshold for circuit setup (bytes).
        threshold_bytes: u64,
    },
}

impl SchedulerKind {
    /// Instantiates the scheduler for an `n`-port fabric.
    pub fn build(&self, n: usize) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::EpsOnly => Box::new(EpsOnlyScheduler::new()),
            SchedulerKind::Tdma => Box::new(TdmaScheduler::new(n)),
            SchedulerKind::Rrm { iterations } => Box::new(RrmScheduler::new(n, *iterations)),
            SchedulerKind::Pim { iterations, seed } => {
                Box::new(PimScheduler::new(n, *iterations, SimRng::new(*seed)))
            }
            SchedulerKind::Islip { iterations } => Box::new(IslipScheduler::new(n, *iterations)),
            SchedulerKind::Ilqf { iterations } => Box::new(IlqfScheduler::new(n, *iterations)),
            SchedulerKind::Wavefront => Box::new(WavefrontScheduler::new(n)),
            SchedulerKind::GreedyLqf => Box::new(GreedyLqfScheduler::new()),
            SchedulerKind::Hungarian => Box::new(HungarianScheduler::new()),
            SchedulerKind::Bvn { perms } => Box::new(BvnScheduler::new(*perms)),
            SchedulerKind::Solstice { perms } => Box::new(SolsticeScheduler::new(*perms)),
            SchedulerKind::Hotspot { threshold_bytes } => {
                Box::new(HotspotScheduler::new(*threshold_bytes))
            }
        }
    }

    /// Short label for tables and result rows.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::EpsOnly => "eps_only",
            SchedulerKind::Tdma => "tdma",
            SchedulerKind::Rrm { .. } => "rrm",
            SchedulerKind::Pim { .. } => "pim",
            SchedulerKind::Islip { .. } => "islip",
            SchedulerKind::Ilqf { .. } => "ilqf",
            SchedulerKind::Wavefront => "wavefront",
            SchedulerKind::GreedyLqf => "greedy_lqf",
            SchedulerKind::Hungarian => "hungarian",
            SchedulerKind::Bvn { .. } => "bvn",
            SchedulerKind::Solstice { .. } => "solstice",
            SchedulerKind::Hotspot { .. } => "hotspot",
        }
    }

    /// Fully-parameterized label (`islip_i3`, `bvn_p4`, `hotspot_t50000`,
    /// …): distinguishes variants of one algorithm in grid point names
    /// and machine-readable result rows.
    pub fn tag(&self) -> String {
        match self {
            SchedulerKind::Rrm { iterations } => format!("rrm_i{iterations}"),
            SchedulerKind::Pim { iterations, seed } => format!("pim_i{iterations}_s{seed}"),
            SchedulerKind::Islip { iterations } => format!("islip_i{iterations}"),
            SchedulerKind::Ilqf { iterations } => format!("ilqf_i{iterations}"),
            SchedulerKind::Bvn { perms } => format!("bvn_p{perms}"),
            SchedulerKind::Solstice { perms } => format!("solstice_p{perms}"),
            SchedulerKind::Hotspot { threshold_bytes } => format!("hotspot_t{threshold_bytes}"),
            _ => self.label().to_string(),
        }
    }

    /// Looks a kind up by its [`label`](Self::label), with conventional
    /// parameter defaults — the CLI entry point of the `sweep` binary.
    pub fn from_name(name: &str) -> Option<SchedulerKind> {
        Some(match name {
            "eps_only" => SchedulerKind::EpsOnly,
            "tdma" => SchedulerKind::Tdma,
            "rrm" => SchedulerKind::Rrm { iterations: 3 },
            "pim" => SchedulerKind::Pim {
                iterations: 3,
                seed: 1234,
            },
            "islip" => SchedulerKind::Islip { iterations: 3 },
            "ilqf" => SchedulerKind::Ilqf { iterations: 3 },
            "wavefront" => SchedulerKind::Wavefront,
            "greedy_lqf" => SchedulerKind::GreedyLqf,
            "hungarian" => SchedulerKind::Hungarian,
            "bvn" => SchedulerKind::Bvn { perms: 4 },
            "solstice" => SchedulerKind::Solstice { perms: 4 },
            "hotspot" => SchedulerKind::Hotspot {
                threshold_bytes: 50_000,
            },
            _ => return None,
        })
    }

    /// The full face-off roster used by the algorithm studies.
    pub fn roster() -> Vec<SchedulerKind> {
        [
            "eps_only",
            "tdma",
            "rrm",
            "pim",
            "islip",
            "wavefront",
            "greedy_lqf",
            "hungarian",
            "bvn",
            "solstice",
        ]
        .iter()
        .map(|n| Self::from_name(n).expect("roster names are valid"))
        .collect()
    }
}

/// The demand-estimation stage, as data.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimatorKind {
    /// Perfect occupancy mirror (the hardware advantage).
    Mirror,
    /// Exponentially-weighted moving average.
    Ewma {
        /// Smoothing factor in (0, 1]; higher tracks faster.
        alpha: f64,
    },
    /// Sliding-window sum of recent requests.
    Window {
        /// Window length.
        window: SimDuration,
    },
    /// Count-min sketch with periodic decay.
    CountMin {
        /// Hash rows.
        depth: usize,
        /// Counters per row.
        width: usize,
        /// Decay period.
        decay: SimDuration,
    },
}

impl EstimatorKind {
    /// Instantiates the estimator for an `n`-port fabric.
    pub fn build(&self, n: usize) -> Box<dyn DemandEstimator> {
        match self {
            EstimatorKind::Mirror => Box::new(MirrorEstimator::new(n)),
            EstimatorKind::Ewma { alpha } => Box::new(EwmaEstimator::new(n, *alpha)),
            EstimatorKind::Window { window } => Box::new(WindowEstimator::new(n, *window)),
            EstimatorKind::CountMin {
                depth,
                width,
                decay,
            } => Box::new(CountMinEstimator::new(n, *depth, *width, *decay)),
        }
    }

    /// Short label for tables and result rows (parameterized, so
    /// variants of one estimator stay distinguishable).
    pub fn label(&self) -> String {
        match self {
            EstimatorKind::Mirror => "mirror".into(),
            EstimatorKind::Ewma { alpha } => format!("ewma{alpha:.2}"),
            EstimatorKind::Window { window } => format!("window{window}"),
            EstimatorKind::CountMin { depth, width, .. } => format!("countmin{depth}x{width}"),
        }
    }
}

/// Software scheduler timing model selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwModelKind {
    /// Kernel-driver control path.
    KernelDriver,
    /// Tuned userspace path.
    TunedUserspace,
    /// Naive socket path.
    NaiveSocket,
}

impl SwModelKind {
    fn build(self) -> SwSchedulerModel {
        match self {
            SwModelKind::KernelDriver => SwSchedulerModel::kernel_driver(),
            SwModelKind::TunedUserspace => SwSchedulerModel::tuned_userspace(),
            SwModelKind::NaiveSocket => SwSchedulerModel::naive_socket(),
        }
    }
}

/// Host↔switch clock-sync quality selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncSpec {
    /// Zero offset, zero drift.
    Perfect,
    /// PTP-grade (~µs) sync.
    Ptp,
    /// NTP-grade (~ms) sync.
    Ntp,
    /// Explicit skew bound with no drift (the E8 sweep axis).
    SkewBound(SimDuration),
}

impl SyncSpec {
    fn build(self) -> SyncModel {
        match self {
            SyncSpec::Perfect => SyncModel::perfect(),
            SyncSpec::Ptp => SyncModel::ptp(),
            SyncSpec::Ntp => SyncModel::ntp(),
            SyncSpec::SkewBound(skew) => SyncModel {
                skew_bound: skew,
                drift_ppb: 0,
                resync_interval: SimDuration::from_secs(1),
            },
        }
    }

    /// Short label for tables and result rows.
    pub fn label(&self) -> String {
        match self {
            SyncSpec::Perfect => "perfect".into(),
            SyncSpec::Ptp => "ptp".into(),
            SyncSpec::Ntp => "ntp".into(),
            SyncSpec::SkewBound(s) => format!("skew{s}"),
        }
    }
}

/// Where the scheduler runs — the paper's axis — as data.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementKind {
    /// On-switch hardware scheduler (NetFPGA-SUME cost model; the
    /// algorithm's cycle cost follows the scheduler kind).
    Hardware,
    /// Hardware placement with an exactly-fixed decision latency (the E3
    /// sweep axis: isolates latency from everything else).
    HardwareFixedLatency {
        /// Decision latency applied to every epoch.
        latency: SimDuration,
    },
    /// Off-switch software scheduler with a control channel and skewed
    /// host clocks.
    Software {
        /// Decision-latency model.
        model: SwModelKind,
        /// Clock-sync quality.
        sync: SyncSpec,
    },
}

impl PlacementKind {
    /// Short label for tables and result rows.
    pub fn label(&self) -> String {
        match self {
            PlacementKind::Hardware => "hw".into(),
            PlacementKind::HardwareFixedLatency { latency } => format!("hw@{latency}"),
            PlacementKind::Software { sync, .. } => format!("sw/{}", sync.label()),
        }
    }
}

/// Interactive application mix layered over the background flows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppMix {
    /// No interactive apps.
    None,
    /// `legs` VOIP call legs with the given packet interval.
    Voip {
        /// Number of call legs.
        legs: usize,
        /// Packet interval (20 ms is G.711; experiments accelerate it).
        interval: SimDuration,
    },
    /// `legs` gaming update streams.
    Gaming {
        /// Number of streams.
        legs: usize,
    },
}

impl AppMix {
    fn build(&self, n: usize) -> Vec<CbrApp> {
        let cross = (n / 2).max(1);
        let place = |i: usize| {
            let src = i % n;
            let dst = (src + cross) % n;
            (PortNo::from(src), PortNo::from(dst))
        };
        match self {
            AppMix::None => Vec::new(),
            AppMix::Voip { legs, interval } => (0..*legs)
                .map(|i| {
                    let (src, dst) = place(i);
                    let mut a =
                        CbrApp::voip(i as u64, src, dst, SimTime::from_micros(50 * i as u64));
                    a.interval = *interval;
                    a
                })
                .collect(),
            AppMix::Gaming { legs } => (0..*legs)
                .map(|i| {
                    let (src, dst) = place(i);
                    CbrApp::gaming(i as u64, src, dst, SimTime::from_micros(50 * i as u64))
                })
                .collect(),
        }
    }

    /// Short label for tables and result rows.
    pub fn label(&self) -> String {
        match self {
            AppMix::None => "-".into(),
            AppMix::Voip { legs, .. } => format!("voip{legs}"),
            AppMix::Gaming { legs } => format!("game{legs}"),
        }
    }
}

/// The runtime inputs a spec materializes into: configuration, workload,
/// scheduler, estimator — exactly what [`xds_core::runtime::SimBuilder`]
/// consumes (the spec's instrumentation profile rides separately).
pub type BuiltScenario = (
    NodeConfig,
    Workload,
    Box<dyn Scheduler>,
    Box<dyn DemandEstimator>,
);

/// One fully-described experiment point.
///
/// Construct with [`ScenarioSpec::new`] and the `with_*` builders; run
/// directly via [`ScenarioSpec::run`] or in bulk via
/// [`crate::SweepExecutor`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Point name (used in tables and result rows).
    pub name: String,
    /// Switch port count (= host count).
    pub n_ports: usize,
    /// Who talks to whom.
    pub pattern: TrafficPattern,
    /// Flow-size distribution of the background flows.
    pub sizes: FlowSizeDist,
    /// Offered load as a fraction of aggregate line rate.
    pub load: f64,
    /// Divide the offered load by the pattern's imbalance so `load` means
    /// "utilization of the busiest port" (keeps sweeps admissible).
    pub normalize_load: bool,
    /// EPS/OCS flow-size boundary override (bytes).
    pub bulk_threshold: Option<u64>,
    /// Interactive apps layered over the flows.
    pub apps: AppMix,
    /// The scheduling algorithm.
    pub scheduler: SchedulerKind,
    /// The demand-estimation stage.
    pub estimator: EstimatorKind,
    /// Where the scheduler runs.
    pub placement: PlacementKind,
    /// OCS reconfiguration (switching) time.
    pub reconfig: SimDuration,
    /// Scheduler epoch override (`None` = the placement's default).
    pub epoch: Option<SimDuration>,
    /// Max OCS configurations per epoch override.
    pub max_entries: Option<usize>,
    /// Guard band per grant-window edge (slow scheduling).
    pub guard: SimDuration,
    /// Route interactive traffic through the OCS (ablation).
    pub voip_on_ocs: bool,
    /// Simulated horizon.
    pub duration: SimDuration,
    /// Master seed: the root of every RNG stream this point uses.
    pub seed: u64,
    /// Port-group shard count of the simulation core (default 1: one
    /// shard owning every port; every `k` reproduces K = 1 exactly — see
    /// the shard module's determinism contract).
    pub shards: usize,
    /// Instrumentation profile: `full` (default, classic report),
    /// `lean` (bench runs — identical events/bytes, no observation
    /// cost) or `timeseries` (full + per-epoch telemetry).
    pub profile: InstrProfile,
    /// Flight-recorder tracing: when `true` the run captures wall-clock
    /// spans (epoch phases, scheduler internals, grant bursts) and the
    /// report carries their Chrome Trace Event JSON. Off by default;
    /// never changes simulated behavior or the deterministic counters.
    pub trace: bool,
    /// Deterministic fault plan: link failures, OCS misfires, scheduler
    /// stalls. `None` (the default) leaves every RNG stream and golden
    /// artifact byte-identical to a fault-free build.
    pub faults: Option<FaultPlan>,
    /// Fidelity tier this point is evaluated at. `Exact` (the default)
    /// is the event-driven simulator; `Estimate` solves the point with
    /// the decomposed `xds-estimate` models instead — same seed
    /// derivation, same report columns, a fraction of the cost.
    pub fidelity: Fidelity,
}

impl ScenarioSpec {
    /// A sane default point: 8 ports, uniform bulk flows at 0.5 load,
    /// hardware iSLIP×3, occupancy-mirror estimation, 1 µs switching,
    /// 5 ms horizon, seed 1.
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioSpec {
            name: name.into(),
            n_ports: 8,
            pattern: TrafficPattern::Uniform,
            sizes: FlowSizeDist::Fixed(150_000),
            load: 0.5,
            normalize_load: true,
            bulk_threshold: None,
            apps: AppMix::None,
            scheduler: SchedulerKind::Islip { iterations: 3 },
            estimator: EstimatorKind::Mirror,
            placement: PlacementKind::Hardware,
            reconfig: SimDuration::from_micros(1),
            epoch: None,
            max_entries: None,
            guard: SimDuration::ZERO,
            voip_on_ocs: false,
            duration: SimDuration::from_millis(5),
            seed: 1,
            shards: 1,
            profile: InstrProfile::Full,
            trace: false,
            faults: None,
            fidelity: Fidelity::Exact,
        }
    }

    /// Sets the port count.
    pub fn with_ports(mut self, n: usize) -> Self {
        self.n_ports = n;
        self
    }

    /// Sets the traffic pattern.
    pub fn with_pattern(mut self, pattern: TrafficPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Sets the flow-size distribution.
    pub fn with_sizes(mut self, sizes: FlowSizeDist) -> Self {
        self.sizes = sizes;
        self
    }

    /// Sets the offered load.
    pub fn with_load(mut self, load: f64) -> Self {
        self.load = load;
        self
    }

    /// Sets whether `load` is divided by the pattern's imbalance
    /// (default `true`: "load" means busiest-port utilization). Disable
    /// to feed the generator the raw aggregate fraction, e.g. to
    /// deliberately saturate a hotspot.
    pub fn with_load_normalization(mut self, normalize: bool) -> Self {
        self.normalize_load = normalize;
        self
    }

    /// Sets the EPS/OCS bulk threshold.
    pub fn with_bulk_threshold(mut self, bytes: u64) -> Self {
        self.bulk_threshold = Some(bytes);
        self
    }

    /// Sets the interactive app mix.
    pub fn with_apps(mut self, apps: AppMix) -> Self {
        self.apps = apps;
        self
    }

    /// Sets the scheduler.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the demand estimator.
    pub fn with_estimator(mut self, estimator: EstimatorKind) -> Self {
        self.estimator = estimator;
        self
    }

    /// Sets the scheduler placement.
    pub fn with_placement(mut self, placement: PlacementKind) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the OCS reconfiguration time.
    pub fn with_reconfig(mut self, reconfig: SimDuration) -> Self {
        self.reconfig = reconfig;
        self
    }

    /// Overrides the scheduler epoch.
    pub fn with_epoch(mut self, epoch: SimDuration) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// Overrides the per-epoch configuration budget.
    pub fn with_max_entries(mut self, max_entries: usize) -> Self {
        self.max_entries = Some(max_entries);
        self
    }

    /// Sets the guard band.
    pub fn with_guard(mut self, guard: SimDuration) -> Self {
        self.guard = guard;
        self
    }

    /// Gates interactive traffic behind OCS grants (ablation).
    pub fn with_voip_on_ocs(mut self, on: bool) -> Self {
        self.voip_on_ocs = on;
        self
    }

    /// Sets the simulated horizon.
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the shard count of the parallel simulation core (floored at
    /// 1). Sharding never changes results — events, delivered bytes and
    /// behavioral counters are invariant in `k` — only how the run
    /// executes.
    pub fn with_shards(mut self, k: usize) -> Self {
        self.shards = k.max(1);
        self
    }

    /// Sets the instrumentation profile. The profile never changes
    /// simulated behavior — event counts and delivered bytes are
    /// identical across profiles — only what gets observed.
    pub fn with_profile(mut self, profile: InstrProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Enables the flight recorder for this point (see
    /// [`trace`](Self::trace)).
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Arms a deterministic fault plan (see [`faults`](Self::faults)).
    /// An inactive plan ([`FaultPlan::none`]) is treated as unset.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the fidelity tier (see [`fidelity`](Self::fidelity)).
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Renames the point (grids use this to tag axis values).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    fn node_config(&self, cfg_seed: u64) -> NodeConfig {
        let n = self.n_ports;
        let mut cfg = match &self.placement {
            PlacementKind::Hardware => NodeConfig::fast(
                n,
                self.reconfig,
                HwSchedulerModel::netfpga_sume(self.scheduler.build(n).hw_algo()),
            ),
            PlacementKind::HardwareFixedLatency { latency } => {
                let mut cfg = NodeConfig::fast(
                    n,
                    self.reconfig,
                    HwSchedulerModel::netfpga_sume(HwAlgo::Tdma),
                );
                // 1 GHz clock: one demand cycle per nanosecond of latency,
                // the algorithm itself costed at zero.
                cfg.placement = Placement::Hardware(HwSchedulerModel {
                    clock: ClockDomain::from_mhz(1000),
                    demand_cycles: latency.as_nanos().max(1),
                    algo: HwAlgo::Tdma,
                    grant_cycles: 0,
                });
                cfg
            }
            PlacementKind::Software { model, sync } => {
                let mut cfg = NodeConfig::slow(n, self.reconfig, model.build());
                if let Placement::Software { sync: s, .. } = &mut cfg.placement {
                    *s = sync.build();
                }
                cfg
            }
        };
        if let Some(e) = self.epoch {
            cfg.epoch = e;
        }
        if let Some(m) = self.max_entries {
            cfg.max_entries = m;
        }
        cfg.guard = self.guard;
        cfg.voip_on_ocs = self.voip_on_ocs;
        cfg.seed = cfg_seed;
        cfg
    }

    /// The prologue both fidelities share, so both describe the *same*
    /// point: validation, the root-RNG derivation order, the node
    /// configuration, the matrix draw and the load normalization. Returns
    /// the configuration, the matrix, the effective load and the workload
    /// RNG (only the exact tier draws from it).
    fn prologue(&self) -> Result<(NodeConfig, TrafficMatrix, f64, SimRng), String> {
        if self.n_ports < 2 {
            return Err(format!("scenario {}: need at least 2 ports", self.name));
        }
        if self.load <= 0.0 || !self.load.is_finite() {
            return Err(format!(
                "scenario {}: load must be finite and positive, got {}",
                self.name, self.load
            ));
        }
        let mut root = SimRng::new(self.seed);
        let cfg_seed = root.next_u64();
        let mut matrix_rng = root.fork();
        let workload_rng = root.fork();

        let cfg = self.node_config(cfg_seed);
        cfg.validate()
            .map_err(|e| format!("scenario {}: {e}", self.name))?;

        let matrix = self.pattern.matrix(self.n_ports, &mut matrix_rng);
        let eff_load = if self.normalize_load {
            self.load / matrix.imbalance()
        } else {
            self.load
        };
        // A load whose flow arrivals cannot be drawn is an error at both
        // fidelities, where the exact run would otherwise panic.
        mean_flow_gap(eff_load, self.n_ports, cfg.line_rate, &self.sizes)
            .map_err(|e| format!("scenario {}: load {:?}: {e}", self.name, self.load))?;
        Ok((cfg, matrix, eff_load, workload_rng))
    }

    /// Materializes the runtime inputs. Every RNG stream (runtime, matrix
    /// shuffling, workload arrivals) forks deterministically off
    /// [`seed`](Self::seed), so a spec is exactly reproducible.
    pub fn build(&self) -> Result<BuiltScenario, String> {
        let (cfg, matrix, eff_load, workload_rng) = self.prologue()?;
        let mut gen = FlowGenerator::with_load(
            matrix,
            self.sizes.clone(),
            eff_load,
            cfg.line_rate,
            workload_rng,
        );
        if let Some(t) = self.bulk_threshold {
            gen = gen.with_bulk_threshold(t);
        }
        let mut workload = Workload::flows(gen).with_apps(self.apps.build(self.n_ports));
        if let Some((period, cycle)) = self.pattern.cycle(self.n_ports) {
            workload = workload.with_matrix_cycle(period, cycle);
        }
        let scheduler = self.scheduler.build(self.n_ports);
        let estimator = self.estimator.build(self.n_ports);
        Ok((cfg, workload, scheduler, estimator))
    }

    /// Runs the point to completion and returns its report: the exact
    /// event-driven simulation, or — when
    /// [`fidelity`](Self::fidelity) is [`Fidelity::Estimate`] — the
    /// decomposed fast estimate, observed at the spec's instrumentation
    /// [`profile`](Self::profile) either way.
    pub fn run(&self) -> Result<RunReport, String> {
        match self.fidelity {
            Fidelity::Exact => self.run_exact(),
            Fidelity::Estimate => self.run_estimate(),
        }
    }

    fn run_exact(&self) -> Result<RunReport, String> {
        let (cfg, workload, scheduler, estimator) = self.build()?;
        let sim = SimBuilder::new(cfg)
            .workload(workload)
            .scheduler(scheduler)
            .estimator(estimator)
            .instrumentation(self.profile.instrumentation())
            .trace(self.trace)
            .faults(self.faults.clone())
            .shards(self.shards)
            .build()
            .map_err(|e| format!("scenario {}: {e}", self.name))?;
        Ok(sim.run(SimTime::ZERO + self.duration))
    }

    /// Translates the spec for the estimate tier and solves it. It runs
    /// [`build`](Self::build)'s prologue, so both tiers describe the
    /// *same* point and differ only in how they evaluate it.
    fn run_estimate(&self) -> Result<RunReport, String> {
        let (cfg, matrix, eff_load, _) = self.prologue()?;
        // Lean instrumentation means "don't observe": the estimate tier
        // mirrors that by leaving observation-derived columns absent.
        let measured = self.profile != InstrProfile::Lean;
        let problem = EstimateProblem {
            cycle: self.pattern.cycle(self.n_ports),
            cfg,
            matrix,
            sizes: self.sizes.clone(),
            load: eff_load,
            bulk_threshold: self
                .bulk_threshold
                .unwrap_or(FlowGenerator::DEFAULT_BULK_THRESHOLD),
            apps: self.apps.build(self.n_ports),
            duration: self.duration,
            seed: self.seed,
            faults: self.faults.clone().filter(FaultPlan::is_active),
            scheduler_name: self.scheduler.label().to_string(),
            entries_per_epoch: match &self.scheduler {
                SchedulerKind::EpsOnly => 0,
                SchedulerKind::Bvn { perms } | SchedulerKind::Solstice { perms } => {
                    (*perms).max(1) as u64
                }
                _ => 1,
            },
            eps_only: self.scheduler == SchedulerKind::EpsOnly,
            oblivious: self.scheduler == SchedulerKind::Tdma,
            measured,
        };
        Ok(xds_estimate::estimate(&problem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_builds_and_runs() {
        let spec = ScenarioSpec::new("t")
            .with_ports(4)
            .with_duration(SimDuration::from_millis(1));
        let r = spec.run().expect("default spec runs");
        assert!(r.offered_bytes > 0);
        assert!(r.delivered_bytes() > 0);
    }

    #[test]
    fn same_seed_same_report_different_seed_differs() {
        let spec = ScenarioSpec::new("t")
            .with_ports(4)
            .with_duration(SimDuration::from_millis(2));
        let a = spec.clone().run().unwrap();
        let b = spec.clone().run().unwrap();
        assert_eq!(a.delivered_bytes(), b.delivered_bytes());
        assert_eq!(a.events, b.events);
        let c = spec.with_seed(99).run().unwrap();
        assert_ne!(a.events, c.events, "different seed, different run");
    }

    #[test]
    fn traced_spec_carries_a_chrome_trace_and_identical_counters() {
        let base = ScenarioSpec::new("t")
            .with_ports(4)
            .with_scheduler(SchedulerKind::Solstice { perms: 4 })
            .with_duration(SimDuration::from_millis(2));
        let plain = base.clone().run().unwrap();
        let traced = base.with_trace(true).run().unwrap();
        assert!(plain.chrome_trace.is_none());
        let json = traced.chrome_trace.as_ref().expect("recorder ran");
        xds_core::validate_chrome_trace(json).expect("valid Chrome trace");
        // The recorder observes; it must not perturb.
        assert_eq!(plain.events, traced.events);
        assert_eq!(plain.counters, traced.counters);
        assert!(traced.counters.sched_probes > 0, "solstice probes counted");
    }

    #[test]
    fn faulted_spec_degrades_deterministically_and_unset_plan_is_free() {
        let spec = ScenarioSpec::new("f")
            .with_ports(8)
            .with_faults(FaultPlan::storm())
            .with_duration(SimDuration::from_millis(2));
        let a = spec.clone().run().unwrap();
        let b = spec.clone().run().unwrap();
        assert_eq!(a.events, b.events);
        assert_eq!(a.counters, b.counters);
        assert!(a.counters.fault_events_injected > 0, "storm must inject");
        assert!(a.fault_degraded_ns > 0, "link flaps must open intervals");
        // An explicitly-inactive plan leaves the run byte-identical to a
        // fault-free build: no RNG fork, no masking, no new draws.
        let base = ScenarioSpec::new("f")
            .with_ports(8)
            .with_duration(SimDuration::from_millis(2));
        let plain = base.clone().run().unwrap();
        let off = base.with_faults(FaultPlan::none()).run().unwrap();
        assert_eq!(plain.events, off.events);
        assert_eq!(plain.counters, off.counters);
        assert_eq!(off.fault_degraded_ns, 0);
        assert_eq!(off.counters.fault_events_injected, 0);
    }

    #[test]
    fn software_placement_buffers_at_hosts() {
        let spec = ScenarioSpec::new("sw")
            .with_ports(4)
            .with_reconfig(SimDuration::from_micros(100))
            .with_placement(PlacementKind::Software {
                model: SwModelKind::TunedUserspace,
                sync: SyncSpec::Perfect,
            })
            .with_epoch(SimDuration::from_millis(1))
            .with_scheduler(SchedulerKind::Hotspot {
                threshold_bytes: 10_000,
            })
            .with_duration(SimDuration::from_millis(10));
        let r = spec.run().unwrap();
        assert!(r.peak_host_buffer > 0);
        assert_eq!(r.peak_switch_buffer, 0);
        assert!(r.delivered_ocs_bytes > 0, "grants must move bulk");
    }

    #[test]
    fn fixed_latency_placement_applies_exact_latency() {
        let spec = ScenarioSpec::new("lat")
            .with_ports(4)
            .with_placement(PlacementKind::HardwareFixedLatency {
                latency: SimDuration::from_micros(7),
            })
            .with_duration(SimDuration::from_millis(1));
        let r = spec.run().unwrap();
        // demand stage = 7000 cycles @ 1 GHz, plus the 1-cycle TDMA stage.
        assert!((r.decision_latency_mean_ns - 7_000.0).abs() <= 2.0);
    }

    #[test]
    fn invalid_specs_are_reported_not_panicked() {
        assert!(ScenarioSpec::new("bad").with_ports(1).run().is_err());
        assert!(ScenarioSpec::new("bad").with_load(0.0).run().is_err());
        let bad_epoch = ScenarioSpec::new("bad")
            .with_ports(4)
            .with_reconfig(SimDuration::from_micros(10))
            .with_epoch(SimDuration::from_micros(5));
        assert!(bad_epoch.run().is_err(), "epoch below reconfig must error");
    }

    #[test]
    fn non_finite_and_zero_loads_are_errors_at_both_fidelities() {
        for (load, shown) in [(f64::INFINITY, "inf"), (f64::NAN, "NaN"), (0.0, "0")] {
            for fidelity in [Fidelity::Exact, Fidelity::Estimate] {
                let err = ScenarioSpec::new("bad-load")
                    .with_load(load)
                    .with_fidelity(fidelity)
                    .run()
                    .expect_err("an unusable load must be an error");
                assert_eq!(
                    err,
                    format!("scenario bad-load: load must be finite and positive, got {shown}"),
                    "{fidelity:?}"
                );
            }
        }
    }

    #[test]
    fn extreme_loads_are_errors_at_both_fidelities() {
        // 1e5 leaves a mean flow gap under half a nanosecond; 1e300 and
        // f64::MAX overflow the arrival rate.
        for load in [1e5, 1e300, f64::MAX] {
            for fidelity in [Fidelity::Exact, Fidelity::Estimate] {
                let spec = ScenarioSpec::new("extreme")
                    .with_load(load)
                    .with_fidelity(fidelity);
                let err = spec.run().expect_err("an unusable load must be an error");
                assert!(
                    err.contains(&format!("load {load:?}")),
                    "{fidelity:?} at {load}: {err}"
                );
            }
        }
    }

    #[test]
    fn churn_pattern_rotates_matrices() {
        let spec = ScenarioSpec::new("churn")
            .with_ports(8)
            .with_pattern(TrafficPattern::ChurnHotspot {
                pairs: 2,
                fraction: 0.8,
                period: SimDuration::from_micros(500),
                steps: 4,
            })
            .with_duration(SimDuration::from_millis(4));
        let (_, w, _, _) = spec.build().unwrap();
        let cycle = w.matrix_cycle.as_ref().expect("churn drives a cycle");
        // The rotation must jump across the whole port space (offsets
        // 0, 2, 4, … for n=8, steps=4), so consecutive matrices differ.
        assert_eq!(cycle.matrices.len(), 4);
        for pair in cycle.matrices.windows(2) {
            assert_ne!(pair[0], pair[1], "rotation must move the hotspot");
        }
        let r = spec.run().unwrap();
        assert!(r.ocs.reconfigurations > 0);
    }

    #[test]
    fn scheduler_tags_distinguish_parameter_variants() {
        let a = SchedulerKind::Islip { iterations: 1 };
        let b = SchedulerKind::Islip { iterations: 3 };
        assert_eq!(a.label(), b.label(), "same family label");
        assert_ne!(a.tag(), b.tag(), "tags must carry the parameters");
        let grid = crate::SweepGrid::new(ScenarioSpec::new("g")).schedulers(vec![a, b]);
        let names: Vec<String> = grid.specs().into_iter().map(|s| s.name).collect();
        assert_ne!(names[0], names[1], "point names must not collide");
    }

    #[test]
    fn load_normalization_can_be_disabled() {
        let base = ScenarioSpec::new("n")
            .with_ports(8)
            .with_pattern(TrafficPattern::Incast {
                senders: 7,
                target: 0,
            })
            .with_load(0.5)
            .with_duration(SimDuration::from_millis(2));
        let normalized = base.clone().run().unwrap();
        let raw = base.with_load_normalization(false).run().unwrap();
        // Incast imbalance is n: raw load offers ~8x the normalized bytes.
        assert!(
            raw.offered_bytes > 4 * normalized.offered_bytes,
            "raw {} vs normalized {}",
            raw.offered_bytes,
            normalized.offered_bytes
        );
    }

    #[test]
    fn scheduler_roster_builds_for_any_port_count() {
        for kind in SchedulerKind::roster() {
            for n in [2usize, 4, 16] {
                let s = kind.build(n);
                assert!(!s.name().is_empty());
            }
            assert_eq!(
                SchedulerKind::from_name(kind.label()).as_ref(),
                Some(&kind),
                "label/from_name round-trip"
            );
        }
    }

    #[test]
    fn app_mix_endpoints_stay_in_range() {
        for n in [2usize, 3, 8] {
            let apps = AppMix::Voip {
                legs: 10,
                interval: SimDuration::from_millis(1),
            }
            .build(n);
            for a in apps {
                assert!(a.src.index() < n && a.dst.index() < n);
                assert_ne!(a.src, a.dst);
            }
        }
    }
}
