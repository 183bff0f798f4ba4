//! The three workloads and the points each one submits.
//!
//! Every workload is a batch (closed loop): a round submits all its
//! points at once and a worker takes the next point when it frees. A
//! workload's pool is fixed — families × loads × seed variants — and
//! every pool point has a pinned reference (`refs/<workload>.tsv`). Every
//! run submits the whole pool: simulated results move by up to a quarter
//! between simulation seeds (kilofabric goodput), and a seed-picked
//! subset of variants spreads sweep-grid goodput and estimate error by
//! 14–21 % from one workload seed to the next. The workload seed instead
//! shuffles the order in which each family's seed variants are
//! submitted; the program receives only the resulting grids.

use xds_scenario::{
    library, Fidelity, InstrProfile, PlacementKind, ScenarioSpec, SwModelKind, SweepGrid, SyncSpec,
    TrafficPattern,
};
use xds_sim::SimDuration;

/// Most sweep workers a workload uses (fewer on a host with fewer CPUs).
const MAX_THREADS: usize = 2;

/// Kilofabric horizons, past the first schedule install (one cadence of
/// observed demand plus a modelled Solstice decision of ~225 µs at n1024
/// and ~490 µs at n2048), so OCS bytes flow against the growing backlog.
const KF_N1024_HORIZON_US: u64 = 5_000;
const KF_N2048_HORIZON_US: u64 = 3_000;

/// Simulation seeds of the pools. None lies in 11–22, the seeds of the
/// bench catalogue the estimate tier was tuned against, so every
/// estimate is scored on held-out points.
const KF_SEEDS: &[u64] = &[201, 202];
const GRID_SEEDS: &[u64] = &[101, 102, 103, 104];
const SCREEN_SEEDS: &[u64] = &[1001, 1002, 1003];

/// Offered loads (busiest-port utilization) of the traffic families.
const LOADS: [f64; 3] = [0.3, 0.6, 0.9];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The exact multi-ring Solstice stress point at n1024 and n2048 on
    /// the sharded core (K = n), lean profile, one point at a time.
    Kilofabric,
    /// Exact 16- and 32-port points of every traffic family, full profile.
    SweepGrid,
    /// The same families at estimate fidelity, 16 to 512 ports.
    EstimateScreen,
}

/// One family of a pool: a base spec swept over loads and seeds.
struct Family {
    base: ScenarioSpec,
    loads: Vec<f64>,
    variants: &'static [u64],
}

impl Family {
    fn grid(&self, seeds: Vec<u64>) -> SweepGrid {
        SweepGrid::new(self.base.clone())
            .loads(self.loads.clone())
            .seeds(seeds)
    }
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Kilofabric,
        Workload::SweepGrid,
        Workload::EstimateScreen,
    ];

    /// Looks a workload up by its name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Kilofabric => "kilofabric",
            Workload::SweepGrid => "sweep-grid",
            Workload::EstimateScreen => "estimate-screen",
        }
    }

    /// Sweep workers. Kilofabric runs one point at a time: its sharded
    /// core already spreads shard windows over every CPU.
    pub fn threads(self) -> usize {
        match self {
            Workload::Kilofabric => 1,
            _ => cpus().min(MAX_THREADS),
        }
    }

    /// The grids one run submits: every family, its seed variants in the
    /// order the workload seed shuffles them into.
    pub fn grids(self, seed: u64) -> Vec<SweepGrid> {
        self.families()
            .iter()
            .zip(0u64..)
            .map(|(f, salt)| f.grid(shuffled(seed, salt, f.variants)))
            .collect()
    }

    /// Every point a run submits, in pool order: what the references cover.
    pub fn pool(self) -> Vec<ScenarioSpec> {
        self.families()
            .iter()
            .flat_map(|f| f.grid(f.variants.to_vec()).specs())
            .collect()
    }

    fn families(self) -> Vec<Family> {
        match self {
            Workload::Kilofabric => vec![
                kilofabric("scale-stress-1024", KF_N1024_HORIZON_US),
                kilofabric("scale-stress-2048", KF_N2048_HORIZON_US),
            ],
            Workload::SweepGrid => [16, 32]
                .into_iter()
                .flat_map(|n| {
                    traffic_families().into_iter().map(move |base| Family {
                        base: base.with_ports(n),
                        loads: LOADS.to_vec(),
                        variants: GRID_SEEDS,
                    })
                })
                .collect(),
            Workload::EstimateScreen => [16, 64, 256, 512]
                .into_iter()
                .flat_map(|n| {
                    traffic_families()
                        .into_iter()
                        // A shuffle's rotation is n−1 dense n×n matrices:
                        // ~1 GiB per point at 512 ports.
                        .filter(move |b| {
                            n <= 256 || !matches!(b.pattern, TrafficPattern::ShuffleStages { .. })
                        })
                        .map(move |base| Family {
                            base: screen_point(base, n),
                            loads: LOADS.to_vec(),
                            variants: SCREEN_SEEDS,
                        })
                })
                .collect(),
        }
    }
}

/// The host's CPU count.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The reference key of a point: its family and the axis values that
/// vary inside a pool. Grid point names depend on which axes a grid
/// sweeps, so they cannot serve as keys.
pub fn key(spec: &ScenarioSpec) -> String {
    let family = spec.name.split('/').next().unwrap_or(&spec.name);
    format!(
        "{family}/n{}/load{:.2}/s{}",
        spec.n_ports, spec.load, spec.seed
    )
}

/// `variants` shuffled by `seed` (Fisher–Yates driven by SplitMix64).
/// `salt` decorrelates the families of one workload.
fn shuffled(seed: u64, salt: u64, variants: &[u64]) -> Vec<u64> {
    let mut state = seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407);
    let mut v = variants.to_vec();
    for i in 0..v.len() {
        let j = i + (splitmix64(&mut state) % (v.len() - i) as u64) as usize;
        v.swap(i, j);
    }
    v
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn kilofabric(name: &str, horizon_us: u64) -> Family {
    Family {
        base: library::scenario(name)
            .expect("catalogue entry")
            .with_duration(SimDuration::from_micros(horizon_us))
            .with_profile(InstrProfile::Lean),
        loads: Vec::new(),
        variants: KF_SEEDS,
    }
}

/// The traffic families of the paper's evaluation at 16 ports, each with
/// the horizon it needs to offer traffic there.
fn traffic_families() -> Vec<ScenarioSpec> {
    let lib = |name: &str| library::scenario(name).expect("catalogue entry");
    let ms = SimDuration::from_millis;
    vec![
        lib("uniform").with_duration(ms(10)),
        lib("websearch").with_duration(ms(10)),
        // Heavy-tailed sizes: offers no flow at all on short horizons.
        lib("datamining").with_duration(ms(50)),
        lib("hotspot").with_duration(ms(10)),
        lib("incast").with_duration(ms(10)),
        lib("shuffle").with_duration(ms(10)),
        lib("voip-mix").with_duration(ms(10)),
        lib("churn").with_duration(ms(10)),
        // Slow mode: software placement, host VOQs, control-channel grants.
        ScenarioSpec::new("hotspot-sw")
            .with_pattern(TrafficPattern::Hotspot {
                pairs: 4,
                fraction: 0.6,
                offset: 0,
            })
            .with_placement(PlacementKind::Software {
                model: SwModelKind::TunedUserspace,
                sync: SyncSpec::Ptp,
            })
            .with_reconfig(SimDuration::from_micros(100))
            .with_epoch(ms(1))
            .with_duration(ms(20)),
        lib("fault-storm").with_duration(ms(10)),
    ]
}

/// A family at `n` ports and estimate fidelity. The horizon shrinks as
/// the fabric grows (floored at 1 ms), keeping the offered flow count
/// per point — and the cost of pinning its exact reference — level.
fn screen_point(base: ScenarioSpec, n: usize) -> ScenarioSpec {
    let horizon = (base.duration.as_nanos() * 16 / n as u64).max(1_000_000);
    base.with_ports(n)
        .with_duration(SimDuration::from_nanos(horizon))
        .with_fidelity(Fidelity::Estimate)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    #[test]
    fn a_seed_fixes_the_submission_order() {
        let order = shuffled(7, 3, GRID_SEEDS);
        assert_eq!(order, shuffled(7, 3, GRID_SEEDS));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, GRID_SEEDS);
        let seen: BTreeSet<Vec<u64>> = (0..32).map(|s| shuffled(s, 3, GRID_SEEDS)).collect();
        assert!(seen.len() > 1, "the seed must change the inputs");
    }

    #[test]
    fn every_run_submits_the_whole_pinned_pool() {
        for w in Workload::ALL {
            let keys =
                |specs: Vec<ScenarioSpec>| -> BTreeSet<String> { specs.iter().map(key).collect() };
            let pool = w.pool();
            let pinned = keys(w.pool());
            assert_eq!(pinned.len(), pool.len(), "{}: keys collide", w.name());
            for seed in [0, 1, 2, 99] {
                let run = w.grids(seed).iter().flat_map(SweepGrid::specs).collect();
                assert_eq!(keys(run), pinned, "{} seed {seed}", w.name());
            }
        }
    }

    #[test]
    fn estimate_points_are_held_out_of_the_tuned_catalogue() {
        let tuned: BTreeSet<u64> = xds_bench::bench::catalogue(false)
            .iter()
            .map(|s| s.seed)
            .collect();
        for w in Workload::ALL {
            for spec in w.pool() {
                assert!(!tuned.contains(&spec.seed), "{}", key(&spec));
            }
        }
    }
}
