//! Sweep grids: a base [`ScenarioSpec`] plus axes, enumerated as the exact
//! cross product of experiment points.
//!
//! Axes left empty keep the base value (a singleton dimension). Points are
//! enumerated in odometer order — last axis fastest — and each point's
//! name is the base name tagged with the values of every swept
//! (non-singleton) axis, so result rows are self-describing. Per-point
//! seeds come either from the explicit [`SweepGrid::seeds`] axis or from
//! the base seed, mixed per-point by the executor's deterministic stream
//! derivation.

use xds_core::fault::FaultPlan;
use xds_sim::SimDuration;

use crate::spec::{
    EstimatorKind, Fidelity, PlacementKind, ScenarioSpec, SchedulerKind, TrafficPattern,
};

/// A declarative sweep: base point × axes.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    base: ScenarioSpec,
    loads: Vec<f64>,
    ports: Vec<usize>,
    reconfigs: Vec<SimDuration>,
    epochs: Vec<SimDuration>,
    guards: Vec<SimDuration>,
    schedulers: Vec<SchedulerKind>,
    estimators: Vec<EstimatorKind>,
    placements: Vec<PlacementKind>,
    patterns: Vec<TrafficPattern>,
    seeds: Vec<u64>,
    shards: Vec<usize>,
    faults: Vec<FaultPlan>,
    fidelities: Vec<Fidelity>,
}

impl SweepGrid {
    /// A grid with no axes: one point, the base itself.
    pub fn new(base: ScenarioSpec) -> Self {
        SweepGrid {
            base,
            loads: Vec::new(),
            ports: Vec::new(),
            reconfigs: Vec::new(),
            epochs: Vec::new(),
            guards: Vec::new(),
            schedulers: Vec::new(),
            estimators: Vec::new(),
            placements: Vec::new(),
            patterns: Vec::new(),
            seeds: Vec::new(),
            shards: Vec::new(),
            faults: Vec::new(),
            fidelities: Vec::new(),
        }
    }

    /// Sweeps offered load.
    pub fn loads(mut self, loads: Vec<f64>) -> Self {
        self.loads = loads;
        self
    }

    /// Sweeps port count.
    pub fn ports(mut self, ports: Vec<usize>) -> Self {
        self.ports = ports;
        self
    }

    /// Sweeps OCS reconfiguration time.
    pub fn reconfigs(mut self, reconfigs: Vec<SimDuration>) -> Self {
        self.reconfigs = reconfigs;
        self
    }

    /// Sweeps the scheduler epoch.
    pub fn epochs(mut self, epochs: Vec<SimDuration>) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sweeps the guard band.
    pub fn guards(mut self, guards: Vec<SimDuration>) -> Self {
        self.guards = guards;
        self
    }

    /// Sweeps the scheduling algorithm.
    pub fn schedulers(mut self, schedulers: Vec<SchedulerKind>) -> Self {
        self.schedulers = schedulers;
        self
    }

    /// Sweeps the demand estimator.
    pub fn estimators(mut self, estimators: Vec<EstimatorKind>) -> Self {
        self.estimators = estimators;
        self
    }

    /// Sweeps the scheduler placement.
    pub fn placements(mut self, placements: Vec<PlacementKind>) -> Self {
        self.placements = placements;
        self
    }

    /// Sweeps the traffic pattern.
    pub fn patterns(mut self, patterns: Vec<TrafficPattern>) -> Self {
        self.patterns = patterns;
        self
    }

    /// Sweeps the master seed (for replicated runs).
    pub fn seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Sweeps the port-group shard count of the parallel core. Results
    /// are invariant in this axis by construction; sweeping it compares
    /// execution cost, not behavior.
    pub fn shards(mut self, shards: Vec<usize>) -> Self {
        self.shards = shards;
        self
    }

    /// Sweeps the deterministic fault plan (use [`FaultPlan::none`] as
    /// the baseline cell of a degradation study).
    pub fn faults(mut self, faults: Vec<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// Sweeps the fidelity tier (run points exact, estimated, or both
    /// side by side — the `validate-estimates` harness's grid shape).
    pub fn fidelities(mut self, fidelities: Vec<Fidelity>) -> Self {
        self.fidelities = fidelities;
        self
    }

    /// The base spec the axes are applied to.
    pub fn base(&self) -> &ScenarioSpec {
        &self.base
    }

    fn axis_lens(&self) -> [usize; 13] {
        [
            self.loads.len().max(1),
            self.ports.len().max(1),
            self.reconfigs.len().max(1),
            self.epochs.len().max(1),
            self.guards.len().max(1),
            self.schedulers.len().max(1),
            self.estimators.len().max(1),
            self.placements.len().max(1),
            self.patterns.len().max(1),
            self.seeds.len().max(1),
            self.shards.len().max(1),
            self.faults.len().max(1),
            self.fidelities.len().max(1),
        ]
    }

    /// Number of points the grid enumerates.
    pub fn len(&self) -> usize {
        self.axis_lens().iter().product()
    }

    /// Whether the grid is empty (it never is: a grid is at least its
    /// base point).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Enumerates the exact cross product, odometer order (last axis
    /// fastest). Each point's name is `base-name/tag1/tag2/…` over the
    /// swept axes only.
    pub fn specs(&self) -> Vec<ScenarioSpec> {
        let lens = self.axis_lens();
        let total: usize = lens.iter().product();
        let mut out = Vec::with_capacity(total);
        for flat in 0..total {
            // Decompose `flat` into per-axis indices, last axis fastest.
            let mut rem = flat;
            let mut idx = [0usize; 13];
            for a in (0..lens.len()).rev() {
                idx[a] = rem % lens[a];
                rem /= lens[a];
            }
            let mut spec = self.base.clone();
            let mut tags: Vec<String> = Vec::new();
            let tag = |t: String, swept: bool, tags: &mut Vec<String>| {
                if swept {
                    tags.push(t);
                }
            };
            if let Some(&v) = self.loads.get(idx[0]) {
                spec.load = v;
                tag(format!("load{v:.2}"), self.loads.len() > 1, &mut tags);
            }
            if let Some(&v) = self.ports.get(idx[1]) {
                spec.n_ports = v;
                tag(format!("n{v}"), self.ports.len() > 1, &mut tags);
            }
            if let Some(&v) = self.reconfigs.get(idx[2]) {
                spec.reconfig = v;
                tag(format!("rc{v}"), self.reconfigs.len() > 1, &mut tags);
            }
            if let Some(&v) = self.epochs.get(idx[3]) {
                spec.epoch = Some(v);
                tag(format!("ep{v}"), self.epochs.len() > 1, &mut tags);
            }
            if let Some(&v) = self.guards.get(idx[4]) {
                spec.guard = v;
                tag(format!("g{v}"), self.guards.len() > 1, &mut tags);
            }
            if let Some(v) = self.schedulers.get(idx[5]) {
                spec.scheduler = v.clone();
                tag(v.tag(), self.schedulers.len() > 1, &mut tags);
            }
            if let Some(v) = self.estimators.get(idx[6]) {
                spec.estimator = v.clone();
                tag(v.label(), self.estimators.len() > 1, &mut tags);
            }
            if let Some(v) = self.placements.get(idx[7]) {
                spec.placement = v.clone();
                tag(v.label(), self.placements.len() > 1, &mut tags);
            }
            if let Some(v) = self.patterns.get(idx[8]) {
                spec.pattern = v.clone();
                tag(v.label(), self.patterns.len() > 1, &mut tags);
            }
            if let Some(&v) = self.seeds.get(idx[9]) {
                spec.seed = v;
                tag(format!("s{v}"), self.seeds.len() > 1, &mut tags);
            }
            if let Some(&v) = self.shards.get(idx[10]) {
                spec.shards = v.max(1);
                tag(format!("sh{v}"), self.shards.len() > 1, &mut tags);
            }
            if let Some(v) = self.faults.get(idx[11]) {
                spec.faults = Some(v.clone());
                tag(format!("f{}", v.label()), self.faults.len() > 1, &mut tags);
            }
            if let Some(&v) = self.fidelities.get(idx[12]) {
                spec.fidelity = v;
                tag(v.tag().to_string(), self.fidelities.len() > 1, &mut tags);
            }
            if !tags.is_empty() {
                spec.name = format!("{}/{}", spec.name, tags.join("/"));
            }
            out.push(spec);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    #[test]
    fn no_axes_is_just_the_base() {
        let g = SweepGrid::new(ScenarioSpec::new("b"));
        assert_eq!(g.len(), 1);
        let specs = g.specs();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0], *g.base());
        assert!(!g.is_empty());
    }

    #[test]
    fn cross_product_counts_multiply() {
        let g = SweepGrid::new(ScenarioSpec::new("b"))
            .loads(vec![0.1, 0.5, 0.9])
            .ports(vec![4, 8])
            .seeds(vec![1, 2, 3, 4]);
        assert_eq!(g.len(), 24);
        let specs = g.specs();
        assert_eq!(specs.len(), 24);
        // Every combination appears exactly once.
        for &l in &[0.1, 0.5, 0.9] {
            for &n in &[4usize, 8] {
                for &s in &[1u64, 2, 3, 4] {
                    let hits = specs
                        .iter()
                        .filter(|sp| sp.load == l && sp.n_ports == n && sp.seed == s)
                        .count();
                    assert_eq!(hits, 1, "combo load={l} n={n} seed={s}");
                }
            }
        }
    }

    #[test]
    fn point_names_tag_swept_axes_only() {
        let g = SweepGrid::new(ScenarioSpec::new("b"))
            .loads(vec![0.25, 0.75])
            .ports(vec![4]); // singleton: applied but untagged
        let names: Vec<String> = g.specs().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["b/load0.25", "b/load0.75"]);
        let specs = g.specs();
        assert!(specs.iter().all(|s| s.n_ports == 4));
    }

    #[test]
    fn shards_axis_sweeps_and_tags() {
        let g = SweepGrid::new(ScenarioSpec::new("b")).shards(vec![1, 2, 4]);
        let specs = g.specs();
        assert_eq!(specs.len(), 3);
        let got: Vec<(usize, String)> = specs.into_iter().map(|s| (s.shards, s.name)).collect();
        assert_eq!(
            got,
            vec![
                (1, "b/sh1".to_string()),
                (2, "b/sh2".to_string()),
                (4, "b/sh4".to_string()),
            ]
        );
    }

    #[test]
    fn faults_axis_sweeps_and_tags() {
        let g = SweepGrid::new(ScenarioSpec::new("b"))
            .faults(vec![FaultPlan::none(), FaultPlan::storm()]);
        let specs = g.specs();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "b/fnone");
        assert_eq!(specs[0].faults, Some(FaultPlan::none()));
        assert_eq!(specs[1].name, "b/flink+misfire+stall");
        assert_eq!(specs[1].faults, Some(FaultPlan::storm()));
    }

    #[test]
    fn fidelity_axis_sweeps_and_tags() {
        let g = SweepGrid::new(ScenarioSpec::new("b"))
            .fidelities(vec![Fidelity::Exact, Fidelity::Estimate]);
        let specs = g.specs();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "b/exact");
        assert_eq!(specs[0].fidelity, Fidelity::Exact);
        assert_eq!(specs[1].name, "b/est");
        assert_eq!(specs[1].fidelity, Fidelity::Estimate);
        // Singleton axis: applied but untagged.
        let single = SweepGrid::new(ScenarioSpec::new("b"))
            .fidelities(vec![Fidelity::Estimate])
            .specs();
        assert_eq!(single[0].name, "b");
        assert_eq!(single[0].fidelity, Fidelity::Estimate);
    }

    #[test]
    fn last_axis_varies_fastest() {
        let g = SweepGrid::new(ScenarioSpec::new("b"))
            .loads(vec![0.1, 0.9])
            .seeds(vec![7, 8]);
        let specs = g.specs();
        let got: Vec<(f64, u64)> = specs.iter().map(|s| (s.load, s.seed)).collect();
        assert_eq!(got, vec![(0.1, 7), (0.1, 8), (0.9, 7), (0.9, 8)]);
    }
}
