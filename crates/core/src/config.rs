//! Testbed configuration: the "constant (yet configurable) infrastructure"
//! around the pluggable scheduling logic.

use xds_hw::{HwSchedulerModel, SwSchedulerModel, SyncModel};
use xds_sim::{BitRate, SimDuration, SimRng};
use xds_switch::{Link, Site};

/// Where the scheduler runs — the axis of the whole paper.
#[derive(Debug, Clone)]
pub enum Placement {
    /// On-switch hardware scheduler (Figure 1 "Fast Scheduling"):
    /// deterministic pipeline latency, packets buffered in switch VOQs,
    /// grants never leave the chip.
    Hardware(HwSchedulerModel),
    /// Off-switch software scheduler (Figure 1 "Slow Scheduling"):
    /// sampled decision latency with OS jitter, packets buffered at hosts,
    /// grants travel the control channel, hosts obey their skewed clocks.
    Software {
        /// Decision latency model.
        timing: SwSchedulerModel,
        /// One-way control-channel latency (grant distribution to hosts).
        ctrl_oneway: SimDuration,
        /// Host↔switch clock synchronization quality.
        sync: SyncModel,
    },
}

impl Placement {
    /// Where bulk packets wait for grants under this placement.
    pub fn buffering_site(&self) -> Site {
        match self {
            Placement::Hardware(_) => Site::Switch,
            Placement::Software { .. } => Site::Host,
        }
    }

    /// Samples the scheduler decision latency.
    pub fn decision_latency(&self, n_ports: usize, rng: &mut SimRng) -> SimDuration {
        match self {
            Placement::Hardware(m) => m.decision_latency(n_ports, rng),
            Placement::Software { timing, .. } => timing.decision_latency(n_ports, rng),
        }
    }

    /// Analytic mean decision latency (no sampling — for closed-form
    /// models and tables).
    pub fn mean_decision_latency(&self, n_ports: usize) -> SimDuration {
        match self {
            Placement::Hardware(m) => m.mean_decision_latency(n_ports),
            Placement::Software { timing, .. } => timing.mean_decision_latency(n_ports),
        }
    }

    /// Label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Placement::Hardware(_) => "hardware",
            Placement::Software { .. } => "software",
        }
    }
}

/// Full testbed configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Switch port count (= host count).
    pub n_ports: usize,
    /// Host link / OCS circuit rate.
    pub line_rate: BitRate,
    /// EPS per-output-port rate (hybrid designs undersize this —
    /// typically 1/10 of line rate).
    pub eps_rate: BitRate,
    /// EPS per-port buffer in bytes.
    pub eps_buffer: u64,
    /// Per-VOQ capacity in bytes (switch-side VOQs; host VOQs are
    /// unbounded because host memory is the thing Figure 1 measures).
    pub voq_capacity: u64,
    /// MTU for packetization.
    pub mtu: u32,
    /// OCS reconfiguration (switching) time.
    pub reconfig: SimDuration,
    /// Scheduler epoch (decision cadence).
    pub epoch: SimDuration,
    /// Max OCS configurations per epoch.
    pub max_entries: usize,
    /// Scheduler placement.
    pub placement: Placement,
    /// Guard band applied to each edge of every grant window under slow
    /// (host-gated) scheduling: hosts start `guard` late and stop `guard`
    /// early, trading capacity for immunity to clock skew up to `guard`
    /// (§2's synchronization cost; E8 measures the trade).
    pub guard: SimDuration,
    /// Host↔switch link.
    pub host_link: Link,
    /// Route interactive (VOIP) packets through the OCS path instead of
    /// the EPS (an ablation: shows why interactive traffic must not wait
    /// for grants).
    pub voip_on_ocs: bool,
    /// Master seed.
    pub seed: u64,
}

impl NodeConfig {
    /// A sensible epoch for a given switching time: 10× the reconfiguration
    /// cost (90 % best-case duty cycle), floored at 16 MTU transmission
    /// times so a slot always fits a useful burst of packets.
    pub fn default_epoch(reconfig: SimDuration, line_rate: BitRate, mtu: u32) -> SimDuration {
        let duty_floor = reconfig * 10;
        let packet_floor = line_rate.tx_time(mtu as u64) * 16;
        duty_floor.max(packet_floor)
    }

    /// Fast-scheduling preset: hardware iSLIP-class scheduler on a switch
    /// with the given port count and OCS switching time.
    pub fn fast(n_ports: usize, reconfig: SimDuration, hw: HwSchedulerModel) -> Self {
        let line_rate = BitRate::GBPS_10;
        let mtu = 1500;
        NodeConfig {
            n_ports,
            line_rate,
            eps_rate: line_rate.scale(0.1),
            eps_buffer: 1_000_000,
            // Open-loop workloads park whole elephants in VOQs (no
            // end-to-end flow control is modelled); size for that rather
            // than for reconfiguration transients, which F1 measures
            // separately with unbounded queues.
            voq_capacity: 32_000_000,
            mtu,
            reconfig,
            epoch: Self::default_epoch(reconfig, line_rate, mtu),
            max_entries: 4,
            placement: Placement::Hardware(hw),
            guard: SimDuration::ZERO,
            host_link: Link::intra_rack(line_rate),
            voip_on_ocs: false,
            seed: 1,
        }
    }

    /// Slow-scheduling preset: software scheduler with a control channel
    /// and PTP-grade synchronization.
    pub fn slow(n_ports: usize, reconfig: SimDuration, sw: SwSchedulerModel) -> Self {
        let line_rate = BitRate::GBPS_10;
        let mtu = 1500;
        // A software scheduler cannot sustain 10×reconfig epochs at ns
        // switching times; its epoch is floored by its own decision
        // latency. Callers usually override; this default keeps runs
        // self-consistent.
        let decision = sw.mean_decision_latency(n_ports);
        let epoch = Self::default_epoch(reconfig, line_rate, mtu).max(decision * 2);
        NodeConfig {
            n_ports,
            line_rate,
            eps_rate: line_rate.scale(0.1),
            eps_buffer: 1_000_000,
            voq_capacity: 4_000_000,
            mtu,
            reconfig,
            epoch,
            max_entries: 4,
            placement: Placement::Software {
                timing: sw,
                ctrl_oneway: SimDuration::from_micros(5),
                sync: SyncModel::ptp(),
            },
            guard: SimDuration::ZERO,
            host_link: Link::intra_rack(line_rate),
            voip_on_ocs: false,
            seed: 1,
        }
    }

    /// Checks a port count on its own: at least 2, and at most 65,535,
    /// since ports are 16-bit. [`validate`](Self::validate) runs it first;
    /// a caller that sizes anything by `n` before it has a whole
    /// configuration can run it earlier.
    pub fn check_ports(n: usize) -> Result<(), String> {
        if n < 2 {
            return Err("need at least 2 ports".into());
        }
        if n > usize::from(u16::MAX) {
            return Err(format!(
                "{n} ports: ports are 16-bit, so a fabric has at most 65,535 ports"
            ));
        }
        Ok(())
    }

    /// Validates cross-field consistency.
    pub fn validate(&self) -> Result<(), String> {
        Self::check_ports(self.n_ports)?;
        if self.mtu == 0 {
            return Err("MTU must be positive".into());
        }
        if self.epoch <= self.reconfig {
            return Err(format!(
                "epoch {} must exceed reconfiguration time {}",
                self.epoch, self.reconfig
            ));
        }
        if self.max_entries == 0 {
            return Err("need at least one schedule entry per epoch".into());
        }
        let slot = self.epoch.saturating_sub(self.reconfig);
        if self.line_rate.bytes_in(slot) < self.mtu as u64 {
            return Err(format!(
                "a full epoch slot ({slot}) cannot carry one MTU — widen the epoch"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xds_hw::HwAlgo;

    fn hw() -> HwSchedulerModel {
        HwSchedulerModel::netfpga_sume(HwAlgo::Islip { iterations: 3 })
    }

    #[test]
    fn fast_preset_validates() {
        let cfg = NodeConfig::fast(16, SimDuration::from_nanos(100), hw());
        cfg.validate().unwrap();
        assert_eq!(cfg.placement.label(), "hardware");
        assert_eq!(cfg.placement.buffering_site(), Site::Switch);
    }

    #[test]
    fn slow_preset_validates_and_buffers_at_hosts() {
        let cfg = NodeConfig::slow(
            16,
            SimDuration::from_millis(1),
            SwSchedulerModel::kernel_driver(),
        );
        cfg.validate().unwrap();
        assert_eq!(cfg.placement.label(), "software");
        assert_eq!(cfg.placement.buffering_site(), Site::Host);
    }

    #[test]
    fn default_epoch_scales_with_reconfig_but_floors_at_packets() {
        let r = BitRate::GBPS_10;
        // ns switching: floor dominates (16 × 1.2 µs = 19.2 µs).
        let fast = NodeConfig::default_epoch(SimDuration::from_nanos(10), r, 1500);
        assert_eq!(fast, SimDuration::from_micros(19).max(fast)); // ≈19.2µs
        assert!(fast >= SimDuration::from_micros(19));
        // ms switching: duty cycle dominates (10 ms).
        let slow = NodeConfig::default_epoch(SimDuration::from_millis(1), r, 1500);
        assert_eq!(slow, SimDuration::from_millis(10));
    }

    #[test]
    fn validation_catches_bad_epochs() {
        let mut cfg = NodeConfig::fast(8, SimDuration::from_micros(10), hw());
        cfg.epoch = SimDuration::from_micros(5);
        assert!(cfg.validate().is_err(), "epoch below reconfig");
        let mut cfg2 = NodeConfig::fast(8, SimDuration::from_micros(10), hw());
        cfg2.n_ports = 1;
        assert!(cfg2.validate().is_err());
    }

    #[test]
    fn validation_bounds_the_port_space_at_16_bits() {
        let mut cfg = NodeConfig::fast(8, SimDuration::from_micros(10), hw());
        cfg.n_ports = 65_535;
        cfg.validate().unwrap();
        cfg.n_ports = 65_536;
        let err = cfg.validate().expect_err("ports are u16");
        assert!(err.contains("at most 65,535 ports"), "{err}");
    }

    #[test]
    fn hardware_decision_is_deterministic_software_is_not() {
        let fast = NodeConfig::fast(16, SimDuration::from_nanos(100), hw());
        let mut rng = SimRng::new(1);
        let a = fast.placement.decision_latency(16, &mut rng);
        let b = fast.placement.decision_latency(16, &mut rng);
        assert_eq!(a, b);
        let slow = NodeConfig::slow(
            16,
            SimDuration::from_millis(1),
            SwSchedulerModel::kernel_driver(),
        );
        let c = slow.placement.decision_latency(16, &mut rng);
        let d = slow.placement.decision_latency(16, &mut rng);
        assert_ne!(c, d);
        assert!(c > a, "software decisions are slower");
    }
}
