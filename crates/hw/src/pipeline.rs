//! Pipelined-datapath latency model.
//!
//! A hardware scheduler is a pipeline: demand snapshot → algorithm →
//! grant fan-out. Latency is the sum of stage depths. This is the model
//! used to claim "hardware may not be fast by default, but with proper
//! implementation fast, high performance operation can be achieved" (§3).

use xds_sim::SimDuration;

use crate::clock::ClockDomain;

/// One pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    /// Human-readable stage name (shows up in the F2 latency budget).
    pub name: &'static str,
    /// Stage depth in cycles.
    pub cycles: u64,
}

/// A fixed-function pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pipeline {
    stages: Vec<Stage>,
}

impl Pipeline {
    /// Builds a pipeline from its stages, in order.
    pub fn new(stages: Vec<Stage>) -> Self {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        Pipeline { stages }
    }

    /// The stages.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// End-to-end latency in cycles.
    pub fn latency_cycles(&self) -> u64 {
        self.stages.iter().map(|s| s.cycles).sum()
    }

    /// End-to-end latency in time.
    pub fn latency(&self, clock: ClockDomain) -> SimDuration {
        clock.cycles_to_time(self.latency_cycles())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Pipeline {
        Pipeline::new(vec![
            Stage {
                name: "demand",
                cycles: 4,
            },
            Stage {
                name: "algo",
                cycles: 20,
            },
            Stage {
                name: "grant",
                cycles: 2,
            },
        ])
    }

    #[test]
    fn latency_is_stage_sum() {
        let p = sample();
        assert_eq!(p.latency_cycles(), 26);
        assert_eq!(
            p.latency(ClockDomain::NETFPGA_SUME),
            SimDuration::from_nanos(130)
        );
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_rejected() {
        Pipeline::new(vec![]);
    }
}
