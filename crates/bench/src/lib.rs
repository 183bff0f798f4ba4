//! # xds-bench — the experiment harness
//!
//! One binary per figure/claim of the paper. Each binary regenerates its
//! table on stdout and saves CSV/JSON under `results/`:
//!
//! | binary | id | paper claim |
//! |---|---|---|
//! | `fig1_buffering` | F1 | §2: a 64×64 10 Gb/s switch needs GB of buffering at ms switching, KB at ns |
//! | `fig2_pipeline` | F2 | Fig. 2: processing, scheduling and switching logic form one pipeline |
//! | `exp_sched_latency` | E3 | §2: slow schedulers waste network resources |
//! | `exp_voip_jitter` | E4 | §2: slow scheduling raises VOIP/gaming latency and jitter |
//! | `exp_algorithms` | E5 | §3: the framework lets new hybrid schedulers be compared |
//! | `exp_demand` | E6 | §2: hardware schedulers estimate demand quickly |
//! | `exp_scalability` | E7 | §3: hardware scheduling stays fast, and fits the SUME, as ports grow |
//! | `exp_sync` | E8 | §2: software scheduling needs tight host–switch sync |
//! | `exp_hybrid` | E9 | §1: the OCS serves long bursts, the EPS the rest |
//! | `exp_ablation` | E10 | ablations: iSLIP iterations, decomposition budget, epoch length |
//!
//! The `sweep` binary is the scenario library's command-line front end.
//! The heavy lifting — scenario description, grid enumeration and the
//! parallel sweep — lives in [`xds_scenario`]; this crate keeps only
//! presentation helpers:
//!
//! * [`parallel_map`] — re-exported order-preserving parallel runner
//!   (the simulations are single-threaded and deterministic; sweeps fan
//!   out across cores);
//! * [`standard_fast`] / [`standard_slow`] — the placement presets every
//!   experiment starts from, so results are comparable across binaries;
//! * [`emit`] — uniform stdout + CSV emission.

#![warn(missing_docs)]

pub mod bench;
pub mod validate;

use std::path::Path;

use xds_core::config::NodeConfig;
use xds_hw::{HwAlgo, HwSchedulerModel, SwSchedulerModel};
use xds_metrics::Table;
use xds_sim::SimDuration;

pub use xds_scenario::parallel_map;

/// The standard hardware placement: NetFPGA-SUME clock, 3-iteration iSLIP
/// cost model.
pub fn standard_fast(n: usize, reconfig: SimDuration) -> NodeConfig {
    NodeConfig::fast(
        n,
        reconfig,
        HwSchedulerModel::netfpga_sume(HwAlgo::Islip { iterations: 3 }),
    )
}

/// The standard software placement: kernel-driver control path.
pub fn standard_slow(n: usize, reconfig: SimDuration) -> NodeConfig {
    NodeConfig::slow(n, reconfig, SwSchedulerModel::kernel_driver())
}

/// Prints the table and saves it as `results/<name>.csv` (best-effort:
/// failures to write are reported, not fatal — the stdout copy is the
/// canonical artefact).
pub fn emit(name: &str, table: &Table) {
    print!("{}", table.render_text());
    let dir = Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = std::fs::write(&path, table.render_csv()) {
            eprintln!("(could not save {}: {e})", path.display());
        } else {
            println!("[saved {}]", path.display());
        }
    }
    println!();
}

/// Prints the sweep's aggregate table and saves its JSON + CSV rows under
/// `results/<name>.{json,csv}` — the uniform artefact set of every
/// scenario-driven experiment.
pub fn emit_sweep(name: &str, title: &str, results: &xds_scenario::SweepResults) {
    emit_sweep_with(name, title, results, false);
}

/// [`emit_sweep`] with the deterministic internal-counter column group
/// optionally included in the JSON/CSV rows (the `--counters` flag of
/// the `sweep` binary).
pub fn emit_sweep_with(
    name: &str,
    title: &str,
    results: &xds_scenario::SweepResults,
    counters: bool,
) {
    print!("{}", results.summary_table(title).render_text());
    for path in results.write_artifacts_with(name, counters) {
        println!("[saved {}]", path.display());
    }
    println!();
}

/// Prints an experiment banner with its id from the crate-level index
/// (F1, F2, E3–E10).
pub fn banner(id: &str, title: &str, what: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("{what}");
    println!("================================================================\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let got = parallel_map((0..100).collect(), |x: u64| x * 2);
        assert_eq!(got, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_is_empty() {
        let got: Vec<u32> = parallel_map(Vec::<u32>::new(), |x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn parallel_map_runs_heavy_closures() {
        // Results depend only on input, not scheduling.
        let got = parallel_map(vec![30u64, 1, 25, 7], |x| {
            (0..x * 10_000).fold(0u64, |a, b| a.wrapping_add(b)) & 0xff
        });
        let want: Vec<u64> = vec![30u64, 1, 25, 7]
            .into_iter()
            .map(|x| (0..x * 10_000).fold(0u64, |a, b| a.wrapping_add(b)) & 0xff)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn standard_configs_validate() {
        standard_fast(16, SimDuration::from_nanos(100))
            .validate()
            .unwrap();
        standard_slow(16, SimDuration::from_millis(1))
            .validate()
            .unwrap();
    }
}
