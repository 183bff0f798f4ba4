//! **F2 — Figure 2**: the proposed implementation, exercised end to end.
//!
//! Reproduces the architecture walk-through: processing logic (classify →
//! VOQ → requests), scheduling logic (demand estimation → algorithm →
//! grants), switching logic (OCS configured *before* grants execute; EPS
//! carries residuals). Prints the hardware latency budget per partition
//! and proves the pipeline invariants on a live run; exits nonzero when
//! one fails.
//!
//! ```sh
//! cargo run --release -p xds-bench --bin fig2_pipeline
//! ```

use std::process::ExitCode;

use xds_bench::{banner, emit, standard_fast};
use xds_core::demand::MirrorEstimator;
use xds_core::node::Workload;
use xds_core::runtime::SimBuilder;
use xds_core::sched::IslipScheduler;
use xds_hw::{ClockDomain, HwAlgo, HwSchedulerModel};
use xds_metrics::Table;
use xds_net::PortNo;
use xds_sim::{BitRate, SimDuration, SimRng, SimTime};
use xds_traffic::{CbrApp, FlowGenerator, FlowSizeDist, TrafficMatrix};

fn main() -> ExitCode {
    let n = 8;
    banner(
        "F2",
        "Figure 2 — processing / scheduling / switching logic pipeline",
        "8x8 hybrid ToR, hardware iSLIP scheduler, mixed workload; per-stage\n\
         latency budget plus live invariants (configure-before-grant, zero\n\
         misrouting, residual traffic on the EPS).",
    );

    // --- Scheduling-logic latency budget (the hardware pipeline). ---
    let model = HwSchedulerModel::netfpga_sume(HwAlgo::Islip { iterations: 3 });
    let pipe = model.pipeline(n);
    let mut stage_table = Table::new(
        format!(
            "scheduling-logic pipeline @ {} MHz (n={n})",
            ClockDomain::NETFPGA_SUME.freq_hz() / 1_000_000
        ),
        &["stage", "cycles", "latency"],
    );
    for s in pipe.stages() {
        stage_table.row(vec![
            s.name.to_string(),
            s.cycles.to_string(),
            ClockDomain::NETFPGA_SUME
                .cycles_to_time(s.cycles)
                .to_string(),
        ]);
    }
    stage_table.row(vec![
        "TOTAL".into(),
        pipe.latency_cycles().to_string(),
        pipe.latency(ClockDomain::NETFPGA_SUME).to_string(),
    ]);
    emit("fig2_stage_budget", &stage_table);

    // --- Live run through all three partitions. ---
    let cfg = standard_fast(n, SimDuration::from_nanos(100));
    let flows = FlowGenerator::with_load(
        TrafficMatrix::hotspot(n, 2, 0.4, 0),
        FlowSizeDist::WebSearch,
        0.4,
        BitRate::GBPS_10,
        SimRng::new(7),
    );
    let apps = vec![CbrApp::voip(0, PortNo(1), PortNo(6), SimTime::ZERO)];
    let report = SimBuilder::new(cfg)
        .workload(Workload::flows(flows).with_apps(apps))
        .scheduler(Box::new(IslipScheduler::new(n, 3)))
        .estimator(Box::new(MirrorEstimator::new(n)))
        .build()
        .expect("valid testbed")
        .run(SimTime::from_millis(20));

    emit("fig2_run_summary", &report.summary_table());

    let mut inv = Table::new(
        "pipeline invariants (must all hold)",
        &["invariant", "value", "ok"],
    );
    let checks: Vec<(&str, String, bool)> = vec![
        (
            "grants only on live circuits (ocs rejects)",
            report.ocs.rejected.to_string(),
            report.ocs.rejected == 0,
        ),
        (
            "no sync violations in hardware placement",
            report.drops.sync_violation.to_string(),
            report.drops.sync_violation == 0,
        ),
        (
            "bulk rides circuits (ocs bytes)",
            report.delivered_ocs_bytes.to_string(),
            report.delivered_ocs_bytes > 0,
        ),
        (
            "residual rides the EPS (eps bytes)",
            report.delivered_eps_bytes.to_string(),
            report.delivered_eps_bytes > 0,
        ),
        (
            "host buffers stay empty (fast scheduling)",
            report.peak_host_buffer.to_string(),
            report.peak_host_buffer == 0,
        ),
        (
            "scheduler ran every epoch",
            report.decisions.to_string(),
            report.decisions > 500,
        ),
    ];
    let mut all_ok = true;
    for (name, value, ok) in checks {
        all_ok &= ok;
        inv.row(vec![
            name.to_string(),
            value,
            if ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    emit("fig2_invariants", &inv);
    if all_ok {
        println!("figure-2 pipeline: ALL INVARIANTS HOLD");
        ExitCode::SUCCESS
    } else {
        println!("figure-2 pipeline: INVARIANT VIOLATION — investigate!");
        ExitCode::FAILURE
    }
}
