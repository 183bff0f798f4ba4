//! **E10 (ablations)**: three design choices of the scheduling logic,
//! isolated.
//!
//! 1. **iSLIP iteration count** — how many request–grant–accept rounds
//!    does the hardware need? (Each costs `2·⌈log₂n⌉+2` cycles.)
//! 2. **Decomposition budget** — how many OCS configurations per epoch
//!    are worth their dark windows (Solstice's `max_entries`)?
//! 3. **Epoch length** — the duty-cycle vs responsiveness trade: long
//!    epochs amortize reconfiguration but add queueing delay.
//!
//! Each ablation is a thin `xds-scenario` sweep (a schedulers axis, a
//! coupled scheduler+budget spec list, and an epochs axis respectively).
//!
//! ```sh
//! cargo run --release -p xds-bench --bin exp_ablation
//! ```

use xds_bench::{banner, emit, emit_sweep};
use xds_hw::{ClockDomain, HwAlgo};
use xds_metrics::Table;
use xds_scenario::{ScenarioSpec, SchedulerKind, SweepExecutor, SweepGrid, TrafficPattern};
use xds_sim::SimDuration;

const N: usize = 16;

fn base(name: &str, load: f64) -> ScenarioSpec {
    ScenarioSpec::new(name)
        .with_ports(N)
        .with_load(load)
        .with_duration(SimDuration::from_millis(15))
        .with_seed(81)
}

fn main() {
    banner(
        "E10",
        "ablations: iSLIP iterations, decomposition budget, epoch length",
        "16x16 @ 10G, bulk flows; each table isolates one design parameter.",
    );

    // --- (1) iSLIP iterations. ---
    let iters: Vec<u32> = vec![1, 2, 3, 4, 6];
    let grid = SweepGrid::new(base("e10a", 0.8)).schedulers(
        iters
            .iter()
            .map(|&i| SchedulerKind::Islip { iterations: i })
            .collect(),
    );
    let results = SweepExecutor::new().run(grid.specs());
    let mut t1 = Table::new(
        "E10a: iSLIP iteration count (uniform @ 0.8)",
        &[
            "iterations",
            "hw cycles",
            "hw latency",
            "thru(Gbps)",
            "p99 bulk(us)",
        ],
    );
    for (j, &i) in iters.iter().enumerate() {
        let Some(r) = results.report(j) else { continue };
        let cycles = HwAlgo::Islip { iterations: i }.schedule_cycles(N);
        t1.row(vec![
            i.to_string(),
            cycles.to_string(),
            ClockDomain::NETFPGA_SUME.cycles_to_time(cycles).to_string(),
            format!("{:.2}", r.throughput_gbps()),
            format!("{:.1}", r.latency_bulk.p99() as f64 / 1e3),
        ]);
    }
    emit("exp_ablation_islip_iters", &t1);
    emit_sweep("exp_ablation_islip_points", "E10a point dump", &results);

    // --- (2) Solstice configuration budget. ---
    // Demand spanning 3 disjoint permutations: fewer entries than 3
    // cannot cover it within one epoch. The scheduler's permutation
    // budget and the runtime's entry budget move together — a coupled
    // axis, so the points are derived from the base. Long epochs (400 µs)
    // make within-epoch coverage matter.
    let budgets: Vec<usize> = vec![1, 2, 3, 4, 6, 8];
    let specs: Vec<ScenarioSpec> = budgets
        .iter()
        .map(|&b| {
            base("e10b", 0.6)
                .with_name(format!("e10b/me{b}"))
                .with_pattern(TrafficPattern::MultiRing {
                    shifts: vec![1, 5, 9],
                })
                .with_scheduler(SchedulerKind::Solstice { perms: b as u32 })
                .with_epoch(SimDuration::from_micros(400))
                .with_max_entries(b)
        })
        .collect();
    let results = SweepExecutor::new().run(specs);
    let mut t2 = Table::new(
        "E10b: configurations per epoch (3-permutation demand @ 0.6, 400us epochs)",
        &[
            "max entries",
            "thru(Gbps)",
            "reconfigs",
            "duty%",
            "p99 bulk(us)",
        ],
    );
    for (j, &b) in budgets.iter().enumerate() {
        let Some(r) = results.report(j) else { continue };
        t2.row(vec![
            b.to_string(),
            format!("{:.2}", r.throughput_gbps()),
            r.ocs.reconfigurations.to_string(),
            format!("{:.1}", r.ocs_duty_cycle() * 100.0),
            format!("{:.1}", r.latency_bulk.p99() as f64 / 1e3),
        ]);
    }
    emit("exp_ablation_entries", &t2);
    emit_sweep("exp_ablation_entries_points", "E10b point dump", &results);

    // --- (3) Epoch length (duty cycle vs queueing delay). ---
    let epochs: Vec<SimDuration> = vec![
        SimDuration::from_micros(20),
        SimDuration::from_micros(50),
        SimDuration::from_micros(100),
        SimDuration::from_micros(400),
        SimDuration::from_millis(2),
    ];
    let grid = SweepGrid::new(base("e10c", 0.6)).epochs(epochs.clone());
    let results = SweepExecutor::new().run(grid.specs());
    let mut t3 = Table::new(
        "E10c: epoch length (uniform @ 0.6, reconfig 1us)",
        &[
            "epoch",
            "duty%",
            "thru(Gbps)",
            "p99 bulk(us)",
            "peak switch buf",
        ],
    );
    for (j, e) in epochs.iter().enumerate() {
        let Some(r) = results.report(j) else { continue };
        t3.row(vec![
            e.to_string(),
            format!("{:.1}", r.ocs_duty_cycle() * 100.0),
            format!("{:.2}", r.throughput_gbps()),
            format!("{:.1}", r.latency_bulk.p99() as f64 / 1e3),
            xds_metrics::fmt_bytes(r.peak_switch_buffer),
        ]);
    }
    emit("exp_ablation_epoch", &t3);
    emit_sweep("exp_ablation_epoch_points", "E10c point dump", &results);

    println!(
        "findings: (a) throughput saturates by ~log2(n) iterations — extra\n\
         rounds cost cycles for nothing; (b) with stretchable slots the\n\
         configuration budget barely moves *throughput* (under-budgeted\n\
         schedulers serve fewer permutations per epoch but hold them longer,\n\
         self-balancing across epochs) — the budget is a tail-latency knob;\n\
         (c) short epochs burn capacity on reconfiguration (low duty), long\n\
         epochs trade it for queueing delay and buffer — the sweet spot sits\n\
         at 10-50x the switching time, which is why fast switching needs a\n\
         fast scheduler."
    );
}
