//! Criterion micro-benchmarks of the substrates the simulator's
//! throughput depends on: event queue, histogram recording, and a small
//! end-to-end run (events/second of the whole framework).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use xds_core::config::NodeConfig;
use xds_core::demand::MirrorEstimator;
use xds_core::node::Workload;
use xds_core::runtime::SimBuilder;
use xds_core::sched::IslipScheduler;
use xds_hw::{HwAlgo, HwSchedulerModel};
use xds_metrics::LatencyHistogram;
use xds_sim::{BitRate, EventQueue, SimDuration, SimRng, SimTime};
use xds_traffic::{FlowGenerator, FlowSizeDist, TrafficMatrix};

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("push_pop_10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut rng = SimRng::new(1);
            for i in 0..10_000u64 {
                q.schedule_at(SimTime::from_nanos(rng.below(1_000_000_000)), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let mut group = c.benchmark_group("latency_histogram");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("record_10k", |b| {
        let mut rng = SimRng::new(2);
        let values: Vec<u64> = (0..10_000).map(|_| rng.below(1_000_000_000)).collect();
        b.iter(|| {
            let mut h = LatencyHistogram::new();
            for &v in &values {
                h.record(v);
            }
            black_box(h.p99())
        });
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("hybrid_sim_1ms_8ports", |b| {
        b.iter(|| {
            let n = 8;
            let cfg = NodeConfig::fast(
                n,
                SimDuration::from_micros(1),
                HwSchedulerModel::netfpga_sume(HwAlgo::Islip { iterations: 3 }),
            );
            let w = Workload::flows(FlowGenerator::with_load(
                TrafficMatrix::uniform(n),
                FlowSizeDist::Fixed(150_000),
                0.5,
                BitRate::GBPS_10,
                SimRng::new(4),
            ));
            let r = SimBuilder::new(cfg)
                .workload(w)
                .scheduler(Box::new(IslipScheduler::new(n, 3)))
                .estimator(Box::new(MirrorEstimator::new(n)))
                .build()
                .expect("valid testbed")
                .run(SimTime::from_millis(1));
            black_box(r.delivered_bytes())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_histogram,
    bench_end_to_end
);
criterion_main!(benches);
