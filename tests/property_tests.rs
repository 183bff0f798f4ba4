//! Property-based tests (proptest) on the core data structures and
//! invariants: permutations/matchings, schedules, histograms, traffic
//! matrices and the demand pipeline.

use proptest::prelude::*;
use xdsched::core::demand::DemandMatrix;
use xdsched::core::sched::{
    BvnScheduler, GreedyLqfScheduler, HungarianScheduler, IslipScheduler, ScheduleCtx, Scheduler,
    SolsticeScheduler, WavefrontScheduler,
};
use xdsched::metrics::LatencyHistogram;
use xdsched::prelude::*;

fn ctx() -> ScheduleCtx {
    ScheduleCtx {
        now: SimTime::ZERO,
        line_rate: BitRate::GBPS_10,
        reconfig: SimDuration::from_micros(1),
        epoch: SimDuration::from_micros(100),
        max_entries: 6,
    }
}

/// Strategy: a demand matrix over n ports with arbitrary entries.
fn demand_strategy(n: usize) -> impl Strategy<Value = DemandMatrix> {
    proptest::collection::vec(0u64..2_000_000, n * n).prop_map(move |mut v| {
        for i in 0..n {
            v[i * n + i] = 0;
        }
        DemandMatrix::from_vec(n, v)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_scheduler_emits_valid_schedules(demand in demand_strategy(8), seed in 0u64..1000) {
        let n = 8;
        let c = ctx();
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(IslipScheduler::new(n, 3)),
            Box::new(WavefrontScheduler::new(n)),
            Box::new(GreedyLqfScheduler::new()),
            Box::new(HungarianScheduler::new()),
            Box::new(BvnScheduler::new(6)),
            Box::new(SolsticeScheduler::new(6)),
            Box::new(PimScheduler::new(n, 3, SimRng::new(seed))),
        ];
        for s in &mut schedulers {
            let sched = s.schedule(&demand, &c);
            prop_assert!(sched.validate(&c, n).is_ok(), "{} invalid: {:?}", s.name(), sched);
            // Circuits are only configured for pairs with demand (TDMA excepted, not in this list).
            for e in &sched.entries {
                for (i, j) in e.perm.pairs() {
                    prop_assert!(demand.get(i, j) > 0, "{} granted empty pair ({i},{j})", s.name());
                }
            }
        }
    }

    #[test]
    fn hungarian_dominates_greedy_weight(demand in demand_strategy(6)) {
        let h = HungarianScheduler::matching(&demand);
        let g = GreedyLqfScheduler::matching(&demand);
        let wh: u64 = h.pairs().map(|(i, j)| demand.get(i, j)).sum();
        let wg: u64 = g.pairs().map(|(i, j)| demand.get(i, j)).sum();
        prop_assert!(wh >= wg, "optimal {wh} < greedy {wg}");
        // ½-approximation bound of greedy maximal matching.
        prop_assert!(2 * wg >= wh, "greedy {wg} below half of optimal {wh}");
    }

    #[test]
    fn bvn_decomposition_never_over_serves(demand in demand_strategy(6)) {
        let decomp = BvnScheduler::decompose(&demand, 32);
        let n = demand.n();
        let mut served = DemandMatrix::zero(n);
        for (perm, w) in &decomp {
            perm.check_invariants().unwrap();
            for (i, j) in perm.pairs() {
                served.add(i, j, *w);
            }
        }
        for s in 0..n {
            for d in 0..n {
                prop_assert!(served.get(s, d) <= demand.get(s, d),
                    "pair ({s},{d}) served {} of {}", served.get(s, d), demand.get(s, d));
            }
        }
    }

    #[test]
    fn random_permutations_satisfy_invariants(seed in 0u64..10_000, n in 2usize..64) {
        let mut rng = SimRng::new(seed);
        let p = Permutation::random(n, &mut rng);
        prop_assert!(p.is_full());
        p.check_invariants().unwrap();
        // output_of and input_of are inverse.
        for i in 0..n {
            let o = p.output_of(i).unwrap();
            prop_assert_eq!(p.input_of(o), Some(i));
        }
    }

    #[test]
    fn histogram_quantiles_within_bound(values in proptest::collection::vec(1u64..1_000_000_000, 1..500)) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1] as f64;
            let approx = h.quantile(q) as f64;
            let rel = (approx - exact).abs() / exact;
            prop_assert!(rel <= 2.0 / 64.0 + 1e-9, "q={q} approx={approx} exact={exact}");
        }
        prop_assert_eq!(h.min(), sorted[0]);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
    }

    #[test]
    fn histogram_merge_equals_combined_recording(a in proptest::collection::vec(1u64..1_000_000, 0..100),
                                                 b in proptest::collection::vec(1u64..1_000_000, 0..100)) {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        let mut hc = LatencyHistogram::new();
        for &v in &a { ha.record(v); hc.record(v); }
        for &v in &b { hb.record(v); hc.record(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hc.count());
        for q in [0.1, 0.5, 0.9] {
            prop_assert_eq!(ha.quantile(q), hc.quantile(q));
        }
    }

    #[test]
    fn traffic_matrix_sampling_never_hits_diagonal(n in 2usize..16, seed in 0u64..500) {
        let mut rng = SimRng::new(seed);
        let m = TrafficMatrix::zipf(n, 1.0, &mut rng);
        for _ in 0..100 {
            let (s, d) = m.sample_pair(&mut rng);
            prop_assert!(s < n && d < n);
            prop_assert_ne!(s, d);
        }
    }

    #[test]
    fn packetize_conserves_bytes(bytes in 0u64..10_000_000, mtu in 64u32..9000) {
        let total: u64 = xds_traffic_packet_sizes(bytes, mtu);
        prop_assert_eq!(total, bytes);
    }
}

fn xds_traffic_packet_sizes(bytes: u64, mtu: u32) -> u64 {
    xdsched::traffic::packet_sizes(bytes, mtu)
        .map(u64::from)
        .sum()
}
