//! Differential pin: the bitset [`IslipScheduler`] must produce exactly
//! the matchings of the textbook scalar iSLIP loop ([`Reference`], kept
//! here and nowhere else) on every decision of a run.
//!
//! iSLIP is stateful — grant and accept pointers carry over between
//! decisions — so a divergence in one pointer update shows up only in a
//! later matching. Each case therefore drives a run of consecutive
//! decisions over requests that drift from sparse to full and back, with
//! the diagonal switched on and off. Every decision is compared three
//! ways: through `matching(&[bool])`, and through `Scheduler::schedule`
//! on an untracked and on a support-tracked `DemandMatrix`. Port counts
//! cover one word, the word edges (63/64/65) and the two-word edges
//! (127/128/129) of the bitsets.

use proptest::prelude::*;
use xds_core::demand::DemandMatrix;
use xds_core::sched::{IslipScheduler, ScheduleCtx, Scheduler};
use xds_sim::{BitRate, SimDuration, SimRng, SimTime};
use xds_switch::Permutation;

/// Decisions per case: enough for pointers to wrap several times.
const DECISIONS: usize = 32;

/// Request densities the drift sweeps through, sparse to full.
const DENSITIES: [f64; 8] = [0.0, 0.01, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0];

/// Scalar iSLIP: for each probe, a `%` and a read of the row-major
/// request matrix. The bitset scheduler replaced this loop.
struct Reference {
    n: usize,
    iterations: u32,
    grant_ptr: Vec<usize>,
    accept_ptr: Vec<usize>,
}

impl Reference {
    fn new(n: usize, iterations: u32) -> Self {
        Reference {
            n,
            iterations,
            grant_ptr: vec![0; n],
            accept_ptr: vec![0; n],
        }
    }

    #[allow(clippy::needless_range_loop)] // RR pointer phases read best with indices
    fn matching(&mut self, requests: &[bool]) -> Permutation {
        let n = self.n;
        let mut in_matched = vec![false; n];
        let mut out_matched = vec![false; n];
        let mut perm = Permutation::empty(n);
        for iter in 0..self.iterations {
            let mut grant: Vec<Option<usize>> = vec![None; n];
            for out in 0..n {
                if out_matched[out] {
                    continue;
                }
                for k in 0..n {
                    let inp = (self.grant_ptr[out] + k) % n;
                    if !in_matched[inp] && requests[inp * n + out] {
                        grant[out] = Some(inp);
                        break;
                    }
                }
            }
            for inp in 0..n {
                if in_matched[inp] {
                    continue;
                }
                for k in 0..n {
                    let out = (self.accept_ptr[inp] + k) % n;
                    if grant[out] == Some(inp) && !out_matched[out] {
                        in_matched[inp] = true;
                        out_matched[out] = true;
                        perm.set(inp, out).expect("phases keep matching valid");
                        if iter == 0 {
                            self.grant_ptr[out] = (inp + 1) % n;
                            self.accept_ptr[inp] = (out + 1) % n;
                        }
                        break;
                    }
                }
            }
        }
        perm
    }
}

fn ctx() -> ScheduleCtx {
    ScheduleCtx {
        now: SimTime::ZERO,
        line_rate: BitRate::GBPS_10,
        reconfig: SimDuration::from_micros(1),
        epoch: SimDuration::from_micros(100),
        max_entries: 1,
    }
}

/// Moves the requests one step: the density walks up the `DENSITIES`
/// ladder and back down, a 0 or 1 density jumps every cell at once,
/// others redraw a random share of the cells. The diagonal is then
/// forced on or off.
fn drift(requests: &mut [bool], n: usize, decision: usize, rng: &mut SimRng) {
    let span = DENSITIES.len() - 1;
    let step = decision % (2 * span);
    let density = DENSITIES[step.min(2 * span - step)];
    if density == 0.0 || density == 1.0 {
        requests.fill(density == 1.0);
    } else {
        let changes = 1 + rng.below_usize(n * n);
        for _ in 0..changes {
            requests[rng.below_usize(n * n)] = rng.bool(density);
        }
    }
    let diagonal = (decision / 3).is_multiple_of(2);
    for i in 0..n {
        requests[i * n + i] = diagonal;
    }
}

/// Writes the requests into a demand matrix in place: a requested cell
/// keeps its bytes or gets fresh ones, the rest drain to zero (in a
/// tracked matrix they stay in the support as stale cells).
fn sync_demand(demand: &mut DemandMatrix, requests: &[bool], rng: &mut SimRng) {
    let n = demand.n();
    for (idx, &r) in requests.iter().enumerate() {
        let (s, d) = (idx / n, idx % n);
        if !r {
            demand.set(s, d, 0);
        } else if demand.get(s, d) == 0 {
            demand.set(s, d, 1 + rng.below(1 << 20));
        }
    }
}

/// Runs `DECISIONS` decisions at `n` ports and asserts every entry point
/// of the bitset scheduler matches the reference on each.
fn check_run(n: usize, iterations: u32, seed: u64) {
    let mut rng = SimRng::new(seed);
    let c = ctx();
    let mut reference = Reference::new(n, iterations);
    let mut by_bools = IslipScheduler::new(n, iterations);
    let mut by_demand = IslipScheduler::new(n, iterations);
    let mut by_tracked = IslipScheduler::new(n, iterations);
    let mut requests = vec![false; n * n];
    let mut demand = DemandMatrix::zero(n);
    let mut tracked = DemandMatrix::zero_tracked(n);
    for decision in 0..DECISIONS {
        drift(&mut requests, n, decision, &mut rng);
        sync_demand(&mut demand, &requests, &mut rng);
        // Cell writes, not `copy_from`: drained cells stay in the support.
        for (idx, &b) in demand.as_slice().iter().enumerate() {
            if tracked.as_slice()[idx] != b {
                tracked.set_cell(idx, b);
            }
        }
        let want = reference.matching(&requests);
        let case = format!("n={n} iterations={iterations} seed={seed} decision={decision}");
        assert_eq!(by_bools.matching(&requests), want, "matching: {case}");
        for (label, s, d) in [
            ("untracked", &mut by_demand, &demand),
            ("tracked", &mut by_tracked, &tracked),
        ] {
            let sched = s.schedule(d, &c);
            if want.is_empty() {
                assert!(sched.entries.is_empty(), "{label} schedule: {case}");
            } else {
                assert_eq!(sched.entries.len(), 1, "{label} schedule: {case}");
                assert_eq!(sched.entries[0].perm, want, "{label} schedule: {case}");
                assert_eq!(sched.entries[0].slot, c.usable_time(1), "{label}: {case}");
            }
        }
    }
}

/// The sizes where a bitset row gains its second and third word.
#[test]
fn word_edge_sizes_equal_reference() {
    for n in [63, 64, 65, 127, 128, 129] {
        for iterations in 1..=4 {
            check_run(n, iterations, 1000 * n as u64 + iterations as u64);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random port counts and iteration counts over drifting requests.
    #[test]
    fn bitset_islip_equals_reference_across_decisions(
        n in 1usize..=200,
        iterations in 1u32..=4,
        seed in 0u64..10_000,
    ) {
        check_run(n, iterations, seed);
    }
}
