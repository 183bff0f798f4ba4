//! iSLIP (McKeown): iterative round-robin matching with "slip" pointer
//! updates — the canonical hardware crossbar scheduler and the default
//! algorithm of this framework's scheduling logic.
//!
//! Per iteration: unmatched outputs *grant* to the first requesting input
//! at or after their grant pointer; unmatched inputs *accept* the first
//! grant at or after their accept pointer. Pointers advance **only when a
//! grant is accepted in the first iteration** — the property that
//! desynchronizes pointers and yields 100 % throughput under uniform
//! traffic.
//!
//! # Bitset layout
//!
//! The scheduler computes on bits, one `u64` word per 64 ports, with bit
//! `p % 64` of word `p / 64` standing for port `p` (bits past `n` in the
//! last word stay zero):
//!
//! * `requests` — one row of `⌈n/64⌉` words per **output**, over the
//!   inputs: bit `inp` of row `out` is set iff `demand(inp, out) > 0`.
//!   It is rebuilt every decision from the demand's non-zero cells.
//! * `grants` — one row per **input**, over the outputs: bit `out` of
//!   row `inp` is set iff output `out` granted to `inp` in the current
//!   iteration. Rows are zeroed again as the accept phase reads them.
//! * `granted` — the inputs holding at least one grant this iteration.
//! * `in_matched` / `out_matched` — the ports matched so far.
//!
//! # Why the choices equal the scalar scan's
//!
//! The scalar algorithm probes ports `ptr, ptr + 1, …, n − 1, 0, …,
//! ptr − 1` and takes the first that qualifies. `next_from` visits the
//! same order a word at a time: the pointer's word above the pointer,
//! the later words, the earlier words, then the pointer's word below the
//! pointer. Within a word `trailing_zeros` returns the lowest set bit,
//! which is the first qualifying port in that order.
//!
//! * Grant: for output `out`, input `inp` qualifies iff it requests
//!   `out` and is unmatched — the word `requests[out] & !in_matched`.
//! * Accept: for input `inp`, output `out` qualifies iff it granted to
//!   `inp` — the word `grants[inp]`. The scalar scan also checks that
//!   `out` is unmatched; that always holds, because an output grants
//!   only while unmatched and grants to one input only, so no other input
//!   can match it within the same accept phase.
//!
//! The accept phase visits only the inputs that hold a grant, tracked in
//! `granted`; the scalar scan finds no grant for the others. An
//! iteration that grants nothing leaves every matched set and pointer as
//! it was, so every later iteration would grant nothing too: the loop
//! stops there.

use xds_hw::HwAlgo;

use crate::demand::DemandMatrix;

use super::{single_entry_schedule, Schedule, ScheduleCtx, Scheduler};
use xds_switch::Permutation;

/// iSLIP scheduler state: one grant pointer per output, one accept pointer
/// per input, and the bitset buffers every decision reuses.
#[derive(Debug, Clone)]
pub struct IslipScheduler {
    n: usize,
    iterations: u32,
    grant_ptr: Vec<usize>,
    accept_ptr: Vec<usize>,
    /// `⌈n/64⌉`: words per bitset row.
    words: usize,
    /// Row `out` over the inputs requesting it (`n × words`).
    requests: Vec<u64>,
    /// Row `inp` over the outputs granting it this iteration (`n × words`).
    grants: Vec<u64>,
    /// Inputs holding at least one grant this iteration.
    granted: Vec<u64>,
    in_matched: Vec<u64>,
    out_matched: Vec<u64>,
}

/// Bit `p % 64` of word `p / 64`.
fn bit(p: usize) -> u64 {
    1 << (p % 64)
}

/// The first set bit at or after `from` in the `words`-word bitset
/// `word(0), …, word(words − 1)`, wrapping round to bit 0. Bits at `n`
/// and above are always clear, so this wraps exactly as a scan over
/// `from, …, n − 1, 0, …, from − 1` does.
fn next_from(words: usize, from: usize, word: impl Fn(usize) -> u64) -> Option<usize> {
    let (fw, fb) = (from / 64, from % 64);
    let first = word(fw);
    let high = first & (!0 << fb);
    if high != 0 {
        return Some(fw * 64 + high.trailing_zeros() as usize);
    }
    for w in (fw + 1..words).chain(0..fw) {
        let x = word(w);
        if x != 0 {
            return Some(w * 64 + x.trailing_zeros() as usize);
        }
    }
    let low = first & !(!0 << fb);
    (low != 0).then(|| fw * 64 + low.trailing_zeros() as usize)
}

impl IslipScheduler {
    /// Creates an iSLIP scheduler for `n` ports with the given iteration
    /// count (McKeown: `log₂ n` iterations suffice in practice).
    pub fn new(n: usize, iterations: u32) -> Self {
        assert!(n > 0 && iterations > 0);
        let words = n.div_ceil(64);
        IslipScheduler {
            n,
            iterations,
            grant_ptr: vec![0; n],
            accept_ptr: vec![0; n],
            words,
            requests: vec![0; n * words],
            grants: vec![0; n * words],
            granted: vec![0; words],
            in_matched: vec![0; words],
            out_matched: vec![0; words],
        }
    }

    /// Computes one matching from a row-major `n × n` request matrix
    /// (`requests[inp * n + out]`; exposed for unit tests).
    pub fn matching(&mut self, requests: &[bool]) -> Permutation {
        self.pack(requests, |&r| r);
        self.run()
    }

    /// Rebuilds the `requests` rows from a row-major `n × n` matrix:
    /// bit `inp` of row `out` is set iff `wants(cell(inp, out))`.
    fn pack<T>(&mut self, cells: &[T], wants: impl Fn(&T) -> bool) {
        assert_eq!(cells.len(), self.n * self.n, "request matrix size mismatch");
        let words = self.words;
        self.requests.fill(0);
        for (inp, row) in cells.chunks_exact(self.n).enumerate() {
            for (out, _) in row.iter().enumerate().filter(|(_, c)| wants(c)) {
                self.requests[out * words + inp / 64] |= bit(inp);
            }
        }
    }

    /// The iterations over the packed `requests` rows.
    fn run(&mut self) -> Permutation {
        let (n, words) = (self.n, self.words);
        let mut perm = Permutation::empty(n);
        self.in_matched.fill(0);
        self.out_matched.fill(0);
        for iter in 0..self.iterations {
            // Grant phase: each unmatched output grants to the first
            // requesting, unmatched input at or after its pointer.
            let mut any = false;
            for out in 0..n {
                if self.out_matched[out / 64] & bit(out) != 0 {
                    continue;
                }
                let row = &self.requests[out * words..(out + 1) * words];
                let in_matched = &self.in_matched;
                let free = |w: usize| row[w] & !in_matched[w];
                if let Some(inp) = next_from(words, self.grant_ptr[out], free) {
                    self.grants[inp * words + out / 64] |= bit(out);
                    self.granted[inp / 64] |= bit(inp);
                    any = true;
                }
            }
            if !any {
                break;
            }
            // Accept phase: each granted input accepts the first grant at
            // or after its pointer. Granted inputs are unmatched by
            // construction.
            for w in 0..words {
                let mut word = std::mem::take(&mut self.granted[w]);
                while word != 0 {
                    let inp = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let row = &mut self.grants[inp * words..(inp + 1) * words];
                    let out = next_from(words, self.accept_ptr[inp], |w| row[w])
                        .expect("a granted input holds a grant");
                    row.fill(0);
                    self.in_matched[inp / 64] |= bit(inp);
                    self.out_matched[out / 64] |= bit(out);
                    perm.set(inp, out).expect("phases keep matching valid");
                    if iter == 0 {
                        self.grant_ptr[out] = (inp + 1) % n;
                        self.accept_ptr[inp] = (out + 1) % n;
                    }
                }
            }
        }
        perm
    }
}

impl Scheduler for IslipScheduler {
    fn name(&self) -> &'static str {
        "islip"
    }

    fn hw_algo(&self) -> HwAlgo {
        HwAlgo::Islip {
            iterations: self.iterations,
        }
    }

    fn schedule(&mut self, demand: &DemandMatrix, ctx: &ScheduleCtx) -> Schedule {
        assert_eq!(demand.n(), self.n, "demand size mismatch");
        self.pack(demand.as_slice(), |&b| b > 0);
        let perm = self.run();
        single_entry_schedule(perm, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::{ctx, run_and_validate};

    fn full_requests(n: usize) -> Vec<bool> {
        let mut r = vec![true; n * n];
        for i in 0..n {
            r[i * n + i] = false; // no self traffic
        }
        r
    }

    #[test]
    fn sustained_uniform_backlog_converges_to_full_matchings() {
        // On the first slots the aligned pointers serialize grants (the
        // known cold-start behaviour); once desynchronized, iSLIP serves
        // full matchings — 100 % throughput under uniform backlog.
        let mut s = IslipScheduler::new(8, 3);
        let r = full_requests(8);
        for _ in 0..30 {
            s.matching(&r); // warm-up: desynchronize pointers
        }
        let filled: usize = (0..20).map(|_| s.matching(&r).assigned()).sum();
        assert!(filled >= 150, "steady state should fill: {filled}/160");
    }

    #[test]
    fn more_iterations_fill_faster_from_cold_start() {
        let mut one = IslipScheduler::new(16, 1);
        let mut four = IslipScheduler::new(16, 4);
        let r = full_requests(16);
        let a: usize = (0..10).map(|_| one.matching(&r).assigned()).sum();
        let b: usize = (0..10).map(|_| four.matching(&r).assigned()).sum();
        assert!(b >= a, "more iterations can't do worse: {b} vs {a}");
        assert!(
            b >= 100,
            "4-iteration iSLIP fills most ports even cold: {b}/160"
        );
    }

    #[test]
    fn pointers_desynchronize_under_uniform_load() {
        // The hallmark of iSLIP: after a few rounds of full uniform
        // requests, outputs serve different inputs each round
        // (round-robin), so every input gets service — count service per
        // input over n rounds.
        let n = 4;
        let mut s = IslipScheduler::new(n, 1);
        let r = full_requests(n);
        let mut service = vec![0u32; n];
        for _ in 0..40 {
            for (i, _) in s.matching(&r).pairs() {
                service[i] += 1;
            }
        }
        for (i, &c) in service.iter().enumerate() {
            assert!(c >= 25, "input {i} starved: {c}/40 rounds");
        }
    }

    #[test]
    fn respects_requests() {
        let mut s = IslipScheduler::new(4, 2);
        let mut demand = DemandMatrix::zero(4);
        demand.set(0, 2, 1000);
        demand.set(1, 3, 500);
        let sched = run_and_validate(&mut s, &demand, &ctx());
        assert_eq!(sched.entries.len(), 1);
        let p = &sched.entries[0].perm;
        assert_eq!(p.output_of(0), Some(2));
        assert_eq!(p.output_of(1), Some(3));
        assert_eq!(p.output_of(2), None);
    }

    #[test]
    fn empty_demand_empty_schedule() {
        let mut s = IslipScheduler::new(4, 2);
        let sched = run_and_validate(&mut s, &DemandMatrix::zero(4), &ctx());
        assert!(sched.entries.is_empty());
    }

    #[test]
    fn contention_resolved_one_winner_per_output() {
        let mut s = IslipScheduler::new(4, 3);
        let mut demand = DemandMatrix::zero(4);
        // Everyone wants output 0.
        for i in 1..4 {
            demand.set(i, 0, 100);
        }
        let sched = run_and_validate(&mut s, &demand, &ctx());
        let p = &sched.entries[0].perm;
        assert_eq!(p.assigned(), 1, "output 0 can serve exactly one input");
        assert!(p.input_of(0).is_some());
    }

    #[test]
    fn round_robin_fairness_across_contending_inputs() {
        let n = 4;
        let mut s = IslipScheduler::new(n, 1);
        let mut requests = vec![false; n * n];
        for i in 1..4 {
            requests[i * n] = true; // i -> output 0
        }
        let mut wins = vec![0u32; n];
        for _ in 0..30 {
            let m = s.matching(&requests);
            if let Some(i) = m.input_of(0) {
                wins[i] += 1;
            }
        }
        for (i, &w) in wins.iter().enumerate().skip(1) {
            assert!(w == 10, "input {i} won {w} of 30 (expect exact RR)");
        }
    }

    #[test]
    fn hw_algo_reflects_iterations() {
        let s = IslipScheduler::new(8, 3);
        assert_eq!(s.hw_algo(), HwAlgo::Islip { iterations: 3 });
        assert_eq!(s.name(), "islip");
    }
}
