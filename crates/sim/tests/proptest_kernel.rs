//! Property tests for the simulation kernel.

use proptest::prelude::*;
use xds_sim::{BitRate, EventQueue, SimRng, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Events come out sorted by time, with insertion order breaking ties.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut popped: Vec<(u64, usize)> = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_nanos(), i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "insertion order violated at tie");
            }
        }
    }

    /// Differential test of the event queue against a naive reference
    /// model: interleaved schedules (with delays spanning 0 ns to ms,
    /// mimicking the simulator's packet/epoch/app mix) and pops must
    /// deliver the byte-identical `(time, payload)` sequence a total
    /// `(time, insertion)` sort would — the property the golden traces
    /// rely on when the queue's internals change.
    #[test]
    fn queue_matches_reference_model(
        ops in proptest::collection::vec((0u8..4, 0u64..u64::MAX), 1..400),
    ) {
        let mut q = EventQueue::new();
        // Reference: (time, seq) keyed min-list.
        let mut model: Vec<(u64, u64, u64)> = Vec::new();
        let mut next_seq = 0u64;
        let mut now = 0u64;
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        for &(kind, r) in &ops {
            match kind {
                // Schedule with a delay profile chosen by `kind`/`r`.
                0..=2 => {
                    let delay = match kind {
                        0 => r % 4,            // same-instant / near ties
                        1 => 500 + r % 3_000,  // ~µs packet events
                        _ => r % 2_000_000,    // up to ms timers
                    };
                    let t = now + delay;
                    q.schedule_at(SimTime::from_nanos(t), next_seq);
                    model.push((t, next_seq, next_seq));
                    next_seq += 1;
                }
                _ => {
                    // Pop from both, compare.
                    let got = q.pop();
                    let want = model
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(t, s, _))| (t, s))
                        .map(|(i, _)| i);
                    match (got, want) {
                        (None, None) => {}
                        (Some((t, p)), Some(i)) => {
                            let (mt, _, mp) = model.swap_remove(i);
                            now = mt;
                            popped.push((t.as_nanos(), p));
                            expected.push((mt, mp));
                        }
                        (g, w) => prop_assert!(false, "pop mismatch: {g:?} vs model {w:?}"),
                    }
                }
            }
        }
        // Drain the remainder.
        while let Some((t, p)) = q.pop() {
            popped.push((t.as_nanos(), p));
        }
        model.sort_unstable_by_key(|&(t, s, _)| (t, s));
        expected.extend(model.iter().map(|&(t, _, p)| (t, p)));
        prop_assert_eq!(popped, expected);
    }

    /// The same differential test with explicit scheduling stamps (any
    /// stamp up to the event's own time, earlier or later than the
    /// clock): pops follow a total `(time, stamp, insertion)` sort.
    #[test]
    fn stamped_queue_matches_reference_model(
        ops in proptest::collection::vec((0u8..4, 0u64..u64::MAX, 0u64..u64::MAX), 1..400),
    ) {
        let mut q = EventQueue::new();
        // Reference: (time, stamp, seq) keyed min-list.
        let mut model: Vec<(u64, u64, u64)> = Vec::new();
        let mut next_seq = 0u64;
        let mut now = 0u64;
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        for &(kind, r, st) in &ops {
            match kind {
                0..=2 => {
                    let delay = match kind {
                        0 => r % 4,
                        1 => 500 + r % 3_000,
                        _ => r % 2_000_000,
                    };
                    let t = now + delay;
                    let stamp = st % (t + 1);
                    q.schedule_stamped(SimTime::from_nanos(t), SimTime::from_nanos(stamp), next_seq);
                    model.push((t, stamp, next_seq));
                    next_seq += 1;
                }
                _ => {
                    let got = q.pop();
                    let want = model
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &k)| k)
                        .map(|(i, _)| i);
                    match (got, want) {
                        (None, None) => {}
                        (Some((t, p)), Some(i)) => {
                            let (mt, _, mp) = model.swap_remove(i);
                            now = mt;
                            popped.push((t.as_nanos(), p));
                            expected.push((mt, mp));
                        }
                        (g, w) => prop_assert!(false, "pop mismatch: {g:?} vs model {w:?}"),
                    }
                }
            }
        }
        while let Some((t, p)) = q.pop() {
            popped.push((t.as_nanos(), p));
        }
        model.sort_unstable();
        expected.extend(model.iter().map(|&(t, _, p)| (t, p)));
        prop_assert_eq!(popped, expected);
    }

    /// The clock equals the timestamp of the last popped event, always.
    #[test]
    fn clock_tracks_pops(times in proptest::collection::vec(0u64..1_000, 1..100)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule_at(SimTime::from_nanos(t), ());
        }
        while let Some((t, _)) = q.pop() {
            prop_assert_eq!(q.now(), t);
        }
    }

    /// tx_time and bytes_in are mutually consistent for any rate/size.
    #[test]
    fn rate_conversions_are_consistent(gbps in 1u64..400, bytes in 1u64..10_000_000) {
        let r = BitRate::from_gbps(gbps);
        let t = r.tx_time(bytes);
        // Transmitting for exactly t must allow at least `bytes` (tx_time
        // rounds up) and no more than `bytes + rate·1ns` extra.
        let fit = r.bytes_in(t);
        prop_assert!(fit >= bytes, "bytes_in({t}) = {fit} < {bytes}");
        let slack = r.bytes_per_sec() / 1_000_000_000 + 1;
        prop_assert!(fit <= bytes + slack, "fit {fit} way over {bytes}");
    }

    /// Forked RNG streams never mirror their parent.
    #[test]
    fn forked_streams_diverge(seed in any::<u64>()) {
        let mut parent = SimRng::new(seed);
        let mut child = parent.fork();
        let overlap = (0..64).filter(|_| parent.next_u64() == child.next_u64()).count();
        prop_assert!(overlap < 4);
    }
}
