//! Differential properties of the event core: the hierarchical timer
//! wheel must be observationally identical to the reference
//! `BinaryHeap` future-event list on *arbitrary* schedules — same pop
//! times, same payloads, same `(time, sequence)` ordering — because the
//! engines' bit-identical-per-seed contract rests on the queue.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tpu_serve::sim::{EventQueue, QueueBackend, RUNG_SPILL_THRESHOLD};

/// One scripted action against both queues.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule at `now + delta_quarters * 0.25` ms (quantized so
    /// exact-time collisions are common, exercising FIFO tie-breaks).
    Schedule { delta_quarters: u32 },
    /// Schedule at `now + delta_ms` with an arbitrary fractional offset
    /// (exercises keys that differ deep in the mantissa).
    ScheduleFine { delta_ms: f64 },
    /// Pop once (no-op on empty queues).
    Pop,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..64).prop_map(|delta_quarters| Op::Schedule { delta_quarters }),
        (0.0f64..1e7).prop_map(|delta_ms| Op::ScheduleFine { delta_ms }),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

proptest! {
    /// Replay an arbitrary schedule/pop interleaving through both
    /// backends in lockstep; every observable must agree at every step.
    #[test]
    fn wheel_matches_reference_heap_on_arbitrary_schedules(
        ops in prop::collection::vec(op(), 1..400),
    ) {
        let mut wheel: EventQueue<usize> = EventQueue::with_backend(QueueBackend::TimerWheel);
        let mut heap: EventQueue<usize> = EventQueue::with_backend(QueueBackend::BinaryHeap);
        let mut payload = 0usize;
        for op in ops {
            match op {
                Op::Schedule { delta_quarters } => {
                    let at = wheel.now_ms() + delta_quarters as f64 * 0.25;
                    wheel.schedule(at, payload);
                    heap.schedule(at, payload);
                    payload += 1;
                }
                Op::ScheduleFine { delta_ms } => {
                    let at = wheel.now_ms() + delta_ms;
                    wheel.schedule(at, payload);
                    heap.schedule(at, payload);
                    payload += 1;
                }
                Op::Pop => {
                    prop_assert_eq!(wheel.pop(), heap.pop());
                    prop_assert_eq!(wheel.now_ms().to_bits(), heap.now_ms().to_bits());
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.is_empty(), heap.is_empty());
        }
        // Drain both: the full residual order must agree too.
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Popped timestamps are nondecreasing and FIFO among equal times,
    /// checked against a straight sort of the scheduled (time, seq)
    /// pairs — the wheel alone, no reference queue in the loop.
    #[test]
    fn wheel_pops_in_time_then_sequence_order(
        deltas in prop::collection::vec((0u32..16, 1usize..6), 1..120),
    ) {
        let mut q: EventQueue<usize> = EventQueue::with_backend(QueueBackend::TimerWheel);
        let mut expected: Vec<(u64, usize)> = Vec::new();
        let mut seq = 0usize;
        for (delta, burst) in deltas {
            let at = q.now_ms() + delta as f64 * 0.5;
            for _ in 0..burst {
                q.schedule(at, seq);
                expected.push((at.to_bits(), seq));
                seq += 1;
            }
            // Interleave occasional pops so the hand advances and the
            // wheel re-buckets mid-run.
            if delta % 3 == 0 {
                if let Some((t, p)) = q.pop() {
                    let want = expected.iter().copied().min().expect("queue non-empty");
                    prop_assert_eq!((t.to_bits(), p), want);
                    expected.retain(|&e| e != want);
                }
            }
        }
        expected.sort_unstable();
        let mut got = Vec::new();
        while let Some((t, p)) = q.pop() {
            got.push((t.to_bits(), p));
        }
        prop_assert_eq!(got, expected);
    }

    /// The rung-spill threshold: a single-slot burst — many events at
    /// one identical timestamp, interleaved with pops and stragglers at
    /// nearby times — must (a) never grow the sorted bottom rung past
    /// the spill threshold once the burst lands there, and (b) stay
    /// observationally identical to the reference heap throughout.
    #[test]
    fn single_slot_burst_spills_and_matches_the_heap(
        bursts in prop::collection::vec(
            // (burst length, straggler offset in quarters, pops between)
            (1usize..600, 0u32..8, 0usize..64),
            1..8,
        ),
    ) {
        let mut wheel: EventQueue<usize> = EventQueue::with_backend(QueueBackend::TimerWheel);
        let mut heap: EventQueue<usize> = EventQueue::with_backend(QueueBackend::BinaryHeap);
        let mut payload = 0usize;
        for (len, offset, pops) in bursts {
            // Start each burst from a drained queue: prime the rung
            // with one event and pop it, so the burst's timestamp is
            // exactly the rung's maximum key — the case the spill
            // threshold bounds (inserts *below* the rung max must still
            // grow the rung; they pop first).
            loop {
                let (a, b) = (wheel.pop(), heap.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            let at = wheel.now_ms() + 1.0;
            wheel.schedule(at, payload);
            heap.schedule(at, payload);
            payload += 1;
            prop_assert_eq!(wheel.pop(), heap.pop());
            // The single-slot burst: every event at exactly `at`.
            for _ in 0..len {
                wheel.schedule(at, payload);
                heap.schedule(at, payload);
                payload += 1;
                prop_assert!(
                    wheel.rung_len() <= RUNG_SPILL_THRESHOLD,
                    "rung grew past the spill threshold: {}",
                    wheel.rung_len()
                );
            }
            // A straggler at (or after) the burst time, then some pops.
            let late = at + offset as f64 * 0.25;
            wheel.schedule(late, payload);
            heap.schedule(late, payload);
            payload += 1;
            for _ in 0..pops {
                prop_assert_eq!(wheel.pop(), heap.pop());
            }
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

/// Long seeded schedules shaped like a large fleet's event stream: a
/// constant-hop stream (keys at `now + HOP_MS`, the fleet's `Deliver`
/// pattern) mixed with near keys, far keys (timers), keys equal to the
/// current time, and pops. The pending set
/// grows to thousands of events, so wheel slots pass
/// `RUNG_SPILL_THRESHOLD` and `advance` splits them; the short
/// proptests above rarely build a slot that large. Every pop must agree
/// with the reference heap, and the rung must stay near the threshold.
#[test]
fn long_fleet_shaped_schedules_split_slots_and_match_the_heap() {
    const HOP_MS: f64 = 0.21;
    const OPS: usize = 60_000;
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wheel: EventQueue<usize> = EventQueue::with_backend(QueueBackend::TimerWheel);
        let mut heap: EventQueue<usize> = EventQueue::with_backend(QueueBackend::BinaryHeap);
        let mut payload = 0usize;
        for op in 0..OPS {
            // Grow the pending set for the first half, shrink it after.
            let schedule_p = if op < OPS / 2 { 0.6 } else { 0.4 };
            if wheel.is_empty() || rng.gen_bool(schedule_p) {
                let now = wheel.now_ms();
                let at = match rng.gen_range(0u32..10) {
                    0..=5 => now + HOP_MS,
                    6 => now + rng.gen_range(0.0..0.05),
                    7 => now + rng.gen_range(1.0..1e3),
                    8 => now,
                    _ => now + rng.gen_range(0u32..8) as f64 * 0.125,
                };
                wheel.schedule(at, payload);
                heap.schedule(at, payload);
                payload += 1;
            } else {
                let (a, b) = (wheel.pop(), heap.pop());
                assert_eq!(a, b, "seed {seed}, op {op}");
                assert_eq!(wheel.now_ms().to_bits(), heap.now_ms().to_bits());
            }
            assert_eq!(wheel.len(), heap.len(), "seed {seed}, op {op}");
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b, "seed {seed}, drain");
            if a.is_none() {
                break;
            }
        }
        let profile = wheel.wheel_profile().expect("wheel backend profiles");
        assert!(profile.splits > 0, "seed {seed}: no slot was split");
        assert!(
            profile.max_rung <= 2 * RUNG_SPILL_THRESHOLD,
            "seed {seed}: rung reached {} entries",
            profile.max_rung
        );
    }
}
