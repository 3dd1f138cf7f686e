//! Property tests for the simulation engine: the event queue must agree
//! with a reference model, and the callout table must deliver everything
//! exactly once in tick order.

// Compiled only with `cargo test --features props` (hermetic default
// builds skip the property suites).
#![cfg(feature = "props")]

use proptest::prelude::*;

use ksim::{BTreeCallout, Callout, Dur, EventQueue, SimTime};

#[derive(Clone, Debug)]
enum QOp {
    /// Schedule at now + offset_us.
    Schedule(u64),
    /// Cancel the n-th still-tracked handle (modulo).
    Cancel(usize),
    /// Pop one event.
    Pop,
}

fn qop() -> impl Strategy<Value = QOp> {
    prop_oneof![
        3 => (0u64..10_000).prop_map(QOp::Schedule),
        1 => any::<usize>().prop_map(QOp::Cancel),
        2 => Just(QOp::Pop),
    ]
}

/// Operations for the near-set model: bursts push the live population
/// past the queue's 16-key near set, and cancels pick by rank in firing
/// order, so low ranks hit near-set keys and high ranks hit heap keys.
#[derive(Clone, Debug)]
enum NOp {
    /// Schedule one event at each now + offset_us.
    Burst(Vec<u64>),
    /// Cancel the live event at this rank (modulo) in firing order.
    CancelRank(usize),
    /// Pop this many events.
    Pop(usize),
}

fn nop() -> impl Strategy<Value = NOp> {
    // Narrow offsets give many equal timestamps; wide ones spread keys
    // across the near set and the heap.
    let offset = prop_oneof![0u64..4, 0u64..1000];
    prop_oneof![
        3 => prop::collection::vec(offset, 1..40).prop_map(NOp::Burst),
        2 => any::<usize>().prop_map(NOp::CancelRank),
        3 => (1usize..20).prop_map(NOp::Pop),
    ]
}

#[derive(Clone, Debug)]
enum COp {
    /// Schedule at now + delay ticks.
    Schedule(u64),
    /// Schedule at the head of the current tick.
    ScheduleHead,
    /// Cancel the n-th tracked handle (modulo), which may have fired.
    Cancel(usize),
    /// Advance the clock by this many ticks and expire.
    Expire(u64),
}

fn cop() -> impl Strategy<Value = COp> {
    // Delays and jumps deliberately straddle the wheel's level
    // boundaries (64, 64^2, 64^3 ticks) and its 2^24-tick horizon.
    let delay = prop_oneof![
        Just(0u64),
        1u64..64,
        64u64..4096,
        4096u64..262_144,
        262_144u64..(1u64 << 25),
    ];
    let step = prop_oneof![
        4 => 1u64..64,
        3 => 64u64..5000,
        1 => (1u64 << 20)..(1u64 << 21),
    ];
    prop_oneof![
        4 => delay.prop_map(COp::Schedule),
        1 => Just(COp::ScheduleHead),
        2 => any::<usize>().prop_map(COp::Cancel),
        3 => step.prop_map(COp::Expire),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_queue_matches_reference_model(ops in prop::collection::vec(qop(), 1..200)) {
        let mut q = EventQueue::new();
        // Model: list of (time, seq, id, alive).
        let mut model: Vec<(SimTime, u64, ksim::EventId, bool)> = Vec::new();
        let mut seq = 0u64;

        for op in ops {
            match op {
                QOp::Schedule(off) => {
                    let at = q.now() + Dur::from_us(off);
                    let id = q.schedule(at, seq);
                    model.push((at, seq, id, true));
                    seq += 1;
                }
                QOp::Cancel(n) => {
                    if model.is_empty() {
                        continue;
                    }
                    let idx = n % model.len();
                    let (_, _, id, alive) = model[idx];
                    let did = q.cancel(id);
                    prop_assert_eq!(did, alive, "cancel result must track liveness");
                    model[idx].3 = false;
                }
                QOp::Pop => {
                    // Expected: earliest (time, seq) among alive entries.
                    let expect = model
                        .iter()
                        .filter(|e| e.3)
                        .min_by_key(|e| (e.0, e.1))
                        .map(|e| (e.0, e.1));
                    let got = q.pop();
                    match (expect, got) {
                        (None, None) => {}
                        (Some((t, s)), Some((gt, gv))) => {
                            prop_assert_eq!(t, gt);
                            prop_assert_eq!(s, gv);
                            let idx = model.iter().position(|e| e.1 == s).unwrap();
                            model[idx].3 = false;
                        }
                        other => prop_assert!(false, "mismatch: {:?}", other),
                    }
                }
            }
            prop_assert_eq!(q.len(), model.iter().filter(|e| e.3).count());
        }
    }

    #[test]
    fn event_queue_near_set_matches_reference_model(ops in prop::collection::vec(nop(), 1..60)) {
        let mut q = EventQueue::new();
        // Model: live (time, seq, id), kept sorted in firing order.
        let mut model: Vec<(SimTime, u64, ksim::EventId)> = Vec::new();
        let mut seq = 0u64;

        for op in ops {
            match op {
                NOp::Burst(offsets) => {
                    for off in offsets {
                        let at = q.now() + Dur::from_us(off);
                        let id = q.schedule(at, seq);
                        model.push((at, seq, id));
                        seq += 1;
                    }
                    model.sort_by_key(|e| (e.0, e.1));
                }
                NOp::CancelRank(rank) => {
                    if model.is_empty() {
                        continue;
                    }
                    let (_, _, id) = model.remove(rank % model.len());
                    prop_assert!(q.cancel(id));
                    prop_assert!(!q.cancel(id), "double cancel must miss");
                }
                NOp::Pop(n) => {
                    for _ in 0..n {
                        prop_assert_eq!(q.peek_key(), model.first().map(|e| (e.0, e.1)));
                        let expect = (!model.is_empty()).then(|| model.remove(0));
                        match (expect, q.pop()) {
                            (None, None) => {}
                            (Some((t, s, _)), Some((gt, gv))) => {
                                prop_assert_eq!(t, gt);
                                prop_assert_eq!(s, gv);
                                prop_assert_eq!(q.now(), t);
                            }
                            other => prop_assert!(false, "mismatch: {:?}", other),
                        }
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert!(q.queued_len() <= 2 * q.len() + 64);
        }
        // Drain: everything left fires in model order.
        for (t, s, _) in model {
            prop_assert_eq!(q.pop(), Some((t, s)));
        }
        prop_assert_eq!(q.pop(), None);
    }

    #[test]
    fn callout_delivers_everything_once_in_order(
        entries in prop::collection::vec((0u64..64, 0u32..1000), 1..100)
    ) {
        let mut co = Callout::new();
        for (delay, tag) in &entries {
            co.schedule(0, *delay, *tag);
        }
        let mut seen = Vec::new();
        let mut last_tick_of = std::collections::HashMap::new();
        for tick in 0..=64u64 {
            for tag in co.expire(tick) {
                seen.push(tag);
                last_tick_of.insert(tag, tick);
            }
        }
        prop_assert!(co.is_empty());
        // Every entry delivered exactly once (tags may repeat; compare as
        // multisets).
        let mut want: Vec<u32> = entries.iter().map(|(_, t)| *t).collect();
        let mut got = seen.clone();
        want.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(want, got);
    }

    #[test]
    fn wheel_agrees_with_btree_reference(ops in prop::collection::vec(cop(), 1..150)) {
        let mut wheel = Callout::new();
        let mut btree = BTreeCallout::new();
        let mut tick = 0u64;
        // Tracked handle pairs (ids are implementation-specific, so each
        // logical entry carries one id per implementation).
        let mut ids: Vec<(ksim::CalloutId, ksim::CalloutId)> = Vec::new();
        let mut tag = 0u32;

        for op in ops {
            match op {
                COp::Schedule(delay) => {
                    ids.push((
                        wheel.schedule(tick, delay, tag),
                        btree.schedule(tick, delay, tag),
                    ));
                    tag += 1;
                }
                COp::ScheduleHead => {
                    ids.push((
                        wheel.schedule_head(tick, tag),
                        btree.schedule_head(tick, tag),
                    ));
                    tag += 1;
                }
                COp::Cancel(n) => {
                    if ids.is_empty() {
                        continue;
                    }
                    // May pick an already-fired handle: both sides must
                    // then report the stale id as a no-op.
                    let (wi, bi) = ids.swap_remove(n % ids.len());
                    prop_assert_eq!(wheel.cancel(wi), btree.cancel(bi));
                }
                COp::Expire(step) => {
                    tick += step;
                    // Same payloads in the same order, including the
                    // head-before-tail rule and catch-up over skipped
                    // ticks.
                    prop_assert_eq!(wheel.expire(tick), btree.expire(tick));
                }
            }
            prop_assert_eq!(wheel.len(), btree.len());
            prop_assert_eq!(wheel.next_due_tick(), btree.next_due_tick());
        }
    }

    #[test]
    fn duration_bandwidth_roundtrip_is_monotone(
        a in 1u64..1_000_000, b in 1u64..1_000_000, bps in 1u64..100_000_000
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(Dur::for_bytes(lo, bps) <= Dur::for_bytes(hi, bps));
        // At least the exact wire time.
        let d = Dur::for_bytes(hi, bps);
        prop_assert!(d.as_ns() as u128 * bps as u128 >= hi as u128 * 1_000_000_000u128);
    }
}
