//! Property tests for the disk model: service discipline, timing sanity,
//! and data integrity under arbitrary request interleavings.

// Compiled only with `cargo test --features props` (hermetic default
// builds skip the property suites).
#![cfg(feature = "props")]

use std::collections::HashMap;
use std::rc::Rc;

use proptest::prelude::*;

use khw::{Disk, DiskProfile, IoOp, SECTOR_SIZE};
use ksim::{Dur, SimTime};

const BLK: usize = 8192;
const SPB: u64 = (BLK / SECTOR_SIZE) as u64;

#[derive(Clone, Debug)]
enum Op {
    /// Submit a read/write of block `blk` after an idle gap.
    Submit { write: bool, blk: u64, gap_us: u64 },
    /// Ride the completion interrupt of the active request.
    Complete,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<bool>(), 0u64..300, 0u64..20_000).prop_map(|(write, blk, gap_us)| {
            Op::Submit { write, blk, gap_us }
        }),
        2 => Just(Op::Complete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn disk_serves_every_request_exactly_once(ops in prop::collection::vec(op(), 1..80)) {
        let mut d = Disk::new(DiskProfile::rz58(), BLK);
        let mut now = SimTime::ZERO;
        let mut next_token = 0u64;
        let mut outstanding: HashMap<u64, bool> = HashMap::new(); // token → is_write
        let mut active_finish: Option<SimTime> = None;
        let mut completed = Vec::new();
        let mut submitted = Vec::new();
        let mut last_finish = SimTime::ZERO;

        for op in ops {
            match op {
                Op::Submit { write, blk, gap_us } => {
                    now += Dur::from_us(gap_us);
                    let token = next_token;
                    next_token += 1;
                    let data = write.then(|| Rc::new(vec![token as u8; BLK]));
                    let started = d.submit(now, token, if write { IoOp::Write } else { IoOp::Read }, blk * SPB, BLK, data);
                    outstanding.insert(token, write);
                    submitted.push(token);
                    match started {
                        Some(s) => {
                            prop_assert!(active_finish.is_none(), "two active requests");
                            prop_assert!(s.finish > now);
                            active_finish = Some(s.finish);
                        }
                        None => {
                            prop_assert!(active_finish.is_some(), "queued while idle");
                        }
                    }
                }
                Op::Complete => {
                    let Some(finish) = active_finish.take() else { continue };
                    now = now.max(finish);
                    let (done, next) = d.complete(finish);
                    prop_assert!(outstanding.remove(&done.token).is_some(), "unknown completion");
                    prop_assert!(finish >= last_finish, "completions must be ordered");
                    last_finish = finish;
                    completed.push(done.token);
                    if let Some(s) = next {
                        prop_assert!(s.finish >= finish);
                        active_finish = Some(s.finish);
                    } else {
                        prop_assert_eq!(d.queue_depth(), 0);
                    }
                }
            }
        }
        // Drain the rest.
        while let Some(finish) = active_finish.take() {
            let (done, next) = d.complete(finish);
            prop_assert!(outstanding.remove(&done.token).is_some());
            completed.push(done.token);
            if let Some(s) = next {
                active_finish = Some(s.finish);
            }
        }
        prop_assert!(outstanding.is_empty(), "requests lost: {:?}", outstanding);
        let mut all = submitted;
        all.sort_unstable();
        let mut got = completed;
        got.sort_unstable();
        prop_assert_eq!(all, got, "every request completes exactly once");
    }

    #[test]
    fn last_write_wins_per_block(
        writes in prop::collection::vec((0u64..20, any::<u8>()), 1..40)
    ) {
        let mut d = Disk::new(DiskProfile::rz56(), BLK);
        let mut now = SimTime::ZERO;
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (i, (blk, byte)) in writes.iter().enumerate() {
            // Serialise: run each write to completion so "last" is
            // unambiguous.
            let s = d
                .submit(now, i as u64, IoOp::Write, blk * SPB, BLK, Some(Rc::new(vec![*byte; BLK])))
                .expect("idle");
            let (_, next) = d.complete(s.finish);
            assert!(next.is_none());
            now = s.finish;
            model.insert(*blk, *byte);
        }
        for (blk, byte) in model {
            let s = d
                .submit(now, 10_000 + blk, IoOp::Read, blk * SPB, BLK, None)
                .expect("idle");
            let (done, _) = d.complete(s.finish);
            now = s.finish;
            prop_assert!(done.data.unwrap().iter().all(|b| *b == byte));
        }
    }

    #[test]
    fn service_time_is_bounded(blk_a in 0u64..80_000, blk_b in 0u64..80_000) {
        // Any single request finishes within per_request + max seek +
        // rotation + transfer (no unbounded waits on an idle drive).
        let p = DiskProfile::rz56();
        let mut d = Disk::new(p.clone(), BLK);
        let s1 = d.submit(SimTime::ZERO, 1, IoOp::Read, blk_a * SPB, BLK, None).unwrap();
        let (_, _) = d.complete(s1.finish);
        let s2 = d.submit(s1.finish, 2, IoOp::Read, blk_b * SPB, BLK, None).unwrap();
        let service = s2.finish.since(s1.finish);
        let bound = p.per_request
            + p.avg_seek * 2
            + p.avg_rotation
            + Dur::for_bytes(BLK as u64, p.media_bps.min(p.bus_bps));
        prop_assert!(service <= bound, "service {service} > bound {bound}");
    }
}
