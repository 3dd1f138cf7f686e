//! Property tests: random buffer-cache operation sequences against a
//! reference model, with structural invariants checked after every step.

// Compiled only with `cargo test --features props` (hermetic default
// builds skip the property suites).
#![cfg(feature = "props")]

use std::collections::HashMap;
use std::rc::Rc;

use proptest::prelude::*;

use kbuf::{BreadOutcome, BufData, BufId, Cache, DevId, Effect, IoDir};

#[derive(Clone, Debug)]
enum Op {
    /// bread of block n on device d.
    Bread { dev: u8, blk: u8 },
    /// Complete the oldest outstanding device read.
    CompleteIo,
    /// Release the oldest held buffer.
    Release,
    /// Dirty-release the oldest held buffer.
    DirtyRelease,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => ((0u8..2), (0u8..24)).prop_map(|(dev, blk)| Op::Bread { dev, blk }),
        3 => Just(Op::CompleteIo),
        3 => Just(Op::Release),
        1 => Just(Op::DirtyRelease),
    ]
}

/// The "device": applies StartIo effects and queues read completions.
#[derive(Default)]
struct FakeDevice {
    pending: Vec<(BufId, IoDir)>,
}

impl FakeDevice {
    fn absorb(&mut self, effects: &[Effect]) {
        for e in effects {
            if let Effect::StartIo { buf, dir, .. } = e {
                self.pending.push((*buf, *dir));
            }
        }
    }
}

/// Length of the zero block fresh areas start over, a buffer's size.
const ZERO_LEN: usize = 8192;

/// Operations on a set of live [`BufData`] areas, driven against an
/// explicit-copy model: a plain `Vec<u8>` per sharing group (clones of
/// one area alias) and a recorded copy of every snapshot. The real areas
/// share copy-on-write blocks with their snapshots and with the zero
/// block fresh areas start over, as the buffer cache's do, so this checks
/// that a write never reaches a snapshot, the zero block or another
/// group, and that aliasing is identical to a plain shared `Vec`.
#[derive(Clone, Debug)]
enum DOp {
    /// New area over the shared zero block.
    Over,
    /// New area with patterned contents.
    FromVec(usize, u8),
    /// Clone of the n-th live area (modulo): shares the same bytes.
    CloneOf(usize),
    /// Drop the n-th live area (modulo).
    Drop(usize),
    /// Write one byte through the n-th live area.
    Write(usize, usize, u8),
    /// Replace the n-th live area's contents (resizes the area).
    FillFrom(usize, usize, u8),
    /// Copy a run of bytes into the n-th live area at an offset; a run
    /// covering the whole area replaces its block.
    WriteAt(usize, usize, usize, u8),
    /// Zero the n-th live area.
    Zero(usize),
    /// Take a snapshot of the n-th live area's block.
    Snapshot(usize),
    /// Install the k-th snapshot (modulo) into the n-th live area.
    Install(usize, usize),
    /// Forget the k-th snapshot (modulo), unsharing its block.
    DropSnapshot(usize),
}

fn dop() -> impl Strategy<Value = DOp> {
    let len = prop_oneof![Just(0usize), 1usize..64, 8192usize..8200];
    prop_oneof![
        3 => Just(DOp::Over),
        2 => (len, any::<u8>()).prop_map(|(l, b)| DOp::FromVec(l, b)),
        2 => any::<usize>().prop_map(DOp::CloneOf),
        3 => any::<usize>().prop_map(DOp::Drop),
        3 => (any::<usize>(), any::<usize>(), any::<u8>())
            .prop_map(|(n, o, v)| DOp::Write(n, o, v)),
        1 => (any::<usize>(), 0usize..1024, any::<u8>())
            .prop_map(|(n, l, b)| DOp::FillFrom(n, l, b)),
        2 => (any::<usize>(), any::<usize>(), any::<usize>(), any::<u8>())
            .prop_map(|(n, o, l, b)| DOp::WriteAt(n, o, l, b)),
        1 => any::<usize>().prop_map(DOp::Zero),
        2 => any::<usize>().prop_map(DOp::Snapshot),
        2 => (any::<usize>(), any::<usize>()).prop_map(|(n, k)| DOp::Install(n, k)),
        1 => any::<usize>().prop_map(DOp::DropSnapshot),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn buf_data_matches_plain_model(ops in prop::collection::vec(dop(), 1..120)) {
        // Live areas: (handle, sharing-group id). The model holds each
        // group's expected bytes, and each snapshot with the bytes it
        // held when taken.
        let zero = Rc::new(vec![0u8; ZERO_LEN]);
        let mut live: Vec<(BufData, usize)> = Vec::new();
        let mut model: HashMap<usize, Vec<u8>> = HashMap::new();
        let mut snaps: Vec<(Rc<Vec<u8>>, Vec<u8>)> = Vec::new();
        let mut next_group = 0usize;

        for op in ops {
            match op {
                DOp::Over => {
                    live.push((BufData::over(Rc::clone(&zero)), next_group));
                    model.insert(next_group, vec![0u8; ZERO_LEN]);
                    next_group += 1;
                }
                DOp::FromVec(len, byte) => {
                    let v: Vec<u8> = (0..len).map(|i| byte.wrapping_add(i as u8)).collect();
                    live.push((BufData::from_vec(v.clone()), next_group));
                    model.insert(next_group, v);
                    next_group += 1;
                }
                DOp::CloneOf(n) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (bd, g) = &live[n % live.len()];
                    live.push((bd.clone(), *g));
                }
                DOp::Drop(n) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (bd, g) = live.swap_remove(n % live.len());
                    drop(bd);
                    if !live.iter().any(|(_, lg)| *lg == g) {
                        model.remove(&g);
                    }
                }
                DOp::Write(n, off, val) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (bd, g) = &live[n % live.len()];
                    if bd.is_empty() {
                        continue;
                    }
                    let idx = off % bd.len();
                    bd.bytes_mut()[idx] = val;
                    model.get_mut(g).unwrap()[idx] = val;
                }
                DOp::FillFrom(n, len, byte) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (bd, g) = &live[n % live.len()];
                    let src = vec![byte; len];
                    bd.fill_from(&src);
                    model.insert(*g, src);
                }
                DOp::WriteAt(n, off, len, byte) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (bd, g) = &live[n % live.len()];
                    let area = bd.len();
                    // Whole-area writes half the time, else any run.
                    let (off, len) = if len % 2 == 0 {
                        (0, area)
                    } else {
                        let off = off % (area + 1);
                        (off, len % (area - off + 1))
                    };
                    let src = vec![byte; len];
                    bd.write_at(off, &src);
                    model.get_mut(g).unwrap()[off..off + len].copy_from_slice(&src);
                }
                DOp::Zero(n) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (bd, g) = &live[n % live.len()];
                    bd.zero();
                    model.get_mut(g).unwrap().fill(0);
                }
                DOp::Snapshot(n) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (bd, g) = &live[n % live.len()];
                    snaps.push((bd.snapshot(), model[g].clone()));
                }
                DOp::Install(n, k) => {
                    if live.is_empty() || snaps.is_empty() {
                        continue;
                    }
                    let (bd, g) = &live[n % live.len()];
                    let (block, bytes) = &snaps[k % snaps.len()];
                    bd.install(Rc::clone(block));
                    model.insert(*g, bytes.clone());
                }
                DOp::DropSnapshot(k) => {
                    if !snaps.is_empty() {
                        let at = k % snaps.len();
                        snaps.swap_remove(at);
                    }
                }
            }

            // Every live handle sees exactly its group's bytes — writes
            // through one sharer are visible to all, and no area aliases
            // another group.
            for (bd, g) in &live {
                prop_assert_eq!(&*bd.bytes(), model.get(g).unwrap());
            }
            for i in 0..live.len() {
                let (bi, gi) = &live[i];
                let expect_sharers = live.iter().filter(|(_, g)| g == gi).count();
                prop_assert_eq!(bi.sharers(), expect_sharers);
                for (bj, gj) in live.iter().skip(i + 1) {
                    prop_assert_eq!(bi.shares_with(bj), gi == gj);
                }
            }
            // A snapshot never changes, whatever its areas did since, and
            // no write reaches the zero block.
            for (block, bytes) in &snaps {
                prop_assert_eq!(&**block, bytes);
            }
            prop_assert!(zero.iter().all(|&b| b == 0), "a write reached the zero block");
        }
    }

    #[test]
    fn cache_invariants_hold_under_random_ops(ops in prop::collection::vec(op(), 1..120)) {
        let mut cache = Cache::new(8, 8192);
        let mut dev_model = FakeDevice::default();
        // Buffers we hold (checked out to "the caller").
        let mut held: Vec<BufId> = Vec::new();
        // Blocks with valid contents, as the model sees them.
        let mut valid: HashMap<(u8, u8), bool> = HashMap::new();

        for op in ops {
            let mut fx = Vec::new();
            match op {
                Op::Bread { dev, blk } => {
                    let out = cache.bread(DevId(dev as u32), blk as u64, 8192, &mut fx);
                    dev_model.absorb(&fx);
                    match out {
                        BreadOutcome::Hit(b) => {
                            prop_assert_eq!(
                                valid.get(&(dev, blk)).copied(),
                                Some(true),
                                "hit on a block the model says is invalid"
                            );
                            held.push(b);
                        }
                        BreadOutcome::Miss(b) => {
                            held.push(b);
                        }
                        BreadOutcome::Busy(_) | BreadOutcome::NoBuffers => {}
                    }
                }
                Op::CompleteIo => {
                    if dev_model.pending.is_empty() {
                        continue;
                    }
                    let (buf, dir) = dev_model.pending.remove(0);
                    let sref = cache.biodone(buf, false, &mut fx);
                    prop_assert!(sref.is_none(), "no B_CALL in this model");
                    dev_model.absorb(&fx);
                    if let Some((d, b)) = cache.identity(buf) {
                        if dir == IoDir::Read {
                            valid.insert((d.0 as u8, b as u8), true);
                        }
                    }
                }
                Op::Release => {
                    if let Some(buf) = held.pop() {
                        // Completed? Otherwise invalid contents get
                        // forgotten by the cache, matching the model.
                        let was_done = cache.io_done(buf);
                        if let Some((d, b)) = cache.identity(buf) {
                            if !was_done {
                                valid.remove(&(d.0 as u8, b as u8));
                            }
                        }
                        // Release only if no I/O is pending on it (the
                        // kernel never releases a buffer mid-transfer).
                        if dev_model.pending.iter().any(|(p, _)| *p == buf) {
                            held.push(buf);
                            continue;
                        }
                        cache.brelse(buf, &mut fx);
                        dev_model.absorb(&fx);
                    }
                }
                Op::DirtyRelease => {
                    if let Some(buf) = held.pop() {
                        if dev_model.pending.iter().any(|(p, _)| *p == buf)
                            || !cache.io_done(buf)
                        {
                            held.push(buf);
                            continue;
                        }
                        cache.bdwrite(buf, &mut fx);
                        dev_model.absorb(&fx);
                    }
                }
            }
            cache.check_invariants();
        }

        // Drain: complete outstanding I/O and release everything; the
        // cache must end structurally clean.
        while !dev_model.pending.is_empty() {
            let (buf, _) = dev_model.pending.remove(0);
            let mut fx = Vec::new();
            cache.biodone(buf, false, &mut fx);
            dev_model.absorb(&fx);
            cache.check_invariants();
        }
        for buf in held {
            let mut fx = Vec::new();
            cache.brelse(buf, &mut fx);
            cache.check_invariants();
        }
    }
}
