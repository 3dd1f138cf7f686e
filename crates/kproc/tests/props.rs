//! Property tests for the CPU engine and scheduler bookkeeping.

// Compiled only with `cargo test --features props` (hermetic default
// builds skip the property suites).
#![cfg(feature = "props")]

use proptest::prelude::*;

use kproc::programs::util::{pattern_bytes, pattern_check, pattern_fill};
use kproc::{
    Admit, Chan, ChanSpace, CpuEngine, CurrentRun, Pid, ProcState, ProcTable, Program, RunKind,
    Scheduler, Step, UserCtx, WorkClass,
};
use ksim::{Dur, SimTime};

struct Nop;
impl Program for Nop {
    fn step(&mut self, _ctx: &mut UserCtx) -> Step {
        Step::Exit(0)
    }
}

/// One step of the lazy-decay differential test; indices pick a pid
/// modulo the processes spawned so far.
#[derive(Clone, Copy, Debug)]
enum Op {
    Spawn,
    Charge(usize, u64),
    Refund(usize, u64),
    Decay(u32),
    Sleep(usize),
    Wake(usize),
    Exit(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::Spawn),
        4 => (any::<usize>(), 0u64..1 << 40).prop_map(|(i, ns)| Op::Charge(i, ns)),
        2 => (any::<usize>(), 0u64..1 << 40).prop_map(|(i, ns)| Op::Refund(i, ns)),
        3 => Just(Op::Decay(1)),
        1 => (65u32..200).prop_map(Op::Decay),
        1 => any::<usize>().prop_map(Op::Sleep),
        1 => any::<usize>().prop_map(Op::Wake),
        1 => any::<usize>().prop_map(Op::Exit),
    ]
}

/// The reference model: eager decay, one halving pass over every live
/// process per quarter second, as the scheduler once did. `None` marks
/// an exited process.
#[derive(Default)]
struct EagerDecay {
    cpu: Vec<Option<Dur>>,
}

impl EagerDecay {
    fn decay(&mut self) {
        for d in self.cpu.iter_mut().flatten() {
            *d = *d / 2;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lazy_decay_matches_eager_halving(ops in prop::collection::vec(op(), 1..200)) {
        let mut table = ProcTable::new();
        let mut model = EagerDecay::default();
        let chan = Chan::new(ChanSpace::Buf, 1);
        for op in ops {
            let n = model.cpu.len();
            // The live pid an index names, if any process exists.
            let pick = |i: usize| (n > 0 && model.cpu[i % n].is_some()).then(|| i % n);
            match op {
                Op::Spawn => {
                    let pid = table.spawn(Box::new(Nop), SimTime::ZERO);
                    prop_assert_eq!(pid, Pid(n as u32 + 1));
                    model.cpu.push(Some(Dur::ZERO));
                }
                Op::Charge(i, ns) => if let Some(i) = pick(i) {
                    table.charge_cpu(Pid(i as u32 + 1), Dur::from_ns(ns));
                    model.cpu[i] = model.cpu[i].map(|d| d + Dur::from_ns(ns));
                },
                Op::Refund(i, ns) => if let Some(i) = pick(i) {
                    table.refund_cpu(Pid(i as u32 + 1), Dur::from_ns(ns));
                    model.cpu[i] = model.cpu[i].map(|d| d.saturating_sub(Dur::from_ns(ns)));
                },
                Op::Decay(k) => for _ in 0..k {
                    table.decay_recent_cpu();
                    model.decay();
                },
                Op::Sleep(i) => if let Some(i) = pick(i) {
                    table.set_state(Pid(i as u32 + 1), ProcState::Sleeping(chan));
                },
                Op::Wake(i) => if let Some(i) = pick(i) {
                    table.set_state(Pid(i as u32 + 1), ProcState::Runnable);
                },
                Op::Exit(i) => if let Some(i) = pick(i) {
                    table.set_state(Pid(i as u32 + 1), ProcState::Exited(0));
                    model.cpu[i] = None;
                },
            }
            for (i, cpu) in model.cpu.iter().enumerate() {
                if let Some(cpu) = cpu {
                    prop_assert_eq!(table.recent_cpu(Pid(i as u32 + 1)), *cpu, "pid {}", i + 1);
                }
            }
        }
    }

    #[test]
    fn kernel_work_windows_never_overlap(
        items in prop::collection::vec((0u64..10_000, 1u64..2_000, any::<bool>()), 1..100)
    ) {
        let mut cpu = CpuEngine::new(Dur::from_us(500));
        let mut now = SimTime::ZERO;
        let mut last_end = SimTime::ZERO;
        let mut total_run = Dur::ZERO;
        for (gap_us, cost_us, soft) in items {
            now += Dur::from_us(gap_us);
            let class = if soft { WorkClass::Soft } else { WorkClass::Intr };
            match cpu.admit(now, Dur::from_us(cost_us), class) {
                Admit::Run(w) => {
                    // Serialised: every window begins at or after the
                    // previous one ends, and at or after its arrival.
                    prop_assert!(w.start >= last_end);
                    prop_assert!(w.start >= now);
                    prop_assert_eq!(w.cost(), Dur::from_us(cost_us));
                    last_end = w.end;
                    total_run += w.cost();
                }
                Admit::Deferred => {
                    prop_assert!(soft, "Intr work is never deferred");
                }
            }
        }
        prop_assert_eq!(cpu.kernel_time(), total_run);
    }

    #[test]
    fn soft_budget_resets_each_tick(
        costs in prop::collection::vec(1u64..400, 1..40)
    ) {
        let budget = Dur::from_us(500);
        let mut cpu = CpuEngine::new(budget);
        let mut admitted_this_tick = Dur::ZERO;
        for (i, c) in costs.iter().enumerate() {
            if i % 5 == 0 {
                cpu.new_tick();
                admitted_this_tick = Dur::ZERO;
            }
            let cost = Dur::from_us(*c);
            match cpu.admit(SimTime::ZERO + Dur::from_ms(i as u64), cost, WorkClass::Soft) {
                Admit::Run(_) => {
                    // Threshold semantics: admission happened while usage
                    // was under budget.
                    prop_assert!(admitted_this_tick < budget);
                    admitted_this_tick += cost;
                }
                Admit::Deferred => {
                    prop_assert!(admitted_this_tick >= budget);
                }
            }
        }
    }

    #[test]
    fn rearm_folds_every_penalty_into_stolen(
        chunks in prop::collection::vec((1u64..10_000, 0u64..500), 1..60)
    ) {
        let mut s = Scheduler::new(Dur::from_ms(40));
        let mut now = SimTime::ZERO;
        for (dur_us, penalty_us) in chunks {
            s.start_run(
                Pid(1),
                RunKind::SyscallCpu,
                now,
                Dur::from_us(dur_us),
                Dur::from_ms(40),
            );
            prop_assert_eq!(s.current().unwrap().chunk_end, now + Dur::from_us(dur_us));
            if penalty_us > 0 {
                s.current_mut().unwrap().penalty = Dur::from_us(penalty_us);
                let end = s.current().unwrap().chunk_end + Dur::from_us(penalty_us);
                s.rearm_current(end);
                let cur = s.current().unwrap();
                prop_assert_eq!(cur.chunk_end, end);
                prop_assert_eq!(cur.penalty, Dur::ZERO);
                prop_assert_eq!(cur.pid, Pid(1));
            }
            let run: CurrentRun = s.stop_current().unwrap();
            // Total stolen time is what was folded in by rearm.
            prop_assert_eq!(run.stolen, Dur::from_us(penalty_us));
            now = run.chunk_end;
        }
    }
}

/// The reference model for the pattern stream: byte `i` of a slice at
/// `offset` is the top byte of `(offset + i)·K1 + seed·K2`, computed
/// independently for every byte.
fn model_pattern(seed: u64, offset: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| {
            let x = offset
                .wrapping_add(i)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed.wrapping_mul(0xD1B5_4A32_D192_ED03));
            (x >> 56) as u8
        })
        .collect()
}

/// Offsets anywhere in the stream, or within 4 KB of `u64::MAX` so that
/// a slice wraps past the end of the offset space.
fn pattern_offset() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        (0u64..4096).prop_map(|d| u64::MAX - d),
        0u64..1 << 20,
    ]
}

/// `pattern_check`'s memo cap: checks longer than this run in place.
const MEMO_CAP: usize = 64 * 1024;

/// Check lengths around the memo cap, or short ones.
fn memo_len() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..301, MEMO_CAP - 8..MEMO_CAP + 9]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn pattern_functions_match_the_per_byte_model(
        seed in any::<u64>(),
        offset in pattern_offset(),
        len in 0usize..301,
        flip in (1u16..256).prop_map(|f| f as u8),
    ) {
        let want = model_pattern(seed, offset, len);
        let mut filled = vec![0u8; len];
        pattern_fill(seed, offset, &mut filled);
        prop_assert_eq!(&filled, &want);
        prop_assert_eq!(&pattern_bytes(seed, offset, len), &want);
        prop_assert_eq!(pattern_check(seed, offset, &want), None);
        // One corrupted byte at every position is found at that index.
        let mut data = want.clone();
        for i in 0..len {
            data[i] ^= flip;
            prop_assert_eq!(pattern_check(seed, offset, &data), Some(i), "flip at {}", i);
            data[i] ^= flip;
        }
        // Only the first of several mismatches is reported.
        if len > 1 {
            data[len - 1] ^= flip;
            data[len / 2] ^= flip;
            prop_assert_eq!(pattern_check(seed, offset, &data), Some(len / 2));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memoized_checks_match_the_per_byte_model(
        seed in any::<u64>(),
        offset in pattern_offset(),
        len in memo_len(),
        sub in (any::<usize>(), any::<usize>()),
        corrupt in any::<usize>(),
        flip in (1u16..256).prop_map(|f| f as u8),
    ) {
        let want = model_pattern(seed, offset, len);
        // The first check fills the memo (or runs in place past the cap);
        // the repeat hits it.
        prop_assert_eq!(pattern_check(seed, offset, &want), None);
        prop_assert_eq!(pattern_check(seed, offset, &want), None);
        // A sub-range, possibly straddling `u64::MAX`: a hit whenever the
        // whole slice was memoized.
        let a = sub.0 % len;
        let b = a + sub.1 % (len - a) + 1;
        let sub_off = offset.wrapping_add(a as u64);
        prop_assert_eq!(pattern_check(seed, sub_off, &want[a..b]), None);
        // A corrupted byte on the hit path is found at its exact index.
        let mut data = want.clone();
        let i = corrupt % len;
        data[i] ^= flip;
        prop_assert_eq!(pattern_check(seed, offset, &data), Some(i));
        if (a..b).contains(&i) {
            prop_assert_eq!(pattern_check(seed, sub_off, &data[a..b]), Some(i - a));
        }
        // Another seed at the same offset, straight after, must miss the
        // memo: its verdict is the per-byte model's.
        let other = seed ^ 1;
        let other_want = model_pattern(other, offset, len);
        let first_diff = want.iter().zip(&other_want).position(|(x, y)| x != y);
        prop_assert_eq!(pattern_check(other, offset, &want), first_diff);
        prop_assert_eq!(pattern_check(other, offset, &other_want), None);
    }
}
