//! The process table.
//!
//! State changes go through [`ProcTable::set_state`], which maintains
//! three incremental indices — the live count, the user-demand count,
//! and the per-channel sleeper lists — so `all_exited`,
//! `any_user_demand`, and `sleepers` are O(1)-ish however many
//! processes exist. A connection-scale scenario (tens of thousands of
//! client processes) calls all three on hot paths; scanning the table
//! there would make the whole simulation quadratic.
//!
//! A waiting process keeps its kernel state in its own [`Process`], as a
//! BSD `struct proc` does: its pending signals, its interval timer (the
//! period and the callout that fires it) and, for `pause(2)` or a timed
//! sleep, its wait channel. Those two channels are private to the pid
//! ([`Chan::is_private`]); the kernel wakes their sleeper through the
//! pid, so the sleeper index holds only channels `wakeup` can name.
//!
//! Priority decay is lazy for the same reason. The table keeps a decay
//! epoch that [`ProcTable::decay_recent_cpu`] bumps in O(1); each
//! process stores its recent CPU together with the epoch it was last
//! settled at, and is brought up to date only when next charged,
//! refunded or read (the 4.4BSD `updatepri`/`p_slptime` idiom). Halving
//! a nanosecond count `k` times with floor division is exactly `ns >> k`,
//! so the lazy value equals the one an eager quarter-second pass over
//! every process would produce.
//!
//! Pids are handed out densely from 1 and never removed, so the table is
//! a `Vec` indexed by `pid - 1`. A small table grows like any `Vec`; one
//! that outgrows `SMALL_TABLE` reserves `NPROC` slots in one step,
//! as 4.2BSD sizes its `proc[NPROC]` array once. A client fleet then
//! spawns into a table that never moves, instead of copying every
//! record at each doubling and leaving the old copies as holes in the
//! heap. Reserved slots cost address space only: a slot's pages become
//! resident when its pid is handed out.

use ksim::{CalloutId, Dur, IdMap, SimTime};

use crate::program::{Program, UserCtx};
use crate::types::{Chan, Pid, Sig, SigSet};

/// Slots a process table grows to one doubling at a time. Kernels that
/// run a few programs (a copy, a test) never reserve more.
const SMALL_TABLE: usize = 1024;

/// Slots a full table past `SMALL_TABLE` reserves in one step. Past
/// `NPROC` it doubles again.
const NPROC: usize = 32 * 1024;

/// Scheduling state of a process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProcState {
    /// On the run queue (or about to be placed there).
    Runnable,
    /// Currently on the CPU.
    Running,
    /// Asleep on a channel.
    Sleeping(Chan),
    /// Finished, with an exit status.
    Exited(i32),
}

/// Per-process accounting, read by the experiment harnesses.
#[derive(Clone, Copy, Default, Debug)]
pub struct ProcAccounting {
    /// User-mode CPU consumed.
    pub user_time: Dur,
    /// Kernel-mode CPU consumed on this process's behalf (syscalls).
    pub sys_time: Dur,
    /// Voluntary context switches (blocked).
    pub vcsw: u64,
    /// Involuntary context switches (quantum expiry).
    pub icsw: u64,
    /// System calls issued.
    pub syscalls: u64,
}

impl ProcAccounting {
    /// User plus system CPU charged to this process — the numerator of
    /// the profiler's availability gauge (`cpu_time / wall_time`).
    pub fn cpu_time(&self) -> Dur {
        self.user_time + self.sys_time
    }
}

/// An armed interval timer: its period and the callout that fires it
/// next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Itimer {
    /// Repeat period.
    pub period: Dur,
    /// The pending expiry; cancelled when the timer is reset or the
    /// process exits.
    pub callout: CalloutId,
}

/// One process.
pub struct Process {
    /// Identity.
    pub pid: Pid,
    /// Scheduling state.
    pub state: ProcState,
    /// The user program.
    pub program: Box<dyn Program>,
    /// Context handed to the next `program.step()` (syscall return,
    /// signals).
    pub ctx: UserCtx,
    /// Signals the process has asked to catch.
    caught: SigSet,
    /// Signals delivered but not yet consumed by a `pause`/step.
    pub pending_sigs: SigSet,
    /// The repeating interval timer, if armed.
    pub itimer: Option<Itimer>,
    /// User compute left over after a quantum preemption; resumed before
    /// the program is stepped again.
    pub pending_compute: Option<Dur>,
    /// Recently consumed CPU as of decay epoch `cpu_epoch` (the 4.3BSD
    /// `p_cpu` analogue): lower means better scheduling priority. Read it
    /// through [`ProcTable::recent_cpu`].
    recent_cpu: Dur,
    /// The decay epoch `recent_cpu` was last settled at.
    cpu_epoch: u64,
    /// Accounting.
    pub acct: ProcAccounting,
    /// When the process was created.
    pub started: SimTime,
    /// When it exited (for reports).
    pub ended: Option<SimTime>,
}

impl Process {
    /// True if the process catches `sig`.
    pub fn catches(&self, sig: Sig) -> bool {
        self.caught.contains(sig)
    }

    /// Catches `sig` from now on (`catch`) or stops catching it
    /// (`sigaction`).
    pub fn set_catch(&mut self, sig: Sig, catch: bool) {
        if catch {
            self.caught.insert(sig);
        } else {
            self.caught.remove(sig);
        }
    }

    /// True if the process has exited.
    #[inline]
    pub fn exited(&self) -> bool {
        matches!(self.state, ProcState::Exited(_))
    }

    /// `recent_cpu` at decay epoch `epoch`: `epoch - cpu_epoch`
    /// floor-halvings, which is a right shift.
    #[inline]
    fn decayed_cpu(&self, epoch: u64) -> Dur {
        let halvings = epoch - self.cpu_epoch;
        let ns = self.recent_cpu.as_ns();
        Dur::from_ns(if halvings >= 64 { 0 } else { ns >> halvings })
    }

    /// Brings `recent_cpu` up to `epoch` and returns it for update.
    #[inline]
    fn settle_cpu(&mut self, epoch: u64) -> &mut Dur {
        self.recent_cpu = self.decayed_cpu(epoch);
        self.cpu_epoch = epoch;
        &mut self.recent_cpu
    }
}

/// The process table: owns every process, allocates pids.
#[derive(Default)]
pub struct ProcTable {
    /// Pid `p` at index `p - 1`.
    procs: Vec<Process>,
    /// Quarter-second decays so far.
    decay_epoch: u64,
    /// Processes not yet exited.
    live: usize,
    /// Processes runnable or running.
    demand: usize,
    /// Pids sleeping on each shared channel, insertion order. A
    /// channel's entry goes when its last sleeper leaves, so the index
    /// holds only channels someone sleeps on now. Private channels
    /// ([`Chan::is_private`]) are never indexed.
    sleep_index: IdMap<Chan, Vec<Pid>>,
}

impl ProcTable {
    /// An empty table. Pid 0 is never handed out (it is the "kernel").
    pub fn new() -> ProcTable {
        ProcTable::default()
    }

    /// Creates a process running `program`, initially runnable.
    pub fn spawn(&mut self, program: Box<dyn Program>, now: SimTime) -> Pid {
        let pid = Pid(u32::try_from(self.procs.len() + 1).expect("pid space exhausted"));
        let n = self.procs.len();
        if n == self.procs.capacity() && (SMALL_TABLE..NPROC).contains(&n) {
            self.procs.reserve_exact(NPROC - n);
        }
        self.procs.push(Process {
            pid,
            state: ProcState::Runnable,
            program,
            ctx: UserCtx::default(),
            caught: SigSet::EMPTY,
            pending_sigs: SigSet::EMPTY,
            itimer: None,
            pending_compute: None,
            recent_cpu: Dur::ZERO,
            cpu_epoch: self.decay_epoch,
            acct: ProcAccounting::default(),
            started: now,
            ended: None,
        });
        self.live += 1;
        self.demand += 1;
        pid
    }

    /// Moves `pid` to `state`, keeping the live/demand/sleeper indices
    /// consistent. The only sanctioned way to change a process state.
    ///
    /// # Panics
    ///
    /// Panics if the pid is unknown.
    #[inline]
    pub fn set_state(&mut self, pid: Pid, state: ProcState) {
        let p = self.must_mut(pid);
        let old = p.state;
        if old == state {
            return;
        }
        p.state = state;
        match old {
            ProcState::Runnable | ProcState::Running => self.demand -= 1,
            ProcState::Sleeping(chan) if chan.is_private() => {}
            ProcState::Sleeping(chan) => {
                if let Some(v) = self.sleep_index.get_mut(&chan) {
                    v.retain(|&q| q != pid);
                    if v.is_empty() {
                        self.sleep_index.remove(&chan);
                    }
                }
            }
            ProcState::Exited(_) => self.live += 1,
        }
        match state {
            ProcState::Runnable | ProcState::Running => self.demand += 1,
            ProcState::Sleeping(chan) if chan.is_private() => {}
            ProcState::Sleeping(chan) => self.sleep_index.entry(chan).or_default().push(pid),
            ProcState::Exited(_) => self.live -= 1,
        }
    }

    /// Looks up a process.
    #[inline]
    pub fn get(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(pid.0.checked_sub(1)? as usize)
    }

    /// Looks up a process mutably.
    #[inline]
    pub fn get_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.procs.get_mut(pid.0.checked_sub(1)? as usize)
    }

    /// Indexes a process that must exist.
    ///
    /// # Panics
    ///
    /// Panics if the pid is unknown.
    #[inline]
    pub fn must(&self, pid: Pid) -> &Process {
        self.get(pid).unwrap_or_else(|| panic!("no {pid:?}"))
    }

    /// Mutable [`ProcTable::must`].
    ///
    /// # Panics
    ///
    /// Panics if the pid is unknown.
    #[inline]
    pub fn must_mut(&mut self, pid: Pid) -> &mut Process {
        self.get_mut(pid).unwrap_or_else(|| panic!("no {pid:?}"))
    }

    /// Iterates all processes in pid order.
    pub fn iter(&self) -> impl Iterator<Item = &Process> + '_ {
        self.procs.iter()
    }

    /// Halves every process's decayed CPU usage (the 4.3BSD `schedcpu`
    /// analogue). O(1): it only advances the decay epoch, and each
    /// process catches up when next touched.
    pub fn decay_recent_cpu(&mut self) {
        self.decay_epoch += 1;
    }

    /// `pid`'s decayed CPU usage.
    ///
    /// # Panics
    ///
    /// Panics if the pid is unknown.
    #[inline]
    pub fn recent_cpu(&self, pid: Pid) -> Dur {
        self.must(pid).decayed_cpu(self.decay_epoch)
    }

    /// Adds `d` of consumed CPU to `pid`'s decayed usage.
    ///
    /// # Panics
    ///
    /// Panics if the pid is unknown.
    #[inline]
    pub fn charge_cpu(&mut self, pid: Pid, d: Dur) {
        let epoch = self.decay_epoch;
        *self.must_mut(pid).settle_cpu(epoch) += d;
    }

    /// Takes back `d` of CPU charged but not consumed (a preempted chunk),
    /// stopping at zero.
    ///
    /// # Panics
    ///
    /// Panics if the pid is unknown.
    pub fn refund_cpu(&mut self, pid: Pid, d: Dur) {
        let epoch = self.decay_epoch;
        let cpu = self.must_mut(pid).settle_cpu(epoch);
        *cpu = cpu.saturating_sub(d);
    }

    /// Every process sleeping on `chan`, in pid order (the order the
    /// original table scan produced, so wakeup ordering is unchanged).
    /// `chan` must be shared: a private channel's sleeper is found by its
    /// pid, and the index does not hold it.
    pub fn sleepers(&self, chan: Chan) -> Vec<Pid> {
        debug_assert!(!chan.is_private(), "{chan:?} is private to its pid");
        let mut v = self.sleep_index.get(&chan).cloned().unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// True when every process has exited.
    #[inline]
    pub fn all_exited(&self) -> bool {
        self.live == 0
    }

    /// True if any process is runnable or running (used to decide whether
    /// deferred kernel work may monopolise the CPU).
    #[inline]
    pub fn any_user_demand(&self) -> bool {
        self.demand > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Step;

    struct Nop;
    impl Program for Nop {
        fn step(&mut self, _ctx: &mut UserCtx) -> Step {
            Step::Exit(0)
        }
    }

    #[test]
    fn process_layout_stays_small() {
        // A connection-scale fleet holds one `Process` per client; the
        // caught, pending and delivered signal sets are bit masks, not
        // heap vectors.
        let size = std::mem::size_of::<Process>();
        assert!(size <= 208, "Process is {size} bytes");
    }

    #[test]
    fn a_fleet_spawns_into_a_table_that_never_moves() {
        let mut t = ProcTable::new();
        for _ in 0..SMALL_TABLE {
            t.spawn(Box::new(Nop), SimTime::ZERO);
        }
        assert!(t.procs.capacity() <= SMALL_TABLE, "a small table doubles");
        t.spawn(Box::new(Nop), SimTime::ZERO);
        assert!(t.procs.capacity() >= NPROC, "no fleet-sized reservation");
        let at = t.procs.as_ptr();
        while t.procs.len() < NPROC {
            t.spawn(Box::new(Nop), SimTime::ZERO);
        }
        assert_eq!(t.procs.as_ptr(), at, "the table moved");
        let last = t.spawn(Box::new(Nop), SimTime::ZERO);
        assert_eq!(last, Pid(NPROC as u32 + 1));
        assert!(t.procs.capacity() > NPROC, "no growth past NPROC");
    }

    #[test]
    fn sigaction_mask_sets_and_clears_each_signal() {
        let mut t = ProcTable::new();
        let pid = t.spawn(Box::new(Nop), SimTime::ZERO);
        let p = t.must_mut(pid);
        assert!(!p.catches(Sig::Io) && !p.catches(Sig::Alrm));
        p.set_catch(Sig::Alrm, true);
        p.set_catch(Sig::Io, true);
        p.set_catch(Sig::Io, false);
        assert!(p.catches(Sig::Alrm) && !p.catches(Sig::Io));
    }

    #[test]
    fn spawn_assigns_unique_pids() {
        let mut t = ProcTable::new();
        let a = t.spawn(Box::new(Nop), SimTime::ZERO);
        let b = t.spawn(Box::new(Nop), SimTime::ZERO);
        assert_ne!(a, b);
        assert_eq!(t.must(a).state, ProcState::Runnable);
    }

    #[test]
    fn sleepers_filters_by_channel() {
        let mut t = ProcTable::new();
        let a = t.spawn(Box::new(Nop), SimTime::ZERO);
        let b = t.spawn(Box::new(Nop), SimTime::ZERO);
        let chan = Chan::new(crate::types::ChanSpace::Buf, 9);
        t.set_state(a, ProcState::Sleeping(chan));
        t.set_state(
            b,
            ProcState::Sleeping(Chan::new(crate::types::ChanSpace::Buf, 10)),
        );
        assert_eq!(t.sleepers(chan), vec![a]);
        // Waking detaches from the sleeper index, and the last sleeper
        // out takes the channel's entry with it.
        t.set_state(a, ProcState::Runnable);
        assert_eq!(t.sleepers(chan), vec![]);
        assert_eq!(t.sleep_index.len(), 1);
        t.set_state(b, ProcState::Exited(0));
        assert!(t.sleep_index.is_empty(), "an empty channel kept its entry");
    }

    #[test]
    fn sleepers_report_in_pid_order() {
        let mut t = ProcTable::new();
        let a = t.spawn(Box::new(Nop), SimTime::ZERO);
        let b = t.spawn(Box::new(Nop), SimTime::ZERO);
        let c = t.spawn(Box::new(Nop), SimTime::ZERO);
        let chan = Chan::new(crate::types::ChanSpace::Buf, 1);
        // Sleep in reverse order; the report is still pid-sorted.
        for pid in [c, a, b] {
            t.set_state(pid, ProcState::Sleeping(chan));
        }
        assert_eq!(t.sleepers(chan), vec![a, b, c]);
    }

    #[test]
    fn private_sleepers_stay_out_of_the_index() {
        use crate::types::ChanSpace;
        let mut t = ProcTable::new();
        let pids: Vec<Pid> = (0..4)
            .map(|_| t.spawn(Box::new(Nop), SimTime::ZERO))
            .collect();
        let (a, b, c, d) = (pids[0], pids[1], pids[2], pids[3]);
        let shared = Chan::new(ChanSpace::SockRecv, 5);
        t.set_state(c, ProcState::Sleeping(shared));
        t.set_state(b, ProcState::Sleeping(Chan::new(ChanSpace::Pause, 2)));
        t.set_state(a, ProcState::Sleeping(shared));
        t.set_state(d, ProcState::Sleeping(Chan::new(ChanSpace::Timed, 4)));
        // Only the shared channel has an entry, and its order is the
        // pid order it always was.
        assert_eq!(t.sleep_index.len(), 1);
        assert_eq!(t.sleepers(shared), vec![a, c]);
        assert!(!t.any_user_demand());
        // The pause sleeper's signal and the timed sleeper's timer wake
        // them through their pids.
        t.set_state(b, ProcState::Runnable);
        t.set_state(d, ProcState::Runnable);
        assert_eq!(t.must(b).state, ProcState::Runnable);
        assert_eq!(t.must(d).state, ProcState::Runnable);
        assert_eq!(t.sleepers(shared), vec![a, c]);
        t.set_state(a, ProcState::Runnable);
        t.set_state(c, ProcState::Exited(0));
        assert!(t.sleep_index.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "private to its pid")]
    fn sleepers_refuses_a_private_channel() {
        let t = ProcTable::new();
        t.sleepers(Chan::new(crate::types::ChanSpace::Pause, 1));
    }

    #[test]
    fn demand_and_exit_tracking() {
        let mut t = ProcTable::new();
        let a = t.spawn(Box::new(Nop), SimTime::ZERO);
        assert!(t.any_user_demand());
        assert!(!t.all_exited());
        t.set_state(a, ProcState::Exited(0));
        assert!(!t.any_user_demand());
        assert!(t.all_exited());
        // A sleeper is alive but not demanding the CPU.
        let b = t.spawn(Box::new(Nop), SimTime::ZERO);
        t.set_state(
            b,
            ProcState::Sleeping(Chan::new(crate::types::ChanSpace::Buf, 2)),
        );
        assert!(!t.any_user_demand());
        assert!(!t.all_exited());
        t.set_state(b, ProcState::Exited(0));
        assert!(t.all_exited());
    }

    #[test]
    fn lookup_rejects_pid_zero_and_unknown_pids() {
        let mut t = ProcTable::new();
        let a = t.spawn(Box::new(Nop), SimTime::ZERO);
        assert_eq!(a, Pid(1));
        assert!(t.get(Pid(0)).is_none());
        assert!(t.get(Pid(2)).is_none());
        assert!(t.get_mut(Pid(0)).is_none());
        assert!(t.get_mut(Pid(u32::MAX)).is_none());
        assert_eq!(t.get(a).map(|p| p.pid), Some(a));
    }

    #[test]
    #[should_panic(expected = "no Pid(")]
    fn must_panics_on_unknown_pid() {
        let mut t = ProcTable::new();
        t.spawn(Box::new(Nop), SimTime::ZERO);
        t.must(Pid(7));
    }

    #[test]
    fn iter_is_in_pid_order_across_spawns_and_exits() {
        let mut t = ProcTable::new();
        let a = t.spawn(Box::new(Nop), SimTime::ZERO);
        let b = t.spawn(Box::new(Nop), SimTime::ZERO);
        t.set_state(a, ProcState::Exited(0));
        let c = t.spawn(Box::new(Nop), SimTime::ZERO);
        t.set_state(c, ProcState::Exited(0));
        let d = t.spawn(Box::new(Nop), SimTime::ZERO);
        let pids: Vec<Pid> = t.iter().map(|p| p.pid).collect();
        assert_eq!(pids, vec![a, b, c, d]);
    }

    #[test]
    fn recent_cpu_halves_per_decay_and_settles_on_charge() {
        let mut t = ProcTable::new();
        let a = t.spawn(Box::new(Nop), SimTime::ZERO);
        t.charge_cpu(a, Dur::from_ns(1001));
        t.decay_recent_cpu();
        assert_eq!(t.recent_cpu(a), Dur::from_ns(500));
        t.decay_recent_cpu();
        t.charge_cpu(a, Dur::from_ns(10));
        assert_eq!(t.recent_cpu(a), Dur::from_ns(260));
        t.refund_cpu(a, Dur::from_ns(1000));
        assert_eq!(t.recent_cpu(a), Dur::ZERO);
        t.charge_cpu(a, Dur::from_ns(u64::MAX));
        for _ in 0..64 {
            t.decay_recent_cpu();
        }
        assert_eq!(t.recent_cpu(a), Dur::ZERO);
    }
}
