//! Round-robin scheduler state.
//!
//! The scheduler holds the run queue and the record of what is on the CPU
//! right now. The kernel event loop (in the `splice` crate) drives the
//! transitions; this module keeps the bookkeeping honest:
//!
//! * a process is never queued twice,
//! * there is at most one current run.
//!
//! The kernel holds the current run's completion instant in a register
//! beside its event queue, not as a queued event, so a completion always
//! belongs to the run on the CPU: a preemption moves the key out of the
//! register, and nothing fired from the register can be stale.
//!
//! Kernel work that preempts the running process does not generate
//! explicit preemption events; instead its duration accumulates in
//! [`CurrentRun::penalty`], and the chunk completion re-arms itself for
//! the remaining time (see the event loop). This models "interrupts
//! steal cycles from whoever is running", which is exactly the effect the
//! paper's CPU-availability experiment measures.

use std::collections::VecDeque;

use ksim::{Dur, SimTime};

use crate::types::{Pid, PidMap};

/// Why the current process is on the CPU.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunKind {
    /// Executing user-mode compute; this much remains after the current
    /// chunk.
    Compute {
        /// Compute remaining beyond the current chunk (for quantum
        /// slicing).
        remaining: Dur,
    },
    /// Executing the CPU portion of a system call.
    SyscallCpu,
}

/// The record of the chunk currently executing on the CPU.
#[derive(Clone, Copy, Debug)]
pub struct CurrentRun {
    /// Who is running.
    pub pid: Pid,
    /// What kind of execution this is.
    pub kind: RunKind,
    /// When the chunk began executing.
    pub started: SimTime,
    /// The chunk's own CPU demand (excluding stolen kernel time).
    pub nominal: Dur,
    /// Nominal completion time (excluding penalties accrued after
    /// scheduling).
    pub chunk_end: SimTime,
    /// Kernel time stolen from this chunk since it was (re)armed; the
    /// completion handler pushes the chunk out by this much.
    pub penalty: Dur,
    /// Total kernel time stolen since the chunk began (for preemption
    /// arithmetic).
    pub stolen: Dur,
    /// Quantum remaining after this chunk completes.
    pub quantum_left: Dur,
}

impl CurrentRun {
    /// User CPU actually executed by `now` (wall time minus kernel
    /// steals), clamped to the chunk's demand.
    pub fn executed_by(&self, now: SimTime) -> Dur {
        let total_stolen = self.stolen + self.penalty;
        now.saturating_since(self.started)
            .saturating_sub(total_stolen)
            .min(self.nominal)
    }

    /// User CPU still owed at `now`.
    pub fn remaining_at(&self, now: SimTime) -> Dur {
        self.nominal.saturating_sub(self.executed_by(now))
    }
}

/// Run queue + current-run bookkeeping.
pub struct Scheduler {
    runq: VecDeque<Pid>,
    /// Mirror of `runq` membership, so the never-queued-twice invariant
    /// is O(1) to check however long the queue grows (tens of thousands
    /// of runnable clients in the connection-scale scenarios).
    queued_set: PidMap<()>,
    current: Option<CurrentRun>,
    quantum: Dur,
}

impl Scheduler {
    /// Creates a scheduler with the given time quantum.
    pub fn new(quantum: Dur) -> Scheduler {
        Scheduler {
            runq: VecDeque::new(),
            queued_set: PidMap::default(),
            current: None,
            quantum,
        }
    }

    /// The configured quantum.
    #[inline]
    pub fn quantum(&self) -> Dur {
        self.quantum
    }

    /// Adds a process to the tail of the run queue.
    ///
    /// # Panics
    ///
    /// Panics if the process is already queued or current.
    pub fn enqueue(&mut self, pid: Pid) {
        assert!(
            self.queued_set.insert(pid, ()).is_none(),
            "{pid:?} already on the run queue"
        );
        assert!(
            self.current.map(|c| c.pid) != Some(pid),
            "{pid:?} is already running"
        );
        self.runq.push_back(pid);
    }

    /// Removes and returns the process at the head of the run queue.
    #[inline]
    pub fn take_next(&mut self) -> Option<Pid> {
        let pid = self.runq.pop_front();
        if let Some(pid) = pid {
            self.queued_set.remove(pid);
        }
        pid
    }

    /// Adds a process to the *head* of the run queue (it was about to be
    /// dispatched and lost a race; it keeps its turn).
    ///
    /// # Panics
    ///
    /// Panics if the process is already queued or current.
    pub fn enqueue_front(&mut self, pid: Pid) {
        assert!(
            self.queued_set.insert(pid, ()).is_none(),
            "{pid:?} already on the run queue"
        );
        assert!(
            self.current.map(|c| c.pid) != Some(pid),
            "{pid:?} is already running"
        );
        self.runq.push_front(pid);
    }

    /// The run queue length.
    #[inline]
    pub fn queued(&self) -> usize {
        self.runq.len()
    }

    /// The current run record, if a process is on the CPU.
    #[inline]
    pub fn current(&self) -> Option<&CurrentRun> {
        self.current.as_ref()
    }

    /// Mutable access to the current run (penalty accumulation).
    #[inline]
    pub fn current_mut(&mut self) -> Option<&mut CurrentRun> {
        self.current.as_mut()
    }

    /// Installs a new current run.
    ///
    /// # Panics
    ///
    /// Panics if something is already running.
    pub fn start_run(
        &mut self,
        pid: Pid,
        kind: RunKind,
        started: SimTime,
        nominal: Dur,
        quantum_left: Dur,
    ) {
        assert!(self.current.is_none(), "CPU already occupied");
        self.current = Some(CurrentRun {
            pid,
            kind,
            started,
            nominal,
            chunk_end: started + nominal,
            penalty: Dur::ZERO,
            stolen: Dur::ZERO,
            quantum_left,
        });
    }

    /// Replaces the completion target of the current run (penalty
    /// reschedule), folding the penalty into the stolen total.
    ///
    /// # Panics
    ///
    /// Panics if nothing is running.
    pub fn rearm_current(&mut self, chunk_end: SimTime) {
        let cur = self.current.as_mut().expect("no current run to re-arm");
        cur.chunk_end = chunk_end;
        cur.stolen += cur.penalty;
        cur.penalty = Dur::ZERO;
    }

    /// Removes and returns the current run (the chunk finished, the
    /// process blocked, was preempted, or exited).
    #[inline]
    pub fn stop_current(&mut self) -> Option<CurrentRun> {
        self.current.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + Dur::from_us(us)
    }

    #[test]
    fn fifo_order() {
        let mut s = Scheduler::new(Dur::from_ms(40));
        s.enqueue(Pid(1));
        s.enqueue(Pid(2));
        assert_eq!(s.take_next(), Some(Pid(1)));
        assert_eq!(s.take_next(), Some(Pid(2)));
        assert_eq!(s.take_next(), None);
    }

    #[test]
    #[should_panic(expected = "already on the run queue")]
    fn double_enqueue_panics() {
        let mut s = Scheduler::new(Dur::from_ms(40));
        s.enqueue(Pid(1));
        s.enqueue(Pid(1));
    }

    #[test]
    fn run_lifecycle_and_rearm() {
        let mut s = Scheduler::new(Dur::from_ms(40));
        s.start_run(
            Pid(1),
            RunKind::SyscallCpu,
            t(0),
            Dur::from_us(100),
            Dur::from_ms(40),
        );
        let cur = s.current().unwrap();
        assert_eq!((cur.pid, cur.chunk_end), (Pid(1), t(100)));
        // A penalty reschedule moves the end and keeps the run.
        s.current_mut().unwrap().penalty = Dur::from_us(50);
        s.rearm_current(t(150));
        assert_eq!(s.current().unwrap().penalty, Dur::ZERO);
        let run = s.stop_current().unwrap();
        assert_eq!(run.chunk_end, t(150));
        assert_eq!(run.stolen, Dur::from_us(50), "rearm folds penalty in");
        assert!(s.current().is_none());
    }

    #[test]
    fn executed_and_remaining_account_for_steals() {
        let mut s = Scheduler::new(Dur::from_ms(40));
        s.start_run(
            Pid(1),
            RunKind::Compute {
                remaining: Dur::ZERO,
            },
            t(0),
            Dur::from_us(1000),
            Dur::from_ms(40),
        );
        // 400 us in, 100 us stolen: 300 us executed, 700 us left.
        s.current_mut().unwrap().penalty = Dur::from_us(100);
        let cur = s.current().unwrap();
        assert_eq!(cur.executed_by(t(0) + Dur::from_us(400)), Dur::from_us(300));
        assert_eq!(
            cur.remaining_at(t(0) + Dur::from_us(400)),
            Dur::from_us(700)
        );
        // Executed never exceeds the demand.
        assert_eq!(cur.executed_by(t(0) + Dur::from_ms(10)), Dur::from_us(1000));
    }

    #[test]
    #[should_panic(expected = "CPU already occupied")]
    fn double_start_panics() {
        let mut s = Scheduler::new(Dur::from_ms(40));
        s.start_run(Pid(1), RunKind::SyscallCpu, t(1), Dur::ZERO, Dur::ZERO);
        s.start_run(Pid(2), RunKind::SyscallCpu, t(1), Dur::ZERO, Dur::ZERO);
    }

    #[test]
    fn penalty_accumulates() {
        let mut s = Scheduler::new(Dur::from_ms(40));
        s.start_run(
            Pid(1),
            RunKind::Compute {
                remaining: Dur::ZERO,
            },
            t(100),
            Dur::from_us(1),
            Dur::from_ms(40),
        );
        s.current_mut().unwrap().penalty += Dur::from_us(30);
        s.current_mut().unwrap().penalty += Dur::from_us(12);
        assert_eq!(s.current().unwrap().penalty, Dur::from_us(42));
    }
}
