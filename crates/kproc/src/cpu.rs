//! The single-CPU execution engine.
//!
//! Everything that costs cycles funnels through here so the availability
//! numbers mean something. Two admission classes exist:
//!
//! * [`WorkClass::Intr`] — interrupt-level work (device interrupt service,
//!   hardclock, the SCSI pseudo-DMA bounce copy, context switches). Runs
//!   as soon as the kernel is free, always; preempts user execution.
//! * [`WorkClass::Soft`] — deferrable kernel work: softclock callout
//!   dispatch and the splice handler chains they drive (read handlers,
//!   write handlers, RAM-disk strategy `bcopy`s). Per clock tick at most
//!   `soft_budget` of this may run at kernel priority; the rest must wait
//!   until the CPU is otherwise idle ([`CpuEngine::admit_idle`]). This is
//!   the policy that lets a splice saturate an idle machine while taking
//!   only a bounded slice from a busy one — the behaviour Table 1
//!   measures. (Ultrix implemented this implicitly through interrupt
//!   priority levels and callout pacing; modern kernels implement it
//!   explicitly as the softirq budget + `ksoftirqd`.)
//!
//! Kernel work is serialised (`busy_until`): a work item admitted at `t`
//! starts when the previous one finishes. User-visible delay is reported
//! to the caller, which adds it to the running process's completion time.

use ksim::{Dur, SimTime};

/// Admission class for kernel work.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkClass {
    /// Non-deferrable interrupt-level work.
    Intr,
    /// Deferrable softclock-level work, subject to the per-tick budget.
    Soft,
}

/// A granted execution window for one kernel work item.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KernelRun {
    /// When the work begins executing.
    pub start: SimTime,
    /// When it finishes (schedule completion effects here).
    pub end: SimTime,
}

impl KernelRun {
    /// The window's length.
    #[inline]
    pub fn cost(&self) -> Dur {
        self.end.since(self.start)
    }
}

/// Outcome of admitting kernel work.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Admit {
    /// The work runs in this window.
    Run(KernelRun),
    /// Over the soft budget: the caller must queue it and retry at the
    /// next tick or when the CPU idles.
    Deferred,
}

/// Kernel CPU time by work class (the availability accounting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuMetrics {
    /// Interrupt-class kernel time.
    pub intr_time: Dur,
    /// Softclock-class kernel time run within tick budgets.
    pub soft_time: Dur,
    /// Softclock-class kernel time run in idle cycles.
    pub idle_soft_time: Dur,
    /// Interrupt-class work items admitted.
    pub intr_items: u64,
    /// Soft-class work items admitted within budget.
    pub soft_items: u64,
    /// Soft-class work items pushed past their tick budget.
    pub soft_deferred: u64,
    /// Soft-class work items run during idle.
    pub idle_soft_items: u64,
}

/// The CPU engine. See the module docs.
pub struct CpuEngine {
    busy_until: SimTime,
    soft_budget: Dur,
    tick_soft_used: Dur,
    ctr: CpuMetrics,
}

impl CpuEngine {
    /// Creates an engine with the given per-tick soft-work budget.
    pub fn new(soft_budget: Dur) -> CpuEngine {
        CpuEngine {
            busy_until: SimTime::ZERO,
            soft_budget,
            tick_soft_used: Dur::ZERO,
            ctr: CpuMetrics::default(),
        }
    }

    /// The instant the kernel becomes free.
    #[inline]
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Remaining soft budget in the current tick.
    #[inline]
    pub fn soft_budget_left(&self) -> Dur {
        self.soft_budget.saturating_sub(self.tick_soft_used)
    }

    /// Accumulated accounting: kernel time and admitted items per class.
    pub fn metrics(&self) -> CpuMetrics {
        self.ctr
    }

    /// Resets the soft budget; call from the hardclock handler each tick.
    #[inline]
    pub fn new_tick(&mut self) {
        self.tick_soft_used = Dur::ZERO;
    }

    #[inline]
    fn run(&mut self, now: SimTime, cost: Dur) -> KernelRun {
        let start = if now > self.busy_until {
            now
        } else {
            self.busy_until
        };
        let end = start + cost;
        self.busy_until = end;
        KernelRun { start, end }
    }

    /// Admits kernel work of `class` at `now` costing `cost`.
    #[inline]
    pub fn admit(&mut self, now: SimTime, cost: Dur, class: WorkClass) -> Admit {
        match class {
            WorkClass::Intr => {
                self.ctr.intr_items += 1;
                self.ctr.intr_time += cost;
                Admit::Run(self.run(now, cost))
            }
            WorkClass::Soft => {
                // Threshold semantics: work is admitted while the tick's
                // usage is under budget; one item may overshoot (otherwise
                // an item larger than the whole budget would starve
                // forever).
                if self.tick_soft_used >= self.soft_budget {
                    self.ctr.soft_deferred += 1;
                    return Admit::Deferred;
                }
                self.tick_soft_used += cost;
                self.ctr.soft_items += 1;
                self.ctr.soft_time += cost;
                Admit::Run(self.run(now, cost))
            }
        }
    }

    /// Admits deferred soft work while the CPU is otherwise idle: no
    /// budget is charged, because nobody is being starved.
    #[inline]
    pub fn admit_idle(&mut self, now: SimTime, cost: Dur) -> KernelRun {
        self.ctr.idle_soft_items += 1;
        self.ctr.idle_soft_time += cost;
        self.run(now, cost)
    }

    /// Total kernel time consumed so far (all classes).
    pub fn kernel_time(&self) -> Dur {
        self.ctr.intr_time + self.ctr.soft_time + self.ctr.idle_soft_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + Dur::from_us(us)
    }

    #[test]
    fn intr_work_serialises() {
        let mut cpu = CpuEngine::new(Dur::from_us(100));
        let Admit::Run(a) = cpu.admit(t(0), Dur::from_us(50), WorkClass::Intr) else {
            panic!()
        };
        assert_eq!(a.start, t(0));
        assert_eq!(a.end, t(50));
        // Second item at the same instant queues behind the first.
        let Admit::Run(b) = cpu.admit(t(0), Dur::from_us(30), WorkClass::Intr) else {
            panic!()
        };
        assert_eq!(b.start, t(50));
        assert_eq!(b.end, t(80));
    }

    #[test]
    fn idle_gap_is_not_charged() {
        let mut cpu = CpuEngine::new(Dur::from_us(100));
        cpu.admit(t(0), Dur::from_us(10), WorkClass::Intr);
        let Admit::Run(b) = cpu.admit(t(500), Dur::from_us(10), WorkClass::Intr) else {
            panic!()
        };
        assert_eq!(b.start, t(500), "work starts at arrival after idle gap");
    }

    #[test]
    fn soft_budget_enforced_per_tick() {
        let mut cpu = CpuEngine::new(Dur::from_us(100));
        assert!(matches!(
            cpu.admit(t(0), Dur::from_us(60), WorkClass::Soft),
            Admit::Run(_)
        ));
        // Still under budget (60 < 100): admitted, overshooting to 120.
        assert!(matches!(
            cpu.admit(t(0), Dur::from_us(60), WorkClass::Soft),
            Admit::Run(_)
        ));
        // Over budget now: deferred.
        assert!(matches!(
            cpu.admit(t(0), Dur::from_us(1), WorkClass::Soft),
            Admit::Deferred
        ));
        // New tick refills.
        cpu.new_tick();
        assert!(matches!(
            cpu.admit(t(100), Dur::from_us(60), WorkClass::Soft),
            Admit::Run(_)
        ));
    }

    #[test]
    fn oversized_soft_item_cannot_starve() {
        // An item bigger than the whole budget still runs once per tick.
        let mut cpu = CpuEngine::new(Dur::from_us(100));
        assert!(matches!(
            cpu.admit(t(0), Dur::from_us(900), WorkClass::Soft),
            Admit::Run(_)
        ));
        assert!(matches!(
            cpu.admit(t(0), Dur::from_us(900), WorkClass::Soft),
            Admit::Deferred
        ));
        cpu.new_tick();
        assert!(matches!(
            cpu.admit(t(100), Dur::from_us(900), WorkClass::Soft),
            Admit::Run(_)
        ));
    }

    #[test]
    fn intr_ignores_soft_budget() {
        let mut cpu = CpuEngine::new(Dur::ZERO);
        assert!(matches!(
            cpu.admit(t(0), Dur::from_us(60), WorkClass::Intr),
            Admit::Run(_)
        ));
    }

    #[test]
    fn idle_admission_bypasses_budget() {
        let mut cpu = CpuEngine::new(Dur::ZERO);
        let run = cpu.admit_idle(t(0), Dur::from_us(500));
        assert_eq!(run.cost(), Dur::from_us(500));
        assert_eq!(cpu.metrics().idle_soft_items, 1);
    }

    #[test]
    fn kernel_time_accumulates_across_classes() {
        let mut cpu = CpuEngine::new(Dur::from_us(1000));
        cpu.admit(t(0), Dur::from_us(10), WorkClass::Intr);
        cpu.admit(t(0), Dur::from_us(20), WorkClass::Soft);
        cpu.admit_idle(t(100), Dur::from_us(30));
        assert_eq!(cpu.kernel_time(), Dur::from_us(60));
    }
}
