//! The user-program state-machine API.
//!
//! A simulated user program is a state machine the kernel advances: each
//! [`Program::step`] returns what the program does next — burn CPU, issue
//! a system call, or exit. The kernel runs the step's action, and on the
//! following `step` call delivers the result (syscall return value, data
//! read, signals taken) in the [`UserCtx`].
//!
//! Programs never see kernel internals; they interact purely through the
//! syscall vocabulary in [`crate::types`], like real processes.

use ksim::{Dur, SimTime};

use crate::types::{Sig, SigSet, SpliceReq, SyscallReq, SyscallRet};

/// What a program does next.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Execute user-mode instructions for this long.
    Compute(Dur),
    /// Trap into the kernel.
    Syscall(SyscallReq),
    /// Terminate with a status.
    Exit(i32),
}

impl Step {
    /// Issues `splice(2)` with the given request — sugar for
    /// `Step::Syscall(req.req())`.
    pub fn splice(req: SpliceReq) -> Step {
        Step::Syscall(req.req())
    }
}

/// What the kernel tells the program at each step.
#[derive(Clone, Debug, Default)]
pub struct UserCtx {
    /// Return value of the syscall issued by the previous step, if any.
    pub ret: Option<SyscallRet>,
    /// Signals delivered since the previous step.
    pub signals: SigSet,
    /// Current simulated time. Programs should treat this as
    /// `gettimeofday` output — fine for pacing decisions, not a hidden
    /// side channel (measurement harnesses read the kernel clock
    /// directly).
    pub now: SimTime,
}

impl UserCtx {
    /// Takes the syscall return, panicking if none is present — for
    /// program states that by construction follow a syscall.
    ///
    /// # Panics
    ///
    /// Panics if the previous step was not a syscall.
    pub fn take_ret(&mut self) -> SyscallRet {
        self.ret
            .take()
            .expect("program state expected a syscall return")
    }

    /// True if `sig` was delivered since the last step.
    pub fn got_signal(&self, sig: Sig) -> bool {
        self.signals.contains(sig)
    }
}

/// A simulated user program.
pub trait Program {
    /// Advances the program. `ctx` carries the previous step's results.
    fn step(&mut self, ctx: &mut UserCtx) -> Step;

    /// A short name for traces and reports.
    fn name(&self) -> &str {
        "program"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TwoStep {
        n: u32,
    }

    impl Program for TwoStep {
        fn step(&mut self, _ctx: &mut UserCtx) -> Step {
            self.n += 1;
            match self.n {
                1 => Step::Compute(Dur::from_ms(1)),
                _ => Step::Exit(0),
            }
        }
    }

    #[test]
    fn trait_object_usable() {
        let mut p: Box<dyn Program> = Box::new(TwoStep { n: 0 });
        let mut ctx = UserCtx::default();
        assert_eq!(p.step(&mut ctx), Step::Compute(Dur::from_ms(1)));
        assert_eq!(p.step(&mut ctx), Step::Exit(0));
    }

    #[test]
    #[should_panic(expected = "expected a syscall return")]
    fn take_ret_guards_state_machines() {
        let mut ctx = UserCtx::default();
        ctx.take_ret();
    }

    #[test]
    fn signal_query() {
        let ctx = UserCtx {
            signals: Sig::Alrm.into(),
            ..Default::default()
        };
        assert!(ctx.got_signal(Sig::Alrm));
        assert!(!ctx.got_signal(Sig::Io));
    }
}
