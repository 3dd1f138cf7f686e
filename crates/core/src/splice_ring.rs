//! Splice rings: batched submission and completion of splice requests.
//!
//! The paper removes the *per-byte* cost of a copy by keeping data in the
//! kernel; once thousands of descriptors are in flight the *per-call*
//! crossing cost (~40µs on the calibrated DECstation) becomes the next
//! tax. A splice ring amortizes it, io_uring style: a process creates a
//! ring with a bounded depth, posts many typed [`SpliceSqe`] submissions
//! in **one** `sys_ring_submit` crossing, and reaps typed [`SpliceCqe`]
//! completions in **one** `sys_ring_reap` crossing — optionally with a
//! `SIGIO` nudge when the completion queue goes non-empty.
//!
//! The ring is also the **unified request path**: every splice entry
//! point routes through it. A synchronous `splice(2)` is a depth-1
//! submit-and-wait on the process's implicit *legacy ring*; the
//! `FASYNC`/`SIGIO` descriptor path is a legacy-ring entry that posts
//! `SIGIO` instead of queueing a CQE; and the socket→descriptor index
//! that used to live in an ad-hoc `sock_splices` map on the kernel is
//! part of the ring table's in-flight bookkeeping. There is exactly one
//! code path from a [`kproc::SpliceReq`] to a
//! [`SpliceOutcome`] —
//! [`splice_begin`](crate::splice_engine), reached from here.
//!
//! Rejections use the same funnel as `splice(2)` itself
//! ([`Kernel::splice_reject`](crate::splice_engine)): `EINVAL` for a bad
//! ring depth, `EAGAIN` for a full submission queue, `EBADF` for a ring
//! the caller does not own. Per-entry endpoint failures do not fail the
//! batch: they are counted through the funnel and surfaced as error CQEs
//! carrying the typed errno.

use std::collections::VecDeque;

use knet::SockId;
use kproc::{Chan, ChanSpace, Errno, Pid, SpliceCqe, SpliceSqe, SyscallRet};
use ksim::{Dur, IdMap, TraceEvent};

use crate::kernel::Kernel;
use crate::splice_engine::SpliceBegin;
use crate::splice_engine::SpliceOutcome;
use crate::syscalls::{Cont, SyscallOutcome};

/// Hard cap on the depth of a created ring: big enough for the paper's
/// million-connection extrapolation to batch usefully, small enough that
/// a bogus depth cannot make the kernel pin unbounded completion state.
pub const RING_MAX_DEPTH: u32 = 1024;

/// Completion routing for one in-flight splice descriptor: which ring it
/// belongs to, the tag its CQE echoes, and how the owner is notified.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RingRoute {
    /// Owning ring id.
    pub ring: u64,
    /// CQE tag; `None` means "use the splice descriptor id" (legacy
    /// synchronous entries, whose id is not known until admission).
    pub user_data: Option<u64>,
    /// Queue a CQE at completion (every path except legacy `FASYNC`,
    /// which latches the outcome but announces by signal only).
    pub queue_cqe: bool,
    /// Post `SIGIO` to the owner at completion (legacy `FASYNC`).
    pub sigio: bool,
}

/// One splice ring: bounded in-flight + completion state for a process.
pub(crate) struct SpliceRing {
    pub owner: Pid,
    /// Bound on in-flight entries plus unreaped CQEs. Zero means
    /// unbounded — only the implicit legacy ring uses that.
    pub depth: u32,
    /// Ring-level `SIGIO` when the CQ goes non-empty.
    pub sigio: bool,
    /// The process's implicit ring backing plain `splice(2)` calls; not
    /// addressable by ring syscalls.
    pub legacy: bool,
    /// Owner exited: completions drain without queueing, and the ring is
    /// reclaimed once the last in-flight entry lands.
    pub dead: bool,
    /// In-flight splice descriptors charged to this ring.
    pub inflight: u32,
    /// Completions awaiting a reaper, in completion order.
    pub cq: VecDeque<SpliceCqe>,
}

impl SpliceRing {
    /// Submission room left: how many more entries may be admitted
    /// before in-flight + unreaped completions reach the depth bound.
    fn room(&self) -> usize {
        if self.depth == 0 {
            return usize::MAX;
        }
        (self.depth as usize).saturating_sub(self.inflight as usize + self.cq.len())
    }
}

/// The kernel's ring table: every ring, the in-flight routing table for
/// all splice descriptors (whatever their entry path), and the
/// socket→descriptor index for stream sources.
pub(crate) struct RingTable {
    rings: IdMap<u64, SpliceRing>,
    next_ring: u64,
    /// Implicit per-process rings backing the legacy entry points.
    legacy: IdMap<Pid, u64>,
    /// Splice descriptor id → completion routing.
    inflight: IdMap<u64, RingRoute>,
    /// Socket-sourced splices: src socket → descriptor (formerly the
    /// kernel's ad-hoc `sock_splices` map).
    socks: IdMap<SockId, u64>,
}

impl RingTable {
    pub fn new() -> RingTable {
        RingTable {
            rings: IdMap::default(),
            next_ring: 1,
            legacy: IdMap::default(),
            inflight: IdMap::default(),
            socks: IdMap::default(),
        }
    }

    pub fn create(&mut self, owner: Pid, depth: u32, sigio: bool, legacy: bool) -> u64 {
        let id = self.next_ring;
        self.next_ring += 1;
        self.rings.insert(
            id,
            SpliceRing {
                owner,
                depth,
                sigio,
                legacy,
                dead: false,
                inflight: 0,
                cq: VecDeque::new(),
            },
        );
        id
    }

    pub fn get(&self, ring: u64) -> Option<&SpliceRing> {
        self.rings.get(&ring)
    }

    pub fn get_mut(&mut self, ring: u64) -> Option<&mut SpliceRing> {
        self.rings.get_mut(&ring)
    }

    /// The process's implicit legacy ring, created on first use.
    pub fn legacy_ring_for(&mut self, pid: Pid) -> u64 {
        if let Some(&id) = self.legacy.get(&pid) {
            return id;
        }
        let id = self.create(pid, 0, false, true);
        self.legacy.insert(pid, id);
        id
    }

    /// Registers routing for an admitted splice descriptor.
    pub fn register(&mut self, desc: u64, route: RingRoute) {
        if let Some(r) = self.rings.get_mut(&route.ring) {
            r.inflight += 1;
        }
        self.inflight.insert(desc, route);
    }

    /// Removes and returns the routing of a completing descriptor,
    /// surrendering its in-flight slot.
    pub fn complete(&mut self, desc: u64) -> Option<RingRoute> {
        let route = self.inflight.remove(&desc)?;
        if let Some(r) = self.rings.get_mut(&route.ring) {
            r.inflight = r.inflight.saturating_sub(1);
        }
        Some(route)
    }

    /// Indexes a socket-sourced splice by its source socket.
    pub fn bind_sock(&mut self, sock: SockId, desc: u64) {
        self.socks.insert(sock, desc);
    }

    /// Drops the socket index entry (splice completion).
    pub fn unbind_sock(&mut self, sock: SockId) {
        self.socks.remove(&sock);
    }

    /// The splice draining `sock`, if one is active.
    pub fn sock_desc(&self, sock: SockId) -> Option<u64> {
        self.socks.get(&sock).copied()
    }

    /// Removes and returns the splice draining `sock` (source close).
    pub fn take_sock(&mut self, sock: SockId) -> Option<u64> {
        self.socks.remove(&sock)
    }

    /// Removes the CQE tagged `user_data` from `ring`, if queued (legacy
    /// synchronous reap of exactly one entry).
    pub fn remove_cqe(&mut self, ring: u64, user_data: u64) {
        if let Some(r) = self.rings.get_mut(&ring) {
            if let Some(pos) = r.cq.iter().position(|c| c.user_data == user_data) {
                r.cq.remove(pos);
            }
        }
    }

    /// Owner exit: rings die, queued completions are dropped, and each
    /// ring is reclaimed once its in-flight entries drain.
    pub fn owner_exit(&mut self, pid: Pid) {
        self.legacy.remove(&pid);
        let ids: Vec<u64> = self
            .rings
            .iter()
            .filter(|(_, r)| r.owner == pid)
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            let r = self.rings.get_mut(&id).unwrap();
            r.dead = true;
            r.cq.clear();
            if r.inflight == 0 {
                self.rings.remove(&id);
            }
        }
    }
}

impl Kernel {
    // ----- ring syscalls ----------------------------------------------------

    /// `sys_ring_create(depth, sigio)`: allocate a bounded ring. Depth 0
    /// (or past [`RING_MAX_DEPTH`]) is `EINVAL` through the splice
    /// rejection funnel.
    pub(crate) fn sys_ring_create(&mut self, pid: Pid, depth: u32, sigio: bool) -> SyscallOutcome {
        let m = self.cfg.machine.clone();
        if depth == 0 || depth > RING_MAX_DEPTH {
            return self.splice_reject(Errno::Einval);
        }
        let id = self.rings.create(pid, depth, sigio, false);
        SyscallOutcome::Done {
            cpu: m.syscall + m.buf_op,
            ret: SyscallRet::Val(id as i64),
        }
    }

    /// `sys_ring_submit(ring, sqes)`: admit as many submissions as the
    /// ring has room for, all under **one** syscall crossing. Returns
    /// `Val(accepted)`; `EAGAIN` when the ring is completely full,
    /// `EBADF` for a ring the caller does not own. Per-entry endpoint
    /// failures become error CQEs, not batch failures.
    pub(crate) fn sys_ring_submit(
        &mut self,
        pid: Pid,
        ring: u64,
        sqes: Vec<SpliceSqe>,
    ) -> SyscallOutcome {
        let m = self.cfg.machine.clone();
        let room = match self.rings.get(ring) {
            Some(r) if r.owner == pid && !r.dead && !r.legacy => r.room(),
            _ => return self.splice_reject(Errno::Ebadf),
        };
        if sqes.is_empty() {
            return SyscallOutcome::Done {
                cpu: m.syscall,
                ret: SyscallRet::Val(0),
            };
        }
        if room == 0 {
            // Full submission queue: the documented backpressure signal.
            return self.splice_reject(Errno::Eagain);
        }
        let accepted = sqes.len().min(room);
        let mut cpu = m.syscall;
        let now = self.q.now();
        for sqe in sqes.into_iter().take(accepted) {
            cpu += m.ring_submit_entry;
            // SQE admission wait: the simulated clock does not advance
            // inside one crossing, so the admission→dispatch gap is the
            // *virtual* CPU offset accumulated so far — entry 0 waits
            // only the syscall + its own admission charge, later entries
            // additionally wait behind every earlier entry's admission
            // and launch work.
            let wait_ns = cpu.as_ns();
            self.kstat.stages.sqe_wait.record(wait_ns);
            self.trace
                .emit(now, || TraceEvent::RingSqeWait { ring, wait_ns });
            let route = RingRoute {
                ring,
                user_data: Some(sqe.user_data),
                queue_cqe: true,
                sigio: false,
            };
            let fids = (
                self.files.resolve(pid, sqe.req.src),
                self.files.resolve(pid, sqe.req.dst),
            );
            let ((sfid, dfid), user_data) = match fids {
                (Some(s), Some(d)) => ((s, d), sqe.user_data),
                _ => {
                    let e = self.splice_reject_note(Errno::Ebadf);
                    self.ring_push_cqe(
                        ring,
                        SpliceCqe {
                            user_data: sqe.user_data,
                            outcome: SpliceOutcome {
                                bytes_moved: 0,
                                error: Some(e),
                            },
                        },
                    );
                    continue;
                }
            };
            match self.splice_begin(sfid, dfid, sqe.req.len, sqe.req.retry_limit, route) {
                SpliceBegin::Started { cpu: c, .. } => cpu += c,
                SpliceBegin::Empty { cpu: c } => {
                    cpu += c;
                    self.ring_push_cqe(
                        ring,
                        SpliceCqe {
                            user_data,
                            outcome: SpliceOutcome {
                                bytes_moved: 0,
                                error: None,
                            },
                        },
                    );
                }
                SpliceBegin::Rejected(e) => {
                    self.ring_push_cqe(
                        ring,
                        SpliceCqe {
                            user_data,
                            outcome: SpliceOutcome {
                                bytes_moved: 0,
                                error: Some(e),
                            },
                        },
                    );
                }
            }
        }
        self.trace.emit(now, || TraceEvent::RingSubmit {
            ring,
            entries: accepted as u32,
        });
        SyscallOutcome::Done {
            cpu,
            ret: SyscallRet::Val(accepted as i64),
        }
    }

    /// `sys_ring_reap(ring, min)`: drain queued completions in **one**
    /// crossing. Blocks until at least `min` CQEs are available, clamped
    /// to what can still arrive (so a reap can never deadlock waiting
    /// for completions that were never submitted); `min = 0` polls.
    pub(crate) fn sys_ring_reap(&mut self, pid: Pid, ring: u64, min: u32) -> SyscallOutcome {
        match self.rings.get(ring) {
            Some(r) if r.owner == pid && !r.dead && !r.legacy => {}
            _ => return self.splice_reject(Errno::Ebadf),
        }
        let base = self.cfg.machine.syscall;
        self.ring_try_reap(pid, ring, min, base)
    }

    /// A blocked reaper woke up: deliver if satisfied, else sleep again.
    pub(crate) fn resume_ring_reap(&mut self, pid: Pid, ring: u64, min: u32) -> SyscallOutcome {
        self.ring_try_reap(pid, ring, min, Dur::ZERO)
    }

    fn ring_try_reap(&mut self, pid: Pid, ring: u64, min: u32, base: Dur) -> SyscallOutcome {
        let m = self.cfg.machine.clone();
        let Some(r) = self.rings.get_mut(ring) else {
            // The ring vanished mid-sleep (cannot happen while the owner
            // lives, but degrade gracefully rather than hang).
            return SyscallOutcome::Done {
                cpu: base,
                ret: SyscallRet::Cqes(Vec::new()),
            };
        };
        // Clamp the wait target to what can still arrive.
        let arrivable = r.cq.len() as u32 + r.inflight;
        let eff_min = min.min(arrivable);
        if (r.cq.len() as u32) < eff_min {
            self.conts.insert(pid, Cont::RingReap { ring, min });
            return SyscallOutcome::Block {
                cpu: base,
                chan: Chan::new(ChanSpace::Ring, ring),
            };
        }
        let cqes: Vec<SpliceCqe> = r.cq.drain(..).collect();
        let n = cqes.len();
        let now = self.q.now();
        self.trace.emit(now, || TraceEvent::RingReap {
            ring,
            entries: n as u32,
        });
        SyscallOutcome::Done {
            cpu: base + m.ring_reap_entry * n as u64,
            ret: SyscallRet::Cqes(cqes),
        }
    }

    // ----- completion-side plumbing ----------------------------------------

    /// Queues a CQE on `ring` and performs the non-empty notification:
    /// wake sleeping reapers, and post `SIGIO` if the ring asked for it
    /// and the queue was empty.
    pub(crate) fn ring_push_cqe(&mut self, ring: u64, cqe: SpliceCqe) {
        let Some(r) = self.rings.get_mut(ring) else {
            return;
        };
        if r.dead {
            return;
        }
        let was_empty = r.cq.is_empty();
        let (owner, sigio) = (r.owner, r.sigio);
        r.cq.push_back(cqe);
        if was_empty && sigio {
            self.post_sigio(owner);
        }
        self.wakeup(Chan::new(ChanSpace::Ring, ring));
    }

    /// Completion routing for a finished splice descriptor: surrender
    /// the ring slot, queue the CQE / post `SIGIO` per the entry path,
    /// and wake reapers. Completions into a dead ring (owner exited)
    /// drain silently and reclaim the ring once it empties.
    pub(crate) fn ring_deliver(&mut self, desc: u64, outcome: SpliceOutcome) {
        let Some(route) = self.rings.complete(desc) else {
            return;
        };
        let ring = route.ring;
        let Some(r) = self.rings.get_mut(ring) else {
            return;
        };
        if r.dead {
            if r.inflight == 0 {
                self.rings.rings.remove(&ring);
            }
            return;
        }
        let owner = r.owner;
        if route.queue_cqe {
            self.ring_push_cqe(
                ring,
                SpliceCqe {
                    user_data: route.user_data.unwrap_or(desc),
                    outcome,
                },
            );
        } else {
            // Legacy FASYNC: outcome is latched in `splice_outcomes`;
            // wake anything polling the ring anyway (harmless).
            self.wakeup(Chan::new(ChanSpace::Ring, ring));
        }
        if route.sigio {
            self.post_sigio(owner);
        }
    }

    /// Ring teardown at process exit.
    pub(crate) fn ring_owner_exit(&mut self, pid: Pid) {
        self.rings.owner_exit(pid);
    }

    // ----- socket plumbing (formerly `sock_splices` special cases) ----------

    /// Source-socket close is EOF for the splice draining it: clamp the
    /// target and complete once in-flight work lands.
    pub(crate) fn splice_sock_eof(&mut self, sock: SockId) {
        if let Some(desc) = self.rings.take_sock(sock) {
            self.finish_splice_now(desc);
        }
    }

    /// A datagram landed on `sock`: if a splice is draining the socket,
    /// re-arm the engine's read side (the arrival funds one more stream
    /// pull, watermarks permitting) and return `true`; otherwise the
    /// caller wakes sleeping receivers.
    pub(crate) fn splice_sock_feed(&mut self, sock: SockId) -> bool {
        let Some(desc) = self.rings.sock_desc(sock) else {
            return false;
        };
        self.enqueue_kwork(
            kproc::WorkClass::Soft,
            self.cfg.machine.splice_handler,
            crate::event::KWork::SpliceIssueReads { desc },
        );
        true
    }
}
