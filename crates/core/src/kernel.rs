//! The assembled kernel: event loop, clock, interrupts, scheduling, and
//! the kernel-work engine.
//!
//! # Execution model
//!
//! One [`ksim::EventQueue`] drives everything, beside two registers that
//! hold the two keys the CPU itself re-arms: the running chunk's
//! completion and the next hardclock (see [`Kernel::run_until`]). CPU
//! time is arbitrated by
//! [`kproc::CpuEngine`]: kernel work (interrupt bottom halves, softclock
//! callout payloads, splice handler chains, RAM-disk strategy copies) is
//! *admitted* — charged and serialised — and its state changes are
//! *applied* at the end of its execution window ([`crate::event::Event::Apply`]).
//! Work admitted while a user process runs extends that process's current
//! chunk (the penalty mechanism in [`kproc::Scheduler`]), which is how
//! interrupt load becomes visible to the paper's CPU-availability metric.
//!
//! Deferrable (softclock-class) work beyond the per-tick budget queues in
//! `deferred` and runs either in later ticks' budgets or — without any
//! budget — whenever no user process wants the CPU (`Kernel::maybe_pump`).

use std::collections::VecDeque;

use kbuf::{BufData, BufId, Cache, DevId, IoDir, SpliceRef};
use kfs::{Fs, FsIo};
use khw::{Disk, DiskProfile, MachineProfile, RamDisk};
use knet::{Net, SockId};
use kproc::{
    Admit, Chan, ChanSpace, CpuEngine, Itimer, Pid, PidMap, ProcState, ProcTable, Program, RunKind,
    Scheduler, Sig, Step, WorkClass,
};
use ksim::{Callout, Dur, EventKey, EventQueue, IdMap, IdSet, SimTime, Trace, TraceEvent};

use crate::event::{Event, KWork};
use crate::objects::{CharDev, CharDevUnit, DiskUnit, DiskUnitKind, FileTable};
use crate::splice_engine::{FlowControl, SpliceDesc};
use crate::syscalls::{AfterCpu, Cont, SyscallOutcome};

/// Static kernel configuration.
#[derive(Clone)]
pub struct KernelConfig {
    /// Machine cost table.
    pub machine: MachineProfile,
    /// Buffer cache size in bytes (the paper's machine: 3.2 MB).
    pub cache_bytes: usize,
    /// Filesystem block size (8 KB).
    pub block_size: u32,
    /// Inode slots per filesystem.
    pub ninodes: u32,
    /// Splice flow-control watermarks (§5.2.3).
    pub flow: FlowControl,
    /// Period of the `update` daemon's delayed-write flush (`None`
    /// disables it). Classic UNIX ran `update` every 30 seconds.
    pub update_interval: Option<Dur>,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            machine: MachineProfile::decstation_5000_200(),
            cache_bytes: 3_276_800, // 3.2 MB → 400 8 KB buffers
            block_size: 8192,
            ninodes: 512,
            flow: FlowControl::default(),
            update_interval: Some(Dur::from_secs(30)),
        }
    }
}

/// Whose CPU pays for synchronous (RAM-disk) device work.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoCtx {
    /// A process is in the kernel: synchronous work is part of the system
    /// call (returned as a cost for the syscall chunk).
    Process,
    /// Asynchronous kernel context (splice chains, flush writes):
    /// synchronous work becomes deferrable kernel work.
    Kernel,
}

/// The kernel. Built with [`crate::harness::KernelBuilder`].
pub struct Kernel {
    pub(crate) cfg: KernelConfig,
    pub(crate) q: EventQueue<Event>,
    /// The running chunk's completion key, held beside the queue: BSD's
    /// hardclock charges `curproc` directly rather than queueing its
    /// slice. Set by `start_chunk` and a penalty re-arm, cleared when it
    /// fires; a preemption moves it into the queue as an
    /// [`Event::UserDone`] no-op.
    pub(crate) chunk_due: Option<EventKey>,
    /// The next hardclock's key: the clock always runs, so it is always
    /// set.
    pub(crate) tick_due: EventKey,
    pub(crate) callout: Callout<KWork>,
    /// Scratch for `on_tick`'s callout drain, reused so softclock does
    /// not allocate per tick in steady state.
    pub(crate) callout_due: Vec<KWork>,
    pub(crate) tick: u64,
    pub(crate) cpu: CpuEngine,
    pub(crate) sched: Scheduler,
    pub(crate) procs: ProcTable,
    pub(crate) cache: Cache,
    pub(crate) disks: Vec<DiskUnit>,
    pub(crate) devmap: IdMap<DevId, usize>,
    pub(crate) net: Net,
    pub(crate) cdevs: Vec<CharDevUnit>,
    pub(crate) files: FileTable,
    pub(crate) splices: IdMap<u64, SpliceDesc>,
    /// How the last [`ksim::RECENT_SPANS`] finished splices ended (bytes
    /// moved + errno), oldest first, kept after the descriptor is torn
    /// down for partial-transfer audits. No syscall reads it: 64 later
    /// completions can evict an outcome before its caller resumes.
    pub(crate) splice_outcomes: VecDeque<(u64, crate::splice_engine::SpliceOutcome)>,
    /// The outcome of each finished splice whose caller sleeps in
    /// `splice(2)`, by descriptor: filled at completion, taken when the
    /// caller resumes. A blocked caller cannot exit or be interrupted,
    /// so every slot is taken.
    pub(crate) sync_outcomes: IdMap<u64, crate::splice_engine::SpliceOutcome>,
    /// Socket-sourced splices: source socket → descriptor, so a datagram
    /// arrival re-arms the splice and a close ends it
    /// ([`Kernel::splice_sock_feed`], [`Kernel::splice_sock_eof`]).
    pub(crate) sock_splices: IdMap<SockId, u64>,
    pub(crate) next_splice: u64,
    /// What each waiting process resumes with, whether it sleeps on a
    /// channel or until an instant, in a slot indexed by pid. Written
    /// only by [`Kernel::apply_syscall_outcome`].
    pub(crate) conts: PidMap<Cont>,
    /// Where the process running a syscall-CPU chunk goes when the
    /// chunk ends. Kernel mode is not preempted, so at most one chunk
    /// is in flight.
    pub(crate) pending_after: Option<(Pid, AfterCpu)>,
    pub(crate) deferred: VecDeque<(Dur, KWork)>,
    pub(crate) dispatch_pending: bool,
    /// A wakeup boosted a process while a syscall chunk was on the CPU;
    /// reschedule at the next kernel exit.
    pub(crate) resched: bool,
    /// One record per busy buffer with a device transfer in flight,
    /// from [`Kernel::start_io`] to [`Kernel::finish_io`]. A SCSI
    /// request's token is its buffer's index.
    pub(crate) transfers: IdMap<BufId, Transfer>,
    /// Splice payloads waiting for a destination host's link backlog to
    /// drain below the send-buffer limit, FIFO per host. At most one
    /// [`KWork::SpliceSockDrain`] callout is in flight per host (its
    /// presence in `park_drains`), so a thousand parked connections cost
    /// one timer, not a retry herd.
    pub(crate) parked_sends: IdMap<u32, VecDeque<crate::endpoint::ParkedSend>>,
    /// Hosts with a parked-queue drain callout already scheduled.
    pub(crate) park_drains: IdSet<u32>,
    /// [PCM91] baseline: kernel-held data handles.
    pub(crate) handles: IdMap<i64, ksim::Bytes>,
    pub(crate) next_handle: i64,
    /// The kernel's own typed counters (read through [`Kernel::metrics`]).
    /// Boxed: held inline, its 33 words cost about 10% more host time
    /// on the perfbench serving workloads.
    pub(crate) ctr: Box<crate::metrics::KernelCounters>,
    /// Structured statistics: splice spans plus latency histograms
    /// (exposed through [`Kernel::kstat`] and [`Kernel::metrics`]).
    pub(crate) kstat: ksim::Kstat,
    pub(crate) trace: Trace,
    /// The off-CPU traffic source of a served scenario, if attached.
    pub(crate) source: Option<Box<crate::traffic::TrafficSource>>,
}

/// Where the next event comes from (see [`Kernel::run_until`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Due {
    /// The event queue's top.
    Queue,
    /// The running chunk's completion register.
    Chunk,
    /// The hardclock register.
    Tick,
}

/// A device transfer in flight for one busy buffer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Transfer {
    /// Disk index.
    pub(crate) disk: usize,
    /// Direction.
    pub(crate) dir: IoDir,
    /// When the transfer was issued (bread/bwrite latency, read queue
    /// wait).
    pub(crate) issued: SimTime,
}

/// Default trace-ring capacity when tracing is toggled on without the
/// builder ([`KernelBuilder::trace`](crate::KernelBuilder::trace) sets
/// an explicit one).
pub(crate) const DEFAULT_TRACE_CAPACITY: usize = 400_000;

impl Kernel {
    /// Builds a kernel with no disks or devices (the builder adds them).
    pub(crate) fn new(cfg: KernelConfig) -> Kernel {
        let nbufs = cfg.cache_bytes / cfg.block_size as usize;
        // Boot the clock.
        let mut q = EventQueue::new();
        let tick_due = (SimTime::ZERO + cfg.machine.tick(), q.take_seq());
        let mut k = Kernel {
            cpu: CpuEngine::new(cfg.machine.softwork_budget_per_tick),
            sched: Scheduler::new(cfg.machine.quantum),
            cache: Cache::new(nbufs.max(8), cfg.block_size as usize),
            cfg,
            q,
            chunk_due: None,
            tick_due,
            callout: Callout::new(),
            callout_due: Vec::new(),
            tick: 0,
            procs: ProcTable::new(),
            disks: Vec::new(),
            devmap: IdMap::default(),
            net: Net::new(),
            cdevs: Vec::new(),
            files: FileTable::new(),
            splices: IdMap::default(),
            splice_outcomes: VecDeque::new(),
            sync_outcomes: IdMap::default(),
            sock_splices: IdMap::default(),
            next_splice: 1,
            conts: PidMap::default(),
            pending_after: None,
            deferred: VecDeque::new(),
            dispatch_pending: false,
            resched: false,
            transfers: IdMap::default(),
            parked_sends: IdMap::default(),
            park_drains: IdSet::default(),
            handles: IdMap::default(),
            next_handle: 1,
            ctr: Default::default(),
            kstat: ksim::Kstat::new(),
            trace: Trace::new(DEFAULT_TRACE_CAPACITY),
            source: None,
        };
        // Boot the update daemon.
        let tick = k.cfg.machine.tick();
        if let Some(period) = k.cfg.update_interval {
            let ticks = (period.as_ns() / tick.as_ns()).max(1);
            k.callout.schedule(0, ticks, KWork::UpdateFlush);
        }
        k
    }

    // ----- construction helpers (used by the builder) ----------------------

    /// Adds a disk with a fresh filesystem mounted at `/<name>`.
    pub(crate) fn add_disk(&mut self, name: &str, profile: DiskProfile) -> usize {
        // The medium is held in file-system blocks, so every cache
        // transfer moves one shared block.
        let bs = self.cfg.block_size as usize;
        let mut kind = if profile.kind == khw::DiskKind::Ram {
            DiskUnitKind::Ram(RamDisk::new(profile, bs))
        } else {
            DiskUnitKind::Scsi(Disk::new(profile, bs))
        };
        let fs = Fs::mkfs(kind.store_mut(), self.cfg.block_size, self.cfg.ninodes);
        let dev = DevId(self.disks.len() as u32);
        let idx = self.disks.len();
        self.devmap.insert(dev, idx);
        self.disks.push(DiskUnit {
            name: name.to_string(),
            kind,
            fs,
            dev,
            write_inflight: 0,
            wb_err: 0,
        });
        idx
    }

    /// Registers a character device at `path` (must start with `/dev/`).
    pub(crate) fn add_cdev(&mut self, path: &str, dev: CharDev) -> usize {
        assert!(path.starts_with("/dev/"), "character devices live in /dev");
        self.cdevs.push(CharDevUnit {
            path: path.to_string(),
            dev,
            write_fail_after: None,
        });
        self.cdevs.len() - 1
    }

    // ----- public accessors -------------------------------------------------

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.q.now()
    }

    /// The process table (accounting reads).
    pub fn procs(&self) -> &ProcTable {
        &self.procs
    }

    /// The buffer cache (stats/assertions in tests).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// The network stack (stats in tests).
    pub fn net(&self) -> &Net {
        &self.net
    }

    /// Mutable network stack (scenario setup: link models, buffer
    /// limits).
    pub fn net_mut(&mut self) -> &mut Net {
        &mut self.net
    }

    /// Mounted disks (stats/store access in tests and harnesses).
    pub fn disks(&self) -> &[DiskUnit] {
        &self.disks
    }

    /// Mutable disk access (experiment setup).
    pub fn disks_mut(&mut self) -> &mut [DiskUnit] {
        &mut self.disks
    }

    /// Installs a fault plan on disk `idx` (see [`khw::FaultPlan`]). The
    /// plan's device identity is set to the disk index so two disks
    /// sharing a seed still fail independently.
    pub fn set_fault_plan(&mut self, idx: usize, plan: khw::FaultPlan) {
        let plan = plan.device(idx as u64);
        match &mut self.disks[idx].kind {
            DiskUnitKind::Scsi(d) => d.set_fault_plan(Some(plan)),
            DiskUnitKind::Ram(rd) => rd.set_fault_plan(Some(plan)),
        }
    }

    /// Arms an injected write failure on character device `cdev`: once
    /// `bytes` more accepted bytes have been delivered, the next splice
    /// delivery to the device fails with `EIO` and aborts its splice.
    pub fn set_cdev_write_failure(&mut self, cdev: usize, bytes: u64) {
        self.cdevs[cdev].write_fail_after = Some(bytes);
    }

    /// Number of armed callout entries (the `update` daemon, when
    /// enabled, permanently holds one). Leak assertions in fault tests
    /// check this returns to its quiescent value after an abort.
    pub fn pending_callouts(&self) -> usize {
        self.callout.len()
    }

    /// Character devices (assertions in tests and examples).
    pub fn cdevs(&self) -> &[CharDevUnit] {
        &self.cdevs
    }

    /// Enables the typed trace ring (and the cache's event log feeding
    /// it). Prefer [`KernelBuilder::trace`](crate::KernelBuilder::trace)
    /// for an explicit capacity.
    pub fn set_trace(&mut self, on: bool) {
        self.trace.set_enabled(on);
        self.cache.set_event_log(on);
    }

    /// Replaces the trace ring with an enabled one of `capacity`
    /// records (the builder's opt-in path).
    pub(crate) fn install_trace(&mut self, capacity: usize) {
        self.trace = Trace::new(capacity);
        self.set_trace(true);
    }

    /// The typed trace ring (queries, spans, Chrome export).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Dumps the trace ring as text.
    pub fn trace_dump(&self) -> String {
        self.trace.dump()
    }

    /// Timestamps and records the cache's accumulated hit/miss/evict
    /// events. The cache has no clock, so the kernel drains its log
    /// after each dispatched event; simulated time cannot advance inside
    /// one event, so the stamp is exact.
    #[inline]
    fn drain_cache_trace(&mut self) {
        if self.trace.enabled() {
            self.record_cache_events();
        }
    }

    #[inline(never)]
    fn record_cache_events(&mut self) {
        let now = self.q.now();
        for e in self.cache.take_events() {
            self.trace.emit(now, || match e {
                kbuf::CacheEvent::Hit { dev, blkno } => TraceEvent::CacheHit { dev: dev.0, blkno },
                kbuf::CacheEvent::Miss { dev, blkno } => {
                    TraceEvent::CacheMiss { dev: dev.0, blkno }
                }
                kbuf::CacheEvent::Evict { dev, blkno } => {
                    TraceEvent::CacheEvict { dev: dev.0, blkno }
                }
            });
        }
    }

    // ----- process lifecycle ------------------------------------------------

    /// Spawns a program as a new runnable process.
    pub fn spawn(&mut self, program: Box<dyn Program>) -> Pid {
        let pid = self.procs.spawn(program, self.q.now());
        // The table creates processes in `Runnable`; queue it directly.
        self.sched.enqueue(pid);
        self.try_dispatch();
        pid
    }

    pub(crate) fn make_runnable(&mut self, pid: Pid) {
        // Only a sleeper wakes: exited, queued or running processes stay put.
        if !matches!(self.procs.must(pid).state, ProcState::Sleeping(_)) {
            return;
        }
        let woken_cpu = self.procs.recent_cpu(pid);
        self.procs.set_state(pid, ProcState::Runnable);
        let now = self.q.now();
        self.trace
            .emit(now, || TraceEvent::SchedWakeup { pid: pid.0 });
        self.sched.enqueue(pid);
        // A process waking from a sleep returns at elevated priority, the
        // classic UNIX discipline — but only while its decayed CPU usage
        // gives it a better priority than the incumbent (4.3BSD p_cpu).
        // Kernel mode (syscall chunks) is not preemptible; those
        // reschedule at kernel exit.
        if let Some(cur) = self.sched.current() {
            let kind = cur.kind;
            let incumbent_cpu = self.procs.recent_cpu(cur.pid);
            // Hysteresis: preempt only from a clearly better priority
            // band (half the incumbent's decayed usage), the effect of
            // BSD's quantised priority levels.
            if woken_cpu.as_ns() * 2 < incumbent_cpu.as_ns() {
                match kind {
                    RunKind::Compute { .. } => self.preempt_current(),
                    RunKind::SyscallCpu => self.resched = true,
                }
            }
        }
        self.try_dispatch();
    }

    /// Preempts the current (user-mode) chunk: the unexecuted remainder is
    /// saved as pending compute and the process requeued. The chunk's
    /// completion key moves into the queue as a no-op, so the clock still
    /// stops at that instant.
    fn preempt_current(&mut self) {
        let now = self.q.now();
        let cur = self.sched.stop_current().expect("preempt without current");
        let key = self.chunk_due.take().expect("running chunk without a key");
        self.q.schedule_keyed(key, Event::UserDone);
        let RunKind::Compute { remaining } = cur.kind else {
            panic!("preempt of non-preemptible chunk");
        };
        let left_in_chunk = cur.remaining_at(now);
        let total = left_in_chunk + remaining;
        let p = self.procs.must_mut(cur.pid);
        // The chunk was charged in full when it started; refund what did
        // not run.
        p.acct.user_time = p.acct.user_time.saturating_sub(left_in_chunk);
        p.acct.icsw += 1;
        if !total.is_zero() {
            p.pending_compute = Some(total);
        }
        self.procs.refund_cpu(cur.pid, left_in_chunk);
        self.procs.set_state(cur.pid, ProcState::Runnable);
        self.sched.enqueue(cur.pid);
        self.ctr.sched.preemptions += 1;
        self.trace
            .emit(now, || TraceEvent::SchedPreempt { pid: cur.pid.0 });
    }

    pub(crate) fn wakeup(&mut self, chan: Chan) {
        debug_assert!(!chan.is_private(), "wakeup of private {chan:?}");
        for pid in self.procs.sleepers(chan) {
            self.make_runnable(pid);
        }
        // Close the lost-wakeup window: a process whose system call has
        // decided to sleep on `chan` but whose CPU chunk has not finished
        // yet must not go to sleep — it re-checks instead.
        if let Some((_, after)) = &mut self.pending_after {
            if matches!(after, AfterCpu::Sleep(c) if *c == chan) {
                *after = AfterCpu::Retry;
                self.ctr.sched.wakeup_races += 1;
            }
        }
    }

    pub(crate) fn post_signal(&mut self, pid: Pid, sig: Sig) {
        let Some(p) = self.procs.get_mut(pid) else {
            return;
        };
        if p.exited() || !p.catches(sig) {
            return;
        }
        p.pending_sigs.insert(sig);
        if let ProcState::Sleeping(chan) = p.state {
            if chan.space == ChanSpace::Pause {
                self.make_runnable(pid);
            }
        } else if let Some((chunk_pid, after)) = &mut self.pending_after {
            if *chunk_pid == pid
                && matches!(after, AfterCpu::Sleep(c) if c.space == ChanSpace::Pause)
            {
                // Signal raced the pause(2) entry: do not sleep.
                *after = AfterCpu::Retry;
            }
        }
    }

    // ----- kernel work engine -----------------------------------------------

    /// Admits kernel work and schedules its application. Work admitted
    /// while a user chunk runs extends that chunk (the penalty).
    pub(crate) fn enqueue_kwork(&mut self, class: WorkClass, cost: Dur, work: KWork) {
        let now = self.q.now();
        match self.cpu.admit(now, cost, class) {
            Admit::Run(w) => {
                if let Some(cur) = self.sched.current_mut() {
                    cur.penalty += w.cost();
                }
                self.q.schedule(w.end, Event::Apply(work));
            }
            Admit::Deferred => {
                self.deferred.push_back((cost, work));
            }
        }
    }

    /// Runs deferred soft work when the CPU would otherwise idle.
    #[inline]
    pub(crate) fn maybe_pump(&mut self) {
        if !self.deferred.is_empty() {
            self.pump_deferred();
        }
    }

    #[inline(never)]
    fn pump_deferred(&mut self) {
        if self.procs.any_user_demand() || self.dispatch_pending {
            return;
        }
        let (cost, work) = self.deferred.pop_front().unwrap();
        let now = self.q.now();
        let w = self.cpu.admit_idle(now, cost);
        self.q.schedule(w.end, Event::Apply(work));
    }

    // ----- cache effect handling ---------------------------------------------

    /// Carries out buffer-cache effects. Returns the synchronous CPU cost
    /// incurred (RAM-disk transfers in process context).
    pub(crate) fn apply_cache_effects(&mut self, effects: Vec<kbuf::Effect>, ctx: IoCtx) -> Dur {
        let mut sync_cost = Dur::ZERO;
        for e in effects {
            match e {
                kbuf::Effect::StartIo {
                    buf,
                    dev,
                    blkno,
                    len,
                    dir,
                } => {
                    sync_cost += self.start_io(buf, dev, blkno, len, dir, ctx);
                }
                kbuf::Effect::Wakeup { buf } => {
                    self.wakeup(Chan::new(ChanSpace::Buf, buf.0 as u64));
                }
                kbuf::Effect::BuffersAvailable => {
                    self.wakeup(Chan::new(ChanSpace::AnyBuf, 0));
                }
            }
        }
        sync_cost
    }

    /// Starts one device transfer for a cache buffer. Returns synchronous
    /// CPU cost (RAM disk in process context); asynchronous transfers
    /// return zero and complete through events.
    fn start_io(
        &mut self,
        buf: BufId,
        dev: DevId,
        blkno: u64,
        len: usize,
        dir: IoDir,
        ctx: IoCtx,
    ) -> Dur {
        let disk_idx = *self.devmap.get(&dev).expect("I/O to unknown device");
        let now = self.q.now();
        let prev = self.transfers.insert(
            buf,
            Transfer {
                disk: disk_idx,
                dir,
                issued: now,
            },
        );
        debug_assert!(prev.is_none(), "second transfer on busy {buf:?}");
        self.trace.emit(now, || TraceEvent::DiskIssue {
            disk: disk_idx as u32,
            blkno,
            len: len as u32,
            write: dir == IoDir::Write,
        });
        let sector = blkno * (self.cfg.block_size as u64 / khw::SECTOR_SIZE as u64);
        if dir == IoDir::Write {
            self.disks[disk_idx].write_inflight += 1;
            self.ctr.io.write_bytes += len as u64;
        } else {
            self.ctr.io.read_bytes += len as u64;
        }
        // Reads that enter service immediately (an idle SCSI drive, or the
        // synchronous RAM-disk strategy call) waited zero time in the
        // device queue; queued SCSI reads are stamped when the interrupt
        // handler starts the next request.
        let mut zero_queue_wait = dir == IoDir::Read;
        let cost = match &mut self.disks[disk_idx].kind {
            DiskUnitKind::Scsi(d) => {
                let op = match dir {
                    IoDir::Read => khw::IoOp::Read,
                    IoDir::Write => khw::IoOp::Write,
                };
                let data = (dir == IoDir::Write).then(|| self.cache.data(buf).snapshot());
                self.ctr.copy.driver_bytes += len as u64;
                match d.submit(now, buf.0 as u64, op, sector, len, data) {
                    Some(started) => {
                        self.q.schedule(
                            started.finish,
                            Event::DiskIntr {
                                disk: disk_idx,
                                buf,
                            },
                        );
                    }
                    None => zero_queue_wait = false,
                }
                Dur::ZERO
            }
            DiskUnitKind::Ram(rd) => {
                match ctx {
                    IoCtx::Process => {
                        // Synchronous strategy call in the caller's
                        // context: do the copy, complete inline.
                        let (cost, error) =
                            ram_transfer(rd, &self.cache.data(buf), sector, len, dir);
                        self.ctr.copy.driver_bytes += len as u64;
                        self.finish_io(buf, error);
                        cost
                    }
                    IoCtx::Kernel => {
                        let cost = rd.copy_cost(len);
                        self.enqueue_kwork(WorkClass::Soft, cost, KWork::RamIo { buf });
                        Dur::ZERO
                    }
                }
            }
        };
        if zero_queue_wait {
            self.kstat.stages.read_queue_wait.record(0);
        }
        cost
    }

    /// Completion bookkeeping common to all devices: takes `buf`'s
    /// transfer record, then inflight counts, fsync wakeups, `biodone`
    /// (with `B_ERROR` when the device failed) and handler dispatch.
    pub(crate) fn finish_io(&mut self, buf: BufId, error: bool) {
        let Transfer {
            disk: disk_idx,
            dir,
            issued,
        } = self
            .transfers
            .remove(&buf)
            .expect("completion without a transfer record");
        let lat = self.q.now().since(issued).as_ns();
        match dir {
            IoDir::Read => self.kstat.bread_latency.record(lat),
            IoDir::Write => self.kstat.bwrite_latency.record(lat),
        }
        if dir == IoDir::Write {
            let d = &mut self.disks[disk_idx];
            d.write_inflight -= 1;
            if d.write_inflight == 0 {
                self.wakeup(Chan::new(ChanSpace::Fsync, disk_idx as u64));
            }
        }
        let now = self.q.now();
        if error {
            self.ctr.io.errors += 1;
            let blkno = self.cache.identity(buf).map_or(0, |(_, b)| b);
            self.trace.emit(now, || TraceEvent::DiskError {
                disk: disk_idx as u32,
                blkno,
                write: dir == IoDir::Write,
            });
        }
        self.trace
            .emit(now, || TraceEvent::CacheBiodone { buf: buf.0 });
        let mut fx = Vec::new();
        let call = self.cache.biodone(buf, error, &mut fx);
        let sync = self.apply_cache_effects(fx, IoCtx::Kernel);
        debug_assert!(sync.is_zero(), "biodone must not start sync I/O");
        if error && dir == IoDir::Write && call.is_none() {
            // A failed write with no completion handler (write-behind,
            // a flush) reaches no caller: record it for the next fsync
            // of a file on this disk.
            self.disks[disk_idx].wb_err += 1;
        }
        if let Some(SpliceRef { desc, lblk }) = call {
            // The `B_CALL` handler (§5.2.1): the buffer header names the
            // block, the transfer's direction names the handler.
            let work = match dir {
                IoDir::Read => KWork::SpliceReadDone { desc, lblk, buf },
                IoDir::Write => KWork::SpliceWriteDone {
                    desc,
                    lblk,
                    hdr: buf,
                },
            };
            let cost = self.cfg.machine.splice_handler;
            self.enqueue_kwork(WorkClass::Soft, cost, work);
        }
    }

    // ----- metadata I/O model ------------------------------------------------

    /// Time to perform `io` worth of metadata traffic on `disk` — charged
    /// as a timed block of the calling process (see the crate docs for the
    /// metadata-in-core design).
    pub(crate) fn meta_io_time(&self, disk_idx: usize, io: FsIo) -> Dur {
        if io.ops == 0 {
            return Dur::ZERO;
        }
        match &self.disks[disk_idx].kind {
            DiskUnitKind::Scsi(d) => {
                let p = d.profile();
                let per_op = p.per_request + p.avg_rotation / 2;
                per_op * io.ops as u64 + Dur::for_bytes(io.read + io.written, p.media_bps)
            }
            DiskUnitKind::Ram(rd) => rd.copy_cost(((io.read + io.written) as usize).max(512)),
        }
    }

    // ----- scheduler integration ----------------------------------------------

    pub(crate) fn try_dispatch(&mut self) {
        if self.dispatch_pending || self.sched.current().is_some() {
            return;
        }
        let Some(pid) = self.sched.take_next() else {
            return;
        };
        self.dispatch_pending = true;
        let now = self.q.now();
        let cost = self.cfg.machine.ctx_switch;
        match self.cpu.admit(now, cost, WorkClass::Intr) {
            Admit::Run(w) => {
                self.q.schedule(w.end, Event::Dispatch { pid });
            }
            Admit::Deferred => unreachable!("Intr work is never deferred"),
        }
        self.ctr.sched.ctx_switches += 1;
    }

    /// Starts a run chunk for `pid` and arms its completion register.
    fn start_chunk(&mut self, pid: Pid, kind: RunKind, dur: Dur, quantum_left: Dur) {
        let now = self.q.now();
        self.trace.emit(now, || TraceEvent::SchedRun {
            pid: pid.0,
            ns: dur.as_ns(),
        });
        let start = if now > self.cpu.busy_until() {
            now
        } else {
            self.cpu.busy_until()
        };
        self.sched.start_run(pid, kind, start, dur, quantum_left);
        self.procs.set_state(pid, ProcState::Running);
        debug_assert!(self.chunk_due.is_none(), "two chunk completions armed");
        self.chunk_due = Some((start + dur, self.q.take_seq()));
    }

    /// Advances a process: resume a pending syscall continuation, finish a
    /// preempted compute, or step the program.
    pub(crate) fn run_process(&mut self, pid: Pid, quantum_left: Dur) {
        // A wakeup during the last kernel chunk demands a reschedule at
        // kernel exit (= here).
        if self.resched {
            self.resched = false;
            if self.sched.queued() > 0 {
                self.procs.must_mut(pid).acct.icsw += 1;
                self.procs.set_state(pid, ProcState::Runnable);
                self.sched.enqueue(pid);
                self.try_dispatch();
                return;
            }
        }
        let mut quantum_left = quantum_left;
        // Quantum bookkeeping: refresh if nobody is waiting, else preempt.
        if quantum_left.is_zero() {
            if self.sched.queued() > 0 {
                self.procs.must_mut(pid).acct.icsw += 1;
                self.procs.set_state(pid, ProcState::Runnable);
                self.sched.enqueue(pid);
                self.try_dispatch();
                return;
            }
            quantum_left = self.sched.quantum();
        }

        // Compute left over from a quantum preemption?
        if let Some(rem) = self.procs.must_mut(pid).pending_compute.take() {
            let chunk = rem.min(quantum_left);
            self.procs.must_mut(pid).acct.user_time += chunk;
            self.procs.charge_cpu(pid, chunk);
            self.start_chunk(
                pid,
                RunKind::Compute {
                    remaining: rem - chunk,
                },
                chunk,
                quantum_left - chunk,
            );
            return;
        }

        // A blocked system call to resume?
        if let Some(cont) = self.conts.remove(pid) {
            let out = self.resume_cont(pid, cont);
            self.apply_syscall_outcome(pid, out, quantum_left);
            return;
        }

        // Step the program.
        let step = {
            let p = self.procs.must_mut(pid);
            p.ctx.now = self.q.now();
            p.ctx.signals = std::mem::take(&mut p.pending_sigs);
            p.program.step(&mut p.ctx)
        };
        match step {
            Step::Compute(d) => {
                let chunk = d.min(quantum_left);
                self.procs.must_mut(pid).acct.user_time += chunk;
                self.procs.charge_cpu(pid, chunk);
                self.start_chunk(
                    pid,
                    RunKind::Compute {
                        remaining: d - chunk,
                    },
                    chunk,
                    quantum_left - chunk,
                );
            }
            Step::Syscall(req) => {
                self.procs.must_mut(pid).acct.syscalls += 1;
                let out = self.exec_syscall(pid, req);
                self.apply_syscall_outcome(pid, out, quantum_left);
            }
            Step::Exit(code) => self.do_exit(pid, code),
        }
    }

    pub(crate) fn apply_syscall_outcome(
        &mut self,
        pid: Pid,
        out: SyscallOutcome,
        quantum_left: Dur,
    ) {
        // A finished call's return value goes to the program now: it
        // cannot step before this chunk, or its timed sleep, ends.
        let (cpu, after) = match out {
            SyscallOutcome::Done { cpu, ret } => {
                self.procs.must_mut(pid).ctx.ret = Some(ret);
                (cpu, AfterCpu::Run)
            }
            SyscallOutcome::DoneAt { cpu, until, ret } => {
                self.procs.must_mut(pid).ctx.ret = Some(ret);
                (cpu, AfterCpu::SleepUntil(until))
            }
            SyscallOutcome::Block { cpu, chan, cont } => {
                self.conts.insert(pid, cont);
                (cpu, AfterCpu::Sleep(chan))
            }
            SyscallOutcome::BlockUntil { cpu, until, cont } => {
                self.conts.insert(pid, cont);
                (cpu, AfterCpu::SleepUntil(until))
            }
        };
        let racing = self.pending_after.replace((pid, after));
        debug_assert!(racing.is_none(), "two syscall chunks in flight");
        self.procs.must_mut(pid).acct.sys_time += cpu;
        self.procs.charge_cpu(pid, cpu);
        // System-call time consumes quantum too (it is still this
        // process's CPU); kernel mode is just not *preempted* mid-chunk.
        let quantum_left = quantum_left.saturating_sub(cpu);
        self.start_chunk(pid, RunKind::SyscallCpu, cpu, quantum_left);
    }

    fn do_exit(&mut self, pid: Pid, code: i32) {
        // Release every descriptor.
        for fd in self.files.fds_of(pid) {
            self.close_fd(pid, fd);
        }
        // Disarm the interval timer. An expiry already past its callout
        // (waiting in `deferred`) then finds no period and does not
        // re-arm for the dead pid.
        if let Some(t) = self.procs.must_mut(pid).itimer.take() {
            self.callout.cancel(t.callout);
        }
        let now = self.q.now();
        self.procs.must_mut(pid).ended = Some(now);
        self.procs.set_state(pid, ProcState::Exited(code));
        self.ctr.sched.exits += 1;
        self.try_dispatch();
    }

    // ----- event dispatch -----------------------------------------------------

    /// The running chunk's completion register fired.
    fn on_user_done(&mut self) {
        let cur = *self
            .sched
            .current()
            .expect("chunk completion without a run");
        let pid = cur.pid;
        if !cur.penalty.is_zero() {
            // Kernel work stole time from this chunk; push it out.
            let end = cur.chunk_end + cur.penalty;
            self.sched.rearm_current(end);
            self.chunk_due = Some((end, self.q.take_seq()));
            return;
        }
        let run = self.sched.stop_current().unwrap();
        match run.kind {
            RunKind::Compute { remaining } if !remaining.is_zero() => {
                // Quantum slice ended mid-compute.
                if self.sched.queued() > 0 {
                    let p = self.procs.must_mut(pid);
                    p.acct.icsw += 1;
                    p.pending_compute = Some(remaining);
                    self.procs.set_state(pid, ProcState::Runnable);
                    self.sched.enqueue(pid);
                    self.try_dispatch();
                } else {
                    // Nobody waiting: keep computing on a fresh quantum.
                    let q = self.sched.quantum();
                    let chunk = remaining.min(q);
                    self.procs.must_mut(pid).acct.user_time += chunk;
                    self.procs.charge_cpu(pid, chunk);
                    self.start_chunk(
                        pid,
                        RunKind::Compute {
                            remaining: remaining - chunk,
                        },
                        chunk,
                        q - chunk,
                    );
                }
            }
            RunKind::Compute { .. } => {
                self.run_process(pid, run.quantum_left);
            }
            RunKind::SyscallCpu => {
                let (chunk_pid, after) = self
                    .pending_after
                    .take()
                    .expect("syscall chunk without after-action");
                debug_assert_eq!(chunk_pid, pid);
                match after {
                    // On a retry the awaited event happened during the
                    // chunk: the continuation runs at once.
                    AfterCpu::Run | AfterCpu::Retry => self.run_process(pid, run.quantum_left),
                    AfterCpu::Sleep(chan) => {
                        let now = self.q.now();
                        self.trace.emit(now, || TraceEvent::SchedSleep {
                            pid: pid.0,
                            chan: chan.id,
                        });
                        self.procs.must_mut(pid).acct.vcsw += 1;
                        self.procs.set_state(pid, ProcState::Sleeping(chan));
                        // The block is itself the reschedule.
                        self.resched = false;
                        self.try_dispatch();
                    }
                    AfterCpu::SleepUntil(until) => {
                        self.procs.must_mut(pid).acct.vcsw += 1;
                        self.procs.set_state(
                            pid,
                            ProcState::Sleeping(Chan::new(ChanSpace::Timed, pid.0 as u64)),
                        );
                        let at = until.max(self.q.now());
                        self.q.schedule(at, Event::TimedWake { pid });
                        self.try_dispatch();
                    }
                }
            }
        }
    }

    fn on_tick(&mut self) {
        self.tick += 1;
        self.cpu.new_tick();
        // Priority decay (the schedcpu analogue): halve every quarter
        // second so recent hogs lose their wakeup-preemption edge.
        if self.tick.is_multiple_of((self.cfg.machine.hz / 4).max(1)) {
            self.procs.decay_recent_cpu();
        }
        let now = self.q.now();
        // Hardclock cost.
        if let Admit::Run(w) = self
            .cpu
            .admit(now, self.cfg.machine.hardclock, WorkClass::Intr)
        {
            if let Some(cur) = self.sched.current_mut() {
                cur.penalty += w.cost();
            }
        }
        // Softclock: drain deferred work into the fresh budget first
        // (FIFO fairness), then dispatch due callout entries. Admission is
        // threshold-based, so even an oversized item drains.
        while !self.deferred.is_empty() && !self.cpu.soft_budget_left().is_zero() {
            let (cost, work) = self.deferred.pop_front().unwrap();
            self.enqueue_kwork(WorkClass::Soft, cost, work);
        }
        let tick = self.tick;
        let mut due = std::mem::take(&mut self.callout_due);
        self.callout.expire_into(self.tick, &mut due);
        for work in due.drain(..) {
            self.trace.emit(now, || TraceEvent::CalloutFire { tick });
            let cost = self.cfg.machine.callout_dispatch + self.kwork_base_cost(&work);
            self.enqueue_kwork(WorkClass::Soft, cost, work);
        }
        self.callout_due = due;
        self.tick_due = (now + self.cfg.machine.tick(), self.q.take_seq());
    }

    /// Base CPU cost of applying a kernel work item (excluding transfer
    /// costs, which are charged where they occur).
    pub(crate) fn kwork_base_cost(&self, w: &KWork) -> Dur {
        let m = &self.cfg.machine;
        match w {
            KWork::DiskDone { .. } => m.interrupt,
            KWork::UpdateFlush => m.buf_op * 4,
            KWork::RamIo { .. } => m.buf_op,
            KWork::NetRx { .. } => m.udp_packet,
            KWork::SpliceReadDone { .. } => m.splice_handler,
            KWork::SpliceWrite { .. } => m.splice_handler + m.buf_op,
            KWork::SpliceWriteDone { .. } => m.splice_handler + m.buf_op * 2,
            KWork::SpliceIssueReads { .. } => m.splice_handler,
            KWork::SpliceRetryRead { .. } => m.splice_handler,
            KWork::SpliceStreamPull { .. } => m.splice_handler,
            KWork::SpliceAppend { .. } => m.splice_handler + m.buf_op,
            KWork::SpliceDevWrite { .. } => m.splice_handler,
            KWork::SpliceSockWrite { .. } => m.splice_handler,
            KWork::SpliceSockDrain { .. } => m.splice_handler,
            KWork::SpliceComplete { .. } => m.signal_delivery,
            KWork::ItimerFire { .. } => m.signal_delivery,
        }
    }

    fn on_apply(&mut self, work: KWork) {
        match work {
            KWork::DiskDone { buf, data, error } => {
                if let Some(block) = data {
                    self.cache.data(buf).install(block);
                }
                self.finish_io(buf, error);
            }
            KWork::RamIo { buf } => {
                let Transfer { disk, dir, .. } = self.transfers[&buf];
                // The copy cost was charged at admission; move the bytes.
                let sector = {
                    let (dev, blkno) = self
                        .cache
                        .identity(buf)
                        .expect("RAM I/O buffer lost identity");
                    debug_assert_eq!(self.devmap[&dev], disk);
                    blkno * (self.cfg.block_size as u64 / khw::SECTOR_SIZE as u64)
                };
                let len = self.cache.bcount(buf);
                let DiskUnitKind::Ram(rd) = &mut self.disks[disk].kind else {
                    panic!("RamIo against a SCSI disk");
                };
                let (_, error) = ram_transfer(rd, &self.cache.data(buf), sector, len, dir);
                self.ctr.copy.driver_bytes += len as u64;
                self.finish_io(buf, error);
            }
            KWork::NetRx { dst, dgram } => self.net_rx(dst, dgram),
            KWork::UpdateFlush => {
                // Flush every dirty buffer on every disk (sync(2)'s data
                // half), then re-arm. The flat admission cost covers the
                // scan; per-buffer transfer costs are charged by the
                // write path itself (RamIo kworks / disk interrupts).
                let mut flushed = 0u64;
                for disk in 0..self.disks.len() {
                    let dev = self.disks[disk].dev;
                    for buf in self.cache.dirty_bufs(dev) {
                        if !self.cache.claim_for_flush(buf) {
                            continue;
                        }
                        let mut fx = Vec::new();
                        self.cache.bawrite(buf, &mut fx);
                        self.apply_cache_effects(fx, IoCtx::Kernel);
                        flushed += 1;
                    }
                }
                self.ctr.update_flushes += flushed;
                if let Some(period) = self.cfg.update_interval {
                    let ticks = (period.as_ns() / self.cfg.machine.tick().as_ns()).max(1);
                    self.callout.schedule(self.tick, ticks, KWork::UpdateFlush);
                    let now = self.q.now();
                    self.trace
                        .emit(now, || TraceEvent::CalloutArm { delay_ticks: ticks });
                }
            }
            KWork::ItimerFire { pid } => {
                self.post_signal(pid, Sig::Alrm);
                // Re-arm if still active: a timer reset to zero, or
                // disarmed by exit, has no period.
                if let Some(t) = self.procs.must(pid).itimer {
                    let ticks = self.arm_itimer(pid, t.period);
                    let now = self.q.now();
                    self.trace
                        .emit(now, || TraceEvent::CalloutArm { delay_ticks: ticks });
                }
            }
            splice_work => self.apply_splice_work(splice_work),
        }
    }

    pub(crate) fn dur_to_ticks(&self, d: Dur) -> u64 {
        (d.as_ns() / self.cfg.machine.tick().as_ns()).max(1)
    }

    /// Schedules `pid`'s next interval-timer expiry one `period` out and
    /// records it on the process. Returns the delay in ticks.
    pub(crate) fn arm_itimer(&mut self, pid: Pid, period: Dur) -> u64 {
        let ticks = self.dur_to_ticks(period);
        let callout = self
            .callout
            .schedule(self.tick, ticks, KWork::ItimerFire { pid });
        self.procs.must_mut(pid).itimer = Some(Itimer { period, callout });
        ticks
    }

    /// A timed sleep ended. What the process resumes with was stored
    /// when it went to sleep.
    fn on_timed_wake(&mut self, pid: Pid) {
        if matches!(self.procs.must(pid).state, ProcState::Sleeping(_)) {
            self.procs.set_state(pid, ProcState::Runnable);
            self.sched.enqueue(pid);
            self.try_dispatch();
        }
    }

    fn dispatch_event(&mut self, ev: Event) {
        match ev {
            Event::DiskIntr { disk, buf } => {
                let now = self.q.now();
                self.trace.emit(now, || TraceEvent::DiskIntr {
                    disk: disk as u32,
                    buf: buf.0,
                });
                let DiskUnitKind::Scsi(d) = &mut self.disks[disk].kind else {
                    panic!("DiskIntr for a RAM disk");
                };
                let (done, next) = d.complete(now);
                debug_assert_eq!(done.token, buf.0 as u64, "interrupt/active mismatch");
                if let Some(started) = next {
                    // A queued request entered service: its queue wait ends
                    // here (reads feed the stage histogram).
                    let nbuf = BufId(started.token as u32);
                    let t = self.transfers.get(&nbuf).expect("started unknown request");
                    if t.dir == IoDir::Read {
                        self.kstat
                            .stages
                            .read_queue_wait
                            .record(now.since(t.issued).as_ns());
                    }
                    self.q
                        .schedule(started.finish, Event::DiskIntr { disk, buf: nbuf });
                }
                let t = self
                    .transfers
                    .get(&buf)
                    .expect("completion for unknown request");
                debug_assert_eq!(t.disk, disk, "interrupt from the wrong disk");
                // Interrupt service + pseudo-DMA bounce copy, then the
                // bottom half.
                let cost = self.cfg.machine.interrupt + done.host_cpu;
                self.enqueue_kwork(
                    WorkClass::Intr,
                    cost,
                    KWork::DiskDone {
                        buf,
                        data: done.data,
                        error: done.error,
                    },
                );
            }
            Event::Apply(work) => self.on_apply(work),
            // A preempted chunk's completion instant: nothing runs.
            Event::UserDone => {}
            Event::TimedWake { pid } => self.on_timed_wake(pid),
            // Replies to the traffic source are consumed at the link;
            // everything else pays the protocol's soft work.
            Event::NetDeliver { dst, dgram } if self.source_owns(dst) => self.source_rx(dst, dgram),
            Event::NetDeliver { dst, dgram } => {
                self.enqueue_kwork(
                    WorkClass::Soft,
                    self.cfg.machine.udp_packet,
                    KWork::NetRx { dst, dgram },
                );
            }
            Event::Arrival => self.on_arrival(),
            Event::Dispatch { pid } => {
                self.dispatch_pending = false;
                self.resched = false;
                let now = self.q.now();
                self.trace
                    .emit(now, || TraceEvent::SchedDispatch { pid: pid.0 });
                if self.sched.current().is_some() {
                    // The CPU was re-occupied during the switch window: a
                    // wakeup fired inside a system call's synchronous
                    // execution and raced this dispatch. The process keeps
                    // its turn; the occupying chunk's completion path
                    // re-dispatches.
                    self.ctr.sched.dispatch_races += 1;
                    if self
                        .procs
                        .get(pid)
                        .is_some_and(|p| p.state == ProcState::Runnable)
                    {
                        self.sched.enqueue_front(pid);
                    }
                    return;
                }
                // The process may have exited or been made un-runnable in
                // the switch window (it cannot, today, but be safe).
                if self
                    .procs
                    .get(pid)
                    .is_some_and(|p| p.state == ProcState::Runnable)
                {
                    self.procs.set_state(pid, ProcState::Running);
                    self.run_process(pid, self.sched.quantum());
                } else {
                    self.try_dispatch();
                }
            }
        }
    }

    // ----- run loop -------------------------------------------------------------

    /// The earliest of the queue top and the two registers.
    #[inline]
    fn next_due(&mut self) -> (Due, EventKey) {
        let mut next = (Due::Tick, self.tick_due);
        if let Some(chunk) = self.chunk_due {
            if chunk < next.1 {
                next = (Due::Chunk, chunk);
            }
        }
        if let Some(top) = self.q.peek_key() {
            if top < next.1 {
                next = (Due::Queue, top);
            }
        }
        next
    }

    /// Runs until `pred` is true (checked between events) or the next
    /// event lies past the horizon. Returns the reached time: the instant
    /// of the last event fired.
    ///
    /// Each step fires the earliest key among the event queue's top, the
    /// running chunk's completion register and the hardclock register, in
    /// exact `(time, seq)` order: the registers take their sequence
    /// numbers from the queue's counter where the events they replace
    /// were scheduled, so every tie breaks as if they were queued.
    pub fn run_until(
        &mut self,
        horizon: SimTime,
        mut pred: impl FnMut(&Kernel) -> bool,
    ) -> SimTime {
        loop {
            if pred(self) {
                return self.q.now();
            }
            let (due, (at, _)) = self.next_due();
            if at > horizon {
                return self.q.now();
            }
            match due {
                Due::Queue => {
                    let (_, ev) = self.q.pop().expect("peeked event vanished");
                    self.dispatch_event(ev);
                }
                Due::Chunk => {
                    self.chunk_due = None;
                    self.q.advance_to(at);
                    self.on_user_done();
                }
                Due::Tick => {
                    self.q.advance_to(at);
                    self.on_tick();
                }
            }
            self.maybe_pump();
            self.drain_cache_trace();
        }
    }

    /// Runs until every process has exited (with a safety horizon).
    ///
    /// # Panics
    ///
    /// Panics if processes are still alive at the horizon — a hang.
    pub fn run_to_exit(&mut self, horizon: SimTime) -> SimTime {
        let t = self.run_until(horizon, |k| k.procs.all_exited());
        assert!(
            self.procs.all_exited(),
            "processes still running at horizon {horizon}: {:?}",
            self.procs
                .iter()
                .map(|p| (p.pid, p.state, p.program.name().to_string()))
                .collect::<Vec<_>>()
        );
        t
    }

    /// Runs until `pid` exits (other processes may continue).
    ///
    /// # Panics
    ///
    /// Panics if the process is still alive at the horizon.
    pub fn run_until_exit_of(&mut self, pid: Pid, horizon: SimTime) -> SimTime {
        let t = self.run_until(horizon, |k| k.procs.must(pid).exited());
        assert!(
            self.procs.must(pid).exited(),
            "{pid:?} still running at horizon {horizon}"
        );
        t
    }
}

/// Moves one block between a RAM disk and a cache buffer's data area by
/// sharing it: a read installs the medium's block, a write hands the
/// medium the area's snapshot. Returns the driver's cost and whether the
/// transfer failed; a failed read leaves the area untouched.
fn ram_transfer(
    rd: &mut RamDisk,
    data: &BufData,
    sector: u64,
    len: usize,
    dir: IoDir,
) -> (Dur, bool) {
    match dir {
        IoDir::Read => {
            let (cost, block) = rd.read(sector, len);
            let error = block.is_none();
            if let Some(block) = block {
                data.install(block);
            }
            (cost, error)
        }
        IoDir::Write => rd.write(sector, data.snapshot()),
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use khw::{FaultOp, FaultPlan};
    use kproc::programs::CpuBound;
    use kproc::{SyscallReq, UserCtx};

    use super::*;
    use crate::KernelBuilder;

    const BS: usize = 8192;

    /// Fires exactly one event and says where it came from.
    fn step(k: &mut Kernel) -> (Due, EventKey) {
        let next = k.next_due();
        let mut polls = 0;
        k.run_until(SimTime::from_ns(u64::MAX), |_| {
            polls += 1;
            polls > 1
        });
        assert_eq!(k.now(), next.1 .0);
        next
    }

    fn hog() -> Kernel {
        let mut k = KernelBuilder::new().build();
        k.spawn(Box::new(CpuBound::new(1_000, Dur::from_ms(1))));
        k
    }

    /// Plays a fixed list of steps, then exits.
    struct Steps(std::vec::IntoIter<Step>);

    impl Program for Steps {
        fn step(&mut self, _ctx: &mut UserCtx) -> Step {
            self.0.next().unwrap_or(Step::Exit(0))
        }
    }

    #[test]
    fn a_wakeup_preempted_chunk_leaves_one_no_op_at_its_old_end() {
        // A pausing process with a 20 ms interval timer wakes on SIGALRM
        // with far less decayed CPU than the hog, so it preempts the
        // hog's compute chunk.
        let mut k = hog();
        k.spawn(Box::new(Steps(
            vec![
                Step::Syscall(SyscallReq::Sigaction {
                    sig: Sig::Alrm,
                    catch: true,
                }),
                Step::Syscall(SyscallReq::SetItimer {
                    interval: Dur::from_ms(20),
                }),
                Step::Syscall(SyscallReq::Pause),
            ]
            .into_iter(),
        )));
        let orphan = loop {
            assert!(k.now() < SimTime::ZERO + Dur::from_secs(1), "no preemption");
            let armed = k.chunk_due;
            step(&mut k);
            if k.ctr.sched.preemptions == 1 {
                break armed.expect("the preempted chunk had a key");
            }
        };
        assert_ne!(k.chunk_due, Some(orphan), "the register let the key go");
        assert!(orphan.0 > k.now(), "the chunk was cut short");
        // Everything queued now: exactly one completion no-op, under the
        // chunk's own key.
        let mut no_ops = Vec::new();
        while let Some(key) = k.q.peek_key() {
            if let (_, Event::UserDone) = k.q.pop().unwrap() {
                no_ops.push(key);
            }
        }
        assert_eq!(no_ops, vec![orphan]);
    }

    #[test]
    fn run_until_stops_at_the_last_register_instant_within_the_horizon() {
        // The instants a lone hog's first 30 ms fire at, by source.
        let mut k = hog();
        let mut fired = Vec::new();
        while k.now() < SimTime::ZERO + Dur::from_ms(30) {
            let (due, (at, _)) = step(&mut k);
            let rearm = due == Due::Chunk && k.sched.current().is_some_and(|c| c.started < at);
            fired.push((due, rearm, at));
        }
        let has = |due, rearm| fired.iter().any(|f| (f.0, f.1) == (due, rearm));
        assert!(has(Due::Chunk, false) && has(Due::Chunk, true) && has(Due::Tick, false));
        for &(due, _, at) in &fired {
            if due == Due::Queue {
                continue;
            }
            for h in [at, SimTime::from_ns(at.as_ns() - 1)] {
                let expect = fired.iter().map(|f| f.2).filter(|t| *t <= h).max();
                let mut k = hog();
                // The predicate only ends a run that overshot the horizon.
                let reached = k.run_until(h, |k| k.now() > h);
                assert_eq!(Some(reached), expect, "horizon {h}");
            }
        }
    }

    #[test]
    fn ram_transfer_shares_blocks_and_a_failed_read_lands_nothing() {
        let mut rd = RamDisk::new(DiskProfile::ramdisk(), BS);
        rd.set_fault_plan(Some(FaultPlan::new(1).transient_eio_at(
            FaultOp::Read,
            16,
            1,
        )));
        let written = BufData::from_vec(vec![5; BS]);
        let (cost, error) = ram_transfer(&mut rd, &written, 16, BS, IoDir::Write);
        assert!(!error);
        assert_eq!(cost, rd.copy_cost(BS));
        assert!(Rc::ptr_eq(&rd.store().block(16 * 512), &written.snapshot()));

        let area = BufData::from_vec(vec![1; BS]);
        let before = area.snapshot();
        let (cost, error) = ram_transfer(&mut rd, &area, 16, BS, IoDir::Read);
        assert!(error);
        assert_eq!(cost, rd.copy_cost(BS), "the failed copy is still charged");
        assert!(
            Rc::ptr_eq(&area.snapshot(), &before),
            "a failed read landed"
        );

        let (_, error) = ram_transfer(&mut rd, &area, 16, BS, IoDir::Read);
        assert!(!error);
        assert!(Rc::ptr_eq(&area.snapshot(), &written.snapshot()));
    }
}
