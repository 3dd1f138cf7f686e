//! Typed kernel tracing: structured tracepoints, causal splice spans,
//! and Chrome trace-event export.
//!
//! The trace is a bounded ring of [`TraceRecord`]s — a per-event sequence
//! number, a [`SimTime`] stamp, and a [`TraceEvent`] covering the whole
//! kernel vocabulary (scheduler, buffer cache, disks, callouts, network,
//! and every splice phase keyed by `(desc, lblk)`). Disabled traces cost
//! one branch: [`Trace::emit`] takes a closure so event construction is
//! skipped entirely when tracing is off.
//!
//! On top of the ring:
//!
//! * [`TraceQuery`] — filtering, time-window slicing, ordering
//!   assertions, and the **causal span builder** that stitches
//!   `(desc, lblk)` events into per-block [`BlockSpan`]s
//!   (read issue → biodone → callout write → write done), measuring the
//!   paper's §5.2.2 read/write decoupling directly from the trace.
//! * [`Trace::to_chrome_json`] — a Chrome trace-event JSON document
//!   (loadable in Perfetto / `chrome://tracing`): one instant-event
//!   track per kernel subsystem plus one complete-event track per
//!   spliced block.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::{self, Write as _};

use crate::json::Json;
use crate::time::SimTime;

/// One structured kernel tracepoint.
///
/// Identities are plain integers (`Pid.0`, `DevId.0`, `SockId.0`, splice
/// descriptor ids) because this crate sits below the crates that define
/// the typed ids; the kernel unwraps them at the emit site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A sleeping process became runnable.
    SchedWakeup {
        /// Woken process.
        pid: u32,
    },
    /// The context switch to `pid` completed.
    SchedDispatch {
        /// Dispatched process.
        pid: u32,
    },
    /// A user-mode chunk was preempted by a better-priority wakeup.
    SchedPreempt {
        /// Preempted process.
        pid: u32,
    },
    /// A run chunk (user compute or syscall CPU) started.
    SchedRun {
        /// Running process.
        pid: u32,
        /// Chunk length in nanoseconds.
        ns: u64,
    },
    /// A process blocked on a sleep channel.
    SchedSleep {
        /// Sleeping process.
        pid: u32,
        /// Channel identity within its namespace.
        chan: u64,
    },
    /// `bread` served from the cache.
    CacheHit {
        /// Device the block lives on.
        dev: u32,
        /// Physical block number.
        blkno: u64,
    },
    /// `bread` went to the device.
    CacheMiss {
        /// Device the block lives on.
        dev: u32,
        /// Physical block number.
        blkno: u64,
    },
    /// A valid block was evicted to recycle its buffer.
    CacheEvict {
        /// Device the block lived on.
        dev: u32,
        /// Physical block number.
        blkno: u64,
    },
    /// `biodone` completed a buffer transfer.
    CacheBiodone {
        /// Completed buffer.
        buf: u32,
    },
    /// A device transfer was issued for a cache buffer.
    DiskIssue {
        /// Disk index.
        disk: u32,
        /// Physical block number.
        blkno: u64,
        /// Transfer length in bytes.
        len: u32,
        /// True for writes, false for reads.
        write: bool,
    },
    /// A SCSI completion interrupt fired.
    DiskIntr {
        /// Disk index.
        disk: u32,
        /// Completed request token.
        token: u64,
    },
    /// A device transfer failed: `biodone` ran with `B_ERROR` set.
    DiskError {
        /// Disk index.
        disk: u32,
        /// Physical block number of the failed buffer (0 if unknown).
        blkno: u64,
        /// True for writes, false for reads.
        write: bool,
    },
    /// A callout entry was armed.
    CalloutArm {
        /// Ticks until it fires (0 = head of the list, next softclock).
        delay_ticks: u64,
    },
    /// Softclock dispatched an expired callout entry.
    CalloutFire {
        /// The tick at which it fired.
        tick: u64,
    },
    /// A datagram left a socket.
    NetSend {
        /// Sending socket.
        sock: u32,
        /// Payload bytes.
        len: u32,
    },
    /// A datagram was queued into the destination socket buffer.
    NetDeliver {
        /// Receiving socket.
        sock: u32,
        /// Payload bytes.
        len: u32,
    },
    /// A datagram was dropped (no peer, full socket buffer, send error).
    NetDrop {
        /// Socket involved.
        sock: u32,
        /// Payload bytes lost.
        len: u32,
    },
    /// `splice(2)` accepted a transfer and built its descriptor.
    SpliceStart {
        /// Splice descriptor id.
        desc: u64,
        /// Bytes the transfer will move.
        bytes: u64,
    },
    /// `splice(2)` refused a transfer (`splice.rejected`).
    SpliceReject {
        /// The errno delivered, e.g. `"ENOTSUP"`.
        errno: &'static str,
    },
    /// Block phase 1: a source read (or stream pull) was issued.
    SpliceReadIssue {
        /// Splice descriptor id.
        desc: u64,
        /// Logical block within the transfer.
        lblk: u64,
    },
    /// Block phase 2: the source block arrived (the §5.2.1 `b_iodone`).
    SpliceReadDone {
        /// Splice descriptor id.
        desc: u64,
        /// Logical block within the transfer.
        lblk: u64,
    },
    /// Block phase 3: the sink-side write handler ran (the §5.2.2
    /// callout-driven write).
    SpliceWriteIssue {
        /// Splice descriptor id.
        desc: u64,
        /// Logical block within the transfer.
        lblk: u64,
    },
    /// Block phase 4: the block completed and entered the §5.2.3
    /// flow-control tail.
    SpliceWriteDone {
        /// Splice descriptor id.
        desc: u64,
        /// Logical block within the transfer.
        lblk: u64,
    },
    /// The flow-control tail issued a refill batch.
    SpliceRefill {
        /// Splice descriptor id.
        desc: u64,
    },
    /// A transient resource shortage deferred a block to the callout.
    SpliceBackoff {
        /// Splice descriptor id.
        desc: u64,
        /// Logical block that backed off.
        lblk: u64,
    },
    /// Recovery: a failed block read/write is being retried after its
    /// exponential-backoff delay.
    SpliceRetry {
        /// Splice descriptor id.
        desc: u64,
        /// Logical block being retried.
        lblk: u64,
        /// Attempt number (1 = first retry).
        attempt: u32,
    },
    /// Recovery exhausted: the transfer is aborting with a typed errno
    /// and will drain its in-flight blocks before completing.
    SpliceAbort {
        /// Splice descriptor id.
        desc: u64,
        /// The errno delivered, e.g. `"EIO"`.
        errno: &'static str,
    },
    /// The transfer finished (`SIGIO` or synchronous wakeup follows).
    SpliceComplete {
        /// Splice descriptor id.
        desc: u64,
    },
    /// One `sys_ring_submit` crossing accepted a batch of SQEs.
    RingSubmit {
        /// Ring id.
        ring: u64,
        /// SQEs accepted in this crossing.
        entries: u32,
    },
    /// An admitted SQE reached its `splice_begin` dispatch: `wait_ns`
    /// is the virtual CPU offset it waited inside the submit crossing
    /// (the clock does not advance within one crossing, so later batch
    /// entries wait behind the admission work of earlier ones).
    RingSqeWait {
        /// Ring id.
        ring: u64,
        /// Virtual wait from crossing start to dispatch, nanoseconds.
        wait_ns: u64,
    },
    /// One `sys_ring_reap` crossing drained a batch of CQEs.
    RingReap {
        /// Ring id.
        ring: u64,
        /// CQEs handed to the reaper in this crossing.
        entries: u32,
    },
}

impl TraceEvent {
    /// Stable dotted name of the event kind (used by queries, the text
    /// dump, and the Chrome exporter).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::SchedWakeup { .. } => "sched.wakeup",
            TraceEvent::SchedDispatch { .. } => "sched.dispatch",
            TraceEvent::SchedPreempt { .. } => "sched.preempt",
            TraceEvent::SchedRun { .. } => "sched.run",
            TraceEvent::SchedSleep { .. } => "sched.sleep",
            TraceEvent::CacheHit { .. } => "cache.hit",
            TraceEvent::CacheMiss { .. } => "cache.miss",
            TraceEvent::CacheEvict { .. } => "cache.evict",
            TraceEvent::CacheBiodone { .. } => "cache.biodone",
            TraceEvent::DiskIssue { .. } => "disk.issue",
            TraceEvent::DiskIntr { .. } => "disk.intr",
            TraceEvent::DiskError { .. } => "disk.error",
            TraceEvent::CalloutArm { .. } => "callout.arm",
            TraceEvent::CalloutFire { .. } => "callout.fire",
            TraceEvent::NetSend { .. } => "net.send",
            TraceEvent::NetDeliver { .. } => "net.deliver",
            TraceEvent::NetDrop { .. } => "net.drop",
            TraceEvent::SpliceStart { .. } => "splice.start",
            TraceEvent::SpliceReject { .. } => "splice.reject",
            TraceEvent::SpliceReadIssue { .. } => "splice.read_issue",
            TraceEvent::SpliceReadDone { .. } => "splice.read_done",
            TraceEvent::SpliceWriteIssue { .. } => "splice.write_issue",
            TraceEvent::SpliceWriteDone { .. } => "splice.write_done",
            TraceEvent::SpliceRefill { .. } => "splice.refill",
            TraceEvent::SpliceBackoff { .. } => "splice.backoff",
            TraceEvent::SpliceRetry { .. } => "splice.retry",
            TraceEvent::SpliceAbort { .. } => "splice.abort",
            TraceEvent::SpliceComplete { .. } => "splice.complete",
            TraceEvent::RingSubmit { .. } => "ring.submit",
            TraceEvent::RingSqeWait { .. } => "ring.sqe_wait",
            TraceEvent::RingReap { .. } => "ring.reap",
        }
    }

    /// The `(desc, lblk)` key for the four per-block splice phases;
    /// `None` for everything else.
    pub fn splice_key(&self) -> Option<(u64, u64)> {
        match *self {
            TraceEvent::SpliceReadIssue { desc, lblk }
            | TraceEvent::SpliceReadDone { desc, lblk }
            | TraceEvent::SpliceWriteIssue { desc, lblk }
            | TraceEvent::SpliceWriteDone { desc, lblk } => Some((desc, lblk)),
            _ => None,
        }
    }

    /// The subsystem track this event renders on in the Chrome export.
    fn track(&self) -> (&'static str, u64) {
        match self {
            TraceEvent::SchedWakeup { .. }
            | TraceEvent::SchedDispatch { .. }
            | TraceEvent::SchedPreempt { .. }
            | TraceEvent::SchedRun { .. }
            | TraceEvent::SchedSleep { .. } => ("sched", 1),
            TraceEvent::CacheHit { .. }
            | TraceEvent::CacheMiss { .. }
            | TraceEvent::CacheEvict { .. }
            | TraceEvent::CacheBiodone { .. } => ("cache", 2),
            TraceEvent::DiskIssue { .. }
            | TraceEvent::DiskIntr { .. }
            | TraceEvent::DiskError { .. } => ("disk", 3),
            TraceEvent::CalloutArm { .. } | TraceEvent::CalloutFire { .. } => ("callout", 4),
            TraceEvent::NetSend { .. }
            | TraceEvent::NetDeliver { .. }
            | TraceEvent::NetDrop { .. } => ("net", 5),
            _ => ("splice", 6),
        }
    }

    /// Event payload as a structured `args` object (the Chrome export's
    /// encoding).
    fn args_json(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        match *self {
            TraceEvent::SchedWakeup { pid }
            | TraceEvent::SchedDispatch { pid }
            | TraceEvent::SchedPreempt { pid } => Json::obj().with("pid", num(pid as u64)),
            TraceEvent::SchedRun { pid, ns } => {
                Json::obj().with("pid", num(pid as u64)).with("ns", num(ns))
            }
            TraceEvent::SchedSleep { pid, chan } => Json::obj()
                .with("pid", num(pid as u64))
                .with("chan", num(chan)),
            TraceEvent::CacheHit { dev, blkno }
            | TraceEvent::CacheMiss { dev, blkno }
            | TraceEvent::CacheEvict { dev, blkno } => Json::obj()
                .with("dev", num(dev as u64))
                .with("blkno", num(blkno)),
            TraceEvent::CacheBiodone { buf } => Json::obj().with("buf", num(buf as u64)),
            TraceEvent::DiskIssue {
                disk,
                blkno,
                len,
                write,
            } => Json::obj()
                .with("disk", num(disk as u64))
                .with("blkno", num(blkno))
                .with("len", num(len as u64))
                .with("write", Json::Bool(write)),
            TraceEvent::DiskIntr { disk, token } => Json::obj()
                .with("disk", num(disk as u64))
                .with("token", num(token)),
            TraceEvent::DiskError { disk, blkno, write } => Json::obj()
                .with("disk", num(disk as u64))
                .with("blkno", num(blkno))
                .with("write", Json::Bool(write)),
            TraceEvent::CalloutArm { delay_ticks } => {
                Json::obj().with("delay_ticks", num(delay_ticks))
            }
            TraceEvent::CalloutFire { tick } => Json::obj().with("tick", num(tick)),
            TraceEvent::NetSend { sock, len }
            | TraceEvent::NetDeliver { sock, len }
            | TraceEvent::NetDrop { sock, len } => Json::obj()
                .with("sock", num(sock as u64))
                .with("len", num(len as u64)),
            TraceEvent::SpliceStart { desc, bytes } => Json::obj()
                .with("desc", num(desc))
                .with("bytes", num(bytes)),
            TraceEvent::SpliceReject { errno } => {
                Json::obj().with("errno", Json::Str(errno.into()))
            }
            TraceEvent::SpliceReadIssue { desc, lblk }
            | TraceEvent::SpliceReadDone { desc, lblk }
            | TraceEvent::SpliceWriteIssue { desc, lblk }
            | TraceEvent::SpliceWriteDone { desc, lblk }
            | TraceEvent::SpliceBackoff { desc, lblk } => {
                Json::obj().with("desc", num(desc)).with("lblk", num(lblk))
            }
            TraceEvent::SpliceRetry {
                desc,
                lblk,
                attempt,
            } => Json::obj()
                .with("desc", num(desc))
                .with("lblk", num(lblk))
                .with("attempt", num(attempt as u64)),
            TraceEvent::SpliceAbort { desc, errno } => Json::obj()
                .with("desc", num(desc))
                .with("errno", Json::Str(errno.into())),
            TraceEvent::SpliceRefill { desc } | TraceEvent::SpliceComplete { desc } => {
                Json::obj().with("desc", num(desc))
            }
            TraceEvent::RingSubmit { ring, entries } | TraceEvent::RingReap { ring, entries } => {
                Json::obj()
                    .with("ring", num(ring))
                    .with("entries", num(entries as u64))
            }
            TraceEvent::RingSqeWait { ring, wait_ns } => Json::obj()
                .with("ring", num(ring))
                .with("wait_ns", num(wait_ns)),
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())?;
        match *self {
            TraceEvent::SchedWakeup { pid }
            | TraceEvent::SchedDispatch { pid }
            | TraceEvent::SchedPreempt { pid } => write!(f, " pid={pid}"),
            TraceEvent::SchedRun { pid, ns } => write!(f, " pid={pid} ns={ns}"),
            TraceEvent::SchedSleep { pid, chan } => write!(f, " pid={pid} chan={chan}"),
            TraceEvent::CacheHit { dev, blkno }
            | TraceEvent::CacheMiss { dev, blkno }
            | TraceEvent::CacheEvict { dev, blkno } => write!(f, " dev={dev} blkno={blkno}"),
            TraceEvent::CacheBiodone { buf } => write!(f, " buf={buf}"),
            TraceEvent::DiskIssue {
                disk,
                blkno,
                len,
                write,
            } => {
                let dir = if write { "write" } else { "read" };
                write!(f, " disk={disk} blkno={blkno} len={len} dir={dir}")
            }
            TraceEvent::DiskIntr { disk, token } => write!(f, " disk={disk} token={token}"),
            TraceEvent::DiskError { disk, blkno, write } => {
                let dir = if write { "write" } else { "read" };
                write!(f, " disk={disk} blkno={blkno} dir={dir}")
            }
            TraceEvent::CalloutArm { delay_ticks } => write!(f, " delay_ticks={delay_ticks}"),
            TraceEvent::CalloutFire { tick } => write!(f, " tick={tick}"),
            TraceEvent::NetSend { sock, len }
            | TraceEvent::NetDeliver { sock, len }
            | TraceEvent::NetDrop { sock, len } => write!(f, " sock={sock} len={len}"),
            TraceEvent::SpliceStart { desc, bytes } => write!(f, " desc={desc} bytes={bytes}"),
            TraceEvent::SpliceReject { errno } => write!(f, " errno={errno}"),
            TraceEvent::SpliceReadIssue { desc, lblk }
            | TraceEvent::SpliceReadDone { desc, lblk }
            | TraceEvent::SpliceWriteIssue { desc, lblk }
            | TraceEvent::SpliceWriteDone { desc, lblk }
            | TraceEvent::SpliceBackoff { desc, lblk } => write!(f, " desc={desc} lblk={lblk}"),
            TraceEvent::SpliceRetry {
                desc,
                lblk,
                attempt,
            } => {
                write!(f, " desc={desc} lblk={lblk} attempt={attempt}")
            }
            TraceEvent::SpliceAbort { desc, errno } => write!(f, " desc={desc} errno={errno}"),
            TraceEvent::SpliceRefill { desc } | TraceEvent::SpliceComplete { desc } => {
                write!(f, " desc={desc}")
            }
            TraceEvent::RingSubmit { ring, entries } | TraceEvent::RingReap { ring, entries } => {
                write!(f, " ring={ring} entries={entries}")
            }
            TraceEvent::RingSqeWait { ring, wait_ns } => {
                write!(f, " ring={ring} wait_ns={wait_ns}")
            }
        }
    }
}

/// One captured tracepoint: sequence number, timestamp, event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Monotone per-trace sequence number (keeps counting as the ring
    /// drops old records, so gaps reveal loss).
    pub seq: u64,
    /// Simulated time of the emit.
    pub at: SimTime,
    /// The structured event.
    pub ev: TraceEvent,
}

/// A bounded ring buffer of typed, sequence-numbered trace records.
pub struct Trace {
    enabled: bool,
    capacity: usize,
    next_seq: u64,
    /// Records evicted by ring wrap — silent truncation made countable.
    dropped: u64,
    ring: VecDeque<TraceRecord>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new(4096)
    }
}

impl Trace {
    /// Creates a disabled trace with room for `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Trace {
            enabled: false,
            capacity: capacity.max(1),
            next_seq: 0,
            dropped: 0,
            ring: VecDeque::new(),
        }
    }

    /// Turns tracing on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// True when records are being captured.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records an event if enabled; `f` is not called otherwise, so a
    /// disabled trace costs exactly one branch per tracepoint.
    pub fn emit(&mut self, now: SimTime, f: impl FnOnce() -> TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ring.push_back(TraceRecord {
            seq,
            at: now,
            ev: f(),
        });
    }

    /// The captured records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> + '_ {
        self.ring.iter()
    }

    /// Number of records currently in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Total records emitted over the trace's lifetime (the next
    /// sequence number) — includes records the ring has since dropped.
    pub fn emitted(&self) -> u64 {
        self.next_seq
    }

    /// Records lost to ring wrap: `emitted() - dropped()` never exceeds
    /// the capacity. A non-zero value means the oldest events of the
    /// run are gone.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// True if nothing has been captured (or everything was cleared).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// A query view over the captured records.
    pub fn query(&self) -> TraceQuery<'_> {
        TraceQuery { trace: self }
    }

    /// Renders all records as one newline-joined string (for test
    /// output). Formats through `fmt::Write` — no per-line allocation.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for r in self.records() {
            let _ = writeln!(out, "{} #{} {}", r.at, r.seq, r.ev);
        }
        out
    }

    /// Drops all captured records (sequence numbers keep counting).
    pub fn clear(&mut self) {
        self.ring.clear();
    }

    /// Exports the trace as a Chrome trace-event JSON document, loadable
    /// in Perfetto or `chrome://tracing`.
    ///
    /// Layout: pid 1 ("kernel") carries one instant-event thread per
    /// subsystem (sched, cache, disk, callout, net, splice); each splice
    /// descriptor gets its own process (pid `100 + desc`) with one
    /// complete-event ("X") row per fully-stitched block span, so the
    /// §5.2.2 read/write pipelining is visible as overlapping bars.
    /// Timestamps are microseconds and monotone per (pid, tid).
    pub fn to_chrome_json(&self) -> Json {
        const KERNEL_PID: u64 = 1;
        let us = |t: SimTime| Json::Num(t.as_ns() as f64 / 1e3);
        let num = |v: u64| Json::Num(v as f64);
        let mut evs: Vec<Json> = Vec::new();

        // Process/thread naming metadata (ts 0, ahead of every event).
        let meta = |name: &str, pid: u64, tid: u64, key: &str| {
            Json::obj()
                .with("name", Json::Str(key.into()))
                .with("ph", Json::Str("M".into()))
                .with("ts", Json::Num(0.0))
                .with("pid", num(pid))
                .with("tid", num(tid))
                .with("args", Json::obj().with("name", Json::Str(name.into())))
        };
        evs.push(meta("kernel", KERNEL_PID, 0, "process_name"));
        for (name, tid) in [
            ("sched", 1u64),
            ("cache", 2),
            ("disk", 3),
            ("callout", 4),
            ("net", 5),
            ("splice", 6),
        ] {
            evs.push(meta(name, KERNEL_PID, tid, "thread_name"));
        }

        // Instant events, in ring (= time) order per subsystem thread.
        for r in self.records() {
            let (_, tid) = r.ev.track();
            evs.push(
                Json::obj()
                    .with("name", Json::Str(r.ev.name().into()))
                    .with("ph", Json::Str("i".into()))
                    .with("ts", us(r.at))
                    .with("pid", num(KERNEL_PID))
                    .with("tid", num(tid))
                    .with("s", Json::Str("t".into()))
                    .with("args", r.ev.args_json()),
            );
        }

        // One complete event per fully-stitched block span: its own
        // (pid, tid) row, so single-event monotonicity is trivial.
        for span in self.query().all_block_spans() {
            let (Some(ri), Some(rd), Some(wi), Some(wd)) = (
                span.read_issue,
                span.read_done,
                span.write_issue,
                span.write_done,
            ) else {
                continue;
            };
            let pid = 100 + span.desc;
            evs.push(meta(
                &format!("splice {}", span.desc),
                pid,
                span.lblk,
                "process_name",
            ));
            evs.push(
                Json::obj()
                    .with("name", Json::Str(format!("block {}", span.lblk)))
                    .with("ph", Json::Str("X".into()))
                    .with("ts", us(ri.at))
                    .with("dur", Json::Num(wd.at.since(ri.at).as_ns() as f64 / 1e3))
                    .with("pid", num(pid))
                    .with("tid", num(span.lblk))
                    .with(
                        "args",
                        Json::obj()
                            .with("desc", num(span.desc))
                            .with("lblk", num(span.lblk))
                            .with("read_issue_us", us(ri.at))
                            .with("read_done_us", us(rd.at))
                            .with("write_issue_us", us(wi.at))
                            .with("write_done_us", us(wd.at)),
                    ),
            );
        }

        Json::obj()
            .with("traceEvents", Json::Arr(evs))
            .with("displayTimeUnit", Json::Str("ms".into()))
    }
}

/// Where one phase of a block span happened in the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseMark {
    /// Sequence number of the first record of this phase.
    pub seq: u64,
    /// Timestamp of that record.
    pub at: SimTime,
}

/// The causal span of one spliced block, stitched from `(desc, lblk)`
/// events: read issue → biodone → callout write → write done. Each phase
/// records its *first* occurrence (backoff retries re-emit phases).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockSpan {
    /// Splice descriptor id.
    pub desc: u64,
    /// Logical block within the transfer.
    pub lblk: u64,
    /// Phase 1: the source read/pull was issued.
    pub read_issue: Option<PhaseMark>,
    /// Phase 2: the block arrived (`b_iodone`).
    pub read_done: Option<PhaseMark>,
    /// Phase 3: the sink write handler ran.
    pub write_issue: Option<PhaseMark>,
    /// Phase 4: the block completed.
    pub write_done: Option<PhaseMark>,
}

impl BlockSpan {
    /// True when all four phases were observed.
    pub fn complete(&self) -> bool {
        self.read_issue.is_some()
            && self.read_done.is_some()
            && self.write_issue.is_some()
            && self.write_done.is_some()
    }

    /// True when the observed phases appear in pipeline order (by trace
    /// sequence) and no later phase exists without its predecessor.
    pub fn ordered(&self) -> bool {
        let phases = [
            self.read_issue,
            self.read_done,
            self.write_issue,
            self.write_done,
        ];
        let mut last: Option<u64> = None;
        for p in phases.iter().rev() {
            match (p, last) {
                (Some(mark), Some(next)) if mark.seq >= next => return false,
                (None, Some(_)) => return false, // gap before a later phase
                _ => {}
            }
            if let Some(mark) = p {
                last = Some(mark.seq);
            }
        }
        true
    }
}

/// Read-only query view over a [`Trace`].
pub struct TraceQuery<'a> {
    trace: &'a Trace,
}

impl<'a> TraceQuery<'a> {
    /// Records whose event satisfies `pred`, oldest first.
    pub fn events_of(&self, pred: impl Fn(&TraceEvent) -> bool) -> Vec<&'a TraceRecord> {
        self.trace.records().filter(|r| pred(&r.ev)).collect()
    }

    /// Records of the named kind (see [`TraceEvent::name`]).
    pub fn named(&self, name: &str) -> Vec<&'a TraceRecord> {
        self.events_of(|e| e.name() == name)
    }

    /// Records with `from <= at <= to`, oldest first.
    pub fn between(&self, from: SimTime, to: SimTime) -> Vec<&'a TraceRecord> {
        self.trace
            .records()
            .filter(|r| r.at >= from && r.at <= to)
            .collect()
    }

    /// Asserts that the *first* occurrence of each named event kind
    /// appears in the given order in the trace.
    ///
    /// # Panics
    ///
    /// Panics if a named kind never occurs or the first occurrences are
    /// out of order.
    pub fn assert_ordered(&self, names: &[&str]) {
        let mut last: Option<(u64, &str)> = None;
        for name in names {
            let first = self
                .trace
                .records()
                .find(|r| r.ev.name() == *name)
                .unwrap_or_else(|| panic!("no `{name}` event in trace"));
            if let Some((seq, prev)) = last {
                assert!(
                    seq < first.seq,
                    "`{prev}` (#{seq}) does not precede `{name}` (#{})",
                    first.seq
                );
            }
            last = Some((first.seq, name));
        }
    }

    /// The stitched span of one block, if any of its phases were traced.
    pub fn span_of(&self, desc: u64, lblk: u64) -> Option<BlockSpan> {
        let span = self.stitch(Some(desc)).remove(&(desc, lblk))?;
        Some(span)
    }

    /// All block spans of one descriptor, ordered by logical block.
    pub fn block_spans(&self, desc: u64) -> Vec<BlockSpan> {
        self.stitch(Some(desc)).into_values().collect()
    }

    /// Every block span in the trace, ordered by `(desc, lblk)`.
    pub fn all_block_spans(&self) -> Vec<BlockSpan> {
        self.stitch(None).into_values().collect()
    }

    fn stitch(&self, only_desc: Option<u64>) -> BTreeMap<(u64, u64), BlockSpan> {
        let mut spans: BTreeMap<(u64, u64), BlockSpan> = BTreeMap::new();
        for r in self.trace.records() {
            let Some((desc, lblk)) = r.ev.splice_key() else {
                continue;
            };
            if only_desc.is_some_and(|d| d != desc) {
                continue;
            }
            let span = spans.entry((desc, lblk)).or_insert_with(|| BlockSpan {
                desc,
                lblk,
                ..BlockSpan::default()
            });
            let mark = PhaseMark {
                seq: r.seq,
                at: r.at,
            };
            let slot = match r.ev {
                TraceEvent::SpliceReadIssue { .. } => &mut span.read_issue,
                TraceEvent::SpliceReadDone { .. } => &mut span.read_done,
                TraceEvent::SpliceWriteIssue { .. } => &mut span.write_issue,
                TraceEvent::SpliceWriteDone { .. } => &mut span.write_done,
                _ => unreachable!("splice_key covers only the four phases"),
            };
            if slot.is_none() {
                *slot = Some(mark);
            }
        }
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    fn wake(pid: u32) -> TraceEvent {
        TraceEvent::SchedWakeup { pid }
    }

    #[test]
    fn disabled_trace_skips_event_construction() {
        let mut tr = Trace::new(8);
        let mut called = false;
        tr.emit(SimTime::ZERO, || {
            called = true;
            wake(1)
        });
        assert!(!called);
        assert_eq!(tr.records().count(), 0);
        assert!(tr.is_empty());
    }

    #[test]
    fn enabled_trace_captures_in_order_with_seq() {
        let mut tr = Trace::new(8);
        tr.set_enabled(true);
        tr.emit(SimTime::ZERO, || wake(1));
        tr.emit(SimTime::ZERO + Dur::from_us(1), || wake(2));
        let recs: Vec<_> = tr.records().collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq, 0);
        assert_eq!(recs[1].seq, 1);
        assert_eq!(recs[1].ev, wake(2));
    }

    #[test]
    fn ring_drops_oldest_but_seq_keeps_counting() {
        let mut tr = Trace::new(2);
        tr.set_enabled(true);
        for i in 0..5 {
            tr.emit(SimTime::ZERO, move || wake(i));
        }
        let recs: Vec<_> = tr.records().collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq, 3);
        assert_eq!(recs[1].seq, 4);
        assert_eq!(recs[1].ev, wake(4));
        assert_eq!(tr.emitted(), 5, "every emit counts");
        assert_eq!(tr.dropped(), 3, "every wrap-eviction counts");
        assert_eq!(tr.emitted() - tr.dropped(), tr.len() as u64);
    }

    #[test]
    fn unwrapped_ring_reports_zero_dropped() {
        let mut tr = Trace::new(8);
        tr.set_enabled(true);
        for i in 0..8 {
            tr.emit(SimTime::ZERO, move || wake(i));
        }
        assert_eq!(tr.emitted(), 8);
        assert_eq!(tr.dropped(), 0, "at-capacity without wrap drops nothing");
    }

    #[test]
    fn dump_renders_lines_without_per_line_alloc_path() {
        let mut tr = Trace::new(4);
        tr.set_enabled(true);
        tr.emit(SimTime::ZERO, || TraceEvent::SpliceReject {
            errno: "EINVAL",
        });
        let dump = tr.dump();
        assert!(dump.contains("splice.reject"), "{dump}");
        assert!(dump.contains("errno=EINVAL"), "{dump}");
        tr.clear();
        assert!(tr.dump().is_empty());
    }

    fn block_phases(tr: &mut Trace, desc: u64, lblk: u64, t0: u64) {
        let t = |us| SimTime::ZERO + Dur::from_us(us);
        tr.emit(t(t0), || TraceEvent::SpliceReadIssue { desc, lblk });
        tr.emit(t(t0 + 1), || TraceEvent::SpliceReadDone { desc, lblk });
        tr.emit(t(t0 + 2), || TraceEvent::SpliceWriteIssue { desc, lblk });
        tr.emit(t(t0 + 3), || TraceEvent::SpliceWriteDone { desc, lblk });
    }

    #[test]
    fn span_builder_stitches_block_phases() {
        let mut tr = Trace::new(64);
        tr.set_enabled(true);
        block_phases(&mut tr, 1, 0, 10);
        block_phases(&mut tr, 1, 1, 12);
        let q = tr.query();
        let s = q.span_of(1, 0).expect("span");
        assert!(s.complete() && s.ordered());
        assert_eq!(s.read_issue.unwrap().at, SimTime::ZERO + Dur::from_us(10));
        assert_eq!(q.block_spans(1).len(), 2);
        assert!(q.span_of(2, 0).is_none());
    }

    #[test]
    fn partial_span_is_incomplete_and_gap_is_unordered() {
        let mut tr = Trace::new(64);
        tr.set_enabled(true);
        tr.emit(SimTime::ZERO, || TraceEvent::SpliceReadIssue {
            desc: 1,
            lblk: 0,
        });
        tr.emit(SimTime::ZERO + Dur::from_us(1), || {
            TraceEvent::SpliceWriteDone { desc: 1, lblk: 0 }
        });
        let s = tr.query().span_of(1, 0).unwrap();
        assert!(!s.complete());
        assert!(!s.ordered(), "write_done without write_issue is a gap");
    }

    #[test]
    fn query_filters_and_ordering_assertions() {
        let mut tr = Trace::new(64);
        tr.set_enabled(true);
        tr.emit(SimTime::ZERO, || TraceEvent::SpliceStart {
            desc: 1,
            bytes: 8,
        });
        block_phases(&mut tr, 1, 0, 5);
        tr.emit(SimTime::ZERO + Dur::from_us(9), || {
            TraceEvent::SpliceComplete { desc: 1 }
        });
        let q = tr.query();
        assert_eq!(q.named("splice.start").len(), 1);
        assert_eq!(
            q.between(
                SimTime::ZERO + Dur::from_us(5),
                SimTime::ZERO + Dur::from_us(8)
            )
            .len(),
            4
        );
        q.assert_ordered(&[
            "splice.start",
            "splice.read_issue",
            "splice.read_done",
            "splice.write_issue",
            "splice.write_done",
            "splice.complete",
        ]);
    }

    #[test]
    #[should_panic(expected = "does not precede")]
    fn assert_ordered_panics_on_inversion() {
        let mut tr = Trace::new(8);
        tr.set_enabled(true);
        tr.emit(SimTime::ZERO, || TraceEvent::SpliceComplete { desc: 1 });
        tr.emit(SimTime::ZERO, || TraceEvent::SpliceStart {
            desc: 1,
            bytes: 1,
        });
        tr.query()
            .assert_ordered(&["splice.start", "splice.complete"]);
    }

    #[test]
    fn chrome_export_parses_and_is_monotone_per_track() {
        let mut tr = Trace::new(64);
        tr.set_enabled(true);
        tr.emit(SimTime::ZERO, || TraceEvent::SchedWakeup { pid: 1 });
        // Two overlapping block spans, emitted in time order as the
        // simulator would (the clock never runs backwards).
        let t = |us| SimTime::ZERO + Dur::from_us(us);
        tr.emit(t(2), || TraceEvent::SpliceReadIssue { desc: 3, lblk: 0 });
        tr.emit(t(3), || TraceEvent::SpliceReadDone { desc: 3, lblk: 0 });
        tr.emit(t(4), || TraceEvent::SpliceWriteIssue { desc: 3, lblk: 0 });
        tr.emit(t(4), || TraceEvent::SpliceReadIssue { desc: 3, lblk: 1 });
        tr.emit(t(5), || TraceEvent::SpliceWriteDone { desc: 3, lblk: 0 });
        tr.emit(t(5), || TraceEvent::SpliceReadDone { desc: 3, lblk: 1 });
        tr.emit(t(6), || TraceEvent::SpliceWriteIssue { desc: 3, lblk: 1 });
        tr.emit(t(7), || TraceEvent::SpliceWriteDone { desc: 3, lblk: 1 });
        let doc = tr.to_chrome_json();
        let parsed = Json::parse(&doc.render()).expect("chrome json parses");
        assert_eq!(parsed, doc);
        let evs = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        assert!(!evs.is_empty());
        let mut last: std::collections::HashMap<(u64, u64), f64> = std::collections::HashMap::new();
        let mut blocks = 0;
        for e in evs {
            let pid = e.get("pid").and_then(Json::as_u64).unwrap();
            let tid = e.get("tid").and_then(Json::as_u64).unwrap();
            let ts = e.get("ts").and_then(Json::as_f64).unwrap();
            let prev = last.entry((pid, tid)).or_insert(ts);
            assert!(ts >= *prev, "ts regressed on ({pid},{tid})");
            *prev = ts;
            if e.get("ph").and_then(Json::as_str) == Some("X") {
                blocks += 1;
                assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
            }
        }
        assert_eq!(blocks, 2, "one complete event per stitched block");
    }

    #[test]
    fn wrapped_ring_yields_partial_spans_without_panic() {
        // Capacity 6 holds only the newest 6 of 8 phase events: block 0
        // loses its read_issue/read_done to the wrap. The span builder
        // must degrade to a partial span, never panic.
        let mut tr = Trace::new(6);
        tr.set_enabled(true);
        block_phases(&mut tr, 1, 0, 10);
        block_phases(&mut tr, 1, 1, 20);
        assert_eq!(tr.len(), 6, "ring wrapped");
        let spans = tr.query().all_block_spans();
        assert_eq!(spans.len(), 2);
        let s0 = tr.query().span_of(1, 0).unwrap();
        assert!(!s0.complete(), "truncated block span must be partial");
        assert!(s0.read_issue.is_none() && s0.read_done.is_none());
        assert!(s0.write_issue.is_some() && s0.write_done.is_some());
        let s1 = tr.query().span_of(1, 1).unwrap();
        assert!(s1.complete() && s1.ordered(), "untruncated span survives");
    }

    #[test]
    fn wrapped_ring_chrome_export_skips_partial_spans() {
        let mut tr = Trace::new(5);
        tr.set_enabled(true);
        block_phases(&mut tr, 7, 0, 0);
        block_phases(&mut tr, 7, 1, 10);
        let doc = tr.to_chrome_json();
        let evs = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let blocks = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .count();
        assert_eq!(blocks, 1, "only the fully-stitched block exports");
    }

    #[test]
    fn truncated_tail_span_is_unordered_gap() {
        // A span whose later phases were never emitted (run cut short):
        // incomplete but *ordered* — the observed prefix is causal.
        let mut tr = Trace::new(64);
        tr.set_enabled(true);
        tr.emit(SimTime::ZERO, || TraceEvent::SpliceReadIssue {
            desc: 9,
            lblk: 4,
        });
        tr.emit(SimTime::ZERO + Dur::from_us(1), || {
            TraceEvent::SpliceReadDone { desc: 9, lblk: 4 }
        });
        let s = tr.query().span_of(9, 4).unwrap();
        assert!(!s.complete());
        assert!(s.ordered(), "a causal prefix is not a gap");

        // Whereas a wrap that ate the *middle* phases leaves a gap.
        let mut tr2 = Trace::new(64);
        tr2.set_enabled(true);
        tr2.emit(SimTime::ZERO, || TraceEvent::SpliceReadIssue {
            desc: 9,
            lblk: 5,
        });
        tr2.emit(SimTime::ZERO + Dur::from_us(3), || {
            TraceEvent::SpliceWriteDone { desc: 9, lblk: 5 }
        });
        let s = tr2.query().span_of(9, 5).unwrap();
        assert!(!s.ordered(), "missing middle phase before a later one");
    }

    #[test]
    fn ring_sqe_wait_event_round_trips() {
        let mut tr = Trace::new(8);
        tr.set_enabled(true);
        tr.emit(SimTime::ZERO, || TraceEvent::RingSqeWait {
            ring: 3,
            wait_ns: 41_000,
        });
        let recs = tr.query().named("ring.sqe_wait");
        assert_eq!(recs.len(), 1);
        assert!(tr.dump().contains("ring=3 wait_ns=41000"), "{}", tr.dump());
        let doc = tr.to_chrome_json();
        let parsed = Json::parse(&doc.render()).expect("chrome json parses");
        assert_eq!(parsed, doc);
    }
}
