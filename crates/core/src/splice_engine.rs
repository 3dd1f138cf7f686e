//! The splice engine (§5 of the paper).
//!
//! A `splice(src_fd, dst_fd, size)` resolves both descriptors into
//! [endpoints](crate::endpoint) and builds a **splice descriptor**: a
//! self-contained record of everything the transfer needs — the source
//! read plan (a §5.2 physical block table for files, a pull-chunk size
//! for streams), destination block tables obtained with the allocating
//! `bmap` (§5.2), watermark counters (§5.2.3), and completion routing
//! (`FASYNC`/`SIGIO` or a sleeping synchronous caller). "Placing all
//! necessary information in this descriptor allows I/O to proceed without
//! requiring the calling process context to be available."
//!
//! **One engine loop serves every src×dst pair.** The data path runs
//! entirely in kernel completion context:
//!
//! * **Read side** (§5.2.1) — block sources issue `bread_call`s whose
//!   `b_iodone` handlers ([`crate::event::KWork::SpliceReadDone`]) fire at
//!   the completion interrupt; stream sources issue in-kernel pulls
//!   ([`crate::event::KWork::SpliceStreamPull`]). Both occupy
//!   pending-read slots.
//! * **Write side** (§5.2.2) — every arriving [`Block`] occupies a
//!   pending-write slot and is dispatched to its sink backend: the
//!   shared-header `bawrite` for aligned file sinks (no cache-to-cache
//!   copy), the append path for byte streams into files, paced delivery
//!   for character devices, datagram sends for sockets.
//! * **Flow control** (§5.2.3) — the common completion tail frees the
//!   block and, "if the number of pending reads and the number of
//!   pending writes drop below pre-specified watermarks (currently 3 and
//!   5 …), will issue up to five additional reads" — for *all* sources,
//!   so a socket-to-file spool stops pulling (datagrams queue in the
//!   socket buffer) when the disk side backs up.
//!
//! Because the accounting is shared, the kstat [`ksim::SpliceSpan`]
//! lifecycle, gauge samples, and latency digests describe every splice,
//! including the stream-sourced ones that historically bypassed them.

use kbuf::BufId;
use khw::CopyKind;
use kproc::{Chan, ChanSpace, Errno, Pid, SpliceLen, SyscallRet, WorkClass};
use ksim::{Dur, IdMap, TraceEvent};

use crate::endpoint::{Block, DstEndpoint, ReadPlan, SrcEndpoint};
use crate::event::KWork;
use crate::kernel::{IoCtx, Kernel};
use crate::objects::{CharDev, FileId};
use crate::splice_ring::RingRoute;
use crate::syscalls::{Cont, SyscallOutcome};

/// Pull granularity for stream sources (one datagram or framebuffer
/// chunk per pending-read slot).
pub(crate) const STREAM_CHUNK: usize = 8192;

/// Default per-block retry budget for transient device errors. The
/// first retry waits one tick; each further attempt doubles the backoff
/// (1, 2, 4, 8, 16 ticks). A block that still fails after this many
/// attempts aborts the whole splice with `EIO`. Ring submissions can
/// override the budget per request ([`kproc::SpliceReq::retries`]).
pub const MAX_SPLICE_RETRIES: u32 = kproc::SpliceReq::DEFAULT_RETRIES;

pub use kproc::SpliceOutcome;

/// Typed completion status of a splice descriptor, replacing the old
/// `Option<SpliceOutcome>` that conflated "still running" with "never
/// heard of it".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutcomeStatus {
    /// The splice is still in flight: no outcome yet.
    Pending,
    /// The splice finished (successfully or by abort) with this outcome.
    Done(SpliceOutcome),
    /// No such descriptor: never created, or created before a kernel
    /// restart. Distinct from [`OutcomeStatus::Pending`] so pollers
    /// cannot spin on an id that will never complete.
    Unknown,
}

impl OutcomeStatus {
    /// The outcome, if the splice has finished.
    pub fn done(self) -> Option<SpliceOutcome> {
        match self {
            OutcomeStatus::Done(o) => Some(o),
            _ => None,
        }
    }
}

/// The §5.2.3 rate-based flow-control parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowControl {
    /// Issue more reads only when pending reads drop below this.
    pub lo_reads: u32,
    /// … and pending writes below this.
    pub lo_writes: u32,
    /// Reads issued per refill ("up to five additional reads").
    pub batch: u32,
}

impl Default for FlowControl {
    fn default() -> Self {
        FlowControl {
            lo_reads: 3,
            lo_writes: 5,
            batch: 5,
        }
    }
}

/// One active splice, keyed by its descriptor id in `Kernel::splices`.
/// Its pending-read and pending-write counts live on its span
/// (`kstat.spans.live_mut(id)`), so flow control reads the same gauges
/// whose time integrals the Little's-law audit checks.
pub(crate) struct SpliceDesc {
    pub src: SrcEndpoint,
    pub dst: DstEndpoint,
    /// Bytes this splice will move.
    pub total: u64,
    pub bytes_done: u64,
    /// How the source side is driven (block table or stream pulls).
    pub plan: ReadPlan,
    /// Physical destination block per logical splice block (block sink).
    pub dst_map: Vec<u64>,
    /// Next block to read (mapped) or next pull sequence number (stream).
    pub next_read: usize,
    pub blocks_done: usize,
    /// Bytes pulled from a stream source so far.
    pub stream_taken: u64,
    /// Read-side buffers awaiting their write, by logical block.
    pub src_bufs: IdMap<u64, BufId>,
    /// Issue instants of in-flight blocks (latency accounting).
    pub issued_at: IdMap<u64, ksim::SimTime>,
    /// When each block's read side finished (stage accounting: the
    /// read-done → write-issue gap).
    pub read_done_at: IdMap<u64, ksim::SimTime>,
    /// When each block's write was (last) issued to its sink backend
    /// (stage accounting: write service time).
    pub write_issued_at: IdMap<u64, ksim::SimTime>,
    /// Append cursor for a byte-stream file sink.
    pub dst_off: u64,
    /// Device-error retry attempts per logical block.
    pub retries: IdMap<u64, u32>,
    /// Per-request retry budget (see [`MAX_SPLICE_RETRIES`]).
    pub retry_limit: u32,
    /// Set when the splice is aborting: no new work is issued and
    /// in-flight blocks drain without counting.
    pub error: Option<Errno>,
    pub done: bool,
}

impl SpliceDesc {
    /// Bytes of block `lblk` belonging to a mapped transfer.
    pub(crate) fn mapped_len(&self, lblk: u64) -> usize {
        match &self.plan {
            ReadPlan::Mapped { src_lens, .. } => src_lens[lblk as usize],
            ReadPlan::Stream { .. } => panic!("mapped_len on a stream splice"),
        }
    }

    /// Offset of the transfer within its first block (mapped plans).
    pub(crate) fn first_boff(&self) -> usize {
        match &self.plan {
            ReadPlan::Mapped { first_boff, .. } => *first_boff,
            ReadPlan::Stream { .. } => 0,
        }
    }
}

/// What [`Kernel::splice_begin`] did with a request: admitted it as an
/// in-flight descriptor, finished it on the spot (zero-length), or
/// refused it. CPU charges *exclude* the syscall crossing — the entry
/// point (one `splice(2)` trap or one amortized ring-submit crossing)
/// adds its own.
pub(crate) enum SpliceBegin {
    /// The splice is in flight; `desc` identifies it.
    Started { desc: u64, cpu: Dur },
    /// Nothing to move (zero-length transfer): done immediately.
    Empty { cpu: Dur },
    /// Refused with this errno (already counted through the funnel).
    Rejected(Errno),
}

impl Kernel {
    // ----- the unified splice entry point ------------------------------------

    /// Builds and launches a splice descriptor from an already-resolved
    /// request. **Every** entry path lands here — the synchronous
    /// `splice(2)` call, the `FASYNC`/`SIGIO` descriptor path, and ring
    /// submissions — differing only in the completion [`RingRoute`] they
    /// pass. Rejections are counted through
    /// [`Kernel::splice_reject_note`]; the caller maps them onto its own
    /// failure surface (errno return or error CQE).
    pub(crate) fn splice_begin(
        &mut self,
        sfid: FileId,
        dfid: FileId,
        len: SpliceLen,
        retry_limit: u32,
        route: RingRoute,
    ) -> SpliceBegin {
        let m = self.cfg.machine.clone();
        let sof = self.files.get(sfid).expect("resolved fid");
        let dof = self.files.get(dfid).expect("resolved fid");
        let (sobj, dobj) = (sof.obj, dof.obj);

        // An object participates only through a descriptor opened for
        // that direction: read on the source, write on the sink.
        if !sof.readable || !dof.writable {
            return SpliceBegin::Rejected(self.splice_reject_note(Errno::Ebadf));
        }
        let src = match self.resolve_src(sobj) {
            Ok(s) => s,
            Err(e) => return SpliceBegin::Rejected(self.splice_reject_note(e)),
        };
        let dst = match self.resolve_dst(dobj) {
            Ok(d) => d,
            Err(e) => return SpliceBegin::Rejected(self.splice_reject_note(e)),
        };

        // Resolve the transfer size and build the source read plan.
        let (total, plan, dst_map, dst_off, mut cpu) = match src {
            SrcEndpoint::File { disk, ino } => {
                // §5.2: "the size of the source file is determined from
                // information present in the gnode."
                let offset = self.files.get(sfid).unwrap().offset;
                let avail = self.disks[disk].fs.size(ino).saturating_sub(offset);
                let total = match len {
                    SpliceLen::Bytes(n) => n.min(avail),
                    SpliceLen::Eof => avail,
                };
                if total == 0 {
                    return SpliceBegin::Empty { cpu: Dur::ZERO };
                }
                let plan = match self.prepare_file_source(disk, ino, offset, total) {
                    Ok(p) => p,
                    Err(e) => return SpliceBegin::Rejected(self.splice_reject_note(e)),
                };
                let nblocks = match &plan {
                    ReadPlan::Mapped { src_map, .. } => src_map.len(),
                    ReadPlan::Stream { .. } => unreachable!(),
                };
                let mut dst_map = Vec::new();
                if let DstEndpoint::File {
                    disk: ddisk,
                    ino: dino,
                } = dst
                {
                    // Whole-block sharing needs aligned endpoints.
                    let bs = self.cfg.block_size as u64;
                    let dst_off = self.files.get(dfid).unwrap().offset;
                    if plan_first_boff(&plan) != 0 || !dst_off.is_multiple_of(bs) {
                        return SpliceBegin::Rejected(self.splice_reject_note(Errno::Einval));
                    }
                    dst_map = match self.prepare_file_sink(ddisk, dino, dst_off, nblocks, total) {
                        Ok(map) => map,
                        Err(e) => return SpliceBegin::Rejected(self.splice_reject_note(e)),
                    };
                    self.files.get_mut(dfid).unwrap().offset += total;
                }
                // Advance the source descriptor past the spliced range.
                self.files.get_mut(sfid).unwrap().offset += total;
                // Descriptor build cost: the bmap walks plus allocation.
                let cpu = m.buf_op + Dur::from_us(2) * (nblocks as u64 * 2);
                (total, plan, dst_map, 0u64, cpu)
            }
            SrcEndpoint::Fb { .. } | SrcEndpoint::Sock { .. } => {
                let SpliceLen::Bytes(total) = len else {
                    // A stream source has no EOF to reach.
                    return SpliceBegin::Rejected(self.splice_reject_note(Errno::Einval));
                };
                if total == 0 {
                    return SpliceBegin::Empty { cpu: Dur::ZERO };
                }
                // Byte-stream file sinks append from the current size.
                let dst_off = match dst {
                    DstEndpoint::File { disk, ino } => self.disks[disk].fs.size(ino),
                    _ => 0,
                };
                let plan = ReadPlan::Stream {
                    chunk: STREAM_CHUNK,
                };
                (total, plan, Vec::new(), dst_off, Dur::ZERO)
            }
        };

        let id = self.next_splice;
        self.next_splice += 1;
        let desc = SpliceDesc {
            src,
            dst,
            total,
            bytes_done: 0,
            plan,
            dst_map,
            next_read: 0,
            blocks_done: 0,
            stream_taken: 0,
            src_bufs: IdMap::default(),
            issued_at: IdMap::default(),
            read_done_at: IdMap::default(),
            write_issued_at: IdMap::default(),
            dst_off,
            retries: IdMap::default(),
            retry_limit,
            error: None,
            done: false,
        };
        self.splices.insert(id, desc);
        if let SrcEndpoint::Sock { sock } = src {
            self.rings.bind_sock(sock, id);
        }
        self.rings.register(
            id,
            RingRoute {
                user_data: Some(route.user_data.unwrap_or(id)),
                ..route
            },
        );
        self.ctr.splice.started += 1;
        let now = self.q.now();
        self.kstat.spans.start(id, now);
        self.trace.emit(now, || TraceEvent::SpliceStart {
            desc: id,
            bytes: total,
        });

        // Initial reads/pulls are issued in the caller's context.
        cpu += self.splice_issue_reads(id, IoCtx::Process);
        SpliceBegin::Started { desc: id, cpu }
    }

    /// The legacy `splice(2)` entry point, re-expressed on the ring path:
    /// a depth-1 submit on the process's implicit legacy ring. Without
    /// `FASYNC` the caller blocks on the ring channel until its entry
    /// completes; with `FASYNC` the call returns immediately and
    /// completion is announced with `SIGIO` (no CQE is queued — the
    /// outcome is latched in [`Kernel::splice_outcome`]).
    pub(crate) fn sys_splice(
        &mut self,
        pid: Pid,
        sfid: FileId,
        dfid: FileId,
        len: SpliceLen,
        retry_limit: u32,
    ) -> SyscallOutcome {
        let m = self.cfg.machine.clone();
        let fasync = {
            let sof = self.files.get(sfid).expect("resolved fid");
            let dof = self.files.get(dfid).expect("resolved fid");
            sof.fasync || dof.fasync
        };
        let ring = self.rings.legacy_ring_for(pid);
        let route = RingRoute {
            ring,
            user_data: None,
            queue_cqe: !fasync,
            sigio: fasync,
        };
        match self.splice_begin(sfid, dfid, len, retry_limit, route) {
            SpliceBegin::Rejected(e) => SyscallOutcome::Done {
                cpu: m.syscall,
                ret: SyscallRet::Err(e),
            },
            SpliceBegin::Empty { cpu } => SyscallOutcome::Done {
                cpu: m.syscall + cpu,
                ret: SyscallRet::Val(0),
            },
            SpliceBegin::Started { desc, cpu } => {
                if fasync {
                    SyscallOutcome::Done {
                        cpu: m.syscall + cpu,
                        ret: SyscallRet::Val(0),
                    }
                } else {
                    self.conts.insert(pid, Cont::SpliceSync { ring, desc });
                    SyscallOutcome::Block {
                        cpu: m.syscall + cpu,
                        chan: Chan::new(ChanSpace::Ring, ring),
                    }
                }
            }
        }
    }

    /// Counts and traces a splice rejection — the single funnel every
    /// refused request passes through, whether it surfaces as an errno
    /// return (`splice(2)`, ring syscalls) or an error CQE (per-entry
    /// ring submission failures). Returns the errno for convenience.
    pub(crate) fn splice_reject_note(&mut self, e: Errno) -> Errno {
        self.ctr.splice.rejected += 1;
        let now = self.q.now();
        self.trace.emit(now, || TraceEvent::SpliceReject {
            errno: errno_name(e),
        });
        e
    }

    /// Rejection as a syscall outcome: the funnel plus the errno return
    /// charged at one crossing.
    pub(crate) fn splice_reject(&mut self, e: Errno) -> SyscallOutcome {
        let e = self.splice_reject_note(e);
        SyscallOutcome::Done {
            cpu: self.cfg.machine.syscall,
            ret: SyscallRet::Err(e),
        }
    }

    /// A synchronous splice caller woke up: deliver the byte count if the
    /// transfer finished, or go back to sleep. An aborted splice reports
    /// its typed errno — never a success value — and leaves the exact
    /// partial byte count in [`Kernel::splice_outcome`].
    pub(crate) fn resume_splice_sync(&mut self, pid: Pid, ring: u64, desc: u64) -> SyscallOutcome {
        match self.splice_outcome(desc) {
            OutcomeStatus::Done(o) => {
                // Drop the latched CQE: the blocking caller *is* the
                // reaper for its depth-1 entry.
                self.rings.remove_cqe(ring, desc);
                let ret = match o.error {
                    Some(e) => SyscallRet::Err(e),
                    None => SyscallRet::Val(o.bytes_moved as i64),
                };
                SyscallOutcome::Done {
                    cpu: self.cfg.machine.buf_op,
                    ret,
                }
            }
            OutcomeStatus::Pending => {
                self.conts.insert(pid, Cont::SpliceSync { ring, desc });
                SyscallOutcome::Block {
                    cpu: Dur::ZERO,
                    chan: Chan::new(ChanSpace::Ring, ring),
                }
            }
            // The descriptor vanished without latching an outcome (it
            // cannot under normal operation): report zero, don't hang.
            OutcomeStatus::Unknown => SyscallOutcome::Done {
                cpu: self.cfg.machine.buf_op,
                ret: SyscallRet::Val(0),
            },
        }
    }

    // ----- read issuing (§5.2.1 + §5.2.3) --------------------------------------

    /// Runs a span-note closure for descriptor `desc`, handing it the
    /// current time. A no-op for descriptors that are already gone
    /// (teardown races).
    pub(crate) fn span_note(
        &mut self,
        desc: u64,
        f: impl FnOnce(&mut ksim::SpliceSpan, ksim::SimTime),
    ) {
        let now = self.q.now();
        if let Some(span) = self.kstat.spans.get_mut(desc) {
            f(span, now);
        }
    }

    /// Issues source work — block reads or stream pulls — up to the batch
    /// limit. Returns CPU cost incurred in the caller's context (setup
    /// path).
    pub(crate) fn splice_issue_reads(&mut self, id: u64, ctx: IoCtx) -> Dur {
        let m = self.cfg.machine.clone();
        let batch = self.cfg.flow.batch;
        let mut cpu = Dur::ZERO;
        loop {
            let Some(d) = self.splices.get(&id) else {
                return cpu;
            };
            let pending_reads = self.kstat.spans[id].pending_reads.count();
            if d.done || d.error.is_some() || pending_reads >= batch {
                return cpu;
            }
            match &d.plan {
                ReadPlan::Mapped { src_map, .. } => {
                    if d.next_read >= src_map.len() {
                        return cpu;
                    }
                    let lblk = d.next_read as u64;
                    let pblk = src_map[d.next_read];
                    let SrcEndpoint::File { disk, .. } = d.src else {
                        unreachable!("mapped plans come from file sources")
                    };
                    let (c, keep_going) = self.file_issue_read(id, lblk, pblk, disk, ctx, false);
                    cpu += c;
                    if !keep_going {
                        return cpu;
                    }
                }
                ReadPlan::Stream { chunk } => {
                    let chunk = *chunk;
                    // Claim bound: each outstanding pull claims up to one
                    // chunk; stop once claims cover the remaining bytes.
                    let claimed = d.stream_taken + pending_reads as u64 * chunk as u64;
                    if claimed >= d.total {
                        return cpu;
                    }
                    let cost = match d.src {
                        SrcEndpoint::Sock { sock } => {
                            // At most one pull per queued datagram; the
                            // next delivery re-arms via net_rx.
                            if pending_reads as usize >= self.net.rcv_depth(sock) {
                                return cpu;
                            }
                            m.splice_handler + m.udp_packet
                        }
                        SrcEndpoint::Fb { .. } => {
                            m.splice_handler + m.copy_cost(CopyKind::Driver, chunk)
                        }
                        SrcEndpoint::File { .. } => {
                            unreachable!("stream plans come from fb/socket sources")
                        }
                    };
                    let now = self.q.now();
                    let d = self.splices.get_mut(&id).unwrap();
                    let lblk = d.next_read as u64;
                    d.next_read += 1;
                    d.issued_at.insert(lblk, now);
                    self.ctr.splice.reads_issued += 1;
                    self.trace
                        .emit(now, || TraceEvent::SpliceReadIssue { desc: id, lblk });
                    let span = self.kstat.spans.live_mut(id);
                    span.pending_reads.enter(now);
                    span.note_read_issued(now);
                    self.enqueue_kwork(
                        WorkClass::Soft,
                        cost,
                        KWork::SpliceStreamPull { desc: id, lblk },
                    );
                }
            }
        }
    }

    // ----- kernel-work handlers ---------------------------------------------------

    pub(crate) fn apply_splice_work(&mut self, work: KWork) {
        match work {
            KWork::SpliceReadDone { desc, lblk, buf } => {
                self.splice_block_arrived(desc, lblk, Block::Buf(buf))
            }
            KWork::SpliceStreamPull { desc, lblk } => self.splice_stream_pull(desc, lblk),
            KWork::SpliceWrite {
                desc,
                lblk,
                src_buf,
            } => self.splice_write(desc, lblk, src_buf),
            KWork::SpliceWriteDone { desc, lblk, hdr } => self.splice_write_done(desc, lblk, hdr),
            KWork::SpliceAppend {
                desc,
                lblk,
                off,
                data,
            } => self.splice_append(desc, lblk, off, data),
            KWork::SpliceIssueReads { desc } => {
                self.splice_issue_reads(desc, IoCtx::Kernel);
            }
            KWork::SpliceRetryRead { desc, lblk } => self.splice_retry_read(desc, lblk),
            KWork::SpliceDevWrite {
                desc,
                lblk,
                src,
                off,
            } => self.splice_dev_write(desc, lblk, src, off),
            KWork::SpliceSockWrite { desc, lblk, src } => self.splice_sock_write(desc, lblk, src),
            KWork::SpliceSockDrain { host } => self.splice_sock_drain(host),
            KWork::SpliceComplete { desc } => self.complete_splice(desc),
            other => panic!("not splice work: {other:?}"),
        }
    }

    pub(crate) fn release_buf(&mut self, buf: BufId) {
        let mut fx = Vec::new();
        self.cache.brelse(buf, &mut fx);
        let sync = self.apply_cache_effects(fx, IoCtx::Kernel);
        debug_assert!(sync.is_zero());
    }

    /// Applies one stream pull: take the next chunk from the source and
    /// hand it to the engine as an arrived block.
    fn splice_stream_pull(&mut self, desc: u64, lblk: u64) {
        let now = self.q.now();
        let Some(d) = self.splices.get(&desc) else {
            return;
        };
        let src = d.src;
        let remaining = d.total.saturating_sub(d.stream_taken);
        let want = match &d.plan {
            ReadPlan::Stream { chunk } => (*chunk as u64).min(remaining) as usize,
            ReadPlan::Mapped { .. } => panic!("stream pull on a mapped splice"),
        };
        if d.done || d.error.is_some() || want == 0 {
            // The source closed, the splice is aborting, or the target
            // was reached while this pull was queued; release the slot.
            let d = self.splices.get_mut(&desc).unwrap();
            d.issued_at.remove(&lblk);
            self.kstat.spans.live_mut(desc).pending_reads.leave(now);
            self.maybe_finish_abort(desc);
            return;
        }
        let payload = match src {
            SrcEndpoint::Sock { sock } => self.sock_pull(sock, want),
            SrcEndpoint::Fb { cdev } => Some(self.fb_pull(cdev, now, want)),
            SrcEndpoint::File { .. } => unreachable!("stream pull from a file"),
        };
        let Some(payload) = payload else {
            // Socket drained between issue and apply; the next delivery
            // re-arms via net_rx.
            let d = self.splices.get_mut(&desc).unwrap();
            d.issued_at.remove(&lblk);
            self.kstat.spans.live_mut(desc).pending_reads.leave(now);
            self.maybe_finish_abort(desc);
            return;
        };
        let d = self.splices.get_mut(&desc).unwrap();
        d.stream_taken += payload.len() as u64;
        self.splice_block_arrived(desc, lblk, Block::Bytes(payload));
    }

    /// §5.2.1's read handler, generalized: a source block arrived (from a
    /// device read or a stream pull). Move it from the pending-read to
    /// the pending-write column and dispatch it to the sink backend —
    /// aligned file sinks at the head of the callout list, everything
    /// else as kernel soft work.
    fn splice_block_arrived(&mut self, desc: u64, lblk: u64, block: Block) {
        let m = self.cfg.machine.clone();
        let now = self.q.now();
        // A read that completed with B_ERROR never joins the write
        // column: release the buffer (brelse discards errored buffers,
        // so a retry re-misses and re-reads the device) and run the
        // retry/abort policy.
        if let Block::Buf(buf) = &block {
            let buf = *buf;
            if self.cache.flags(buf).contains(kbuf::BufFlags::ERROR) {
                self.release_buf(buf);
                if let Some(d) = self.splices.get_mut(&desc) {
                    d.issued_at.remove(&lblk);
                    self.kstat.spans.live_mut(desc).pending_reads.leave(now);
                    self.splice_read_failed(desc, lblk);
                }
                return;
            }
        }
        let Some(d) = self.splices.get_mut(&desc) else {
            if let Block::Buf(buf) = block {
                self.release_buf(buf);
            }
            return;
        };
        let span = self.kstat.spans.live_mut(desc);
        span.pending_reads.leave(now);
        // Abort drain: the slot is dropped and the block discarded
        // without dispatching its write.
        if d.error.is_some() {
            d.issued_at.remove(&lblk);
            if let Block::Buf(buf) = block {
                self.release_buf(buf);
            }
            self.maybe_finish_abort(desc);
            return;
        }
        span.pending_writes.enter(now);
        // Stage accounting: the read side of this block is done. The
        // issue instant stays in `issued_at` for the end-to-end digest.
        if let Some(&at) = d.issued_at.get(&lblk) {
            self.kstat.stages.read_service.record(now.since(at).as_ns());
        }
        self.trace
            .emit(now, || TraceEvent::SpliceReadDone { desc, lblk });
        let d = self.splices.get_mut(&desc).unwrap();
        d.read_done_at.insert(lblk, now);
        if let Block::Buf(buf) = &block {
            d.src_bufs.insert(lblk, *buf);
        }
        let len = match &block {
            Block::Bytes(b) => b.len(),
            Block::Buf(_) => d.mapped_len(lblk),
        };
        let dst = d.dst;
        match (dst, block) {
            (DstEndpoint::File { .. }, Block::Buf(buf)) => {
                // §5.2.1: "schedules a write by placing a reference to
                // the write handler at the head of the system callout
                // list."
                self.callout.schedule_head(
                    self.tick,
                    KWork::SpliceWrite {
                        desc,
                        lblk,
                        src_buf: buf,
                    },
                );
                self.trace
                    .emit(now, || TraceEvent::CalloutArm { delay_ticks: 0 });
            }
            (DstEndpoint::File { .. }, Block::Bytes(data)) => {
                // Byte streams append; the cursor advances at dispatch
                // time so retries and reordered applies keep their slot.
                let off = d.dst_off;
                d.dst_off += len as u64;
                self.enqueue_kwork(
                    WorkClass::Soft,
                    m.splice_handler + m.buf_op,
                    KWork::SpliceAppend {
                        desc,
                        lblk,
                        off,
                        data,
                    },
                );
            }
            (DstEndpoint::Dev { .. }, block) => {
                let cost = m.splice_handler + m.copy_cost(CopyKind::Driver, len);
                self.enqueue_kwork(
                    WorkClass::Soft,
                    cost,
                    KWork::SpliceDevWrite {
                        desc,
                        lblk,
                        src: block,
                        off: 0,
                    },
                );
            }
            (DstEndpoint::Sock { .. }, block) => {
                let cost = m.splice_handler + m.udp_packet;
                self.enqueue_kwork(
                    WorkClass::Soft,
                    cost,
                    KWork::SpliceSockWrite {
                        desc,
                        lblk,
                        src: block,
                    },
                );
            }
        }
        self.span_note(desc, |s, now| s.note_write_issued(now));
    }

    /// Stage accounting for the moment a block's write is handed to its
    /// sink backend: closes the read-done → write-issue gap (first issue
    /// only) and stamps the write-service start. Every sink backend —
    /// shared-header file writes, stream appends, device pacing, socket
    /// sends — calls this right before issuing, so retries re-stamp and
    /// the service digest measures the attempt that completed.
    pub(crate) fn note_write_issue_stage(&mut self, desc: u64, lblk: u64) {
        let now = self.q.now();
        let Some(d) = self.splices.get_mut(&desc) else {
            return;
        };
        if let Some(done_at) = d.read_done_at.remove(&lblk) {
            self.kstat
                .stages
                .read_to_write
                .record(now.since(done_at).as_ns());
        }
        let d = self.splices.get_mut(&desc).unwrap();
        d.write_issued_at.insert(lblk, now);
    }

    /// Common completion/flow-control tail of the write side, for every
    /// sink (§5.2.2–§5.2.3).
    pub(crate) fn splice_block_completed(&mut self, desc: u64, lblk: u64, bytes: u64) {
        let flow = self.cfg.flow;
        let now = self.q.now();
        let Some(d) = self.splices.get_mut(&desc) else {
            return;
        };
        let span = self.kstat.spans.live_mut(desc);
        span.pending_writes.leave(now);
        d.blocks_done += 1;
        d.bytes_done += bytes;
        let issued = d.issued_at.remove(&lblk);
        let write_issued = d.write_issued_at.remove(&lblk);
        d.read_done_at.remove(&lblk);
        // A write that lands while the splice is aborting still moved
        // its bytes (they count toward the partial-transfer total) but
        // never refills or finishes; the abort tail completes instead.
        let aborting = d.error.is_some();
        let finished = !aborting
            && match &d.plan {
                ReadPlan::Mapped { src_map, .. } => d.blocks_done == src_map.len(),
                ReadPlan::Stream { .. } => d.bytes_done >= d.total,
            };
        let refill = !aborting
            && !finished
            && span.pending_reads.count() < flow.lo_reads
            && span.pending_writes.count() < flow.lo_writes;
        span.note_block_done(bytes);
        if finished {
            span.note_drained(now);
        }
        if refill {
            span.note_refill();
        }
        self.trace
            .emit(now, || TraceEvent::SpliceWriteDone { desc, lblk });
        if refill {
            self.trace.emit(now, || TraceEvent::SpliceRefill { desc });
        }
        if let Some(at) = write_issued {
            self.kstat
                .stages
                .write_service
                .record(now.since(at).as_ns());
        }
        if let Some(at) = issued {
            let ns = now.since(at).as_ns();
            self.kstat.splice_block_latency.record(ns);
            self.kstat.stages.end_to_end.record(ns);
        }
        if finished {
            let cost = self.cfg.machine.signal_delivery;
            self.enqueue_kwork(WorkClass::Soft, cost, KWork::SpliceComplete { desc });
        } else if refill {
            let cost =
                self.cfg.machine.splice_handler + self.cfg.machine.buf_op * flow.batch as u64;
            self.enqueue_kwork(WorkClass::Soft, cost, KWork::SpliceIssueReads { desc });
        } else if aborting {
            self.maybe_finish_abort(desc);
        }
    }

    // ----- failure handling: retry, backoff, abort ------------------------------

    /// A mapped-source block read completed with `B_ERROR`. The caller
    /// already dropped the pending-read slot and released the buffer;
    /// this counts the attempt and either arms the backoff retry callout
    /// or aborts the splice with `EIO`.
    fn splice_read_failed(&mut self, desc: u64, lblk: u64) {
        let now = self.q.now();
        let Some(d) = self.splices.get_mut(&desc) else {
            return;
        };
        if d.error.is_some() {
            self.maybe_finish_abort(desc);
            return;
        }
        let limit = d.retry_limit;
        let attempt = {
            let a = d.retries.entry(lblk).or_insert(0);
            *a += 1;
            *a
        };
        if attempt > limit {
            self.splice_abort(desc, Errno::Eio);
            return;
        }
        self.ctr.splice.retries += 1;
        self.trace.emit(now, || TraceEvent::SpliceRetry {
            desc,
            lblk,
            attempt,
        });
        self.span_note(desc, |s, _| s.note_backoff());
        // Exponential backoff: 1, 2, 4, 8, 16 ticks.
        let delay = 1u64 << (attempt - 1);
        self.kstat
            .stages
            .retry_backoff
            .record(delay * self.cfg.machine.tick().as_ns());
        self.callout
            .schedule(self.tick, delay, KWork::SpliceRetryRead { desc, lblk });
        self.trace
            .emit(now, || TraceEvent::CalloutArm { delay_ticks: delay });
    }

    /// Backoff expiry: re-issue one failed mapped-source read. The read
    /// cursor moved past this block when it was first issued, so the
    /// re-issue must not advance it again (`retry = true`).
    fn splice_retry_read(&mut self, desc: u64, lblk: u64) {
        let Some(d) = self.splices.get(&desc) else {
            return;
        };
        if d.done {
            return;
        }
        if d.error.is_some() {
            self.maybe_finish_abort(desc);
            return;
        }
        let (pblk, disk) = match (&d.plan, d.src) {
            (ReadPlan::Mapped { src_map, .. }, SrcEndpoint::File { disk, .. }) => {
                (src_map[lblk as usize], disk)
            }
            _ => unreachable!("read retries are armed for mapped sources only"),
        };
        self.file_issue_read(desc, lblk, pblk, disk, IoCtx::Kernel, true);
    }

    /// A block-sink shared-header write completed with `B_ERROR`. The
    /// source buffer is still held in `src_bufs` and block rewrites are
    /// idempotent (a torn write is overwritten wholesale on the next
    /// attempt), so a retry re-runs just the write side of this block.
    pub(crate) fn splice_write_failed(&mut self, desc: u64, lblk: u64) {
        let now = self.q.now();
        let Some(d) = self.splices.get_mut(&desc) else {
            return;
        };
        let src_buf = d.src_bufs.get(&lblk).copied();
        if d.error.is_some() {
            // Abort drain: drop the slot and the held source buffer.
            self.kstat.spans.live_mut(desc).pending_writes.leave(now);
            d.issued_at.remove(&lblk);
            d.write_issued_at.remove(&lblk);
            d.src_bufs.remove(&lblk);
            if let Some(buf) = src_buf {
                self.release_buf(buf);
            }
            self.maybe_finish_abort(desc);
            return;
        }
        let limit = d.retry_limit;
        let attempt = {
            let a = d.retries.entry(lblk).or_insert(0);
            *a += 1;
            *a
        };
        if attempt > limit {
            // This block's write has terminally failed: nothing further
            // will arrive for it, so surrender its slot before aborting
            // (the abort completes once the *other* in-flight blocks
            // drain).
            self.kstat.spans.live_mut(desc).pending_writes.leave(now);
            d.issued_at.remove(&lblk);
            d.write_issued_at.remove(&lblk);
            d.src_bufs.remove(&lblk);
            if let Some(buf) = src_buf {
                self.release_buf(buf);
            }
            self.splice_abort(desc, Errno::Eio);
            return;
        }
        let Some(src_buf) = src_buf else {
            // The source buffer vanished (teardown race): drop the slot.
            self.kstat.spans.live_mut(desc).pending_writes.leave(now);
            d.issued_at.remove(&lblk);
            d.write_issued_at.remove(&lblk);
            return;
        };
        self.ctr.splice.retries += 1;
        self.trace.emit(now, || TraceEvent::SpliceRetry {
            desc,
            lblk,
            attempt,
        });
        self.span_note(desc, |s, _| s.note_backoff());
        let delay = 1u64 << (attempt - 1);
        self.kstat
            .stages
            .retry_backoff
            .record(delay * self.cfg.machine.tick().as_ns());
        self.callout.schedule(
            self.tick,
            delay,
            KWork::SpliceWrite {
                desc,
                lblk,
                src_buf,
            },
        );
        self.trace
            .emit(now, || TraceEvent::CalloutArm { delay_ticks: delay });
    }

    /// Abort-drain check for write-side handlers: if the splice is
    /// aborting, discard the block, surrender its pending-write slot and
    /// any held source buffer, and try to finish the abort. Returns true
    /// when the work was drained (the handler must return immediately).
    pub(crate) fn splice_drain_write(
        &mut self,
        desc: u64,
        lblk: u64,
        block: Option<Block>,
    ) -> bool {
        let aborting = self
            .splices
            .get(&desc)
            .map(|d| d.error.is_some())
            .unwrap_or(false);
        if !aborting {
            return false;
        }
        let now = self.q.now();
        self.kstat.spans.live_mut(desc).pending_writes.leave(now);
        let d = self.splices.get_mut(&desc).unwrap();
        d.issued_at.remove(&lblk);
        d.read_done_at.remove(&lblk);
        d.write_issued_at.remove(&lblk);
        let held = d.src_bufs.remove(&lblk);
        if let Some(buf) = held {
            self.release_buf(buf);
        } else if let Some(Block::Buf(buf)) = block {
            self.release_buf(buf);
        }
        self.maybe_finish_abort(desc);
        true
    }

    /// Transitions a splice into the aborting state: the typed errno is
    /// recorded, no further reads are issued, and in-flight work drains
    /// without refilling. Completion (buffer release, wakeup/`SIGIO`) is
    /// deferred until the last in-flight block lands.
    pub(crate) fn splice_abort(&mut self, desc: u64, e: Errno) {
        let Some(d) = self.splices.get_mut(&desc) else {
            return;
        };
        if d.done || d.error.is_some() {
            return;
        }
        d.error = Some(e);
        self.ctr.splice.aborted += 1;
        let now = self.q.now();
        self.trace.emit(now, || TraceEvent::SpliceAbort {
            desc,
            errno: errno_name(e),
        });
        self.maybe_finish_abort(desc);
    }

    /// Completes an aborting splice once nothing is in flight, releasing
    /// every still-held source buffer so the cache leaks nothing.
    pub(crate) fn maybe_finish_abort(&mut self, desc: u64) {
        let Some(d) = self.splices.get_mut(&desc) else {
            return;
        };
        let span = &self.kstat.spans[desc];
        if d.error.is_none()
            || d.done
            || span.pending_reads.count() != 0
            || span.pending_writes.count() != 0
        {
            return;
        }
        let bufs: Vec<BufId> = d.src_bufs.drain().map(|(_, b)| b).collect();
        d.issued_at.clear();
        d.read_done_at.clear();
        d.write_issued_at.clear();
        for b in bufs {
            self.release_buf(b);
        }
        self.complete_splice(desc);
    }

    /// The typed completion status of splice `desc`:
    /// [`OutcomeStatus::Done`] once it finished (successfully or by
    /// abort), [`OutcomeStatus::Pending`] while still in flight,
    /// [`OutcomeStatus::Unknown`] for descriptor ids the kernel never
    /// issued.
    pub fn splice_outcome(&self, desc: u64) -> OutcomeStatus {
        if let Some(o) = self.splice_outcomes.get(&desc) {
            return OutcomeStatus::Done(*o);
        }
        if self.splices.contains_key(&desc) {
            return OutcomeStatus::Pending;
        }
        OutcomeStatus::Unknown
    }

    /// Source closed mid-splice = EOF: clamp the target to what was
    /// actually pulled and let in-flight writes drain before completing.
    pub(crate) fn finish_splice_now(&mut self, desc: u64) {
        let Some(d) = self.splices.get_mut(&desc) else {
            return;
        };
        if let ReadPlan::Stream { .. } = d.plan {
            d.total = d.total.min(d.stream_taken);
        }
        if self.kstat.spans[desc].pending_writes.count() == 0 && d.bytes_done >= d.total {
            self.complete_splice(desc);
        }
        // Otherwise the last splice_block_completed sees bytes_done reach
        // the clamped total and completes the splice.
    }

    /// Finalisation, one tail for every entry path: latch the outcome,
    /// tear down device streams and the socket index, then hand the
    /// descriptor to [`Kernel::ring_deliver`], which queues the CQE /
    /// posts `SIGIO` / wakes reapers per the entry's [`RingRoute`].
    fn complete_splice(&mut self, desc: u64) {
        let now = self.q.now();
        let Some(d) = self.splices.get_mut(&desc) else {
            return;
        };
        if d.done {
            return;
        }
        d.done = true;
        let dst = d.dst;
        let src = d.src;
        let outcome = SpliceOutcome {
            bytes_moved: d.bytes_done,
            error: d.error,
        };
        self.splice_outcomes.insert(desc, outcome);
        // An in-kernel serve delivers to a connection socket: land the
        // moved bytes (and any failure) on the open request record.
        if let DstEndpoint::Sock { sock } = dst {
            self.kstat.requests.transfer(
                sock.0,
                outcome.bytes_moved,
                outcome.error.map(errno_name),
            );
        }
        if let DstEndpoint::Dev { cdev } = dst {
            if let CharDev::Audio(a) = &mut self.cdevs[cdev].dev {
                a.end_stream(now);
            }
        }
        if let SrcEndpoint::Sock { sock } = src {
            self.rings.unbind_sock(sock);
        }
        if outcome.error.is_none() {
            self.ctr.splice.completed += 1;
        }
        self.kstat.spans.retire(desc, now, outcome.bytes_moved);
        self.trace.emit(now, || TraceEvent::SpliceComplete { desc });
        self.splices.remove(&desc);
        self.ring_deliver(desc, outcome);
    }
}

/// Canonical errno spelling for trace records and reports.
pub(crate) fn errno_name(e: Errno) -> &'static str {
    match e {
        Errno::Enoent => "ENOENT",
        Errno::Eexist => "EEXIST",
        Errno::Ebadf => "EBADF",
        Errno::Einval => "EINVAL",
        Errno::Enospc => "ENOSPC",
        Errno::Eisdir => "EISDIR",
        Errno::Enotdir => "ENOTDIR",
        Errno::Enotempty => "ENOTEMPTY",
        Errno::Eio => "EIO",
        Errno::Enotsup => "ENOTSUP",
        Errno::Efbig => "EFBIG",
        Errno::Eintr => "EINTR",
        Errno::Eaddrinuse => "EADDRINUSE",
        Errno::Enotconn => "ENOTCONN",
        Errno::Emsgsize => "EMSGSIZE",
        Errno::Eagain => "EAGAIN",
    }
}

fn plan_first_boff(plan: &ReadPlan) -> usize {
    match plan {
        ReadPlan::Mapped { first_boff, .. } => *first_boff,
        ReadPlan::Stream { .. } => 0,
    }
}

pub(crate) fn fs_errno(e: kfs::FsError) -> Errno {
    match e {
        kfs::FsError::NotFound => Errno::Enoent,
        kfs::FsError::Exists => Errno::Eexist,
        kfs::FsError::NotDir => Errno::Enotdir,
        kfs::FsError::IsDir => Errno::Eisdir,
        kfs::FsError::NoSpace => Errno::Enospc,
        kfs::FsError::FileTooBig => Errno::Efbig,
        kfs::FsError::BadName => Errno::Einval,
        kfs::FsError::NotEmpty => Errno::Enotempty,
    }
}
