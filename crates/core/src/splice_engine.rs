//! The splice engine (§5 of the paper).
//!
//! A `splice(src_fd, dst_fd, size)` resolves both descriptors into
//! [endpoints](crate::endpoint) and builds a **splice descriptor**: a
//! self-contained record of everything the transfer needs — the source
//! read plan (a §5.2 physical block table for files, a pull-chunk size
//! for streams), destination block tables obtained with the allocating
//! `bmap` (§5.2), watermark counters (§5.2.3), and completion routing
//! (`Route`: `FASYNC`/`SIGIO` or a sleeping synchronous caller).
//! "Placing all necessary information in this descriptor allows I/O to
//! proceed without requiring the calling process context to be
//! available."
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
//! lifecycle, occupancy gauges, and latency digests describe every
//! splice, including the stream-sourced ones that historically bypassed
//! them.
//!
//! **One record per in-flight block.** A block's stage instants, its held
//! source buffer and its device-error attempts live in one
//! `BlockRecord` on the descriptor, from its first read issue until it
//! completes or is abandoned. Its phase changes are the engine methods
//! below (read issue, arrival, write begin/issue/finish/abandon, read
//! drop); the endpoint backends call them and never touch the record.

use kbuf::BufId;
use khw::CopyKind;
use kproc::{Chan, ChanSpace, Errno, Pid, SpliceLen, SyscallRet, WorkClass};
use ksim::{Bytes, Dur, IdMap, SimTime, TraceEvent};

use crate::endpoint::{Block, DstEndpoint, ReadPlan, SrcEndpoint};
use crate::event::KWork;
use crate::kernel::{IoCtx, Kernel};
use crate::metrics::SpliceTotals;
use crate::objects::{CharDev, FileId};
use crate::syscalls::{Cont, SyscallOutcome};

/// Pull granularity for stream sources (one datagram or framebuffer
/// chunk per pending-read slot).
pub(crate) const STREAM_CHUNK: usize = 8192;

/// Default per-block retry budget for transient device errors. The
/// first retry waits one tick; each further attempt doubles the backoff
/// (1, 2, 4, 8, 16 ticks). A block that still fails after this many
/// attempts aborts the whole splice with `EIO`. A request can override
/// the budget ([`kproc::SpliceReq::retries`]).
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
    /// The splice finished, but before the last [`ksim::RECENT_SPANS`]
    /// completions: its outcome is no longer kept. Its bytes still count
    /// in the retired-span tally (`kstat.spans.tally()`).
    Retired,
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
/// whose time integrals the Little's-law audit checks; the per-block
/// records are the audit's other recorder, and neither is derived from
/// the other.
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
    /// Every in-flight block, by logical block.
    blocks: IdMap<u64, BlockRecord>,
    /// Append cursor for a byte-stream file sink.
    pub dst_off: u64,
    /// Per-request retry budget (see [`MAX_SPLICE_RETRIES`]).
    pub retry_limit: u32,
    /// Set when the splice is aborting: no new work is issued and
    /// in-flight blocks drain without counting.
    pub error: Option<Errno>,
    pub done: bool,
    /// Where the outcome goes at completion.
    route: Route,
}

/// Where a splice's outcome goes when it completes (§3): to the caller
/// blocked in `splice(2)`, or by `SIGIO` when either descriptor is
/// `FASYNC`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Route {
    /// The caller sleeps on `Chan(Splice, desc)` until the outcome is
    /// latched in [`Kernel::sync_outcomes`](crate::kernel::Kernel).
    Wait,
    /// Completion posts `SIGIO` to this process, and nothing else.
    Sigio(Pid),
}

/// One in-flight block of a splice, from its first read issue until it
/// completes or is abandoned. A read that fails keeps its record (and
/// attempt count) across the backoff to its retry.
#[derive(Default)]
pub(crate) struct BlockRecord {
    /// When the current read attempt was issued (the end-to-end start).
    issued: Option<SimTime>,
    /// When the read side finished, until the first write issue.
    read_done: Option<SimTime>,
    /// When the write was last handed to the sink backend.
    write_issued: Option<SimTime>,
    /// The held source buffer (block sources): this record is its only
    /// owner until it is released.
    held: Option<BufId>,
    /// Device-error attempts, read and write side together.
    attempts: u32,
}

impl SpliceDesc {
    /// Bytes of block `lblk` belonging to a mapped transfer.
    pub(crate) fn mapped_len(&self, lblk: u64) -> usize {
        match &self.plan {
            ReadPlan::Mapped { src_lens, .. } => src_lens[lblk as usize],
            ReadPlan::Stream { .. } => panic!("mapped_len on a stream splice"),
        }
    }
}

impl Kernel {
    // ----- the splice(2) entry point -------------------------------------------

    /// `splice(2)`: builds and launches a splice descriptor. Without
    /// `FASYNC` the caller blocks on the descriptor's channel until the
    /// transfer completes; with `FASYNC` on either descriptor the call
    /// returns at once and completion is announced with `SIGIO` (the
    /// outcome is kept among the recent ones [`Kernel::splice_outcome`]
    /// reports). Every refusal passes through [`Kernel::splice_reject`].
    pub(crate) fn sys_splice(
        &mut self,
        pid: Pid,
        sfid: FileId,
        dfid: FileId,
        len: SpliceLen,
        retry_limit: u32,
    ) -> SyscallOutcome {
        let m = self.cfg.machine.clone();
        let sof = self.files.get(sfid).expect("resolved fid");
        let dof = self.files.get(dfid).expect("resolved fid");
        let (sobj, dobj) = (sof.obj, dof.obj);
        let route = if sof.fasync || dof.fasync {
            Route::Sigio(pid)
        } else {
            Route::Wait
        };
        let empty = SyscallOutcome::Done {
            cpu: m.syscall,
            ret: SyscallRet::Val(0),
        };

        // An object participates only through a descriptor opened for
        // that direction: read on the source, write on the sink.
        if !sof.readable || !dof.writable {
            return self.splice_reject(Errno::Ebadf);
        }
        let src = match self.resolve_src(sobj) {
            Ok(s) => s,
            Err(e) => return self.splice_reject(e),
        };
        let dst = match self.resolve_dst(dobj) {
            Ok(d) => d,
            Err(e) => return self.splice_reject(e),
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
                    return empty;
                }
                let plan = match self.prepare_file_source(disk, ino, offset, total) {
                    Ok(p) => p,
                    Err(e) => return self.splice_reject(e),
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
                    if plan.first_boff() != 0 || !dst_off.is_multiple_of(bs) {
                        return self.splice_reject(Errno::Einval);
                    }
                    dst_map = match self.prepare_file_sink(ddisk, dino, dst_off, nblocks, total) {
                        Ok(map) => map,
                        Err(e) => return self.splice_reject(e),
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
                    return self.splice_reject(Errno::Einval);
                };
                if total == 0 {
                    return empty;
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
            blocks: IdMap::default(),
            dst_off,
            retry_limit,
            error: None,
            done: false,
            route,
        };
        self.splices.insert(id, desc);
        if let SrcEndpoint::Sock { sock } = src {
            self.sock_splices.insert(sock, id);
        }
        self.ctr.splice.started += 1;
        let now = self.q.now();
        self.kstat.spans.start(id, now);
        self.trace.emit(now, || TraceEvent::SpliceStart {
            desc: id,
            bytes: total,
        });

        // Initial reads/pulls are issued in the caller's context.
        cpu += m.syscall + self.splice_issue_reads(id, IoCtx::Process);
        match route {
            Route::Sigio(_) => SyscallOutcome::Done {
                cpu,
                ret: SyscallRet::Val(0),
            },
            Route::Wait => SyscallOutcome::Block {
                cpu,
                chan: Chan::new(ChanSpace::Splice, id),
                cont: Cont::SpliceSync { desc: id },
            },
        }
    }

    /// Counts and traces a splice rejection — the single funnel every
    /// refused request passes through — and returns the errno charged
    /// at one crossing.
    pub(crate) fn splice_reject(&mut self, e: Errno) -> SyscallOutcome {
        self.ctr.splice.rejected += 1;
        let now = self.q.now();
        self.trace.emit(now, || TraceEvent::SpliceReject {
            errno: errno_name(e),
        });
        SyscallOutcome::Done {
            cpu: self.cfg.machine.syscall,
            ret: SyscallRet::Err(e),
        }
    }

    /// A synchronous splice caller woke up: its transfer finished, so
    /// deliver the byte count. An aborted splice reports its typed errno
    /// — never a success value — and leaves the exact partial byte count
    /// in [`Kernel::splice_outcome`].
    pub(crate) fn resume_splice_sync(&mut self, desc: u64) -> SyscallOutcome {
        // Only `complete_splice` wakes `Chan(Splice, desc)`, after it
        // latches the outcome.
        let o = self
            .sync_outcomes
            .remove(&desc)
            .expect("a woken splice(2) caller finds its outcome latched");
        let ret = match o.error {
            Some(e) => SyscallRet::Err(e),
            None => SyscallRet::Val(o.bytes_moved as i64),
        };
        SyscallOutcome::Done {
            cpu: self.cfg.machine.buf_op,
            ret,
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
                    let d = self.splices.get_mut(&id).unwrap();
                    let lblk = d.next_read as u64;
                    d.next_read += 1;
                    self.splice_read_issue(id, lblk);
                    self.ctr.splice.reads_issued += 1;
                    let now = self.q.now();
                    self.trace
                        .emit(now, || TraceEvent::SpliceReadIssue { desc: id, lblk });
                    self.kstat.spans.live_mut(id).note_read_issued(now);
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
            KWork::SpliceReadDone { desc, lblk, buf } => self.splice_read_done(desc, lblk, buf),
            KWork::SpliceStreamPull { desc, lblk } => self.splice_stream_pull(desc, lblk),
            KWork::SpliceWrite { desc, lblk } => self.splice_write(desc, lblk),
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
            self.splice_drop_read(desc, lblk);
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
            self.splice_drop_read(desc, lblk);
            self.maybe_finish_abort(desc);
            return;
        };
        let d = self.splices.get_mut(&desc).expect("live splice");
        d.stream_taken += payload.len() as u64;
        self.splice_block_arrived(desc, lblk, Block::Bytes(payload));
    }

    /// §5.2.1's read handler: a mapped-source block read completed into
    /// `buf`. A read that completed with `B_ERROR` never joins the write
    /// column: the buffer goes back (brelse discards errored buffers, so
    /// a retry re-misses and re-reads the device) and the retry/abort
    /// policy runs. Otherwise the block's record takes the held buffer.
    fn splice_read_done(&mut self, desc: u64, lblk: u64, buf: BufId) {
        if self.cache.flags(buf).contains(kbuf::BufFlags::ERROR) {
            self.release_buf(buf);
            if self.splices.contains_key(&desc) {
                self.splice_read_failed(desc, lblk);
            }
            return;
        }
        let Some(d) = self.splices.get_mut(&desc) else {
            self.release_buf(buf);
            return;
        };
        d.blocks.get_mut(&lblk).expect("issued block").held = Some(buf);
        self.splice_block_arrived(desc, lblk, Block::Held);
    }

    /// Arrival: source block `lblk` is here (a held buffer or a pulled
    /// chunk). Move it from the pending-read to the pending-write column
    /// and dispatch it to the sink backend — aligned file sinks at the
    /// head of the callout list, everything else as kernel soft work.
    fn splice_block_arrived(&mut self, desc: u64, lblk: u64, block: Block) {
        let m = self.cfg.machine.clone();
        let now = self.q.now();
        let d = self.splices.get_mut(&desc).expect("live splice");
        // Abort drain: the slot is dropped and the block discarded
        // without dispatching its write.
        if d.error.is_some() {
            self.splice_drop_read(desc, lblk);
            self.maybe_finish_abort(desc);
            return;
        }
        let span = self.kstat.spans.live_mut(desc);
        span.pending_reads.leave(now);
        span.pending_writes.enter(now);
        // Stage accounting: the read side of this block is done. The
        // issue instant stays on the record for the end-to-end digest.
        let rec = d.blocks.get_mut(&lblk).expect("issued block");
        rec.read_done = Some(now);
        if let Some(at) = rec.issued {
            self.kstat.stages.read_service.record(now.since(at).as_ns());
        }
        self.trace
            .emit(now, || TraceEvent::SpliceReadDone { desc, lblk });
        let len = match &block {
            Block::Bytes(b) => b.len(),
            Block::Held => d.mapped_len(lblk),
        };
        match (d.dst, block) {
            (DstEndpoint::File { .. }, Block::Held) => {
                // §5.2.1: "schedules a write by placing a reference to
                // the write handler at the head of the system callout
                // list."
                self.callout
                    .schedule_head(self.tick, KWork::SpliceWrite { desc, lblk });
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

    // ----- the block record: one method per phase change -----------------------

    /// Read issue: block `lblk`'s read (or pull) takes a pending-read
    /// slot now. A retried read keeps its record and attempt count.
    pub(crate) fn splice_read_issue(&mut self, desc: u64, lblk: u64) {
        let now = self.q.now();
        let d = self.splices.get_mut(&desc).expect("live splice");
        d.blocks.entry(lblk).or_default().issued = Some(now);
        self.kstat.spans.live_mut(desc).pending_reads.enter(now);
    }

    /// Read drop: block `lblk` gives up its pending-read slot without a
    /// `read_service` sample — a failed or backed-off attempt, an empty
    /// pull, or a block an aborting splice discards — tallying its time
    /// since issue as the span's `read_lost`, so the gauge's area stays
    /// accounted for. A held buffer goes back to the cache; the record
    /// survives only if it counts failed attempts, for a retry to
    /// continue from.
    pub(crate) fn splice_drop_read(&mut self, desc: u64, lblk: u64) {
        let now = self.q.now();
        let d = self.splices.get_mut(&desc).expect("live splice");
        let rec = d.blocks.get_mut(&lblk).expect("issued block");
        let issued = rec.issued.take();
        let held = rec.held.take();
        if rec.attempts == 0 {
            d.blocks.remove(&lblk);
        }
        let span = self.kstat.spans.live_mut(desc);
        span.pending_reads.leave(now);
        if let Some(at) = issued {
            span.read_lost += now.since(at).as_ns();
        }
        if let Some(buf) = held {
            self.release_buf(buf);
        }
    }

    /// Write begin: the entry check of every write-side handler. While
    /// the splice is aborting, the block is abandoned instead of written
    /// and `false` returned: the handler must stop. A pending write keeps
    /// its splice live (no completion path runs while one is held).
    pub(crate) fn splice_write_begin(&mut self, desc: u64, lblk: u64) -> bool {
        debug_assert!(self.splices.contains_key(&desc), "splice {desc} gone");
        let Some(d) = self.splices.get(&desc) else {
            return false;
        };
        if d.error.is_none() {
            return true;
        }
        self.splice_write_abandon(desc, lblk);
        self.maybe_finish_abort(desc);
        false
    }

    /// Write issue: block `lblk`'s write is handed to its sink backend
    /// now. Traces the issue, closes the read-done → write-issue gap
    /// (first issue only) and stamps the write-service start. Every sink
    /// calls this right before issuing, so a re-issue re-stamps and the
    /// service digest measures the attempt that completed; the time the
    /// earlier attempts took is tallied as the span's `write_lost`.
    pub(crate) fn splice_write_issue(&mut self, desc: u64, lblk: u64) {
        let now = self.q.now();
        self.trace
            .emit(now, || TraceEvent::SpliceWriteIssue { desc, lblk });
        let rec = self.block_mut(desc, lblk);
        let done = rec.read_done.take();
        let prev = rec.write_issued.replace(now);
        if let Some(at) = done {
            self.kstat
                .stages
                .read_to_write
                .record(now.since(at).as_ns());
        }
        if let Some(at) = prev {
            self.kstat.spans.live_mut(desc).write_lost += now.since(at).as_ns();
        }
    }

    /// Gives block `lblk`'s held source buffer back to the cache, if it
    /// still has one. The record is the buffer's only owner, so this is
    /// the one place a held buffer is released.
    pub(crate) fn splice_release_held(&mut self, desc: u64, lblk: u64) {
        if let Some(buf) = self.block_mut(desc, lblk).held.take() {
            self.release_buf(buf);
        }
    }

    /// Block `lblk`'s held source buffer.
    pub(crate) fn splice_held_buf(&self, desc: u64, lblk: u64) -> BufId {
        self.splices[&desc].blocks[&lblk]
            .held
            .expect("a block-source block holds its buffer until written")
    }

    /// A view of the transfer's bytes of block `lblk` in its held buffer.
    pub(crate) fn splice_held_view(&self, desc: u64, lblk: u64) -> Bytes {
        let d = &self.splices[&desc];
        let boff = if lblk == 0 { d.plan.first_boff() } else { 0 };
        let buf = self.splice_held_buf(desc, lblk);
        self.cache.data(buf).view(boff, d.mapped_len(lblk))
    }

    /// Write abandon: block `lblk` will never complete — its splice is
    /// aborting, or its write failed for good. Its pending-write slot
    /// goes without a `write_service` sample, tallying its time since
    /// the last write issue (or since it arrived, if never issued) as the
    /// span's `write_lost`, and its record goes with its held buffer.
    pub(crate) fn splice_write_abandon(&mut self, desc: u64, lblk: u64) {
        let now = self.q.now();
        let d = self.splices.get_mut(&desc).expect("live splice");
        let rec = d.blocks.remove(&lblk).expect("in-flight block");
        let span = self.kstat.spans.live_mut(desc);
        span.pending_writes.leave(now);
        if let Some(at) = rec.write_issued.or(rec.read_done) {
            span.write_lost += now.since(at).as_ns();
        }
        if let Some(buf) = rec.held {
            self.release_buf(buf);
        }
    }

    /// Write finish: block `lblk`'s `bytes` reached the sink. Releases
    /// its held buffer, closes its record into the stage digests, and
    /// runs the common completion/flow-control tail of the write side,
    /// for every sink (§5.2.2–§5.2.3).
    pub(crate) fn splice_write_finish(&mut self, desc: u64, lblk: u64, bytes: u64) {
        self.splice_release_held(desc, lblk);
        let flow = self.cfg.flow;
        let now = self.q.now();
        let d = self.splices.get_mut(&desc).expect("live splice");
        let rec = d.blocks.remove(&lblk).expect("in-flight block");
        let span = self.kstat.spans.live_mut(desc);
        span.pending_writes.leave(now);
        d.blocks_done += 1;
        d.bytes_done += bytes;
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
        if let Some(at) = rec.write_issued {
            self.kstat
                .stages
                .write_service
                .record(now.since(at).as_ns());
        }
        if let Some(at) = rec.issued {
            self.kstat.stages.end_to_end.record(now.since(at).as_ns());
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

    fn block_mut(&mut self, desc: u64, lblk: u64) -> &mut BlockRecord {
        let d = self.splices.get_mut(&desc).expect("live splice");
        d.blocks.get_mut(&lblk).expect("in-flight block")
    }

    // ----- failure handling: backoff, retry, abort ------------------------------

    /// Transient-shortage backoff of block `lblk` — a busy buffer, cache
    /// exhaustion, device pacing: counts it in `counter`, traces it,
    /// notes it on the span, and re-arms `work` `ticks` from now.
    pub(crate) fn splice_backoff(
        &mut self,
        desc: u64,
        lblk: u64,
        counter: fn(&mut SpliceTotals) -> &mut u64,
        ticks: u64,
        work: KWork,
    ) {
        *counter(&mut self.ctr.splice) += 1;
        let now = self.q.now();
        self.trace
            .emit(now, || TraceEvent::SpliceBackoff { desc, lblk });
        self.span_note(desc, |s, _| s.note_backoff());
        self.callout.schedule(self.tick, ticks, work);
    }

    /// The device-error policy, shared by failed reads and writes: count
    /// block `lblk`'s attempt against the splice's retry budget and arm
    /// `retry` after an exponential backoff of 1, 2, 4, 8, 16 ticks.
    /// Returns `false`, arming nothing, when the splice is already
    /// aborting or the budget is spent: the caller gives the block up and
    /// aborts.
    fn splice_retry(&mut self, desc: u64, lblk: u64, retry: KWork) -> bool {
        let now = self.q.now();
        let d = self.splices.get_mut(&desc).expect("live splice");
        if d.error.is_some() {
            return false;
        }
        let limit = d.retry_limit;
        let rec = d.blocks.get_mut(&lblk).expect("in-flight block");
        rec.attempts += 1;
        let attempt = rec.attempts;
        if attempt > limit {
            return false;
        }
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
        self.callout.schedule(self.tick, delay, retry);
        self.trace
            .emit(now, || TraceEvent::CalloutArm { delay_ticks: delay });
        true
    }

    /// A mapped-source block read completed with `B_ERROR` (its buffer
    /// already released): the block gives up its pending-read slot and
    /// is re-read after the backoff, or the splice aborts with `EIO`.
    fn splice_read_failed(&mut self, desc: u64, lblk: u64) {
        let retrying = self.splice_retry(desc, lblk, KWork::SpliceRetryRead { desc, lblk });
        self.splice_drop_read(desc, lblk);
        if !retrying {
            self.splice_abort(desc, Errno::Eio);
        }
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
    /// record still holds the source buffer and block rewrites are
    /// idempotent (a torn write is overwritten wholesale on the next
    /// attempt), so a retry re-runs just the write side of this block.
    /// Past the budget the block's write has terminally failed: nothing
    /// further will arrive for it, so it is abandoned before the abort
    /// (which completes once the *other* in-flight blocks drain).
    pub(crate) fn splice_write_failed(&mut self, desc: u64, lblk: u64) {
        if !self.splice_retry(desc, lblk, KWork::SpliceWrite { desc, lblk }) {
            self.splice_write_abandon(desc, lblk);
            self.splice_abort(desc, Errno::Eio);
        }
    }

    /// Transitions a splice into the aborting state: the typed errno is
    /// recorded, no further reads are issued, and in-flight work drains
    /// without refilling. Completion (wakeup/`SIGIO`) is deferred until
    /// the last in-flight block lands; an already-aborting splice just
    /// checks for that.
    pub(crate) fn splice_abort(&mut self, desc: u64, e: Errno) {
        let Some(d) = self.splices.get_mut(&desc) else {
            return;
        };
        if !d.done && d.error.is_none() {
            d.error = Some(e);
            self.ctr.splice.aborted += 1;
            let now = self.q.now();
            self.trace.emit(now, || TraceEvent::SpliceAbort {
                desc,
                errno: errno_name(e),
            });
        }
        self.maybe_finish_abort(desc);
    }

    /// Completes an aborting splice once nothing is in flight. Every held
    /// buffer goes with its block's pending-write slot, so none is left
    /// by then; any that were would go back in block order.
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
        let mut held: Vec<(u64, BufId)> = d
            .blocks
            .iter_mut()
            .filter_map(|(&lblk, r)| Some((lblk, r.held.take()?)))
            .collect();
        debug_assert!(held.is_empty(), "splice {desc} drained holding {held:?}");
        held.sort_unstable_by_key(|&(lblk, _)| lblk);
        for (_, buf) in held {
            self.release_buf(buf);
        }
        self.complete_splice(desc);
    }

    /// The typed completion status of splice `desc`:
    /// [`OutcomeStatus::Done`] once it finished (successfully or by
    /// abort) among the last [`ksim::RECENT_SPANS`] completions,
    /// [`OutcomeStatus::Retired`] if it finished before them,
    /// [`OutcomeStatus::Pending`] while still in flight,
    /// [`OutcomeStatus::Unknown`] for descriptor ids the kernel never
    /// issued.
    pub fn splice_outcome(&self, desc: u64) -> OutcomeStatus {
        if let Some((_, o)) = self.splice_outcomes.iter().find(|(d, _)| *d == desc) {
            return OutcomeStatus::Done(*o);
        }
        if self.splices.contains_key(&desc) {
            return OutcomeStatus::Pending;
        }
        if (1..self.next_splice).contains(&desc) {
            return OutcomeStatus::Retired;
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

    /// Finalisation, one tail for every splice: latch the outcome, tear
    /// down device streams and the socket index, then follow the
    /// descriptor's [`Route`]: hand the outcome to the waiting caller
    /// and wake it, or post `SIGIO`.
    fn complete_splice(&mut self, desc: u64) {
        let now = self.q.now();
        let Some(d) = self.splices.get_mut(&desc) else {
            return;
        };
        if d.done {
            return;
        }
        d.done = true;
        let (dst, src, route) = (d.dst, d.src, d.route);
        let outcome = SpliceOutcome {
            bytes_moved: d.bytes_done,
            error: d.error,
        };
        if self.splice_outcomes.len() == ksim::RECENT_SPANS {
            self.splice_outcomes.pop_front();
        }
        self.splice_outcomes.push_back((desc, outcome));
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
            self.sock_splices.remove(&sock);
        }
        if outcome.error.is_none() {
            self.ctr.splice.completed += 1;
        }
        self.kstat.spans.retire(desc, now, outcome.bytes_moved);
        self.trace.emit(now, || TraceEvent::SpliceComplete { desc });
        self.splices.remove(&desc);
        match route {
            Route::Wait => {
                self.sync_outcomes.insert(desc, outcome);
                self.wakeup(Chan::new(ChanSpace::Splice, desc));
            }
            Route::Sigio(pid) => self.post_sigio(pid),
        }
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
