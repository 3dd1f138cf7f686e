//! File endpoint backend: the `kfs`/`kbuf` glue.
//!
//! Block **source**: the §5.2 `bmap` walk builds the physical block
//! table at descriptor-build time, and reads are issued with
//! `bread_call` (§5.2.1) so the completion interrupt drives the engine.
//!
//! Block **sink**: the allocating `bmap` maps destination blocks up
//! front, and the write side allocates a buffer *header* whose data
//! pointer aliases the read buffer's data area — `bawrite` with no
//! cache-to-cache copy (§5.2.2).
//!
//! Stream **sink**: byte chunks append through `getblk`, zero-filling
//! fresh partial blocks, with `bawrite` for full blocks and delayed
//! writes for partial ones.

use kbuf::{BreadOutcome, SpliceRef};
use kfs::Ino;
use kproc::{Errno, WorkClass};
use ksim::{Dur, TraceEvent};

use crate::endpoint::ReadPlan;
use crate::event::KWork;
use crate::kernel::{IoCtx, Kernel};
use crate::splice_engine::fs_errno;

impl Kernel {
    /// §5.2: "The entire list of all physical block numbers comprising
    /// the source file is determined by successive calls to bmap()."
    /// Holes are not spliceable — there is no source block to read and
    /// share — so they reject with `EINVAL`.
    pub(crate) fn prepare_file_source(
        &mut self,
        disk: usize,
        ino: Ino,
        offset: u64,
        total: u64,
    ) -> Result<ReadPlan, Errno> {
        let bs = self.cfg.block_size as u64;
        let first_boff = (offset % bs) as usize;
        let first_lblk = offset / bs;
        let nblocks = ((first_boff as u64 + total).div_ceil(bs)) as usize;
        let mut src_map = Vec::with_capacity(nblocks);
        let mut src_lens = Vec::with_capacity(nblocks);
        let mut remaining = total;
        for i in 0..nblocks {
            let Some(pblk) = self.disks[disk].fs.bmap(ino, first_lblk + i as u64) else {
                return Err(Errno::Einval);
            };
            src_map.push(pblk);
            let boff = if i == 0 { first_boff } else { 0 };
            let take = ((bs as usize) - boff).min(remaining as usize);
            src_lens.push(take);
            remaining -= take as u64;
        }
        debug_assert_eq!(remaining, 0);
        Ok(ReadPlan::Mapped {
            src_map,
            src_lens,
            first_boff,
        })
    }

    /// Destination mapping via the allocating bmap (§5.2: "a special
    /// version of bmap() is used … which avoids delayed-writes of
    /// freshly allocated, zero-filled blocks").
    pub(crate) fn prepare_file_sink(
        &mut self,
        disk: usize,
        ino: Ino,
        dst_off: u64,
        nblocks: usize,
        total: u64,
    ) -> Result<Vec<u64>, Errno> {
        let bs = self.cfg.block_size as u64;
        let first = dst_off / bs;
        let mut dst_map = Vec::with_capacity(nblocks);
        for i in 0..nblocks {
            match self.disks[disk].fs.bmap_alloc(ino, first + i as u64) {
                Ok(p) => dst_map.push(p),
                Err(e) => return Err(fs_errno(e)),
            }
        }
        let fs = &mut self.disks[disk].fs;
        let new_size = dst_off + total;
        if new_size > fs.size(ino) {
            fs.set_size(ino, new_size);
        }
        Ok(dst_map)
    }

    /// Issues one block read with `bread_call` (§5.2.1). Returns the CPU
    /// cost incurred in the caller's context and whether the engine
    /// should keep issuing (false = back-off retry scheduled).
    ///
    /// With `retry = true` the read re-issues a block whose previous
    /// attempt failed with a device error: the read cursor already moved
    /// past it, so only the pending-read slot is (re)claimed, and a
    /// transient buffer shortage re-arms the retry callout for this
    /// specific block instead of the general issue loop.
    pub(crate) fn file_issue_read(
        &mut self,
        id: u64,
        lblk: u64,
        pblk: u64,
        disk: usize,
        ctx: IoCtx,
        retry: bool,
    ) -> (Dur, bool) {
        let m = self.cfg.machine.clone();
        let bs = self.cfg.block_size as usize;
        let dev = self.disks[disk].dev;
        {
            let now = self.q.now();
            let d = self.splices.get_mut(&id).unwrap();
            if !retry {
                d.next_read += 1;
            }
            d.issued_at.insert(lblk, now);
            self.kstat.spans.live_mut(id).pending_reads.enter(now);
        }

        let work = KWork::SpliceReadDone {
            desc: id,
            lblk,
            buf: kbuf::BufId(u32::MAX), // patched below on miss
        };
        let sref = SpliceRef { desc: id, lblk };
        let tag = self.new_iodone(work);
        let mut fx = Vec::new();
        let out = self.cache.bread_call(dev, pblk, bs, tag, sref, &mut fx);
        // Patch the handler with the buffer identity *before* applying
        // effects: a synchronous (RAM-disk) completion dispatches the
        // handler during effect application.
        if let BreadOutcome::Miss(buf) = out {
            if let Some(KWork::SpliceReadDone { buf: b, .. }) = self.iodone_map.get_mut(&tag) {
                *b = buf;
            }
        }
        let cpu = self.apply_cache_effects(fx, ctx) + m.buf_op;
        let now = self.q.now();
        match out {
            BreadOutcome::Miss(_) => {
                self.ctr.splice.reads_issued += 1;
                self.trace
                    .emit(now, || TraceEvent::SpliceReadIssue { desc: id, lblk });
                self.span_note(id, |s, now| s.note_read_issued(now));
                (cpu, true)
            }
            BreadOutcome::Hit(buf) => {
                // Already cached: the handler runs straight away.
                self.iodone_map.remove(&tag);
                self.ctr.splice.read_hits += 1;
                self.trace
                    .emit(now, || TraceEvent::SpliceReadIssue { desc: id, lblk });
                self.span_note(id, |s, now| s.note_read_hit(now));
                self.enqueue_kwork(
                    WorkClass::Soft,
                    m.splice_handler,
                    KWork::SpliceReadDone {
                        desc: id,
                        lblk,
                        buf,
                    },
                );
                (cpu, true)
            }
            BreadOutcome::Busy(_) | BreadOutcome::NoBuffers => {
                // Back off a tick and retry.
                self.iodone_map.remove(&tag);
                let d = self.splices.get_mut(&id).unwrap();
                if !retry {
                    d.next_read -= 1;
                }
                d.issued_at.remove(&lblk);
                self.kstat.spans.live_mut(id).pending_reads.leave(now);
                self.ctr.splice.read_backoffs += 1;
                self.trace
                    .emit(now, || TraceEvent::SpliceBackoff { desc: id, lblk });
                self.span_note(id, |s, _| s.note_backoff());
                let work = if retry {
                    KWork::SpliceRetryRead { desc: id, lblk }
                } else {
                    KWork::SpliceIssueReads { desc: id }
                };
                self.callout.schedule(self.tick, 1, work);
                (cpu, false)
            }
        }
    }

    /// §5.2.2: the block-sink write side — allocate a header sharing the
    /// read buffer's data area and start the asynchronous write.
    pub(crate) fn splice_write(&mut self, desc: u64, lblk: u64, src_buf: kbuf::BufId) {
        if self.splice_drain_write(desc, lblk, Some(crate::endpoint::Block::Buf(src_buf))) {
            return;
        }
        let Some(d) = self.splices.get(&desc) else {
            self.release_buf(src_buf);
            return;
        };
        let crate::endpoint::DstEndpoint::File { disk, .. } = d.dst else {
            panic!("splice_write with non-file sink")
        };
        let dst_pblk = d.dst_map[lblk as usize];
        let dev = self.disks[disk].dev;
        let bs = self.cfg.block_size as usize;
        let data = self.cache.data(src_buf);
        let sref = SpliceRef { desc, lblk };
        match self
            .cache
            .alloc_shared_header(dev, dst_pblk, data, bs, sref)
        {
            Some(hdr) => {
                self.ctr.splice.shared_writes += 1;
                let now = self.q.now();
                self.trace
                    .emit(now, || TraceEvent::SpliceWriteIssue { desc, lblk });
                self.note_write_issue_stage(desc, lblk);
                let tag = self.new_iodone(KWork::SpliceWriteDone { desc, lblk, hdr });
                let mut fx = Vec::new();
                self.cache.bawrite_call(hdr, tag, &mut fx);
                let sync = self.apply_cache_effects(fx, IoCtx::Kernel);
                debug_assert!(sync.is_zero());
            }
            None => {
                // Destination block busy: retry next tick.
                self.ctr.splice.write_backoffs += 1;
                let now = self.q.now();
                self.trace
                    .emit(now, || TraceEvent::SpliceBackoff { desc, lblk });
                self.span_note(desc, |s, _| s.note_backoff());
                self.callout.schedule(
                    self.tick,
                    1,
                    KWork::SpliceWrite {
                        desc,
                        lblk,
                        src_buf,
                    },
                );
            }
        }
    }

    /// §5.2.2–§5.2.3: the block-sink write-completion handler frees both
    /// buffers and hands the block to the common flow-control tail. A
    /// write that completed with `B_ERROR` keeps the source buffer and
    /// routes into the retry/abort policy instead.
    pub(crate) fn splice_write_done(&mut self, desc: u64, lblk: u64, hdr: kbuf::BufId) {
        let failed = self.cache.flags(hdr).contains(kbuf::BufFlags::ERROR);
        self.release_buf(hdr);
        if failed {
            self.splice_write_failed(desc, lblk);
            return;
        }
        let src_buf = self
            .splices
            .get_mut(&desc)
            .and_then(|d| d.src_bufs.remove(&lblk));
        if let Some(buf) = src_buf {
            // "It retrieves a pointer to the source-side buffer … and
            // frees it by calling brelse()." The source block stays
            // cached.
            self.release_buf(buf);
        }
        let bytes = self
            .splices
            .get(&desc)
            .map(|d| d.mapped_len(lblk) as u64)
            .unwrap_or(0);
        self.splice_block_completed(desc, lblk, bytes);
    }

    /// Stream-sink write side: append one arrived chunk at its
    /// preassigned offset, in kernel context.
    pub(crate) fn splice_append(&mut self, desc: u64, lblk: u64, off: u64, data: Vec<u8>) {
        if self.splice_drain_write(desc, lblk, None) {
            return;
        }
        let Some(d) = self.splices.get(&desc) else {
            return;
        };
        let crate::endpoint::DstEndpoint::File { disk, ino } = d.dst else {
            panic!("splice_append with non-file sink")
        };
        let now = self.q.now();
        self.trace
            .emit(now, || TraceEvent::SpliceWriteIssue { desc, lblk });
        self.note_write_issue_stage(desc, lblk);
        if self.splice_append_file(disk, ino, off, &data) {
            self.splice_block_completed(desc, lblk, data.len() as u64);
        } else {
            // Transient cache shortage: the offsets are preassigned and
            // block rewrites are idempotent, so retry the same chunk at
            // the next tick.
            self.ctr.splice.append_backoffs += 1;
            self.trace
                .emit(now, || TraceEvent::SpliceBackoff { desc, lblk });
            self.span_note(desc, |s, _| s.note_backoff());
            self.callout.schedule(
                self.tick,
                1,
                KWork::SpliceAppend {
                    desc,
                    lblk,
                    off,
                    data,
                },
            );
        }
    }

    /// Writes `data` to a file at `off` through the buffer cache, in
    /// kernel context (no `copyin`; the data is already in the kernel).
    /// Returns `false` on a transient buffer shortage — the caller must
    /// retry with the same bytes (block rewrites are idempotent).
    fn splice_append_file(&mut self, disk: usize, ino: Ino, off: u64, data: &[u8]) -> bool {
        let bs = self.cfg.block_size as usize;
        let dev = self.disks[disk].dev;
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = off + pos as u64;
            let lblk = abs / bs as u64;
            let boff = (abs % bs as u64) as usize;
            let take = (bs - boff).min(data.len() - pos);
            let existed = self.disks[disk].fs.bmap(ino, lblk).is_some();
            let Ok(pblk) = self.disks[disk].fs.bmap_alloc(ino, lblk) else {
                // Out of space: drop the rest (UDP semantics for a
                // receive-to-file splice).
                self.ctr.splice.append_enospc += 1;
                return true;
            };
            let mut fx = Vec::new();
            let out = self.cache.getblk(dev, pblk, bs, &mut fx);
            let sync = self.apply_cache_effects(fx, IoCtx::Kernel);
            debug_assert!(sync.is_zero());
            match out {
                kbuf::GetblkOutcome::Held(buf) => {
                    let full = boff == 0 && take == bs;
                    {
                        let area = self.cache.data(buf);
                        if !full && !existed {
                            area.zero();
                        }
                        area.write_at(boff, &data[pos..pos + take]);
                    }
                    let mut fx = Vec::new();
                    if full {
                        self.cache.bawrite(buf, &mut fx);
                    } else {
                        self.cache.bdwrite(buf, &mut fx);
                    }
                    self.apply_cache_effects(fx, IoCtx::Kernel);
                }
                kbuf::GetblkOutcome::Busy(_) | kbuf::GetblkOutcome::NoBuffers => {
                    return false;
                }
            }
            pos += take;
            let fs = &mut self.disks[disk].fs;
            let end = abs + take as u64;
            if end > fs.size(ino) {
                fs.set_size(ino, end);
            }
        }
        true
    }
}
