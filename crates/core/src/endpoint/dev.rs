//! Character-device endpoint backend: the `kdev` glue.
//!
//! Stream **source** (framebuffer): each pull reads a deterministic
//! frame-data chunk at the current simulated time.
//!
//! Stream **sink** (audio/video DAC): deliver as much of an arrived
//! block as the device accepts, honouring its pacing back-pressure; the
//! remainder retries via the callout when space drains. The audio DAC's
//! back-pressure is what rate-limits a whole-file audio splice.

use ksim::{Bytes, TraceEvent};

use crate::endpoint::Block;
use crate::event::KWork;
use crate::kernel::Kernel;
use crate::objects::CharDev;

impl Kernel {
    /// Reads `want` bytes of frame data from the framebuffer.
    pub(crate) fn fb_pull(&mut self, cdev: usize, now: ksim::SimTime, want: usize) -> Bytes {
        let CharDev::Fb(fb) = &mut self.cdevs[cdev].dev else {
            panic!("fb_pull on a non-framebuffer device")
        };
        fb.read(now, want).into()
    }

    /// Device-sink write side: paced delivery of one arrived block. An
    /// armed write-failure countdown on the device (injected fault)
    /// errors the delivery and aborts the splice with `EIO`.
    pub(crate) fn splice_dev_write(&mut self, desc: u64, lblk: u64, src: Block, off: usize) {
        // Abort drain: a held buffer is released via `src_bufs`; owned
        // bytes just drop.
        if self.splice_drain_write(desc, lblk, None) {
            return;
        }
        let now = self.q.now();
        let Some(d) = self.splices.get(&desc) else {
            if let Block::Buf(buf) = src {
                self.release_buf(buf);
            }
            return;
        };
        let crate::endpoint::DstEndpoint::Dev { cdev } = d.dst else {
            panic!("splice_dev_write with non-device sink")
        };
        let len = match &src {
            Block::Bytes(data) => data.len(),
            Block::Buf(_) => d.mapped_len(lblk),
        };
        if off == 0 {
            self.trace
                .emit(now, || TraceEvent::SpliceWriteIssue { desc, lblk });
            self.note_write_issue_stage(desc, lblk);
            // Injected device write failure: the countdown is charged
            // once per block; a block that would overrun it fails.
            if let Some(limit) = self.cdevs[cdev].write_fail_after {
                if (len as u64) > limit {
                    self.drop_write_slot(desc, lblk);
                    let d = self.splices.get_mut(&desc).unwrap();
                    d.src_bufs.remove(&lblk);
                    if let Block::Buf(buf) = src {
                        self.release_buf(buf);
                    }
                    self.ctr.io.errors += 1;
                    self.splice_abort(desc, kproc::Errno::Eio);
                    return;
                }
                self.cdevs[cdev].write_fail_after = Some(limit - len as u64);
            }
        }
        let want = len - off;
        let (accepted, retry_at) = match &mut self.cdevs[cdev].dev {
            CharDev::Audio(a) => {
                let took = a.write_some(now, want);
                let retry = if took < want {
                    Some(a.time_for_space(now, want - took))
                } else {
                    None
                };
                (took, retry)
            }
            CharDev::Video(v) => {
                v.write(now, want);
                (want, None)
            }
            CharDev::Fb(_) => unreachable!("fb is not a sink"),
        };
        if accepted > 0 {
            self.ctr.copy.driver_bytes += accepted as u64;
        }
        match retry_at {
            None => {
                if let Block::Buf(buf) = src {
                    let d = self.splices.get_mut(&desc).unwrap();
                    d.src_bufs.remove(&lblk);
                    self.release_buf(buf);
                }
                self.splice_block_completed(desc, lblk, len as u64);
            }
            Some(at) => {
                let delay = at.saturating_since(now);
                let ticks = self.dur_to_ticks(delay);
                self.ctr.splice.dev_backpressure += 1;
                self.trace
                    .emit(now, || TraceEvent::SpliceBackoff { desc, lblk });
                self.span_note(desc, |s, _| s.note_backoff());
                self.callout.schedule(
                    self.tick,
                    ticks,
                    KWork::SpliceDevWrite {
                        desc,
                        lblk,
                        src,
                        off: off + accepted,
                    },
                );
            }
        }
    }
}
