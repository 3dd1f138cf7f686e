//! Character-device endpoint backend: the `kdev` glue.
//!
//! Stream **source** (framebuffer): each pull reads a deterministic
//! frame-data chunk at the current simulated time.
//!
//! Stream **sink** (audio/video DAC): deliver as much of an arrived
//! block as the device accepts, honouring its pacing back-pressure; the
//! remainder retries via the callout when space drains. The audio DAC's
//! back-pressure is what rate-limits a whole-file audio splice.

use ksim::Bytes;

use crate::endpoint::{Block, DstEndpoint};
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
        if !self.splice_write_begin(desc, lblk) {
            return;
        }
        let now = self.q.now();
        let d = &self.splices[&desc];
        let DstEndpoint::Dev { cdev } = d.dst else {
            panic!("splice_dev_write with non-device sink")
        };
        let len = match &src {
            Block::Bytes(data) => data.len(),
            Block::Held => d.mapped_len(lblk),
        };
        if off == 0 {
            self.splice_write_issue(desc, lblk);
            // Injected device write failure: the countdown is charged
            // once per block; a block that would overrun it fails.
            if let Some(limit) = self.cdevs[cdev].write_fail_after {
                if (len as u64) > limit {
                    self.splice_write_abandon(desc, lblk);
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
            None => self.splice_write_finish(desc, lblk, len as u64),
            Some(at) => {
                let ticks = self.dur_to_ticks(at.saturating_since(now));
                let work = KWork::SpliceDevWrite {
                    desc,
                    lblk,
                    src,
                    off: off + accepted,
                };
                self.splice_backoff(desc, lblk, |c| &mut c.dev_backpressure, ticks, work);
            }
        }
    }
}
