#![warn(missing_docs)]

//! Character devices: the splice endpoints of §4 and §5.1.
//!
//! * [`AudioDac`] — `/dev/speaker`: a self-pacing digital-to-analog
//!   converter. "The program assumes the audio DAC driver converts and
//!   delivers audio at the appropriate playback rate to match the
//!   recording rate in the file" (§4). It holds a bounded staging buffer
//!   drained at the playback rate; writers (including the splice engine)
//!   block when it is full — that back-pressure is what paces a
//!   `SPLICE_EOF` of a whole audio file. Underruns (buffer empty while the
//!   stream is active) are counted: they are audible glitches.
//! * [`VideoDac`] — `/dev/video_dac`: accepts whole frames and displays
//!   them as they complete; per §4 it can display faster than the
//!   recording rate, so pacing must come from the application (the
//!   interval timer). Frame completion times are recorded so examples can
//!   report jitter.
//! * [`Framebuffer`] — a read-side frame source for framebuffer-to-socket
//!   splices: reading returns pixel data of the current frame; frames
//!   advance at the capture rate.
//!
//! All devices expose a uniform readiness protocol: `can_write`/`can_read`
//! either say `Ready` or name the instant to retry, and the kernel turns
//! `At(t)` into sleeps or callout retries.

use ksim::{Dur, SimTime};

/// Readiness of a device for an operation of a given size.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ready {
    /// Proceed now.
    Now,
    /// Retry at (or after) this instant.
    At(SimTime),
}

/// The self-pacing audio DAC.
pub struct AudioDac {
    /// Playback (drain) rate, bytes/second.
    rate_bps: u64,
    /// Staging buffer limit in bytes.
    buf_limit: usize,
    queued: usize,
    last_sync: SimTime,
    /// Fractional drain carry (ns worth of bytes not yet drained).
    carry_ns: u64,
    started: bool,
    ended: bool,
    underruns: u64,
    total_accepted: u64,
}

impl AudioDac {
    /// A DAC draining at `rate_bps` with a `buf_limit`-byte buffer.
    pub fn new(rate_bps: u64, buf_limit: usize) -> AudioDac {
        assert!(rate_bps > 0 && buf_limit > 0);
        AudioDac {
            rate_bps,
            buf_limit,
            queued: 0,
            last_sync: SimTime::ZERO,
            carry_ns: 0,
            started: false,
            ended: false,
            underruns: 0,
            total_accepted: 0,
        }
    }

    /// Bytes accepted so far.
    pub fn total_accepted(&self) -> u64 {
        self.total_accepted
    }

    /// Times the buffer ran dry while the stream was active.
    pub fn underruns(&self) -> u64 {
        self.underruns
    }

    /// Bytes currently staged.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Instant the currently staged audio finishes playing.
    pub fn drained_at(&self, now: SimTime) -> SimTime {
        let copy = self.peek_sync(now);
        if copy.1 == 0 {
            return now;
        }
        copy.0 + Dur::for_bytes(copy.1 as u64, self.rate_bps)
    }

    fn peek_sync(&self, now: SimTime) -> (SimTime, usize) {
        let elapsed = now.saturating_since(self.last_sync);
        let ns = elapsed.as_ns() + self.carry_ns;
        let drained = (ns as u128 * self.rate_bps as u128 / 1_000_000_000) as usize;
        (now, self.queued.saturating_sub(drained))
    }

    fn sync(&mut self, now: SimTime) {
        if now <= self.last_sync {
            return;
        }
        let elapsed = now.since(self.last_sync);
        let ns = elapsed.as_ns() + self.carry_ns;
        let drained = (ns as u128 * self.rate_bps as u128 / 1_000_000_000) as usize;
        let consumed_ns = drained as u128 * 1_000_000_000 / self.rate_bps as u128;
        self.carry_ns = ns - consumed_ns as u64;
        let before = self.queued;
        self.queued = self.queued.saturating_sub(drained);
        self.last_sync = now;
        if self.started && !self.ended && before > 0 && self.queued == 0 {
            // Ran dry mid-stream: glitch.
            self.underruns += 1;
        }
    }

    /// Can `len` bytes be staged at `now`? Lengths beyond the buffer
    /// capacity can never be staged whole — callers chunk with
    /// [`AudioDac::space`] / [`AudioDac::write_some`].
    pub fn can_write(&mut self, now: SimTime, len: usize) -> Ready {
        self.sync(now);
        if self.queued + len <= self.buf_limit {
            return Ready::Now;
        }
        let excess = (self.queued + len - self.buf_limit) as u64;
        Ready::At(now + Dur::for_bytes(excess, self.rate_bps))
    }

    /// Free buffer space at `now`.
    pub fn space(&mut self, now: SimTime) -> usize {
        self.sync(now);
        self.buf_limit - self.queued
    }

    /// Stages as much of `len` as fits right now; returns the accepted
    /// byte count.
    pub fn write_some(&mut self, now: SimTime, len: usize) -> usize {
        let chunk = len.min(self.space(now));
        if chunk > 0 {
            self.write(now, chunk);
        }
        chunk
    }

    /// The instant at which `want` bytes of buffer space (clamped to the
    /// buffer capacity) will be free.
    pub fn time_for_space(&mut self, now: SimTime, want: usize) -> SimTime {
        let want = want.min(self.buf_limit).max(1);
        self.sync(now);
        if self.buf_limit - self.queued >= want {
            return now;
        }
        let need_drain = (want - (self.buf_limit - self.queued)) as u64;
        now + Dur::for_bytes(need_drain, self.rate_bps)
    }

    /// Stages `len` bytes (the caller verified readiness).
    ///
    /// # Panics
    ///
    /// Panics if the buffer cannot take `len` bytes right now.
    pub fn write(&mut self, now: SimTime, len: usize) {
        self.sync(now);
        assert!(
            self.queued + len <= self.buf_limit,
            "audio write of {len} overruns buffer"
        );
        self.queued += len;
        self.started = true;
        self.total_accepted += len as u64;
    }

    /// Marks the stream complete: a later run-dry is normal, not an
    /// underrun.
    pub fn end_stream(&mut self, now: SimTime) {
        self.sync(now);
        self.ended = true;
    }
}

/// The video DAC: displays frames as they complete.
pub struct VideoDac {
    frame_size: usize,
    partial: usize,
    /// Completion instants of displayed frames.
    frame_times: Vec<SimTime>,
}

impl VideoDac {
    /// A DAC for frames of `frame_size` bytes.
    pub fn new(frame_size: usize) -> VideoDac {
        assert!(frame_size > 0);
        VideoDac {
            frame_size,
            partial: 0,
            frame_times: Vec::new(),
        }
    }

    /// The display frame size in bytes.
    pub fn frame_size(&self) -> usize {
        self.frame_size
    }

    /// Frames displayed so far.
    pub fn frames(&self) -> u64 {
        self.frame_times.len() as u64
    }

    /// Completion instants of displayed frames.
    pub fn frame_times(&self) -> &[SimTime] {
        &self.frame_times
    }

    /// Inter-frame gaps (for jitter reports).
    pub fn frame_intervals(&self) -> Vec<Dur> {
        self.frame_times
            .windows(2)
            .map(|w| w[1].since(w[0]))
            .collect()
    }

    /// The device "displays at a maximum rate faster than the recording
    /// rate" (§4): it is always ready.
    pub fn can_write(&mut self, _now: SimTime, _len: usize) -> Ready {
        Ready::Now
    }

    /// Accepts `len` bytes; every completed `frame_size` bytes displays a
    /// frame stamped `now`.
    pub fn write(&mut self, now: SimTime, len: usize) {
        self.partial += len;
        while self.partial >= self.frame_size {
            self.partial -= self.frame_size;
            self.frame_times.push(now);
        }
    }
}

/// A framebuffer read-side device: the source for fb-to-socket splices.
pub struct Framebuffer {
    frame_size: usize,
    /// Capture rate in frames/second.
    fps: u64,
    read_off: usize,
    bytes_read: u64,
}

impl Framebuffer {
    /// A framebuffer with `frame_size`-byte frames captured at `fps`.
    pub fn new(frame_size: usize, fps: u64) -> Framebuffer {
        assert!(frame_size > 0 && fps > 0);
        Framebuffer {
            frame_size,
            fps,
            read_off: 0,
            bytes_read: 0,
        }
    }

    /// The frame currently on screen at `now`.
    pub fn current_frame(&self, now: SimTime) -> u64 {
        (now.as_ns() as u128 * self.fps as u128 / 1_000_000_000) as u64
    }

    /// Bytes handed out so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Reading is a memory access: always ready.
    pub fn can_read(&mut self, _now: SimTime, _len: usize) -> Ready {
        Ready::Now
    }

    /// Reads `len` bytes of the frame on screen at `now`; the content
    /// encodes (frame number, offset) so receivers can verify tearing-free
    /// capture per read.
    pub fn read(&mut self, now: SimTime, len: usize) -> Vec<u8> {
        let frame = self.current_frame(now);
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            let off = (self.read_off + i) % self.frame_size;
            out.push((frame as u8) ^ (off as u8).rotate_left(3));
        }
        self.read_off = (self.read_off + len) % self.frame_size;
        self.bytes_read += len as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + Dur::from_ms(ms)
    }

    #[test]
    fn audio_drains_at_rate() {
        let mut dac = AudioDac::new(8_000, 64 * 1024);
        assert_eq!(dac.can_write(t(0), 8_000), Ready::Now);
        dac.write(t(0), 8_000);
        assert_eq!(dac.queued(), 8_000);
        // After half a second, half has played.
        dac.can_write(t(500), 0);
        assert_eq!(dac.queued(), 4_000);
        assert_eq!(dac.drained_at(t(500)), t(1000));
    }

    #[test]
    fn audio_backpressure_names_retry_time() {
        let mut dac = AudioDac::new(8_000, 8_000);
        dac.write(t(0), 8_000);
        match dac.can_write(t(0), 4_000) {
            Ready::At(at) => assert_eq!(at, t(500)), // 4000 bytes at 8000 B/s
            Ready::Now => panic!("buffer is full"),
        }
        // At the named instant the write fits.
        assert_eq!(dac.can_write(t(500), 4_000), Ready::Now);
    }

    #[test]
    fn audio_partial_writes_chunk_through_a_small_buffer() {
        let mut dac = AudioDac::new(8_000, 4_096);
        // An 8 KB block cannot fit whole; the first chunk fills the
        // buffer.
        assert_eq!(dac.space(t(0)), 4_096);
        let took = dac.write_some(t(0), 8_192);
        assert_eq!(took, 4_096);
        assert_eq!(dac.write_some(t(0), 4_096), 0, "buffer now full");
        // Space for the remainder opens as the DAC drains.
        let at = dac.time_for_space(t(0), 4_096);
        assert_eq!(at, t(512)); // 4096 bytes at 8000 B/s
        assert_eq!(dac.write_some(at, 4_096), 4_096);
        assert_eq!(dac.total_accepted(), 8_192);
    }

    #[test]
    fn audio_underrun_detection() {
        let mut dac = AudioDac::new(8_000, 64 * 1024);
        dac.write(t(0), 800); // 100 ms of audio
                              // Next write arrives late: the buffer ran dry in between.
        dac.can_write(t(500), 800);
        dac.write(t(500), 800);
        assert_eq!(dac.underruns(), 1);
        // Ending the stream prevents counting the final drain.
        dac.end_stream(t(500));
        dac.can_write(t(2000), 0);
        assert_eq!(dac.underruns(), 1);
    }

    #[test]
    fn audio_no_underrun_when_fed_on_time() {
        let mut dac = AudioDac::new(8_000, 64 * 1024);
        for i in 0..10 {
            dac.write(t(i * 100), 1600); // 200 ms of audio every 100 ms
        }
        assert_eq!(dac.underruns(), 0);
        assert_eq!(dac.total_accepted(), 16_000);
    }

    #[test]
    fn video_counts_whole_frames() {
        let mut v = VideoDac::new(1000);
        v.write(t(0), 700);
        assert_eq!(v.frames(), 0);
        v.write(t(10), 700); // completes frame 1, 400 into frame 2
        assert_eq!(v.frames(), 1);
        v.write(t(43), 600); // completes frame 2
        assert_eq!(v.frames(), 2);
        assert_eq!(v.frame_intervals(), vec![Dur::from_ms(33)]);
    }

    #[test]
    fn video_always_ready() {
        let mut v = VideoDac::new(1000);
        assert_eq!(v.can_write(t(0), 1 << 20), Ready::Now);
    }

    #[test]
    fn framebuffer_frames_advance_with_time() {
        let mut fb = Framebuffer::new(64, 30);
        assert_eq!(fb.current_frame(t(0)), 0);
        assert_eq!(fb.current_frame(t(1000)), 30);
        let a = fb.read(t(0), 64);
        let mut fb2 = Framebuffer::new(64, 30);
        let b = fb2.read(t(1000), 64);
        assert_ne!(a, b, "different frames produce different pixels");
        assert_eq!(fb.bytes_read(), 64);
    }
}
