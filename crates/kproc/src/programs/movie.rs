//! The §4 example application: digitized movie playback.
//!
//! Reproduces the paper's code fragment: the audio track is spliced
//! asynchronously to `/dev/speaker` in one `SPLICE_EOF` call (the DAC
//! paces itself at the playback rate), while video frames are delivered
//! one per interval-timer tick with bounded synchronous splices —
//! "slowing the splice transfer rate is achieved by ensuring the FASYNC
//! property is not set, and adjusting the size parameter to specify a
//! limited transfer quantum (e.g. the size of a single frame)".

use ksim::Dur;

use crate::program::{Program, Step, UserCtx};
use crate::types::{FcntlCmd, Fd, OpenFlags, Sig, SpliceReq, SyscallReq, SyscallRet};

#[derive(Debug)]
enum St {
    Start,
    OpenAudio,
    OpenVideo,
    OpenAudioDev,
    OpenVideoDev,
    FcntlAudio,
    SpliceAudio,
    Sigaction,
    SetItimer,
    SpliceFrame,
    Pause,
    Done,
    Failed,
}

/// The movie player program.
pub struct MoviePlayer {
    audio_file: String,
    video_file: String,
    audio_dev: String,
    video_dev: String,
    frame_size: u64,
    frame_interval: Dur,
    st: St,
    audiofile: Option<Fd>,
    videofile: Option<Fd>,
    audio_out: Option<Fd>,
    video_out: Option<Fd>,
    frames_played: u64,
}

impl MoviePlayer {
    /// Plays `video_file` to `video_dev` at one `frame_size` splice per
    /// `frame_interval`, with `audio_file` spliced to `audio_dev`
    /// asynchronously.
    pub fn new(
        audio_file: &str,
        video_file: &str,
        audio_dev: &str,
        video_dev: &str,
        frame_size: u64,
        frame_interval: Dur,
    ) -> MoviePlayer {
        MoviePlayer {
            audio_file: audio_file.to_string(),
            video_file: video_file.to_string(),
            audio_dev: audio_dev.to_string(),
            video_dev: video_dev.to_string(),
            frame_size,
            frame_interval,
            st: St::Start,
            audiofile: None,
            videofile: None,
            audio_out: None,
            video_out: None,
            frames_played: 0,
        }
    }

    /// Frames delivered so far.
    pub fn frames_played(&self) -> u64 {
        self.frames_played
    }

    fn fail(&mut self) -> Step {
        self.st = St::Failed;
        Step::Exit(1)
    }

    fn open(path: &str, flags: OpenFlags) -> Step {
        Step::Syscall(SyscallReq::Open {
            path: path.to_string(),
            flags,
        })
    }
}

impl Program for MoviePlayer {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        match self.st {
            St::Start => {
                self.st = St::OpenAudio;
                Self::open(&self.audio_file.clone(), OpenFlags::RDONLY)
            }
            St::OpenAudio => {
                match ctx.take_ret() {
                    SyscallRet::NewFd(fd) => self.audiofile = Some(fd),
                    _ => return self.fail(),
                }
                self.st = St::OpenVideo;
                Self::open(&self.video_file.clone(), OpenFlags::RDONLY)
            }
            St::OpenVideo => {
                match ctx.take_ret() {
                    SyscallRet::NewFd(fd) => self.videofile = Some(fd),
                    _ => return self.fail(),
                }
                self.st = St::OpenAudioDev;
                Self::open(&self.audio_dev.clone(), OpenFlags::WRONLY)
            }
            St::OpenAudioDev => {
                match ctx.take_ret() {
                    SyscallRet::NewFd(fd) => self.audio_out = Some(fd),
                    _ => return self.fail(),
                }
                self.st = St::OpenVideoDev;
                Self::open(&self.video_dev.clone(), OpenFlags::WRONLY)
            }
            St::OpenVideoDev => {
                match ctx.take_ret() {
                    SyscallRet::NewFd(fd) => self.video_out = Some(fd),
                    _ => return self.fail(),
                }
                self.st = St::FcntlAudio;
                Step::Syscall(SyscallReq::Fcntl {
                    fd: self.audiofile.unwrap(),
                    cmd: FcntlCmd::SetAsync(true),
                })
            }
            St::FcntlAudio => {
                ctx.take_ret();
                self.st = St::SpliceAudio;
                // "Copy the audio information; return immediately."
                Step::splice(SpliceReq::new(
                    self.audiofile.unwrap(),
                    self.audio_out.unwrap(),
                ))
            }
            St::SpliceAudio => {
                match ctx.take_ret() {
                    SyscallRet::Val(_) => {}
                    _ => return self.fail(),
                }
                self.st = St::Sigaction;
                Step::Syscall(SyscallReq::Sigaction {
                    sig: Sig::Alrm,
                    catch: true,
                })
            }
            St::Sigaction => {
                ctx.take_ret();
                self.st = St::SetItimer;
                Step::Syscall(SyscallReq::SetItimer {
                    interval: self.frame_interval,
                })
            }
            St::SetItimer => {
                ctx.take_ret();
                self.st = St::SpliceFrame;
                Step::splice(
                    SpliceReq::new(self.videofile.unwrap(), self.video_out.unwrap())
                        .bytes(self.frame_size),
                )
            }
            St::SpliceFrame => match ctx.take_ret() {
                SyscallRet::Val(n) if n > 0 => {
                    self.frames_played += 1;
                    self.st = St::Pause;
                    // "pause(); wait for timer to go off; it will reload
                    // automatically."
                    Step::Syscall(SyscallReq::Pause)
                }
                SyscallRet::Val(_) => {
                    // EOF: rval == 0 terminates the do/while loop.
                    self.st = St::Done;
                    Step::Syscall(SyscallReq::SetItimer {
                        interval: Dur::ZERO,
                    })
                }
                _ => self.fail(),
            },
            St::Pause => {
                ctx.take_ret();
                self.st = St::SpliceFrame;
                Step::splice(
                    SpliceReq::new(self.videofile.unwrap(), self.video_out.unwrap())
                        .bytes(self.frame_size),
                )
            }
            St::Done => {
                ctx.ret.take();
                Step::Exit(0)
            }
            St::Failed => Step::Exit(1),
        }
    }

    fn name(&self) -> &str {
        "movie_player"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{SigSet, SpliceLen};

    fn drive_to_frames(p: &mut MoviePlayer, ctx: &mut UserCtx) {
        // Four opens.
        for fd in 3..=6 {
            p.step(ctx);
            ctx.ret = Some(SyscallRet::NewFd(Fd(fd)));
        }
        // fcntl FASYNC.
        let s = p.step(ctx);
        assert!(matches!(s, Step::Syscall(SyscallReq::Fcntl { .. })));
        ctx.ret = Some(SyscallRet::Val(0));
        // Async audio splice returns immediately.
        let s = p.step(ctx);
        assert!(matches!(
            s,
            Step::Syscall(SyscallReq::Splice {
                req: SpliceReq {
                    src: Fd(3),
                    dst: Fd(5),
                    ..
                }
            })
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        let s = p.step(ctx);
        assert!(matches!(
            s,
            Step::Syscall(SyscallReq::Sigaction { sig: Sig::Alrm, .. })
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        let s = p.step(ctx);
        assert!(matches!(s, Step::Syscall(SyscallReq::SetItimer { .. })));
        ctx.ret = Some(SyscallRet::Val(0));
    }

    #[test]
    fn frame_loop_paces_with_pause() {
        let mut p = MoviePlayer::new(
            "/movie.audio",
            "/movie.video",
            "/dev/speaker",
            "/dev/video_dac",
            64 * 1024,
            Dur::from_ms(33),
        );
        let mut ctx = UserCtx::default();
        drive_to_frames(&mut p, &mut ctx);

        // First frame splice.
        let s = p.step(&mut ctx);
        assert!(matches!(
            s,
            Step::Syscall(SyscallReq::Splice {
                req: SpliceReq {
                    src: Fd(4),
                    dst: Fd(6),
                    len: SpliceLen::Bytes(n),
                    ..
                }
            }) if n == 64 * 1024
        ));
        ctx.ret = Some(SyscallRet::Val(64 * 1024));
        let s = p.step(&mut ctx);
        assert!(matches!(s, Step::Syscall(SyscallReq::Pause)));
        ctx.ret = Some(SyscallRet::Val(0));
        ctx.signals = Sig::Alrm.into();
        // Timer fired: next frame.
        let s = p.step(&mut ctx);
        assert!(matches!(s, Step::Syscall(SyscallReq::Splice { .. })));
        assert_eq!(p.frames_played(), 1);

        // EOF ends playback and disarms the timer.
        ctx.ret = Some(SyscallRet::Val(0));
        ctx.signals = SigSet::EMPTY;
        let s = p.step(&mut ctx);
        assert!(matches!(
            s,
            Step::Syscall(SyscallReq::SetItimer { interval }) if interval.is_zero()
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        assert_eq!(p.step(&mut ctx), Step::Exit(0));
    }
}
