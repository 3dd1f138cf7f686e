//! UDP workload programs: sources, sinks, and the two relay variants.
//!
//! §5.1 lists socket-to-socket splices for UDP among the supported splice
//! classes. The relay pair here compares the conventional user-space relay
//! (`recv` + `send` per datagram, two user/kernel copies) with an in-kernel
//! splice of one socket to another.

use ksim::{Bytes, Dur};

use crate::program::{Program, Step, UserCtx};
use crate::programs::util::pattern_bytes;
use crate::types::{Fd, SockAddr, SpliceReq, SyscallReq, SyscallRet};

/// Sends `count` datagrams of `size` bytes to `dest`, pacing each send
/// with a small user-mode gap.
pub struct UdpSource {
    dest: SockAddr,
    size: usize,
    count: u64,
    gap: Dur,
    seed: u64,
    st: u32,
    fd: Option<Fd>,
    sent: u64,
}

impl UdpSource {
    /// A pattern-stamped datagram source.
    pub fn new(dest: SockAddr, size: usize, count: u64, gap: Dur, seed: u64) -> UdpSource {
        UdpSource {
            dest,
            size,
            count,
            gap,
            seed,
            st: 0,
            fd: None,
            sent: 0,
        }
    }

    /// Datagrams sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }
}

impl Program for UdpSource {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        match self.st {
            0 => {
                self.st = 1;
                Step::Syscall(SyscallReq::Socket)
            }
            1 => {
                self.fd = ctx.take_ret().as_fd();
                if self.fd.is_none() {
                    return Step::Exit(1);
                }
                self.st = 2;
                Step::Syscall(SyscallReq::Connect {
                    fd: self.fd.unwrap(),
                    addr: self.dest,
                })
            }
            2 => {
                ctx.take_ret();
                self.st = 3;
                Step::Compute(self.gap)
            }
            3 => {
                // Alternate gap → send → gap → send.
                if self.sent >= self.count {
                    return Step::Exit(0);
                }
                let off = self.sent * self.size as u64;
                self.sent += 1;
                self.st = 4;
                Step::Syscall(SyscallReq::Send {
                    fd: self.fd.unwrap(),
                    data: pattern_bytes(self.seed, off, self.size),
                })
            }
            4 => {
                ctx.take_ret();
                self.st = 3;
                if self.gap.is_zero() {
                    self.step(ctx)
                } else {
                    Step::Compute(self.gap)
                }
            }
            _ => Step::Exit(0),
        }
    }

    fn name(&self) -> &str {
        "udp_source"
    }
}

/// Receives `count` datagrams on `port`, recording how many bytes arrived.
pub struct UdpSink {
    port: u16,
    count: u64,
    st: u32,
    fd: Option<Fd>,
    received: u64,
    bytes: u64,
}

impl UdpSink {
    /// A datagram sink on `port` expecting `count` datagrams.
    pub fn new(port: u16, count: u64) -> UdpSink {
        UdpSink {
            port,
            count,
            st: 0,
            fd: None,
            received: 0,
            bytes: 0,
        }
    }

    /// Datagrams received.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Payload bytes received.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Program for UdpSink {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        match self.st {
            0 => {
                self.st = 1;
                Step::Syscall(SyscallReq::Socket)
            }
            1 => {
                self.fd = ctx.take_ret().as_fd();
                if self.fd.is_none() {
                    return Step::Exit(1);
                }
                self.st = 2;
                Step::Syscall(SyscallReq::Bind {
                    fd: self.fd.unwrap(),
                    port: self.port,
                })
            }
            2 => {
                ctx.take_ret();
                self.st = 3;
                Step::Syscall(SyscallReq::Recv {
                    fd: self.fd.unwrap(),
                    max_len: 65536,
                })
            }
            3 => {
                match ctx.take_ret() {
                    SyscallRet::Data(d) => {
                        self.received += 1;
                        self.bytes += d.len() as u64;
                    }
                    _ => return Step::Exit(1),
                }
                if self.received >= self.count {
                    return Step::Exit(0);
                }
                Step::Syscall(SyscallReq::Recv {
                    fd: self.fd.unwrap(),
                    max_len: 65536,
                })
            }
            _ => Step::Exit(0),
        }
    }

    fn name(&self) -> &str {
        "udp_sink"
    }
}

/// The conventional relay: `recv` on one socket, `write` to another
/// connected one (`send` without flags), one datagram at a time through
/// user space.
pub struct UdpRelayRw {
    in_port: u16,
    out_addr: SockAddr,
    count: u64,
    st: u32,
    in_fd: Option<Fd>,
    out_fd: Option<Fd>,
    relayed: u64,
    pending: Option<Bytes>,
}

impl UdpRelayRw {
    /// Relays `count` datagrams from `in_port` to `out_addr`.
    pub fn new(in_port: u16, out_addr: SockAddr, count: u64) -> UdpRelayRw {
        UdpRelayRw {
            in_port,
            out_addr,
            count,
            st: 0,
            in_fd: None,
            out_fd: None,
            relayed: 0,
            pending: None,
        }
    }

    /// Datagrams relayed.
    pub fn relayed(&self) -> u64 {
        self.relayed
    }
}

impl Program for UdpRelayRw {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        match self.st {
            0 => {
                self.st = 1;
                Step::Syscall(SyscallReq::Socket)
            }
            1 => {
                self.in_fd = ctx.take_ret().as_fd();
                self.st = 2;
                Step::Syscall(SyscallReq::Bind {
                    fd: self.in_fd.unwrap(),
                    port: self.in_port,
                })
            }
            2 => {
                ctx.take_ret();
                self.st = 3;
                Step::Syscall(SyscallReq::Socket)
            }
            3 => {
                self.out_fd = ctx.take_ret().as_fd();
                self.st = 4;
                Step::Syscall(SyscallReq::Connect {
                    fd: self.out_fd.unwrap(),
                    addr: self.out_addr,
                })
            }
            4 => {
                ctx.take_ret();
                self.st = 5;
                Step::Syscall(SyscallReq::Recv {
                    fd: self.in_fd.unwrap(),
                    max_len: 65536,
                })
            }
            5 => {
                match ctx.take_ret() {
                    SyscallRet::Data(d) => self.pending = Some(d),
                    _ => return Step::Exit(1),
                }
                self.st = 6;
                Step::Syscall(SyscallReq::Write {
                    fd: self.out_fd.unwrap(),
                    data: self.pending.take().unwrap(),
                })
            }
            6 => {
                ctx.take_ret();
                self.relayed += 1;
                if self.relayed >= self.count {
                    return Step::Exit(0);
                }
                self.st = 5;
                Step::Syscall(SyscallReq::Recv {
                    fd: self.in_fd.unwrap(),
                    max_len: 65536,
                })
            }
            _ => Step::Exit(0),
        }
    }

    fn name(&self) -> &str {
        "udp_relay_rw"
    }
}

/// The splice relay: one `splice(in_sock, out_sock, len)` moves the whole
/// stream inside the kernel.
pub struct UdpRelaySplice {
    in_port: u16,
    out_addr: SockAddr,
    total_bytes: u64,
    st: u32,
    in_fd: Option<Fd>,
    out_fd: Option<Fd>,
    bytes: u64,
}

impl UdpRelaySplice {
    /// Relays `total_bytes` of datagram payload from `in_port` to
    /// `out_addr` with a single synchronous splice.
    pub fn new(in_port: u16, out_addr: SockAddr, total_bytes: u64) -> UdpRelaySplice {
        UdpRelaySplice {
            in_port,
            out_addr,
            total_bytes,
            st: 0,
            in_fd: None,
            out_fd: None,
            bytes: 0,
        }
    }

    /// Bytes the splice reported moving.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Program for UdpRelaySplice {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        match self.st {
            0 => {
                self.st = 1;
                Step::Syscall(SyscallReq::Socket)
            }
            1 => {
                self.in_fd = ctx.take_ret().as_fd();
                self.st = 2;
                Step::Syscall(SyscallReq::Bind {
                    fd: self.in_fd.unwrap(),
                    port: self.in_port,
                })
            }
            2 => {
                ctx.take_ret();
                self.st = 3;
                Step::Syscall(SyscallReq::Socket)
            }
            3 => {
                self.out_fd = ctx.take_ret().as_fd();
                self.st = 4;
                Step::Syscall(SyscallReq::Connect {
                    fd: self.out_fd.unwrap(),
                    addr: self.out_addr,
                })
            }
            4 => {
                ctx.take_ret();
                self.st = 5;
                Step::splice(
                    SpliceReq::new(self.in_fd.unwrap(), self.out_fd.unwrap())
                        .bytes(self.total_bytes),
                )
            }
            5 => {
                match ctx.take_ret() {
                    SyscallRet::Val(n) if n >= 0 => self.bytes = n as u64,
                    _ => return Step::Exit(1),
                }
                Step::Exit(0)
            }
            _ => Step::Exit(0),
        }
    }

    fn name(&self) -> &str {
        "udp_relay_splice"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SpliceLen;

    #[test]
    fn source_sends_expected_count() {
        let dest = SockAddr { host: 2, port: 9 };
        let mut p = UdpSource::new(dest, 1024, 2, Dur::ZERO, 5);
        let mut ctx = UserCtx::default();
        assert!(matches!(
            p.step(&mut ctx),
            Step::Syscall(SyscallReq::Socket)
        ));
        ctx.ret = Some(SyscallRet::NewFd(Fd(3)));
        assert!(matches!(
            p.step(&mut ctx),
            Step::Syscall(SyscallReq::Connect { .. })
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        // Zero gap: first compute is zero then direct sends.
        let s = p.step(&mut ctx);
        assert!(matches!(s, Step::Compute(_)));
        let s = p.step(&mut ctx);
        let Step::Syscall(SyscallReq::Send { data, .. }) = s else {
            panic!()
        };
        assert_eq!(data.len(), 1024);
        ctx.ret = Some(SyscallRet::Val(1024));
        let s = p.step(&mut ctx);
        assert!(matches!(s, Step::Syscall(SyscallReq::Send { .. })));
        ctx.ret = Some(SyscallRet::Val(1024));
        assert_eq!(p.step(&mut ctx), Step::Exit(0));
        assert_eq!(p.sent(), 2);
    }

    #[test]
    fn sink_counts_bytes() {
        let mut p = UdpSink::new(9, 2);
        let mut ctx = UserCtx::default();
        p.step(&mut ctx);
        ctx.ret = Some(SyscallRet::NewFd(Fd(3)));
        p.step(&mut ctx);
        ctx.ret = Some(SyscallRet::Val(0));
        let s = p.step(&mut ctx);
        assert!(matches!(s, Step::Syscall(SyscallReq::Recv { .. })));
        ctx.ret = Some(SyscallRet::Data(vec![0; 100].into()));
        p.step(&mut ctx);
        ctx.ret = Some(SyscallRet::Data(vec![0; 50].into()));
        assert_eq!(p.step(&mut ctx), Step::Exit(0));
        assert_eq!(p.received(), 2);
        assert_eq!(p.bytes(), 150);
    }

    #[test]
    fn splice_relay_issues_single_splice() {
        let out = SockAddr { host: 3, port: 11 };
        let mut p = UdpRelaySplice::new(8, out, 1 << 20);
        let mut ctx = UserCtx::default();
        p.step(&mut ctx);
        ctx.ret = Some(SyscallRet::NewFd(Fd(3)));
        p.step(&mut ctx);
        ctx.ret = Some(SyscallRet::Val(0));
        p.step(&mut ctx);
        ctx.ret = Some(SyscallRet::NewFd(Fd(4)));
        p.step(&mut ctx);
        ctx.ret = Some(SyscallRet::Val(0));
        let s = p.step(&mut ctx);
        assert!(matches!(
            s,
            Step::Syscall(SyscallReq::Splice {
                req: SpliceReq {
                    src: Fd(3),
                    dst: Fd(4),
                    len: SpliceLen::Bytes(n),
                    ..
                }
            }) if n == 1 << 20
        ));
        ctx.ret = Some(SyscallRet::Val(1 << 20));
        assert_eq!(p.step(&mut ctx), Step::Exit(0));
        assert_eq!(p.bytes(), 1 << 20);
    }
}
