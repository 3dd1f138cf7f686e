#![warn(missing_docs)]

//! UDP socket substrate with a connection-server layer.
//!
//! §5.1: "The current implementation of splice supports … socket-to-socket
//! splices for the UDP transport protocol, and framebuffer-to-socket
//! splices". This crate provides the socket layer those splices run over:
//! datagram sockets with bounded receive buffers, a port namespace, and a
//! link model (loopback is free of wire time; a remote hop pays serialised
//! bandwidth plus latency).
//!
//! On top of the plain datagram sockets sits a **connection layer** for
//! the million-client server scenario: a bound socket may [`Net::listen`]
//! with a bounded accept backlog, after which the first datagram from
//! each new remote carves off a per-connection peer socket (queued for
//! [`Net::accept`]); later datagrams from the same remote are demultiplexed
//! straight into that connection's receive buffer. Connections are wired
//! socket-to-socket, so replies route back to the originating socket
//! without consuming a port per client.
//!
//! Per-host wire behaviour is governed by an optional [`LinkModel`]
//! (bandwidth, base latency, a jitter distribution, and a loss rate) whose
//! randomness is drawn from a seeded splitmix64 stream — the same
//! deterministic-by-occurrence discipline as `khw::FaultPlan`. A host
//! without a model keeps the legacy behaviour (free loopback, the fixed
//! off-host link). When a model is present the sender also sees **send
//! backpressure**: once the serialisation backlog exceeds the socket's
//! send-buffer limit, `send` returns [`NetErr::WouldBlock`] and
//! [`Net::link_ready_at`] says when to retry.
//!
//! Like the other substrates, the crate is a pure state machine: `send`
//! computes where and when a datagram would arrive; the kernel schedules
//! the delivery event, charges protocol CPU costs, and calls
//! [`Net::deliver`] when the time comes. Blocking (`recv` on an empty
//! queue, accept on an empty backlog, send-buffer exhaustion) is expressed
//! as outcomes the kernel turns into sleeps.
//!
//! Drop accounting is a taxonomy, not one counter: `dropped_no_listener`
//! (no receiver at send or arrival), `dropped_rcv_full` (receive buffer
//! exhausted), `dropped_backlog` (listener accept queue full), and
//! `lost_link` (link-model loss draw) are disjoint — every committed
//! datagram ends in exactly one of `delivered` or these, so byte
//! conservation holds exactly.

use std::collections::VecDeque;

use ksim::{Dur, IdMap, SimTime};

/// Socket identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SockId(pub u32);

/// A UDP endpoint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NetAddr {
    /// Host identifier (the simulated DECstation is host 1).
    pub host: u32,
    /// UDP port.
    pub port: u16,
}

/// One datagram in flight or queued.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Datagram {
    /// Sender address.
    pub src: NetAddr,
    /// Sending socket — the simulator's stand-in for the full source
    /// 5-tuple (listeners demultiplex connections by it, so a million
    /// unbound clients need no port each).
    pub src_sock: SockId,
    /// Payload.
    pub data: Vec<u8>,
}

/// Errors from socket operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetErr {
    /// Unknown socket.
    BadSocket,
    /// Port already bound on that host.
    PortInUse,
    /// Socket has no peer (send without connect).
    NotConnected,
    /// Datagram exceeds the maximum size.
    MsgTooBig,
    /// `listen`/`accept` on a socket that is not set up for it.
    NotBound,
    /// Send buffer full: the link backlog exceeds the socket's
    /// send-buffer limit. Retry at [`Net::link_ready_at`].
    WouldBlock,
}

/// Why a committed `send` produced no delivery ([`TxInfo::dst`] `None`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxGone {
    /// No receiver: nothing bound to the destination (or the wired peer
    /// socket is closed), like real UDP.
    NoReceiver,
    /// The link model's loss draw ate the datagram.
    Lost,
}

/// Where and when a sent datagram arrives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxInfo {
    /// Arrival instant (schedule the delivery event here).
    pub arrival: SimTime,
    /// Receiving socket, if any; `None` means the datagram vanishes.
    pub dst: Option<SockId>,
    /// Set exactly when `dst` is `None`: why the datagram vanished.
    pub gone: Option<TxGone>,
}

/// Why a delivery was dropped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// Destination socket closed between send and arrival.
    NoReceiver,
    /// Receive buffer full.
    RcvFull,
    /// Listener accept backlog full: connection refused, no socket
    /// carved.
    Backlog,
}

/// Result of delivering a datagram into a receive buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeliverOutcome {
    /// Queued on `sock` (after listener demultiplexing this may differ
    /// from the socket the datagram was addressed to); if a process
    /// sleeps on it, wake it.
    Queued {
        /// The socket that received the datagram.
        sock: SockId,
    },
    /// First datagram from a new remote carved connection `sock` off the
    /// listener (datagram queued on it); wake acceptors.
    NewConn {
        /// The freshly carved connection socket.
        sock: SockId,
    },
    /// Dropped (counted under the matching [`NetStats`] bucket).
    Dropped {
        /// Which bucket counted it.
        reason: DropReason,
    },
}

/// Largest datagram the stack accepts (a generous classic UDP bound).
pub const MAX_DGRAM: usize = 32 * 1024;

/// splitmix64: the same generator `khw::FaultPlan` uses, so link draws
/// are deterministic by occurrence index and independent of call sites.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A per-host wire model: serialisation bandwidth, propagation latency
/// with a jittered tail, and a packet-loss rate. All randomness comes
/// from `seed` via a per-link occurrence counter, so a run is a pure
/// function of its seeds.
#[derive(Clone, Copy, Debug)]
pub struct LinkModel {
    /// Serialisation bandwidth, bytes per second.
    pub bps: u64,
    /// Base one-way propagation latency.
    pub base_latency: Dur,
    /// Additional per-packet latency, drawn uniformly from
    /// `[0, jitter]`. Delivery order per link stays FIFO: a draw never
    /// reorders datagrams, it only stretches the tail.
    pub jitter: Dur,
    /// Per-packet loss probability in parts per million.
    pub loss_ppm: u32,
    /// Seed of the draw stream.
    pub seed: u64,
}

struct LinkState {
    model: LinkModel,
    busy_until: SimTime,
    /// FIFO clamp: no datagram arrives before one sent earlier.
    last_arrival: SimTime,
    /// Occurrence counter for the draw stream.
    seq: u64,
}

impl LinkState {
    fn draw(&mut self) -> u64 {
        self.seq += 1;
        splitmix64(self.model.seed ^ self.seq.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }
}

struct Listener {
    backlog: usize,
    /// Carved, not-yet-accepted connections, oldest first.
    pending: VecDeque<SockId>,
    /// Demultiplexer: source socket → connection socket.
    conns: IdMap<SockId, SockId>,
}

struct Socket {
    host: u32,
    local_port: Option<u16>,
    peer: Option<NetAddr>,
    /// Wired peer socket (connection sockets): replies route here
    /// directly, bypassing the port namespace.
    peer_sock: Option<SockId>,
    /// Set when listening.
    listener: Option<Listener>,
    /// Back-pointer for connection sockets: (listener, demux key).
    on_listener: Option<(SockId, SockId)>,
    /// Carved and still on its listener's backlog: set by `deliver`,
    /// cleared by `accept`, so `close` scans the backlog only for a
    /// connection that is actually on it.
    in_backlog: bool,
    rcv_queue: VecDeque<Datagram>,
    rcv_used: usize,
    rcv_limit: usize,
    snd_limit: usize,
    open: bool,
}

/// Cumulative network counters. Datagram counts and payload-byte counts
/// move together, so `bytes_sent == bytes_delivered + bytes_lost_link +
/// bytes_dropped_*` holds exactly once the wire drains. Delivered bytes
/// further split into read-by-the-app, still-queued (`rcv_used`), and
/// thrown-away-at-close (`bytes_discarded_close`) — the scenario
/// property suite audits both identities.
#[derive(Clone, Copy, Default, Debug)]
pub struct NetStats {
    /// Datagrams committed by `send` (serialised onto a wire).
    pub sent: u64,
    /// Payload bytes committed by `send`.
    pub bytes_sent: u64,
    /// Datagrams queued to a receiver.
    pub delivered: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
    /// Datagrams with no receiver: nothing bound at send time, or the
    /// destination closed before arrival.
    pub dropped_no_listener: u64,
    /// Payload bytes of `dropped_no_listener` datagrams.
    pub bytes_dropped_no_listener: u64,
    /// Datagrams dropped because the receive buffer was full.
    pub dropped_rcv_full: u64,
    /// Payload bytes of `dropped_rcv_full` datagrams.
    pub bytes_dropped_rcv_full: u64,
    /// Connection-opening datagrams refused by a full accept backlog.
    pub dropped_backlog: u64,
    /// Payload bytes of `dropped_backlog` datagrams.
    pub bytes_dropped_backlog: u64,
    /// Datagrams eaten by the link model's loss draw.
    pub lost_link: u64,
    /// Payload bytes of `lost_link` datagrams.
    pub bytes_lost_link: u64,
    /// Datagrams already counted `delivered` that were then thrown away
    /// by `close` while still queued (the receiver never read them).
    pub discarded_close: u64,
    /// Payload bytes of `discarded_close` datagrams.
    pub bytes_discarded_close: u64,
    /// `send` attempts bounced with [`NetErr::WouldBlock`] (not counted
    /// in `sent`; the caller retries).
    pub snd_blocked: u64,
    /// Connection sockets carved off listeners.
    pub conns_opened: u64,
    /// Deepest pending-connection queue any listener reached — how close
    /// the accept loop came to shedding load at the backlog limit.
    pub backlog_peak: u64,
}

impl NetStats {
    /// Total datagrams dropped after being committed to the wire, all
    /// buckets (loss excluded: see `lost_link`).
    pub fn dropped(&self) -> u64 {
        self.dropped_no_listener + self.dropped_rcv_full + self.dropped_backlog
    }
}

/// The network stack state.
pub struct Net {
    socks: Vec<Socket>,
    ports: IdMap<NetAddr, SockId>,
    /// Per-host modelled links (destination host → link).
    links: IdMap<u32, LinkState>,
    /// Legacy off-host link: serialised bandwidth + propagation delay,
    /// used for destination hosts without a [`LinkModel`].
    link_bps: u64,
    link_latency: Dur,
    link_busy_until: SimTime,
    /// Loopback delivery delay (protocol queue hop; the CPU cost is
    /// charged by the kernel separately).
    loopback_delay: Dur,
    rcv_limit: usize,
    snd_limit: usize,
    stats: NetStats,
}

impl Net {
    /// A stack with a 10 Mbit/s off-host link (the era's Ethernet) and
    /// 64 KB socket buffers.
    pub fn new() -> Net {
        Net {
            socks: Vec::new(),
            ports: IdMap::default(),
            links: IdMap::default(),
            link_bps: 1_250_000,
            link_latency: Dur::from_us(1000),
            link_busy_until: SimTime::ZERO,
            loopback_delay: Dur::from_us(50),
            rcv_limit: 64 * 1024,
            snd_limit: 64 * 1024,
            stats: NetStats::default(),
        }
    }

    /// Overrides the receive-buffer limit for new sockets (connection
    /// sockets inherit the listener's limit).
    pub fn set_rcv_limit(&mut self, limit: usize) {
        self.rcv_limit = limit;
    }

    /// Overrides the send-buffer limit for new sockets. Only enforced on
    /// modelled links (see [`LinkModel`]).
    pub fn set_snd_limit(&mut self, limit: usize) {
        self.snd_limit = limit;
    }

    /// Installs (or replaces) the wire model for traffic *to* `host`.
    /// With a model installed, even same-host traffic to `host` is
    /// shaped — the scenario driver's way of putting clients behind a
    /// wire without multi-host process placement.
    pub fn set_link_model(&mut self, host: u32, model: LinkModel) {
        self.links.insert(
            host,
            LinkState {
                model,
                busy_until: SimTime::ZERO,
                last_arrival: SimTime::ZERO,
                seq: 0,
            },
        );
    }

    /// Counters so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    fn sock(&self, id: SockId) -> Result<&Socket, NetErr> {
        self.socks
            .get(id.0 as usize)
            .filter(|s| s.open)
            .ok_or(NetErr::BadSocket)
    }

    fn sock_mut(&mut self, id: SockId) -> Result<&mut Socket, NetErr> {
        self.socks
            .get_mut(id.0 as usize)
            .filter(|s| s.open)
            .ok_or(NetErr::BadSocket)
    }

    /// Creates a UDP socket on `host`.
    pub fn socket(&mut self, host: u32) -> SockId {
        let id = SockId(self.socks.len() as u32);
        self.socks.push(Socket {
            host,
            local_port: None,
            peer: None,
            peer_sock: None,
            listener: None,
            on_listener: None,
            in_backlog: false,
            rcv_queue: VecDeque::new(),
            rcv_used: 0,
            rcv_limit: self.rcv_limit,
            snd_limit: self.snd_limit,
            open: true,
        });
        id
    }

    /// Closes a socket, releasing its port and dropping queued data.
    ///
    /// Closing a **listener** also closes its not-yet-accepted pending
    /// connections and detaches already-accepted ones (they live on,
    /// unwired from the dead listener). Closing a **connection** removes
    /// it from its listener's demultiplexer so the remote may reconnect.
    pub fn close(&mut self, id: SockId) -> Result<(), NetErr> {
        let (host, port, on_listener, in_backlog, listener, thrown, thrown_bytes) = {
            let s = self.sock_mut(id)?;
            s.open = false;
            let thrown = s.rcv_queue.len() as u64;
            let thrown_bytes = s.rcv_used as u64;
            s.rcv_queue.clear();
            s.rcv_used = 0;
            (
                s.host,
                s.local_port,
                s.on_listener.take(),
                std::mem::take(&mut s.in_backlog),
                s.listener.take(),
                thrown,
                thrown_bytes,
            )
        };
        self.stats.discarded_close += thrown;
        self.stats.bytes_discarded_close += thrown_bytes;
        if let Some(p) = port {
            let addr = NetAddr { host, port: p };
            // Connection sockets share the listener's port without owning
            // the namespace entry: only the owner unbinds it.
            if self.ports.get(&addr) == Some(&id) {
                self.ports.remove(&addr);
            }
        }
        if let Some(lst) = listener {
            for conn in lst.pending {
                let _ = self.close(conn);
            }
            let mut accepted: Vec<SockId> = lst.conns.into_values().collect();
            accepted.sort();
            for conn in accepted {
                if let Ok(s) = self.sock_mut(conn) {
                    s.on_listener = None;
                }
            }
        }
        if let Some((lst, key)) = on_listener {
            if let Ok(l) = self.sock_mut(lst) {
                if let Some(listener) = l.listener.as_mut() {
                    listener.conns.remove(&key);
                    if in_backlog {
                        listener.pending.retain(|c| *c != id);
                    }
                }
            }
        }
        Ok(())
    }

    /// Binds a socket to a local port.
    pub fn bind(&mut self, id: SockId, port: u16) -> Result<(), NetErr> {
        let host = self.sock(id)?.host;
        let addr = NetAddr { host, port };
        if self.ports.contains_key(&addr) {
            return Err(NetErr::PortInUse);
        }
        self.sock_mut(id)?.local_port = Some(port);
        self.ports.insert(addr, id);
        Ok(())
    }

    /// Sets the peer address for `send`.
    pub fn connect(&mut self, id: SockId, peer: NetAddr) -> Result<(), NetErr> {
        self.sock_mut(id)?.peer = Some(peer);
        Ok(())
    }

    /// Marks a bound socket as a listener with an accept backlog of
    /// `backlog` not-yet-accepted connections. Re-listening adjusts the
    /// backlog.
    pub fn listen(&mut self, id: SockId, backlog: u32) -> Result<(), NetErr> {
        let s = self.sock_mut(id)?;
        if s.local_port.is_none() {
            return Err(NetErr::NotBound);
        }
        match s.listener.as_mut() {
            Some(l) => l.backlog = backlog as usize,
            None => {
                s.listener = Some(Listener {
                    backlog: backlog as usize,
                    pending: VecDeque::new(),
                    conns: IdMap::default(),
                })
            }
        }
        Ok(())
    }

    /// Takes the oldest pending connection off a listener's backlog.
    /// `Ok(None)` means the backlog is empty (the kernel sleeps the
    /// caller until a connection arrives).
    pub fn accept(&mut self, id: SockId) -> Result<Option<SockId>, NetErr> {
        let s = self.sock_mut(id)?;
        let Some(l) = s.listener.as_mut() else {
            return Err(NetErr::NotBound);
        };
        let conn = l.pending.pop_front();
        if let Some(c) = conn {
            self.socks[c.0 as usize].in_backlog = false;
        }
        Ok(conn)
    }

    /// True if the socket is a listener.
    pub fn is_listening(&self, id: SockId) -> bool {
        self.sock(id).map(|s| s.listener.is_some()).unwrap_or(false)
    }

    /// Carved-but-unaccepted connections on a listener.
    pub fn pending_conns(&self, id: SockId) -> usize {
        self.sock(id)
            .ok()
            .and_then(|s| s.listener.as_ref())
            .map(|l| l.pending.len())
            .unwrap_or(0)
    }

    /// Live connections in a listener's demultiplexer (pending plus
    /// accepted-and-open).
    pub fn conn_count(&self, id: SockId) -> usize {
        self.sock(id)
            .ok()
            .and_then(|s| s.listener.as_ref())
            .map(|l| l.conns.len())
            .unwrap_or(0)
    }

    /// The socket's bound port, if any.
    pub fn local_port(&self, id: SockId) -> Option<u16> {
        self.sock(id).ok().and_then(|s| s.local_port)
    }

    /// The socket's connected peer, if any.
    pub fn peer(&self, id: SockId) -> Option<NetAddr> {
        self.sock(id).ok().and_then(|s| s.peer)
    }

    /// Open sockets (leak checks).
    pub fn open_socks(&self) -> usize {
        self.socks.iter().filter(|s| s.open).count()
    }

    /// Bytes queued unread across every open socket (exact-accounting
    /// term for receivers that stopped consuming).
    pub fn total_rcv_used(&self) -> usize {
        self.socks
            .iter()
            .filter(|s| s.open)
            .map(|s| s.rcv_used)
            .sum()
    }

    /// Serialisation backlog of the modelled link to `host`, in bytes,
    /// as of `now`. Zero for unmodelled hosts.
    fn link_backlog_bytes(&self, now: SimTime, host: u32) -> u64 {
        let Some(link) = self.links.get(&host) else {
            return 0;
        };
        let wait = link.busy_until.saturating_since(now);
        // bytes = bps * seconds, computed in ns to avoid floats.
        wait.as_ns().saturating_mul(link.model.bps) / 1_000_000_000
    }

    /// Destination host of `id`'s sends (its peer's host), if connected.
    fn peer_host(&self, id: SockId) -> Option<u32> {
        self.sock(id).ok().and_then(|s| s.peer).map(|p| p.host)
    }

    /// True if a `send` of `len` bytes from `id` would bounce with
    /// [`NetErr::WouldBlock`] right now. Pure: no draws, no counters.
    /// Zero-byte datagrams (connection requests) carry no serialisation
    /// payload and never block.
    pub fn send_would_block(&self, now: SimTime, id: SockId, len: usize) -> bool {
        if len == 0 {
            return false;
        }
        let Some(host) = self.peer_host(id) else {
            return false;
        };
        if !self.links.contains_key(&host) {
            return false;
        }
        let limit = self.sock(id).map(|s| s.snd_limit as u64).unwrap_or(0);
        self.link_backlog_bytes(now, host) + len as u64 > limit
    }

    /// Earliest time a blocked `send` of `len` bytes from `id` can be
    /// retried: when the link backlog has drained to fit the datagram in
    /// the send buffer again. Never before `now`.
    pub fn link_ready_at(&self, now: SimTime, id: SockId, len: usize) -> SimTime {
        let Some(host) = self.peer_host(id) else {
            return now;
        };
        let Some(link) = self.links.get(&host) else {
            return now;
        };
        let limit = self.sock(id).map(|s| s.snd_limit as u64).unwrap_or(0);
        let allowed = limit.saturating_sub(len as u64);
        let drain = Dur::for_bytes(allowed, link.model.bps);
        let ready = SimTime::from_ns(link.busy_until.as_ns().saturating_sub(drain.as_ns()));
        if ready > now {
            ready
        } else {
            now
        }
    }

    /// Computes the transmission of `len` payload bytes from `id` to its
    /// peer: who receives it and when. The kernel schedules the delivery.
    ///
    /// On a modelled link this may bounce with [`NetErr::WouldBlock`]
    /// (send buffer full) — nothing is committed, the caller retries at
    /// [`Net::link_ready_at`] — or commit the bytes and lose them to the
    /// loss draw (`dst: None`, counted under `lost_link`).
    pub fn send(&mut self, now: SimTime, id: SockId, len: usize) -> Result<TxInfo, NetErr> {
        if len > MAX_DGRAM {
            return Err(NetErr::MsgTooBig);
        }
        let (host, peer, peer_sock, snd_limit) = {
            let s = self.sock(id)?;
            (
                s.host,
                s.peer.ok_or(NetErr::NotConnected)?,
                s.peer_sock,
                s.snd_limit as u64,
            )
        };

        // Resolve the receiver: wired connections route straight to the
        // peer socket, everything else through the port namespace.
        let dst = match peer_sock {
            Some(ps) => self.sock(ps).ok().map(|_| ps),
            None => self
                .ports
                .get(&peer)
                .copied()
                .filter(|d| self.sock(*d).is_ok()),
        };

        let (arrival, lost) = if self.links.contains_key(&peer.host) {
            if len > 0 && self.link_backlog_bytes(now, peer.host) + len as u64 > snd_limit {
                self.stats.snd_blocked += 1;
                return Err(NetErr::WouldBlock);
            }
            let link = self.links.get_mut(&peer.host).expect("checked above");
            let start = if now > link.busy_until {
                now
            } else {
                link.busy_until
            };
            let end = start + Dur::for_bytes(len as u64, link.model.bps);
            link.busy_until = end;
            let jitter = if link.model.jitter.is_zero() {
                Dur::ZERO
            } else {
                let span = link.model.jitter.as_ns() + 1;
                Dur::from_ns(link.draw() % span)
            };
            let mut arrival = end + link.model.base_latency + jitter;
            // FIFO clamp: jitter stretches the tail, never reorders.
            if link.last_arrival > arrival {
                arrival = link.last_arrival;
            }
            link.last_arrival = arrival;
            let lost =
                link.model.loss_ppm > 0 && link.draw() % 1_000_000 < link.model.loss_ppm as u64;
            (arrival, lost)
        } else if peer.host == host {
            (now + self.loopback_delay, false)
        } else {
            let start = if now > self.link_busy_until {
                now
            } else {
                self.link_busy_until
            };
            let end = start + Dur::for_bytes(len as u64, self.link_bps);
            self.link_busy_until = end;
            (end + self.link_latency, false)
        };

        self.stats.sent += 1;
        self.stats.bytes_sent += len as u64;
        let (dst, gone) = if dst.is_none() {
            self.stats.dropped_no_listener += 1;
            self.stats.bytes_dropped_no_listener += len as u64;
            (None, Some(TxGone::NoReceiver))
        } else if lost {
            self.stats.lost_link += 1;
            self.stats.bytes_lost_link += len as u64;
            (None, Some(TxGone::Lost))
        } else {
            (dst, None)
        };
        Ok(TxInfo { arrival, dst, gone })
    }

    /// Source address a datagram from `id` carries.
    pub fn source_addr(&self, id: SockId) -> Result<NetAddr, NetErr> {
        let s = self.sock(id)?;
        Ok(NetAddr {
            host: s.host,
            port: s.local_port.unwrap_or(0),
        })
    }

    /// Queues `dgram` on `sock`, enforcing the receive-buffer limit.
    fn queue_into(&mut self, sock: SockId, dgram: Datagram) -> DeliverOutcome {
        let s = &mut self.socks[sock.0 as usize];
        if s.rcv_used + dgram.data.len() > s.rcv_limit {
            self.stats.dropped_rcv_full += 1;
            self.stats.bytes_dropped_rcv_full += dgram.data.len() as u64;
            return DeliverOutcome::Dropped {
                reason: DropReason::RcvFull,
            };
        }
        let bytes = dgram.data.len() as u64;
        s.rcv_used += dgram.data.len();
        s.rcv_queue.push_back(dgram);
        self.stats.delivered += 1;
        self.stats.bytes_delivered += bytes;
        DeliverOutcome::Queued { sock }
    }

    /// Delivers a datagram addressed to `dst`. If `dst` is a listener
    /// the datagram is demultiplexed by its source socket: known sources
    /// feed their connection's receive buffer; a new source carves a
    /// connection (backlog permitting) that inherits the listener's port
    /// and buffer limits and is wired back to the source socket.
    pub fn deliver(&mut self, dst: SockId, dgram: Datagram) -> DeliverOutcome {
        let Ok(s) = self.sock(dst) else {
            self.stats.dropped_no_listener += 1;
            self.stats.bytes_dropped_no_listener += dgram.data.len() as u64;
            return DeliverOutcome::Dropped {
                reason: DropReason::NoReceiver,
            };
        };
        if s.listener.is_none() {
            return self.queue_into(dst, dgram);
        }

        let key = dgram.src_sock;
        let l = self.socks[dst.0 as usize]
            .listener
            .as_ref()
            .expect("checked above");
        if let Some(&conn) = l.conns.get(&key) {
            if self.sock(conn).is_ok() {
                return self.queue_into(conn, dgram);
            }
            self.stats.dropped_no_listener += 1;
            self.stats.bytes_dropped_no_listener += dgram.data.len() as u64;
            return DeliverOutcome::Dropped {
                reason: DropReason::NoReceiver,
            };
        }
        if l.pending.len() >= l.backlog {
            self.stats.dropped_backlog += 1;
            self.stats.bytes_dropped_backlog += dgram.data.len() as u64;
            return DeliverOutcome::Dropped {
                reason: DropReason::Backlog,
            };
        }

        // Carve the connection: it shares the listener's port (without
        // owning the namespace entry) and is wired to the source socket.
        let (host, port, rcv_limit, snd_limit) = {
            let s = &self.socks[dst.0 as usize];
            (s.host, s.local_port, s.rcv_limit, s.snd_limit)
        };
        let conn = SockId(self.socks.len() as u32);
        self.socks.push(Socket {
            host,
            local_port: port,
            peer: Some(dgram.src),
            peer_sock: Some(key),
            listener: None,
            on_listener: Some((dst, key)),
            in_backlog: true,
            rcv_queue: VecDeque::new(),
            rcv_used: 0,
            rcv_limit,
            snd_limit,
            open: true,
        });
        let l = self.socks[dst.0 as usize]
            .listener
            .as_mut()
            .expect("checked above");
        l.pending.push_back(conn);
        self.stats.backlog_peak = self.stats.backlog_peak.max(l.pending.len() as u64);
        l.conns.insert(key, conn);
        self.stats.conns_opened += 1;
        match self.queue_into(conn, dgram) {
            DeliverOutcome::Queued { .. } | DeliverOutcome::NewConn { .. } => {
                DeliverOutcome::NewConn { sock: conn }
            }
            // A first datagram larger than the receive buffer still
            // opens the connection; the payload is counted dropped.
            dropped => {
                let _ = dropped;
                DeliverOutcome::NewConn { sock: conn }
            }
        }
    }

    /// Puts a datagram back at the *front* of the receive queue (an
    /// in-kernel consumer hit a transient resource shortage and will
    /// retry).
    pub fn requeue_front(&mut self, id: SockId, d: Datagram) -> Result<(), NetErr> {
        let s = self.sock_mut(id)?;
        s.rcv_used += d.data.len();
        s.rcv_queue.push_front(d);
        Ok(())
    }

    /// Removes the next queued datagram, if any.
    pub fn recv(&mut self, id: SockId) -> Result<Option<Datagram>, NetErr> {
        let s = self.sock_mut(id)?;
        let d = s.rcv_queue.pop_front();
        if let Some(ref d) = d {
            s.rcv_used -= d.data.len();
        }
        Ok(d)
    }

    /// True if a `recv` would succeed immediately.
    pub fn rcv_ready(&self, id: SockId) -> bool {
        self.sock(id)
            .map(|s| !s.rcv_queue.is_empty())
            .unwrap_or(false)
    }

    /// Datagrams queued on the receive side. Splice stream sources use
    /// this to issue at most one in-kernel pull per queued datagram.
    pub fn rcv_depth(&self, id: SockId) -> usize {
        self.sock(id).map(|s| s.rcv_queue.len()).unwrap_or(0)
    }

    /// Bytes queued on the receive side.
    pub fn rcv_used(&self, id: SockId) -> usize {
        self.sock(id).map(|s| s.rcv_used).unwrap_or(0)
    }
}

impl Default for Net {
    fn default() -> Self {
        Net::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOST: u32 = 1;

    fn dgram(net: &Net, from: SockId, len: usize) -> Datagram {
        Datagram {
            src: net.source_addr(from).unwrap(),
            src_sock: from,
            data: vec![7; len],
        }
    }

    fn pair(net: &mut Net, port: u16) -> (SockId, SockId) {
        let a = net.socket(HOST);
        let b = net.socket(HOST);
        net.bind(b, port).unwrap();
        net.connect(a, NetAddr { host: HOST, port }).unwrap();
        (a, b)
    }

    #[test]
    fn close_counts_discarded_queued_datagrams() {
        let mut net = Net::new();
        let (a, b) = pair(&mut net, 9);
        assert!(matches!(
            net.deliver(b, dgram(&net, a, 100)),
            DeliverOutcome::Queued { .. }
        ));
        assert!(matches!(
            net.deliver(b, dgram(&net, a, 50)),
            DeliverOutcome::Queued { .. }
        ));
        net.close(b).unwrap();
        let st = net.stats();
        assert_eq!(st.discarded_close, 2);
        assert_eq!(st.bytes_discarded_close, 150);
        // They stay counted as delivered: discard is a sub-bucket.
        assert_eq!(st.delivered, 2);
        assert_eq!(st.bytes_delivered, 150);
    }

    #[test]
    fn loopback_send_recv() {
        let mut net = Net::new();
        let (a, b) = pair(&mut net, 9);
        let tx = net.send(SimTime::ZERO, a, 100).unwrap();
        assert_eq!(tx.dst, Some(b));
        assert_eq!(tx.gone, None);
        assert!(tx.arrival > SimTime::ZERO);
        let d = dgram(&net, a, 100);
        assert_eq!(
            net.deliver(b, d.clone()),
            DeliverOutcome::Queued { sock: b }
        );
        assert!(net.rcv_ready(b));
        assert_eq!(net.recv(b).unwrap(), Some(d));
        assert!(!net.rcv_ready(b));
        assert_eq!(net.rcv_used(b), 0);
    }

    #[test]
    fn unbound_destination_counts_no_listener_only() {
        let mut net = Net::new();
        let a = net.socket(HOST);
        net.connect(
            a,
            NetAddr {
                host: HOST,
                port: 99,
            },
        )
        .unwrap();
        let tx = net.send(SimTime::ZERO, a, 10).unwrap();
        assert_eq!(tx.dst, None);
        assert_eq!(tx.gone, Some(TxGone::NoReceiver));
        assert_eq!(net.stats().dropped_no_listener, 1);
        assert_eq!(net.stats().bytes_dropped_no_listener, 10);
        assert_eq!(net.stats().dropped_rcv_full, 0, "taxonomy is disjoint");
        assert_eq!(net.stats().dropped(), 1);
    }

    #[test]
    fn full_receive_buffer_counts_rcv_full_only() {
        let mut net = Net::new();
        net.set_rcv_limit(150);
        let (a, b) = pair(&mut net, 9);
        let big = dgram(&net, a, 100);
        assert_eq!(
            net.deliver(b, big.clone()),
            DeliverOutcome::Queued { sock: b }
        );
        assert_eq!(
            net.deliver(b, big),
            DeliverOutcome::Dropped {
                reason: DropReason::RcvFull
            }
        );
        assert_eq!(net.stats().delivered, 1);
        assert_eq!(net.stats().dropped_rcv_full, 1);
        assert_eq!(net.stats().bytes_dropped_rcv_full, 100);
        assert_eq!(net.stats().dropped_no_listener, 0, "taxonomy is disjoint");
    }

    #[test]
    fn port_collision_rejected() {
        let mut net = Net::new();
        let a = net.socket(HOST);
        let b = net.socket(HOST);
        net.bind(a, 9).unwrap();
        assert_eq!(net.bind(b, 9), Err(NetErr::PortInUse));
        // Same port on another host is fine.
        let c = net.socket(2);
        assert_eq!(net.bind(c, 9), Ok(()));
    }

    #[test]
    fn close_releases_port_and_rejects_use() {
        let mut net = Net::new();
        let a = net.socket(HOST);
        net.bind(a, 9).unwrap();
        net.close(a).unwrap();
        assert_eq!(net.recv(a), Err(NetErr::BadSocket));
        let b = net.socket(HOST);
        assert_eq!(net.bind(b, 9), Ok(()), "port freed by close");
    }

    #[test]
    fn remote_link_serialises_and_adds_latency() {
        let mut net = Net::new();
        let a = net.socket(HOST);
        let b = net.socket(2);
        net.bind(b, 7).unwrap();
        net.connect(a, NetAddr { host: 2, port: 7 }).unwrap();
        let t1 = net.send(SimTime::ZERO, a, 1250).unwrap(); // 1ms wire at 10 Mbit
        let t2 = net.send(SimTime::ZERO, a, 1250).unwrap();
        assert!(
            t2.arrival > t1.arrival,
            "link serialises back-to-back sends"
        );
        assert!(t1.arrival >= SimTime::ZERO + Dur::from_us(2000)); // wire + latency
    }

    #[test]
    fn oversized_datagram_rejected() {
        let mut net = Net::new();
        let (a, _b) = pair(&mut net, 9);
        assert_eq!(
            net.send(SimTime::ZERO, a, MAX_DGRAM + 1),
            Err(NetErr::MsgTooBig)
        );
    }

    #[test]
    fn requeue_front_preserves_order_and_accounting() {
        let mut net = Net::new();
        let (a, b) = pair(&mut net, 9);
        let mut d1 = dgram(&net, a, 10);
        d1.data = vec![1; 10];
        let mut d2 = dgram(&net, a, 10);
        d2.data = vec![2; 10];
        net.deliver(b, d1.clone());
        net.deliver(b, d2.clone());
        let got = net.recv(b).unwrap().unwrap();
        assert_eq!(got, d1);
        net.requeue_front(b, got).unwrap();
        assert_eq!(net.rcv_used(b), 20);
        assert_eq!(
            net.recv(b).unwrap().unwrap(),
            d1,
            "requeued dgram comes first"
        );
        assert_eq!(net.recv(b).unwrap().unwrap(), d2);
    }

    #[test]
    fn send_without_connect_fails() {
        let mut net = Net::new();
        let a = net.socket(HOST);
        assert_eq!(net.send(SimTime::ZERO, a, 10), Err(NetErr::NotConnected));
    }

    // ----- connection layer ------------------------------------------------

    fn listener(net: &mut Net, port: u16, backlog: u32) -> SockId {
        let l = net.socket(HOST);
        net.bind(l, port).unwrap();
        net.listen(l, backlog).unwrap();
        l
    }

    fn client(net: &mut Net, port: u16) -> SockId {
        let c = net.socket(HOST);
        net.connect(c, NetAddr { host: HOST, port }).unwrap();
        c
    }

    #[test]
    fn listen_requires_bound_port() {
        let mut net = Net::new();
        let s = net.socket(HOST);
        assert_eq!(net.listen(s, 4), Err(NetErr::NotBound));
        assert_eq!(net.accept(s), Err(NetErr::NotBound));
    }

    #[test]
    fn first_datagram_carves_connection() {
        let mut net = Net::new();
        let l = listener(&mut net, 80, 8);
        let c = client(&mut net, 80);
        let tx = net.send(SimTime::ZERO, c, 0).unwrap();
        assert_eq!(tx.dst, Some(l), "addressed to the listener");
        let DeliverOutcome::NewConn { sock: conn } = net.deliver(l, dgram(&net, c, 0)) else {
            panic!("expected a new connection");
        };
        assert_eq!(net.stats().conns_opened, 1);
        assert_eq!(net.pending_conns(l), 1);
        assert_eq!(net.stats().backlog_peak, 1, "peak tracks the pending queue");
        assert_eq!(net.accept(l).unwrap(), Some(conn));
        assert_eq!(net.pending_conns(l), 0);
        assert_eq!(net.accept(l).unwrap(), None, "backlog drained");
        assert_eq!(net.stats().backlog_peak, 1, "peak is sticky across accepts");
        // The connection shares the listener's port and is wired back.
        assert_eq!(net.local_port(conn), Some(80));
        assert_eq!(net.peer(conn), net.source_addr(c).ok());
        // A second datagram from the same source demultiplexes into it.
        assert_eq!(
            net.deliver(l, dgram(&net, c, 100)),
            DeliverOutcome::Queued { sock: conn }
        );
        assert_eq!(net.rcv_used(conn), 100);
    }

    #[test]
    fn replies_route_to_the_wired_peer_socket() {
        let mut net = Net::new();
        let l = listener(&mut net, 80, 8);
        let c = client(&mut net, 80);
        net.deliver(l, dgram(&net, c, 0));
        let conn = net.accept(l).unwrap().unwrap();
        let tx = net.send(SimTime::ZERO, conn, 500).unwrap();
        assert_eq!(
            tx.dst,
            Some(c),
            "reply bypasses the port namespace (client is unbound)"
        );
    }

    #[test]
    fn backlog_overflow_refuses_without_carving() {
        let mut net = Net::new();
        let l = listener(&mut net, 80, 2);
        let socks_before = {
            let c1 = client(&mut net, 80);
            let c2 = client(&mut net, 80);
            let c3 = client(&mut net, 80);
            net.deliver(l, dgram(&net, c1, 0));
            net.deliver(l, dgram(&net, c2, 0));
            let before = net.open_socks();
            assert_eq!(
                net.deliver(l, dgram(&net, c3, 0)),
                DeliverOutcome::Dropped {
                    reason: DropReason::Backlog
                }
            );
            before
        };
        assert_eq!(net.stats().dropped_backlog, 1);
        assert_eq!(net.open_socks(), socks_before, "refusal carves no socket");
        assert_eq!(net.conn_count(l), 2);
        // Accepting one frees a slot: the refused client may retry.
        let c3 = client(&mut net, 80);
        net.accept(l).unwrap().unwrap();
        assert!(matches!(
            net.deliver(l, dgram(&net, c3, 0)),
            DeliverOutcome::NewConn { .. }
        ));
    }

    #[test]
    fn closing_connection_frees_demux_slot() {
        let mut net = Net::new();
        let l = listener(&mut net, 80, 4);
        let c = client(&mut net, 80);
        net.deliver(l, dgram(&net, c, 0));
        let conn = net.accept(l).unwrap().unwrap();
        net.close(conn).unwrap();
        assert_eq!(net.conn_count(l), 0, "demux entry freed");
        // The same source reconnects into a fresh connection.
        assert!(matches!(
            net.deliver(l, dgram(&net, c, 0)),
            DeliverOutcome::NewConn { .. }
        ));
    }

    /// Carves a connection off `l` from a fresh client.
    fn carve(net: &mut Net, l: SockId) -> SockId {
        let c = client(net, net.local_port(l).unwrap());
        let DeliverOutcome::NewConn { sock } = net.deliver(l, dgram(net, c, 0)) else {
            panic!("expected a new connection");
        };
        sock
    }

    #[test]
    fn closing_pending_connection_removes_it_from_the_backlog() {
        let mut net = Net::new();
        let l = listener(&mut net, 80, 4);
        let conns: Vec<SockId> = (0..3).map(|_| carve(&mut net, l)).collect();
        net.close(conns[1]).unwrap();
        assert_eq!(net.pending_conns(l), 2);
        assert_eq!(net.conn_count(l), 2, "demux entry freed");
        assert_eq!(net.accept(l).unwrap(), Some(conns[0]));
        assert_eq!(net.accept(l).unwrap(), Some(conns[2]));
        assert_eq!(
            net.accept(l).unwrap(),
            None,
            "the closed one is never accepted"
        );
    }

    #[test]
    fn closing_accepted_connection_keeps_backlog_order() {
        let mut net = Net::new();
        let l = listener(&mut net, 80, 8);
        let conns: Vec<SockId> = (0..4).map(|_| carve(&mut net, l)).collect();
        assert_eq!(net.accept(l).unwrap(), Some(conns[0]));
        net.close(conns[0]).unwrap();
        assert_eq!(net.pending_conns(l), 3);
        for &conn in &conns[1..] {
            assert_eq!(net.accept(l).unwrap(), Some(conn));
        }
        assert_eq!(net.accept(l).unwrap(), None);
    }

    #[test]
    fn closing_listener_reaps_pending_and_detaches_accepted() {
        let mut net = Net::new();
        let l = listener(&mut net, 80, 4);
        let c1 = client(&mut net, 80);
        let c2 = client(&mut net, 80);
        net.deliver(l, dgram(&net, c1, 0));
        net.deliver(l, dgram(&net, c2, 0));
        let accepted = net.accept(l).unwrap().unwrap();
        let open_before = net.open_socks();
        net.close(l).unwrap();
        // Listener and the one pending connection die; the accepted one
        // survives and can still be closed cleanly afterwards.
        assert_eq!(net.open_socks(), open_before - 2);
        assert!(net.recv(accepted).is_ok());
        net.close(accepted).unwrap();
        // The port is free again.
        let n = net.socket(HOST);
        assert_eq!(net.bind(n, 80), Ok(()));
    }

    // ----- link model ------------------------------------------------------

    fn model(loss_ppm: u32) -> LinkModel {
        LinkModel {
            bps: 1_000_000,
            base_latency: Dur::from_us(100),
            jitter: Dur::from_us(50),
            loss_ppm,
            seed: 42,
        }
    }

    #[test]
    fn link_model_is_deterministic_by_occurrence() {
        let run = |seed: u64| {
            let mut net = Net::new();
            net.set_link_model(
                HOST,
                LinkModel {
                    seed,
                    ..model(200_000)
                },
            );
            let (a, _b) = pair(&mut net, 9);
            let arrivals: Vec<u64> = (0..20)
                .map(|_| {
                    net.send(SimTime::ZERO, a, 1000)
                        .unwrap()
                        .arrival
                        .since(SimTime::ZERO)
                        .as_ns()
                })
                .collect();
            (arrivals, net.stats().lost_link)
        };
        assert_eq!(run(42), run(42), "same seed, same wire");
        assert_ne!(run(42), run(43), "different seed, different draws");
    }

    #[test]
    fn link_model_jitter_never_reorders() {
        let mut net = Net::new();
        net.set_link_model(HOST, model(0));
        let (a, _b) = pair(&mut net, 9);
        let mut last = 0;
        for _ in 0..50 {
            let t = net
                .send(SimTime::ZERO, a, 100)
                .unwrap()
                .arrival
                .since(SimTime::ZERO)
                .as_ns();
            assert!(t >= last, "FIFO per link");
            last = t;
        }
    }

    #[test]
    fn link_loss_counts_bytes_exactly() {
        let mut net = Net::new();
        net.set_link_model(
            HOST,
            LinkModel {
                jitter: Dur::ZERO,
                ..model(500_000)
            },
        );
        let (a, _b) = pair(&mut net, 9);
        let mut sent_bytes = 0u64;
        for _ in 0..200 {
            // Stay under the send buffer: tiny payloads.
            let tx = net.send(SimTime::ZERO, a, 10).unwrap();
            sent_bytes += 10;
            if tx.dst.is_none() {
                assert_eq!(tx.gone, Some(TxGone::Lost));
            }
        }
        let st = net.stats();
        assert!(st.lost_link > 0, "ppm=500000 over 200 draws");
        assert_eq!(st.bytes_lost_link, st.lost_link * 10);
        assert_eq!(st.bytes_sent, sent_bytes);
    }

    #[test]
    fn send_buffer_backpressure_bounces_and_reports_ready_time() {
        let mut net = Net::new();
        net.set_snd_limit(2_000);
        net.set_link_model(
            HOST,
            LinkModel {
                jitter: Dur::ZERO,
                loss_ppm: 0,
                ..model(0)
            },
        );
        let (a, _b) = pair(&mut net, 9);
        // 1 Mbyte/s link: each 1000-byte datagram holds the wire 1 ms.
        net.send(SimTime::ZERO, a, 1000).unwrap();
        net.send(SimTime::ZERO, a, 1000).unwrap();
        assert!(net.send_would_block(SimTime::ZERO, a, 1000));
        assert_eq!(net.send(SimTime::ZERO, a, 1000), Err(NetErr::WouldBlock));
        assert_eq!(net.stats().snd_blocked, 1);
        assert_eq!(net.stats().sent, 2, "bounced send commits nothing");
        let ready = net.link_ready_at(SimTime::ZERO, a, 1000);
        assert!(ready > SimTime::ZERO);
        assert!(
            !net.send_would_block(ready, a, 1000),
            "retry at the reported time succeeds"
        );
        net.send(ready, a, 1000).unwrap();
        // Zero-byte datagrams (connection requests) never block.
        assert!(!net.send_would_block(SimTime::ZERO, a, 0));
    }

    #[test]
    fn conservation_identity_holds() {
        let mut net = Net::new();
        net.set_rcv_limit(1_500);
        net.set_link_model(
            HOST,
            LinkModel {
                jitter: Dur::ZERO,
                ..model(300_000)
            },
        );
        let l = listener(&mut net, 80, 1);
        let c = client(&mut net, 80);
        let c2 = client(&mut net, 80);
        let mut t = SimTime::ZERO;
        for i in 0..100 {
            let from = if i % 2 == 0 { c } else { c2 };
            t += Dur::from_ms(10); // stay under the send buffer
            if let Ok(tx) = net.send(t, from, 400) {
                if tx.dst == Some(l) {
                    net.deliver(
                        l,
                        Datagram {
                            src: net.source_addr(from).unwrap(),
                            src_sock: from,
                            data: vec![0; 400],
                        },
                    );
                }
            }
        }
        let st = net.stats();
        assert_eq!(
            st.bytes_sent,
            st.bytes_delivered
                + st.bytes_lost_link
                + st.bytes_dropped_no_listener
                + st.bytes_dropped_rcv_full
                + st.bytes_dropped_backlog,
            "every committed byte lands in exactly one bucket"
        );
    }
}
