//! Socket endpoint backend: the `knet` glue.
//!
//! Stream **source**: one pending-read slot pulls one queued datagram
//! (truncated to the transfer's remaining bytes). The engine issues at
//! most one pull per queued datagram (`rcv_depth`), and `net_rx` re-arms
//! the read side when the next datagram arrives.
//!
//! Stream **sink**: one arrived block becomes one datagram — no user
//! copy, no socket-buffer copy. A cached block's payload is a view of
//! the block itself, so the host copies nothing either.

use knet::{Datagram, NetErr, SockId};
use ksim::{Bytes, Dur, TraceEvent};

use crate::endpoint::{Block, DstEndpoint};
use crate::event::{Event, KWork};
use crate::kernel::Kernel;

impl Kernel {
    /// Source-socket close is EOF for the splice draining it: clamp the
    /// target and complete once in-flight work lands.
    pub(crate) fn splice_sock_eof(&mut self, sock: SockId) {
        if let Some(desc) = self.sock_splices.remove(&sock) {
            self.finish_splice_now(desc);
        }
    }

    /// A datagram landed on `sock`: if a splice is draining the socket,
    /// re-arm the engine's read side (the arrival funds one more stream
    /// pull, watermarks permitting) and return `true`; otherwise the
    /// caller wakes sleeping receivers.
    pub(crate) fn splice_sock_feed(&mut self, sock: SockId) -> bool {
        let Some(&desc) = self.sock_splices.get(&sock) else {
            return false;
        };
        self.enqueue_kwork(
            kproc::WorkClass::Soft,
            self.cfg.machine.splice_handler,
            KWork::SpliceIssueReads { desc },
        );
        true
    }

    /// Pulls the next queued datagram, truncated to `want` bytes.
    /// `None` if the queue drained between issue and apply.
    pub(crate) fn sock_pull(&mut self, sock: SockId, want: usize) -> Option<Bytes> {
        let mut data = self.net.recv(sock).ok().flatten().map(|d| d.data)?;
        data.truncate(want);
        Some(data)
    }

    /// Commits `data` from `sock` to the wire: schedules its delivery at
    /// the link's arrival instant, or traces the drop when it has no
    /// receiver or the link lost it. The one transmit path of `send(2)`,
    /// the splice socket sink and the traffic source. A send that
    /// commits nothing hands the payload back with the error.
    pub(crate) fn transmit(&mut self, sock: SockId, data: Bytes) -> Result<(), (NetErr, Bytes)> {
        let now = self.q.now();
        let len = data.len() as u32;
        let tx = match self.net.send(now, sock, data.len()) {
            Ok(tx) => tx,
            Err(e) => return Err((e, data)),
        };
        if let Some(dst) = tx.dst {
            self.trace
                .emit(now, || TraceEvent::NetSend { sock: sock.0, len });
            let src = self.net.source_addr(sock).expect("socket exists");
            self.q.schedule(
                tx.arrival.max(now),
                Event::NetDeliver {
                    dst,
                    dgram: Datagram {
                        src,
                        src_sock: sock,
                        data,
                    },
                },
            );
        } else {
            // No receiver, or lost on the link: knet counted it.
            self.trace
                .emit(now, || TraceEvent::NetDrop { sock: sock.0, len });
        }
        Ok(())
    }

    /// Sends a splice payload as one datagram; a send the stack refuses
    /// is counted and traced as a drop.
    pub(crate) fn sock_send_payload(&mut self, sock: SockId, payload: Bytes) {
        let len = payload.len() as u32;
        if self.transmit(sock, payload).is_err() {
            self.ctr.splice.sock_send_errs += 1;
            let now = self.q.now();
            self.trace
                .emit(now, || TraceEvent::NetDrop { sock: sock.0, len });
        }
    }

    /// Socket-sink write side: packetize one arrived block.
    pub(crate) fn splice_sock_write(&mut self, desc: u64, lblk: u64, src: Block) {
        if !self.splice_write_begin(desc, lblk) {
            return;
        }
        let DstEndpoint::Sock { sock } = self.splices[&desc].dst else {
            panic!("splice_sock_write with non-socket sink")
        };
        let payload = match src {
            Block::Bytes(data) => data,
            Block::Held => self.splice_held_view(desc, lblk),
        };
        self.splice_write_issue(desc, lblk);
        // The payload is a snapshot view, so the cache buffer can go back
        // before the wire is ready — holding it across a backpressure
        // backoff would starve the cache under high connection counts.
        self.splice_release_held(desc, lblk);
        self.sock_send_or_backoff(desc, lblk, sock, payload);
    }

    /// Sends the packetized block, or — when the destination link's
    /// backlog exceeds the socket's send-buffer limit — parks the
    /// payload on the per-host FIFO until the link drains. The block
    /// only completes once it is on the wire, so splice flow control
    /// (§5.2.3) sees the backpressure and stops issuing reads.
    ///
    /// A non-empty parked queue also forces parking (FIFO: a fresh block
    /// must not overtake payloads already waiting for the same link).
    fn sock_send_or_backoff(&mut self, desc: u64, lblk: u64, sock: SockId, payload: Bytes) {
        let now = self.q.now();
        let host = self.net.peer(sock).map(|a| a.host);
        let queued = host.is_some_and(|h| self.parked_sends.get(&h).is_some_and(|q| !q.is_empty()));
        if let Some(host) = host {
            if queued || self.net.send_would_block(now, sock, payload.len()) {
                self.parked_sends
                    .entry(host)
                    .or_default()
                    .push_back(ParkedSend {
                        desc,
                        lblk,
                        sock,
                        payload,
                    });
                self.schedule_park_drain(host);
                return;
            }
        }
        let bytes = payload.len() as u64;
        self.sock_send_payload(sock, payload);
        self.splice_write_finish(desc, lblk, bytes);
    }

    /// Schedules the (single) drain callout for `host`'s parked queue at
    /// the moment the link should fit the queue head. No-op while one is
    /// already in flight.
    fn schedule_park_drain(&mut self, host: u32) {
        if self.park_drains.contains(&host) {
            return;
        }
        let Some((sock, len)) = self
            .parked_sends
            .get(&host)
            .and_then(|q| q.front())
            .map(|p| (p.sock, p.payload.len()))
        else {
            return;
        };
        let now = self.q.now();
        let ready = self.net.link_ready_at(now, sock, len);
        let wait = ready.saturating_since(now).max(Dur::from_us(1));
        let ticks = self.dur_to_ticks(wait).max(1);
        self.park_drains.insert(host);
        self.callout
            .schedule(self.tick, ticks, KWork::SpliceSockDrain { host });
    }

    /// Drains `host`'s parked-send queue: sends every payload that now
    /// fits, drops entries whose splice started aborting while parked,
    /// and re-arms one callout for the first payload that still does not
    /// fit.
    pub(crate) fn splice_sock_drain(&mut self, host: u32) {
        self.park_drains.remove(&host);
        loop {
            let Some((desc, lblk, sock, len)) = self
                .parked_sends
                .get(&host)
                .and_then(|q| q.front())
                .map(|p| (p.desc, p.lblk, p.sock, p.payload.len()))
            else {
                return;
            };
            // The splice may have started aborting while the payload
            // waited.
            if !self.splice_write_begin(desc, lblk) {
                self.parked_sends.get_mut(&host).unwrap().pop_front();
                continue;
            }
            let now = self.q.now();
            if self.net.send_would_block(now, sock, len) {
                self.schedule_park_drain(host);
                return;
            }
            let p = self
                .parked_sends
                .get_mut(&host)
                .unwrap()
                .pop_front()
                .unwrap();
            let bytes = p.payload.len() as u64;
            self.sock_send_payload(p.sock, p.payload);
            self.splice_write_finish(p.desc, p.lblk, bytes);
        }
    }
}

/// One splice payload parked behind a full link send buffer (its cache
/// buffer was released when the block was packetized).
pub(crate) struct ParkedSend {
    /// Splice descriptor id.
    pub(crate) desc: u64,
    /// Logical block within the transfer.
    pub(crate) lblk: u64,
    /// Sending socket.
    pub(crate) sock: SockId,
    /// The packetized bytes.
    pub(crate) payload: Bytes,
}
