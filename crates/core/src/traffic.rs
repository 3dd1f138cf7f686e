//! The off-CPU traffic source of [`ServeScenario`](crate::ServeScenario):
//! no process, so the server is measured without a load generator on its
//! CPU (the §6.2 method). At each intended arrival it sends a zero-byte
//! request from a plain `knet` socket, and it consumes the replies at
//! their [`Event::NetDeliver`] with no soft work, wakeup or `recv`,
//! pattern-checking and tallying each into the run's `ScenarioStats`.
//! Latency runs from the intended arrival to the last byte.

use knet::{Datagram, DeliverOutcome, NetAddr, SockId};
use kproc::programs::util::pattern_check;
use kproc::programs::SharedScenario;
use ksim::{Bytes, IdMap, SimTime, TraceEvent};

use crate::event::Event;
use crate::kernel::Kernel;

/// A seeded stream of one-file fetches, injected at the link.
pub(crate) struct TrafficSource {
    server: NetAddr,
    file_bytes: u64,
    /// Pattern seed of the file every reply is checked against.
    seed: u64,
    stats: SharedScenario,
    /// Intended arrivals not yet sent, latest first.
    arrivals: Vec<SimTime>,
    /// Open fetches by request socket.
    fetches: IdMap<SockId, Fetch>,
}

/// One fetch in progress.
struct Fetch {
    /// Intended arrival: latency counts from here.
    arrival: SimTime,
    got: u64,
    /// A reply failed the pattern check (counted once).
    corrupt: bool,
}

impl Kernel {
    /// Starts a source fetching `file_bytes` of pattern `seed` from
    /// `server` once per instant of `arrivals`, tallied into `stats`.
    ///
    /// # Panics
    ///
    /// Panics if an earlier source still has work.
    pub(crate) fn attach_traffic(
        &mut self,
        server: NetAddr,
        file_bytes: u64,
        seed: u64,
        mut arrivals: Vec<SimTime>,
        stats: SharedScenario,
    ) {
        assert!(self.traffic_idle(), "a traffic source is already running");
        arrivals.sort_unstable_by(|a, b| b.cmp(a));
        if let Some(&first) = arrivals.last() {
            self.q.schedule(first.max(self.q.now()), Event::Arrival);
        }
        self.source = Some(Box::new(TrafficSource {
            server,
            file_bytes,
            seed,
            stats,
            arrivals,
            fetches: IdMap::default(),
        }));
    }

    /// True when the traffic source has sent every arrival and ended every fetch.
    pub(crate) fn traffic_idle(&self) -> bool {
        self.source
            .as_ref()
            .is_none_or(|s| s.arrivals.is_empty() && s.fetches.is_empty())
    }

    /// True if `sock` is an open request socket of the traffic source.
    pub(crate) fn source_owns(&self, sock: SockId) -> bool {
        self.source
            .as_ref()
            .is_some_and(|s| s.fetches.contains_key(&sock))
    }

    /// Sends the request of the arrival due now and schedules the next.
    pub(crate) fn on_arrival(&mut self) {
        let src = self.source.as_mut().expect("arrival without a source");
        let arrival = src.arrivals.pop().expect("an arrival is due");
        if let Some(&next) = src.arrivals.last() {
            self.q.schedule(next, Event::Arrival);
        }
        let sock = self.net.socket(src.server.host);
        self.net.connect(sock, src.server).expect("fresh socket");
        let fetch = Fetch {
            arrival,
            got: 0,
            corrupt: false,
        };
        src.fetches.insert(sock, fetch);
        self.transmit(sock, Bytes::new())
            .unwrap_or_else(|(e, _)| panic!("zero-byte request refused: {e:?}"));
    }

    /// Consumes a reply at source socket `dst`. The stack still queues
    /// it, so receive limits and counters hold as for any socket; the
    /// fetch ends, closing its socket, once the whole file is in.
    pub(crate) fn source_rx(&mut self, dst: SockId, dgram: Datagram) {
        let now = self.q.now();
        let len = dgram.data.len() as u32;
        if !matches!(self.net.deliver(dst, dgram), DeliverOutcome::Queued { .. }) {
            self.ctr.rx_dropped += 1;
            self.trace
                .emit(now, || TraceEvent::NetDrop { sock: dst.0, len });
            return;
        }
        self.trace
            .emit(now, || TraceEvent::NetDeliver { sock: dst.0, len });
        let data = self.net.recv(dst).ok().flatten().expect("just queued").data;
        let src = self.source.as_mut().expect("source socket");
        let fetch = src.fetches.get_mut(&dst).expect("source socket");
        let mut stats = src.stats.borrow_mut();
        // Every byte counts, even a corrupt one: the scenario's byte
        // accounting is exact.
        stats.bytes_received += u64::from(len);
        if !fetch.corrupt && pattern_check(src.seed, fetch.got, &data).is_some() {
            fetch.corrupt = true;
            stats.mismatches += 1;
        }
        fetch.got += u64::from(len);
        if fetch.got < src.file_bytes {
            return;
        }
        if !fetch.corrupt {
            stats.completed += 1;
            stats.latency.record(now.since(fetch.arrival).as_ns());
        }
        drop(stats);
        src.fetches.remove(&dst);
        let _ = self.net.close(dst);
    }

    /// The server's stack dropped a datagram from `from`: if it was a
    /// source request (a full backlog refused it), its fetch ends.
    pub(crate) fn source_refused(&mut self, from: SockId) {
        if let Some(src) = self.source.as_mut() {
            if src.fetches.remove(&from).is_some() {
                let _ = self.net.close(from);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use knet::LinkModel;
    use kproc::programs::scenario_stats;
    use kproc::programs::util::pattern_bytes;
    use ksim::Dur;

    use super::*;
    use crate::KernelBuilder;

    const SERVER: NetAddr = NetAddr { host: 1, port: 80 };
    const SEED: u64 = 7;

    /// A traced kernel with a bare listener at [`SERVER`] standing in
    /// for the server, and a source fetching `file_bytes` once per
    /// arrival, `arrivals_us` after now. No process runs.
    fn rig(arrivals_us: &[u64], file_bytes: u64) -> (Kernel, SockId, SharedScenario) {
        let mut k = KernelBuilder::new().trace(1 << 12).build();
        k.net.set_link_model(SERVER.host, LinkModel::gigabit(1));
        let l = k.net.socket(SERVER.host);
        k.net.bind(l, SERVER.port).unwrap();
        k.net.listen(l, 64).unwrap();
        let stats = scenario_stats();
        let now = k.now();
        let arrivals = arrivals_us.iter().map(|&us| now + Dur::from_us(us));
        k.attach_traffic(
            SERVER,
            file_bytes,
            SEED,
            arrivals.collect(),
            Rc::clone(&stats),
        );
        (k, l, stats)
    }

    /// Runs until every request has carved its connection, and accepts
    /// them all, oldest first.
    fn accept_all(k: &mut Kernel, l: SockId, n: usize) -> Vec<SockId> {
        let horizon = k.horizon(1);
        k.run_until(horizon, |k| k.net.pending_conns(l) == n);
        (0..n).map(|_| k.net.accept(l).unwrap().unwrap()).collect()
    }

    /// The soft-work side of the CPU: what a reply must not add to.
    fn soft_work(k: &Kernel) -> [u64; 5] {
        let m = k.cpu.metrics();
        [
            m.soft_items,
            m.soft_deferred,
            m.idle_soft_items,
            m.soft_time.as_ns(),
            m.idle_soft_time.as_ns(),
        ]
    }

    #[test]
    fn replies_reach_the_source_without_kernel_work() {
        let (mut k, l, stats) = rig(&[500], 16);
        let conn = accept_all(&mut k, l, 1)[0];
        let before = soft_work(&k);
        k.transmit(conn, pattern_bytes(SEED, 0, 8).into()).unwrap();
        k.transmit(conn, pattern_bytes(SEED, 8, 8).into()).unwrap();
        let horizon = k.horizon(1);
        k.run_until(horizon, |k| k.traffic_idle());

        assert!(k.traffic_idle(), "the fetch never finished");
        assert_eq!(soft_work(&k), before, "a reply enqueued kernel work");
        assert!(k.deferred.is_empty());
        assert_eq!(k.procs().iter().count(), 0, "the source is no process");
        let s = stats.borrow();
        assert_eq!((s.completed, s.bytes_received, s.mismatches), (1, 16, 0));
        assert_eq!(s.latency.count(), 1);
        // The request socket closed with the fetch; the listener and its
        // connection are the server's to close.
        assert_eq!(k.net.open_socks(), 2);
        assert_eq!(k.net.stats().delivered, 3, "request plus two replies");
    }

    #[test]
    fn a_corrupted_reply_counts_as_a_mismatch() {
        let (mut k, l, stats) = rig(&[500], 16);
        let conn = accept_all(&mut k, l, 1)[0];
        k.transmit(conn, vec![0xFF; 8].into()).unwrap();
        k.transmit(conn, pattern_bytes(SEED, 8, 8).into()).unwrap();
        let horizon = k.horizon(1);
        k.run_until(horizon, |k| k.traffic_idle());

        assert!(k.traffic_idle(), "the corrupt fetch never ended");
        let s = stats.borrow();
        assert_eq!(s.mismatches, 1);
        assert_eq!(s.completed, 0, "a corrupt fetch completed");
        assert_eq!(s.latency.count(), 0);
        assert_eq!(s.bytes_received, 16, "corrupt bytes still count");
    }

    #[test]
    fn requests_leave_at_their_intended_arrivals() {
        // Unsorted, with two arrivals sharing an instant.
        let arrivals_us = [900, 200, 450, 200, 1300];
        let (mut k, l, _) = rig(&arrivals_us, 8);
        let t0 = k.now();
        accept_all(&mut k, l, arrivals_us.len());

        let mut want: Vec<SimTime> = arrivals_us
            .iter()
            .map(|&us| t0 + Dur::from_us(us))
            .collect();
        want.sort();
        let sent: Vec<SimTime> = k
            .trace()
            .query()
            .named("net.send")
            .iter()
            .map(|r| r.at)
            .collect();
        assert_eq!(sent, want);
    }
}
