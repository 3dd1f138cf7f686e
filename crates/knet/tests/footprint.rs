//! Heap bytes per queued connection, measured by a counting allocator.
//!
//! A served connection costs the network layer a client socket, the
//! connection socket its listener carves for it, the one request queued
//! on that socket, and its entries in the listener's backlog and
//! demultiplexer. This binary queues 10k and then 100k such connections
//! with plain [`Net`] calls and checks that the live heap they hold stays
//! small per connection and flat as the count grows: memory proportional
//! to live connections, with a small constant.
//!
//! It is its own test binary with a single test, so nothing else
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use knet::{Datagram, DeliverOutcome, Net, NetAddr};
use ksim::{Bytes, SimTime};

/// Live heap bytes: the system allocator plus a running total.
struct Counting;

/// A statistic only: it publishes no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract is the one this impl must meet; the
// counter only reads sizes and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const SERVER: u32 = 1;
const CLIENTS: u32 = 2;
const PORT: u16 = 80;

/// Live heap bytes per connection after queuing `conns` connections on
/// one listener, each carrying a zero-byte request.
fn bytes_per_queued_conn(conns: usize) -> f64 {
    let mut net = Net::new();
    let lst = net.socket(SERVER);
    net.bind(lst, PORT).unwrap();
    net.listen(lst, u32::try_from(conns).unwrap()).unwrap();
    let server = NetAddr {
        host: SERVER,
        port: PORT,
    };
    // The shared empty payload block is allocated on first use.
    drop(Bytes::new());

    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..conns {
        let c = net.socket(CLIENTS);
        net.connect(c, server).unwrap();
        let tx = net.send(SimTime::ZERO, c, 0).unwrap();
        let d = Datagram {
            src: net.source_addr(c).unwrap(),
            src_sock: c,
            data: Bytes::new(),
        };
        let out = net.deliver(tx.dst.expect("listener bound"), d);
        assert!(matches!(out, DeliverOutcome::NewConn { .. }), "{out:?}");
    }
    let after = LIVE.load(Ordering::Relaxed);
    assert_eq!(net.pending_conns(lst), conns);
    assert_eq!(net.stats().delivered, conns as u64);
    (after - before) as f64 / conns as f64
}

#[test]
fn queued_connection_footprint_is_small_and_flat() {
    let small = bytes_per_queued_conn(10_000);
    let large = bytes_per_queued_conn(100_000);
    eprintln!("knet heap per queued connection: {small:.1} B at 10k, {large:.1} B at 100k");
    for (n, b) in [(10_000, small), (100_000, large)] {
        assert!(b <= 320.0, "{b:.1} B per queued connection at {n}");
    }
    let spread = (small - large).abs() / small.min(large);
    assert!(
        spread <= 0.10,
        "per-connection bytes not flat: {small:.1} B at 10k vs {large:.1} B at 100k"
    );
}
