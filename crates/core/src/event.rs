//! The kernel's event vocabulary.
//!
//! Two layers exist:
//!
//! * [`Event`] — entries in the global event queue: device interrupts,
//!   datagram deliveries, and the application points of admitted kernel
//!   work. The hardclock and the running chunk's completion are not
//!   queued: the kernel holds each in a register beside the queue.
//! * [`KWork`] — units of kernel work. Each is *admitted* to the CPU
//!   engine (charging its cost, possibly deferring it under the softwork
//!   budget) and then *applied* at the end of its execution window via
//!   [`Event::Apply`]. Splice handler chains, RAM-disk strategy calls,
//!   interrupt bottom halves and callout payloads are all `KWork`.

use kbuf::BufId;
use knet::{Datagram, SockId};
use kproc::Pid;
use ksim::Bytes;

use crate::endpoint::Block;

/// A unit of kernel work (see module docs).
#[derive(Debug)]
pub enum KWork {
    /// A SCSI disk transfer completed: fill/teardown the buffer, run
    /// `biodone` and whatever it triggers. The buffer's transfer record
    /// names the disk and direction.
    DiskDone {
        /// Buffer involved.
        buf: BufId,
        /// The block read, shared with the medium (successful reads only).
        data: Option<khw::Block>,
        /// The transfer failed (`B_ERROR` at `biodone`).
        error: bool,
    },
    /// A RAM-disk strategy call: perform the driver `bcopy` and complete.
    /// The buffer's transfer record names the disk and direction.
    RamIo {
        /// Buffer involved.
        buf: BufId,
    },
    /// Protocol receive processing for one datagram.
    NetRx {
        /// Receiving socket.
        dst: SockId,
        /// The datagram.
        dgram: Datagram,
    },
    /// Splice read handler (§5.2.1): a source block arrived; queue the
    /// write side at the head of the callout list.
    SpliceReadDone {
        /// Descriptor id.
        desc: u64,
        /// Logical block within the splice.
        lblk: u64,
        /// The read-side buffer (held; its block record takes it).
        buf: BufId,
    },
    /// Splice write side (§5.2.2), dispatched from softclock: allocate the
    /// shared header over the block's held read-side buffer and start the
    /// asynchronous write.
    SpliceWrite {
        /// Descriptor id.
        desc: u64,
        /// Logical block.
        lblk: u64,
    },
    /// Splice write completion handler (§5.2.2): free both buffers, run
    /// flow control (§5.2.3).
    SpliceWriteDone {
        /// Descriptor id.
        desc: u64,
        /// Logical block.
        lblk: u64,
        /// The write-side shared header.
        hdr: BufId,
    },
    /// Flow control: issue more reads for a descriptor.
    SpliceIssueReads {
        /// Descriptor id.
        desc: u64,
    },
    /// Recovery: re-issue one mapped-source block read whose previous
    /// attempt failed with a device error (dispatched from the callout
    /// after the retry backoff).
    SpliceRetryRead {
        /// Descriptor id.
        desc: u64,
        /// Logical block to re-read.
        lblk: u64,
    },
    /// Read side for stream sources: pull one chunk (a datagram or a
    /// framebuffer read) into the engine's pending-read accounting.
    SpliceStreamPull {
        /// Descriptor id.
        desc: u64,
        /// Pull sequence number (the stream's logical block).
        lblk: u64,
    },
    /// Write side for byte streams into a file sink: append one arrived
    /// chunk at its preassigned offset.
    SpliceAppend {
        /// Descriptor id.
        desc: u64,
        /// Logical block (pull sequence number).
        lblk: u64,
        /// Preassigned file offset (idempotent across retries).
        off: u64,
        /// The chunk.
        data: Bytes,
    },
    /// Write side when the sink is a character device: deliver the block
    /// (partially, if the device buffer is smaller; the rest retries via
    /// the callout when space drains).
    SpliceDevWrite {
        /// Descriptor id.
        desc: u64,
        /// Logical block.
        lblk: u64,
        /// The arrived block (held buffer or owned chunk).
        src: Block,
        /// Bytes of this block already delivered.
        off: usize,
    },
    /// Write side when the sink is a socket: packetize a block.
    SpliceSockWrite {
        /// Descriptor id.
        desc: u64,
        /// Logical block.
        lblk: u64,
        /// The arrived block (held buffer or owned chunk).
        src: Block,
    },
    /// Socket-sink retry: the peer link's send buffer was full when the
    /// block arrived; drain the per-host parked-send queue now that the
    /// link should have room again (dispatched from the callout — one
    /// drain in flight per host, however many payloads are parked, so
    /// backpressure never turns into a retry herd).
    SpliceSockDrain {
        /// Destination host whose parked queue to drain.
        host: u32,
    },
    /// Finalisation: deliver `SIGIO` or wake the synchronous caller.
    SpliceComplete {
        /// Descriptor id.
        desc: u64,
    },
    /// Interval timer expiry for a process.
    ItimerFire {
        /// Target process.
        pid: Pid,
    },
    /// The `update` daemon: periodic flush of delayed writes (the classic
    /// 30-second sync).
    UpdateFlush,
}

/// Entries in the global event queue.
#[derive(Debug)]
pub enum Event {
    /// A SCSI disk raised its completion interrupt for the active request.
    DiskIntr {
        /// Disk index.
        disk: usize,
        /// The active request's buffer (its index is the request token,
        /// cross-checked against the drive's active request).
        buf: BufId,
    },
    /// Apply a unit of kernel work whose execution window ended now.
    Apply(KWork),
    /// A preempted chunk's completion instant. The kernel moves the
    /// chunk's completion key here from its register so the clock still
    /// stops at that instant; it does nothing when it fires.
    UserDone,
    /// A timed block (metadata I/O) expired.
    TimedWake {
        /// Process.
        pid: Pid,
    },
    /// A datagram arrives at a socket.
    NetDeliver {
        /// Receiving socket.
        dst: SockId,
        /// The datagram.
        dgram: Datagram,
    },
    /// The traffic source's next intended arrival is due.
    Arrival,
    /// A context switch finished; start running the process.
    Dispatch {
        /// Process taking the CPU.
        pid: Pid,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every event and unit of kernel work moves by value through the
    /// event queue, the CPU engine and the callout table, so their size
    /// is paid per queued entry: neither may grow past 56 bytes.
    #[test]
    fn queued_work_stays_small() {
        let (work, event) = (size_of::<KWork>(), size_of::<Event>());
        assert!(work <= 56, "KWork grew to {work} B");
        assert!(event <= 56, "Event grew to {event} B");
    }
}
