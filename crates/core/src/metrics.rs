//! The typed metrics surface: [`MetricsSnapshot`] and its sub-structs.
//!
//! Every counter is a typed struct field, incremented in place by the
//! code that does the work (`self.ctr.copy.copyout_bytes += n`). The
//! kernel keeps its own groups in one counters struct; the buffer cache
//! ([`kbuf::CacheStats`]), the network stack ([`knet::NetStats`]) and the
//! CPU engine ([`CpuMetrics`]) keep theirs. [`Kernel::metrics`] copies
//! them, together with the structured [`ksim::Kstat`] block (splice
//! spans, latency histograms), into one typed, self-describing snapshot:
//!
//! ```
//! use khw::DiskProfile;
//! use kproc::programs::Scp;
//! use splice::KernelBuilder;
//!
//! let mut k = KernelBuilder::new()
//!     .disk("d0", DiskProfile::ramdisk())
//!     .disk("d1", DiskProfile::ramdisk())
//!     .build();
//! k.setup_file("/d0/data", 16 * 1024, 7);
//! k.spawn(Box::new(Scp::new("/d0/data", "/d1/copy")));
//! let horizon = k.horizon(60);
//! k.run_to_exit(horizon);
//!
//! let m = k.metrics();
//! assert_eq!(m.copy.copyout_bytes, 0); // the point of the paper
//! assert_eq!(m.splice.completed, 1);
//! assert!(m.splice[1].writes_issued > 0); // per-descriptor span
//! ```
//!
//! Snapshots serialize to JSON ([`MetricsSnapshot::to_json`]) with the
//! dependency-free [`ksim::Json`] writer; the bench binaries persist
//! them as `BENCH_*.json`.

use std::ops::{Deref, Index};

use ksim::{HistSummary, Json, SimTime, SpliceSpan, SpliceSpans};

use crate::kernel::Kernel;

pub use kproc::CpuMetrics;

/// Declares counter groups. Each `Name { field, … }` entry becomes a
/// `Copy` struct of `u64` counters plus a `to_json` whose keys are the
/// field names in declaration order, so a counter is named exactly once:
/// the code that counts, the snapshot, and the JSON key all use the same
/// field, and a rename is a compile error rather than a silent zero.
macro_rules! counter_groups {
    ($(
        $(#[$doc:meta])*
        $name:ident {
            $($(#[$fdoc:meta])* $field:ident,)*
        }
    )*) => {$(
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$fdoc])* pub $field: u64,)*
        }

        impl $name {
            /// The counters as a JSON object, one key per field, in
            /// declaration order.
            pub fn to_json(&self) -> Json {
                Json::obj()$(.with(stringify!($field), Json::Num(self.$field as f64)))*
            }
        }
    )*};
}

counter_groups! {
    /// Bytes moved by each copy path (the paper's central accounting:
    /// splice exists to drive the first two to zero).
    CopyMetrics {
        /// `copyin` traffic: user → kernel (write(2)).
        copyin_bytes,
        /// `copyout` traffic: kernel → user (read(2)).
        copyout_bytes,
        /// Driver/pseudo-DMA traffic at the device boundary.
        driver_bytes,
        /// Cache-to-cache copies (zero when the shared-header path works).
        cache_bytes,
        /// Socket-buffer copies on the network path (send(2), recv(2)).
        net_bytes,
    }

    /// Block-I/O volume at the device layer.
    IoMetrics {
        /// Bytes read from block devices.
        read_bytes,
        /// Bytes written to block devices.
        write_bytes,
        /// Sequential read-aheads triggered by `read(2)`.
        readaheads,
        /// Block transfers that completed with `B_ERROR` (injected faults).
        errors,
    }

    /// Buffer-cache behavior (kbuf's own counters plus the kernel's
    /// truncation bookkeeping).
    CacheMetrics {
        /// `bread` served from cache.
        hits,
        /// `bread` that went to the device.
        misses,
        /// Delayed-write buffers flushed to reclaim space.
        reclaim_flushes,
        /// Read-ahead transfers started by the cache.
        readaheads,
        /// Valid blocks evicted to recycle their buffer.
        evictions,
        /// `biodone` completions routed to `B_CALL` handlers.
        bcall_completions,
        /// Cached blocks purged by truncation.
        trunc_purged,
        /// Busy blocks detached (orphaned) by truncation.
        trunc_detached,
    }

    /// Splice engine totals across all descriptors.
    SpliceTotals {
        /// Descriptors created.
        started,
        /// Transfers completed (SIGIO posted or sleeper woken).
        completed,
        /// `splice(2)` calls refused before a descriptor was built (bad fds,
        /// missing endpoint capability, alignment, unconnected socket, …) —
        /// every rejection funnels through the one helper that counts this.
        rejected,
        /// Source reads issued across all splices: device block reads plus
        /// stream pulls (datagrams, framebuffer chunks).
        reads_issued,
        /// Reads satisfied from the buffer cache.
        read_hits,
        /// Read-side retries after a busy buffer or cache exhaustion.
        read_backoffs,
        /// Shared-header writes (the §5.2.2 no-copy write side).
        shared_writes,
        /// Write-side retries (destination block busy).
        write_backoffs,
        /// Device-sink pacing stalls (DAC back-pressure).
        dev_backpressure,
        /// Socket-sink send failures.
        sock_send_errs,
        /// Append-path retries on transient cache shortage.
        append_backoffs,
        /// Append-path bytes dropped for lack of disk space.
        append_enospc,
        /// Block retries after a device error (read or write side).
        retries,
        /// Splices aborted with a typed errno after retries were exhausted.
        aborted,
    }

    /// Scheduler events.
    SchedMetrics {
        /// Context-switch dispatches.
        ctx_switches,
        /// Wakeup preemptions of user-mode chunks.
        preemptions,
        /// Lost-wakeup races closed by the retry path.
        wakeup_races,
        /// Dispatches that found the CPU re-occupied.
        dispatch_races,
        /// Processes that exited.
        exits,
    }

    /// Network stack counters.
    NetMetrics {
        /// Datagrams sent.
        sent,
        /// Datagrams delivered to a socket.
        delivered,
        /// Datagrams dropped in the network (all buckets).
        dropped,
        /// Drops with no receiver (unbound destination or closed socket).
        dropped_no_listener,
        /// Drops at a full receive buffer.
        dropped_rcv_full,
        /// Connection requests refused by a full accept backlog.
        dropped_backlog,
        /// Datagrams lost to the link model's loss draw.
        lost_link,
        /// Sends bounced by send-buffer backpressure (retried, not lost).
        snd_blocked,
        /// Delivered-but-unread datagrams thrown away when their socket
        /// closed.
        discarded_close,
        /// Connection sockets carved off listeners.
        conns_opened,
        /// Payload bytes delivered.
        bytes_delivered,
        /// Datagrams dropped at a full receive queue.
        rx_dropped,
        /// Deepest pending-connection queue any listener reached.
        backlog_peak,
    }
}

/// The splice engine: totals plus per-descriptor lifecycle spans.
///
/// The totals read straight through (`snapshot.splice.completed`), and
/// the snapshot is indexable by descriptor id —
/// `snapshot.splice[desc].reads_issued` — matching how tests reason
/// about a single transfer. Indexing is guaranteed only for live and
/// recently finished splices (the last [`ksim::RECENT_SPANS`]); older
/// ones are folded into `spans.retired()`.
#[derive(Clone, Debug, Default)]
pub struct SpliceMetrics {
    /// Engine-wide totals.
    pub totals: SpliceTotals,
    /// Per-descriptor lifecycle spans (timestamps, counters, gauges).
    pub spans: SpliceSpans,
}

impl Deref for SpliceMetrics {
    type Target = SpliceTotals;
    fn deref(&self) -> &SpliceTotals {
        &self.totals
    }
}

impl Index<u64> for SpliceMetrics {
    type Output = SpliceSpan;
    fn index(&self, desc: u64) -> &SpliceSpan {
        &self.spans[desc]
    }
}

/// The counters the kernel itself keeps, bumped in place by the code
/// that does the work (`self.ctr.copy.copyout_bytes += n`). Subsystems
/// with their own typed counters (kbuf, knet, the CPU engine) keep them;
/// [`Kernel::metrics`] merges both into one snapshot.
#[derive(Default)]
pub(crate) struct KernelCounters {
    pub copy: CopyMetrics,
    pub io: IoMetrics,
    pub sched: SchedMetrics,
    pub splice: SpliceTotals,
    pub trunc_purged: u64,
    pub trunc_detached: u64,
    pub rx_dropped: u64,
    pub update_flushes: u64,
    pub cold_caches: u64,
}

/// Trace loss, plus the served-request records: how many
/// closed, how many failed, their end-to-end latency digest, and the
/// exemplar linking the p999 bucket back into the trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ObsMetrics {
    /// Trace records emitted over the run (the next sequence number).
    pub trace_emitted: u64,
    /// Trace records lost to ring wrap.
    pub trace_dropped: u64,
    /// Closed requests that failed.
    pub errors: u64,
    /// Closed requests: every accepted connection that closed.
    pub spans_committed: u64,
    /// End-to-end latency of every closed request.
    pub request_latency: HistSummary,
    /// `(conn, trace_seq)` of the exemplar witnessing the p999 bucket.
    pub p999_exemplar: Option<(u32, u64)>,
}

/// Latency distributions (ns), as compact digests.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyMetrics {
    /// Time a process slept in `biowait` on the read(2) path.
    pub read_wait: HistSummary,
    /// `bread` issue → `biodone`.
    pub bread: HistSummary,
    /// `bwrite` issue → `biodone`.
    pub bwrite: HistSummary,
    /// Splice block round-trip: read issue → write completion.
    pub splice_block: HistSummary,
}

/// One coherent, typed view of everything the kernel measured.
///
/// Built by [`Kernel::metrics`]; cheap enough to take repeatedly (the
/// live and recent spans and the retired tally are cloned, everything
/// else is `Copy`), however many splices the kernel has run.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Simulated time the snapshot was taken.
    pub at: SimTime,
    /// Copy-path bytes.
    pub copy: CopyMetrics,
    /// Device I/O volume.
    pub io: IoMetrics,
    /// Buffer-cache behavior.
    pub cache: CacheMetrics,
    /// Splice engine totals and spans.
    pub splice: SpliceMetrics,
    /// Scheduler events.
    pub sched: SchedMetrics,
    /// Kernel CPU time by class.
    pub cpu: CpuMetrics,
    /// Network counters.
    pub net: NetMetrics,
    /// Latency digests.
    pub latency: LatencyMetrics,
    /// Trace loss and served-request records.
    pub obs: ObsMetrics,
    /// Buffers flushed by the `update` daemon.
    pub update_flushes: u64,
    /// Harness cold-cache flushes (experiment setup, not workload).
    pub cold_caches: u64,
}

impl MetricsSnapshot {
    /// Serializes the snapshot (including per-splice span summaries)
    /// as a JSON object.
    pub fn to_json(&self) -> Json {
        let splice = self.splice.totals.to_json().with(
            "spans",
            Json::Arr(self.splice.spans.iter().map(span_json).collect()),
        );
        let cp = &self.cpu;
        let cpu = Json::obj()
            .with("intr_ns", Json::Num(cp.intr_time.as_ns() as f64))
            .with("soft_ns", Json::Num(cp.soft_time.as_ns() as f64))
            .with("idle_soft_ns", Json::Num(cp.idle_soft_time.as_ns() as f64))
            .with("intr_items", Json::Num(cp.intr_items as f64))
            .with("soft_items", Json::Num(cp.soft_items as f64))
            .with("soft_deferred", Json::Num(cp.soft_deferred as f64))
            .with("idle_soft_items", Json::Num(cp.idle_soft_items as f64));
        let o = &self.obs;
        let obs = Json::obj()
            .with("trace.emitted", Json::Num(o.trace_emitted as f64))
            .with("trace.dropped", Json::Num(o.trace_dropped as f64))
            .with("requests.errors", Json::Num(o.errors as f64))
            .with("spans.committed", Json::Num(o.spans_committed as f64))
            .with("request_latency", o.request_latency.to_json())
            .with(
                "p999_exemplar",
                match o.p999_exemplar {
                    Some((conn, seq)) => Json::obj()
                        .with("conn", Json::Num(conn as f64))
                        .with("trace_seq", Json::Num(seq as f64)),
                    None => Json::Null,
                },
            );
        let latency = Json::obj()
            .with("read_wait", self.latency.read_wait.to_json())
            .with("bread", self.latency.bread.to_json())
            .with("bwrite", self.latency.bwrite.to_json())
            .with("splice_block", self.latency.splice_block.to_json());
        Json::obj()
            .with("at_ns", Json::Num(self.at.as_ns() as f64))
            .with("copy", self.copy.to_json())
            .with("io", self.io.to_json())
            .with("cache", self.cache.to_json())
            .with("splice", splice)
            .with("sched", self.sched.to_json())
            .with("cpu", cpu)
            .with("net", self.net.to_json())
            .with("latency", latency)
            .with("obs", obs)
            .with("update_flushes", Json::Num(self.update_flushes as f64))
            .with("cold_caches", Json::Num(self.cold_caches as f64))
    }
}

fn opt_time(t: Option<SimTime>) -> Json {
    match t {
        Some(t) => Json::Num(t.as_ns() as f64),
        None => Json::Null,
    }
}

fn span_json(s: &SpliceSpan) -> Json {
    Json::obj()
        .with("id", Json::Num(s.id as f64))
        .with("created_ns", opt_time(s.created))
        .with("first_read_ns", opt_time(s.first_read))
        .with("first_write_ns", opt_time(s.first_write))
        .with("drained_ns", opt_time(s.drained))
        .with("completed_ns", opt_time(s.completed))
        .with("reads_issued", Json::Num(s.reads_issued as f64))
        .with("read_hits", Json::Num(s.read_hits as f64))
        .with("writes_issued", Json::Num(s.writes_issued as f64))
        .with("blocks_done", Json::Num(s.blocks_done as f64))
        .with("bytes_moved", Json::Num(s.bytes_moved as f64))
        .with("refill_bursts", Json::Num(s.refill_bursts as f64))
        .with("backoffs", Json::Num(s.backoffs as f64))
        .with(
            "max_pending_reads",
            Json::Num(s.pending_reads.peak() as f64),
        )
        .with(
            "max_pending_writes",
            Json::Num(s.pending_writes.peak() as f64),
        )
}

impl Kernel {
    /// Takes a typed snapshot of every kernel metric: copy-path bytes,
    /// cache and scheduler behavior, CPU time by class, per-splice
    /// lifecycle spans, and latency digests.
    pub fn metrics(&self) -> MetricsSnapshot {
        let c = &self.ctr;
        let cs = self.cache.stats();
        let ns = self.net.stats();
        MetricsSnapshot {
            at: self.now(),
            copy: c.copy,
            io: c.io,
            cache: CacheMetrics {
                hits: cs.hits,
                misses: cs.misses,
                reclaim_flushes: cs.reclaim_flushes,
                readaheads: cs.readaheads,
                evictions: cs.evictions,
                bcall_completions: cs.bcall_completions,
                trunc_purged: c.trunc_purged,
                trunc_detached: c.trunc_detached,
            },
            splice: SpliceMetrics {
                totals: c.splice,
                spans: self.kstat.spans.clone(),
            },
            sched: c.sched,
            cpu: self.cpu.metrics(),
            net: NetMetrics {
                sent: ns.sent,
                delivered: ns.delivered,
                dropped: ns.dropped(),
                dropped_no_listener: ns.dropped_no_listener,
                dropped_rcv_full: ns.dropped_rcv_full,
                dropped_backlog: ns.dropped_backlog,
                lost_link: ns.lost_link,
                snd_blocked: ns.snd_blocked,
                discarded_close: ns.discarded_close,
                conns_opened: ns.conns_opened,
                bytes_delivered: ns.bytes_delivered,
                rx_dropped: c.rx_dropped,
                backlog_peak: ns.backlog_peak,
            },
            latency: LatencyMetrics {
                read_wait: HistSummary::from(&self.kstat.read_wait),
                bread: HistSummary::from(&self.kstat.bread_latency),
                bwrite: HistSummary::from(&self.kstat.bwrite_latency),
                splice_block: HistSummary::from(&self.kstat.splice_block_latency),
            },
            obs: {
                let reqs = &self.kstat.requests;
                ObsMetrics {
                    trace_emitted: self.trace.emitted(),
                    trace_dropped: self.trace.dropped(),
                    errors: reqs.errors(),
                    spans_committed: reqs.latency().count(),
                    request_latency: HistSummary::from(reqs.latency()),
                    p999_exemplar: reqs
                        .latency()
                        .exemplar_at(0.999)
                        .map(|e| (e.conn, e.trace_seq)),
                }
            },
            update_flushes: c.update_flushes,
            cold_caches: c.cold_caches,
        }
    }

    /// The structured-statistics block itself (splice spans, request
    /// records and histograms), for callers that want live access
    /// without a snapshot copy.
    pub fn kstat(&self) -> &ksim::Kstat {
        &self.kstat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_serializes_and_roundtrips() {
        let snap = MetricsSnapshot::default();
        let doc = snap.to_json();
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(parsed, doc);
        // Field declaration order drives the artifact bytes, and benchdiff
        // compares flattened paths, so only this pins a reorder.
        let keys = |j: &Json| match j {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("not an object: {other:?}"),
        };
        let sections: [(&str, &[&str]); 9] = [
            (
                "copy",
                &[
                    "copyin_bytes",
                    "copyout_bytes",
                    "driver_bytes",
                    "cache_bytes",
                    "net_bytes",
                ],
            ),
            ("io", &["read_bytes", "write_bytes", "readaheads", "errors"]),
            (
                "cache",
                &[
                    "hits",
                    "misses",
                    "reclaim_flushes",
                    "readaheads",
                    "evictions",
                    "bcall_completions",
                    "trunc_purged",
                    "trunc_detached",
                ],
            ),
            (
                "splice",
                &[
                    "started",
                    "completed",
                    "rejected",
                    "reads_issued",
                    "read_hits",
                    "read_backoffs",
                    "shared_writes",
                    "write_backoffs",
                    "dev_backpressure",
                    "sock_send_errs",
                    "append_backoffs",
                    "append_enospc",
                    "retries",
                    "aborted",
                    "spans",
                ],
            ),
            (
                "sched",
                &[
                    "ctx_switches",
                    "preemptions",
                    "wakeup_races",
                    "dispatch_races",
                    "exits",
                ],
            ),
            (
                "cpu",
                &[
                    "intr_ns",
                    "soft_ns",
                    "idle_soft_ns",
                    "intr_items",
                    "soft_items",
                    "soft_deferred",
                    "idle_soft_items",
                ],
            ),
            (
                "net",
                &[
                    "sent",
                    "delivered",
                    "dropped",
                    "dropped_no_listener",
                    "dropped_rcv_full",
                    "dropped_backlog",
                    "lost_link",
                    "snd_blocked",
                    "discarded_close",
                    "conns_opened",
                    "bytes_delivered",
                    "rx_dropped",
                    "backlog_peak",
                ],
            ),
            ("latency", &["read_wait", "bread", "bwrite", "splice_block"]),
            (
                "obs",
                &[
                    "trace.emitted",
                    "trace.dropped",
                    "requests.errors",
                    "spans.committed",
                    "request_latency",
                    "p999_exemplar",
                ],
            ),
        ];
        let mut top = vec!["at_ns"];
        top.extend(sections.iter().map(|(name, _)| *name));
        top.extend(["update_flushes", "cold_caches"]);
        assert_eq!(keys(&doc), top);
        for (name, want) in sections {
            assert_eq!(keys(doc.get(name).unwrap()), want, "{name} key order");
        }
        assert_eq!(
            parsed
                .get("copy")
                .and_then(|c| c.get("copyin_bytes"))
                .and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(
            parsed
                .get("splice")
                .and_then(|s| s.get("spans"))
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(0)
        );
        let obs = parsed.get("obs").expect("obs section");
        assert_eq!(
            obs.get("trace.dropped").and_then(Json::as_u64),
            Some(0),
            "trace loss must be countable even on an empty snapshot"
        );
        assert_eq!(obs.get("p999_exemplar"), Some(&Json::Null));
        assert!(obs.get("request_latency").is_some());
    }

    #[test]
    fn populated_obs_section_carries_exemplar() {
        let mut snap = MetricsSnapshot::default();
        snap.obs.p999_exemplar = Some((7, 4242));
        let doc = snap.to_json();
        let parsed = Json::parse(&doc.render()).unwrap();
        let ex = parsed
            .get("obs")
            .and_then(|o| o.get("p999_exemplar"))
            .expect("exemplar object");
        assert_eq!(ex.get("conn").and_then(Json::as_u64), Some(7));
        assert_eq!(ex.get("trace_seq").and_then(Json::as_u64), Some(4242));
    }
}
