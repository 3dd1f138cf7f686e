//! Resource accounting: tick-accurate CPU/device/cache attribution and
//! the callout-driven gauge sampler.
//!
//! [`Kernel::metrics`](crate::Kernel::metrics) answers *what happened*
//! (event counts, byte volumes, latency digests). This module answers
//! *where the resources went*:
//!
//! * [`Kernel::profile`] — a [`ProfileSnapshot`]: per-PID user/system
//!   CPU straight from the process table's tick accounting, kernel CPU
//!   by admission class, per-device busy time and service-time
//!   distributions, buffer-cache occupancy, and the per-stage splice
//!   latency histograms ([`ksim::StageHists`]).
//! * The `Sampler` — opt-in via
//!   [`KernelBuilder::sample`](crate::KernelBuilder::sample) — a
//!   callout-driven gauge recorder: every period it snapshots inflight
//!   splice work, disk queue depths, cache occupancy, and each
//!   process's CPU share over the elapsed interval into a bounded ring
//!   of [`ProfileSample`]s, and mirrors every gauge into the trace's
//!   counter tracks so Chrome/Perfetto render them as time series
//!   alongside the event timeline.
//!
//! Sampling runs through the same callout + kernel-work machinery as
//! everything else (one [`KWork::Sample`] per period, softclock class),
//! so its CPU cost is itself accounted — and, with a fixed period, the
//! sample stream is deterministic: identical runs produce identical
//! `TS_*.json` bytes.

use std::collections::VecDeque;

use ksim::{CounterId, Dur, HistSummary, IdMap, Json, SimTime, StageHists, Trace, TraceEvent};

use crate::event::KWork;
use crate::kernel::Kernel;

/// Per-process CPU accounting, read from the process table.
#[derive(Clone, Debug)]
pub struct ProcProfile {
    /// Process id.
    pub pid: u32,
    /// Program name (for reports).
    pub name: String,
    /// User-mode CPU consumed.
    pub user_time: Dur,
    /// Kernel-mode CPU consumed on this process's behalf.
    pub sys_time: Dur,
    /// Voluntary context switches.
    pub vcsw: u64,
    /// Involuntary context switches.
    pub icsw: u64,
    /// System calls issued.
    pub syscalls: u64,
    /// True once the process exited.
    pub exited: bool,
}

impl ProcProfile {
    /// Total CPU charged to the process (user + system).
    pub fn cpu_time(&self) -> Dur {
        self.user_time + self.sys_time
    }

    /// JSON form (`*_ns` durations).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("pid", Json::Num(self.pid as f64))
            .with("name", Json::Str(self.name.clone()))
            .with("user_ns", Json::Num(self.user_time.as_ns() as f64))
            .with("sys_ns", Json::Num(self.sys_time.as_ns() as f64))
            .with("cpu_ns", Json::Num(self.cpu_time().as_ns() as f64))
            .with("vcsw", Json::Num(self.vcsw as f64))
            .with("icsw", Json::Num(self.icsw as f64))
            .with("syscalls", Json::Num(self.syscalls as f64))
            .with("exited", Json::Bool(self.exited))
    }
}

/// Kernel CPU time by admission class (none of it is attributed to a
/// PID — that asymmetry is the paper's availability argument).
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuClassProfile {
    /// Interrupt-class kernel time.
    pub intr: Dur,
    /// Softclock-class kernel time run within tick budgets.
    pub soft: Dur,
    /// Softclock-class kernel time run in idle cycles.
    pub idle_soft: Dur,
}

impl CpuClassProfile {
    /// All kernel time.
    pub fn total(&self) -> Dur {
        self.intr + self.soft + self.idle_soft
    }

    /// JSON form (`*_ns` durations).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("intr_ns", Json::Num(self.intr.as_ns() as f64))
            .with("soft_ns", Json::Num(self.soft.as_ns() as f64))
            .with("idle_soft_ns", Json::Num(self.idle_soft.as_ns() as f64))
            .with("total_ns", Json::Num(self.total().as_ns() as f64))
    }
}

/// Per-device utilization: accumulated busy time and the per-request
/// service-time distribution.
#[derive(Clone, Debug)]
pub struct DeviceProfile {
    /// Disk name (mount point without the slash).
    pub name: String,
    /// Accumulated service time (SCSI: media busy windows; RAM disk:
    /// driver `bcopy` CPU).
    pub busy_time: Dur,
    /// Requests serviced.
    pub requests: u64,
    /// Requests waiting in the device queue right now (always 0 for the
    /// synchronous RAM disk).
    pub queue_depth: u64,
    /// Per-request service-time digest (ns).
    pub service: HistSummary,
}

impl DeviceProfile {
    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("name", Json::Str(self.name.clone()))
            .with("busy_ns", Json::Num(self.busy_time.as_ns() as f64))
            .with("requests", Json::Num(self.requests as f64))
            .with("queue_depth", Json::Num(self.queue_depth as f64))
            .with("service", self.service.to_json())
    }
}

/// Buffer-cache occupancy.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheOccupancy {
    /// Total buffers in the pool.
    pub pool_size: u64,
    /// Buffers currently holding an identified block.
    pub resident: u64,
    /// Buffers holding a delayed write.
    pub dirty: u64,
}

impl CacheOccupancy {
    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("pool_size", Json::Num(self.pool_size as f64))
            .with("resident", Json::Num(self.resident as f64))
            .with("dirty", Json::Num(self.dirty as f64))
    }
}

/// One coherent view of where the machine's resources went: per-PID
/// CPU, kernel CPU by class, device utilization, cache occupancy, and
/// the per-stage splice latency distributions.
#[derive(Clone, Debug)]
pub struct ProfileSnapshot {
    /// Simulated time the snapshot was taken.
    pub at: SimTime,
    /// Per-process accounting, in pid order.
    pub procs: Vec<ProcProfile>,
    /// Kernel CPU by admission class.
    pub kernel_cpu: CpuClassProfile,
    /// Per-device utilization, in disk-index order.
    pub devices: Vec<DeviceProfile>,
    /// Buffer-cache occupancy.
    pub cache: CacheOccupancy,
    /// Per-stage splice pipeline latency histograms.
    pub stages: StageHists,
}

impl ProfileSnapshot {
    /// The profile entry for `pid`, if the process exists.
    pub fn proc(&self, pid: u32) -> Option<&ProcProfile> {
        self.procs.iter().find(|p| p.pid == pid)
    }

    /// Serializes the snapshot (the stage histograms as digests).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("at_ns", Json::Num(self.at.as_ns() as f64))
            .with(
                "procs",
                Json::Arr(self.procs.iter().map(ProcProfile::to_json).collect()),
            )
            .with("kernel_cpu", self.kernel_cpu.to_json())
            .with(
                "devices",
                Json::Arr(self.devices.iter().map(DeviceProfile::to_json).collect()),
            )
            .with("cache", self.cache.to_json())
            .with("stages", self.stages.to_json())
    }
}

/// One gauge observation taken by the sampler.
#[derive(Clone, Debug)]
pub struct ProfileSample {
    /// When the sample was taken.
    pub at: SimTime,
    /// Splice reads outstanding at the devices, summed over descriptors.
    pub inflight_reads: u64,
    /// Splice writes outstanding, summed over descriptors.
    pub inflight_writes: u64,
    /// Device queue depths, in disk-index order.
    pub disk_queues: Vec<u64>,
    /// Cache buffers holding an identified block.
    pub cache_resident: u64,
    /// Cache buffers holding a delayed write.
    pub cache_dirty: u64,
    /// Per-PID CPU share over the interval since the previous sample
    /// (`(pid, fraction)`, in pid order). This is the instantaneous
    /// form of the paper's availability metric: the fraction of the
    /// wall interval the process actually got the CPU.
    pub cpu_share: Vec<(u32, f64)>,
}

impl ProfileSample {
    /// The CPU share recorded for `pid` in this interval.
    pub fn share_of(&self, pid: u32) -> Option<f64> {
        self.cpu_share
            .iter()
            .find(|(p, _)| *p == pid)
            .map(|(_, f)| *f)
    }

    /// JSON form. `cpu_share` becomes an object keyed by decimal pid.
    pub fn to_json(&self) -> Json {
        let mut share = Json::obj();
        for (pid, frac) in &self.cpu_share {
            share.set(&pid.to_string(), Json::Num(*frac));
        }
        Json::obj()
            .with("t_ns", Json::Num(self.at.as_ns() as f64))
            .with("inflight_reads", Json::Num(self.inflight_reads as f64))
            .with("inflight_writes", Json::Num(self.inflight_writes as f64))
            .with(
                "disk_queues",
                Json::Arr(
                    self.disk_queues
                        .iter()
                        .map(|q| Json::Num(*q as f64))
                        .collect(),
                ),
            )
            .with("cache_resident", Json::Num(self.cache_resident as f64))
            .with("cache_dirty", Json::Num(self.cache_dirty as f64))
            .with("cpu_share", share)
    }
}

/// Interned counter-track handles, registered on the first sample (so a
/// run that never samples registers nothing and trace bytes are
/// untouched). Steady-state recording is then allocation-free: no
/// `format!` per gauge per sample, no name scans.
#[derive(Debug)]
pub(crate) struct SamplerSeries {
    inflight_reads: CounterId,
    inflight_writes: CounterId,
    /// One series per disk, in disk-index order.
    disk_queues: Vec<CounterId>,
    cache_resident: CounterId,
    cache_dirty: CounterId,
    /// Per-PID `pid{pid}.cpu_share` series, interned when the pid is
    /// first sampled (pid-order iteration keeps registration, and thus
    /// Chrome track numbering, deterministic).
    pid_shares: IdMap<u32, CounterId>,
}

impl SamplerSeries {
    fn register(trace: &mut Trace, ndisks: usize) -> Self {
        SamplerSeries {
            inflight_reads: trace.counter_id("splice.inflight_reads"),
            inflight_writes: trace.counter_id("splice.inflight_writes"),
            disk_queues: (0..ndisks)
                .map(|i| trace.counter_id(&format!("disk{i}.queue")))
                .collect(),
            cache_resident: trace.counter_id("cache.resident"),
            cache_dirty: trace.counter_id("cache.dirty"),
            pid_shares: IdMap::default(),
        }
    }
}

/// The callout-driven gauge recorder (see the module docs). Owned by
/// the kernel when sampling is enabled.
#[derive(Debug)]
pub(crate) struct Sampler {
    /// Sampling period.
    pub(crate) period: Dur,
    /// Ring capacity; the oldest sample is dropped beyond it.
    pub(crate) capacity: usize,
    /// The bounded sample ring.
    pub(crate) samples: VecDeque<ProfileSample>,
    /// Cumulative CPU per pid at the previous sample (for deltas).
    pub(crate) last_cpu: IdMap<u32, Dur>,
    /// When the previous sample was taken.
    pub(crate) last_at: SimTime,
    /// Samples dropped at capacity.
    pub(crate) dropped: u64,
    /// Interned counter handles, populated on the first firing.
    pub(crate) series: Option<SamplerSeries>,
}

impl Kernel {
    /// Installs the gauge sampler and arms its callout (the builder's
    /// opt-in path; call after any trace installation).
    pub(crate) fn install_sampler(&mut self, period: Dur, capacity: usize) {
        assert!(capacity > 0, "sampler capacity must be positive");
        assert!(!period.is_zero(), "sampler period must be positive");
        self.trace.set_counter_capacity(capacity);
        self.sampler = Some(Sampler {
            period,
            capacity,
            samples: VecDeque::new(),
            last_cpu: IdMap::default(),
            last_at: self.q.now(),
            dropped: 0,
            series: None,
        });
        let ticks = self.dur_to_ticks(period);
        self.callout.schedule(self.tick, ticks, KWork::Sample);
        let now = self.q.now();
        self.trace
            .emit(now, || TraceEvent::CalloutArm { delay_ticks: ticks });
    }

    /// One sampler firing: record every gauge, mirror them into the
    /// trace's counter tracks, and re-arm.
    pub(crate) fn on_sample(&mut self) {
        let Some(mut s) = self.sampler.take() else {
            return; // sampling was never enabled; stale work
        };
        let now = self.q.now();
        let (mut inflight_reads, mut inflight_writes) = (0u64, 0u64);
        for d in self.splices.values() {
            inflight_reads += d.pending_reads as u64;
            inflight_writes += d.pending_writes as u64;
        }
        let disk_queues: Vec<u64> = self.disks.iter().map(|d| d.kind.queue_depth()).collect();
        let cache_resident = self.cache.resident_count() as u64;
        let cache_dirty = self.cache.dirty_count() as u64;
        let wall = now.since(s.last_at);
        // Process-table iteration is pid-ordered, so the share vector —
        // and everything serialized from it — is deterministic.
        let mut cpu_share = Vec::new();
        for p in self.procs.iter() {
            let cpu = p.acct.cpu_time();
            let prev = s.last_cpu.insert(p.pid.0, cpu).unwrap_or(Dur::ZERO);
            let used = cpu.saturating_sub(prev);
            // Accounting posts a quantum's CPU when it completes, so a
            // quantum straddling the sample boundary lands its whole
            // charge in one interval; clamp to the uniprocessor bound
            // (the long-run average is unaffected).
            let frac = if wall.is_zero() {
                0.0
            } else {
                (used.as_ns() as f64 / wall.as_ns() as f64).min(1.0)
            };
            cpu_share.push((p.pid.0, frac));
        }
        s.last_at = now;

        // Intern the series handles on the first firing (matching the
        // creation order the by-name path used), then record through
        // them: the steady-state sample costs no allocation and no name
        // scans. Only a newly appeared pid interns a new series.
        let series = s
            .series
            .get_or_insert_with(|| SamplerSeries::register(&mut self.trace, disk_queues.len()));
        self.trace
            .record_counter_id(now, series.inflight_reads, inflight_reads as f64);
        self.trace
            .record_counter_id(now, series.inflight_writes, inflight_writes as f64);
        for (i, q) in disk_queues.iter().enumerate() {
            self.trace
                .record_counter_id(now, series.disk_queues[i], *q as f64);
        }
        self.trace
            .record_counter_id(now, series.cache_resident, cache_resident as f64);
        self.trace
            .record_counter_id(now, series.cache_dirty, cache_dirty as f64);
        for (pid, frac) in &cpu_share {
            let id = match series.pid_shares.get(pid) {
                Some(&id) => id,
                None => {
                    let id = self.trace.counter_id(&format!("pid{pid}.cpu_share"));
                    series.pid_shares.insert(*pid, id);
                    id
                }
            };
            self.trace.record_counter_id(now, id, *frac);
        }

        if s.samples.len() == s.capacity {
            s.samples.pop_front();
            s.dropped += 1;
        }
        s.samples.push_back(ProfileSample {
            at: now,
            inflight_reads,
            inflight_writes,
            disk_queues,
            cache_resident,
            cache_dirty,
            cpu_share,
        });

        let ticks = self.dur_to_ticks(s.period);
        self.callout.schedule(self.tick, ticks, KWork::Sample);
        self.trace
            .emit(now, || TraceEvent::CalloutArm { delay_ticks: ticks });
        self.sampler = Some(s);
    }

    /// Takes a resource-accounting snapshot (see [`ProfileSnapshot`]).
    pub fn profile(&self) -> ProfileSnapshot {
        let cpu = self.cpu.metrics();
        ProfileSnapshot {
            at: self.now(),
            procs: self
                .procs
                .iter()
                .map(|p| ProcProfile {
                    pid: p.pid.0,
                    name: p.program.name().to_string(),
                    user_time: p.acct.user_time,
                    sys_time: p.acct.sys_time,
                    vcsw: p.acct.vcsw,
                    icsw: p.acct.icsw,
                    syscalls: p.acct.syscalls,
                    exited: p.exited(),
                })
                .collect(),
            kernel_cpu: CpuClassProfile {
                intr: cpu.intr_time,
                soft: cpu.soft_time,
                idle_soft: cpu.idle_soft_time,
            },
            devices: self
                .disks
                .iter()
                .map(|d| DeviceProfile {
                    name: d.name.clone(),
                    busy_time: d.kind.busy_time(),
                    requests: d.kind.requests(),
                    queue_depth: d.kind.queue_depth(),
                    service: HistSummary::from(d.kind.service_hist()),
                })
                .collect(),
            cache: CacheOccupancy {
                pool_size: self.cache.pool_size() as u64,
                resident: self.cache.resident_count() as u64,
                dirty: self.cache.dirty_count() as u64,
            },
            stages: self.kstat.stages.clone(),
        }
    }

    /// The recorded gauge samples, oldest first (empty when sampling is
    /// disabled).
    pub fn samples(&self) -> impl Iterator<Item = &ProfileSample> {
        self.sampler.iter().flat_map(|s| s.samples.iter())
    }

    /// Serializes the sampler's time series as the `TS_*.json` document:
    /// workload label, period, drop count, and the sample array.
    pub fn timeseries_json(&self, workload: &str) -> Json {
        let (period, dropped, samples) = match &self.sampler {
            Some(s) => (
                s.period,
                s.dropped,
                s.samples.iter().map(ProfileSample::to_json).collect(),
            ),
            None => (Dur::ZERO, 0, Vec::new()),
        };
        Json::obj()
            .with("workload", Json::Str(workload.into()))
            .with("period_ns", Json::Num(period.as_ns() as f64))
            .with("dropped", Json::Num(dropped as f64))
            .with("samples", Json::Arr(samples))
    }
}
