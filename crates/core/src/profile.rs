//! Resource accounting: tick-accurate CPU/device/cache attribution.
//!
//! [`Kernel::metrics`](crate::Kernel::metrics) answers *what happened*
//! (event counts, byte volumes, latency digests). [`Kernel::profile`]
//! answers *where the resources went*: a [`ProfileSnapshot`] of
//! per-PID user/system CPU straight from the process table's tick
//! accounting, kernel CPU by admission class, per-device busy time and
//! service-time distributions, and buffer-cache occupancy. The
//! per-stage splice latency histograms live in
//! [`Kernel::kstat`](crate::Kernel::kstat)`().stages`.

use ksim::{Dur, HistSummary, Json, SimTime};

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
/// CPU, kernel CPU by class, device utilization and cache occupancy.
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
}

impl ProfileSnapshot {
    /// The profile entry for `pid`, if the process exists.
    pub fn proc(&self, pid: u32) -> Option<&ProcProfile> {
        self.procs.iter().find(|p| p.pid == pid)
    }

    /// Serializes the snapshot.
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
    }
}

impl Kernel {
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
        }
    }
}
