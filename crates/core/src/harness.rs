//! Experiment scaffolding: kernel construction and setup/verification
//! helpers that bypass timing (clearly separated from the measured paths),
//! and the connection-scale server scenario every server bench and test
//! runs.

use std::fmt::Display;
use std::rc::Rc;

use kdev::{AudioDac, Framebuffer, VideoDac};
use kfs::Ino;
use khw::DiskProfile;
use knet::{LinkModel, NetAddr};
use kproc::programs::util::{pattern_check, pattern_fill};
use kproc::programs::{open_loop_delays, scenario_stats, ServeMode, SharedScenario, SpliceServer};
use kproc::{Pid, ProcState};
use ksim::{Dur, SimTime};

use crate::kernel::{Kernel, KernelConfig};
use crate::objects::{CharDev, DiskUnit};

/// Setup and verification move file contents in chunks of this size.
const FILE_CHUNK: u64 = 1 << 20;

/// Builds a [`Kernel`] with disks and character devices.
pub struct KernelBuilder {
    cfg: KernelConfig,
    disks: Vec<(String, DiskProfile)>,
    cdevs: Vec<(String, CharDev)>,
    trace: Option<usize>,
    sample: Option<(Dur, usize)>,
}

impl Default for KernelBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelBuilder {
    /// A builder with the paper's default configuration.
    pub fn new() -> KernelBuilder {
        KernelBuilder {
            cfg: KernelConfig::default(),
            disks: Vec::new(),
            cdevs: Vec::new(),
            trace: None,
            sample: None,
        }
    }

    /// Enables the typed trace ring with room for `capacity` records.
    /// Without this opt-in every tracepoint stays a single branch.
    pub fn trace(mut self, capacity: usize) -> KernelBuilder {
        self.trace = Some(capacity);
        self
    }

    /// Enables the resource-accounting sampler: every `period` of
    /// simulated time a gauge sample (inflight splice work, disk queue
    /// depths, cache occupancy, per-PID CPU share) is recorded into a
    /// ring of `capacity` samples and mirrored into the trace's counter
    /// tracks. Without this opt-in no sampling work is ever scheduled
    /// and trace output is byte-identical to a sampler-free kernel.
    pub fn sample(mut self, period: Dur, capacity: usize) -> KernelBuilder {
        self.sample = Some((period, capacity));
        self
    }

    /// Overrides the kernel configuration.
    pub fn config(mut self, cfg: KernelConfig) -> KernelBuilder {
        self.cfg = cfg;
        self
    }

    /// Mutates the configuration in place (ablation sweeps).
    pub fn tune(mut self, f: impl FnOnce(&mut KernelConfig)) -> KernelBuilder {
        f(&mut self.cfg);
        self
    }

    /// Adds a disk mounted at `/<name>`.
    pub fn disk(mut self, name: &str, profile: DiskProfile) -> KernelBuilder {
        self.disks.push((name.to_string(), profile));
        self
    }

    /// Adds an audio DAC at `path` (e.g. `/dev/speaker`).
    pub fn audio_dac(mut self, path: &str, dac: AudioDac) -> KernelBuilder {
        self.cdevs.push((path.to_string(), CharDev::Audio(dac)));
        self
    }

    /// Adds a video DAC at `path` (e.g. `/dev/video_dac`).
    pub fn video_dac(mut self, path: &str, dac: VideoDac) -> KernelBuilder {
        self.cdevs.push((path.to_string(), CharDev::Video(dac)));
        self
    }

    /// Adds a framebuffer at `path` (e.g. `/dev/fb`).
    pub fn framebuffer(mut self, path: &str, fb: Framebuffer) -> KernelBuilder {
        self.cdevs.push((path.to_string(), CharDev::Fb(fb)));
        self
    }

    /// Builds the kernel.
    pub fn build(self) -> Kernel {
        let mut k = Kernel::new(self.cfg);
        for (name, profile) in self.disks {
            k.add_disk(&name, profile);
        }
        for (path, dev) in self.cdevs {
            k.add_cdev(&path, dev);
        }
        if let Some(capacity) = self.trace {
            k.install_trace(capacity);
        }
        // After the trace: installing a trace ring replaces the trace
        // object, and the sampler registers its counter capacity on it.
        if let Some((period, capacity)) = self.sample {
            k.install_sampler(period, capacity);
        }
        k
    }

    /// The paper's experimental machine: two disks of the given profile
    /// (source and destination filesystems on different physical disks,
    /// §6.2) mounted at `/d0` and `/d1`.
    pub fn paper_machine(profile: DiskProfile) -> KernelBuilder {
        KernelBuilder::new()
            .disk("d0", profile.clone())
            .disk("d1", profile)
    }

    /// [`KernelBuilder::paper_machine`] with RAM disks — the most common
    /// test fixture. Returns the builder (like every other constructor
    /// here); call `.build()` to get the kernel.
    pub fn paper_machine_ram() -> KernelBuilder {
        Self::paper_machine(DiskProfile::ramdisk())
    }
}

/// The connection-scale server scenario — the §6.2 method with a file
/// server as the contender: a seeded file on `/d0`, a lossless 1 Gb/s
/// link to the server's host, a [`SpliceServer`], and an open-loop
/// traffic source at the link that runs on no simulated CPU. This is
/// the one place the scenario is wired; the fields are what callers
/// vary.
#[derive(Clone, Copy, Debug)]
pub struct ServeScenario {
    /// Connections, all of which the server serves.
    pub conns: usize,
    /// Window the arrivals are spread over.
    pub window: Dur,
    /// How the server moves the file onto each connection.
    pub mode: ServeMode,
    /// Bytes of the file every connection fetches.
    pub file_bytes: u64,
    /// Pattern seed of the file the source verifies.
    pub seed: u64,
    /// Seed of the arrival draw and of the link model.
    pub arrival_seed: u64,
}

/// The server and the shared fetch results of one
/// [`ServeScenario::spawn`].
pub struct ServeRun {
    /// The server process.
    pub server: Pid,
    /// Results the server and the traffic source tally.
    pub stats: SharedScenario,
}

impl ServeRun {
    /// The run predicate: the server has exited and the traffic source
    /// has ended every fetch (one whose datagram the link lost never
    /// ends, so a lossy run needs a horizon).
    pub fn finished(&self, k: &Kernel) -> bool {
        k.procs().must(self.server).exited() && k.traffic_idle()
    }
}

impl ServeScenario {
    /// The host the server listens on.
    pub const HOST: u32 = 1;
    /// The port the server listens on.
    pub const PORT: u16 = 80;
    /// The file the server serves.
    pub const PATH: &'static str = "/d0/file";
    /// Offered load of the default arrival window.
    pub const ARRIVALS_PER_SEC: u64 = 10_000;
    /// Bytes of the default file (one block).
    pub const FILE_BYTES: u64 = 8 * 1024;

    /// `conns` fetches of [`Self::FILE_BYTES`] each, arriving at
    /// [`Self::ARRIVALS_PER_SEC`]; `seed` seeds the file, the arrivals
    /// and the link alike.
    pub fn new(conns: usize, mode: ServeMode, seed: u64) -> ServeScenario {
        ServeScenario {
            conns,
            window: Dur::from_ns(conns as u64 * 1_000_000_000 / Self::ARRIVALS_PER_SEC),
            mode,
            file_bytes: Self::FILE_BYTES,
            seed,
            arrival_seed: seed,
        }
    }

    /// Builds the kernel from `b` (its trace and sampler choices stay
    /// the caller's), models the link, seeds the file and cold-starts
    /// the cache.
    pub fn boot(&self, b: KernelBuilder) -> Kernel {
        let mut k = b.build();
        k.net_mut()
            .set_link_model(Self::HOST, LinkModel::gigabit(self.arrival_seed));
        k.setup_file(Self::PATH, self.file_bytes, self.seed);
        k.cold_cache();
        k
    }

    /// Spawns the server, runs the kernel until the server first blocks
    /// (its listener is up by then), then starts the traffic source: the
    /// arrival window opens there.
    pub fn spawn(&self, k: &mut Kernel) -> ServeRun {
        self.spawn_with(k, |stats| {
            SpliceServer::new(
                Self::PORT,
                Self::PATH,
                self.file_bytes,
                self.conns,
                self.conns as u32,
                self.mode,
                stats,
            )
        })
    }

    /// [`Self::spawn`] with a caller-built server (a smaller backlog, a
    /// warmup nap), handed the stats block the run reports into.
    pub fn spawn_with(
        &self,
        k: &mut Kernel,
        server: impl FnOnce(SharedScenario) -> SpliceServer,
    ) -> ServeRun {
        let stats = scenario_stats();
        let server = k.spawn(Box::new(server(Rc::clone(&stats))));
        let addr = NetAddr {
            host: Self::HOST,
            port: Self::PORT,
        };
        let horizon = k.horizon(600);
        k.run_until(horizon, |k| {
            !matches!(
                k.procs().must(server).state,
                ProcState::Runnable | ProcState::Running
            )
        });
        let start = k.now();
        let arrivals = open_loop_delays(self.conns, self.window, self.arrival_seed);
        k.attach_traffic(
            addr,
            self.file_bytes,
            self.seed,
            arrivals.into_iter().map(|d| start + d).collect(),
            Rc::clone(&stats),
        );
        ServeRun { server, stats }
    }

    /// Asserts a finished run served everyone: the server exited 0 and
    /// every fetch received the whole file byte-exact. `what` prefixes
    /// the failure message.
    ///
    /// # Panics
    ///
    /// Panics if any of those does not hold.
    pub fn check(&self, k: &Kernel, run: &ServeRun, what: impl Display) {
        assert!(
            matches!(k.procs().must(run.server).state, ProcState::Exited(0)),
            "{what}: server failed"
        );
        let s = run.stats.borrow();
        assert_eq!(s.completed, self.conns as u64, "{what}: fetches short");
        assert_eq!(s.mismatches, 0, "{what}: corrupted delivery");
        assert_eq!(
            s.bytes_received,
            self.conns as u64 * self.file_bytes,
            "{what}: byte shortfall"
        );
    }

    /// Boots, spawns, runs until [`ServeRun::finished`] and checks the
    /// run.
    ///
    /// # Panics
    ///
    /// As [`Self::check`], which a hung run fails.
    pub fn serve(&self, b: KernelBuilder, what: impl Display) -> (Kernel, ServeRun) {
        let mut k = self.boot(b);
        let run = self.spawn(&mut k);
        let horizon = k.horizon(600);
        k.run_until(horizon, |k| run.finished(k));
        self.check(&k, &run, what);
        (k, run)
    }
}

impl Kernel {
    // ----- setup/verification (timing-free, never in measured phases) -------

    /// Creates (or replaces) a file with `len` pattern bytes, writing the
    /// medium directly. Returns nothing; panics on setup errors because
    /// experiment setup must not silently degrade.
    ///
    /// # Panics
    ///
    /// Panics if the path cannot be created or the disk is full.
    pub fn setup_file(&mut self, path: &str, len: u64, seed: u64) {
        let (disk, sub) = self
            .resolve_disk_path(path)
            .unwrap_or_else(|| panic!("bad setup path {path}"));
        let unit = &mut self.disks[disk];
        let ino = match unit.fs.lookup(&sub) {
            Ok(ino) => {
                unit.fs.truncate(ino).expect("inode exists");
                ino
            }
            Err(_) => unit.fs.create(&sub).expect("creatable path"),
        };
        // Chunked writes through one reused buffer keep memory flat for
        // big files.
        let mut buf = vec![0u8; FILE_CHUNK.min(len) as usize];
        let mut off = 0u64;
        while off < len {
            let data = &mut buf[..FILE_CHUNK.min(len - off) as usize];
            pattern_fill(seed, off, data);
            let (kind, fs) = (&mut unit.kind, &mut unit.fs);
            fs.write_direct(kind.store_mut(), ino, off, data)
                .expect("setup write");
            off += data.len() as u64;
        }
        let (kind, fs) = (&mut unit.kind, &mut unit.fs);
        fs.sync(kind.store_mut());
    }

    /// Reads a file's contents straight from the medium (verification).
    ///
    /// # Panics
    ///
    /// Panics if the path does not resolve.
    pub fn dump_file(&self, path: &str) -> Vec<u8> {
        let (unit, ino) = self.disk_file(path).expect("file exists");
        let size = unit.fs.size(ino);
        unit.fs
            .read_direct(unit.kind.store(), ino, 0, size as usize)
    }

    /// Verifies that a file holds exactly `len` bytes of pattern `seed`.
    /// Returns the first mismatching offset, if any: `0` for a missing
    /// file and `min(size, len)` for one of the wrong size. The file is
    /// checked in place, one chunk at a time.
    ///
    /// # Panics
    ///
    /// Panics if the path does not name a disk.
    pub fn verify_pattern_file(&self, path: &str, len: u64, seed: u64) -> Option<u64> {
        let Some((unit, ino)) = self.disk_file(path) else {
            return Some(0);
        };
        let size = unit.fs.size(ino);
        if size != len {
            return Some(size.min(len));
        }
        let mut off = 0u64;
        while off < size {
            let n = FILE_CHUNK.min(size - off) as usize;
            let data = unit.fs.read_direct(unit.kind.store(), ino, off, n);
            if let Some(i) = pattern_check(seed, off, &data) {
                return Some(off + i as u64);
            }
            off += n as u64;
        }
        None
    }

    /// File size straight from the filesystem.
    ///
    /// # Panics
    ///
    /// Panics if the path does not resolve.
    pub fn file_size(&self, path: &str) -> u64 {
        let (unit, ino) = self.disk_file(path).expect("file exists");
        unit.fs.size(ino)
    }

    /// The disk and inode of the file at `path`, or `None` if no such
    /// file exists.
    ///
    /// # Panics
    ///
    /// Panics if the path does not name a disk.
    fn disk_file(&self, path: &str) -> Option<(&DiskUnit, Ino)> {
        let (disk, sub) = self
            .resolve_disk_path(path)
            .unwrap_or_else(|| panic!("bad path {path}"));
        let unit = &self.disks[disk];
        unit.fs.lookup(&sub).ok().map(|ino| (unit, ino))
    }

    /// Flushes all dirty blocks and metadata, waits for the devices to
    /// quiesce, then drops every cached block — the §6.1 "read cache cold
    /// start" between experiment phases.
    ///
    /// # Panics
    ///
    /// Panics if processes are still alive (cold-starting mid-experiment
    /// would corrupt the measurement) or the flush does not quiesce.
    pub fn cold_cache(&mut self) {
        assert!(
            self.procs.all_exited(),
            "cold_cache with live processes would distort measurements"
        );
        // Flush dirty blocks.
        for disk in 0..self.disks.len() {
            let dev = self.disks[disk].dev;
            for buf in self.cache.dirty_bufs(dev) {
                if !self.cache.claim_for_flush(buf) {
                    continue;
                }
                let mut fx = Vec::new();
                self.cache.bawrite(buf, &mut fx);
                self.apply_cache_effects(fx, crate::kernel::IoCtx::Kernel);
            }
        }
        // Wait for writes (and any splice stragglers) to finish.
        let horizon = self.q.now() + ksim::Dur::from_secs(120);
        self.run_until(horizon, |k| {
            k.disks.iter().all(|d| d.write_inflight == 0) && k.deferred.is_empty()
        });
        assert!(
            self.disks.iter().all(|d| d.write_inflight == 0),
            "flush did not quiesce"
        );
        // Metadata writeback (setup-grade, timing-free).
        for unit in &mut self.disks {
            let (kind, fs) = (&mut unit.kind, &mut unit.fs);
            fs.sync(kind.store_mut());
        }
        self.cache.invalidate_all();
        self.ctr.cold_caches += 1;
    }

    /// Runs `fsck` on every mounted filesystem, returning all errors.
    pub fn fsck_all(&mut self) -> Vec<String> {
        let mut errors = Vec::new();
        for unit in &mut self.disks {
            let (kind, fs) = (&mut unit.kind, &mut unit.fs);
            fs.sync(kind.store_mut());
            let rep = kfs::fsck(unit.kind.store());
            for e in rep.errors {
                errors.push(format!("{}: {e}", unit.name));
            }
        }
        errors
    }

    /// Convenience horizon helper: `now + secs` of simulated time.
    pub fn horizon(&self, secs: u64) -> SimTime {
        self.q.now() + ksim::Dur::from_secs(secs)
    }
}
