//! Named, trace-enabled workloads for `tracedump`, `analyze` and the
//! trace tests.
//!
//! Each workload boots a kernel with the typed trace ring on
//! ([`splice::KernelBuilder::trace`]), runs one representative scenario
//! to completion with its results verified, and returns the kernel so
//! callers can query or export the trace.

use kdev::{AudioDac, VideoDac};
use khw::DiskProfile;
use kproc::programs::{EndSpec, EndpointPair, MoviePlayer, Scp, ServeMode, UdpSource};
use kproc::{ProcState, SockAddr, SpliceLen, SyscallRet};
use ksim::Dur;
use splice::{Kernel, KernelBuilder, ServeScenario};

/// Trace-ring capacity for every workload: ample for the scenarios here.
const TRACE_CAP: usize = 1 << 20;

/// The named workloads, in the order `tracedump` runs them by default.
pub const ALL: &[&str] = &["scp_ram", "spool", "movie", "server"];

/// Connections the `server` workload serves.
const SERVER_CONNS: usize = 512;
/// Pattern + arrival + link seed of the `server` workload.
const SERVER_SEED: u64 = 0x5e12;
/// Arrival window the `server` workload's fetches spread over.
const SERVER_WINDOW: Dur = Dur::from_ms(100);

/// Provenance of one workload: the pattern seeds it feeds to
/// `setup_file`/sources and the bytes it is expected to move end to
/// end. Serialized into every `REPORT_*` consumer's meta block
/// so an artifact documents its own inputs.
pub struct WorkloadMeta {
    /// Workload name, as in [`ALL`].
    pub name: &'static str,
    /// Pattern seeds, in setup order.
    pub seeds: Vec<u64>,
    /// Bytes the workload must move for its own checks to pass.
    pub expected_bytes: u64,
}

/// The provenance block for workload `name`.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn meta(name: &str) -> WorkloadMeta {
    match name {
        "scp_ram" => WorkloadMeta {
            name: "scp_ram",
            seeds: vec![5],
            expected_bytes: 1 << 20,
        },
        "spool" => WorkloadMeta {
            name: "spool",
            seeds: vec![11],
            expected_bytes: 1 << 20,
        },
        "movie" => WorkloadMeta {
            name: "movie",
            seeds: vec![1, 2],
            // Audio samples for 30 frames at 30 fps plus 30 video frames.
            expected_bytes: 8_000 + 30 * 64 * 1024,
        },
        "server" => WorkloadMeta {
            name: "server",
            seeds: vec![SERVER_SEED],
            expected_bytes: SERVER_CONNS as u64 * ServeScenario::FILE_BYTES,
        },
        other => panic!("unknown workload `{other}` (known: {})", ALL.join(", ")),
    }
}

/// Runs workload `name` to completion and returns the kernel (trace
/// ring populated).
///
/// # Panics
///
/// Panics on an unknown name, or if the workload fails its own
/// correctness checks.
pub fn run(name: &str) -> Kernel {
    match name {
        "scp_ram" => scp_ram(),
        "spool" => spool(),
        "movie" => movie(),
        "server" => server(),
        other => panic!("unknown workload `{other}` (known: {})", ALL.join(", ")),
    }
}

/// The paper's SCP on the RAM-disk row: one asynchronous file→file
/// splice of 1 MB from `/d0` to `/d1`, cold cache.
fn scp_ram() -> Kernel {
    const BYTES: u64 = 1 << 20;
    let mut k = KernelBuilder::paper_machine_ram().trace(TRACE_CAP).build();
    k.setup_file("/d0/src", BYTES, 5);
    k.cold_cache();
    let pid = k.spawn(Box::new(Scp::new("/d0/src", "/d1/dst")));
    let horizon = k.horizon(300);
    k.run_to_exit(horizon);
    assert!(
        matches!(k.procs().must(pid).state, ProcState::Exited(0)),
        "scp_ram: copy failed"
    );
    assert_eq!(
        k.verify_pattern_file("/d1/dst", BYTES, 5),
        None,
        "scp_ram: corrupted copy"
    );
    k
}

/// Socket→file spooling: a UDP source paced against the soft-work
/// budget feeds a socket that splices straight into a file.
fn spool() -> Kernel {
    const TOTAL: u64 = 1 << 20;
    const DGRAM: usize = 8_192;
    const SRC_GAP: Dur = Dur::from_ms(2);
    let mut k = KernelBuilder::paper_machine_ram().trace(TRACE_CAP).build();
    k.cold_cache();
    let (pair, result) = EndpointPair::new(
        EndSpec::SockBind { port: 7000 },
        EndSpec::create("/d1/dst"),
        SpliceLen::Bytes(TOTAL),
    );
    let pid = k.spawn(Box::new(pair));
    k.spawn(Box::new(UdpSource::new(
        SockAddr {
            host: 1,
            port: 7000,
        },
        DGRAM,
        TOTAL / DGRAM as u64,
        SRC_GAP,
        11,
    )));
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);
    assert!(
        matches!(k.procs().must(pid).state, ProcState::Exited(0)),
        "spool: driver failed"
    );
    assert_eq!(
        result.borrow().clone(),
        Some(SyscallRet::Val(TOTAL as i64)),
        "spool: short transfer"
    );
    k
}

/// The §4 movie player on an RZ58: one EOF audio splice paced by the
/// DAC plus one bounded synchronous video splice per timer tick.
fn movie() -> Kernel {
    const FRAME: usize = 64 * 1024;
    const FRAMES: u64 = 30;
    const FPS: u64 = 30;
    const AUDIO_RATE: u64 = 8_000;
    let mut k = KernelBuilder::new()
        .disk("d0", DiskProfile::rz58())
        .audio_dac("/dev/speaker", AudioDac::new(AUDIO_RATE, 64 * 1024))
        .video_dac("/dev/video_dac", VideoDac::new(FRAME))
        .trace(TRACE_CAP)
        .build();
    let audio_len = AUDIO_RATE * FRAMES / FPS;
    k.setup_file("/d0/movie.audio", audio_len, 1);
    k.setup_file("/d0/movie.video", FRAMES * FRAME as u64, 2);
    k.cold_cache();
    let player = MoviePlayer::new(
        "/d0/movie.audio",
        "/d0/movie.video",
        "/dev/speaker",
        "/dev/video_dac",
        FRAME as u64,
        Dur::from_ms(1000 / FPS),
    );
    let pid = k.spawn(Box::new(player));
    let horizon = k.horizon(60);
    k.run_to_exit(horizon);
    assert!(
        matches!(k.procs().must(pid).state, ProcState::Exited(0)),
        "movie: player failed"
    );
    k
}

/// The connection-scale scenario: a `splice(2)` server fetches one
/// 8 KB file to each of 512 open-loop fetches over a lossless modeled
/// link — the workload behind `bench --bin server`'s sweep, at a
/// tracedump-friendly size.
fn server() -> Kernel {
    let sc = ServeScenario {
        window: SERVER_WINDOW,
        ..ServeScenario::new(SERVER_CONNS, ServeMode::Splice, SERVER_SEED)
    };
    sc.serve(
        KernelBuilder::paper_machine_ram().trace(TRACE_CAP),
        "server",
    )
    .0
}
