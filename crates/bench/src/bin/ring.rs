//! Splice-ring batching bench: crossings-per-byte and compute-PID CPU
//! share for batched submission/reaping vs one-at-a-time `splice(2)`.
//!
//! The workload copies `PAIRS` small files between two RAM disks while a
//! fixed-work compute program contends for the CPU. The legacy row runs
//! open/open/splice/close/close per pair (five crossings each); the ring
//! rows open everything up front and move the whole set through one
//! splice ring in waves of `depth` submissions — one `ring_submit` plus
//! one `ring_reap` crossing per wave. Syscall crossings come from the
//! copier PID's own tick accounting (`acct.syscalls`); availability is
//! the compute PID's accounted CPU share over its own lifetime (§6.2
//! style): every cycle the copy path burns delays the compute exit.
//!
//! Artifact: `BENCH_ring.json` — one row per mode. The batching claims
//! are asserted below; `benchdiff` gates the values.

use bench::{bench_doc, json_rows, print_table, test_program, write_table};
use kproc::programs::RingScp;
use ksim::Json;
use splice::KernelBuilder;

/// File pairs copied per run.
const PAIRS: usize = 256;
/// Bytes per source file.
const FILE_BYTES: u64 = 8 * 1024;
/// Ring depths measured (0 = the legacy one-at-a-time baseline).
const DEPTHS: [u32; 5] = [0, 1, 8, 64, 256];

struct Row {
    depth: u32,
    crossings: u64,
    bytes: u64,
    crossings_per_mb: f64,
    elapsed_s: f64,
    /// CPU the copier was billed for (its syscall cost), excluding the
    /// wall-clock time it spent waiting for completions or the CPU.
    copier_cpu_s: f64,
    compute_share: f64,
}

impl Row {
    fn label(&self) -> String {
        if self.depth == 0 {
            "legacy".into()
        } else {
            format!("ring-{}", self.depth)
        }
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .with("mode", Json::Str(self.label()))
            .with("depth", Json::Num(self.depth as f64))
            .with("crossings", Json::Num(self.crossings as f64))
            .with("bytes", Json::Num(self.bytes as f64))
            .with("crossings_per_mb", Json::Num(self.crossings_per_mb))
            .with("elapsed_s", Json::Num(self.elapsed_s))
            .with("copier_cpu_s", Json::Num(self.copier_cpu_s))
            .with("compute_cpu_share", Json::Num(self.compute_share))
    }
}

fn run(depth: u32) -> Row {
    let mut k = KernelBuilder::paper_machine_ram().build();
    for i in 0..PAIRS {
        k.setup_file(&format!("/d0/f{i}"), FILE_BYTES, 0x51ce ^ i as u64);
    }
    k.cold_cache();

    let t0 = k.now();
    let compute = k.spawn(Box::new(test_program()));
    let copier = k.spawn(Box::new(RingScp::new("/d0/f", "/d1/c", PAIRS, depth)));
    let horizon = k.horizon(3600);
    // The copy finishes first; the fixed-work compute program runs on.
    // Availability is measured over the compute program's lifetime (as
    // in the paper's §6.2): every cycle the copy path burns — crossings,
    // handlers, context switches — delays the compute exit.
    let t1 = k.run_until_exit_of(copier, horizon);
    let copy_elapsed = t1.since(t0);
    let t2 = k.run_until_exit_of(compute, horizon);
    let elapsed = t2.since(t0);

    // The copier must have finished cleanly and copied every byte.
    let p = k.procs().must(copier);
    assert!(
        matches!(p.state, kproc::ProcState::Exited(0)),
        "copier did not exit cleanly at depth {depth}: {:?}",
        p.state
    );
    let crossings = p.acct.syscalls;
    let copier_cpu = p.acct.cpu_time();
    for i in 0..PAIRS {
        assert_eq!(
            k.verify_pattern_file(&format!("/d1/c{i}"), FILE_BYTES, 0x51ce ^ i as u64),
            None,
            "copy {i} corrupt at depth {depth}"
        );
    }

    // Compute share over the contended interval, from tick accounting.
    let profile = k.profile();
    let cp = profile.proc(compute.0).expect("compute program in profile");
    let compute_share = cp.cpu_time().as_ns() as f64 / elapsed.as_ns() as f64;

    let bytes = PAIRS as u64 * FILE_BYTES;
    Row {
        depth,
        crossings,
        bytes,
        crossings_per_mb: crossings as f64 / (bytes as f64 / (1024.0 * 1024.0)),
        elapsed_s: copy_elapsed.as_secs_f64(),
        copier_cpu_s: copier_cpu.as_secs_f64(),
        compute_share,
    }
}

fn main() {
    println!(
        "Splice-ring batching: {PAIRS} x {} KB copies, RAM disks",
        FILE_BYTES / 1024
    );
    println!();

    let rows: Vec<Row> = DEPTHS.iter().map(|&d| run(d)).collect();
    print_table(
        &[
            "Mode",
            "crossings",
            "per MB",
            "copy s",
            "copier cpu s",
            "compute share",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.label(),
                    format!("{}", r.crossings),
                    format!("{:.1}", r.crossings_per_mb),
                    format!("{:.3}", r.elapsed_s),
                    format!("{:.3}", r.copier_cpu_s),
                    format!("{:.3}", r.compute_share),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let legacy = &rows[0];
    let ring: Vec<&Row> = rows.iter().filter(|r| r.depth > 0).collect();

    // Crossings-per-byte must fall monotonically with ring depth.
    for pair in ring.windows(2) {
        assert!(
            pair[1].crossings_per_mb < pair[0].crossings_per_mb,
            "crossings-per-byte not monotone: depth {} ({:.1}/MB) vs depth {} ({:.1}/MB)",
            pair[0].depth,
            pair[0].crossings_per_mb,
            pair[1].depth,
            pair[1].crossings_per_mb
        );
    }
    // Deep rings must beat the one-at-a-time baseline on compute share.
    for r in ring.iter().filter(|r| r.depth >= 64) {
        assert!(
            r.compute_share > legacy.compute_share,
            "depth {} compute share {:.3} not above legacy {:.3}",
            r.depth,
            r.compute_share,
            legacy.compute_share
        );
    }
    // A depth-1 ring is the same protocol as a sync splice per pair plus
    // the explicit submit/reap crossings: the copier's accounted syscall
    // cost must stay within 5% of the legacy path.
    let d1 = ring.iter().find(|r| r.depth == 1).unwrap();
    let ratio = d1.copier_cpu_s / legacy.copier_cpu_s;
    assert!(
        (0.95..=1.05).contains(&ratio),
        "depth-1 ring copier cpu {:.3}s vs legacy {:.3}s: ratio {ratio:.3} outside 5%",
        d1.copier_cpu_s,
        legacy.copier_cpu_s
    );

    let doc = bench_doc("ring")
        .with("pairs", Json::Num(PAIRS as f64))
        .with("file_bytes", Json::Num(FILE_BYTES as f64))
        .with("rows", json_rows(&rows, Row::to_json))
        .with("depth1_vs_legacy_cpu_ratio", Json::Num(ratio));
    write_table("ring", &doc);
}
