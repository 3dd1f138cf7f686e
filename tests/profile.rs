//! Cross-crate integration: the resource-accounting profiler.
//!
//! The histogram algebra must be exact where it claims exactness
//! (bucket boundaries, merge), monotone where it estimates
//! (percentiles), and safe at the extremes (top-bucket saturation).
//! A spliced run's profile must account every device and process, and
//! its stage histograms the whole pipeline.

use khw::DiskProfile;
use kproc::programs::Scp;
use kproc::ProcState;
use ksim::Hist;
use splice::{Kernel, KernelBuilder, KernelConfig};

const MB: u64 = 1024 * 1024;

// ----- Hist ---------------------------------------------------------------

#[test]
fn hist_bucket_boundaries_are_exact() {
    let mut h = Hist::new();
    // Straddle the bucket edge at 2^4: 15 is the top of bucket 3,
    // 16 the bottom of bucket 4.
    for v in [15u64, 16, 31, 32] {
        h.record(v);
    }
    assert_eq!(h.buckets()[3], 1); // [8, 16): 15
    assert_eq!(h.buckets()[4], 2); // [16, 32): 16, 31
    assert_eq!(h.buckets()[5], 1); // [32, 64): 32
                                   // 0 and 1 both fold into bucket 0.
    let mut z = Hist::new();
    z.record(0);
    z.record(1);
    assert_eq!(z.buckets()[0], 2);
    // A percentile never reports past the exact extrema, and
    // out-of-range fractions are rejected.
    assert_eq!(h.percentile(1.0), Some(32));
    assert_eq!(h.percentile(-0.1), None);
    assert_eq!(h.percentile(1.1), None);
}

#[test]
fn hist_percentiles_are_monotone() {
    let mut h = Hist::new();
    // Deterministic spread over five decades.
    for i in 1..=4096u64 {
        h.record(i * i % 100_000 + 1);
    }
    let ps: Vec<u64> = [0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0]
        .iter()
        .map(|p| h.percentile(*p).unwrap())
        .collect();
    for w in ps.windows(2) {
        assert!(w[0] <= w[1], "percentiles must be monotone: {ps:?}");
    }
    assert!(ps[0] >= h.min().unwrap());
    assert_eq!(*ps.last().unwrap(), h.max().unwrap());
}

#[test]
fn hist_merge_is_associative() {
    let shard = |seed: u64| {
        let mut h = Hist::new();
        for i in 0..100u64 {
            h.record(seed.wrapping_mul(2654435761).wrapping_add(i * 97) % 1_000_000);
        }
        h
    };
    let (a, b, c) = (shard(1), shard(2), shard(3));

    // (a ∪ b) ∪ c
    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);
    // a ∪ (b ∪ c)
    let mut bc = b.clone();
    bc.merge(&c);
    let mut right = a.clone();
    right.merge(&bc);

    assert_eq!(left.buckets(), right.buckets());
    assert_eq!(left.count(), right.count());
    assert_eq!(left.sum(), right.sum());
    assert_eq!(left.min(), right.min());
    assert_eq!(left.max(), right.max());
    assert_eq!(left.to_json().render(), right.to_json().render());
}

#[test]
fn hist_saturates_at_top_bucket() {
    let mut h = Hist::new();
    h.record(u64::MAX);
    h.record(u64::MAX - 1);
    h.record(1u64 << 63);
    assert_eq!(h.buckets()[63], 3);
    // The estimate clamps into the exact [min, max] range instead of
    // overflowing the bucket upper bound.
    assert_eq!(h.percentile(0.99), Some(u64::MAX));
    assert_eq!(h.min(), Some(1u64 << 63));
}

// ----- profile snapshot ---------------------------------------------------

/// One cold-cache disk→disk splice of `bytes` on two `disk`s.
fn spliced_kernel(disk: DiskProfile, bytes: u64) -> Kernel {
    let mut k = KernelBuilder::paper_machine(disk).build();
    k.setup_file("/d0/src", bytes, 5);
    k.cold_cache();
    let pid = k.spawn(Box::new(Scp::new("/d0/src", "/d1/dst")));
    let horizon = k.horizon(300);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    k
}

/// Device block reads the kernel issued.
fn block_reads(k: &Kernel) -> u64 {
    k.metrics().io.read_bytes / KernelConfig::default().block_size as u64
}

#[test]
fn profile_accounts_stages_and_devices() {
    let k = spliced_kernel(DiskProfile::ramdisk(), 2 * MB);
    let prof = k.profile();

    // Per-stage histograms: a RAM-disk splice exercises the whole
    // pipeline except retries.
    let stages = &k.kstat().stages;
    // Every device read is stamped once; a RAM-disk read never queues.
    assert_eq!(stages.read_queue_wait.count(), block_reads(&k));
    assert_eq!(stages.read_queue_wait.sum(), 0, "RAM-disk read queued");
    assert!(stages.read_service.count() > 0, "no read-service samples");
    assert!(stages.read_to_write.count() > 0, "no gap samples");
    assert!(stages.write_service.count() > 0, "no write-service samples");
    assert_eq!(stages.retry_backoff.count(), 0, "phantom retries");
    assert!(stages.end_to_end.count() > 0, "no end-to-end samples");
    // Stage ordering: a block's read service can never exceed its
    // end-to-end latency.
    assert!(stages.read_service.max() <= stages.end_to_end.max());

    // Devices: both RAM disks moved blocks and accumulated busy time.
    assert_eq!(prof.devices.len(), 2);
    for d in &prof.devices {
        assert!(d.requests > 0, "device {} unused", d.name);
        assert!(!d.busy_time.is_zero(), "device {} no busy time", d.name);
        assert_eq!(d.service.count, d.requests);
    }

    // Processes: the copier exists, exited, and was charged CPU.
    let scp = prof.procs.iter().find(|p| p.name == "scp").expect("scp");
    assert!(scp.exited);
    assert!(!scp.cpu_time().is_zero());
    assert!(scp.syscalls > 0);

    // JSON form carries the stage digests with quantiles.
    let doc = stages.to_json();
    let e2e = doc.get("end_to_end").unwrap();
    for key in ["count", "p50", "p90", "p99"] {
        assert!(e2e.get(key).is_some(), "stage digest missing {key}");
    }

    // On a SCSI drive, reads the engine issues behind the active request
    // queue; each is stamped when it enters service.
    let k = spliced_kernel(DiskProfile::rz58(), MB);
    let wait = &k.kstat().stages.read_queue_wait;
    assert_eq!(wait.count(), block_reads(&k));
    assert!(wait.sum() > 0, "no queued SCSI read was stamped");
}
