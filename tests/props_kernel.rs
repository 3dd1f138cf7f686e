//! Whole-kernel property tests: arbitrary file sizes and configurations
//! through the full splice path, with data integrity and filesystem
//! consistency as the properties — plus determinism of the simulation.

// Compiled only with `cargo test --features props` (hermetic default
// builds skip the property suites).
#![cfg(feature = "props")]

use kdev::{AudioDac, VideoDac};
use khw::{DiskProfile, FaultOp, FaultPlan};
use kproc::programs::{Cp, EndSpec, EndpointPair, Scp, ScpMode};
use kproc::{Errno, ProcState, SpliceLen, SyscallRet};
use proptest::prelude::*;
use splice::{FlowControl, KernelBuilder};

fn splice_copy_roundtrip(len: u64, seed: u64, flow: FlowControl, block_size: u32) {
    let mut k = KernelBuilder::paper_machine(DiskProfile::ramdisk())
        .tune(|cfg| {
            cfg.flow = flow;
            cfg.block_size = block_size;
        })
        .build();
    k.setup_file("/d0/src", len, seed);
    k.cold_cache();
    let pid = k.spawn(Box::new(Scp::with_options(
        "/d0/src",
        "/d1/dst",
        ScpMode::Sync,
        1,
    )));
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    assert_eq!(
        k.verify_pattern_file("/d1/dst", len, seed),
        None,
        "splice corrupted {len} bytes (bs={block_size}, flow={flow:?})"
    );
    let errors = k.fsck_all();
    assert!(errors.is_empty(), "{errors:?}");
}

proptest! {
    // Each case boots a whole kernel; keep the counts moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn splice_copies_arbitrary_sizes(len in 1u64..600_000, seed in any::<u64>()) {
        splice_copy_roundtrip(len, seed, FlowControl::default(), 8192);
    }

    #[test]
    fn splice_copies_under_arbitrary_flow_control(
        len in 1u64..300_000,
        lo_reads in 1u32..8,
        lo_writes in 1u32..8,
        batch in 1u32..10,
    ) {
        splice_copy_roundtrip(
            len,
            7,
            FlowControl { lo_reads, lo_writes, batch },
            8192,
        );
    }

    #[test]
    fn splice_copies_with_other_block_sizes(
        len in 1u64..300_000,
        bs_shift in 12u32..15, // 4 KB, 8 KB, 16 KB
    ) {
        splice_copy_roundtrip(len, 11, FlowControl::default(), 1 << bs_shift);
    }

    /// Failure-semantics contract under arbitrary seeded fault plans,
    /// across the endpoint matrix rows that touch a disk: every splice
    /// either completes byte-exact or returns the documented `EIO` with
    /// `bytes_moved <= requested` — and every block span in the trace is
    /// well-formed (no half-open read/write pairs left behind).
    #[test]
    fn faulty_splices_complete_or_fail_with_documented_errno(
        len_blocks in 1u64..32,
        plan_seed in any::<u64>(),
        read_permille in 0u32..100,
        write_permille in 0u32..50,
        dst_pick in 0usize..3,
    ) {
        let read_rate = f64::from(read_permille) / 1000.0;
        let write_rate = f64::from(write_permille) / 1000.0;
        let total = len_blocks * 8192;
        let mut k = KernelBuilder::paper_machine(DiskProfile::ramdisk())
            .audio_dac("/dev/speaker", AudioDac::new(2_000_000, 256 * 1024))
            .video_dac("/dev/video_dac", VideoDac::new(8192))
            .tune(|cfg| cfg.update_interval = None)
            .trace(1 << 18)
            .build();
        k.setup_file("/d0/src", total, 23);
        k.cold_cache();
        k.set_fault_plan(
            0,
            FaultPlan::new(plan_seed).transient_eio(FaultOp::Read, read_rate),
        );
        k.set_fault_plan(
            1,
            FaultPlan::new(plan_seed ^ 0x9e37).transient_eio(FaultOp::Write, write_rate),
        );

        let dst_spec = match dst_pick {
            0 => EndSpec::create("/d1/dst"),
            1 => EndSpec::write("/dev/speaker"),
            _ => EndSpec::write("/dev/video_dac"),
        };
        let (pair, result) = EndpointPair::new(
            EndSpec::read("/d0/src"),
            dst_spec,
            SpliceLen::Bytes(total),
        );
        let pid = k.spawn(Box::new(pair));
        let horizon = k.horizon(600);
        k.run_to_exit(horizon);

        prop_assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
        let got = result.borrow().clone().expect("splice returned");
        let out = k.splice_outcome(1).done().expect("outcome recorded");
        let q = k.trace().query();
        match got {
            SyscallRet::Val(n) => {
                prop_assert_eq!(n as u64, total, "short success is forbidden");
                prop_assert_eq!(out.bytes_moved, total);
                prop_assert_eq!(out.error, None);
                prop_assert_eq!(k.metrics().splice.aborted, 0);
                if dst_pick == 0 {
                    prop_assert_eq!(k.verify_pattern_file("/d1/dst", total, 23), None);
                }
                prop_assert!(q.block_spans(1).iter().all(|s| s.complete()));
            }
            SyscallRet::Err(e) => {
                prop_assert_eq!(e, Errno::Eio, "only the documented errno");
                prop_assert_eq!(out.error, Some(Errno::Eio));
                prop_assert!(out.bytes_moved <= total);
                prop_assert_eq!(k.metrics().splice.aborted, 1);
            }
            other => prop_assert!(false, "unexpected splice return {other:?}"),
        }
        // Either way: every observed span is well-ordered (an aborted
        // block may stop early, but never runs phases out of order) and
        // the filesystems survive structurally.
        prop_assert!(q.block_spans(1).iter().all(|s| s.ordered()));
        prop_assert!(k.fsck_all().is_empty());
    }

    /// `cp` under random transient write `EIO` on the destination disk
    /// either exits 0 with a byte-exact destination or exits nonzero: a
    /// failed write-behind write never passes silently.
    #[test]
    fn cp_under_write_faults_copies_exactly_or_fails(
        len in 1u64..300_000,
        plan_seed in any::<u64>(),
        write_permille in 0u32..200,
    ) {
        let mut k = KernelBuilder::paper_machine(DiskProfile::ramdisk())
            .tune(|cfg| cfg.update_interval = None)
            .build();
        k.setup_file("/d0/src", len, 31);
        k.cold_cache();
        k.set_fault_plan(
            1,
            FaultPlan::new(plan_seed)
                .transient_eio(FaultOp::Write, f64::from(write_permille) / 1000.0),
        );
        let pid = k.spawn(Box::new(Cp::new("/d0/src", "/d1/dst")));
        let horizon = k.horizon(600);
        k.run_to_exit(horizon);
        let ProcState::Exited(code) = k.procs().must(pid).state else {
            unreachable!("run_to_exit returned with cp alive")
        };
        if code == 0 {
            prop_assert_eq!(
                k.verify_pattern_file("/d1/dst", len, 31),
                None,
                "cp exited 0 over a corrupt destination"
            );
        }
    }

    #[test]
    fn cp_and_splice_produce_identical_files(len in 1u64..400_000, seed in any::<u64>()) {
        let mut k = KernelBuilder::paper_machine(DiskProfile::ramdisk()).build();
        k.setup_file("/d0/src", len, seed);
        k.cold_cache();
        k.spawn(Box::new(Cp::new("/d0/src", "/d1/via_cp")));
        k.spawn(Box::new(Scp::new("/d0/src", "/d1/via_scp")));
        let horizon = k.horizon(600);
        k.run_to_exit(horizon);
        let a = k.dump_file("/d1/via_cp");
        let b = k.dump_file("/d1/via_scp");
        prop_assert_eq!(a, b);
        prop_assert!(k.fsck_all().is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Connection-scenario byte conservation: for arbitrary fleet sizes,
    /// file sizes, link loss rates, and receive-buffer limits, either
    /// every client completes byte-exact or the kernel's counters
    /// account the shortfall *exactly* — nothing leaks, nothing is
    /// double-counted. Every splice the server ran left complete,
    /// causally ordered block spans.
    #[test]
    fn lossy_connection_scenarios_account_every_byte(
        clients in 1usize..10,
        file_bytes in 1u64..40_000,
        loss_ppm in 0u32..200_000,
        rcv_limit in 2048usize..131_072,
        seed in any::<u64>(),
    ) {
        use knet::LinkModel;
        use kproc::programs::ServeMode;
        use ksim::Dur;
        use splice::ServeScenario;

        let sc = ServeScenario {
            file_bytes,
            window: Dur::from_ms(20),
            ..ServeScenario::new(clients, ServeMode::Splice, seed)
        };
        let mut k = sc.boot(KernelBuilder::paper_machine_ram().trace(1 << 16));
        // The limit applies to sockets created after this point — i.e.
        // every socket of the scenario.
        k.net_mut().set_rcv_limit(rcv_limit);
        k.net_mut().set_link_model(
            ServeScenario::HOST,
            LinkModel { loss_ppm, ..LinkModel::gigabit(seed) },
        );
        let run = sc.spawn(&mut k);
        // A lost request leaves the server's accept loop hung forever,
        // and lost or dropped data leaves a fetch open: run to
        // quiescence at a fixed horizon, not to the finish.
        let horizon = k.horizon(30);
        k.run_until(horizon, |k| run.finished(k));

        let s = run.stats.borrow();
        let st = k.net().stats();
        let total = clients as u64 * file_bytes;
        let queued = k.net().total_rcv_used() as u64;

        // Only the server moves payload bytes (requests are empty), and
        // every accepted connection it served went out in full.
        prop_assert_eq!(st.bytes_sent, s.served * file_bytes);
        // Wire conservation: sent = delivered + lost + dropped.
        prop_assert_eq!(st.sent, st.delivered + st.lost_link + st.dropped());
        prop_assert_eq!(
            st.bytes_sent,
            st.bytes_delivered
                + st.bytes_lost_link
                + st.bytes_dropped_rcv_full
                + st.bytes_dropped_no_listener
                + st.bytes_dropped_backlog
        );
        // Delivery conservation: delivered = received + still queued +
        // thrown away when a socket closed with data queued.
        prop_assert_eq!(
            st.bytes_delivered,
            s.bytes_received + queued + st.bytes_discarded_close
        );
        // The headline: byte-exact service, or an exact shortfall audit.
        prop_assert_eq!(
            total,
            s.bytes_received
                + (clients as u64 - s.served) * file_bytes
                + st.bytes_lost_link
                + st.bytes_dropped_rcv_full
                + st.bytes_dropped_no_listener
                + st.bytes_dropped_backlog
                + queued
                + st.bytes_discarded_close,
            "shortfall not accounted (loss_ppm={}, rcv_limit={})",
            loss_ppm,
            rcv_limit
        );

        // A lossless link with roomy receive buffers must serve everyone.
        if loss_ppm == 0 && rcv_limit as u64 >= 65_536 {
            prop_assert!(run.finished(&k), "clean run left the server or a fetch hung");
            prop_assert!(matches!(k.procs().must(run.server).state, ProcState::Exited(0)));
            prop_assert_eq!(s.completed, clients as u64);
            prop_assert_eq!(s.mismatches, 0);
            prop_assert_eq!(s.bytes_received, total);
        }

        // The server serves strictly one splice per accepted conn, and
        // each left complete, causally ordered block spans.
        prop_assert_eq!(k.metrics().splice.started, s.served);
        let q = k.trace().query();
        for desc in 1..=s.served {
            let spans = q.block_spans(desc);
            prop_assert!(!spans.is_empty(), "desc {} left no spans", desc);
            for sp in spans {
                prop_assert!(sp.complete(), "desc {} incomplete span", desc);
                prop_assert!(sp.ordered(), "desc {} out-of-order span", desc);
            }
        }
    }
}

#[test]
fn simulation_is_deterministic() {
    let run = || {
        let mut k = KernelBuilder::paper_machine(DiskProfile::rz58()).build();
        k.setup_file("/d0/src", 2 * 1024 * 1024, 3);
        k.cold_cache();
        k.spawn(Box::new(Scp::new("/d0/src", "/d1/dst")));
        k.spawn(Box::new(Cp::new("/d0/src", "/d1/dst2")));
        let horizon = k.horizon(600);
        let end = k.run_to_exit(horizon);
        let ctx = k.metrics().sched.ctx_switches;
        (end.as_ns(), ctx)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical inputs must give identical simulations");
}
