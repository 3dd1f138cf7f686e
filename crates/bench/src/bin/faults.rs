//! Fault sweep: splice throughput and recovery cost versus injected
//! transient read-error rate on the RAM-disk SCP environment.
//!
//! Each row boots a fresh two-RAM-disk machine, arms a deterministic
//! [`khw::FaultPlan`] that fails the given fraction of source-disk reads
//! with a one-shot `EIO`, and copies 1 MB with synchronous SCP. Transient
//! errors must always recover (retry with exponential backoff), so every
//! row is verified byte-exact with zero aborts; the interesting output is
//! how much throughput and kernel CPU the recovery machinery costs.
//! Every row must also keep Little's law exact: a failed read attempt
//! holds its pending slot for time no stage histogram records, and the
//! audit counts it as lost time.
//!
//! Writes `BENCH_faults.json` with one row per error rate.

use bench::{bench_doc, json_rows, littles_law_audit, print_table, write_table};
use khw::{FaultOp, FaultPlan};
use kproc::programs::{Scp, ScpMode};
use kproc::ProcState;
use ksim::Json;
use splice::KernelBuilder;

/// Transfer size: 128 cache blocks, enough for rates down to 0.5 % to
/// inject at least one fault with the fixed plan seed.
const BYTES: u64 = 1 << 20;
/// Pattern seed for the source file.
const SEED: u64 = 0x51ce ^ 1993;
/// Fault-plan seed: fixed, so the sweep is reproducible bit-for-bit.
const PLAN_SEED: u64 = 0xfa17;

/// Injected transient read-EIO rates, sweep order.
const RATES: &[f64] = &[0.0, 0.005, 0.01, 0.02, 0.05];

struct Row {
    rate: f64,
    kb_per_s: f64,
    elapsed_s: f64,
    kernel_cpu_s: f64,
    errors: u64,
    retries: u64,
    aborted: u64,
}

impl Row {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("rate", Json::Num(self.rate))
            .with("kb_per_s", Json::Num(self.kb_per_s))
            .with("elapsed_s", Json::Num(self.elapsed_s))
            .with("kernel_cpu_s", Json::Num(self.kernel_cpu_s))
            .with("errors", Json::Num(self.errors as f64))
            .with("retries", Json::Num(self.retries as f64))
            .with("aborted", Json::Num(self.aborted as f64))
    }
}

fn run(rate: f64) -> Row {
    let mut k = KernelBuilder::paper_machine_ram().build();
    k.setup_file("/d0/src", BYTES, SEED);
    k.cold_cache();
    if rate > 0.0 {
        k.set_fault_plan(
            0,
            FaultPlan::new(PLAN_SEED).transient_eio(FaultOp::Read, rate),
        );
    }
    let t0 = k.now();
    let pid = k.spawn(Box::new(Scp::with_options(
        "/d0/src",
        "/d1/dst",
        ScpMode::Sync,
        1,
    )));
    let horizon = k.horizon(1200);
    let t1 = k.run_to_exit(horizon);
    assert!(
        matches!(k.procs().must(pid).state, ProcState::Exited(0)),
        "copy failed at rate {rate}"
    );
    assert_eq!(
        k.verify_pattern_file("/d1/dst", BYTES, SEED),
        None,
        "transient faults at rate {rate} corrupted the copy"
    );
    assert!(k.fsck_all().is_empty(), "fsck dirty at rate {rate}");
    let little = littles_law_audit(&k);
    println!("rate {:.1}%:", 100.0 * rate);
    print!("{}", little.render());
    assert!(little.pass(), "rate {rate}: Little's law does not hold");
    let m = k.metrics();
    assert_eq!(m.splice.aborted, 0, "transient faults must never abort");
    assert_eq!(
        m.splice.retries, m.io.errors,
        "rate {rate}: every injected error must surface as one retry"
    );
    let elapsed = t1.since(t0).as_secs_f64();
    Row {
        rate,
        kb_per_s: BYTES as f64 / 1024.0 / elapsed,
        elapsed_s: elapsed,
        kernel_cpu_s: (m.cpu.intr_time + m.cpu.soft_time + m.cpu.idle_soft_time).as_secs_f64(),
        errors: m.io.errors,
        retries: m.splice.retries,
        aborted: m.splice.aborted,
    }
}

fn main() {
    println!("Fault sweep — 1 MB sync SCP, RAM disks, transient read EIO");
    let rows: Vec<Row> = RATES.iter().map(|&r| run(r)).collect();
    print_table(
        &[
            "rate", "KB/s", "elapsed", "kcpu_s", "errors", "retries", "aborted",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.1}%", 100.0 * r.rate),
                    format!("{:.0}", r.kb_per_s),
                    format!("{:.4}s", r.elapsed_s),
                    format!("{:.4}", r.kernel_cpu_s),
                    format!("{}", r.errors),
                    format!("{}", r.retries),
                    format!("{}", r.aborted),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // Acceptance: recovery is cheap. At every injected rate the copy
    // stays within 25 % of fault-free throughput.
    let base = rows[0].kb_per_s;
    for r in &rows[1..] {
        assert!(r.retries > 0, "rate {} injected nothing", r.rate);
        assert!(
            r.kb_per_s >= 0.75 * base,
            "recovery too expensive at rate {}: {:.0} KB/s vs {:.0} KB/s fault-free",
            r.rate,
            r.kb_per_s,
            base
        );
    }

    let doc = bench_doc("faults")
        .with("file_bytes", Json::Num(BYTES as f64))
        .with("plan_seed", Json::Num(PLAN_SEED as f64))
        .with("rows", json_rows(&rows, Row::to_json));
    write_table("faults", &doc);
}
