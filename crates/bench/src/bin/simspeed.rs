//! Simulator-speed table: pins host events-per-second the way Tables
//! 1/2 pin simulated results.
//!
//! Six rows land in `BENCH_simspeed.json`:
//!
//! * `callout_churn` — schedule/cancel/expire mix against 100k pending
//!   callouts on the hierarchical timing wheel.
//! * `event_churn` — schedule/cancel/pop mix against 100k live events
//!   in the slab-backed [`ksim::EventQueue`].
//! * `event_mix` — a pop/schedule mix of 2–6 live events, which the
//!   queue's near set serves without touching its heap.
//! * `cpu_bound_e2e` — host ns per kernel run-loop iteration of a lone
//!   CPU-bound program over 500 simulated seconds: chunk completions,
//!   re-arms and ticks, which fire from registers beside the queue.
//! * `scp_ram_e2e` — wall-clock blocks/sec of repeated cold-cache
//!   `scp` copies across the RAM-disk machine, the end-to-end number
//!   the fast path exists to move.
//! * `cp_ram_e2e` — the same for cold-cache `cp` copies: the read/write
//!   path, whose whole blocks cross the modelled user boundary by
//!   reference.
//!
//! `meta.baseline` records the same loops measured on the pre-refactor
//! tree (BTreeMap callout, non-slab event queue, unpooled buffers) so
//! the committed artifact documents the before/after trajectory. Unlike
//! the `BENCH_table*` artifacts these numbers are wall-clock and host-
//! dependent, so the file is a pinned snapshot, not byte-reproducible.

use bench::simspeed;
use bench::{bench_doc, write_table};
use ksim::Json;

const PENDING: usize = 100_000;
/// Simulated CPU seconds of the `cpu_bound_e2e` row.
const CPU_BOUND_SECS: u64 = 500;

fn rate_row(name: &str, pending: usize, r: &simspeed::Rate) -> Json {
    Json::obj()
        .with("bench", Json::Str(name.into()))
        .with("pending", Json::Num(pending as f64))
        .with("ops", Json::Num(r.ops as f64))
        .with("secs", Json::Num(r.secs))
        .with("ops_per_sec", Json::Num(r.ops_per_sec()))
}

/// One end-to-end row: 40 measured 8 MB copies.
fn e2e_row(name: &str, r: &simspeed::E2eRate) -> Json {
    Json::obj()
        .with("bench", Json::Str(name.into()))
        .with("runs", Json::Num(40.0))
        .with("file_bytes", Json::Num((8 << 20) as f64))
        .with("blocks", Json::Num(r.blocks as f64))
        .with("secs", Json::Num(r.secs))
        .with("blocks_per_sec", Json::Num(r.blocks_per_sec()))
}

fn main() {
    let wheel = simspeed::callout_churn_wheel(PENDING, 100_000);
    println!("callout_churn: {:.0} ops/sec", wheel.ops_per_sec());

    let event = simspeed::event_churn(PENDING, 300_000);
    println!("event_churn: {:.0} ops/sec", event.ops_per_sec());

    let mix = simspeed::event_mix(4_000_000);
    println!("event_mix: {:.0} ops/sec", mix.ops_per_sec());

    let cpu = simspeed::cpu_bound_e2e(CPU_BOUND_SECS);
    println!(
        "cpu_bound_e2e: {:.1} ns/iteration ({} iterations in {:.3}s)",
        cpu.ns_per_op(),
        cpu.ops,
        cpu.secs
    );

    // End-to-end: 2 warmup + 40 measured cold-cache 8 MB scp copies so
    // the window is long enough for a stable blocks/sec figure.
    let e2e = simspeed::scp_ram_e2e(2, 40, 8 << 20);
    println!(
        "scp_ram_e2e: {:.0} blocks/sec ({} blocks in {:.3}s)",
        e2e.blocks_per_sec(),
        e2e.blocks,
        e2e.secs
    );
    let cp_e2e = simspeed::cp_ram_e2e(2, 40, 8 << 20);
    println!(
        "cp_ram_e2e: {:.0} blocks/sec ({} blocks in {:.3}s)",
        cp_e2e.blocks_per_sec(),
        cp_e2e.blocks,
        cp_e2e.secs
    );

    let rows = Json::Arr(vec![
        rate_row("callout_churn", PENDING, &wheel),
        rate_row("event_churn", PENDING, &event),
        rate_row("event_mix", simspeed::EVENT_MIX_PEAK, &mix),
        Json::obj()
            .with("bench", Json::Str("cpu_bound_e2e".into()))
            .with("sim_secs", Json::Num(CPU_BOUND_SECS as f64))
            .with("iters", Json::Num(cpu.ops as f64))
            .with("secs", Json::Num(cpu.secs))
            .with("ns_per_iter", Json::Num(cpu.ns_per_op())),
        e2e_row("scp_ram_e2e", &e2e),
        e2e_row("cp_ram_e2e", &cp_e2e),
    ]);

    // The same loops measured on the pre-refactor tree (BTreeMap
    // callout, non-slab event queue, unpooled BufData) on the host that
    // produced the committed artifact — the "before" column of the
    // speedup trajectory.
    let baseline = Json::obj()
        .with("commit", Json::Str("33ac9d6".into()))
        .with("callout_churn_ops_per_sec", Json::Num(87_053.0))
        .with("event_churn_ops_per_sec", Json::Num(8_158_304.0))
        .with("scp_ram_blocks_per_sec", Json::Num(52_342.0));

    let doc = bench_doc("simspeed").with("rows", rows).with(
        "meta",
        Json::obj().with("baseline", baseline).with(
            "note",
            Json::Str("wall-clock host rates; snapshot artifact, not byte-reproducible".into()),
        ),
    );
    write_table("simspeed", &doc);
}
