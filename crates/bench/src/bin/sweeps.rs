//! Every sweep around the paper configuration, in one gated producer.
//!
//! Each axis varies one input of [`Experiment::paper`] (file size, copy
//! method, flow-control watermarks, block size, softwork budget, HZ),
//! runs its points through the same `throughput` / `availability`
//! procedures as Tables 1 and 2, prints a table, and asserts the claim
//! EXPERIMENTS.md makes for it. Points record headline numbers only:
//! `BENCH_table1.json` and `BENCH_table2.json` already pin full metrics
//! snapshots for the paper configuration itself.
//!
//! Writes `BENCH_sweeps.json`, which `benchdiff` gates against
//! `baselines/`.

use bench::{
    availability, bench_doc, idle_baseline, print_table, throughput, write_table, DiskRow,
    Experiment, Method,
};
use ksim::{Dur, Json};
use splice::FlowControl;

const MB: u64 = 1024 * 1024;

/// Runs, prints, checks and serialises one axis's points.
type Axis = fn() -> Json;

/// The axes in artifact order.
const AXES: [(&str, Axis); 8] = [
    ("filesize", filesize),
    ("baselines", baselines),
    ("baselines_avail", baselines_avail),
    ("watermarks", watermarks),
    ("blocksize", blocksize),
    ("budget", budget),
    ("hz", hz),
    ("latency", latency),
];

fn main() {
    let mut doc = bench_doc("sweeps");
    for (name, axis) in AXES {
        println!("== {name}");
        doc = doc.with(name, axis());
        println!();
    }
    write_table("sweeps", &doc);
}

fn num(x: impl Into<f64>) -> Json {
    Json::Num(x.into())
}

/// Panics with `claim` unless every value lies within `band` (relative)
/// of the smallest.
fn assert_flat(claim: &str, xs: &[f64], band: f64) {
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(
        hi <= lo * (1.0 + band),
        "{claim}: {xs:?} spread more than {:.0}%",
        band * 100.0
    );
}

/// Panics with `claim` unless every consecutive pair `(a, b)` of `xs`
/// satisfies `step`.
fn assert_monotone(claim: &str, xs: &[f64], step: fn(f64, f64) -> bool) {
    for w in xs.windows(2) {
        assert!(
            step(w[0], w[1]),
            "{claim}: {} then {} in {xs:?}",
            w[0],
            w[1]
        );
    }
}

/// CP and SCP throughput of one configuration: a table row labelled
/// `label`, the point's JSON fields, and the SCP/CP ratio.
fn scp_vs_cp(exp: &Experiment, label: String, rows: &mut Vec<Vec<String>>) -> (Json, f64, f64) {
    let scp = throughput(exp, Method::Scp).kb_per_s;
    let cp = throughput(exp, Method::Cp).kb_per_s;
    rows.push(vec![
        label,
        format!("{scp:.0}"),
        format!("{cp:.0}"),
        format!("{:+.0}%", (scp / cp - 1.0) * 100.0),
    ]);
    let point = Json::obj()
        .with("scp_kb_per_s", num(scp))
        .with("cp_kb_per_s", num(cp));
    (point, cp, scp / cp)
}

/// §6.2: "Alternative sizes for the file were statistically
/// indistinguishable from the 8 MB representative case." The source
/// and the copy live on separate 16 MB RAM disks.
fn filesize() -> Json {
    let (mut rows, mut points, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for mb in [1u64, 2, 4, 6, 7, 8, 12, 15] {
        let mut exp = Experiment::paper(DiskRow::Ram);
        exp.file_bytes = mb * MB;
        let (point, _, ratio) = scp_vs_cp(&exp, format!("{mb} MB"), &mut rows);
        points.push(point.with("mb", num(mb as f64)));
        ratios.push(ratio);
    }
    print_table(&["Size", "SCP", "CP", "%Improve"], &rows);
    assert_flat("SCP/CP is flat across file sizes", &ratios, 0.02);
    Json::Arr(points)
}

/// §7 related work: \[PCM91\] ioctl handle passing and the memory-mapped
/// copy beside CP and both SCP variants, 8 MB on every disk.
fn baselines() -> Json {
    let methods = [
        Method::Cp,
        Method::Handle,
        Method::Mmap,
        Method::ScpSync,
        Method::Scp,
    ];
    let (mut rows, mut points) = (Vec::new(), Vec::new());
    for disk in DiskRow::all() {
        let exp = Experiment::paper(disk);
        let kb = methods.map(|m| throughput(&exp, m).kb_per_s);
        let [cp, _, _, scp_sync, scp] = kb;
        assert_eq!(scp_sync, scp, "{}: SCP(sync) equals SCP", disk.label());
        if disk != DiskRow::Ram {
            assert!(
                scp / cp < 1.05,
                "{}: splice's gain is minor on a real disk",
                disk.label()
            );
        }
        rows.push(
            std::iter::once(disk.label().to_string())
                .chain(kb.iter().map(|k| format!("{k:.0}")))
                .collect(),
        );
        let mut point = Json::obj().with("disk", Json::Str(disk.label().into()));
        for (m, k) in methods.iter().zip(&kb) {
            point.set(m.label(), num(*k));
        }
        points.push(point);
    }
    let mut headers = vec!["Disk"];
    headers.extend(methods.iter().map(|m| m.label()));
    print_table(&headers, &rows);
    Json::Arr(points)
}

/// Table 1's procedure applied to the §7 baselines on the RAM disk:
/// copy-free but user-driven HANDLE costs the bystander about what CP
/// does; only the in-kernel path leaves it its CPU.
fn baselines_avail() -> Json {
    let exp = Experiment::paper(DiskRow::Ram);
    let idle = idle_baseline(&exp);
    let methods = [Method::Cp, Method::Handle, Method::Mmap, Method::Scp];
    let results = methods.map(|m| availability(&exp, m, idle));
    let (mut rows, mut points) = (Vec::new(), Vec::new());
    for (m, r) in methods.iter().zip(&results) {
        rows.push(vec![
            m.label().to_string(),
            format!("{:.2}", r.slowdown),
            format!("{:.0}%", r.speed_fraction * 100.0),
        ]);
        points.push(
            Json::obj()
                .with("method", Json::Str(m.label().into()))
                .with("slowdown", num(r.slowdown))
                .with("speed_fraction", num(r.speed_fraction)),
        );
    }
    print_table(&["Method", "F", "test speed"], &rows);
    let f = results.map(|r| r.slowdown);
    let [cp, handle, mmap, scp] = f;
    assert!(
        scp < cp && scp < handle && scp < mmap,
        "F_scp is the lowest: {f:?}"
    );
    assert_flat("HANDLE's F is CP's", &[cp, handle], 0.05);
    Json::Arr(points)
}

/// §5.2.3 flow control: "If the number of pending reads and the number
/// of pending writes drop below pre-specified watermarks (currently 3
/// and 5, respectively), the write handler will issue up to five
/// additional reads." Depth 1 serialises the pipeline; past the paper's
/// setting the mechanical disk's media rate binds.
fn watermarks() -> Json {
    let settings = [(1, 1, 1), (1, 2, 2), (3, 5, 5), (5, 8, 8), (8, 16, 16)];
    let disks = [DiskRow::Ram, DiskRow::Rz58];
    let (mut rows, mut points) = (Vec::new(), Vec::new());
    let mut kb = [Vec::new(), Vec::new()];
    for (lo_reads, lo_writes, batch) in settings {
        let mut row = vec![format!("{lo_reads}/{lo_writes}/{batch}")];
        for (disk, series) in disks.into_iter().zip(&mut kb) {
            let mut exp = Experiment::paper(disk);
            exp.config.flow = FlowControl {
                lo_reads,
                lo_writes,
                batch,
            };
            let r = throughput(&exp, Method::Scp);
            let span = r.snapshot.splice.spans.iter().next().expect("SCP span");
            row.push(format!("{:.0}", r.kb_per_s));
            points.push(
                Json::obj()
                    .with("disk", Json::Str(disk.label().into()))
                    .with("lo_reads", num(lo_reads))
                    .with("lo_writes", num(lo_writes))
                    .with("batch", num(batch))
                    .with("kb_per_s", num(r.kb_per_s))
                    .with("max_pending_reads", num(span.pending_reads.peak()))
                    .with("max_pending_writes", num(span.pending_writes.peak())),
            );
            series.push(r.kb_per_s);
        }
        rows.push(row);
    }
    print_table(&["lo_r/lo_w/batch", "RAM", "RZ58"], &rows);
    for (disk, series) in disks.iter().zip(&kb) {
        assert!(
            series[1..].iter().all(|&x| x > series[0]),
            "{}: depth 1 is the slowest setting: {series:?}",
            disk.label()
        );
    }
    assert_flat("RZ58 is media-bound from 3/5/5 up", &kb[1][2..], 0.01);
    Json::Arr(points)
}

/// Block size on the RAM disk (4 MB): splice's per-block handler costs
/// amortise while copy-dominated CP stays flat.
fn blocksize() -> Json {
    let (mut rows, mut points, mut cps, mut gains) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for bs in [4096u32, 8192, 16384] {
        let mut exp = Experiment::paper(DiskRow::Ram);
        exp.file_bytes = 4 * MB;
        exp.config.block_size = bs;
        let (point, cp, gain) = scp_vs_cp(&exp, format!("{} KB", bs / 1024), &mut rows);
        points.push(point.with("block_size", num(bs)));
        cps.push(cp);
        gains.push(gain);
    }
    print_table(&["Block", "SCP", "CP", "%Improve"], &rows);
    assert_flat("CP is flat across block sizes", &cps, 0.02);
    assert_monotone("SCP's gain grows with block size", &gains, |a, b| a < b);
    Json::Arr(points)
}

/// The softwork budget per tick, the mechanism behind Table 1: a larger
/// budget admits more splice work ahead of the test program. Points are
/// multiples of the profile's budget, so the 1× row is the paper's.
fn budget() -> Json {
    let (mut rows, mut points, mut f) = (Vec::new(), Vec::new(), Vec::new());
    for quarters in [1u64, 2, 4, 8, 16] {
        let times = quarters as f64 / 4.0;
        let mut exp = Experiment::paper(DiskRow::Ram);
        let m = &mut exp.config.machine;
        m.softwork_budget_per_tick =
            Dur::from_ns(m.softwork_budget_per_tick.as_ns() * quarters / 4);
        let budget = m.softwork_budget_per_tick;
        let r = availability(&exp, Method::Scp, idle_baseline(&exp));
        rows.push(vec![
            format!("{times}× ({budget})"),
            format!("{:.2}", r.slowdown),
            format!("{:.0}%", r.speed_fraction * 100.0),
        ]);
        points.push(
            Json::obj()
                .with("times", num(times))
                .with("budget_ns", num(budget.as_ns() as f64))
                .with("slowdown", num(r.slowdown))
                .with("speed_fraction", num(r.speed_fraction)),
        );
        f.push(r.slowdown);
    }
    print_table(&["Budget", "F_scp", "test speed"], &rows);
    assert_monotone("F_scp does not fall as the budget grows", &f, |a, b| a <= b);
    Json::Arr(points)
}

/// Clock frequency on the RAM disk (4 MB). Splice's write side runs from
/// softclock, so the tick paces the pipeline (§5.2.2); `cp` never
/// touches the callout list. The budget keeps its share of a tick, so
/// the HZ = 256 row is the paper's machine.
fn hz() -> Json {
    let (mut rows, mut points, mut cps, mut speeds) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for hz in [64u64, 128, 256, 512, 1024] {
        let mut exp = Experiment::paper(DiskRow::Ram);
        exp.file_bytes = 4 * MB;
        let m = &mut exp.config.machine;
        m.softwork_budget_per_tick = Dur::from_ns(m.softwork_budget_per_tick.as_ns() * m.hz / hz);
        m.hz = hz;
        let budget = m.softwork_budget_per_tick;
        let (point, cp, _) = scp_vs_cp(&exp, format!("{hz}"), &mut rows);
        let avail = availability(&exp, Method::Scp, idle_baseline(&exp));
        rows.last_mut()
            .expect("row just pushed")
            .push(format!("{:.0}%", avail.speed_fraction * 100.0));
        points.push(
            point
                .with("hz", num(hz as f64))
                .with("budget_ns", num(budget.as_ns() as f64))
                .with("scp_slowdown", num(avail.slowdown))
                .with("scp_speed_fraction", num(avail.speed_fraction)),
        );
        cps.push(cp);
        speeds.push(avail.speed_fraction);
    }
    print_table(&["HZ", "SCP", "CP", "%Improve", "test@SCP"], &rows);
    assert_flat("CP is flat across HZ", &cps, 0.02);
    assert_monotone(
        "test speed under SCP does not rise with HZ",
        &speeds,
        |a, b| a >= b,
    );
    Json::Arr(points)
}

/// Block-latency digests behind the tables (8 MB, every disk): CP's
/// read(2) sleeps in biowait, SCP's per-block round trip, and SCP's
/// per-stage pipeline. Times are simulated ns; percentiles are bucket
/// upper bounds.
fn latency() -> Json {
    let us = |ns: u64| format!("{:.0}", ns as f64 / 1000.0);
    let (mut rows, mut points) = (Vec::new(), Vec::new());
    for disk in DiskRow::all() {
        let exp = Experiment::paper(disk);
        let read_wait = throughput(&exp, Method::Cp).snapshot.latency.read_wait;
        let scp = throughput(&exp, Method::Scp);
        let block = scp.snapshot.latency.splice_block;
        for (path, h) in [("CP read-wait", read_wait), ("SCP block", block)] {
            rows.push(vec![
                format!("{} {path}", disk.label()),
                format!("{}", h.count),
                us(h.p50),
                us(h.p99),
                us(h.max),
            ]);
        }
        if disk == DiskRow::Ram {
            assert_eq!(read_wait.count, 0, "RAM-disk CP never sleeps on a read");
        }
        points.push(
            Json::obj()
                .with("disk", Json::Str(disk.label().into()))
                .with("cp_read_wait", read_wait.to_json())
                .with("scp_block", block.to_json())
                .with("scp_stages", scp.stages.to_json()),
        );
    }
    print_table(&["Path (us)", "n", "p50", "p99", "max"], &rows);
    Json::Arr(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_accepts_a_series_inside_the_band() {
        assert_flat("flat", &[1.838, 1.846, 1.840], 0.02);
        assert_flat("one point", &[5.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "spread more than 2%")]
    fn flat_rejects_a_series_outside_the_band() {
        assert_flat("flat", &[1.80, 1.85, 1.84], 0.02);
    }

    #[test]
    fn monotone_accepts_ordered_series() {
        assert_monotone("rising", &[1.0, 2.0, 3.0], |a, b| a < b);
        assert_monotone("not falling", &[1.0, 1.0, 2.0], |a, b| a <= b);
    }

    #[test]
    #[should_panic(expected = "rising: 2 then 2")]
    fn monotone_rejects_a_tie_when_strict() {
        assert_monotone("rising", &[1.0, 2.0, 2.0], |a, b| a < b);
    }

    #[test]
    #[should_panic(expected = "not rising: 0.5 then 0.6")]
    fn monotone_rejects_a_reversal() {
        assert_monotone("not rising", &[0.7, 0.5, 0.6], |a, b| a >= b);
    }
}
