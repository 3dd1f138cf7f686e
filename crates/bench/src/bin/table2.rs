//! Regenerates Table 2: mean throughput, 8 MB copy, otherwise idle CPU.
//!
//! Paper values: RAM — SCP 3343 KB/s vs CP 1884 KB/s (+77 %); real disks —
//! media-dominated, "the benefit of splice is minor".
//!
//! Besides the table on stdout, writes `BENCH_table2.json` with the full
//! [`splice::MetricsSnapshot`] of each run (per-splice span summaries,
//! copy counters, latency digests) so the perf trajectory is
//! machine-checkable across revisions.

use bench::{bench_doc, json_rows, print_table, table2_row, write_table, DiskRow, Table2Row};
use ksim::Json;

fn main() {
    println!("Table 2 — Mean Throughput Measurements (copying 8 MB file)");
    let results: Vec<_> = DiskRow::all().into_iter().map(table2_row).collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.disk.label().to_string(),
                format!("{:.0}", r.scp.kb_per_s),
                format!("{:.0}", r.cp.kb_per_s),
                format!("{:+.0}%", r.pct),
            ]
        })
        .collect();
    print_table(&["Disk", "SCP KB/s", "CP KB/s", "%Improve"], &rows);
    println!();
    println!("paper:  RAM   3343 vs 1884  (+77%)");
    println!("paper:  RZ56/RZ58: media-dominated, minor improvement");

    // The paper's zero-copy claim: SCP moves no byte through user space
    // and runs as splices; CP copies the file in through read/write.
    for r in &results {
        let (scp, cp) = (&r.scp.snapshot, &r.cp.snapshot);
        let disk = r.disk.label();
        assert_eq!(scp.copy.copyin_bytes, 0, "{disk}: SCP copied bytes in");
        assert_eq!(scp.copy.copyout_bytes, 0, "{disk}: SCP copied bytes out");
        assert!(
            !scp.splice.spans.is_empty(),
            "{disk}: SCP recorded no splice span"
        );
        assert!(cp.copy.copyin_bytes > 0, "{disk}: CP copied no bytes in");
    }

    let doc = bench_doc("table2")
        .with("file_bytes", Json::Num((8u64 * 1024 * 1024) as f64))
        .with("rows", json_rows(&results, Table2Row::to_json));
    write_table("table2", &doc);
}
