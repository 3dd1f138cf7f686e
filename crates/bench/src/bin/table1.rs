//! Regenerates Table 1: CPU availability factors, 8 MB copy.
//!
//! Paper values: the test program runs at 50 % of idle speed under CP on
//! the RAM disk (60 % on RZ56/RZ58), and at 80 % under SCP on RAM/RZ58
//! (70 % on RZ56) — a 20–70 % execution-speed improvement.
//!
//! Besides the table on stdout, writes `BENCH_table1.json` with the full
//! [`splice::MetricsSnapshot`] of each environment so the numbers are
//! machine-checkable across revisions.

use bench::{bench_doc, json_rows, print_table, table1_row, write_table, DiskRow, Table1Row};
use ksim::Json;

fn main() {
    println!("Table 1 — CPU Availability Factors (copying 8 MB file)");
    let results: Vec<_> = DiskRow::all().into_iter().map(table1_row).collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.disk.label().to_string(),
                format!("{:.2}", r.cp.slowdown),
                format!("{:.2}", r.scp.slowdown),
                format!("{:.2}", r.improvement),
                format!("{:.0}%", r.pct),
                format!("{:.0}%", 100.0 * r.cp.speed_fraction),
                format!("{:.0}%", 100.0 * r.scp.speed_fraction),
            ]
        })
        .collect();
    print_table(
        &[
            "Disk", "F_cp", "F_scp", "Improve", "%Improve", "test@CP", "test@SCP",
        ],
        &rows,
    );
    println!();
    println!("paper:  RAM   2.00 1.25  (test at 50% / 80%)");
    println!("paper:  RZ56  1.67 1.43  (test at 60% / 70%)");
    println!("paper:  RZ58  1.67 1.25  (test at 60% / 80%)");

    // The paper's availability ordering: splice leaves the test program
    // at least as much CPU as the copying environment on every disk.
    for r in &results {
        assert!(
            r.scp.slowdown <= r.cp.slowdown,
            "{}: F_scp {:.3} above F_cp {:.3}",
            r.disk.label(),
            r.scp.slowdown,
            r.cp.slowdown
        );
    }

    let doc = bench_doc("table1")
        .with("file_bytes", Json::Num((8u64 * 1024 * 1024) as f64))
        .with("rows", json_rows(&results, Table1Row::to_json));
    write_table("table1", &doc);
}
