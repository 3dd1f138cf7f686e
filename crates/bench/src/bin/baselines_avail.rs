//! Extension: CPU availability for the §7 baselines.
//!
//! Table 1 compared only CP and SCP; this extends the same procedure to
//! the ioctl-handle and mmap baselines on the RAM disk. \[PCM91\]'s scheme
//! "requires user process execution to effect a data transfer", so its
//! availability should look like CP's even though it copies nothing —
//! which is the paper's §7 argument for splice in one number.

use bench::{availability, idle_baseline, print_table, DiskRow, Experiment, Method};

fn main() {
    println!("Extension — CPU availability of the related-work baselines (RAM disk)");
    let exp = Experiment::paper(DiskRow::Ram);
    let idle = idle_baseline(&exp);
    let mut rows = Vec::new();
    for m in [Method::Cp, Method::Handle, Method::Mmap, Method::Scp] {
        let r = availability(&exp, m, idle);
        rows.push(vec![
            m.label().to_string(),
            format!("{:.2}", r.slowdown),
            format!("{:.0}%", r.speed_fraction * 100.0),
        ]);
    }
    print_table(&["Method", "F", "test speed"], &rows);
    println!();
    println!("copy-free but user-driven (HANDLE) still costs the bystander its");
    println!("timeslices; only the in-kernel asynchronous path (SCP) does not.");
}
