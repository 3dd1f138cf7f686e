//! Related-work baselines (§7): \[PCM91\] ioctl handle passing and the
//! memory-mapped copy, against CP and SCP, on all three disks.

use bench::{print_table, throughput, DiskRow, Experiment, Method};

fn main() {
    println!("Related-work baselines — 8 MB copy throughput (KB/s)");
    let mut rows = Vec::new();
    for disk in DiskRow::all() {
        let exp = Experiment::paper(disk);
        let mut row = vec![disk.label().to_string()];
        for m in [
            Method::Cp,
            Method::Handle,
            Method::Mmap,
            Method::ScpSync,
            Method::Scp,
        ] {
            let r = throughput(&exp, m);
            row.push(format!("{:.0}", r.kb_per_s));
        }
        rows.push(row);
    }
    print_table(&["Disk", "CP", "HANDLE", "MMAP", "SCP(sync)", "SCP"], &rows);
    println!();
    println!("HANDLE avoids the copies but keeps two syscalls per block;");
    println!("MMAP avoids syscalls but pays page faults and a user-clock copy;");
    println!("SCP avoids both and runs asynchronously in the kernel.");
}
