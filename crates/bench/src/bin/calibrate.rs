//! Calibration helper: run a single cell of a table with diagnostics.
//! Usage: `calibrate <ram|rz56|rz58> <cp|scp|scpsync|handle|mmap|idle|avail-cp|avail-scp> [mb]`

use bench::{availability, idle_baseline, throughput, DiskRow, Experiment, Method};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let disk = match args.get(1).map(|s| s.as_str()) {
        Some("ram") => DiskRow::Ram,
        Some("rz56") => DiskRow::Rz56,
        Some("rz58") => DiskRow::Rz58,
        _ => panic!("usage: calibrate <ram|rz56|rz58> <method>"),
    };
    let mut exp = Experiment::paper(disk);
    if let Some(mb) = args.get(3).and_then(|s| s.parse::<u64>().ok()) {
        exp.file_bytes = mb * 1024 * 1024;
    }
    match args.get(2).map(|s| s.as_str()) {
        Some("idle") => {
            println!("idle elapsed: {:.4}s", idle_baseline(&exp));
        }
        Some("avail-cp") | Some("avail-scp") => {
            let m = if args[2] == "avail-cp" {
                Method::Cp
            } else {
                Method::Scp
            };
            let idle = idle_baseline(&exp);
            let r = availability(&exp, m, idle);
            println!(
                "{} on {}: idle={idle:.3}s elapsed={:.3}s F={:.3} test-speed={:.1}%",
                m.label(),
                disk.label(),
                r.elapsed_s,
                r.slowdown,
                r.speed_fraction * 100.0
            );
        }
        Some(ms) => {
            let m = match ms {
                "cp" => Method::Cp,
                "scp" => Method::Scp,
                "scpsync" => Method::ScpSync,
                "handle" => Method::Handle,
                "mmap" => Method::Mmap,
                _ => panic!("unknown method {ms}"),
            };
            let r = throughput(&exp, m);
            println!(
                "{} on {}: {:.0} KB/s ({:.3}s)",
                m.label(),
                disk.label(),
                r.kb_per_s,
                r.elapsed_s
            );
        }
        None => panic!("missing method"),
    }
}
