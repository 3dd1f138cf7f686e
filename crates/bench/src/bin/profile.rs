//! Resource-accounting profiler: the Table 1 contention experiment
//! re-derived from per-PID tick accounting instead of wall-clock
//! ratios, with a full [`splice::ProfileSnapshot`] of each environment.
//!
//! Artifact: `BENCH_profile.json`, the contention section. The named
//! workloads' stage digests and profiles are in `REPORT_<workload>.json`
//! (`bench --bin analyze`).

use bench::{bench_doc, print_table, test_program, write_table, DiskRow, Experiment, Method};
use ksim::Json;
use splice::ProfileSnapshot;

/// One contended environment: the fixed-work test program beside a
/// looping copier, availability taken from the process table's tick
/// accounting (`cpu_time / elapsed`), not from wall-clock slowdown.
struct Contention {
    method: Method,
    elapsed_s: f64,
    /// Fraction of the contended interval the test program actually
    /// got the CPU, per its own accounting.
    test_share: f64,
    profile: ProfileSnapshot,
}

impl Contention {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("method", Json::Str(self.method.label().into()))
            .with("elapsed_s", Json::Num(self.elapsed_s))
            .with("test_cpu_share", Json::Num(self.test_share))
            .with("profile", self.profile.to_json())
    }
}

fn contention(method: Method) -> Contention {
    let exp = Experiment::paper(DiskRow::Ram);
    let mut k = exp.boot();
    let t0 = k.now();
    let test = k.spawn(Box::new(test_program()));
    k.spawn(exp.copier(method, 10_000));
    let horizon = k.horizon(3600);
    let t1 = k.run_until_exit_of(test, horizon);
    let elapsed = t1.since(t0);
    let profile = k.profile();
    let tp = profile.proc(test.0).expect("test program in profile");
    assert!(tp.exited, "test program did not finish before the horizon");
    let test_share = tp.cpu_time().as_ns() as f64 / elapsed.as_ns() as f64;
    Contention {
        method,
        elapsed_s: elapsed.as_secs_f64(),
        test_share,
        profile,
    }
}

fn main() {
    println!("Resource-accounting profiler");
    println!();

    // The Table 1 contention pair on the RAM row, from accounting data:
    // under CP the copier's read/write loop is billed to its own PID and
    // the test program fights it for every quantum; under SCP the data
    // path runs in completion context, so the test program's accounted
    // share of the contended interval must be at least CP's.
    let cp = contention(Method::Cp);
    let scp = contention(Method::Scp);
    println!("Contention (RAM disk), test-program CPU share from tick accounting:");
    print_table(
        &["Env", "elapsed s", "test share"],
        &[
            vec![
                "CP".into(),
                format!("{:.3}", cp.elapsed_s),
                format!("{:.3}", cp.test_share),
            ],
            vec![
                "SCP".into(),
                format!("{:.3}", scp.elapsed_s),
                format!("{:.3}", scp.test_share),
            ],
        ],
    );
    assert!(
        scp.test_share >= cp.test_share,
        "splice should leave the compute PID more CPU: scp {:.3} < cp {:.3}",
        scp.test_share,
        cp.test_share
    );

    let doc = bench_doc("profile").with(
        "contention",
        Json::obj()
            .with("disk", Json::Str("RAM".into()))
            .with("cp", cp.to_json())
            .with("scp", scp.to_json())
            .with(
                "share_improvement",
                Json::Num(scp.test_share / cp.test_share),
            ),
    );
    write_table("profile", &doc);
}
