//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Repeats the workload until `--seconds` of host time have passed
//! (after one warm-up repetition that host times leave out), checks
//! that every repetition verified its outputs and produced the same
//! simulated metrics, and prints one JSON result as its last stdout line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1` (untraced, layer-attributed and ring-only repetitions
//! alternate).

use std::time::{Duration, Instant};

use ksim::Json;
use perfbench::{
    end_to_end_defs, peak_rss_mb, per_layer_defs, run_rep, Config, Kind, Measured, MetricDef,
    Seeds, Size, Tracing, Workload,
};

/// Repetitions every run measures at least, besides the warm-up.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn metrics_json(metrics: &[(MetricDef, f64)]) -> Json {
    let mut obj = Json::obj();
    for (d, v) in metrics {
        obj.set(
            &d.name,
            Json::obj()
                .with("value", Json::Num(*v))
                .with("unit", Json::Str(d.unit.into())),
        );
    }
    obj
}

fn run(a: &Args) -> Json {
    let plain_cfg = Config {
        workload: a.workload,
        seeds: Seeds::from_seed(a.seed),
        size: Size::FULL,
        tracing: Tracing::Off,
        fault: None,
    };
    let traced_cfg = Config {
        tracing: Tracing::Layers,
        ..plain_cfg.clone()
    };
    let ring_cfg = Config {
        tracing: Tracing::Ring,
        ..plain_cfg.clone()
    };
    let warmup = run_rep(&plain_cfg);
    // Peak memory of one repetition: later ones reuse the allocator's
    // pages, and their count varies with host speed.
    let rss_mb = peak_rss_mb();
    let mut m = Measured {
        plain: Vec::new(),
        traced: Vec::new(),
        ring: Vec::new(),
    };
    let start = Instant::now();
    while m.plain.len() < MIN_REPS || start.elapsed() < Duration::from_secs_f64(a.seconds) {
        m.plain.push(run_rep(&plain_cfg));
        if a.trace {
            m.traced.push(run_rep(&traced_cfg));
            m.ring.push(run_rep(&ring_cfg));
        }
    }

    let digest = warmup.digest();
    let all = || {
        std::iter::once(&warmup)
            .chain(&m.plain)
            .chain(&m.traced)
            .chain(&m.ring)
    };
    let repeatable = all().all(|r| r.digest() == digest);
    let correct = repeatable && all().all(|r| r.correct);
    if !repeatable {
        eprintln!("perfbench: simulated metrics differ between repetitions of one seed");
    }
    let attempted: u64 = all().map(|r| r.attempted).sum();
    let failed: u64 = all().map(|r| r.failed).sum();

    let seeds = plain_cfg.seeds;
    let sim = per_layer_defs()
        .into_iter()
        .chain(end_to_end_defs())
        .filter(|d| d.kind == Kind::Sim)
        .fold(Json::obj(), |o, d| {
            let v = warmup.get(&d.name);
            o.with(&d.name, Json::Num(v))
        });
    let report = Json::obj()
        .with("workload", Json::Str(a.workload.name().into()))
        .with("seed", Json::Num(a.seed as f64))
        .with(
            "seeds",
            Json::obj()
                .with("pattern", Json::Str(format!("{:#018x}", seeds.pattern)))
                .with("arrival", Json::Str(format!("{:#018x}", seeds.arrival)))
                .with("link", Json::Str(format!("{:#018x}", seeds.link))),
        )
        .with("reps", Json::Num(m.plain.len() as f64))
        .with("traced_reps", Json::Num(m.traced.len() as f64))
        .with("sim_digest", Json::Str(format!("{digest:016x}")))
        .with("req_samples", Json::Num(warmup.req_samples as f64))
        .with("sim", sim);
    println!("{}", report.render());

    let metrics = if a.trace {
        m.per_layer()
    } else {
        m.end_to_end(rss_mb)
    };
    Json::obj()
        .with("correct", Json::Bool(correct))
        .with("attempted", Json::Num(attempted as f64))
        .with("failed", Json::Num(failed as f64))
        .with("metrics", metrics_json(&metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <copy_ram|serve_light|serve_overload> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    println!("{}", run(&args).render());
}
