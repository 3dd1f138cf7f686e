//! Cross-run bench regression gate: diff every `BENCH_*.json` and
//! `REPORT_*.json` artifact in the working directory against the
//! committed copies under `baselines/`.
//!
//! The comparison (see `kanalyze::diff`) flattens both documents into
//! dotted metric paths and applies per-metric tolerance rules: both
//! sides must carry the same `schema_version`, integers must match
//! exactly (the simulator is deterministic), floats must agree within
//! 2% relative, and paths matching a per-table informational pattern —
//! host wall-clock rates in the simspeed table — are reported but never
//! fatal. Missing or extra metrics fail.
//!
//! Usage:
//!
//! ```text
//! benchdiff                    # gate: compare artifacts vs baselines/
//! benchdiff --write-baselines  # refresh: copy artifacts to baselines/
//! ```
//!
//! The gate exits nonzero naming every offending metric and its delta,
//! so `scripts/ci.sh` runs it after regenerating the artifacts.

use kanalyze::{compare, render_table, DiffRules};
use ksim::Json;
use std::path::Path;

/// Directory holding the committed baseline copies of every artifact.
const BASELINE_DIR: &str = "baselines";

/// Per-table comparison policy. Everything the simulator emits is
/// deterministic, so the default rules apply almost everywhere; the
/// simspeed table alone measures host wall-clock rates, which vary
/// run-to-run and machine-to-machine by design.
fn rules_for(name: &str) -> DiffRules {
    let mut rules = DiffRules::default();
    if name == "BENCH_simspeed.json" {
        rules.informational = vec!["secs".into(), "per_sec".into(), "ns_per".into()];
    }
    rules
}

/// Lists the artifact file names (sorted) in `dir` that the gate covers.
fn artifacts_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            let covered = (name.starts_with("BENCH_") || name.starts_with("REPORT_"))
                && name.ends_with(".json");
            covered.then_some(name)
        })
        .collect();
    names.sort();
    names
}

fn load(path: &Path) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()))
}

/// Copies every current artifact into `baselines/`, replacing the old
/// set entirely so stale baselines cannot linger.
fn write_baselines() {
    let dir = Path::new(BASELINE_DIR);
    if dir.exists() {
        for name in artifacts_in(dir) {
            std::fs::remove_file(dir.join(&name))
                .unwrap_or_else(|e| panic!("removing stale baseline {name}: {e}"));
        }
    } else {
        std::fs::create_dir(dir).unwrap_or_else(|e| panic!("creating {BASELINE_DIR}/: {e}"));
    }
    let names = artifacts_in(Path::new("."));
    assert!(!names.is_empty(), "no BENCH_*/REPORT_* artifacts to copy");
    for name in &names {
        std::fs::copy(name, dir.join(name))
            .unwrap_or_else(|e| panic!("copying {name} to {BASELINE_DIR}/: {e}"));
        println!("baseline {BASELINE_DIR}/{name}");
    }
    println!("wrote {} baselines", names.len());
}

/// Diffs every artifact against its baseline; returns true iff all pass.
fn run_gate() -> bool {
    let dir = Path::new(BASELINE_DIR);
    assert!(
        dir.is_dir(),
        "no {BASELINE_DIR}/ directory — run `benchdiff --write-baselines` once and commit it"
    );
    let current = artifacts_in(Path::new("."));
    let baseline = artifacts_in(dir);
    let mut ok = true;

    // The artifact sets must match: a bench that stopped emitting its
    // artifact (or a baseline never committed) is itself a regression.
    for name in &baseline {
        if !current.contains(name) {
            eprintln!("FAIL {name}: baseline exists but current artifact is missing");
            ok = false;
        }
    }
    for name in &current {
        if !baseline.contains(name) {
            eprintln!(
                "FAIL {name}: no committed baseline — run `benchdiff --write-baselines` \
                 and commit {BASELINE_DIR}/{name}"
            );
            ok = false;
        }
    }

    for name in current.iter().filter(|n| baseline.contains(n)) {
        let base = load(&dir.join(name));
        let cur = load(Path::new(name));
        println!("== {name} ==");
        match compare(&base, &cur, &rules_for(name)) {
            Err(e) => {
                eprintln!("FAIL {name}: {e}");
                ok = false;
            }
            Ok(result) => {
                print!("{}", render_table(&result));
                for f in &result.failures {
                    eprintln!("FAIL {name}: {f}");
                }
                ok &= result.pass();
            }
        }
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => {
            if !run_gate() {
                eprintln!("benchdiff: regression gate FAILED (see metrics above)");
                std::process::exit(1);
            }
            println!("benchdiff: all artifacts within tolerance");
        }
        ["--write-baselines"] => write_baselines(),
        _ => {
            eprintln!("usage: benchdiff [--write-baselines]");
            std::process::exit(2);
        }
    }
}
