//! Shared JSON emission for the bench binaries.
//!
//! Every table, sweep, and ablation binary leaves a machine-checkable
//! artifact at the repository root. The documents all follow one
//! convention — a `"table"` tag naming the producer, an array of
//! per-row/per-run objects built from `to_json` projections, and a
//! pretty-rendered `BENCH_<table>.json` file — so the pieces live here
//! instead of being re-spelled in each binary.

use ksim::Json;

/// Version of the shared artifact envelope. Bump whenever the meaning
/// or structure of an emitted document changes incompatibly:
/// `benchdiff` refuses to compare documents across versions, so a bump
/// forces baselines to be regenerated instead of silently mis-diffed.
pub const SCHEMA_VERSION: u64 = 1;

/// Document skeleton: `{"schema_version": N, "table": <name>, …}`.
/// Every `BENCH_*`/`REPORT_*` artifact starts with this envelope so
/// downstream consumers (`benchdiff`) can dispatch on the
/// producer and validate the version without parsing the filename.
pub fn bench_doc(table: &str) -> Json {
    Json::obj()
        .with("schema_version", Json::Num(SCHEMA_VERSION as f64))
        .with("table", Json::Str(table.into()))
}

/// The workload/seed meta block shared by samplers and reports:
/// `{"workload": name, "seeds": [...], "expected_bytes": N}`. Keeping
/// the provenance inside the artifact lets a reader reproduce the run
/// without consulting the emitting binary's source.
pub fn workload_meta(workload: &str, seeds: &[u64], expected_bytes: u64) -> Json {
    Json::obj()
        .with("workload", Json::Str(workload.into()))
        .with(
            "seeds",
            Json::Arr(seeds.iter().map(|&s| Json::Num(s as f64)).collect()),
        )
        .with("expected_bytes", Json::Num(expected_bytes as f64))
}

/// Projects a slice through a `to_json`-style closure into a JSON
/// array — the `rows`/`runs` idiom shared by every table binary.
pub fn json_rows<T>(items: &[T], f: impl Fn(&T) -> Json) -> Json {
    Json::Arr(items.iter().map(f).collect())
}

/// Serializes `doc` to `path` — the machine-checkable `BENCH_*.json`
/// artifacts the table and ablation binaries leave behind.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_bench_json(path: &str, doc: &Json) {
    std::fs::write(path, doc.render_pretty()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}

/// Writes `doc` to the canonical artifact path for `table`:
/// `BENCH_<table>.json` at the working directory root.
pub fn write_table(table: &str, doc: &Json) {
    write_bench_json(&format!("BENCH_{table}.json"), doc);
}
