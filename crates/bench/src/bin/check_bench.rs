//! CI gate for serve benchmark artifacts.
//!
//! ```text
//! check_bench schema    <file>                                    # validate shape
//! check_bench compare   <fresh> <baseline> [max_p99] [min_qps]    # perf gate
//! check_bench attribute <current> <baseline> [top_k]              # name regressed frames
//! ```
//!
//! `schema` and `compare` dispatch on the document's own `schema` tag:
//! `mandipass.bench.serve/v1` documents go through the serve validator
//! and comparator, `mandipass.bench.overload/v1` documents through the
//! overload ones (where the two ratio arguments bound saturated p99
//! growth and goodput shrinkage instead of per-transport p99/QPS),
//! `mandipass.bench.hotpath/v1` documents through the hot-path ones
//! (first ratio = same-run fast-vs-naive speedup floor, default 3.0;
//! second = minimum fraction of the baseline's speedup, default 0.5 —
//! both are ratios of same-run numbers, so machine-independent — plus
//! bit-exact parity and zero steady-state arena growth), and
//! `mandipass.bench.trace/v1` documents through the trace ones (verify
//! and end-to-end attribution p99 vs baseline, request coverage).
//! `compare` gates a fresh document against a committed baseline: p99
//! latency may grow to at most `max_p99`x (default 2.0) and throughput
//! may shrink to no less than `min_qps`x (default 0.5) of the baseline.
//! When a compare gate fails and both documents embed a `"profile"`
//! summary, the failure report appends the top regressed frames.
//!
//! `attribute` diffs the embedded profile summaries directly (any
//! schema) and names the `top_k` (default 5) frames whose per-call
//! self time grew the most — the "which stage regressed" answer a
//! p99 ratio alone cannot give. Exit status 0 = pass, 1 = fail,
//! 2 = usage error.

use std::process::ExitCode;

use mandipass_bench::load::{
    compare_bench_hotpath, compare_bench_overload, compare_bench_serve, compare_bench_trace,
    validate_bench_hotpath, validate_bench_overload, validate_bench_serve, validate_bench_trace,
    BENCH_HOTPATH_SCHEMA, BENCH_OVERLOAD_SCHEMA, BENCH_SERVE_SCHEMA, BENCH_TRACE_SCHEMA,
};
use mandipass_bench::profile::{attribute_profiles, render_attribution};
use mandipass_util::json::{parse, Value};

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn schema_of(doc: &Value, path: &str) -> Result<String, String> {
    doc.get("schema")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{path}: missing \"schema\" tag"))
}

fn validate(doc: &Value, path: &str) -> Result<(), String> {
    match schema_of(doc, path)?.as_str() {
        BENCH_SERVE_SCHEMA => validate_bench_serve(doc).map_err(|e| format!("{path}: {e}")),
        BENCH_OVERLOAD_SCHEMA => validate_bench_overload(doc).map_err(|e| format!("{path}: {e}")),
        BENCH_HOTPATH_SCHEMA => validate_bench_hotpath(doc).map_err(|e| format!("{path}: {e}")),
        BENCH_TRACE_SCHEMA => validate_bench_trace(doc).map_err(|e| format!("{path}: {e}")),
        other => Err(format!("{path}: unknown bench schema \"{other}\"")),
    }
}

/// On a failed compare, appends frame-level attribution when both
/// documents embed a profile summary; otherwise returns the failure
/// unchanged.
fn with_attribution(failure: String, fresh: &Value, baseline: &Value) -> String {
    match attribute_profiles(fresh, baseline, 5) {
        Ok(regressions) => format!("{failure}\n{}", render_attribution(&regressions)),
        Err(_) => failure,
    }
}

fn ratio_arg(args: &[String], idx: usize, default: f64) -> Result<f64, String> {
    match args.get(idx) {
        None => Ok(default),
        Some(raw) => raw
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or_else(|| format!("ratio argument \"{raw}\" is not a positive number")),
    }
}

fn run(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("schema") => {
            let path = args.get(1).ok_or("usage: check_bench schema <file>")?;
            let doc = load(path)?;
            validate(&doc, path)?;
            Ok(format!("{path}: schema ok ({})", schema_of(&doc, path)?))
        }
        Some("compare") => {
            let fresh_path = args
                .get(1)
                .ok_or("usage: check_bench compare <fresh> <baseline> [max_p99] [min_qps]")?;
            let base_path = args
                .get(2)
                .ok_or("usage: check_bench compare <fresh> <baseline> [max_p99] [min_qps]")?;
            let fresh = load(fresh_path)?;
            let baseline = load(base_path)?;
            validate(&fresh, fresh_path)?;
            validate(&baseline, base_path)?;
            let (fresh_schema, base_schema) = (
                schema_of(&fresh, fresh_path)?,
                schema_of(&baseline, base_path)?,
            );
            if fresh_schema != base_schema {
                return Err(format!(
                    "schema mismatch: {fresh_path} is {fresh_schema}, {base_path} is {base_schema}"
                ));
            }
            if fresh_schema == BENCH_HOTPATH_SCHEMA {
                let min_speedup = ratio_arg(args, 3, 3.0)?;
                let min_vs_baseline = ratio_arg(args, 4, 0.5)?;
                compare_bench_hotpath(&fresh, &baseline, min_speedup, min_vs_baseline)
                    .map_err(|e| with_attribution(e, &fresh, &baseline))?;
                return Ok(format!(
                    "{fresh_path} within envelope of {base_path} (speedup >= {min_speedup}x, >= {min_vs_baseline}x baseline, zero-alloc, parity)"
                ));
            }
            let max_p99 = ratio_arg(args, 3, 2.0)?;
            let min_qps = ratio_arg(args, 4, 0.5)?;
            match fresh_schema.as_str() {
                BENCH_SERVE_SCHEMA => compare_bench_serve(&fresh, &baseline, max_p99, min_qps)
                    .map_err(|e| with_attribution(e, &fresh, &baseline))?,
                BENCH_TRACE_SCHEMA => compare_bench_trace(&fresh, &baseline, max_p99, min_qps)?,
                _ => compare_bench_overload(&fresh, &baseline, max_p99, min_qps)?,
            }
            Ok(format!(
                "{fresh_path} within envelope of {base_path} (p99 <= {max_p99}x, throughput >= {min_qps}x)"
            ))
        }
        Some("attribute") => {
            let usage = "usage: check_bench attribute <current> <baseline> [top_k]";
            let current_path = args.get(1).ok_or(usage)?;
            let base_path = args.get(2).ok_or(usage)?;
            let top_k = match args.get(3) {
                None => 5,
                Some(raw) => raw
                    .parse::<usize>()
                    .ok()
                    .filter(|k| *k > 0)
                    .ok_or_else(|| format!("top_k \"{raw}\" is not a positive integer"))?,
            };
            let current = load(current_path)?;
            let baseline = load(base_path)?;
            let regressions = attribute_profiles(&current, &baseline, top_k)?;
            Ok(render_attribution(&regressions))
        }
        _ => Err(
            "usage: check_bench schema <file> | compare <fresh> <baseline> [max_p99] [min_qps] \
             | attribute <current> <baseline> [top_k]"
                .to_string(),
        ),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(message) => {
            println!("{message}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("check_bench: {message}");
            if args.is_empty() {
                ExitCode::from(2)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
