//! The MandiPass benchmark: end-to-end and per-layer metrics of two
//! workloads, run against the public API of the repository's crates.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <unlock_512|policy_512> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with the
//! program's telemetry at its defaults and no benchmark spans.
//! `--trace 1` is a separate run that records the benchmark's own spans
//! around calls into each layer and prints the per-layer metrics; the
//! spans are written to `perfbench/out/trace_<workload>_<seed>.json`.
//! Every run checks its outputs; a failed check makes the exit code 1.
//! The last line of standard output is the JSON result.

mod deploy;
mod layers;
mod openloop;
mod report;
mod stats;
mod tcp;
mod trace;

use report::Report;
use trace::Tracer;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the same seed plans the same requests.
    pub seed: u64,
    /// Length of the measured phases, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => trace = Some(value == "1"),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let seconds = seconds.unwrap_or(20.0);
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".to_string());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Writes the spans of a traced run beside the benchmark's sources.
fn write_trace(args: &Args, tracer: &Tracer) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace_{}_{}.json", args.workload, args.seed));
    std::fs::write(&path, tracer.to_json().to_json())?;
    Ok(path.display().to_string())
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <unlock_512|policy_512> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let spec = match args.workload.as_str() {
        "unlock_512" => tcp::UNLOCK_512,
        "policy_512" => tcp::POLICY_512,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    if args.trace {
        let tracer = tcp::run_traced(&spec, &args, &mut report);
        match write_trace(&args, &tracer) {
            Ok(path) => report.note(format!("{} spans written to {path}", tracer.spans().len())),
            Err(e) => report.check("trace_written", false, e.to_string()),
        }
    } else {
        tcp::run(&spec, &args, &mut report);
    }
    report.print();
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let a = args(&[
            "--workload",
            "policy_512",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("policy_512", 7, 10.0, true)
        );
        assert!(args(&["--seed", "7"]).is_err());
        assert!(args(&["--workload", "x", "--seed", "minus"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "0"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }
}
