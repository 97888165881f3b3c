//! Command-line entry point: one workload per process, so peak RSS is the
//! workload's own.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload remote-1k [--seed 42] [--seconds 10] [--trace 0|1]
//! ```
//!
//! Prints every metric by name and unit, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when an output or fidelity check fails, 2 on a
//! usage error.

#![forbid(unsafe_code)]

use vod_perfbench::measure::{measure, result_line, Options};
use vod_perfbench::workload::Workload;

const USAGE: &str = "usage: vod-perfbench --workload <local-100k|remote-1k|chaos-mixed> \
                     [--seed <u64>] [--seconds <f64>] [--trace <0|1>]";

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds: f64 = 10.0;
    let mut per_layer = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = parse(&flag, &value()?)?,
            "--seconds" => seconds = parse(&flag, &value()?)?,
            "--trace" => {
                per_layer = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    if !(seconds >= 0.0 && seconds.is_finite()) {
        return Err(format!(
            "--seconds must be a non-negative number, not {seconds}"
        ));
    }
    Ok(Options {
        workload,
        seed,
        sessions: workload.default_sessions(),
        seconds,
        per_layer,
    })
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| format!("invalid {flag} value {value:?}: {e}"))
}

fn main() {
    let opts = parse_args().unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    println!(
        "workload {} seed {}: {} scenarios of {} target sessions, untraced runs for {}s",
        opts.workload.name(),
        opts.seed,
        opts.workload.scenario_count(),
        opts.sessions,
        opts.seconds
    );
    let m = measure(&opts);
    println!("{} service runs (untraced + 1 traced)", m.runs);
    println!("untraced run walls per scenario (s): {:.4?}", m.run_walls);
    println!(
        "host speed during them (reference = 1): {:.3?}",
        m.run_speeds
    );
    println!(
        "startup percentiles over {} completed sessions",
        m.startup_samples
    );
    for metric in m.end_to_end.iter().chain(&m.per_layer) {
        println!("{:<30} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    for problem in &m.problems {
        println!("CHECK FAILED: {problem}");
    }
    let correct = m.problems.is_empty();
    let metrics = if opts.per_layer {
        &m.per_layer
    } else {
        &m.end_to_end
    };
    println!("{}", result_line(correct, m.runs, m.failed_runs, metrics));
    if !correct {
        std::process::exit(1);
    }
}
