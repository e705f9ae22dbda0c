//! One benchmark for the Ck tester, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--toy] [--trace-out <dir>]
//! ```
//!
//! Workloads: `probe-c4-free`, `probe-c8-dense`, `dist-loopback` (see
//! `perfbench/README.md`). `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs the traced layer pass instead,
//! prints the per-layer metrics and writes its spans to
//! `<trace-out>/trace-<workload>-<seed>.json` (default
//! `perfbench/out`). `--toy` shrinks every input for the self-check.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is 0 only when
//! every verdict check passed.

mod check;
mod e2e;
mod jobs;
mod layers;
mod loadgen;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use check::Checks;
use e2e::timed;
use layers::Plan;
use trace::Tracer;

/// Metrics in print order, each with its unit, plus free-form notes.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

const WORKLOADS: [&str; 3] = ["probe-c4-free", "probe-c8-dense", "dist-loopback"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    toy: bool,
    trace_out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        toy: false,
        trace_out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--toy" {
            args.toy = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? == 1,
            "--trace-out" => args.trace_out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn end_to_end(a: &Args, checks: &mut Checks) -> Report {
    match a.workload.as_str() {
        "probe-c4-free" => e2e::probe(jobs::probe_c4_free, a.seed, a.toy, a.seconds, checks),
        "probe-c8-dense" => e2e::probe(jobs::probe_c8_dense, a.seed, a.toy, a.seconds, checks),
        _ => e2e::dist(jobs::dist_job, a.seed, a.toy, a.seconds, checks),
    }
}

fn traced(a: &Args, checks: &mut Checks) -> Result<Report, String> {
    let (job, build_s) = timed(|| match a.workload.as_str() {
        "probe-c4-free" => jobs::probe_c4_free(a.seed, a.toy),
        "probe-c8-dense" => jobs::probe_c8_dense(a.seed, a.toy),
        _ => jobs::dist_job(a.seed, a.toy),
    });
    let plan = Plan { job, build_s, dist_repeat: a.workload == "dist-loopback" };
    let mut tracer = Tracer::new();
    let (mut report, per_round) = layers::traced(plan, a.seconds, checks, &mut tracer);

    std::fs::create_dir_all(&a.trace_out).map_err(|e| format!("{}: {e}", a.trace_out.display()))?;
    let path = a.trace_out.join(format!("trace-{}-{}.json", a.workload, a.seed));
    let body = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"step_ns_per_round\":{per_round:?},\"spans\":{}}}\n",
        a.workload,
        a.seed,
        tracer.to_json()
    );
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    report.note(format!("spans written to {}", path.display()));
    Ok(report)
}

fn json_line(checks: &Checks, report: &Report) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        // A quantile over failed jobs is infinite; such a run is already
        // marked incorrect, and JSON has no infinity.
        let value = if value.is_finite() { *value } else { 1e9 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::new(args.seed);
    let report = if args.trace {
        match traced(&args, &mut checks) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        end_to_end(&args, &mut checks)
    };

    println!(
        "# {} seed {} ({} run)",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "end-to-end" }
    );
    for (name, value, unit) in &report.metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    for note in &report.notes {
        println!("  {note}");
    }
    let frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!("failed_frac {frac} ({} of {} operations)", checks.failed, checks.attempted);
    for line in checks.log() {
        println!("  FAILED {line}");
    }
    println!("{}", json_line(&checks, &report));
    if checks.failed == 0 && checks.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
