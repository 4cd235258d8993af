//! Two-clock benchmark of the SMaT reproduction.
//!
//! Drives the program from outside through its public API and prints, as
//! the last line of standard output, one JSON object with the operations
//! attempted and failed and the metrics of the run:
//!
//! ```text
//! perfbench --workload <spmm_offline|serve_burst|serve_mutate> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end metrics of
//! `BENCHMARK.json`; with `--trace 1` they are the per-layer metrics,
//! measured by timing the benchmark's own calls into each layer and by
//! reading the counters the program exposes. See `perfbench/README.md`.

mod layers;
mod offline;
mod oracle;
mod serve;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["spmm_offline", "serve_burst", "serve_mutate"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back.
pub struct Outcome {
    /// Whether every global check held (per-operation mismatches are
    /// counted in `failed` instead).
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub spans: spans::Spans,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `v` (0 for an empty slice).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Peak resident set of this process in MiB, from the kernel's high-water
/// mark.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds this process has consumed (all threads, exited ones
/// included), from the kernel's per-process accounting in clock ticks.
/// Time the hypervisor steals from the virtual CPUs is not charged here,
/// which makes it a steadier host-cost clock than the wall clock on a
/// shared machine.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 =
        fields[11].parse::<f64>().expect("utime") + fields[12].parse::<f64>().expect("stime");
    ticks / CLOCK_TICKS_PER_S
}

/// `USER_HZ`, the unit of the per-process CPU times in `/proc`; 100 on
/// every mainstream Linux architecture.
const CLOCK_TICKS_PER_S: f64 = 100.0;

fn spans_path(args: &Args) -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    root.join("perfbench")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "spmm_offline" => offline::run(&args),
        _ => serve::run(&args),
    };
    if args.trace {
        let path = spans_path(&args);
        if let Err(e) = out.spans.write(&path) {
            eprintln!("perfbench: writing spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "perfbench: {} spans written to {}",
            out.spans.len(),
            path.display()
        );
        out.metrics
            .push(metric("trace.spans", out.spans.len() as f64, "count"));
    } else {
        match peak_rss_mb() {
            Some(mb) => out.metrics.push(metric("peak_rss_mb", mb, "MiB")),
            None => {
                eprintln!("perfbench: peak RSS unavailable");
                return ExitCode::FAILURE;
            }
        }
        // Every end-to-end metric must be a positive, finite measurement.
        for m in &out.metrics {
            if !(m.value.is_finite() && m.value > 0.0) {
                eprintln!("perfbench: metric {} read {}", m.name, m.value);
                out.correct = false;
            }
        }
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
