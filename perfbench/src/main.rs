//! One measurement per process, printed as a single JSON line:
//!
//! ```text
//! perfbench run   --workload W --seed S --threads T
//! perfbench trace --workload W --seed S --threads T
//! ```
//!
//! `run` times `eN::run` untraced, then the input build, and reports
//! the report digest and the process's peak RSS; `trace` runs the
//! traced replay. `run.py` runs these and aggregates.

use hot_exp::{ExpStatus, Json};
use perfbench::trace::Tracer;
use perfbench::{pinned_digest, render, Workload};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command (run | trace)")?;
    let (mut workload, mut seed, mut threads) = (None, None, 1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number(&value)?),
            "--threads" => threads = number(&value)?.max(1) as usize,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        command,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        threads,
    })
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn hex(d: u64) -> Json {
    Json::str(format!("{d:016x}"))
}

/// The scenario first, in a fresh process (what `wall_s` and the peak
/// RSS describe), then the report's rendering and digest, then the
/// input build timed on its own (`setup_s`).
fn run(a: &Args) -> Result<Json, String> {
    let start = Instant::now();
    let report = a.workload.run_report(a.seed, a.threads);
    let wall_s = start.elapsed().as_secs_f64();
    let peak = peak_rss_mb()?;
    let start = Instant::now();
    let (_, digest) = render(&report);
    let render_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    a.workload.setup(a.seed, a.threads, &mut Tracer::default());
    let setup_s = start.elapsed().as_secs_f64();
    Ok(Json::obj([
        ("wall_s", Json::Float(wall_s)),
        ("setup_s", Json::Float(setup_s)),
        ("render_s", Json::Float(render_s)),
        ("peak_rss_mb", Json::Float(peak)),
        ("ok", Json::Bool(report.status == ExpStatus::Ok)),
        ("digest", hex(digest)),
        (
            "pinned",
            pinned_digest(a.workload, a.seed)?.map_or(Json::Null, hex),
        ),
        ("params", Json::str(a.workload.params_text())),
    ]))
}

fn trace(a: &Args) -> Json {
    let mut tr = Tracer::default();
    let start = Instant::now();
    let outputs = a.workload.traced(a.seed, a.threads, &mut tr);
    let total_s = start.elapsed().as_secs_f64();
    let busy = tr
        .busy
        .iter()
        .map(|(layer, b)| {
            (
                *layer,
                Json::obj([
                    ("busy_s", Json::Float(b.seconds)),
                    ("calls", Json::from(b.calls)),
                ]),
            )
        })
        .collect::<Vec<_>>();
    let counters = tr
        .counters
        .iter()
        .map(|(k, &v)| (k.as_str(), Json::from(v)))
        .collect::<Vec<_>>();
    Json::obj([
        ("total_s", Json::Float(total_s)),
        (
            "unattributed_s",
            Json::Float(total_s - tr.attributed_seconds()),
        ),
        ("outputs", hex(perfbench::fnv1a(outputs.as_bytes()))),
        ("layers", Json::obj(busy)),
        ("counters", Json::obj(counters)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match args.command.as_str() {
        "run" => run(&args),
        "trace" => Ok(trace(&args)),
        other => Err(format!("unknown command {other}")),
    };
    match out {
        Ok(json) => {
            println!("{}", json.compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
