//! `expctl` — the scenario driver.
//!
//! ```text
//! expctl --list
//! expctl --run e10 --seed 42 --json out/
//! expctl --all --threads 8 --scale golden --json out/
//! ```
//!
//! Every run is a pure function of `(scenario, scale, seed)`; `--threads`
//! only changes wall-clock, never bytes — `--all --threads 1` and
//! `--all --threads 8` write identical JSON files. Each run ends with
//! one stderr line per scenario (id, name, ok or skipped, seconds) and
//! a summary line.

use hot_exp::registry::{self, RunCtx, Scale, ScenarioSpec};
use hot_exp::report::{ExpReport, ExpStatus};
use hot_exp::SEED;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    list: bool,
    all: bool,
    run: Vec<String>,
    seed: u64,
    scale: Scale,
    threads: usize,
    json_dir: Option<PathBuf>,
    quiet: bool,
    help: bool,
}

const USAGE: &str = "\
expctl — run the E1-E20 scenario registry

USAGE:
  expctl --list                      list registered scenarios
  expctl --run <id> [options]        run one scenario (repeatable)
  expctl --all [options]             run every scenario

OPTIONS:
  --seed <u64>       base seed (default 20030617)
  --scale <s>        golden | full (default full; golden = CI sizes)
  --threads <n>      worker threads (default: all cores; never changes output)
  --json <dir>       write <dir>/<id>.json per scenario
  --quiet            suppress the human-readable report text
  --help             this message
";

/// Parses the arguments after the program name. `--help` stops the
/// parse and asks for the usage text; any other flag it does not know,
/// a missing or malformed value, or no action at all is an error that
/// names the argument.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        list: false,
        all: false,
        run: Vec::new(),
        seed: SEED,
        scale: Scale::Full,
        threads: hot_graph::parallel::default_threads(),
        json_dir: None,
        quiet: false,
        help: false,
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{} requires a value", name))
        };
        match arg.as_str() {
            "--list" | "-l" => args.list = true,
            "--all" | "-a" => args.all = true,
            "--run" | "-r" => args.run.push(value("--run")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got {:?}", v))?;
            }
            "--scale" => {
                let v = value("--scale")?;
                args.scale = Scale::parse(&v)
                    .ok_or_else(|| format!("--scale expects golden|full, got {:?}", v))?;
            }
            "--threads" => {
                let v = value("--threads")?;
                args.threads = v
                    .parse::<usize>()
                    .map_err(|_| format!("--threads expects an integer, got {:?}", v))?
                    .max(1);
            }
            "--json" => args.json_dir = Some(PathBuf::from(value("--json")?)),
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => {
                args.help = true;
                return Ok(args);
            }
            other => return Err(format!("unknown argument {:?} (try --help)", other)),
        }
    }
    if !args.list && !args.all && args.run.is_empty() {
        return Err("nothing to do: pass --list, --run <id>, or --all (see --help)".into());
    }
    Ok(args)
}

/// The error for a `--run` key no scenario answers to, listing the
/// registry's ids.
fn unknown_scenario(key: &str) -> String {
    let ids: Vec<&str> = registry::registry().iter().map(|s| s.id).collect();
    format!(
        "unknown scenario {:?}; ids are {} (see --list)",
        key,
        ids.join(", ")
    )
}

fn write_json(dir: &Path, report: &ExpReport) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", report.scenario));
    std::fs::write(&path, report.to_json().pretty())?;
    Ok(path)
}

fn emit(report: &ExpReport, args: &Args) -> Result<(), String> {
    if !args.quiet {
        print!("{}", report.render_text());
        println!();
    }
    if let Some(dir) = &args.json_dir {
        let path = write_json(dir, report)
            .map_err(|e| format!("writing {}/{}.json: {}", dir.display(), report.scenario, e))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("expctl: {}", msg);
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        print!("{}", USAGE);
        return ExitCode::SUCCESS;
    }
    if args.list {
        println!("{:<5} {:<18} summary", "id", "name");
        for spec in registry::registry() {
            println!("{:<5} {:<18} {}", spec.id, spec.name, spec.summary);
        }
        if !args.all && args.run.is_empty() {
            return ExitCode::SUCCESS;
        }
    }
    let ctx = RunCtx {
        scale: args.scale,
        seed: args.seed,
        threads: args.threads,
        snapshot_dir: None,
    };
    // `--all` and `--run` share one loop: scenarios run one at a time,
    // each on every `--threads` worker.
    let specs: Vec<&ScenarioSpec> = if args.all {
        registry::registry().iter().collect()
    } else {
        let mut out = Vec::new();
        for key in &args.run {
            match registry::find(key) {
                Some(spec) => out.push(spec),
                None => {
                    eprintln!("expctl: {}", unknown_scenario(key));
                    return ExitCode::FAILURE;
                }
            }
        }
        out
    };
    // Each report is printed and written as soon as its scenario
    // finishes, so a long sweep shows progress and a later failure
    // keeps every report already written.
    let mut skipped = 0usize;
    let mut timings = Vec::with_capacity(specs.len());
    for spec in &specs {
        let start = Instant::now();
        let report = (spec.run)(ctx.clone());
        let seconds = start.elapsed().as_secs_f64();
        if let Err(msg) = emit(&report, &args) {
            eprintln!("expctl: {}", msg);
            return ExitCode::FAILURE;
        }
        let status = match report.status {
            ExpStatus::Ok => "ok",
            ExpStatus::Skipped { .. } => {
                skipped += 1;
                "skipped"
            }
        };
        timings.push((spec, status, seconds));
    }
    // Wall-clock goes to stderr only: stdout and the JSON stay the same
    // bytes at every thread count.
    for (spec, status, seconds) in timings {
        eprintln!(
            "expctl: {:<5} {:<18} {:<7} {:>9.3} s",
            spec.id, spec.name, status, seconds
        );
    }
    eprintln!(
        "expctl: {} scenario(s) run ({} skipped), scale {}, seed {}, {} thread(s)",
        specs.len(),
        skipped,
        ctx.scale.label(),
        ctx.seed,
        ctx.threads
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|a| a.to_string()))
    }

    /// A flag `expctl` does not know, a flag with no value, and a value
    /// of the wrong form are each an error that names the flag.
    #[test]
    fn bad_arguments_are_errors_naming_the_flag() {
        let cases: [(&[&str], &str); 14] = [
            (&["--run", "e15", "--snapshot-dir", "d"], "--snapshot-dir"),
            (&["--all", "--frobnicate"], "--frobnicate"),
            (&["--run"], "--run"),
            (&["--all", "--seed"], "--seed"),
            (&["--all", "--threads"], "--threads"),
            (&["--all", "--scale"], "--scale"),
            (&["--all", "--json"], "--json"),
            (&["--all", "--seed", "x"], "--seed"),
            (&["--all", "--seed", "1.5"], "--seed"),
            (&["--all", "--seed", "-1"], "--seed"),
            (&["--all", "--threads", "two"], "--threads"),
            (&["--all", "--threads", "1.5"], "--threads"),
            (&["--all", "--threads", "-1"], "--threads"),
            (&["--all", "--scale", "small"], "--scale"),
        ];
        for (argv, flag) in cases {
            let msg = parse(argv)
                .err()
                .unwrap_or_else(|| panic!("{:?} parsed", argv));
            assert!(msg.contains(flag), "{:?}: {}", argv, msg);
        }
    }

    #[test]
    fn no_action_is_rejected() {
        for argv in [&[][..], &["--seed", "7", "--threads", "2"], &["--quiet"]] {
            let msg = parse(argv)
                .err()
                .unwrap_or_else(|| panic!("{:?} parsed", argv));
            assert!(msg.contains("nothing to do"), "{:?}: {}", argv, msg);
        }
    }

    #[test]
    fn well_formed_arguments_parse() {
        let args = parse(&[
            "--run",
            "e15",
            "-r",
            "e18",
            "--seed",
            "7",
            "--scale",
            "golden",
            "--threads",
            "3",
            "--json",
            "out",
            "-q",
        ])
        .expect("parses");
        assert_eq!(args.run, ["e15", "e18"]);
        assert_eq!(args.seed, 7);
        assert_eq!(args.scale, Scale::Golden);
        assert_eq!(args.threads, 3);
        assert_eq!(args.json_dir, Some(PathBuf::from("out")));
        assert!(args.quiet && !args.list && !args.all && !args.help);
        // Zero threads still runs one worker.
        assert_eq!(
            parse(&["--all", "--threads", "0"]).expect("parses").threads,
            1
        );
        // `--help` stops the parse before a later bad flag.
        assert!(parse(&["--help", "--frobnicate"]).expect("parses").help);
    }

    #[test]
    fn unknown_scenario_lists_every_registered_id() {
        let msg = unknown_scenario("e99");
        for spec in registry::registry() {
            assert!(
                msg.split([' ', ',']).any(|word| word == spec.id),
                "{} missing from {:?}",
                spec.id,
                msg
            );
        }
    }
}
