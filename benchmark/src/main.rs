//! `saber-benchmark`: the one runner behind `BENCHMARK.json`.
//!
//! ```text
//! saber-benchmark [--seed N] [--sets K] [--seconds S] [--smoke] [--out FILE] [--workload NAME]
//!     every workload (or one) untraced for the end-to-end metrics, then traced
//!     for the per-layer metrics; prints both and writes the result JSON
//! saber-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run in the driver's contract: a single JSON line on stdout
//! saber-benchmark compare A.json B.json
//!     applies the bounds to two result files; exit 1 on a regression
//! saber-benchmark manifest
//!     prints BENCHMARK.json as the binary's tables define it
//! ```
//!
//! See `README.md` for the workloads, the latency definition and the layer
//! to metric map.

mod check;
mod child;
mod gen;
mod host;
mod inproc;
mod json;
mod layers;
mod net;
mod procstat;
mod report;
mod run;
mod scrape;
mod spec;
mod stats;
mod trace;

use run::RunConfig;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    warmup: Option<f64>,
    trace: Option<bool>,
    sets: Option<usize>,
    smoke: bool,
    out: Option<PathBuf>,
    child: Option<String>,
    fault: Option<String>,
    positional: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
        let number = |flag: &str, text: String| -> Result<f64, String> {
            text.parse()
                .map_err(|_| format!("{flag}: `{text}` is not a number"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = Some(number("--seed", value("--seed")?)? as u64),
            "--seconds" => args.seconds = Some(number("--seconds", value("--seconds")?)?),
            "--warmup" => args.warmup = Some(number("--warmup", value("--warmup")?)?),
            "--trace" => args.trace = Some(number("--trace", value("--trace")?)? != 0.0),
            "--sets" => args.sets = Some(number("--sets", value("--sets")?)? as usize),
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--child" => args.child = Some(value("--child")?),
            "--fault" => args.fault = Some(value("--fault")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    match args.positional.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", spec::manifest());
            return Ok(true);
        }
        Some("compare") => {
            let [_, a, b] = args.positional.as_slice() else {
                return Err("usage: saber-benchmark compare <a.json> <b.json>".into());
            };
            return report::compare(a.as_ref(), b.as_ref());
        }
        Some(other) => return Err(format!("unknown command `{other}`")),
        None => {}
    }
    let workload = args
        .workload
        .as_deref()
        .map(|name| spec::workload(name).ok_or(format!("unknown workload `{name}`")))
        .transpose()?;
    let late_subscriber = match args.fault.as_deref() {
        None => false,
        Some("late-subscriber") => true,
        Some(other) => return Err(format!("unknown fault `{other}`")),
    };

    // One run: a child of this program, or the driver's contract.
    if let (Some(workload), Some(trace)) = (workload, args.trace) {
        let cfg = RunConfig {
            workload,
            seed: args.seed.unwrap_or(1),
            seconds: args.seconds.unwrap_or(spec::RUN_SECONDS as f64),
            warmup_s: args.warmup.unwrap_or(3.0),
            trace,
            setup_only: args.child.as_deref() == Some("setup"),
            late_subscriber,
        };
        if cfg.seconds < 1.0 {
            return Err("--seconds must be at least 1".into());
        }
        let results_dir = report::results_dir();
        std::fs::create_dir_all(&results_dir)
            .map_err(|e| format!("{}: {e}", results_dir.display()))?;
        if args.child.is_some() {
            println!("{}", child::run(&cfg, &results_dir)?.compact());
        } else {
            println!("{}", report::driver_run(&cfg)?);
        }
        return Ok(true);
    }

    report::full(&report::FullOptions {
        seed: args.seed.unwrap_or(1),
        seconds: args.seconds,
        smoke: args.smoke,
        sets: args.sets.unwrap_or(1),
        out: args.out,
        only: workload,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("saber-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
