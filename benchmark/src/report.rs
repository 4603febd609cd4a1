//! The parent side: re-exec one child per run, fold the children's results
//! into medians and quartiles, print them, write the result file, and
//! compare two result files against the bounds.

use crate::json::Json;
use crate::procstat;
use crate::run::RunConfig;
use crate::spec::{self, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Set-up-only children per measured run; with the run's own set-up that
/// makes five samples behind each reported `setup_s`.
const SETUP_REPEATS: usize = 4;

/// Directory the benchmark writes into: `benchmark/results` of the checkout
/// the command runs from, else of the checkout the binary was built in.
pub fn results_dir() -> PathBuf {
    let here = Path::new("benchmark");
    let package = if here.join("Cargo.toml").is_file() {
        here.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    };
    package.join("results")
}

/// Runs `cfg` in a fresh child process (so peak RSS, allocator state and the
/// server's loop state never leak between runs) and parses its result line.
fn spawn_child(cfg: &RunConfig) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("--child")
        .arg(if cfg.setup_only { "setup" } else { "run" })
        .args(["--workload", cfg.workload.name])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--warmup", &cfg.warmup_s.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }]);
    if cfg.late_subscriber {
        command.args(["--fault", "late-subscriber"]);
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child for {} exited with {}",
            cfg.workload.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed no result")?;
    Json::parse(line).map_err(|e| format!("child result: {e}"))
}

/// One measured run of one workload.
#[derive(Debug, Clone)]
pub struct Measured {
    pub end_to_end: Vec<(String, f64)>,
    pub per_layer: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub latency_samples: u64,
    pub violations: Vec<String>,
}

fn value_of(pairs: &[(String, f64)], name: &str) -> Option<f64> {
    pairs.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

fn pairs(value: Option<&Json>) -> Vec<(String, f64)> {
    value
        .map(|v| {
            v.fields()
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// Set-up-only children first (their median becomes `setup_s`), then the
/// measuring child.
pub fn measure(cfg: &RunConfig) -> Result<Measured, String> {
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let child = spawn_child(&RunConfig {
            setup_only: true,
            trace: false,
            late_subscriber: false,
            ..cfg.clone()
        })?;
        setups.push(
            child
                .get("setup_s")
                .and_then(Json::as_f64)
                .ok_or("set-up child reported no setup_s")?,
        );
    }
    let child = spawn_child(cfg)?;
    let mut end_to_end = pairs(child.get("end_to_end"));
    for (name, value) in &mut end_to_end {
        if name == "setup_s" {
            setups.push(*value);
            *value = stats::median(&setups);
        }
    }
    let count = |key: &str| child.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Ok(Measured {
        end_to_end,
        per_layer: pairs(child.get("per_layer")),
        attempted: count("attempted"),
        failed: count("failed"),
        latency_samples: count("latency_samples"),
        violations: child
            .get("violations")
            .map(|v| {
                v.items()
                    .iter()
                    .filter_map(|s| s.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default(),
    })
}

/// Adds `trace.overhead_pct`: the traced run's `cpu_s_per_mrow` against an
/// untraced figure for the same workload.
fn set_overhead(per_layer: &mut Vec<(String, f64)>, untraced_cpu_s_per_mrow: Option<f64>) {
    let traced = value_of(per_layer, "trace.cpu_s_per_mrow");
    if let (Some(traced), Some(untraced)) = (traced, untraced_cpu_s_per_mrow) {
        if untraced > 0.0 {
            per_layer.push((
                "trace.overhead_pct".into(),
                (traced - untraced) / untraced * 100.0,
            ));
        }
    }
}

/// Untraced `cpu_s_per_mrow` median the committed baseline records for
/// `workload`: what a lone traced run is compared with.
fn baseline_cpu(workload: &str) -> Option<f64> {
    let text = std::fs::read_to_string(results_dir().join("baseline.json")).ok()?;
    let doc = Json::parse(&text).ok()?;
    let entry = doc
        .get("workloads")?
        .items()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?;
    entry
        .get("end_to_end")?
        .items()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("cpu_s_per_mrow"))?
        .get("median")?
        .as_f64()
}

/// The driver contract: one workload, one run, one JSON line with exactly
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn driver_run(cfg: &RunConfig) -> Result<String, String> {
    let mut measured = measure(cfg)?;
    // Every metric of the manifest's list; a layer not crossed reads 0.
    let table: Vec<(&str, &str, f64)> = if cfg.trace {
        set_overhead(&mut measured.per_layer, baseline_cpu(cfg.workload.name));
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| (*name, *unit, value_of(&measured.per_layer, name)))
            .map(|(name, unit, value)| (name, unit, value.unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, value_of(&measured.end_to_end, m.name)))
            .map(|(name, unit, value)| (name, unit, value.unwrap_or(0.0)))
            .collect()
    };
    for v in &measured.violations {
        if measured.failed > 0 {
            eprintln!("[{}] {v}", cfg.workload.name);
        }
    }
    let mut metrics = Json::obj();
    for (name, unit, value) in table {
        let mut metric = Json::obj();
        metric.set("value", Json::Num(value));
        metric.set("unit", Json::Str(unit.into()));
        metrics.set(name, metric);
    }
    let mut line = Json::obj();
    line.set("correct", Json::Bool(measured.failed == 0));
    line.set("attempted", Json::Num(measured.attempted.max(1) as f64));
    line.set("failed", Json::Num(measured.failed as f64));
    line.set("metrics", metrics);
    Ok(line.compact())
}

pub struct FullOptions {
    pub seed: u64,
    /// `None` = `RUN_SECONDS`.
    pub seconds: Option<f64>,
    pub smoke: bool,
    pub sets: usize,
    pub out: Option<PathBuf>,
    pub only: Option<&'static Workload>,
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Every workload untraced (`sets` times, one seed per set) for the
/// end-to-end figures, then once traced for the per-layer table; prints
/// both and writes the result file. Returns whether every run was correct.
pub fn full(options: &FullOptions) -> Result<bool, String> {
    let (nproc, cpu_model, kernel) = procstat::machine();
    let mut doc = Json::obj();
    doc.set("schema", Json::Str("saber-benchmark/1".into()));
    let mut machine = Json::obj();
    machine.set("nproc", Json::Num(nproc as f64));
    machine.set("cpu_model", Json::Str(cpu_model));
    machine.set("kernel", Json::Str(kernel));
    doc.set("machine", machine);
    doc.set("git_rev", Json::Str(git_rev()));
    doc.set("seed", Json::Num(options.seed as f64));
    doc.set("sets", Json::Num(options.sets as f64));
    let mut all_correct = true;
    let mut entries = Vec::new();
    for workload in WORKLOADS
        .iter()
        .filter(|w| options.only.is_none_or(|only| only.name == w.name))
    {
        // Smoke: two-second phases, every code path and check as usual.
        let (seconds, warmup_s) = match (options.smoke, options.seconds) {
            (true, _) if workload.closed_loop_phase => (4.0, 0.5),
            (true, _) => (2.0, 0.5),
            (false, seconds) => (seconds.unwrap_or(spec::RUN_SECONDS as f64), 3.0),
        };
        let cfg = |seed: u64, trace: bool| RunConfig {
            workload,
            seed,
            seconds,
            warmup_s,
            trace,
            setup_only: false,
            late_subscriber: false,
        };
        let mut runs = Vec::new();
        for set in 0..options.sets.max(1) {
            eprintln!(
                "[{}] untraced set {} of {}",
                workload.name,
                set + 1,
                options.sets.max(1)
            );
            runs.push(measure(&cfg(options.seed + set as u64, false))?);
        }
        eprintln!("[{}] traced run", workload.name);
        let traced = measure(&cfg(options.seed, true))?;
        let (entry, correct) = workload_entry(workload, seconds, &runs, traced);
        all_correct &= correct;
        entries.push(entry);
    }
    doc.set("workloads", Json::Arr(entries));
    let out = options
        .out
        .clone()
        .unwrap_or_else(|| results_dir().join("latest.json"));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, doc.pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\nresult written to {}", out.display());
    Ok(all_correct)
}

/// Prints one workload's tables and returns its entry of the result file
/// and whether every run of it was correct.
fn workload_entry(
    workload: &Workload,
    seconds: f64,
    runs: &[Measured],
    mut traced: Measured,
) -> (Json, bool) {
    let values = |name: &str| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| value_of(&r.end_to_end, name))
            .collect()
    };
    set_overhead(
        &mut traced.per_layer,
        Some(stats::median(&values("cpu_s_per_mrow"))),
    );

    let attempted: u64 = runs.iter().chain([&traced]).map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().chain([&traced]).map(|r| r.failed).sum();
    let failed_share = failed as f64 / attempted.max(1) as f64;
    println!("\n== {} — {}", workload.name, workload.why);
    println!(
        "   {seconds} s measured per run, {} untraced run(s); failed {failed} of {attempted} \
         (failed_share {failed_share})",
        runs.len(),
    );
    for run in runs.iter().chain([&traced]).filter(|r| r.failed > 0) {
        for v in &run.violations {
            println!("   !! {v}");
        }
    }
    let mut entry = Json::obj();
    entry.set("name", Json::Str(workload.name.into()));
    entry.set("seconds", Json::Num(seconds));
    entry.set("attempted", Json::Num(attempted as f64));
    entry.set("failed", Json::Num(failed as f64));
    entry.set("failed_share", Json::Num(failed_share));
    let samples: Vec<f64> = runs.iter().map(|r| r.latency_samples as f64).collect();
    entry.set("latency_samples", Json::Num(stats::median(&samples)));
    println!(
        "   {:<24} {:>14} {:>14} {:>14} {:>8} {:>7}  unit",
        "end to end", "median", "q1", "q3", "spread", "bound"
    );
    let mut e2e = Vec::new();
    for m in &END_TO_END {
        let v = values(m.name);
        let (q1, q3) = stats::quartiles(&v);
        let (median, spread) = (stats::median(&v), stats::spread(&v));
        println!(
            "   {:<24} {median:>14.6} {q1:>14.6} {q3:>14.6} {:>7.2}% {:>6.0}%  {}",
            m.name,
            spread * 100.0,
            m.bound * 100.0,
            m.unit
        );
        let mut metric = Json::obj();
        metric.set("name", Json::Str(m.name.into()));
        metric.set("unit", Json::Str(m.unit.into()));
        metric.set("better", Json::Str(spec::better(m.higher_is_better).into()));
        metric.set("bound", Json::Num(m.bound));
        metric.set("median", Json::Num(median));
        metric.set("q1", Json::Num(q1));
        metric.set("q3", Json::Num(q3));
        metric.set("spread", Json::Num(spread));
        metric.set("n", Json::Num(v.len() as f64));
        metric.set("values", Json::Arr(v.into_iter().map(Json::Num).collect()));
        e2e.push(metric);
    }
    entry.set("end_to_end", Json::Arr(e2e));
    println!(
        "   {:<40} {:>16}  unit   (traced run)",
        "per layer", "value"
    );
    let mut layers = Vec::new();
    for (name, unit, _) in &PER_LAYER {
        // A layer this workload does not cross has no value.
        let Some(value) = value_of(&traced.per_layer, name) else {
            println!("   {name:<40} {:>16}  {unit}", "-");
            continue;
        };
        println!("   {name:<40} {value:>16.6}  {unit}");
        let mut metric = Json::obj();
        metric.set("name", Json::Str((*name).into()));
        metric.set("unit", Json::Str((*unit).into()));
        metric.set("value", Json::Num(value));
        layers.push(metric);
    }
    entry.set("per_layer", Json::Arr(layers));
    (entry, failed == 0)
}

/// One `compare` row.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Improved,
    Regression,
    /// The recorded run-to-run spread exceeds the bound: the pairing cannot
    /// be judged either way.
    Unresolved,
}

/// Judges medians `a` → `b` of a metric. Returns the share by which `b` is
/// worse (negative = better) and the verdict.
pub fn judge(a: f64, b: f64, higher_is_better: bool, bound: f64, spread: f64) -> (f64, Verdict) {
    let worse_by = if a == 0.0 {
        0.0
    } else if higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn named<'a>(list: Option<&'a Json>, name: &str) -> Option<&'a Json> {
    list?
        .items()
        .iter()
        .find(|item| item.get("name").and_then(Json::as_str) == Some(name))
}

/// Applies the bounds to every (metric, workload) pairing of result files
/// `a` (parent) and `b` (change). `Ok(true)` when nothing regressed and no
/// workload's failed share rose.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut pass = true;
    println!(
        "{:<20} {:<22} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound", "spread"
    );
    for workload in &WORKLOADS {
        let (Some(wa), Some(wb)) = (
            named(a.get("workloads"), workload.name),
            named(b.get("workloads"), workload.name),
        ) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(ma), Some(mb)) = (
                named(wa.get("end_to_end"), m.name),
                named(wb.get("end_to_end"), m.name),
            ) else {
                continue;
            };
            let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            let spread = num(ma, "spread").max(num(mb, "spread"));
            let (va, vb) = (num(ma, "median"), num(mb, "median"));
            let (worse_by, verdict) = judge(va, vb, m.higher_is_better, m.bound, spread);
            pass &= verdict != Verdict::Regression;
            println!(
                "{:<20} {:<22} {va:>14.6} {vb:>14.6} {:>8.2}% {:>6.0}% {:>7.2}%  {}",
                workload.name,
                m.name,
                worse_by * 100.0,
                m.bound * 100.0,
                spread * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Improved => "improved",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let share = |w: &Json| w.get("failed_share").and_then(Json::as_f64).unwrap_or(0.0);
        let (fa, fb) = (share(wa), share(wb));
        let failed_more = fb > fa;
        pass &= !failed_more;
        println!(
            "{:<20} {:<22} {fa:>14.6} {fb:>14.6} {:>51}",
            workload.name,
            "failed_share",
            if failed_more { "MORE FAILURES" } else { "ok" }
        );
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        // Lower is better: 10 % worse against a 5 % bound regresses.
        assert_eq!(judge(1.0, 1.1, false, 0.05, 0.01).1, Verdict::Regression);
        assert_eq!(judge(1.0, 1.04, false, 0.05, 0.01).1, Verdict::Ok);
        assert_eq!(judge(1.0, 0.9, false, 0.05, 0.01).1, Verdict::Improved);
        // Higher is better: a drop is what is worse.
        let (worse_by, verdict) = judge(50.0, 45.0, true, 0.07, 0.02);
        assert!((worse_by - 0.1).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Regression);
        assert_eq!(judge(50.0, 55.0, true, 0.07, 0.02).1, Verdict::Improved);
        // A spread wider than the bound leaves the pairing unresolved.
        assert_eq!(judge(1.0, 2.0, false, 0.05, 0.06).1, Verdict::Unresolved);
        assert_eq!(judge(0.0, 1.0, false, 0.05, 0.0).1, Verdict::Ok);
    }

    fn result_file(dir: &Path, name: &str, cpu: f64, spread: f64, failed_share: f64) -> PathBuf {
        let mut metric = Json::obj();
        metric.set("name", Json::Str("cpu_s_per_mrow".into()));
        metric.set("median", Json::Num(cpu));
        metric.set("spread", Json::Num(spread));
        let mut workload = Json::obj();
        workload.set("name", Json::Str("inproc_select".into()));
        workload.set("failed_share", Json::Num(failed_share));
        workload.set("end_to_end", Json::Arr(vec![metric]));
        let mut doc = Json::obj();
        doc.set("workloads", Json::Arr(vec![workload]));
        let path = dir.join(name);
        std::fs::write(&path, doc.pretty()).unwrap();
        path
    }

    #[test]
    fn compare_fails_on_regression_or_more_failures_only() {
        // Inside the package's own (ignored) scratch space, like every file
        // the benchmark writes.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("tmp-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = result_file(&dir, "a.json", 0.020, 0.01, 0.0);
        let same = result_file(&dir, "b.json", 0.0205, 0.01, 0.0);
        let slower = result_file(&dir, "c.json", 0.030, 0.01, 0.0);
        let noisy = result_file(&dir, "d.json", 0.030, 0.30, 0.0);
        let failing = result_file(&dir, "e.json", 0.020, 0.01, 0.001);
        assert!(compare(&base, &same).unwrap());
        assert!(!compare(&base, &slower).unwrap());
        assert!(
            compare(&base, &noisy).unwrap(),
            "unresolved is not a regression"
        );
        assert!(!compare(&base, &failing).unwrap());
        assert!(compare(&base, &dir.join("missing.json")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
